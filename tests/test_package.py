"""The lazy package namespace, and the lormatch modules each subcommand loads.

`lormatch` reads each public name from its home module on access and stores
none of them; `lormatch.cli` imports a compute module only in the handlers
that run it.  The footprints are taken in fresh interpreters.
"""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lormatch
from lormatch import matchings, polymatroids

SRC = str(Path(lormatch.__file__).resolve().parent.parent)
SEQ = '{"m":2,"sets":[[1],[2]]}'
X1X2 = '{"nvars":2,"terms":[{"exp":[1,1],"coeff":1}]}'


class TestLazyNamespace:
    def test_every_name_is_its_home_modules_object(self):
        for name in lormatch.__all__:
            home = importlib.import_module(f"lormatch.{lormatch._HOME[name]}")
            value = getattr(lormatch, name)
            assert value is getattr(home, name), name
            # the table names the module that defines it
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert lormatch.AxiomViolation is polymatroids.AxiomViolation

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from lormatch import *", namespace)
        assert len(lormatch.__all__) == 59
        assert all(namespace[name] is getattr(lormatch, name) for name in lormatch.__all__)

    def test_dir_lists_every_name(self):
        assert set(lormatch.__all__) <= set(dir(lormatch))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'lormatch' has no attribute 'no_such_name'"):
            lormatch.no_such_name

    def test_access_stores_nothing_in_the_package(self):
        for name in lormatch.__all__:  # every home module is loaded from here on
            getattr(lormatch, name)
        before = set(vars(lormatch))
        for name in lormatch.__all__:
            getattr(lormatch, name)
        assert set(vars(lormatch)) == before
        assert not before & set(lormatch.__all__)

    def test_a_rebinding_in_the_home_module_is_seen(self, monkeypatch):
        real = matchings.admits_matching

        def fake(*args, **kwargs):
            return True

        with monkeypatch.context() as patch:
            patch.setattr(matchings, "admits_matching", fake)
            assert lormatch.admits_matching is fake
        assert lormatch.admits_matching is real


# one command line per subcommand, each exiting 0; "import" runs none
COMMANDS = {
    "import": (),
    "verify --help": ("verify", "--help"),
    "match": ("match", "--sets", SEQ, "--alpha", "1,1"),
    "induce": ("induce", "--sets", SEQ, "--elementary", "1"),
    "subst": ("subst", "--sets", SEQ, "--poly", X1X2),
    "ct": ("ct", "--sets", SEQ, "--r", "1"),
    "fpoly": ("fpoly", "--sets", SEQ, "--r", "1"),
    "symbol": ("symbol", "--sets", SEQ, "--kappa", "1,1"),
    "certify": ("certify", "--poly", X1X2),
    "pminduce": ("pminduce", "--pm", '{"free":[2,1]}', "--sets", SEQ, "--points"),
    "hallrado": ("hallrado", "--pm", '{"free":[2,1]}', "--sets", SEQ, "--delta", "1,0"),
    "tab-family": ("tab-family", "--sets", SEQ, "--a", "1,1", "--b", "1,1", "--kappa", "1,1"),
    "verify": ("verify", "--check", "golden-examples", "--trials", "1"),
}

PROBE = """\
import contextlib, io, sys
import lormatch.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lormatch.cli.run(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("lormatch")))
"""

BASE = {"lormatch", "lormatch._util", "lormatch.cli"}


@functools.cache
def _loaded(command: str) -> frozenset:
    """The lormatch modules a fresh interpreter holds after the command line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *COMMANDS[command]],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    code, *modules = done.stdout.split()
    assert code == "0", (command, done.stdout)
    return frozenset(modules)


class TestImportFootprint:
    @pytest.mark.parametrize("command", ["import", "verify --help"])
    def test_no_compute_module_without_a_handler(self, command):
        assert _loaded(command) == BASE

    def test_match_adds_only_its_own_modules(self):
        assert _loaded("match") == BASE | {"lormatch._packed", "lormatch.matchings"}

    def test_certify_loads_no_operator_module(self):
        assert not _loaded("certify") & {"lormatch.operators", "lormatch.matchstats"}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_only_verify_loads_verification(self, command):
        assert ("lormatch.verification" in _loaded(command)) == (command == "verify")
