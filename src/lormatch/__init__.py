"""Exact arithmetic for matching statistics, induced polynomials,
polymatroids, and Lorentzian certification.

Every public name is read from its home module on first access (PEP 562),
so `import lormatch` and `import lormatch.cli` load no compute module, and a
command-line process loads only the modules its subcommand runs.  A name is
looked up in its home module on every access and never stored here, so a
later rebinding there, such as a test's monkeypatch, is seen through the
package too.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in {
        "_util": "AxiomViolation",
        "lorentzian": "CertFailure Inertia LorentzReport certify_lorentzian is_m_convex "
        "quad_inertia symmetric_inertia",
        "matchings": "MatchWitness SubsetSeq admits_matching caps_from_json compose_seq "
        "find_witness matched_degrees",
        "matchstats": "StatTable basis_match_count basis_match_poly match_count match_poly "
        "stat_table",
        "operators": "OperatorBox apply_inducing apply_substitution augment_with_singletons "
        "box_from_symbol inducing_box power_box substitution_box symbol_of tab_family_box",
        "polymatroids": "InternalCheckError LinReal Matroid Polymatroid base_egf base_points "
        "direct_sum free_polymatroid hall_rado_member in_base_polytope induce_matroid "
        "induce_polymatroid linreal_induce linreal_rank matroid_bases support_polymatroid "
        "uniform_matroid validate_polymatroid",
        "polynomials": "ANY_DEGREE FloatPoly Poly elementary_symmetric",
        "verification": "CHECKS CheckResult TrialConfig replay run_all run_check",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
