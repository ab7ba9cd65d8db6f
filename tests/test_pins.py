"""The pin runner (tests/pins.py): its failures name their rows, the quick rows hold, and CI
starts lormatch only through the runner."""

from pathlib import Path

import pytest

import pins

TOPIC = 'ct --topic 1 --sets {"m":2,"sets":[[1,2],[2]]}'
OK = '{"count":2,"topic":[1]}'


def _failures(*rows):
    return pins.run(rows, report=lambda line: None)


def test_a_passing_row_reports_nothing():
    assert _failures(pins.Row("topic", TOPIC, OK)) == []


FAULTS = [
    (pins.Row("wrong sha", TOPIC, pins.sha("0" * 64)), f"stdout '{OK}\\n': sha256 "),
    (pins.Row("wrong text", TOPIC, '{"count":3,"topic":[1]}'), f"stdout '{OK}\\n': is not the pinned text"),
    (pins.Row("wrong exit code", TOPIC, OK, code=1), "exit 0, expected 1"),
    (pins.Row("stderr where none is expected", 'ct --sets {"m":', code=2), "stderr 'error: "),
    (pins.Row("slow", "verify", timeout=0.01), "timed out after 0.01 s"),
    (pins.Row("file of a missing row", "certify --poly @f.json", files={"f.json": pins.Out("nowhere")}),
     "LookupError: refers to no earlier row 'nowhere'"),
    (pins.Row("predicate over a missing row", TOPIC, pins.same_as("nowhere")),
     "LookupError: refers to no earlier row 'nowhere'"),
]


@pytest.mark.parametrize(("row", "reason"), FAULTS, ids=[row.name for row, _ in FAULTS])
def test_a_failing_row_is_named(row, reason):
    [failure] = _failures(row)
    assert failure.startswith(f"{row.name}: {reason}")


def test_names_are_unique():
    names = [row.name for row in pins.ROWS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("row", [row for row in pins.ROWS if row.quick], ids=lambda row: row.name)
def test_quick_row(row):
    assert _failures(row) == []


def test_ci_starts_lormatch_only_through_the_runner():
    # read as text: PyYAML is not a CI dependency.  A new process check is a row, not a step
    workflow = (Path(__file__).resolve().parent.parent / ".github/workflows/tests.yml").read_text()
    runs = [line.split("run:", 1)[1].strip() for line in workflow.splitlines() if line.strip().startswith("run:")]
    assert "timeout 300 python -W error tests/pins.py" in runs
    for run in runs:
        assert "lormatch" not in run or run.endswith("tests/pins.py"), run
        assert run not in ("|", ">") and "python -c" not in run, run
