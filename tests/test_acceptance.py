"""Acceptance battery: one test per criterion, each printing its verdict line.

Run with -s (or read the captured output) to see the per-criterion summary.
Details travel in the assertion message so a red criterion is diagnosable
straight from the pytest report. Each criterion's details must also match
those of the saved ``qindlab suite --no-timing`` document, suite_results.json
(floats within 1e-12, as for the golden documents), so the battery's numbers
are pinned without running the suite a second time.
"""

import inspect
import json
from pathlib import Path

from test_golden import mismatches

from qindlab import acceptance, cli

SAVED = {
    c["number"]: c
    for c in json.loads((Path(__file__).parent / "suite_results.json").read_text())["results"][
        "criteria"
    ]
}


def check(result):
    print(result.line())
    assert result.passed, f"{result.line()} details={result.details}"
    saved = SAVED[result.number]
    assert result.name == saved["name"]
    # the details as the CLI writes them
    details = json.loads(json.dumps(result.details, default=cli._json_clean))
    problems = mismatches(details, saved["details"])
    assert not problems, problems


def test_criterion_01_bz_rate():
    check(acceptance.criterion_1())


def test_criterion_02_qlp_perfect_distinguisher():
    check(acceptance.criterion_2())


def test_criterion_03_hadamard_bit_at_one_bit_messages():
    check(acceptance.criterion_3())


def test_criterion_04_coherence_block_spectrum():
    check(acceptance.criterion_4())


def test_criterion_05_lemma_bound_sampled():
    check(acceptance.criterion_5())


def test_criterion_06_corollary_bound_with_taken_outputs():
    check(acceptance.criterion_6())


def test_criterion_07_prp_within_corollary_bound():
    check(acceptance.criterion_7())


def test_criterion_08_block_scheme_within_scaled_bound():
    check(acceptance.criterion_8())


def test_criterion_09_interconversion_circuits():
    check(acceptance.criterion_9())


def test_criterion_10_adjoint_is_decryption():
    check(acceptance.criterion_10())


def test_criterion_11_property_battery():
    check(acceptance.criterion_11())


# -- the criterion decorator's contract ------------------------------------------


def test_a_raising_criterion_fails_with_its_reason():
    @acceptance._criterion(99, "raises", limit=None)
    def body(details):
        details["reached"] = True
        raise ValueError("boom")

    result = body()
    assert (result.number, result.name, result.passed) == (99, "raises", False)
    assert result.details == {"reached": True, "error": "ValueError: boom"}


def test_a_criterion_reaching_its_limit_fails():
    @acceptance._criterion(98, "limited", limit=0.0)
    def body(details):
        return True

    result = body()
    assert not result.passed
    assert result.details == {"runtime_limit_seconds": 0.0, "runtime_exceeded": True}


def test_a_criterion_without_a_limit_records_none():
    @acceptance._criterion(97, "unlimited")
    def body(details):
        details["value"] = 1
        return 1

    result = body()
    assert result.passed is True and result.seconds >= 0.0
    assert result.details == {"value": 1}


def test_a_criterion_keeps_its_name_and_docstring():
    def body(details):
        """What the criterion checks."""
        return True

    criterion = acceptance._criterion(96, "named")(body)
    assert (criterion.__name__, criterion.__doc__) == ("body", "What the criterion checks.")
    assert not inspect.signature(criterion).parameters
    for number, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
        assert fn.__name__ == f"criterion_{number}" and fn.__doc__
