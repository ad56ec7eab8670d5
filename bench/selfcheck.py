"""Self-check of the benchmark's own code; runs in about a second.

    python3 bench/selfcheck.py

Checks that every output checker accepts the value theory gives and rejects a
perturbed one, that self times on a synthetic span tree come out right, that
operations are priced at their best, and that BENCHMARK.json names
exactly the metrics run.py prints. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        FAILURES.append(what)


def accepts_and_rejects(name: str, good: list[str], bad: list[str]) -> None:
    expect(good == [], f"{name} rejected the theory value: {good}")
    expect(bad != [], f"{name} accepted a perturbed value")


def check_formulas() -> None:
    hw = checks.hoeffding(200)
    accepts_and_rejects("bz", checks.check_bz(0.9375, 200, 3), checks.check_bz(0.9375 + 1.01 * hw, 200, 3))
    accepts_and_rejects("perfect", checks.check_perfect(30, 30, "x"), checks.check_perfect(29, 30, "x"))
    limit = checks.corollary_bound(2, 8, 0) + 2 * checks.hoeffding(30)
    accepts_and_rejects(
        "prp advantage",
        checks.check_prp_advantage(-0.99 * limit, 30, 2, 8),
        checks.check_prp_advantage(-1.01 * limit, 30, 2, 8),
    )
    accepts_and_rejects(
        "sampled certificate",
        checks.check_sampled_certificate(0.2499, 0.25, 2, 4, 0),
        checks.check_sampled_certificate(0.2501, 0.25, 2, 4, 0),
    )
    bound = 4 / (16 - 4 / 4)
    accepts_and_rejects(
        "sampled certificate bound",
        checks.check_sampled_certificate(0.1, bound, 2, 4, 4),
        checks.check_sampled_certificate(0.1, 0.25, 2, 4, 4),
    )
    accepts_and_rejects(
        "exhaustive distance",
        checks.check_exhaustive_me(0.09375, 2, 2, 0),
        checks.check_exhaustive_me(0.09375 + 2e-9, 2, 2, 0),
    )
    expect(checks.me_distance(1, 1, 0) == 0.25, "ME distance at m=1 tau=1 is not criterion 4's 1/4")
    expect(checks.check_exhaustive_me(0.125, 2, 2, 4) == [], "ME distance with |T|=4 at m=2 tau=2")


def good_suite_doc() -> dict:
    c = 1.0 / 12
    details = {
        1: {"sampled_target": 0.9375, "sampled_win_rate_m3": 0.9375, "max_exact_error": 1e-16},
        2: {"forced_trials": 192, "forced_wins": 192, "min_exact_probability": 1.0},
        3: {"forced_trials": 64, "forced_wins": 64, "min_exact_probability": 1.0},
        4: {"chi_c_eigenvalues": [-c, -c, -c, 3 * c], "chi_c_trace_norm": 0.5,
            "me_input_trace_distance": 0.25},
        5: {"bound": 0.5, "max_trace_distance": 0.07},
        6: {"bound": 2 / 3, "max_trace_distance": 0.09, "empty_taken_matches_lemma": True},
        7: {"taken_count": 8, "corollary_bound": 2 / 7, "advantage_qlp-forced": 0.06,
            "advantage_hadamard-bit": 0.02, "advantage_random": -0.01},
        8: {"mu_times_bound": 0.5, "advantage": -0.02},
        9: {"cases": 96, "max_entrywise_deviation": 0.0},
        10: {"cases": 256},
        11: {"cli_determinism": True, "scheme_roundtrips": True},
    }
    criteria = [{"number": n, "passed": True, "details": d} for n, d in details.items()]
    return {"results": {"criteria": criteria}}


PERTURBED = (
    (1, "sampled_win_rate_m3", 0.92),
    (1, "sampled_target", 0.875),
    (2, "forced_wins", 191),
    (3, "forced_trials", 32),
    (4, "chi_c_eigenvalues", [-0.1, -0.1, -0.05, 0.25]),
    (4, "me_input_trace_distance", 0.2500001),
    (5, "max_trace_distance", 0.51),
    (5, "bound", 0.25),
    (6, "bound", 0.5),
    (6, "empty_taken_matches_lemma", False),
    (7, "advantage_random", 0.34),
    (7, "taken_count", 4),
    (8, "advantage", -0.6),
    (9, "cases", 95),
    (10, "cases", 255),
    (11, "cli_determinism", False),
)


def check_suite_checker() -> None:
    failed, problems = checks.check_suite(0, good_suite_doc())
    expect(failed == 0 and problems == [], f"suite checker rejected a correct document: {problems}")
    for number, key, value in PERTURBED:
        doc = good_suite_doc()
        doc["results"]["criteria"][number - 1]["details"][key] = value
        expect(checks.check_suite(0, doc)[1] != [], f"suite checker accepted c{number} {key}={value}")
    doc = good_suite_doc()
    expect(checks.check_suite(1, doc)[1] != [], "suite checker accepted exit code 1 with all passing")
    c1 = doc["results"]["criteria"][0]
    c1["passed"] = False
    c1["details"].update(runtime_limit_seconds=10.0, runtime_exceeded=True)
    expect(checks.check_suite(1, doc) == (1, []), "a criterion over its ceiling alone is a timing failure")
    expect(checks.check_suite(0, doc)[1] != [], "suite checker accepted exit code 0 with a failure")
    c1["details"]["sampled_win_rate_m3"] = 0.5
    expect(checks.check_suite(1, doc)[1] != [], "a failed criterion's numbers went unchecked")
    doc = good_suite_doc()
    doc["results"]["criteria"][6]["passed"] = False
    expect(checks.check_suite(1, doc)[1] != [], "a failure not due to the ceiling was not a problem")
    doc = good_suite_doc()
    del doc["results"]["criteria"][10]
    expect(checks.check_suite(0, doc)[1] != [], "suite checker accepted ten criteria")


class FakeClock:
    """perf_counter that reads successive values from a script."""

    def __init__(self, ticks: list[float]) -> None:
        self.ticks = iter(ticks)

    def perf_counter(self) -> float:
        return next(self.ticks)


def check_self_times() -> None:
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds d [5, 6] and e [7, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    got = [float(x) for x in tracing.self_times(parent, start, end)]
    expect(got == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5], f"self times {got}")
    expect(sum(got) == 10.0, "self times do not add up to the root")

    # the same tree through the recorder, spans opened by wrapped calls
    rec = tracing.Recorder()
    real_time = tracing.time
    tracing.time = FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0, 8.5, 9.0, 10.0])
    try:
        leaf_c = rec.wrap("quantum_core.measure", lambda: None)
        leaf_d = rec.wrap("schemes.enc", lambda: None)
        leaf_e = rec.wrap("schemes.enc", lambda: None)
        mid_a = rec.wrap("games.trial.fqind", lambda: leaf_c())
        mid_b = rec.wrap("oracles.build", lambda: (leaf_d(), leaf_e()))
        root = rec.wrap(tracing.ROOT, lambda: (mid_a(), mid_b()))
        rec.active = True
        root()
        rec.active = False
    finally:
        tracing.time = real_time
    summary = tracing.summarize(rec)
    want = {
        "games.trial": [1, 2.0],
        "quantum_core.measure": [1, 1.0],
        "oracles.build": [1, 1.5],
        "schemes.enc": [2, 2.5],
    }
    expect(summary["groups"] == want, f"recorded groups {summary['groups']}")
    expect(summary["root_self_s"] == 3.0, f"root self time {summary['root_self_s']}")
    expect(summary["trial_ms"]["fqind"] == [3000.0], f"trial durations {summary['trial_ms']}")
    expect(rec.in_span_named(2, "games.trial.fqind"), "parent lookup")
    for name in ("cli.main", "acceptance.c07", "acceptance.run_all", "games.trial.qind", "channels.certify"):
        expect(tracing.group_of(name) is not None, f"span {name} belongs to no metric group")
    expect(tracing.group_of(tracing.ROOT) is None, "the root span must stay unattributed")


def check_best_ops() -> None:
    import run

    # two rounds: a game call with two whole trial slices in the workload,
    # and two sampled certificates plus an exhaustive one in the certificate groups
    game = ["fqind", ["s", "a"], 33]
    others = [["qind", ["p", "q"], 1, 0.5, 1, []], ["gqind", ["p", "g"], 1, 0.5, 1, []]]
    cert = ["sampled", [2, 3, 0, 4, 500], 1]
    exhaustive = ["exhaustive", [2, 1, 0, 1, None], 1, 0.2, 0, []]
    rounds = [
        {"ops": [[*game, 1.0, 33, [0.32, 0.48]], *others],
         "certificates": [[*cert, 0.5, 0, []], [*cert, 0.3, 0, []], exhaustive]},
        {"ops": [[*game, 0.9, 33, [0.40, 0.36]], *others],
         "certificates": [[*cert, 0.6, 0, []], [*cert, 0.7, 0, []], exhaustive]},
    ]
    got = {json.dumps(op): (round(t, 12), n) for op, t, n in run.best_ops(rounds)}
    # rest of the game call: min(1.0 - 0.8, 0.9 - 0.76) = 0.14; two slices
    # at the fastest slice, 0.32 s
    expect(got[json.dumps(game)] == (0.78, 1), f"best game operation {got}")
    values = run.end_to_end([dict(r, setup_s=0.1, maxrss_mb=60.0, round_s=5.0) for r in rounds])
    # outside every operation: min(5.0 - 3.0, 5.0 - 3.4) = 1.6; the
    # certificate groups do not count towards suite_s
    want_suite = 1.6 + 0.78 + 0.5 + 0.5
    expect(abs(values["suite_s"] - want_suite) < 1e-12, f"suite_s {values['suite_s']}")
    expect(abs(values["fqind_trials_per_s"] - 33 / 0.78) < 1e-9, "trial rate")
    # median of the sampled calls 0.5, 0.3, 0.6, 0.7
    expect(abs(values["certify_sampled_s"] - 0.55) < 1e-12, "certificate seconds")
    expect(abs(values["certify_exhaustive_s"] - 0.2) < 1e-12, "exhaustive seconds")
    expect(tracing.trial_slices([0.0, 1.0]) == [], "one slice needs SLICE + 1 marks")
    marks = [0.5 * i for i in range(tracing.SLICE * 2 + 1)]
    expect(tracing.trial_slices(marks) == [0.5 * tracing.SLICE] * 2, "slice durations")


def check_benchmark_json() -> None:
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
        "BENCHMARK.json per_layer differs from run.PER_LAYER",
    )
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ")
    expect(run.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0, "nearest-rank median")
    expect(run.percentile(list(range(1, 101)), 99) == 99, "nearest-rank p99")


def main() -> int:
    check_formulas()
    check_suite_checker()
    check_self_times()
    check_best_ops()
    check_benchmark_json()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selfcheck", "failed" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
