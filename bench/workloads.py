"""The benchmark's workloads: inputs from a seed, one round, and its checks.

A round is the workload's own work with groups of the same certificates in
every workload spread through it; the certificates are timed apart from the
rest.

Imported only after qindlab and the spans are installed, and every package
function is looked up at call time, so the wrappers are the ones called.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import redirect_stdout

import numpy as np

import checks
from qindlab import acceptance, attacks, channels, cli, games, schemes


class Certificates:
    """Groups of sampled and exhaustive bound certificates, the same in every workload.

    Every group of a run makes the same four certificates on the same
    inputs: sampled lemma and corollary certificates at m=2, tau=3 (4 probes
    over 500 sampled injections; 4 random taken outputs for the corollary),
    then exhaustive ones with the maximally entangled probe only, at m=2,
    tau=1 without a taken set and at m=2, tau=2 with 8 random taken outputs
    (1,680 injections each). Each call is short, and a round spreads its
    groups over its whole length, so a run's calls sample the box's fast and
    slow stretches alike and their median is steady.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        s = SAMPLED
        self.seeds = [int(x) for x in rng.integers(2**62, size=2)]
        self.sampled_taken = tuple(
            int(t) for t in rng.choice(2 ** (s["m"] + s["tau"]), s["taken"], replace=False)
        )
        self.exhaustive_taken = [
            tuple(int(t) for t in rng.choice(2 ** (m + tau), taken, replace=False))
            for m, tau, taken in EXHAUSTIVE
        ]
        self.reports: list = []

    def group(self) -> None:
        s = SAMPLED
        common = dict(samples=s["samples"], n_perm=s["n_perm"])
        self.reports += [
            channels.certify_lemma_bound(s["m"], s["tau"], seed=self.seeds[0], **common),
            channels.certify_corollary_bound(
                s["m"], s["tau"], self.sampled_taken, seed=self.seeds[1], **common
            ),
        ]
        for (m, tau, _), taken in zip(EXHAUSTIVE, self.exhaustive_taken):
            if taken:
                self.reports.append(channels.certify_corollary_bound(m, tau, taken, samples=1))
            else:
                self.reports.append(channels.certify_lemma_bound(m, tau, samples=1))

    def check(self, groups: int) -> tuple[int, list[str]]:
        s = SAMPLED
        expected = [(s["m"], s["tau"], 0, False), (s["m"], s["tau"], s["taken"], False)]
        expected += [(m, tau, taken, True) for m, tau, taken in EXHAUSTIVE]
        expected *= groups
        problems: list[str] = []
        if len(self.reports) != len(expected):
            problems.append(f"{len(self.reports)} certificates made, not {len(expected)}")
        for report, (m, tau, taken, exhaustive) in zip(self.reports, expected):
            if not report.satisfied:
                problems.append(f"certificate m={m} tau={tau} |T|={taken} reports its bound broken")
            if report.taken_count != taken:
                problems.append(f"certificate taken count {report.taken_count} != {taken}")
            if exhaustive:
                problems += checks.check_exhaustive_me(report.max_trace_distance, m, tau, taken)
            else:
                problems += checks.check_sampled_certificate(
                    report.max_trace_distance, report.bound, m, tau, taken
                )
        return len(expected), problems


class Suite:
    """The acceptance battery through the CLI entry point, in process.

    The battery keeps the program's own seeds; the workload seed drives only
    the certificates. A certificate group follows each criterion.
    """

    def __init__(self, seed: int) -> None:
        self.code = None
        self.text = ""
        self.certificates = Certificates(np.random.default_rng(seed))

    def run(self, between) -> None:
        def then(fn):
            @functools.wraps(fn)
            def criterion(*args, **kwargs):
                result = fn(*args, **kwargs)
                between()
                return result

            return criterion

        # run_all looks the tuple up at call time
        criteria = acceptance.ALL_CRITERIA
        acceptance.ALL_CRITERIA = tuple(then(fn) for fn in criteria)
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                self.code = cli.main(["suite", "--no-timing"])
        finally:
            acceptance.ALL_CRITERIA = criteria
        self.text = buf.getvalue()

    def check(self) -> tuple[int, int, list[str]]:
        failed, problems = checks.check_suite(self.code, json.loads(self.text))
        certificates, more = self.certificates.check(checks.CRITERIA)
        return checks.CRITERIA + certificates, failed, problems + more


# (game, scheme, strategy, trials per round): a fresh key every trial
WIDE_GAMES = (
    # bz on prf(m=3, tau=5): 2m + ell = 14 wires
    ("fqind", lambda: schemes.prf_scheme(3, 5), lambda: attacks.bz_adversary(), 321),
    # forced qlp on a 10-bit ideal PRP, above the 8-bit explicit-table cap
    (
        "qind",
        lambda: schemes.prp_scheme(2, 8, schemes.ideal_prp_family(10)),
        lambda: attacks.qlp_distinguisher(force=True),
        161,
    ),
    # qlp on prf(m=6, tau=8): 14 wires once the ancilla is attached
    ("gqind", lambda: schemes.prf_scheme(6, 8), lambda: attacks.qlp_distinguisher(), 321),
)
SAMPLED = dict(m=2, tau=3, samples=4, n_perm=500, taken=4)
# (m, tau, taken outputs) of the exhaustive certificates
EXHAUSTIVE = ((2, 1, 0), (2, 2, 8))


class Wide:
    """Games at 10-14 wires with a fresh key every trial.

    Every round of a run draws the same inputs from the seed, so a round
    repeats the work of the one before it in a fresh process. A certificate
    group comes before each game and after the last.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.games = [
            (game, games.GAME_RUNNERS[game], scheme(), strategy(), trials, int(rng.integers(2**62)))
            for game, scheme, strategy, trials in WIDE_GAMES
        ]
        self.certificates = Certificates(rng)
        self.estimates: list = []

    def run(self, between) -> None:
        self.estimates = []
        for _, runner, scheme, strategy, trials, seed in self.games:
            between()
            self.estimates.append(games.estimate_advantage(runner, scheme, strategy, trials, seed))
        between()

    def check(self) -> tuple[int, int, list[str]]:
        problems: list[str] = []
        attempted = 0
        for (game, *_), est in zip(self.games, self.estimates):
            attempted += est.trials
            if game == "fqind":
                problems += checks.check_bz(est.win_rate, est.trials, 3, checks.SEEDED_CONFIDENCE)
            elif game == "qind":
                problems += checks.check_prp_advantage(
                    est.advantage, est.trials, 2, 8, confidence=checks.SEEDED_CONFIDENCE
                )
            else:
                problems += checks.check_perfect(est.wins, est.trials, "gqind qlp vs prf")
        certificates, more = self.certificates.check(len(self.games) + 1)
        return attempted + certificates, 0, problems + more


WORKLOADS = {"suite": Suite, "wide": Wide}
