"""Output checks against theory computed here, never against saved output.

Each checker returns a list of problems; an empty list means the output is
correct. Formulas:

* bz wins fqind at rate 1 - 2^-(m+1) (any per-(key, r) injective scheme);
  a sampled rate must sit within the Hoeffding half-width of it.
* qlp against a quasi-length-preserving scheme wins every trial.
* an ideal-PRP scheme holds any adversary's advantage to
  mu * 4 / (2^tau - |T| / 2^m) plus twice the Hoeffding half-width.
* a sampled certificate's distance stays within 2^(2-tau), or within the
  corollary bound 4 / (2^tau - |T| / 2^m) when outputs are taken.
* the exhaustive averaged channel moves the maximally entangled probe to
  trace distance 2 (2^m - 1) / (2^m (2^(m+tau) - |T|)) from the ideal one.
* the acceptance battery's numbers match the same formulas at the sizes
  each criterion uses.
"""

from __future__ import annotations

import math

# the acceptance battery's own level; its seeds are fixed, so its checks
# come out the same on every run
CONFIDENCE = 0.99
# for checks on seeded inputs, repeated thousands of times over many runs:
# at 99% about one in a thousand of the qind checks fails by chance alone
SEEDED_CONFIDENCE = 1.0 - 1e-6
EXACT_TOL = 1e-9
BOUND_TOL = 1e-12


def hoeffding(trials: int, confidence: float = CONFIDENCE) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def bz_rate(m: int) -> float:
    return 1.0 - 2.0 ** -(m + 1)


def lemma_bound(tau: int) -> float:
    return 2.0 ** (2 - tau)


def corollary_bound(m: int, tau: int, taken: int) -> float:
    return 4.0 / (2.0**tau - taken / 2.0**m)


def me_distance(m: int, tau: int, taken: int) -> float:
    return 2.0 * (2**m - 1) / (2**m * (2 ** (m + tau) - taken))


def check_bz(rate: float, trials: int, m: int, confidence: float = CONFIDENCE) -> list[str]:
    target, hw = bz_rate(m), hoeffding(trials, confidence)
    if abs(rate - target) > hw:
        return [f"bz rate {rate} not within {hw:.4f} of {target} over {trials} trials"]
    return []


def check_perfect(wins: int, trials: int, what: str) -> list[str]:
    return [] if wins == trials else [f"{what} won {wins} of {trials} trials, expected all"]


def check_prp_advantage(
    advantage: float,
    trials: int,
    m: int,
    tau: int,
    taken: int = 0,
    mu: int = 1,
    confidence: float = CONFIDENCE,
) -> list[str]:
    limit = mu * corollary_bound(m, tau, taken) + 2.0 * hoeffding(trials, confidence)
    if abs(advantage) > limit:
        return [f"ideal-PRP advantage {advantage} above {limit:.4f}"]
    return []


def check_sampled_certificate(
    distance: float, reported_bound: float, m: int, tau: int, taken: int
) -> list[str]:
    bound = corollary_bound(m, tau, taken) if taken else lemma_bound(tau)
    problems = []
    if abs(reported_bound - bound) > BOUND_TOL:
        problems.append(f"certificate bound {reported_bound} != {bound}")
    if distance > bound + BOUND_TOL:
        problems.append(f"sampled distance {distance} above bound {bound}")
    return problems


def check_exhaustive_me(distance: float, m: int, tau: int, taken: int) -> list[str]:
    expected = me_distance(m, tau, taken)
    if abs(distance - expected) > EXACT_TOL:
        return [f"exhaustive distance {distance} != {expected} at m={m} tau={tau} |T|={taken}"]
    return []


# -- the acceptance battery ------------------------------------------------------

CRITERIA = 11


def _close(value, expected, tol=EXACT_TOL) -> bool:
    return value is not None and abs(value - expected) <= tol


def _criterion_problems(number: int, d: dict) -> list[str]:
    """Re-derive one criterion's closed-form targets and compare its numbers."""
    p: list[str] = []
    if number == 1:
        # bz, exact at m = 1..4; sampled at m = 3 over 10,000 trials
        if not _close(d.get("sampled_target"), bz_rate(3)):
            p.append(f"c1 target {d.get('sampled_target')} != {bz_rate(3)}")
        p += check_bz(d["sampled_win_rate_m3"], 10_000, 3)
        if not d["max_exact_error"] <= 1e-10:
            p.append(f"c1 exact error {d['max_exact_error']}")
    elif number in (2, 3):
        # qlp at m = 1..3 or hadamard-bit at m = 1: 8 keys x 4 r x 2 bits each
        trials = 8 * 4 * 2 * (3 if number == 2 else 1)
        if d["forced_trials"] != trials:
            p.append(f"c{number} ran {d['forced_trials']} trials, expected {trials}")
        p += check_perfect(d["forced_wins"], d["forced_trials"], f"c{number}")
        if not d["min_exact_probability"] >= 1.0 - BOUND_TOL:
            p.append(f"c{number} exact probability {d['min_exact_probability']}")
    elif number == 4:
        # exhaustive m = 1, tau = 1: n = 4 outputs, c = 1 / (n (n - 1))
        n = 4
        c = 1.0 / (n * (n - 1))
        expected = sorted([(n - 1) * c, -c, -c, -c])
        got = sorted(d["chi_c_eigenvalues"])
        if len(got) != 4 or any(abs(a - b) > 1e-10 for a, b in zip(got, expected)):
            p.append(f"c4 spectrum {got} != {expected}")
        if not _close(d["chi_c_trace_norm"], 2 * (n - 1) * c):
            p.append(f"c4 trace norm {d['chi_c_trace_norm']}")
        p += check_exhaustive_me(d["me_input_trace_distance"], 1, 1, 0)
    elif number == 5:
        p += check_sampled_certificate(d["max_trace_distance"], d["bound"], 1, 3, 0)
    elif number == 6:
        p += check_sampled_certificate(d["max_trace_distance"], d["bound"], 1, 3, 4)
        if d.get("empty_taken_matches_lemma") is not True:
            p.append("c6 empty taken set does not reproduce the lemma certificate")
    elif number == 7:
        # prp m=2 tau=4, q=2 learning queries: |T| = q * mu * 2^m = 8
        if d["taken_count"] != 8:
            p.append(f"c7 taken count {d['taken_count']} != 8")
        if not _close(d["corollary_bound"], corollary_bound(2, 4, 8)):
            p.append(f"c7 bound {d['corollary_bound']} != {corollary_bound(2, 4, 8)}")
        for label in ("qlp-forced", "hadamard-bit", "random"):
            p += check_prp_advantage(d[f"advantage_{label}"], 5000, 2, 4, taken=8)
    elif number == 8:
        if not _close(d["mu_times_bound"], 2 * corollary_bound(2, 4, 0)):
            p.append(f"c8 bound {d['mu_times_bound']}")
        p += check_prp_advantage(d["advantage"], 5000, 2, 4, mu=2)
    elif number == 9:
        # 2 schemes x 3 (m, tau) x 8 keys x 2 randomness values
        if d["cases"] != 96 or d["max_entrywise_deviation"] != 0.0:
            p.append(f"c9 {d['cases']} cases, deviation {d['max_entrywise_deviation']}")
    elif number == 10:
        # 2 schemes x 8 keys x 4 randomness values x 4 plaintexts
        if d["cases"] != 256:
            p.append(f"c10 {d['cases']} cases, expected 256")
    elif number == 11:
        bad = sorted(k for k, v in d.items() if isinstance(v, bool) and not v)
        if bad:
            p.append(f"c11 invariants false: {bad}")
    return p


def check_suite(code: int, doc: dict) -> tuple[int, list[str]]:
    """Criteria failed on their runtime ceiling alone, and every other problem.

    Each criterion's numbers are checked whatever its own verdict. A failed
    criterion counts as a timing failure only when its sole fault is the
    ceiling; any other failure is a problem.
    """
    criteria = {c["number"]: c for c in doc["results"]["criteria"]}
    problems = []
    if sorted(criteria) != list(range(1, CRITERIA + 1)):
        problems.append(f"suite reported criteria {sorted(criteria)}")
    if code != (0 if all(c["passed"] for c in criteria.values()) else 1):
        problems.append(f"suite exit code {code} disagrees with its verdicts")
    failed = 0
    for number, c in sorted(criteria.items()):
        d = c["details"]
        try:
            found = _criterion_problems(number, d)
        except (KeyError, TypeError) as exc:
            found = [f"c{number} details lack {exc}"]
        if not c["passed"] and not found:
            if d.get("runtime_exceeded") and "error" not in d:
                failed += 1
            else:
                found = [f"c{number} failed: {d.get('error', 'its own check did not hold')}"]
        problems += found
    return failed, problems
