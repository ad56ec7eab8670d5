"""The eleven-point acceptance battery.

Each criterion is a standalone callable returning a CriterionResult; the
pytest acceptance module and the command-line `suite` subcommand both drive
exactly these functions, so a green suite means the same thing everywhere.

Numbers asserted here are frozen targets: closed-form win rates, channel
spectra, and bound arithmetic are computed from theory in the tests, never
read back from the code under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import attacks, channels, games, oracles, quantum_core, schemes

EXACT_ATOL = 1e-10


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{verdict}] {self.name} ({self.seconds:.2f}s)"


def _distinct_keys(scheme: schemes.ClassicalScheme, count: int, seed: int) -> list:
    return games.distinct_keys(scheme, count, np.random.default_rng([0xACC, seed]))


def _criterion(number: int, name: str, limit: float | None = None):
    """Make ``body(details) -> bool`` criterion ``number``.

    The decorated criterion takes no arguments and returns its CriterionResult:
    the body fills ``details`` and returns its verdict. A body that raises
    fails with the reason recorded, and with a ``limit`` (seconds) a run that
    reaches it fails too.
    """

    def decorate(body: Callable[[dict], bool]) -> Callable[[], CriterionResult]:
        def criterion() -> CriterionResult:
            details: dict = {}
            start = time.perf_counter()
            try:
                passed = body(details)
            except Exception as exc:  # a crash is a failure with the reason recorded
                details["error"] = f"{type(exc).__name__}: {exc}"
                passed = False
            elapsed = time.perf_counter() - start
            if limit is not None:
                details["runtime_limit_seconds"] = limit
                if elapsed >= limit:
                    details["runtime_exceeded"] = True
                    passed = False
            return CriterionResult(number, name, bool(passed), elapsed, details)

        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        return criterion

    return decorate


@_criterion(1, "bz exact rate and sampled confirmation", limit=10.0)
def criterion_1(details: dict) -> bool:
    """Superposition-mask attack: exact rate 1 - 2^-(m+1), sampled confirmation."""
    ok = True
    worst = 0.0
    bz = attacks.bz_adversary()
    for m in (1, 2, 3, 4):
        scheme = schemes.prf_scheme(m, 2)
        target = 1.0 - 2.0 ** -(m + 1)
        for key in _distinct_keys(scheme, 2, seed=m):
            for r in (0, 3):
                err = abs(bz.exact_win_probability(scheme, key, r) - target)
                worst = max(worst, err)
    ok &= worst <= EXACT_ATOL
    details["max_exact_error"] = worst
    est = games.estimate_advantage(
        games.run_fqind_qcpa,
        schemes.prf_scheme(3, 2),
        bz,
        trials=10_000,
        seed=1001,
    )
    details["sampled_win_rate_m3"] = est.win_rate
    details["sampled_target"] = 0.9375
    ok &= abs(est.win_rate - 0.9375) <= 0.015
    return ok


def _forced_sweep(details: dict, strategy: games.AdversaryStrategy, cases) -> bool:
    """Play qind with every (key, r, b) forced; all must win.

    cases: (m, key seed, trial rng tag) per prf scheme at tau = 2.
    """
    trials = 0
    wins = 0
    worst = 1.0
    for m, key_seed, tag in cases:
        scheme = schemes.prf_scheme(m, 2)
        for key in _distinct_keys(scheme, 8, seed=key_seed):
            for r in range(4):
                worst = min(worst, strategy.exact_win_probability(scheme, key, r))
                for b in (0, 1):
                    out = games.run_qind_qcpa(
                        scheme,
                        strategy,
                        np.random.default_rng([tag, int(key) & 0xFFFFFFFF, r, b]),
                        key=key,
                        challenge_bit=b,
                        challenge_randomness=r,
                    )
                    trials += 1
                    wins += out.win
    details["forced_trials"] = trials
    details["forced_wins"] = wins
    details["min_exact_probability"] = worst
    return wins == trials and worst >= 1.0 - 1e-12


@_criterion(2, "qlp wins every trial vs prf", limit=30.0)
def criterion_2(details: dict) -> bool:
    """Core-interference attack wins every trial against the prf scheme."""
    return _forced_sweep(details, attacks.qlp_distinguisher(), [(m, 10 + m, m) for m in (1, 2, 3)])


@_criterion(3, "hadamard-bit perfect at m=1")
def criterion_3(details: dict) -> bool:
    """Single-wire probe is perfect at one-bit messages."""
    return _forced_sweep(details, attacks.hadamard_bit_distinguisher(), [(1, 3, 3)])


@_criterion(4, "chi_C spectrum (3c, -c, -c, -c), c = 1/12")
def criterion_4(details: dict) -> bool:
    """Exhaustive averaged channel at m=1, tau=1: coherence-block spectrum."""
    rep = channels.certify_lemma_bound(1, 1, samples=1)
    n = 4
    c = 1.0 / (n * (n - 1))
    expected = sorted([c * (n - 1), -c, -c, -c])
    got = sorted(rep.chi_c_eigenvalues)
    eig_err = max(abs(a - b) for a, b in zip(got, expected))
    norm_err = abs(rep.chi_c_trace_norm - 2.0 ** (-1 - 1 + 1))
    me_err = abs(rep.max_trace_distance - 0.25)
    details["chi_c_eigenvalues"] = [round(e, 14) for e in got]
    details["eigenvalue_error"] = eig_err
    details["chi_c_trace_norm"] = rep.chi_c_trace_norm
    details["trace_norm_error"] = norm_err
    details["me_input_trace_distance"] = rep.max_trace_distance
    return eig_err <= EXACT_ATOL and norm_err <= EXACT_ATOL and me_err <= EXACT_ATOL


@_criterion(5, "lemma bound 2^(2-tau) holds on sampled channel", limit=60.0)
def criterion_5(details: dict) -> bool:
    """Sampled-channel bound at m=1, tau=3 over 500 purified inputs."""
    rep = channels.certify_lemma_bound(1, 3, samples=500, n_perm=5000, seed=505)
    details["bound"] = rep.bound
    details["max_trace_distance"] = rep.max_trace_distance
    details["margin"] = rep.margin
    details["worst_input"] = rep.worst_input
    return rep.satisfied and rep.max_trace_distance <= rep.bound + 1e-12 and rep.bound == 0.5


@_criterion(6, "corollary bound with taken outputs")
def criterion_6(details: dict) -> bool:
    """Taken-set bound holds; the empty taken set reproduces criterion 5."""
    taken = (3, 6, 9, 12)
    rep = channels.certify_corollary_bound(1, 3, taken, samples=500, n_perm=5000, seed=606)
    details["bound"] = rep.bound
    details["expected_bound"] = 4.0 / (2.0**3 - len(taken) / 2.0)
    details["max_trace_distance"] = rep.max_trace_distance
    ok = (
        rep.satisfied
        and rep.max_trace_distance <= rep.bound + 1e-12
        and abs(rep.bound - details["expected_bound"]) <= EXACT_ATOL
    )

    a = channels.certify_lemma_bound(1, 3, samples=200, n_perm=2000, seed=707)
    b = channels.certify_corollary_bound(1, 3, (), samples=200, n_perm=2000, seed=707)
    details["empty_taken_matches_lemma"] = (
        a.max_trace_distance == b.max_trace_distance and a.bound == b.bound
    )
    return ok and details["empty_taken_matches_lemma"]


@_criterion(7, "prp scheme within corollary bound (q=2)")
def criterion_7(details: dict) -> bool:
    """Ideal-permutation scheme at m=2, tau=4 resists every shipped adversary."""
    m, tau, q = 2, 4, 2
    scheme = schemes.prp_scheme(m, tau, schemes.ideal_prp_family(m + tau))
    taken_count = q * 1 * 2**m
    bound = channels.corollary_bound(m, tau, taken_count)
    details["corollary_bound"] = bound
    details["taken_count"] = taken_count
    ok = True
    for label, strategy in (
        ("qlp-forced", attacks.qlp_distinguisher(force=True)),
        ("hadamard-bit", attacks.hadamard_bit_distinguisher()),
        ("random", games.RandomGuesser()),
    ):
        wrapped = games.with_learning_queries(strategy, q)
        est = games.estimate_advantage(games.run_qind_qcpa, scheme, wrapped, trials=5000, seed=777)
        threshold = bound + 2.0 * est.half_width
        details[f"advantage_{label}"] = est.advantage
        details[f"threshold_{label}"] = threshold
        ok &= abs(est.advantage) <= threshold
    return ok


@_criterion(8, "block scheme within mu-scaled bound")
def criterion_8(details: dict) -> bool:
    """Two-block scheme resists an entangled cross-block challenge."""
    m, tau, mu = 2, 4, 2
    base = schemes.prp_scheme(m, tau, schemes.ideal_prp_family(m + tau))
    scheme = schemes.block_scheme(base, mu)
    probe = attacks.EntangledBlockProbe(mu)
    est = games.estimate_advantage(games.run_gqind_qcpa, scheme, probe, trials=5000, seed=888)
    bound = mu * channels.corollary_bound(m, tau, 0)
    threshold = bound + 2.0 * est.half_width
    details["advantage"] = est.advantage
    details["mu_times_bound"] = bound
    details["threshold"] = threshold
    return abs(est.advantage) <= threshold


def _scheme_for(kind: str, m: int, tau: int) -> schemes.ClassicalScheme:
    if kind == "prf":
        return schemes.prf_scheme(m, tau)
    return schemes.prp_scheme(m, tau, schemes.ideal_prp_family(m + tau))


@_criterion(9, "interconversion circuits match direct lifts")
def criterion_9(details: dict) -> bool:
    """Both oracle interconversion circuits reproduce the direct lifts."""
    ok = True
    cases = 0
    for kind in ("prf", "prp"):
        for m, tau in ((1, 1), (2, 1), (2, 2)):
            scheme = _scheme_for(kind, m, tau)
            for key in _distinct_keys(scheme, 8, seed=90 + m + tau):
                for r in (0, 2**tau - 1):
                    ok &= all(oracles.interconversions_match(scheme, key, r))
                    cases += 1
    details["cases"] = cases
    details["max_entrywise_deviation"] = 0.0 if ok else 1.0
    return ok


@_criterion(10, "type-2 adjoint is the decryption oracle")
def criterion_10(details: dict) -> bool:
    """Adjoint of the in-place lift decrypts: |Enc(x)> -> |x, 0^tau>."""
    ok = True
    cases = 0
    x = np.arange(4)
    for kind in ("prf", "prp"):
        scheme = _scheme_for(kind, 2, 2)
        for key in _distinct_keys(scheme, 8, seed=100):
            for r in range(4):
                adj = oracles.type2_unitary(scheme, key, r).adjoint()
                ok &= np.array_equal(adj.permutation[scheme.enc(key, r, x)], x << 2)
                cases += x.size
    details["cases"] = cases
    return ok


# -- criterion 11: condensed invariant battery -----------------------------------


def _check_norms_and_measurement() -> bool:
    gates = (
        quantum_core.H(0),
        quantum_core.CNOT(0, 2),
        quantum_core.X(1),
        quantum_core.Z(2),
        quantum_core.H(1),
    )
    state = quantum_core.run_gates(3, gates)
    if abs(np.linalg.norm(state.amplitudes) - 1.0) > 1e-9:
        return False
    return abs(state.probabilities().sum() - 1.0) <= 1e-9


def _check_hadamard_involution() -> bool:
    for m in range(1, 5):
        h = quantum_core.hadamard_all(m)
        eye = h.matrix @ h.matrix
        if np.max(np.abs(eye - np.eye(2**m))) > 1e-9:
            return False
    return True


def _check_trace_distance(rng: np.random.Generator) -> bool:
    states = [quantum_core.random_pure_bipartite(1, 1, rng) for _ in range(3)]
    a, b, c = states
    dab = quantum_core.trace_distance(a, b)
    if abs(dab - quantum_core.trace_distance(b, a)) > 1e-12:
        return False
    if dab > quantum_core.trace_distance(a, c) + quantum_core.trace_distance(c, b) + 1e-9:
        return False
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return abs(dab - math.sqrt(1.0 - overlap)) <= 1e-9


def _check_description_roundtrip() -> bool:
    gates = (quantum_core.H(0), quantum_core.CNOT(0, 1), quantum_core.X(1))
    state = quantum_core.run_gates(2, gates)
    built = quantum_core.build_state(quantum_core.StateDescription(2, gates))
    pure = np.outer(state.amplitudes, state.amplitudes.conj())
    if np.max(np.abs(built.matrix - pure)) > 1e-9:
        return False
    # the gates are self-inverse, so forward then reversed returns |00>
    back = quantum_core.run_gates(2, gates + tuple(reversed(gates)))
    return abs(abs(back.amplitudes[0]) - 1.0) <= 1e-9


def _check_scheme_roundtrips() -> bool:
    fam = schemes.ideal_prp_family(3)
    shipped = [
        schemes.prf_scheme(1, 2),
        schemes.prf_scheme(2, 1),
        schemes.prp_scheme(2, 1, fam),
        schemes.block_scheme(schemes.prf_scheme(1, 1), 2),
    ]
    rng = np.random.default_rng(11)
    for scheme in shipped:
        x = np.arange(2**scheme.message_bits)
        for key in {scheme.gen(rng) for _ in range(3)}:
            for r in range(2**scheme.randomness_bits):
                if not np.array_equal(scheme.dec(key, scheme.enc(key, r, x)), x):
                    return False
    return True


def _check_prf_prefix() -> bool:
    scheme = schemes.prf_scheme(2, 2)
    rng = np.random.default_rng(12)
    key = scheme.gen(rng)
    return all(np.all(scheme.enc(key, r, np.arange(4)) >> 2 == r) for r in range(4))


def _check_block_independence() -> bool:
    base = schemes.prf_scheme(1, 1)
    scheme = schemes.block_scheme(base, 2)
    rng = np.random.default_rng(13)
    key = scheme.gen(rng)
    x = np.arange(4)
    x_hi, x_lo = x >> 1, x & 1
    for r in range(4):
        cipher = scheme.enc(key, r, x)
        c_hi, c_lo = cipher >> 2, cipher & 0b11
        # each block decrypts alone, and swapping intact blocks decrypts to
        # the swapped plaintext blocks
        swapped = scheme.dec(key, (c_lo << 2) | c_hi)
        got = (base.dec(key, c_hi), base.dec(key, c_lo), swapped)
        if not np.array_equal(got, (x_hi, x_lo, (x_lo << 1) | x_hi)):
            return False
    return True


def _check_oracle_invariants() -> bool:
    scheme = schemes.prf_scheme(2, 1)
    key = 321
    u1 = oracles.type1_unitary(scheme, key, 1)
    u2 = oracles.type2_unitary(scheme, key, 1)
    again = oracles.type2_unitary(scheme, key, 1)
    if not np.array_equal(u2.permutation, again.permutation):
        return False
    for u in (u1, u2):
        mat = u.operator().matrix
        if not np.array_equal(np.sort(u.permutation), np.arange(u.dim)):
            return False
        if np.max(np.abs(mat @ mat.conj().T - np.eye(u.dim))) > 1e-9:
            return False
        if not np.all((mat == 0) | (mat == 1)):
            return False
    composed = u2.permutation[u2.adjoint().permutation]
    return np.array_equal(composed, np.arange(u2.dim))


class _RecordingProbe(games.AdversaryStrategy):
    """Sends the template it was given, keeps the response and guesses 0.

    The strategy is its own trial, so the response stays readable after the
    game; it answers the qind and gqind template hooks alike.
    """

    name = "probe"
    games = ("qind", "gqind")

    def __init__(self, template) -> None:
        self.template = template
        self.response = None

    def start(self, scheme, rng):
        return self

    def qind_template(self):
        return self.template

    gqind_template = qind_template

    def receive_challenge(self, response) -> None:
        self.response = response

    def final_guess(self) -> int:
        return 0


def _check_qind_challenger_oracle() -> bool:
    scheme = schemes.prf_scheme(1, 1)
    key, r, b = 7, 1, 1
    d0 = quantum_core.StateDescription(1, (quantum_core.H(0),))
    d1 = quantum_core.StateDescription(1, (quantum_core.X(0), quantum_core.H(0)))
    probe = _RecordingProbe((d0, d1))
    games.run_qind_qcpa(
        scheme,
        probe,
        np.random.default_rng(0),
        key=key,
        challenge_bit=b,
        challenge_randomness=r,
    )
    got = probe.response
    plain = quantum_core.run_gates(1, d1.gates)
    ext = quantum_core.append_wires(plain, 1)
    u2 = oracles.type2_unitary(scheme, key, r)
    expected = u2.operator().matrix @ ext.amplitudes
    rho_got = np.outer(got.amplitudes, got.amplitudes.conj())
    rho_exp = np.outer(expected, expected.conj())
    return np.max(np.abs(rho_got - rho_exp)) <= 1e-9


def _check_game_determinism() -> bool:
    scheme = schemes.prf_scheme(2, 2)
    outs = [
        games.run_gqind_qcpa(scheme, attacks.qlp_distinguisher(), np.random.default_rng(42))
        for _ in range(2)
    ]
    return outs[0] == outs[1]


def _check_non_relaying() -> bool:
    scheme = schemes.prf_scheme(2, 2)
    probe = _RecordingProbe(games.GqindChallenge(quantum_core.zero_state(5), (0, 1), (2, 3)))
    games.run_gqind_qcpa(scheme, probe, np.random.default_rng(5))
    resp = probe.response
    # one private wire kept, one message register gone, ancilla appended
    return (
        resp.state.num_wires == 5 - 2 + 2
        and len(resp.private_wires) == 1
        and len(resp.ciphertext_wires) == scheme.ciphertext_bits
    )


def _check_attack_query_counts() -> bool:
    scheme = schemes.prf_scheme(2, 2)
    runs = [
        games.run_fqind_qcpa(scheme, attacks.bz_adversary(), np.random.default_rng(1)),
        games.run_qind_qcpa(scheme, attacks.qlp_distinguisher(), np.random.default_rng(2)),
        games.run_qind_qcpa(
            scheme, attacks.hadamard_bit_distinguisher(), np.random.default_rng(3)
        ),
    ]
    return all(out.query_count == 0 for out in runs)


def _check_channel_invariants(rng: np.random.Generator) -> bool:
    ch = channels.avg_permutation_channel(1, 1)
    ideal = channels.constant_mixed_channel(1, 1)
    for y in range(2):
        basis = np.zeros((2, 2), dtype=np.complex128)
        basis[y, y] = 1.0
        out = ch.apply(quantum_core.DensityMatrix(1, basis))
        if abs(np.trace(out.matrix) - 1.0) > 1e-9:
            return False
        if np.max(np.abs(out.matrix - np.eye(4) / 4.0)) > 1e-10:
            return False
    # relabeling the two plaintexts leaves the averaged output invariant
    probe = quantum_core.random_pure_bipartite(1, 1, rng).to_density()
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    relabeled = quantum_core.DensityMatrix(
        2, np.kron(np.eye(2), swap) @ probe.matrix @ np.kron(np.eye(2), swap)
    )
    lhs = channels.apply_channel_bipartite(ch, relabeled, 1).matrix
    rhs = channels.apply_channel_bipartite(ch, probe, 1).matrix
    if np.max(np.abs(lhs - rhs)) > 1e-10:
        return False
    rep = channels.certify_lemma_bound(1, 2, samples=40, seed=14)
    return rep.max_difference_trace_norm <= channels.lemma_bound(2) + 1e-12 and bool(
        abs(
            np.trace(channels.apply_channel_bipartite(ideal, probe, 1).matrix) - 1.0
        )
        <= 1e-9
    )


def _check_cli_determinism() -> bool:
    import io
    from contextlib import redirect_stdout

    from . import cli

    docs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(
                ["lemma", "--m", "1", "--tau", "1", "--mode", "exact", "--no-timing"]
            )
        if code != 0:
            return False
        docs.append(buf.getvalue())
    return docs[0] == docs[1] and len(docs[0]) > 0


def property_battery() -> tuple[bool, dict]:
    rng = np.random.default_rng(0xBA77)
    checks = {
        "norm_and_measurement": _check_norms_and_measurement(),
        "hadamard_involution": _check_hadamard_involution(),
        "trace_distance_metric": _check_trace_distance(rng),
        "description_roundtrip": _check_description_roundtrip(),
        "scheme_roundtrips": _check_scheme_roundtrips(),
        "prf_prefix": _check_prf_prefix(),
        "block_independence": _check_block_independence(),
        "oracle_permutations": _check_oracle_invariants(),
        "qind_challenger_matches_oracle": _check_qind_challenger_oracle(),
        "game_seed_determinism": _check_game_determinism(),
        "non_relaying_registers": _check_non_relaying(),
        "attacks_zero_queries": _check_attack_query_counts(),
        "channel_invariants": _check_channel_invariants(rng),
        "cli_determinism": _check_cli_determinism(),
    }
    return all(checks.values()), checks


@_criterion(11, "module invariant battery")
def criterion_11(details: dict) -> bool:
    """Condensed invariant battery across every module."""
    passed, checks = property_battery()
    details.update(checks)
    return passed


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)

SUITE_TIME_LIMIT = 300.0


def run_all() -> list[CriterionResult]:
    """Run the full battery; total runtime must stay under SUITE_TIME_LIMIT."""
    return [fn() for fn in ALL_CRITERIA]
