"""Distinguishing attacks: exact rates, sampled confirmation, applicability."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qindlab.attacks import (
    ATTACKS,
    EntangledBlockProbe,
    HadamardBitProbe,
    bz_adversary,
    bz_expected_win_rate,
    hadamard_bit_distinguisher,
    qlp_distinguisher,
)
from qindlab import games
from qindlab.games import (
    GAME_RUNNERS,
    GAME_STEPS,
    ConstantGuesser,
    FqindChallenge,
    GameOutcome,
    GameSetupError,
    GqindResponse,
    RandomGuesser,
    estimate_advantage,
    hoeffding_half_width,
    run_fqind_qcpa,
    run_gqind_qcpa,
    run_qind_qcpa,
)
from qindlab.quantum_core import (
    StateVector,
    _measure_block,
    _register_view,
    apply_unitary,
    hadamard_all,
    run_gates,
)
from qindlab.schemes import (
    block_scheme,
    identity_permutation_family,
    ideal_prp_family,
    prf_scheme,
    prp_scheme,
)

from dense_reference import zero_weight


def keys_for(scheme, count=3, seed=55):
    rng = np.random.default_rng(seed)
    return [scheme.gen(rng) for _ in range(count)]


def test_bz_expected_rates_are_frozen():
    assert bz_expected_win_rate(1) == Fraction(3, 4)
    assert bz_expected_win_rate(2) == Fraction(7, 8)
    assert bz_expected_win_rate(3) == Fraction(15, 16)
    assert bz_expected_win_rate(4) == Fraction(31, 32)


def test_bz_exact_probability_matches_closed_form():
    attack = bz_adversary()
    for m in (1, 2, 3):
        scheme = prf_scheme(m, 1)
        expected = float(bz_expected_win_rate(m))
        for key in keys_for(scheme, 2):
            for r in range(2):
                p = attack.exact_win_probability(scheme, key, r)
                assert p == pytest.approx(expected, abs=1e-12)


def test_bz_sampled_rate_concentrates():
    scheme = prf_scheme(2, 1)
    est = estimate_advantage(run_fqind_qcpa, scheme, bz_adversary(), 2000, seed=11)
    eps = hoeffding_half_width(2000)
    assert abs(est.win_rate - 7 / 8) <= eps


def test_qlp_attack_is_perfect_on_prf_schemes():
    attack = qlp_distinguisher()
    for m in (1, 2, 3):
        scheme = prf_scheme(m, 1)
        for key in keys_for(scheme, 3):
            for r in range(2):
                assert attack.exact_win_probability(scheme, key, r) == pytest.approx(
                    1.0, abs=1e-12
                )


def test_qlp_attack_is_perfect_on_degenerate_prp():
    # tau = 0 keeps the permutation length-preserving, so the attack still applies
    scheme = prp_scheme(2, 0, ideal_prp_family(2))
    attack = qlp_distinguisher()
    for key in keys_for(scheme, 3):
        assert attack.exact_win_probability(scheme, key, 0) == pytest.approx(1.0)


def test_qlp_wins_every_sampled_trial():
    scheme = prf_scheme(2, 2)
    est = estimate_advantage(run_qind_qcpa, scheme, qlp_distinguisher(), 300, seed=23)
    assert est.wins == 300


def test_qlp_refuses_non_qlp_schemes_without_force():
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    with pytest.raises(GameSetupError, match="force=True"):
        run_qind_qcpa(scheme, qlp_distinguisher(), np.random.default_rng(0))


def test_qlp_forced_probe_runs_on_any_scheme():
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    probe = qlp_distinguisher(force=True)
    assert probe.name == "qlp-forced"
    out = run_qind_qcpa(scheme, probe, np.random.default_rng(1))
    assert out.guess in (0, 1)


def test_qlp_plays_gqind_with_the_same_exact_rate():
    scheme = prf_scheme(2, 1)
    attack = qlp_distinguisher()
    key = keys_for(scheme, 1)[0]
    exact = attack.exact_win_probability(scheme, key, 0)
    wins = 0
    trials = 40
    for i in range(trials):
        out = run_gqind_qcpa(
            scheme, attack, np.random.default_rng([14, i]), key=key
        )
        wins += out.win
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert wins == trials


def test_hadamard_bit_probe_is_perfect_on_one_bit_messages():
    attack = hadamard_bit_distinguisher()
    for tau in (1, 2):
        scheme = prf_scheme(1, tau)
        for key in keys_for(scheme, 3):
            for r in range(2**tau):
                assert attack.exact_win_probability(scheme, key, r) == pytest.approx(
                    1.0, abs=1e-12
                )


def test_hadamard_bit_sampled_wins_every_trial_at_m1():
    scheme = prf_scheme(1, 2)
    est = estimate_advantage(
        run_qind_qcpa, scheme, hadamard_bit_distinguisher(), 200, seed=41
    )
    assert est.wins == 200


def test_hadamard_bit_probe_wire_must_exist():
    scheme = prf_scheme(1, 1)
    probe = HadamardBitProbe(probe_wire=1)
    with pytest.raises(GameSetupError):
        run_qind_qcpa(scheme, probe, np.random.default_rng(0))


def test_hadamard_bit_runs_at_wider_messages():
    # no rate guarantee beyond one bit, but the probe must still run
    scheme = prf_scheme(2, 1)
    out = run_qind_qcpa(scheme, hadamard_bit_distinguisher(), np.random.default_rng(7))
    assert out.guess in (0, 1)


def test_registry_names_and_games():
    assert set(ATTACKS) == {"bz", "qlp", "hadamard-bit"}
    assert ATTACKS["bz"].games == ("fqind",)
    assert ATTACKS["qlp"].games == ("qind", "gqind")
    assert ATTACKS["hadamard-bit"].games == ("qind", "gqind")


def test_registry_expected_rates():
    prf3 = prf_scheme(3, 1)
    assert ATTACKS["bz"].expected_win_rate(prf3) == Fraction(15, 16)
    assert ATTACKS["qlp"].expected_win_rate(prf3) == Fraction(1)
    assert ATTACKS["hadamard-bit"].expected_win_rate(prf3) is None
    assert ATTACKS["hadamard-bit"].expected_win_rate(prf_scheme(1, 1)) == Fraction(1)
    randomized_prp = prp_scheme(2, 1, ideal_prp_family(3))
    assert ATTACKS["qlp"].expected_win_rate(randomized_prp) is None


def test_registry_builders_produce_strategies():
    for name, spec in ATTACKS.items():
        strategy = spec()
        assert strategy.name in (name, f"{name}-forced")
        assert strategy.games == spec.games


def test_attacks_use_no_learning_queries():
    scheme = prf_scheme(2, 1)
    out = run_fqind_qcpa(scheme, bz_adversary(), np.random.default_rng(6))
    assert out.query_count == 0
    out = run_qind_qcpa(scheme, qlp_distinguisher(), np.random.default_rng(6))
    assert out.query_count == 0


def test_identity_scheme_shows_why_force_exists():
    # identity permutation with tau=0 is QLP; the attack runs unforced and wins
    scheme = prp_scheme(2, 0, identity_permutation_family(2))
    attack = qlp_distinguisher()
    key = scheme.gen(np.random.default_rng(0))
    assert attack.exact_win_probability(scheme, key, 0) == pytest.approx(1.0)


def test_block_scheme_needs_forced_probe():
    scheme = block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2)
    with pytest.raises(GameSetupError):
        run_qind_qcpa(scheme, qlp_distinguisher(), np.random.default_rng(3))
    out = run_qind_qcpa(scheme, qlp_distinguisher(force=True), np.random.default_rng(3))
    assert out.guess in (0, 1)


def test_entangled_block_probe_exact_rate_on_identity_blocks():
    # GHZ survives H on both wires with P(00) = 1/2; |++> becomes |00>
    scheme = block_scheme(prp_scheme(1, 0, identity_permutation_family(1)), 2)
    probe = EntangledBlockProbe(2)
    assert probe.exact_win_probability(scheme, 0, 0) == pytest.approx(0.25, abs=1e-12)
    est = estimate_advantage(run_gqind_qcpa, scheme, probe, 400, seed=5)
    assert abs(est.win_rate - 0.25) <= est.half_width


def test_description_attacks_score_gqind_as_qind():
    # the gqind registers form a product state, so the exact qind value holds
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    gqind = GAME_STEPS["gqind"][2]
    for attack in (qlp_distinguisher(force=True), hadamard_bit_distinguisher(1)):
        template = attack.template(scheme, "gqind")
        tested = attack.tested_wires(scheme)
        for key in keys_for(scheme, 2):
            for r in range(2):
                zero = []
                for b in (0, 1):
                    response = gqind(scheme, key, template, b, r, np.random.default_rng([key, r, b]))
                    wires = tuple(response.ciphertext_wires[i] for i in tested)
                    state = apply_unitary(hadamard_all(len(wires)), response.state, wires)
                    amps = state.amplitudes.reshape((2,) * state.num_wires)
                    index = tuple(0 if w in wires else slice(None) for w in range(state.num_wires))
                    zero.append(float(np.sum(np.abs(amps[index]) ** 2)))
                assert 0.5 * (zero[0] + 1.0 - zero[1]) == pytest.approx(
                    attack.exact_win_probability(scheme, key, r), abs=1e-12
                )


def test_trials_share_one_unchanged_template(monkeypatch):
    cases = (
        (bz_adversary(), "fqind", prf_scheme(2, 2)),
        (qlp_distinguisher(), "gqind", prf_scheme(2, 1)),
        (qlp_distinguisher(), "qind", prf_scheme(2, 2)),
        (RandomGuesser(), "qind", prf_scheme(2, 2)),
        (RandomGuesser(), "fqind", prf_scheme(2, 2)),
        (ConstantGuesser(1), "gqind", prf_scheme(2, 1)),
    )
    for strategy, game, scheme in cases:
        oracle, check, challenge = GAME_STEPS[game]
        seen = []

        def recording(scheme, template):
            seen.append(template)
            check(scheme, template)

        monkeypatch.setitem(GAME_STEPS, game, (oracle, recording, challenge))
        first = getattr(strategy.start(scheme, np.random.default_rng(0)), f"{game}_template")()
        if game == "qind":  # the challenger rebuilds each member from its gates
            states = [run_gates(d.num_wires, d.gates) for d in first]
        else:
            states = [first.state]
        before = [s.amplitudes.copy() for s in states]
        estimate_advantage(GAME_RUNNERS[game], scheme, strategy, 12, seed=8)
        monkeypatch.undo()
        assert len(seen) == 12
        assert all(t is first for t in seen)
        if game == "qind":
            assert all(run_gates(d.num_wires, d.gates) is s for d, s in zip(first, states))
        for state, amplitudes in zip(states, before):
            assert not state.amplitudes.flags.writeable
            assert np.array_equal(state.amplitudes, amplitudes)


# gqind trials of fixed-template strategies, pinned before the templates kept
# their Born weights: (challenge bit, guess, challenge r) per seed, and the
# PCG64 state each trial leaves, the same for every Hadamard test at a seed
_HADAMARD_STATES = {
    0: 0x2252A93F51DCD7AB19751F2C132CCAAF,
    1: 0x79F8D54CF7D32939CD53CEB84B658512,
    3: 0xE5A4031A15D3B105AC8E123E666EBD0B,
    17: 0x20F62222B1C62D1D1A8A8DE04BA54F43,
}
_GUESSER_STATES = {
    0: 0x0E2356377830B38E5DCABB7D0E5FF64E,
    1: 0xB20ACE86BAC3E4A573861CC8C08C842B,
    3: 0x6AD0ECD25DD576B776695B6286E1F7FC,
    17: 0xE97BF991F41925E3C340D8F30DCDD3A6,
}
_PINNED_GQIND = (
    (qlp_distinguisher(), prf_scheme(2, 2), _HADAMARD_STATES,
     {0: (1, 1, 2), 1: (1, 1, 3), 3: (0, 0, 0), 17: (1, 1, 0)}),
    (qlp_distinguisher(), prf_scheme(6, 8), _HADAMARD_STATES,
     {0: (1, 1, 130), 1: (1, 1, 193), 3: (0, 0, 45), 17: (1, 1, 27)}),
    (hadamard_bit_distinguisher(1), prp_scheme(2, 1, ideal_prp_family(3)), _HADAMARD_STATES,
     {0: (1, 0, 1), 1: (1, 1, 1), 3: (0, 1, 0), 17: (1, 1, 0)}),
    (EntangledBlockProbe(2), block_scheme(prf_scheme(1, 1), 2), _HADAMARD_STATES,
     {0: (1, 0, 2), 1: (1, 0, 3), 3: (0, 1, 0), 17: (1, 0, 0)}),
    (RandomGuesser(), prf_scheme(2, 1), _GUESSER_STATES,
     {0: (1, 0, 1), 1: (1, 1, 1), 3: (0, 0, 0), 17: (1, 0, 0)}),
)


def test_gqind_trials_match_their_pinned_outcomes_and_generator_states():
    games._template.cache_clear()
    for strategy, scheme, states, pinned in _PINNED_GQIND:
        for _ in range(2):  # the template's Born weights fresh, then kept
            for seed, (b, guess, r) in pinned.items():
                rng = np.random.default_rng(seed)
                outcome = run_gqind_qcpa(scheme, strategy, rng)
                assert outcome == GameOutcome("gqind", b, guess, b == guess, (r,), 0)
                assert rng.bit_generator.state["state"]["state"] == states[seed]
        template = games._template(strategy, "gqind", scheme.message_bits, scheme.ciphertext_bits)
        assert len(template.state._measured) == 2  # both registers, once each


# -- the Hadamard test's all-zero weight as a register sum -----------------------


@st.composite
def hadamard_responses(draw, max_wires=8):
    """(response, tested, wires): a random state as each response kind, the
    tested wires contiguous in order, gapped or shuffled; ``wires`` are the
    absolute wires the tested positions name."""
    n = draw(st.integers(1, max_wires))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - k))
        wires = tuple(range(start, start + k))
    else:
        wires = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    # a norm off 1 by up to 4e-10, as the state's own validation allows
    norm = 1.0 + draw(st.floats(-4e-10, 4e-10))
    state = StateVector(n, norm * vec / np.linalg.norm(vec))
    kind = draw(st.sampled_from(("state", "fqind", "gqind")))
    if kind == "state":
        return state, wires, wires
    # the response register lists every wire in some order
    register = tuple(draw(st.permutations(range(n))))
    tested = tuple(register.index(w) for w in wires)
    if kind == "fqind":
        return FqindChallenge(state, (), register, ()), tested, wires
    return GqindResponse(state, register, ()), tested, wires


@given(hadamard_responses())
@settings(max_examples=150, deadline=None)
def test_zero_weight_matches_the_hadamard_measurement(case):
    response, tested, wires = case
    state = response if isinstance(response, StateVector) else response.state
    dense = apply_unitary(hadamard_all(len(wires)), state, wires)
    p0, total = zero_weight(response, tested)
    assert abs(p0 - np.sum(np.abs(_register_view(dense, wires)[0][:, 0]) ** 2)) <= 1e-12
    assert abs(total - np.vdot(state.amplitudes, state.amplitudes).real) <= 1e-12


def test_zero_weight_refuses_an_empty_register():
    with pytest.raises(ValueError):
        zero_weight(run_gates(2, ()), ())


def test_trial_guess_is_the_measured_outcome():
    """The trial's one uniform against p0 / total guesses what measuring the
    Hadamard-rotated wires draws, and leaves the Generator where it does."""
    cases = (
        (bz_adversary(), "fqind", prf_scheme(2, 2)),
        (qlp_distinguisher(force=True), "gqind", prp_scheme(2, 2, ideal_prp_family(4))),
        (hadamard_bit_distinguisher(1), "qind", prp_scheme(2, 1, ideal_prp_family(3))),
        (EntangledBlockProbe(2), "gqind", block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2)),
    )
    for attack, game, scheme in cases:
        tested = attack.tested_wires(scheme)
        template = attack.template(scheme, game)
        challenge = GAME_STEPS[game][2]
        guesses = set()
        for seed in range(60):
            step = np.random.default_rng([seed, 1])
            key, b = scheme.gen(step), seed % 2
            r = int(step.integers(2**scheme.randomness_bits))
            response = challenge(scheme, key, template, b, r, step)
            drawn, measured = np.random.default_rng(seed), np.random.default_rng(seed)
            trial = attack.start(scheme, drawn)
            trial.receive_weight(*zero_weight(response, trial.tested))
            if isinstance(response, FqindChallenge):
                state, register = response.state, response.message1_wires
            elif isinstance(response, GqindResponse):
                state, register = response.state, response.ciphertext_wires
            else:
                state, register = response, range(response.num_wires)
            wires = tuple(register[i] for i in tested)
            rotated = apply_unitary(hadamard_all(len(wires)), state, wires)
            outcome = _measure_block(rotated, wires, measured)[0]
            assert trial.final_guess() == int(outcome != 0)
            assert drawn.bit_generator.state == measured.bit_generator.state
            guesses.add(trial.final_guess())
        assert guesses == {0, 1}, attack.name
