"""Weigh steps: a Hadamard test's p0 read from Enc's table, checked against
the dense challenge step it stands in for."""

import numpy as np
import pytest

from qindlab import games
from qindlab.acceptance import _distinct_keys
from qindlab.attacks import (
    CoreInterferenceAttack,
    EntangledBlockProbe,
    HadamardBitProbe,
    HadamardTest,
    SuperpositionMaskAttack,
)
from qindlab.games import (
    GAME_RUNNERS,
    GAME_STEPS,
    WEIGH_STEPS,
    FqindChallenge,
    GameOutcome,
    GameSetupError,
    GqindChallenge,
    with_learning_queries,
)
from qindlab.quantum_core import (
    WIRE_CAP,
    CNOT,
    H,
    X,
    StateDescription,
    StateVector,
    random_pure_bipartite,
    run_gates,
)
from qindlab.schemes import block_scheme, ideal_prp_family, prf_scheme, prp_scheme

from dense_reference import zero_weight


class MixedProbe(HadamardTest):
    """hadamard-bit's tested wire against a mixed qind pair, so that the qind
    challenger draws a component."""

    name = "mixed-probe"
    games = ("qind",)

    def tested_wires(self, scheme):
        return (scheme.ciphertext_bits - 1,)

    def descriptions(self, m):
        last = m - 1
        plus = (0.25, (H(last),))
        return (
            StateDescription(m, mixture=(plus, (0.75, (X(0), H(last))))),
            StateDescription(m, mixture=((0.5, ()), (0.5, (X(last), H(last))))),
        )


def _attacks(m):
    return (
        SuperpositionMaskAttack(),
        CoreInterferenceAttack(),
        CoreInterferenceAttack(force=True),
        *(HadamardBitProbe(w) for w in range(m)),
        EntangledBlockProbe(1),
        EntangledBlockProbe(2),
        MixedProbe(),
    )


_SCHEMES = (
    *(prf_scheme(m, tau) for m in range(1, 5) for tau in range(1, 4)),
    prp_scheme(2, 2, ideal_prp_family(4)),
    block_scheme(prf_scheme(1, 2), 2),
    block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2),
)


def _cases(scheme):
    """(attack, game, tested, template) for every attack and game it plays
    whose scheme check and template width the scheme passes."""
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    for attack in _attacks(m):
        for game in attack.games:
            try:
                tested = attack.tested_wires(scheme)
            except GameSetupError:
                continue  # a scheme the attack refuses
            if game == "fqind" and 2 * m + ell > WIRE_CAP:
                continue
            yield attack, game, tested, attack.template(scheme, game)


@pytest.mark.parametrize("scheme", _SCHEMES, ids=[s.name for s in _SCHEMES])
def test_weigh_steps_match_the_dense_challenge(scheme):
    covered = set()
    keys = _distinct_keys(scheme, min(3, scheme.key_space), seed=27)
    r_values = range(min(4, 2**scheme.randomness_bits))
    for attack, game, tested, template in _cases(scheme):
        _, check, challenge = GAME_STEPS[game]
        check(scheme, template)
        for key in keys:
            for r in r_values:
                for b in (0, 1):
                    seed = [27, int(key) & 0xFFFFFFFF, r, b]
                    weighed, dense = np.random.default_rng(seed), np.random.default_rng(seed)
                    p0, total = WEIGH_STEPS[game](scheme, key, template, b, r, weighed, tested)
                    response = challenge(scheme, key, template, b, r, dense)
                    want_p0, want_total = zero_weight(response, tested)
                    assert abs(p0 - want_p0) <= 1e-12, (attack.name, game, key, r, b)
                    assert abs(total - want_total) <= 1e-12, (attack.name, game, key, r, b)
                    assert weighed.bit_generator.state == dense.bit_generator.state
        covered.add((type(attack).__name__, game))
    # every Hadamard test meets each game it plays, where the scheme allows
    assert ("CoreInterferenceAttack", "qind") in covered
    assert ("HadamardBitProbe", "gqind") in covered
    assert ("EntangledBlockProbe", "gqind") in covered
    assert ("MixedProbe", "qind") in covered
    if 2 * scheme.message_bits + scheme.ciphertext_bits <= WIRE_CAP:
        assert ("SuperpositionMaskAttack", "fqind") in covered


def test_weigh_steps_match_the_dense_challenge_on_complex_templates():
    # description templates are real; a complex state in the fixed layout
    # checks the imaginary parts' sums too
    rng = np.random.default_rng(2727)
    for scheme in (prf_scheme(2, 1), prp_scheme(2, 2, ideal_prp_family(4)), _SCHEMES[-1]):
        m, ell = scheme.message_bits, scheme.ciphertext_bits
        registers = tuple(range(m)), tuple(range(m, 2 * m))
        pair = random_pure_bipartite(m, m, rng)
        zero = np.zeros(2**ell)
        zero[0] = 1.0
        templates = {
            "gqind": GqindChallenge(pair, *registers),
            "fqind": FqindChallenge(
                StateVector(2 * m + ell, np.kron(pair.amplitudes, zero)),
                *registers,
                tuple(range(2 * m, 2 * m + ell)),
            ),
        }
        tested = {"gqind": ((0,), (ell - 1,), tuple(range(ell - m, ell))), "fqind": ((0,), (m - 1,))}
        for game, template in templates.items():
            GAME_STEPS[game][1](scheme, template)
            for positions in tested[game]:
                for key in _distinct_keys(scheme, 2, seed=28):
                    for b in (0, 1):
                        weighed, dense = np.random.default_rng(b), np.random.default_rng(b)
                        got = WEIGH_STEPS[game](scheme, key, template, b, 1, weighed, positions)
                        response = GAME_STEPS[game][2](scheme, key, template, b, 1, dense)
                        want = zero_weight(response, positions)
                        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (game, positions)
                        assert weighed.bit_generator.state == dense.bit_generator.state


_EXACT_CASES = (
    *((SuperpositionMaskAttack(), prf_scheme(m, 2)) for m in (1, 2, 3)),
    *(
        (attack, scheme)
        for attack in (CoreInterferenceAttack(force=True), HadamardBitProbe())
        for scheme in (prf_scheme(2, 2), prp_scheme(2, 2, ideal_prp_family(4)))
    ),
)


@pytest.mark.parametrize(
    "attack, scheme", _EXACT_CASES, ids=[f"{a.name}-{s.name}" for a, s in _EXACT_CASES]
)
def test_the_exact_evaluator_reads_the_weigh_step(monkeypatch, attack, scheme):
    game, tested = attack.exact_game, attack.tested_wires(scheme)
    challenge = GAME_STEPS[game][2]
    template = attack.template(scheme, game)

    def replayed(*args):
        raise AssertionError("the exact evaluator replayed a challenge step")

    for name, (oracle, check, _) in list(GAME_STEPS.items()):
        monkeypatch.setitem(GAME_STEPS, name, (oracle, check, replayed))
    for key in _distinct_keys(scheme, 2, seed=29):
        for r in (0, 1):
            p0, p1 = (
                zero_weight(challenge(scheme, key, template, b, r, None), tested)[0]
                for b in (0, 1)
            )
            want = 0.5 * (p0 + 1.0 - p1)
            got = attack.exact_win_probability(scheme, key, r)
            assert abs(got - want) <= 1e-12, (attack.name, scheme.name, key, r)


def _dense_replay(game, scheme, strategy, rng, key=None, b=None, r=None) -> GameOutcome:
    """One trial in the runner's draw order, scored through the dense route:
    the challenge step's response weighed by ``zero_weight``."""
    oracle_type, check, challenge = GAME_STEPS[game]
    key = scheme.gen(rng) if key is None else key
    adv = strategy.start(scheme, rng)
    oracle = oracle_type(scheme, key, rng)
    for _ in range(strategy.padded_queries):
        oracle.draw_query()
    assert not hasattr(adv, "learn")
    template = getattr(adv, f"{game}_template")()
    check(scheme, template)
    b = int(rng.integers(2)) if b is None else b
    r = int(rng.integers(2**scheme.randomness_bits)) if r is None else r
    adv.receive_weight(*zero_weight(challenge(scheme, key, template, b, r, rng), adv.tested))
    g = adv.final_guess()
    return GameOutcome(game, b, g, g == b, tuple(oracle.randomness_used) + (r,), oracle.query_count)


def _counting_weigh_steps(monkeypatch):
    calls = []
    for game, weigh in WEIGH_STEPS.items():
        if weigh is not None:

            def counted(*args, _weigh=weigh):
                calls.append(1)
                return _weigh(*args)

            monkeypatch.setitem(WEIGH_STEPS, game, counted)
    return calls


_PRP_6 = prp_scheme(2, 4, ideal_prp_family(6))
# (game, scheme, strategy, seed, trials): the suite's seeded Hadamard-test
# estimates (criteria 1, 7 and 8) and the wide bench games
_SEEDED = (
    ("fqind", prf_scheme(3, 2), SuperpositionMaskAttack(), 1001, 1000),
    ("qind", _PRP_6, with_learning_queries(CoreInterferenceAttack(force=True), 2), 777, 1000),
    ("qind", _PRP_6, with_learning_queries(HadamardBitProbe(), 2), 777, 1000),
    ("gqind", block_scheme(_PRP_6, 2), EntangledBlockProbe(2), 888, 1000),
    *(
        case
        for seed in (1, 2, 3)
        for case in (
            ("fqind", prf_scheme(3, 5), SuperpositionMaskAttack(), seed, 40),
            ("qind", prp_scheme(2, 8, ideal_prp_family(10)), CoreInterferenceAttack(True), seed, 40),
            ("gqind", prf_scheme(6, 8), CoreInterferenceAttack(), seed, 40),
        )
    ),
)


@pytest.mark.parametrize(
    "game, scheme, strategy, seed, trials",
    _SEEDED,
    ids=[f"{c[0]}-{c[1].name}-{c[2].name}-seed{c[3]}" for c in _SEEDED],
)
def test_weighed_trials_replay_through_the_dense_route(
    monkeypatch, game, scheme, strategy, seed, trials
):
    calls = _counting_weigh_steps(monkeypatch)
    children = np.random.SeedSequence(seed).spawn(trials)  # estimate_advantage's seeds
    for child in children:
        played, replayed = np.random.default_rng(child), np.random.default_rng(child)
        outcome = GAME_RUNNERS[game](scheme, strategy, played)
        assert _dense_replay(game, scheme, strategy, replayed) == outcome
        assert played.bit_generator.state == replayed.bit_generator.state
    assert len(calls) == trials


@pytest.mark.parametrize("cases", [
    (CoreInterferenceAttack(), [(m, 10 + m, m) for m in (1, 2, 3)]),
    (HadamardBitProbe(), [(1, 3, 3)]),
], ids=["qlp", "hadamard-bit"])
def test_forced_sweeps_replay_through_the_dense_route(monkeypatch, cases):
    # criteria 2 and 3: qind with every (key, r, b) forced
    strategy, sweep = cases
    calls = _counting_weigh_steps(monkeypatch)
    for m, key_seed, tag in sweep:
        scheme = prf_scheme(m, 2)
        for key in _distinct_keys(scheme, 8, seed=key_seed):
            for r in range(4):
                for b in (0, 1):
                    seed = [tag, int(key) & 0xFFFFFFFF, r, b]
                    played, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
                    outcome = games.run_qind_qcpa(
                        scheme, strategy, played, key=key, challenge_bit=b, challenge_randomness=r
                    )
                    assert outcome.win
                    assert _dense_replay("qind", scheme, strategy, replayed, key, b, r) == outcome
                    assert played.bit_generator.state == replayed.bit_generator.state
    assert len(calls) == 64 * len(sweep)


def test_weigh_steps_refuse_any_layout_but_the_fixed_templates():
    scheme, m = prf_scheme(2, 1), 2
    ell = scheme.ciphertext_bits
    bz, qlp = SuperpositionMaskAttack(), CoreInterferenceAttack()
    fixed = bz.template(scheme, "fqind")
    state = fixed.state
    excited = StateVector(state.num_wires, np.roll(state.amplitudes, 1))  # response reads 1
    reg0, reg1, resp = fixed.message0_wires, fixed.message1_wires, fixed.response_wires
    bad_fqind = (
        FqindChallenge(state, reg1, reg0, resp),
        FqindChallenge(state, reg0, reg1, resp[::-1]),
        FqindChallenge(excited, reg0, reg1, resp),
    )
    pair = run_gates(2 * m, (H(0), CNOT(0, 2), H(1)))
    wider = run_gates(2 * m + 1, (H(0), CNOT(0, 4)))
    bad_gqind = (
        GqindChallenge(pair, (0, 2), (1, 3)),
        GqindChallenge(pair, (2, 3), (0, 1)),
        GqindChallenge(wider, (0, 1), (2, 3)),
    )
    tested = {"fqind": bz.tested_wires(scheme), "gqind": qlp.tested_wires(scheme)}
    for game, templates in (("fqind", bad_fqind), ("gqind", bad_gqind)):
        for template in templates:
            GAME_STEPS[game][1](scheme, template)  # a valid template, read in any layout
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(GameSetupError, match="weigh steps read"):
                WEIGH_STEPS[game](scheme, 1, template, 0, 0, rng, tested[game])
            assert rng.bit_generator.state == before
    # tested positions outside the register, or none, are refused too
    for tested_bad in ((), (m,)):
        with pytest.raises(ValueError):
            WEIGH_STEPS["fqind"](scheme, 1, fixed, 0, 0, np.random.default_rng(0), tested_bad)
    with pytest.raises(ValueError):
        WEIGH_STEPS["qind"](scheme, 1, qlp.template(scheme, "qind"), 0, 0, None, (ell,))

    class Relaid(SuperpositionMaskAttack):
        """bz's trial, sending its registers in swapped roles."""

        name = "relaid"

        def start(self, scheme, rng):
            trial = super().start(scheme, rng)
            trial.fqind_template = lambda: bad_fqind[0]
            return trial

    with pytest.raises(GameSetupError, match="weigh steps read"):
        games.run_fqind_qcpa(scheme, Relaid(), np.random.default_rng(0))


def test_guessers_keep_the_dense_route(monkeypatch):
    calls = _counting_weigh_steps(monkeypatch)
    for game in ("fqind", "qind", "gqind"):
        games.estimate_advantage(GAME_RUNNERS[game], prf_scheme(2, 1), games.RandomGuesser(), 8, 3)
    assert not calls
