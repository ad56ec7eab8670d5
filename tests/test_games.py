"""Game runners, learning oracles, and advantage estimation."""

import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from qindlab import attacks, games, oracles, quantum_core, schemes
from qindlab.attacks import EntangledBlockProbe, bz_adversary, qlp_distinguisher
from qindlab.games import (
    GAME_NAMES,
    GAME_RUNNERS,
    AdversaryStrategy,
    ConstantGuesser,
    FqindChallenge,
    GameOutcome,
    GameSetupError,
    GqindChallenge,
    RandomGuesser,
    Type1LearningOracle,
    Type2LearningOracle,
    estimate_advantage,
    exact_advantage,
    hoeffding_half_width,
    run_fqind_qcpa,
    run_gqind_qcpa,
    run_ind_qcpa,
    run_qind_qcpa,
    with_learning_queries,
)
from qindlab.channels import certify_corollary_bound, certify_lemma_bound
from qindlab.quantum_core import (
    H,
    X,
    StateDescription,
    StateVector,
    state_from_bits,
    zero_state,
)
from qindlab.schemes import (
    block_scheme,
    constant_prf,
    ideal_prp_family,
    identity_permutation_family,
    prf_scheme,
    prp_scheme,
)


class CiphertextReader(AdversaryStrategy):
    """Classical IND adversary that reads the message out of a leaky ciphertext.

    Against the constant-zero PRF the ciphertext ends in the plaintext itself,
    so distinguishing the all-zeros and all-ones messages is trivial.
    """

    def __init__(self):
        self.name = "ciphertext-reader"
        self.games = ("ind",)

    def start(self, scheme, rng):
        m = scheme.message_bits
        ones = 2**m - 1

        class Trial:
            def ind_template(self):
                return 0, ones

            def receive_challenge(self, ciphertext):
                self.guess = 1 if (ciphertext & ones) == ones else 0

            def final_guess(self):
                return self.guess

        return Trial()


def test_runner_table_covers_all_games():
    assert tuple(GAME_RUNNERS) == GAME_NAMES


def test_constant_zero_prf_leaks_under_classical_queries():
    scheme = prf_scheme(2, 2, prf=constant_prf(2, 2))
    est = estimate_advantage(run_ind_qcpa, scheme, CiphertextReader(), 64, seed=5)
    assert est.win_rate == 1.0


def test_ind_game_outcome_fields():
    scheme = prf_scheme(2, 2)
    out = run_ind_qcpa(scheme, CiphertextReader(), np.random.default_rng(0))
    assert isinstance(out, GameOutcome)
    assert out.game == "ind"
    assert out.challenge_bit in (0, 1)
    assert out.query_count == 0
    assert len(out.randomness_used) == 1


def test_random_guesser_has_negligible_advantage():
    scheme = prf_scheme(1, 1)
    est = estimate_advantage(run_qind_qcpa, scheme, RandomGuesser(), 10_000, seed=21)
    assert abs(est.advantage) <= 0.03


def test_constant_guesser_wins_exactly_the_matching_bit():
    # in every game: each game's checks accept the guessers' templates, and
    # no guesser queries the oracle
    scheme = prf_scheme(2, 1)
    rng = np.random.default_rng(3)
    for game, runner in GAME_RUNNERS.items():
        for b in (0, 1):
            for bit in (0, 1):
                out = runner(scheme, ConstantGuesser(bit), rng, challenge_bit=b)
                assert (out.game, out.guess, out.win, out.query_count) == (game, bit, bit == b, 0)
            out = runner(scheme, RandomGuesser(), rng, challenge_bit=b)
            assert out.challenge_bit == b and out.guess in (0, 1) and out.query_count == 0


# (game, guesser, seed, b, guess, r, PCG64 state, has_uint32, uinteger) after
# one trial on prf_scheme(2, 1). A guess ignores the response and gqind's
# measure-out draws one uniform whatever the state, so the guessers'
# templates may change without moving any of these.
GUESSER_TRIALS = [
    ("fqind", "random", 0, 1, 0, 1, 143609658456486183636066271097634410721, 0, 1158725112),
    ("fqind", "random", 1, 1, 1, 1, 132289089894194688499898990827882008816, 0, 4082210491),
    ("fqind", "random", 2, 0, 0, 0, 126889499338173139678050600050083445318, 0, 1282009699),
    ("fqind", "constant1", 0, 1, 1, 1, 143609658456486183636066271097634410721, 1, 1158725112),
    ("fqind", "constant1", 1, 1, 1, 1, 132289089894194688499898990827882008816, 1, 4082210491),
    ("fqind", "constant1", 2, 0, 1, 0, 126889499338173139678050600050083445318, 1, 1282009699),
    ("gqind", "random", 0, 1, 0, 1, 18792671013009471063546316241193924174, 0, 1158725112),
    ("gqind", "random", 1, 1, 1, 1, 236658695069053534921881806884699931691, 0, 4082210491),
    ("gqind", "random", 2, 0, 0, 0, 114197255155374232472765730509001774285, 0, 1282009699),
    ("gqind", "constant1", 0, 1, 1, 1, 18792671013009471063546316241193924174, 1, 1158725112),
    ("gqind", "constant1", 1, 1, 1, 1, 236658695069053534921881806884699931691, 1, 4082210491),
    ("gqind", "constant1", 2, 0, 1, 0, 114197255155374232472765730509001774285, 1, 1282009699),
]


@pytest.mark.parametrize("game,name,seed,b,guess,r,state,has_uint32,uinteger", GUESSER_TRIALS)
def test_guessers_keep_their_outcomes_and_draws(
    game, name, seed, b, guess, r, state, has_uint32, uinteger
):
    strategy = RandomGuesser() if name == "random" else ConstantGuesser(1)
    rng = np.random.default_rng(seed)
    out = GAME_RUNNERS[game](prf_scheme(2, 1), strategy, rng)
    assert out == GameOutcome(game, b, guess, guess == b, (r,), 0)
    after = rng.bit_generator.state
    assert (after["state"]["state"], after["has_uint32"], after["uinteger"]) == (
        state,
        has_uint32,
        uinteger,
    )


def test_hoeffding_half_width_formula():
    n = 1000
    expected = math.sqrt(math.log(2 / 0.01) / (2 * n))
    assert hoeffding_half_width(n) == pytest.approx(expected)
    with pytest.raises(ValueError):
        hoeffding_half_width(0)


def test_estimate_advantage_is_seed_deterministic():
    scheme = prf_scheme(2, 1)
    # a deterministic attack and one whose guesses draw from the trial rng
    for strategy, trials, seed in ((qlp_distinguisher(), 50, 9), (RandomGuesser(), 80, 13)):
        a = estimate_advantage(run_qind_qcpa, scheme, strategy, trials, seed=seed)
        b = estimate_advantage(run_qind_qcpa, scheme, strategy, trials, seed=seed)
        assert asdict(a) == asdict(b)


def test_estimate_advantage_interval_contains_rate():
    scheme = prf_scheme(1, 2)
    est = estimate_advantage(run_qind_qcpa, scheme, RandomGuesser(), 200, seed=17)
    lo, hi = est.interval
    assert lo <= est.win_rate <= hi
    assert est.method == "hoeffding"
    assert est.wins is not None
    assert est.advantage == pytest.approx(2 * est.win_rate - 1)


def test_exact_advantage_refuses_before_evaluating():
    # key_count=0 warned "Mean of empty slice", then failed on the win rate
    scheme = prf_scheme(2, 1)
    with pytest.raises(ValueError, match="key_count must be >= 1"):
        exact_advantage(scheme, qlp_distinguisher(), key_count=0)
    with pytest.raises(GameSetupError, match="has no exact evaluator"):
        exact_advantage(scheme, RandomGuesser())


def test_exact_advantage_has_zero_width():
    scheme = prf_scheme(2, 1)
    est = exact_advantage(scheme, qlp_distinguisher(), key_count=2)
    assert est.method == "exact"
    assert est.wins is None
    assert est.half_width == 0.0
    assert est.interval[0] == est.interval[1] == est.win_rate
    assert est.win_rate == pytest.approx(1.0, abs=1e-12)


def test_exact_advantage_counts_the_branches_it_evaluated():
    class CountingEvaluator(AdversaryStrategy):
        name = "counting"

        def __init__(self):
            self.calls = 0

        def exact_win_probability(self, scheme, key, r):
            self.calls += 1
            return 0.5

    # tau = 4: eight randomness values drawn with replacement, so repeats
    # shrink the evaluated set below 2 keys x 8 values
    scheme = prf_scheme(2, 4)
    for seed in range(4):
        strategy = CountingEvaluator()
        est = exact_advantage(scheme, strategy, seed=seed)
        assert est.trials == 2 * strategy.calls


def _basis_index(state):
    (index,) = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
    assert abs(state.amplitudes[index]) == pytest.approx(1.0)
    return int(index)


def test_type1_learning_query_xors_the_ciphertext_into_the_response():
    scheme = prf_scheme(2, 2)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    oracle = Type1LearningOracle(scheme, 6, np.random.default_rng(4))
    for x in range(2**m):
        state = state_from_bits(format(x, f"0{m}b") + "0" * ell)
        out = oracle.query(state, tuple(range(m)), tuple(range(m, m + ell)))
        r = oracle.randomness_used[-1]
        assert _basis_index(out) == (x << ell) | int(scheme.enc(6, r, x))
    assert oracle.query_count == 2**m


def test_type1_learning_query_checks_both_wire_counts_before_drawing():
    oracle = Type1LearningOracle(prf_scheme(2, 2), 6, np.random.default_rng(4))
    for message, response in (((0,), (1, 2, 3, 4)), ((0, 1), (2, 3, 4))):
        with pytest.raises(GameSetupError, match="2 message and 4 response wires"):
            oracle.query(zero_state(5), message, response)
    assert oracle.query_count == 0
    assert oracle.randomness_used == []


def test_type2_learning_query_encrypts_in_place():
    scheme = prf_scheme(2, 2)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    oracle = Type2LearningOracle(scheme, 6, np.random.default_rng(4))
    for x in range(2**m):
        # a private wire 0 in |1> ahead of the message register
        state = state_from_bits("1" + format(x, f"0{m}b"))
        out, wires = oracle.query(state, (1, 2))
        assert wires == (1, 2, 3, 4)
        r = oracle.randomness_used[-1]
        assert _basis_index(out) == (1 << ell) | int(scheme.enc(6, r, x))
        assert oracle.query_count == x + 1


def test_type2_learning_query_checks_the_message_wire_count():
    oracle = Type2LearningOracle(prf_scheme(2, 2), 6, np.random.default_rng(4))
    with pytest.raises(GameSetupError, match="2 message wires"):
        oracle.query(state_from_bits("000"), (1,))
    assert oracle.query_count == 0


def _assert_no_trace(oracle, rng, state):
    # a refused query is neither counted nor drawn for
    assert oracle.query_count == 0 and oracle.randomness_used == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "wires,match",
    [
        ((1, 1), "distinct"),
        ((0, 3), "out of range"),
        ((0, 5), "out of range"),
        ((-1, 0), "out of range"),
    ],
)
def test_type2_learning_query_refuses_repeated_and_out_of_range_wires(wires, match):
    # message wires are read on the three-wire state the adversary holds: the
    # ancilla wires 3 and 4 join it only inside the oracle
    rng = np.random.default_rng(4)
    oracle, state = Type2LearningOracle(prf_scheme(2, 2), 6, rng), rng.bit_generator.state
    with pytest.raises(GameSetupError, match=match):
        oracle.query(state_from_bits("000"), wires)
    _assert_no_trace(oracle, rng, state)


@pytest.mark.parametrize(
    "oracle_type,query,match",
    [
        (Type1LearningOracle, lambda o: o.query(zero_state(6), (0, 1), (1, 2, 3, 4)), "distinct"),
        (Type1LearningOracle, lambda o: o.query(zero_state(6), (0, 1), (2, 3, 4, 6)), "range"),
        (Type1LearningOracle, lambda o: o.query_classical(7), "plaintext 7 out of range"),
        (Type2LearningOracle, lambda o: o.query_classical(1.5), "1.5 is not an integer"),
        (Type2LearningOracle, lambda o: o.query_classical("1"), "'1' is not an integer"),
        # two ancilla wires would take a 13-wire state past the cap
        (Type2LearningOracle, lambda o: o.query(zero_state(13), (0, 1)), "exceeds the cap"),
        # float wires were counted and drawn for, then failed in the encryption
        (
            Type1LearningOracle,
            lambda o: o.query(zero_state(6), (0.0, 1), (2, 3, 4, 5)),
            "wire 0.0 is not an integer",
        ),
        (Type2LearningOracle, lambda o: o.query(zero_state(3), (1, 1.5)), "1.5 is not an integer"),
    ],
    ids=[
        "type1-distinct",
        "type1-range",
        "classical-7",
        "classical-1.5",
        "classical-str",
        "cap",
        "type1-float-wire",
        "type2-float-wire",
    ],
)
def test_refused_learning_queries_leave_no_trace(oracle_type, query, match):
    # m = 2: a classical plaintext lies in [0, 4)
    rng = np.random.default_rng(4)
    oracle, state = oracle_type(prf_scheme(2, 2), 6, rng), rng.bit_generator.state
    with pytest.raises(GameSetupError, match=match):
        query(oracle)
    _assert_no_trace(oracle, rng, state)


def test_the_games_read_the_scheme_only_through_enc(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a game built a lift's table or applied one")

    for module in (oracles, games, attacks):
        for name in ("type1_unitary", "type2_unitary"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(oracles.EncryptionUnitary, "apply", refuse)
    scheme = replace(prf_scheme(2, 2), type2_completion=refuse)
    rng = np.random.default_rng(8)
    for runner in (run_qind_qcpa, run_gqind_qcpa):
        assert runner(scheme, qlp_distinguisher(), rng).win
    out, wires = Type2LearningOracle(scheme, 6, rng).query(zero_state(3), (2, 0))
    assert out.num_wires == 5 and wires == (2, 0, 3, 4)
    assert exact_advantage(scheme, qlp_distinguisher()).win_rate == pytest.approx(1.0)
    # type-1: the fqind challenge, a learning query and bz's exact evaluator
    run_fqind_qcpa(scheme, bz_adversary(), rng)
    oracle = Type1LearningOracle(scheme, 6, rng)
    assert oracle.query(zero_state(7), (6, 0), (1, 2, 3, 4)).num_wires == 7
    want = float(attacks.bz_expected_win_rate(2))
    assert bz_adversary().exact_win_probability(scheme, 6, 1) == pytest.approx(want)


def test_with_learning_queries_pads_the_transcript():
    scheme = prf_scheme(2, 2)
    base = qlp_distinguisher()
    padded = with_learning_queries(base, 3)
    assert padded.name == f"{base.name}+q3"
    out = run_qind_qcpa(scheme, padded, np.random.default_rng(8))
    assert out.query_count == 3
    # the challenge draw plus one per learning query
    assert len(out.randomness_used) == 4


def test_with_learning_queries_zero_is_identity():
    base = qlp_distinguisher()
    assert with_learning_queries(base, 0) is base
    with pytest.raises(ValueError):
        with_learning_queries(base, -1)


def test_strategy_game_mismatch_is_reported():
    # the strategy's declared games decide, before the key is drawn: bz
    # builds a qind template but does not play qind
    scheme = prf_scheme(2, 1)
    for runner, strategy in ((run_fqind_qcpa, CiphertextReader()), (run_qind_qcpa, bz_adversary())):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GameSetupError, match="does not play"):
            runner(scheme, strategy, rng)
        assert rng.bit_generator.state == state


def test_forced_challenge_arguments_are_honored():
    scheme = prf_scheme(2, 2)
    out = run_qind_qcpa(
        scheme,
        RandomGuesser(),
        np.random.default_rng(5),
        challenge_bit=1,
        challenge_randomness=2,
    )
    assert out.challenge_bit == 1
    assert out.randomness_used[-1] == 2
    with pytest.raises(GameSetupError):
        run_qind_qcpa(scheme, RandomGuesser(), np.random.default_rng(5), challenge_bit=2)
    with pytest.raises(GameSetupError):
        run_qind_qcpa(
            scheme, RandomGuesser(), np.random.default_rng(5), challenge_randomness=4
        )


@pytest.mark.parametrize("r", [1.5, np.float64(1.0), "1"])
def test_forced_randomness_must_be_an_integer(r):
    # 1.5 was played as r = 1; numpy integers still pass, recorded as int;
    # the refusal comes before the key is drawn
    scheme, guesser, rng = prf_scheme(2, 2), RandomGuesser(), np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(GameSetupError, match="is not an integer"):
        run_qind_qcpa(scheme, guesser, rng, challenge_randomness=r)
    assert rng.bit_generator.state == state
    out = run_qind_qcpa(scheme, guesser, np.random.default_rng(5), challenge_randomness=np.int64(3))
    assert out.randomness_used[-1] == 3 and type(out.randomness_used[-1]) is int


@pytest.mark.parametrize("bit", [1.0, np.float64(0.0), "1"])
def test_forced_bits_must_be_integers(bit):
    # 1.0 was played as b = 1 and named a constant1.0 guesser; numpy
    # integers still pass, recorded as int
    scheme, guesser, rng = prf_scheme(2, 2), RandomGuesser(), np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(GameSetupError, match="is not an integer"):
        run_qind_qcpa(scheme, guesser, rng, challenge_bit=bit)
    assert rng.bit_generator.state == state
    with pytest.raises(GameSetupError, match="is not an integer"):
        ConstantGuesser(bit)
    out = run_qind_qcpa(scheme, guesser, np.random.default_rng(5), challenge_bit=np.int64(1))
    assert out.challenge_bit == 1 and type(out.challenge_bit) is int
    constant = ConstantGuesser(np.int64(1))
    assert constant.name == "constant1" and type(constant.bit) is int


class ScriptedInd(AdversaryStrategy):
    """An ind adversary that makes one classical learning query, sends a fixed
    plaintext pair and guesses a fixed value; it keeps what it was sent."""

    name, games = "scripted", ("ind",)

    def __init__(self, pair=(0, 3), query=0, guess=0):
        self.pair, self.query, self.guess = pair, query, guess

    def start(self, scheme, rng):
        return self

    def learn(self, oracle):
        self.learned = oracle.query_classical(self.query)

    def ind_template(self):
        return self.pair

    def receive_challenge(self, ciphertext):
        self.ciphertext = ciphertext

    def final_guess(self):
        return self.guess


@pytest.mark.parametrize("value", [0.5, 0.9, 1.5, np.float64(1.0), "1"])
def test_plaintexts_and_guesses_must_be_integers(value):
    # an ind pair (0.5, 2.9) was played as (0, 2), a guess of 0.9 scored as
    # 0 and a query of 1.5 encrypted as 1; numpy integers still play alike
    scheme = prf_scheme(2, 2)
    for adversary in (
        ScriptedInd(pair=(value, 3)),
        ScriptedInd(pair=(0, value)),
        ScriptedInd(query=value),
        ScriptedInd(guess=value),
    ):
        with pytest.raises(GameSetupError, match="is not an integer"):
            run_ind_qcpa(scheme, adversary, np.random.default_rng(5))
    plain = ScriptedInd(pair=(0, 3), query=2, guess=1)
    numpy = ScriptedInd(pair=(np.int64(0), np.uint8(3)), query=np.int64(2), guess=np.int64(1))
    outcomes = [run_ind_qcpa(scheme, a, np.random.default_rng(5)) for a in (plain, numpy)]
    assert outcomes[0] == outcomes[1] and type(outcomes[1].guess) is int
    assert (plain.learned, plain.ciphertext) == (numpy.learned, numpy.ciphertext)


def test_padding_keeps_the_inner_learning_queries():
    scheme, inner = prf_scheme(2, 2), ScriptedInd(query=2)
    out = run_ind_qcpa(scheme, with_learning_queries(inner, 3), np.random.default_rng(5), key=6)
    # the three padding queries come first, then the strategy's own
    assert out.query_count == 4 and len(out.randomness_used) == 5
    assert inner.learned == int(scheme.enc(6, out.randomness_used[3], 2))


class SendsTemplate(AdversaryStrategy):
    """Plays one game with a fixed template, keeps the response, guesses 0."""

    name = "sends-template"

    def __init__(self, game, template):
        self.games, self.template = (game,), template

    def start(self, scheme, rng):
        return self

    def fqind_template(self):
        return self.template

    qind_template = gqind_template = fqind_template

    def receive_challenge(self, response):
        self.response = response

    def final_guess(self):
        return 0


@pytest.mark.parametrize(
    "game,template,match",
    [
        ("fqind", FqindChallenge(zero_state(4), (0,), (1,), (2,)), "need 1, 1 and 2 wires"),
        ("fqind", FqindChallenge(zero_state(4), (0.0,), (1,), (2, 3)), "0.0 is not an integer"),
        ("qind", (StateDescription(1), StateDescription(2)), "cover exactly 1 wires"),
        ("gqind", GqindChallenge(zero_state(3), (0, 1), (2,)), "need 1 wires each"),
        ("gqind", GqindChallenge(zero_state(2), (0,), (np.float64(1.0),)), "is not an integer"),
    ],
    ids=["fqind-size", "fqind-float-wire", "qind-size", "gqind-size", "gqind-float-wire"],
)
def test_malformed_templates_are_refused_before_the_challenge_draws(game, template, match):
    # with the key given and no learning phase, the template check is the
    # last step before b is drawn; float wires used to draw b and r first
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(GameSetupError, match=match):
        GAME_RUNNERS[game](prf_scheme(1, 1), SendsTemplate(game, template), rng, key=3)
    assert rng.bit_generator.state == state


def test_numpy_integer_wires_play_as_plain_ones():
    scheme = prf_scheme(1, 1)
    templates = {
        "fqind": lambda w: FqindChallenge(zero_state(4), (w(0),), (w(1),), (w(2), w(3))),
        "gqind": lambda w: GqindChallenge(zero_state(3), (w(0),), (w(2),)),
    }
    for game, template in templates.items():
        plays = [SendsTemplate(game, template(w)) for w in (int, np.int64)]
        outcomes = [GAME_RUNNERS[game](scheme, p, np.random.default_rng(6)) for p in plays]
        assert outcomes[0] == outcomes[1]
        a, b = (p.response.state.amplitudes for p in plays)
        assert np.array_equal(a, b)


def test_qind_rebuilds_a_mixed_description_one_component_per_trial():
    scheme = prf_scheme(1, 1)
    mixed = StateDescription(1, mixture=((0.5, ()), (0.5, (X(0),))))
    probe = SendsTemplate("qind", (mixed, StateDescription(1)))
    seen = set()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        run_qind_qcpa(scheme, probe, rng, key=3, challenge_bit=0, challenge_randomness=1)
        seen.add(_basis_index(probe.response))
    # the component is drawn per trial: both plaintexts arrive encrypted
    assert seen == {int(scheme.enc(3, 1, x)) for x in (0, 1)}


@pytest.mark.parametrize(
    "call",
    [
        lambda v: exact_advantage(prf_scheme(2, 1), qlp_distinguisher(), key_count=v),
        lambda v: games.distinct_keys(prf_scheme(2, 1), v, np.random.default_rng(0)),
        lambda v: estimate_advantage(run_qind_qcpa, prf_scheme(1, 1), RandomGuesser(), v, 0),
        lambda v: with_learning_queries(qlp_distinguisher(), v),
        lambda v: attacks.HadamardBitProbe(v),
        lambda v: EntangledBlockProbe(v),
        lambda v: certify_corollary_bound(1, 3, (v,), samples=1),
        lambda v: certify_lemma_bound(1, 1, samples=v),
        lambda v: certify_lemma_bound(1, 3, samples=1, n_perm=v, seed=0),
        lambda v: H(v),
    ],
    ids=["key_count", "distinct_keys", "trials", "queries", "probe_wire", "mu", "taken",
         "samples", "n_perm", "wire"],
)
def test_count_and_index_arguments_must_be_integers(call):
    # key_count=1.5 evaluated 2 keys, taken output 1.5 was certified as 1
    # and a gate on wire 0.5 acted on wire 0; the others failed only later
    for value in (1.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="is not an integer"):
            call(value)
    call(np.int64(1))


def test_fqind_game_runs_and_relays_all_registers():
    scheme = prf_scheme(1, 1)

    class Inspector(AdversaryStrategy):
        def __init__(self):
            self.name = "inspector"
            self.games = ("fqind",)
            self.seen = None

        def start(self, strat_scheme, rng):
            outer = self
            m, ell = strat_scheme.message_bits, strat_scheme.ciphertext_bits
            from qindlab.games import FqindChallenge
            from qindlab.quantum_core import zero_state

            class Trial:
                def fqind_template(self):
                    n = 2 * m + ell
                    return FqindChallenge(
                        zero_state(n),
                        tuple(range(m)),
                        tuple(range(m, 2 * m)),
                        tuple(range(2 * m, n)),
                    )

                def receive_challenge(self, ch):
                    outer.seen = ch

                def final_guess(self):
                    return 0

            return Trial()

    probe = Inspector()
    out = run_fqind_qcpa(
        scheme, probe, np.random.default_rng(2), challenge_bit=0, challenge_randomness=0
    )
    assert out.game == "fqind"
    # full state comes back: both messages and the response register
    assert probe.seen.state.num_wires == 2 * 1 + 2
    assert probe.seen.response_wires == (2, 3)


@pytest.mark.parametrize(
    "message0, message1, n",
    [
        ((0,), (1,), 3),  # private wire after both registers
        ((1,), (3,), 6),  # before, between and after
        ((4, 1), (2, 6), 8),  # interleaved, listed out of order
        ((5, 6), (0, 3), 8),  # the second register first
    ],
)
@pytest.mark.parametrize("b", [0, 1])
def test_gqind_private_wires_survive(message0, message1, n, b):
    m = len(message0)
    scheme = prf_scheme(m, 1)

    class KeepPrivate(AdversaryStrategy):
        name = "keep-private"
        games = ("gqind",)
        response = None

        def start(self, strat_scheme, rng):
            outer = self

            class Trial:
                def gqind_template(self):
                    # the private wires hold 1, 0, 1, ... in ascending order
                    bits = ["0"] * n
                    private = [w for w in range(n) if w not in message0 + message1]
                    for w in private[::2]:
                        bits[w] = "1"
                    return GqindChallenge(state_from_bits("".join(bits)), message0, message1)

                def receive_challenge(self, resp):
                    outer.response = resp

                def final_guess(self):
                    return 0

            return Trial()

    probe = KeepPrivate()
    run_gqind_qcpa(scheme, probe, np.random.default_rng(4), challenge_bit=b)
    resp = probe.response
    keep, drop = (message1, message0) if b else (message0, message1)

    def shifted(w):  # the renumbering the challenger made before
        return w - sum(1 for d in drop if d < w)

    private = tuple(shifted(w) for w in range(n) if w not in drop and w not in keep)
    # one message register measured away, the ancilla appended
    assert resp.state.num_wires == n - m + scheme.randomness_bits
    assert resp.ciphertext_wires[:m] == tuple(shifted(w) for w in keep)
    assert len(resp.ciphertext_wires) == scheme.ciphertext_bits
    assert resp.private_wires == private
    assert set(resp.ciphertext_wires) | set(private) == set(range(resp.state.num_wires))
    # a basis state stays one, and the private wires keep their contents
    index = int(np.argmax(np.abs(resp.state.amplitudes)))
    bits = format(index, f"0{resp.state.num_wires}b")
    assert [bits[w] for w in private] == ["1" if i % 2 == 0 else "0" for i in range(len(private))]


def test_entangled_block_probe_needs_matching_block_count():
    probe = EntangledBlockProbe(2)
    scheme = prp_scheme(1, 1, ideal_prp_family(2))  # single block
    with pytest.raises(GameSetupError):
        run_gqind_qcpa(scheme, probe, np.random.default_rng(0))


def test_entangled_block_probe_runs_on_block_scheme():
    scheme = block_scheme(prp_scheme(1, 2, ideal_prp_family(3)), 2)
    probe = EntangledBlockProbe(2)
    out = run_gqind_qcpa(scheme, probe, np.random.default_rng(12))
    assert out.game == "gqind"
    assert out.guess in (0, 1)


def test_key_table_caches_stay_bounded_over_fresh_keys():
    schemes._ideal_inverse.cache_clear()
    wide = prp_scheme(2, 8, ideal_prp_family(10))
    estimate_advantage(run_qind_qcpa, wide, qlp_distinguisher(force=True), 2000, seed=4)
    estimate_advantage(run_qind_qcpa, prf_scheme(2, 2), qlp_distinguisher(), 2000, seed=4)
    for cached in (schemes._ideal_table, schemes._prf_table):
        info = cached.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize
    # the games never decrypt, so they build no inverse table
    assert schemes._ideal_inverse.cache_info().currsize == 0
    x = np.arange(4)
    for key in range(schemes._TABLE_CACHE_SIZE + 16):
        assert np.array_equal(wide.dec(key, wide.enc(key, key % 256, x)), x)
    info = schemes._ideal_inverse.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


# The benchmark's wide games: 14-wire fqind, whose trials weigh Enc's table
# through the template's plan; qind on a 10-bit ideal PRP; 14-wire gqind. Their seeded win counts are pinned: a changed draw, table or
# permutation path shows here.
WIDE_GAMES = (
    ("fqind", lambda: prf_scheme(3, 5), lambda: bz_adversary(), 37),
    (
        "qind",
        lambda: prp_scheme(2, 8, ideal_prp_family(10)),
        lambda: qlp_distinguisher(force=True),
        17,
    ),
    ("gqind", lambda: prf_scheme(6, 8), lambda: qlp_distinguisher(), 40),
)


@pytest.mark.parametrize("game,scheme,strategy,wins", WIDE_GAMES)
def test_wide_games_keep_their_seeded_wins(game, scheme, strategy, wins):
    outcomes = []

    def runner(*args, **kwargs):
        outcomes.append(GAME_RUNNERS[game](*args, **kwargs))
        return outcomes[-1]

    assert estimate_advantage(runner, scheme(), strategy(), 40, seed=12).wins == wins
    assert {o.challenge_bit for o in outcomes} == {0, 1}


# -- memory of the encryption steps ---------------------------------------------


def _traced_peak(step) -> int:
    """Bytes the step holds at its peak beyond what it started with; a first
    call warms every cache the step reads."""
    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gapped_fqind_trials_peak_no_higher_than_contiguous_ones():
    # 14 wires: a trial weighs Enc's table through the plan at either challenge
    # bit, and a b = 0 trial holds no more than a b = 1 trial; the gapped
    # xor_encrypt_register step's own peak is pinned by
    # test_encryption_steps_hold_their_output_and_one_index
    scheme, bz = prf_scheme(3, 5), bz_adversary()
    peak = [
        _traced_peak(
            lambda: run_fqind_qcpa(scheme, bz, np.random.default_rng(5), key=3, challenge_bit=b)
        )
        for b in (0, 1)
    ]
    assert peak[0] <= 1.05 * peak[1], peak


def _refusal_peak(step) -> int:
    """``_traced_peak`` of a step the games must refuse over the wire cap."""

    def refused():
        with pytest.raises(GameSetupError, match="exceeds the cap of 14"):
            step()

    return _traced_peak(refused)


@pytest.mark.parametrize(
    "game,m,tau,strategy",
    [
        ("fqind", 4, 4, bz_adversary),  # 2m + ell = 16 wires
        ("gqind", 8, 1, qlp_distinguisher),  # 2m = 16 wires
        ("gqind", 8, 1, RandomGuesser),
    ],
)
def test_an_over_wide_template_is_refused_before_it_is_built(game, m, tau, strategy):
    # a built 16-wire template holds 1 MB of amplitudes
    scheme, runner = prf_scheme(m, tau), GAME_RUNNERS[game]
    peak = _refusal_peak(lambda: runner(scheme, strategy(), np.random.default_rng(5)))
    assert peak < 64 * 1024, peak


def test_the_exact_evaluator_refuses_an_over_wide_template_before_building_it():
    scheme, bz = prf_scheme(4, 4), bz_adversary()
    peak = _refusal_peak(lambda: bz.exact_win_probability(scheme, 0, 0))
    assert peak < 64 * 1024, peak


def test_encryption_steps_hold_their_output_and_one_index():
    scheme = prf_scheme(3, 5)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    rng = np.random.default_rng(2)
    template = bz_adversary().template(scheme, "fqind")
    vec = rng.normal(size=2**9) + 1j * rng.normal(size=2**9)
    steps = [
        lambda message=message: oracles.xor_encrypt_register(
            scheme, 3, 1, template.state, message, template.response_wires
        )
        for message in (template.message0_wires, template.message1_wires)
    ]
    # nine wires, six of them private, gain five ancilla wires: 14 in all
    plain = StateVector(9, vec / np.linalg.norm(vec))
    steps.append(lambda: oracles.encrypt_fresh_register(scheme, 3, 1, plain, (8, 2, 5)))
    output = 16 * 2**14
    for step in steps:
        assert _traced_peak(step) <= output + 8 * 2 ** (m + ell) + 4096


@pytest.mark.parametrize(
    "game,scheme,template",
    [
        # one 1-wire register measured out, the other widened to 9 wires: 16
        ("gqind", prf_scheme(1, 8), GqindChallenge(zero_state(9), (0,), (1,))),
        ("qind", prf_scheme(7, 8), (StateDescription(7), StateDescription(7))),
    ],
    ids=["gqind", "qind"],
)
def test_over_wide_type2_challenges_are_refused_before_b(game, scheme, template):
    rng, key_only = np.random.default_rng(9), np.random.default_rng(9)
    scheme.gen(key_only)
    with pytest.raises(GameSetupError, match="exceeds the cap of 14"):
        GAME_RUNNERS[game](scheme, SendsTemplate(game, template), rng)
    assert rng.bit_generator.state == key_only.bit_generator.state


@pytest.mark.parametrize(
    "make",
    [
        lambda: zero_state(2),
        lambda: zero_state(2).to_density(),
        lambda: quantum_core.UnitaryOperator(1, np.eye(2)),
        lambda: FqindChallenge(zero_state(3), (0,), (1,), (2,)),
        lambda: GqindChallenge(zero_state(2), (0,), (1,)),
        lambda: games.GqindResponse(zero_state(2), (0, 1), ()),
        lambda s=prf_scheme(1, 1): oracles.type1_unitary(s, 3, 1),  # one scheme for both
    ],
    ids=["StateVector", "DensityMatrix", "UnitaryOperator", "FqindChallenge",
         "GqindChallenge", "GqindResponse", "EncryptionUnitary"],
)
def test_values_holding_a_state_compare_by_identity(make):
    value = make()
    assert value == value
    assert (value == make()) is False
    assert (value != make()) is True


def test_each_encryption_step_checks_its_wires_once(monkeypatch):
    calls = {"_check_wires": 0, "_fresh_register": 0}
    for name, module in (("_check_wires", quantum_core), ("_fresh_register", oracles)):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        for owner in (quantum_core, oracles, games):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted)

    def count(step, times=4):
        step()  # builds every cached template and layout the step reads
        calls.update(dict.fromkeys(calls, 0))
        for _ in range(times):
            step()
        return {name: n / times for name, n in calls.items()}

    scheme, rng = prf_scheme(2, 2), np.random.default_rng(4)
    bz, qlp = bz_adversary(), qlp_distinguisher()
    assert count(lambda: run_fqind_qcpa(scheme, bz, rng))["_check_wires"] == 1
    plain = zero_state(6)
    type1 = Type1LearningOracle(scheme, 3, rng)
    assert count(lambda: type1.query(plain, (4, 1), (0, 2, 3, 5)))["_check_wires"] == 1
    type2 = Type2LearningOracle(scheme, 3, rng)
    assert count(lambda: type2.query(zero_state(3), (2, 0)))["_fresh_register"] == 1
    for runner in (run_qind_qcpa, run_gqind_qcpa):
        assert count(lambda: runner(scheme, qlp, rng))["_fresh_register"] == 0


@pytest.mark.parametrize(
    "scheme",
    [prf_scheme(1, 1), prp_scheme(1, 0, identity_permutation_family(1))],
    ids=["prf", "prp-identity"],
)
def test_forced_keys_are_refused_before_any_draw(scheme):
    # key=1.5 was refused only after b and r were drawn; a keyless scheme
    # played key=-5
    for key in (1.5, -1, -5, scheme.key_space, "1"):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(GameSetupError, match="key"):
            run_qind_qcpa(scheme, qlp_distinguisher(), rng, key=key)
        assert rng.bit_generator.state == state
    top = scheme.key_space - 1
    plays = [
        run_qind_qcpa(scheme, qlp_distinguisher(), np.random.default_rng(3), key=k)
        for k in (top, np.int64(top))
    ]
    assert plays[0] == plays[1]


def test_trial_i_plays_the_ith_spawned_child_seed():
    def first_draw(scheme, strategy, rng):
        draws.append(int(rng.integers(2**62)))
        return GameOutcome("ind", 0, 0, True, (), 0)

    for seed in (1001, [3, 4]):
        draws = []
        estimate_advantage(first_draw, prf_scheme(1, 1), RandomGuesser(), 50, seed)
        children = np.random.SeedSequence(seed).spawn(50)
        assert draws == [int(np.random.default_rng(c).integers(2**62)) for c in children]


def test_estimate_advantage_memory_does_not_grow_with_trials():
    # one SeedSequence per trial was held for the whole call: 445 B a trial
    def win(scheme, strategy, rng):
        return GameOutcome("ind", 0, 0, True, (), 0)

    scheme, guesser = prf_scheme(1, 1), RandomGuesser()
    small, large = (
        _traced_peak(lambda: estimate_advantage(win, scheme, guesser, trials, 7))
        for trials in (2_000, 20_000)
    )
    assert large <= small + 64 * 1024, (small, large)


def _hadamard_bit(q):
    return with_learning_queries(attacks.hadamard_bit_distinguisher(), q)


def _forced_qlp(q):
    return with_learning_queries(qlp_distinguisher(force=True), q)


def _bz(q):
    return with_learning_queries(bz_adversary(), q)


# (game, scheme, padded strategy, seed) -> what a trial played from
# default_rng(seed) returns: (b, guess, win, randomness_used, query_count), and
# the Generator's final (PCG64 state, has_uint32, uinteger). The values were
# captured when every padded query still encrypted plaintext 0.
_PADDED_REPLAYS = [
    ("qind", "prp", lambda: _hadamard_bit(1), 101,
     (1, 1, True, (15, 5), 1),
     (286121132537258305179882769142764472160, 0, 1543701583)),
    ("gqind", "prp", lambda: _forced_qlp(1), 201,
     (0, 1, False, (15, 8), 1),
     (76126022643621960849164495851211930501, 0, 2304822593)),
    ("fqind", "prf", lambda: _bz(1), 301,
     (0, 0, True, (1, 0), 1),
     (8135404762127034394013458276856936637, 0, 860221342)),
    ("qind", "prp", lambda: _hadamard_bit(2), 102,
     (1, 0, False, (2, 8, 3), 2),
     (148845249410965798627108590551548172035, 1, 3538352015)),
    ("gqind", "prp", lambda: _forced_qlp(2), 202,
     (0, 0, True, (5, 6, 4), 2),
     (6813283444307004348908960425351197385, 1, 3503641620)),
    ("fqind", "prf", lambda: _bz(2), 302,
     (1, 1, True, (3, 3, 0), 2),
     (224501031473528728745770303826134477947, 1, 4287536136)),
    ("qind", "prp", lambda: _hadamard_bit(3), 103,
     (1, 1, True, (5, 1, 3, 2), 3),
     (133224802599970601656911613168660482310, 0, 781725829)),
    ("gqind", "prp", lambda: _forced_qlp(3), 203,
     (1, 1, True, (12, 15, 5, 1), 3),
     (216836120934614140655975481767667847330, 0, 375572866)),
    ("fqind", "prf", lambda: _bz(3), 303,
     (0, 0, True, (0, 3, 1, 3), 3),
     (310232627656162431624422734155211047325, 0, 3469024640)),
    # nested padding: three queries around two around the attack
    ("qind", "prp", lambda: with_learning_queries(_forced_qlp(2), 3), 400,
     (0, 1, False, (3, 5, 9, 5, 15, 6), 5),
     (19211712420618811329582026096113830217, 0, 1639146000)),
    # padding around a strategy with a learning query of its own
    ("ind", "prf", lambda: with_learning_queries(ScriptedInd(query=2), 2), 500,
     (0, 0, True, (2, 1, 3, 2), 3),
     (67850145252619719099897998528927759254, 0, 2771788064)),
]


@pytest.mark.parametrize(
    "game, family, strategy, seed, outcome, final",
    _PADDED_REPLAYS,
    ids=[f"{case[0]}-seed{case[3]}" for case in _PADDED_REPLAYS],
)
def test_padded_queries_replay_their_draws_without_encrypting(
    game, family, strategy, seed, outcome, final
):
    base = prp_scheme(2, 4, ideal_prp_family(6)) if family == "prp" else prf_scheme(2, 2)
    calls = []

    def enc(*args):
        calls.append(args)
        return base.enc(*args)

    scheme = replace(base, enc=enc)
    padded = strategy()
    rng = np.random.default_rng(seed)
    out = GAME_RUNNERS[game](scheme, padded, rng)
    assert out.game == game
    assert (out.challenge_bit, out.guess, out.win, out.randomness_used, out.query_count) == outcome
    state = rng.bit_generator.state
    assert (state["state"]["state"], state["has_uint32"], state["uinteger"]) == final
    # one Enc table read for the challenge, plus one for each query the
    # strategy makes itself; none for a padded query
    own = out.query_count - padded.padded_queries
    assert len(calls) == 1 + own, calls
