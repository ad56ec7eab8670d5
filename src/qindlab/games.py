"""Indistinguishability games against lifted encryption oracles.

Four games:

* ind:   quantum (type-1) learning queries, classical challenge pair.
* fqind: type-1 learning queries; the adversary prepares registers
         [message0 | message1 | response] and keeps all of them; the
         challenger XOR-encrypts message b into the response register.
* qind:  type-2 learning queries; the adversary sends two classical state
         descriptions; the challenger rebuilds the chosen one privately,
         encrypts it in place with fresh randomness, and returns only the
         ciphertext register.
* gqind: like qind, but the adversary designates two message registers
         inside a state it prepared (entanglement with private wires
         allowed); the challenger measures out the unchosen register and
         discards the outcome.

Adversaries are stateless factories (AdversaryStrategy) declaring the games
they play; ``start`` yields a per-trial instance whose hooks the challenger
calls: ``learn`` if present (given a learning oracle), ``{game}_template``,
``receive_challenge`` and ``final_guess``. The challenger never exposes the
challenge bit or any b-dependent data beyond the prescribed response
registers; winning always means guess == challenge bit.

All four share one challenger skeleton; only the learning oracle, the
template checks and the challenge step differ. A Hadamard-test trial is
data: it declares its templates and its ``tested`` positions, and has no
other hook. The challenger reads p0 from Enc's table in the game's weigh
step, which makes the challenge step's draws and Enc check and builds no
response state; fqind's reads its template through a plan (``_fqind_plan``)
built and checked once per template. The challenger then draws the guess
as the measurement would: 0 iff one uniform is below p0 / total. Every trial
consumes randomness only from its own Generator, in one order: key,
adversary start, the padded queries' r values, ``learn``'s queries, b, r,
then the challenge step, or the weigh step and the guess's uniform.
estimate_advantage derives trial i's seed as the i-th child of the caller's
seed, so aggregates are reproducible.

Inputs are checked before any draw that uses them, and refused with
GameSetupError: the strategy's games and a forced key, b and r before the
key is drawn, a learning query's registers and plaintext before its r, the
template before b. Integers (the key, b, r, plaintexts, the guess) pass
``_check_index``, a key against the scheme's ``key_space``, so 1.5 and 1.0
are refused, not truncated; registers have their sizes, and their
wires pass one ``_check_wires`` together, which reads each wire the same way
and keeps them disjoint. Each encryption step checks its wires once: the
learning oracles and challenge steps call ``oracles``' unchecked cores.
The games own the wire budget: every width a game allocates (a fixed
template, a type-2 query's register, a qind or gqind response) is refused
against the cap before it is built.

A strategy whose templates are fixed declares its qind pair as
``descriptions(m)``; ``_template`` builds every fixed template from that pair
once, and every trial of every such strategy shares it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .oracles import _check_randomness, _enc_table, _encrypt_fresh, _fresh_register, _xor_encrypt
from .quantum_core import (
    StateDescription,
    StateVector,
    X,
    _check_index,
    _check_wire_count,
    _check_wires,
    _freeze,
    measure_and_remove,
    run_gates,
    sample_description,
    zero_state,
)
from .schemes import ClassicalScheme

GAME_NAMES = ("ind", "fqind", "qind", "gqind")

CONFIDENCE = 0.99


class GameSetupError(ValueError):
    """Malformed challenge, incompatible strategy, or invalid game request."""


def _refused(check: Callable, *args):
    """``check(*args)``, with a ValueError it raises turned into GameSetupError:
    the one place the games adopt an input check's refusal as their own."""
    try:
        return check(*args)
    except ValueError as exc:
        raise GameSetupError(str(exc)) from None


@dataclass(frozen=True)
class GameOutcome:
    game: str
    challenge_bit: int
    guess: int
    win: bool
    randomness_used: tuple[int, ...]
    query_count: int


@dataclass(frozen=True)
class AdvantageEstimate:
    """Aggregate of many trials; interval is a two-sided bound on win_rate.

    Sampled mode uses the Hoeffding bound at the fixed 99% confidence level
    (half_width is the unclipped epsilon); exact mode collapses the interval
    to a point and leaves wins unset.
    """

    trials: int
    wins: int | None
    win_rate: float
    advantage: float
    confidence: float
    interval: tuple[float, float]
    advantage_interval: tuple[float, float]
    half_width: float
    method: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.win_rate <= 1.0:
            raise ValueError("win_rate out of [0, 1]")
        lo, hi = self.interval
        if not lo <= self.win_rate <= hi:
            raise ValueError("interval must contain win_rate")


@dataclass(frozen=True, eq=False)
class FqindChallenge:
    """Adversary-held registers for fqind; also the response container."""

    state: StateVector
    message0_wires: tuple[int, ...]
    message1_wires: tuple[int, ...]
    response_wires: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GqindChallenge:
    state: StateVector
    message0_wires: tuple[int, ...]
    message1_wires: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GqindResponse:
    """Ciphertext register plus whatever private wires the adversary kept."""

    state: StateVector
    ciphertext_wires: tuple[int, ...]
    private_wires: tuple[int, ...]


class AdversaryStrategy:
    """Factory producing one adversary instance per trial. The challenger
    makes ``padded_queries`` learning queries for it before its ``learn``."""

    name: str = "adversary"
    games: tuple[str, ...] = ()
    padded_queries: int = 0

    def start(self, scheme: ClassicalScheme, rng: np.random.Generator) -> Any:
        raise NotImplementedError


def _fresh_randomness(scheme: ClassicalScheme, rng: np.random.Generator) -> int:
    return int(rng.integers(2**scheme.randomness_bits))


class _LearningOracle:
    """Fresh randomness per query; records every value drawn. A refused query
    leaves no trace: no count, no recorded r, an untouched Generator."""

    def __init__(self, scheme: ClassicalScheme, key, rng: np.random.Generator) -> None:
        self._scheme = scheme
        self._key = key
        self._rng = rng
        self.query_count = 0
        self.randomness_used: list[int] = []

    def draw_query(self) -> int:
        """One query's fresh r, counted and recorded. A padded query is this
        draw alone: no Enc, since nobody reads its answer."""
        r = _fresh_randomness(self._scheme, self._rng)
        self.query_count += 1
        self.randomness_used.append(r)
        return r

    def query_classical(self, x: int) -> int:
        """Basis-state query; returns the classical ciphertext."""
        x = _refused(_check_index, x, "plaintext", 2**self._scheme.message_bits)
        return int(self._scheme.enc(self._key, self.draw_query(), x))


class Type1LearningOracle(_LearningOracle):
    """Superposition access |x>|y> -> |x>|y ^ Enc_k(x; r)>, fresh r per query."""

    def query(
        self,
        state: StateVector,
        message_wires: tuple[int, ...],
        response_wires: tuple[int, ...],
    ) -> StateVector:
        m, ell = self._scheme.message_bits, self._scheme.ciphertext_bits
        if len(message_wires) != m or len(response_wires) != ell:
            raise GameSetupError(f"type-1 query needs {m} message and {ell} response wires")
        wires = (*message_wires, *response_wires)
        _refused(_check_wires, state.num_wires, wires)
        return _xor_encrypt(self._scheme, self._key, self.draw_query(), state, wires)


class Type2LearningOracle(_LearningOracle):
    """In-place access: the challenger appends its own |0> ancilla and encrypts."""

    def query(
        self, state: StateVector, message_wires: tuple[int, ...]
    ) -> tuple[StateVector, tuple[int, ...]]:
        """Returns the new state and the wires now holding the ciphertext."""
        m = self._scheme.message_bits
        if len(message_wires) != m:
            raise GameSetupError(f"type-2 query needs {m} message wires")
        wires = _refused(_fresh_register, self._scheme, state.num_wires, message_wires)
        return _encrypt_fresh(self._scheme, self._key, self.draw_query(), state, wires), wires


# -- per-game challenge steps ---------------------------------------------------
# A check validates the adversary's template, the response's wire count
# included. A challenge step builds the response from (scheme, key, template,
# b, r, rng), checking nothing again, may draw from rng only after b and r are
# fixed, and returns it to the adversary's ``receive_challenge``. A Hadamard
# test never gets it: its trials and its exact evaluator read the game's
# weigh step below.


def _check_ind(scheme: ClassicalScheme, template) -> None:
    x0, x1 = template
    for x in (x0, x1):
        _refused(_check_index, x, "challenge plaintext", 2**scheme.message_bits)


def _challenge_ind(scheme, key, template, b, r, rng) -> int:
    return int(scheme.enc(key, r, template[b]))


def _check_fqind(scheme: ClassicalScheme, ch: FqindChallenge) -> None:
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    registers = (ch.message0_wires, ch.message1_wires, ch.response_wires)
    if tuple(map(len, registers)) != (m, m, ell):
        raise GameSetupError(f"fqind registers need {m}, {m} and {ell} wires")
    _refused(_check_wires, ch.state.num_wires, tuple(w for reg in registers for w in reg))


def _challenge_fqind(scheme, key, ch: FqindChallenge, b, r, rng) -> FqindChallenge:
    """XOR-encrypt register b in place and hand every register back."""
    message = ch.message1_wires if b else ch.message0_wires
    state = _xor_encrypt(scheme, key, r, ch.state, (*message, *ch.response_wires))
    return FqindChallenge(state, ch.message0_wires, ch.message1_wires, ch.response_wires)


def _check_qind(scheme: ClassicalScheme, template) -> None:
    m = scheme.message_bits
    d0, d1 = template
    for d in (d0, d1):
        if not isinstance(d, StateDescription) or d.num_wires != m:
            raise GameSetupError(f"challenge descriptions must cover exactly {m} wires")
    _refused(_check_wire_count, scheme.ciphertext_bits)  # the response's wires


def _challenge_qind(scheme, key, template, b, r, rng) -> StateVector:
    """Rebuild description b privately; only the ciphertext register leaves."""
    plain = sample_description(template[b], rng)
    return _encrypt_fresh(scheme, key, r, plain, tuple(range(scheme.ciphertext_bits)))


def _check_gqind(scheme: ClassicalScheme, ch: GqindChallenge) -> None:
    m = scheme.message_bits
    if len(ch.message0_wires) != m or len(ch.message1_wires) != m:
        raise GameSetupError(f"gqind message registers need {m} wires each")
    _refused(_check_wires, ch.state.num_wires, (*ch.message0_wires, *ch.message1_wires))
    # the response's wires: one register measured out, the other widened to ell
    _refused(_check_wire_count, ch.state.num_wires - 2 * m + scheme.ciphertext_bits)


@functools.lru_cache(maxsize=64)
def _gqind_layout(n: int, ell: int, keep: tuple[int, ...], drop: tuple[int, ...]):
    """With register ``drop`` of an n-wire template deleted, the renumbered
    register [kept wires | ell - m ancilla] and the other surviving wires."""
    remain = [w for w in range(n) if w not in drop]  # wire remain[i] becomes wire i
    message = tuple(map(remain.index, keep))
    private = tuple(i for i, w in enumerate(remain) if w not in keep)
    return message + tuple(range(len(remain), len(remain) + ell - len(keep))), private


def _challenge_gqind(scheme, key, ch: GqindChallenge, b, r, rng) -> GqindResponse:
    """Measure out the unchosen register, encrypt the chosen one in place."""
    keep = ch.message1_wires if b else ch.message0_wires
    drop = ch.message0_wires if b else ch.message1_wires
    # trace out the unchosen register: measure, discard the outcome, delete
    _, state = measure_and_remove(ch.state, drop, rng)
    n, ell = ch.state.num_wires, scheme.ciphertext_bits
    wires, private = _gqind_layout(n, ell, tuple(keep), tuple(drop))
    return GqindResponse(_encrypt_fresh(scheme, key, r, state, wires), wires, private)


# game -> (learning oracle, template check, challenge step)
GAME_STEPS = {
    "ind": (Type1LearningOracle, _check_ind, _challenge_ind),
    "fqind": (Type1LearningOracle, _check_fqind, _challenge_fqind),
    "qind": (Type2LearningOracle, _check_qind, _challenge_qind),
    "gqind": (Type2LearningOracle, _check_gqind, _challenge_gqind),
}


# -- weigh steps: (scheme, key, template, b, r, rng, tested) -> (p0, total) -------


@functools.lru_cache(maxsize=16)
def _untested_index(n: int, width: int, tested: tuple[int, ...]) -> np.ndarray:
    """Each n-wire basis index as an index of its untested wires, the tested
    wires being positions of the register on the last ``width`` wires."""
    if not tested:
        raise ValueError("a Hadamard test needs at least one tested wire")
    _check_wires(width, tested)
    shape = [1 if w - (n - width) in tested else 2 for w in range(n)]
    index = np.broadcast_to(np.arange(2 ** shape.count(2)).reshape(shape), (2,) * n).ravel()
    return _freeze(index)


def _p0(amplitudes: np.ndarray, group: np.ndarray, tested) -> float:
    """p0 of the ``tested`` positions for the response holding amplitudes[i]
    at an index whose untested wires read group[i]. Weigh steps read only
    ``_template``'s layout; their total is the read state's squared norm."""
    re, im = np.bincount(group, amplitudes.real), np.bincount(group, amplitudes.imag)
    return (re @ re + im @ im) / 2 ** len(tested)


@functools.lru_cache(maxsize=16)
def _fqind_plan(state: StateVector, wires: tuple[int, ...], m: int, ell: int, tested):
    """What an fqind weigh step reads of its template, built once per
    template: the |0>-response amplitudes of plaintexts x, the untested index
    of (x << ell), which is x's own untested index shifted past the response,
    and register 0's and register 1's selectors from x. Any other layout is
    refused at every trial: no refusal is cached."""
    plain = np.ascontiguousarray(state.amplitudes.reshape(-1, 2**ell)[:, 0])
    weight = np.vdot(plain, plain).real
    if wires != tuple(range(state.num_wires)) or abs(weight - state._squared_norm) > 1e-12:
        raise GameSetupError("fqind weigh steps read registers in order and a |0> response")
    x = np.arange(2 ** (2 * m))
    hi = _untested_index(2 * m, m, tested) << ell
    return _freeze(plain), _freeze(hi), (_freeze(x >> m), _freeze(x % 2**m))


def _weigh_fqind(scheme, key, ch: FqindChallenge, b, r, rng, tested):
    wires = (*ch.message0_wires, *ch.message1_wires, *ch.response_wires)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    plain, hi, select = _fqind_plan(ch.state, wires, m, ell, tested)
    # the response's untested wires: x's untested bits, then Enc of register b
    group = hi | _enc_table(scheme, key, r)[select[b]]
    return _p0(plain, group, tested), ch.state._squared_norm


def _weigh_fresh(scheme, key, r, state: StateVector, tested):
    """(p0, total) of ``state`` encrypted into a fresh ell-wire register."""
    ell = scheme.ciphertext_bits
    group = _untested_index(ell, ell, tested)[_enc_table(scheme, key, r, injective=True)]
    return _p0(state.amplitudes, group, tested), state._squared_norm


def _weigh_qind(scheme, key, template, b, r, rng, tested):
    return _weigh_fresh(scheme, key, r, sample_description(template[b], rng), tested)


def _weigh_gqind(scheme, key, ch: GqindChallenge, b, r, rng, tested):
    if (*ch.message0_wires, *ch.message1_wires) != tuple(range(ch.state.num_wires)):
        raise GameSetupError("gqind weigh steps read two registers filling every wire in order")
    _, state = measure_and_remove(ch.state, ch.message0_wires if b else ch.message1_wires, rng)
    return _weigh_fresh(scheme, key, r, state, tested)


# game -> the weigh step a trial with ``tested`` positions takes; none for ind
WEIGH_STEPS = {"ind": None, "fqind": _weigh_fqind, "qind": _weigh_qind, "gqind": _weigh_gqind}


def _play(
    game: str,
    scheme: ClassicalScheme,
    strategy: AdversaryStrategy,
    rng: np.random.Generator,
    key,
    challenge_bit: int | None,
    challenge_randomness: int | None,
) -> GameOutcome:
    """The challenger shared by all four games.

    Draws from rng in a fixed order: key, adversary start, the padded
    queries' r values, ``learn``'s queries, challenge bit b, challenge
    randomness r, then the challenge step. A trial declaring ``tested``
    positions takes the game's weigh step instead, and the challenger draws
    its guess from one uniform.
    """
    if game not in strategy.games:
        raise GameSetupError(f"strategy {strategy.name!r} does not play {game}")
    oracle_type, check, challenge = GAME_STEPS[game]
    if challenge_bit is not None:
        challenge_bit = _refused(_check_index, challenge_bit, "challenge bit", 2)
    if challenge_randomness is not None:
        challenge_randomness = _refused(_check_randomness, scheme, challenge_randomness)
    key = scheme.gen(rng) if key is None else _refused(_check_index, key, "key", scheme.key_space)
    adv = strategy.start(scheme, rng)
    oracle = oracle_type(scheme, key, rng)
    for _ in range(strategy.padded_queries):
        oracle.draw_query()
    if hasattr(adv, "learn"):
        adv.learn(oracle)
    template = getattr(adv, f"{game}_template")()
    check(scheme, template)
    b = int(rng.integers(2)) if challenge_bit is None else challenge_bit
    r = _fresh_randomness(scheme, rng) if challenge_randomness is None else challenge_randomness
    weigh, tested = WEIGH_STEPS[game], getattr(adv, "tested", None)
    if tested is None or weigh is None:
        adv.receive_challenge(challenge(scheme, key, template, b, r, rng))
        g = _refused(_check_index, adv.final_guess(), "guess", 2)
    else:
        # measuring the tested wires draws 0 iff one uniform is below p0 / total
        p0, total = weigh(scheme, key, template, b, r, rng, tested)
        g = int(rng.random() >= p0 / total)
    return GameOutcome(
        game, b, g, g == b, tuple(oracle.randomness_used) + (r,), oracle.query_count
    )


def _runner(game: str, doc: str) -> Callable[..., GameOutcome]:
    def run(
        scheme: ClassicalScheme,
        strategy: AdversaryStrategy,
        rng: np.random.Generator,
        *,
        key=None,
        challenge_bit: int | None = None,
        challenge_randomness: int | None = None,
    ) -> GameOutcome:
        return _play(game, scheme, strategy, rng, key, challenge_bit, challenge_randomness)

    run.__name__ = run.__qualname__ = f"run_{game}_qcpa"
    run.__doc__ = doc
    return run


run_ind_qcpa = _runner("ind", "Quantum learning phase, classical challenge on a plaintext pair.")
run_fqind_qcpa = _runner(
    "fqind", "Relaying challenge: XOR-encrypt register b in place, hand everything back."
)
run_qind_qcpa = _runner(
    "qind", "Non-relaying challenge: adversary sees only the fresh ciphertext register."
)
run_gqind_qcpa = _runner(
    "gqind", "General challenge: designated registers, unchosen one measured out."
)


GAME_RUNNERS: dict[str, Callable[..., GameOutcome]] = {
    "ind": run_ind_qcpa,
    "fqind": run_fqind_qcpa,
    "qind": run_qind_qcpa,
    "gqind": run_gqind_qcpa,
}


# -- aggregation ---------------------------------------------------------------


def hoeffding_half_width(trials: int) -> float:
    """Two-sided Hoeffding epsilon: P(|rate - p| >= eps) <= 1 - CONFIDENCE."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * trials))


def _estimate(trials: int, wins: int | None, rate: float, eps: float) -> AdvantageEstimate:
    """Win rate ``rate`` with half width ``eps``, clipped to [0, 1]; ``wins``
    is None for an exact evaluation, whose interval is the point."""
    interval = (max(0.0, rate - eps), min(1.0, rate + eps))
    exact = wins is None
    return AdvantageEstimate(
        trials=trials,
        wins=wins,
        win_rate=rate,
        advantage=2.0 * rate - 1.0,
        confidence=1.0 if exact else CONFIDENCE,
        interval=interval,
        advantage_interval=(2.0 * interval[0] - 1.0, 2.0 * interval[1] - 1.0),
        half_width=eps,
        method="exact" if exact else "hoeffding",
    )


def estimate_advantage(
    runner: Callable[..., GameOutcome],
    scheme: ClassicalScheme,
    strategy: AdversaryStrategy,
    trials: int,
    seed: int,
) -> AdvantageEstimate:
    """Run independent trials with per-trial derived seeds and aggregate.

    Trial i plays the i-th child of SeedSequence(seed), spawned when the
    trial starts, so memory stays flat however many trials run.
    """
    eps = hoeffding_half_width(_check_index(trials, "trials"))
    seq = np.random.SeedSequence(seed)
    wins = sum(
        runner(scheme, strategy, np.random.default_rng(seq.spawn(1)[0])).win
        for _ in range(trials)
    )
    return _estimate(trials, int(wins), wins / trials, eps)


def distinct_keys(scheme: ClassicalScheme, count: int, rng: np.random.Generator) -> list:
    """The first ``count`` distinct keys scheme.gen draws from rng."""
    if _check_index(count, "key count") > scheme.key_space:
        raise ValueError(f"{count} distinct keys requested; {scheme.name} has {scheme.key_space}")
    keys: list = []
    while len(keys) < count:
        k = scheme.gen(rng)
        if k not in keys:
            keys.append(k)
    return keys


def exact_advantage(
    scheme: ClassicalScheme,
    strategy: AdversaryStrategy,
    *,
    key_count: int = 2,
    seed: int = 0,
) -> AdvantageEstimate:
    """Exact-mode estimate: a zero-width interval from branch enumeration,
    averaged over ``key_count`` keys drawn from ``seed`` and at most 8
    randomness values.

    Needs a strategy exposing exact_win_probability(scheme, key, r), which
    enumerates both challenge branches. Randomness is swept exhaustively up
    to 8 values, otherwise 8 are drawn with replacement and deduplicated.
    The value is exact for those keys and values only. It equals the
    key-averaged advantage when the win rate does not depend on the key (bz
    on injective schemes, qlp or hadamard-bit on quasi-length-preserving
    ones), and need not otherwise. ``trials`` counts the challenge branches
    evaluated: two per distinct (key, randomness) pair.
    """
    if not hasattr(strategy, "exact_win_probability"):
        raise GameSetupError(f"strategy {strategy.name!r} has no exact evaluator")
    if _check_index(key_count, "key_count") < 1:
        raise ValueError("key_count must be >= 1")
    rng = np.random.default_rng([0x5EED, seed])
    keys = distinct_keys(scheme, key_count, rng)
    space = 2**scheme.randomness_bits
    if space <= 8:
        r_values = list(range(space))
    else:
        r_values = sorted({int(rng.integers(space)) for _ in range(8)})
    probs = [strategy.exact_win_probability(scheme, key, r) for key in keys for r in r_values]
    return _estimate(2 * len(probs), None, float(np.mean(probs)), 0.0)


# -- fixed templates -----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _template(strategy, game: str, m: int, ell: int):
    """What ``strategy`` sends in ``game`` at m message and ell ciphertext
    bits: its qind pair ``strategy.descriptions(m)``, or the pair's product
    state on two m-wire registers, then in fqind an ell-wire |0> response.
    Immutable, so built once and shared by every trial; a width over the
    cap is refused before anything is tensored."""
    pair = strategy.descriptions(m)
    if game == "qind":
        return pair
    _refused(_check_wire_count, 2 * m + (ell if game == "fqind" else 0))
    amps = np.kron(*(run_gates(m, d.gates).amplitudes for d in pair))
    registers = tuple(range(m)), tuple(range(m, 2 * m))
    if game == "gqind":
        return GqindChallenge(StateVector(2 * m, amps), *registers)
    state = StateVector(2 * m + ell, np.kron(amps, zero_state(ell).amplitudes))
    return FqindChallenge(state, *registers, tuple(range(2 * m, 2 * m + ell)))


class _FixedTrial:
    """One trial of a strategy with a ``descriptions(m)`` pair: its fqind,
    qind and gqind templates come from ``_template``. ``tested`` holds the
    strategy's ``tested_wires(scheme)``, or None when it has none."""

    def __init__(self, strategy, scheme: ClassicalScheme, rng: np.random.Generator) -> None:
        self._strategy = strategy
        self._scheme = scheme
        self._rng = rng
        tested_wires = getattr(strategy, "tested_wires", None)
        self.tested = None if tested_wires is None else tuple(tested_wires(scheme))

    def _fixed(self, game: str):
        scheme = self._scheme
        return _template(self._strategy, game, scheme.message_bits, scheme.ciphertext_bits)

    def fqind_template(self) -> FqindChallenge:
        return self._fixed("fqind")

    def qind_template(self) -> tuple[StateDescription, StateDescription]:
        return self._fixed("qind")

    def gqind_template(self) -> GqindChallenge:
        return self._fixed("gqind")


# -- baseline and utility strategies -------------------------------------------


class _Guesser(AdversaryStrategy):
    """Sends |0...0> against |1...1> in every game, ignores the response and
    guesses ``bit`` when one is set, else a fair coin from the trial's rng."""

    games = GAME_NAMES
    bit: int | None = None

    def descriptions(self, m: int) -> tuple[StateDescription, StateDescription]:
        return StateDescription(m), StateDescription(m, tuple(X(w) for w in range(m)))

    def start(self, scheme, rng):
        return _GuessingTrial(self, scheme, rng)


class _GuessingTrial(_FixedTrial):
    """One trial of a _Guesser: ind sends the plaintexts 0 and 2^m - 1."""

    def ind_template(self) -> tuple[int, int]:
        return 0, 2**self._scheme.message_bits - 1

    def receive_challenge(self, response) -> None:
        pass

    def final_guess(self) -> int:
        bit = self._strategy.bit
        return int(self._rng.integers(2)) if bit is None else bit


class RandomGuesser(_Guesser):
    """Ignores everything and flips a fair coin; advantage 0 by construction."""

    name = "random"


class ConstantGuesser(_Guesser):
    """Queries nothing and always outputs the same bit; wins iff b matches."""

    name = "constant"

    def __init__(self, bit: int = 0) -> None:
        self.bit = _refused(_check_index, bit, "bit", 2)
        self.name = f"constant{self.bit}"


class _PaddedStrategy(AdversaryStrategy):
    def __init__(self, base: AdversaryStrategy, count: int) -> None:
        self._base = base
        self.padded_queries = count + base.padded_queries
        self.name = f"{base.name}+q{count}"
        self.games = base.games

    def start(self, scheme, rng):
        return self._base.start(scheme, rng)


def with_learning_queries(strategy: AdversaryStrategy, count: int) -> AdversaryStrategy:
    """Pad a strategy with ``count`` classical learning queries before its own.

    The draws are real: each query's r, drawn where an answered query draws
    it, counts in ``query_count`` and ``randomness_used``. No ciphertext is
    computed: nobody reads it, and the taken-output budget |T| = q * mu * 2^m
    counts queries, not answers.
    """
    count = _check_index(count, "learning query count")
    return strategy if count == 0 else _PaddedStrategy(strategy, count)
