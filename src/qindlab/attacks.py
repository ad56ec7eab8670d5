"""Concrete distinguishing adversaries for the indistinguishability games.

Every attack here is a Hadamard test: it prepares a challenge, applies
Hadamards to some wires of the response, measures them and guesses 0 iff
they all read zero. Only that outcome's weight p0 matters, and row 0 of H^k
is 2^(-k/2) (1, ..., 1), so p0 = ||sum_x psi(x, .)||^2 / 2^k, a sum along
the tested register x of the response; no H^k is built or applied. An
attack declares only its data:

* its challenge template: two pure qind state descriptions; its gqind
  template is their product state, its fqind template that state beside a
  |0> response register;
* the wires it tests, as positions inside the response register (message
  register 1 for fqind, the ciphertext register for qind and gqind);
* the scheme check it makes before a trial, which also fixes those positions.

HadamardTest plays and scores them all from p0: ``games._template`` builds
every template from the qind pair, and a trial is the games' ``_FixedTrial``,
which hands them out with the tested positions. A sampled trial and the exact
evaluator both read p0 from the game's weigh step, which weighs Enc's table
and builds no response state. In a sampled trial the challenger draws the
guess from p0; the exact evaluator reads p0 for both challenge bits.

Four attacks, each with a closed-form expected win rate where one is known:

* superposition-mask attack ("bz"): fqind. Register 1 holds the uniform
  superposition; if the challenger encrypts it, entanglement with the
  response register destroys the interference pattern a final Hadamard
  would otherwise restore. Wins with probability 1 - 2^-(m+1) against any
  scheme whose encryption is injective per (key, randomness).

* core-interference attack ("qlp"): qind and gqind. Sends the uniform
  superposition vs the all-minus state. Any quasi-length-preserving scheme
  moves plaintexts through a basis permutation on the trailing message-size
  wires of the ciphertext, which fixes the uniform state and keeps the
  minus state's amplitudes balanced, so a trailing Hadamard measurement
  separates the branches perfectly: win rate exactly 1.

* single-wire probe ("hadamard-bit"): qind and gqind. Plus vs minus on one
  plaintext wire, Hadamard test on the aligned ciphertext wire. Win rate 1
  for quasi-length-preserving schemes with one-bit messages (the only
  one-bit bijections are identity and negation, both phase-transparent);
  against wider or non-core schemes it is a cheap probe with no guarantee.

* entangled-blocks probe: gqind against block schemes. GHZ across all
  message wires vs the uniform superposition, Hadamard test on the trailing
  base-message wires of every ciphertext block.
"""

from __future__ import annotations

from fractions import Fraction

from .games import (
    GAME_STEPS,
    WEIGH_STEPS,
    AdversaryStrategy,
    GameSetupError,
    _FixedTrial,
    _template,
)
from .oracles import _check_randomness
from .quantum_core import CNOT, H, StateDescription, X, _check_index
from .schemes import ClassicalScheme, is_quasi_length_preserving


class HadamardTest(AdversaryStrategy):
    """An attack given by its template, its tested wires and its scheme check,
    scored by p0 = ||sum_x psi(x, .)||^2 / 2^k over its k tested wires x.

    Subclasses define ``tested_wires`` and ``descriptions``, a pure qind
    pair; every other template is built from that pair.
    """

    # The game whose weigh step scores the attack exactly. The gqind
    # registers form a product state, so measuring out the unchosen one
    # leaves the chosen one as the qind challenger rebuilds it: both games
    # give the same value.
    exact_game = "qind"

    def tested_wires(self, scheme: ClassicalScheme) -> tuple[int, ...]:
        """Positions of the tested wires in the response register.

        Raises GameSetupError for a scheme the attack refuses.
        """
        raise NotImplementedError

    def descriptions(self, m: int) -> tuple[StateDescription, StateDescription]:
        """The pure qind challenge pair on ``m`` message wires."""
        raise NotImplementedError

    @staticmethod
    def expected_win_rate(scheme: ClassicalScheme) -> Fraction | None:
        """The closed-form win rate against ``scheme``; None where none is known."""
        return None

    def template(self, scheme: ClassicalScheme, game: str):
        """The challenge template this attack sends in ``game``; trials share it."""
        return _template(self, game, scheme.message_bits, scheme.ciphertext_bits)

    def start(self, scheme, rng):
        return _FixedTrial(self, scheme, rng)

    def exact_win_probability(self, scheme: ClassicalScheme, key, r: int) -> float:
        """Win probability at fixed (key, r), both challenge bits enumerated.

        The template and r are checked as a trial checks them; the weigh step
        reads p0 from Enc's table, as a sampled trial's does, and gets no
        Generator: pure templates draw nothing.
        """
        tested = self.tested_wires(scheme)
        template = self.template(scheme, self.exact_game)
        _, check, _ = GAME_STEPS[self.exact_game]
        check(scheme, template)
        r = _check_randomness(scheme, r)
        weigh = WEIGH_STEPS[self.exact_game]
        # per challenge bit, the weight of every tested wire measuring zero
        p0, p1 = (float(weigh(scheme, key, template, b, r, None, tested)[0]) for b in (0, 1))
        return 0.5 * (p0 + 1.0 - p1)


# -- superposition-mask attack (fqind) ------------------------------------------


class SuperpositionMaskAttack(HadamardTest):
    """fqind adversary that detects which register was encrypted.

    Register 0 is |0..0>, register 1 the uniform superposition, response
    |0..0>. After the challenge, Hadamards on register 1: if register 0 was
    encrypted, register 1 is untouched and collapses to all-zero with
    certainty; if register 1 was encrypted, it is maximally mixed and the
    all-zero outcome appears with probability 2^-m. Guess 0 iff all-zero.
    """

    name = "bz"
    games = ("fqind",)
    exact_game = "fqind"

    def tested_wires(self, scheme):
        return tuple(range(scheme.message_bits))

    def descriptions(self, m):
        return StateDescription(m), StateDescription(m, tuple(H(w) for w in range(m)))

    @staticmethod
    def expected_win_rate(scheme: ClassicalScheme) -> Fraction:
        return bz_expected_win_rate(scheme.message_bits)


def bz_expected_win_rate(message_bits: int) -> Fraction:
    """1 - 2^-(m+1); holds whenever Enc(key, r, .) is injective."""
    return Fraction(2 ** (message_bits + 1) - 1, 2 ** (message_bits + 1))


def bz_adversary() -> SuperpositionMaskAttack:
    return SuperpositionMaskAttack()


# -- core-interference attack (qind / gqind) ------------------------------------


class CoreInterferenceAttack(HadamardTest):
    """qind/gqind adversary: uniform vs all-minus, Hadamard test on the core.

    The ciphertext's trailing core-width wires carry a basis permutation of
    the plaintext register. The uniform state is invariant under any basis
    permutation and the all-minus state keeps equally many +1 and -1
    amplitudes, so after Hadamards the all-zero outcome occurs with
    probability 1 in branch 0 and 0 in branch 1. Refuses schemes without a
    length-preserving core unless forced (then the trailing message-size
    wires are probed with no guarantee).
    """

    name = "qlp"
    games = ("qind", "gqind")

    def __init__(self, force: bool = False) -> None:
        self.force = force
        if force:
            self.name = "qlp-forced"

    def tested_wires(self, scheme):
        if not (self.force or is_quasi_length_preserving(scheme)):
            raise GameSetupError(
                f"scheme {scheme.name} is not quasi-length-preserving; "
                "pass force=True to probe it anyway"
            )
        ell = scheme.ciphertext_bits
        return tuple(range(ell - scheme.message_bits, ell))

    @staticmethod
    def expected_win_rate(scheme: ClassicalScheme) -> Fraction | None:
        return Fraction(1) if is_quasi_length_preserving(scheme) else None

    def descriptions(self, m):
        hs = tuple(H(w) for w in range(m))
        return StateDescription(m, hs), StateDescription(m, tuple(X(w) for w in range(m)) + hs)


def qlp_distinguisher(force: bool = False) -> CoreInterferenceAttack:
    return CoreInterferenceAttack(force=force)


# -- single-wire probe (qind / gqind) -------------------------------------------


class HadamardBitProbe(HadamardTest):
    """Plus vs minus on one plaintext wire, Hadamard test on the aligned
    ciphertext wire (trailing-core layout). Certain win for one-bit
    quasi-length-preserving schemes; otherwise a guarantee-free probe."""

    name = "hadamard-bit"
    games = ("qind", "gqind")

    def __init__(self, probe_wire: int = 0) -> None:
        self.probe_wire = _check_index(probe_wire, "probe_wire")

    def tested_wires(self, scheme):
        m, ell = scheme.message_bits, scheme.ciphertext_bits
        if self.probe_wire >= m:
            raise GameSetupError(f"probe wire {self.probe_wire} outside {m} message wires")
        return (ell - m + self.probe_wire,)

    @staticmethod
    def expected_win_rate(scheme: ClassicalScheme) -> Fraction | None:
        if is_quasi_length_preserving(scheme) and scheme.message_bits == 1:
            return Fraction(1)
        return None

    def descriptions(self, m):
        w = self.probe_wire
        return StateDescription(m, (H(w),)), StateDescription(m, (X(w), H(w)))


def hadamard_bit_distinguisher(probe_wire: int = 0) -> HadamardBitProbe:
    return HadamardBitProbe(probe_wire=probe_wire)


# -- entangled-blocks probe (gqind) ---------------------------------------------


class EntangledBlockProbe(HadamardTest):
    """gqind probe for block schemes: an entangled challenge across blocks.

    Register 0 is the across-all-wires GHZ state (the blocks cannot be
    written as a product), register 1 the uniform superposition. On receipt
    a Hadamard test runs on the trailing base-message wires of every
    ciphertext block; the guess is 0 iff every outcome is zero.
    """

    name = "entangled-blocks"
    games = ("gqind",)

    def __init__(self, mu: int) -> None:
        self.mu = _check_index(mu, "mu")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        self.name = f"entangled-blocks-mu{self.mu}"

    def tested_wires(self, scheme):
        mu = self.mu
        if scheme.message_bits % mu or scheme.ciphertext_bits % mu:
            raise GameSetupError(f"scheme widths are not divisible into {mu} blocks")
        m_b, c_b = scheme.message_bits // mu, scheme.ciphertext_bits // mu
        return tuple(i * c_b + j for i in range(mu) for j in range(c_b - m_b, c_b))

    def descriptions(self, m):
        ghz = (H(0),) + tuple(CNOT(0, w) for w in range(1, m))
        return StateDescription(m, ghz), StateDescription(m, tuple(H(w) for w in range(m)))


# -- registry --------------------------------------------------------------------


ATTACKS: dict[str, type[HadamardTest]] = {
    cls.name: cls for cls in (SuperpositionMaskAttack, CoreInterferenceAttack, HadamardBitProbe)
}
