"""Classical symmetric encryption schemes at desk scale.

Messages, randomness, ciphertexts and keys are plain integers with declared
bit widths (wire 0 = MSB, so an m-bit plaintext equals its basis index).
Each primitive is written once, as one numpy expression that serves an int
and an integer array alike; the oracle layer reads Enc as a whole table, in
one call on every plaintext.

Each public entry (a scheme's ``enc``, ``dec`` and ``type2_completion``, a
family's ``forward`` and ``inverse``, a keyed function's call) checks its
inputs once, with ``_indices``, and then runs an unchecked core. An int is
read through the package's integer rule; an array must have an integer
dtype, so a bool mask or a float array is refused, and every entry must lie
in [0, 2^bits); the frozen ``_plaintexts(bits)``, in range when it was
built, passes at that width unchecked. The key is read through
``_check_index`` against the one width its owner declares (``key_bits``, a
scheme's ``key_space``, which ``gen`` draws from), before any key table is
built. Ints in, int out. A composition calls the cores of what it composes;
only the block scheme calls its base's public entries, which re-check the
key and each block's slices.

Each scheme may declare a type-2 completion: a keyed basis permutation phi on
ell-bit strings, laid out as [x: m bits | y: ell-m bits], with
phi(x || 0) = Enc_k(x; r). Completions serve the oracle layer's decryption
(the adjoint) and interconversion circuits; the games only ever encrypt a
fresh |x, 0> register, so they read Enc alone. The completions shipped here
are choices, not forced by the schemes themselves:

* prf scheme:   (x, y) -> (y^r) || (F_k(y^r) ^ x)
* prp scheme:   (x, y) -> pi_k(x || (y^r))
* block scheme: per-block completion with independent randomness slices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .quantum_core import WIRE_CAP, _check_index, _freeze

_PRF_INPUT_CAP = 8
# Tables are pure functions of their arguments, so an evicted table is
# rebuilt identical; reuse is only needed within one trial's calls. The
# public entries check the key first: it is one of the uint32 seed words.
_TABLE_CACHE_SIZE = 64


def _indices(value, bits: int, what: str):
    """``value`` as an int, or an int64 array, of indices in [0, 2^bits).

    A non-array goes through ``_check_index``. An array must have an integer
    dtype (a bool array is refused, not read as a mask), and every entry,
    negatives included, must lie in range: the OR of all entries has a bit
    at or above ``bits``, the sign bit included, iff one of them does. The
    frozen ``_plaintexts(bits)`` is returned as it is."""
    if not isinstance(value, np.ndarray):
        return _check_index(value, what, 2**bits)
    if value.size == 1 << bits and value is _plaintexts(bits):
        return value
    if value.dtype.kind not in "iu":
        raise ValueError(f"{what} array of dtype {value.dtype} is not an integer")
    if np.bitwise_or.reduce(value, axis=None) >> bits:
        raise ValueError(f"{what} array out of range [0, {2**bits})")
    return value.astype(np.int64, copy=False)


@functools.lru_cache(maxsize=WIRE_CAP + 1)
def _plaintexts(bits: int) -> np.ndarray:
    """The frozen arange(2^bits) the oracle layer hands to Enc; ``_indices``
    passes it without a range check."""
    return _freeze(np.arange(2**bits, dtype=np.int64))


def _checked(core: Callable, keys: int, bits: tuple, names: tuple) -> Callable:
    """``core(key, *values)`` behind one check per input: the key an int in
    [0, keys), each value an ``_indices`` check with its width and name. An
    array result is returned as it is; any other result (a numpy scalar,
    when every input is an int) comes back an int."""

    def entry(key, *values):
        if len(values) != len(bits):
            raise TypeError(f"expected a key and {len(bits)} inputs, got {len(values)} inputs")
        key = _check_index(key, "key", keys)
        out = core(key, *map(_indices, values, bits, names))
        return out if isinstance(out, np.ndarray) else int(out)

    return entry


@dataclass(frozen=True)
class KeyedFunction:
    """Keyed function {0,1}^input_bits -> {0,1}^output_bits; ``evaluate`` is
    the unchecked core, which reads inputs already in range."""

    input_bits: int
    output_bits: int
    key_bits: int
    evaluate: Callable[[Any, Any], Any]

    def __call__(self, key, x):
        return _checked(self.evaluate, 2**self.key_bits, (self.input_bits,), ("prf input",))(key, x)


@dataclass(frozen=True)
class ClassicalScheme:
    """``enc(key, r, x)``, ``dec(key, y)`` and ``type2_completion(key, r, z)``
    are the checked public entries."""

    name: str
    message_bits: int
    randomness_bits: int
    ciphertext_bits: int
    key_space: int  # keys are the ints in [0, key_space); gen draws one uniformly
    gen: Callable[[np.random.Generator], int]
    enc: Callable[[Any, Any, Any], Any]
    dec: Callable[[Any, Any], Any]
    # width of the core f in a split Enc_k(x; r) = r || f(k, r, x); None if none
    core_bits: int | None = None
    type2_completion: Callable[[Any, Any, Any], Any] | None = None


def is_quasi_length_preserving(scheme: ClassicalScheme) -> bool:
    """True iff a core exists and its output is exactly message-length."""
    return scheme.core_bits == scheme.message_bits


# -- toy PRFs -----------------------------------------------------------------

@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _prf_table(key: int, input_bits: int, output_bits: int) -> np.ndarray:
    rng = np.random.default_rng(np.array([0x7F52, key, input_bits, output_bits], np.uint32))
    return _freeze(rng.integers(0, 2**output_bits, size=2**input_bits, dtype=np.int64))


def toy_prf(input_bits: int, output_bits: int) -> KeyedFunction:
    """Random-table PRF: each 16-bit key selects an independent uniform table."""
    if input_bits < 0 or output_bits < 1:
        raise ValueError("need input_bits >= 0 and output_bits >= 1")
    if input_bits > _PRF_INPUT_CAP:
        raise ValueError(f"toy_prf tables are capped at {_PRF_INPUT_CAP} input bits")

    def evaluate(key, x):
        return _prf_table(key, input_bits, output_bits)[x]

    return KeyedFunction(input_bits, output_bits, 16, evaluate)


def constant_prf(input_bits: int, output_bits: int) -> KeyedFunction:
    """F_k(x) = 0 for every key and input; the leaky degenerate case."""
    return KeyedFunction(input_bits, output_bits, 0, lambda key, x: x * 0)


# -- permutation families ------------------------------------------------------


@dataclass(frozen=True)
class PermutationFamily:
    """Keyed permutations of {0,1}^block_bits with explicit inverses.

    ``forward_core`` and ``inverse_core`` are unchecked and read keys and
    blocks already in range; ``forward`` and ``inverse`` check them first."""

    name: str
    block_bits: int
    key_bits: int
    forward_core: Callable[[Any, Any], Any]
    inverse_core: Callable[[Any, Any], Any]

    def forward(self, key, x):
        return _checked(self.forward_core, 2**self.key_bits, (self.block_bits,), ("block",))(key, x)

    def inverse(self, key, y):
        return _checked(self.inverse_core, 2**self.key_bits, (self.block_bits,), ("block",))(key, y)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _ideal_table(seed: int, block_bits: int) -> np.ndarray:
    words = np.array([0x1DEA, seed, block_bits], np.uint32)
    return _freeze(np.random.default_rng(words).permutation(2**block_bits))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _ideal_inverse(seed: int, block_bits: int) -> np.ndarray:
    """The inverse of ``_ideal_table``, built the first time decryption asks."""
    return _freeze(np.argsort(_ideal_table(seed, block_bits)))


def ideal_prp_family(block_bits: int) -> PermutationFamily:
    """Uniformly random permutation per key (key = 32-bit seed).

    Each key's permutation is an explicit table drawn from that key alone,
    for every width up to the simulator's WIRE_CAP.
    """
    if not 1 <= block_bits <= WIRE_CAP:
        raise ValueError(f"block_bits must be in 1..{WIRE_CAP}")

    def forward(key, x):
        return _ideal_table(key, block_bits)[x]

    def inverse(key, y):
        return _ideal_inverse(key, block_bits)[y]

    return PermutationFamily(f"ideal-{block_bits}", block_bits, 32, forward, inverse)


def _feistel_round_table(key: int, rnd: int, half_bits: int) -> np.ndarray:
    return _prf_table((key << 8) | rnd, half_bits, half_bits)


def feistel_prp_family(block_bits: int, rounds: int = 4) -> PermutationFamily:
    """Balanced Feistel network over half-blocks.

    Round i maps (L, R) -> (R, L ^ F(key, i, R)), where F is an independent
    random table per (key, round).
    """
    if block_bits < 2 or block_bits % 2 or block_bits > WIRE_CAP:
        raise ValueError(f"block_bits must be even and in 2..{WIRE_CAP}")
    if rounds < 4:
        raise ValueError("rounds must be >= 4")
    half = block_bits // 2
    mask = (1 << half) - 1

    def forward(key, x):
        left, right = x >> half, x & mask
        for i in range(rounds):
            left, right = right, left ^ _feistel_round_table(key, i, half)[right]
        return (left << half) | right

    def inverse(key, y):
        left, right = y >> half, y & mask
        for i in reversed(range(rounds)):
            left, right = right ^ _feistel_round_table(key, i, half)[left], left
        return (left << half) | right

    return PermutationFamily(f"feistel-{block_bits}x{rounds}", block_bits, 16, forward, inverse)


def identity_permutation_family(block_bits: int) -> PermutationFamily:
    """pi_k = identity for every key; transparent test fixture."""
    if block_bits < 1:
        raise ValueError("block_bits must be >= 1")
    return PermutationFamily(
        f"identity-{block_bits}", block_bits, 0, lambda k, x: x, lambda k, y: y
    )


# -- schemes -------------------------------------------------------------------


def _scheme(
    name: str, m: int, tau: int, ell: int, keys: int, *, enc, dec, core_bits, completion
) -> ClassicalScheme:
    """The scheme with ``keys`` keys, drawn uniformly by ``gen``, whose public
    entries check the key and their inputs once, then run these cores."""
    return ClassicalScheme(
        name=name,
        message_bits=m,
        randomness_bits=tau,
        ciphertext_bits=ell,
        key_space=keys,
        gen=lambda rng: int(rng.integers(keys)),
        enc=_checked(enc, keys, (tau, m), ("randomness", "plaintext")),
        dec=_checked(dec, keys, (ell,), ("ciphertext",)),
        core_bits=core_bits,
        type2_completion=None
        if completion is None
        else _checked(completion, keys, (tau, ell), ("randomness", "completion input")),
    )


def prf_scheme(m: int, tau: int, prf: KeyedFunction | None = None) -> ClassicalScheme:
    """Randomized scheme Enc_k(x; r) = r || (F_k(r) ^ x); quasi-length-preserving."""
    if m < 1 or tau < 1:
        raise ValueError("need m >= 1 and tau >= 1")
    if prf is None:
        prf = toy_prf(tau, m)
    if prf.input_bits != tau or prf.output_bits != m:
        raise ValueError(
            f"prf width mismatch: need {tau} -> {m}, got {prf.input_bits} -> {prf.output_bits}"
        )
    f, m_mask, t_mask = prf.evaluate, (1 << m) - 1, (1 << tau) - 1
    # a keyless PRF still gives two keys, alike, so two distinct ones exist
    keys = 2 ** max(prf.key_bits, 1)

    def completion(key, r, z):
        rp = (z & t_mask) ^ r
        return (rp << m) | (f(key, rp) ^ (z >> tau))

    return _scheme(
        f"prf[m={m},tau={tau}]", m, tau, tau + m, keys,
        enc=lambda key, r, x: (r << m) | (f(key, r) ^ x),
        dec=lambda key, y: (y & m_mask) ^ f(key, y >> m),
        core_bits=m,
        completion=completion,
    )


def prp_scheme(m: int, tau: int, family: PermutationFamily) -> ClassicalScheme:
    """Randomized scheme Enc_k(x; r) = pi_k(x || r), Dec = first m bits of inverse.

    The ciphertext has no (randomness, core) prefix split for tau > 0, so
    the scheme has no core; at tau = 0 the prefix is empty and the whole
    permutation is the (degenerate, quasi-length-preserving) core.
    """
    if m < 1 or tau < 0:
        raise ValueError("need m >= 1 and tau >= 0")
    if family.block_bits != m + tau:
        raise ValueError(
            f"family block width {family.block_bits} != m + tau = {m + tau}"
        )
    forward, inverse = family.forward_core, family.inverse_core
    return _scheme(
        f"prp[m={m},tau={tau},{family.name}]", m, tau, m + tau, 2**family.key_bits,
        enc=lambda key, r, x: forward(key, (x << tau) | r),
        dec=lambda key, y: inverse(key, y) >> tau,
        core_bits=m if tau == 0 else None,
        # x || (y ^ r) is z ^ r, since r < 2^tau touches y alone
        completion=lambda key, r, z: forward(key, z ^ r),
    )


def block_scheme(base: ClassicalScheme, mu: int) -> ClassicalScheme:
    """mu independent blocks under one key: y_i = Enc_k(x_i; r_i), concatenated.

    Message space {0,1}^(mu*m), randomness slices r_1 || ... || r_mu, block 1
    most significant throughout. Each block goes through the base's public
    entries.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    m_b, t_b, c_b = base.message_bits, base.randomness_bits, base.ciphertext_bits

    def blocks(value, width: int):
        return [(value >> ((mu - 1 - i) * width)) & ((1 << width) - 1) for i in range(mu)]

    def enc(key, r, x):
        out = 0
        for xi, ri in zip(blocks(x, m_b), blocks(r, t_b)):
            out = (out << c_b) | base.enc(key, ri, xi)
        return out

    def dec(key, y):
        out = 0
        for yi in blocks(y, c_b):
            out = (out << m_b) | base.dec(key, yi)
        return out

    def completion(key, r, z):
        out = 0
        x_all, y_all = blocks(z >> (mu * t_b), m_b), blocks(z, t_b)
        for xi, yi, ri in zip(x_all, y_all, blocks(r, t_b)):
            out = (out << c_b) | base.type2_completion(key, ri, (xi << t_b) | yi)
        return out

    return _scheme(
        f"block[mu={mu},{base.name}]", mu * m_b, mu * t_b, mu * c_b, base.key_space,
        enc=enc,
        dec=dec,
        core_bits=base.core_bits if mu == 1 else None,
        completion=None if base.type2_completion is None else completion,
    )
