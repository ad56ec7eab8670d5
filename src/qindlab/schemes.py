"""Classical symmetric encryption schemes at desk scale.

Messages, randomness, ciphertexts and keys are plain integers with declared
bit widths (wire 0 = MSB, so an m-bit plaintext equals its basis index). All
primitives operate elementwise on numpy integer arrays as well as scalars,
which is what lets the oracle layer build permutation tables in one shot.

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

from .quantum_core import WIRE_CAP, _check_index

_PRF_INPUT_CAP = 8
# Tables are pure functions of their arguments, so an evicted table is
# rebuilt identical; reuse is only needed within one trial's calls. Callers
# check the key (``_check_index``) first: it is one of the uint32 seed words.
_TABLE_CACHE_SIZE = 64


def _is_scalar(x) -> bool:
    return isinstance(x, (int, np.integer))


def _like(x, out):
    return int(out) if _is_scalar(x) else out


def _check_range(value, bits: int, what: str) -> None:
    if _is_scalar(value) and not 0 <= int(value) < 2**bits:
        raise ValueError(f"{what} {value} out of range for {bits} bits")


@dataclass(frozen=True)
class KeyedFunction:
    """Keyed function {0,1}^input_bits -> {0,1}^output_bits."""

    input_bits: int
    output_bits: int
    key_bits: int
    evaluate: Callable[[Any, Any], Any]

    def __call__(self, key, x):
        return self.evaluate(key, x)


@dataclass(frozen=True)
class ClassicalScheme:
    name: str
    message_bits: int
    randomness_bits: int
    ciphertext_bits: int
    key_space: int  # how many keys gen can return
    gen: Callable[[np.random.Generator], Any]
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
    table = rng.integers(0, 2**output_bits, size=2**input_bits, dtype=np.int64)
    table.setflags(write=False)
    return table


def toy_prf(input_bits: int, output_bits: int) -> KeyedFunction:
    """Random-table PRF: each 16-bit key selects an independent uniform table."""
    if input_bits < 0 or output_bits < 1:
        raise ValueError("need input_bits >= 0 and output_bits >= 1")
    if input_bits > _PRF_INPUT_CAP:
        raise ValueError(f"toy_prf tables are capped at {_PRF_INPUT_CAP} input bits")

    def evaluate(key, x):
        table = _prf_table(_check_index(key, "key", 2**16), input_bits, output_bits)
        return _like(x, table[np.asarray(x)] if not _is_scalar(x) else table[int(x)])

    return KeyedFunction(input_bits, output_bits, 16, evaluate)


def constant_prf(input_bits: int, output_bits: int) -> KeyedFunction:
    """F_k(x) = 0 for every key and input; the leaky degenerate case."""

    def evaluate(key, x):
        return _like(x, np.asarray(x) * 0)

    return KeyedFunction(input_bits, output_bits, 0, evaluate)


# -- permutation families ------------------------------------------------------


@dataclass(frozen=True)
class PermutationFamily:
    """Keyed permutations of {0,1}^block_bits with explicit inverses."""

    name: str
    block_bits: int
    key_bits: int
    init: Callable[[np.random.Generator], Any]
    forward: Callable[[Any, Any], Any]
    inverse: Callable[[Any, Any], Any]


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _ideal_table(seed: int, block_bits: int) -> np.ndarray:
    words = np.array([0x1DEA, seed, block_bits], np.uint32)
    table = np.random.default_rng(words).permutation(2**block_bits)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _ideal_inverse(seed: int, block_bits: int) -> np.ndarray:
    """The inverse of ``_ideal_table``, built the first time decryption asks."""
    table = np.argsort(_ideal_table(seed, block_bits))
    table.setflags(write=False)
    return table


def ideal_prp_family(block_bits: int) -> PermutationFamily:
    """Uniformly random permutation per key (key = 32-bit seed).

    Each key's permutation is an explicit table drawn from that key alone,
    for every width up to the simulator's WIRE_CAP.
    """
    if not 1 <= block_bits <= WIRE_CAP:
        raise ValueError(f"block_bits must be in 1..{WIRE_CAP}")

    def init(rng: np.random.Generator):
        return int(rng.integers(2**32))

    def forward(key, x):
        return _like(x, _ideal_table(_check_index(key, "key", 2**32), block_bits)[x])

    def inverse(key, y):
        return _like(y, _ideal_inverse(_check_index(key, "key", 2**32), block_bits)[y])

    return PermutationFamily(
        name=f"ideal-{block_bits}",
        block_bits=block_bits,
        key_bits=32,
        init=init,
        forward=forward,
        inverse=inverse,
    )


def _feistel_round_table(key: int, rnd: int, half_bits: int) -> np.ndarray:
    return _prf_table((key << 8) | rnd, half_bits, half_bits)


def feistel_prp_family(block_bits: int, rounds: int = 4) -> PermutationFamily:
    """Balanced Feistel network over half-blocks.

    Round i maps (L, R) -> (R, L ^ F(key, i, R)), where F is an independent
    random table per (key, round).
    """
    if block_bits < 2 or block_bits % 2:
        raise ValueError("block_bits must be even and >= 2")
    if rounds < 4:
        raise ValueError("rounds must be >= 4")
    half = block_bits // 2
    mask = (1 << half) - 1

    def round_function(key, rnd, r):
        table = _feistel_round_table(key, rnd, half)
        return _like(r, table[np.asarray(r)] if not _is_scalar(r) else table[int(r)])

    def init(rng: np.random.Generator):
        return int(rng.integers(2**16))

    def forward(key, x):
        key = _check_index(key, "key", 2**16)
        left, right = np.asarray(x) >> half, np.asarray(x) & mask
        for i in range(rounds):
            left, right = right, left ^ round_function(key, i, right)
        return _like(x, (left << half) | right)

    def inverse(key, y):
        key = _check_index(key, "key", 2**16)
        left, right = np.asarray(y) >> half, np.asarray(y) & mask
        for i in reversed(range(rounds)):
            left, right = right ^ round_function(key, i, left), left
        return _like(y, (left << half) | right)

    return PermutationFamily(
        name=f"feistel-{block_bits}x{rounds}",
        block_bits=block_bits,
        key_bits=16,
        init=init,
        forward=forward,
        inverse=inverse,
    )


def identity_permutation_family(block_bits: int) -> PermutationFamily:
    """pi_k = identity for every key; transparent test fixture."""
    if block_bits < 1:
        raise ValueError("block_bits must be >= 1")
    return PermutationFamily(
        name=f"identity-{block_bits}",
        block_bits=block_bits,
        key_bits=0,
        init=lambda rng: 0,
        forward=lambda key, x: x,
        inverse=lambda key, y: y,
    )


# -- schemes -------------------------------------------------------------------


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
    m_mask = (1 << m) - 1
    t_mask = (1 << tau) - 1
    keys = 2 ** max(prf.key_bits, 1)

    def enc(key, r, x):
        _check_range(r, tau, "randomness")
        _check_range(x, m, "plaintext")
        return _like(x, (np.asarray(r) << m) | (prf(key, r) ^ np.asarray(x)))

    def dec(key, y):
        _check_range(y, tau + m, "ciphertext")
        return _like(y, (np.asarray(y) & m_mask) ^ prf(key, np.asarray(y) >> m))

    def completion(key, r, z):
        arr = np.asarray(z)
        rp = (arr & t_mask) ^ r
        return _like(z, (rp << m) | (prf(key, rp) ^ (arr >> tau)))

    return ClassicalScheme(
        name=f"prf[m={m},tau={tau}]",
        message_bits=m,
        randomness_bits=tau,
        ciphertext_bits=tau + m,
        key_space=keys,
        gen=lambda rng: int(rng.integers(keys)),
        enc=enc,
        dec=dec,
        core_bits=m,
        type2_completion=completion,
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
    t_mask = (1 << tau) - 1

    def enc(key, r, x):
        _check_range(r, tau, "randomness")
        _check_range(x, m, "plaintext")
        return family.forward(key, _like(x, (np.asarray(x) << tau) | r))

    def dec(key, y):
        _check_range(y, m + tau, "ciphertext")
        return _like(y, np.asarray(family.inverse(key, y)) >> tau)

    def completion(key, r, z):
        arr = np.asarray(z)
        x, y = arr >> tau, arr & t_mask
        return _like(z, np.asarray(family.forward(key, (x << tau) | (y ^ r))))

    return ClassicalScheme(
        name=f"prp[m={m},tau={tau},{family.name}]",
        message_bits=m,
        randomness_bits=tau,
        ciphertext_bits=m + tau,
        key_space=2**family.key_bits,
        gen=family.init,
        enc=enc,
        dec=dec,
        core_bits=m if tau == 0 else None,
        type2_completion=completion,
    )


def block_scheme(base: ClassicalScheme, mu: int) -> ClassicalScheme:
    """mu independent blocks under one key: y_i = Enc_k(x_i; r_i), concatenated.

    Message space {0,1}^(mu*m), randomness slices r_1 || ... || r_mu, block 1
    most significant throughout.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    m_b, t_b, c_b = base.message_bits, base.randomness_bits, base.ciphertext_bits
    m_mask, t_mask, c_mask = (1 << m_b) - 1, (1 << t_b) - 1, (1 << c_b) - 1

    def blocks(value, width: int, mask: int):
        value = np.asarray(value)
        return [(value >> ((mu - 1 - i) * width)) & mask for i in range(mu)]

    def enc(key, r, x):
        _check_range(r, mu * t_b, "randomness")
        _check_range(x, mu * m_b, "plaintext")
        out = np.asarray(x) * 0
        for xi, ri in zip(blocks(x, m_b, m_mask), blocks(r, t_b, t_mask)):
            out = (out << c_b) | np.asarray(base.enc(key, ri, xi))
        return _like(x, out)

    def dec(key, y):
        _check_range(y, mu * c_b, "ciphertext")
        out = np.asarray(y) * 0
        for yi in blocks(y, c_b, c_mask):
            out = (out << m_b) | np.asarray(base.dec(key, yi))
        return _like(y, out)

    completion = None
    if base.type2_completion is not None:

        def completion(key, r, z):
            arr = np.asarray(z)
            x_all, y_all = arr >> (mu * t_b), arr & ((1 << (mu * t_b)) - 1)
            out = arr * 0
            for xi, yi, ri in zip(
                blocks(x_all, m_b, m_mask),
                blocks(y_all, t_b, t_mask),
                blocks(r, t_b, t_mask),
            ):
                ci = base.type2_completion(key, ri, (xi << t_b) | yi)
                out = (out << c_b) | np.asarray(ci)
            return _like(z, out)

    return ClassicalScheme(
        name=f"block[mu={mu},{base.name}]",
        message_bits=mu * m_b,
        randomness_bits=mu * t_b,
        ciphertext_bits=mu * c_b,
        key_space=base.key_space,
        gen=base.gen,
        enc=enc,
        dec=dec,
        core_bits=base.core_bits if mu == 1 else None,
        type2_completion=completion,
    )
