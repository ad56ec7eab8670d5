"""Ideal-cipher averaging channels and numerical bound certification.

The encryption side of a fresh-randomness, fresh-key cipher is modeled as a
channel from m plaintext wires to m+tau ciphertext wires: attach |0^tau>,
then send each embedded plaintext to a uniformly random still-free
ciphertext, injectively across plaintexts. "Taken" ciphertexts, outputs the
adversary has already extracted, are excluded from the free set. The
idealization this is compared against discards the input outright and emits
the uniform mixture over free ciphertexts, so it leaks nothing.

Both channels are represented explicitly: a uniform mixture of plaintext
injections, held as a table with one row per injection and one column per
plaintext (every injection when their count is small, i.i.d. samples
otherwise; how a full permutation would act off the embedded plaintexts
never reaches the input, so it is not stored), or a constant diagonal
output. Bipartite application keeps a reference register untouched and
contracts the system side through a cached pair-action table, so
certification over hundreds of inputs and thousands of sampled injections
stays cheap.

certify_lemma_bound and certify_corollary_bound drive the comparison over a
maximally entangled probe plus Haar-random purifications. The certified
headline is the per-input trace distance of the outputs, a lower-bound
witness of the channel distinguishability: a violation falsifies the bound,
staying under it is consistency. The full difference trace norm is reported
alongside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum_core import (
    DensityMatrix,
    maximally_entangled,
    random_pure_bipartite,
    trace_norm,
)

EXHAUSTIVE_CAP = 200_000
_BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Uniform mixture of plaintext injections, or a constant diagonal channel.

    Inputs live on input_wires; the ancilla extension to output_wires happens
    inside the channel. injections: (K, 2^input_wires) int64, row k the
    ciphertext that mixture member k sends each plaintext y to, all members
    weighted equally. constant_output: (2^output_wires,) probability vector
    emitted regardless of input. Exactly one of the two is set.
    """

    input_wires: int
    output_wires: int
    kind: str
    injections: np.ndarray | None = None
    constant_output: np.ndarray | None = None
    exhaustive: bool = False
    _pair_cache: dict = field(default_factory=dict, repr=False)

    @property
    def in_dim(self) -> int:
        return 2**self.input_wires

    @property
    def out_dim(self) -> int:
        return 2**self.output_wires

    @property
    def weights(self) -> np.ndarray:
        if self.kind == "constant":
            return np.ones(1)
        k = len(self.injections)
        return np.full(k, 1.0 / k)

    def pair_action(self, s: int, t: int) -> np.ndarray:
        """The (out_dim, out_dim) image of the input-basis pair |s><t|."""
        if not (0 <= s < self.in_dim and 0 <= t < self.in_dim):
            raise ValueError("pair indices out of the input basis")
        key = (s, t)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        n = self.out_dim
        if self.kind == "constant":
            out = np.zeros((n, n), dtype=np.complex128)
            if s == t:
                np.fill_diagonal(out, self.constant_output)
        else:
            inj = self.injections
            counts = np.bincount(inj[:, s] * n + inj[:, t], minlength=n * n)
            out = (counts / len(inj)).reshape(n, n).astype(np.complex128)
        self._pair_cache[key] = out
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return apply_channel_bipartite(self, rho, ref_wires=0)


def apply_channel_bipartite(
    channel: QuantumChannel, rho: DensityMatrix, ref_wires: int
) -> DensityMatrix:
    """Apply (identity on the leading ref wires) tensor (channel on the rest)."""
    if rho.num_wires != ref_wires + channel.input_wires:
        raise ValueError(
            f"state has {rho.num_wires} wires, expected "
            f"{ref_wires} + {channel.input_wires}"
        )
    r = 2**ref_wires
    n_in = channel.in_dim
    n_out = channel.out_dim
    rho4 = rho.matrix.reshape(r, n_in, r, n_in)
    out = np.zeros((r, n_out, r, n_out), dtype=np.complex128)
    support = np.abs(rho4).sum(axis=(0, 2))
    for s, t in zip(*np.nonzero(support)):
        block = rho4[:, s, :, t]
        out += np.einsum("ab,uv->aubv", block, channel.pair_action(int(s), int(t)))
    return DensityMatrix(
        ref_wires + channel.output_wires, out.reshape(r * n_out, r * n_out)
    )


def _free_set(message_bits: int, tau: int, taken) -> np.ndarray:
    if message_bits < 1 or tau < 0:
        raise ValueError("need message_bits >= 1 and tau >= 0")
    n = 2 ** (message_bits + tau)
    taken_set = {int(t) for t in taken}
    if any(t < 0 or t >= n for t in taken_set):
        raise ValueError("taken ciphertexts out of range")
    free = np.array(sorted(set(range(n)) - taken_set), dtype=np.int64)
    if len(free) == 0:
        raise ValueError("every ciphertext is taken")
    return free


def avg_permutation_channel(
    message_bits: int,
    tau: int,
    taken=(),
    *,
    n_perm: int | None = None,
    rng: np.random.Generator | None = None,
) -> QuantumChannel:
    """Average over uniformly random injective plaintext-to-free-ciphertext maps.

    Equivalent to averaging over all basis permutations that keep taken
    outputs untouched, since only the action on embedded plaintexts ever
    meets an input. n_perm=None enumerates every injection (errors above
    EXHAUSTIVE_CAP); otherwise n_perm i.i.d. injections are drawn from rng.
    """
    free = _free_set(message_bits, tau, tuple(taken))
    d = 2**message_bits
    if len(free) < d:
        raise ValueError("fewer free ciphertexts than plaintexts")
    if n_perm is None:
        count = math.perm(len(free), d)
        if count > EXHAUSTIVE_CAP:
            raise ValueError(
                f"{count} injections exceed the exhaustive cap; pass n_perm to sample"
            )
        table = np.array(list(itertools.permutations(free.tolist(), d)), dtype=np.int64)
    else:
        if n_perm < 1:
            raise ValueError("n_perm must be >= 1")
        if rng is None:
            raise ValueError("sampling needs an explicit rng")
        table = np.stack([rng.permutation(free)[:d] for _ in range(n_perm)])
    return QuantumChannel(
        input_wires=message_bits,
        output_wires=message_bits + tau,
        kind="permutation-mixture",
        injections=table,
        exhaustive=n_perm is None,
    )


def constant_mixed_channel(message_bits: int, tau: int, taken=()) -> QuantumChannel:
    """Discards the input and emits the uniform mixture over free ciphertexts.

    Unlike the permutation average this needs no room for injections, so the
    taken set may shrink the free set all the way down to a single output.
    """
    free = _free_set(message_bits, tau, tuple(taken))
    n = 2 ** (message_bits + tau)
    p = np.zeros(n, dtype=np.float64)
    p[free] = 1.0 / len(free)
    return QuantumChannel(
        input_wires=message_bits,
        output_wires=message_bits + tau,
        kind="constant",
        constant_output=p,
    )


def lemma_bound(tau: int) -> float:
    """2^(2 - tau): the taken-free bound on the channel output difference."""
    return float(2.0 ** (2 - tau))


def corollary_bound(message_bits: int, tau: int, taken_count: int) -> float:
    """4 / (2^tau - |T| / 2^m); an error when the denominator closes."""
    if taken_count < 0:
        raise ValueError("taken_count must be >= 0")
    den = 2.0**tau - taken_count / 2.0**message_bits
    if den <= 0:
        raise ValueError("taken set saturates the ciphertext space; bound undefined")
    return 4.0 / den


@dataclass(frozen=True)
class BoundReport:
    """Worst observed channel-output difference against a stated bound.

    max_trace_distance is the headline lower-bound witness compared against
    the bound; max_difference_trace_norm (twice the distance) is carried for
    the full-norm reading of the same inequality. vacuous marks bounds >= 1
    that no trace distance could ever violate. chi_c fields are filled only
    on exhaustive runs with one reference wire, where the coherence block of
    the maximally entangled probe has a closed form.
    """

    message_bits: int
    tau: int
    taken_count: int
    bound: float
    max_trace_distance: float
    max_difference_trace_norm: float
    margin: float
    worst_input: str
    samples: int
    n_perm: int | None
    satisfied: bool
    vacuous: bool
    chi_c_eigenvalues: tuple[float, ...] | None = None
    chi_c_trace_norm: float | None = None


def _coherence_block(delta: np.ndarray, message_bits: int, n_out: int) -> np.ndarray:
    """2^m times the (ref=0, ref=1) block of a one-reference-wire difference."""
    r = 2**message_bits
    block = delta.reshape(r, n_out, r, n_out)[0, :, 1, :]
    return (2**message_bits) * block


def _certify(
    message_bits: int,
    tau: int,
    taken: tuple,
    bound: float,
    samples: int,
    n_perm: int | None,
    rng: np.random.Generator | None,
    seed: int | None,
) -> BoundReport:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        # exhaustive single-probe runs draw nothing; anything sampled is seeded
        if seed is None and (n_perm is not None or samples > 1):
            raise ValueError("sampled certification needs rng or seed")
        rng = np.random.default_rng(seed)
    enc = avg_permutation_channel(message_bits, tau, taken, n_perm=n_perm, rng=rng)
    ideal = constant_mixed_channel(message_bits, tau, taken)

    worst_norm = -1.0
    worst_name = ""
    chi_eigs: tuple[float, ...] | None = None
    chi_norm: float | None = None
    for i in range(samples):
        if i == 0:
            probe = maximally_entangled(message_bits)
            name = "maximally-entangled"
        else:
            probe = random_pure_bipartite(message_bits, message_bits, rng)
            name = f"haar-{i}"
        rho = probe.to_density()
        delta = (
            apply_channel_bipartite(enc, rho, message_bits).matrix
            - apply_channel_bipartite(ideal, rho, message_bits).matrix
        )
        norm = trace_norm(delta)
        if norm > worst_norm:
            worst_norm = norm
            worst_name = name
        if i == 0 and enc.exhaustive and message_bits == 1:
            chi = _coherence_block(delta, message_bits, enc.out_dim)
            if np.max(np.abs(chi - chi.conj().T)) > 1e-9:
                raise AssertionError("coherence block is not Hermitian")
            eigs = np.linalg.eigvalsh(chi)
            chi_eigs = tuple(float(e) for e in eigs)
            chi_norm = float(np.sum(np.abs(eigs)))
    distance = 0.5 * worst_norm
    return BoundReport(
        message_bits=message_bits,
        tau=tau,
        taken_count=len(taken),
        bound=bound,
        max_trace_distance=distance,
        max_difference_trace_norm=worst_norm,
        margin=bound - distance,
        worst_input=worst_name,
        samples=samples,
        n_perm=n_perm,
        satisfied=bool(distance <= bound + _BOUND_TOL),
        vacuous=bool(bound >= 1.0),
        chi_c_eigenvalues=chi_eigs,
        chi_c_trace_norm=chi_norm,
    )


def certify_lemma_bound(
    message_bits: int,
    tau: int,
    *,
    samples: int = 50,
    n_perm: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Check the taken-free bound 2^(2 - tau) on maximally entangled plus
    Haar-random probes; exhaustive injection enumeration when n_perm is None."""
    return _certify(message_bits, tau, (), lemma_bound(tau), samples, n_perm, rng, seed)


def certify_corollary_bound(
    message_bits: int,
    tau: int,
    taken=(),
    *,
    samples: int = 50,
    n_perm: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Same certification with taken ciphertexts excluded and the bound
    4 / (2^tau - |T| / 2^m); with no taken set this reproduces the
    taken-free certification exactly."""
    taken = tuple(taken)
    bound = corollary_bound(message_bits, tau, len(taken))
    return _certify(message_bits, tau, taken, bound, samples, n_perm, rng, seed)
