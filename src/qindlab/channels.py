"""Ideal-cipher averaging channels and numerical bound certification.

The encryption side of a fresh-randomness, fresh-key cipher is modeled as a
channel from m plaintext wires to m+tau ciphertext wires: attach |0^tau>,
then send each embedded plaintext to a uniformly random still-free
ciphertext, injectively across plaintexts. "Taken" ciphertexts, outputs the
adversary has already extracted, are excluded from the free set F. The
idealization discards the input and emits the uniform mixture over F.

Averaged over every injection into F, |s><t| goes to I_F/|F| when s = t and
to (J_F - I_F)/(|F|(|F| - 1)) otherwise, J_F the all-ones block on F; the
ideal channel keeps the diagonal part only. Both are held as F alone, in
closed form at any size; a sampled mixture holds a table of injections.
Bipartite application keeps a reference register untouched and contracts
the system side in one product against the channel's pair table, built once
per channel: row s * 2^m + t is the image of |s><t|.

certify_lemma_bound and certify_corollary_bound compare the two over a
maximally entangled probe plus Haar-random purifications. On a probe the
exact difference is X tensor (J_F - I_F)/(|F|(|F| - 1)), X the sum of its
off-diagonal plaintext blocks, so its trace distance is ||X||_1 / |F|: the
verdict. For a pure probe X = v v^dag - M M^dag, M its amplitudes as a
2^m x 2^m matrix and v = M 1, so exact runs score every probe from X alone
and report that closed form as the witness too; they build no channel and
no dense output, and run wherever the 2m-wire probe and the (m + tau)-wire
free set fit under the wire cap; at m = 1 the coherence block chi_C is
2 X[0, 1] times the exact channel's image of |0><1|, capped at the
dense-matrix limit. Only sampled runs apply channels, to dense
2^(2m + tau)-square outputs; their witness is the mixture's per-input trace
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quantum_core import (
    _DENSE_CAP,
    WIRE_CAP,
    DensityMatrix,
    _check_dense,
    _check_index,
    _check_wire_count,
    maximally_entangled,
    random_pure_bipartite,
    trace_norm,
)

_BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """The exact injection average or the ideal channel on a free set, or a
    sampled mixture of plaintext injections.

    Inputs live on input_wires; the ancilla extension to output_wires happens
    inside the channel. free: the sorted int64 free ciphertexts. injections:
    sampled mixtures only, (K, 2^input_wires) int64, row k the ciphertext
    that member k sends each plaintext to, members weighted equally.

    The channel acts through pair_table, built once on first use: row
    s * in_dim + t is the flattened image of |s><t|, so applying the channel
    is one product of the input's (s, t) blocks against it.
    """

    input_wires: int
    output_wires: int
    kind: str
    free: np.ndarray
    injections: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return 2**self.input_wires

    @property
    def out_dim(self) -> int:
        return 2**self.output_wires

    @cached_property
    def _closed_form_images(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact and ideal channels: the images of |s><s| and of |s><t|, s != t."""
        _check_dense(self.output_wires)
        n, f = self.out_dim, len(self.free)
        diagonal = np.zeros((n, n), dtype=np.complex128)
        diagonal[self.free, self.free] = 1.0 / f
        off = np.zeros((n, n), dtype=np.complex128)
        if self.kind != "constant":
            off[np.ix_(self.free, self.free)] = 1.0 / (f * (f - 1))
            off[self.free, self.free] = 0.0
        diagonal.flags.writeable = off.flags.writeable = False
        return diagonal, off

    @cached_property
    def pair_table(self) -> np.ndarray:
        """(in_dim^2, out_dim^2) complex: row s * in_dim + t is the image of |s><t|."""
        _check_dense(self.output_wires)
        d, n = self.in_dim, self.out_dim
        if self.injections is not None:
            # one count over every (member, s, t): member k sends |s><t| to
            # |inj[k, s]><inj[k, t]|
            inj = self.injections
            cells = inj[:, :, None] * n + inj[:, None, :]
            rows = np.arange(d * d).reshape(d, d) * (n * n)
            counts = np.bincount((rows + cells).ravel(), minlength=d * d * n * n)
            table = (counts / len(inj)).astype(np.complex128).reshape(d * d, n * n)
        else:
            diagonal, off = self._closed_form_images
            table = np.empty((d * d, n * n), dtype=np.complex128)
            table[:] = off.ravel()
            table[:: d + 1] = diagonal.ravel()
        # every application and pair_action shares it
        table.flags.writeable = False
        return table

    def pair_action(self, s: int, t: int) -> np.ndarray:
        """The (out_dim, out_dim) image of the input-basis pair |s><t|: a row of
        pair_table, read from the two closed-form images where the channel has
        them, so one lookup never builds the whole table."""
        if not (0 <= s < self.in_dim and 0 <= t < self.in_dim):
            raise ValueError("pair indices out of the input basis")
        if self.injections is None:
            return self._closed_form_images[0 if s == t else 1]
        return self.pair_table[s * self.in_dim + t].reshape(self.out_dim, self.out_dim)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return apply_channel_bipartite(self, rho, ref_wires=0)


def apply_channel_bipartite(
    channel: QuantumChannel, rho: DensityMatrix, ref_wires: int
) -> DensityMatrix:
    """Apply (identity on the leading ref wires) tensor (channel on the rest)."""
    return DensityMatrix(ref_wires + channel.output_wires, _channel_image(channel, rho, ref_wires))


def _channel_image(channel: QuantumChannel, rho: DensityMatrix, ref_wires: int) -> np.ndarray:
    """The bare matrix apply_channel_bipartite validates and wraps.

    The image of a valid state is a mixture of valid states by construction,
    so callers that only read the matrix skip the validation's temporaries.
    """
    if ref_wires < 0:
        raise ValueError(f"ref_wires must be >= 0, got {ref_wires}")
    if rho.num_wires != ref_wires + channel.input_wires:
        raise ValueError(
            f"state has {rho.num_wires} wires, expected "
            f"{ref_wires} + {channel.input_wires}"
        )
    _check_dense(ref_wires + channel.output_wires)
    r = 2**ref_wires
    d, n = channel.in_dim, channel.out_dim
    # row (a, b) holds the reference block's entries rho[a s, b t] by pair (s, t)
    pairs = rho.matrix.reshape(r, d, r, d).transpose(0, 2, 1, 3).reshape(r * r, d * d)
    images = (pairs @ channel.pair_table).reshape(r, r, n, n)
    return images.transpose(0, 2, 1, 3).reshape(r * n, r * n)


def _free_set(message_bits: int, tau: int, taken) -> np.ndarray:
    if message_bits < 1 or tau < 0:
        raise ValueError("need message_bits >= 1 and tau >= 0")
    _check_wire_count(message_bits + tau)
    n = 2 ** (message_bits + tau)
    taken_set = {_check_index(t, "taken ciphertext", n) for t in taken}
    return np.array(sorted(set(range(n)) - taken_set), dtype=np.int64)


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
    meets an input. n_perm=None gives the exact average over every
    injection, in closed form at any size; otherwise n_perm i.i.d.
    injections are drawn from rng.
    """
    free = _free_set(message_bits, tau, tuple(taken))
    d = 2**message_bits
    if len(free) < d:
        raise ValueError("fewer free ciphertexts than plaintexts")
    table = None
    if n_perm is not None:
        if _check_index(n_perm, "n_perm") < 1:
            raise ValueError("n_perm must be >= 1")
        if rng is None:
            raise ValueError("sampling needs an explicit rng")
        # one call, the same draws as rng.permutation(free)[:d] row by row
        table = rng.permuted(np.tile(free, (n_perm, 1)), axis=1)[:, :d]
    return QuantumChannel(
        input_wires=message_bits,
        output_wires=message_bits + tau,
        kind="permutation-mixture",
        free=free,
        injections=table,
    )


def constant_mixed_channel(message_bits: int, tau: int, taken=()) -> QuantumChannel:
    """Discards the input and emits the uniform mixture over free ciphertexts.

    Unlike the permutation average this needs no room for injections, so the
    taken set may shrink the free set all the way down to a single output.
    """
    free = _free_set(message_bits, tau, tuple(taken))
    if len(free) == 0:
        raise ValueError("every ciphertext is taken")
    return QuantumChannel(
        input_wires=message_bits,
        output_wires=message_bits + tau,
        kind="constant",
        free=free,
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
    """Channel-output differences against a stated bound.

    satisfied compares exact_trace_distance, the exact channel's distance
    maximized over the run's probes, with the bound. max_trace_distance,
    worst_input and margin describe the probe witness of the channel in use:
    on exact runs the closed form ||X||_1 / |F| itself, on sampled runs
    (n_perm set) the sampled mixture's dense outputs.
    max_difference_trace_norm is twice the distance. taken_count counts
    distinct taken outputs. vacuous marks bounds >= 1 that no trace distance
    could violate. chi_c fields are filled only on exact runs with one
    reference wire.
    """

    message_bits: int
    tau: int
    taken_count: int
    bound: float
    max_trace_distance: float
    max_difference_trace_norm: float
    exact_trace_distance: float
    margin: float
    worst_input: str
    samples: int
    n_perm: int | None
    satisfied: bool
    vacuous: bool
    chi_c_eigenvalues: tuple[float, ...] | None = None
    chi_c_trace_norm: float | None = None


def _certify(
    message_bits: int,
    tau: int,
    taken: tuple,
    samples: int,
    n_perm: int | None,
    seed: int | None,
) -> BoundReport:
    if _check_index(samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    if n_perm is not None:
        _check_index(n_perm, "n_perm")
    # exact runs build no dense matrix but the m = 1 closed-form images,
    # which check their own 1 + tau wires: only the 2m-wire probe and the
    # (m + tau)-wire free set must fit
    if n_perm is not None:
        wires, cap, what = 2 * message_bits + tau, _DENSE_CAP, "dense matrices"
    else:
        wires, cap, what = max(message_bits + tau, 2 * message_bits), WIRE_CAP, "states"
    if wires > cap:
        raise ValueError(f"certification needs {wires} wires; {what} are capped at {cap}")
    free = _free_set(message_bits, tau, taken)
    taken_count = 2 ** (message_bits + tau) - len(free)
    # with no taken outputs this is lemma_bound(tau) exactly
    bound = corollary_bound(message_bits, tau, taken_count)
    d = 2**message_bits
    if len(free) < d:
        raise ValueError("fewer free ciphertexts than plaintexts")
    # exact single-probe runs draw nothing; anything sampled is seeded
    if seed is None and (n_perm is not None or samples > 1):
        raise ValueError("sampled certification needs a seed")
    rng = np.random.default_rng(seed)
    if n_perm is not None:
        enc = avg_permutation_channel(message_bits, tau, taken, n_perm=n_perm, rng=rng)
        ideal = constant_mixed_channel(message_bits, tau, taken)

    worst_norm = -1.0
    worst_name = ""
    exact = 0.0
    chi_eigs: tuple[float, ...] | None = None
    chi_norm: float | None = None
    for i in range(samples):
        if i == 0:
            probe = maximally_entangled(message_bits)
            name = "maximally-entangled"
        else:
            probe = random_pure_bipartite(message_bits, message_bits, rng)
            name = f"haar-{i}"
        # the exact channel's distance on this probe: ||X||_1 / |F|, with
        # X = v v^dag - M M^dag, M the amplitudes as (reference, plaintext)
        # and v = M 1
        amps = probe.amplitudes.reshape(d, d)
        v = amps.sum(axis=1)
        x = np.outer(v, v.conj()) - amps @ amps.conj().T
        probe_exact = trace_norm(x) / len(free)
        exact = max(exact, probe_exact)
        norm = 2.0 * probe_exact
        if n_perm is not None:
            # the sampled channel's own witness
            rho = probe.to_density()
            norm = trace_norm(
                _channel_image(enc, rho, message_bits) - _channel_image(ideal, rho, message_bits)
            )
        elif i == 0 and message_bits == 1:
            # 2^m times the (ref=0, ref=1) block of the difference: X[0, 1] times
            # the exact channel's image of |0><1|, which the ideal one zeroes
            chi = d * x[0, 1] * avg_permutation_channel(1, tau, taken).pair_action(0, 1)
            if np.max(np.abs(chi - chi.conj().T)) > 1e-9:
                raise AssertionError("coherence block is not Hermitian")
            eigs = np.linalg.eigvalsh(chi)
            chi_eigs = tuple(float(e) for e in eigs)
            chi_norm = float(np.sum(np.abs(eigs)))
        if norm > worst_norm:
            worst_norm = norm
            worst_name = name
    distance = 0.5 * worst_norm
    return BoundReport(
        message_bits=message_bits,
        tau=tau,
        taken_count=taken_count,
        bound=bound,
        max_trace_distance=distance,
        max_difference_trace_norm=worst_norm,
        exact_trace_distance=exact,
        margin=bound - distance,
        worst_input=worst_name,
        samples=samples,
        n_perm=n_perm,
        satisfied=bool(exact <= bound + _BOUND_TOL),
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
    seed: int | None = None,
) -> BoundReport:
    """Check the taken-free bound 2^(2 - tau) on maximally entangled plus
    Haar-random probes; the exact injection average when n_perm is None,
    n_perm sampled injections otherwise."""
    return _certify(message_bits, tau, (), samples, n_perm, seed)


def certify_corollary_bound(
    message_bits: int,
    tau: int,
    taken=(),
    *,
    samples: int = 50,
    n_perm: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Same certification with taken ciphertexts excluded and the bound
    4 / (2^tau - |T| / 2^m), |T| counting distinct taken outputs; with no
    taken set this reproduces the taken-free certification exactly."""
    return _certify(message_bits, tau, tuple(taken), samples, n_perm, seed)
