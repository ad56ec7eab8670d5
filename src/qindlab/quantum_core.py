"""Dense state-vector and density-matrix simulation primitives.

Bit-order convention, fixed for the whole package: wire 0 is the most
significant bit of a computational-basis index. The basis state
|b_0 b_1 ... b_{n-1}> has index sum_j b_j * 2^(n-1-j), so an n-bit integer
written MSB-first reads off wire contents directly, and an m-bit plaintext
integer equals the basis index of its register. Nothing else in the package
reinterprets bit order.

Values are immutable and every operation returns a new value. The public
constructors (``StateVector(...)`` and the other value classes) copy the
array they are given, validate it and freeze the copy. States this module
builds itself take ownership of their freshly computed array instead: no
copy, but the array is still frozen and its norm still checked. Randomness
always enters through an explicitly passed ``numpy.random.Generator``.
Values that hold an array compare by identity: ``==`` is ``is``.

A state keeps its squared norm from the norm check that built it and, once
measured, each register's Born weights and post-measurement states by
outcome: measuring it again costs a draw and a search, and
``measure_and_remove`` shares one state per repeated outcome, as ``run_gates``
shares the states it builds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Dense simulation only: 2^n amplitudes, so cap the wire count. Raise at your
# own risk; 14 wires is a 16384-dim state and already the largest the games
# need.
WIRE_CAP = 14

NORM_ATOL = 1e-9
UNITARY_ATOL = 1e-9
DENSITY_ATOL = 1e-9

# Dense matrices above this wire count are refused (the permutation-table path
# in oracles covers the large cases).
_DENSE_CAP = 10


def _check_index(value, what: str, size: float = math.inf) -> int:
    """``value`` as an int in [0, size), read through ``operator.index``:
    numpy integers pass, while 1.5, 1.0 and "1" raise ValueError instead of
    being truncated or parsed."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if not 0 <= index < size:
        raise ValueError(f"{what} {index} out of range [0, {size})")
    return index


def _check_wire_count(num_wires: int) -> None:
    if not isinstance(num_wires, (int, np.integer)) or num_wires < 1:
        raise ValueError(f"num_wires must be a positive integer, got {num_wires!r}")
    if num_wires > WIRE_CAP:
        raise ValueError(f"num_wires {num_wires} exceeds the cap of {WIRE_CAP}")


def _check_dense(num_wires: int) -> None:
    """A dense matrix's wire count: a state's, and at most ``_DENSE_CAP``.
    Every dense builder calls it before it allocates."""
    _check_wire_count(num_wires)
    if num_wires > _DENSE_CAP:
        raise ValueError(
            f"dense matrices are capped at {_DENSE_CAP} wires; "
            "use basis-permutation application for larger operators"
        )


def _check_wires(num_wires: float, wires: tuple[int, ...], expected: int | None = None) -> None:
    """``expected`` wires if given, each an integer in [0, num_wires) read
    through ``_check_index`` unless a plain int in range, and no wire twice;
    validated, not rewritten."""
    if expected is not None and len(wires) != expected:
        raise ValueError(f"expected {expected} wires, got {len(wires)}")
    for w in wires:
        if type(w) is not int or not 0 <= w < num_wires:
            _check_index(w, "wire", num_wires)
    if len(set(wires)) != len(wires):
        raise ValueError(f"wires must be distinct, got {wires}")


def _frozen_array(values, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on ``num_wires`` qubits as 2^n complex amplitudes."""

    num_wires: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_wire_count(self.num_wires)
        arr = _frozen_array(self.amplitudes, (2**self.num_wires,))
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "_squared_norm", _check_norm(arr))

    @functools.cached_property
    def _measured(self) -> dict:
        """Measured register -> (probabilities, cdf, {outcome: state with the
        register removed}), filled by ``_measure_block``."""
        return {}

    @property
    def dim(self) -> int:
        return 2**self.num_wires

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> DensityMatrix:
        _check_dense(self.num_wires)
        return DensityMatrix(self.num_wires, np.outer(self.amplitudes, self.amplitudes.conj()))


def _check_norm(amplitudes: np.ndarray) -> np.float64:
    """The squared norm, once its root is 1 within NORM_ATOL."""
    squared = np.vdot(amplitudes, amplitudes).real
    norm = math.sqrt(squared)
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
    return squared


def _owned_state(num_wires: int, amplitudes: np.ndarray) -> StateVector:
    """A state holding a fresh array computed in this module, without copying it.

    The caller hands the array over and keeps no other reference to it. The
    array is frozen and its norm checked, as the public constructor does.
    """
    amplitudes.setflags(write=False)
    squared = _check_norm(amplitudes)
    state = object.__new__(StateVector)
    object.__setattr__(state, "num_wires", num_wires)
    object.__setattr__(state, "amplitudes", amplitudes)
    object.__setattr__(state, "_squared_norm", squared)
    return state


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state on ``num_wires`` qubits: Hermitian, PSD, unit trace, at
    most ``_DENSE_CAP`` wires."""

    num_wires: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_dense(self.num_wires)
        d = 2**self.num_wires
        arr = _frozen_array(self.matrix, (d, d))
        object.__setattr__(self, "matrix", arr)
        if np.max(np.abs(arr - arr.conj().T)) > DENSITY_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        # arr + atol I has a Cholesky factor iff its least eigenvalue is above
        # -atol; only a failed factorization pays for the spectrum
        shifted = arr.copy()
        shifted.ravel()[:: d + 1] += DENSITY_ATOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(arr).min()
            if low < -DENSITY_ATOL:
                raise ValueError(f"density matrix has negative eigenvalue {low}") from None

    @property
    def dim(self) -> int:
        return 2**self.num_wires


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Dense unitary on ``num_wires`` qubits, validated at construction."""

    num_wires: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_dense(self.num_wires)
        d = 2**self.num_wires
        arr = _frozen_array(self.matrix, (d, d))
        object.__setattr__(self, "matrix", arr)
        dev = np.max(np.abs(arr @ arr.conj().T - np.eye(d)))
        if dev > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U U^dag - I| = {dev}")

    @property
    def dim(self) -> int:
        return 2**self.num_wires


_GATE_ARITY = {"h": 1, "x": 1, "z": 1, "cnot": 2}


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}; supported: {sorted(_GATE_ARITY)}")
        wires = tuple(self.wires)
        _check_wires(math.inf, wires, _GATE_ARITY[self.name])
        object.__setattr__(self, "wires", tuple(map(int, wires)))


def H(wire: int) -> Gate:
    return Gate("h", (wire,))


def X(wire: int) -> Gate:
    return Gate("x", (wire,))


def Z(wire: int) -> Gate:
    return Gate("z", (wire,))


def CNOT(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


@dataclass(frozen=True)
class StateDescription:
    """Classical description of a state: a circuit from |0...0>, or a mixture.

    ``gates`` describes a single pure component. ``mixture`` is an optional
    list of (probability, gates) entries; when present it replaces ``gates``
    and the probabilities must sum to 1. All challenge states the games accept
    are communicated in this form, so the challenger can rebuild them
    privately.
    """

    num_wires: int
    gates: tuple[Gate, ...] = ()
    mixture: tuple[tuple[float, tuple[Gate, ...]], ...] | None = None

    def __post_init__(self) -> None:
        _check_wire_count(self.num_wires)
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.mixture is not None:
            if self.gates:
                raise ValueError("give either gates or mixture, not both")
            entries = tuple((float(p), tuple(gs)) for p, gs in self.mixture)
            if not entries:
                raise ValueError("mixture must have at least one component")
            total = sum(p for p, _ in entries)
            if any(p < -NORM_ATOL or p > 1 + NORM_ATOL for p, _ in entries):
                raise ValueError("mixture probabilities must lie in [0, 1]")
            if abs(total - 1.0) > NORM_ATOL:
                raise ValueError(f"mixture probabilities sum to {total}, not 1")
            object.__setattr__(self, "mixture", entries)
        for _, gates in self.components():
            for gate in gates:
                _check_wires(self.num_wires, gate.wires)

    def components(self) -> tuple[tuple[float, tuple[Gate, ...]], ...]:
        if self.mixture is not None:
            return self.mixture
        return ((1.0, self.gates),)


# -- construction -----------------------------------------------------------


def state_from_bits(bits: str) -> StateVector:
    """Computational-basis state |bits>, wire 0 taken from bits[0] (MSB)."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bits must be a nonempty string over 0/1, got {bits!r}")
    _check_wire_count(len(bits))
    amp = np.zeros(2 ** len(bits), dtype=np.complex128)
    amp[int(bits, 2)] = 1.0
    return _owned_state(len(bits), amp)


def zero_state(num_wires: int) -> StateVector:
    _check_wire_count(num_wires)
    return state_from_bits("0" * num_wires)


def hadamard_all(m: int) -> UnitaryOperator:
    """m-fold tensor Hadamard; entry (i, j) = (-1)^popcount(i & j) / 2^(m/2)."""
    _check_dense(m)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    mat = np.array([[1.0]])
    for _ in range(m):
        mat = np.kron(mat, h)
    return UnitaryOperator(m, mat.astype(np.complex128))


@functools.lru_cache(maxsize=len(_GATE_ARITY))
def _gate_unitary(name: str) -> UnitaryOperator:
    s = 1 / np.sqrt(2.0)
    table = {
        "h": np.array([[s, s], [s, -s]]),
        "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
        # control is the gate's wire 0 (MSB of the 2-wire block)
        "cnot": np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
    }
    return UnitaryOperator(_GATE_ARITY[name], table[name].astype(np.complex128))


# -- application ------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _axis_order(num_wires: int, wires: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Wire order with the register first, in listed order, then the other
    wires in ascending order; and the order that undoes it."""
    order = tuple(wires) + tuple(w for w in range(num_wires) if w not in wires)
    return order, tuple(int(a) for a in np.argsort(order))


def _register_view(state: StateVector, wires: tuple[int, ...]):
    """The amplitudes as (before, 2^k, after), the register on the middle axis.

    An in-order contiguous register [s, s+k) is a view with no copy, shaped
    (2^s, 2^k, 2^(n-s-k)), and its plan is None. Any other register is one
    transposed copy shaped (1, 2^k, 2^(n-k)), the other wires in ascending
    order on the last axis, and its plan is the ``_axis_order``. Returns the
    array and the plan ``_flat_amplitudes`` needs to undo the layout.
    """
    n, k, s = state.num_wires, len(wires), wires[0] if wires else 0
    if wires == tuple(range(s, s + k)):
        return state.amplitudes.reshape(2**s, 2**k, 2 ** (n - s - k)), None
    plan = _axis_order(n, wires)
    gathered = state.amplitudes.reshape((2,) * n).transpose(plan[0])
    return gathered.reshape(1, 2**k, -1), plan


def _flat_amplitudes(block: np.ndarray, plan) -> np.ndarray:
    """Flat amplitudes of an array laid out as ``_register_view`` lays them."""
    if plan is None:
        return block.reshape(-1)
    order, inverse = plan
    return block.reshape((2,) * len(order)).transpose(inverse).reshape(-1)


def apply_unitary(
    unitary: UnitaryOperator, state: StateVector, wires: tuple[int, ...] | None = None
) -> StateVector:
    """Apply ``unitary`` to the listed wires; wires[j] carries the operator's wire j."""
    if wires is None:
        wires = tuple(range(state.num_wires))
    wires = tuple(wires)
    _check_wires(state.num_wires, wires, unitary.num_wires)
    block, plan = _register_view(state, wires)
    out = np.matmul(unitary.matrix, block)
    return _owned_state(state.num_wires, _flat_amplitudes(out, plan))


def _check_permutation(perm, num_wires: int) -> np.ndarray:
    """The table as int64, if it is a permutation of 2^num_wires indices."""
    perm = np.asarray(perm, dtype=np.int64)
    d = 2**num_wires
    if perm.shape != (d,):
        raise ValueError(f"permutation length {perm.shape} does not fit {num_wires} wires")
    if perm.min() < 0 or perm.max() >= d or np.bincount(perm, minlength=d).max() != 1:
        raise ValueError("index table is not a permutation")
    return perm


def apply_basis_permutation(
    permutation: np.ndarray, state: StateVector, wires: tuple[int, ...]
) -> StateVector:
    """Apply the basis map |i> -> |permutation[i]> to the listed wires.

    Permutation application costs O(2^n) regardless of the operator's wire
    count, which is what lets encryption oracles act on states too large for
    dense matrices. Raises ValueError unless the table is a permutation of
    the register's 2^k basis indices.
    """
    wires = tuple(wires)
    perm = _check_permutation(permutation, len(wires))
    _check_wires(state.num_wires, wires)
    block, plan = _register_view(state, wires)
    out = np.empty_like(block)
    out[:, perm] = block
    return _owned_state(state.num_wires, _flat_amplitudes(out, plan))


# -- measurement ------------------------------------------------------------


def _measure_block(state: StateVector, wires: tuple, rng: np.random.Generator, remove=False):
    """Measure ``wires``: the outcome, the post-measurement state (the
    register removed if ``remove``, else collapsed in place), and the
    register's normalized cdf and outcome probabilities.

    The draw is the one ``rng.choice(2**k, p=probs)`` makes: one uniform
    double searched in the cdf. The state keeps the probabilities, the cdf
    and each drawn outcome's state with the register removed; collapsed
    states, 2^n amplitudes per outcome, are rebuilt.
    """
    block = plan = None
    if wires not in state._measured:
        block, plan = _register_view(state, wires)
        weight = np.abs(block)
        weight *= weight
        probs = weight.sum(axis=(0, 2))
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        probs.flags.writeable = cdf.flags.writeable = False
        state._measured[wires] = probs, cdf, {}
    probs, cdf, removed = state._measured[wires]
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    post = removed.get(outcome) if remove else None
    if post is None:
        if block is None:
            block, plan = _register_view(state, wires)
        rest = block[:, outcome] / math.sqrt(probs[outcome])
        if remove:
            post = removed[outcome] = _owned_state(state.num_wires - len(wires), rest.reshape(-1))
        else:
            collapsed = np.zeros_like(block)
            collapsed[:, outcome] = rest
            post = _owned_state(state.num_wires, _flat_amplitudes(collapsed, plan))
    return outcome, post, cdf, probs


def measure_computational(
    state: StateVector, wires: tuple[int, ...], rng: np.random.Generator
) -> tuple[str, StateVector]:
    """Born-rule measurement of the listed wires.

    Returns the outcome bitstring (MSB-first over the listed wires, in listed
    order) and the normalized post-measurement state; measured wires collapse
    to the observed basis state but stay in the register.
    """
    wires = tuple(wires)
    _check_wires(state.num_wires, wires)
    if not wires:
        raise ValueError("must measure at least one wire")
    outcome, post, _, _ = _measure_block(state, wires, rng)
    return format(outcome, f"0{len(wires)}b"), post


def measure_and_remove(
    state: StateVector, wires: tuple[int, ...], rng: np.random.Generator
) -> tuple[str, StateVector]:
    """Measure the listed wires, then delete them from the register.

    The post-measurement state is a product across the cut, so deletion is
    exact; remaining wires keep their relative order (indices shift down).
    """
    wires = tuple(wires)
    _check_wires(state.num_wires, wires)
    if not 0 < len(wires) < state.num_wires:
        raise ValueError("must remove at least one wire and keep at least one")
    outcome, post, _, _ = _measure_block(state, wires, rng, remove=True)
    return format(outcome, f"0{len(wires)}b"), post


def append_wires(state: StateVector, count: int) -> StateVector:
    """Tensor ``count`` fresh |0> wires onto the low-significance end."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return state
    _check_wire_count(state.num_wires + count)
    amp = np.zeros(2 ** (state.num_wires + count), dtype=np.complex128)
    amp.reshape(state.dim, 2**count)[:, 0] = state.amplitudes
    return _owned_state(state.num_wires + count, amp)


# -- distances ---------------------------------------------------------------


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    matrix = np.asarray(matrix)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-8:
        raise ValueError("trace_norm expects a Hermitian matrix")
    return float(np.abs(np.linalg.eigvalsh(matrix)).sum())


def trace_distance(a: DensityMatrix | StateVector, b: DensityMatrix | StateVector) -> float:
    """(1/2) ||a - b||_tr via eigenvalues of the Hermitian difference."""
    rho = a.to_density() if isinstance(a, StateVector) else a
    sigma = b.to_density() if isinstance(b, StateVector) else b
    if rho.num_wires != sigma.num_wires:
        raise ValueError("states live on different wire counts")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)


# -- descriptions and random states ------------------------------------------


@functools.lru_cache(maxsize=64, typed=True)
def run_gates(num_wires: int, gates: tuple[Gate, ...]) -> StateVector:
    """Run a gate list from |0...0>; the state is immutable, so callers share it.
    Typed, so a count of 2.0 is refused rather than served 2's state."""
    state = zero_state(num_wires)
    for gate in gates:
        state = apply_unitary(_gate_unitary(gate.name), state, gate.wires)
    return state


def build_state(description: StateDescription) -> DensityMatrix:
    """Exact density matrix of a description (probability-weighted components)."""
    _check_dense(description.num_wires)
    d = 2**description.num_wires
    out = np.zeros((d, d), dtype=np.complex128)
    for p, gates in description.components():
        amp = run_gates(description.num_wires, gates).amplitudes
        out += p * np.outer(amp, amp.conj())
    return DensityMatrix(description.num_wires, out)


def sample_description(
    description: StateDescription, rng: np.random.Generator
) -> StateVector:
    """Draw one pure component of a description (the component for pure ones)."""
    comps = description.components()
    if len(comps) == 1:
        return run_gates(description.num_wires, comps[0][1])
    probs = np.array([p for p, _ in comps])
    idx = int(rng.choice(len(comps), p=probs / probs.sum()))
    return run_gates(description.num_wires, comps[idx][1])


def random_pure_bipartite(
    wires_x: int, wires_y: int, rng: np.random.Generator
) -> StateVector:
    """Haar-random pure state on wires_x + wires_y qubits (normalized Gaussian)."""
    if wires_x < 1 or wires_y < 1:
        raise ValueError("both registers need at least one wire")
    n = wires_x + wires_y
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, vec / np.linalg.norm(vec))


def maximally_entangled(m: int) -> StateVector:
    """2^(-m/2) sum_y |y>|y> on 2m wires."""
    if m < 1:
        raise ValueError("m must be >= 1")
    amp = np.zeros(2 ** (2 * m), dtype=np.complex128)
    y = np.arange(2**m)
    amp[(y << m) | y] = 2.0 ** (-m / 2)
    return StateVector(2 * m, amp)
