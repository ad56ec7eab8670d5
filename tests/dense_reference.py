"""Dense references the tests compare the package's fast paths against."""

import numpy as np

from qindlab.games import FqindChallenge, GqindResponse
from qindlab.quantum_core import (
    DensityMatrix,
    UnitaryOperator,
    _axis_order,
    _check_dense,
    _check_wires,
    _register_view,
)


def zero_weight(response, tested: tuple[int, ...]) -> tuple[float, float]:
    """(p0, total): the weight of every tested position of the response
    register reading 0 after Hadamards, as a register sum, and the
    response's squared norm, as its norm check computed it."""
    if not tested:
        raise ValueError("a Hadamard test needs at least one tested wire")
    if isinstance(response, FqindChallenge):
        state, register = response.state, response.message1_wires
    elif isinstance(response, GqindResponse):
        state, register = response.state, response.ciphertext_wires
    else:
        state, register = response, range(response.num_wires)
    wires = tuple(register[i] for i in tested)
    rest = _register_view(state, wires)[0].sum(axis=1)
    return np.vdot(rest, rest).real / 2 ** len(wires), state._squared_norm


def embed_unitary(
    unitary: UnitaryOperator, num_wires: int, wires: tuple[int, ...]
) -> UnitaryOperator:
    """Dense embedding of ``unitary`` on the listed wires of a larger register."""
    _check_dense(num_wires)
    wires = tuple(wires)
    _check_wires(num_wires, wires, unitary.num_wires)
    rest = num_wires - unitary.num_wires
    full = np.kron(unitary.matrix, np.eye(2**rest)) if rest else unitary.matrix
    _, inv = _axis_order(num_wires, wires)
    t = full.reshape((2,) * (2 * num_wires)).transpose((*inv, *(num_wires + i for i in inv)))
    return UnitaryOperator(num_wires, t.reshape(2**num_wires, 2**num_wires))


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Reduced state on the kept wires (listed order becomes the new order)."""
    keep = tuple(keep)
    n = rho.num_wires
    _check_wires(n, keep)
    if not keep:
        raise ValueError("must keep at least one wire")
    k = len(keep)
    order, _ = _axis_order(n, keep)
    t = rho.matrix.reshape((2,) * (2 * n))
    t = t.transpose((*order, *(n + w for w in order)))
    t = t.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return DensityMatrix(k, np.einsum("ajbj->ab", t))
