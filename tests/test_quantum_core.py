"""State-vector conventions, measurement, and distance measures."""

import ast
import functools
import gc
import importlib
import inspect
import math
import pkgutil
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qindlab
from qindlab import quantum_core
from qindlab.oracles import EncryptionUnitary, type1_unitary
from qindlab.quantum_core import (
    CNOT,
    DENSITY_ATOL,
    H,
    WIRE_CAP,
    X,
    Z,
    DensityMatrix,
    StateDescription,
    StateVector,
    UnitaryOperator,
    append_wires,
    apply_basis_permutation,
    apply_unitary,
    build_state,
    hadamard_all,
    maximally_entangled,
    measure_and_remove,
    measure_computational,
    random_pure_bipartite,
    run_gates,
    sample_description,
    state_from_bits,
    trace_distance,
    trace_norm,
    zero_state,
)
from qindlab.quantum_core import _measure_block, _owned_state
from qindlab.schemes import prf_scheme

from dense_reference import embed_unitary, partial_trace


def test_wire_zero_is_most_significant():
    # |10> on two wires must sit at basis index 2, not 1
    s = state_from_bits("10")
    assert s.amplitudes[2] == 1.0
    assert s.amplitudes[1] == 0.0


def test_zero_state_shape():
    s = zero_state(3)
    assert s.num_wires == 3
    assert s.amplitudes.shape == (8,)
    assert s.amplitudes[0] == 1.0


def test_wire_cap_enforced():
    with pytest.raises(ValueError):
        zero_state(WIRE_CAP + 1)


def test_a_float_wire_count_is_refused():
    # a count of 2.0 is not truncated, even where 2's state is already cached
    run_gates(2, ())
    for build in (zero_state, lambda n: run_gates(n, ())):
        with pytest.raises(ValueError, match="num_wires must be a positive integer, got 2.0"):
            build(2.0)
        assert np.array_equal(build(np.int64(2)).amplitudes, build(2).amplitudes)


def test_dense_builders_check_the_cap_before_they_allocate():
    # built, each matrix would hold 32 MB (2^22 complex entries) or more
    h1, lift = hadamard_all(1), type1_unitary(prf_scheme(3, 5), 0, 0)
    assert lift.num_wires == 11
    builds = (lambda: hadamard_all(11), lambda: embed_unitary(h1, 11, (0,)), lift.operator)
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped at 10"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak


@pytest.mark.parametrize("m", [2.0, 0, -1])
def test_hadamard_all_refuses_a_count_that_is_not_a_positive_integer(m):
    with pytest.raises(ValueError, match="positive integer"):
        hadamard_all(m)


def test_every_cache_in_the_package_is_bounded():
    sizes = {}
    for info in pkgutil.iter_modules(qindlab.__path__, "qindlab."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, functools._lru_cache_wrapper):
                name = f"{value.__module__}.{value.__qualname__}"
                sizes[name] = value.cache_parameters()["maxsize"]
    assert sizes
    assert [name for name, size in sizes.items() if size is None] == []


# exports no other package module names, each with the reason it stays
_UNNAMED_EXPORTS = {
    "measure_computational": "bench/tracing.py's measurement layer wraps it",
    "ConstantGuesser": "a test baseline; the keyless-PRF key count decides its fate",
    "constant_prf": "a test baseline; the keyless-PRF key count decides its fate",
}


def test_every_export_is_named_by_another_package_module():
    # a name counts where code loads it or a string (a docstring) mentions
    # it; a def, a class statement or an assignment target does not name it
    named = set()
    for path in Path(qindlab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"\w+", node.value))
    exports = {
        name
        for name in qindlab.__all__
        if inspect.isfunction(getattr(qindlab, name)) or inspect.isclass(getattr(qindlab, name))
    }
    assert len(exports) > 50
    assert exports - named == set(_UNNAMED_EXPORTS)


def test_hadamard_all_gives_uniform_superposition():
    s = apply_unitary(hadamard_all(3), zero_state(3))
    assert np.allclose(s.amplitudes, np.full(8, 2 ** -1.5))


def test_measurement_bitstring_is_msb_first():
    rng = np.random.default_rng(0)
    bits, _ = measure_computational(state_from_bits("101"), (0, 1, 2), rng)
    assert bits == "101"


def test_measurement_collapses():
    rng = np.random.default_rng(1)
    s = apply_unitary(hadamard_all(2), zero_state(2))
    bits, collapsed = measure_computational(s, (0, 1), rng)
    assert collapsed.amplitudes[int(bits, 2)] == pytest.approx(1.0)


def test_measure_and_remove_drops_wires():
    s = state_from_bits("101")
    outcome, rest = measure_and_remove(s, (0,), np.random.default_rng(2))
    assert outcome == "1"
    assert rest.num_wires == 2
    assert rest.amplitudes[1] == pytest.approx(1.0)


def test_append_wires_adds_zeros_at_the_bottom():
    grown = append_wires(state_from_bits("1"), 2)
    assert grown.num_wires == 3
    # |1> becomes |100>
    assert grown.amplitudes[4] == pytest.approx(1.0)


def test_trace_distance_zero_vs_plus():
    zero = zero_state(1)
    plus = apply_unitary(hadamard_all(1), zero_state(1))
    assert trace_distance(zero, plus) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_trace_distance_orthogonal_states_is_one():
    assert trace_distance(state_from_bits("00"), state_from_bits("11")) == pytest.approx(1.0)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_sums_absolute_eigenvalues():
    assert trace_norm(np.diag([0.5, -0.25, 0.25])) == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    rho = partial_trace(state_from_bits("10").to_density(), keep=(0,))
    assert np.allclose(rho.matrix, np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_maximally_entangled_marginals_are_uniform():
    for m in (1, 2):
        phi = maximally_entangled(m).to_density()
        eye = np.eye(2**m) / 2**m
        assert np.allclose(partial_trace(phi, keep=tuple(range(m))).matrix, eye)
        assert np.allclose(partial_trace(phi, keep=tuple(range(m, 2 * m))).matrix, eye)


def test_basis_permutation_matches_dense_operator():
    perm = np.array([2, 0, 3, 1], dtype=np.int64)
    s = run_gates(2, (H(0), H(1), Z(1)))
    via_table = apply_basis_permutation(perm, s, (0, 1))
    mat = np.zeros((4, 4), dtype=complex)
    mat[perm, np.arange(4)] = 1.0
    via_dense = apply_unitary(UnitaryOperator(2, mat), s, (0, 1))
    assert np.allclose(via_table.amplitudes, via_dense.amplitudes)


def test_embed_unitary_acts_on_selected_wire():
    u = embed_unitary(hadamard_all(1), 2, (1,))
    s = apply_unitary(u, zero_state(2))
    assert np.allclose(s.amplitudes, [2**-0.5, 2**-0.5, 0, 0])


def test_run_gates_builds_bell_state():
    s = run_gates(2, (H(0), CNOT(0, 1)))
    assert np.allclose(s.amplitudes, [2**-0.5, 0, 0, 2**-0.5])


def test_build_state_and_sample_description_agree_for_pure_case():
    desc = StateDescription(2, gates=(H(0), X(1)))
    rho = build_state(desc)
    sampled = sample_description(desc, np.random.default_rng(3))
    assert np.allclose(rho.matrix, sampled.to_density().matrix)


def test_mixture_description_builds_weighted_density():
    desc = StateDescription(1, mixture=((0.5, ()), (0.5, (X(0),))))
    rho = build_state(desc)
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_random_pure_bipartite_is_normalized():
    s = random_pure_bipartite(2, 1, np.random.default_rng(4))
    assert s.num_wires == 3
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)


@st.composite
def pure_states(draw, num_wires=2):
    dim = 2**num_wires
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    vec = np.array(re, dtype=complex) + 1j * np.array(im)
    norm = np.linalg.norm(vec)
    if norm < 1e-6:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        norm = 1.0
    return StateVector(num_wires, vec / norm)


@given(pure_states())
@settings(max_examples=25, deadline=None)
def test_hadamard_all_is_an_involution(state):
    h = hadamard_all(2)
    back = apply_unitary(h, apply_unitary(h, state))
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)


@given(pure_states(), pure_states())
@settings(max_examples=25, deadline=None)
def test_trace_distance_is_symmetric_and_bounded(a, b):
    d = trace_distance(a, b)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert trace_distance(b, a) == pytest.approx(d, abs=1e-10)


@given(pure_states(), pure_states(), pure_states())
@settings(max_examples=15, deadline=None)
def test_trace_distance_triangle_inequality(a, b, c):
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


@given(pure_states())
@settings(max_examples=25, deadline=None)
def test_pure_state_trace_distance_formula(state):
    # for pure states the distance is sqrt(1 - |<a|b>|^2), which for unit
    # vectors equals sqrt(sum_ij |a_i b_j - a_j b_i|^2 / 2); this form
    # subtracts no nearly equal numbers when b is a up to a phase
    other = apply_unitary(hadamard_all(2), state)
    a, b = state.amplitudes, other.amplitudes
    expected = math.sqrt(0.5 * np.sum(np.abs(np.outer(a, b) - np.outer(b, a)) ** 2))
    assert trace_distance(state, other) == pytest.approx(expected, abs=1e-9)


@given(pure_states())
@settings(max_examples=20, deadline=None)
def test_density_matrix_has_unit_trace(state):
    rho = state.to_density()
    assert isinstance(rho, DensityMatrix)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


# -- register operations against dense references -----------------------------


def _random_state(n: int, rng: np.random.Generator) -> StateVector:
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, vec / np.linalg.norm(vec))


def _random_unitary(k: int, rng: np.random.Generator) -> UnitaryOperator:
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, r = np.linalg.qr(z)
    return UnitaryOperator(k, q * (np.diag(r) / np.abs(np.diag(r))))


def _reference_marginal(state: StateVector, wires: tuple[int, ...]) -> np.ndarray:
    """Outcome probabilities of the listed wires by moveaxis, register first."""
    n, k = state.num_wires, len(wires)
    t = np.moveaxis(state.amplitudes.reshape((2,) * n), wires, range(k))
    probs = (np.abs(t.reshape(2**k, -1)) ** 2).sum(axis=1)
    return probs / probs.sum()


@st.composite
def registers(draw, max_wires=8):
    """(n, wires, seed): contiguous in order, gapped, or out of order."""
    n = draw(st.integers(1, max_wires))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - k))
        wires = tuple(range(start, start + k))
    else:
        wires = tuple(draw(st.permutations(range(n)))[:k])
    return n, wires, draw(st.integers(0, 2**32 - 1))


@given(registers())
@settings(max_examples=120, deadline=None)
def test_register_operations_match_dense_references(case):
    n, wires, seed = case
    k = len(wires)
    rng = np.random.default_rng(seed)
    state = _random_state(n, rng)

    u = _random_unitary(k, rng)
    dense = embed_unitary(u, n, wires).matrix @ state.amplitudes
    assert np.allclose(apply_unitary(u, state, wires).amplitudes, dense, atol=1e-12)

    def dense_permutation(table):
        mat = np.zeros((2**k, 2**k), dtype=np.complex128)
        mat[table, np.arange(2**k)] = 1.0
        return embed_unitary(UnitaryOperator(k, mat), n, wires).matrix @ state.amplitudes

    perm = rng.permutation(2**k)
    permuted = apply_basis_permutation(perm, state, wires).amplitudes
    assert np.array_equal(permuted, dense_permutation(perm))

    # an XOR table |x, y> -> |x, y ^ f(x)> over a split of the register is its
    # own inverse, and a type-1 lift applies it by a gather
    low = int(rng.integers(k + 1))
    index = np.arange(2**k)
    x, y = index >> low, index & ((1 << low) - 1)
    xor = (x << low) | (y ^ rng.integers(2**low, size=2 ** (k - low))[x])
    lift = EncryptionUnitary("type1", None, None, 0, k, xor)
    assert np.array_equal(lift.apply(state, wires).amplitudes, dense_permutation(xor))

    marginal = _reference_marginal(state, wires)
    draw_seed = int(rng.integers(2**32))
    expected = np.random.default_rng(draw_seed)
    outcome = int(expected.choice(2**k, p=marginal))
    drawn = np.random.default_rng(draw_seed)
    _, _, _, probs = _measure_block(state, wires, drawn)
    assert np.allclose(probs, marginal, rtol=0.0, atol=1e-12)
    # the same outcome, and the generator left where rng.choice leaves it
    assert drawn.bit_generator.state == expected.bit_generator.state
    bits, post = measure_computational(state, wires, np.random.default_rng(draw_seed))
    assert int(bits, 2) == outcome
    collapsed = np.moveaxis(state.amplitudes.reshape((2,) * n), wires, range(k)).copy()
    mask = np.ones(2**k, dtype=bool)
    mask[outcome] = False
    collapsed.reshape(2**k, -1)[mask] = 0.0
    collapsed /= math.sqrt(marginal[outcome])
    reference = np.moveaxis(collapsed, range(k), wires).reshape(-1)
    assert np.allclose(post.amplitudes, reference, atol=1e-12)
    if k < n:
        bits, rest = measure_and_remove(state, wires, np.random.default_rng(draw_seed))
        assert int(bits, 2) == outcome
        kept = np.moveaxis(state.amplitudes.reshape((2,) * n), wires, range(k))
        kept = kept.reshape(2**k, -1)[outcome] / math.sqrt(marginal[outcome])
        assert np.allclose(rest.amplitudes, kept, atol=1e-12)


def test_basis_permutation_rejects_tables_that_are_not_permutations():
    state = state_from_bits("00")
    for table in ([0, 1, 2, 2], [0, 1, 2, 4], [-1, 0, 1, 2], [0, 1, 2]):
        with pytest.raises(ValueError):
            apply_basis_permutation(np.array(table), state, (0, 1))


def test_returned_states_are_frozen():
    rng = np.random.default_rng(9)
    s = run_gates(3, (H(0), CNOT(0, 2)))
    results = [
        s,
        state_from_bits("01"),
        zero_state(2),
        apply_unitary(hadamard_all(2), s, (2, 0)),
        apply_unitary(hadamard_all(2), s, (1, 2)),
        apply_basis_permutation(np.array([1, 0]), s, (1,)),
        measure_computational(s, (0, 2), rng)[1],
        measure_and_remove(s, (1,), rng)[1],
        append_wires(s, 2),
        sample_description(StateDescription(2, (H(1),)), rng),
        maximally_entangled(1),
        random_pure_bipartite(1, 1, rng),
        StateVector(1, np.array([1.0, 0.0])),
    ]
    for state in results:
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5


def test_public_constructor_copies_the_callers_array():
    arr = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    state = StateVector(2, arr)
    arr[0], arr[3] = 0.0, 1.0
    assert arr.flags.writeable
    assert state.amplitudes[0] == 1.0 and state.amplitudes[3] == 0.0


def test_private_constructor_keeps_the_norm_and_wire_checks():
    # a unitary that fails its own check never gets this far, so feed the
    # private constructor a bad array directly
    with pytest.raises(ValueError):
        _owned_state(1, np.array([1.0, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        append_wires(zero_state(WIRE_CAP), 1)


def test_a_measured_register_keeps_its_weights_and_removed_states(monkeypatch):
    rng = np.random.default_rng(12)
    state = _random_state(4, rng)
    views, real_view = [], quantum_core._register_view

    def counted_view(state, wires):
        views.append(wires)
        return real_view(state, wires)

    monkeypatch.setattr(quantum_core, "_register_view", counted_view)
    # one register: its weights once, then one shared state per repeated outcome
    first = _measure_block(state, (3, 1), np.random.default_rng(0), remove=True)
    assert views == [(3, 1)]
    for seed in range(1, 40):
        again = _measure_block(state, (3, 1), np.random.default_rng(seed), remove=True)
        assert again[2] is first[2] and again[3] is first[3]
        if again[0] == first[0]:
            assert again[1] is first[1]
    assert len(views) == len(state._measured[(3, 1)][2]) == 4
    assert np.allclose(first[3], _reference_marginal(state, (3, 1)), atol=1e-12)
    assert not first[2].flags.writeable and not first[3].flags.writeable
    # collapsed states, 2^n amplitudes each, are rebuilt from the kept weights:
    # one register view per call, for the collapse alone
    views.clear()
    one, two = (measure_computational(state, (3, 1), np.random.default_rng(5)) for _ in range(2))
    assert views == [(3, 1), (3, 1)] and one[0] == two[0] and one[1] is not two[1]
    assert np.array_equal(one[1].amplitudes, two[1].amplitudes)
    # another register keeps its own entry
    measure_and_remove(state, (0,), rng)
    assert set(state._measured) == {(3, 1), (0,)}
    assert np.allclose(state._measured[(0,)][0], _reference_marginal(state, (0,)), atol=1e-12)


def test_measuring_a_state_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = StateVector(3, np.full(8, 8**-0.5))
        measure_and_remove(state, (1,), np.random.default_rng(0))
        measure_computational(state, (0, 2), np.random.default_rng(1))
        assert state._measured
        ref = weakref.ref(state)
        del state
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_state_keeps_the_squared_norm_its_check_computed():
    from dense_reference import zero_weight
    from qindlab.oracles import encrypt_fresh_register, xor_encrypt_register
    from qindlab.schemes import prf_scheme

    rng = np.random.default_rng(21)
    s = apply_unitary(_random_unitary(3, rng), zero_state(5), (0, 2, 4))
    scheme = prf_scheme(1, 1)
    states = [
        s,
        StateVector(2, np.array([0.6, 0.0, 0.0, 0.8j])),
        random_pure_bipartite(2, 3, rng),
        maximally_entangled(2),
        state_from_bits("0110"),
        zero_state(3),
        run_gates(3, (H(0), CNOT(0, 2))),
        apply_unitary(hadamard_all(2), s, (4, 1)),
        apply_basis_permutation(rng.permutation(8), s, (3, 0, 2)),
        measure_computational(s, (1, 3), rng)[1],
        measure_and_remove(s, (2,), rng)[1],
        append_wires(s, 2),
        xor_encrypt_register(scheme, 3, 1, s, (0,), (1, 2)),  # one gather
        xor_encrypt_register(scheme, 3, 0, s, (0,), (3, 4)),  # one take per x
        encrypt_fresh_register(scheme, 3, 1, s, (2,))[0],
    ]
    for state in states:
        amps = state.amplitudes
        assert zero_weight(state, (0,))[1] == np.vdot(amps, amps).real


def _density_with_least_eigenvalue(d: int, least: float) -> np.ndarray:
    """A unit-trace Hermitian d x d matrix, in a random basis, whose least
    eigenvalue is ``least``."""
    rng = np.random.default_rng(d)
    rest = rng.uniform(0.5, 1.5, size=d - 1)
    eigs = np.concatenate([[least], rest * (1.0 - least) / rest.sum()])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    mat = (q * eigs) @ q.conj().T
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("d", [2, 128])
def test_density_matrix_psd_check_sits_at_the_tolerance(d):
    n = d.bit_length() - 1
    accepted = _density_with_least_eigenvalue(d, -0.5 * DENSITY_ATOL)
    assert np.linalg.eigvalsh(accepted).min() < 0
    DensityMatrix(n, accepted)
    refused = _density_with_least_eigenvalue(d, -2 * DENSITY_ATOL)
    with pytest.raises(ValueError, match="negative eigenvalue") as err:
        DensityMatrix(n, refused)
    reported = float(str(err.value).rsplit(" ", 1)[1])
    assert reported == pytest.approx(-2 * DENSITY_ATOL, rel=1e-3)


def test_a_wide_density_matrix_with_a_negative_eigenvalue_is_refused():
    # 10 wires: the PSD check once stopped at 9, so this was accepted
    d = 2**10
    diagonal = np.full(d, 1.5 / (d - 1))
    diagonal[0] = -0.5
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        DensityMatrix(10, np.diag(diagonal))


def test_density_matrices_refuse_the_dense_cap_before_they_allocate():
    # built, the 11-wire matrix would hold 64 MB
    state = zero_state(11)
    description = StateDescription(11)
    for build in (state.to_density, lambda: build_state(description)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped at 10"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
    with pytest.raises(ValueError, match="capped at 10"):
        DensityMatrix(11, np.eye(1))
