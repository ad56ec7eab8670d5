"""Encryption oracle lifts: permutation tables, wiring, interconversion."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qindlab.oracles import (
    EncryptionUnitary,
    encrypt_fresh_register,
    type1_decryption_unitary,
    type1_from_type2,
    type1_unitary,
    type2_from_type1,
    type2_unitary,
    xor_encrypt_register,
)
from qindlab.quantum_core import (
    StateVector,
    append_wires,
    apply_basis_permutation,
    apply_unitary,
    hadamard_all,
    measure_and_remove,
    measure_computational,
    zero_state,
)
from qindlab.schemes import (
    ClassicalScheme,
    block_scheme,
    feistel_prp_family,
    identity_permutation_family,
    ideal_prp_family,
    prf_scheme,
    prp_scheme,
)

from dense_reference import embed_unitary, partial_trace

RNG = np.random.default_rng(99)


def keys_for(scheme, count=3):
    return [scheme.gen(np.random.default_rng(7 + i)) for i in range(count)]


def test_type1_is_an_involution():
    scheme = prf_scheme(2, 1)
    for key in keys_for(scheme):
        u1 = type1_unitary(scheme, key, r=1)
        perm = u1.permutation
        assert np.array_equal(perm[perm], np.arange(perm.size))


def test_type1_xors_ciphertext_into_response_register():
    scheme = prf_scheme(2, 2)
    key = keys_for(scheme, 1)[0]
    r = 3
    u1 = type1_unitary(scheme, key, r)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    for x in range(2**m):
        for y in range(2**ell):
            image = u1.permutation[(x << ell) | y]
            assert image == (x << ell) | (y ^ int(scheme.enc(key, r, x)))


def test_type1_on_uniform_superposition_entangles_all_pairs():
    scheme = prf_scheme(2, 1)
    key = keys_for(scheme, 1)[0]
    r = 0
    u1 = type1_unitary(scheme, key, r)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    state = append_wires(apply_unitary(hadamard_all(m), zero_state(m)), ell)
    state = u1.apply(state, tuple(range(m + ell)))
    for x in range(2**m):
        idx = (x << ell) | int(scheme.enc(key, r, x))
        assert state.amplitudes[idx] == pytest.approx(0.5)
    assert np.count_nonzero(state.amplitudes) == 2**m


def test_type2_agrees_with_enc_on_cleared_ancilla():
    scheme = prp_scheme(2, 2, ideal_prp_family(4))
    key = keys_for(scheme, 1)[0]
    for r in range(4):
        u2 = type2_unitary(scheme, key, r)
        table = u2.type2_action_table()
        for x in range(4):
            assert table[x] == int(scheme.enc(key, r, x))


def test_type2_prp_completion_applies_the_permutation():
    scheme = prp_scheme(2, 2, ideal_prp_family(4))
    key = keys_for(scheme, 1)[0]
    fam = ideal_prp_family(4)
    r = 2
    u2 = type2_unitary(scheme, key, r)
    # in-place rule: |x, y> -> |pi_k(x || (y ^ r))> over the whole ancilla range
    for x in range(4):
        for y in range(4):
            assert u2.permutation[(x << 2) | y] == fam.forward(key, (x << 2) | (y ^ r))


def test_type2_is_a_permutation_of_the_cipher_space():
    scheme = prf_scheme(2, 2)
    for key in keys_for(scheme):
        u2 = type2_unitary(scheme, key, r=1)
        assert sorted(u2.permutation) == list(range(2**scheme.ciphertext_bits))


def test_one_wire_identity_scheme_is_cnot():
    # m=1, tau=0, identity permutation: Enc(x) = x, so the XOR lift is CNOT
    scheme = prp_scheme(1, 0, identity_permutation_family(1))
    key = scheme.gen(RNG)
    u1 = type1_unitary(scheme, key, 0)
    assert list(u1.permutation) == [0, 1, 3, 2]


def test_type1_from_type2_matches_direct_lift():
    for scheme in (prf_scheme(2, 1), prp_scheme(2, 1, ideal_prp_family(3))):
        for key in keys_for(scheme, 2):
            for r in range(2):
                built = type1_from_type2(type2_unitary(scheme, key, r))
                direct = type1_unitary(scheme, key, r)
                assert np.array_equal(built.permutation, direct.permutation)


def test_type2_from_type1_agrees_on_cleared_workspace():
    scheme = prf_scheme(1, 1)
    for key in keys_for(scheme, 2):
        for r in range(2):
            u1e = type1_unitary(scheme, key, r)
            u1d = type1_decryption_unitary(scheme, key)
            built = type2_from_type1(u1e, u1d)
            assert built.workspace_wires == scheme.ciphertext_bits
            assert built.num_wires == 2 * scheme.ciphertext_bits
            direct = type2_unitary(scheme, key, r)
            assert np.array_equal(built.type2_action_table(), direct.type2_action_table())


def test_type2_adjoint_decrypts():
    scheme = prf_scheme(2, 2)
    key = keys_for(scheme, 1)[0]
    r = 1
    adj = type2_unitary(scheme, key, r).adjoint()
    tau = scheme.ciphertext_bits - scheme.message_bits
    for x in range(4):
        c = int(scheme.enc(key, r, x))
        assert adj.permutation[c] == x << tau


def test_type2_action_table_refuses_an_adjoint():
    scheme = prf_scheme(2, 2)
    u2 = type2_unitary(scheme, 5, 1)
    with pytest.raises(ValueError, match="not a type-2 oracle"):
        u2.adjoint().type2_action_table()
    # the oracle built from type-1 access is a type-2 oracle and keeps its table
    built = type2_from_type1(type1_unitary(scheme, 5, 1), type1_decryption_unitary(scheme, 5))
    assert np.array_equal(built.type2_action_table(), u2.type2_action_table())


def test_type2_from_type1_needs_one_scheme_and_key():
    scheme = prf_scheme(1, 1)
    k0, k1 = keys_for(scheme, 2)
    u1e = type1_unitary(scheme, k0, 1)
    assert type1_decryption_unitary(scheme, k0).randomness == 0
    with pytest.raises(ValueError, match="share scheme and key"):
        type2_from_type1(u1e, type1_decryption_unitary(scheme, k1))
    with pytest.raises(ValueError, match="share scheme and key"):
        type2_from_type1(u1e, type1_decryption_unitary(prf_scheme(1, 1), k0))


def test_type1_adjoint_is_itself():
    scheme = prf_scheme(2, 1)
    key = keys_for(scheme, 1)[0]
    u1 = type1_unitary(scheme, key, 0)
    assert np.array_equal(u1.adjoint().permutation, u1.permutation)


def test_type1_tables_must_be_their_own_inverse():
    # a 4-cycle is a permutation but not an involution: fine for type-2 only
    cycle = np.array([1, 2, 3, 0])
    assert EncryptionUnitary("type2", None, None, 0, 2, cycle).permutation.tolist() == [1, 2, 3, 0]
    # swapping |01> and |10> is its own inverse, but XORs no function of
    # leading bits into trailing ones; a type-1 table must be such an XOR lift
    swap = np.array([0, 2, 1, 3])
    for kind in ("type1", "type1-dec"):
        for table in (cycle, swap):
            with pytest.raises(ValueError, match="not an XOR lift"):
                EncryptionUnitary(kind, None, None, 0, 2, table)
    # any XOR lift passes, whatever split its table has
    for table in ([1, 0, 2, 3], [0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]):
        assert EncryptionUnitary("type1", None, None, 0, 2, table).permutation.tolist() == table


def test_operator_matrix_is_unitary():
    scheme = prf_scheme(2, 1)
    key = keys_for(scheme, 1)[0]
    for u in (type1_unitary(scheme, key, 1), type2_unitary(scheme, key, 1)):
        mat = u.operator().matrix
        assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]))
        assert set(np.unique(mat)) <= {0.0 + 0j, 1.0 + 0j}


def test_oracle_construction_is_deterministic():
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    key = keys_for(scheme, 1)[0]
    a = type2_unitary(scheme, key, 1)
    b = type2_unitary(scheme, key, 1)
    assert np.array_equal(a.permutation, b.permutation)


def test_randomness_out_of_range_rejected():
    scheme = prf_scheme(2, 1)
    key = keys_for(scheme, 1)[0]
    with pytest.raises(ValueError):
        type1_unitary(scheme, key, 2)
    with pytest.raises(ValueError):
        type1_unitary(scheme, key, -1)


def test_adjoint_composition_is_identity():
    scheme = prp_scheme(2, 2, ideal_prp_family(4))
    key = keys_for(scheme, 1)[0]
    u2 = type2_unitary(scheme, key, 3)
    composed = u2.adjoint().permutation[u2.permutation]
    assert np.array_equal(composed, np.arange(composed.size))


def test_permutation_tables_are_int64():
    scheme = prf_scheme(3, 2)
    key = keys_for(scheme, 1)[0]
    assert type1_unitary(scheme, key, 0).permutation.dtype == np.int64
    assert type2_unitary(scheme, key, 0).permutation.dtype == np.int64


def test_type1_from_type2_requires_a_type2_oracle():
    scheme = prf_scheme(1, 1)
    key = keys_for(scheme, 1)[0]
    with pytest.raises(ValueError):
        type1_from_type2(type1_unitary(scheme, key, 0))


# -- type-2 encryption of a fresh register ---------------------------------------

# two-bit messages, so every scheme fits every register layout below
FRESH_SCHEMES = (
    prf_scheme(2, 2),
    prp_scheme(2, 2, ideal_prp_family(4)),
    prp_scheme(2, 0, ideal_prp_family(2)),
    prp_scheme(2, 2, feistel_prp_family(4)),
    prp_scheme(2, 1, identity_permutation_family(3)),
    block_scheme(prf_scheme(1, 1), 2),
    block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2),
)

# (wire count, message wires): contiguous, trailing, gapped and out of order,
# with and without private wires
FRESH_LAYOUTS = (
    (2, (0, 1)),
    (2, (1, 0)),
    (3, (0, 1)),
    (3, (1, 2)),
    (3, (0, 2)),
    (4, (3, 1)),
    (5, (4, 0)),
)


@settings(max_examples=80, deadline=None)
@given(
    scheme=st.sampled_from(FRESH_SCHEMES),
    layout=st.sampled_from(FRESH_LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_fresh_register_encryption_matches_the_type2_table(scheme, layout, seed):
    n, message = layout
    rng = np.random.default_rng(seed)
    key = scheme.gen(rng)
    r = int(rng.integers(2**scheme.randomness_bits))
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = StateVector(n, vec / np.linalg.norm(vec))
    got, wires = encrypt_fresh_register(scheme, key, r, state, message)
    anc = scheme.ciphertext_bits - scheme.message_bits
    assert wires == message + tuple(range(n, n + anc))
    table = type2_unitary(scheme, key, r).permutation
    want = apply_basis_permutation(table, append_wires(state, anc), wires)
    assert got.num_wires == want.num_wires
    assert np.array_equal(got.amplitudes, want.amplitudes)


def _hand_built(enc) -> ClassicalScheme:
    """Two-bit messages, one bit of randomness, three-bit ciphertexts."""
    return ClassicalScheme("hand-built", 2, 1, 3, 1, lambda rng: 0, enc, lambda key, y: y)


@pytest.mark.parametrize(
    "enc",
    [
        lambda key, r, x: np.asarray(x) >> 1,  # collides
        lambda key, r, x: np.asarray(x) + 6,  # leaves three bits
        lambda key, r, x: np.asarray(x) - 1,  # negative: must not wrap as an index
    ],
    ids=["collides", "too-wide", "negative"],
)
def test_fresh_register_encryption_refuses_a_malformed_enc(enc):
    with pytest.raises(ValueError, match="not injective into 3 bits"):
        encrypt_fresh_register(_hand_built(enc), 0, 0, zero_state(2), (0, 1))


def test_fresh_register_encryption_accepts_a_hand_built_injective_enc():
    scheme = _hand_built(lambda key, r, x: (np.asarray(x) << 1) | r)
    state, wires = encrypt_fresh_register(scheme, 0, 1, zero_state(3), (2, 1))
    assert wires == (2, 1, 3)
    # |0> on the private wire 0, ciphertext |001> on wires (2, 1, 3)
    assert state.amplitudes[0b0001] == 1.0


# -- type-1 encryption of a message and a response register ----------------------

# (wire count, message wires, response wires) for m message and ell response
# wires: one contiguous run, the same inside private wires, the message after
# the response, gapped either way round (one the fqind challenge at bit 0
# meets) and a shuffle of every wire
XOR_LAYOUTS = {
    "contiguous": lambda m, ell, rng: (m + ell, range(m), range(m, m + ell)),
    "private around": lambda m, ell, rng: (m + ell + 2, range(1, m + 1), range(m + 1, m + ell + 1)),
    "message after response": lambda m, ell, rng: (m + ell, range(ell, ell + m), range(ell)),
    "gapped": lambda m, ell, rng: (m + ell + 2, range(m), range(m + 2, m + ell + 2)),
    "gapped, response first": lambda m, ell, rng: (
        m + ell + 3, range(ell + 2, ell + m + 2), range(1, ell + 1)
    ),
    "shuffled": lambda m, ell, rng: (lambda p: (m + ell + 1, p[:m], p[m : m + ell]))(
        [int(w) for w in rng.permutation(m + ell + 1)]
    ),
}


@settings(max_examples=120, deadline=None)
@given(
    scheme=st.sampled_from(FRESH_SCHEMES),
    layout=st.sampled_from(sorted(XOR_LAYOUTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_xor_register_encryption_matches_the_type1_table(scheme, layout, seed):
    rng = np.random.default_rng(seed)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    n, message, response = XOR_LAYOUTS[layout](m, ell, rng)
    message, response = tuple(message), tuple(response)
    key = scheme.gen(rng)
    r = int(rng.integers(2**scheme.randomness_bits))
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = StateVector(n, vec / np.linalg.norm(vec))
    got = xor_encrypt_register(scheme, key, r, state, message, response)
    u1 = type1_unitary(scheme, key, r)
    want = apply_basis_permutation(u1.permutation, state, message + response)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert np.array_equal(u1.apply(state, message + response).amplitudes, want.amplitudes)


@pytest.mark.parametrize(
    "enc",
    [
        lambda key, r, x: np.asarray(x) + 6,  # leaves three bits
        lambda key, r, x: np.asarray(x) - 1,  # negative: must not wrap as an index
    ],
    ids=["too-wide", "negative"],
)
def test_xor_register_encryption_refuses_an_enc_outside_ell_bits(enc):
    with pytest.raises(ValueError, match="Enc leaves 3 bits"):
        xor_encrypt_register(_hand_built(enc), 0, 0, zero_state(5), (0, 1), (2, 3, 4))


def test_xor_register_encryption_takes_a_colliding_enc():
    # an XOR lift is a permutation whatever f is: Enc need not be injective
    scheme = _hand_built(lambda key, r, x: np.asarray(x) >> 1)
    state = StateVector(5, np.full(32, 32**-0.5))
    got = xor_encrypt_register(scheme, 0, 1, state, (4, 0), (1, 3, 2))
    want = apply_basis_permutation(type1_unitary(scheme, 0, 1).permutation, state, (4, 0, 1, 3, 2))
    assert np.array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize(
    "message,response,match",
    [
        ((0,), (1, 2, 3), "expected 2 wires, got 1"),
        ((0, 1), (2, 3), "expected 3 wires, got 2"),
        ((0, 1), (1, 2, 3), "distinct"),
        ((0, 1), (2, 3, 5), "out of range"),
    ],
)
def test_xor_register_encryption_refuses_bad_wires(message, response, match):
    scheme = _hand_built(lambda key, r, x: np.asarray(x) << 1)
    with pytest.raises(ValueError, match=match):
        xor_encrypt_register(scheme, 0, 0, zero_state(5), message, response)


def test_fresh_register_encryption_refuses_bad_randomness():
    with pytest.raises(ValueError, match="randomness 4 out of range"):
        encrypt_fresh_register(prf_scheme(2, 2), 0, 4, zero_state(2), (0, 1))


@pytest.mark.parametrize("layout", ["contiguous", "shuffled"])
def test_apply_is_apply_basis_permutation(layout):
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    key = keys_for(scheme, 1)[0]
    u1, u2 = type1_unitary(scheme, key, 1), type2_unitary(scheme, key, 1)
    u1_dec = type1_decryption_unitary(scheme, key)
    lifts = (u1, u1.adjoint(), u1_dec, u2, u2.adjoint(), type2_from_type1(u1, u1_dec))
    kinds = ["type1", "type1-adjoint", "type1-dec", "type2", "type2-adjoint", "type2"]
    assert [u.kind for u in lifts] == kinds
    rng = np.random.default_rng(12)
    for u in lifts:
        n = u.num_wires + 1
        shuffled = tuple(int(w) for w in rng.permutation(n)[1:])
        wires = tuple(range(1, n)) if layout == "contiguous" else shuffled
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, vec / np.linalg.norm(vec))
        want = apply_basis_permutation(u.permutation, state, wires)
        assert np.array_equal(u.apply(state, wires).amplitudes, want.amplitudes)


@pytest.mark.parametrize("r", [1.5, np.float64(1.0), "1", None])
def test_encryption_steps_refuse_non_integer_randomness(r):
    scheme = prf_scheme(2, 2)
    with pytest.raises(ValueError, match="is not an integer"):
        xor_encrypt_register(scheme, 0, r, zero_state(6), (0, 1), (2, 3, 4, 5))
    with pytest.raises(ValueError, match="is not an integer"):
        encrypt_fresh_register(scheme, 0, r, zero_state(2), (0, 1))


def test_encryption_steps_take_numpy_integer_randomness():
    scheme, state = prf_scheme(2, 2), StateVector(6, np.full(64, 0.125))
    for r in (np.int64(3), np.uint8(3)):
        for step in (
            lambda r: xor_encrypt_register(scheme, 6, r, state, (0, 1), (2, 3, 4, 5)),
            lambda r: encrypt_fresh_register(scheme, 6, r, state, (4, 1))[0],
        ):
            assert np.array_equal(step(r).amplitudes, step(3).amplitudes)


_WIRE_STATE = StateVector(4, np.arange(1, 17) / np.linalg.norm(np.arange(1, 17)))
_WIRE_SCHEME = prf_scheme(1, 1)

# (operation, int wires): every call reads its wires through one check
_WIRE_CALLS = {
    "apply_unitary": (lambda w, rng: apply_unitary(hadamard_all(2), _WIRE_STATE, w), (2, 1)),
    "apply_basis_permutation": (
        lambda w, rng: apply_basis_permutation([1, 2, 3, 0], _WIRE_STATE, w),
        (1, 3),
    ),
    "EncryptionUnitary.apply": (
        lambda w, rng: type1_unitary(_WIRE_SCHEME, 0, 1).apply(_WIRE_STATE, w),
        (3, 1, 0),
    ),
    "measure_computational": (lambda w, rng: measure_computational(_WIRE_STATE, w, rng), (1,)),
    "measure_and_remove": (lambda w, rng: measure_and_remove(_WIRE_STATE, w, rng), (1, 2)),
    "partial_trace": (lambda w, rng: partial_trace(_WIRE_STATE.to_density(), w), (1, 3)),
    "embed_unitary": (lambda w, rng: embed_unitary(hadamard_all(1), 3, w), (1,)),
    "xor_encrypt_register": (
        lambda w, rng: xor_encrypt_register(_WIRE_SCHEME, 0, 1, _WIRE_STATE, w[:1], w[1:]),
        (0, 3, 1),
    ),
    "encrypt_fresh_register": (
        lambda w, rng: encrypt_fresh_register(_WIRE_SCHEME, 0, 1, _WIRE_STATE, w),
        (1,),
    ),
}


def _values(result):
    """The arrays and strings a call returns, in order."""
    if isinstance(result, tuple):
        return [v for part in result for v in _values(part)]
    for attr in ("amplitudes", "matrix"):
        if hasattr(result, attr):
            return [getattr(result, attr)]
    return [result]


@pytest.mark.parametrize("as_float", [float, np.float64])
@pytest.mark.parametrize("operation", sorted(_WIRE_CALLS))
def test_float_wires_are_refused_and_numpy_integer_wires_are_plain(operation, as_float):
    call, wires = _WIRE_CALLS[operation]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="is not an integer"):
        call((as_float(wires[0]),) + wires[1:], rng)
    assert rng.bit_generator.state == before
    want = _values(call(wires, np.random.default_rng(5)))
    got = _values(call(tuple(map(np.int64, wires)), np.random.default_rng(5)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_type2_unitary_needs_a_declared_completion():
    scheme = replace(prf_scheme(1, 1), type2_completion=None)
    with pytest.raises(ValueError, match="declares no type-2 completion"):
        type2_unitary(scheme, 0, 0)


def test_type2_unitary_refuses_a_completion_that_disagrees_with_enc():
    # a cyclic shift is a permutation of the cipher space, but not Enc on |x, 0>
    scheme = replace(prf_scheme(1, 1), type2_completion=lambda key, r, z: (np.asarray(z) + 1) % 4)
    with pytest.raises(ValueError, match="completion disagrees with Enc on y=0 inputs"):
        type2_unitary(scheme, 0, 0)


def _refused_peak(build) -> int:
    """Peak bytes traced while ``build`` raises ValueError for the wire cap."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap of 14"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lift_builders_refuse_a_width_past_the_cap_before_they_allocate():
    # the first width past 14 wires: built, each table would hold 2^15 or 2^16
    # entries, and type2_from_type1 would index 2^(2 ell) of them
    past = prf_scheme(4, 7)  # m + ell = 15
    assert past.message_bits + past.ciphertext_bits == 15
    wide = prf_scheme(7, 8)  # ell = 15
    small = prf_scheme(4, 4)  # 2 ell = 16
    u1, dec = type1_unitary(small, 1, 2), type1_decryption_unitary(small, 1)
    builds = {
        "type1_unitary": lambda: type1_unitary(past, 1, 2),
        "type1_decryption_unitary": lambda: type1_decryption_unitary(past, 1),
        "type2_unitary": lambda: type2_unitary(wide, 1, 2),
        "type2_from_type1": lambda: type2_from_type1(u1, dec),
    }
    peaks = {name: _refused_peak(build) for name, build in builds.items()}
    assert all(peak < 64 * 1024 for peak in peaks.values()), peaks
