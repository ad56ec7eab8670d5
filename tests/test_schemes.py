"""Classical scheme constructions: roundtrips, structure, core decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qindlab import games, oracles, schemes
from qindlab.quantum_core import WIRE_CAP
from qindlab.schemes import (
    ClassicalScheme,
    block_scheme,
    constant_prf,
    feistel_prp_family,
    ideal_prp_family,
    identity_permutation_family,
    is_quasi_length_preserving,
    prf_scheme,
    prp_scheme,
    toy_prf,
)

RNG = np.random.default_rng(1234)


def exhaustive_roundtrip(scheme: ClassicalScheme, key) -> None:
    for r in range(2**scheme.randomness_bits):
        for x in range(2**scheme.message_bits):
            c = int(scheme.enc(key, r, x))
            assert 0 <= c < 2**scheme.ciphertext_bits
            assert int(scheme.dec(key, c)) == x


def test_prf_scheme_roundtrip():
    scheme = prf_scheme(2, 2)
    for _ in range(4):
        exhaustive_roundtrip(scheme, scheme.gen(RNG))


def test_prp_scheme_roundtrip():
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    for _ in range(4):
        exhaustive_roundtrip(scheme, scheme.gen(RNG))


def test_block_scheme_roundtrip():
    scheme = block_scheme(prp_scheme(1, 2, ideal_prp_family(3)), 2)
    exhaustive_roundtrip(scheme, scheme.gen(RNG))


def test_prf_ciphertext_carries_randomness_prefix():
    scheme = prf_scheme(2, 2)
    key = scheme.gen(RNG)
    for r in range(4):
        for x in range(4):
            c = int(scheme.enc(key, r, x))
            assert c >> scheme.message_bits == r


@pytest.mark.parametrize(
    "scheme,qlp",
    [
        (prf_scheme(2, 3), True),
        (prp_scheme(2, 0, ideal_prp_family(2)), True),
        (prp_scheme(2, 1, ideal_prp_family(3)), False),
        (block_scheme(prf_scheme(2, 1), 1), True),
        (block_scheme(prp_scheme(1, 0, ideal_prp_family(1)), 2), False),
    ],
    ids=["prf", "prp-tau0", "prp-tau1", "block-mu1", "block-mu2"],
)
def test_quasi_length_preserving_enc_is_randomness_then_a_core_bijection(scheme, qlp):
    assert is_quasi_length_preserving(scheme) == qlp == (scheme.core_bits == scheme.message_bits)
    if not qlp:
        return
    m, tau = scheme.message_bits, scheme.randomness_bits
    x = np.arange(2**m)
    for key in {scheme.gen(np.random.default_rng(seed)) for seed in range(3)}:
        for r in range(2**tau):
            cipher = np.asarray(scheme.enc(key, r, x))
            assert np.all(cipher >> m == r)
            assert sorted((cipher & (2**m - 1)).tolist()) == x.tolist()


def test_prp_with_randomness_has_no_core():
    scheme = prp_scheme(2, 1, ideal_prp_family(3))
    assert scheme.core_bits is None
    assert not is_quasi_length_preserving(scheme)


def test_prf_scheme_is_quasi_length_preserving():
    assert is_quasi_length_preserving(prf_scheme(3, 1))


def test_block_scheme_has_no_core():
    scheme = block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2)
    assert scheme.core_bits is None


def test_ideal_family_is_deterministic_per_key():
    fam = ideal_prp_family(4)
    a = [fam.forward(9, x) for x in range(16)]
    b = [fam.forward(9, x) for x in range(16)]
    assert a == b
    assert sorted(a) == list(range(16))


def test_ideal_family_keys_give_distinct_tables():
    fam = ideal_prp_family(4)
    tables = {tuple(fam.forward(k, x) for x in range(16)) for k in range(6)}
    assert len(tables) == 6


@pytest.mark.parametrize("bits", [9, 10, 14])
def test_wide_ideal_family_is_an_explicit_bijection(bits):
    fam = ideal_prp_family(bits)
    key = int(np.random.default_rng(bits).integers(2**fam.key_bits))
    domain = np.arange(2**bits)
    image = np.asarray(fam.forward(key, domain))
    assert np.array_equal(np.sort(image), domain)
    assert np.array_equal(np.asarray(fam.inverse(key, image)), domain)
    # the table depends on the key alone, not on the cache or the query order
    schemes._ideal_table.cache_clear()
    again = np.asarray(fam.forward(key, domain[::-1]))[::-1]
    assert np.array_equal(again, image)
    assert [fam.forward(key, int(x)) for x in domain[-4:][::-1]] == image[-4:][::-1].tolist()


def test_ideal_family_stops_at_the_wire_cap():
    with pytest.raises(ValueError):
        ideal_prp_family(WIRE_CAP + 1)


def test_feistel_family_is_a_permutation():
    fam = feistel_prp_family(4, rounds=4)
    for key in (0, 1, 77):
        image = [fam.forward(key, x) for x in range(16)]
        assert sorted(image) == list(range(16))
        for x in range(16):
            assert fam.inverse(key, fam.forward(key, x)) == x


def test_identity_family_maps_everything_to_itself():
    fam = identity_permutation_family(3)
    assert all(fam.forward(0, x) == x for x in range(8))


def test_constant_prf_ignores_input():
    f = constant_prf(2, 2)
    assert all(f(0, r) == 0 for r in range(4))


def test_toy_prf_is_key_and_input_deterministic():
    f = toy_prf(3, 2)
    table = [f(42, r) for r in range(8)]
    assert table == [f(42, r) for r in range(8)]
    assert all(0 <= v < 4 for v in table)


def test_prf_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width mismatch"):
        prf_scheme(2, 2, prf=toy_prf(3, 2))


def test_block_scheme_dimensions_scale_with_mu():
    base = prp_scheme(1, 2, ideal_prp_family(3))
    blocks = block_scheme(base, 3)
    assert blocks.message_bits == 3
    assert blocks.randomness_bits == 6
    assert blocks.ciphertext_bits == 9


def test_block_scheme_encrypts_blocks_independently():
    base = prp_scheme(1, 1, ideal_prp_family(2))
    blocks = block_scheme(base, 2)
    key = blocks.gen(RNG)
    for r0 in range(2):
        for r1 in range(2):
            r = (r0 << 1) | r1
            for x0 in range(2):
                for x1 in range(2):
                    x = (x0 << 1) | x1
                    c = int(blocks.enc(key, r, x))
                    c0, c1 = c >> 2, c & 3
                    assert c0 == int(base.enc(key, r0, x0))
                    assert c1 == int(base.enc(key, r1, x1))


@given(
    m=st.integers(1, 3),
    tau=st.integers(1, 3),
    key=st.integers(0, 2**16 - 1),
    r=st.integers(0, 7),
    x=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_prf_scheme_roundtrip_property(m, tau, key, r, x):
    scheme = prf_scheme(m, tau)
    r %= 2**tau
    x %= 2**m
    assert int(scheme.dec(key, scheme.enc(key, r, x))) == x


@given(
    m=st.integers(1, 3),
    tau=st.integers(0, 3),
    key=st.integers(0, 2**16 - 1),
    r=st.integers(0, 7),
    x=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_feistel_prp_scheme_roundtrip_property(m, tau, key, r, x):
    if (m + tau) % 2:
        tau += 1  # feistel blocks are even-width
    scheme = prp_scheme(m, tau, feistel_prp_family(m + tau, rounds=4))
    r %= max(1, 2**tau)
    x %= 2**m
    assert int(scheme.dec(key, scheme.enc(key, r, x))) == x


def test_gen_draws_varied_16_bit_keys():
    scheme = prf_scheme(2, 1)
    keys = {int(scheme.gen(np.random.default_rng(i))) for i in range(32)}
    assert all(0 <= k < 2**16 for k in keys)
    assert len(keys) > 1


def test_prf_completion_table_matches_its_scalar_form_and_keeps_its_input():
    m, tau = 3, 4
    scheme, prf = prf_scheme(m, tau), toy_prf(tau, m)
    z = np.arange(2 ** (m + tau))
    before = z.copy()
    for key in (0, 5):
        for r in (0, 9):
            table = scheme.type2_completion(key, r, z)
            assert np.array_equal(z, before)
            x, rp = z >> tau, (z & (2**tau - 1)) ^ r
            assert np.array_equal(table, (rp << m) | (prf(key, rp) ^ x))
            scalars = [scheme.type2_completion(key, r, int(v)) for v in z]
            assert all(type(c) is int for c in scalars)
            assert scalars == table.tolist()


def test_key_tables_are_the_ones_the_listed_seed_words_draw():
    keys = [0, 1, 2**16 - 1, *np.random.default_rng(7).integers(2**16, size=40).tolist()]
    for key in keys:
        for input_bits, output_bits in ((1, 1), (5, 3), (8, 6)):
            drawn = np.random.default_rng([0x7F52, key, input_bits, output_bits])
            expected = drawn.integers(0, 2**output_bits, size=2**input_bits, dtype=np.int64)
            assert np.array_equal(schemes._prf_table(key, input_bits, output_bits), expected)
    for key in [*keys, 2**32 - 1, *np.random.default_rng(8).integers(2**32, size=20).tolist()]:
        for block_bits in (2, 10):
            expected = np.random.default_rng([0x1DEA, key, block_bits]).permutation(2**block_bits)
            assert np.array_equal(schemes._ideal_table(key, block_bits), expected)


_PRF, _IDEAL, _FEISTEL, _PRF_SCHEME = (
    toy_prf(2, 2), ideal_prp_family(4), feistel_prp_family(4), prf_scheme(2, 2)
)
# a call with a key, its key bits, and the table cache the call reads
_KEYED_CALLS = {
    "toy_prf": (lambda k: _PRF(k, 0), 16, schemes._prf_table),
    "prf_scheme.enc": (lambda k: _PRF_SCHEME.enc(k, 1, 2), 16, schemes._prf_table),
    "ideal.forward": (lambda k: _IDEAL.forward(k, 3), 32, schemes._ideal_table),
    "ideal.inverse": (lambda k: _IDEAL.inverse(k, 3), 32, schemes._ideal_inverse),
    "feistel.forward": (lambda k: _FEISTEL.forward(k, 3), 16, schemes._prf_table),
    "feistel.inverse": (lambda k: _FEISTEL.inverse(k, 3), 16, schemes._prf_table),
}


@pytest.mark.parametrize("name", list(_KEYED_CALLS))
def test_keys_are_checked_before_any_table_is_built(name):
    call, key_bits, cache = _KEYED_CALLS[name]
    for bad in (1.5, np.float64(1.0), "1", -1, 2**key_bits):
        misses = cache.cache_info().misses
        with pytest.raises(ValueError, match="key"):
            call(bad)
        assert cache.cache_info().misses == misses
    # numpy integer keys play like ints and share their tables
    expected = call(5)
    misses = cache.cache_info().misses
    assert call(np.int64(5)) == expected and call(np.uint16(5)) == expected
    assert cache.cache_info().misses == misses


_FAMILIES = {
    "ideal": ideal_prp_family(4),
    "feistel": feistel_prp_family(4),
    "identity": identity_permutation_family(4),
}
_SCHEMES = {
    "prf": prf_scheme(2, 2),
    **{f"prp-{name}": prp_scheme(2, 2, fam) for name, fam in _FAMILIES.items()},
    "block": block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2),
}


def _entries():
    """(id, call, valid inputs, (bits, name) of each input) for every public entry."""
    for name, s in _SCHEMES.items():
        m, tau, ell = s.message_bits, s.randomness_bits, s.ciphertext_bits
        yield f"{name}.enc", s.enc, (1, 2), ((tau, "randomness"), (m, "plaintext"))
        yield f"{name}.dec", s.dec, (3,), ((ell, "ciphertext"),)
        completion = ((tau, "randomness"), (ell, "completion input"))
        yield f"{name}.completion", s.type2_completion, (1, 3), completion
    for name, fam in _FAMILIES.items():
        yield f"{name}.forward", fam.forward, (3,), ((4, "block"),)
        yield f"{name}.inverse", fam.inverse, (3,), ((4, "block"),)
    yield "toy_prf", toy_prf(2, 2), (3,), ((2, "prf input"),)
    yield "constant_prf", constant_prf(2, 2), (3,), ((2, "prf input"),)


_ENTRIES = {entry[0]: entry[1:] for entry in _entries()}
_TABLE_CACHES = (schemes._prf_table, schemes._ideal_table, schemes._ideal_inverse)


_KEYLESS = ("prp-identity.", "identity.", "constant_prf")


@pytest.mark.parametrize("name", list(_ENTRIES))
def test_every_entry_refuses_inputs_outside_the_integers_in_range(name):
    call, valid, specs = _ENTRIES[name]
    key = 0 if name.startswith(_KEYLESS) else 7
    for i, (bits, what) in enumerate(specs):
        top = 2**bits
        for bad in (
            np.arange(top + 1),
            np.array([0, -1]),
            np.array([[0, 1], [top, 0]]),
            top,
            -1,
            1.5,
            np.float64(1.0),
            np.zeros(2),
            np.ones(top, dtype=bool),
        ):
            for cache in _TABLE_CACHES:
                cache.cache_clear()
            inputs = list(valid)
            inputs[i] = bad
            with pytest.raises(ValueError, match=what):
                call(key, *inputs)
            assert all(cache.cache_info().currsize == 0 for cache in _TABLE_CACHES)
    # ints in, int out; an in-range array in, the array of those ints out
    assert type(call(key, *valid)) is int
    arrays = [np.full(3, v) for v in valid]
    assert call(key, *arrays).tolist() == [call(key, *valid)] * 3
    assert call(key, *[a.astype(np.uint8) for a in arrays]).tolist() == [call(key, *valid)] * 3


def test_a_table_build_checks_each_input_once(monkeypatch):
    calls = []

    def counted(value, bits, what, _fn=schemes._indices):
        calls.append(what)
        return _fn(value, bits, what)

    monkeypatch.setattr(schemes, "_indices", counted)

    def checks(step):
        calls.clear()
        step()
        return sorted(calls)

    for name in ("prf", "prp-ideal", "prp-feistel"):
        scheme = _SCHEMES[name]
        assert checks(lambda: oracles._enc_table(scheme, 5, 1)) == ["plaintext", "randomness"]
    learning = games.Type1LearningOracle(_SCHEMES["prf"], 5, np.random.default_rng(0))
    assert checks(lambda: learning.query_classical(2)) == ["plaintext", "randomness"]
    # a block scheme re-checks each block's slices in its base's public entries
    assert len(checks(lambda: oracles._enc_table(_SCHEMES["block"], 5, 1))) == 2 + 2 * 2
    x = np.arange(16)
    cores = [toy_prf(4, 2).evaluate, *(f.forward_core for f in _FAMILIES.values())]
    cores += [f.inverse_core for f in _FAMILIES.values()]
    for core in cores:
        assert checks(lambda: core(5, x)) == []


def test_keyless_families_take_key_zero_only():
    # each returned a value for any key, a string or None included
    for call in (
        lambda: identity_permutation_family(3).forward("abc", 1),
        lambda: prp_scheme(2, 1, identity_permutation_family(3)).enc(-7, 0, 1),
        lambda: prf_scheme(2, 2, constant_prf(2, 2)).enc(None, 1, 1),
        lambda: constant_prf(2, 2)(1, 3),
        lambda: identity_permutation_family(3).inverse(1, 1),
    ):
        with pytest.raises(ValueError, match="key"):
            call()
    assert identity_permutation_family(3).forward(np.int64(0), 5) == 5
    assert constant_prf(2, 2)(0, 3) == 0


@pytest.mark.parametrize("name", list(_SCHEMES))
def test_every_scheme_entry_checks_the_key_against_its_key_space(name):
    s = _SCHEMES[name]
    entries = (
        lambda k: s.enc(k, 1, 2),
        lambda k: s.dec(k, 3),
        lambda k: s.type2_completion(k, 1, 3),
    )
    for entry in entries:
        for bad in (s.key_space, -1, 1.5, "1", None):
            with pytest.raises(ValueError, match="key"):
                entry(bad)
        assert entry(np.int64(s.key_space - 1)) == entry(s.key_space - 1)
    keys = [s.gen(np.random.default_rng(seed)) for seed in range(16)]
    assert all(type(k) is int and 0 <= k < s.key_space for k in keys)


# seed 2424: the key gen draws, then the Generator's PCG64 state word,
# has_uint32 and uinteger after the draw
_GEN_DRAWS = {
    "prf": (prf_scheme(2, 2), (18024, 129241938942159403742249005449327455136, 1, 2428595278)),
    "prf-constant": (
        prf_scheme(2, 2, constant_prf(2, 2)),
        (0, 129241938942159403742249005449327455136, 1, 2428595278),
    ),
    "prp-ideal": (
        prp_scheme(2, 1, ideal_prp_family(3)),
        (1181244415, 129241938942159403742249005449327455136, 1, 2428595278),
    ),
    "prp-feistel": (
        prp_scheme(2, 2, feistel_prp_family(4)),
        (18024, 129241938942159403742249005449327455136, 1, 2428595278),
    ),
    "prp-identity": (
        prp_scheme(2, 1, identity_permutation_family(3)),
        (0, 261264053305585850669550908998420226575, 0, 0),
    ),
    "block": (
        block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2),
        (1181244415, 129241938942159403742249005449327455136, 1, 2428595278),
    ),
}


@pytest.mark.parametrize("name", list(_GEN_DRAWS))
def test_gen_draws_are_pinned(name):
    scheme, expected = _GEN_DRAWS[name]
    rng = np.random.default_rng(2424)
    key = scheme.gen(rng)
    state = rng.bit_generator.state
    assert (key, state["state"]["state"], state["has_uint32"], state["uinteger"]) == expected
