"""What a Hadamard-test trial builds once and reads many times: the fqind
weigh step's plan per template, and the frozen plaintexts Enc's table is
built from."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qindlab import games, oracles
from qindlab.attacks import SuperpositionMaskAttack, bz_adversary
from qindlab.games import (
    WEIGH_STEPS,
    FqindChallenge,
    GameSetupError,
    _challenge_fqind,
    _check_fqind,
    estimate_advantage,
    run_fqind_qcpa,
)
from qindlab.quantum_core import StateVector, random_pure_bipartite
from qindlab.schemes import (
    ClassicalScheme,
    _indices,
    _plaintexts,
    block_scheme,
    constant_prf,
    feistel_prp_family,
    identity_permutation_family,
    ideal_prp_family,
    prf_scheme,
    prp_scheme,
)

from dense_reference import zero_weight


def test_a_run_of_trials_builds_one_plan():
    games._fqind_plan.cache_clear()
    estimate_advantage(run_fqind_qcpa, prf_scheme(3, 5), bz_adversary(), 200, 4)
    info = games._fqind_plan.cache_info()
    assert (info.misses, info.hits) == (1, 199)


def test_an_fqind_plan_indexes_the_plaintext_pair_alone(monkeypatch):
    # prf(3, 5): the pair's 2m = 6 wires, not the template's 14
    built, cached = [], games._untested_index

    def recorded(*args):
        index = cached(*args)
        built.append(index.size)
        return index

    monkeypatch.setattr(games, "_untested_index", recorded)
    games._fqind_plan.cache_clear()
    estimate_advantage(run_fqind_qcpa, prf_scheme(3, 5), bz_adversary(), 20, 4)
    assert built == [2**6]


def _colliding_scheme(m: int) -> ClassicalScheme:
    """Enc_k(x; r) = (x >> 1) ^ k ^ r into m + 1 bits: two plaintexts per
    ciphertext, so the plan's groups meet Enc values that collide."""
    return ClassicalScheme(
        name=f"colliding[m={m}]",
        message_bits=m,
        randomness_bits=1,
        ciphertext_bits=m + 1,
        key_space=2,
        gen=lambda rng: int(rng.integers(2)),
        enc=lambda key, r, x: (x >> 1) ^ key ^ r,
        dec=lambda key, y: y,
    )


def _templates(scheme, rng):
    """bz's template and a complex one in the same layout."""
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    zero = np.zeros(2**ell)
    zero[0] = 1.0
    pair = random_pure_bipartite(m, m, rng)
    complex_state = StateVector(2 * m + ell, np.kron(pair.amplitudes, zero))
    registers = tuple(range(m)), tuple(range(m, 2 * m)), tuple(range(2 * m, 2 * m + ell))
    return bz_adversary().template(scheme, "fqind"), FqindChallenge(complex_state, *registers)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_plan_weights_match_the_dense_reference(m):
    rng = np.random.default_rng(290 + m)
    subsets = [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]
    for scheme in (prf_scheme(m, 2), _colliding_scheme(m)):
        for template in _templates(scheme, rng):
            _check_fqind(scheme, template)
            for key, r, b, tested in itertools.product((0, 1), (0, 1), (0, 1), subsets):
                got = WEIGH_STEPS["fqind"](scheme, key, template, b, r, None, tested)
                response = _challenge_fqind(scheme, key, template, b, r, None)
                want = zero_weight(response, tested)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (scheme.name, key, r, b)


def test_a_malformed_template_is_refused_on_every_trial():
    scheme = prf_scheme(2, 1)
    fixed = bz_adversary().template(scheme, "fqind")
    state = fixed.state
    occupied = StateVector(state.num_wires, np.roll(state.amplitudes, 1))
    reg0, reg1, resp = fixed.message0_wires, fixed.message1_wires, fixed.response_wires
    malformed = FqindChallenge(occupied, reg0, reg1, resp), FqindChallenge(state, reg1, reg0, resp)
    for bad in malformed:

        class Malformed(SuperpositionMaskAttack):
            name = "malformed"

            def start(self, scheme, rng, _bad=bad):
                trial = super().start(scheme, rng)
                trial.fqind_template = lambda: _bad
                return trial

        for seed in (0, 1):
            with pytest.raises(GameSetupError, match="weigh steps read"):
                run_fqind_qcpa(scheme, Malformed(), np.random.default_rng(seed))


_SHIPPED = (
    prf_scheme(2, 2),
    prf_scheme(3, 1),
    prp_scheme(2, 2, ideal_prp_family(4)),
    prp_scheme(2, 2, feistel_prp_family(4)),
    prp_scheme(2, 1, identity_permutation_family(3)),
    prp_scheme(2, 0, ideal_prp_family(2)),
    block_scheme(prf_scheme(1, 2), 2),
    block_scheme(prp_scheme(1, 1, ideal_prp_family(2)), 2),
    prf_scheme(2, 2, constant_prf(2, 2)),
)


@pytest.mark.parametrize("scheme", _SHIPPED, ids=[s.name for s in _SHIPPED])
def test_enc_tables_from_the_frozen_plaintexts_match_a_fresh_arange(scheme):
    m = scheme.message_bits
    keys = (3, 11) if scheme.key_space > 11 else range(min(2, scheme.key_space))
    for key, r in itertools.product(keys, range(min(2, 2**scheme.randomness_bits))):
        table = oracles._enc_table(scheme, key, r)
        assert table.tolist() == scheme.enc(key, r, np.arange(2**m)).tolist()
        assert table.tolist() == [scheme.enc(key, r, x) for x in range(2**m)]


def test_the_frozen_plaintexts_pass_unchecked_only_at_their_own_width():
    scheme = prf_scheme(2, 2)
    assert _indices(_plaintexts(2), 2, "plaintext") is _plaintexts(2)
    with pytest.raises(ValueError, match="out of range"):
        _indices(_plaintexts(3), 2, "plaintext")
    with pytest.raises(ValueError, match="out of range"):
        scheme.enc(1, 1, _plaintexts(3))
    for bad in (4, -1):
        copy = _plaintexts(2).copy()
        copy[-1] = bad
        assert copy.flags.writeable
        with pytest.raises(ValueError, match="out of range"):
            scheme.enc(1, 1, copy)


def _traced_peak(step) -> int:
    """Bytes the step holds at its peak beyond what it started with; a first
    call warms every cache the step reads."""
    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_hadamard_test_runs_keep_flat_memory():
    scheme, bz = prf_scheme(3, 2), bz_adversary()
    small, large = (
        _traced_peak(lambda: estimate_advantage(run_fqind_qcpa, scheme, bz, trials, 7))
        for trials in (500, 5_000)
    )
    assert large <= small + 64 * 1024, (small, large)
