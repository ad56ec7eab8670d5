"""Every array the package freezes stays frozen: numpy refuses to make it
writeable again, so a cached state or table shared by many callers cannot be
changed through one of them."""

import numpy as np
import pytest

from qindlab import games, oracles, schemes
from qindlab.attacks import bz_adversary, qlp_distinguisher
from qindlab.channels import avg_permutation_channel, constant_mixed_channel
from qindlab.quantum_core import (
    H,
    StateVector,
    _freeze,
    _measure_block,
    append_wires,
    apply_unitary,
    hadamard_all,
    run_gates,
)
from qindlab.schemes import prf_scheme


def _frozen_arrays():
    """(name, array) for every kind of array the package freezes."""
    scheme = prf_scheme(2, 2)
    plus = run_gates(3, (H(0), H(2)))
    yield "StateVector", StateVector(1, np.array([1.0, 0.0])).amplitudes
    yield "run_gates", run_gates(2, ()).amplitudes
    yield "run_gates with gates", plus.amplitudes
    for game in ("fqind", "gqind"):
        yield f"_template {game}", games._template(bz_adversary(), game, 2, 4).state.amplitudes
    yield "apply_unitary", apply_unitary(hadamard_all(1), plus, (1,)).amplitudes
    yield "append_wires", append_wires(plus, 1).amplitudes
    outcome, removed, cdf, probs = _measure_block(plus, (0,), np.random.default_rng(0), True)
    yield "measured cdf", cdf
    yield "measured probabilities", probs
    yield "measured state", removed.amplitudes
    yield "collapsed state", _measure_block(plus, (2,), np.random.default_rng(0))[1].amplitudes
    yield "_prf_table", schemes._prf_table(5, 2, 2)
    yield "_ideal_table", schemes._ideal_table(5, 3)
    yield "_ideal_inverse", schemes._ideal_inverse(5, 3)
    yield "_plaintexts", schemes._plaintexts(3)
    yield "_untested_index", games._untested_index(3, 3, (1,))
    fqind = bz_adversary().template(scheme, "fqind")
    plain, hi, select = games._fqind_plan(fqind.state, tuple(range(8)), 2, 4, (0, 1))
    yield from (("plan amplitudes", plain), ("plan index", hi))
    yield from ((f"plan selector {b}", s) for b, s in enumerate(select))
    yield "type1 permutation", oracles.type1_unitary(scheme, 1, 2).permutation
    yield "type2 permutation", oracles.type2_unitary(scheme, 1, 2).permutation
    yield "adjoint permutation", oracles.type2_unitary(scheme, 1, 2).adjoint().permutation
    for wires in ((0, 1, 2, 3, 4, 5), (0, 1, 4, 5, 6, 7), (5, 4, 3, 2, 1, 0)):
        yield f"_xor_plan {wires}", oracles._xor_plan(8, 2, wires)[0]
    for i, table in enumerate(oracles._fresh_layout(3, (0, 2, 3))):
        yield f"_fresh_layout {i}", table
    yield "xor_encrypt_register", oracles.xor_encrypt_register(
        scheme, 1, 2, fqind.state, (2, 3), (4, 5, 6, 7)
    ).amplitudes
    pair = qlp_distinguisher().template(scheme, "gqind")
    yield "encrypt_fresh_register", oracles.encrypt_fresh_register(
        scheme, 1, 2, pair.state, (0, 1)
    )[0].amplitudes
    for channel in (
        avg_permutation_channel(1, 1, (1,)),
        constant_mixed_channel(1, 1, (1,)),
        avg_permutation_channel(1, 2, (), n_perm=20, rng=np.random.default_rng(1)),
    ):
        yield f"{channel.kind} pair_table", channel.pair_table
    diagonal, off = avg_permutation_channel(1, 1)._closed_form_images
    yield from (("closed-form diagonal", diagonal), ("closed-form off-diagonal", off))


_ARRAYS = list(_frozen_arrays())


@pytest.mark.parametrize("name, arr", _ARRAYS, ids=[name for name, _ in _ARRAYS])
def test_a_frozen_array_cannot_be_made_writeable(name, arr):
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr.setflags(write=True)
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


def test_a_shared_cached_state_keeps_its_amplitudes():
    # run_gates hands every caller one state; a writeable flag set by one
    # caller would change it for all
    zero = run_gates(2, ())
    with pytest.raises(ValueError):
        zero.amplitudes.setflags(write=True)
    assert run_gates(2, ()) is zero
    assert zero.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_freeze_covers_the_array_and_its_base():
    base = np.arange(8)
    frozen = _freeze(base.reshape(2, 4)[:, 1:])
    for arr in (frozen, base):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        frozen.setflags(write=True)
    assert frozen.tolist() == [[1, 2, 3], [5, 6, 7]]
