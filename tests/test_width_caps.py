"""Every public builder that takes a width refuses its first width past the
cap before it allocates: 14 wires for states, lifts, families and channels,
10 for dense matrices, 8 input bits for the toy PRF."""

import tracemalloc

import numpy as np
import pytest

from qindlab.channels import avg_permutation_channel, constant_mixed_channel
from qindlab.oracles import (
    EncryptionUnitary,
    type1_decryption_unitary,
    type1_unitary,
    type2_unitary,
)
from qindlab.quantum_core import (
    StateDescription,
    StateVector,
    append_wires,
    build_state,
    hadamard_all,
    maximally_entangled,
    random_pure_bipartite,
    run_gates,
    state_from_bits,
    zero_state,
)
from qindlab.schemes import feistel_prp_family, ideal_prp_family, prf_scheme, toy_prf

# builder -> (the builder, its arguments at the first width past its cap);
# the arguments are built outside the measured call
BUILDERS = {
    # states: 15 wires; the maximally entangled state has 2m of them
    "zero_state": (zero_state, lambda: (15,)),
    "state_from_bits": (state_from_bits, lambda: ("0" * 15,)),
    "append_wires": (append_wires, lambda: (zero_state(1), 14)),
    "run_gates": (run_gates, lambda: (15, ())),
    "maximally_entangled": (maximally_entangled, lambda: (8,)),
    "random_pure_bipartite": (random_pure_bipartite, lambda: (1, 14, np.random.default_rng(0))),
    # dense matrices: 11 wires
    "StateVector.to_density": (StateVector.to_density, lambda: (zero_state(11),)),
    "build_state": (build_state, lambda: (StateDescription(11),)),
    "hadamard_all": (hadamard_all, lambda: (11,)),
    "EncryptionUnitary.operator": (
        EncryptionUnitary.operator,
        lambda: (type1_unitary(prf_scheme(3, 5), 0, 0),),
    ),
    # lifts: m + ell = 15, or ell = 15
    "type1_unitary": (type1_unitary, lambda: (prf_scheme(4, 7), 1, 2)),
    "type1_decryption_unitary": (type1_decryption_unitary, lambda: (prf_scheme(4, 7), 1)),
    "type2_unitary": (type2_unitary, lambda: (prf_scheme(7, 8), 1, 2)),
    # families: 15-bit blocks, 16 for the even Feistel blocks, 9 PRF input bits
    "ideal_prp_family": (ideal_prp_family, lambda: (15,)),
    "feistel_prp_family": (feistel_prp_family, lambda: (16,)),
    "toy_prf": (toy_prf, lambda: (9, 1)),
    # channels: a free set of m + tau = 15 wires
    "avg_permutation_channel": (avg_permutation_channel, lambda: (1, 14)),
    "constant_mixed_channel": (constant_mixed_channel, lambda: (1, 14)),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_a_builder_refuses_its_first_width_past_the_cap_before_it_allocates(name):
    build, arguments = BUILDERS[name]
    args = arguments()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
