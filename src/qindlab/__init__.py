"""Exact desk-scale laboratory for quantum encryption oracles.

Classical symmetric schemes are lifted into two quantum oracle types
(XOR-register and in-place), played against superposition adversaries in
four indistinguishability games, and compared numerically against
ideal-cipher averaging bounds. Everything is exact statevector simulation;
randomness always flows through explicit numpy Generators.
"""

from .attacks import (
    ATTACKS,
    CoreInterferenceAttack,
    EntangledBlockProbe,
    HadamardBitProbe,
    HadamardTest,
    SuperpositionMaskAttack,
    bz_adversary,
    bz_expected_win_rate,
    hadamard_bit_distinguisher,
    qlp_distinguisher,
)
from .channels import (
    BoundReport,
    QuantumChannel,
    apply_channel_bipartite,
    avg_permutation_channel,
    certify_corollary_bound,
    certify_lemma_bound,
    constant_mixed_channel,
    corollary_bound,
    lemma_bound,
)
from .games import (
    GAME_NAMES,
    GAME_RUNNERS,
    AdvantageEstimate,
    AdversaryStrategy,
    ConstantGuesser,
    FqindChallenge,
    GameOutcome,
    GameSetupError,
    GqindChallenge,
    GqindResponse,
    RandomGuesser,
    Type1LearningOracle,
    Type2LearningOracle,
    estimate_advantage,
    exact_advantage,
    hoeffding_half_width,
    run_fqind_qcpa,
    run_gqind_qcpa,
    run_ind_qcpa,
    run_qind_qcpa,
    with_learning_queries,
)
from .oracles import (
    EncryptionUnitary,
    encrypt_fresh_register,
    type1_decryption_unitary,
    type1_from_type2,
    type1_unitary,
    type2_from_type1,
    type2_unitary,
    xor_encrypt_register,
)
from .quantum_core import (
    CNOT,
    DENSITY_ATOL,
    NORM_ATOL,
    UNITARY_ATOL,
    WIRE_CAP,
    DensityMatrix,
    Gate,
    H,
    StateDescription,
    StateVector,
    UnitaryOperator,
    X,
    Z,
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
from .schemes import (
    ClassicalScheme,
    KeyedFunction,
    PermutationFamily,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
