"""Classical and quantum correlation measures for classical-quantum states."""

from .qmath import (
    DensityMatrix,
    DimensionError,
    JointDistribution,
    classical_conditional_entropy,
    classical_mutual_information,
    conditional_mutual_information,
    kl_divergence,
    partial_trace,
    quantum_conditional_entropy,
    quantum_mutual_information,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from .states import (
    CQEnsemble,
    LockingInstance,
    build_locking_state,
    cq_to_density,
    fourier_matrix,
    hadamard_tensor,
    mub_check,
    random_cq_ensemble,
)
from .measurement import (
    OutcomeAnalysis,
    Povm,
    after_key_table,
    induced_joint,
    measure_b,
    measured_conditional_entropy,
    measured_mutual_information,
    projective_povm,
)
from .accessible import (
    AccessibleInfoResult,
    GuardError,
    OptimizerConfig,
    accessible_information,
    holevo_chi,
)
from .discord import (
    DiscordReport,
    LockingReport,
    key_then_measure_info,
    locking_delta,
    quantum_discord_cq,
    single_copy_identity_chain,
)
from .protocol import (
    EmpiricalReport,
    StrategySpec,
    classical_key_bound_check,
    one_time_pad_joint,
    simulate_locking_run,
)

__version__ = "0.1.0"
