"""Classical and quantum correlation measures for classical-quantum states."""

from .qmath import (
    DimensionError,
    classical_conditional_entropy,
    classical_mutual_information,
    conditional_mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from .states import (
    CQEnsemble,
    LockingInstance,
    build_locking_state,
    fourier_matrix,
    hadamard_tensor,
    mub_check,
    random_cq_ensemble,
)
from .measurement import (
    Povm,
    after_key_table,
    induced_table,
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
