"""Classical and quantum correlation measures for classical-quantum states."""

from .qmath import (
    DimensionError,
    GuardError,
    classical_conditional_entropy,
    classical_mutual_information,
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
    OptimizerConfig,
    accessible_information,
    holevo_chi,
    maassen_uffink_bound,
)
from .discord import (
    DiscordReport,
    LockingReport,
    key_then_measure_info,
    locking_delta,
    quantum_discord_cq,
)
from .protocol import (
    EmpiricalReport,
    simulate_locking_run,
)

__version__ = "0.1.0"
