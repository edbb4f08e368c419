"""Complex Hermitian linear algebra and the state data model."""

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    SUPPORT_CUTOFF,
    eigvalsh_desc,
    embed,
    is_hermitian,
    matrix_power,
)
from .random import (
    random_cq,
    random_density,
    random_distribution,
    random_isometry,
    random_kraus_channel,
    rng_from,
)
from .serialize import (
    cq_from_dict,
    density_from_dict,
    density_to_dict,
    load_state,
    state_from_dict,
)
from .states import (
    CqState,
    DensityOperator,
    Register,
    cq_from_joint,
    creg,
    qreg,
    trace_distance,
)

__all__ = [
    "HERMITICITY_TOL", "PSD_TOL", "SUPPORT_CUTOFF",
    "eigvalsh_desc", "embed", "is_hermitian", "matrix_power",
    "random_cq", "random_density", "random_distribution",
    "random_isometry", "random_kraus_channel", "rng_from",
    "cq_from_dict", "density_from_dict", "density_to_dict",
    "load_state", "state_from_dict",
    "CqState", "DensityOperator", "Register", "cq_from_joint", "creg",
    "qreg", "trace_distance",
]
