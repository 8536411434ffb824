"""Gaudin/KZ operator families on weight subspaces of (C^N)^(x n).

Builds the rational and trigonometric commuting Gaudin Hamiltonians, realizes
solutions of the associated first-order system by path integration, projects
them onto scalar Calogero(-Sutherland) wave functions via the all-ones
covector, and verifies at machine precision the eigen-relations and the
quantum-classical Lax-spectrum correspondence.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_DIM_CAP,
    RATIONAL,
    TRIGONOMETRIC,
    ModelParams,
    StateVector,
    WeightVector,
    get_basis,
    omega_pairing,
    weight_of,
)
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    DimensionCapError,
    IntegrationFailureError,
    InvalidIndexError,
    InvalidParamsError,
    InvalidSitesError,
    InvalidWeightError,
    KzcalError,
    SingularConfigurationError,
    SingularPathError,
    UnsupportedOrderError,
    UnsupportedRelationError,
)
from .operators import (
    TermOperator,
    gaudin_derivative,
    gaudin_hamiltonian,
    weight_operator,
)
from .kz import (
    KzConnection,
    PathSpec,
    covariant_power,
    integrate_path,
    mc_derivatives,
    mc_wavefunction,
)
from .quantum import (
    calogero_energy,
    h2_covector_residual,
    h3_covector_residual,
    momentum_covector_residual,
    pde_residual_on_solution,
)
from .classical import (
    JointSpectrumItem,
    classical_hamiltonians,
    gaudin_joint_spectrum,
    lax_matrix,
    qc_check,
    string_energy,
)
from .identities import (
    verify_omega_weight_identity,
    verify_rational_scalar_identities,
    verify_t_case_tables,
    verify_trig_identities,
    verify_twist_sum_identities,
)
from .config import RunConfig, load_config
from .suites import RunReport, emit_plot_data, run_suites
