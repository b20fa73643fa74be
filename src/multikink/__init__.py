"""Kinks, multikink ansatz fields and pure multi-soliton construction for
1+1 dimensional scalar field equations with nonnegative multi-well
potentials."""

__version__ = "0.1.0"

from .potential import (  # noqa: F401
    ChainOfVacua, PotentialModel, VacuumTable, find_vacua, validate_chain,
)
from .kink import (  # noqa: F401
    KinkProfile, TailFit, bogomolny_bound, fit_tails, kink_energy, kink_profile,
    position_from_value, stationary_residual,
)
from .ansatz import (  # noqa: F401
    FieldState, ModePair, MultikinkParams, coercivity_sample, inner_product, kink_cutoff,
    linearization_potential, make_params, multikink, quad_form_multi,
    quad_form_single, zero_modes,
)
from .evolve import (  # noqa: F401
    EvolveConfig, SpaceTimeSlab, detect_sector, energy, evolve_nonlinear,
    zero_mode_drift, zero_mode_laws,
)
from .construct import (  # noqa: F401
    ConstructReport, SolverConfig, fixed_point, nonlinearity,
    param_derivative, solve_backward, weighted_norm,
)
from .lorentz import BoostSpec, boost_field, boost_params, verify_covariance  # noqa: F401
from .spectral import build_operator, coercivity_constant, low_spectrum  # noqa: F401
