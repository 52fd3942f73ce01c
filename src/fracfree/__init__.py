"""fracfree: a desk-scale laboratory for a nonlocal free-boundary energy.

The functional couples a fractional Gagliardo term of order s with a
fractional perimeter of order sigma over admissible (function, phase set)
pairs; this package discretizes it on uniform grids, minimizes it, and
exposes the diagnostics used to check its structural properties.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    FracfreeError,
    FreeBoundaryError,
    GeometryError,
    IncompleteDatumError,
    InvalidScaleError,
    InvalidSpecError,
    NonConvergenceError,
    OutOfRangeError,
    OutOfStencilError,
    ParameterError,
    TooLargeError,
)
from .model import (
    AdmissiblePair,
    DiscreteFunction,
    ExteriorDatum,
    FractionalParams,
    Grid,
    GridSpec,
    PhaseSet,
    ball_datum,
    build_grid,
    cone_datum,
    constant_datum,
    halfspace_datum,
    make_pair,
    rescale_pair,
    sample_datum,
    tabulated_datum,
)
from .quadrature import (
    KernelTable,
    assemble_table,
    cell_pair_weight,
    interval_region,
    ray_region,
    tail_weight,
)
from .energy import (
    EnergyBreakdown,
    frac_perimeter,
    gagliardo_energy,
    total_energy,
)
from .operators import ResidualField, frac_laplacian, harmonicity_residual
from .extension import (
    ExtendedField,
    HalfGrid,
    WeissProfile,
    cone_defect,
    extend_scalar,
    extend_set,
    make_half_grid,
    shell_average,
    weighted_dirichlet,
    weiss_profile,
)
from .solver import (
    SolveReport,
    SolverParams,
    alternate_minimize,
    brute_force_minimize,
    solve_u_given_phase,
    update_phase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
