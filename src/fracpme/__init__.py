"""Numerical laboratory for the 1D porous medium equation with fractional
pressure and quadratic confinement: solvers, functionals, transport
distances, and verification of the associated functional inequalities.

Scalar functionals live in the fracpme.energy submodule (not re-exported
here, so the submodule stays reachable as an attribute)."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    DensitySpec,
    Grid,
    GridDensity,
    TailReport,
    cdf_quantile,
    holder_seminorm,
    moment,
    normalize,
    random_density,
    tail_check,
)
from .riesz import (  # noqa: F401
    KernelCase,
    neg_sobolev_norm,
    riesz_constant,
    riesz_gradient,
    riesz_potential,
)
from .steady import (  # noqa: F401
    BarenblattProfile,
    EulerLagrangeReport,
    barenblatt,
    closed_form_potential,
    discrete_minimizer,
    euler_lagrange_check,
    steady_energy,
)
from .transport import (  # noqa: F401
    InequalityReport,
    TransportPlan1D,
    gns_ratio,
    hwi_terms,
    inequality_report,
    interp_inequality,
    monotone_map,
    w2,
)
from .evolve import (  # noqa: F401
    DecayFit,
    SolverConfig,
    Trajectory,
    fit_decay,
    fv_step,
    integrate,
    steady_state_eps,
)
