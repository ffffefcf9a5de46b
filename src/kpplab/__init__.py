"""kpplab: spreading speeds of 1-D KPP fronts in heterogeneous media.

Three independent routes to the spreading speed w* of
u_t = (a(x) u_x)_x + f(x, u) with KPP reaction f and positive stationary
coefficients, plus the variational eigenvalue formula connecting them and a
verification harness for the monotonicity/comparison theorems:

* eigenvalue route: w* = min_{p>0} k_p / p with k_p the Perron root of the
  exponentially tilted generator on a periodized window (`operators`),
* Lyapunov route: w* = min_{gamma} gamma / mu(gamma) with mu the decay rate
  of the positive solution at level gamma (`freidlin`),
* direct route: front tracking of the time-dependent problem (`pde`).
"""

__version__ = "0.1.0"

from .medium import (
    ConstantSpec,
    DimerSpec,
    EmpiricalMeans,
    MediumRealization,
    RandomTrigSpec,
    empirical_means,
    load_realization,
    rescale,
    sample_realization,
    save_realization,
)
from .operators import (
    DiscreteOperator,
    EigenResult,
    NoConvergence,
    PositivityViolation,
    assemble_tilted,
    k_p,
    kp_curve,
    principal_eigen,
    speed_from_kp,
)
from .freidlin import (
    GammaBelowThreshold,
    MuCurve,
    mu_curve,
    riccati_mu,
    speed_freidlin,
)
from .variational import (
    ThetaField,
    ThetaResult,
    homogenized_theta,
    k0_with_theta,
    minimize_theta,
    theta_closed_form,
    zero_theta,
)
from .pde import (
    CFLViolation,
    FrontEscaped,
    FrontTrace,
    ReactionSpec,
    TooFewSnapshots,
    dichotomy_check,
    front_speed,
    simulate,
)
from .optimize import BracketFailure
from .results import NumericalFailure, SpeedEstimate

__all__ = [name for name in dir() if not name.startswith("_")]
