"""Random 1-homogeneous systems: function algebra, moment integrals, exact and
Monte Carlo evolution of the log-scale recursion, series-parallel oracles, and
numeric checks of the lower-bound proof machinery."""

__version__ = "0.1.0"

from .dist import GridCDF, from_samples, ks, limit_cdf, limit_density, rescale
from .errors import (
    ClampBudgetExceededError,
    DegenerateModelError,
    DomainError,
    HomsysError,
    InvalidProfileError,
    RegridRequiredError,
    ScheduleInfeasibleError,
)
from .hfun import (
    F_HIP_MINUS,
    F_HIP_PLUS,
    F_MAX,
    F_MIN,
    F_PARALLEL,
    F_SUM,
    GFunction,
    HFunction,
    asym_tent,
    power_mean,
    t_of,
    validate,
)
from .models import CriticalityReport, ModelSpec, builtin, classify, parse_model
from .moments import MomentTable, alpha, c_star, check_ipp, gamma, m_eta, moment_table

__all__ = [name for name in dir() if not name.startswith("_")]
