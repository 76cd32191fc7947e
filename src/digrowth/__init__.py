"""Growth rates of periodically forced patch populations.

Computes the asymptotic growth rate Lambda(m, T) of an n-patch linear
population model with 1-periodic growth and migration schedules, together
with its fast/slow limits in both the period T and the migration strength m,
the dispersal-induced-growth threshold chi, critical curves in the (m, T)
plane, and Monte-Carlo Lyapunov exponents for Markov-switched environments.
"""

from .asymptotics import (chi, corners, limit_m0, limit_minf, limit_panel,
                          limit_T0, limit_Tinf, m_star, two_patch_closed_forms)
from .dynamics import (growth_rate, growth_rate_h_formula, growth_rates,
                       growth_rate_integral, monodromy,
                       periodic_simplex_solution, verify_slow_curve)
from .explorer import classify_dig, critical_curve, monotonicity_scan, sweep
from .model import (ModelParameters, PatchModel, PeriodicMatrixFunction,
                    builtin, catalog, load, save, validate)
from .stochastic import (MarkovEnvironment, environment, simulate_lyapunov,
                         stationary_distribution, stochastic_limits)

__version__ = "0.1.0"

__all__ = [
    "ModelParameters", "PatchModel", "PeriodicMatrixFunction",
    "builtin", "catalog", "load", "save", "validate",
    "monodromy", "growth_rate", "growth_rates", "growth_rate_integral",
    "growth_rate_h_formula", "periodic_simplex_solution", "verify_slow_curve",
    "chi", "corners", "limit_T0", "limit_Tinf", "limit_m0", "limit_minf",
    "limit_panel", "m_star", "two_patch_closed_forms",
    "sweep", "critical_curve", "classify_dig", "monotonicity_scan",
    "MarkovEnvironment", "environment", "simulate_lyapunov",
    "stationary_distribution", "stochastic_limits",
    "__version__",
]
