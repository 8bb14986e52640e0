"""peelcore: peeling experiments on random l-uniform hypergraphs, with the
exact finite transition law, the fluid/diffusion limits, and the finite-size
scaling predictions they imply.
"""

from .airy import airy_pair, cdf_Z, kernel_K, mc_parabolic_min, omega_integral
from .ensemble import (
    DegreeProfile,
    EnsembleParams,
    Hypergraph,
    degree_profile,
    initial_moments,
    log_ensemble_count,
    sample_balls_in_bins,
    sample_uniform,
)
from .experiments import (
    ExperimentConfig,
    get_constants,
    run_core_prob,
    run_core_size,
    run_onset,
)
from .kernels import p_triple, simulate_chain, w_exact, w_hat
from .ode import (
    CriticalConstants,
    critical_constants,
    critical_point,
    solve_Q,
    solve_y,
    y_closed,
)
from .peeling import brute_force_max_stopping_set, core_of, onset_edge_count, peel
from .scaling import core_size_cdf, onset_cdf, predict_core_prob

__version__ = "0.1.0"

__all__ = [
    "EnsembleParams", "Hypergraph", "DegreeProfile",
    "sample_uniform", "sample_balls_in_bins", "degree_profile",
    "log_ensemble_count", "initial_moments",
    "peel", "core_of", "onset_edge_count", "brute_force_max_stopping_set",
    "w_exact", "w_hat", "p_triple", "simulate_chain",
    "critical_point", "critical_constants", "CriticalConstants",
    "solve_y", "solve_Q", "y_closed",
    "airy_pair", "kernel_K", "cdf_Z", "omega_integral", "mc_parabolic_min",
    "predict_core_prob", "onset_cdf", "core_size_cdf",
    "ExperimentConfig", "get_constants",
    "run_core_prob", "run_onset", "run_core_size",
    "__version__",
]
