"""Spectral Galerkin simulation and certification lab for 2-D stochastic
Navier-Stokes dynamics driven by Brownian motion or small-jump Levy noise."""

__version__ = "0.1.0"

from .basis import BasisSpec, get_basis, stokes_eigenvalue
from .config import LoadedRun, load_config
from .errors import CertificationError, ConfigError, InadmissibleKernelError
from .harness import (ExperimentConfig, ExperimentResult, persist,
                      run_arm, run_experiment)
from .hypotheses import (certify_kernels, check_growth_lipschitz,
                         check_jump_size_decay, check_qv_limit_v_growth,
                         gap_panel, kernel_grid, martingale_diagnostic)
from .integrate import (BrownianNoiseSpec, PathBatch, SolverConfig,
                        simulate_arms, simulate_brownian_batch,
                        simulate_jump_batch)
from .kernels import (build_h, build_jump_kernel, build_theta, constant_field,
                      h_norm_check, saturating, scaled_identity, zero_map)
from .measures import alpha_stable_measure, annulus_mass, power_law_measure
from .nonlinear import coupling_tensor, verify_b_estimates
from .sampling import derive_stream, sample_prm, stream_key
from .stats import compare_laws, ks_statistic, ks_threshold, summarize

__all__ = [
    "BasisSpec", "get_basis", "stokes_eigenvalue",
    "LoadedRun", "load_config",
    "CertificationError", "ConfigError", "InadmissibleKernelError",
    "ExperimentConfig", "ExperimentResult", "persist", "run_arm",
    "run_experiment",
    "certify_kernels", "check_growth_lipschitz", "check_jump_size_decay",
    "check_qv_limit_v_growth", "gap_panel", "kernel_grid",
    "martingale_diagnostic",
    "BrownianNoiseSpec", "PathBatch", "SolverConfig", "simulate_arms",
    "simulate_brownian_batch", "simulate_jump_batch",
    "build_h", "build_jump_kernel", "build_theta", "constant_field",
    "h_norm_check", "saturating", "scaled_identity", "zero_map",
    "alpha_stable_measure", "annulus_mass", "power_law_measure",
    "coupling_tensor", "verify_b_estimates",
    "derive_stream", "sample_prm", "stream_key",
    "compare_laws", "ks_statistic", "ks_threshold", "summarize",
    "__version__",
]
