"""Sum-rate analysis of cyclic delay diversity in multi-user MIMO MAC.

The package computes exact per-realization rates through two independent
paths (a structured space-time matrix and its parallel-channel reduction),
Monte-Carlo ergodic averages with reproducible per-chunk seeding, the full
set of closed-form lower/upper bounds, and high-SNR gap formulas, plus
two-user rate-region corner estimates.
"""

from .bounds import (EULER_GAMMA, cap_lower_bound, gap_high_snr, harmonic,
                     jensen_collapsed_bounds, psi_limit_check, rc_lower_bound,
                     rc_upper_bound)
from .channel import (SystemConfig, cdd_codeword, effective_channel,
                      reduce_to_parallel, sample_channel_block,
                      sample_channels, shuffle_permutation)
from .linalg import dft_matrix, logdet_hermitian_psd
from .rates import (RateEstimate, monte_carlo_sweep, rate_cdd,
                    rate_cdd_reduced, sum_capacity)
from .region import (RegionEstimate, pareto_segment, region_capacity,
                     region_cdd)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "RateEstimate",
    "RegionEstimate",
    "SystemConfig",
    "cap_lower_bound",
    "cdd_codeword",
    "dft_matrix",
    "effective_channel",
    "gap_high_snr",
    "harmonic",
    "jensen_collapsed_bounds",
    "logdet_hermitian_psd",
    "monte_carlo_sweep",
    "pareto_segment",
    "psi_limit_check",
    "rate_cdd",
    "rate_cdd_reduced",
    "rc_lower_bound",
    "rc_upper_bound",
    "reduce_to_parallel",
    "region_capacity",
    "region_cdd",
    "sample_channel_block",
    "sample_channels",
    "shuffle_permutation",
    "sum_capacity",
    "__version__",
]
