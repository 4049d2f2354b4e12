"""Two-user ergodic rate regions (capacity and CDD) with corner points.

A two-user MAC region is the pentagon cut out by three ergodic constraints:
each user's single-user rate (other user silent) and the sum rate.  The two
corners are what successive cancellation achieves; the face between them is
time sharing.  The constraints are metrics of the sweep engine
(rates.REGION_METRICS), so all of them, for both schemes and every SNR
point, come from the same channel draws: differences between constraints
carry a coupled, smaller variance than independent runs would give.
"""

from __future__ import annotations

# ProcessPoolExecutor and sample_channel_block are bound here only for
# bench/layers.py, which wraps them by name.
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, sample_channel_block
from .rates import REGION_PARTS, monte_carlo_sweep


@dataclass(frozen=True)
class RegionEstimate:
    """Pentagon description of a two-user region, all rates in bits.

    corner_a gives user 1 its single-user rate, corner_b user 2; both lie on
    r1 + r2 = i_sum.  The stderr tuples follow the coordinates; the dependent
    coordinate's stderr comes from the per-trial difference, not from naive
    error propagation.
    """

    i1: float
    i2: float
    i_sum: float
    i1_stderr: float
    i2_stderr: float
    i_sum_stderr: float
    corner_a: tuple
    corner_b: tuple
    corner_a_stderr: tuple
    corner_b_stderr: tuple
    trials: int


def _pack(cfg: SystemConfig, scheme: str, workers: int) -> RegionEstimate:
    got = monte_carlo_sweep(cfg, metrics=tuple(f"{scheme}_{part}"
                                               for part in REGION_PARTS),
                            workers=workers)
    one, two, tot, rest1, rest2 = got.values()
    return RegionEstimate(
        i1=one.mean, i2=two.mean, i_sum=tot.mean,
        i1_stderr=one.stderr, i2_stderr=two.stderr, i_sum_stderr=tot.stderr,
        corner_a=(one.mean, rest1.mean),
        corner_b=(rest2.mean, two.mean),
        corner_a_stderr=(one.stderr, rest1.stderr),
        corner_b_stderr=(rest2.stderr, two.stderr),
        trials=cfg.trials,
    )


def region_capacity(cfg: SystemConfig, workers: int = 1) -> RegionEstimate:
    """Ergodic capacity region of the two-user MAC at cfg.snr."""
    return _pack(cfg, "cap", workers)


def region_cdd(cfg: SystemConfig, workers: int = 1) -> RegionEstimate:
    """Ergodic achievable region of two-user CDD at cfg.snr."""
    return _pack(cfg, "cdd", workers)


def pareto_segment(r: RegionEstimate, samples: int):
    """Evenly spaced points on the time-sharing face between the corners."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    a = np.asarray(r.corner_a)
    b = np.asarray(r.corner_b)
    lam = np.linspace(0.0, 1.0, samples)
    return [tuple((1.0 - t) * a + t * b) for t in lam]
