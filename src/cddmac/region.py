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

from dataclasses import dataclass

import numpy as np

# sample_channel_block is bound here only for bench/layers.py, which wraps
# it by name
from .channel import SystemConfig, sample_channel_block
from .linalg import _index
from .rates import REGION_PARTS, monte_carlo_sweep


def __getattr__(name):
    # ProcessPoolExecutor stays reachable only for bench/layers.py, which
    # subclasses it.  Nothing in the package starts a process pool
    # (rates.run_chunks runs its chunks on threads), so it is imported on
    # first access: importing it eagerly would load concurrent.futures.process
    # and multiprocessing with every `import cddmac`.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Pentagon coordinate (also the CSV row label) -> the region series
# (rates.REGION_PARTS) it reports: corner_a gives user 1 its single-user
# rate, corner_b user 2, and the other coordinate is what the sum leaves.
REGION_ROWS = (("i1", "i1"), ("i2", "i2"), ("isum", "isum"),
               ("corner_a_r1", "i1"), ("corner_a_r2", "isum-i1"),
               ("corner_b_r1", "isum-i2"), ("corner_b_r2", "i2"))


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


def _pack(cfg: SystemConfig, snr: float, scheme: str,
          workers: int) -> RegionEstimate:
    if np.ndim(snr) != 0:
        raise ValueError("a region is computed at one snr point")
    got = monte_carlo_sweep(cfg, snr, tuple(f"{scheme}_{part}"
                                            for part in REGION_PARTS),
                            workers)
    # (mean, stderr) of each coordinate at the one grid point
    row = {label: [float(a[0]) for a in got[f"{scheme}_{part}"]]
           for label, part in REGION_ROWS}

    def corner(name, field):
        return tuple(row[f"{name}_r{k}"][field] for k in (1, 2))

    return RegionEstimate(
        i1=row["i1"][0], i2=row["i2"][0], i_sum=row["isum"][0],
        i1_stderr=row["i1"][1], i2_stderr=row["i2"][1],
        i_sum_stderr=row["isum"][1],
        corner_a=corner("corner_a", 0), corner_b=corner("corner_b", 0),
        corner_a_stderr=corner("corner_a", 1),
        corner_b_stderr=corner("corner_b", 1),
        trials=cfg.trials,
    )


def region_capacity(cfg: SystemConfig, snr: float,
                    workers: int = 1) -> RegionEstimate:
    """Ergodic capacity region of the two-user MAC at linear SNR snr."""
    return _pack(cfg, snr, "cap", workers)


def region_cdd(cfg: SystemConfig, snr: float,
               workers: int = 1) -> RegionEstimate:
    """Ergodic achievable region of two-user CDD at linear SNR snr."""
    return _pack(cfg, snr, "cdd", workers)


def pareto_segment(r: RegionEstimate, samples: int):
    """Evenly spaced points on the time-sharing face between the corners."""
    samples = _index("samples", samples, 2)
    a = np.asarray(r.corner_a)
    b = np.asarray(r.corner_b)
    lam = np.linspace(0.0, 1.0, samples)
    return [tuple((1.0 - t) * a + t * b) for t in lam]
