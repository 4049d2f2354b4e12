"""Property tests of the rates and bounds over random system shapes and SNRs.

Hypothesis draws (users, n_tx, n_rx) up to 8 each, a channel seed and a
grid of distinct whole-dB points from -200 to +300 dB for the rates (-200
to -120 dB for their first-order term), or of distinct 0.05 dB points from
-200 to +3000 dB for the closed-form bounds.
The examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cddmac.bounds import (cap_lower_bound, jensen_collapsed_bounds,
                           rc_lower_bound, rc_upper_bound)
from cddmac.channel import (SystemConfig, reduce_to_parallel,
                            sample_channel_block)
from cddmac.rates import (_sweep_values, rate_cdd, rate_cdd_reduced,
                          sum_capacity)

TRIALS = 3

shapes = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
systems = st.tuples(shapes, st.integers(0, 2 ** 32 - 1))
grids = st.lists(st.integers(-200, 300), min_size=2, max_size=6,
                 unique=True).map(lambda db: 10.0 ** (np.sort(db) / 10))
low_grids = st.lists(st.integers(-200, -120), min_size=2, max_size=6,
                     unique=True).map(lambda db: 10.0 ** (np.sort(db) / 10))
bound_grids = st.lists(st.integers(-4000, 60000), min_size=2, max_size=8,
                       unique=True).map(lambda db: 10.0 ** (np.sort(db) / 200))
examples = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def draw(system):
    (users, n_tx, n_rx), seed = system
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                       trials=TRIALS, seed=seed)
    return sample_channel_block(cfg, 0, TRIALS)


def sweep(system, grid):
    block = draw(system)
    return block, _sweep_values(block, grid, ("cdd", "cap"))


def bounds(shape, grid):
    """The five closed-form bounds of one shape over a grid, by CSV name."""
    users, n_tx, n_rx = shape
    rc_jensen, cap_jensen = jensen_collapsed_bounds(users, n_tx, n_rx, grid)
    return {"rc_lb": rc_lower_bound(users, n_tx, n_rx, grid),
            "rc_lb_jensen": rc_jensen,
            "rc_ub": rc_upper_bound(users, n_rx, grid),
            "cap_lb": cap_lower_bound(users, n_tx, n_rx, grid),
            "cap_lb_jensen": cap_jensen}


@examples
@given(systems, grids)
def test_sweep_equals_direct_rates_trial_by_trial(system, grid):
    block, (cdd, cap) = sweep(system, grid)
    for point, s in enumerate(grid):
        np.testing.assert_allclose(cdd[point], rate_cdd(block, s),
                                   rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(cap[point], sum_capacity(block, s),
                                   rtol=1e-12, atol=1e-10)


@examples
@given(systems, low_grids)
def test_sweep_rates_are_first_order_at_low_snr(system, grid):
    # log2 det(I + sG) = s tr(G) / ln 2 + O(s^2): capacity's trace is
    # |H|_F^2 / n_tx, and CDD's, summed over the bins and divided by n_tx,
    # is the same because the unitary DFT keeps |H|_F.  The direct rates
    # are left out: their Cholesky log-det returns 0.0 at snr 1e-20
    block, values = sweep(system, grid)
    n_tx = block.shape[-1]
    power = np.square(np.abs(block)).sum(axis=(1, 2, 3))
    first_order = grid[:, None] * power / (n_tx * math.log(2.0))
    for rate in values:                                         # cdd, cap
        np.testing.assert_allclose(rate, first_order, rtol=1e-6, atol=0)


@examples
@given(systems, grids)
def test_capacity_dominates_cdd_and_rates_grow_with_snr(system, grid):
    _, values = sweep(system, grid)
    cdd, cap = values
    assert np.all(np.isfinite(values))
    assert np.all(cap >= cdd - 1e-9 * np.maximum(1.0, cdd))
    assert np.all(np.diff(values, axis=1) >= 0)


@examples
@given(systems, grids)
def test_direct_rate_equals_rate_of_the_dft_bins(system, grid):
    # the paper's block-diagonalization: the block-circulant channel and its
    # DFT bins give one rate
    block = draw(system)
    bins = reduce_to_parallel(block)
    for s in grid:
        direct = rate_cdd(block, s)
        gap = np.abs(direct - rate_cdd_reduced(bins, s))
        assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(direct)))


@examples
@given(shapes, bound_grids)
def test_jensen_bounds_sit_below_the_term_by_term_bounds(shape, grid):
    # averaging the exponents before the log loses tightness (convexity);
    # rounding may put a Jensen bound a few ulp above
    got = bounds(shape, grid)
    for prefix in ("rc", "cap"):
        plain = got[f"{prefix}_lb"]
        assert np.all(got[f"{prefix}_lb_jensen"]
                      <= plain + 8 * np.spacing(plain)), prefix


@examples
@given(shapes, bound_grids)
def test_bounds_are_finite_and_non_decreasing_in_snr(shape, grid):
    for name, values in bounds(shape, grid).items():
        assert np.all(np.isfinite(values)), name
        assert np.all(np.diff(values) >= 0), name
