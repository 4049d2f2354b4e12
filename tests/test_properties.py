"""Property tests of the sweep engine over random system shapes and SNRs.

Hypothesis draws (users, n_tx, n_rx) up to 8 each, a channel seed and a
grid of distinct whole-dB points from -200 to +300 dB.  The examples are
derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from cddmac.channel import SystemConfig, sample_channel_block
from cddmac.rates import _sweep_values, rate_cdd, sum_capacity

TRIALS = 3

systems = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
                    st.integers(0, 2 ** 32 - 1))
grids = st.lists(st.integers(-200, 300), min_size=2, max_size=6,
                 unique=True).map(lambda db: 10.0 ** (np.sort(db) / 10))


def sweep(system, grid):
    users, n_tx, n_rx, seed = system
    cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                       trials=TRIALS, seed=seed)
    block = sample_channel_block(cfg, 0, TRIALS)
    return block, _sweep_values(block, grid, ("cdd", "cap"))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems, grids)
def test_sweep_equals_direct_rates_trial_by_trial(system, grid):
    block, (cdd, cap) = sweep(system, grid)
    for point, s in enumerate(grid):
        np.testing.assert_allclose(cdd[point], rate_cdd(block, s),
                                   rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(cap[point], sum_capacity(block, s),
                                   rtol=1e-12, atol=1e-10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems, grids)
def test_capacity_dominates_cdd_and_rates_grow_with_snr(system, grid):
    _, values = sweep(system, grid)
    cdd, cap = values
    assert np.all(np.isfinite(values))
    assert np.all(cap >= cdd - 1e-9 * np.maximum(1.0, cdd))
    assert np.all(np.diff(values, axis=1) >= 0)
