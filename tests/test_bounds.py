"""Closed-form bound tests.

scipy.special.digamma serves as the independent oracle for the
harmonic-minus-gamma identities; frozen constants below were computed from
the printed formulas with an independent arithmetic script before the
implementation existed.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from cddmac.bounds import (EULER_GAMMA, cap_lower_bound, gap_high_snr,
                           harmonic, jensen_collapsed_bounds, psi_limit_check,
                           rc_lower_bound, rc_upper_bound)
from cddmac.channel import (SystemConfig, sample_channel_block,
                            sample_channels, shuffle_permutation)
from cddmac.rates import monte_carlo_sweep
from cddmac.region import RegionEstimate, pareto_segment

LN2 = math.log(2.0)
CFG = SystemConfig(users=2, n_tx=2, n_rx=2, trials=10, seed=0)
# a two-user pentagon with corners (1, 0.5) and (0.5, 1)
FACE = RegionEstimate(1.0, 1.0, 1.5, 0.0, 0.0, 0.0, corner_a=(1.0, 0.5),
                      corner_b=(0.5, 1.0), corner_a_stderr=(0.0, 0.0),
                      corner_b_stderr=(0.0, 0.0), trials=10)


# --- harmonic / gamma ---------------------------------------------------


def test_harmonic_empty_sum():
    assert harmonic(0) == 0.0


def test_harmonic_three():
    assert harmonic(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, abs=1e-15)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 255, 256])
def test_harmonic_is_numpy_sum_up_to_two_to_eight(n):
    # every recorded output uses an n in this range: its bits must not move
    assert harmonic(n) == float(np.sum(1.0 / np.arange(1, n + 1)))


# harmonic uses its series for every n above 2**8
@pytest.mark.parametrize("n", [257, 4096, 65536, 65537, 10**7, 10**9, 10**15,
                               2**62])
def test_harmonic_series_above_two_to_sixteen(n):
    with mpmath.workdps(40):
        exact = mpmath.harmonic(n)
    assert harmonic(n) == pytest.approx(float(exact), rel=4.5e-16, abs=0)


def test_lower_bound_sums_no_harmonic_term_by_term_above_two_to_eight(
        monkeypatch):
    # each row's harmonic number was an np.arange sum of up to 9,999 terms
    lengths = []
    arange = np.arange

    def recording(*args, **kwargs):
        out = arange(*args, **kwargs)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(np, "arange", recording)
    rc_lower_bound(10**4, 1, 10**4, 1.0)
    assert lengths and max(lengths) <= 2**8


def test_harmonic_memory_does_not_grow_with_n():
    # a sum over np.arange(1, n + 1) peaked at 160 MB for this call, and
    # users = 1e9 with rc_lb would have asked for 16 GB
    tracemalloc.start()
    try:
        rc_lower_bound(10**7, 1, 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 2, 4, 7, 25])
def test_harmonic_matches_digamma_oracle(n):
    # psi(n) = H_{n-1} - gamma
    assert harmonic(n - 1) - EULER_GAMMA == pytest.approx(digamma(n),
                                                          abs=1e-12)


def test_psi_of_four_frozen():
    assert harmonic(3) - EULER_GAMMA == pytest.approx(1.2561176684318003,
                                                      abs=1e-15)


def test_gamma_constant():
    assert EULER_GAMMA == pytest.approx(np.euler_gamma, abs=1e-17)


# --- rc_lower_bound -----------------------------------------------------


def test_rc_lower_frozen_siso():
    assert rc_lower_bound(1, 1, 1, 10.0) == pytest.approx(
        2.725652789690193, rel=1e-12)
    assert rc_lower_bound(1, 1, 1, 10.0) == pytest.approx(
        np.log2(1.0 + 10.0 * np.exp(-EULER_GAMMA)), rel=1e-14)


def test_rc_lower_zero_snr():
    for users, n_tx, n_rx in [(1, 1, 1), (3, 2, 2), (4, 4, 1)]:
        assert rc_lower_bound(users, n_tx, n_rx, 0.0) == 0.0


def test_rc_lower_independent_of_n_tx():
    vals = {rc_lower_bound(3, n_tx, 2, 25.0) for n_tx in (1, 2, 3, 8)}
    assert len(vals) == 1


def test_rc_lower_single_rx_single_term():
    # n_R=1 collapses to one term with M = K
    for users in (1, 2, 5):
        expected = np.log2(
            1.0 + 7.0 * np.exp(harmonic(users - 1) - EULER_GAMMA))
        assert rc_lower_bound(users, 3, 1, 7.0) == pytest.approx(expected,
                                                                 rel=1e-14)


def test_rc_lower_accepts_grid():
    grid = np.array([0.0, 1.0, 10.0])
    got = rc_lower_bound(2, 2, 2, grid)
    assert got.shape == (3,)
    assert got[0] == 0.0
    assert np.all(np.diff(got) > 0)


# --- cap_lower_bound ----------------------------------------------------


def test_cap_lower_single_rx_single_term():
    # n_R=1: single term with M-tilde = n_T*K and snr/n_T inside
    users, n_tx = 3, 2
    expected = np.log2(
        1.0 + (50.0 / n_tx) * np.exp(harmonic(users * n_tx - 1)
                                     - EULER_GAMMA))
    assert cap_lower_bound(users, n_tx, 1, 50.0) == pytest.approx(expected,
                                                                  rel=1e-14)


def test_cap_lower_reduces_to_rc_lower_for_siso_config():
    for snr in (0.5, 10.0, 200.0):
        assert cap_lower_bound(1, 1, 1, snr) == pytest.approx(
            rc_lower_bound(1, 1, 1, snr), rel=1e-14)
    # SISO is the smallest case of the shape identity: capacity is the CDD
    # construction on the n_rx x n_tx*K channel at snr/n_tx, and every
    # bound depends on its two dimensions only through min and max
    snr = np.array([0.0, 1e-17, 1e-3, 0.5, 1.0, 10.0, 1e3, 1e6, 1e30])
    for users, n_tx, n_rx in itertools.product(range(1, 7), repeat=3):
        pooled = (n_tx * users, 1, n_rx, snr / n_tx)
        assert cap_lower_bound(users, n_tx, n_rx, snr).tobytes() \
            == rc_lower_bound(*pooled).tobytes()
        assert jensen_collapsed_bounds(users, n_tx, n_rx, snr)[1].tobytes() \
            == jensen_collapsed_bounds(*pooled)[0].tobytes()
        assert rc_lower_bound(users, n_tx, n_rx, snr).tobytes() \
            == rc_lower_bound(n_rx, n_tx, users, snr).tobytes()
        assert rc_upper_bound(users, n_rx, snr).tobytes() \
            == rc_upper_bound(n_rx, users, snr).tobytes()


def test_cap_lower_below_mc_capacity():
    cfg = SystemConfig(users=6, n_tx=3, n_rx=3, trials=20000, seed=606)
    got = monte_carlo_sweep(cfg, snr=np.array([1000.0]), metrics=("cap",))
    mean, err = got["cap"]
    assert cap_lower_bound(6, 3, 3, 1000.0) <= float(mean[0]) \
        + 3 * float(err[0])


# --- jensen_collapsed_bounds --------------------------------------------


def test_jensen_equals_plain_when_single_term():
    # L = 1 (and L-tilde = 1) makes the exponent averaging an identity
    rc_j, cap_j = jensen_collapsed_bounds(1, 1, 1, 30.0)
    assert rc_j == pytest.approx(rc_lower_bound(1, 1, 1, 30.0), rel=1e-14)
    assert cap_j == pytest.approx(cap_lower_bound(1, 1, 1, 30.0), rel=1e-14)


def test_jensen_frozen_two_user_two_rx():
    rc_j, _ = jensen_collapsed_bounds(2, 2, 2, 100.0)
    assert rc_j == pytest.approx(13.095918055525594, rel=1e-12)
    # independent arithmetic: 2*log2(1 + 100*exp((psi(2)+psi(1))/2))
    exponent = 0.5 * ((harmonic(1) - EULER_GAMMA) + (0.0 - EULER_GAMMA))
    assert rc_j == pytest.approx(2 * np.log2(1 + 100 * np.exp(exponent)),
                                 rel=1e-14)


def test_jensen_never_exceeds_unaveraged():
    rng = np.random.default_rng(14)
    for _ in range(100):
        users, n_tx, n_rx = (int(v) for v in rng.integers(1, 6, size=3))
        snr = float(10 ** rng.uniform(-1, 3))
        rc_j, cap_j = jensen_collapsed_bounds(users, n_tx, n_rx, snr)
        assert rc_j <= rc_lower_bound(users, n_tx, n_rx, snr) + 1e-12
        assert cap_j <= cap_lower_bound(users, n_tx, n_rx, snr) + 1e-12


# --- rc_upper_bound -----------------------------------------------------


def test_rc_upper_scalar_cases():
    assert rc_upper_bound(1, 1, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert rc_upper_bound(1, 1, 10.0) == pytest.approx(np.log2(11.0),
                                                       rel=1e-12)
    assert rc_upper_bound(3, 2, 0.0) == 0.0


def test_rc_upper_single_l_closed_form():
    # L=1: sum is 1 + M*snr
    for users, n_rx in [(4, 1), (1, 5)]:
        m_big = max(users, n_rx)
        assert rc_upper_bound(users, n_rx, 3.0) == pytest.approx(
            np.log2(1.0 + m_big * 3.0), rel=1e-13)


def test_rc_upper_brute_force_sum():
    # the binomial-factorial sum in exact rationals, so that the L > 20
    # cases cannot overflow
    wide = (1e-3, 1.0, 1e4)
    for users, n_rx, snrs in [(3, 2, (7.0,)), (25, 30, wide), (40, 40, wide),
                              (64, 100, wide)]:
        l_small, m_big = min(users, n_rx), max(users, n_rx)
        for snr in snrs:
            total = sum(math.comb(l_small, i) * math.perm(m_big, i)
                        * Fraction(snr) ** i for i in range(l_small + 1))
            assert rc_upper_bound(users, n_rx, snr) == pytest.approx(
                math.log2(total.numerator) - math.log2(total.denominator),
                rel=1e-12)


@pytest.mark.parametrize("l_small", [1, 2, 3])
def test_rc_upper_exact_at_large_counts(l_small):
    # at snr 1 the sum is the integer sum C(L,i) M!/(M-i)!.  Coefficients
    # formed as lgamma differences cancelled: at M = 1e14, L = 1 the bound
    # was 0.34 bits below log2(1 + M), and at 1e16 it read 1.0 bit
    for m_big in (10**6, 10**9, 10**12, 10**16):
        total = sum(math.comb(l_small, i) * math.perm(m_big, i)
                    for i in range(l_small + 1))
        assert rc_upper_bound(m_big, l_small, 1.0) == pytest.approx(
            math.log2(total), rel=1e-15), m_big


@pytest.mark.parametrize("count", [10**3, 10**4])
def test_rc_upper_matches_exact_sum_at_large_l(count):
    # L = M = count: thousands of terms, summed at 40 digits term by term
    with mpmath.workdps(40):
        for snr in (1e-6, 1.0, 1e4):
            term = total = mpmath.mpf(1)
            for i in range(1, count + 1):
                term *= mpmath.mpf((count - i + 1) ** 2) / i * snr
                total += term
            exact = float(mpmath.log(total, 2))
            assert rc_upper_bound(count, count, snr) == pytest.approx(
                exact, rel=1e-14, abs=0), snr


def test_rc_upper_memory_does_not_grow_with_l():
    # an (L + 1, S) stack of terms peaked at 143 MB for this call
    snr = 10 ** (np.arange(41) / 10)
    tracemalloc.start()
    try:
        rc_upper_bound(10**5, 10**5, snr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("users", [10**9, 10**12])
def test_lower_bounds_stay_finite_where_the_product_overflows(users):
    # at 1e300 the product snr * e^(H_{M-1} - gamma) passes the double
    # range; ln(1 + x) is then ln snr + H_{M-1} - gamma to 1e-300 relative
    snr = np.array([0.0, 1e-20, 1.0, 1e300])
    top = (math.log(1e300) + harmonic(users - 1) - EULER_GAMMA) / LN2
    upper = rc_upper_bound(users, 1, snr)
    for lower in (rc_lower_bound(users, 1, 1, snr),
                  cap_lower_bound(users, 1, 1, snr),
                  *jensen_collapsed_bounds(users, 1, 1, snr)):
        assert np.all(np.isfinite(lower))
        assert np.all(lower <= upper)
        assert lower[-1] == pytest.approx(top, rel=1e-15, abs=0)


def test_rc_upper_accepts_grid():
    got = rc_upper_bound(2, 2, np.array([0.0, 1.0, 100.0]))
    assert got.shape == (3,)
    assert got[0] == 0.0


# --- gap_high_snr -------------------------------------------------------


def test_gap_frozen_values():
    gap, upper = gap_high_snr(1, 2, 1)
    assert gap == pytest.approx(0.44269504088896344, rel=1e-14)
    assert upper == pytest.approx(1.0 / LN2, rel=1e-14)
    gap4, _ = gap_high_snr(1, 4, 1)
    assert gap4 == pytest.approx(0.6449409082964328, rel=1e-13)
    assert gap4 == pytest.approx((1 + 0.5 + 1 / 3) / LN2 - 2.0, rel=1e-13)


def test_gap_single_rx_rearranged_identity():
    # (H_{nT*K-1} - H_{K-1})/ln2 - log2(nT) equals
    # (sum_{k=K}^{nT*K-1} 1/k - ln nT)/ln2
    for users, n_tx in [(1, 2), (2, 3), (4, 4), (3, 2)]:
        gap, _ = gap_high_snr(users, n_tx, 1)
        tail = sum(1.0 / k for k in range(users, users * n_tx))
        assert gap == pytest.approx((tail - math.log(n_tx)) / LN2, abs=1e-12)


@pytest.mark.parametrize("n_tx", [2, 3, 4])
def test_gap_single_rx_keeps_its_digits(n_tx):
    # (psi(n_tx K) - psi(K) - ln n_tx) / ln 2 against 50-digit mpmath, within
    # 4e-16 relative (1.7e-16 at most measured); the difference of two
    # harmonic numbers and ln n_tx was 1.2e-12 off at n_tx = 2 and 300
    # users, and 7.7e-9 at n_tx = 3 and 10^6 users
    for users in (1, 2, 3, 8, 15, 16, 31, 300, 10**4, 10**6):
        with mpmath.workdps(50):
            exact = ((mpmath.digamma(n_tx * users) - mpmath.digamma(users)
                      - mpmath.log(n_tx)) / mpmath.log(2))
            gap, _ = gap_high_snr(users, n_tx, 1)
            assert abs(gap - exact) <= 4e-16 * exact, users


def test_gap_single_rx_is_zero_for_one_antenna_and_finite_for_many():
    assert gap_high_snr(5, 1, 1)[0] == 0.0
    # above 2^8 transmit antennas the steps below 16 users are 1/x -
    # log1p(1/x): 3.9e-16 relative at 1000 antennas and 15 users
    for users in (1, 15, 16):
        with mpmath.workdps(50):
            exact = ((mpmath.digamma(1000 * users) - mpmath.digamma(users)
                      - mpmath.log(1000)) / mpmath.log(2))
            gap, _ = gap_high_snr(users, 1000, 1)
            assert abs(gap - exact) <= 1e-15 * exact, users


def test_gap_upper_single_rx_is_reciprocal_k():
    for users in (1, 2, 6):
        _, upper = gap_high_snr(users, 3, 1)
        assert upper == pytest.approx(1.0 / (users * LN2), rel=1e-14)


def test_gap_frozen_six_user():
    gap, upper = gap_high_snr(6, 3, 3)
    assert upper == pytest.approx(1.4852716868021922, rel=1e-12)
    assert gap == upper  # multi-antenna form only states the upper bound


def test_gap_rejects_more_rx_than_users():
    with pytest.raises(ValueError):
        gap_high_snr(2, 2, 3)


def test_gap_upper_trends():
    # decreasing in K at fixed n_R, increasing in n_R at fixed K
    by_users = [gap_high_snr(users, 2, 2)[1] for users in (2, 3, 4, 6)]
    assert np.all(np.diff(by_users) < 0)
    by_rx = [gap_high_snr(6, 2, n_rx)[1] for n_rx in (1, 2, 3, 5)]
    assert np.all(np.diff(by_rx) > 0)


def test_gap_convergence_at_high_snr():
    # MC capacity-minus-CDD at 40 dB approaches the closed-form gap
    for users, n_tx in [(1, 2), (2, 2)]:
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=1,
                           trials=30000, seed=40)
        got = monte_carlo_sweep(cfg, snr=np.array([1e4]), metrics=("diff",))
        mean, err = got["diff"]
        gap, _ = gap_high_snr(users, n_tx, 1)
        assert abs(float(mean[0]) - gap) <= max(0.05, 3 * float(err[0]))


def test_lower_bound_tightens_with_snr():
    # MC cdd minus rc_lower shrinks from 0 dB to 40 dB
    for users, n_tx, n_rx in [(1, 2, 1), (2, 2, 2)]:
        cfg = SystemConfig(users=users, n_tx=n_tx, n_rx=n_rx,
                           trials=20000, seed=41)
        grid = np.array([1.0, 1e4])
        mean, _ = monte_carlo_sweep(cfg, snr=grid, metrics=("cdd",))["cdd"]
        slack = mean - rc_lower_bound(users, n_tx, n_rx, grid)
        assert slack[1] < slack[0]


# --- psi_limit_check ----------------------------------------------------


def test_psi_limit_trivial_n_tx_one():
    np.testing.assert_array_equal(psi_limit_check(1, 50), np.zeros(50))


def test_psi_limit_empty_sum_at_one_user():
    # n_tx = 2, K = 1: the sum from 2 to 1 is empty, so the residual is ln 2
    assert psi_limit_check(2, 5)[0] == math.log(2)


def test_psi_limit_rejects_small_k_max():
    with pytest.raises(ValueError):
        psi_limit_check(2, 1)


@pytest.mark.parametrize("fn,args,field", [
    (rc_lower_bound, (2.5, 2, 2, 1.0), "users"),
    (cap_lower_bound, (2, 2.0, 2, 1.0), "n_tx"),
    (jensen_collapsed_bounds, (2, 2, 1.5, 1.0), "n_rx"),
    (rc_upper_bound, (2, 2.0, 1.0), "n_rx"),
    (gap_high_snr, (2.0, 2, 1), "users"),
    (harmonic, (2.5,), "n"),
    (psi_limit_check, (2, 2.5), "k_max"),
    (psi_limit_check, (2.0, 10), "n_tx"),
    (shuffle_permutation, (2.0, 2), "n_tx"),
    (sample_channel_block, (CFG, 0, 2.5), "stop"),
    (sample_channels, (CFG, 2.0), "trial_index"),
    (pareto_segment, (FACE, 2.5), "samples"),
    (monte_carlo_sweep, (CFG, 1.0, ("cdd",), 2.0), "workers"),
])
def test_sizes_must_be_integers(fn, args, field):
    # rc_lower_bound(2.5, ...) gave a number, harmonic(2.5) summed three
    # terms, psi_limit_check(2, 2.5) raised IndexError, the channel sizes
    # and the sample count raised numpy's TypeError, and workers=2.0 ran
    # serially on one chunk
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        fn(*args)


def test_psi_limit_decays_and_is_monotone():
    for n_tx in (2, 4):
        res = psi_limit_check(n_tx, 1000)
        assert res.shape == (1000,)
        assert res[-1] < 1e-3
        assert np.all(np.diff(res) <= 1e-15)


def test_psi_limit_matches_digamma_oracle():
    # residual_K = |psi(nT*K) - psi(K+1) - ln nT| by the oracle's digamma
    res = psi_limit_check(3, 20)
    for k in (1, 5, 20):
        expected = abs(digamma(3 * k) - digamma(k + 1) - math.log(3.0))
        assert res[k - 1] == pytest.approx(expected, abs=1e-12)


def test_bound_sizes_are_used_as_int():
    # a uint8 n_tx * users of 16 * 16 wrapped to 0: cap_lower_bound gave 0.0
    wide = (np.uint8(16), np.uint8(16), np.uint8(1))
    for fn in (rc_lower_bound, cap_lower_bound, jensen_collapsed_bounds):
        assert fn(*wide, 10.0) == fn(16, 16, 1, 10.0)
    assert rc_upper_bound(np.uint8(16), np.uint8(16), 10.0) \
        == rc_upper_bound(16, 16, 10.0)
    assert gap_high_snr(*wide) == gap_high_snr(16, 16, 1)


@pytest.mark.parametrize("fn,args", [
    (rc_lower_bound, (2, 2, 2)), (cap_lower_bound, (2, 2, 2)),
    (jensen_collapsed_bounds, (2, 2, 2)), (rc_upper_bound, (2, 2))])
def test_bounds_refuse_snr_the_rates_refuse(fn, args):
    # 1e300 (3000 dB) is the ceiling of the rates and the CLI too; above it
    # the bounds stayed finite while the rates failed
    assert np.all(np.isfinite(fn(*args, 1e300)))
    for snr in (-0.5, np.nan, np.array([1.0, 1e301])):
        with pytest.raises(ValueError, match="snr must be finite and >= 0"):
            fn(*args, snr)


# --- the bound family together ------------------------------------------


def test_bound_orderings_hold_on_random_grid():
    rng = np.random.default_rng(15)
    for _ in range(60):
        users, n_tx, n_rx = (int(v) for v in rng.integers(1, 5, size=3))
        snr = float(10 ** rng.uniform(-1, 3))
        rc_lower = rc_lower_bound(users, n_tx, n_rx, snr)
        rc_jensen, cap_jensen = jensen_collapsed_bounds(users, n_tx, n_rx,
                                                        snr)
        rc_upper = rc_upper_bound(users, n_rx, snr)
        cap_lower = cap_lower_bound(users, n_tx, n_rx, snr)
        assert rc_jensen <= rc_lower + 1e-12
        assert rc_lower <= rc_upper + 1e-9
        assert cap_jensen <= cap_lower + 1e-12
        for value in (rc_lower, rc_jensen, rc_upper, cap_lower, cap_jensen):
            assert np.isfinite(value)


@pytest.mark.parametrize("users,n_tx,n_rx", [
    (1, 4, 1), (2, 2, 2), (1, 4, 2), (6, 3, 3), (8, 4, 8)])
def test_bounds_first_order_at_low_snr(users, n_tx, n_rx):
    # at snr 1e-17 every bound is its first-order term up to a relative
    # 1e-17: log2(1 + s*c) -> s*c/ln2, with exp(psi(M - l + 1)) for the
    # lower bounds and L*M*s (the i = 1 moment term) for the upper bound
    snr = 1e-17

    def lower(m, s):
        lo, hi = min(n_rx, m), max(n_rx, m)
        exponents = digamma(hi - np.arange(1, lo + 1) + 1)
        return (s * np.exp(exponents).sum() / LN2,
                lo * s * np.exp(exponents.mean()) / LN2)

    rc, rc_jensen = lower(users, snr)
    cap, cap_jensen = lower(n_tx * users, snr / n_tx)
    upper = min(users, n_rx) * max(users, n_rx) * snr / LN2
    got = (rc_lower_bound(users, n_tx, n_rx, snr),
           *jensen_collapsed_bounds(users, n_tx, n_rx, snr),
           cap_lower_bound(users, n_tx, n_rx, snr),
           rc_upper_bound(users, n_rx, snr))
    for value, expected in zip(got, (rc, rc_jensen, cap_jensen, cap, upper)):
        assert value == pytest.approx(expected, rel=1e-9, abs=0)
