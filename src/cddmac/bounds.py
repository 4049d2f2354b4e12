r"""Closed-form lower/upper bounds and high-SNR gap formulas.

Everything here is deterministic arithmetic on (users, n_tx, n_rx, snr).
Each bound is one kernel on an i.i.d. Rayleigh n_rx x m channel, taken for
CDD at m = users and snr (each DFT bin) and for capacity at m = n_tx*users
and snr/n_tx.  The Jensen-type lower bounds replace chi-square variates
inside E log2(1 + snr*X) by exp(E ln X) = exp(harmonic(dof-1) - gamma); the
upper bound takes log2 of the exact moment E det(I + snr * H H^H), a short
binomial/falling-factorial polynomial in snr.

snr arguments are linear power ratios and may be scalars or arrays (the
return matches); all outputs are bits per channel use.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import LN2, _index, _scalar, _snr

EULER_GAMMA = 0.577215664901532861


def harmonic(n: int) -> float:
    """n-th harmonic number sum_{k=1}^{n} 1/k, with harmonic(0) = 0; above
    2**8 its Euler-Maclaurin series (next term 1/(240 n^8) < 3e-22)."""
    n = _index("n", n, 0)
    if n <= 2**8:
        return float(np.sum(1.0 / np.arange(1, n + 1))) if n else 0.0
    r = 1.0 / (n * n)
    return (math.log(n) + EULER_GAMMA + 0.5 / n
            - r * (1 / 12 - r * (1 / 120 - r / 252)))


# B_2k / (2k), k = 1 ... 7: the coefficients of the asymptotic series
# psi(x) ~ ln x - 1/(2x) - sum_k B_2k / (2k x^2k); at x >= 16 the first
# omitted term is below 2e-20 of 1/(2x)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
               1 / 12)


def _psi_excess_series(u: float, n: float) -> float:
    """psi(n u) - psi(u) - ln n for u >= 16 and n >= 1, the asymptotic
    series' difference taken term by term: (n - 1) / (2 n u) + sum_k
    B_2k / (2k) (1 - n^-2k) u^-2k, so no two large numbers cancel."""
    t = 1.0 / (u * u)
    total = 0.0
    for k in range(len(_PSI_SERIES), 0, -1):
        total = total * t - _PSI_SERIES[k - 1] * math.expm1(
            -2 * k * math.log(n))
    return (n - 1) / (2 * n * u) + total * t


def _psi_excess(users: int, n_tx: int) -> float:
    """psi(n_tx users) - psi(users) - ln n_tx from terms that do not cancel
    (a difference of two harmonic numbers and ln n_tx lost up to 7.7e-9
    relative at 10^6 users).  From 16 users on it is the series'
    difference.  Below, the steps from x to x + 1 up to 16 are added
    exactly (math.fsum) to the series at 16; a step is sum_{r=1}^{n-1}
    r / (n x (n x + r)) > 0, or, for n_tx above 2^8, where those terms are
    too many, one of ln x - psi(x): 1/x - log1p(1/x) > 0, with psi(n_tx
    users) from the series.
    """
    if users >= 16:
        return _psi_excess_series(users, n_tx)
    if n_tx <= 2**8:
        head = [r / (n_tx * x * (n_tx * x + r)) for x in range(users, 16)
                for r in range(1, n_tx)]
        return math.fsum(head + [_psi_excess_series(16, n_tx)])
    head = [1 / x - math.log1p(1 / x) for x in range(users, 16)]
    return math.fsum(head + [_psi_excess_series(16, n_tx * users / 16)])


def _check_args(users, n_tx, n_rx, snr=0.0):
    """(users, n_tx, n_rx, snr) as ints >= 1 and a float array: a numpy
    integer size would multiply in its own width."""
    sizes = [_index(name, size, 1) for name, size
             in (("users", users), ("n_tx", n_tx), ("n_rx", n_rx))]
    return (*sizes, _snr(snr))


def _log1p_exp(s, c):
    """ln(1 + s e^c): log1p where s e^c is finite (1 + x would round a small
    x away), and ln s + c where it overflows, within 1e-300 relative."""
    with np.errstate(over="ignore", divide="ignore"):
        x = s * math.exp(c)
        return np.where(np.isinf(x), np.log(s) + c, np.log1p(x))


def _lower(n_rx, m, s):
    lo, hi = min(n_rx, m), max(n_rx, m)
    return sum(_log1p_exp(s, harmonic(hi - l) - EULER_GAMMA)
               for l in range(1, lo + 1)) / LN2


def _lower_jensen(n_rx, m, s):
    lo, hi = min(n_rx, m), max(n_rx, m)
    mean_h = sum(harmonic(hi - l) for l in range(1, lo + 1)) / lo
    return lo * _log1p_exp(s, mean_h - EULER_GAMMA) / LN2


def _upper(n_rx, m, s):
    lo, hi = min(n_rx, m), max(n_rx, m)
    with np.errstate(divide="ignore"):  # log(0) -> -inf kills i>=1 terms at snr=0
        log_s = np.log(s)
    # ln of the i = 0 term (1); logaddexp's log1p keeps low-SNR accuracy
    total = np.zeros_like(s)
    const = 0.0  # ln C(lo, i) * hi! / (hi - i)!, one exact factor per step
    for i in range(1, lo + 1):
        const += math.log((lo - i + 1) * (hi - i + 1) / i)
        total = np.logaddexp(total, const + i * log_s)
    return total / LN2


def rc_lower_bound(users: int, n_tx: int, n_rx: int, snr) -> float:
    """CDD ergodic sum-rate lower bound.

    sum_{l=1}^{L} log2(1 + snr * exp(harmonic(M-l) - gamma)) with
    L = min(n_rx, users), M = max(n_rx, users).  n_tx drops out of the bound
    and is kept only to match cap_lower_bound's arguments.
    """
    users, n_tx, n_rx, s = _check_args(users, n_tx, n_rx, snr)
    return _scalar(_lower(n_rx, users, s))


def cap_lower_bound(users: int, n_tx: int, n_rx: int, snr) -> float:
    """Sum-capacity lower bound: same construction with the full antenna pool.

    L~ = min(n_rx, n_tx*users), M~ = max(n_rx, n_tx*users), and the per-bin
    power split snr/n_tx.
    """
    users, n_tx, n_rx, s = _check_args(users, n_tx, n_rx, snr)
    return _scalar(_lower(n_rx, n_tx * users, s / n_tx))


def jensen_collapsed_bounds(users: int, n_tx: int, n_rx: int, snr):
    """Single-logarithm variants of both lower bounds (exponents averaged).

    Returns (rc_lower_jensen, cap_lower_jensen).  Averaging the exponents
    before the log can only lose tightness, so these sit at or below the
    term-by-term bounds; they share the same high-SNR slope and intercept.
    """
    users, n_tx, n_rx, s = _check_args(users, n_tx, n_rx, snr)
    return (_scalar(_lower_jensen(n_rx, users, s)),
            _scalar(_lower_jensen(n_rx, n_tx * users, s / n_tx)))


def rc_upper_bound(users: int, n_rx: int, snr) -> float:
    """CDD ergodic sum-rate upper bound via the exact determinant moment.

    log2( sum_{i=0}^{L} C(L,i) * M!/(M-i)! * snr^i ), L = min(n_rx, users),
    M = max(n_rx, users).  Evaluated in log space (log-sum-exp) so large snr
    and factorials cannot overflow.
    """
    users, _, n_rx, s = _check_args(users, 1, n_rx, snr)
    return _scalar(_upper(n_rx, users, s))


def gap_high_snr(users: int, n_tx: int, n_rx: int):
    """High-SNR capacity-minus-CDD gap, returned as (gap, gap_upper) in bits.

    n_rx = 1: gap is the exact limit of the lower-bound difference,
    (1/ln2) * (sum_{k=users}^{n_tx*users - 1} 1/k - ln n_tx), and gap_upper
    is the universal ceiling 1/(users*ln2).

    n_rx > 1 (valid for n_rx <= users): both values are the gap upper-bound
    sum (1/ln2) * sum_{l=1}^{n_rx} (1/(users-l+1)) *
    (1 + (users-l+1) * ln(1/n_tx + (n_tx-1)*users/(n_tx*(users-l+1)))).

    Raises ValueError for n_rx > users with n_rx > 1: the formula's stated
    validity ends there and no number is reported.
    """
    users, n_tx, n_rx, _ = _check_args(users, n_tx, n_rx)
    if n_rx == 1:
        return _psi_excess(users, n_tx) / LN2, 1.0 / (users * LN2)
    if n_rx > users:
        raise ValueError(
            "gap formula is only stated for n_rx <= users; "
            f"got n_rx={n_rx} > users={users}")
    total = 0.0
    for l in range(1, n_rx + 1):
        m = users - l + 1
        total += (1.0 / m) * (1.0 + m * math.log(
            1.0 / n_tx + (n_tx - 1) * users / (n_tx * m)))
    total /= LN2
    return total, total


def psi_limit_check(n_tx: int, k_max: int) -> np.ndarray:
    """Residuals |sum_{k=K+1}^{n_tx*K-1} 1/k - ln n_tx| for K = 1..k_max.

    The sum telescopes two digamma values, so the residual decays like
    O(1/K); callers assert it is monotone and small at large K.
    """
    n_tx, k_max = _index("n_tx", n_tx, 1), _index("k_max", k_max, 2)
    top = n_tx * k_max
    # prefix[i] = H_i for i = 0..top; an empty sum reads H_{K-1} - H_K < 0
    prefix = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, top + 1))))
    ks = np.arange(1, k_max + 1)
    partial = np.maximum(prefix[n_tx * ks - 1] - prefix[ks], 0.0)
    return np.abs(partial - math.log(n_tx))

