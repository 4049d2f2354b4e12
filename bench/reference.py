"""Ergodic log-determinants by Telatar's integral, independent of cddmac.

For an m x n matrix H with i.i.d. unit-power circularly-symmetric complex
Gaussian entries, W = H H^H (or H^H H, same nonzero spectrum) is Wishart and

    E ln det(I + a W) = int_0^inf ln(1 + a x) p(x) dx,
    p(x) = sum_{k=0}^{s-1} k!/(k+d)! [L_k^(d)(x)]^2 x^d e^{-x},

with s = min(m, n), d = |m - n| and L_k^(d) the generalised Laguerre
polynomials (Telatar, "Capacity of multi-antenna Gaussian channels", 1999).
p integrates to s: it is s times the density of one unordered eigenvalue.
The integral is evaluated with scipy.integrate.quad; nothing here imports
the package under test.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

LN2 = math.log(2.0)


def eigen_density(x: float, rows: int, cols: int) -> float:
    """s times the unordered-eigenvalue density of H H^H at x > 0."""
    s, d = min(rows, cols), abs(rows - cols)
    if x <= 0.0:
        return 0.0
    log_base = d * math.log(x) - x
    total = 0.0
    for k in range(s):
        lag = float(eval_genlaguerre(k, d, x))
        total += math.exp(gammaln(k + 1) - gammaln(k + d + 1) + log_base) \
            * lag * lag
    return total


@lru_cache(maxsize=None)
def expected_logdet_bits(rows: int, cols: int, a: float) -> float:
    """E log2 det(I + a H H^H) for an i.i.d. CN(0, 1) rows x cols matrix H."""
    if min(rows, cols) < 1:
        raise ValueError("rows and cols must be >= 1")
    if not a >= 0.0 or not math.isfinite(a):
        raise ValueError("a must be finite and >= 0")
    if a == 0.0:
        return 0.0
    # The density's mass sits below about 2 * (rows + cols); splitting there
    # lets quad resolve the bulk on a finite interval and the tail apart.
    split = 2.0 * (rows + cols)

    def integrand(x):
        return math.log1p(a * x) * eigen_density(x, rows, cols)

    opts = dict(epsabs=1e-12, epsrel=1e-11, limit=200)
    body, _ = quad(integrand, 0.0, split, **opts)
    tail, _ = quad(integrand, split, np.inf, **opts)
    return (body + tail) / LN2
