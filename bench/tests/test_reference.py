"""Telatar's integral against two computations that share nothing with it."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from reference import eigen_density, expected_logdet_bits


@pytest.mark.parametrize("rho", [0.01, 0.1, 1.0, 10.0, 1e3, 1e4])
def test_single_antenna_closed_form(rho):
    # E log2(1 + rho |h|^2) = e^{1/rho} E1(1/rho) / ln 2 for h ~ CN(0, 1)
    exact = math.exp(1.0 / rho) * exp1(1.0 / rho) / math.log(2.0)
    assert expected_logdet_bits(1, 1, rho) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 4), (8, 8),
                                       (8, 32)])
def test_density_mass_is_min_dimension(rows, cols):
    mass, _ = quad(eigen_density, 0.0, np.inf, args=(rows, cols), limit=200)
    assert mass == pytest.approx(min(rows, cols), rel=1e-9)


@pytest.mark.parametrize("rows,cols,a", [(1, 2, 100.0), (2, 2, 5.0),
                                         (2, 4, 0.5), (8, 8, 1e3),
                                         (8, 32, 25.0)])
def test_matches_plain_monte_carlo(rows, cols, a):
    rng = np.random.default_rng(20070719)
    n = 40000
    h = (rng.standard_normal((n, rows, cols))
         + 1j * rng.standard_normal((n, rows, cols))) / np.sqrt(2.0)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    sign, logdet = np.linalg.slogdet(np.eye(rows) + a * gram)
    assert np.all(sign.real > 0)
    bits = logdet / np.log(2.0)
    stderr = bits.std(ddof=1) / np.sqrt(n)
    assert abs(bits.mean() - expected_logdet_bits(rows, cols, a)) < 5 * stderr


def test_symmetric_in_shape_and_zero_at_zero_snr():
    assert expected_logdet_bits(2, 6, 3.0) == expected_logdet_bits(6, 2, 3.0)
    assert expected_logdet_bits(3, 3, 0.0) == 0.0
    with pytest.raises(ValueError):
        expected_logdet_bits(0, 2, 1.0)
