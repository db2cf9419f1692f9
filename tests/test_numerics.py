"""Quadrature kernel and special-function checks.

Oracle values here are independent closed forms (antiderivatives worked
by hand) or scipy.integrate.quad, never the integrator under test.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import numerics
from sphereshrink.numerics import (
    DivergenceSuspected,
    NonFiniteIntegrand,
    QuadratureSpec,
    ToleranceNotReached,
    beta_fn,
    integrate,
    integrate_semi_infinite,
    log_gamma,
    sphere_surface,
    upper_incomplete_gamma,
)


def test_unit_constant():
    res = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error_estimate <= 1e-12
    assert res.evaluations > 0


def test_polynomial_exactness_high_degree():
    # 15-point Gauss is exact through degree 29; a single segment must
    # nail x^29 on [0, 1] without any subdivision help.
    res = integrate(lambda x: x**numerics.EXACT_DEGREE, 0.0, 1.0)
    assert abs(res.value - 1.0 / (numerics.EXACT_DEGREE + 1)) < 1e-14


def test_sin_squared_over_pi():
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, math.pi)
    assert abs(res.value - math.pi / 2) <= 1e-10


def test_oscillatory_against_scipy():
    f = lambda x: np.cos(7.3 * x) * np.exp(-0.5 * x)
    oracle, _ = sp_integrate.quad(lambda x: math.cos(7.3 * x) * math.exp(-0.5 * x), 0.0, 6.0)
    res = integrate(f, 0.0, 6.0)
    assert abs(res.value - oracle) < 1e-10


def test_reversed_endpoints_flip_sign():
    fwd = integrate(lambda x: x**2, 0.0, 2.0)
    rev = integrate(lambda x: x**2, 2.0, 0.0)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-13)


def test_inverse_sqrt_endpoint_singularity():
    # Integrable endpoint singularity: nodes never touch 0, adaptivity
    # has to dig in. Antiderivative 2*sqrt(x) gives exactly 2.
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=4000)
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
    assert abs(res.value - 2.0) < 1e-8


def test_interior_kink_with_hint():
    # |x - 0.3| has a kink; hinting it gives fast clean convergence.
    spec = QuadratureSpec(singularity_hints=(0.3,))
    res = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, spec)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(res.value - exact) < 1e-13


def test_error_estimate_bound_on_success():
    res = integrate(lambda x: np.exp(x), 0.0, 1.0)
    assert res.error_estimate <= max(1e-12, 1e-10 * abs(res.value))


def test_tolerance_not_reached_raises():
    # An endpoint singularity cannot be resolved in 3 subdivisions.
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(ToleranceNotReached) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
    assert excinfo.value.result.evaluations > 0
    assert excinfo.value.worst_segment is not None


def test_non_finite_integrand_rejected():
    def bad(x):
        y = np.ones_like(x)
        y[x > 0.4] = np.inf
        return y

    with pytest.raises(NonFiniteIntegrand):
        integrate(bad, 0.0, 1.0)


def test_semi_infinite_gaussian_tail():
    # int_0^inf exp(-r^2/2) dr = sqrt(pi/2)
    res = integrate_semi_infinite(lambda r: np.exp(-0.5 * r**2), 0.0, decay="exp", scale=1.0)
    assert abs(res.value - math.sqrt(math.pi / 2)) < 1e-12


def test_semi_infinite_gamma_integrand():
    # int_0^inf r^2 exp(-r) dr = Gamma(3) = 2; the contract promises
    # error <= max(abs_tol, rel_tol * |value|) = 2e-10 at defaults.
    res = integrate_semi_infinite(lambda r: r**2 * np.exp(-r), 0.0, decay="exp", scale=1.0)
    assert abs(res.value - 2.0) < 5e-10


def test_semi_infinite_power_decay():
    # int_1^inf r^-2.5 dr = 1/1.5
    res = integrate_semi_infinite(lambda r: r**-2.5, 1.0, decay="power", scale=1.0)
    assert abs(res.value - 1.0 / 1.5) < 1e-11


def test_semi_infinite_shifted_origin():
    # int_2^inf exp(-(r-2)) dr = 1 with a scale hint away from 1
    res = integrate_semi_infinite(lambda r: np.exp(-(r - 2.0)), 2.0, decay="exp", scale=2.0)
    assert abs(res.value - 1.0) < 1e-11


def test_semi_infinite_divergence_flagged():
    spec = QuadratureSpec(max_subdivisions=200)
    with pytest.raises(DivergenceSuspected):
        integrate_semi_infinite(lambda r: 1.0 / (1.0 + r), 0.0, spec, decay="power", scale=1.0)


def test_cumulative_segments_sum_matches_direct():
    knots = np.linspace(0.0, 3.0, 7)
    pieces = numerics.cumulative_segments(lambda x: np.exp(-x), knots)
    direct = integrate(lambda x: np.exp(-x), 0.0, 3.0)
    assert pieces.shape == (6,)
    assert abs(pieces.sum() - direct.value) < 1e-12
    assert np.all(pieces > 0)


def test_integrate_pieces_in_one_pass_and_raises_on_a_miss():
    # oracle: the antiderivative -exp(-x); sqrt is not smooth at 0, so
    # one G7/G15 pass over [0, 1] cannot reach the default tolerance
    edges = np.linspace(0.0, 3.0, 7)
    pieces = numerics.integrate_pieces(lambda x: np.exp(-x), edges[:-1], edges[1:])
    assert np.allclose(pieces, np.exp(-edges[:-1]) - np.exp(-edges[1:]), rtol=1e-14, atol=0.0)
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_pieces(np.sqrt, np.array([1.0, 0.0]), np.array([2.0, 1.0]))
    assert exc.value.worst_segment == (0.0, 1.0)


# --- special functions -------------------------------------------------

def test_log_gamma_factorial():
    assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)


def test_beta_function_values():
    assert beta_fn(1.0, 0.5) == pytest.approx(2.0, rel=1e-13)
    # B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) cross-check at a generic point
    a, b = 2.3, 4.1
    oracle = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    assert beta_fn(a, b) == pytest.approx(oracle, rel=1e-13)


def test_upper_incomplete_gamma_exponential_case():
    # Gamma(1, x) = exp(-x)
    for x in (0.0, 0.5, 3.0, 100.0, 300.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_upper_incomplete_gamma_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s exp(-x)
    s, x = 2.7, 1.9
    lhs = upper_incomplete_gamma(s + 1.0, x)
    rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_upper_incomplete_gamma_vectorized():
    x = np.array([0.1, 1.0, 10.0])
    out = upper_incomplete_gamma(2.0, x)
    expect = (x + 1.0) * np.exp(-x)  # Gamma(2, x) = (x+1) e^-x
    assert np.allclose(out, expect, rtol=1e-12)


def test_sphere_surface_low_dimensions():
    assert sphere_surface(2.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface(3.0) == pytest.approx(4 * math.pi, rel=1e-14)
    # c_4 = 2 pi^2
    assert sphere_surface(4.0) == pytest.approx(2 * math.pi**2, rel=1e-14)
