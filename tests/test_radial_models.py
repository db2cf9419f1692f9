"""Density catalogue checks.

Closed-form normalizers, tail kernels and moments are compared against
scipy.integrate.quad oracles so the two routes stay independent.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import radial_models
from sphereshrink.radial_models import (
    DivergentMoment,
    ModelError,
    gaussian,
    mixture_diff,
    poly_exp,
    tabulated,
)
from sphereshrink.numerics import sphere_surface


def quad_to_inf(fn, lo=0.0):
    val, err = sp_integrate.quad(fn, lo, np.inf, limit=400)
    assert err < 1e-6 * max(1.0, abs(val))  # quad's reported bound is conservative
    return val


ALL_MODELS = [
    gaussian(3),
    gaussian(5),
    poly_exp(2.0, 1.0, 3),
    poly_exp(4.0, 1.0, 5),
    poly_exp(0.0, 0.25, 4),
    mixture_diff(0.5, 0.5, 3),
    mixture_diff(0.9, 0.5, 4),
    mixture_diff(1.0, 0.1, 5),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_unit_mass(model):
    cp = sphere_surface(model.p)
    mass = quad_to_inf(lambda r: cp * r ** (model.p - 1) * model.density(r))
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_big_f_matches_quadrature(model):
    for u in (0.0, 0.7, 2.0, 5.0):
        oracle = quad_to_inf(lambda s: s * model.density(s), u)
        assert model.big_f(u) == pytest.approx(oracle, rel=1e-7, abs=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_big_f_decreasing_positive(model):
    u = np.linspace(0.0, 8.0, 100)
    F = model.big_f(u)
    assert np.all(F > 0)
    assert np.all(np.diff(F) <= 0)


def test_gaussian_norm_const():
    assert gaussian(3).norm_const == pytest.approx((2 * math.pi) ** -1.5, rel=1e-14)


def test_gaussian_big_f_closed_form():
    m = gaussian(4)
    u = np.array([0.0, 1.0, 3.0])
    assert np.allclose(m.big_f(u), m.norm_const * np.exp(-0.5 * u**2), rtol=1e-14)


def test_mixture_norm_const_closed_form_vs_quadrature():
    # K = ((2 pi)^{p/2} - a (2 pi b)^{p/2})^{-1}
    for (a, b, p) in [(0.5, 0.5, 4), (0.9, 0.5, 3), (1.0, 0.1, 5)]:
        m = mixture_diff(a, b, p)
        closed = 1.0 / ((2 * math.pi) ** (p / 2) - a * (2 * math.pi * b) ** (p / 2))
        assert m.norm_const == pytest.approx(closed, rel=1e-13)
        cp = sphere_surface(p)
        raw_mass = quad_to_inf(
            lambda r: cp * r ** (p - 1) * (math.exp(-0.5 * r**2) - a * math.exp(-0.5 * r**2 / b))
        )
        assert m.norm_const == pytest.approx(1.0 / raw_mass, rel=1e-7)


def test_mixture_density_nonnegative_at_a_equal_one():
    m = mixture_diff(1.0, 0.5, 3)
    r = np.linspace(0.0, 10.0, 500)
    assert np.all(m.density(r) >= 0.0)
    assert m.density(0.0) == 0.0


def test_poly_exp_f_over_f_ratio_at_one():
    # For alpha=2, beta=1 the ratio F(1)/f(1) collapses to exactly 1:
    # F(1) = K int_1^inf s^3 e^{-s^2} ds = K e^{-1} and f(1) = K e^{-1}.
    m = poly_exp(2.0, 1.0, 3)
    assert m.big_f(1.0) / m.density(1.0) == pytest.approx(1.0, rel=1e-12)


def test_poly_exp_ratio_formula_quadrature():
    # F(t)/(t^2 f(t)) as a one-variable integral in u = s/t:
    # int_1^inf u^{alpha+1} exp(beta t^2 (1 - u^2)) du
    alpha, beta, t = 2.0, 1.0, 1.3
    m = poly_exp(alpha, beta, 4)
    oracle = quad_to_inf(lambda u: u ** (alpha + 1) * math.exp(beta * t**2 * (1 - u**2)), 1.0)
    assert m.big_f(t) / (t**2 * m.density(t)) == pytest.approx(oracle, rel=1e-9)


# --- moments ----------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
@pytest.mark.parametrize("k", [2.0, -2.0, 1.0])
def test_moments_match_quadrature(model, k):
    cp = sphere_surface(model.p)
    oracle = quad_to_inf(lambda r: cp * r ** (model.p - 1 + k) * model.density(r))
    assert model.moment(k) == pytest.approx(oracle, rel=1e-8)


def test_gaussian_second_and_inverse_second_moment():
    m = gaussian(5)
    assert m.moment(2.0) == pytest.approx(5.0, rel=1e-13)
    assert m.moment(-2.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_poly_exp_moment_closed_forms():
    # E||X||^2 = (p/2 + alpha/2)/beta, E(1/||X||^2)^{-1} = (p/2 + alpha/2 - 1)/beta
    for (alpha, beta, p) in [(2.0, 1.0, 3), (4.0, 0.25, 5), (0.0, 4.0, 8)]:
        m = poly_exp(alpha, beta, p)
        assert m.moment(2.0) == pytest.approx((0.5 * p + 0.5 * alpha) / beta, rel=1e-12)
        assert 1.0 / m.moment(-2.0) == pytest.approx((0.5 * p + 0.5 * alpha - 1.0) / beta, rel=1e-12)


def test_mixture_second_moment_closed_form():
    # E||X||^2 = p (1 - a b^{p/2+1}) / (1 - a b^{p/2})
    for (a, b, p) in [(0.5, 0.5, 4), (0.9, 0.1, 3)]:
        m = mixture_diff(a, b, p)
        expect = p * (1 - a * b ** (p / 2 + 1)) / (1 - a * b ** (p / 2))
        assert m.moment(2.0) == pytest.approx(expect, rel=1e-12)


def test_divergent_moment_raises():
    with pytest.raises(DivergentMoment):
        gaussian(3).moment(-3.0)


# --- tail profiles ----------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_tail_profile_bound_holds_on_grid(model):
    prof = model.tail_profile()
    assert prof.r0 > 0 and prof.L > 0 and prof.s > 3.0
    grid = np.geomspace(prof.r0, prof.r0 * 1e3, 400)
    lhs = grid ** (model.p + prof.s) * model.density(grid)
    finite = np.isfinite(lhs)
    assert np.all(lhs[finite] <= prof.L * (1 + 1e-9))


def test_tabulated_power_tail_recovered():
    # Toy profile r^{-p-2.5}: the fitted tail exponent should give s
    # near 2.5 (log-log slope oracle built into the construction check).
    p = 3
    r = np.geomspace(0.1, 1000.0, 200)
    f = r ** (-p - 2.5)
    m = tabulated(r, f, p)
    prof = m.tail_profile()
    assert prof.s == pytest.approx(2.5, abs=0.05)
    cp = sphere_surface(p)
    mass = quad_to_inf(lambda x: cp * x ** (p - 1) * m.density(x))
    assert mass == pytest.approx(1.0, rel=1e-6)


def test_tabulated_big_f_consistency():
    p = 3
    r = np.geomspace(0.05, 500.0, 240)
    f = np.exp(-0.5 * r**2) + 1e-12 * r ** (-p - 6.0)
    m = tabulated(r, f, p)
    for u in (0.5, 1.0, 2.0):
        oracle = quad_to_inf(lambda s: s * m.density(s), u)
        assert m.big_f(u) == pytest.approx(oracle, rel=1e-5)


def test_support_radius_brackets_tail():
    m = gaussian(4)
    R = m.support_radius(1e-10)
    assert m.big_f(R) <= 1e-10 * m.big_f(0.0)
    assert m.big_f(0.9 * R) > 1e-10 * m.big_f(0.0)


def test_support_radius_is_kept_per_eps(monkeypatch):
    m = gaussian(4)
    R = m.support_radius(1e-10)
    calls = []
    monkeypatch.setattr(m, "big_f", lambda u: calls.append(u))
    assert m.support_radius(1e-10) == R
    assert calls == []


# --- validation -------------------------------------------------------

def test_invalid_parameters_rejected():
    with pytest.raises(ModelError):
        radial_models.normalize("gaussian", {}, 2)
    with pytest.raises(ModelError):
        poly_exp(-1.0, 1.0, 3)
    with pytest.raises(ModelError):
        poly_exp(1.0, 0.0, 3)
    with pytest.raises(ModelError):
        mixture_diff(0.0, 0.5, 3)
    with pytest.raises(ModelError):
        mixture_diff(1.5, 0.5, 3)
    with pytest.raises(ModelError):
        mixture_diff(0.5, 1.0, 3)
    with pytest.raises(ModelError):
        radial_models.normalize("cauchy", {}, 3)
    with pytest.raises(ModelError):
        radial_models.normalize("gaussian", {"sigma": 2.0}, 3)
    with pytest.raises(ModelError):
        radial_models.normalize("poly_exp", {"alpha": 1, "beta": 1, "betta": 3}, 4)


def test_tabulated_validation():
    r = np.geomspace(0.1, 100.0, 50)
    with pytest.raises(ModelError):
        tabulated(r, np.ones_like(r), 3)  # non-decaying tail
    bad = r.copy()
    bad[10] = bad[9]
    with pytest.raises(ModelError):
        tabulated(bad, r ** (-6.0), 3)
