"""Convolution oracle checks.

The 2-d reduction is compared against closed forms (the gaussian
potential erf(r/sqrt(2))/r at p=3), against Monte Carlo in full
dimension, and against the 1-d fast routes it exists to certify.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.special import erf

from sphereshrink.numerics import sphere_surface
from sphereshrink.radial_models import DivergentMoment, gaussian, mixture_diff, poly_exp, tabulated
from sphereshrink.rv_priors import custom_prior, harmonic_prior, power_prior
from sphereshrink.radial_convolution import (
    AsymptoticProbe,
    ConvolutionError,
    ConvolutionProblem,
    asymptotic_ratio_probe,
    c_f,
    directional_marginal,
    harmonic_marginal_closed,
    kernel_marginal_M,
    marginal_m,
    radial_expectation,
)


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


# --- C_f --------------------------------------------------------------

def test_c_f_gaussian_unit():
    assert c_f(gaussian(3)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("model", [gaussian(3), poly_exp(2.0, 1.0, 5)], ids=repr)
def test_c_f_displayed_formula(model):
    # volume-constant form: {pi^{p/2}/Gamma(p/2+1)} int z^{p+1} f(z) dz
    p = model.p
    vol = math.pi ** (0.5 * p) / math.gamma(0.5 * p + 1.0)
    val, err = sp_integrate.quad(lambda z: z ** (p + 1) * model.density(z), 0.0, np.inf, limit=300)
    assert err < 1e-7 * max(1.0, val)  # quad's bound is conservative
    assert c_f(model) == pytest.approx(vol * val, rel=1e-8)


def test_c_f_scaling():
    # f_lam(r) = lam^p f(lam r) rescales C_f by lam^{-2}
    lam = 2.0
    base = c_f(poly_exp(0.0, 0.5, 4))
    scaled = c_f(poly_exp(0.0, 0.5 * lam * lam, 4))
    assert scaled == pytest.approx(base / lam**2, rel=1e-12)


def test_c_f_divergent():
    p = 3
    r = np.geomspace(0.1, 1000.0, 200)
    with pytest.raises(DivergentMoment):
        c_f(tabulated(r, r ** (-p - 1.5), p))


# --- problem validation -----------------------------------------------

def test_problem_validation():
    m = gaussian(3)
    with pytest.raises(ConvolutionError):
        ConvolutionProblem(m, "pdf", ones, 1.0, 0.0)
    with pytest.raises(ConvolutionError):
        ConvolutionProblem(m, "density", ones, -1.0, 0.0)
    with pytest.raises(ConvolutionError):
        ConvolutionProblem(m, "density", ones, 1.0, -3.0)


# --- total mass through the reduction ---------------------------------

@pytest.mark.parametrize("model", [gaussian(3), mixture_diff(0.5, 0.5, 4), poly_exp(2.0, 1.0, 5)], ids=repr)
@pytest.mark.parametrize("kernel", ["density", "tail_kernel"])
@pytest.mark.parametrize("r", [0.0, 2.0])
def test_unit_mass(model, kernel, r):
    val = radial_expectation(ConvolutionProblem(model, kernel, ones, r, 0.0))
    assert val == pytest.approx(1.0, abs=1e-8)


def test_second_moment_at_the_origin_on_a_power_tail_table():
    # a table's knots are kinks in f; at r = 0 the radial integral is
    # split there, where unsplit it ran out of subdivisions
    rr = np.geomspace(0.01, 100, 300)
    m = tabulated(rr, (1.0 + rr**2) ** -4, 5)
    val = radial_expectation(ConvolutionProblem(m, "density", lambda s: s**2, 0.0))
    assert val == pytest.approx(m.moment(2.0), rel=1e-9)
    assert val == pytest.approx(5.00129548784, rel=1e-9)


def test_rotation_invariance_monte_carlo():
    # same ||x||, different directions: the p-dim MC integral must agree
    # with the reduced oracle within its own noise
    m = gaussian(3)
    prior = harmonic_prior(3)
    r = 2.0
    oracle = marginal_m(prior, m, r, force_oracle=True)
    rng = np.random.default_rng(31)
    n = 400_000
    z = rng.standard_normal((n, 3))
    for x in (np.array([r, 0.0, 0.0]), np.array([r, r, r]) / math.sqrt(3.0)):
        vals = 1.0 / np.linalg.norm(x + z, axis=1)
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - oracle) < 3.5 * se


# --- harmonic marginal ------------------------------------------------

def test_harmonic_closed_gaussian_potential():
    # p=3 gaussian: m(r) = erf(r/sqrt 2)/r exactly
    m = gaussian(3)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        expect = erf(r / math.sqrt(2.0)) / r
        assert harmonic_marginal_closed(m, r) == pytest.approx(expect, rel=1e-10)


def test_harmonic_closed_at_origin():
    # m(0) = c_p F(0) = E||X||^{2-p}, also where r^{p-2} underflows
    assert harmonic_marginal_closed(gaussian(3), 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    m0 = harmonic_marginal_closed(gaussian(5), 0.0)
    for r in (1e-30, 1e-103, 1e-120):
        assert harmonic_marginal_closed(gaussian(5), r) == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize("model_fn", [gaussian, lambda p: poly_exp(2.0, 1.0, p), lambda p: mixture_diff(0.5, 0.5, p)],
                         ids=["gaussian", "poly_exp", "mixture"])
@pytest.mark.parametrize("p", [3, 4, 5, 8])
@pytest.mark.parametrize("r", [0.1, 1.0, 5.0, 20.0])
def test_harmonic_closed_matches_oracle(model_fn, p, r):
    model = model_fn(p)
    closed = harmonic_marginal_closed(model, r)
    oracle = marginal_m(harmonic_prior(p), model, r, force_oracle=True)
    assert abs(oracle - closed) / closed <= 1e-9


def test_harmonic_closed_on_a_tabulated_model():
    # the same radial integral c_p (p-2) r^{2-p} int_0^r u^{p-3} F(u) du by
    # scipy quad, split at the table's knots
    knots = np.geomspace(0.02, 3.0, 220)
    m = tabulated(knots, np.exp(-(knots**4)), 3)
    cp = sphere_surface(3)
    for r in (0.5, 2.0, 10.0):
        edges = np.concatenate(([0.0], knots[knots < r], [r]))
        inner = sum(sp_integrate.quad(lambda u: m.big_f(u), lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:]))
        assert harmonic_marginal_closed(m, r) == pytest.approx(cp * inner / r, rel=1e-9)


# --- directional numerator ---------------------------------------------

@pytest.mark.parametrize("model", [gaussian(5), poly_exp(2.0, 1.0, 4)], ids=repr)
@pytest.mark.parametrize("r", [0.5, 3.0, 20.0])
def test_directional_marginal_closed_forms(model, r):
    # with theta = x + y, the y-odd part of rho(||x + y||) (y . x/r) integrates
    # to 0: nothing is left for rho = 1, and 2 r E(y . x/r)^2 for rho = s^2
    assert abs(directional_marginal(ones, model, r)) <= 1e-14
    expected = 2.0 * r * model.moment(2.0) / model.p
    assert directional_marginal(lambda s: s**2, model, r) == pytest.approx(expected, rel=1e-10)


# --- marginal dispatch ------------------------------------------------

def test_marginal_flat_prior_is_one():
    flat = power_prior(0.0, 4)
    m = gaussian(4)
    for r in (0.0, 1.0, 7.0):
        assert marginal_m(flat, m, r) == pytest.approx(1.0, abs=1e-7)


def test_marginal_harmonic_dispatch():
    m = gaussian(5)
    closed = harmonic_marginal_closed(m, 2.0)
    assert marginal_m(harmonic_prior(5), m, 2.0) == closed
    assert marginal_m(power_prior(-3.0, 5), m, 2.0) == closed  # k = 2-p alias
    oracle = marginal_m(harmonic_prior(5), m, 2.0, force_oracle=True)
    assert abs(oracle - closed) / closed < 1e-6


def test_marginal_rejections():
    with pytest.raises(ConvolutionError):
        marginal_m(harmonic_prior(4), gaussian(5), 1.0)


def test_marginal_integrability_failure():
    # prior growing faster than the kernel decays
    g = lambda e: np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    gp = lambda e: 1.2 * np.asarray(e, dtype=float) * np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    wild = custom_prior(g, gp, 3)
    with pytest.raises(ConvolutionError):
        marginal_m(wild, gaussian(3), 1.0)


# --- asymptotic probe -------------------------------------------------

def test_probe_harmonic_gaussian():
    probe = asymptotic_ratio_probe(harmonic_prior(3), gaussian(3), [10.0, 100.0, 1000.0])
    assert isinstance(probe, AsymptoticProbe)
    for name in ("m_g", "M_g", "M_g_over_norm"):
        devs = [abs(x - 1.0) for x in probe.ratios[name]]
        assert devs[0] <= 0.05 and devs[1] <= 0.005 and devs[2] <= 0.0005, name
    assert probe.fitted_eps["M_g_over_norm"] > 0


def test_probe_flat_prior_exact():
    probe = asymptotic_ratio_probe(power_prior(0.0, 3), gaussian(3), [2.0, 8.0])
    for name in ("m_g", "M_g"):
        for x in probe.ratios[name]:
            assert x == pytest.approx(1.0, abs=1e-9)


def test_probe_power_prior_converges():
    probe = asymptotic_ratio_probe(power_prior(-1.0, 4), gaussian(4), [5.0, 20.0, 80.0])
    assert abs(probe.ratios["m_g"][-1] - 1.0) < 1e-3
    assert probe.fitted_eps["m_g"] > 0


def test_probe_rejections():
    with pytest.raises(ConvolutionError):
        asymptotic_ratio_probe(harmonic_prior(3), gaussian(3), [5.0])
    p = 3
    r = np.geomspace(0.1, 1000.0, 200)
    heavy = tabulated(r, r ** (-p - 2.6), p)  # s ~ 2.6 under the lemma threshold
    with pytest.raises(ConvolutionError):
        asymptotic_ratio_probe(harmonic_prior(3), heavy, [10.0, 100.0])
