"""Convolution oracle checks.

The 2-d reduction is compared against closed forms (the gaussian
potential erf(r/sqrt(2))/r at p=3), against Monte Carlo in full
dimension, and against the 1-d fast routes it exists to certify.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.special import erf

from sphereshrink import numerics, radial_convolution
from sphereshrink.numerics import ToleranceNotReached, sphere_surface
from sphereshrink.radial_models import DivergentMoment, gaussian, mixture_diff, poly_exp, tabulated
from sphereshrink.rv_priors import custom_prior, harmonic_prior, log_thickened_prior, power_prior
from sphereshrink.shrinkage import gb_multiplier
from sphereshrink.radial_convolution import (
    AsymptoticProbe,
    ConvolutionError,
    ConvolutionProblem,
    IntegrabilityError,
    asymptotic_ratio_probe,
    c_f,
    directional_marginal,
    gb_marginals,
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
    with pytest.raises(ConvolutionError, match="radius must be nonnegative"):
        ConvolutionProblem(m, "density", ones, math.nan, 0.0)


@pytest.mark.parametrize("prior", [harmonic_prior(5), power_prior(-2.5, 5)], ids=["harmonic", "power"])
def test_a_nan_radius_is_refused_at_the_request(prior):
    # NaN passed r < 0: the harmonic prior's closed form returned nan, and
    # the power prior's oracle raised IntegrabilityError, a numeric failure
    with pytest.raises(ConvolutionError, match="radius must be nonnegative") as exc:
        marginal_m(prior, gaussian(5), math.nan)
    assert not isinstance(exc.value, IntegrabilityError)


def test_a_nan_radius_is_refused_by_the_harmonic_closed_form():
    with pytest.raises(ConvolutionError, match="radius must be nonnegative"):
        harmonic_marginal_closed(gaussian(5), math.nan)


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


def test_the_origin_rows_on_a_table_start_their_tail_at_the_last_knot(monkeypatch):
    # beyond its last knot the table's density is an exact power law: the
    # heads run over the knots, and the tails start at the last one, on
    # that scale (on scale 1 the tail-kernel row below takes 40 rounds)
    rounds = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: rounds.append(1) or pair(*args))
    rr = np.geomspace(0.01, 100, 300)
    m = tabulated(rr, (1.0 + rr**2) ** -4, 5)
    val = radial_expectation(ConvolutionProblem(m, "density", lambda s: s**2, 0.0))
    assert val == pytest.approx(m.moment(2.0), rel=1e-14, abs=0.0)
    rounds.clear()
    assert radial_expectation(ConvolutionProblem(m, "tail_kernel", ones, 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert len(rounds) <= 26, len(rounds)


def test_rotation_invariance_monte_carlo():
    # same ||x||, different directions: the p-dim MC integral must agree
    # with the reduced oracle within its own noise
    m = gaussian(3)
    prior = harmonic_prior(3)
    r = 2.0
    oracle = radial_expectation(ConvolutionProblem(m, "density", prior.g_eval, r, prior.origin_class))
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


@pytest.mark.parametrize("p, r, expect", [(5, 1e80, 1e-240), (5, 1e110, 0.0), (20, 1e20, 0.0)])
def test_harmonic_closed_far_out(p, r, expect):
    # m is about r^(2-p); r ** (p - 2) raised OverflowError past 1e308,
    # where m underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = harmonic_marginal_closed(gaussian(p), r)
    assert m == pytest.approx(expect, rel=1e-12, abs=0.0)


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
    prior = harmonic_prior(p)
    oracle = radial_expectation(ConvolutionProblem(model, "density", prior.g_eval, r, prior.origin_class))
    assert abs(oracle - closed) / closed <= 1e-9


@pytest.mark.parametrize("model_fn", [gaussian, lambda p: poly_exp(2.0, 1.0, p)], ids=["gaussian", "poly_exp"])
@pytest.mark.parametrize("p", [3, 5])
def test_oracle_harmonic_m_and_s_meet_their_closed_forms(model_fn, p):
    # Newton's theorem for g = eta^{2-p}: with B = int_0^r t^{p-3} F and
    # A = int_0^r t^{p-1} F, m = c_p (p-2) r^{2-p} B(r) and the directional
    # numerator S = -c_p (p-2) r^{1-p} A(r).  The oracle's ridge rows must
    # reach both to 1e-12 on each side of the head/tail cut.
    model = model_fn(p)
    prior = harmonic_prior(p)
    cp = sphere_surface(p)
    for r in (0.05, 0.3, 1.0, model.support_radius(1e-16), 5.0, 64.0, 300.0):
        m = radial_expectation(ConvolutionProblem(model, "density", prior.g_eval, r, prior.origin_class))
        s = directional_marginal(prior.g_eval, model, r, singularity_class=2.0 - p)
        closed_m = cp * (p - 2.0) * r ** (2.0 - p) * float(model.kernel_moment(p - 3.0, r))
        closed_s = -cp * (p - 2.0) * r ** (1.0 - p) * float(model.kernel_moment(p - 1.0, r))
        assert m == pytest.approx(closed_m, rel=1e-12), r
        assert s == pytest.approx(closed_s, rel=1e-12), r


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
def test_directional_marginal_closed_forms(model, r, swept):
    # with theta = x + y, the y-odd part of rho(||x + y||) (y . x/r) integrates
    # to 0: nothing is left for rho = 1, and 2 r E(y . x/r)^2 for rho = s^2.
    # The sweep reaches the 0 to 1e-14.  A bell row's S is r (M/p - m), a
    # difference of two terms of size r m = r, so it reaches 0 to a few ulps of r.
    assert abs(swept(model, r, [("density", ones, 0.0)], (0,))[0]) <= 1e-14
    bound = 1e-14 if model.bells() is None else 8.0 * np.finfo(float).eps * r
    assert abs(directional_marginal(ones, model, r)) <= bound
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
    prior = harmonic_prior(5)
    oracle = radial_expectation(ConvolutionProblem(m, "density", prior.g_eval, 2.0, prior.origin_class))
    assert abs(oracle - closed) / closed < 1e-6


def test_marginal_rejections():
    with pytest.raises(ConvolutionError):
        marginal_m(harmonic_prior(4), gaussian(5), 1.0)


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


@pytest.mark.parametrize("r", [1e4, 1e5])
def test_the_oracle_finds_the_kernel_far_from_the_origin(r):
    # with [0, r] as one starting piece every node of a far r falls where f
    # underflows, and m reads 0; the head is split at the support radius
    model = gaussian(5)
    assert r > 1000.0 * model.support_radius(1e-16)
    m = marginal_m(power_prior(-2.5, 5), model, r)
    assert abs(m / r**-2.5 - 1.0) <= 1.0 / r**2
    kappa = gb_multiplier(harmonic_prior(5), model, 5, r)
    assert abs((1.0 - kappa) * r * r / 3.0 - 1.0) <= 1e-5


# --- parity with one-term sweeps ---------------------------------------

# m, S = directional_marginal(g) and M = kernel_marginal_M(g) on the
# parity grid (tests/conftest.py), as float.hex, each from its own
# one-term sweep: the sweep's head and tail rows of that term alone, with
# every ridge row starting from the graded mesh and every power tail (the
# tabulated model's) from the ratio-4 ladder.  The harmonic m is the
# closed form.  A term's value does not depend on the batch
# (test_a_term_has_the_same_value_alone_and_in_a_batch), so these pins
# hold for every batched request too.  For a model without bells the
# public functions are this sweep; the gaussian's take its bell rows, so
# its pins are asserted through ``_sweep`` itself.
PARITY = {
    ("harmonic", "gaussian"): {
        "m": ("0x1.0f876ddbdefe2p-2", "0x1.970936ca06d76p-3", "0x1.9e77e8d76fc51p-10", "0x1.ffffffffffffdp-19", "0x1.12e0be826d693p-30"),
        "S": ("-0x1.0484d4deb7081p-6", "-0x1.cbfde52f63404p-4", "-0x1.21b523100678bp-11", "-0x1.7fffffffffe56p-23", "-0x1.a636641c4d6d4p-39"),
        "M": ("0x1.0f876ddbdefe4p-2", "0x1.970936ca06d81p-3", "0x1.9e77e8d76fc59p-10", "0x1.fffffffffffdep-19", "0x1.12e0be826d644p-30"),
    },
    ("harmonic", "poly_exp"): {
        "m": ("0x1.341dbd470bebep-2", "0x1.0bd3d747f3ce3p-2", "0x1.fb405319dfa77p-9", "0x1.0000000000002p-18", "0x1.12e0be826d697p-30"),
        "S": ("-0x1.27ca26ecce4c0p-6", "-0x1.34bdb002125d2p-3", "-0x1.4e7c328f55042p-10", "-0x1.0cccccccccbcep-23", "-0x1.278c79470334fp-39"),
        "M": ("0x1.b6dad5e091e64p-2", "0x1.3c682d4a943c1p-2", "0x1.fb405319dfa73p-9", "0x1.fffffffffffdep-19", "0x1.12e0be826d679p-30"),
    },
    ("harmonic", "tabulated"): {
        "m": ("0x1.aae2f952f78f3p+0", "0x1.fffffe96e3f57p-2", "0x1.53edb57bdc666p-27", "0x1.ffff265b11ac4p-19", "0x1.12e0be7a50a49p-30"),
        "S": ("-0x1.986978233f91fp-4", "-0x1.d067c7d8b0033p-3", "-0x1.173c29de67c8ap-34", "-0x1.75d11d8cdd5c3p-23", "-0x1.a5929d9f36fb9p-39"),
        "M": ("0x1.ad53f53bfbb10p-2", "0x1.7401455a286b9p-3", "0x1.52f6ce64c477dp-27", "0x1.f5b0c16d03193p-19", "0x1.1282d31c9e33ep-30"),
    },
    ("power", "gaussian"): {
        "m": ("0x1.24d3dd21adb05p-2", "0x1.cd581e397d89cp-3", "0x1.2cf144052104bp-8", "0x1.ffebfde37fd6bp-16", "0x1.0fa32d7d19de7p-25"),
        "S": ("-0x1.d43082553ba06p-7", "-0x1.ac7f5e975756dp-4", "-0x1.5c124ef177ceep-10", "-0x1.3fe97c916f802p-20", "-0x1.5bb21a5a26d05p-34"),
        "M": ("0x1.24d3dd21adb08p-2", "0x1.cd581e397d8a1p-3", "0x1.2cf144052104fp-8", "0x1.ffebfde37fd70p-16", "0x1.0fa32d7d19de9p-25"),
    },
    ("power", "poly_exp"): {
        "m": ("0x1.5cc06688eee46p-2", "0x1.26c53c0381928p-2", "0x1.3c7ed4e562d36p-7", "0x1.fff1ff0cdcc53p-16", "0x1.0fa330d39a085p-25"),
        "S": ("-0x1.16eb96aaa2276p-6", "-0x1.1552d66853eadp-3", "-0x1.5936cde05645ep-9", "-0x1.bfebbe1d076d6p-21", "-0x1.e6c631b5e6357p-35"),
        "M": ("0x1.bf9a1e800cc72p-2", "0x1.4feaa3e585f1bp-2", "0x1.3cca316068894p-7", "0x1.fff323be06d53p-16", "0x1.0fa331765d0d5p-25"),
    },
    ("power", "tabulated"): {
        "m": ("0x1.387ade4aa5559p+0", "0x1.ee47c623dff3bp-2", "0x1.ca8a1e6fc0d3dp-23", "0x1.ffeb91ba46ae8p-16", "0x1.0fa32d786b1bep-25"),
        "S": ("-0x1.f20376d818ff7p-5", "-0x1.6aa381e47174ep-3", "-0x1.399e22542b233p-30", "-0x1.3596e24b46d13p-20", "-0x1.5b06eb8e5b7e9p-34"),
        "M": ("0x1.66ce3c851ccc2p-2", "0x1.81f4fd928b7f7p-3", "0x1.c90408685b505p-23", "0x1.f3f4a456cef0cp-16", "0x1.0f36642b752d9p-25"),
    },
    ("log_thickened", "gaussian"): {
        "m": ("0x1.d95752a4b06e6p-1", "0x1.aa534ed807e0dp-1", "0x1.18e9c757bb752p-2", "0x1.0c216c098ecd6p-4", "0x1.c4d66a3aaaeb3p-8"),
        "S": ("-0x1.5b43ca27fecbep-6", "-0x1.4b8c4c7e7b16dp-3", "-0x1.559dc0c945868p-6", "-0x1.9c1c83a05f977p-11", "-0x1.8cbb0dc69654bp-18"),
        "M": ("0x1.d95752a4b06e1p-1", "0x1.aa534ed807e07p-1", "0x1.18e9c757bb74ep-2", "0x1.0c216c098ecd3p-4", "0x1.c4d66a3aaaeaep-8"),
    },
    ("log_thickened", "poly_exp"): {
        "m": ("0x1.cb2ea65006ea6p-1", "0x1.b40da1047b6d9p-1", "0x1.5498bbcae8635p-2", "0x1.0c21bc58b213fp-4", "0x1.c4d66a95edb55p-8"),
        "S": ("-0x1.4aef6b3452378p-6", "-0x1.66d54bf650267p-3", "-0x1.c68f4bd7215b3p-6", "-0x1.576fdcab2619fp-11", "-0x1.4a9be274206f4p-18"),
        "M": ("0x1.027f05e04b0abp+0", "0x1.cad1b81b01734p-1", "0x1.54c0c67b3f22bp-2", "0x1.0c21fc8f81311p-4", "0x1.c4d66adeefe6fp-8"),
    },
    ("log_thickened", "tabulated"): {
        "m": ("0x1.95f2bd2de59f4p+0", "0x1.0782a4eed81b6p+0", "0x1.b07bb90c02084p-7", "0x1.0c22ad1b13d78p-4", "0x1.c4d66ba7e587ep-8"),
        "S": ("-0x1.4c006bd709507p-5", "-0x1.06bfc3f5a85d4p-3", "-0x1.09942433ddf81p-17", "-0x1.12bd57bce5968p-12", "-0x1.087cb49884538p-19"),
        "M": ("0x1.4616c14a2bc08p+0", "0x1.e1b4d3806373ap-1", "0x1.b07bb1eaf71ccp-7", "0x1.0c215a1593f65p-4", "0x1.c4d66a34a05f1p-8"),
    },
}


@pytest.mark.parametrize("names", sorted(PARITY), ids="/".join)
def test_marginals_match_the_unbatched_sweep_bitwise(names, parity_case, swept):
    prior, model, radii = parity_case(*names)
    g, cls = prior.g_eval, prior.origin_class
    for j, r in enumerate(radii):
        got = {
            "m": marginal_m(prior, model, r) if prior.harmonic else swept(model, r, [("density", g, cls)])[0],
            "S": swept(model, r, [("density", g, cls)], (0,))[0],
            "M": swept(model, r, [("tail_kernel", g, cls)])[0],
        }
        if model.bells() is None:
            assert got == {
                "m": marginal_m(prior, model, r),
                "S": directional_marginal(g, model, r, singularity_class=cls),
                "M": kernel_marginal_M(g, model, r, singularity_class=cls),
            }
        for key, value in got.items():
            assert value.hex() == PARITY[names][key][j], (key, r)


@pytest.mark.parametrize("prior_name", ["power", "log_thickened"])
def test_a_term_has_the_same_value_alone_and_in_a_batch(prior_name, parity_case):
    prior, model, _ = parity_case(prior_name, "tabulated")
    cls = prior.origin_class
    for r in (1.0, 64.0):
        m, s = gb_marginals(prior, model, r)
        assert m == marginal_m(prior, model, r)
        assert s == directional_marginal(prior.g_eval, model, r, singularity_class=cls)
    # the ratio probe's three terms, each against its one-term request
    prior, model, radii = parity_case(prior_name, "gaussian")
    probe = asymptotic_ratio_probe(prior, model, [10.0, 100.0])
    for r, m_g, big_m_g in zip(probe.radii, probe.ratios["m_g"], probe.ratios["M_g"]):
        g = float(prior.g_eval(r))
        assert m_g == marginal_m(prior, model, r) / g
        assert big_m_g == kernel_marginal_M(prior.g_eval, model, r, singularity_class=cls) / g
    # bell rows, one per term for the gaussian and two for the mixture:
    # rows never share segments, and a row two terms share (m and S of
    # one integrand) is the row either would have alone
    g = prior.g_eval
    terms = [("density", g, cls), ("tail_kernel", lambda lam: g(lam) / lam, cls - 1.0),
             ("tail_kernel", ones, 0.0), ("density", g, cls), ("tail_kernel", g, cls)]
    for model in (model, mixture_diff(0.5, 0.5, prior.p)):
        for r in (1e-8, *radii, 1e5):
            values = radial_convolution._request(model, r, terms, directional=(3,))
            alone = [radial_convolution._request(model, r, [term], directional=(0,) if j == 3 else ())[0]
                     for j, term in enumerate(terms)]
            assert [v.hex() for v in values] == [v.hex() for v in alone], r
            assert gb_marginals(prior, model, r) == (values[0], values[3])
            assert marginal_m(prior, model, r) == values[0]
            assert kernel_marginal_M(g, model, r, singularity_class=cls) == values[4]


@pytest.mark.parametrize("model_name", ["gaussian", "tabulated"])
def test_a_request_at_the_origin_equals_its_one_term_requests_bitwise(model_name, parity_case):
    # rows never share segments at r = 0 either: the m and M terms of a
    # singular prior (started from the origin ladder), a bounded term and
    # a directional one, which is exactly 0 there
    prior, model, _ = parity_case("power", model_name)
    g, cls = prior.g_eval, prior.origin_class
    terms = [("density", g, cls), ("tail_kernel", lambda lam: g(lam) / lam, cls - 1.0),
             ("tail_kernel", ones, 0.0), ("density", g, cls)]
    values = radial_convolution._request(model, 0.0, terms, directional=(3,))
    assert values[3] == 0.0 == directional_marginal(g, model, 0.0, singularity_class=cls)
    for value, (kernel, rho, c) in zip(values[:3], terms):
        alone = radial_expectation(ConvolutionProblem(model, kernel, rho, 0.0, c))
        assert value.hex() == alone.hex(), kernel
    assert gb_marginals(prior, model, 0.0) == (values[0], 0.0)
    assert values[0] == marginal_m(prior, model, 0.0)


def test_gb_marginals_take_the_closed_form_for_the_harmonic_prior():
    # m is the closed form; S is swept, the closed GB factor's independent check
    model, r = gaussian(5), 2.0
    prior = harmonic_prior(5)
    m, s = gb_marginals(prior, model, r)
    assert m == harmonic_marginal_closed(model, r)
    assert s == directional_marginal(prior.g_eval, model, r, singularity_class=prior.origin_class)
    assert gb_marginals(prior, model, 0.0) == (harmonic_marginal_closed(model, 0.0), 0.0)


@pytest.mark.parametrize("model_name, tol", [("gaussian", 1e-10), ("poly_exp", 1e-10), ("tabulated", 2e-8)])
def test_the_swept_harmonic_numerator_matches_its_closed_form(model_name, tol, parity_case, swept):
    # the oracle's kappa = 1 + S / (r m), with S swept, is the closed
    # kappa = 1 - phi/r^2's independent check, to tol of the shrinkage
    # 1 - kappa; on the tabulated model its own error, from the knot kinks
    # of f, is the larger (6.2e-9 at r = 1)
    prior, model, radii = parity_case("harmonic", model_name)
    for r in [*np.geomspace(1e-3, 1e3, 25).tolist(), *radii]:
        m = harmonic_marginal_closed(model, r)
        s = swept(model, r, [("density", prior.g_eval, prior.origin_class)], (0,))[0]
        kappa = 1.0 + s / (r * m)
        closed = gb_multiplier(prior, model, prior.p, r)
        assert abs(closed - kappa) <= tol * (1.0 - closed), r


@pytest.mark.parametrize("call", [
    lambda r: marginal_m(power_prior(-2.5, 5), gaussian(5), r),
    lambda r: marginal_m(harmonic_prior(5), gaussian(5), r),  # read 0.0
    lambda r: gb_marginals(harmonic_prior(5), gaussian(5), r),
    lambda r: kernel_marginal_M(ones, gaussian(5), r),
    lambda r: directional_marginal(ones, gaussian(5), r),
    lambda r: radial_expectation(ConvolutionProblem(gaussian(5), "density", ones, r)),
], ids=["marginal_m[power]", "marginal_m[harmonic]", "gb_marginals[harmonic]", "kernel_marginal_M",
        "directional_marginal", "radial_expectation"])
def test_an_infinite_radius_is_refused_at_every_oracle_entry(call):
    # it leaked numerics' ValueError on the row edges
    with pytest.raises(ConvolutionError, match="radius must be nonnegative and finite") as exc:
        call(math.inf)
    assert not isinstance(exc.value, IntegrabilityError)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -10.0])
def test_the_probe_checks_its_radii_before_the_slope_audit(bad, monkeypatch):
    prior = harmonic_prior(5)
    monkeypatch.setattr(type(prior), "assumption_profile", property(lambda self: pytest.fail("slope audit ran")))
    with pytest.raises(ConvolutionError, match=r"probe radii must be positive and finite numbers in a 1-d list of 2 or more, not \[10\.0, "):
        asymptotic_ratio_probe(prior, gaussian(5), [10.0, bad])


# --- failure paths ----------------------------------------------------------

def wild_prior():
    # a prior growing faster than the kernel decays
    g = lambda e: np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    gp = lambda e: 1.2 * np.asarray(e, dtype=float) * np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    return custom_prior(g, gp, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_integrable_prior_fails_loudly_through_every_batched_entry():
    with pytest.raises(IntegrabilityError):
        marginal_m(wild_prior(), gaussian(3), 1.0)
    with pytest.raises(ConvolutionError):
        gb_marginals(wild_prior(), gaussian(3), 1.0)
    # a failed integral, not an ill-posed request: the CLI's numeric kind
    with pytest.raises(IntegrabilityError):
        gb_marginals(wild_prior(), gaussian(3), 1.0)
    # its slope audit overflows to nan, which the probe's tail gate refuses
    with pytest.raises(ConvolutionError, match="slope audit"):
        asymptotic_ratio_probe(wild_prior(), gaussian(3), [10.0, 100.0])


def test_a_head_row_over_budget_raises_rather_than_returns(monkeypatch):
    tight = radial_convolution._OUTER_SPEC.__class__(abs_tol=1e-280, rel_tol=1e-9, max_subdivisions=2)
    monkeypatch.setattr(radial_convolution, "_OUTER_SPEC", tight)
    for call in (lambda: marginal_m(power_prior(-2.5, 5), poly_exp(2.0, 1.0, 5), 1.0),
                 lambda: gb_marginals(power_prior(-2.5, 5), poly_exp(2.0, 1.0, 5), 1.0)):
        with pytest.raises(ToleranceNotReached) as exc:
            call()
        assert exc.value.row == 0  # the first term's head [0, cut]


def test_an_angular_row_over_budget_names_its_term_and_lambda():
    # at the ridge lambda = r the angular integrand of power(-2.5) in p = 3
    # grows like v^(k+p-2), not integrable in v: the inner batch's
    # failure keeps its class, row and result, led by the term and lambda
    lead = r"^m at r=1, lambda=1: row \d+ needed more than 160 subdivisions"
    with pytest.raises(ToleranceNotReached, match=lead) as exc:
        marginal_m(power_prior(-2.5, 3), poly_exp(2.0, 1.0, 3), 1.0)
    inner = exc.value.__cause__
    assert type(inner) is ToleranceNotReached and str(exc.value).endswith(str(inner))
    assert (exc.value.result, exc.value.row, exc.value.worst_segment) == (inner.result, inner.row, inner.worst_segment)


# --- bell rows: gaussian-family models at r > 0 --------------------------------

def power_references(k, p, r):
    """E||x + Z||^k and 1 - kappa of power_prior(k, p) on gaussian(p), in 1F1 at 40 digits."""
    with mpmath.workdps(40):
        a, b, z = -mpmath.mpf(k) / 2, mpmath.mpf(p) / 2, -mpmath.mpf(r) ** 2 / 2
        m = 2 ** (mpmath.mpf(k) / 2) * mpmath.gamma(b + mpmath.mpf(k) / 2) / mpmath.gamma(b) * mpmath.hyp1f1(a, b, z)
        shrink = -(mpmath.mpf(k) / p) * mpmath.hyp1f1(a + 1, b + 1, z) / mpmath.hyp1f1(a, b, z)
        return float(m), float(shrink)


BELL_RADII = (1e-300, 1e-30, 1e-8, 1e-3, 0.5, 1.0, 3.0, 30.0, 64.0, 1e3, 1e5)


@pytest.mark.parametrize("k, p, tol", [(-2.5, 5, 1e-9), (-1.0, 5, 1e-9), (-2.5, 3, 1e-8)])
def test_the_bell_rows_meet_the_1f1_closed_forms(k, p, tol):
    # m = E||x + Z||^k = 2^(k/2) Gamma((p+k)/2)/Gamma(p/2) 1F1(-k/2; p/2; -r^2/2),
    # kappa = 1 + (k/p) 1F1(1-k/2; p/2+1; -r^2/2) / 1F1(-k/2; p/2; -r^2/2).
    # Far out kappa is a double near 1, which cannot hold 1 - kappa ~ k/r^2
    # to 1e-9 of itself: it is held to 8 ulps of 1 there as well
    prior, model = power_prior(k, p), gaussian(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in BELL_RADII:
            m_ref, shrink_ref = power_references(k, p, r)
            assert abs(marginal_m(prior, model, r) / m_ref - 1.0) <= 1e-9, r
            kappa = gb_multiplier(prior, model, p, r)
            assert abs((1.0 - kappa) - shrink_ref) <= tol * shrink_ref + 8.0 * np.finfo(float).eps, r


def test_the_bell_rows_mend_the_known_defects():
    # the sweep raised ToleranceNotReached for both: S is O(r) at r = 1e-8,
    # under a relative-only tolerance, and at the ridge lambda = r the
    # angular integrand of power(-2.5) in p = 3 is not integrable in v
    kappa = gb_multiplier(power_prior(-2.5, 5), gaussian(5), 5, 1e-8)
    assert kappa == pytest.approx(1.0 - power_references(-2.5, 5, 1e-8)[1], rel=1e-12)
    assert kappa == pytest.approx(0.5, rel=1e-12)  # 1 + k/p
    m = marginal_m(power_prior(-2.5, 3), gaussian(3), 1.0)
    assert m == pytest.approx(power_references(-2.5, 3, 1.0)[0], rel=1e-9)


BELL_MODELS = {
    "gaussian": gaussian,
    "poly_exp(0, 0.7)": lambda p: poly_exp(0.0, 0.7, p),
    "mixture_diff(0.5, 0.5)": lambda p: mixture_diff(0.5, 0.5, p),
    "mixture_diff(1, 0.95)": lambda p: mixture_diff(1.0, 0.95, p),
}


@pytest.mark.parametrize("model_name", sorted(BELL_MODELS))
@pytest.mark.parametrize("prior_name", ["harmonic", "power", "log_thickened"])
def test_the_bell_rows_match_the_sweep(model_name, prior_name, parity_case, swept):
    # m and M to 1e-9 of themselves; S, which the bell rows form as a
    # difference of terms of size r m, to 1e-9 r m
    prior, _, radii = parity_case(prior_name, "gaussian")
    model = BELL_MODELS[model_name](prior.p)
    g, cls = prior.g_eval, prior.origin_class
    terms = [("density", g, cls), ("density", g, cls), ("tail_kernel", g, cls)]
    for r in (*radii[:2], model.support_radius(1e-16), *radii[3:]):
        m, s, big_m = radial_convolution._request(model, r, terms, directional=(1,))
        m_sw, s_sw, big_m_sw = swept(model, r, terms, (1,))
        assert abs(m / m_sw - 1.0) <= 1e-9, r
        assert abs(big_m / big_m_sw - 1.0) <= 1e-9, r
        assert abs(s - s_sw) <= 1e-9 * r * m_sw, r


@pytest.mark.parametrize("prior_name", ["power", "log_thickened"])
def test_the_bells_of_a_mixture_cancel_in_s_without_loss(prior_name, parity_case):
    # mixture_diff(1, 0.95) is a gaussian less a bell of variance 0.95, the
    # poly_exp(0, 1/1.9) model rescaled: their S cancel by a factor of 11 to
    # 39, and the mixture's S is still their recombination to 1e-9 r m
    prior, _, radii = parity_case(prior_name, "gaussian")
    p, g, cls = prior.p, prior.g_eval, prior.origin_class
    mixture = mixture_diff(1.0, 0.95, p)
    singles = (gaussian(p), poly_exp(0.0, 0.5 / 0.95, p))
    for r in radii:
        m, s = radial_convolution._request(mixture, r, [("density", g, cls)] * 2, directional=(1,))
        parts = [w / single.bells()[0][0] * directional_marginal(g, single, r, singularity_class=cls)
                 for (w, _), single in zip(mixture.bells(), singles)]
        assert (abs(parts[0]) + abs(parts[1])) / abs(s) >= 10.0, r
        assert abs(parts[0] + parts[1] - s) <= 1e-9 * r * m, r


# far out: m is r^k (1 + O(r^-2)) for power(k), and a prior whose m
# there is below _M_FLOOR = 1e-288 (by ten decades or more) is refused
FAR_PRIORS = {
    "power(-0.5)": lambda: power_prior(-0.5, 5),
    "power(-1)": lambda: power_prior(-1.0, 5),
    "power(-2.5)": lambda: power_prior(-2.5, 5),
    "power(-2.5, p=3)": lambda: power_prior(-2.5, 3),
    "log_thickened": lambda: log_thickened_prior(1, 20.0, 5),
}
FAR_KAPPA = {("power(-0.5)", 1e150), ("power(-0.5)", 1e200), ("power(-0.5)", 1e300),
             ("power(-1)", 1e150), ("power(-1)", 1e200)}


@pytest.mark.parametrize("model_name", sorted(BELL_MODELS))
@pytest.mark.parametrize("prior_name", sorted(FAR_PRIORS))
@pytest.mark.parametrize("r", [1e150, 1e200, 1e300])
def test_far_out_the_bell_rows_return_kappa_or_name_the_floor(model_name, prior_name, r):
    # the variable is lambda - r there, so the bell stays resolved, and
    # lambda^(p-1) A_b(r lambda / v) is formed without r lambda, which
    # overflows past r = 1e154.  1 - kappa ~ -k/r^2 is below an ulp of
    # kappa, which S = r sum_j (M_j/(p v_j) - m_j) reaches to a few ulps
    # of 1 times the bells' cancellation in m, sum |w_j| v_j^(p/2) / f's mass
    prior = FAR_PRIORS[prior_name]()
    model = BELL_MODELS[model_name](prior.p)
    masses = [w * v ** (0.5 * prior.p) for w, v in model.bells()]
    cancel = sum(map(abs, masses)) / sum(masses)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_marginal_M(ones, model, r) == pytest.approx(1.0, rel=1e-12)
        if (prior_name, r) in FAR_KAPPA:
            assert marginal_m(prior, model, r) == pytest.approx(float(prior.g_eval(r)), rel=1e-9)
            assert abs(gb_multiplier(prior, model, prior.p, r) - 1.0) <= 8.0 * np.finfo(float).eps * cancel
        else:
            lead = rf"^integrability fails: m at r={re.escape(f'{r:.3g}')}: a row is \S+, below 1e-288, where it holds only"
            with pytest.raises(IntegrabilityError, match=lead):
                gb_multiplier(prior, model, prior.p, r)
