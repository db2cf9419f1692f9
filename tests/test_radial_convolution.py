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

from sphereshrink import radial_convolution
from sphereshrink.numerics import ToleranceNotReached, sphere_surface
from sphereshrink.radial_models import DivergentMoment, gaussian, mixture_diff, poly_exp, tabulated
from sphereshrink.rv_priors import custom_prior, harmonic_prior, power_prior
from sphereshrink.radial_convolution import (
    AsymptoticProbe,
    ConvolutionError,
    ConvolutionProblem,
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


# --- parity with the unbatched sweep -------------------------------------

# m, S = directional_marginal(g) and M = kernel_marginal_M(g) on the
# parity grid (tests/conftest.py), as float.hex, from the sweep that ran
# each quantity's head and tail as separate one-row integrals.  The
# batched sweep gives them bitwise.
PARITY = {
    ("harmonic", "gaussian"): {
        "m": ("0x1.0f876ddbdefe2p-2", "0x1.970936ca06d76p-3", "0x1.9e77e8d76fc51p-10", "0x1.ffffffffffffdp-19", "0x1.12e0be826d693p-30"),
        "S": ("-0x1.0484d4deb7084p-6", "-0x1.cbfde52f63401p-4", "-0x1.21b523100678bp-11", "-0x1.8000000000010p-23", "-0x1.a636641c4de9cp-39"),
        "M": ("0x1.0f876ddbdefe4p-2", "0x1.970936ca06d81p-3", "0x1.9e77e8d76fc59p-10", "0x1.0000000000004p-18", "0x1.12e0be826d699p-30"),
    },
    ("harmonic", "poly_exp"): {
        "m": ("0x1.341dbd470bebep-2", "0x1.0bd3d747f3ce3p-2", "0x1.fb405319dfa77p-9", "0x1.0000000000002p-18", "0x1.12e0be826d697p-30"),
        "S": ("-0x1.27ca26ecce4c4p-6", "-0x1.34bdb002125d2p-3", "-0x1.4e7c328f55042p-10", "-0x1.0ccccccccccdap-23", "-0x1.278c794703556p-39"),
        "M": ("0x1.b6dad5e091e62p-2", "0x1.3c682d4a943c1p-2", "0x1.fb405319dfa72p-9", "0x1.0000000000001p-18", "0x1.12e0be826d695p-30"),
    },
    ("harmonic", "tabulated"): {
        "m": ("0x1.aae2f952f78f3p+0", "0x1.fffffe96e3f57p-2", "0x1.53edb57bdc666p-27", "0x1.ffff265b11ac4p-19", "0x1.12e0be7a50a49p-30"),
        "S": ("-0x1.986978233f921p-4", "-0x1.d067c7d8b0033p-3", "-0x1.173c29de67c8ep-34", "-0x1.75d11d8cdd5ccp-23", "-0x1.a5929d9b90a44p-39"),
        "M": ("0x1.ad53f53bfbb0fp-2", "0x1.7401455a286bap-3", "0x1.52f6ce64c477dp-27", "0x1.f5b0c16d03193p-19", "0x1.1282d31cb5579p-30"),
    },
    ("power", "gaussian"): {
        "m": ("0x1.24d3dd21adb04p-2", "0x1.cd581e397d89dp-3", "0x1.2cf144052104bp-8", "0x1.ffebfde37fd93p-16", "0x1.0fa32d7d19e3ap-25"),
        "S": ("-0x1.d43082553ba10p-7", "-0x1.ac7f5e975756ep-4", "-0x1.5c124ef177cedp-10", "-0x1.3fe97c916f96fp-20", "-0x1.5bb21a5a2732ap-34"),
        "M": ("0x1.24d3dd21adb07p-2", "0x1.cd581e397d8a3p-3", "0x1.2cf144052104fp-8", "0x1.ffebfde37fd98p-16", "0x1.0fa32d7d19e3dp-25"),
    },
    ("power", "poly_exp"): {
        "m": ("0x1.5cc06688eee43p-2", "0x1.26c53c0381928p-2", "0x1.3c7ed4e562d36p-7", "0x1.fff1ff0cdcc7dp-16", "0x1.0fa330d39a0acp-25"),
        "S": ("-0x1.16eb96aaa227ep-6", "-0x1.1552d66853eacp-3", "-0x1.5936cde05645ep-9", "-0x1.bfebbe1d0789cp-21", "-0x1.e6c631b5e669dp-35"),
        "M": ("0x1.bf9a1e800cc70p-2", "0x1.4feaa3e585f1cp-2", "0x1.3cca316068894p-7", "0x1.fff323be06d71p-16", "0x1.0fa331765d0f1p-25"),
    },
    ("power", "tabulated"): {
        "m": ("0x1.387ade4aa5558p+0", "0x1.ee47c623dff3bp-2", "0x1.ca8a1e6fc0d3dp-23", "0x1.ffeb91ba46ae8p-16", "0x1.0fa32d781f2f9p-25"),
        "S": ("-0x1.f20376d818ffap-5", "-0x1.6aa381e47174ep-3", "-0x1.399e22542b237p-30", "-0x1.3596e24b46d1ap-20", "-0x1.5b06eb8b5a143p-34"),
        "M": ("0x1.66ce3c851ccc1p-2", "0x1.81f4fd928b7f8p-3", "0x1.c90408685b503p-23", "0x1.f3f4a456cef0cp-16", "0x1.0f36642b8c7bep-25"),
    },
    ("log_thickened", "gaussian"): {
        "m": ("0x1.d95752a4b06e5p-1", "0x1.aa534ed807e0bp-1", "0x1.18e9c757bb752p-2", "0x1.0c216c098ecd8p-4", "0x1.c4d66a3aaaeb7p-8"),
        "S": ("-0x1.5b43ca27feca2p-6", "-0x1.4b8c4c7e7b16dp-3", "-0x1.559dc0c945863p-6", "-0x1.9c1c83a05f99ap-11", "-0x1.8cbb0dc6965b4p-18"),
        "M": ("0x1.d95752a4b06e1p-1", "0x1.aa534ed807e07p-1", "0x1.18e9c757bb74ep-2", "0x1.0c216c098ecd4p-4", "0x1.c4d66a3aaaeb3p-8"),
    },
    ("log_thickened", "poly_exp"): {
        "m": ("0x1.cb2ea65006ea6p-1", "0x1.b40da1047b6d6p-1", "0x1.5498bbcae8635p-2", "0x1.0c21bc58b2142p-4", "0x1.c4d66a95edb5ap-8"),
        "S": ("-0x1.4aef6b3452353p-6", "-0x1.66d54bf650263p-3", "-0x1.c68f4bd7215b3p-6", "-0x1.576fdcab2619cp-11", "-0x1.4a9be274207acp-18"),
        "M": ("0x1.027f05e04b0abp+0", "0x1.cad1b81b01734p-1", "0x1.54c0c67b3f22bp-2", "0x1.0c21fc8f81311p-4", "0x1.c4d66adeefe6fp-8"),
    },
    ("log_thickened", "tabulated"): {
        "m": ("0x1.95f2bd2de59f4p+0", "0x1.0782a4eed81b6p+0", "0x1.b07bb90c02084p-7", "0x1.0c22ad1b13d78p-4", "0x1.c4d66ba86be51p-8"),
        "S": ("-0x1.4c006bd7094fcp-5", "-0x1.06bfc3f5a85d4p-3", "-0x1.09942433ddf81p-17", "-0x1.12bd57bce5955p-12", "-0x1.087cb4983a644p-19"),
        "M": ("0x1.4616c14a2bc08p+0", "0x1.e1b4d3806373ap-1", "0x1.b07bb1eaf71ccp-7", "0x1.0c215a1593f65p-4", "0x1.c4d66a38d896dp-8"),
    },
}


@pytest.mark.parametrize("names", sorted(PARITY), ids="/".join)
def test_marginals_match_the_unbatched_sweep_bitwise(names, parity_case):
    prior, model, radii = parity_case(*names)
    cls = prior.origin_class
    for j, r in enumerate(radii):
        got = {
            "m": marginal_m(prior, model, r),
            "S": directional_marginal(prior.g_eval, model, r, singularity_class=cls),
            "M": kernel_marginal_M(prior.g_eval, model, r, singularity_class=cls),
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
    # the ratio probe's three terms, each against its one-term sweep
    prior, model, _ = parity_case(prior_name, "gaussian")
    probe = asymptotic_ratio_probe(prior, model, [10.0, 100.0])
    for r, m_g, big_m_g in zip(probe.radii, probe.ratios["m_g"], probe.ratios["M_g"]):
        g = float(prior.g_eval(r))
        assert m_g == marginal_m(prior, model, r) / g
        assert big_m_g == kernel_marginal_M(prior.g_eval, model, r, singularity_class=cls) / g


def test_gb_marginals_take_the_closed_form_for_the_harmonic_prior():
    m, s = gb_marginals(harmonic_prior(5), gaussian(5), 2.0)
    assert m == harmonic_marginal_closed(gaussian(5), 2.0)
    assert s == directional_marginal(harmonic_prior(5).g_eval, gaussian(5), 2.0, singularity_class=-3.0)


# --- failure paths ----------------------------------------------------------

def wild_prior():
    # the prior of test_marginal_integrability_failure
    g = lambda e: np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    gp = lambda e: 1.2 * np.asarray(e, dtype=float) * np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    return custom_prior(g, gp, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_integrable_prior_fails_loudly_through_every_batched_entry():
    with pytest.raises(ConvolutionError):
        gb_marginals(wild_prior(), gaussian(3), 1.0)
    with pytest.raises(ConvolutionError):
        asymptotic_ratio_probe(wild_prior(), gaussian(3), [10.0, 100.0])


def test_a_head_row_over_budget_raises_rather_than_returns(monkeypatch):
    tight = radial_convolution._OUTER_SPEC.__class__(abs_tol=1e-280, rel_tol=1e-9, max_subdivisions=2)
    monkeypatch.setattr(radial_convolution, "_OUTER_SPEC", tight)
    for call in (lambda: marginal_m(power_prior(-2.5, 5), gaussian(5), 1.0),
                 lambda: gb_marginals(power_prior(-2.5, 5), gaussian(5), 1.0)):
        with pytest.raises(ToleranceNotReached) as exc:
            call()
        assert exc.value.row == 0  # the first term's head [0, cut]
