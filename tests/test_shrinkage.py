"""Shrinkage weight and estimator checks."""

import math
import warnings

import numpy as np
import pytest

from sphereshrink.radial_convolution import ConvolutionError
from sphereshrink.radial_models import gaussian, mixture_diff, poly_exp, tabulated
from sphereshrink.rv_priors import custom_prior, harmonic_prior, log_thickened_prior, power_prior
from sphereshrink import numerics
from sphereshrink import shrinkage as sh
from sphereshrink.shrinkage import (
    ShrinkageError,
    build_profile,
    estimate,
    gb_multiplier,
    phi_limit,
    phi_star,
)

MODELS = [gaussian(3), gaussian(5), poly_exp(2.0, 1.0, 5), mixture_diff(0.5, 0.5, 4)]


# --- the closed-form and quadrature forms ------------------------------

@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
def test_forms_agree(model, r):
    # the ratio of closed-form kernel moments against the quadrature oracle
    p = model.p
    a = phi_star(model, p, r)
    b = model.kernel_moment(p - 1, r) / model.kernel_moment(p - 3, r)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_phi_star_validation():
    with pytest.raises(ShrinkageError):
        phi_star(gaussian(3), 4, 1.0)
    with pytest.raises(ShrinkageError):
        phi_star(gaussian(3), 3, 0.0)
    with pytest.raises(ShrinkageError, match="r must be positive"):
        phi_star(gaussian(3), 3, math.nan)


# --- the limit --------------------------------------------------------

def test_limit_closed_forms():
    for alpha in (0.0, 1.0, 2.0, 4.0, 8.0):
        for beta in (0.25, 1.0, 4.0):
            for p in (4, 5, 8):
                expect = (p - 2.0) * (p + alpha) / (2.0 * beta * p)
                assert phi_limit(poly_exp(alpha, beta, p), p) == pytest.approx(expect, rel=1e-12)
    assert phi_limit(gaussian(4), 4) == pytest.approx(2.0, rel=1e-12)
    a, b = 0.5, 0.5
    expect = 2.0 * (1 - a * b**3) / (1 - a * b**2)
    assert phi_limit(mixture_diff(a, b, 4), 4) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_limit_reached_at_effective_support(model):
    p = model.p
    r_max = model.support_radius(1e-10)
    lim = phi_limit(model, p)
    assert abs(phi_star(model, p, r_max) - lim) / lim <= 0.01


def test_known_limits_far_out():
    # gaussian: limit is p-2 exactly; saturated long before r=50
    assert phi_star(gaussian(3), 3, 50.0) == pytest.approx(1.0, rel=1e-10)
    assert phi_star(gaussian(5), 5, 50.0) == pytest.approx(3.0, rel=1e-10)


@pytest.mark.parametrize("model", [gaussian(3), poly_exp(2.0, 1.0, 5)], ids=repr)
def test_small_r_ratio(model):
    p = model.p
    r = 1e-4
    assert phi_star(model, p, r) / r**2 == pytest.approx((p - 2.0) / p, rel=1e-4)


# --- profile ----------------------------------------------------------

@pytest.mark.parametrize("model", MODELS + [poly_exp(4.0, 1.0, 5), mixture_diff(0.9, 0.5, 4)], ids=repr)
def test_profile_monotone_and_bounded(model):
    prof = build_profile(model)
    assert len(prof.r_grid) >= 200
    phi = prof.phi(prof.r_grid)
    assert np.all(np.diff(phi) >= -1e-10)
    assert np.all(phi >= 0.0)
    psi = phi / prof.r_grid**2
    assert np.all(psi < 1.0) and np.all(psi <= (model.p - 2.0) / model.p + 1e-12)
    mult = prof.multiplier(np.concatenate((prof.r_grid, [10.0 * prof.r_grid[-1]])))
    assert np.all(mult >= 2.0 / model.p - 1e-12) and np.all(mult < 1.0)


def test_profile_psi_monotone_when_ratio_condition_holds():
    # gaussian has F/f constant, so F/(t^2 f) falls and psi must too
    prof = build_profile(gaussian(5))
    psi = np.concatenate(([prof.psi(0.0)], prof.phi(prof.r_grid) / prof.r_grid**2))
    assert np.all(np.diff(psi) <= 1e-10)


def test_profile_interpolation_budget():
    model = poly_exp(2.0, 1.0, 5)
    prof = build_profile(model)
    rng = np.random.default_rng(5)
    lo, hi = prof.r_grid[0], prof.r_grid[-1]
    probes = np.exp(rng.uniform(math.log(lo), math.log(hi), 20))
    worst = max(abs(float(prof.phi(rp)) - phi_star(model, model.p, float(rp))) for rp in probes)
    assert worst <= 1e-6 * max(1.0, prof.limit_value)


def test_profile_accuracy_gate_raises_on_a_coarse_grid(monkeypatch):
    # nine knots from 1e-3 to 20: the spline cannot follow phi between them
    monkeypatch.setattr(sh, "_KNOTS", 9)
    with pytest.raises(ShrinkageError, match="midpoint"):
        build_profile(gaussian(5))


def test_profile_origin_and_extension():
    prof = build_profile(gaussian(5))
    assert prof.psi(0.0) == pytest.approx(0.6, rel=1e-12)
    assert prof.multiplier(0.0) == pytest.approx(0.4, rel=1e-12)
    big = 1e4
    assert prof.multiplier(big) == pytest.approx(1.0 - prof.phi(prof.r_grid)[-1] / big**2, rel=1e-12)


# --- the estimator ----------------------------------------------------

def test_estimate_zero_and_shapes():
    m = gaussian(5)
    assert np.all(estimate(m, 5, np.zeros(5)) == 0.0)
    with pytest.raises(ShrinkageError):
        estimate(m, 5, np.zeros(4))
    with pytest.raises(ShrinkageError):
        estimate(m, 4, np.zeros(4))


def test_estimate_multiplier_near_limit():
    m = gaussian(5)
    x = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
    mult = estimate(m, 5, x)[0] / x[0]
    assert abs(mult - 0.97) <= 0.002


def test_estimate_rotation_equivariance():
    m = gaussian(3)
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th), 0.0],
                    [math.sin(th), math.cos(th), 0.0],
                    [0.0, 0.0, 1.0]])
    x = np.array([1.3, -0.4, 2.2])
    left = estimate(m, 3, rot @ x)
    right = rot @ estimate(m, 3, x)
    assert np.allclose(left, right, atol=1e-12)


def test_profile_cache_reused():
    m = gaussian(4)
    assert sh._cached_profile(m) is sh._cached_profile(m)


# --- generalized Bayes multiplier -------------------------------------

def test_gb_multiplier_harmonic_cross_check():
    m = gaussian(5)
    prior = harmonic_prior(5)
    for r in (0.5, 2.0, 10.0):
        expect = 1.0 - phi_star(m, 5, r) / r**2
        assert gb_multiplier(prior, m, 5, r) == pytest.approx(expect, rel=1e-5)


def test_gb_multiplier_harmonic_matches_the_profile_from_0p1_to_100():
    # the 2-d oracle against the closed-form profile, across the ridge and
    # the far tail where the GB defects live
    m = gaussian(5)
    prior = harmonic_prior(5)
    prof = build_profile(m)
    for r in np.geomspace(0.1, 100.0, 12):
        assert abs(gb_multiplier(prior, m, 5, float(r)) - prof.multiplier(r)) <= 1e-6, r


def test_gb_multiplier_flat_prior():
    assert gb_multiplier(power_prior(0.0, 5), gaussian(5), 5, 2.0) == pytest.approx(1.0, abs=1e-8)


def test_gb_multiplier_thickened_prior_bounded_drift():
    prior = log_thickened_prior(0, 2.0, 3)
    m = gaussian(3)
    drift = []
    for r in (5.0, 20.0, 80.0):
        k = gb_multiplier(prior, m, 3, r)
        assert 0.0 < k < 1.0
        drift.append(r * (1.0 - k))
    assert max(drift) <= 2.0 * drift[0]  # bounded, in fact falling here


def test_gb_multiplier_rejections():
    with pytest.raises(ShrinkageError):
        gb_multiplier(harmonic_prior(4), gaussian(5), 5, 1.0)
    with pytest.raises(ShrinkageError):
        gb_multiplier(harmonic_prior(5), gaussian(5), 5, 0.0)


@pytest.mark.parametrize("prior", [harmonic_prior(5), power_prior(-2.5, 5)], ids=["harmonic", "power"])
def test_gb_multiplier_refuses_a_nan_radius(prior):
    # NaN passed r <= 0 and leaked the oracle's internal ValueError
    with pytest.raises(ShrinkageError, match="r must be positive"):
        gb_multiplier(prior, gaussian(5), 5, math.nan)


@pytest.mark.parametrize("prior", [harmonic_prior(5), power_prior(-2.5, 5)], ids=["harmonic", "power"])
def test_gb_multiplier_refuses_an_infinite_radius(prior):
    # it leaked the oracle's internal ValueError on the row edges
    with pytest.raises(ShrinkageError, match="r must be positive and finite, not inf"):
        gb_multiplier(prior, gaussian(5), 5, math.inf)


@pytest.mark.parametrize("r", [1e62, 1e80])
def test_the_harmonic_multiplier_on_a_power_tailed_table_is_finite_far_out(r):
    # r^5 overflowed while F underflowed: kernel_moment(4, r) and kappa read nan
    grid = np.geomspace(0.01, 100.0, 300)
    model = tabulated(grid, (1.0 + grid**2) ** -4.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = float(model.kernel_moment(4.0, r))
        kappa = gb_multiplier(harmonic_prior(5), model, 5, r)
    # A(inf) = int t^6 f / 5 = E||X||^2 / (5 c_p)
    assert a == pytest.approx(model.moment(2.0) / (5.0 * numerics.sphere_surface(5)), rel=1e-9)
    assert abs(kappa - 1.0) <= 1e-12


@pytest.mark.parametrize("model", [gaussian(5), poly_exp(2.0, 1.0, 5), gaussian(3)], ids=repr)
@pytest.mark.parametrize("r", [1e-8, 1e-30, 1e-70, 1e-120])
def test_the_harmonic_gb_multiplier_tends_to_2_over_p(model, r):
    # the oracle raised ToleranceNotReached at 1e-8 to 1e-30 and
    # IntegrabilityError at 1e-120; past r^p < 1e-290 S takes its limit
    p = model.p
    assert abs(gb_multiplier(harmonic_prior(p), model, p, r) - 2.0 / p) <= 1e-12


@pytest.mark.parametrize("p, r", [(20, 1e17), (5, 1e80)])
def test_the_harmonic_gb_multiplier_is_finite_where_r_to_the_p_overflows(p, r):
    # the closed pair of m and S raised OverflowError from r ** (p - 1)
    assert abs(gb_multiplier(harmonic_prior(p), gaussian(p), p, r) - 1.0) <= 1e-12


# gb_multiplier on the parity grid (tests/conftest.py), as float.hex.  The
# harmonic rows are the shrinkage profile's exact 1 - phi/r^2, phi = A/B in
# the kernel moments.  The others are from one-term calls with every ridge
# row starting from the graded mesh: one batched sweep of m and S gives
# each the value of its one-term sweep, so kappa = 1 + S / (r m) is pinned
# bitwise.  The gaussian's gb_multiplier takes its bell rows, so its swept
# kappa is asserted through ``_sweep`` itself.
GB_PARITY = {
    ("harmonic", "gaussian"): {
        "gb": ("0x1.99f37f75ce802p-2", "0x1.bd636722c0d1cp-2", "0x1.eb2763b05874bp-1", "0x1.ffa0000000000p-1", "0x1.ffff9b56323bcp-1"),
    },
    ("harmonic", "poly_exp"): {
        "gb": ("0x1.999a97a31044cp-2", "0x1.b1c960350b81ep-2", "0x1.e57f2f46f3578p-1", "0x1.ffbcccccccccdp-1", "0x1.ffffb9892329dp-1"),
    },
    ("harmonic", "tabulated"): {
        "gb": ("0x1.9bb29a091200ep-2", "0x1.17cc1b5794733p-1", "0x1.fffe31b952ddep-1", "0x1.ffa28b90e2d89p-1", "0x1.ffff9b7d3e46ap-1"),
    },
    ("power", "gaussian"): {
        "gb": ("0x1.002ecfb8c793cp-1", "0x1.123a042fa7f76p-1", "0x1.eec0c8367909fp-1", "0x1.ffb00280a0390p-1", "0x1.ffffac1d2c9c2p-1"),
    },
    ("power", "poly_exp"): {
        "gb": ("0x1.001305d0ab8dap-1", "0x1.0f26f145d0554p-1", "0x1.ea148bd73ba2ap-1", "0x1.ffc8010028c8dp-1", "0x1.ffffc5479e670p-1"),
    },
    ("power", "tabulated"): {
        "gb": ("0x1.01002ed115f72p-1", "0x1.442e332125b95p-1", "0x1.fffe7f1ab753bp-1", "0x1.ffb29730a905bp-1", "0x1.ffffac46796a1p-1"),
    },
    ("log_thickened", "gaussian"): {
        "gb": ("0x1.8a9ddc396e1ecp-1", "0x1.9c74baa176dffp-1", "0x1.fb776ca27ed04p-1", "0x1.ffe768875559cp-1", "0x1.ffffe34abf06fp-1"),
    },
    ("log_thickened", "poly_exp"): {
        "gb": ("0x1.8cafe5661a958p-1", "0x1.96aad6a94dc38p-1", "0x1.f94b7ecb6d101p-1", "0x1.ffeb81a1fb889p-1", "0x1.ffffe8139f16ep-1"),
    },
    ("log_thickened", "tabulated"): {
        "gb": ("0x1.7d252cfa5f872p-1", "0x1.c02f54c55bbd9p-1", "0x1.ffffd4cd94c3ep-1", "0x1.fff7cd8ece68fp-1", "0x1.fffff66e3faddp-1"),
    },
}


@pytest.mark.parametrize("names", sorted(GB_PARITY), ids="/".join)
def test_gb_multiplier_matches_the_unbatched_oracle_bitwise(names, parity_case, swept):
    prior, model, radii = parity_case(*names)
    for r, expected in zip(radii, GB_PARITY[names]["gb"]):
        if model.bells() is None or prior.harmonic:
            kappa = gb_multiplier(prior, model, prior.p, r)
        else:
            m, s = swept(model, r, [("density", prior.g_eval, prior.origin_class)] * 2, (1,))
            kappa = 1.0 + s / (r * m)
        assert kappa.hex() == expected, r


def test_gb_multiplier_ridge_rows_converge_in_few_rounds(monkeypatch, swept):
    # each numerics._gauss_pair call is one round of an adaptive loop,
    # outer or angular; ridge rows started from the graded mesh need about
    # one round each (83 and 34 calls when they started from b*{1, 8, 64})
    calls = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda f, lo, hi: calls.append(1) or pair(f, lo, hi))
    model = gaussian(5)
    for r, budget in ((1.0, 32), (model.support_radius(1e-16), 20)):
        calls.clear()
        prior = power_prior(-2.5, 5)  # m and S as the sweep behind gb_multiplier for a model without bells
        swept(model, r, [("density", prior.g_eval, prior.origin_class)] * 2, (1,))
        assert len(calls) <= budget, r


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gb_multiplier_fails_loudly_on_a_non_integrable_prior():
    # the prior of test_marginal_integrability_failure
    g = lambda e: np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    gp = lambda e: 1.2 * np.asarray(e, dtype=float) * np.exp(0.6 * np.asarray(e, dtype=float) ** 2)
    with pytest.raises(ConvolutionError, match=r"m at r=1 tail: integrand is not finite"):
        gb_multiplier(custom_prior(g, gp, 3), gaussian(3), 3, 1.0)
    # the failure names its term and radius
    with pytest.raises(ConvolutionError, match=r"m at r=1e-08 tail"):
        gb_multiplier(custom_prior(g, gp, 3), gaussian(3), 3, 1e-8)
