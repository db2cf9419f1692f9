"""Sampler accuracy, stream determinism, and dominance verdicts."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import erf

from sphereshrink import radial_convolution, risk_sim
from sphereshrink.radial_models import normalize
from sphereshrink.risk_sim import (
    DominanceVerdict,
    RiskConfig,
    RiskSimError,
    dominance_report,
    estimate_risk,
    radial_cdf,
    sample_radius,
)
from sphereshrink.radial_convolution import ConvolutionError, c_f
from sphereshrink.rv_priors import harmonic_prior, log_thickened_prior, power_prior
from sphereshrink.shrinkage import build_profile, gb_multiplier


def gaussian(p):
    return normalize("gaussian", {}, p)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def heavy_table():
    """A (1 + r^2)^-4 table on 300 knots, p = 5: a power-law tail."""
    knots = np.geomspace(0.01, 100.0, 300)
    return normalize("tabulated", {"r": knots, "f": (1.0 + knots**2) ** -4.0}, 5)


# References: the exact CDF's two-sided KS distance, and one draw X = theta + R U.


def ks_statistic(model, radii) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the exact radial CDF."""
    x = np.sort(np.asarray(radii, dtype=float))
    n = x.size
    g = radial_cdf(model, x)
    steps = np.arange(n + 1) / n
    return float(max(np.max(g - steps[:-1]), np.max(steps[1:] - g)))


def sample_obs(model, theta, rng) -> np.ndarray:
    """One draw X = theta + R U, U from normalized standard normals."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise RiskSimError(f"theta must have shape ({model.p},)")
    z = rng.standard_normal(model.p)
    u = rng.random()
    return theta + sample_radius(model, u) * z / np.linalg.norm(z)


# -- radial sampler -----------------------------------------------------


def test_median_matches_chi3():
    # chi(3) median 1.53817225... (scipy ppf agrees with the bisection
    # root of the closed CDF erf(r/sqrt 2) - sqrt(2/pi) r exp(-r^2/2))
    med = sample_radius(gaussian(3), 0.5)
    oracle = stats.chi.ppf(0.5, 3)
    assert oracle == pytest.approx(1.5381722544550522, rel=1e-12)
    assert med == pytest.approx(oracle, abs=1e-6)
    closed_cdf = erf(med / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * med * math.exp(-med * med / 2.0)
    assert closed_cdf == pytest.approx(0.5, abs=1e-6)


def test_sampler_strictly_increasing():
    u = np.linspace(1e-9, 1.0 - 1e-9, 5001)
    r = sample_radius(gaussian(3), u)
    assert np.all(np.diff(r) > 0.0)


def test_sampler_small_u_small_radius():
    g = gaussian(3)
    assert sample_radius(g, 0.0) == 0.0
    # radial CDF ~ c r^3 near zero, so r(1e-12) ~ 1e-4
    assert 0.0 < sample_radius(g, 1e-12) < 1e-3


def test_sampler_domain_errors():
    g = gaussian(3)
    with pytest.raises(RiskSimError):
        sample_radius(g, -0.01)
    with pytest.raises(RiskSimError):
        sample_radius(g, 1.01)
    for nan in (math.nan, np.float64(math.nan), np.array(math.nan), np.array([0.5, math.nan])):
        with pytest.raises(RiskSimError):
            sample_radius(g, nan)


def test_sampler_scalar_and_array():
    g = gaussian(4)
    assert isinstance(sample_radius(g, 0.3), float)
    out = sample_radius(g, np.array([0.1, 0.5, 0.9]))
    assert out.shape == (3,)


def test_radial_cdf_closed_form_chi3():
    g = gaussian(3)
    r = np.array([0.2, 0.8, 1.5, 2.5, 4.0])
    closed = erf(r / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * r * np.exp(-r * r / 2.0)
    assert np.max(np.abs(radial_cdf(g, r) - closed)) < 1e-12
    assert radial_cdf(g, 0.0) == 0.0
    assert radial_cdf(g, 50.0) == 1.0


def test_sampler_gate_raises_on_a_coarse_table(monkeypatch):
    # nine geometric knots cannot carry the inverse CDF to 1e-8
    monkeypatch.setattr(risk_sim, "_SAMPLER_KNOTS", 9)
    with pytest.raises(RiskSimError, match="midpoint"):
        sample_radius(gaussian(5), 0.5)


def test_sampler_moment_consistency():
    m = normalize("poly_exp", {"alpha": 2.0, "beta": 0.5}, 4)
    u = rng_for(2024).random(200_000)
    r = sample_radius(m, u)
    e2, e4 = m.moment(2.0), m.moment(4.0)
    z = (np.mean(r * r) - e2) / math.sqrt((e4 - e2 * e2) / r.size)
    assert abs(z) < 4.0


def test_sampler_gof_ks():
    for fam, params, p in [("gaussian", {}, 5), ("mixture_diff", {"a": 0.9, "b": 0.5}, 4)]:
        m = normalize(fam, params, p)
        r = sample_radius(m, rng_for(99).random(100_000))
        assert ks_statistic(m, r) < 1.6276 / math.sqrt(r.size), fam


def test_sampler_tabulated_family():
    grid = np.geomspace(0.05, 8.0, 160)
    m = normalize("tabulated", {"r": grid, "f": np.exp(-0.5 * grid**2) + 1e-9 * grid**-8.0}, 3)
    r = sample_radius(m, rng_for(5).random(20_000))
    assert ks_statistic(m, r) < 1.6276 / math.sqrt(r.size)


def test_sampler_table_reaches_the_heavy_tail():
    # support_radius(1e-14) bounds F, not the radial mass: on this table it
    # would leave 3.4e-7 of mass above the last knot, where every u mapped
    # to one radius; the table now ends where at most 1e-10 is left
    m = heavy_table()
    u = np.array([1.0 - 1e-7, 1.0 - 1e-8])
    r = sample_radius(m, u)  # builds the table, which passes its 1e-8 gate
    assert r[1] > r[0] > m.support_radius(1e-14)
    assert np.max(np.abs(radial_cdf(m, r) - u)) <= 1e-8
    _, u_hi, _ = risk_sim._sampler(m)
    assert 1.0 - u_hi <= 1e-10
    # a light tail already has less than 1e-10 there: its table is unchanged
    g = gaussian(5)
    assert risk_sim._sampler(g)[2] == g.support_radius(1e-14)


# -- observation sampler ------------------------------------------------


def test_sample_obs_moments():
    g = gaussian(5)
    theta = np.array([1.0, -2.0, 0.0, 0.5, 3.0])
    rng = rng_for(31)
    draws = np.array([sample_obs(g, theta, rng) for _ in range(20_000)])
    se_coord = math.sqrt(1.0 / draws.shape[0])  # var per coordinate = E r^2 / p = 1
    assert np.max(np.abs(draws.mean(axis=0) - theta)) < 4.0 * se_coord
    sq = np.sum((draws - theta) ** 2, axis=1)
    e2, e4 = g.moment(2.0), g.moment(4.0)
    z = (sq.mean() - e2) / math.sqrt((e4 - e2 * e2) / sq.size)
    assert abs(z) < 4.0


def test_sample_obs_deterministic():
    g = gaussian(4)
    theta = np.zeros(4)
    a = sample_obs(g, theta, rng_for(77))
    b = sample_obs(g, theta, rng_for(77))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [3, 5])
def test_sample_block_norm_is_numpy_norm_bitwise(p):
    z, r, scale = risk_sim._sample_block(gaussian(p), rng_for(11), 4096)
    assert np.array_equal(scale, r / np.linalg.norm(z, axis=1))


def test_sample_obs_shape_error():
    with pytest.raises(RiskSimError):
        sample_obs(gaussian(4), np.zeros(3), rng_for(0))


# -- config validation --------------------------------------------------


def test_config_rejects_bad_inputs():
    g = gaussian(4)
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=5)
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, samples_per_point=0)
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, estimator="stein")
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, estimator="generalized_bayes")
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, theta_norms=())
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, theta_norms=(-1.0,))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_theta(theta):
    # NaN passed the t < 0 check and the curve read nan with a verdict
    with pytest.raises(RiskSimError, match="theta_norms must be nonempty, nonnegative and finite"):
        RiskConfig(model=gaussian(5), p=5, theta_norms=(0.0, theta))


def test_config_refuses_a_prior_of_another_dimension():
    with pytest.raises(RiskSimError, match="prior dimension 3 does not match p=5"):
        RiskConfig(model=gaussian(5), p=5, estimator="generalized_bayes", prior=harmonic_prior(3))


def test_config_rejects_bad_loss():
    g = gaussian(4)
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, loss_Q=np.eye(3))
    skew = np.eye(4)
    skew[0, 1] = 0.5
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, loss_Q=skew)
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, loss_Q=-np.eye(4))


def test_config_normalizes_direction():
    g = gaussian(4)
    c = RiskConfig(model=g, p=4, theta_direction=np.array([3.0, 0.0, 4.0, 0.0]))
    assert np.allclose(c.theta_direction, [0.6, 0.0, 0.8, 0.0])
    with pytest.raises(RiskSimError):
        RiskConfig(model=g, p=4, theta_direction=np.zeros(4))


# -- risk estimation ----------------------------------------------------


def small_curve(estimator, theta_norms=(0.0, 2.0, 5.0), n=50_000, seed=42, **kw):
    cfg = RiskConfig(model=gaussian(5), p=5, estimator=estimator,
                     theta_norms=theta_norms, samples_per_point=n, seed=seed, **kw)
    return estimate_risk(cfg, threads=2)


def test_identity_matches_exact_baseline():
    curve = small_curve("identity")
    for e in curve.entries:
        assert e.baseline_risk == pytest.approx(5.0, rel=1e-12)
        assert abs(e.risk_estimate - e.baseline_risk) < 3.0 * e.std_error
        assert e.paired_diff_estimate == 0.0
        assert e.paired_diff_std_error == 0.0


def test_harmonic_origin_gain_and_dominance():
    curve = small_curve("harmonic_bayes")
    e0 = curve.entries[0]
    assert e0.paired_diff_estimate < 0.0
    assert -e0.paired_diff_estimate > 100.0 * e0.paired_diff_std_error
    assert dominance_report(curve).verdict == "dominates"


def test_harmonic_far_field_risk_approaches_baseline():
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                     theta_norms=(50.0,), samples_per_point=100_000, seed=7)
    e = estimate_risk(cfg, threads=2).entries[0]
    assert e.paired_diff_estimate <= 0.0
    # shrinking is O(r^-2) out here: inside the plain 3-sigma band of the
    # risk estimate, and under a tenth of a percent of the baseline
    assert abs(e.paired_diff_estimate) < 3.0 * e.std_error
    assert abs(e.paired_diff_estimate) < 1e-3 * e.baseline_risk


def test_crn_variance_reduction():
    curve = small_curve("harmonic_bayes")
    for e in curve.entries:
        assert e.paired_diff_std_error < e.std_error


def test_determinism_same_config():
    a = small_curve("harmonic_bayes")
    b = small_curve("harmonic_bayes")
    assert a.entries == b.entries


def test_determinism_across_thread_counts():
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                     theta_norms=(0.0, 1.0, 4.0), samples_per_point=30_000, seed=9)
    one = estimate_risk(cfg, threads=1)
    eight = estimate_risk(cfg, threads=8)
    assert one.entries == eight.entries


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kw", [
    {},
    {"loss_Q": np.diag([3.0, 1.0, 2.0, 1.0, 0.5]), "theta_direction": np.array([1.0, -2.0, 0.0, 0.5, 1.0])},
], ids=["default", "loss_Q_and_direction"])
def test_an_entry_does_not_depend_on_the_other_thetas(kw, threads):
    # every theta reads the same block of R U draws, so an entry is
    # bitwise the same in any curve that holds its theta
    def curve(norms):
        cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes", theta_norms=norms,
                         samples_per_point=10_000, seed=11, **kw)
        return estimate_risk(cfg, threads=threads).entries

    forward = curve((0.0, 4.0, 8.0))
    assert curve((8.0, 0.0, 4.0)) == (forward[2], forward[0], forward[1])
    for e in forward:
        assert curve((e.theta_norm,)) == (e,)


def test_one_radius_draw_per_block(monkeypatch):
    calls, draw = [], risk_sim.sample_radius

    def counted(model, u):
        calls.append(np.size(u))
        return draw(model, u)

    monkeypatch.setattr(risk_sim, "sample_radius", counted)
    n = 10_000
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                     theta_norms=(0.0, 1.0, 2.0, 4.0, 8.0), samples_per_point=n, seed=3)
    estimate_risk(cfg, threads=2)
    assert len(calls) == math.ceil(n / 4096)
    assert sum(calls) == n


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["identity_loss", "loss_Q_and_direction", "heavy_table"])
def test_radial_path_matches_its_materialized_twin(case, threads):
    # a callable equal to harmonic_bayes forms X = theta + R U and delta;
    # the built-in estimator reduces each draw to scalars: same curve
    model = heavy_table() if case == "heavy_table" else gaussian(5)
    kw = {}
    if case == "loss_Q_and_direction":
        kw = {"loss_Q": np.diag([3.0, 1.0, 2.0, 1.0, 0.5]), "theta_direction": np.array([1.0, -2.0, 0.0, 0.5, 1.0])}
    prof = build_profile(model)
    twin = lambda x, norms: x * prof.multiplier(norms)[:, None]

    def curve(estimator):
        cfg = RiskConfig(model=model, p=5, estimator=estimator, theta_norms=(0.0, 4.0, 40.0),
                         samples_per_point=10_000, seed=13, **kw)
        return estimate_risk(cfg, threads=threads).entries

    for a, b in zip(curve("harmonic_bayes"), curve(twin)):
        tol = 1e-12 * a.baseline_risk
        assert a.baseline_risk == b.baseline_risk
        assert abs(a.risk_estimate - b.risk_estimate) <= tol
        assert abs(a.std_error - b.std_error) <= tol
        assert abs(a.paired_diff_estimate - b.paired_diff_estimate) <= tol
        assert abs(a.paired_diff_std_error - b.paired_diff_std_error) <= tol


def test_paired_difference_matches_the_exact_risk_far_out():
    # exact paired differences of the harmonic estimator, gaussian p = 5,
    # from the convolution oracle; far out the difference is a few
    # thousandths of a risk of 5, where ld - lx would cancel
    exact = {0.0: -3.0000000, 20.0: -0.0224436, 40.0: -0.0056215}
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes", theta_norms=tuple(exact),
                     samples_per_point=200_000, seed=7)
    for e in estimate_risk(cfg, threads=2).entries:
        assert abs(e.paired_diff_estimate - exact[e.theta_norm]) <= 4.0 * e.paired_diff_std_error


def test_unpaired_curve():
    curve = small_curve("harmonic_bayes", paired=False)
    assert math.isnan(curve.entries[0].paired_diff_estimate)
    with pytest.raises(RiskSimError):
        dominance_report(curve)


def test_identity_dominance_inconclusive():
    verdict = dominance_report(small_curve("identity"))
    assert verdict == DominanceVerdict("inconclusive", None)


def test_overshrinker_flagged():
    over = lambda x, norms: -0.5 * x
    curve = small_curve(over, theta_norms=(0.0, 8.0), n=20_000)
    v = dominance_report(curve)
    assert v.verdict == "violation_at"
    assert v.theta == 8.0
    assert curve.metadata["estimator"] == "custom"


def test_generalized_bayes_tracks_harmonic():
    # the posterior-mean multiplier under the harmonic prior is the
    # shrinkage factor, read from the one profile table: the entries are
    # the same bitwise, also far beyond the table's head
    norms = (0.0, 3.0, 20.0, 40.0)
    for model in (gaussian(5), heavy_table()):
        gb, hb = (estimate_risk(RiskConfig(model=model, p=5, estimator=estimator, prior=harmonic_prior(5),
                                           theta_norms=norms, samples_per_point=20_000, seed=42), threads=2)
                  for estimator in ("generalized_bayes", "harmonic_bayes"))
        assert gb.entries == hb.entries, repr(model)
        assert dominance_report(gb).verdict != "violation_at"


def test_the_harmonic_gb_table_is_the_profile_table(monkeypatch):
    monkeypatch.setattr(risk_sim, "_gb_weight", lambda *args: pytest.fail("the oracle ran"))
    model = gaussian(5)
    assert risk_sim._gb_table(model, harmonic_prior(5)) is risk_sim._cached_profile(model).table


def test_generalized_bayes_table_is_built_once_per_model_and_prior(monkeypatch):
    calls, build = [], risk_sim._gb_weight

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(risk_sim, "_gb_weight", counted)
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="generalized_bayes", prior=power_prior(-2.5, 5),
                     theta_norms=(0.0, 2.0), samples_per_point=4096, seed=7)
    first = estimate_risk(cfg, threads=1)
    built = len(calls)
    # the head's knots and midpoints, then the tail's nine knots in s = 1/r
    # (its knot at s = 0 is the closed-form limit) and nine midpoints
    assert built == 49 + 48 + 9 + 9
    second = estimate_risk(cfg, threads=1)
    assert len(calls) == built
    assert second.entries == first.entries


def test_generalized_bayes_table_gate_trips_on_a_coarse_table(monkeypatch):
    monkeypatch.setattr(risk_sim, "_GB_KNOTS", 9)
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="generalized_bayes", prior=power_prior(-2.5, 5),
                     theta_norms=(0.0,), samples_per_point=4096, seed=7)
    with pytest.raises(RiskSimError, match="GB table misses psi"):
        estimate_risk(cfg, threads=1)


def test_profile_follows_a_power_tail_past_its_grid_to_the_limit():
    # the grid ends at r = 58, where phi = 2.9123 is still 0.089 below its
    # limit 3.0008; beyond it the tail in s = 1/r takes over
    model = heavy_table()
    prof = build_profile(model)
    assert prof.r_grid[-1] == pytest.approx(58.0, abs=0.1)
    for r in (116.0, 290.0):
        exact = float(model.kernel_moment(4.0, r) / model.kernel_moment(2.0, r))
        assert abs(prof.phi(r) - exact) <= 1e-6 * prof.limit_value, r
        assert abs(prof.psi(r) * r * r - exact) <= 1e-6 * prof.limit_value, r
    for r in (1e300, math.inf):
        assert prof.phi(r) == prof.phi(np.array([r]))[0] == prof.limit_value
        assert prof.psi(r) == prof.psi(np.array([r]))[0] == 0.0


def test_profile_follows_a_slow_power_tail_to_the_limit():
    # (1 + r^2)^-3.6 in p = 5: phi closes on its limit only like r^-0.2,
    # which the model's closed-form power tail carries as the lead
    knots = np.geomspace(0.01, 100.0, 300)
    model = normalize("tabulated", {"r": knots, "f": (1.0 + knots**2) ** -3.6}, 5)
    prof = build_profile(model)
    for r in (2.0 * prof.r_grid[-1], 1e3, 1e6):
        exact = float(model.kernel_moment(4.0, r) / model.kernel_moment(2.0, r))
        assert abs(prof.phi(r) - exact) <= 1e-6 * prof.limit_value, r
    assert prof.phi(1e6) < 0.95 * prof.limit_value
    assert prof.phi(math.inf) == prof.limit_value and prof.psi(math.inf) == 0.0
    for estimator in ("harmonic_bayes", "generalized_bayes"):
        curve = estimate_risk(RiskConfig(model=model, p=5, estimator=estimator, prior=harmonic_prior(5),
                                         theta_norms=(0.0, 8.0), samples_per_point=4096, seed=7), threads=1)
        assert all(math.isfinite(e.risk_estimate) for e in curve.entries)


def test_generalized_bayes_tail_raises_its_own_error_where_the_oracle_fails(monkeypatch):
    # a failure in the head is the oracle's own; past it, the tail cannot be checked
    for reach, error in ((1.0, ConvolutionError), (1e3, RiskSimError)):
        def oracle(prior, model, r, reach=reach):
            if r > reach:
                raise ConvolutionError("no value")
            return radial_convolution._gb_weight(prior, model, r)

        monkeypatch.setattr(risk_sim, "_gb_weight", oracle)
        with pytest.raises(error):
            risk_sim._gb_table(gaussian(5), power_prior(-2.5, 5))


@pytest.mark.parametrize("prior, radii", [
    (power_prior(-2.5, 5), (13.6, 34.0)),
    # phi = 2.74 at r = 34 and 2.86 at 1000 closes on 3 like 1/log r: the
    # lead -c_f r G'/G carries that, and what is left falls like 1/r^2
    (log_thickened_prior(0, math.e, 5), (34.0, 1e3, 1e5)),
], ids=["power", "log_thickened"])
def test_generalized_bayes_weight_follows_its_tail_to_the_limit(prior, radii):
    # the head ends at support_radius(1e-10) = 6.79, where power(-2.5)'s
    # phi = 2.4701 is still 0.03 below its limit
    model = gaussian(5)
    table = risk_sim._gb_table(model, prior)
    assert table.r_max == pytest.approx(6.79, abs=0.01)
    gate = risk_sim._GB_TABLE_TOL * max(1.0, table.phi(table.r_max))
    for r in radii:
        exact = r * r * (1.0 - gb_multiplier(prior, model, 5, r))
        assert abs(table.psi(r) * r * r - exact) <= gate, r
    limit = -prior.estimated_rv_index() * c_f(model)
    assert table.phi(math.inf) == limit and table.psi(math.inf) == 0.0
    assert table.phi(1e300) == pytest.approx(limit, rel=1e-3)


def test_general_quadratic_loss():
    q = np.diag([2.0, 1.0, 1.0, 1.0, 1.0])
    curve = small_curve("identity", theta_norms=(0.0, 2.0), n=40_000, loss_Q=q)
    for e in curve.entries:
        assert e.baseline_risk == pytest.approx(6.0, rel=1e-12)  # tr(Q) E r^2 / p
        assert abs(e.risk_estimate - e.baseline_risk) < 3.0 * e.std_error
    assert curve.metadata["direction_specific"] is True
    scalar = small_curve("identity", theta_norms=(0.0,), n=5_000, loss_Q=2.0 * np.eye(5))
    assert scalar.metadata["direction_specific"] is False
    assert scalar.entries[0].baseline_risk == pytest.approx(10.0, rel=1e-12)


def test_curve_metadata():
    curve = small_curve("harmonic_bayes", n=5_000)
    md = curve.metadata
    assert md["seed"] == 42 and md["N"] == 5_000
    assert md["estimator"] == "harmonic_bayes"
    assert md["paired"] is True
    assert "gaussian" in md["model_id"]
