"""The per-draw cubic table: bitwise scipy's PPoly, without its binary search.

Oracle: scipy's own ``PPoly.__call__`` on the same knots and
coefficients, compared bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator, PPoly
from scipy.special import expit

from sphereshrink import numerics, risk_sim, shrinkage
from sphereshrink.numerics import CubicTable
from sphereshrink.radial_models import gaussian, tabulated
from sphereshrink.risk_sim import RiskConfig, estimate_risk, sample_radius


def scipy_twin(table):
    """The PPoly the table was built from: its knots and coefficients."""
    return PPoly(np.stack([table._c0, table._c1, table._c2, table._c3]), table._x)


def assert_bitwise(table, x, pp=None):
    got, want = table(x), (pp or scipy_twin(table))(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def bucket_edges(table, inverse):
    """Every bucket edge in x, each with its neighbours one ulp away."""
    edges = inverse(table._t0 + np.arange(table._top + 2.0) / table._scale)
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@pytest.fixture(scope="module")
def model():
    return gaussian(5)


def test_sampler_table_is_bitwise_scipy(model):
    ppf, u_hi, _ = risk_sim._sampler(model)
    assert isinstance(ppf, CubicTable)
    u = np.random.default_rng(1).random(1_000_000)
    ends = [0.0, u_hi, np.nextafter(u_hi, 0.0), 1.0]
    tails = np.concatenate([10.0 ** -np.linspace(1.0, 40.0, 2001), 1.0 - 10.0 ** -np.linspace(1.0, 16.0, 2001)])
    assert_bitwise(ppf, np.concatenate([u, ppf._x, bucket_edges(ppf, expit), ends, tails]))


def test_profile_table_is_bitwise_scipy(model):
    prof = shrinkage._cached_profile(model)
    table = prof.table.head
    assert isinstance(table, CubicTable)
    end = float(prof.r_grid[-1])
    r = np.random.default_rng(2).random(1_000_000) * 1.2 * end
    ends = [0.0, prof.r_grid[0], end, np.nextafter(end, 0.0), np.nextafter(end, np.inf), 2.0 * end, 1e300]
    assert_bitwise(table, np.concatenate([r, table._x, bucket_edges(table, np.exp), ends]))


def test_weight_table_tail_is_bitwise_scipy():
    # the tail of a (1 + r^2)^-4 table's profile, in u = 1/r (q - p - 2 = 1):
    # a PCHIP over log u whose first knot, u = 0, has no finite coordinate
    r = np.geomspace(0.01, 100.0, 300)
    tail = shrinkage.build_profile(tabulated(r, (1.0 + r**2) ** -4.0, 5)).table.tail
    assert tail._x[0] == 0.0
    s = tail._x[-1] * np.random.default_rng(7).random(100_000)
    assert_bitwise(tail, np.concatenate([s, tail._x, bucket_edges(tail, np.exp), [0.0, 1e-300, 2.0 * tail._x[-1]]]))


def test_gb_shaped_table_is_bitwise_scipy():
    # a PCHIP on 49 geometric knots over log r
    grid = np.geomspace(1e-2, 12.0, 49)
    table = CubicTable(PchipInterpolator(grid, 3.0 * grid**2 / (1.0 + grid**2)), np.log)
    r = np.exp(np.random.default_rng(3).uniform(math.log(1e-3), math.log(20.0), 1_000_000))
    ends = [0.0, grid[0], grid[-1], 100.0]
    assert_bitwise(table, np.concatenate([r, grid, bucket_edges(table, np.exp), ends]))


def test_crowded_buckets_fall_back_to_a_binary_search(monkeypatch):
    # geometric knots plus ten inside one bucket: that bucket is crowded
    knots = np.sort(np.concatenate([np.geomspace(1.0, 100.0, 50), 2.0 + 1e-5 * np.arange(1, 11)]))
    table = CubicTable(PchipInterpolator(knots, np.sin(knots)), np.log)
    assert np.count_nonzero(table._first < 0) >= 1
    calls = []
    real = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, **kw: calls.append(np.size(v)) or real(a, v, **kw))
    inside = 2.0 + 1e-4 * np.random.default_rng(4).random(1000)
    away = np.geomspace(5.0, 90.0, 1000)
    assert_bitwise(table, away)
    assert calls == []
    x = np.concatenate([inside, away, knots])
    assert_bitwise(table, x)
    assert len(calls) == 1 and 1000 <= calls[0] < x.size


def test_a_coordinate_that_returns_its_argument_leaves_the_input_unchanged():
    # the bucket shift and scale work on the coordinate's output, which
    # here is the caller's own array
    knots = np.linspace(0.0, 10.0, 41)
    table = CubicTable(PchipInterpolator(knots, np.sin(knots)), lambda x: x)
    x = np.random.default_rng(5).uniform(-1.0, 11.0, 3 * numerics._TABLE_CHUNK + 7)
    before = x.copy()
    assert_bitwise(table, x)
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


def test_signed_zeros_and_infinities_are_scipys():
    # scipy sums from 0.0, so a -0.0 constant term gives +0.0 at its knot
    pp = PPoly(np.array([[1.0, 2.0], [0.5, -1.0], [0.25, 3.0], [-0.0, 1.0]]), np.array([1.0, 2.0, 4.0]))
    table = CubicTable(pp, np.log)
    x = np.array([1.0, 2.0, 4.0, 5.0, 0.5, 0.0, -0.0, -1.0, np.inf, -np.inf, np.nan])
    assert_bitwise(table, x, pp)
    assert math.copysign(1.0, table(1.0)) == 1.0
    one_by_one = np.array([table(float(v)) for v in x])
    assert np.array_equal(one_by_one.view(np.uint64), pp(x).view(np.uint64))


def test_scalar_and_one_element_array_agree(model):
    ppf = risk_sim._sampler(model)[0]
    psi = shrinkage._cached_profile(model).table.head
    for table, x in [(ppf, 0.37), (ppf, 0.0), (psi, 2.5), (psi, 0.0), (psi, 1e3)]:
        one = table(x)
        assert type(one) is float
        assert one == table(np.array([x]))[0] == table(np.float64(x)) == table(np.array(x))
        assert one == float(scipy_twin(table)(x))


def test_nan_in_nan_out(model):
    prof = shrinkage._cached_profile(model)
    assert math.isnan(prof.psi(math.nan))
    assert math.isnan(prof.multiplier(math.nan))
    out = prof.multiplier(np.array([1.0, math.nan, 3.0]))
    assert math.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()
    assert math.isnan(prof.table.head(math.nan))
    assert np.isnan(scipy_twin(prof.table.head)(np.array([math.nan]))).all()


def test_rejects_a_table_it_cannot_guide():
    with pytest.raises(ValueError, match="cubic"):
        CubicTable(PPoly(np.ones((2, 3)), np.arange(4.0)), np.log)
    with pytest.raises(ValueError, match="finite"):
        CubicTable(PPoly(np.ones((4, 1)), np.array([0.0, 1.0])), lambda u: np.log(u / (1.0 - u)))
    # fifty knots within 1e-6 relative at 1e100: log r cannot tell their
    # buckets apart to the slack the guide needs
    knots = np.geomspace(1e100, 1.000001e100, 50)
    with pytest.raises(ValueError, match="precision"):
        CubicTable(PchipInterpolator(knots, np.arange(50.0)), np.log)


def test_risk_curve_never_calls_scipys_evaluator(monkeypatch):
    # a fresh model builds fresh tables; neither the builds nor the draws
    # evaluate a PPoly through scipy, and the curve is independent of the
    # thread count
    def forbidden(self, *args, **kwargs):
        raise AssertionError("PPoly.__call__ on the per-draw path")

    monkeypatch.setattr(PPoly, "__call__", forbidden)
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                     theta_norms=(0.0, 3.0, 9.0), samples_per_point=20_000, seed=17)
    one = estimate_risk(cfg, threads=1)
    many = estimate_risk(cfg, threads=2)
    assert one.entries == many.entries
    assert shrinkage.estimate(cfg.model, 5, np.full(5, 0.7)).shape == (5,)
    assert isinstance(sample_radius(cfg.model, 0.25), float)


def test_risk_curve_equals_the_scipy_evaluators_curve(monkeypatch):
    cfg = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                     theta_norms=(0.0, 3.0, 9.0), samples_per_point=20_000, seed=17)
    tables = estimate_risk(cfg, threads=2)
    # the same curve with scipy evaluating every table, on a fresh model
    monkeypatch.setattr(numerics, "CubicTable", lambda pp, coordinate: pp)
    fresh = RiskConfig(model=gaussian(5), p=5, estimator="harmonic_bayes",
                       theta_norms=cfg.theta_norms, samples_per_point=cfg.samples_per_point, seed=cfg.seed)
    assert isinstance(risk_sim._sampler(fresh.model)[0], PchipInterpolator)
    assert estimate_risk(fresh, threads=2).entries == tables.entries
