"""Contract every sampling family in the name table must meet.

Each case goes through the public API only: normalization, the tail
kernel, its cumulative moments and the second moment against scipy
quadrature, the shrinkage profile against the exact moment ratio, the
certified tail bound on a grid, and the audit's analytic answers
(monotonicity verdicts, inf F/f) against the grid scans they replace.
"""

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import radial_models
from sphereshrink.minimax_audit import PROPERTIES, inf_ratio, probe_monotone
from sphereshrink.numerics import QuadratureSpec, ToleranceNotReached, sphere_surface
from sphereshrink.risk_sim import radial_cdf, sample_radius
from sphereshrink.shrinkage import build_profile

_R_TAB = np.geomspace(0.02, 3.0, 220)

CASES = {
    "gaussian": radial_models.gaussian(5),
    "poly_exp_alpha0": radial_models.poly_exp(0.0, 0.25, 4),
    "poly_exp_alpha2": radial_models.poly_exp(2.0, 1.0, 5),
    "mixture_a_le_b": radial_models.mixture_diff(0.5, 0.5, 3),
    "mixture_a_gt_b": radial_models.mixture_diff(0.9, 0.5, 4),
    "tabulated": radial_models.tabulated(_R_TAB, np.exp(-(_R_TAB**4)), 3),
}

# quad on the PCHIP-interpolated table is the looser of the two routes
REL = {"tabulated": 1e-6}

_R_GAUSS = np.geomspace(0.01, 8.0, 300)
_R_POWER = np.geomspace(0.01, 100.0, 300)

# further tables whose profile must build: light and power (q = 8) tails
PROFILE_TABLES = {
    "table_gaussian": radial_models.tabulated(_R_GAUSS, np.exp(-0.5 * _R_GAUSS**2), 5),
    "table_power8": radial_models.tabulated(_R_POWER, (1.0 + _R_POWER**2) ** -4.0, 5),
}


def quad_to_inf(fn, lo=0.0, points=None):
    if points is not None:
        head, _ = sp_integrate.quad(fn, lo, points[-1], points=points, limit=400)
        tail, _ = sp_integrate.quad(fn, points[-1], np.inf, limit=400)
        return head + tail
    val, _ = sp_integrate.quad(fn, lo, np.inf, limit=400)
    return val


def _breaks(name, lo=0.0):
    return [x for x in (0.02, 0.5, 1.0, 2.0, 3.0) if x > lo] if name == "tabulated" else None


def test_cases_cover_every_family():
    assert {m.family for m in CASES.values()} == set(radial_models._FAMILIES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_unit_mass(name):
    m = CASES[name]
    cp = sphere_surface(m.p)
    mass = quad_to_inf(lambda r: cp * r ** (m.p - 1) * m.density(r), points=_breaks(name))
    assert mass == pytest.approx(1.0, rel=REL.get(name, 1e-9))


@pytest.mark.parametrize("name", sorted(CASES))
def test_big_f_and_second_moment_match_quadrature(name):
    m = CASES[name]
    rel = REL.get(name, 1e-8)
    for u in (0.0, 0.7, 2.0):
        oracle = quad_to_inf(lambda s: s * m.density(s), u, points=_breaks(name, u))
        assert m.big_f(u) == pytest.approx(oracle, rel=rel)
    cp = sphere_surface(m.p)
    e2 = quad_to_inf(lambda r: cp * r ** (m.p + 1) * m.density(r), points=_breaks(name))
    assert m.moment(2.0) == pytest.approx(e2, rel=rel)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_moment_matches_quadrature(name):
    m = CASES[name]
    rel = REL.get(name, 1e-9)
    for k in (m.p - 3, m.p - 1):
        for r in (0.3, 1.0, 3.0, 10.0):
            breaks = [x for x in (_breaks(name) or []) if x < r] + [r]
            edges = [0.0, *breaks]
            oracle = sum(sp_integrate.quad(lambda t: t**k * m.big_f(t), lo, hi, limit=400)[0]
                         for lo, hi in zip(edges[:-1], edges[1:]))
            assert m.kernel_moment(k, r) == pytest.approx(oracle, rel=rel)


@pytest.mark.parametrize("name", sorted(CASES) + sorted(PROFILE_TABLES))
def test_profile_builds_and_matches_the_moment_ratio(name):
    m = CASES.get(name) or PROFILE_TABLES[name]
    p = m.p
    prof = build_profile(m)
    rng = np.random.default_rng(3)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(prof.r_grid[-1]), 200))
    exact = m.kernel_moment(p - 1, r) / m.kernel_moment(p - 3, r)
    assert np.max(np.abs(prof.phi(r) - exact)) <= 1e-6 * max(1.0, prof.limit_value)


def test_tabulated_big_f_is_exact_between_and_below_the_knots():
    # quad split at every table knot, where the log-log PCHIP is smooth
    m = CASES["tabulated"]
    cuts = np.append(_R_TAB, np.inf)

    def oracle(u):
        edges = np.concatenate([[u], cuts[cuts > u]])
        return sum(sp_integrate.quad(lambda s: s * m.density(s), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    mids = 0.5 * (_R_TAB[:-1] + _R_TAB[1:])
    for u in (0.0, 0.5 * _R_TAB[0], *mids[::6]):
        assert m.big_f(u) == pytest.approx(oracle(u), rel=1e-9)


def test_tabulated_pieces_raise_when_they_miss_their_tolerance(monkeypatch):
    m = radial_models.tabulated(_R_TAB, np.exp(-(_R_TAB**4)), 3)
    monkeypatch.setattr(radial_models, "_MOMENT_SPEC", QuadratureSpec(abs_tol=1e-300, rel_tol=1e-30))
    with pytest.raises(ToleranceNotReached):
        m.kernel_moment(0.0, np.array([0.5, 1.0]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_radial_cdf_matches_quadrature(name):
    m = CASES[name]
    cp = sphere_surface(m.p)
    density = lambda s: cp * s ** (m.p - 1) * m.density(s)
    for r in (0.3, 1.0, 3.0, 10.0):
        edges = [0.0, *(x for x in (_R_TAB if name == "tabulated" else ()) if x < r), r]
        oracle = sum(sp_integrate.quad(density, lo, hi, epsabs=1e-13, limit=400)[0]
                     for lo, hi in zip(edges[:-1], edges[1:]))
        assert abs(radial_cdf(m, r) - oracle) <= 1e-9
    cdf = radial_cdf(m, np.geomspace(1e-3, 1e3, 400))
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", sorted(CASES) + sorted(PROFILE_TABLES))
def test_sampler_table_passes_its_gate(name):
    # building the inverse-CDF table runs its midpoint gate, which raises on a miss
    m = CASES.get(name) or PROFILE_TABLES[name]
    assert 0.0 < sample_radius(m, 0.5) < sample_radius(m, 0.9)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tail_bound_holds_on_grid(name):
    m = CASES[name]
    prof = m.tail_profile()
    grid = np.geomspace(prof.r0, prof.r0 * 1e3, 400)
    lhs = grid ** (m.p + prof.s) * m.density(grid)
    finite = np.isfinite(lhs)
    assert np.all(lhs[finite] <= prof.L * (1 + 1e-9))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("prop", PROPERTIES)
def test_monotonicity_verdict_agrees_with_grid_scan(name, prop):
    # the scan always runs and reports its worst violation; an analytic
    # verdict must say what the scan sees at the audit's tolerance
    v = probe_monotone(CASES[name], prop)
    assert (v.verdict == "holds") == (v.max_violation <= 1e-9)


@pytest.mark.parametrize("name", sorted(CASES))
def test_inf_ratio_is_a_tight_lower_bound_of_the_grid(name):
    m = CASES[name]
    hi = m.support_radius(1e-12)
    grid = np.geomspace(max(1e-4 * hi, 1e-8), hi, 2000)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = m.big_f(grid) / m.density(grid)
    grid_min = float(np.min(vals[np.isfinite(vals)]))
    # the closed forms are infima reached only as r -> infinity
    val = inf_ratio(m)
    assert val <= grid_min * (1.0 + 1e-12)
    assert val >= 0.95 * grid_min
