"""Contract every sampling family in the name table must meet.

Each case goes through the public API only: normalization, the tail
kernel and second moment against scipy quadrature, the certified tail
bound on a grid, and the audit's analytic answers (monotonicity
verdicts, inf F/f) against the grid scans they replace.
"""

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import radial_models
from sphereshrink.minimax_audit import PROPERTIES, inf_ratio, probe_monotone
from sphereshrink.numerics import sphere_surface

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
