"""Integral identity checks against scipy oracles and frozen values."""

import math
import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import cli, numerics
from sphereshrink.radial_models import DivergentMoment, gaussian, mixture_diff, poly_exp, tabulated
from sphereshrink.special_integrals import (
    gegenbauer_identity,
    kernel_mass_identity,
    min_power_identity,
)


# --- angular integral with quadratic weight ---------------------------

def _geg_oracle(alpha, a):
    fn = lambda phi: (1 + 2 * a * math.cos(phi) + a * a) ** (-alpha) * math.sin(phi) ** (2 * alpha)
    val, err = sp_integrate.quad(fn, 0.0, math.pi, limit=200)
    assert err < 5e-9 * max(1.0, abs(val))  # quad's bound is conservative
    return val


def test_gegenbauer_trivial_point():
    # alpha = 1/2, a = 0: plain int sin = 2
    chk = gegenbauer_identity(0.5, 0.0)
    assert chk.rhs == pytest.approx(2.0, rel=1e-14)
    assert chk.rel_error < 1e-10


def test_gegenbauer_frozen_values():
    # B(alpha + 1/2, 1/2) hand-reduced through the gamma recursion
    frozen = {
        1.0: 0.5 * math.pi,
        1.5: 4.0 / 3.0,
        2.5: 16.0 / 15.0,
        4.0: 0.2734375 * math.pi,
    }
    for alpha, val in frozen.items():
        chk = gegenbauer_identity(alpha, 0.9)
        assert chk.rhs == pytest.approx(val, rel=1e-14)
        assert chk.rel_error < 1e-8


def test_gegenbauer_scipy_route():
    chk = gegenbauer_identity(2.5, 0.7)
    assert chk.lhs == pytest.approx(_geg_oracle(2.5, 0.7), rel=1e-9)


def test_gegenbauer_grid_a_independent():
    # The full sweep must clear 1e-8 everywhere and stay cheap.
    alphas = [0.5, 1.0, 1.5, 2.5, 4.0]
    mixes = [-0.9, -0.5, 0.0, 0.5, 0.9]
    start = time.perf_counter()
    for alpha in alphas:
        vals = []
        for a in mixes:
            chk = gegenbauer_identity(alpha, a)
            assert chk.rel_error < 1e-8, (alpha, a, chk.rel_error)
            vals.append(chk.lhs)
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 1e-8, (alpha, spread)
    assert time.perf_counter() - start < 2.0


def test_gegenbauer_checks_start_from_the_endpoint_ladders(monkeypatch, tmp_path):
    # rounds of the adaptive loop (one _gauss_pair call each): the hints
    # 0 and pi start each row from the ratio-2 ladders toward both ends;
    # from the one piece [0, pi] the CLI's 25 checks took 133 rounds and
    # gegenbauer_identity(20, +-0.99) 11 each
    rounds, real = [0], numerics._gauss_pair

    def counted(f, lo, hi):
        rounds[-1] += 1
        return real(f, lo, hi)

    monkeypatch.setattr(numerics, "_gauss_pair", counted)
    assert cli.main(["verify", "--identity", "gegenbauer", "--strict", "--out", str(tmp_path / "g.csv")]) == cli.EXIT_OK
    assert rounds[-1] <= 40
    for a in (0.99, -0.99):
        rounds.append(0)
        assert gegenbauer_identity(20.0, a).rel_error <= 1e-13
        assert rounds[-1] <= 6, (a, rounds[-1])


def test_gegenbauer_domain():
    with pytest.raises(ValueError):
        gegenbauer_identity(-0.5, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_identity(1.0, 0.995)
    with pytest.raises(ValueError):
        gegenbauer_identity(1.0, -1.2)


# --- angular power integral -------------------------------------------

def test_min_power_trivial_points():
    chk = min_power_identity(3, 2.0)
    assert chk.rhs == pytest.approx(1.0, rel=1e-14)
    assert chk.rel_error < 1e-7

    chk = min_power_identity(4, 0.5)
    assert chk.rhs == pytest.approx(0.5 * math.pi, rel=1e-14)
    assert chk.rel_error < 1e-7


def test_min_power_small_t_limit():
    # t -> 0+ leaves the bare beta value
    chk = min_power_identity(5, 1e-8)
    assert chk.rhs == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert chk.rel_error < 1e-7


@pytest.mark.parametrize("p", [3, 4, 5, 8])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
def test_min_power_grid(p, t):
    assert min_power_identity(p, t).rel_error < 1e-7


@pytest.mark.parametrize("p", [3, 4, 5, 8])
def test_min_power_at_kink(p):
    # both branches meet at t = 1; the integrand only kinks there
    assert min_power_identity(p, 1.0).rel_error < 1e-5


def test_min_power_continuity_across_one():
    for p in (3, 5, 8):
        mid = min_power_identity(p, 1.0).lhs
        lo = min_power_identity(p, 1.0 - 1e-6).lhs
        hi = min_power_identity(p, 1.0 + 1e-6).lhs
        assert abs(lo - mid) < 1e-5 * mid
        assert abs(hi - mid) < 1e-5 * mid


def test_min_power_scipy_route_at_kink():
    p = 5
    fn = lambda phi: (2 + 2 * math.cos(phi)) ** (1 - 0.5 * p) * math.sin(phi) ** (p - 2)
    val, err = sp_integrate.quad(fn, 0.0, math.pi, points=[math.pi], limit=200)
    assert err < 1e-8 * val
    assert min_power_identity(p, 1.0).lhs == pytest.approx(val, rel=1e-6)


@pytest.mark.parametrize("p", [3, 5, 8])
@pytest.mark.parametrize("t", [1e-3, 0.999, 1.0, 50.0])
def test_min_power_is_tight_with_its_layer_hinted(p, t):
    # the hint pi starts the row from the ladder toward the layer there;
    # from the one piece [0, pi], (8, 50) passed its first round 1.2e-12 off
    assert min_power_identity(p, t).rel_error <= 1e-14


def test_min_power_domain():
    with pytest.raises(ValueError):
        min_power_identity(2, 1.0)
    with pytest.raises(ValueError):
        min_power_identity(4, 0.0)


# --- tail-kernel mass vs density moment -------------------------------

def test_kernel_mass_gaussian_unit():
    # order 0 reduces to E||X||^2 / p = 1 for the standard gaussian
    chk = kernel_mass_identity(gaussian(3), 0.0)
    assert chk.rhs == pytest.approx(1.0, rel=1e-12)
    assert chk.rel_error < 1e-8


def test_kernel_mass_gaussian_odd_weight():
    # moment(3)/(p+1) = 2 sqrt(2/pi) at p = 3
    chk = kernel_mass_identity(gaussian(3), 1.0)
    assert chk.rhs == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert chk.rel_error < 1e-8


def test_kernel_mass_poly_exp_closed_form():
    # poly_exp(2, 1) at p = 5, order 2: Gamma(5.5)/Gamma(3.5)/7 = 2.25
    chk = kernel_mass_identity(poly_exp(2.0, 1.0, 5), 2.0)
    assert chk.rhs == pytest.approx(2.25, rel=1e-12)
    assert chk.rel_error < 1e-8


def test_kernel_mass_mixture():
    chk = kernel_mass_identity(mixture_diff(0.5, 0.5, 4), 0.0)
    assert chk.rel_error < 1e-8


def test_kernel_mass_tabulated():
    p = 3
    r = np.geomspace(0.05, 500.0, 240)
    f = np.exp(-0.5 * r**2) + 1e-12 * r ** (-p - 6.0)
    chk = kernel_mass_identity(tabulated(r, f, p), 0.0)
    assert chk.rel_error < 5e-6  # interp-limited, both routes independent of each other


def test_kernel_mass_tail_of_a_table_starts_from_a_ladder(monkeypatch):
    # the power tail of a (1+r^2)^-4 table, split at its knots out to
    # r = 100, starts from the ratio-4 ladder as well: from the one piece
    # [0, 1] its batch took 73 rounds (one _gauss_pair call each)
    r = np.geomspace(0.01, 100.0, 300)
    model = tabulated(r, (1.0 + r**2) ** -4, 5)
    model.moment(2.0)
    rounds, real = [0], numerics._gauss_pair

    def counted(f, lo, hi):
        rounds[0] += 1
        return real(f, lo, hi)

    monkeypatch.setattr(numerics, "_gauss_pair", counted)
    chk = kernel_mass_identity(model, 0.0)
    assert chk.rel_error < 1e-11
    assert rounds[0] <= 45


def test_kernel_mass_divergent_moment_propagates():
    p = 3
    r = np.geomspace(0.1, 1000.0, 200)
    m = tabulated(r, r ** (-p - 2.5), p)  # moments blow up from order 2.5 on
    with pytest.raises(DivergentMoment):
        kernel_mass_identity(m, 1.0)


def test_kernel_mass_domain():
    with pytest.raises(ValueError):
        kernel_mass_identity(gaussian(3), -3.0)
