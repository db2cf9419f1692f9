"""Quadrature kernel and special-function checks.

Oracle values here are independent closed forms (antiderivatives worked
by hand) or scipy.integrate.quad, never the integrator under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from sphereshrink import numerics
from sphereshrink.numerics import (
    DivergenceSuspected,
    NonFiniteIntegrand,
    QuadratureSpec,
    ToleranceNotReached,
    beta_fn,
    integrate,
    integrate_semi_infinite,
    log_gamma,
    sphere_surface,
    upper_incomplete_gamma,
)


def test_unit_constant():
    res = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error_estimate <= 1e-12
    assert res.evaluations > 0


def test_polynomial_exactness_high_degree():
    # The 15-point Kronrod rule is exact through degree 23; x^23 on
    # [0, 1] must come out right however the integrator adapts.
    res = integrate(lambda x: x**numerics.EXACT_DEGREE, 0.0, 1.0)
    assert abs(res.value - 1.0 / (numerics.EXACT_DEGREE + 1)) < 1e-14


# One segment, no bisection: an absolute tolerance of 1 accepts any first estimate.
_ONE_SEGMENT = QuadratureSpec(abs_tol=1.0)


def test_kronrod_rule_is_exact_through_its_degree():
    # oracle: int_0^1 x^k dx = 1/(k+1); K15 is exact through degree 22
    # (3n + 1 for the n = 7 Gauss rule it extends) and, being symmetric,
    # at the odd degree 23 too, but not at degree 24 on [-1, 1]
    for k in range(numerics.EXACT_DEGREE + 1):
        res = integrate(lambda x: x**k, 0.0, 1.0, _ONE_SEGMENT)
        assert res.evaluations == 15
        assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=0.0)
    k = numerics.EXACT_DEGREE + 1
    res = integrate(lambda x: x**k, -1.0, 1.0, _ONE_SEGMENT)
    assert abs(res.value - (1.0 - (-1.0) ** (k + 1)) / (k + 1)) > 1e-10


def test_gauss_nodes_are_the_seven_point_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(numerics._NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._WEIGHTS_G, weights, rtol=0.0, atol=1e-15)


def test_error_estimate_is_the_kronrod_gauss_gap():
    # K15 is exact for x^14 on [0, 1] and G7 is not: the estimate is
    # |1/15 - G7(x^14)|, with G7 from numpy's 7-point Legendre rule.
    # The gap is 5.7e-9, so rounding of order 1e-16 on either side
    # moves it by about 2e-8 relative.
    nodes, weights = np.polynomial.legendre.leggauss(7)
    g7 = 0.5 * np.sum(weights * (0.5 * (nodes + 1.0)) ** 14)
    res = integrate(lambda x: x**14, 0.0, 1.0, _ONE_SEGMENT)
    assert res.evaluations == 15
    assert res.error_estimate == pytest.approx(abs(1.0 / 15.0 - g7), rel=1e-6)


def test_sin_squared_over_pi():
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, math.pi)
    assert abs(res.value - math.pi / 2) <= 1e-10


def test_oscillatory_against_scipy():
    f = lambda x: np.cos(7.3 * x) * np.exp(-0.5 * x)
    oracle, _ = sp_integrate.quad(lambda x: math.cos(7.3 * x) * math.exp(-0.5 * x), 0.0, 6.0)
    res = integrate(f, 0.0, 6.0)
    assert abs(res.value - oracle) < 1e-10


def test_reversed_endpoints_flip_sign():
    fwd = integrate(lambda x: x**2, 0.0, 2.0)
    rev = integrate(lambda x: x**2, 2.0, 0.0)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-13)


def test_inverse_sqrt_endpoint_singularity():
    # Integrable endpoint singularity: nodes never touch 0, adaptivity
    # has to dig in. Antiderivative 2*sqrt(x) gives exactly 2.
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=4000)
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
    assert abs(res.value - 2.0) < 1e-8


def test_interior_kink_with_hint():
    # |x - 0.3| has a kink; hinting it gives fast clean convergence.
    spec = QuadratureSpec(singularity_hints=(0.3,))
    res = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, spec)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(res.value - exact) < 1e-13


def test_error_estimate_bound_on_success():
    res = integrate(lambda x: np.exp(x), 0.0, 1.0)
    assert res.error_estimate <= max(1e-12, 1e-10 * abs(res.value))


def test_tolerance_not_reached_raises():
    # An endpoint singularity cannot be resolved in 3 subdivisions.
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(ToleranceNotReached) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
    assert excinfo.value.result.evaluations > 0
    assert excinfo.value.worst_segment is not None


def test_non_finite_integrand_rejected():
    def bad(x):
        y = np.ones_like(x)
        y[x > 0.4] = np.inf
        return y

    with pytest.raises(NonFiniteIntegrand):
        integrate(bad, 0.0, 1.0)


def test_semi_infinite_gaussian_tail():
    # int_0^inf exp(-r^2/2) dr = sqrt(pi/2)
    res = integrate_semi_infinite(lambda r: np.exp(-0.5 * r**2), 0.0, decay="exp", scale=1.0)
    assert abs(res.value - math.sqrt(math.pi / 2)) < 1e-12


def test_semi_infinite_gamma_integrand():
    # int_0^inf r^2 exp(-r) dr = Gamma(3) = 2; the contract promises
    # error <= max(abs_tol, rel_tol * |value|) = 2e-10 at defaults.
    res = integrate_semi_infinite(lambda r: r**2 * np.exp(-r), 0.0, decay="exp", scale=1.0)
    assert abs(res.value - 2.0) < 5e-10


def test_semi_infinite_power_decay():
    # int_1^inf r^-2.5 dr = 1/1.5
    res = integrate_semi_infinite(lambda r: r**-2.5, 1.0, decay="power", scale=1.0)
    assert abs(res.value - 1.0 / 1.5) < 1e-11


def test_semi_infinite_shifted_origin():
    # int_2^inf exp(-(r-2)) dr = 1 with a scale hint away from 1
    res = integrate_semi_infinite(lambda r: np.exp(-(r - 2.0)), 2.0, decay="exp", scale=2.0)
    assert abs(res.value - 1.0) < 1e-11


def test_semi_infinite_divergence_flagged():
    spec = QuadratureSpec(max_subdivisions=200)
    with pytest.raises(DivergenceSuspected):
        integrate_semi_infinite(lambda r: 1.0 / (1.0 + r), 0.0, spec, decay="power", scale=1.0)


def test_cumulative_segments_sum_matches_direct():
    knots = np.linspace(0.0, 3.0, 7)
    pieces = numerics.cumulative_segments(lambda x: np.exp(-x), knots)
    direct = integrate(lambda x: np.exp(-x), 0.0, 3.0)
    assert pieces.shape == (6,)
    assert abs(pieces.sum() - direct.value) < 1e-12
    assert np.all(pieces > 0)


def test_cumulative_segments_split_at_hints_inside_each_piece():
    # oracle: int |x - 1.3| over [0, 1], [1, 2], [2, 3] = 0.8, 0.29, 1.2;
    # unsplit, the kink at 1.3 needs more than two bisections
    kink = lambda x: np.abs(x - 1.3)
    knots = [0.0, 1.0, 2.0, 3.0]
    spec = QuadratureSpec(max_subdivisions=2, singularity_hints=(7.0, 1.3))
    pieces = numerics.cumulative_segments(kink, knots, spec)
    assert pieces == pytest.approx([0.8, 0.29, 1.2], rel=1e-14)
    with pytest.raises(ToleranceNotReached):
        numerics.cumulative_segments(kink, knots, replace(spec, singularity_hints=()))


def test_integrate_pieces_in_one_pass_and_raises_on_a_miss():
    # oracle: the antiderivative -exp(-x); sqrt is not smooth at 0, so
    # one K15/G7 pass over [0, 1] cannot reach the default tolerance
    edges = np.linspace(0.0, 3.0, 7)
    pieces = numerics.integrate_pieces(lambda x: np.exp(-x), edges[:-1], edges[1:])
    assert np.allclose(pieces, np.exp(-edges[:-1]) - np.exp(-edges[1:]), rtol=1e-14, atol=0.0)
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_pieces(np.sqrt, np.array([1.0, 0.0]), np.array([2.0, 1.0]))
    assert exc.value.worst_segment == (0.0, 1.0)


# --- integrate_rows ----------------------------------------------------

# Row i integrates x^a[i] + cos(3 (i + 1) x) over its own initial pieces;
# a < 0 is an integrable endpoint singularity that takes many splits.
_ROOT2 = math.sqrt(2.0)
_POWERS = np.array([-0.5, 1.5, -0.25, 3.0])
_ROW_EDGES = np.array([
    [0.0, 0.1, 0.8, _ROOT2, _ROOT2],
    [0.0, _ROOT2, _ROOT2, _ROOT2, _ROOT2],
    [0.0, 1e-3, 8e-3, 0.064, _ROOT2],
    [0.0, 0.5, 0.5, 1.0, _ROOT2],
])


def _power_rows(row, x):
    return x ** _POWERS[row] + np.cos(3.0 * (row + 1) * x)


def test_integrate_rows_matches_integrate_row_by_row():
    spec = QuadratureSpec(abs_tol=1e-280, rel_tol=5e-11, max_subdivisions=160)
    values = numerics.integrate_rows(_power_rows, _ROW_EDGES, spec.abs_tol, spec)
    for i, edges in enumerate(_ROW_EDGES):
        exact = _ROOT2 ** (_POWERS[i] + 1.0) / (_POWERS[i] + 1.0) + math.sin(3.0 * (i + 1) * _ROOT2) / (3.0 * (i + 1))
        hinted = replace(spec, singularity_hints=tuple(edges[1:-1]))
        scalar = integrate(lambda x: _power_rows(np.full(x.shape, i), x), 0.0, _ROOT2, hinted).value
        assert values[i] == pytest.approx(scalar, rel=1e-10)
        assert values[i] == pytest.approx(exact, rel=1e-10)


def test_integrate_is_the_one_row_case_of_integrate_rows():
    # the same loop: bitwise equal values, with the hints inside [a, b]
    # as the row's interior edges (outside or repeated hints drop out),
    # and a sign flip for reversed bounds
    f = lambda x: np.sqrt(np.abs(x - 0.3)) * np.cos(2.0 * x) + np.abs(x - 1.7)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, singularity_hints=(1.7, 0.3, 5.0, 0.3))
    row = numerics.integrate_rows(lambda row, x: f(x), [[0.0, 0.3, 1.7, 2.0]], spec.abs_tol, spec)[0]
    assert integrate(f, 0.0, 2.0, spec).value == row
    assert integrate(f, 2.0, 0.0, spec).value == -row
    plain = numerics.integrate_rows(lambda row, x: np.exp(-x * x), [[0.0, 8.0]], 1e-12)[0]
    assert integrate(lambda x: np.exp(-x * x), 0.0, 8.0).value == plain
    assert integrate(lambda x: np.exp(-x * x), 8.0, 0.0).value == -plain


def test_integrate_rows_value_does_not_depend_on_the_batch():
    rounds = []

    def sorted_rows(row, x):
        rounds.append(row)
        return _power_rows(row, x)

    together = numerics.integrate_rows(sorted_rows, _ROW_EDGES, 1e-280)
    # each round hands f its rows in nondecreasing order
    assert len(rounds) > 1 and all(np.all(np.diff(row) >= 0) for row in rounds)
    for i in range(_ROW_EDGES.shape[0]):
        alone = numerics.integrate_rows(lambda row, x: _power_rows(row + i, x), _ROW_EDGES[i : i + 1], 1e-280)
        assert alone[0] == together[i]  # bitwise


def test_integrate_rows_zero_width_pieces_contribute_nothing():
    edges = np.array([[0.0, 1.0, 1.0, 1.0, 2.0], [3.0, 3.0, 3.0, 3.0, 3.0]])
    calls = []

    def f(row, x):
        calls.append(x.copy())
        return np.where(row == 0, np.exp(-x), np.nan)  # row 1 is never evaluated

    values = numerics.integrate_rows(f, edges, 1e-14)
    assert values[0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13)
    assert values[1] == 0.0
    assert all(np.all((x > 0.0) & (x < 2.0)) for x in calls)


def test_integrate_rows_splits_at_hints_as_integrate_does():
    # oracle: int_0^3 |x - 1.3| dx = (1.3^2 + 1.7^2) / 2 = 2.29; unsplit,
    # the kink at 1.3 needs more than two bisections.  Hints outside a
    # row (4.0, and 1.3 for the second row) are clipped to its span.
    kink = lambda x: np.abs(x - 1.3)
    spec = QuadratureSpec(max_subdivisions=2, singularity_hints=(4.0, 1.3))
    values = numerics.integrate_rows(lambda row, x: kink(x), [[0.0, 3.0], [2.0, 3.0]], spec.abs_tol, spec)
    assert values[0] == integrate(kink, 0.0, 3.0, spec).value
    assert values[0] == pytest.approx(2.29, rel=1e-14)
    assert values[1] == pytest.approx(1.2, rel=1e-14)
    with pytest.raises(ToleranceNotReached):
        numerics.integrate_rows(lambda row, x: kink(x), [[0.0, 3.0]], spec.abs_tol, replace(spec, singularity_hints=()))


def test_integrate_rows_raises_when_a_row_runs_over_budget():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_rows(lambda row, x: np.where(row == 0, 1.0, 1.0 / np.sqrt(x)), edges, spec.abs_tol, spec)
    assert exc.value.worst_segment[0] == 0.0
    assert exc.value.row == 1
    assert "row 1" in str(exc.value)


def test_integrate_rows_nan_edges_pad_a_shorter_row():
    # a padded row is the row alone, bitwise, and so is its wider neighbour
    f = lambda row, x: np.exp(-x) * (row + 1.0) + np.sqrt(x)
    edges = np.array([[0.0, 0.3, 2.0], [0.0, 2.0, math.nan]])
    together = numerics.integrate_rows(f, edges, 1e-280)
    assert together[0] == numerics.integrate_rows(f, edges[:1], 1e-280)[0]
    assert together[1] == numerics.integrate_rows(lambda row, x: f(row + 1, x), [[0.0, 2.0]], 1e-280)[0]
    assert together[1] == pytest.approx(2.0 * (1.0 - math.exp(-2.0)) + 2.0 / 3.0 * 2.0**1.5, rel=1e-9)
    for bad in ([[math.nan, 0.0, 1.0]], [[0.0, math.nan, 1.0]], [[0.0, math.nan, math.nan]]):
        with pytest.raises(ValueError):
            numerics.integrate_rows(f, bad, 1e-12)


def test_integrate_rows_flags_a_tail_row_parked_at_infinity():
    # row 1 is 1/(1+r) on [0, inf) under the power map: 1/(1-t) on [0, 1),
    # which diverges and keeps its worst segment against t = 1 until the
    # budget runs out
    tail = numerics.TailMap(0.0, "power", 1.0)

    def f(row, t):
        r, om = tail.radius(t)
        return np.where(row == 0, np.exp(-t), tail.weigh(1.0 / (1.0 + r), om))

    spec = QuadratureSpec(max_subdivisions=20)
    edges = [[0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(DivergenceSuspected):
        numerics.integrate_rows(f, edges, spec.abs_tol, spec, tails=[False, True])
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_rows(f, edges, spec.abs_tol, spec)
    assert exc.value.row == 1 and tail.diverged(exc.value.worst_segment)
    with pytest.raises(DivergenceSuspected):
        tail.probe(f(np.ones(3, dtype=int), tail.probe_nodes))


def test_integrate_rows_rejects_a_non_finite_value():
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteIntegrand):
        numerics.integrate_rows(lambda row, x: np.where((row == 1) & (x > 0.4), np.inf, 1.0), edges, 1e-14)


# --- special functions -------------------------------------------------

def test_log_gamma_factorial():
    assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)


def test_beta_function_values():
    assert beta_fn(1.0, 0.5) == pytest.approx(2.0, rel=1e-13)
    # B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) cross-check at a generic point
    a, b = 2.3, 4.1
    oracle = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    assert beta_fn(a, b) == pytest.approx(oracle, rel=1e-13)


def test_upper_incomplete_gamma_exponential_case():
    # Gamma(1, x) = exp(-x)
    for x in (0.0, 0.5, 3.0, 100.0, 300.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_upper_incomplete_gamma_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s exp(-x)
    s, x = 2.7, 1.9
    lhs = upper_incomplete_gamma(s + 1.0, x)
    rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_upper_incomplete_gamma_vectorized():
    x = np.array([0.1, 1.0, 10.0])
    out = upper_incomplete_gamma(2.0, x)
    expect = (x + 1.0) * np.exp(-x)  # Gamma(2, x) = (x+1) e^-x
    assert np.allclose(out, expect, rtol=1e-12)


def test_sphere_surface_low_dimensions():
    assert sphere_surface(2.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface(3.0) == pytest.approx(4 * math.pi, rel=1e-14)
    # c_4 = 2 pi^2
    assert sphere_surface(4.0) == pytest.approx(2 * math.pi**2, rel=1e-14)
