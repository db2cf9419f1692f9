"""Quadrature kernel and special-function checks.

Oracle values here are independent closed forms (antiderivatives worked
by hand) or scipy.integrate.quad, never the integrator under test.
"""

import math
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.interpolate import PchipInterpolator

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
from sphereshrink.radial_models import tabulated


def test_unit_constant():
    res = integrate(lambda x: np.ones_like(x), [0.0, 1.0])
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error_estimate <= 1e-12
    assert res.evaluations > 0


def test_polynomial_exactness_high_degree():
    # The 15-point Kronrod rule is exact through degree 23; x^23 on
    # [0, 1] must come out right however the integrator adapts.
    res = integrate(lambda x: x**numerics.EXACT_DEGREE, [0.0, 1.0])
    assert abs(res.value - 1.0 / (numerics.EXACT_DEGREE + 1)) < 1e-14


# One segment, no bisection: an absolute tolerance of 1 accepts any first estimate.
_ONE_SEGMENT = QuadratureSpec(abs_tol=1.0)


def test_kronrod_rule_is_exact_through_its_degree():
    # oracle: int_0^1 x^k dx = 1/(k+1); K15 is exact through degree 22
    # (3n + 1 for the n = 7 Gauss rule it extends) and, being symmetric,
    # at the odd degree 23 too, but not at degree 24 on [-1, 1]
    for k in range(numerics.EXACT_DEGREE + 1):
        res = integrate(lambda x: x**k, [0.0, 1.0], _ONE_SEGMENT)
        assert res.evaluations == 15
        assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=0.0)
    k = numerics.EXACT_DEGREE + 1
    res = integrate(lambda x: x**k, [-1.0, 1.0], _ONE_SEGMENT)
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
    res = integrate(lambda x: x**14, [0.0, 1.0], _ONE_SEGMENT)
    assert res.evaluations == 15
    assert res.error_estimate == pytest.approx(abs(1.0 / 15.0 - g7), rel=1e-6)


def test_sin_squared_over_pi():
    res = integrate(lambda x: np.sin(x) ** 2, [0.0, math.pi])
    assert abs(res.value - math.pi / 2) <= 1e-10


def test_oscillatory_against_scipy():
    f = lambda x: np.cos(7.3 * x) * np.exp(-0.5 * x)
    oracle, _ = sp_integrate.quad(lambda x: math.cos(7.3 * x) * math.exp(-0.5 * x), 0.0, 6.0)
    res = integrate(f, [0.0, 6.0])
    assert abs(res.value - oracle) < 1e-10


def test_inverse_sqrt_endpoint_singularity():
    # Integrable endpoint singularity: nodes never touch 0, adaptivity
    # has to dig in. Antiderivative 2*sqrt(x) gives exactly 2.
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=4000)
    res = integrate(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0], spec)
    assert abs(res.value - 2.0) < 1e-8


def test_interior_kink_as_an_edge():
    # |x - 0.3| has a kink; an edge there gives fast clean convergence.
    res = integrate(lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0])
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(res.value - exact) < 1e-13


def test_error_estimate_bound_on_success():
    res = integrate(lambda x: np.exp(x), [0.0, 1.0])
    assert res.error_estimate <= max(1e-12, 1e-10 * abs(res.value))


def test_tolerance_not_reached_raises():
    # An endpoint singularity cannot be resolved in 3 subdivisions.
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(ToleranceNotReached) as excinfo:
        integrate(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0], spec)
    assert excinfo.value.result.evaluations > 0
    assert excinfo.value.worst_segment is not None


def test_non_finite_integrand_rejected():
    def bad(x):
        y = np.ones_like(x)
        y[x > 0.4] = np.inf
        return y

    with pytest.raises(NonFiniteIntegrand):
        integrate(bad, [0.0, 1.0])


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


def test_semi_infinite_too_light_a_decay_class_raises_instead_of_passing():
    # (1+r)^-3 under the exp map is ~ e^{2v} in v = -log(1-t): its tail
    # segments bisect down to floating-point resolution next to t = 1,
    # where the 1e-150 floor makes the Jacobian huge.  Such a segment
    # cannot be bisected, so it must not pass on an error estimate of 0
    # (it used to return 2.67e126 for the true 0.5).
    with pytest.raises(DivergenceSuspected):
        integrate_semi_infinite(lambda r: (1.0 + r) ** -3, 0.0, decay="exp")
    # declared correctly, the same integrand converges
    assert integrate_semi_infinite(lambda r: (1.0 + r) ** -3, 0.0, decay="power").value == pytest.approx(0.5, rel=1e-10)


def test_integrate_rows_fails_a_row_stuck_at_floating_point_resolution():
    # a segment one ulp wide cannot be bisected: it counts its |value|
    # as error, so its row runs over budget instead of passing
    lo = 1.0
    hi = math.nextafter(lo, 2.0)
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_rows(lambda row, x: np.full(x.shape, 1e300), [[lo, hi]], 1e-280,
                                QuadratureSpec(max_subdivisions=5))
    assert exc.value.row == 0


def test_semi_infinite_slow_but_convergent_tail_is_not_called_divergent():
    # (1+r)^-2.2 under the power map is (1-t)^0.2 in t: integrable, and
    # after one bisection its worst segment is the ladder piece
    # [1 - 4^-1, 1 - 4^-2], far from t = 1
    with pytest.raises(ToleranceNotReached, match="^integrand tail needed more than 1 subdivisions") as exc:
        integrate_semi_infinite(lambda r: (1.0 + r) ** -2.2, 0.0, QuadratureSpec(max_subdivisions=1), decay="power")
    assert exc.value.worst_segment == (0.75, 0.9375)
    # (1+r)^-1.5 is (1-t)^-0.5 in t: the last ladder piece [1 - 4^-10, 1]
    # is worst from the start and bisects toward t = 1, but five
    # bisections into a starting piece that already begins against
    # t = 1 are not yet the ten that call it divergent
    f = lambda r: (1.0 + r) ** -1.5
    with pytest.raises(ToleranceNotReached, match="^integrand tail needed more than 5 subdivisions") as exc:
        integrate_semi_infinite(f, 0.0, QuadratureSpec(max_subdivisions=5), decay="power")
    assert exc.value.worst_segment == (1.0 - 2.0**-25, 1.0)
    with pytest.raises(DivergenceSuspected, match="^integrand tail needed more than 10 subdivisions"):
        integrate_semi_infinite(f, 0.0, QuadratureSpec(max_subdivisions=10), decay="power")


def test_cumulative_segments_sum_matches_direct():
    knots = np.linspace(0.0, 3.0, 7)
    pieces = numerics.cumulative_segments(lambda x: np.exp(-x), knots)
    direct = integrate(lambda x: np.exp(-x), [0.0, 3.0])
    assert pieces.shape == (6,)
    assert abs(pieces.sum() - direct.value) < 1e-12
    assert np.all(pieces > 0)


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
        scalar = integrate(lambda x: _power_rows(np.full(x.shape, i), x), edges, spec).value
        assert values[i] == pytest.approx(scalar, rel=1e-10)
        assert values[i] == pytest.approx(exact, rel=1e-10)


def test_integrate_is_the_one_row_case_of_integrate_rows():
    # the same loop: bitwise equal values over the same edges, a repeated
    # one an empty piece that drops out
    f = lambda x: np.sqrt(np.abs(x - 0.3)) * np.cos(2.0 * x) + np.abs(x - 1.7)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
    row = numerics.integrate_rows(lambda row, x: f(x), [[0.0, 0.3, 1.7, 2.0]], spec.abs_tol, spec)[0]
    assert integrate(f, [0.0, 0.3, 1.7, 2.0], spec).value == row
    assert integrate(f, [0.0, 0.3, 0.3, 1.7, 2.0, 2.0], spec).value == row
    plain = numerics.integrate_rows(lambda row, x: np.exp(-x * x), [[0.0, 8.0]], 1e-12)[0]
    assert integrate(lambda x: np.exp(-x * x), [0.0, 8.0]).value == plain


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
    edges = np.array([[0.0, 1.0, 1.0, 1.0, 2.0]])
    calls = []

    def f(row, x):
        calls.append(x.copy())
        return np.exp(-x)

    values = numerics.integrate_rows(f, edges, 1e-14)
    assert values[0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13)
    assert all(np.all((x > 0.0) & (x < 2.0)) for x in calls)


def test_integrate_rows_refuses_a_zero_span_row():
    f = lambda row, x: np.exp(-x)
    for edges in ([[0.0, 1.0, 2.0], [3.0, 3.0, 3.0]], [[3.0, 3.0]]):
        with pytest.raises(ValueError, match="zero span"):
            numerics.integrate_rows(f, edges, 1e-14)


# A row that ends with more than 8 segments: numpy sums a longer run by
# pairwise blocks of 8, so a trailing empty piece kept in the run would
# move its value in the last bits.
_WIGGLE = lambda row, x: np.cos(7.0 * x + row) * np.sqrt(x + 0.1)
_TEN_PIECES = np.linspace(0.0, 3.0, 11)


def test_integrate_rows_padded_row_equals_its_unpadded_self():
    padded = np.concatenate([_TEN_PIECES, np.full(6, 3.0)])
    alone = numerics.integrate_rows(_WIGGLE, [_TEN_PIECES], 1e-280)[0]
    assert numerics.integrate_rows(_WIGGLE, [padded], 1e-280)[0] == alone  # bitwise


def test_integrate_rows_of_different_piece_counts_equal_their_one_row_calls():
    rows = [[0.0, 3.0], _TEN_PIECES[::2], _TEN_PIECES, np.linspace(0.0, 3.0, 18)]
    width = max(len(row) for row in rows)
    edges = np.array([np.concatenate([row, np.full(width - len(row), 3.0)]) for row in rows])
    together = numerics.integrate_rows(_WIGGLE, edges, 1e-280)
    for i, row in enumerate(rows):
        assert together[i] == numerics.integrate_rows(lambda r, x: _WIGGLE(r + i, x), [row], 1e-280)[0]


# Ratio-2 ladders of edges toward 0 and toward 2, down to 1/64 of [0, 2].
_TOWARD_0 = [2.0 * 2.0**-k for k in range(6, 0, -1)]
_TOWARD_2 = [2.0 - 2.0 * 2.0**-k for k in range(2, 7)]


@pytest.mark.parametrize("f, edges, evaluations", [
    (np.exp, [0.0, 1.0], 15),
    (np.sqrt, [0.0, 1.0], 525),
    (np.sqrt, [0.0, *(2.0**-k for k in range(6, 0, -1)), 1.0], 435),
    (lambda x: np.abs(x - 1.3), [0.0, 1.3, 3.0], 30),
    (lambda x: np.log(x) * np.sqrt(2.0 - x), [0.0, *_TOWARD_0, *_TOWARD_2, 2.0], 1350),
    (lambda x: np.cos(50.0 * x), [0.0, 2.0], 1665),
])
def test_integrate_evaluations_count_every_segment_once(f, edges, evaluations):
    # 15 per starting piece and 30 per bisection
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
    assert integrate(f, edges, spec).evaluations == evaluations


def test_integrate_rows_splits_at_an_interior_edge_as_integrate_does():
    # oracle: int_0^3 |x - 1.3| dx = (1.3^2 + 1.7^2) / 2 = 2.29; unsplit,
    # the kink at 1.3 needs more than two bisections
    kink = lambda x: np.abs(x - 1.3)
    spec = QuadratureSpec(max_subdivisions=2)
    values = numerics.integrate_rows(lambda row, x: kink(x), [[0.0, 1.3, 3.0], [2.0, 3.0, 3.0]], spec.abs_tol, spec)
    assert values[0] == integrate(kink, [0.0, 1.3, 3.0], spec).value
    assert values[0] == pytest.approx(2.29, rel=1e-14)
    assert values[1] == pytest.approx(1.2, rel=1e-14)
    with pytest.raises(ToleranceNotReached):
        numerics.integrate_rows(lambda row, x: kink(x), [[0.0, 3.0]], spec.abs_tol, spec)


def test_integrate_rows_raises_when_a_row_runs_over_budget():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_rows(lambda row, x: np.where(row == 0, 1.0, 1.0 / np.sqrt(x)), edges, spec.abs_tol, spec)
    assert exc.value.worst_segment[0] == 0.0
    assert exc.value.row == 1
    assert "row 1" in str(exc.value)


def test_integrate_rows_refuses_nan_and_decreasing_edges():
    # rows of one batch share the array's width; a shorter row repeats
    # its last edge, and neither NaN nor a decreasing edge is accepted
    f = lambda row, x: np.exp(-x) * (row + 1.0) + np.sqrt(x)
    edges = np.array([[0.0, 0.3, 2.0], [0.0, 2.0, 2.0]])
    together = numerics.integrate_rows(f, edges, 1e-280)
    assert together[0] == numerics.integrate_rows(f, edges[:1], 1e-280)[0]
    assert together[1] == numerics.integrate_rows(lambda row, x: f(row + 1, x), [[0.0, 2.0]], 1e-280)[0]
    assert together[1] == pytest.approx(2.0 * (1.0 - math.exp(-2.0)) + 2.0 / 3.0 * 2.0**1.5, rel=1e-9)
    for bad in ([[math.nan, 0.0, 1.0]], [[0.0, math.nan, 1.0]], [[0.0, 2.0, math.nan]], [[0.0, 2.0, 1.0]]):
        with pytest.raises(ValueError, match="nondecreasing"):
            numerics.integrate_rows(f, bad, 1e-12)


def test_integrate_rows_rejects_a_non_finite_value():
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteIntegrand):
        numerics.integrate_rows(lambda row, x: np.where((row == 1) & (x > 0.4), np.inf, 1.0), edges, 1e-14)


# --- the edge contract -------------------------------------------------

# Edges that every integrator refuses with ValueError before it calls its
# integrand.
_BAD_EDGES = {
    "nan": [0.0, math.nan, 1.0],
    "inf": [0.0, math.inf],
    "-inf": [-math.inf, 0.0],
    "decreasing": [0.0, 2.0, 1.0],
    "zero span": [1.0, 1.0, 1.0],
    "one edge": [1.0],
    "none": [],
}


@pytest.fixture
def rounds(monkeypatch):
    """The ``_gauss_pair`` calls made while a test runs."""
    made = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: made.append(1) or pair(*args))
    return made


@pytest.mark.parametrize("name", list(_BAD_EDGES))
def test_integrate_and_integrate_rows_refuse_bad_edges_before_any_integrand_call(name, rounds):
    edges = _BAD_EDGES[name]
    calls = []
    f = lambda x: calls.append(1) or np.exp(-x)
    with pytest.raises(ValueError, match="^(the integral|integrate) "):
        integrate(f, edges)
    with pytest.raises(ValueError, match="^(row 0|edges) "):
        numerics.integrate_rows(lambda row, x: f(x), [edges], 1e-12)
    if len(edges) > 1:
        # in a batch, the message names the bad row
        with pytest.raises(ValueError, match="^row 1 "):
            numerics.integrate_rows(lambda row, x: f(x), [np.linspace(0.0, 1.0, len(edges)), edges], 1e-12)
    assert calls == [] and rounds == []


def test_knots_and_a_tail_start_must_be_finite_too(rounds):
    # an integral out to infinity is a mapped tail's business, and a tail
    # starts at a finite radius
    with pytest.raises(ValueError, match="^row 1 needs finite"):
        numerics.cumulative_segments(np.exp, [0.0, 1.0, math.inf])
    with pytest.raises(ValueError, match="finite"):
        integrate_semi_infinite(np.exp, math.inf)
    assert rounds == []


@pytest.mark.parametrize("name", ["nan", "-inf", "decreasing", "zero span"])
def test_integrate_half_lines_refuses_a_bad_head_before_any_integrand_call(name, rounds):
    calls = []
    f = lambda term, r: calls.append(1) or np.exp(-r)
    head = _BAD_EDGES[name]
    with pytest.raises(ValueError, match="^term 1 head "):
        numerics.integrate_half_lines(f, [[head[-1] - 1.0, head[-1]], head])
    assert calls == [] and rounds == []


@pytest.mark.parametrize("field, value", [("abs_tol", math.nan), ("rel_tol", math.nan), ("abs_tol", 0.0),
                                          ("rel_tol", -1e-10), ("max_subdivisions", math.nan),
                                          ("max_subdivisions", 0)])
def test_a_spec_with_a_nan_or_nonpositive_tolerance_or_budget_is_refused(field, value):
    # NaN passed `<= 0` and `< 1`, and the adaptive loop then accepted its
    # first round: integrate(np.sqrt, [0, 1]) read 0.66668
    with pytest.raises(ValueError, match="tolerances must be positive|max_subdivisions must be at least 1"):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_a_tail_scale_that_is_not_positive_and_finite_is_refused_before_any_integrand_call(scale, rounds):
    # a NaN scale passed `<= 0` and raised NonFiniteIntegrand at the first node
    calls = []
    f = lambda term, r: calls.append(1) or np.exp(-r)
    with pytest.raises(ValueError, match="^scale must be positive and finite$"):
        numerics.integrate_half_lines(f, [[0.0, 1.0]], scale=scale)
    with pytest.raises(ValueError, match="^scale must be positive and finite$"):
        integrate_semi_infinite(lambda r: calls.append(1) or np.exp(-r), 0.0, scale=scale)
    assert calls == [] and rounds == []


# --- integrate_half_lines --------------------------------------------

# Term j of the batch below: e^{-r}, r^2 e^{-r/2}, a kink |r - 3| e^{-r}
# at the heads' last edge, and e^{-r}/sqrt(r), singular at 0.
_TERMS = [
    lambda r: np.exp(-r),
    lambda r: r * r * np.exp(-0.5 * r),
    lambda r: np.abs(r - 3.0) * np.exp(-r),
    lambda r: np.exp(-r) / np.sqrt(r),
]
_EXACT = [1.0, 16.0, 2.0 + 2.0 * math.exp(-3.0), math.sqrt(math.pi)]


def _terms(term, r):
    return np.concatenate([_TERMS[j](r[term == j]) for j in np.unique(term)])


@pytest.mark.parametrize("decay, scale", [("exp", 2.0), ("power", 1.0)])
def test_integrate_half_lines_term_alone_equals_term_in_a_batch(decay, scale):
    spec = QuadratureSpec(abs_tol=1e-280, rel_tol=1e-11, max_subdivisions=200)
    heads = [[0.0, 0.3, 1.0, 3.0]] * len(_TERMS)
    calls = []

    def f(term, r):
        calls.append((term, r))
        return _terms(term, r)

    together = numerics.integrate_half_lines(f, heads, spec, decay=decay, scale=scale)
    # every call gets nondecreasing terms and real radii; the first is
    # the probe's, on the tails only, and the next holds heads and tails
    assert all(np.all(np.diff(term) >= 0) and np.all(r >= 0.0) for term, r in calls)
    assert np.all(calls[0][1] > 3.0) and np.any(calls[1][1] < 3.0) and np.any(calls[1][1] > 3.0)
    assert together == pytest.approx(_EXACT, rel=1e-10)
    for j in range(len(_TERMS)):
        alone = numerics.integrate_half_lines(lambda term, r: _terms(term + j, r), heads[j : j + 1], spec,
                                              decay=decay, scale=scale)
        assert alone[0] == together[j]  # bitwise


def test_integrate_half_lines_mixes_terms_with_and_without_a_head():
    # int_0^inf e^-r = 1 and int_-1^inf e^-r = e, the head-less term
    # first or last; each term equals its one-term call
    f = lambda term, r: np.exp(-r)
    for heads, exact in (([[0.0], [-1.0, 0.0]], [1.0, math.e]), ([[-1.0, 0.0], [0.0]], [math.e, 1.0])):
        together = numerics.integrate_half_lines(f, heads)
        assert together == pytest.approx(exact, rel=1e-12)
        for j, head in enumerate(heads):
            assert together[j] == numerics.integrate_half_lines(f, [head])[0]


def test_integrate_semi_infinite_is_the_no_head_case_of_integrate_half_lines():
    f = lambda r: np.abs(r - 3.0) * np.exp(-r)
    res = integrate_semi_infinite(f, 1.0)
    assert res.value == numerics.integrate_half_lines(lambda term, r: f(r), [[1.0]])[0]
    assert res.value == pytest.approx(2.0 * math.exp(-3.0) + math.exp(-1.0), rel=1e-10)


def test_integrate_half_lines_splits_a_kinked_head_at_its_edges():
    # r^4 f(r) on a (1+r^2)^-4 table with knots out to 60: its PCHIP is
    # kinked at every knot, so the head runs over the knots and the tail,
    # a power law, starts at the last one
    knots = np.geomspace(0.01, 60.0, 120)
    model = tabulated(knots, (1.0 + knots**2) ** -4.0, 5)
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=100)
    mass = lambda term, r: r**4 * model.density(r)
    total = numerics.integrate_half_lines(mass, [[0.0, *model.knots]], spec, decay="power", scale=60.0)[0]
    assert total * sphere_surface(5) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ToleranceNotReached, match="^term 0 head needed more than 100 subdivisions"):
        numerics.integrate_half_lines(mass, [[0.0, 60.0]], spec, decay="power", scale=60.0)


def test_integrate_half_lines_flags_a_tail_parked_at_infinity():
    # term 1 is 1/((1+r) log(e+r)) on [0, inf) under the power map: its
    # boundary weights fall like 1/log r, so the probe lets it through,
    # but it diverges like log log r and keeps its worst segment against
    # t = 1 until the budget runs out
    slow = lambda r: 1.0 / ((1.0 + r) * np.log(math.e + r))
    f = lambda term, r: np.where(term == 0, np.exp(-r), slow(r))
    spec = QuadratureSpec(max_subdivisions=20)
    with pytest.raises(DivergenceSuspected, match=r"^slow tail needed more than 20 subdivisions"):
        numerics.integrate_half_lines(f, [[0.0], [0.0]], spec, decay="power", names=["exp", "slow"])
    # integrate_rows judges no divergence: the same two mapped rows, each
    # from the tail's starting edges, raise ToleranceNotReached, with the
    # worst segment parked at t = 1
    tail = numerics.TailMap(0.0, "power", 1.0)

    def mapped(row, t):
        r, om = tail.radius(t)
        return tail.weigh(f(row, r), om)

    with pytest.raises(ToleranceNotReached) as exc:
        numerics.integrate_rows(mapped, [tail.edges, tail.edges], spec.abs_tol, spec)
    assert exc.value.row == 1 and tail.diverged(exc.value.worst_segment)
    # the ladder's own last piece starts against t = 1 but is no verdict
    assert not tail.diverged((tail.edges[-2], 1.0))
    # nor is a head: 1/sqrt(1 - r) on [0, 1] parks its worst segment at
    # r = 1 too
    head = lambda term, r: np.where(r < 1.0, 1.0 / np.sqrt(np.abs(1.0 - r)), 0.0)
    with pytest.raises(ToleranceNotReached, match="^term 0 head needed more than 20 subdivisions") as exc:
        numerics.integrate_half_lines(head, [[0.0, 1.0]], spec, decay="power")
    assert exc.value.row == 0 and exc.value.worst_segment[0] >= 0.999


def test_a_nested_batch_over_budget_passes_through_unjudged():
    # the integrand's own integrate_rows batch runs out of budget on the
    # slow tail above, its worst segment parked at t = 1: only the outer
    # batch's own exhaustion is judged for divergence
    slow = lambda r: 1.0 / ((1.0 + r) * np.log(math.e + r))
    spec = QuadratureSpec(max_subdivisions=20)
    tail = numerics.TailMap(0.0, "power", 1.0)

    def mapped(row, t):
        r, om = tail.radius(t)
        return tail.weigh(slow(r), om)

    calls = []

    def f(term, r):
        calls.append(1)
        if len(calls) > 1:  # past the probe, inside the outer loop
            numerics.integrate_rows(mapped, [tail.edges], spec.abs_tol, spec)
        return np.exp(-r)

    with pytest.raises(ToleranceNotReached, match="^row 0 needed more than 20 subdivisions") as exc:
        numerics.integrate_half_lines(f, [[0.0]], spec, decay="power")
    assert len(calls) == 2 and exc.value.row == 0 and tail.diverged(exc.value.worst_segment)


def test_integrate_half_lines_probe_refusal_names_the_term():
    # 1/(1+r) under the power map is 1/(1-t): its boundary weights stay at 1
    f = lambda term, r: np.where(term == 0, np.exp(-r), 1.0 / (1.0 + r))
    calls = []

    def counted(term, r):
        calls.append(term)
        return f(term, r)

    with pytest.raises(DivergenceSuspected, match=r"^harmonic tail does not look integrable"):
        numerics.integrate_half_lines(counted, [[0.0, 1.0], [0.0, 1.0]], decay="power", names=["exp", "harmonic"])
    # one call, the probe's, on both tails' three nodes
    assert len(calls) == 1 and calls[0].tolist() == [0, 0, 0, 1, 1, 1]
    with pytest.raises(DivergenceSuspected, match=r"^term 1 tail does not look integrable"):
        numerics.integrate_half_lines(f, [[0.0], [0.0]], decay="power")


def test_integrate_half_lines_names_the_term_whose_values_are_not_finite():
    # term 1 is inf on (0.4, 0.6), in its head; term 2 raises from a nested
    # integral, as the oracle's angular rows do, beyond r = 3, in its tail
    def nested(r):
        if np.count_nonzero(r > 3.0):
            raise NonFiniteIntegrand("integrand is not finite at x=0.5")
        return np.exp(-r)

    def f(term, r):
        y = np.exp(-r)
        y[term == 1] = np.where(np.abs(r[term == 1] - 0.5) < 0.1, np.inf, 1.0) * y[term == 1]
        y[term == 2] = nested(r[term == 2])
        return y

    names = ["zero", "one", "two"]
    with pytest.raises(NonFiniteIntegrand, match=r"^one head: integrand is not finite at x="):
        numerics.integrate_half_lines(f, [[0.0, 1.0]] * 2, names=names[:2])
    with pytest.raises(NonFiniteIntegrand, match=r"^two tail: integrand is not finite at x=0\.5"):
        numerics.integrate_half_lines(f, [[0.0, 1.0]] * 3, names=names)


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


def test_gated_table_bisects_where_its_gate_misses_and_raises_past_its_rounds():
    # x^1.5 from five knots misses near 0 at first, and the gate bisects
    # there until every midpoint holds; 1/log(2/x) closes on 0 too slowly
    # for any cubic, and the gate raises after its rounds
    x = np.linspace(0.0, 1.0, 5)
    refined = []

    def gate(f, tol):
        def refine(new):
            refined.append(new.size)
            return (f(new),)

        return numerics.gated_table(x, (f(x),), PchipInterpolator, lambda u: 1.0 * u,
                                    lambda table, mids: np.abs(table(mids) - f(mids)), tol, ValueError, "f", refine)

    smooth = lambda u: u**1.5
    table = gate(smooth, 1e-4)
    assert 0 < len(refined) < numerics._REFINE_ROUNDS
    u = np.random.default_rng(6).random(1000)
    assert np.max(np.abs(table(u) - smooth(u))) <= 1e-3  # the gate holds at midpoints only
    refined.clear()
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="^f by .* at an interval midpoint$"):
            gate(lambda u: 1.0 / np.log(2.0 / u), 1e-5)
    assert len(refined) == numerics._REFINE_ROUNDS


def _weight_table(phi, dphi, lead, error=ValueError):
    knots = np.geomspace(0.1, 10.0, 200)
    w = phi(knots) / knots**2
    dw = dphi(knots) / knots**2 - 2.0 * phi(knots) / knots**3
    return numerics.WeightTable(knots, w, dw, phi, lead, 1.0, 1e-6, error, "w")


def test_weight_table_reaches_its_limit_and_answers_floats_and_arrays_alike():
    # phi = 1 + 1/(1 + r^2): the tail's rest against the lead 1 is a cubic's business
    table = _weight_table(lambda r: 1.0 + 1.0 / (1.0 + r * r), lambda r: -2.0 * r / (1.0 + r * r) ** 2,
                          lambda r: 1.0)
    r = np.array([0.0, 0.05, 1.0, 10.0, 30.0, 1e3, 1e300, math.inf, math.nan])
    phi, psi = table.phi(r), table.psi(r)
    assert np.all(np.abs(phi[2:6] - (1.0 + 1.0 / (1.0 + r[2:6] ** 2))) <= 1e-6)
    assert phi[-3] == phi[-2] == 1.0 and psi[-2] == 0.0 and math.isnan(phi[-1]) and math.isnan(psi[-1])
    assert psi[0] == psi[1] == table.psi(0.1)  # held below the first knot
    for i, x in enumerate(r.tolist()):
        assert np.array_equal([table.phi(x), table.psi(x)], [phi[i], psi[i]], equal_nan=True), x

