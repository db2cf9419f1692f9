"""Shared numerical kernel: adaptive quadrature, per-draw tables, special functions.

Every downstream module (density catalogue, prior machinery, convolution
oracles, risk tables) funnels its integrals through the integrators
defined here.  Integrands must accept numpy arrays of abscissae and
return arrays of the same shape; a result is returned only once the
accumulated error estimate is below the requested tolerance, otherwise a
:class:`ToleranceNotReached` (or, for tail integrals whose partial sums
keep growing, :class:`DivergenceSuspected`) is raised.

Each segment is summed by the nested Gauss-Kronrod pair of QUADPACK
(Piessens et al. 1983): the 15-point Kronrod rule extends the 7-point
Gauss rule, its value is kept and |K15 - G7| is the segment's error
estimate, so a segment costs 15 evaluations.  One adaptive loop serves
every integrator.  It adapts many independent integrands (rows) at
once: each round calls the integrand once, on the new segments of every
row that has not yet converged, then bisects in each such row the
segments whose error is at least a quarter of the row's worst.
``integrate_rows`` exposes the loop, ``integrate`` is its one-row case,
``integrate_semi_infinite`` maps [a, inf) onto [0, 1) for
``integrate`` through a ``TailMap``, which also probes the mapped tail
for divergence and judges a tail that runs out of budget (as
``integrate_rows`` does for the rows it is told are tails), and
``cumulative_segments`` is one row per knot interval.
``integrate_pieces`` applies the pair to many smooth pieces in one
array pass, without subdivision.  Interior singularities or
kinks are handled by listing them in ``QuadratureSpec.singularity_hints``:
every integrator, ``integrate_rows`` included, pre-splits there so no
node ever lands on the bad point, and endpoint singularities are never
evaluated because the nodes are interior.

``CubicTable`` evaluates a scipy cubic spline, bitwise as scipy does,
with an O(1) guide-table search in place of scipy's binary search; the
risk simulation's per-draw lookups go through it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sp

# QUADPACK's 15-point Kronrod abscissae and weights on [-1, 1], outermost
# first; the Gauss 7-point rule uses every second abscissa, from the
# second one to the centre.
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GAUSS_W = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
# The 15 abscissae of one segment in increasing order; the Gauss nodes
# are _NODES[1::2], with weights _WEIGHTS_G.
_NODES = np.concatenate([-_KRONROD_X, _KRONROD_X[-2::-1]])
_WEIGHTS_G = np.concatenate([_GAUSS_W, _GAUSS_W[-2::-1]])
# One pass sums K15 (first row: the Kronrod weights) and K15 - G7
# (second row: the Kronrod weights less the Gauss weights at the Gauss
# nodes).
_PAIR_WEIGHTS = np.tile(np.concatenate([_KRONROD_W, _KRONROD_W[-2::-1]]), (2, 1))
_PAIR_WEIGHTS[1, 1::2] -= _WEIGHTS_G

# Highest polynomial degree the 15-point Kronrod rule integrates exactly:
# 3n + 1 = 22 for the n = 7 Gauss rule it extends, and then 23 as well,
# since a symmetric rule integrates every odd power exactly.
EXACT_DEGREE = 23


class QuadratureError(Exception):
    """Base class for integration failures."""


class ToleranceNotReached(QuadratureError):
    """Subdivision budget exhausted before the tolerance was met.

    Carries the best available partial result in ``result``, the worst
    segment in ``worst_segment`` and, from ``integrate_rows``, the row
    in ``row``.
    """

    def __init__(self, message: str, result: "IntegralResult", worst_segment=None, row=None):
        super().__init__(message)
        self.result = result
        self.worst_segment = worst_segment
        self.row = row


class DivergenceSuspected(QuadratureError):
    """Tail integral whose error mass keeps concentrating at infinity."""

    def __init__(self, message: str, result: "IntegralResult"):
        super().__init__(message)
        self.result = result


class NonFiniteIntegrand(QuadratureError):
    """Integrand returned nan/inf away from any hinted singularity."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for one integration call.

    ``max_subdivisions`` is the number of bisections each row may make
    (for ``integrate``, the one integral).  ``singularity_hints`` are
    abscissae (in the caller's coordinates) where the integrand is
    singular or merely kinked; the integrator splits there before
    adapting.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    singularity_hints: tuple[float, ...] = ()

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


def _gauss_pair(f, lo, hi):
    """K15 values and |K15 - G7| error estimates on the segments [lo, hi].

    ``lo`` and ``hi`` are floats or equal-shape arrays; ``f`` is called
    once, on a flat array holding every segment's 15 Kronrod nodes.  The
    7 Gauss nodes are among them, so the error estimate costs no extra
    evaluation; it is summed directly with the weight differences
    K15 - G7.  Each segment is summed on its own, so its value does not
    depend on how many segments share the call.
    """
    half = np.asarray(0.5 * (hi - lo))
    x = half[..., None] * _NODES + np.asarray(0.5 * (hi + lo))[..., None]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    finite = np.isfinite(y)
    if np.count_nonzero(finite) < y.size:
        raise NonFiniteIntegrand(f"integrand is not finite at x={x[~finite][0]!r}")
    sums = (y[..., None, :] * _PAIR_WEIGHTS).sum(-1) * half[..., None]
    return sums[..., 0], np.abs(sums[..., 1])


def _adapt(f, lo, hi, k, abs_tol, spec: QuadratureSpec):
    """The adaptive loop behind ``integrate`` and ``integrate_rows``.

    Row i integrates ``f(i, x)`` over its k[i] initial pieces, the next
    k[i] entries of the flat arrays ``lo`` and ``hi``, which run in
    order and tile the row's interval.  Returns the per-row arrays
    ``value``, ``error`` and ``evaluations``, and ``over``: None, or
    ``(i, worst_segment)`` for the first row that would need more than
    ``spec.max_subdivisions`` bisections, where the loop stops.
    """
    # Zero-width pieces stay as segments that are never evaluated (value
    # and error 0, so never split): each row's segments are then the
    # nonempty run from starts[i], sorted by lo, which the per-row
    # reductions need, and row i holds k[i] + (its bisections) segments.
    starts = np.add.accumulate(k) - k
    row = np.arange(k.size).repeat(k)
    budget = k + spec.max_subdivisions
    fresh = hi > lo
    evaluated = np.add.reduceat(fresh, starts, dtype=np.intp)
    val, err = np.zeros(row.size), np.zeros(row.size)
    count = k
    over = None
    while True:
        new_lo, new_hi = lo[fresh], hi[fresh]
        nodes_row = row[fresh].repeat(_NODES.size)
        val[fresh], new_err = _gauss_pair(lambda x: f(nodes_row, x), new_lo, new_hi)
        mid = 0.5 * (new_lo + new_hi)
        new_err[(mid <= new_lo) | (mid >= new_hi)] = 0.0  # at floating-point resolution
        err[fresh] = new_err
        value = np.add.reduceat(val, starts)
        error = np.add.reduceat(err, starts)
        open_rows = error > np.maximum(abs_tol, spec.rel_tol * np.abs(value))
        if not np.count_nonzero(open_rows):
            break
        # in each open row, bisect the segments whose error is at least a
        # quarter of the row's worst
        cut = np.where(open_rows, 0.25 * np.maximum.reduceat(err, starts), np.inf)
        split = err >= cut[row]
        reps = split + 1
        new_count = np.add.reduceat(reps, starts)
        if np.count_nonzero(new_count > budget):
            i = int(np.argmax(new_count > budget))
            j = int(np.argmax(np.where(row == i, err, -1.0)))
            over = (i, (float(lo[j]), float(hi[j])))
            break
        count = new_count
        # each split segment becomes its two halves in place, which keeps
        # the segments sorted by (row, lo)
        first = np.add.accumulate(reps) - reps
        starts = first[starts]
        left = first[split]
        row, lo, hi, val, err = (a.repeat(reps) for a in (row, lo, hi, val, err))
        hi[left] = lo[left + 1] = 0.5 * (lo[left] + hi[left])
        fresh = split.repeat(reps)
    # each bisection evaluates two new segments in place of one
    return value, error, (evaluated + 2 * (count - k)) * _NODES.size, over


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Adaptively integrate ``f`` over the finite interval [a, b].

    ``f`` must map a numpy array of points to an array of values.
    Success means ``error_estimate <= max(abs_tol, rel_tol * |value|)``.
    This is the one-row case of ``integrate_rows``, with the interval
    split initially at the hints inside it: each round bisects every
    segment whose error is at least a quarter of the worst one.
    """
    spec = spec or DEFAULT_SPEC
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate requires finite endpoints")
    if a == b:
        return IntegralResult(0.0, 0.0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    edges = np.array([a, *sorted({float(h) for h in spec.singularity_hints if a < h < b}), b])
    value, error, evals, over = _adapt(
        lambda row, x: f(x), edges[:-1], edges[1:], np.array([edges.size - 1]), spec.abs_tol, spec
    )
    result = IntegralResult(sign * float(value[0]), float(error[0]), int(evals[0]))
    if over is not None:
        raise ToleranceNotReached(
            f"needed more than {spec.max_subdivisions} subdivisions "
            f"(value={result.value!r}, error={result.error_estimate!r})",
            result,
            worst_segment=over[1],
        )
    return result


# A mapped tail is probed for divergence at these depths 1 - t.
_PROBE_DEPTHS = np.array([1e-6, 1e-9, 1e-12])
# Floor on 1 - t: keeps the Jacobian representable arbitrarily close to
# t = 1, so a divergent integrand shows up as huge finite values that
# exhaust the budget instead of tripping the non-finite check.
_OM_FLOOR = 1e-150


class TailMap:
    """[a, inf) mapped onto [0, 1), with the checks a mapped tail needs.

    The caller declares how the integrand dies off:

    - ``decay="exp"``: substitution r = a - scale*log(1-t), suited to
      integrands falling at least like exp(-r/scale);
    - ``decay="power"``: substitution r = a + scale*t/(1-t), suited to
      integrands falling like r**q with q < -1.

    ``radius(t)`` gives the nodes' radii r and 1 - t, and
    ``weigh(f(r), 1 - t)`` the mapped integrand f(r) dr/dt.
    ``probe(values)`` takes that integrand at ``probe_nodes`` and
    ``diverged(segment)`` judges a row that ran out of budget; either
    flags a tail that cannot be integrable.
    """

    probe_nodes = 1.0 - _PROBE_DEPTHS

    def __init__(self, a: float, decay: str = "exp", scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if decay not in ("exp", "power"):
            raise ValueError(f"unknown decay class {decay!r}")
        self.a, self.decay, self.scale = float(a), decay, float(scale)

    def radius(self, t):
        om = np.maximum(1.0 - t, _OM_FLOOR)
        if self.decay == "exp":
            return self.a - self.scale * np.log(om), om
        return self.a + self.scale * (1.0 - om) / om, om

    def weigh(self, y, om):
        y = y * (self.scale / om)
        return y if self.decay == "exp" else y / om

    def to_t(self, r: float) -> float:
        if self.decay == "exp":
            return -math.expm1(-(r - self.a) / self.scale)
        return (r - self.a) / (self.scale + (r - self.a))

    def probe(self, values):
        """Raise DivergenceSuspected unless every row's tail is clearly shrinking.

        ``values`` holds the mapped integrand g at ``probe_nodes``, one
        row of three per tail.  A convergent tail needs g(t)(1-t) -> 0
        as t -> 1; a product that is not clearly shrinking over the
        three depths means it is not integrable.
        """
        w = np.abs(np.asarray(values, dtype=float)).reshape(-1, _PROBE_DEPTHS.size) * _PROBE_DEPTHS
        for row in w:
            if np.all(np.isfinite(row)) and row[2] > 0.0 and row[2] >= 0.8 * row.max():
                raise DivergenceSuspected(
                    f"integrand tail does not look integrable under decay={self.decay!r} "
                    f"(boundary weights {row.tolist()!r})",
                    IntegralResult(math.nan, math.inf, 3),
                )

    @staticmethod
    def diverged(segment) -> bool:
        """A divergent tail parks the worst segment against t = 1 and keeps it there."""
        return segment is not None and segment[1] > 0.999


def integrate_semi_infinite(
    f,
    a: float,
    spec: QuadratureSpec | None = None,
    *,
    decay: str = "exp",
    scale: float = 1.0,
) -> IntegralResult:
    """Integrate ``f`` over [a, inf) after mapping onto [0, 1).

    The map is ``TailMap(a, decay, scale)``.  The mapped integrand is
    probed for divergence first; if the budget runs out with the error
    mass parked against t=1 the failure is reported as
    :class:`DivergenceSuspected` too, so callers can treat "slow" and
    "infinite" differently.
    """
    spec = spec or DEFAULT_SPEC
    tail = TailMap(a, decay, scale)

    def g(t):
        r, om = tail.radius(t)
        return tail.weigh(f(r), om)

    tail.probe(g(tail.probe_nodes))
    hints = tuple(tail.to_t(h) for h in spec.singularity_hints if h > tail.a)
    try:
        return integrate(g, 0.0, 1.0, replace(spec, singularity_hints=hints))
    except ToleranceNotReached as exc:
        if tail.diverged(exc.worst_segment):
            raise DivergenceSuspected(str(exc), exc.result) from exc
        raise


def cumulative_segments(f, knots, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of ``f`` over each consecutive pair of ``knots``.

    Useful for building monotone cumulative tables: each piece is
    integrated independently so the partial sums are exactly the sums of
    nonnegative segment values when the integrand is nonnegative.  The
    pieces are the rows of one ``integrate_rows`` batch, each split
    initially at the singularity hints inside it.
    """
    spec = spec or DEFAULT_SPEC
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise ValueError("need at least two knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    return integrate_rows(lambda row, x: f(x), np.column_stack([knots[:-1], knots[1:]]), spec.abs_tol, spec)


def integrate_pieces(f, lo, hi, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of ``f`` over each [lo[i], hi[i]] from one K15/G7 pass.

    Nothing is subdivided, so this is for integrands that are smooth on
    every piece, such as a spline between its knots.  A piece whose
    K15 - G7 gap exceeds ``max(abs_tol, rel_tol * |value|)`` raises
    :class:`ToleranceNotReached` naming the worst piece.
    """
    spec = spec or DEFAULT_SPEC
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    value, err = _gauss_pair(f, lo, hi)
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    if np.any(err > tol):
        j = int(np.argmax(err / tol))
        piece = (float(lo.flat[j]), float(hi.flat[j]))
        raise ToleranceNotReached(
            f"piece {piece} misses its tolerance (error={float(err.flat[j])!r})",
            IntegralResult(float(value.sum()), float(err.sum()), value.size * _NODES.size),
            worst_segment=piece,
        )
    return value


def integrate_rows(f, edges, abs_tol, spec: QuadratureSpec | None = None, *, tails=None) -> np.ndarray:
    """Integrals of many independent integrands, adapted in one batch.

    Row i integrates ``f(i, x)`` over [edges[i, 0], edges[i, -1]], split
    initially at its interior edges (an edge may repeat: a zero-width
    piece contributes 0).  A row with fewer pieces than the others ends
    in NaN edges, which pad it to the array's width.  ``f(row, x)`` gets
    a nondecreasing index array ``row`` aligned with the abscissae
    ``x``.  Each round calls ``f`` once on every new segment of every
    unconverged row and bisects, in each of those rows, the segments
    whose error is at least a quarter of the row's worst.  Each of
    ``spec.singularity_hints`` is folded into every row's edges, clipped
    to the row's span (outside it, a zero-width piece), so a row splits
    there as ``integrate`` would.
    Row i is done once its error is at most
    ``max(abs_tol[i], rel_tol * |value|)`` (``abs_tol`` is one float or
    one per row); a segment at floating-point resolution is accepted as
    is.  Segments stay sorted by (row, lo), so a row's value does not
    depend on the other rows in the batch.  A row that needs more than
    ``max_subdivisions`` bisections raises :class:`ToleranceNotReached`
    naming the row and its worst segment; where ``tails`` (one bool per
    row) marks it as a ``TailMap`` image of [a, inf) and
    ``TailMap.diverged`` holds, :class:`DivergenceSuspected` instead, as
    ``integrate_semi_infinite`` does.
    """
    spec = spec or DEFAULT_SPEC
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 2 or edges.shape[1] < 2:
        raise ValueError("edges must be a 2-d array with at least two columns")
    if (edges[:, 1:] < edges[:, :-1]).any():
        raise ValueError("each row's edges must be nondecreasing")
    if spec.singularity_hints:
        hints = np.asarray(spec.singularity_hints, dtype=float)
        span = (edges[:, :1], np.fmax.reduce(edges, axis=1, keepdims=True))
        cuts = np.clip(np.broadcast_to(hints, (edges.shape[0], hints.size)), *span)
        edges = np.sort(np.concatenate([edges, cuts], axis=1), axis=1)  # NaN sorts last
    pad = np.isnan(edges)
    if pad[:, :2].any() or (pad[:, :-1] > pad[:, 1:]).any():
        raise ValueError("NaN edges may only pad the end of a row of at least two edges")
    real = ~pad[:, 1:]
    value, error, evals, over = _adapt(f, edges[:, :-1][real], edges[:, 1:][real], real.sum(axis=1), abs_tol, spec)
    if over is not None:
        i, segment = over
        message = (
            f"row {i} needed more than {spec.max_subdivisions} subdivisions "
            f"(value={value[i]!r}, error={error[i]!r})"
        )
        result = IntegralResult(float(value[i]), float(error[i]), int(evals[i]))
        if tails is not None and tails[i] and TailMap.diverged(segment):
            raise DivergenceSuspected(message, result)
        raise ToleranceNotReached(message, result, worst_segment=segment, row=i)
    return value


# --- per-draw cubic tables ----------------------------------------------

# Guide buckets per knot interval of a CubicTable.
_BUCKETS_PER_INTERVAL = 2
# Width, in buckets, by which each bucket's candidate intervals are
# widened on both sides.  A point's bucket is off by a few ulps of its
# coordinate times the buckets per coordinate unit; a table where that
# could exceed half the slack is refused, so a point is never put in a
# bucket whose candidates miss its interval.
_BUCKET_SLACK = 1e-6
# Points evaluated per array pass.
_TABLE_CHUNK = 16384


class CubicTable:
    """A scalar cubic scipy ``PPoly`` evaluated by indexed search.

    ``pp`` supplies the knots ``x`` and the power-basis coefficients
    ``c``; ``coordinate`` maps an array of abscissae onto a scale where
    the knots are nearly uniform (log r for geometric radii, logit u for
    CDF values) and returns a new array.  That scale is cut into equal
    buckets, two per knot interval, and a guide array holds each
    bucket's first candidate interval and the next knot (Chen & Asau
    1974; Devroye 1986, section III.2.4).  An array point finds its
    bucket in O(1) and one comparison with that knot settles its
    interval, so the coordinate's rounding never decides it.  Points in
    the rare buckets with more than two candidates (on a CDF table, where
    the CDF is below about 1e-18) are located by ``np.searchsorted``.  A
    0-d input is located by ``bisect`` on a list of the knots and summed
    in Python floats.  Either way the interval is scipy's, x[i] <= x <
    x[i+1] with the last one closed and the end intervals extended, and
    the cubic is summed in scipy's order, so the value is bitwise
    ``pp(x)``: nan for nan, and a float for a 0-d input.
    """

    def __init__(self, pp, coordinate):
        x = np.ascontiguousarray(pp.x, dtype=float)
        c = np.asarray(pp.c, dtype=float)
        if x.ndim != 1 or x.size < 2 or c.shape != (4, x.size - 1):
            raise ValueError("need a scalar cubic PPoly")
        n = x.size
        self._coordinate = coordinate
        self._x = x
        # scipy sums from 0.0, which turns a -0.0 constant term into +0.0
        self._c3, self._c2, self._c1, self._c0 = (np.ascontiguousarray(row) for row in (c[3] + 0.0, c[2], c[1], c[0]))
        # the same table as Python floats, for 0-d input
        self._lists = tuple(row.tolist() for row in (x, self._c3, self._c2, self._c1, self._c0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = coordinate(x)
        finite = t[np.isfinite(t)]
        if finite.size < 2 or not finite[-1] > finite[0]:
            raise ValueError("need two knots with distinct finite coordinates")
        n_buckets = _BUCKETS_PER_INTERVAL * (n - 1)
        self._t0 = float(finite[0])
        self._scale = n_buckets / float(finite[-1] - finite[0])
        self._top = float(n_buckets - 1)
        rounding = 16.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(finite))) * self._scale
        if not rounding <= 0.5 * _BUCKET_SLACK:
            raise ValueError("knots too close together for their coordinate's precision")
        # Knot positions in buckets, by the formula a point's bucket uses.
        # Bucket b's candidates run from the interval holding b - slack to
        # the one holding b + 1 + slack; the top bucket also takes every
        # point beyond the last knot, the bottom one every point below t0.
        y = np.sort((t - self._t0) * self._scale)
        edges = np.arange(n_buckets, dtype=float)
        first = np.maximum(np.searchsorted(y, edges - _BUCKET_SLACK) - 1, 0)
        last = np.minimum(np.searchsorted(y, edges + (1.0 + _BUCKET_SLACK)) - 1, n - 2)
        last[-1] = n - 2
        # one candidate: no next knot, so nan, which no point reaches;
        # more than two: crowded, -1
        self._next = np.where(last == first + 1, x[np.minimum(first + 1, n - 1)], np.nan)
        self._first = np.where(last > first + 1, -1, first)

    def __call__(self, x):
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
            if x.ndim:
                return self._array(x)
        x = float(x)
        knots, c3, c2, c1, c0 = self._lists
        i = min(max(bisect.bisect_right(knots, x) - 1, 0), len(c3) - 1)
        s = x - knots[i]
        z = s * s
        return (c3[i] + c2[i] * s) + c1[i] * z + c0[i] * (z * s)

    def _array(self, x):
        # chunks keep the temporaries of a large array small
        out = np.empty(x.shape)
        flat, flat_out = x.reshape(-1), out.reshape(-1)
        for k in range(0, flat.size, _TABLE_CHUNK):
            flat_out[k : k + _TABLE_CHUNK] = self._chunk(flat[k : k + _TABLE_CHUNK])
        return out

    def _chunk(self, x):
        # as in scipy's compiled loop, overflow and nan pass without warning
        with np.errstate(all="ignore"):
            y = self._coordinate(x)
            y -= self._t0
            y *= self._scale
            # fmax and fmin send nan to bucket 0, where its comparison fails
            np.fmax(y, 0.0, out=y)
            np.fmin(y, self._top, out=y)
            bucket = y.astype(np.intp)
            i = self._first[bucket]
            i += x >= self._next[bucket]
            if i.min() < 0:
                crowded = i < 0
                i[crowded] = np.searchsorted(self._x, x[crowded], side="right") - 1
                np.clip(i, 0, self._x.size - 2, out=i)
            s = x - self._x[i]
            z = s * s
            return (self._c3[i] + self._c2[i] * s) + self._c1[i] * z + self._c0[i] * (z * s)


# --- special functions -------------------------------------------------

def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) for positive arguments."""
    if a <= 0 or b <= 0:
        raise ValueError("beta_fn requires positive arguments")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def upper_incomplete_gamma(s: float, x) :
    """Unregularized upper incomplete gamma integral for s > 0, x >= 0.

    Accepts scalar or array ``x``; relative accuracy is inherited from
    scipy's regularized routine (well below 1e-12 on x <= 300).
    """
    if s <= 0:
        raise ValueError("upper_incomplete_gamma requires s > 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("upper_incomplete_gamma requires x >= 0")
    out = _sp.gammaincc(s, x_arr) * math.exp(math.lgamma(s))
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def sphere_surface(p: float) -> float:
    """Surface area of the unit sphere in R^p: 2 pi^{p/2} / Gamma(p/2)."""
    if p < 1:
        raise ValueError("sphere_surface requires p >= 1")
    return 2.0 * math.exp(0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p))
