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
segments whose error is at least a quarter of the row's worst.  Each
row starts from its own number of nonempty pieces, so a graded mesh
costs a row only the pieces that fall inside its interval.
``integrate_rows`` exposes the loop, ``integrate`` is its one-row case
and ``cumulative_segments`` is one row per knot interval.
``integrate_half_lines`` batches many terms, each a head row, or none,
and a tail row [a, inf) mapped onto [0, 1) by a ``TailMap``, which also
judges the tail's divergence; no other module maps a tail.  A power-law
tail row starts from a ladder of pieces at ratio 4 in r - a out to about 1e6
scales, so the loop does not spend a round per factor of 2 in r to get
there.  ``integrate_semi_infinite`` is its one-term case without a head.
``integrate_pieces`` applies the pair to many smooth pieces in one
array pass, without subdivision.  The caller says where an integral
splits by its edges: a row of ``integrate_rows``, the list that
``integrate`` takes, a head of ``integrate_half_lines``.  One check
refuses edges that are NaN, infinite or decreasing and a row of zero
span before any integrand is called.  An interior singularity or kink
is an edge, so no node ever lands on it, and an endpoint singularity is
never evaluated because the nodes are interior; a layer at an end is
reached sooner from a ladder of edges toward it.

``CubicTable`` evaluates a scipy cubic spline, bitwise as scipy does,
with an O(1) guide-table search in place of scipy's binary search.
``gated_table`` builds every per-draw table: exact values at knots, a
scipy cubic, a ``CubicTable`` and a check at every interval midpoint.
``WeightTable`` joins two of them into a radial weight out to r = inf.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

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
    """Integrand returned nan or inf at a node."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for one integration call.

    ``max_subdivisions`` is the number of bisections each row may make
    (for ``integrate``, the one integral).  A tolerance that is not
    positive, or a budget under 1, NaN included, is refused with
    ValueError.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # NaN compares False both ways
            raise ValueError("tolerances must be positive")
        if not self.max_subdivisions >= 1:
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


def _adapt(f, lo, hi, k, abs_tol, spec: QuadratureSpec, label=None, diverged=None):
    """The adaptive loop behind every integrator but ``integrate_pieces``.

    Row i integrates ``f(i, x)`` over its k[i] >= 1 initial pieces, the
    next k[i] entries of the flat arrays ``lo`` and ``hi``, which run in
    order, each with hi > lo, and tile the row's interval.  Returns the
    per-row arrays ``value``, ``error`` and ``evaluations``.  The first
    row i over ``spec.max_subdivisions`` bisections raises
    :class:`ToleranceNotReached` led by ``label(i)``, with ``row`` i (no
    lead and no row without ``label``), its partial ``result`` and its
    ``worst_segment``, or :class:`DivergenceSuspected` where
    ``diverged(i, worst_segment)``; what ``f`` raises passes unjudged.
    """
    starts = np.add.accumulate(k) - k
    row = np.arange(k.size).repeat(k)
    budget = k + spec.max_subdivisions
    val, err = np.empty(row.size), np.empty(row.size)
    fresh = slice(None)  # the first round evaluates every piece
    count = k
    while True:
        new_lo, new_hi = lo[fresh], hi[fresh]
        nodes_row = row[fresh].repeat(_NODES.size)
        val[fresh], new_err = _gauss_pair(lambda x: f(nodes_row, x), new_lo, new_hi)
        # a segment at floating-point resolution cannot be bisected, so its
        # estimate proves nothing: it is charged its whole |value|
        mid = 0.5 * (new_lo + new_hi)
        stuck = (mid <= new_lo) | (mid >= new_hi)
        new_err[stuck] = np.abs(val[fresh][stuck])
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
            segment = (float(lo[j]), float(hi[j]))
            result = IntegralResult(float(value[i]), float(error[i]), int(2 * count[i] - k[i]) * _NODES.size)
            message = (f"{label(i) + ' ' if label else ''}needed more than {spec.max_subdivisions} subdivisions "
                       f"(value={result.value!r}, error={result.error_estimate!r})")
            if diverged and diverged(i, segment):
                raise DivergenceSuspected(message, result)
            raise ToleranceNotReached(message, result, worst_segment=segment, row=i if label else None)
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
    return value, error, (2 * count - k) * _NODES.size


def _pieces(edges, label):
    """The nonempty pieces of the rows of the 2-d array ``edges``: flat ``lo`` and ``hi``, and each row's count.

    A row's edges must be finite and nondecreasing and span a nonzero
    width; repeated edges are zero-width pieces, which are dropped.  A
    row that breaks this raises ``ValueError`` led by ``label(i)``
    before any integrand is called.
    """
    if edges.ndim != 2 or edges.shape[1] < 2:
        raise ValueError("edges must be a 2-d array with at least two columns")
    lo, hi = edges[:, :-1], edges[:, 1:]
    # nondecreasing rows whose ends are finite hold only finite edges;
    # a NaN fails every comparison
    ordered, ends = hi >= lo, np.isfinite(edges[:, :: edges.shape[1] - 1])
    if np.count_nonzero(ordered) < ordered.size or np.count_nonzero(ends) < ends.size:
        raise ValueError(f"{label(int(np.argmin(ordered.all(1) & ends.all(1))))} needs finite and nondecreasing edges")
    nonempty = hi > lo
    k = nonempty.sum(1)
    if np.count_nonzero(k) < k.size:
        raise ValueError(f"{label(int(np.argmin(k)))} has zero span")
    return lo[nonempty], hi[nonempty], k


def integrate(f, edges, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Adaptively integrate ``f`` from ``edges[0]`` to ``edges[-1]``, split initially at the edges between.

    ``f`` must map a numpy array of points to an array of values.
    Success means ``error_estimate <= max(abs_tol, rel_tol * |value|)``.
    This is the one-row case of ``integrate_rows``, with its check of
    the edges.  Each round bisects every segment whose error is at least
    a quarter of the worst one.  Over budget it raises as ``_adapt`` does.
    """
    spec = spec or DEFAULT_SPEC
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("integrate needs a 1-d list of two edges or more")
    lo, hi, k = _pieces(edges[None], lambda i: "the integral")
    value, error, evals = _adapt(lambda row, x: f(x), lo, hi, k, spec.abs_tol, spec)
    return IntegralResult(float(value[0]), float(error[0]), int(evals[0]))


# A mapped tail is probed for divergence at these depths 1 - t.
_PROBE_DEPTHS = np.array([1e-6, 1e-9, 1e-12])
# Floor on 1 - t: keeps the Jacobian representable arbitrarily close to
# t = 1, so a divergent integrand shows up as huge finite values that
# exhaust the budget instead of tripping the non-finite check.
_OM_FLOOR = 1e-150
# Starting edges of a power tail: t = 1 - 4^-k for k = 1..10, exact in
# binary, which is r - a = scale*(4^k - 1), a ratio-4 ladder out to
# about 1e6 scales.  From the one piece [0, 1] the loop would reach
# r - a ~ 4^k only after 2k rounds of bisection toward t = 1.
_POWER_LADDER = tuple(1.0 - 4.0**-k for k in range(1, 11))
# A tail row over budget is judged divergent once its worst segment lies
# this fraction of its last starting piece away from t = 1: ten
# bisections into that piece, all toward t = 1.
_DIVERGED_DEPTH = 1e-3


class TailMap:
    """[a, inf) mapped onto [0, 1), with the checks a mapped tail needs.

    ``decay="exp"`` is r = a - scale*log(1-t), for integrands falling at
    least like exp(-r/scale); ``decay="power"`` is r = a + scale*t/(1-t),
    for integrands falling like r**q with q < -1.  ``radius(t)`` gives
    the radii and 1 - t, ``weigh(f(r), 1 - t)`` the mapped integrand
    f(r) dr/dt.  ``edges`` are a tail row's starting edges in t: for a
    power tail, the ladder t = 1 - 4^-k (k = 1..10), so that the loop
    does not have to bisect its way out to large r one factor of 2 a
    round; an exp tail grows like log(1/(1-t)) and starts from [0, 1]
    alone.  ``probe`` (at
    ``probe_nodes``) and ``diverged`` (of a row over budget) flag a tail
    that cannot be integrable.  A scale that is not positive and finite
    (NaN included) is refused with ValueError, before any integrand call.
    """

    probe_nodes = 1.0 - _PROBE_DEPTHS

    def __init__(self, a: float, decay: str = "exp", scale: float = 1.0):
        if not 0.0 < scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if decay not in ("exp", "power"):
            raise ValueError(f"unknown decay class {decay!r}")
        if not math.isfinite(a):
            raise ValueError("a tail must start at a finite a")
        self.a, self.decay, self.scale = float(a), decay, float(scale)
        self.edges = [0.0, *(_POWER_LADDER if decay == "power" else ()), 1.0]

    def radius(self, t):
        om = np.maximum(1.0 - t, _OM_FLOOR)
        if self.decay == "exp":
            return self.a - self.scale * np.log(om), om
        return self.a + self.scale * (1.0 - om) / om, om

    def weigh(self, y, om):
        y = y * (self.scale / om)
        return y if self.decay == "exp" else y / om

    def probe(self, values, names):
        """Raise DivergenceSuspected unless every row's tail is clearly shrinking.

        ``values`` holds the mapped integrand g at ``probe_nodes``, one
        row of three per tail.  A convergent tail needs g(t)(1-t) -> 0
        as t -> 1; a product that is not clearly shrinking over the
        three depths means it is not integrable.  The message calls
        row k's tail "``names[k]`` tail".
        """
        w = np.abs(np.asarray(values, dtype=float)).reshape(-1, _PROBE_DEPTHS.size) * _PROBE_DEPTHS
        for k, row in enumerate(w.tolist()):
            if all(map(math.isfinite, row)) and row[2] > 0.0 and row[2] >= 0.8 * max(row):
                raise DivergenceSuspected(
                    f"{names[k]} tail does not look integrable under decay={self.decay!r} "
                    f"(boundary weights {row!r})",
                    IntegralResult(math.nan, math.inf, 3),
                )

    def diverged(self, segment) -> bool:
        """A divergent tail keeps bisecting its last piece toward t = 1.

        Every tail row's last segment ends at t = 1, so only its start
        tells: the worst segment must lie within ``_DIVERGED_DEPTH`` of
        the last starting piece's width of t = 1.  A starting piece
        itself never does, however close to t = 1 the ladder reaches.
        With the one piece [0, 1] this is a start at t >= 0.999.
        """
        return 1.0 - segment[0] <= _DIVERGED_DEPTH * (1.0 - self.edges[-2])


def integrate_half_lines(f, heads, spec: QuadratureSpec | None = None, *, decay: str = "exp",
                         scale: float = 1.0, names=None) -> np.ndarray:
    """Integrals of many terms over half-lines, adapted in one batch.

    Term j is a head row over the edges ``heads[j]``, which all end at
    the same finite a (a term whose head is the one edge a has no head
    row), and a tail row [a, inf) mapped onto [0, 1) by
    ``TailMap(a, decay, scale)``.  The heads pass ``integrate_rows``'
    check of edges before ``f`` is called.  ``f(term, r)`` gets a
    nondecreasing array of term indices aligned with real radii and
    returns a new array.  Each tail row starts from ``TailMap.edges``,
    for ``decay="power"`` the ratio-4 ladder, and nothing splits it: an
    integrand kinked beyond some radius belongs in the heads up to its
    last kink, with the tails starting there.
    One call of ``f`` probes every tail first.  Returns each term's head
    plus tail.  A failure names term j ``names[j]`` (default "term j")
    and its head or tail.  A row over budget raises as ``_adapt`` does,
    with its batch ``row``, and a tail that ``TailMap.diverged`` judges,
    or that the probe refuses, raises :class:`DivergenceSuspected`;
    values of ``f`` that are not finite raise
    :class:`NonFiniteIntegrand`, as does ``f`` itself, say from a nested
    integral.
    """
    return _half_lines(f, heads, spec or DEFAULT_SPEC, decay, scale, names)[0]


def _half_lines(f, heads, spec, decay, scale, names):
    """``integrate_half_lines``' work: each term's value, error estimate and evaluations."""
    a = float(heads[0][-1])
    if any(float(head[-1]) != a for head in heads):
        raise ValueError("every head must end where the tails start")
    tail = TailMap(a, decay, scale)
    n = len(heads)
    names = names or [f"term {j}" for j in range(n)]
    # (term, edges): term j's head, unless it is the one edge a, then its tail
    rows = [(j, row) for j, head in enumerate(heads) for row in (head, tail.edges) if len(row) > 1]
    term = np.array([j for j, _ in rows])
    in_tail = np.array([row is tail.edges for _, row in rows])

    def piece_of(i):
        return f"{names[term[i]]} {'tail' if in_tail[i] else 'head'}"

    # each row padded with its last edge, whose empty pieces the check drops
    width = max(len(row) for _, row in rows)
    lo, hi, k = _pieces(np.array([[*row, *[row[-1]] * (width - len(row))] for _, row in rows], dtype=float),
                        piece_of)

    last = []  # the arguments of the latest call of ``mapped``

    def mapped(row, x):
        last[:] = row, x
        at = in_tail[row]
        r = x.copy()
        r[at], om = tail.radius(x[at])
        y = f(term[row], r)
        y[at] = tail.weigh(y[at], om)
        return y

    try:
        probe_rows = np.flatnonzero(in_tail).repeat(_PROBE_DEPTHS.size)
        tail.probe(mapped(probe_rows, np.tile(tail.probe_nodes, n)), names)
        value, error, evals = _adapt(mapped, lo, hi, k, spec.abs_tol, spec, piece_of,
                                     lambda i, segment: in_tail[i] and tail.diverged(segment))
    except NonFiniteIntegrand as exc:
        # failure path only: the latest call's rows, one at a time, name
        # the first whose values are not finite
        row, x = last
        for i in dict.fromkeys(row.tolist()):
            try:
                if np.count_nonzero(~np.isfinite(mapped(row[row == i], x[row == i]))):
                    break
            except NonFiniteIntegrand:
                break
        raise NonFiniteIntegrand(f"{piece_of(i)}: {exc}") from exc
    # bincount adds in row order, so a term's sum is its head plus its tail
    return [np.bincount(term, x, n) for x in (value, error, evals)]


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec | None = None, *, decay: str = "exp",
                            scale: float = 1.0) -> IntegralResult:
    """Integrate ``f`` over [a, inf) after mapping onto [0, 1).

    The one-term, no-head case of ``integrate_half_lines``, whose
    failures it raises, naming the integral "integrand tail"; a
    :class:`DivergenceSuspected` tells "infinite" from "slow".
    """
    value, error, evals = _half_lines(lambda term, r: f(r), [[a]], spec or DEFAULT_SPEC, decay, scale, ("integrand",))
    return IntegralResult(float(value[0]), float(error[0]), int(evals[0]))


def cumulative_segments(f, knots, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of ``f`` over each consecutive pair of ``knots``.

    Useful for building monotone cumulative tables: each piece is
    integrated independently so the partial sums are exactly the sums of
    nonnegative segment values when the integrand is nonnegative.  The
    pieces are the rows of one ``integrate_rows`` batch, so the knots
    must be finite and strictly increasing.
    """
    spec = spec or DEFAULT_SPEC
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise ValueError("need at least two knots")
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


def integrate_rows(f, edges, abs_tol, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of many independent integrands, adapted in one batch.

    Row i integrates ``f(i, x)`` over [edges[i, 0], edges[i, -1]], split
    initially at its interior edges.  An edge may repeat, so rows of
    different piece counts share one array by repeating their last
    edge: the zero-width pieces are dropped before the loop, and each
    row starts from its own nonempty pieces.  A row whose edges are NaN,
    infinite or decreasing, or whose span is zero, raises ``ValueError``
    before ``f`` is called.  ``f(row, x)`` gets
    a nondecreasing index array ``row`` aligned with the abscissae
    ``x``.  Each round calls ``f`` once on every new segment of every
    unconverged row and bisects, in each of those rows, the segments
    whose error is at least a quarter of the row's worst.
    Row i is done once its error is at most
    ``max(abs_tol[i], rel_tol * |value|)`` (``abs_tol`` is one float or
    one per row); a segment at floating-point resolution, which cannot
    be bisected, counts its whole |value| as its error, so a row that
    needs one fails instead of passing on a meaningless estimate.
    Segments stay sorted by (row, lo), so a row's value does not
    depend on the other rows in the batch.  A row over budget raises as
    ``_adapt`` does, led by "row i".
    """
    spec = spec or DEFAULT_SPEC
    label = lambda i: f"row {i}"
    lo, hi, k = _pieces(np.asarray(edges, dtype=float), label)
    return _adapt(f, lo, hi, k, abs_tol, spec, label)[0]


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
    CDF values); it may return its argument, which is never written.
    That scale is cut into equal buckets, two per knot interval, and a
    guide array holds each bucket's first candidate interval and the next
    knot (Chen & Asau 1974; Devroye 1986, section III.2.4).  An array point finds its
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
            if np.may_share_memory(y, x):
                y = y.copy()  # the shift and scale below would overwrite the caller's array
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


# --- gated tables ---------------------------------------------------------

# A weight table's tail starts from the knots s = 2^-k / r_max, k = 0..8, and 0.
_TAIL_OCTAVES = 8
# Rounds of bisection a refined ``gated_table`` may take before it raises.
_REFINE_ROUNDS = 32


def gated_table(x, data, fit, coordinate, miss, tol, error, what, refine=None):
    """``CubicTable(fit(x, *data), coordinate)``, checked at its interval midpoints.

    ``miss(table, mids)`` is the table's miss against the exact function,
    in units of ``tol``; one above it, or nan, raises ``error`` naming
    ``what``.  With ``refine``, the knot data at new abscissae, the
    intervals that miss are first bisected, for up to ``_REFINE_ROUNDS``
    rounds: the gate decides how many knots the table needs.
    """
    for rounds_left in range(_REFINE_ROUNDS if refine else 0, -1, -1):
        table = CubicTable(fit(x, *data), coordinate)
        mids = 0.5 * (x[:-1] + x[1:])
        misses = miss(table, mids)
        bad = ~(misses <= tol)
        if not np.count_nonzero(bad):
            return table
        if rounds_left:
            order = np.argsort(np.concatenate((x, mids[bad])))
            x = np.concatenate((x, mids[bad]))[order]
            data = tuple(np.concatenate(pair)[order] for pair in zip(data, refine(mids[bad])))
    raise error(f"{what} by {float(np.max(misses)):.3g} at an interval midpoint")


class WeightTable:
    """A radial weight w(r) = phi(r)/r^2 from r = 0 to r = inf, as two ``gated_table`` segments.

    The head is the Hermite spline through w and its slope ``dw`` at
    ``knots``, r0 to r_max, over log r, and w is held at w(r0) below r0.
    The tail is a PCHIP through phi - ``lead`` over u = r^-``beta``, in
    which it should be near linear, from the knots s = 2^-k / r_max
    (k = 0..8), u = s^beta, and u = 0, where it is 0: lead(r) is phi's
    closed-form part at large r, lead(inf) its limit.  Both gates allow
    ``tol`` in phi.  ``psi`` (w) and ``phi`` map a float to a float.
    """

    def __init__(self, knots, w, dw, phi, lead, beta, tol, error, what):
        def rest(u):
            r = u ** (-1.0 / beta)
            return phi(r) - lead(r)

        self.head = gated_table(knots, (w, dw), CubicHermiteSpline, np.log,
                                lambda table, r: np.abs(table(r) * r * r - phi(r)), tol, error, what)
        u = np.concatenate(([0.0], (np.exp2(-np.arange(_TAIL_OCTAVES, -1.0, -1.0)) / knots[-1]) ** beta))
        self.tail = gated_table(u, (np.concatenate(([0.0], rest(u[1:]))),), PchipInterpolator, np.log,
                                lambda table, u: np.abs(table(u) - rest(u)), tol, error, what,
                                refine=lambda u: (rest(u),))
        self.lead, self.beta, self.r0, self.r_max = lead, beta, float(knots[0]), float(knots[-1])

    def psi(self, r):
        return self._lookup(r, False)

    def phi(self, r):
        return self._lookup(r, True)

    def _lookup(self, r, phi):
        """w(r), or phi(r) = w(r) r^2: the head's up to r_max, the tail's beyond it."""
        if isinstance(r, float) or np.ndim(r) == 0:
            r = float(r)
            if r > self.r_max:
                far = self._far(r)
                return far if phi else far / r / r
            w = self.head(max(r, self.r0))
            return w * r * r if phi else w
        r = np.asarray(r, dtype=float)
        out = self.head(np.maximum(r, self.r0))
        if phi:
            near = np.minimum(r, self.r_max)
            out = out * near * near
        far = r > self.r_max
        if np.count_nonzero(far):
            r = r[far]
            far_phi = self._far(r)
            out[far] = far_phi if phi else far_phi / r / r
        return out

    def _far(self, r):
        return self.lead(r) + self.tail(1.0 / r if self.beta == 1.0 else r ** -self.beta)


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
