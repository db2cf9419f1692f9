"""Shared numerical kernel: adaptive quadrature and special functions.

Every downstream module (density catalogue, prior machinery, convolution
oracles, risk tables) funnels its integrals through the integrators
defined here.  Integrands must accept numpy arrays of abscissae and
return arrays of the same shape; a result is returned only once the
accumulated error estimate is below the requested tolerance, otherwise a
:class:`ToleranceNotReached` (or, for tail integrals whose partial sums
keep growing, :class:`DivergenceSuspected`) is raised.

The adaptive scheme is plain bisection driven by an embedded pair of
Gauss-Legendre rules (7 and 15 points).  Nodes and weights are generated
at import time to machine precision, the 15-point value is kept and the
deviation from the 7-point value serves as the segment error estimate.
``integrate_pieces`` applies the same pair to many smooth pieces in one
array pass, without subdivision.  ``integrate_rows`` adapts many
independent integrands at once: each refinement round is one integrand
call on the new segments of every row that has not yet converged.
Interior singularities or kinks are handled by listing them in
``QuadratureSpec.singularity_hints``: the interval is pre-split there so
no node ever lands on the bad point, and endpoint singularities are
never evaluated because Gauss nodes are interior.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sp

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
# Abscissae of one segment on [-1, 1]: the 15-point nodes, then the 7.
_NODES = np.concatenate([_NODES_HI, _NODES_LO])

# Highest polynomial degree the 15-point rule integrates exactly.
EXACT_DEGREE = 29


class QuadratureError(Exception):
    """Base class for integration failures."""


class ToleranceNotReached(QuadratureError):
    """Subdivision budget exhausted before the tolerance was met.

    Carries the best available partial result in ``result``.
    """

    def __init__(self, message: str, result: "IntegralResult", worst_segment=None):
        super().__init__(message)
        self.result = result
        self.worst_segment = worst_segment


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

    ``singularity_hints`` are abscissae (in the caller's coordinates)
    where the integrand is singular or merely kinked; the integrator
    splits there before adapting.
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
    """G15 values and |G15 - G7| error estimates on the segments [lo, hi].

    ``lo`` and ``hi`` are floats or equal-shape arrays; ``f`` is called
    once, on a flat array holding every segment's 22 nodes.  Each
    segment is summed on its own, so its value does not depend on how
    many segments share the call.
    """
    half = np.asarray(0.5 * (hi - lo))
    x = half[..., None] * _NODES + np.asarray(0.5 * (hi + lo))[..., None]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        raise NonFiniteIntegrand(f"integrand is not finite at x={x[~finite][0]!r}")
    value = half * (y[..., : _NODES_HI.size] * _WEIGHTS_HI).sum(-1)
    return value, np.abs(value - half * (y[..., _NODES_HI.size :] * _WEIGHTS_LO).sum(-1))


def _eval_segment(f, lo: float, hi: float):
    """Return (value, error_estimate, evaluations) for one segment."""
    value, err = _gauss_pair(f, lo, hi)
    return float(value), float(err), _NODES.size


def _initial_segments(a: float, b: float, hints) -> list[tuple[float, float]]:
    cuts = sorted({float(h) for h in hints if a < h < b})
    edges = [a, *cuts, b]
    return list(zip(edges[:-1], edges[1:]))


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Adaptively integrate ``f`` over the finite interval [a, b].

    ``f`` must map a numpy array of points to an array of values.
    Success means ``error_estimate <= max(abs_tol, rel_tol * |value|)``.
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

    evals = 0
    heap: list[tuple[float, int, float, float, float]] = []
    serial = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in _initial_segments(a, b, spec.singularity_hints):
        val, err, n = _eval_segment(f, lo, hi)
        evals += n
        total += val
        total_err += err
        heapq.heappush(heap, (-err, serial, lo, hi, val))
        serial += 1

    subdivisions = 0
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if subdivisions >= spec.max_subdivisions:
            worst = max(heap, key=lambda item: -item[0])
            raise ToleranceNotReached(
                f"needed more than {spec.max_subdivisions} subdivisions "
                f"(value={total!r}, error={total_err!r})",
                IntegralResult(sign * total, total_err, evals),
                worst_segment=(worst[2], worst[3]),
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        if neg_err == 0.0:
            # Largest remaining error is zero: the running error total is
            # stale float drift, nothing left to refine.
            heapq.heappush(heap, (neg_err, serial, lo, hi, val))
            serial += 1
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval is at floating point resolution; its estimate
            # cannot improve, accept it as is.
            heapq.heappush(heap, (0.0, serial, lo, hi, val))
            serial += 1
            total_err += neg_err  # removes this segment's error
            continue
        val_l, err_l, n_l = _eval_segment(f, lo, mid)
        val_r, err_r, n_r = _eval_segment(f, mid, hi)
        evals += n_l + n_r
        total += val_l + val_r - val
        total_err += err_l + err_r + neg_err
        heapq.heappush(heap, (-err_l, serial, lo, mid, val_l))
        heapq.heappush(heap, (-err_r, serial + 1, mid, hi, val_r))
        serial += 2
        subdivisions += 1

    # Re-accumulate from the segments to avoid drift in the running sums.
    total = sum(item[4] for item in heap)
    total_err = sum(-item[0] for item in heap if item[0] <= 0.0)
    return IntegralResult(sign * total, total_err, evals)


def integrate_semi_infinite(
    f,
    a: float,
    spec: QuadratureSpec | None = None,
    *,
    decay: str = "exp",
    scale: float = 1.0,
) -> IntegralResult:
    """Integrate ``f`` over [a, inf) after mapping onto [0, 1).

    The caller declares how the integrand dies off:

    - ``decay="exp"``: substitution r = a - scale*log(1-t), suited to
      integrands falling at least like exp(-r/scale);
    - ``decay="power"``: substitution r = a + scale*t/(1-t), suited to
      integrands falling like r**q with q < -1.

    If the budget runs out with the error mass parked against t=1 the
    failure is reported as :class:`DivergenceSuspected`.
    """
    spec = spec or DEFAULT_SPEC
    a = float(a)
    s = float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    # Floor on 1-t keeps the Jacobian representable arbitrarily close to
    # t=1; a divergent integrand then shows up as huge finite values that
    # exhaust the budget instead of tripping the non-finite check.
    om_floor = 1e-150
    if decay == "exp":

        def g(t):
            om = np.maximum(1.0 - t, om_floor)
            r = a - s * np.log(om)
            return f(r) * (s / om)

        def to_t(r):
            return -math.expm1(-(r - a) / s)

    elif decay == "power":

        def g(t):
            om = np.maximum(1.0 - t, om_floor)
            r = a + s * (1.0 - om) / om
            return f(r) * (s / om) / om

        def to_t(r):
            return (r - a) / (s + (r - a))

    else:
        raise ValueError(f"unknown decay class {decay!r}")

    # Divergence probe: a convergent transformed integrand must satisfy
    # g(t)*(1-t) -> 0 as t -> 1.  Sample three depths; if the product is
    # not clearly shrinking the tail cannot be integrable.
    oms = np.array([1e-6, 1e-9, 1e-12])
    w = np.abs(np.asarray(g(1.0 - oms), dtype=float)) * oms
    if np.all(np.isfinite(w)) and w[2] > 0.0 and w[2] >= 0.8 * w.max():
        raise DivergenceSuspected(
            f"integrand tail does not look integrable under decay={decay!r} "
            f"(boundary weights {w.tolist()!r})",
            IntegralResult(math.nan, math.inf, 3),
        )

    hints = tuple(to_t(h) for h in spec.singularity_hints if h > a)
    inner = replace(spec, singularity_hints=hints)
    try:
        return integrate(g, 0.0, 1.0, inner)
    except ToleranceNotReached as exc:
        # A divergent tail parks the dominant error segment against t=1
        # and keeps it there; flag that separately so callers can treat
        # "slow" and "infinite" differently.
        if exc.worst_segment is not None and exc.worst_segment[1] > 0.999:
            raise DivergenceSuspected(str(exc), exc.result) from exc
        raise


def cumulative_segments(f, knots, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of ``f`` over each consecutive pair of ``knots``.

    Useful for building monotone cumulative tables: each piece is
    integrated independently so the partial sums are exactly the sums of
    nonnegative segment values when the integrand is nonnegative.
    """
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise ValueError("need at least two knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    out = np.empty(knots.size - 1)
    for j in range(knots.size - 1):
        out[j] = integrate(f, knots[j], knots[j + 1], spec).value
    return out


def integrate_pieces(f, lo, hi, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrals of ``f`` over each [lo[i], hi[i]] from one G7/G15 pass.

    Nothing is subdivided, so this is for integrands that are smooth on
    every piece, such as a spline between its knots.  A piece whose
    G15 - G7 gap exceeds ``max(abs_tol, rel_tol * |value|)`` raises
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
    initially at its interior edges (an edge may repeat: a zero-width
    piece contributes 0).  ``f(row, x)`` gets an index array ``row``
    aligned with the abscissae ``x``.  Each round calls ``f`` once on
    every new segment of every unconverged row and bisects, in each of
    those rows, the segments whose error is at least a quarter of the
    row's worst.  Row i is done once its error is at most
    ``max(abs_tol[i], rel_tol * |value|)`` (``abs_tol`` is one float or
    one per row); a segment at floating-point resolution is accepted as
    is.  Segments stay sorted by (row, lo), so a row's value does not
    depend on the other rows in the batch.  A row that needs more than
    ``max_subdivisions`` splits raises :class:`ToleranceNotReached`
    naming its worst segment.
    """
    spec = spec or DEFAULT_SPEC
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 2 or edges.shape[1] < 2:
        raise ValueError("edges must be a 2-d array with at least two columns")
    if np.any(np.diff(edges, axis=1) < 0):
        raise ValueError("each row's edges must be nondecreasing")
    n = edges.shape[0]
    tol_abs = np.broadcast_to(np.asarray(abs_tol, dtype=float), (n,))
    row = np.repeat(np.arange(n), edges.shape[1] - 1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    width = hi > lo
    row, lo, hi = row[width], lo[width], hi[width]
    val, err = np.empty(row.size), np.empty(row.size)
    fresh = np.ones(row.size, dtype=bool)
    splits = np.zeros(n, dtype=int)
    evals = 0
    while True:
        nodes_row = row[fresh].repeat(_NODES.size)
        val[fresh], err[fresh] = _gauss_pair(lambda x: f(nodes_row, x), lo[fresh], hi[fresh])
        evals += nodes_row.size
        mid = 0.5 * (lo + hi)
        err[(mid <= lo) | (mid >= hi)] = 0.0  # at floating-point resolution
        value = np.bincount(row, val, minlength=n)
        error = np.bincount(row, err, minlength=n)
        open_rows = error > np.maximum(tol_abs, spec.rel_tol * np.abs(value))
        if not open_rows.any():
            return value
        worst = np.zeros(n)
        np.maximum.at(worst, row, err)
        split = open_rows[row] & (err >= 0.25 * worst[row])
        splits += np.bincount(row[split], minlength=n)
        if np.any(splits > spec.max_subdivisions):
            i = int(np.argmax(splits > spec.max_subdivisions))
            j = int(np.argmax(np.where(row == i, err, -1.0)))
            raise ToleranceNotReached(
                f"row {i} needed more than {spec.max_subdivisions} subdivisions "
                f"(value={value[i]!r}, error={error[i]!r})",
                IntegralResult(float(value[i]), float(error[i]), evals),
                worst_segment=(float(lo[j]), float(hi[j])),
            )
        # each split segment becomes its two halves in place, which keeps
        # the segments sorted by (row, lo)
        reps = split + 1
        left = (np.cumsum(reps) - reps)[split]
        row, lo, hi, val, err = (a.repeat(reps) for a in (row, lo, hi, val, err))
        hi[left] = lo[left + 1] = mid[split]
        fresh = split.repeat(reps)


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
