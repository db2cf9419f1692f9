"""The shrinkage estimator and its radial weight function.

phi(r) = A(r)/B(r) is a ratio of two cumulative moments of the tail
kernel F, A = int_0^r t^{p-1} F and B = int_0^r t^{p-3} F, which every
model family supplies exactly as ``kernel_moment``; the estimator
multiplies the observation by 1 - psi(||x||) with psi = phi/r^2.  For
simulation code that calls the estimator millions of times, psi is
tabulated once as a cubic Hermite spline with exact knot values and
slopes, checked against the exact moments between every pair of knots.
A lookup finds its knot interval without a binary search: an array of
radii through a guide table over log r (``numerics.CubicTable``), one
radius through ``bisect``; either way the weight is bitwise the value
scipy's spline gives.  The quadrature ratio ``phi_star`` is kept as an
independent oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from sphereshrink.numerics import CubicTable, QuadratureSpec, integrate
from sphereshrink.radial_models import RadialDensity
from sphereshrink.radial_convolution import gb_marginals
from sphereshrink.rv_priors import RadialPrior

# Knots of the profile's geometric grid (an origin knot comes on top).
_KNOTS = 1025


class ShrinkageError(Exception):
    """Bad estimator request."""


def _check_dims(model: RadialDensity, p: int):
    if p != model.p:
        raise ShrinkageError(f"dimension argument {p} does not match the model's {model.p}")
    if p < 3:
        raise ShrinkageError("need p >= 3")


def phi_star(model: RadialDensity, p: int, r: float) -> float:
    """Shrinkage weight as the ratio of cumulative kernel moments.

    phi(r) = int_0^r t^{p-1} F(t) dt / int_0^r t^{p-3} F(t) dt
    """
    _check_dims(model, p)
    if r <= 0:
        raise ShrinkageError("r must be positive")
    spike = model.support_radius(1e-16)
    hints = (spike,) if r > spike else ()
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400,
                          singularity_hints=hints)
    num = integrate(lambda t: t ** (p - 1.0) * model.big_f(t), 0.0, r, spec).value
    den = integrate(lambda t: t ** (p - 3.0) * model.big_f(t), 0.0, r, spec).value
    return num / den


def phi_limit(model: RadialDensity, p: int) -> float:
    """Large-r limit of the weight: (p-2) E_0 ||X||^2 / p."""
    _check_dims(model, p)
    return (p - 2.0) * model.moment(2.0) / p


@dataclass(frozen=True)
class ShrinkageProfile:
    """Precomputed weight curve for one model.

    ``_psi`` interpolates psi = phi/r^2 from its exact origin value
    (p-2)/p to the last grid radius.  Beyond the grid the weight is
    within 1% of its limit and phi is held at its last value.  It is a
    ``numerics.CubicTable`` over log r: an array of radii finds its knot
    intervals in O(1) through the table's guide buckets and one knot
    comparison each, a single radius through ``bisect`` and Python
    floats, and both return bitwise what scipy's ``CubicHermiteSpline``
    would.  nan gives nan.
    """

    model: RadialDensity = field(compare=False)
    p: int
    r_grid: np.ndarray = field(compare=False)
    limit_value: float
    _psi: CubicTable = field(compare=False, repr=False)

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.psi(r)) * r * r
        return out if out.ndim else float(out)

    def psi(self, r):
        """The ratio phi(r)/r^2, continuous down to psi(0) = (p-2)/p."""
        hi = float(self.r_grid[-1])
        if isinstance(r, float) or np.ndim(r) == 0:
            r = float(r)
            return self._psi(min(max(r, 0.0), hi)) * (hi / max(r, hi)) ** 2
        r = np.asarray(r, dtype=float)
        return self._psi(np.clip(r, 0.0, hi)) * (hi / np.maximum(r, hi)) ** 2

    def multiplier(self, r):
        """Estimator factor 1 - phi(r)/r^2, equal to 2/p at r = 0."""
        return 1.0 - self.psi(r)


def build_profile(model: RadialDensity) -> ShrinkageProfile:
    """Tabulate psi = phi/r^2 as one cubic Hermite spline.

    Knot values and slopes are exact: from the kernel moments A and B,
    phi' = r^{p-3} F (r^2 B - A) / B^2 = r^{p-3} F (r^2 - phi) / B, and
    at the origin knot psi(0) = (p-2)/p, psi'(0) = 0.  phi is checked,
    through the table the estimator evaluates, against the exact moment
    ratio at every interval midpoint, and ShrinkageError is raised if it
    misses by more than 1e-6 of max(1, limit).
    """
    p = model.p
    limit = phi_limit(model, p)
    r_max = max(1.25 * model.support_radius(1e-10), 20.0)
    grid = np.geomspace(1e-3, r_max, _KNOTS)
    knots = np.concatenate(([0.0], grid))
    mids = 0.5 * (knots[:-1] + knots[1:])
    r = np.concatenate((grid, mids))
    a = model.kernel_moment(p - 1.0, r)
    b = model.kernel_moment(p - 3.0, r)
    phi, phi_mids = np.split(a / b, [_KNOTS])

    dphi = grid ** (p - 3.0) * model.big_f(grid) * (grid**2 - phi) / b[:_KNOTS]
    psi = np.concatenate(([(p - 2.0) / p], phi / grid**2))
    dpsi = np.concatenate(([0.0], (dphi - 2.0 * phi / grid) / grid**2))
    spline = CubicTable(CubicHermiteSpline(knots, psi, dpsi), np.log)

    worst = float(np.max(np.abs(spline(mids) * mids**2 - phi_mids)))
    if not worst <= 1e-6 * max(1.0, limit):
        raise ShrinkageError(f"profile interpolant misses phi by {worst:.3g} at an interval midpoint")
    return ShrinkageProfile(model, p, grid, limit, spline)


_PROFILES: "weakref.WeakKeyDictionary[RadialDensity, ShrinkageProfile]" = weakref.WeakKeyDictionary()


def _cached_profile(model: RadialDensity) -> ShrinkageProfile:
    prof = _PROFILES.get(model)
    if prof is None:
        prof = build_profile(model)
        _PROFILES[model] = prof
    return prof


def estimate(model: RadialDensity, p: int, x) -> np.ndarray:
    """Shrunk location estimate (1 - phi(||x||)/||x||^2) x, with 0 -> 0."""
    _check_dims(model, p)
    x = np.asarray(x, dtype=float)
    if x.shape != (p,):
        raise ShrinkageError(f"x must be a vector of length {p}")
    r = float(np.linalg.norm(x))
    return float(_cached_profile(model).multiplier(r)) * x


def gb_multiplier(prior: RadialPrior, model: RadialDensity, p: int, r: float) -> float:
    """Posterior-mean factor kappa with delta_g(x) = kappa(||x||) x.

    Splitting theta along and across x gives
    kappa = 1 + S / (r m), where S is the cos-weighted marginal and m
    the plain one, both from one sweep of the convolution oracle.
    """
    _check_dims(model, p)
    if prior.p != p:
        raise ShrinkageError("prior dimension does not match")
    if r <= 0:
        raise ShrinkageError("r must be positive")
    m, s = gb_marginals(prior, model, r)
    return 1.0 + s / (r * m)
