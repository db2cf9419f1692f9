"""The shrinkage estimator and its radial weight function.

phi(r) is a ratio of two cumulative moments of the tail kernel F; the
estimator multiplies the observation by 1 - phi(||x||)/||x||^2.  The
weight is computed once on a geometric grid by accumulating both
integrals segment by segment, then interpolated with a shape-preserving
rule so simulation code can call the estimator millions of times.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from sphereshrink.numerics import QuadratureSpec, integrate
from sphereshrink.radial_models import RadialDensity
from sphereshrink.radial_convolution import directional_marginal, marginal_m
from sphereshrink.rv_priors import RadialPrior

_SEG_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=5e-13, max_subdivisions=200)


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


def phi_star_scaled(model: RadialDensity, p: int, r: float) -> float:
    """Same weight through the unit-interval form r^2 * int t^{p-1}F(rt) / int t^{p-3}F(rt)."""
    _check_dims(model, p)
    if r <= 0:
        raise ShrinkageError("r must be positive")
    spike = model.support_radius(1e-16)
    hints = (spike / r,) if r > spike else ()
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400,
                          singularity_hints=hints)
    num = integrate(lambda t: t ** (p - 1.0) * model.big_f(r * t), 0.0, 1.0, spec).value
    den = integrate(lambda t: t ** (p - 3.0) * model.big_f(r * t), 0.0, 1.0, spec).value
    return r * r * num / den


def phi_limit(model: RadialDensity, p: int) -> float:
    """Large-r limit of the weight: (p-2) E_0 ||X||^2 / p."""
    _check_dims(model, p)
    return (p - 2.0) * model.moment(2.0) / p


@dataclass(frozen=True)
class ShrinkageProfile:
    """Precomputed weight curve for one model.

    Beyond the grid the weight is within 1% of its limit and is held at
    its last computed value; below the grid the ratio phi/r^2 is
    interpolated through its exact origin value (p-2)/p.
    """

    model: RadialDensity = field(compare=False)
    p: int
    r_grid: np.ndarray = field(compare=False)
    phi_values: np.ndarray = field(compare=False)
    limit_value: float
    _phi_interp: PchipInterpolator = field(compare=False, repr=False)
    _psi_interp: PchipInterpolator = field(compare=False, repr=False)

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.r_grid[0], self.r_grid[-1]
        rc = np.clip(r, lo, hi)
        out = np.asarray(self._phi_interp(rc))
        out = np.where(r < lo, self._psi_interp(np.minimum(r, lo)) * r * r, out)
        out = np.where(r > hi, self.phi_values[-1], out)
        return out if out.ndim else float(out)

    def psi(self, r):
        """The ratio phi(r)/r^2, continuous down to psi(0) = (p-2)/p."""
        r = np.asarray(r, dtype=float)
        hi = self.r_grid[-1]
        inside = self._psi_interp(np.clip(r, 0.0, hi))
        with np.errstate(divide="ignore"):
            beyond = self.phi_values[-1] / np.where(r > 0, r * r, 1.0)
        out = np.where(r > hi, beyond, inside)
        return out if out.ndim else float(out)

    def multiplier(self, r):
        """Estimator factor 1 - phi(r)/r^2, equal to 2/p at r = 0."""
        out = 1.0 - np.asarray(self.psi(r))
        return out if out.ndim else float(out)


def build_profile(model: RadialDensity, *, n: int = 257, r_max: float | None = None) -> ShrinkageProfile:
    """Accumulate phi along a geometric grid and wrap it for interpolation.

    The two cumulative integrals are extended segment by segment, so the
    full curve costs one pass.  The grid is refined (up to twice) until
    the interpolant reproduces directly computed values to 1e-6 of the
    limit; if the last grid still misses, ShrinkageError is raised.
    """
    p = model.p
    if n < 16:
        raise ShrinkageError("grid too coarse")
    limit = phi_limit(model, p)
    if r_max is None:
        r_max = max(1.25 * model.support_radius(1e-10), 20.0)

    for _ in range(3):
        grid = np.geomspace(1e-3, r_max, n)
        num = 0.0
        den = 0.0
        nums = np.empty(n)
        dens = np.empty(n)
        lo = 0.0
        for j, hi in enumerate(grid):
            num += integrate(lambda t: t ** (p - 1.0) * model.big_f(t), lo, hi, _SEG_SPEC).value
            den += integrate(lambda t: t ** (p - 3.0) * model.big_f(t), lo, hi, _SEG_SPEC).value
            nums[j] = num
            dens[j] = den
            lo = hi
        phi = nums / dens
        phi_interp = PchipInterpolator(grid, phi, extrapolate=False)
        psi_grid = np.concatenate(([0.0], grid))
        psi_vals = np.concatenate(([(p - 2.0) / p], phi / grid**2))
        psi_interp = PchipInterpolator(psi_grid, psi_vals, extrapolate=False)

        # check the interpolant where it bends hardest, plus a spread;
        # pchip's error peaks off-center, so hot intervals get three probes
        curv = np.abs(np.diff(phi, 2))
        hot = np.argsort(curv)[-24:]
        spread = np.arange(0, n - 1, max(1, (n - 1) // 12))
        probes = [np.sqrt(grid[j] * grid[j + 1]) for j in spread]
        for j in np.unique(np.concatenate((hot, hot + 1))):
            a, b = grid[j], grid[j + 1]
            probes.extend(a + f * (b - a) for f in (0.2, 0.5, 0.8))
        worst = max(abs(float(phi_interp(rp)) - phi_star(model, p, float(rp))) for rp in probes)
        if worst <= 1e-6 * max(1.0, limit):
            break
        n = 2 * n - 1
    else:
        raise ShrinkageError(f"profile interpolant misses phi by {worst:.3g} after three grid refinements")
    return ShrinkageProfile(model, p, grid, phi, limit, phi_interp, psi_interp)


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
    the plain one.
    """
    _check_dims(model, p)
    if prior.p != p:
        raise ShrinkageError("prior dimension does not match")
    if r <= 0:
        raise ShrinkageError("r must be positive")
    m = marginal_m(prior, model, r)
    s = directional_marginal(prior.g_eval, model, r, singularity_class=prior.origin_class)
    return 1.0 + s / (r * m)
