"""Catalogue of spherically symmetric sampling densities.

A model is the radial profile f of a density f(||x||) on R^p together
with its normalizing constant, the tail-mass kernel

    F(u) = int_u^inf s f(s) ds,

the cumulative kernel moments int_0^r t^m F(t) dt, raw moments of ||X||,
and a certified polynomial tail bound.  Three parametric families carry
closed forms throughout (standard normal, polynomial-times-Gaussian,
difference of two Gaussian bells).  A fourth family interpolates
tabulated samples; its F and kernel moments are sums of exact
Gauss-Legendre pieces of t^k f(t) between the table's knots, with
closed forms below and beyond the table.

Each family is a subclass of :class:`RadialDensity` that declares its
parameter names, validates their values and owns its closed forms,
tail data and minimax-audit answers; :func:`normalize` finds it by name
in ``_FAMILIES``.  Adding a family means writing one subclass and adding
one entry to that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammainc

from sphereshrink.numerics import (
    QuadratureSpec,
    integrate_pieces,
    log_gamma,
    sphere_surface,
    upper_incomplete_gamma,
)

# Reported tail exponent for families whose density falls faster than
# any polynomial.  Consumers only ever compare it against small
# thresholds (s > 3 and friends), so any comfortably large value works;
# the certification grid still checks the bound it implies.
SUPER_EXPONENTIAL_S = 50.0

# Pieces of the tabulated integrals: the interpolant is smooth between
# its knots, so one G7/K15 pass per piece meets a relative target.
_MOMENT_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)


class ModelError(ValueError):
    """Invalid model family or parameters."""


class DivergentMoment(ModelError):
    """Requested moment does not exist for this model."""


@dataclass(frozen=True)
class TailProfile:
    """Certified bound f(r) <= L * r**-(p+s) for r >= r0."""

    r0: float
    L: float
    s: float


# -- the base class ----------------------------------------------------


class RadialDensity:
    """Normalized radial profile of a spherically symmetric density.

    Each family subclasses this type; build a model through
    :func:`normalize` or the family helpers (:func:`gaussian`,
    :func:`poly_exp`, :func:`mixture_diff`, :func:`tabulated`).  A
    family names the keys of ``params`` in ``param_names``; its
    constructor validates their values and sets ``params``,
    ``norm_const`` and ``tail_decay``, the tail class that
    ``integrate_semi_infinite`` needs for integrands carrying f or F.
    The public methods here convert their input to float arrays and call
    the family's ``_shape``, ``_big_f`` and ``_kernel_moment``; no family
    overrides them, so ``perfbench/tracer.py`` can wrap them here.
    ``moment(k)`` is the raw moment E||X||^k under the model (theta = 0).
    ``monotone`` and ``inf_ratio`` answer the minimax audit analytically,
    or return None to have it scan a grid instead.  ``knots`` lists the
    radii where f is only piecewise smooth (none for a closed form).
    Instances are immutable.
    """

    family = ""
    param_names = ()
    knots = ()

    def __new__(cls, *args, **kwargs):
        if cls is RadialDensity:
            raise ModelError("use normalize() or a family helper to build models")
        return super().__new__(cls)

    def __init__(self, p):
        if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
            raise ModelError("dimension p must be an integer")
        if p < 3:
            raise ModelError("dimension p must be at least 3")
        self.p = int(p)
        self._support = {}

    def density(self, r):
        """Normalized radial profile f(r); f(||x||) is the density."""
        return self.norm_const * self._shape(np.asarray(r, dtype=float))

    def big_f(self, u):
        """F(u) = int_u^inf s f(s) ds, vectorized over u."""
        return self._big_f(np.asarray(u, dtype=float))

    def kernel_moment(self, m: float, r):
        """int_0^r t^m F(t) dt for m > -1, vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if m <= -1 or np.any(r < 0):
            raise ValueError("kernel moments need m > -1 and r >= 0")
        return self._kernel_moment(float(m), r)

    def tail_start(self) -> tuple[float, float]:
        """(s, r0): the tail exponent and where its bound starts."""
        s = SUPER_EXPONENTIAL_S
        return s, math.sqrt(self.p + s)

    def tail_profile(self) -> TailProfile:
        """Certified polynomial envelope of the density tail."""
        s, r0 = self.tail_start()
        grid = np.geomspace(r0, r0 * 1e3, 200)
        L = float(np.max(grid ** (self.p + s) * self.density(grid))) * (1.0 + 1e-9)
        return TailProfile(r0=r0, L=L, s=s)

    def monotone(self, prop: str) -> bool | None:
        return None

    def inf_ratio(self) -> float | None:
        return None

    def support_radius(self, eps: float = 1e-12) -> float:
        """Smallest radius R with F(R) <= eps * F(0), by bisection.

        The result is kept per ``eps``, so repeated calls cost nothing.
        """
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        hi = self._support.get(eps)
        if hi is None:
            hi = self._support[eps] = self._bisect_support(eps)
        return hi

    def _bisect_support(self, eps):
        f0 = float(self.big_f(0.0))
        hi = 1.0
        while float(self.big_f(hi)) > eps * f0:
            hi *= 2.0
            if hi > 1e12:
                raise ModelError("support radius search ran away")
        lo = hi / 2.0 if hi > 1.0 else 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.big_f(mid)) > eps * f0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-9 * max(1.0, hi):
                break
        return hi

    def __repr__(self):
        ps = ", ".join(
            f"{k}=<{len(v)} pts>" if isinstance(v, np.ndarray) else f"{k}={v!r}"
            for k, v in sorted(self.params.items())
        )
        return f"RadialDensity({self.family}, p={self.p}, {ps})"


# -- families --------------------------------------------------------------


def _bell_moment(m, beta, r):
    """int_0^r t^m exp(-beta t^2) dt for m > -1, as a regularized incomplete gamma."""
    a = 0.5 * (m + 1.0)
    return 0.5 * beta ** (-a) * math.gamma(a) * gammainc(a, beta * r * r)


class _Gaussian(RadialDensity):
    family = "gaussian"

    def __init__(self, params, p):
        super().__init__(p)
        self.params = {}
        self.norm_const = (2.0 * math.pi) ** (-0.5 * self.p)
        self.tail_decay = {"decay": "exp", "scale": 1.0}

    def _shape(self, r):
        return np.exp(-0.5 * r**2)

    def _big_f(self, u):
        return self.norm_const * np.exp(-0.5 * u**2)

    def _kernel_moment(self, m, r):
        return self.norm_const * _bell_moment(m, 0.5, r)

    def moment(self, k):
        p = self.p
        if p + k <= 0:
            raise DivergentMoment(f"moment {k} diverges for p={p}")
        return math.exp(0.5 * k * math.log(2.0) + log_gamma(0.5 * (p + k)) - log_gamma(0.5 * p))

    def monotone(self, prop):
        return True

    def inf_ratio(self):
        return 1.0


class _PolyExp(RadialDensity):
    """r^alpha exp(-beta r^2)."""

    family = "poly_exp"
    param_names = ("alpha", "beta")

    def __init__(self, params, p):
        super().__init__(p)
        alpha = float(params.get("alpha", math.nan))
        beta = float(params.get("beta", math.nan))
        if not (alpha >= 0.0):
            raise ModelError("poly_exp requires alpha >= 0")
        if not (beta > 0.0):
            raise ModelError("poly_exp requires beta > 0")
        self.params = {"alpha": alpha, "beta": beta}
        self.alpha, self.beta = alpha, beta
        # c_p K int r^{p-1+alpha} e^{-beta r^2} dr = 1
        p = self.p
        log_half_moment = -math.log(2.0) - 0.5 * (p + alpha) * math.log(beta) + log_gamma(0.5 * (p + alpha))
        self.norm_const = math.exp(-math.log(sphere_surface(p)) - log_half_moment)
        self.tail_decay = {"decay": "exp", "scale": 1.0 / math.sqrt(2.0 * beta)}

    def _shape(self, r):
        return r**self.alpha * np.exp(-self.beta * r**2)

    def _big_f(self, u):
        s = 0.5 * self.alpha + 1.0
        pref = 0.5 * self.beta ** (-s)
        return self.norm_const * pref * upper_incomplete_gamma(s, self.beta * u**2)

    def _kernel_moment(self, m, r):
        # by parts, with F'(t) = -t f(t): both terms are nonnegative
        head = r ** (m + 1.0) * self._big_f(r)
        return (head + self.norm_const * _bell_moment(m + 2.0 + self.alpha, self.beta, r)) / (m + 1.0)

    def moment(self, k):
        p, alpha, beta = self.p, self.alpha, self.beta
        if p + k + alpha <= 0:
            raise DivergentMoment(f"moment {k} diverges for p={p}, alpha={alpha}")
        return math.exp(
            -0.5 * k * math.log(beta)
            + log_gamma(0.5 * (p + k + alpha))
            - log_gamma(0.5 * (p + alpha))
        )

    def tail_start(self):
        s = SUPER_EXPONENTIAL_S
        return s, math.sqrt((self.p + s + self.alpha) / (2.0 * self.beta))

    def monotone(self, prop):
        if prop == "F_over_t2f_nonincreasing":
            return True
        # interior mode at sqrt(alpha/2 beta) unless alpha = 0; the
        # kernel ratio is constant at alpha = 0 and strictly falling otherwise
        return self.alpha == 0.0

    def inf_ratio(self):
        return 1.0 / (2.0 * self.beta)


class _MixtureDiff(RadialDensity):
    """exp(-r^2/2) - a exp(-r^2/(2b)); its tail bound is the gaussian's since b < 1."""

    family = "mixture_diff"
    param_names = ("a", "b")

    def __init__(self, params, p):
        super().__init__(p)
        a = float(params.get("a", math.nan))
        b = float(params.get("b", math.nan))
        if not (0.0 < a <= 1.0):
            raise ModelError("mixture_diff requires 0 < a <= 1")
        if not (0.0 < b < 1.0):
            raise ModelError("mixture_diff requires 0 < b < 1")
        self.params = {"a": a, "b": b}
        self.a, self.b = a, b
        self.norm_const = 1.0 / ((2 * math.pi) ** (0.5 * self.p) * (1.0 - a * b ** (0.5 * self.p)))
        self.tail_decay = {"decay": "exp", "scale": math.sqrt(b) if b > 0.25 else 0.5}

    def _shape(self, r):
        return np.exp(-0.5 * r**2) - self.a * np.exp(-0.5 * r**2 / self.b)

    def _big_f(self, u):
        return self.norm_const * (np.exp(-0.5 * u**2) - self.a * self.b * np.exp(-0.5 * u**2 / self.b))

    def _kernel_moment(self, m, r):
        # the second bell is at most ab < 1 times the first, so the
        # difference loses at most a factor 1/(1 - ab) to cancellation
        a, b = self.a, self.b
        return self.norm_const * (_bell_moment(m, 0.5, r) - a * b * _bell_moment(m, 0.5 / b, r))

    def moment(self, k):
        p, a, b = self.p, self.a, self.b
        if p + k <= 0:
            raise DivergentMoment(f"moment {k} diverges for p={p}")

        def half_moment(var, m):
            return (2.0 * var) ** (0.5 * m) * math.exp(log_gamma(0.5 * m))

        num = half_moment(1.0, p + k) - a * half_moment(b, p + k)
        den = half_moment(1.0, p) - a * half_moment(b, p)
        return num / den

    def monotone(self, prop):
        if prop == "F_over_t2f_nonincreasing":
            return True
        if prop == "f_nonincreasing":
            return self.a <= self.b
        return False  # (1 - bw)/(1 - w) rises in w, and w falls in t

    def inf_ratio(self):
        return 1.0  # large-t limit; the ratio falls toward it


class _Tabulated(RadialDensity):
    """PCHIP in log-log through samples, constant below the table, power tail above."""

    family = "tabulated"
    param_names = ("r", "f")

    def __init__(self, params, p):
        super().__init__(p)
        if "r" not in params or "f" not in params:
            raise ModelError("tabulated requires 'r' and 'f' arrays")
        r = np.asarray(params["r"], dtype=float)
        f = np.asarray(params["f"], dtype=float)
        self.params = {"r": r, "f": f}
        if r.ndim != 1 or r.shape != f.shape or r.size < 8:
            raise ModelError("tabulated model needs matching 1-d grids with >= 8 points")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise ModelError("tabulated radii must be positive and strictly increasing")
        if np.any(f <= 0):
            raise ModelError("tabulated density samples must be strictly positive")
        # Tail exponent from a log-log fit over the last decade of knots.
        mask = r >= r[-1] / 10.0
        if mask.sum() < 4:
            mask = np.zeros_like(mask)
            mask[-4:] = True
        slope = np.polyfit(np.log(r[mask]), np.log(f[mask]), 1)[0]
        q = -slope
        if q <= self.p + 1.0:
            raise ModelError("tabulated tail decays too slowly to normalize")
        self.q = float(q)
        self._logf = PchipInterpolator(np.log(r), np.log(f), extrapolate=False)
        self.r = r
        self.f = f
        self.knots = tuple(r)
        self.tail_decay = {"decay": "power", "scale": 1.0}
        # the PCHIP's pieces, split further so that one G7/K15 pass
        # integrates t^k shape(t) over each
        self._knots = np.unique(np.concatenate([r, np.geomspace(r[0], r[-1], 4 * r.size)]))
        self._sums = {}
        self.norm_const = 1.0 / (sphere_surface(self.p) * self._above(self.p - 1.0, 0.0))

    def _pieces(self, k, lo, hi):
        return integrate_pieces(lambda t: t**k * self._shape(t), lo, hi, _MOMENT_SPEC)

    def _table(self, k):
        """Prefix and suffix sums of int t^k shape(t) dt over the knot intervals."""
        sums = self._sums.get(k)
        if sums is None:
            pieces = self._pieces(k, self._knots[:-1], self._knots[1:])
            sums = self._sums[k] = (
                np.concatenate([[0.0], np.cumsum(pieces)]),
                np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]]),
            )
        return sums

    # The profile is held at f[0] below r[0] and is f[-1] (t/r[-1])^-q
    # beyond r[-1], so both ends of these integrals are closed forms.

    def _below(self, k, r):
        """int_0^r t^k shape(t) dt for k > -1."""
        r0, r_hi, kn = self.r[0], self.r[-1], self._knots
        x = np.clip(r, r0, r_hi)
        j = np.searchsorted(kn, x, side="right") - 1
        body = self._table(k)[0][j] + self._pieces(k, kn[j], x)
        head = self.f[0] * np.minimum(r, r0) ** (k + 1.0) / (k + 1.0)
        e = k + 1.0 - self.q
        log_rho = np.log(np.maximum(r, r_hi) / r_hi)
        growth = log_rho if e == 0.0 else np.expm1(e * log_rho) / e
        return head + body + self.f[-1] * r_hi ** (k + 1.0) * growth

    def _above(self, k, u):
        """int_u^inf t^k shape(t) dt for -1 < k < q - 1."""
        r0, r_hi, kn = self.r[0], self.r[-1], self._knots
        x = np.clip(u, r0, r_hi)
        j = np.searchsorted(kn, x, side="left")
        body = self._table(k)[1][j] + self._pieces(k, x, kn[j])
        head = self.f[0] * (r0 ** (k + 1.0) - np.minimum(u, r0) ** (k + 1.0)) / (k + 1.0)
        e = k + 1.0 - self.q
        return head + body + self.f[-1] * r_hi ** (k + 1.0) * (np.maximum(u, r_hi) / r_hi) ** e / -e

    def _shape(self, r):
        r0, r_hi = self.r[0], self.r[-1]
        inside = np.exp(self._logf(np.log(np.clip(r, r0, r_hi))))
        return np.where(r > r_hi, self.f[-1] * (np.maximum(r, r_hi) / r_hi) ** -self.q, inside)

    def _big_f(self, u):
        return self.norm_const * self._above(1.0, u)

    def _kernel_moment(self, m, r):
        # by parts, with F'(t) = -t f(t): both terms are nonnegative
        return (r ** (m + 1.0) * self._big_f(r) + self.norm_const * self._below(m + 2.0, r)) / (m + 1.0)

    def moment(self, k):
        p, q = self.p, self.q
        if p + k - q >= 0:
            raise DivergentMoment(f"moment {k} diverges for tabulated tail exponent {q}")
        if p + k <= 0:
            raise DivergentMoment(f"moment {k} diverges at the origin for p={p}")
        return sphere_surface(p) * self.norm_const * self._above(p + k - 1.0, 0.0)

    def tail_profile(self):
        # r^q f(r) is flat beyond the table, so its sup over r >= r[0] is
        # that of q log r + log f on the log-log PCHIP: at a knot or where
        # the cubic's slope is -q
        x = np.log(self.r)
        crit = self._logf.derivative().solve(-self.q, extrapolate=False)
        at = np.concatenate([x, crit[np.isfinite(crit)]])
        L = float(np.max(np.exp(self.q * at + self._logf(at)))) * self.norm_const * (1.0 + 1e-9)
        return TailProfile(r0=self.r[0], L=L, s=self.q - self.p)


_FAMILIES = {cls.family: cls for cls in (_Gaussian, _PolyExp, _MixtureDiff, _Tabulated)}


def normalize(family: str, params: dict, p: int) -> RadialDensity:
    """Validate parameters and build a normalized model."""
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ModelError(f"unknown family {family!r}")
    unknown = sorted(set(params) - set(cls.param_names))
    if unknown:
        raise ModelError(f"{family} takes parameters {list(cls.param_names)}, not {unknown}")
    return cls(dict(params), p)


def gaussian(p: int) -> RadialDensity:
    return normalize("gaussian", {}, p)


def poly_exp(alpha: float, beta: float, p: int) -> RadialDensity:
    return normalize("poly_exp", {"alpha": alpha, "beta": beta}, p)


def mixture_diff(a: float, b: float, p: int) -> RadialDensity:
    return normalize("mixture_diff", {"a": a, "b": b}, p)


def tabulated(r, f, p: int) -> RadialDensity:
    return normalize("tabulated", {"r": r, "f": f}, p)
