"""The shrinkage estimator and its radial weight function.

phi(r) = A(r)/B(r) is a ratio of two cumulative moments of the tail
kernel F, A = int_0^r t^{p-1} F and B = int_0^r t^{p-3} F, which every
model family supplies exactly as ``kernel_moment``; the estimator
multiplies the observation by 1 - psi(||x||) with psi = phi/r^2.  For
simulation code that calls the estimator millions of times, psi is
tabulated once, from r = 0 to r = inf, as a ``numerics.WeightTable``
checked against the exact moments between every pair of knots.  The
quadrature ratio ``phi_star`` is kept as an independent oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from sphereshrink._domain import radius, same_dimension
from sphereshrink.numerics import QuadratureSpec, WeightTable, integrate
from sphereshrink.radial_models import RadialDensity
from sphereshrink.radial_convolution import _power_on_bells, gb_marginals
from sphereshrink.rv_priors import RadialPrior

# Knots of the profile's geometric grid (an origin knot comes on top).
_KNOTS = 1025


class ShrinkageError(Exception):
    """Bad estimator request."""


def phi_star(model: RadialDensity, p: int, r: float) -> float:
    """Shrinkage weight as the ratio of cumulative kernel moments.

    phi(r) = int_0^r t^{p-1} F(t) dt / int_0^r t^{p-3} F(t) dt

    for a positive and finite r, both integrals split at the kernel's
    support radius ``support_radius(1e-16)`` when r is beyond it (a
    repeated edge r drops out when it is not).
    """
    same_dimension(ShrinkageError, model, p=p)
    r = radius(r, ShrinkageError, positive=True)
    edges = [0.0, min(model.support_radius(1e-16), r), r]
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400)
    num = integrate(lambda t: t ** (p - 1.0) * model.big_f(t), edges, spec).value
    den = integrate(lambda t: t ** (p - 3.0) * model.big_f(t), edges, spec).value
    return num / den


def _exact_phi(model: RadialDensity, r):
    """phi = A/B from the two kernel moments, exact where both are representable."""
    return model.kernel_moment(model.p - 1.0, r) / model.kernel_moment(model.p - 3.0, r)


def phi_limit(model: RadialDensity, p: int) -> float:
    """Large-r limit of the weight: (p-2) E_0 ||X||^2 / p."""
    same_dimension(ShrinkageError, model, p=p)
    return (p - 2.0) * model.moment(2.0) / p


def tail_power(model: RadialDensity) -> float:
    """beta such that phi, and the GB weight's phi, close on their limits about linearly in r^-beta.

    A power tail f ~ r^-q leaves the rest of E||X||^2 beyond r, of order
    r^-(q-p-2), in both; other corrections fall like r^-2 or faster, so
    beta = min(1, q - p - 2), and 1 for a tail that falls faster than any
    power.
    """
    q = model.power_tail()
    return 1.0 if q is None else min(1.0, q - model.p - 2.0)


@dataclass(frozen=True)
class ShrinkageProfile:
    """Precomputed weight curve for one model.

    ``table`` is a ``numerics.WeightTable``: its head interpolates
    psi = phi/r^2 from the exact origin value (p-2)/p to the end of
    ``r_grid``, max(1.25 * support_radius(1e-10), 20); its tail, in
    r^-beta (``tail_power``), carries phi from there to ``limit_value``
    at r = inf.
    """

    model: RadialDensity = field(compare=False)
    p: int
    r_grid: np.ndarray = field(compare=False)
    limit_value: float
    table: WeightTable = field(compare=False, repr=False)

    def phi(self, r):
        return self.table.phi(r)

    def psi(self, r):
        """The ratio phi(r)/r^2, equal to (p-2)/p at r = 0."""
        return self.table.psi(r)

    def multiplier(self, r):
        """Estimator factor 1 - phi(r)/r^2, equal to 2/p at r = 0."""
        return 1.0 - self.table.psi(r)


def build_profile(model: RadialDensity) -> ShrinkageProfile:
    """Tabulate psi = phi/r^2 as a ``numerics.WeightTable``.

    The head's knot values and slopes are exact: from the kernel moments
    A and B, phi' = r^{p-3} F (r^2 B - A) / B^2 = r^{p-3} F (r^2 - phi) / B,
    and at the origin knot psi(0) = (p-2)/p, psi'(0) = 0.  phi is checked,
    through the table, against the exact moment ratio at every interval
    midpoint of the head and of the tail, whose lead is the limit, and
    ShrinkageError is raised if it misses by more than 1e-6 of
    max(1, limit).
    """
    p = model.p
    limit = phi_limit(model, p)
    r_max = max(1.25 * model.support_radius(1e-10), 20.0)
    grid = np.geomspace(1e-3, r_max, _KNOTS)
    b = model.kernel_moment(p - 3.0, grid)
    phi_k = model.kernel_moment(p - 1.0, grid) / b
    dphi = grid ** (p - 3.0) * model.big_f(grid) * (grid**2 - phi_k) / b
    psi = np.concatenate(([(p - 2.0) / p], phi_k / grid**2))
    dpsi = np.concatenate(([0.0], (dphi - 2.0 * phi_k / grid) / grid**2))
    table = WeightTable(np.concatenate(([0.0], grid)), psi, dpsi, lambda r: _exact_phi(model, r), lambda r: limit, tail_power(model),
                        1e-6 * max(1.0, limit), ShrinkageError, "profile interpolant misses phi")
    return ShrinkageProfile(model, p, grid, limit, table)


_PROFILES: "weakref.WeakKeyDictionary[RadialDensity, ShrinkageProfile]" = weakref.WeakKeyDictionary()


def _cached_profile(model: RadialDensity) -> ShrinkageProfile:
    prof = _PROFILES.get(model)
    if prof is None:
        prof = build_profile(model)
        _PROFILES[model] = prof
    return prof


def estimate(model: RadialDensity, p: int, x) -> np.ndarray:
    """Shrunk location estimate (1 - phi(||x||)/||x||^2) x, with 0 -> 0, for a finite x."""
    same_dimension(ShrinkageError, model, p=p)
    x = np.asarray(x, dtype=float)
    if x.shape != (p,):
        raise ShrinkageError(f"x must be a vector of length {p}")
    r = radius(float(np.linalg.norm(x)), ShrinkageError, "||x||")
    return float(_cached_profile(model).multiplier(r)) * x


def gb_multiplier(prior: RadialPrior, model: RadialDensity, p: int, r: float) -> float:
    """Posterior-mean factor kappa with delta_g(x) = kappa(||x||) x.

    Splitting theta along and across x gives kappa = 1 + S / (r m), where
    S is the cos-weighted marginal and m the plain one (``gb_marginals``).
    Outside the two closed cases below they are one request of the
    convolution oracle: for a gaussian-family model, the radial rows of
    its bells (S is r (M / (p v) - m) for one bell of variance v, so
    kappa holds to a few ulps of 1), and for any other model one 2-d
    sweep.
    For a declared pure power g(eta) = eta^k on a sum of gaussian bells
    of variances v_j, 1 - kappa is closed, -(k/p) times a ratio of Kummer
    sums, sum_j C_j 1F1(1 - k/2; p/2 + 1; -x_j) / sum_j C_j 1F1(-k/2; p/2; -x_j)
    with x_j = r^2/(2 v_j), from which r^k cancels far out, so kappa is
    finite where m underflows (``radial_convolution._power_on_bells``).
    For the harmonic g(eta) = eta^{2-p}, kappa is the shrinkage profile's
    1 - phi(r)/r^2: since F'(t) = -t f(t), S is d/dr of
    int g(theta) F(||theta - x||) dtheta, and by the mean-value property
    of g that integral is c_p [r^{2-p} A(r) + int_r^inf t F(t) dt], so
    S = -c_p (p - 2) r^{1-p} A(r) (the two r F(r) terms of its
    derivative cancel); with m = c_p (p - 2) r^{2-p} B(r), S / (r m) is
    -A / (r^2 B).  Where r^p < 1e-290, A would underflow, and kappa
    takes its limit 2/p.  r must be positive and finite, and the model,
    the prior and p must agree on the dimension.
    """
    same_dimension(ShrinkageError, model, prior, p)
    r = radius(r, ShrinkageError, positive=True)
    if prior.harmonic:
        if r < 1.0 and r**p < 1e-290:  # r^p alone would overflow far out
            return 2.0 / p
        return 1.0 - float(_exact_phi(model, r)) / r / r
    bells = model.bells()
    if prior.pure_power is not None and bells is not None:
        return 1.0 - _power_on_bells(bells, p, prior.pure_power, r)[2]
    m, s = gb_marginals(prior, model, r)
    return 1.0 + s / (r * m)
