"""Closed-form integral identities checked by quadrature.

Each check evaluates an angular or radial integral two ways: brute
quadrature on one side, beta/gamma closed form on the other, and reports
the relative discrepancy.  The interesting one is the weighted angular
integral whose value is independent of the radial mixing parameter; the
standard-table version of that formula is wrong, which is exactly why it
deserves a numeric check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from sphereshrink._domain import integer, radius, real
from sphereshrink.numerics import QuadratureSpec, beta_fn, integrate, integrate_half_lines, sphere_surface
from sphereshrink.radial_models import RadialDensity

_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=800)


class IdentityError(ValueError):
    """Parameters outside the range where an identity is checked."""


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: both sides and their relative gap."""

    identity: str
    params: dict = field(compare=False)
    lhs: float
    rhs: float
    rel_error: float


def _check(identity: str, params: dict, lhs: float, rhs: float) -> IdentityCheck:
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return IdentityCheck(identity, params, lhs, rhs, rel)


def gegenbauer_identity(alpha: float, a: float) -> IdentityCheck:
    """Angular integral with a quadratic weight; the mix parameter drops out.

    int_0^pi (1 + 2 a cos(phi) + a^2)^(-alpha) sin(phi)^(2 alpha) dphi
          = B(alpha + 1/2, 1/2)

    for alpha > -1/2 and |a| < 1.  Values of |a| beyond 0.99 are refused:
    the identity still holds but the integrand turns into a near-endpoint
    spike and the check would measure the integrator, not the formula.
    The spike sits at phi = 0 or pi, so both are hinted, and the row
    starts from ``integrate``'s ratio-2 ladders toward both ends.
    """
    alpha = real(alpha, IdentityError, "alpha", -0.5)
    a = real(a, IdentityError, "mixing parameter a", -0.99, 0.99, "[]")

    def integrand(phi):
        w = 1.0 + 2.0 * a * np.cos(phi) + a * a
        return w ** (-alpha) * np.sin(phi) ** (2.0 * alpha)

    lhs = integrate(integrand, 0.0, math.pi, replace(_SPEC, singularity_hints=(0.0, math.pi))).value
    rhs = beta_fn(alpha + 0.5, 0.5)
    return _check("gegenbauer", {"alpha": alpha, "a": a}, lhs, rhs)


def min_power_identity(p: int, t: float) -> IdentityCheck:
    """Angular power integral collapsing to min(t^{2-p}, 1).

    int_0^pi (1 + 2 t cos(phi) + t^2)^(1 - p/2) sin(phi)^(p-2) dphi
          = B(p/2 - 1/2, 1/2) * min(t^{2-p}, 1)

    Near t = 1 the integrand develops a boundary layer of width |1 - t|
    at phi = pi (an integrable kink at t = 1 exactly).  The endpoint
    hint pi starts the row from ``integrate``'s ratio-2 ladder toward
    the layer, down to pi/64; within 1e-2 of t = 1 a geometric ladder of
    interior split points brackets the thinner layer as well.  Without
    them the error estimator can report convergence on the unresolved
    spike.  p is an integer >= 3 and t is positive and finite.
    """
    p, t = integer(p, IdentityError), radius(t, IdentityError, "t", positive=True)

    def integrand(phi):
        # half-angle form of 1 + 2 t cos(phi) + t^2: no cancellation at
        # phi = pi, where the naive expression rounds to zero for t = 1
        c = np.cos(0.5 * phi)
        w = (1.0 - t) ** 2 + 4.0 * t * c * c
        return w ** (1.0 - 0.5 * p) * np.sin(phi) ** (p - 2.0)

    hints = (math.pi,)
    if abs(t - 1.0) < 1e-2:
        base = max(abs(t - 1.0), 1e-9)
        hints += tuple(math.pi - base * k for k in (1.0, 32.0, 1024.0, 32768.0))
    lhs = integrate(integrand, 0.0, math.pi, replace(_SPEC, singularity_hints=hints)).value
    rhs = beta_fn(0.5 * p - 0.5, 0.5) * min(t ** (2.0 - p), 1.0)
    return _check("min_power", {"p": p, "t": t}, lhs, rhs)


def kernel_mass_identity(model: RadialDensity, order: float) -> IdentityCheck:
    """Weighted mass of the tail kernel against a plain density moment.

    int_{R^p} ||y||^s F(||y||) dy = c_p/(p+s) int_0^inf z^{p+1+s} f(z) dz

    for the moment order s, finite and > -p.  The left side integrates the tail kernel
    radially; the right side is moment(s+2)/(p+s), so a divergent moment
    propagates as such.
    """
    p = model.p
    order = real(order, IdentityError, "order", -p)
    rhs = model.moment(order + 2.0) / (p + order)

    cp = sphere_surface(p)

    def radial(_, r):
        return r ** (p - 1.0 + order) * model.big_f(r)

    (total,) = integrate_half_lines(radial, [[0.0, 1.0]], _SPEC, **model.tail_decay)
    lhs = cp * float(total)
    return _check("kernel_mass", {"family": model.family, "order": order}, lhs, rhs)
