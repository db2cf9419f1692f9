"""Marginal integrals of radial functions against radial kernels.

The p-dimensional convolution of a radial integrand with a radial kernel
centered at x collapses to two nested 1-d integrals.  With r = ||x|| and
lambda the kernel radius, the angle enters only through

    ||theta|| = sqrt(r^2 + lambda^2 + 2 r lambda cos(phi)).

We substitute v = sqrt(1 + cos(phi)); then ||theta|| becomes
sqrt((r - lambda)^2 + 2 r lambda v^2), which is cancellation-free and
linear in v at the singular ridge lambda = r, and the angular weight
becomes 2 v^(p-2) (2 - v^2)^((p-3)/2) on [0, sqrt(2)].  This is the
cos-substitution with the Jacobi weight, reparametrized so that the
ridge boundary layer sits at a known scale |r - lambda| / sqrt(2 r
lambda) that the integrator can be pointed at.

The angular integrals are batched: each call of the outer integrand
gets all the lambdas of one outer segment (22 Gauss nodes) and adapts
their angular integrals as the rows of one ``numerics.integrate_rows``
pass, each row starting from its own ridge hints.  No integral is
evaluated one lambda at a time.

Everything here serves as the slow-but-independent oracle for the
closed-form marginals used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from sphereshrink.numerics import (
    DivergenceSuspected,
    NonFiniteIntegrand,
    QuadratureSpec,
    integrate,
    integrate_rows,
    integrate_semi_infinite,
    sphere_surface,
)
from sphereshrink.radial_models import RadialDensity
from sphereshrink.rv_priors import RadialPrior

_ROOT2 = math.sqrt(2.0)

# Inner (angular) and outer (radial) budgets.  Values span many decades
# across lambda, so both specs are relative-error driven.
_INNER_SPEC = QuadratureSpec(abs_tol=1e-280, rel_tol=5e-11, max_subdivisions=160)
_OUTER_SPEC = QuadratureSpec(abs_tol=1e-280, rel_tol=1e-9, max_subdivisions=300)
_CLOSED_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400)

KERNELS = ("density", "tail_kernel")


class ConvolutionError(Exception):
    """Ill-posed convolution request or integrability failure."""


@dataclass(frozen=True)
class ConvolutionProblem:
    """One radial-against-radial expectation to evaluate.

    ``kernel`` picks the weight: the model density f itself, or the
    normalized tail kernel F/C_f.  ``singularity_class`` declares the
    power growth of the integrand at 0 (0 for bounded, 2-p for the
    harmonic case) so the angular integrator can bracket the ridge.
    """

    model: RadialDensity
    kernel: str
    integrand: object = field(compare=False)
    r: float = 0.0
    singularity_class: float = 0.0

    def __post_init__(self):
        if self.model.p < 3:
            raise ConvolutionError("need dimension p >= 3")
        if self.kernel not in KERNELS:
            raise ConvolutionError(f"kernel must be one of {KERNELS}")
        if self.r < 0:
            raise ConvolutionError("radius must be nonnegative")
        if self.singularity_class <= -self.model.p:
            raise ConvolutionError(
                "integrand must be integrable against r^{p-1} near 0: "
                f"need class > {-self.model.p}"
            )

    @property
    def p(self) -> int:
        return self.model.p


def c_f(model: RadialDensity) -> float:
    """Normalizer turning the tail kernel F into a density: E||X||^2 / p."""
    return model.moment(2.0) / model.p


def _kernel_weight(problem: ConvolutionProblem):
    if problem.kernel == "density":
        return problem.model.density
    norm = c_f(problem.model)
    return lambda lam: problem.model.big_f(lam) / norm


def radial_expectation(problem: ConvolutionProblem) -> float:
    """The convolution integral int rho(||theta||) w(||theta - x||) dtheta."""
    p = problem.p
    r = problem.r
    w = _kernel_weight(problem)

    if r == 0.0:
        # kernel centered at the origin: purely radial
        rho = problem.integrand

        def radial(lam):
            return rho(lam) * w(lam) * lam ** (p - 1.0)

        # split at a table's knots: each is a kink in f that would
        # otherwise take tens of bisections at this tolerance
        spec = replace(_CLOSED_SPEC, singularity_hints=problem.model.knots)
        head = integrate(radial, 0.0, 1.0, spec).value
        tail = integrate_semi_infinite(radial, 1.0, spec, **problem.model.tail_decay).value
        return sphere_surface(p) * (head + tail)

    return _outer_sweep(problem, w, cos_weight=False, extra_power=0.0)


def _outer_sweep(problem: ConvolutionProblem, w, *, cos_weight: bool, extra_power: float) -> float:
    """Radial (lambda) integral wrapping the angular one.

    The kernel's mass lives within its support radius regardless of r;
    keep that region in the finite head so no spike hides from the
    initial nodes, and carry the ridge lambda = r as a split point.
    Each call of ``outer`` adapts the angular integrals of all its
    lambdas as the rows of one ``integrate_rows`` batch.  With
    ``cos_weight`` the angular integrand also carries the
    cos(phi) = v^2 - 1 factor used by directional (along-x) numerators.
    """
    p = problem.p
    r = problem.r
    rho = problem.integrand

    def outer(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        two_rl = 2.0 * r * lams
        gap = r - lams

        def angular(row, v):
            g = gap[row]
            arg = np.sqrt(g * g + two_rl[row] * v * v)
            out = rho(arg) * 2.0 * v ** (p - 2.0) * (2.0 - v * v) ** (0.5 * (p - 3.0))
            if cos_weight:
                out = out * (v * v - 1.0)
            return out

        # ridge hints at the boundary-layer scale |r - lambda| / sqrt(2 r
        # lambda); a hint at or beyond sqrt(2) becomes a zero-width piece
        base = np.full(lams.shape, _ROOT2)
        if problem.singularity_class < 0:
            ridge = two_rl > 0
            base[ridge] = np.maximum(np.abs(gap[ridge]) / np.sqrt(two_rl[ridge]), 1e-9)
        edges = np.minimum(base[:, None] * [0.0, 1.0, 8.0, 64.0, math.inf], _ROOT2)
        abs_tol = _INNER_SPEC.abs_tol
        if cos_weight:
            # the cos-weighted integral can be an exact zero (symmetric rho),
            # unreachable under a relative-only target; floor the absolute
            # tolerance at the integrand's own magnitude scale
            probe = np.abs(np.asarray(rho(np.sqrt(gap * gap + two_rl)), dtype=float))
            abs_tol = np.maximum(abs_tol, 1e-15 * probe)
        inner = integrate_rows(angular, edges, abs_tol, _INNER_SPEC)
        return inner * np.asarray(w(lams), dtype=float) * lams ** (p - 1.0 + extra_power)

    spike = problem.model.support_radius(1e-16)
    cut = max(1.0, spike, min(2.0 * r, r + spike))
    hints = (r,) if 0.0 < r < cut else ()
    head = integrate(outer, 0.0, cut, replace(_OUTER_SPEC, singularity_hints=hints)).value
    tail_spec = replace(_OUTER_SPEC, singularity_hints=(r,) if r > cut else ())
    tail = integrate_semi_infinite(outer, cut, tail_spec, **problem.model.tail_decay).value
    return sphere_surface(p - 1) * (head + tail)


def directional_marginal(integrand, model: RadialDensity, r: float, *,
                         singularity_class: float = 0.0, kernel: str = "density") -> float:
    """Along-x numerator piece: int rho(||theta||) lambda cos(phi) w(lambda) dtheta.

    Here lambda cos(phi) is the projection of theta - x onto the x
    direction, so the full posterior-mean numerator along x is
    r * m + this.  Zero at r = 0 by symmetry.
    """
    if r == 0.0:
        return 0.0
    problem = ConvolutionProblem(model, kernel, integrand, float(r), singularity_class)
    w = _kernel_weight(problem)
    try:
        return _outer_sweep(problem, w, cos_weight=True, extra_power=1.0)
    except (DivergenceSuspected, NonFiniteIntegrand) as exc:
        raise ConvolutionError(f"directional marginal integrability fails: {exc}") from exc


def harmonic_marginal_closed(model: RadialDensity, r: float) -> float:
    """Marginal of the fundamental-solution prior through the kernel moment.

    m(r) = c_p (p - 2) r^{2-p} int_0^r t^{p-3} F(t) dt, tending to
    c_p F(0) as r -> 0.

    This is exact for g(eta) = eta^{2-p} and is the fast route the
    2-d oracle is checked against.
    """
    p = model.p
    if r < 0:
        raise ConvolutionError("radius must be nonnegative")
    cp = sphere_surface(p)
    if r ** (p - 2.0) < 1e-290:
        # r^{p-2} and the moment would underflow; m = c_p F(0) to double precision
        return cp * float(model.big_f(0.0))
    return cp * (p - 2.0) * float(model.kernel_moment(p - 3.0, r)) / r ** (p - 2.0)


def marginal_m(prior: RadialPrior, model: RadialDensity, r: float, *, force_oracle: bool = False) -> float:
    """Prior marginal m(g|x) at ||x|| = r.

    The fundamental-solution prior dispatches to its closed form; every
    other prior goes through the 2-d oracle.
    """
    if prior.p != model.p:
        raise ConvolutionError("prior and model dimensions differ")
    if prior.form.harmonic and not force_oracle:
        return harmonic_marginal_closed(model, r)
    problem = ConvolutionProblem(model, "density", prior.g_eval, float(r), prior.origin_class)
    try:
        return radial_expectation(problem)
    except (DivergenceSuspected, NonFiniteIntegrand) as exc:
        # either the tail probe flags non-integrable growth or the prior
        # already overflows where the kernel still has support
        raise ConvolutionError(f"marginal integrability fails (FG1-style): {exc}") from exc


def kernel_marginal_M(integrand, model: RadialDensity, r: float, *, singularity_class: float = 0.0) -> float:
    """Tail-kernel marginal M(rho|x) = (1/C_f) int rho(||theta||) F(||theta - x||) dtheta."""
    problem = ConvolutionProblem(model, "tail_kernel", integrand, float(r), singularity_class)
    try:
        return radial_expectation(problem)
    except (DivergenceSuspected, NonFiniteIntegrand) as exc:
        raise ConvolutionError(f"kernel marginal integrability fails: {exc}") from exc


@dataclass(frozen=True)
class AsymptoticProbe:
    """Ratio table for the large-r marginal approximations."""

    radii: tuple
    ratios: dict = field(compare=False)
    fitted_eps: dict = field(compare=False)


def asymptotic_ratio_probe(prior: RadialPrior, model: RadialDensity, r_list) -> AsymptoticProbe:
    """Probe m(g|x)/g, M(g|x)/g and M(g/||theta|| | x)/(g/r) along r_list.

    Each |ratio - 1| is fitted with a log-log slope; the reported eps is
    the empirical convergence exponent (positive means the ratio closes
    in on 1 at a power rate).
    """
    if prior.p != model.p:
        raise ConvolutionError("prior and model dimensions differ")
    radii = tuple(float(r) for r in r_list)
    if len(radii) < 2 or any(r <= 0 for r in radii):
        raise ConvolutionError("need at least two positive radii")

    prof = prior.assumption_profile
    s = model.tail_profile().s
    need = 2.0 + max(1.0, 1.0 - prof.t1 - prior.p, prof.t2 - 1.0)
    if not s > need:
        raise ConvolutionError(f"model tail too heavy for the probe: s={s:.3g} <= {need:.3g}")

    cls = prior.origin_class
    g = prior.g_eval
    over_norm = lambda lam: g(lam) / lam

    ratios = {"m_g": [], "M_g": [], "M_g_over_norm": []}
    for r in radii:
        gr = float(g(r))
        ratios["m_g"].append(marginal_m(prior, model, r) / gr)
        ratios["M_g"].append(kernel_marginal_M(g, model, r, singularity_class=cls) / gr)
        ratios["M_g_over_norm"].append(
            kernel_marginal_M(over_norm, model, r, singularity_class=cls - 1.0) / (gr / r)
        )

    eps = {}
    logr = np.log(np.asarray(radii))
    for name, vals in ratios.items():
        dev = np.maximum(np.abs(np.asarray(vals) - 1.0), 1e-15)
        slope = np.polyfit(logr, np.log(dev), 1)[0]
        eps[name] = -float(slope)
    return AsymptoticProbe(radii, {k: tuple(v) for k, v in ratios.items()}, eps)
