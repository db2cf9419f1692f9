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

Every request at one radius r > 0 is one sweep over a list of terms;
a term is an integrand rho, a kernel weight (the density f or the tail
kernel F/C_f) and a flag for the directional numerator's extra
lambda cos(phi).  The lambda integral of each term is a head [0, cut]
and a tail [cut, inf) mapped onto [0, 1) by ``numerics.TailMap``, and
all terms' heads and tails are the rows of one outer
``numerics.integrate_rows`` batch:

    row:    0 .. n-1              n .. 2n-1
    term:   j = row               j = row - n
    piece:  head [0, r, cut]      tail [0, 1), mapped by TailMap

Each outer round calls the outer integrand once, on the 15 Kronrod
nodes of every new segment of every row, and it adapts the angular
integrals at all those lambdas as the rows of one inner
``integrate_rows`` batch, each row starting from its own ridge hints.
No integral is evaluated one lambda, one term or one piece at a time.
Rows never share segments, so a term's value is the same, bitwise,
alone and in any batch.  ``marginal_m``, ``directional_marginal``,
``kernel_marginal_M`` and ``radial_expectation`` are one-term sweeps,
``gb_marginals`` sweeps m and the directional numerator together, and
``asymptotic_ratio_probe`` its three quantities; either leaves m out
where the harmonic prior's closed form gives it.

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
    TailMap,
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


def _kernel_weight(model: RadialDensity, kernel: str):
    if kernel == "density":
        return model.density
    norm = c_f(model)
    return lambda lam: model.big_f(lam) / norm


def radial_expectation(problem: ConvolutionProblem) -> float:
    """The convolution integral int rho(||theta||) w(||theta - x||) dtheta."""
    p = problem.p
    r = problem.r

    if r == 0.0:
        # kernel centered at the origin: purely radial
        rho = problem.integrand
        w = _kernel_weight(problem.model, problem.kernel)

        def radial(lam):
            return rho(lam) * w(lam) * lam ** (p - 1.0)

        # split at a table's knots: each is a kink in f that would
        # otherwise take tens of bisections at this tolerance
        spec = replace(_CLOSED_SPEC, singularity_hints=problem.model.knots)
        head = integrate(radial, 0.0, 1.0, spec).value
        tail = integrate_semi_infinite(radial, 1.0, spec, **problem.model.tail_decay).value
        return sphere_surface(p) * (head + tail)

    return float(_sweep([problem])[0])


def _sweep(problems, directional=()) -> np.ndarray:
    """The radial (lambda) integrals wrapping the angular ones, all in one batch.

    Each problem is one term: its integrand rho, its kernel weight w and
    its ridge class; the problems share the model and the radius r > 0.
    A problem whose index is in ``directional`` also carries cos(phi) =
    v^2 - 1 in its angular integrand and one more power of lambda in
    its radial one, as the directional (along-x) numerators need.

    The kernel's mass lives within its support radius regardless of r,
    so each term's lambda integral is a finite head [0, cut] split at
    the ridge lambda = r, where no spike hides from the initial nodes,
    and a tail [cut, inf) mapped onto [0, 1) by the model's ``TailMap``.
    Heads and tails of every term are the rows of one outer
    ``integrate_rows`` call (a tail row has one piece, so its edges end
    in NaN), and the tails are probed for divergence in one call of the
    outer integrand first.  Each call of the outer integrand adapts the
    angular integrals of all its lambdas, whatever their row, as the
    rows of one inner ``integrate_rows`` batch.  A row's value does not
    depend on the other rows of either batch, so a term's value is the
    same alone and among others.
    """
    model, r = problems[0].model, problems[0].r
    p = model.p
    n = len(problems)
    cos = np.isin(np.arange(n), directional)
    ridge = np.array([pr.singularity_class < 0 for pr in problems])
    # an integrand, kernel weight or power of lambda that several terms
    # share is called once per round on all their nodes
    rhos, rho_of = _distinct([pr.integrand for pr in problems])
    kernels, weight_of = _distinct([pr.kernel for pr in problems])
    weights = [_kernel_weight(model, kernel) for kernel in kernels]
    exponents, power_of = _distinct([p - 1.0 + float(c) for c in cos])
    powers = [lambda lam, e=e: lam**e for e in exponents]
    spike = model.support_radius(1e-16)
    cut = max(1.0, spike, min(2.0 * r, r + spike))
    tail = TailMap(cut, **model.tail_decay)

    def outer(rows, x):
        term = rows % n
        tails = rows >= n
        lams = x.copy()
        lams[tails], om = tail.radius(x[tails])
        two_rl = 2.0 * r * lams
        gap = r - lams
        inner_rho = rho_of[term]
        inner_cos = cos[term]
        all_cos, any_cos = inner_cos.all(), inner_cos.any()

        def angular(row, v):
            g = gap[row]
            arg = np.sqrt(g * g + two_rl[row] * v * v)
            out = _by_group(rhos, inner_rho, row, arg) * 2.0 * v ** (p - 2.0) * (2.0 - v * v) ** (0.5 * (p - 3.0))
            if all_cos:
                out = out * (v * v - 1.0)
            elif any_cos:
                out = out * np.where(inner_cos[row], v * v - 1.0, 1.0)  # x * 1.0 is x
            return out

        # ridge hints at the boundary-layer scale |r - lambda| / sqrt(2 r
        # lambda); a hint at or beyond sqrt(2) becomes a zero-width piece
        base = np.full(lams.shape, _ROOT2)
        near = ridge[term] & (two_rl > 0)
        base[near] = np.maximum(np.abs(gap[near]) / np.sqrt(two_rl[near]), 1e-9)
        edges = np.minimum(base[:, None] * [0.0, 1.0, 8.0, 64.0, math.inf], _ROOT2)
        abs_tol = _INNER_SPEC.abs_tol
        if any_cos:
            # the cos-weighted integral can be an exact zero (symmetric rho),
            # unreachable under a relative-only target; floor the absolute
            # tolerance at the integrand's own magnitude scale
            at = inner_cos
            probe = np.abs(_by_group(rhos, inner_rho[at], slice(None), np.sqrt(gap[at] * gap[at] + two_rl[at])))
            abs_tol = np.full(lams.shape, abs_tol)
            abs_tol[at] = np.maximum(abs_tol[at], 1e-15 * probe)
        inner = integrate_rows(angular, edges, abs_tol, _INNER_SPEC)
        y = inner * _by_group(weights, weight_of, term, lams)
        y *= _by_group(powers, power_of, term, lams)
        y[tails] = tail.weigh(y[tails], om)
        return y

    tail_rows = np.arange(n, 2 * n)
    tail.probe(outer(tail_rows.repeat(tail.probe_nodes.size), np.tile(tail.probe_nodes, n)))
    edges = np.array([[0.0, r, cut]] * n + [[0.0, 1.0, math.nan]] * n)
    values = integrate_rows(outer, edges, _OUTER_SPEC.abs_tol, _OUTER_SPEC, tails=np.arange(2 * n) >= n)
    return sphere_surface(p - 1) * (values[:n] + values[n:])


def _distinct(items):
    """The distinct items (by ==) in order, and each item's index among them."""
    out = []
    for item in items:
        if item not in out:
            out.append(item)
    return out, np.array([out.index(item) for item in items])


def _by_group(fns, group, row, x):
    """fns[group[row[i]]](x[i]) for every i, one call per function used."""
    if len(fns) == 1:
        return np.asarray(fns[0](x), dtype=float)
    of = group[row]
    out = np.empty(x.shape)
    for j, fn in enumerate(fns):
        at = of == j
        if at.any():
            out[at] = fn(x[at])
    return out


def directional_marginal(integrand, model: RadialDensity, r: float, *, singularity_class: float = 0.0) -> float:
    """Along-x numerator piece: int rho(||theta||) lambda cos(phi) f(lambda) dtheta.

    Here lambda cos(phi) is the projection of theta - x onto the x
    direction, so the full posterior-mean numerator along x is
    r * m + this.  Zero at r = 0 by symmetry.
    """
    if r == 0.0:
        return 0.0
    problem = ConvolutionProblem(model, "density", integrand, float(r), singularity_class)
    try:
        return float(_sweep([problem], directional=(0,))[0])
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
    if prior.harmonic and not force_oracle:
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


def gb_marginals(prior: RadialPrior, model: RadialDensity, r: float) -> tuple[float, float]:
    """The marginal m(g|x) and the directional numerator S at ||x|| = r > 0.

    S is ``directional_marginal`` of g.  A harmonic prior takes m from
    its closed form and sweeps S alone; any other prior sweeps m and S
    as two terms of one batch.
    """
    if prior.p != model.p:
        raise ConvolutionError("prior and model dimensions differ")
    if not r > 0:
        raise ConvolutionError("radius must be positive")
    problem = ConvolutionProblem(model, "density", prior.g_eval, float(r), prior.origin_class)
    try:
        if prior.harmonic:
            return harmonic_marginal_closed(model, r), float(_sweep([problem], directional=(0,))[0])
        m, s = _sweep([problem, problem], directional=(1,))
    except (DivergenceSuspected, NonFiniteIntegrand) as exc:
        raise ConvolutionError(f"marginal integrability fails: {exc}") from exc
    return float(m), float(s)


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
        # M(g), M(g/||theta||) and, unless it has a closed form, m: one sweep
        problems = [
            ConvolutionProblem(model, "tail_kernel", g, r, cls),
            ConvolutionProblem(model, "tail_kernel", over_norm, r, cls - 1.0),
        ]
        if not prior.harmonic:
            problems.append(ConvolutionProblem(model, "density", g, r, cls))
        try:
            values = _sweep(problems)
        except (DivergenceSuspected, NonFiniteIntegrand) as exc:
            raise ConvolutionError(f"marginal integrability fails: {exc}") from exc
        m = harmonic_marginal_closed(model, r) if prior.harmonic else float(values[2])
        gr = float(g(r))
        ratios["m_g"].append(m / gr)
        ratios["M_g"].append(float(values[0]) / gr)
        ratios["M_g_over_norm"].append(float(values[1]) / (gr / r))

    eps = {}
    logr = np.log(np.asarray(radii))
    for name, vals in ratios.items():
        dev = np.maximum(np.abs(np.asarray(vals) - 1.0), 1e-15)
        slope = np.polyfit(logr, np.log(dev), 1)[0]
        eps[name] = -float(slope)
    return AsymptoticProbe(radii, {k: tuple(v) for k, v in ratios.items()}, eps)
