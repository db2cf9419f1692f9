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
ridge boundary layer sits at a known scale b = |r - lambda| / sqrt(2 r
lambda) that the integrator can be pointed at.

Every value here comes from one request path, ``_request``: a list of
terms that share the model and the radius r, each an integrand rho, a
kernel weight (the density f or the tail kernel F/C_f) and a
singularity class, some with the directional numerator's extra
lambda cos(phi).  It holds the dimension check, the one radius check
(0 <= r < inf), the harmonic prior's closed-form m, which takes no
quadrature, and the one conversion of a divergent tail or an
overflowing integrand into IntegrabilityError, to which the bell path
adds an m whose row is below ``_M_FLOOR``; a failed integral's message
names its term and r.
At r = 0 each term is radial, a directional one exactly 0, and the
terms are one ``numerics.integrate_half_lines`` batch; the head of a
term with a negative singularity class starts from the ratio-2 ladder 2^-k
(k = 1..20) toward 0, as ``_RIDGE_MESH`` grades the ridge, and a
table's heads run over its knots.  At r > 0,
for a model that is a sum of gaussian bells (``RadialDensity.bells``:
the gaussian, poly_exp with alpha = 0 and mixture_diff), the angular
average of each bell is closed, and each term is one radial row per
bell, or two for a directional term, all of them one
``integrate_half_lines`` batch (``_bell_rows``).  For every other
model they are one ``_sweep``: the lambda integrals of all terms are
one ``integrate_half_lines`` batch, and each of its rounds adapts the
angular integrals at all its lambdas as one ``integrate_rows`` batch.
No integral is evaluated one lambda, one term or one piece at a time.
Rows never share segments, so a term's value is the same, bitwise,
alone and in any batch.  The public functions and ``rv_priors``' FG1
check are each one request.

The sweep is the slow-but-independent oracle for the closed forms: the
kernel moments of ``shrinkage``'s weight, which is also the harmonic
prior's GB factor, the harmonic prior's m here, and the bell rows,
which the tests compare with it wherever both run.  S is never closed,
so ``gb_marginals`` checks that closed GB factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import hyp0f1, ive

from sphereshrink._domain import radii, radius, real, same_dimension
from sphereshrink.numerics import (
    DivergenceSuspected,
    NonFiniteIntegrand,
    QuadratureSpec,
    ToleranceNotReached,
    integrate_half_lines,
    integrate_rows,
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

# Initial angular edges of a ridge row, in units of its boundary-layer
# scale b: ratio-2 steps from b/4 to 2^16 b, so each K15 piece meets the
# inner tolerance in about one round instead of after 2-3 bisections.
# Beyond 2^16 b the row is smooth enough that more steps save nothing.
_RIDGE_MESH = np.array([0.0, *np.exp2(np.arange(-2.0, 17.0)), math.inf])
# Inner edges of an r = 0 head [0, 1] whose integrand may grow toward 0;
# a bell row's head [0, a] starts from a times them.
_ORIGIN_LADDER = tuple(2.0**-k for k in range(20, 0, -1))
# A bell row's head spans lambda = r -+ this many of its bell's standard
# deviations, beyond which the bell is below e^-32 of its peak; its tail
# starts this far beyond r in the widest bell's.
_BELL_REACH = 8.0
# Past this many of the widest bell's standard deviations from the
# origin, a bell row's variable is u = lambda - r, so that the bell stays
# resolved however far out r is: there every lambda below r/2, where
# r + u would lose lambda's digits, is e^-800 below the peak, which is 0.
_BELL_FAR = 80.0
# Below this z, A(z) = 0F1(; b; z^2/4) e^-z is summed from 0F1's series;
# above it, from the exponentially scaled Bessel function.
_SERIES_Z = 1.0
# Above this z, scipy's ive returns nan (near 2^31); its asymptotic
# series, four terms, is exact to double precision there.
_ASYMPTOTIC_Z = 1e8
# A bell row below this has met only its absolute tolerance, not its
# relative one, and a prior's m with such a row is refused: far out, where
# the prior falls faster than 1/r, it underflows toward 0.
_M_FLOOR = _CLOSED_SPEC.abs_tol / _CLOSED_SPEC.rel_tol
_M = object()  # the prior's marginal m(g|x) as a term of a request
_S = object()  # the prior's along-x numerator S(g|x) as a term of a request

KERNELS = ("density", "tail_kernel")


class ConvolutionError(Exception):
    """Ill-posed convolution request, or (as IntegrabilityError) a failed integral."""


class IntegrabilityError(ConvolutionError, ArithmeticError):
    """A request whose tail diverges, whose integrand overflows or whose m underflows: a numeric failure."""


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
        if self.kernel not in KERNELS:
            raise ConvolutionError(f"kernel must be one of {KERNELS}")
        radius(self.r, ConvolutionError, "radius")
        # the integrand must be integrable against r^{p-1} near 0
        real(self.singularity_class, ConvolutionError, "singularity_class", -self.model.p)


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
    return _request(problem.model, problem.r, [(problem.kernel, problem.integrand, problem.singularity_class)])[0]


def _request(model: RadialDensity, r: float, terms, prior: RadialPrior | None = None, directional=()) -> list:
    """The values at ||x|| = r of ``terms``, each a (kernel, integrand, class) ConvolutionProblem.

    The term ``_M`` is the marginal m(g|x) of ``prior``: the harmonic
    prior's closed form, else the density term of g.  ``_S`` is its
    along-x numerator S(g|x), the directional density term of g.  A term
    whose index is in ``directional`` is the along-x numerator of its
    integrand.  A radius
    that is negative, infinite or NaN is refused with ConvolutionError.
    A failed integral names its term and r: "m", "S" or "term j".  On
    the bell path, a prior's m with a row of at most ``_M_FLOOR`` (far
    out, where it underflows) raises IntegrabilityError naming r.
    """
    same_dimension(ConvolutionError, model, prior)
    r = radius(r, ConvolutionError, "radius")
    values, todo = [0.0] * len(terms), []
    for j, term in enumerate(terms):
        cos = term is _S or j in directional
        if cos and r == 0.0:
            continue  # by symmetry, a directional term is 0 at r = 0
        name = "S" if term is _S else "m" if term is _M else f"term {j}"
        if term is _M or term is _S:
            if term is _M and prior.harmonic:
                values[j] = _harmonic_m(model, r)
                continue
            term = ("density", prior.g_eval, prior.origin_class)
        todo.append((j, ConvolutionProblem(model, term[0], term[1], r, term[2]), cos, f"{name} at r={r:.3g}"))
    if todo:
        at, problems, cos, names = zip(*todo)
        bells = model.bells() if r > 0.0 else None
        try:
            if bells is None:
                swept = _sweep(problems, np.array(cos), names)
            else:
                swept = _bell_rows(problems, cos, names, bells, [terms[j] is _M for j in at])
        except (DivergenceSuspected, NonFiniteIntegrand) as exc:
            # a tail probe flags non-integrable growth, or the integrand
            # overflows where the kernel still has support
            raise IntegrabilityError(f"integrability fails: {exc}") from exc
        for j, value in zip(at, swept.tolist()):
            values[j] = value
    return values


def _sweep(problems, cos, names) -> np.ndarray:
    """The radial (lambda) integrals wrapping the angular ones, all in one batch.

    Each problem is one term: its integrand rho, its kernel weight w and
    its ridge class; the problems share the model and the radius r.  A
    problem whose entry of the boolean array ``cos`` is set also carries
    cos(phi) = v^2 - 1 in its angular integrand and one more power of
    lambda in its radial one, as the directional (along-x) numerators need.

    At r = 0, where no term is directional, each term is purely radial:
    a head from 0 split at 1, for a negative class at ``_ORIGIN_LADDER``,
    and at the model's knots, kinks in f that would each take tens of
    bisections, and a tail beyond.  Without knots the head ends at 1 and
    the tail follows the model's ``tail_decay``.  A table's head ends at
    its last knot a (or 1, if that is farther), beyond which f is an
    exact power law, and its tail starts there on the scale a.  At r > 0
    the kernel's mass lives within its support radius regardless of r,
    so each term's lambda integral is a finite head [0, cut] split at
    the ridge lambda = r and, when r is beyond it, at the kernel's
    support radius ``support_radius(1e-16)`` (were [0, r] one piece,
    every starting node of a far r would fall where f underflows, and m
    would read 0), and a tail [cut, inf) under the model's
    ``tail_decay``: the terms of one ``integrate_half_lines`` call, which
    probes the tails and maps them.  Each call of the outer integrand
    adapts the angular integrals of all its lambdas, whatever their
    term, as the rows of one inner ``integrate_rows`` batch.  A ridge
    row (a term whose singularity class is negative) starts from
    ``_RIDGE_MESH`` scaled by its b = |r - lambda| / sqrt(2 r lambda),
    floored at 1e-9 and clipped to sqrt(2), so each piece spans a factor of 2 of the boundary layer;
    any other row is the one piece [0, sqrt(2)].  A row's value does not
    depend on the other rows of either batch, so a term's value is the
    same alone and among others.  A failed row is reported under its
    term's entry of ``names``; an angular row over budget also names its
    lambda.
    """
    model, r = problems[0].model, problems[0].r
    p = model.p
    n = len(problems)
    ridge = np.array([pr.singularity_class < 0 for pr in problems])
    # an integrand, kernel weight or power of lambda that several terms
    # share is called once per round on all their nodes
    rhos, rho_of = _distinct([pr.integrand for pr in problems])
    kernels, weight_of = _distinct([pr.kernel for pr in problems])
    weights = [_kernel_weight(model, kernel) for kernel in kernels]
    if r == 0.0:

        def radial(term, lam):
            return _by_group(rhos, rho_of, term, lam) * _by_group(weights, weight_of, term, lam) * lam ** (p - 1.0)

        # a table's knots are edges of the heads, and its tail, an exact
        # power law beyond the last knot, starts there on that scale
        a = max((1.0, *model.knots))
        decay = {**model.tail_decay, "scale": a} if model.knots else model.tail_decay
        heads = [sorted({0.0, *(_ORIGIN_LADDER if neg else ()), 1.0, *model.knots, a}) for neg in ridge]
        return sphere_surface(p) * integrate_half_lines(radial, heads, _CLOSED_SPEC, names=names, **decay)
    exponents, power_of = _distinct([p - 1.0 + float(c) for c in cos])
    powers = [lambda lam, e=e: lam**e for e in exponents]
    spike = model.support_radius(1e-16)
    cut = max(1.0, spike, min(2.0 * r, r + spike))

    def outer(term, lams):
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

        # an edge at or beyond sqrt(2) is clipped there, and integrate_rows
        # drops the empty pieces that leaves
        edges = np.full((lams.size, _RIDGE_MESH.size), _ROOT2)
        edges[:, 0] = 0.0
        near = ridge[term] & (two_rl > 0)
        b = np.maximum(np.abs(gap[near]) / np.sqrt(two_rl[near]), 1e-9)
        edges[near] = np.minimum(b[:, None] * _RIDGE_MESH, _ROOT2)
        abs_tol = _INNER_SPEC.abs_tol
        if any_cos:
            # the cos-weighted integral can be an exact zero (symmetric rho),
            # unreachable under a relative-only target; floor the absolute
            # tolerance at the integrand's own magnitude scale
            at = inner_cos
            probe = np.abs(_by_group(rhos, inner_rho[at], slice(None), np.sqrt(gap[at] * gap[at] + two_rl[at])))
            abs_tol = np.full(lams.shape, abs_tol)
            abs_tol[at] = np.maximum(abs_tol[at], 1e-15 * probe)
        try:
            inner = integrate_rows(angular, edges, abs_tol, _INNER_SPEC)
        except ToleranceNotReached as exc:
            i = exc.row
            raise ToleranceNotReached(f"{names[term[i]]}, lambda={lams[i]:.3g}: {exc}", exc.result,
                                      exc.worst_segment, i) from exc
        y = inner * _by_group(weights, weight_of, term, lams)
        y *= _by_group(powers, power_of, term, lams)
        return y

    head = [0.0, spike, r, cut] if r > spike else [0.0, r, cut]
    return sphere_surface(p - 1) * integrate_half_lines(outer, [head] * n, _OUTER_SPEC, names=names,
                                                        **model.tail_decay)


def _bell_rows(problems, cos, names, bells, floored) -> np.ndarray:
    """The terms at r > 0 for a model that is a sum of gaussian bells (``RadialDensity.bells``).

    The angular average of a bell of variance v about x is closed: with
    lambda = ||theta||, z = r lambda / v and b = p/2,

        avg exp(-||x - lambda omega||^2 / (2 v)) = exp(-(r - lambda)^2 / (2 v)) A_b(z),

    A_b(z) = 0F1(; b; z^2/4) e^-z (``_bell_factor``).  So a plain term is
    c_p sum_j W_j m_j, with W_j the bell's weight in the term's kernel
    (w_j for f, w_j v_j / C_f for F / C_f) and m_j the radial row
    int rho(lambda) lambda^(p-1) exp(-(r - lambda)^2 / (2 v_j)) A_b(z) dlambda.
    Along x, (theta - x) exp(...) is v_j times the r-derivative of the
    bell, so a directional term is r c_p sum_j W_j (M_j / (p v_j) - m_j),
    M_j the same row with lambda^(p+1) and A_(b+1); for one bell,
    1 + S / (r m) is M / (p v m), a ratio of two positive integrals.
    Every row of every term is one ``integrate_half_lines`` batch, a row
    that several terms share (m and S of one integrand) once.  A row's
    head is split at r and r -+ ``_BELL_REACH`` of its bell's deviations,
    and its tail starts that far beyond r in the widest bell's.  The
    prior's singular origin is the endpoint power lambda^(class + p - 1),
    integrable when class > -p; a row of a negative class starts from
    ``_ORIGIN_LADDER``, as at r = 0.  Past ``_BELL_FAR`` deviations the
    variable is lambda - r, and the origin does not matter.  A failed row
    is reported under the entry of ``names`` of the first term using it.
    A term whose entry of ``floored`` is set (a prior's m) raises
    IntegrabilityError if one of its rows is at most ``_M_FLOOR``, where
    the row holds only its absolute tolerance.
    """
    model, r = problems[0].model, problems[0].r
    p = model.p
    var = np.array([v for _, v in bells])
    reach = _BELL_REACH * np.sqrt(var)
    far = r > _BELL_FAR * math.sqrt(var.max())
    centre = 0.0 if far else r  # where the row variable puts lambda = r
    norm = c_f(model)
    rhos, rho_of = _distinct([pr.integrand for pr in problems])
    # each term's rows, by bell and lift: (integrand, origin ladder, bell, lift)
    term_rows = [[[(rho_of[t], pr.singularity_class < 0 and not far, j, lift) for lift in ((0, 1) if cos[t] else (0,))]
                  for j in range(len(bells))] for t, pr in enumerate(problems)]
    keys, row_names = [], []
    for t, by_bell in enumerate(term_rows):
        for key in (key for lifts in by_bell for key in lifts):
            if key not in keys:
                keys.append(key)
                row_names.append(names[t])
    rho_row, ladder_row, bell_row, lift_row = (np.array(column) for column in zip(*keys))
    a = centre + reach.max()
    heads = []
    for ladder, j in zip(ladder_row, bell_row):
        # split at r once the bell clears the origin: a split at r = 1e-300
        # would put nodes where a singular rho overflows
        head = [centre - r, centre + reach[j], a]
        head += [centre] if r > reach[j] / _BELL_REACH else []
        head += [centre - reach[j]] if r > reach[j] else []
        heads.append(sorted([*head, *(a * step for step in _ORIGIN_LADDER)] if ladder else head))
    combos = sorted(set(zip(bell_row.tolist(), lift_row.tolist())))

    def radial(row, x):
        out = np.zeros(x.shape)
        d = x - centre
        with np.errstate(over="ignore"):  # d^2 = inf far from the bell, where it is 0
            bell = np.exp(-0.5 * d * d / var[bell_row[row]])
        live = bell > 0.0  # rho is not asked where the bell underflows
        row, lam = row[live], x[live] + (r - centre)
        y = bell[live] * _by_group(rhos, rho_row, row, lam)
        for j, lift in combos:
            at = (bell_row[row] == j) & (lift_row[row] == lift)
            if at.any():
                y[at] *= _bell_factor(p, lift, var[j], r, lam[at])
        out[live] = y
        return out

    rows = integrate_half_lines(radial, heads, _CLOSED_SPEC, names=row_names, **model.tail_decay)
    row_of = {key: i for i, key in enumerate(keys)}
    for t in np.flatnonzero(floored):
        least = min(abs(rows[row_of[lifts[0]]]) for lifts in term_rows[t])
        if not least > _M_FLOOR:
            raise IntegrabilityError(f"integrability fails: {names[t]}: a row is {least:.3g}, below {_M_FLOOR:.0e}, "
                                     f"where it holds only its absolute tolerance {_CLOSED_SPEC.abs_tol:.0e}")
    cp = sphere_surface(p)
    values = []
    for t, pr in enumerate(problems):
        total = 0.0
        for (w, v), lifts in zip(bells, term_rows[t]):
            weight = cp * (w if pr.kernel == "density" else w * v / norm)
            m = weight * rows[row_of[lifts[0]]]
            total += r * (weight * rows[row_of[lifts[1]]] / (p * v) - m) if cos[t] else m
        values.append(total)
    return np.array(values)


def _bell_factor(p, lift, var, r, lam):
    """lambda^(p-1+2 lift) A_(p/2+lift)(r lambda / var), with A_b(z) = 0F1(; b; z^2/4) e^-z.

    Below ``_SERIES_Z``, 0F1's series, where r = 1e-300 would otherwise
    form 0 times inf.  Above it, A_b(z) = Gamma(b) (z/2)^(1-b) ive(b-1, z),
    whose powers of lambda and r combine into r (lambda/r)^b.  Above
    ``_ASYMPTOTIC_Z``, ive(nu, z) is its asymptotic series in 1/z =
    (v/r)/lambda over sqrt(2 pi z), and r (lambda/r)^b / sqrt(z) is
    sqrt(v) (lambda/r)^(b-1/2): no factor is formed that overflows,
    however far out r is (z itself does past r = 1e154, and only sorts).
    """
    b = 0.5 * p + lift
    with np.errstate(over="ignore"):  # z = inf sorts lambda into the asymptotic branch, which does not use it
        z = r * lam / var
    out = np.empty(lam.shape)
    small = z < _SERIES_Z
    zs = z[small]
    out[small] = lam[small] ** (p - 1.0 + 2.0 * lift) * hyp0f1(b, 0.25 * zs * zs) * np.exp(-zs)
    scale = math.exp(math.lgamma(b) + (b - 1.0) * math.log(2.0 * var))
    mid = ~small & (z <= _ASYMPTOTIC_Z)
    out[mid] = scale * r * (lam[mid] / r) ** b * ive(b - 1.0, z[mid])
    far = z > _ASYMPTOTIC_Z
    lam_far = lam[far]
    out[far] = scale * math.sqrt(var / (2.0 * math.pi)) * (lam_far / r) ** (b - 0.5) * _ive_series(b - 1.0, var / r / lam_far)
    return out


def _ive_series(nu, inv_z):
    """sqrt(2 pi z) ive(nu, z) for z above ``_ASYMPTOTIC_Z``, from its asymptotic series in 1/z."""
    mu, term, total = 4.0 * nu * nu, np.ones(inv_z.shape), np.ones(inv_z.shape)
    for k in range(1, 4):
        term = term * -(mu - (2.0 * k - 1.0) ** 2) * inv_z / (8.0 * k)
        total += term
    return total


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
    return _request(model, r, [("density", integrand, singularity_class)], directional=(0,))[0]


def harmonic_marginal_closed(model: RadialDensity, r: float) -> float:
    """Marginal of the fundamental-solution prior through the kernel moment.

    m(r) = c_p (p - 2) r^{2-p} int_0^r t^{p-3} F(t) dt, tending to
    c_p F(0) as r -> 0.

    This is exact for g(eta) = eta^{2-p} and is the fast route the
    2-d oracle is checked against.  r must be nonnegative and finite.
    """
    return _harmonic_m(model, radius(r, ConvolutionError, "radius"))


def _harmonic_m(model: RadialDensity, r: float) -> float:
    p = model.p
    cp = sphere_surface(p)
    if r < 1.0 and r ** (p - 2.0) < 1e-290:
        # r^{p-2} and the moment would underflow; m = c_p F(0) to double precision
        return cp * float(model.big_f(0.0))
    m = cp * (p - 2.0) * float(model.kernel_moment(p - 3.0, r))
    if r ** (2.0 - p) < 1e-290:
        # near where r^{p-2} overflows; m, about r^{2-p}, goes to a subnormal or 0
        return m * r ** (2.0 - p)
    return m / r ** (p - 2.0)


def marginal_m(prior: RadialPrior, model: RadialDensity, r: float) -> float:
    """Prior marginal m(g|x) at ||x|| = r.

    The fundamental-solution prior dispatches to its closed form
    ``harmonic_marginal_closed``, with no quadrature; every other prior
    goes through the oracle: at r > 0, one radial row per bell of a
    gaussian-family model, else the 2-d sweep.
    """
    return _request(model, r, [_M], prior)[0]


def kernel_marginal_M(integrand, model: RadialDensity, r: float, *, singularity_class: float = 0.0) -> float:
    """Tail-kernel marginal M(rho|x) = (1/C_f) int rho(||theta||) F(||theta - x||) dtheta."""
    return _request(model, r, [("tail_kernel", integrand, singularity_class)])[0]


def gb_marginals(prior: RadialPrior, model: RadialDensity, r: float) -> tuple[float, float]:
    """The marginal m(g|x) and the directional numerator S at ||x|| = r.

    S is ``directional_marginal`` of g, 0 at r = 0, from the oracle for
    every prior: with m in one batch, or beside the harmonic prior's
    closed m, where 1 + S / (r m) checks ``shrinkage.gb_multiplier``'s
    closed form.  For a gaussian-family model (``RadialDensity.bells``)
    S is r sum_j (M_j / (p v_j) - m_j) over its bells, a difference of
    terms of size r m, so it holds to a tolerance of r m, not of S; for
    any other model it is swept, to a tolerance of S.
    """
    return tuple(_request(model, r, [_M, _S], prior))


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
    in on 1 at a power rate).  ``r_list`` is checked before the prior's
    slope audit: it needs two radii or more, each positive and finite.
    """
    rs = tuple(radii(r_list, ConvolutionError, "probe radii", positive=True, least=2).tolist())

    prof = prior.assumption_profile
    if not (math.isfinite(prof.t1) and math.isfinite(prof.t2)):
        raise ConvolutionError(f"slope audit of the prior is not finite: t1={prof.t1}, t2={prof.t2}")
    s = model.tail_profile().s
    need = 2.0 + max(1.0, 1.0 - prof.t1 - prior.p, prof.t2 - 1.0)
    if not s > need:
        raise ConvolutionError(f"model tail too heavy for the probe: s={s:.3g} <= {need:.3g}")

    g, cls = prior.g_eval, prior.origin_class
    over_norm = lambda lam: g(lam) / lam
    ratios = {"m_g": [], "M_g": [], "M_g_over_norm": []}
    for r in rs:
        big_m, big_m_norm, m = _request(
            model, r, [("tail_kernel", g, cls), ("tail_kernel", over_norm, cls - 1.0), _M], prior)
        gr = float(g(r))
        ratios["m_g"].append(m / gr)
        ratios["M_g"].append(big_m / gr)
        ratios["M_g_over_norm"].append(big_m_norm / (gr / r))

    eps = {}
    logr = np.log(np.asarray(rs))
    for name, vals in ratios.items():
        dev = np.maximum(np.abs(np.asarray(vals) - 1.0), 1e-15)
        slope = np.polyfit(logr, np.log(dev), 1)[0]
        eps[name] = -float(slope)
    return AsymptoticProbe(rs, {k: tuple(v) for k, v in ratios.items()}, eps)
