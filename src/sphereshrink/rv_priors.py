"""Regularly varying radial priors and their admissibility machinery.

The module has two halves.  The first builds the smoothing sequence used
in Blyth-style admissibility arguments: an iterated-logarithm kernel

    beta(eta) = 1/(eta+c) * 1/Log_n(eta+c)^2 * prod_{i<n} 1/Log_i(eta+c)

whose tail integral collapses to 1/Log_n(eta+c), and the exponential
averages

    H_i(eta) = int_eta^inf e^{(eta-r)/i} beta(r) dr / int_eta^inf beta(r) dr

that interpolate between 0 and 1 as i grows.  H_i and H_i' take an
array of eta and integrate it as one batch, a row per eta.  The second
half audits a radial prior G: slope bounds eta G'/G, a properness
index, the decay of the Blyth quadratic-form integrals J(i), a
Brown-type integral test on partial sums, and a coarse
admissible/inadmissible classification.
Each prior family (power, which also serves the harmonic prior,
log-thickened and custom) is a subclass of :class:`RadialPrior` built by
its factory.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from sphereshrink.numerics import (
    DivergenceSuspected,
    QuadratureError,
    QuadratureSpec,
    integrate,
    integrate_rows,
    integrate_semi_infinite,
    sphere_surface,
)

_H_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)
# k of each H row's map v = -k*i*log(1-t), which leaves (1-t)^(k-1) in
# the integrand (see HSequence._avg)
_H_MAP_EXPONENT = 3
# initial pieces of each H row in t, crowding toward t = 1 where the
# map stretches furthest
_H_EDGES = np.array([0.0, 0.5, 0.9, 0.99, 0.999, 1.0])


class PriorError(ValueError):
    """Invalid prior or kernel construction."""


# --- iterated logarithms ----------------------------------------------

def log_tower(j: int, y):
    """Iterated logarithm Log_j(y): Log_0 = 1, Log_1 = log y, and so on.

    Raises for arguments where any intermediate logarithm is undefined
    or nonpositive (so the next level would be undefined).
    """
    if j < 0:
        raise PriorError("log tower depth must be nonnegative")
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    cur = y
    for _ in range(j):
        if np.any(cur <= 0.0):
            raise PriorError("log tower undefined: nonpositive intermediate value")
        cur = np.log(cur)
        out = cur
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LogTower:
    """Depth and offset of an iterated-log kernel; requires Log_n(c) > 0."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 1:
            raise PriorError("kernel depth n must be >= 1")
        val = log_tower(self.n, self.c)
        if not val > 0.0:
            raise PriorError(f"Log_{self.n}({self.c}) = {val} must be positive")


class BetaKernel:
    """Normalized decay kernel with closed-form tail 1/Log_n(eta+c)."""

    def __init__(self, tower: LogTower):
        self.tower = tower

    def _levels(self, eta):
        """Stack of [L_1, ..., L_n] evaluated at eta + c."""
        y = np.asarray(eta, dtype=float) + self.tower.c
        levels = [np.log(y)]
        for _ in range(1, self.tower.n):
            levels.append(np.log(levels[-1]))
        return y, levels

    def beta_eval(self, eta):
        y, levels = self._levels(eta)
        out = 1.0 / (y * levels[-1] ** 2)
        for lev in levels[:-1]:
            out = out / lev
        return out if np.ndim(eta) else float(out)

    def beta_tail(self, eta):
        """int_eta^inf beta = 1/Log_n(eta+c), exact."""
        _, levels = self._levels(eta)
        out = 1.0 / levels[-1]
        return out if np.ndim(eta) else float(out)

    def beta_deriv(self, eta):
        """Analytic derivative of beta."""
        y, levels = self._levels(eta)
        # D_j = d Log_j(eta+c) / d eta
        d = 1.0 / y
        logsum = 1.0 / y
        for j, lev in enumerate(levels):
            weight = 2.0 if j == len(levels) - 1 else 1.0
            logsum = logsum + weight * d / lev
            d = d / lev
        out = -self.beta_eval(eta) * logsum
        return out if np.ndim(eta) else float(out)


class HSequence:
    """Exponential averages of the beta kernel at timescale i.

    ``numerator``, ``h_eval`` and ``h_derivative`` take a float or an
    array of eta and return the same; an array is one batched
    quadrature with one row per eta, and each entry equals the scalar
    call at that eta bitwise.
    """

    def __init__(self, kernel: BetaKernel, i: float):
        if i <= 0:
            raise PriorError("timescale i must be positive")
        self.kernel = kernel
        self.i = float(i)

    def _avg(self, eta, *fns):
        """int_eta^inf e^{(eta-r)/i} fn(r) dr for each fn in ``fns``, as a list.

        One ``integrate_rows`` call holds a row per (fn, eta), those of
        the first fn first; each entry is a float for a float eta.

        With k = _H_MAP_EXPONENT, the map v = r - eta = -k*i*log(1-t)
        has dv = k*i dt/(1-t) and e^{-v/i} = (1-t)^k, so

            int_0^inf e^{-v/i} fn(eta+v) dv
              = int_0^1 k*i * fn(eta - k*i*log(1-t)) * (1-t)^(k-1) dt,

        exactly.  With k = 1 the weight would be absorbed whole, but the
        integrand i*fn(eta+v) of a kernel like beta then decays only
        like 1/log(1-t)^2 at t = 1 and the last piece needs many
        bisections; with k = 3 the factor (1-t)^2 makes it vanish there.
        Shifting by eta first keeps the exponent exact; forming eta - r
        at large eta would cancel away most of its digits.  Each row is
        scaled by beta(eta) so that its absolute tolerance is relative
        to the answer's size.
        """
        etas = np.atleast_1d(np.asarray(eta, dtype=float))
        n, m = etas.size, len(fns)
        scale_out = self.kernel.beta_eval(etas)
        row_eta, row_scale = np.concatenate([etas] * m), np.concatenate([scale_out] * m)
        stretch = _H_MAP_EXPONENT * self.i

        def rows(row, t):
            # the floor on 1 - t keeps the log finite as t -> 1
            w = np.maximum(1.0 - t, 1e-150)
            r = row_eta[row] - stretch * np.log(w)
            if m == 1:
                y = fns[0](r)
            else:
                # ``row`` is nondecreasing, so each fn's rows are one block
                ends = np.searchsorted(row, n * np.arange(m + 1)).tolist()
                y = np.concatenate([fn(r[a:b]) for fn, a, b in zip(fns, ends, ends[1:]) if b > a])
            return stretch * y * w ** (_H_MAP_EXPONENT - 1) / row_scale[row]

        edges = np.broadcast_to(_H_EDGES, (m * n, _H_EDGES.size))
        out = integrate_rows(rows, edges, _H_SPEC.abs_tol, _H_SPEC).reshape(m, n) * scale_out
        return [part if np.ndim(eta) else float(part[0]) for part in out]

    def numerator(self, eta):
        """int_eta^inf e^{(eta-r)/i} beta(r) dr."""
        return self._avg(eta, self.kernel.beta_eval)[0]

    def h_eval(self, eta):
        """H_i(eta) in (0, 1)."""
        return self.numerator(eta) / self.kernel.beta_tail(eta)

    def h_derivative(self, eta):
        """H_i'(eta) from the two-integral form.

        H_i' = beta(eta) * Num(eta) / Tail(eta)^2
               - int_eta^inf e^{(eta-r)/i} (-beta'(r)) dr / Tail(eta)

        The one-integral identity H_i' = H_i/i - (beta/Tail)(1 - H_i) is
        exact, but its two terms cancel when eta >> i: with c = e, at
        eta = 1e8 and i = 1 it is off by 2.8e-6 relative where this form
        is off by 6e-14, so the second integral stays.
        """
        tail = self.kernel.beta_tail(eta)
        num, dpart = self._avg(eta, self.kernel.beta_eval, lambda r: -self.kernel.beta_deriv(r))
        return self.kernel.beta_eval(eta) * num / tail**2 - dpart / tail


# --- radial priors ----------------------------------------------------

def _value(out):
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


class RadialPrior:
    """Radial prior density G(eta) on R^p with thin-tail exponent data.

    Each family subclasses this type and is built by its factory.  A
    family sets ``params`` and ``detail`` (the parameter text of its
    repr) and defines ``_g``, ``_g_deriv`` and ``_g_deriv2``; the public
    methods here convert their input to float arrays and call them, and
    no family overrides them, so ``perfbench/tracer.py`` can wrap
    ``g_eval`` here.
    ``rv_index`` (the regular-variation index) and ``origin_slope`` (the
    limit of eta G'/G at 0) are None when they must be estimated;
    ``log_depth`` counts the iterated-log factors riding on the power
    part; ``harmonic`` marks G = eta^{2-p}, whose marginal has a closed
    form.  ``gamma`` is the exponent used when the smoothing sequence is
    glued onto the prior in properness and Blyth integrals.
    """

    family = ""
    rv_index = None
    origin_slope = None
    log_depth = 0
    harmonic = False

    def __new__(cls, *args, **kwargs):
        if cls is RadialPrior:
            raise PriorError("use a prior factory (power_prior, harmonic_prior, ...)")
        return super().__new__(cls)

    def __init__(self, p, gamma):
        if p < 3:
            raise PriorError("dimension p must be at least 3")
        self.p = int(p)
        self.gamma = float(gamma)
        if not 0.0 < self.gamma <= 2.0:
            raise PriorError("gamma must lie in (0, 2]")

    # G and its derivatives ------------------------------------------

    def g_eval(self, eta):
        return _value(self._g(np.asarray(eta, dtype=float)))

    def g_deriv(self, eta):
        return _value(self._g_deriv(np.asarray(eta, dtype=float)))

    def g_deriv2(self, eta):
        return _value(self._g_deriv2(np.asarray(eta, dtype=float)))

    def log_deriv(self, eta):
        """eta G'(eta) / G(eta)."""
        return _value(self._log_deriv(np.asarray(eta, dtype=float)))

    def second_log_deriv(self, eta):
        """eta G''(eta) / G'(eta)."""
        return _value(self._second_log_deriv(np.asarray(eta, dtype=float)))

    def _log_deriv(self, eta):
        return eta * self._g_deriv(eta) / self._g(eta)

    def _second_log_deriv(self, eta):
        return eta * self._g_deriv2(eta) / self._g_deriv(eta)

    @property
    def origin_class(self) -> float:
        """Power growth of G at the origin: closed form, else the audited slope t0."""
        t0 = self.origin_slope
        return self.assumption_profile.t0 if t0 is None else t0

    def estimated_rv_index(self) -> float:
        k = self.rv_index
        if k is not None:
            return k
        grid = np.geomspace(1e4, 1e8, 60)
        slope = np.polyfit(np.log(grid), np.log(np.abs(self.g_eval(grid))), 1)[0]
        return float(slope)

    @property
    def assumption_profile(self):
        """Slope-bound audit over the default grid, computed once."""
        if not hasattr(self, "_profile"):
            self._profile = prior_assumption_audit(self)
        return self._profile

    def __repr__(self):
        return f"RadialPrior({self.family}, p={self.p}, {self.detail}, gamma={self.gamma})"


class _Power(RadialPrior):
    """G(eta) = eta^k; the harmonic prior is k = 2 - p, given as k = None."""

    def __init__(self, family: str, k, p: int, gamma):
        super().__init__(p, gamma)
        k = 2.0 - self.p if k is None else float(k)
        self.family, self.k = family, k
        self.params = {"k": k}
        self.rv_index = self.origin_slope = k
        self.harmonic = k == 2.0 - self.p
        self.detail = f"k={k}"

    def _g(self, eta):
        return eta**self.k

    def _g_deriv(self, eta):
        return self.k * eta ** (self.k - 1.0)

    def _g_deriv2(self, eta):
        return self.k * (self.k - 1.0) * eta ** (self.k - 2.0)

    def _log_deriv(self, eta):
        return np.full_like(eta, self.k)

    def _second_log_deriv(self, eta):
        return np.full_like(eta, self.k - 1.0)


class _LogThickened(RadialPrior):
    """eta^{2-p} times n+1 nested logarithms of eta + c."""

    family = "log_thickened"

    def __init__(self, n: int, c: float, p: int, gamma):
        super().__init__(p, gamma)
        if n < 0:
            raise PriorError("log depth n must be >= 0")
        # all factors must be positive at eta = 0
        if not log_tower(n + 1, float(c)) > 0.0:
            raise PriorError(f"Log_{n+1}({c}) must be positive")
        self.n, self.c = int(n), float(c)
        self.params = {"n": self.n, "c": self.c}
        self.rv_index = self.origin_slope = 2.0 - self.p
        self.log_depth = self.n + 1
        self.detail = f"n={self.n}, c={self.c}"

    def _log_product(self, eta):
        y = eta + self.c
        prod = np.ones_like(np.asarray(y, dtype=float))
        cur = np.log(y)
        for _ in range(self.n + 1):
            prod = prod * cur
            cur = np.log(cur)
        return prod

    def _psi_parts(self, eta):
        """psi = eta G'/G and psi'."""
        k = 2.0 - self.p
        y = eta + self.c
        levels = [np.log(y)]
        for _ in range(self.n):
            levels.append(np.log(levels[-1]))
        psi = np.full_like(y, k)
        psi_prime = np.zeros_like(y)
        d = 1.0 / y
        d_prime = -1.0 / y**2
        for lev in levels:
            term = eta * d / lev
            psi = psi + term
            psi_prime = psi_prime + d / lev + eta * (d_prime * lev - d * d) / lev**2
            d_prime = d_prime / lev - (d / lev) ** 2
            d = d / lev
        return psi, psi_prime

    def _g(self, eta):
        return eta ** (2.0 - self.p) * self._log_product(eta)

    def _g_deriv(self, eta):
        psi, _ = self._psi_parts(eta)
        return self._g(eta) * psi / eta

    def _g_deriv2(self, eta):
        psi, psi_prime = self._psi_parts(eta)
        return self._g(eta) / eta**2 * (psi**2 - psi + eta * psi_prime)

    def _log_deriv(self, eta):
        psi, _ = self._psi_parts(eta)
        return psi


class _Custom(RadialPrior):
    """User-supplied G and derivatives; exponent data is estimated."""

    family = "custom"
    detail = "custom"

    def __init__(self, g, g_prime, g_double_prime, p: int, gamma):
        super().__init__(p, gamma)
        self.params = {"g": g, "g_prime": g_prime, "g_double_prime": g_double_prime}

    def _g(self, eta):
        return np.asarray(self.params["g"](eta), dtype=float)

    def _g_deriv(self, eta):
        return np.asarray(self.params["g_prime"](eta), dtype=float)

    def _g_deriv2(self, eta):
        fn = self.params["g_double_prime"]
        if fn is None:
            raise PriorError("custom prior has no second derivative")
        return np.asarray(fn(eta), dtype=float)


def power_prior(k: float, p: int, gamma: float = 2.0) -> RadialPrior:
    return _Power("power", k, p, gamma)


def harmonic_prior(p: int, gamma: float = 2.0) -> RadialPrior:
    return _Power("harmonic", None, p, gamma)


def log_thickened_prior(n: int, c: float, p: int, gamma: float = 2.0) -> RadialPrior:
    """eta^{2-p} times n+1 nested log factors: n=0 is eta^{2-p} log(eta+c)."""
    return _LogThickened(n, c, p, gamma)


def custom_prior(g, g_prime, p: int, g_double_prime=None, gamma: float = 2.0) -> RadialPrior:
    return _Custom(g, g_prime, g_double_prime, p, gamma)


# --- audits ------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionProfile:
    """Empirical slope bounds for a prior.

    t0 is the limiting slope eta G'/G at the origin, (t1, t2) bracket the
    slope on [eta_low, eta_high], (t3, t4) bracket eta G''/G' there (nan
    when the second derivative is unavailable), and origin_ok records
    whether t0 > 1 - p, the condition that keeps the prior integrable
    enough at the origin.
    """

    t0: float
    t1: float
    t2: float
    t3: float
    t4: float
    eta_low: float
    eta_high: float
    origin_ok: bool


def prior_assumption_audit(prior: RadialPrior) -> AssumptionProfile:
    """Slope bounds of ``prior`` on [1, 1e8] and its slope at the origin."""
    grid = np.geomspace(1.0, 1e8, 400)
    slopes = np.asarray(prior.log_deriv(grid), dtype=float)
    t1 = float(np.min(slopes))
    t2 = float(np.max(slopes))
    try:
        second = np.asarray(prior.second_log_deriv(grid), dtype=float)
        t3 = float(np.min(second))
        t4 = float(np.max(second))
    except PriorError:
        t3 = t4 = math.nan
    # slope at the origin from a stabilizing sequence
    probes = np.array([1e-5, 1e-6, 1e-7, 1e-8])
    t0 = float(np.asarray(prior.log_deriv(probes), dtype=float)[-1])
    return AssumptionProfile(
        t0=t0, t1=t1, t2=t2, t3=t3, t4=t4,
        eta_low=1.0, eta_high=1e8,
        origin_ok=bool(t0 > 1.0 - prior.p),
    )


# --- growth classification on decade partial sums ---------------------

@dataclass(frozen=True)
class GrowthReport:
    """Partial integrals over decades and their growth classification."""

    edges: tuple
    partials: tuple
    total: float
    verdict: str  # "diverges" | "converges" | "indeterminate"
    decay_exponent: float


def _decade_partials(integrand, spec: QuadratureSpec):
    """Integrals of ``integrand`` over each decade of [1, 1e8], one ``integrate_rows`` row each."""
    edges = 10.0 ** np.arange(9)
    rows = np.column_stack([edges[:-1], edges[1:]])
    return edges, integrate_rows(lambda row, eta: integrand(eta), rows, spec.abs_tol, spec)


def _classify_growth(partials: np.ndarray):
    """Label decade increments as a divergent or convergent tail.

    The increments of a borderline integrand behave like a power of the
    decade ordinal k: like 1/k for iterated-log divergence, like 1/k^2
    for the first convergent member of the same family.  The fitted
    exponent q separates the two (q <= 1.25 diverges, q >= 1.6
    converges); monotone non-decaying increments, and a last increment
    below 1e-4 of the total, are decided directly.
    """
    total = float(np.sum(partials))
    tail = partials[-5:] if partials.size >= 5 else partials
    k = np.arange(partials.size - tail.size + 1, partials.size + 1, dtype=float)
    if np.all(tail > 0):
        q = -float(np.polyfit(np.log(k), np.log(tail), 1)[0])
    else:
        q = math.inf
    last3 = partials[-3:]
    if np.all(np.diff(last3) >= -1e-9 * np.abs(last3[:-1])) and last3[-1] > 0:
        return "diverges", q, total
    if total > 0 and partials[-1] / total < 1e-4:
        return "converges", q, total
    if q <= 1.25:
        return "diverges", q, total
    if q >= 1.6:
        return "converges", q, total
    return "indeterminate", q, total


# --- properness, Brown, Blyth -----------------------------------------

@dataclass(frozen=True)
class PropernessReport:
    value: float
    verdict: str
    growth: GrowthReport


def properness_index(prior: RadialPrior, kernel: BetaKernel) -> PropernessReport:
    """Partial integrals of eta^{p-1} G(eta) H_1(eta)^gamma over the decades of [1, 1e8]."""
    h1 = HSequence(kernel, 1.0)
    p = prior.p
    gamma = prior.gamma

    def integrand(eta):
        return eta ** (p - 1.0) * prior.g_eval(eta) * h1.h_eval(eta) ** gamma

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-8, max_subdivisions=200)
    edges, parts = _decade_partials(integrand, spec)
    verdict, q, total = _classify_growth(parts)
    growth = GrowthReport(tuple(edges), tuple(parts), total, verdict, q)
    label = "finite" if verdict == "converges" else (
        "divergence-suspected" if verdict == "diverges" else "indeterminate"
    )
    return PropernessReport(value=total, verdict=label, growth=growth)


def brown_diagnostic(prior: RadialPrior) -> GrowthReport:
    """Brown-type integral test on the radial reduction.

    Replaces the marginal m(g|x) by G(||x||), which reduces the test
    integral over {||x|| > 1} to c_p int_1^inf eta^{1-p} / G(eta) deta,
    then classifies the growth of its decade partial sums on [1, 1e8].
    The two are not close near ||x|| = 1: on gaussian p = 5 with the
    harmonic prior, m/G is 0.20, 0.48 and 0.74 at r = 1, 1.5 and 2.
    They agree in the tail (m/G = 1.0000 at r = 10 to 100), and the
    verdict rests only on the tail's growth.  ``total`` is the total of
    the reduced integral, not Brown's integral itself.
    """
    p = prior.p
    cp = sphere_surface(p)

    def integrand(eta):
        return cp * eta ** (1.0 - p) / prior.g_eval(eta)

    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-10, max_subdivisions=400)
    edges, parts = _decade_partials(integrand, spec)
    verdict, q, total = _classify_growth(parts)
    return GrowthReport(tuple(edges), tuple(parts), total, verdict, q)


def select_gamma(prior: RadialPrior, kernel: BetaKernel, step: float = 0.25):
    """Smallest gamma on the 0.25 grid keeping the smoothed prior proper.

    Small exponents matter because the dominance constants degrade as
    gamma grows; the search walks 0.25, 0.5, ... up to 2 and returns the
    first value whose properness index is finite, or None when even
    gamma = 2 fails.
    """
    for j in range(1, int(round(2.0 / step)) + 1):
        trial = copy.copy(prior)
        trial.gamma = step * j
        if properness_index(trial, kernel).verdict == "finite":
            return trial.gamma
    return None


def blyth_decay(prior: RadialPrior, kernel: BetaKernel, i_list) -> list[float]:
    """Quadratic-form integrals J(i) whose decay to 0 drives admissibility.

    J(i) = int_0^inf eta^{p-1} G(eta) H_1(eta)^{gamma-2} H_i'(eta)^2 deta.
    For gamma = 2 the H_1 factor drops out exactly.
    """
    p = prior.p
    gamma = prior.gamma
    h1 = HSequence(kernel, 1.0) if gamma != 2.0 else None
    out = []
    for i in i_list:
        hseq = HSequence(kernel, float(i))

        def integrand(eta):
            w = eta ** (p - 1.0) * prior.g_eval(eta)
            if h1 is not None:
                w = w * h1.h_eval(eta) ** (gamma - 2.0)
            return w * hseq.h_derivative(eta) ** 2

        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-6, max_subdivisions=120)
        head = integrate(integrand, 0.0, 1.0, spec).value

        def integrand_log(v):
            eta = np.exp(v)
            return integrand(eta) * eta

        tail = integrate_semi_infinite(integrand_log, 0.0, spec, decay="exp", scale=1.0).value
        out.append(head + tail)
    return out


# --- classification ----------------------------------------------------

@dataclass(frozen=True)
class PriorClassification:
    verdict: str  # "admissible_certified" | "inadmissible_certified" | "uncertified"
    rv_index: float
    tail_s: float
    fg1_ok: bool
    boundary_margin: float  # largest constant multiple in the boundary bound; nan if unused
    brown: GrowthReport
    detail: str


def _fg1_finite(prior: RadialPrior, model) -> bool:
    """Joint integrability of the prior against f and F."""
    p = prior.p

    def head_ok(w):
        try:
            integrate(w, 1e-12, 1.0, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-6, max_subdivisions=600))
            return True
        except QuadratureError:
            return False

    def tail_ok(w):
        try:
            integrate_semi_infinite(w, 1.0, **model.tail_decay)
            return True
        except DivergenceSuspected:
            return False
        except QuadratureError:
            return True  # slow but not divergent

    w1 = lambda r: r ** (p - 1.0) * model.density(r) * prior.g_eval(r)
    w2 = lambda r: r ** (p - 2.0) * model.big_f(r) * prior.g_eval(r)
    return all(head_ok(w) and tail_ok(w) for w in (w1, w2))


def _boundary_margin(prior: RadialPrior, depth: int) -> float:
    """Largest multiple by which G exceeds the thickest admissible tail.

    The admissible boundary allows G(eta) up to
    eta^{2-p} * Tail(eta)^2 / (eta * beta(eta)) for a kernel one level
    deeper than the prior's own log tower; the ratio is evaluated on a
    wide grid and its maximum returned.
    """
    c = 1.0
    for _ in range(1, depth):
        c = math.exp(c)
    tower = LogTower(depth, 2.0 * c)
    kernel = BetaKernel(tower)
    grid = np.geomspace(1.0, 1e8, 200)
    bound = grid ** (2.0 - prior.p) * np.asarray(kernel.beta_tail(grid)) ** 2 / (
        grid * np.asarray(kernel.beta_eval(grid))
    )
    ratio = np.asarray(prior.g_eval(grid), dtype=float) / bound
    return float(np.max(ratio))


def classify_prior(prior: RadialPrior, model=None) -> PriorClassification:
    """Coarse certification from tail index, boundary bound and Brown test."""
    p = prior.p
    if model is None:
        from sphereshrink.radial_models import gaussian

        model = gaussian(p)
    k = prior.estimated_rv_index()
    tail = model.tail_profile()
    brown = brown_diagnostic(prior)
    fg1 = _fg1_finite(prior, model)
    margin = math.nan

    boundary = abs(k - (2.0 - p)) <= 1e-9
    if boundary:
        # an estimated index leaves the log depth unknown too: try several
        depths = [prior.log_depth + 1] if prior.rv_index is not None else [1, 2, 3, 4]
        margin = min(_boundary_margin(prior, d) for d in depths)

    if tail.s > 3.0 and fg1:
        if -p < k < 2.0 - p and not boundary:
            return PriorClassification(
                "admissible_certified", k, tail.s, fg1, margin, brown,
                "tail index strictly inside (-p, 2-p) with thin model tails",
            )
        if boundary and margin <= 4.0:
            return PriorClassification(
                "admissible_certified", k, tail.s, fg1, margin, brown,
                f"boundary index 2-p; thickness within x{margin:.3g} of the admissible bound",
            )
    if brown.verdict == "converges":
        return PriorClassification(
            "inadmissible_certified", k, tail.s, fg1, margin, brown,
            "Brown-type integral converges",
        )
    return PriorClassification(
        "uncertified", k, tail.s, fg1, margin, brown,
        "outside certified ranges or diagnostics indeterminate",
    )
