"""Regularly varying radial priors and their admissibility machinery.

Both halves of the module rest on one product of iterated logarithms,

    f(eta) = prod_{j=0..n} Log_j(eta+c)^{e_j},    Log_0(y) = y,

whose logarithmic derivatives have a closed form in the partial
products P_j = 1/(Log_0 ... Log_j) (see :class:`_LogProduct`).  The
first half builds the smoothing sequence used in Blyth-style
admissibility arguments: the iterated-logarithm kernel

    beta(eta) = 1/(eta+c) * 1/Log_n(eta+c)^2 * prod_{0<j<n} 1/Log_j(eta+c),

the product with exponents (-1, ..., -1, -2), whose tail integral
collapses to 1/Log_n(eta+c), and the exponential averages

    H_i(eta) = int_eta^inf e^{(eta-r)/i} beta(r) dr / int_eta^inf beta(r) dr

that interpolate between 0 and 1 as i grows.  H_i and H_i' take an
array of eta and integrate it as one batch, a row per eta, each mapped
onto t in [0, 1) through log1p and started from pieces graded at its
own boundary layer, t ~ 1/(3 i |(log |fn|)'(eta)|) for the average of
fn = beta or -beta'.  The second half audits a radial prior G: slope
bounds eta G'/G, a properness index, the decay of the Blyth
quadratic-form integrals J(i), a Brown-type integral test on partial
sums, and a coarse admissible/inadmissible classification.  The power,
harmonic and log-thickened priors are one declared family
eta^k prod_j Log_j(eta+c)^{e_j}, and the classification compares a
declared prior's exponents with its coded boundary
eta^{2-p} Log_1 ... Log_m, a product of the same tower.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sphereshrink._domain import eta as _eta, integer, real, same_dimension, timescale
from sphereshrink.numerics import (
    QuadratureError,
    QuadratureSpec,
    integrate_half_lines,
    integrate_rows,
    sphere_surface,
)

_H_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)
# k of each H row's map v = -k*i*log(1-t), which leaves (1-t)^(k-1) in
# the integrand (see _averages)
_H_MAP_EXPONENT = 3
# first edges of each H row in units of its layer scale s (see
# _averages), clipped at t = 1/2: ratio 2^(3/4) from t = s to 2^36 s,
# which reaches 1/2 for s >= 7.3e-12 (on the 1.02 kernel at eta = 0,
# the rows of beta up to i ~ 4.6e8 and those of -beta' up to ~3e8); a
# row with s >= 1/2 starts from [0, 1/2] alone.  From a ratio-2 mesh
# many rows missed their tolerance in the first round by a factor below
# 2, on the top graded pieces below 1/2, and took a second.
_H_MESH = np.array([0.0, *np.exp2(0.75 * np.arange(49.0)), math.inf])
# the row's last edges in t, from 0.7, which splits the [1/2, 0.9]
# piece that also kept rows for a second round, crowding toward t = 1
# where the map stretches furthest
_H_EDGES = np.array([0.7, 0.9, 0.99, 0.999, 1.0])
# floor on 1 - t, which keeps log(1 - t) finite where t rounds to 1
_H_FLOOR = 1e-150
# both pieces of each J(i) answer to the relative tolerance, since J can
# sit far below a fixed absolute one (J(1) = 2.8e-16 for the depth-1
# log-thickened prior with c = 100); the floor is the convolution specs'
_BLYTH_SPEC = QuadratureSpec(abs_tol=1e-280, rel_tol=1e-6, max_subdivisions=120)


class PriorError(ValueError):
    """Invalid prior or kernel construction."""


# --- iterated logarithms ----------------------------------------------

def log_tower(j: int, y):
    """Iterated logarithm Log_j(y): Log_0 = 1, Log_1 = log y, and so on.

    Raises for arguments where any intermediate logarithm is undefined
    or nonpositive (so the next level would be undefined).
    """
    integer(j, PriorError, "log tower depth j", 0)
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    cur = y
    for _ in range(j):
        if np.any(cur <= 0.0):
            raise PriorError("log tower undefined: nonpositive intermediate value")
        cur = np.log(cur)
        out = cur
    return out if out.ndim else float(out)


def kernel_offset(n: int) -> float:
    """Offset c of the depth-n kernel: the c with Log_n(c) = 1, c = exp^n(1).

    That is 1, e, e^e and e^e^e ~ 3.8e6 for n = 0, 1, 2, 3.  No double
    has Log_4(c) = 1 (exp^4(1) overflows), so depth 4 takes
    c = 2 e^e^e ~ 7.6e6, where Log_4(c) ~ 0.016 > 0.  Log_5 of every
    double is negative, so a depth of 5 or more raises PriorError, as
    does a depth that is not an integer >= 0.
    """
    if integer(n, PriorError, "kernel depth n", 0) > 4:
        raise PriorError(f"no kernel of depth {n}: Log_{n}(c) < 0 for every double c")
    c = 1.0
    for _ in range(min(n, 3)):
        c = math.exp(c)
    return 2.0 * c if n == 4 else c


@dataclass(frozen=True)
class LogTower:
    """Depth and offset of an iterated-log kernel: an integer n >= 1 and a finite c with Log_n(c) > 0."""

    n: int
    c: float

    def __post_init__(self):
        integer(self.n, PriorError, "kernel depth n", 1)
        val = log_tower(self.n, real(self.c, PriorError, "kernel offset c"))
        if not val > 0.0:
            raise PriorError(f"Log_{self.n}({self.c}) = {val} must be positive")


class _LogProduct:
    """f(eta) = prod_{j=0..n} Log_j(eta+c)^{e_j} with Log_0(y) = y, real e_j.

    (``log_tower`` takes Log_0 = 1 instead.)  Since
    Log_j' = 1/(Log_0 ... Log_{j-1}), the partial products
    P_j = 1/(Log_0 ... Log_j) satisfy Log_j'/Log_j = P_j and
    P_j' = -P_j (P_0 + ... + P_j), so

        (log f)'  =  sum_j e_j P_j,
        (log f)'' = -sum_j e_j P_j (P_0 + ... + P_j).

    Each call builds the levels Log_0 ... Log_n once; f is one quotient
    of the positive powers by the negative ones.  A non-finite exponent
    raises :class:`PriorError`.
    """

    def __init__(self, c: float, exponents):
        self.c = float(c)
        # held as floats: numpy mixes a float scalar in faster
        self.exponents = tuple(real(e, PriorError, "log exponent") for e in exponents)
        # (j, |e_j|) of the powers above and below the fraction bar
        self._above = tuple((j, e) for j, e in enumerate(self.exponents) if e > 0)
        self._below = tuple((j, -e) for j, e in enumerate(self.exponents) if e < 0)

    def __call__(self, eta, order: int = 0):
        """[f, (log f)', (log f)''][:order + 1] at eta."""
        return self.at_levels(self.levels(eta), order)

    def levels(self, eta):
        """[Log_0(eta+c), ..., Log_n(eta+c)]."""
        levels = [np.asarray(eta, dtype=float) + self.c]
        for _ in self.exponents[1:]:
            levels.append(np.log(levels[-1]))
        return levels

    def at_levels(self, levels, order: int = 0, scale=1.0):
        """[f, s (log f)', s^2 (log f)''][:order + 1] from the output of ``levels``, s = ``scale``.

        The scale enters as s P_j, which keeps eta (log f)' and
        eta^2 (log f)'' in range where eta^2 would overflow.
        """
        num, den = _power_product(levels, self._above), _power_product(levels, self._below)
        if den is None:
            out = [num]
        else:
            out = [1.0 / den if num is None else num / den]
        if order:
            d1 = d2 = s = 0.0
            p = scale
            for lev, e in zip(levels, self.exponents):
                p = p / lev
                if e:
                    d1 = d1 + e * p
                if order > 1:
                    s = s + p
                    d2 = d2 - e * p * s
            out += [d1, d2][:order]
        return out


def _power_product(levels, powers):
    """prod levels[j]**k over (j, k) in ``powers``; None when there is none."""
    out = None
    for j, k in powers:
        power = levels[j] if k == 1.0 else levels[j] ** k
        out = power if out is None else out * power
    return out


class BetaKernel:
    """Normalized decay kernel beta = 1/((eta+c) Log_1 ... Log_{n-1} Log_n^2).

    beta is the :class:`_LogProduct` of eta + c with exponents
    (-1, ..., -1, -2), and its closed-form tail 1/Log_n(eta+c) is one
    over the product's last level; beta' = beta (log beta)' takes the
    product's chain rule.
    """

    def __init__(self, tower: LogTower):
        self.tower = tower
        self._beta = _LogProduct(tower.c, (-1,) * tower.n + (-2,))

    def beta_eval(self, eta):
        return _value(self._beta(eta)[0])

    def beta_tail(self, eta):
        """int_eta^inf beta = 1/Log_n(eta+c), exact."""
        return _value(1.0 / self._beta.levels(eta)[-1])

    def beta_deriv(self, eta):
        """Analytic derivative of beta."""
        beta, dlog = self._beta(eta, 1)
        return _value(beta * dlog)

    def minus_beta_deriv(self, eta):
        """-beta', the integrand of the second average in H_i'."""
        return -self.beta_deriv(eta)

    def _layer(self, eta, order: int):
        """([beta, (log beta)', (log beta)''][:order + 1], 1/Log_n) at eta, from one pass over the levels."""
        levels = self._beta.levels(eta)
        return self._beta.at_levels(levels, order), 1.0 / levels[-1]


class HSequence:
    """Exponential averages of the beta kernel at timescale i.

    ``numerator``, ``h_eval`` and ``h_derivative`` take a float or an
    array of eta >= 0, of any shape, and return the same; an array is
    one batched quadrature with one row per entry, flattened and
    reshaped back, and each entry equals the scalar call at that eta
    bitwise.  A negative or non-finite eta (nan included) raises
    :class:`PriorError`.  The average of beta and that
    of -beta' each start graded at their own boundary layer (see
    ``_averages``): -beta' falls off like |beta'|, a layer thinner than
    beta's.
    """

    def __init__(self, kernel: BetaKernel, i: float):
        self.kernel = kernel
        self.i = timescale(i, PriorError)

    def _avg(self, eta, derivative: bool = False):
        """[beta, Tail, Num] at eta, and the average of -beta' after them if ``derivative``.

        One :class:`_LogProduct` pass gives beta, its log-slopes (the
        second only for ``derivative``) and the tail 1/Log_n; one
        ``_averages`` batch gives
        Num = int_eta^inf e^{(eta-r)/i} beta(r) dr and, as a second
        block, the same of -beta', whose layer slope is
        (log|beta'|)' = (log beta)' + (log beta)''/(log beta)'.  Each
        entry is a float for a float eta, else an array of eta's shape.
        """
        scalar = not np.ndim(eta)
        eta = _eta(eta, PriorError)
        etas = np.array([eta], dtype=float) if scalar else eta.ravel()
        kernel = self.kernel
        logs, tail = kernel._layer(etas, 1 + derivative)
        beta, slope = logs[:2]
        blocks = [(kernel.beta_eval, self.i, slice(None), slope)]
        if derivative:
            blocks.append((kernel.minus_beta_deriv, self.i, slice(None), slope + logs[2] / slope))
        out = [beta, tail, *_averages(etas, beta, blocks)]
        return [float(part[0]) for part in out] if scalar else [part.reshape(eta.shape) for part in out]

    def numerator(self, eta):
        """int_eta^inf e^{(eta-r)/i} beta(r) dr."""
        return self._avg(eta)[2]

    def h_eval(self, eta):
        """H_i(eta) in (0, 1)."""
        _, tail, num = self._avg(eta)
        return num / tail

    def h_derivative(self, eta):
        """H_i'(eta) from the two-integral form.

        H_i' = beta(eta) * Num(eta) / Tail(eta)^2
               - int_eta^inf e^{(eta-r)/i} (-beta'(r)) dr / Tail(eta)

        The one-integral identity H_i' = H_i/i - (beta/Tail)(1 - H_i) is
        exact, but its two terms cancel when eta >> i: with c = e, at
        eta = 1e8 and i = 1 it is off by 2.8e-6 relative where this form
        is off by 6e-14, so the second integral stays.
        """
        beta, tail, num, dpart = self._avg(eta, True)
        return beta * num / tail**2 - dpart / tail


def _averages(etas, scale, blocks):
    """Exponential averages of kernel functions, every block in one batch.

    Each block ``(fn, i, at, slope)`` asks for
    int_eta^inf e^{(eta-r)/i} fn(r) dr at the etas ``etas[at]`` (``at`` a
    slice), and gets an array of them, in the order of ``blocks``;
    ``slope`` is (log |fn|)' at ``etas``, which places each row's layer
    (below).  One ``integrate_rows`` call holds a row per (block, eta),
    the blocks' rows one run after another; each round
    calls a block's fn once, on its rows' nodes, with the block's
    timescale as a scalar; a one-block batch, such as a scalar
    ``h_eval``, takes views of ``etas`` and skips the split.  A row's
    value does not depend on its batch, so an average is the same
    whatever timescales share it.

    With k = _H_MAP_EXPONENT, the map v = r - eta = -k*i*log(1-t)
    has dv = k*i dt/(1-t) and e^{-v/i} = (1-t)^k, so

        int_0^inf e^{-v/i} fn(eta+v) dv
          = int_0^1 k*i * fn(eta - k*i*log(1-t)) * (1-t)^(k-1) dt,

    exactly.  With k = 1 the weight would be absorbed whole, but the
    integrand i*fn(eta+v) of a kernel like beta then decays only
    like 1/log(1-t)^2 at t = 1 and the last piece needs many
    bisections; with k = 3 the factor (1-t)^2 makes it vanish there.
    Shifting by eta first keeps the exponent exact; forming eta - r
    at large eta would cancel away most of its digits.  The map takes
    log(1-t) as log1p(-t), whose digits hold at t near 0 where 1 - t
    has lost them; where t rounds to 1 it is floored at 1 - t = 1e-150.

    fn(eta+v) falls off where v*|slope(eta)| nears 1, a boundary layer
    at t ~ s = 1/(k*i*|slope(eta)|) that is thin for large i or for eta
    near 0 with a small offset (s = 3e-11 for beta at i = 1e8 with
    c = 1.02).  Each row therefore starts from the pieces s*_H_MESH,
    graded at ratio 2^(3/4) through its layer and clipped at t = 1/2,
    then _H_EDGES, less the pieces the clip leaves empty; a row's value
    depends on its own (eta, i, fn, slope) alone.  s is clipped at 1/2
    first, which leaves a row with s >= 1/2 at [0, 1/2] and keeps s
    finite for a tiny i, where 1/(k*i*|slope|) would overflow and s*0
    make a NaN edge.  ``scale`` is beta(eta): each row is divided by it
    at its eta, so that its absolute tolerance is relative to the
    answer's size.
    """
    stretches = [_H_MAP_EXPONENT * i for _, i, _, _ in blocks]
    if len(blocks) == 1:
        (_, _, at, slope), = blocks
        row_eta, row_scale, row_slope = etas[at], scale[at], slope[at]
        row_stretch = stretches[0]
        first = (0, row_eta.size)
    else:
        row_eta, row_scale, row_slope = (np.concatenate(parts) for parts in zip(
            *[(etas[at], scale[at], slope[at]) for _, _, at, slope in blocks]))
        sizes = [etas[at].size for _, _, at, _ in blocks]
        row_stretch = np.repeat(stretches, sizes)
        first = list(itertools.accumulate(sizes, initial=0))

    def rows(row, t):
        log_w = np.log1p(-t, out=np.full_like(t, math.log(_H_FLOOR)), where=t < 1.0)
        w, eta = np.maximum(1.0 - t, _H_FLOOR), row_eta[row]
        if len(blocks) == 1:
            y = stretches[0] * blocks[0][0](eta - stretches[0] * log_w)
        else:
            # ``row`` is nondecreasing, so each block's rows are one run
            # (none at all for an empty eta)
            ends = np.searchsorted(row, first).tolist()
            y = np.concatenate([t[:0], *(s * fn(eta[a:b] - s * log_w[a:b])
                                         for (fn, *_), s, a, b in zip(blocks, stretches, ends, ends[1:]) if b > a)])
        return y * w ** (_H_MAP_EXPONENT - 1) / row_scale[row]

    layer = 1.0 / np.maximum(row_stretch * np.abs(row_slope), 2.0)
    edges = np.empty((row_eta.size, _H_MESH.size + _H_EDGES.size))
    np.minimum(layer[:, None] * _H_MESH, 0.5, out=edges[:, : _H_MESH.size])
    edges[:, _H_MESH.size :] = _H_EDGES
    values = integrate_rows(rows, edges, _H_SPEC.abs_tol, _H_SPEC)
    return [values[a:b] * scale[at] for (_, _, at, _), a, b in zip(blocks, first, first[1:])]


# --- radial priors ----------------------------------------------------

def _value(out):
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


class RadialPrior:
    """Radial prior density G(eta) on R^p with thin-tail exponent data.

    A declared prior (power, harmonic, log-thickened) and a custom one
    each set ``params`` and ``detail`` (the parameter text of the repr)
    and define ``_g``, ``_g_deriv`` and ``_g_deriv2``; the public methods
    here convert their input to float arrays and call them and are not
    overridden, so ``perfbench/tracer.py`` can wrap ``g_eval`` here.
    ``rv_index`` (the regular-variation index) and ``origin_slope`` (the
    limit of eta G'/G at 0) are None when they must be estimated;
    ``log_depth`` counts the iterated-log factors riding on the power
    part; ``pure_power`` is k for a prior declared as G = eta^k with no
    log factor, else None: on a sum of gaussian bells its marginal, its
    along-x numerator and its GB factor are closed (Kummer's 1F1); and
    ``harmonic`` marks G = eta^{2-p}, whose marginal has a closed form on
    every model.  ``gamma`` is the exponent used when the smoothing
    sequence is glued onto the prior in properness and Blyth integrals.
    """

    rv_index = None
    origin_slope = None
    log_depth = 0
    pure_power = None
    harmonic = False

    def __new__(cls, *args, **kwargs):
        if cls is RadialPrior:
            raise PriorError("use a prior factory (power_prior, harmonic_prior, ...)")
        return super().__new__(cls)

    def __init__(self, p, gamma):
        self.p = integer(p, PriorError)
        self.gamma = real(gamma, PriorError, "gamma", 0.0, 2.0, "(]")

    # G and its derivatives ------------------------------------------

    def g_eval(self, eta):
        return _value(self._g(np.asarray(eta, dtype=float)))

    def g_deriv(self, eta):
        """G'(eta).  Public API: the package's own code calls ``_g_deriv``."""
        return _value(self._g_deriv(np.asarray(eta, dtype=float)))

    def g_deriv2(self, eta):
        """G''(eta).  Public API: the package's own code calls ``_g_deriv2``."""
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


class _Declared(RadialPrior):
    """G(eta) = eta^k prod_{j=1..m} Log_j(eta+c)^{e_j}: the power (m = 0), harmonic and log-thickened priors.

    The logs vary slowly and are positive at eta = 0, so rv_index =
    origin_slope = k and log_depth = m.  With f the :class:`_LogProduct`
    of eta + c with exponents (0, e_1, ..., e_m), L = eta G'/G and
    X = eta (log f)' + eta^2 (log f)'' come from its eta-scaled slopes:
    G' = G L / eta, G'' = G (L (L - 1) + X) / eta / eta and
    eta G''/G' = L - 1 + X / L.  A pure power keeps eta^k, k and k - 1,
    and declares ``pure_power`` = k.
    """

    def __init__(self, family: str, p: int, gamma, k, c: float = 0.0, exponents=()):
        super().__init__(p, gamma)
        k = real(k, PriorError, "power k")
        exponents = tuple(map(float, exponents))
        self._logs = None
        if any(exponents):
            c = real(c, PriorError, "log offset c")
            LogTower(len(exponents), c)  # all factors must be positive at eta = 0
            self._logs = _LogProduct(c, (0.0, *exponents))
            # G's limit at inf: 0 when the first nonzero of (k, e) is negative
            self._g_at_inf = 0.0 if (k, *exponents) < (0.0,) * (1 + len(exponents)) else math.inf
        self.family, self.k, self.exponents = family, k, exponents
        self.rv_index = self.origin_slope = k
        self.log_depth = len(exponents)
        self.pure_power = k if self._logs is None else None
        self.harmonic = self.pure_power == 2.0 - self.p
        self.params = {"k": k} if self._logs is None else {"k": k, "c": c, "exponents": exponents}
        self.detail = ", ".join(f"{name}={value}" for name, value in self.params.items())

    def _log_parts(self, eta):
        """(G, L, X) at eta, each at its limit where eta = inf."""
        far = np.isinf(eta)
        near = np.where(far, 1.0, eta)
        f, d1, d2 = self._logs.at_levels(self._logs.levels(near), 2, near)
        return (np.where(far, self._g_at_inf, near**self.k * f), np.where(far, self.k, self.k + d1),
                np.where(far, 0.0, d1 + d2))

    def _g(self, eta):
        return eta**self.k if self._logs is None else self._log_parts(eta)[0]

    def _g_deriv(self, eta):
        if self._logs is None:
            return self.k * eta ** (self.k - 1.0)
        g, slope, _ = self._log_parts(eta)
        return g * slope / eta

    def _g_deriv2(self, eta):
        if self._logs is None:
            return self.k * (self.k - 1.0) * eta ** (self.k - 2.0)
        g, slope, curve = self._log_parts(eta)
        return g * (slope * (slope - 1.0) + curve) / eta / eta

    def _log_deriv(self, eta):
        return np.full_like(eta, self.k) if self._logs is None else self._log_parts(eta)[1]

    def _second_log_deriv(self, eta):
        if self._logs is None:
            return np.full_like(eta, self.k - 1.0)
        _, slope, curve = self._log_parts(eta)
        return slope - 1.0 + curve / slope


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
    return _Declared("power", p, gamma, k)


def harmonic_prior(p: int, gamma: float = 2.0) -> RadialPrior:
    return _Declared("harmonic", p, gamma, 2.0 - integer(p, PriorError))


def log_thickened_prior(n: int, c: float, p: int, gamma: float = 2.0) -> RadialPrior:
    """eta^{2-p} times n+1 nested log factors: n=0 is eta^{2-p} log(eta+c)."""
    exponents = (1.0,) * (integer(n, PriorError, "log depth n", 0) + 1)
    return _Declared("log_thickened", p, gamma, 2.0 - integer(p, PriorError), c=c, exponents=exponents)


def custom_prior(g, g_prime, p: int, g_double_prime=None, gamma: float = 2.0) -> RadialPrior:
    """Prior from user-supplied G, G' and G''; its exponents are estimated.  Public API."""
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
    """Integrals of ``integrand`` over each decade of [1, 1e8], one ``integrate_rows`` row each.

    Row k starts from four pieces even in log eta, between the edges
    10^(k + j/4), j = 0..4: an integrand that moves by a power of eta
    across a decade then needs few rounds of bisection, and the rows
    stay one batch.
    """
    edges = 10.0 ** np.arange(9)
    rows = 10.0 ** (np.arange(8)[:, None] + np.arange(5) / 4.0)
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
    """Partial integrals of eta^{p-1} G(eta) H_1(eta)^gamma over the decades of [1, 1e8].

    The decades are the rows of one ``_decade_partials`` batch, each
    started from four log-even pieces.
    """
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
    then classifies the growth of its decade partial sums on [1, 1e8],
    one ``_decade_partials`` batch whose rows start from four log-even
    pieces each.  The two are not close near ||x|| = 1: on gaussian
    p = 5 with the harmonic prior, m/G is 0.20, 0.48 and 0.74 at r = 1,
    1.5 and 2.
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
    gamma = 2 fails.  Public API: no module here calls it.
    """
    for j in range(1, int(round(2.0 / real(step, PriorError, "step", 0.0, 2.0, "(]"))) + 1):
        trial = copy.copy(prior)
        trial.gamma = step * j
        if properness_index(trial, kernel).verdict == "finite":
            return trial.gamma
    return None


def blyth_decay(prior: RadialPrior, kernel: BetaKernel, i_list) -> list[float]:
    """Quadratic-form integrals J(i) whose decay to 0 drives admissibility.

    J(i) = int_0^inf eta^{p-1} G(eta) H_1(eta)^{gamma-2} H_i'(eta)^2 deta.
    For gamma = 2 the H_1 factor drops out exactly.

    Every J(i) is one term of one ``integrate_half_lines`` call: a head
    row on [0, 1] and a tail row on [1, inf) under the power map
    eta = 1/(1-t), which starts from the pieces between eta = 4^k
    (k = 0..10, the map's ratio-4 ladder), so that a J(i) at i = 1e4 or
    1e6 does not bisect its way out to eta ~ i one factor of 2 a round.
    Each call of the outer integrand makes one ``_averages`` batch for
    all its nodes, head and tail alike: at each node the H_i numerator
    (beta) and the H_i' part (-beta') at the node's timescale i, and,
    when gamma != 2, the H_1 numerator at timescale 1, each block graded
    at its own layer; beta, its log-slopes and the tail 1/Log_n come
    from one pass of the kernel's product.  A row's value does not
    depend on the other rows of either batch, so a J(i) is the same
    alone and among others.  A failure (an exhausted ``_BLYTH_SPEC``, a
    tail the probe refuses or one parked at t -> 1) names the J(i) and
    its head or tail.  A timescale that is not positive and finite (nan
    included) raises :class:`PriorError`, as ``HSequence`` does.
    """
    p, gamma = prior.p, prior.gamma
    timescales = [timescale(i, PriorError) for i in i_list]
    n = len(timescales)
    if not n:
        return []

    def outer(terms, eta):
        # ``terms`` is nondecreasing, so each J(i)'s nodes are one run
        ends = np.searchsorted(terms, np.arange(n + 1)).tolist()
        runs = [(i, slice(a, b)) for i, a, b in zip(timescales, ends, ends[1:]) if b > a]
        (beta, slope, curve), tail = kernel._layer(eta, 2)
        # each block graded at its own layer, as in HSequence._avg
        parts = ((kernel.beta_eval, slope), (kernel.minus_beta_deriv, slope + curve / slope))
        blocks = [(fn, i, at, sl) for i, at in runs for fn, sl in parts]
        if gamma != 2.0:
            blocks.append((kernel.beta_eval, 1.0, slice(None), slope))
        avgs = _averages(eta, beta, blocks)
        num, dpart = np.concatenate(avgs[0 : 2 * len(runs) : 2]), np.concatenate(avgs[1 : 2 * len(runs) : 2])
        w = eta ** (p - 1.0) * prior.g_eval(eta)
        if gamma != 2.0:
            w = w * (avgs[-1] / tail) ** (gamma - 2.0)
        # H_i' in the two-integral form of HSequence.h_derivative
        return w * (beta * num / tail**2 - dpart / tail) ** 2

    names = [f"J({i!r})" for i in timescales]
    return integrate_half_lines(outer, [[0.0, 1.0]] * n, _BLYTH_SPEC, decay="power", scale=1.0, names=names).tolist()


# --- classification ----------------------------------------------------

@dataclass(frozen=True)
class PriorClassification:
    verdict: str  # "admissible_certified" | "inadmissible_certified" | "uncertified"
    rv_index: float
    tail_s: float
    fg1_ok: bool
    brown: GrowthReport
    detail: str


def _fg1_finite(prior: RadialPrior, model) -> bool:
    """FG1: the marginals m(g|0) and M(g/||theta|| | 0) of the prior are finite.

    They are c_p int g f lambda^{p-1} and (c_p / C_f) int g F lambda^{p-2},
    one two-term request of the convolution oracle at r = 0.  It fails on
    an origin class at or below -p (in the second term, a power prior's
    k <= 1 - p), a divergent tail, any quadrature failure or infinite C_f.
    """
    from sphereshrink.radial_convolution import ConvolutionError, _request
    from sphereshrink.radial_models import DivergentMoment

    g, cls = prior.g_eval, prior.origin_class
    try:
        _request(model, 0.0, [("density", g, cls), ("tail_kernel", lambda lam: g(lam) / lam, cls - 1.0)])
    except (ConvolutionError, QuadratureError, DivergentMoment):
        return False
    return True


def _coded_boundary(log_depth: int) -> _LogProduct:
    """B with eta^{1-p} B = eta^{2-p} Tail^2 / (eta beta) for the kernel a level below ``log_depth`` logs.

    The kernel is LogTower(d, c), d = log_depth + 1, c = 2 exp^{d-1}(1).
    Log_d cancels from Tail^2 / beta, which leaves B = (eta+c) Log_1 ... Log_{d-1},
    exponents (1, ..., 1): up to a constant multiple, the coded boundary
    eta^{2-p} Log_1 ... Log_{log_depth}.  A kernel depth no double
    supports raises PriorError naming the log depth that asks for it.
    """
    depth = log_depth + 1
    try:
        kernel_offset(depth)
    except PriorError as exc:
        raise PriorError(f"the prior's log depth {log_depth} asks for a boundary kernel of depth {depth}, "
                         f"which no double supports ({exc})") from None
    return _LogProduct(2.0 * kernel_offset(log_depth), (1.0,) * depth)


def classify_prior(prior: RadialPrior, model=None) -> PriorClassification:
    """Coarse certification from tail index, the coded boundary and Brown test.

    Index 2-p is certified only for a declared prior under the repo's
    coded boundary (``_coded_boundary``), never for a custom one, whose
    log exponents are unknown.  Admissibility is certified only under FG1 (``fg1_ok``, see
    ``_fg1_finite``) against ``model``, by default the gaussian; a model
    of another dimension than the prior's raises PriorError.
    """
    if model is None:
        from sphereshrink.radial_models import gaussian

        model = gaussian(prior.p)
    p = same_dimension(PriorError, model, prior)
    k = prior.estimated_rv_index()
    tail = model.tail_profile()
    brown = brown_diagnostic(prior)
    fg1 = _fg1_finite(prior, model)
    boundary = abs(k - (2.0 - p)) <= 1e-9
    # G over the coded boundary tends to prod_j Log_j^{e_j - 1}, bounded exactly when
    # e <= (1, ..., 1) lexicographically, whatever the offsets
    bounded = boundary and isinstance(prior, _Declared) and (
        prior.exponents <= _coded_boundary(prior.log_depth).exponents[1:])

    if tail.s > 3.0 and fg1:
        if -p < k < 2.0 - p and not boundary:
            return PriorClassification(
                "admissible_certified", k, tail.s, fg1, brown,
                "tail index strictly inside (-p, 2-p) with thin model tails",
            )
        if bounded:
            return PriorClassification(
                "admissible_certified", k, tail.s, fg1, brown,
                "boundary index 2-p; log exponents at or under the coded boundary (1, ..., 1)",
            )
    if brown.verdict == "converges":
        return PriorClassification(
            "inadmissible_certified", k, tail.s, fg1, brown,
            "Brown-type integral converges",
        )
    return PriorClassification(
        "uncertified", k, tail.s, fg1, brown,
        "outside certified ranges or diagnostics indeterminate",
    )
