"""Monte Carlo risk estimation for location estimators under quadratic loss.

Observations are X = theta + R U with R drawn by inverse CDF of the
radial law r^{p-1} f(r) and U uniform on the sphere.  The per-draw
tables (the inverse CDF, the harmonic weight, which is the harmonic
prior's generalized-Bayes weight too, and any other prior's) are
``numerics.gated_table`` cubics, looked up without a binary search and
bitwise as scipy would.  R U does not depend on theta, so a risk curve
draws it once per block of draws, from a counter-based stream keyed by
(seed, block index), and every theta of the curve uses that block:
X = theta + R U.  The entries of a curve are therefore positively
correlated across theta, each with the standard error it would have
alone, and an entry depends only on the seed, its theta and the rest
of the configuration, not on the other thetas or their order.  The
per-block partial sums are reduced in a fixed order, so results are
byte-identical for any worker-thread count.  Paired (common random
numbers) sampling estimates the risk difference against the identity
estimator with far smaller variance than independent runs.

The built-in estimators are radial, delta(x) = (1 - w(||x||)) x, so a
block never forms X.  With theta = t d and v = R U it keeps the per-draw
scalars R^2, v.d, v'Qv and v'Qd, and each theta works on n-vectors:
||x||^2 = R^2 + t (2 v.d + t), and the paired loss difference
w (w x'Qx - 2 x'Qv) is computed directly from them rather than as the
difference of two nearly equal losses.  A callable estimator takes the
materialized path, X = theta + R U and delta = est(X, ||X||), on the
same draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np
from scipy.interpolate import PchipInterpolator

from sphereshrink._domain import integer, radii, real, same_dimension
from sphereshrink.numerics import QuadratureError, WeightTable, gated_table, sphere_surface
from sphereshrink.radial_convolution import ConvolutionError, c_f, gb_marginals
from sphereshrink.radial_models import RadialDensity
from sphereshrink.rv_priors import RadialPrior
from sphereshrink.shrinkage import _cached_profile, tail_power

_BLOCK = 4096
ESTIMATORS = ("identity", "harmonic_bayes", "generalized_bayes")


class RiskSimError(Exception):
    """Ill-posed risk request, or (as TableError) a per-draw table that fails."""


class TableError(RiskSimError, ArithmeticError):
    """A per-draw table that misses its gate, or whose values cannot be computed: a numeric failure."""


# -- radial sampling ----------------------------------------------------

_SAMPLERS: "WeakKeyDictionary[RadialDensity, tuple]" = WeakKeyDictionary()
_GB_TABLES: "WeakKeyDictionary[RadialDensity, WeakKeyDictionary[RadialPrior, tuple]]" = WeakKeyDictionary()
# Geometric knots of the inverse-CDF table (an origin knot comes on top).
_SAMPLER_KNOTS = 6143
# Geometric knots of the GB psi table, and its accuracy gate (_gb_table).
_GB_KNOTS = 49
_GB_TABLE_TOL = 2e-3


def _cdf(model: RadialDensity, r):
    """Radial CDF c_p int_0^r s^{p-1} f(s) ds, from the kernel moment B.

    With F'(s) = -s f(s), integrating by parts gives
    c_p [(p-2) B(r) - r^{p-2} F(r)], B(r) = int_0^r t^{p-3} F(t) dt.
    """
    p = model.p
    return sphere_surface(p) * ((p - 2.0) * model.kernel_moment(p - 3.0, r) - r ** (p - 2.0) * model.big_f(r))


def _logit(u):
    """log(u / (1 - u)), the sampler table's bucket coordinate."""
    return np.log(u / (1.0 - u))


def _build_sampler(model: RadialDensity):
    """Inverse-CDF table: a PCHIP of r over the exact CDF at its knots.

    The knots are the origin plus geometric radii up to r_hi, hence
    geometric in the u tail as well.  r_hi starts at
    ``support_radius(1e-14)``, which bounds F rather than the radial
    mass, and doubles until at most 1e-10 of the mass lies beyond it.
    Where the CDF is below about 1e-20 the by-parts difference loses its
    relative digits, so a knot is kept only if its CDF rises strictly
    above that of every knot below it.  The PCHIP is a ``gated_table``
    over logit u, which covers both tails: near 0 the CDF behaves like r^p,
    and the tail is exponential or a power law.  At every interval midpoint
    u, CDF(ppf(u)) must lie within 1e-8 of u, else TableError is raised.
    """
    r_hi = model.support_radius(1e-14)
    for _ in range(100):
        if 1.0 - _cdf(model, r_hi) <= 1e-10:
            break
        r_hi *= 2.0
    else:
        raise TableError(f"more than 1e-10 of the radial mass lies beyond r = {r_hi:.3g}")
    knots = np.concatenate([[0.0], np.geomspace(r_hi * 1e-7, r_hi, _SAMPLER_KNOTS)])
    cdf = _cdf(model, knots)
    keep = cdf > np.maximum.accumulate(np.concatenate([[-np.inf], cdf[:-1]]))
    u_knots, r_knots = cdf[keep], knots[keep]
    ppf = gated_table(u_knots, (r_knots,), PchipInterpolator, _logit,
                      lambda table, u: np.abs(_cdf(model, table(u)) - u), 1e-8, TableError,
                      "inverse-CDF table misses the exact CDF")
    return ppf, float(u_knots[-1]), float(r_knots[-1])


def _sampler(model: RadialDensity):
    tab = _SAMPLERS.get(model)
    if tab is None:
        tab = _build_sampler(model)
        _SAMPLERS[model] = tab
    return tab


def sample_radius(model: RadialDensity, u):
    """Radius with law proportional to r^{p-1} f(r), by inverse CDF.

    Strictly increasing in u up to the table's last knot (CDF mass at
    least 1 - 1e-10); the residual sliver maps to the last radius.  Any u
    outside [0, 1], nan included, raises RiskSimError.  Each radius is
    bitwise the value scipy's ``PchipInterpolator`` gives.
    """
    ppf, u_hi, r_hi = _sampler(model)
    if isinstance(u, float) or np.ndim(u) == 0:
        u = real(u, RiskSimError, "u", 0.0, 1.0, "[]")
        return r_hi if u >= u_hi else ppf(u)
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu <= 1.0)):
        raise RiskSimError("u must lie in [0, 1]")
    return np.where(uu >= u_hi, r_hi, ppf(uu))


def radial_cdf(model: RadialDensity, r):
    """Exact CDF of the radial law, c_p [(p-2) B(r) - r^{p-2} F(r)], clipped to [0, 1].

    It is 0 at a negative r and 1 at r = inf; a nan r raises RiskSimError.
    """
    rr = np.asarray(r, dtype=float)
    if np.isnan(rr).any():
        raise RiskSimError("r must be a number, not nan")
    top = rr == math.inf
    out = np.where(top, 1.0, np.clip(_cdf(model, np.where(top, 0.0, np.maximum(rr, 0.0))), 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _sample_block(model, rng, n):
    """n draws of R U = z (R / ||z||) as (z, R, R / ||z||).

    The stream layout is fixed: normals first, then uniforms.
    """
    z = rng.standard_normal((n, model.p))
    u = rng.random(n)
    r = sample_radius(model, u)
    # ||z|| column by column: for p < 8 the order np.linalg.norm sums in,
    # at a quarter of its cost
    sq = z[:, 0] * z[:, 0]
    for j in range(1, model.p):
        sq += z[:, j] * z[:, j]
    return z, r, r / np.sqrt(sq)


# -- configuration ------------------------------------------------------


@dataclass(frozen=True)
class RiskConfig:
    model: RadialDensity
    p: int
    estimator: object = "harmonic_bayes"  # enum name or callable(X, norms) -> delta
    prior: RadialPrior | None = None
    theta_norms: tuple = (0.0,)
    samples_per_point: int = 10000
    seed: int = 0
    loss_Q: np.ndarray | None = field(default=None, compare=False)
    paired: bool = True
    theta_direction: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        same_dimension(RiskSimError, self.model, self.prior, self.p)
        n = integer(self.samples_per_point, RiskSimError, "samples_per_point", 1)
        object.__setattr__(self, "samples_per_point", n)
        object.__setattr__(self, "seed", integer(self.seed, RiskSimError, "seed", None) & (2**64 - 1))
        object.__setattr__(self, "theta_norms", tuple(radii(self.theta_norms, RiskSimError, "theta_norms").tolist()))
        if isinstance(self.estimator, str):
            if self.estimator not in ESTIMATORS:
                raise RiskSimError(f"estimator must be one of {ESTIMATORS} or a callable")
            if self.estimator == "generalized_bayes" and self.prior is None:
                raise RiskSimError("generalized_bayes needs a prior")
        elif not callable(self.estimator):
            raise RiskSimError("estimator must be an enum name or a callable")
        if self.loss_Q is not None:
            q = np.asarray(self.loss_Q, dtype=float)
            if q.shape != (self.p, self.p):
                raise RiskSimError(f"loss_Q must be {self.p} x {self.p}")
            if not np.allclose(q, q.T, rtol=1e-10, atol=1e-12):
                raise RiskSimError("loss_Q must be symmetric")
            try:
                np.linalg.cholesky(q)
            except np.linalg.LinAlgError as exc:
                raise RiskSimError("loss_Q must be positive definite") from exc
            object.__setattr__(self, "loss_Q", q)
        if self.theta_direction is not None:
            d = np.asarray(self.theta_direction, dtype=float)
            if d.shape != (self.p,) or not np.all(np.isfinite(d)) or np.linalg.norm(d) == 0:
                raise RiskSimError("theta_direction must be a finite nonzero p-vector")
            object.__setattr__(self, "theta_direction", d / np.linalg.norm(d))


@dataclass(frozen=True)
class RiskPoint:
    theta_norm: float
    risk_estimate: float
    std_error: float
    baseline_risk: float
    paired_diff_estimate: float
    paired_diff_std_error: float


@dataclass(frozen=True)
class RiskCurve:
    entries: tuple
    metadata: dict = field(compare=False)


@dataclass(frozen=True)
class DominanceVerdict:
    verdict: str  # dominates | violation_at | inconclusive
    theta: float | None = None


# -- estimation ---------------------------------------------------------


def _gb_table(model: RadialDensity, prior: RadialPrior) -> WeightTable:
    """The GB weight w = 1 - kappa as a ``numerics.WeightTable``, built once per (model, prior).

    The harmonic prior's kappa is the profile's 1 - phi/r^2, so its table
    is the one ``harmonic_bayes`` reads; for any other prior
    phi = r^2 (1 - kappa) = -r S/m comes from the convolution oracle's
    ``gb_marginals``.  The head's ``_GB_KNOTS`` = 49 geometric knots end
    at max(support_radius(1e-10), 1), with the slopes of a PCHIP through
    phi.  The tail's lead is -c_f r G'(r)/G(r), c_f = E||X||^2/p:
    phi's first term at large r, tending to -k c_f for a prior of index
    k, so that the rest is near linear in r^-beta,
    beta = ``shrinkage.tail_power``, even where G carries log factors.
    The gates allow ``_GB_TABLE_TOL`` = 2e-3 of max(1, the largest |phi|
    at a head knot).  Measured misses are at most 4.4e-4 of that in the
    head and 1.9e-4 in the tail (gaussian p = 3, 5, 8 and
    (1 + r^2)^-q/2 tables in p = 5, q = 7.2 and 8; power(-2.5) and
    log-thickened(0, 2) priors), except for power(-2.5) on the p = 3
    gaussian, whose head misses by 7.7e-3 of it (0.028 in phi), so that
    its table raises TableError.  With power(-2.5)'s closed Kummer-sum
    oracle on the gaussian, its misses read 2.5e-4 (head) and 5.9e-5
    (tail) in p = 5, 1.3e-4 and 1.1e-4 in p = 8, and 7.7e-3 in the p = 3
    head, as with the bell rows: the p = 3 miss is the table's own,
    from the PCHIP slopes at a local maximum of phi.  Where the oracle fails past the head,
    TableError is raised: with power(-2.5) on a (1 + r^2)^-3.525 table
    in p = 5 (fitted q = 7.039, beta = 0.039) the tail's last midpoint
    lies at r = 1.5e12, and the oracle fails from r = 2.5e10.
    """
    if prior.harmonic:
        return _cached_profile(model).table
    tables = _GB_TABLES.setdefault(model, WeakKeyDictionary())
    table = tables.get(prior)
    if table is None:
        hi = model.support_radius(1e-10)
        grid = np.geomspace(max(1e-2, 1e-3 * hi), max(hi, 1.0), _GB_KNOTS)

        def phi(radii):
            # -r S/m from one oracle request; r^2 (1 - kappa) loses 1 - kappa ~ 3/r^2 to cancellation far out
            out = []
            for r in radii.tolist():
                try:
                    m, s = gb_marginals(prior, model, r)
                except (ConvolutionError, QuadratureError) as exc:
                    if r <= grid[-1]:
                        raise
                    raise TableError(f"GB table's tail cannot be checked: the oracle fails at r = {r:.3g}") from exc
                out.append(-r * s / m)
            return np.array(out)

        cf = c_f(model)
        phi_k = phi(grid)
        dphi = PchipInterpolator(grid, phi_k).derivative()(grid)
        table = tables[prior] = WeightTable(
            grid, phi_k / grid**2, (dphi - 2.0 * phi_k / grid) / grid**2, phi, lambda r: -cf * prior.log_deriv(r),
            tail_power(model), _GB_TABLE_TOL * max(1.0, float(np.max(np.abs(phi_k)))), TableError, "GB table misses psi")
    return table


def _weight(config: RiskConfig):
    """w(r) of a built-in delta(x) = (1 - w(||x||)) x: its ``WeightTable.psi``, or None (identity)."""
    est = config.estimator
    if est == "identity":
        return None
    if est == "harmonic_bayes":
        return _cached_profile(config.model).table.psi
    return _gb_table(config.model, config.prior).psi


def estimate_risk(config: RiskConfig, threads=None) -> RiskCurve:
    """Monte Carlo risk curve over the configured theta norms.

    The risk of the identity estimator is tr(Q) E_0 ||X||^2 / p exactly,
    reported as the baseline; the paired columns estimate risk(delta) -
    risk(X) from common draws.  Block j of every theta shares one draw
    of R U from the stream keyed by (seed, j), so the entries are
    correlated across theta while each keeps its own standard error,
    and an entry is bitwise the same whatever other thetas the curve
    holds and in whatever order.

    With theta = t d and v = R U, a block first reduces its draws to the
    per-draw scalars R^2, s = v.d, a = v'Qv and q = v'Qd (a = R^2 and
    q = s without Q); the loss of X is a, whatever theta.  A built-in
    estimator is radial, delta = (1 - w(||x||)) x, so each theta needs
    only n-vectors: ||x||^2 = R^2 + t (2 s + t), x'Qv = t q + a,
    x'Qx = t (t d'Qd + 2 q) + a, and the paired difference
    w (w x'Qx - 2 x'Qv) is computed directly, not as the difference of
    the two losses, which cancels far from the origin; the loss of delta
    is a plus it.  A callable estimator is the one materialized path: it
    forms X = theta + R U and calls est(X, ||X||), then takes its loss
    and the difference from a.  Both paths share the draws, the
    per-block partial sums and their fixed-order reduction.

    ``threads`` worker threads (by default min(8, cpu count)) share the
    blocks; the curve is the same, bitwise, for any count.
    """
    n_workers = min(8, os.cpu_count() or 1) if threads is None else integer(threads, RiskSimError, "threads", 1)
    model = config.model
    p = config.p
    n_total = config.samples_per_point
    est = config.estimator
    materialized = callable(est)
    weight = None if materialized else _weight(config)
    _sampler(model)  # build the table before threads fan out

    direction = config.theta_direction
    if direction is None:
        direction = np.zeros(p)
        direction[0] = 1.0
    q = config.loss_Q
    trace_q = float(p if q is None else np.trace(q))
    scalar_q = q is None or bool(np.allclose(q, q[0, 0] * np.eye(p), rtol=1e-12, atol=1e-12))
    baseline = trace_q * model.moment(2.0) / p
    dqd = 1.0 if q is None else float(direction @ q @ direction)

    norms = config.theta_norms
    n_blocks = (n_total + _BLOCK - 1) // _BLOCK
    partials = np.zeros((len(norms), n_blocks, 4))

    def run_block(j):
        n = min(_BLOCK, n_total - j * _BLOCK)
        ss = np.random.SeedSequence(config.seed, spawn_key=(j,))
        z, r, scale = _sample_block(model, np.random.Generator(np.random.Philox(ss)), n)
        r2 = r * r
        s = scale * (z @ direction)
        if q is None:
            a, qd = r2, s
        else:
            zq = z @ q
            a = scale * scale * np.einsum("ij,ij->i", zq, z)
            qd = scale * (zq @ direction)
        ru = z * scale[:, None] if materialized else None
        for k, t in enumerate(norms):
            if materialized:
                x = t * direction + ru
                e = est(x, np.linalg.norm(x, axis=1)) - t * direction
                ld = np.einsum("ij,ij->i", e, e if q is None else e @ q)
                d = ld - a
            elif weight is None:
                ld, d = a, np.zeros(n)
            else:
                nx2 = np.maximum(r2 + t * (2.0 * s + t), 0.0)
                w = weight(np.sqrt(nx2))
                xqx = nx2 if q is None else t * (t * dqd + 2.0 * qd) + a
                d = w * (w * xqx - 2.0 * (t * qd + a))
                ld = a + d
            partials[k, j] = (ld.sum(), (ld * ld).sum(), d.sum(), (d * d).sum())

    if n_workers <= 1 or n_blocks == 1:
        for j in range(n_blocks):
            run_block(j)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_block, range(n_blocks)))

    def mean_se(total, total_sq):
        mean = total / n_total
        if n_total == 1:
            return mean, 0.0
        var = max(total_sq / n_total - mean * mean, 0.0) * n_total / (n_total - 1.0)
        return mean, math.sqrt(var / n_total)

    entries = []
    for t, norm in enumerate(norms):
        s = partials[t].sum(axis=0)  # fixed block order
        risk, se = mean_se(s[0], s[1])
        if config.paired:
            diff, diff_se = mean_se(s[2], s[3])
        else:
            diff, diff_se = math.nan, math.nan
        entries.append(RiskPoint(norm, risk, se, baseline, diff, diff_se))

    metadata = {
        "seed": config.seed,
        "N": n_total,
        "model_id": repr(model),
        "estimator": config.estimator if isinstance(config.estimator, str) else "custom",
        "paired": config.paired,
        "direction_specific": not scalar_q,
    }
    return RiskCurve(tuple(entries), metadata)


def point_verdict(point: RiskPoint) -> str:
    """Three-sigma label of one paired entry: "violation", "win" or "tie".

    A violation is d - 3 se > 0, a strict win d + 3 se <= 0 with d < 0;
    anything else is within 3 sigma of 0.
    """
    d, se = point.paired_diff_estimate, point.paired_diff_std_error
    if d - 3.0 * se > 0.0:
        return "violation"
    return "win" if d + 3.0 * se <= 0.0 and d < 0.0 else "tie"


def dominance_report(curve: RiskCurve) -> DominanceVerdict:
    """Three-sigma verdict on dominance over the identity estimator.

    The first violating entry decides; else any strict win dominates.
    """
    if not curve.metadata.get("paired", False):
        raise RiskSimError("dominance_report needs a paired curve")
    labels = [point_verdict(e) for e in curve.entries]
    if "violation" in labels:
        return DominanceVerdict("violation_at", curve.entries[labels.index("violation")].theta_norm)
    return DominanceVerdict("dominates" if "win" in labels else "inconclusive")
