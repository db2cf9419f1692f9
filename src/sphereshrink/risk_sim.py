"""Monte Carlo risk estimation for location estimators under quadratic loss.

Observations are X = theta + R U with R drawn by inverse CDF of the
radial law r^{p-1} f(r) and U uniform on the sphere.  The per-draw
tables (the inverse CDF, the harmonic weight and the generalized-Bayes
weight) are scipy cubics evaluated by ``numerics.CubicTable``: a block
of draws finds each point's knot interval in O(1) from a guide table
over a coordinate the knots are nearly uniform in (logit u, log r) and
one knot comparison, not a binary search, and gets bitwise the value
scipy would.  R U does not depend on theta, so a risk curve draws it
once per block of draws, from a counter-based stream keyed by
(seed, block index), and every theta of the curve uses that block:
X = theta + R U.  The entries of a curve are therefore positively
correlated across theta, each with the standard error it would have
alone, and an entry depends only on the seed, its theta and the rest
of the configuration, not on the other thetas or their order.  The
per-block partial sums are reduced in a fixed order, so results are
byte-identical for any worker-thread count.  Paired (common random
numbers) sampling estimates the risk difference against the identity
estimator with far smaller variance than independent runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np
from scipy.interpolate import PchipInterpolator

from sphereshrink.numerics import CubicTable, sphere_surface
from sphereshrink.radial_models import RadialDensity
from sphereshrink.rv_priors import RadialPrior
from sphereshrink.shrinkage import _cached_profile, gb_multiplier

_BLOCK = 4096
ESTIMATORS = ("identity", "harmonic_bayes", "generalized_bayes")


class RiskSimError(Exception):
    pass


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
    above that of every knot below it.  The PCHIP is evaluated as a
    ``numerics.CubicTable`` over logit u, which covers both tails: near 0
    the CDF behaves like r^p, and the tail is exponential or a power law.
    At every interval midpoint u, CDF(ppf(u)) through that table must lie
    within 1e-8 of u, else RiskSimError is raised.
    """
    r_hi = model.support_radius(1e-14)
    for _ in range(100):
        if 1.0 - _cdf(model, r_hi) <= 1e-10:
            break
        r_hi *= 2.0
    else:
        raise RiskSimError(f"more than 1e-10 of the radial mass lies beyond r = {r_hi:.3g}")
    knots = np.concatenate([[0.0], np.geomspace(r_hi * 1e-7, r_hi, _SAMPLER_KNOTS)])
    cdf = _cdf(model, knots)
    keep = cdf > np.maximum.accumulate(np.concatenate([[-np.inf], cdf[:-1]]))
    u_knots, r_knots = cdf[keep], knots[keep]
    ppf = CubicTable(PchipInterpolator(u_knots, r_knots), _logit)
    u_mid = 0.5 * (u_knots[:-1] + u_knots[1:])
    worst = float(np.max(np.abs(_cdf(model, ppf(u_mid)) - u_mid)))
    if not worst <= 1e-8:
        raise RiskSimError(f"inverse-CDF table misses the exact CDF by {worst:.3g} at an interval midpoint")
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
    outside [0, 1], nan included, raises RiskSimError.  The table is a
    PCHIP of r over u evaluated by ``numerics.CubicTable``: an array of u
    finds its knot intervals through a guide table over logit u, a float
    through ``bisect``, and each radius is bitwise the value scipy's
    ``PchipInterpolator`` gives.
    """
    ppf, u_hi, r_hi = _sampler(model)
    if isinstance(u, float) or np.ndim(u) == 0:
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise RiskSimError("u must lie in [0, 1]")
        return r_hi if u >= u_hi else ppf(u)
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu <= 1.0)):
        raise RiskSimError("u must lie in [0, 1]")
    return np.where(uu >= u_hi, r_hi, ppf(uu))


def radial_cdf(model: RadialDensity, r):
    """Exact CDF of the radial law, c_p [(p-2) B(r) - r^{p-2} F(r)], clipped to [0, 1]."""
    rr = np.asarray(r, dtype=float)
    out = np.clip(_cdf(model, np.maximum(rr, 0.0)), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def ks_statistic(model: RadialDensity, radii) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the exact radial CDF."""
    x = np.sort(np.asarray(radii, dtype=float))
    n = x.size
    g = radial_cdf(model, x)
    steps = np.arange(n + 1) / n
    return float(max(np.max(g - steps[:-1]), np.max(steps[1:] - g)))


def sample_obs(model: RadialDensity, theta, rng) -> np.ndarray:
    """One draw X = theta + R U, U from normalized standard normals."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise RiskSimError(f"theta must have shape ({model.p},)")
    z = rng.standard_normal(model.p)
    u = rng.random()
    return theta + sample_radius(model, u) * z / np.linalg.norm(z)


def _sample_block(model, rng, n):
    """n draws of R U, with a fixed stream layout: normals first, then uniforms."""
    z = rng.standard_normal((n, model.p))
    u = rng.random(n)
    scale = sample_radius(model, u) / np.linalg.norm(z, axis=1)
    return z * scale[:, None]


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
        if self.p != self.model.p:
            raise RiskSimError(f"p={self.p} does not match the model's {self.model.p}")
        if int(self.samples_per_point) < 1:
            raise RiskSimError("samples_per_point must be >= 1")
        object.__setattr__(self, "samples_per_point", int(self.samples_per_point))
        object.__setattr__(self, "seed", int(self.seed) & (2**64 - 1))
        norms = tuple(float(t) for t in self.theta_norms)
        if not norms or any(t < 0 for t in norms):
            raise RiskSimError("theta_norms must be nonempty and nonnegative")
        object.__setattr__(self, "theta_norms", norms)
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


def _resolve_threads(threads) -> int:
    if threads is None:
        raw = os.environ.get("SPHERESHRINK_THREADS", "0")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise RiskSimError(f"SPHERESHRINK_THREADS must be an integer, got {raw!r}") from exc
    threads = int(threads)
    if threads < 0:
        raise RiskSimError("thread count must be >= 0")
    if threads == 0:
        threads = min(8, os.cpu_count() or 1)
    return threads


def _gb_table(model: RadialDensity, prior: RadialPrior):
    """Knots and table of psi = r^2 (1 - kappa) of the GB estimator.

    A PCHIP on ``_GB_KNOTS`` = 49 geometric knots, looked up as a
    CubicTable over log r, built once per (model, prior) pair, as the
    profile and the sampler are per model.  The table is checked against
    ``gb_multiplier`` at the 48 interval midpoints, and RiskSimError is
    raised if it misses psi there by more than ``_GB_TABLE_TOL`` = 2e-3
    of max(1, the largest |psi| at a midpoint).  Measured misses are at
    most 5e-4 of that scale: 9.2e-4 on gaussian p = 5 with the harmonic
    prior, 4.7e-4 with power(-2.5), 1.1e-4 on gaussian p = 3 with
    log-thickened(0, 2), 3.0e-3 on gaussian p = 8 (harmonic, psi near
    6), 8e-5 on a (1 + r^2)^-4 table.
    """
    tables = _GB_TABLES.setdefault(model, WeakKeyDictionary())
    tab = tables.get(prior)
    if tab is None:
        hi = model.support_radius(1e-10)
        grid = np.geomspace(max(1e-2, 1e-3 * hi), max(hi, 1.0), _GB_KNOTS)
        mids = 0.5 * (grid[:-1] + grid[1:])
        psi = [r * r * (1.0 - gb_multiplier(prior, model, model.p, float(r))) for r in np.concatenate((grid, mids))]
        psi, psi_mids = np.split(np.array(psi), [grid.size])
        table = CubicTable(PchipInterpolator(grid, psi), np.log)
        worst = float(np.max(np.abs(table(mids) - psi_mids)))
        if not worst <= _GB_TABLE_TOL * max(1.0, float(np.max(np.abs(psi_mids)))):
            raise RiskSimError(f"GB table misses psi by {worst:.3g} at an interval midpoint")
        tab = tables[prior] = (grid, table)
    return tab


def _resolve_estimator(config: RiskConfig):
    est = config.estimator
    if callable(est):
        return est
    if est == "identity":
        return lambda x, norms: x
    model = config.model
    if est == "harmonic_bayes":
        prof = _cached_profile(model)
        return lambda x, norms: x * np.asarray(prof.multiplier(norms))[:, None]
    # generalized_bayes: beyond the grid psi is held, so the multiplier
    # tends to 1 - psi/r^2 as the profile's does; below it the
    # multiplier itself is held.
    grid, psi_table = _gb_table(model, config.prior)

    def gb(x, norms):
        psi = psi_table(np.clip(norms, grid[0], grid[-1]))
        return x * (1.0 - psi / np.maximum(norms, grid[0]) ** 2)[:, None]

    return gb


def _loss_fn(config: RiskConfig):
    q = config.loss_Q
    if q is None:
        return lambda v: np.einsum("ij,ij->i", v, v)
    chol = np.linalg.cholesky(q)

    def loss(v):
        w = v @ chol
        return np.einsum("ij,ij->i", w, w)

    return loss


def estimate_risk(config: RiskConfig, threads=None) -> RiskCurve:
    """Monte Carlo risk curve over the configured theta norms.

    The risk of the identity estimator is tr(Q) E_0 ||X||^2 / p exactly,
    reported as the baseline; the paired columns estimate risk(delta) -
    risk(X) from common draws.  Block j of every theta shares one draw
    of R U from the stream keyed by (seed, j), so the entries are
    correlated across theta while each keeps its own standard error,
    and an entry is bitwise the same whatever other thetas the curve
    holds and in whatever order.
    """
    model = config.model
    p = config.p
    n_total = config.samples_per_point
    est_fn = _resolve_estimator(config)
    loss = _loss_fn(config)
    _sampler(model)  # build the table before threads fan out

    direction = config.theta_direction
    if direction is None:
        direction = np.zeros(p)
        direction[0] = 1.0
    q = config.loss_Q
    trace_q = float(p if q is None else np.trace(q))
    scalar_q = q is None or bool(np.allclose(q, q[0, 0] * np.eye(p), rtol=1e-12, atol=1e-12))
    baseline = trace_q * model.moment(2.0) / p

    norms = config.theta_norms
    thetas = [norm * direction for norm in norms]
    n_blocks = (n_total + _BLOCK - 1) // _BLOCK
    partials = np.zeros((len(norms), n_blocks, 6))

    def run_block(j):
        n = min(_BLOCK, n_total - j * _BLOCK)
        ss = np.random.SeedSequence(config.seed, spawn_key=(j,))
        ru = _sample_block(model, np.random.Generator(np.random.Philox(ss)), n)
        for t, theta in enumerate(thetas):
            x = theta + ru
            delta = est_fn(x, np.linalg.norm(x, axis=1))
            ld = loss(delta - theta)
            lx = loss(x - theta)
            d = ld - lx
            partials[t, j] = (ld.sum(), (ld * ld).sum(), lx.sum(), (lx * lx).sum(), d.sum(), (d * d).sum())

    n_workers = _resolve_threads(threads)
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
            diff, diff_se = mean_se(s[4], s[5])
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
