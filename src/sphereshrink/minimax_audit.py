"""Sufficient-condition audit for minimaxity of the shrinkage estimator.

Each literature row bounds the admissible size of the shrinkage weight;
since the weight is nondecreasing with a known limit, a row certifies
minimaxity when its monotonicity hypotheses hold and the limit stays
under the row's bound.  Hypotheses are settled analytically where the
model's family answers them and by grid differencing otherwise.  The
conditions are sufficient only: a model failing all rows is reported as
not_certified, never as "not minimax".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sphereshrink._domain import same_dimension
from sphereshrink.radial_models import DivergentMoment, RadialDensity

PROPERTIES = ("f_nonincreasing", "F_over_f_nondecreasing", "F_over_t2f_nonincreasing")

# rows where the audited inequality lives; the scale-mixture row of the
# literature shares bock's bound and a strictly stronger hypothesis, so
# it is subsumed and not evaluated separately
CONDITIONS = ("berger", "brandwein", "brandwein_strawderman", "ralescu", "bock")

_RALESCU_CONST = 0.93


class AuditError(Exception):
    pass


@dataclass(frozen=True)
class MonotonicityVerdict:
    property: str
    grid: np.ndarray = field(compare=False)
    verdict: str  # holds | fails | inconclusive
    fails_at: float | None
    max_violation: float


def _property_values(model: RadialDensity, prop: str, grid: np.ndarray) -> np.ndarray:
    f = np.asarray(model.density(grid), dtype=float)
    if prop == "f_nonincreasing":
        return f
    big = np.asarray(model.big_f(grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = big / f
        if prop == "F_over_f_nondecreasing":
            return ratio
        if prop == "F_over_t2f_nonincreasing":
            return ratio / grid**2
    raise AuditError(f"unknown property {prop!r}")


def probe_monotone(model: RadialDensity, prop: str, grid=None, tol: float = 1e-9) -> MonotonicityVerdict:
    """Check one monotonicity hypothesis on a grid, analytic where known.

    The grid scan always runs so a failure carries a reproducible witness
    and magnitude; for the built-in families the verdict itself comes
    from the closed-form analysis.
    """
    if prop not in PROPERTIES:
        raise AuditError(f"property must be one of {PROPERTIES}")
    if grid is None:
        hi = model.support_radius(1e-9)
        grid = np.geomspace(max(1e-3 * hi, 1e-6), hi, 400)
    grid = np.asarray(grid, dtype=float)

    vals = _property_values(model, prop, grid)
    finite = np.isfinite(vals)
    if not np.all(finite):
        # f can vanish at isolated points (difference kernels at 0);
        # judge on the finite part, bail out if too little survives
        if finite.sum() < 8:
            return MonotonicityVerdict(prop, grid, "inconclusive", None, math.nan)
        grid = grid[finite]
        vals = vals[finite]

    sign = 1.0 if prop == "F_over_f_nondecreasing" else -1.0
    diffs = sign * np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) + 1e-300
    viol = -diffs / scale  # positive where the required direction breaks
    worst = float(np.max(viol)) if viol.size else 0.0
    if worst <= 0.0:
        worst = 0.0

    closed = model.monotone(prop)
    if closed is None:
        holds = worst <= tol
    else:
        holds = closed
    if holds:
        return MonotonicityVerdict(prop, grid, "holds", None, worst)
    bad = np.nonzero(viol > tol)[0]
    at = float(grid[bad[0] + 1]) if bad.size else float(grid[int(np.argmax(viol)) + 1])
    return MonotonicityVerdict(prop, grid, "fails", at, worst)


def inf_ratio(model: RadialDensity) -> float:
    """Infimum of F/f over the support: the knob in the widest-scope row.

    Closed form where the family has one, else the minimum over a grid.
    """
    closed = model.inf_ratio()
    if closed is not None:
        return closed
    hi = model.support_radius(1e-12)
    grid = np.geomspace(max(1e-4 * hi, 1e-8), hi, 2000)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(model.big_f(grid), dtype=float) / np.asarray(model.density(grid), dtype=float)
    vals = vals[np.isfinite(vals)]
    return max(float(np.min(vals)), 0.0)


@dataclass(frozen=True)
class ConditionEntry:
    condition: str
    hypotheses: dict = field(compare=False)
    applicable: bool
    bound: float
    phi_limit: float
    satisfied: bool
    note: str = ""


@dataclass(frozen=True)
class MinimaxReport:
    model_id: str
    p: int
    quantities: dict = field(compare=False)
    entries: tuple = ()
    overall: str = "not_certified"

    def entry(self, condition: str) -> ConditionEntry:
        for e in self.entries:
            if e.condition == condition:
                return e
        raise KeyError(condition)


def _leq(x: float, bound: float) -> bool:
    # boundary ties certify; absorb a few ulps of closed-form roundoff
    return x <= bound * (1.0 + 1e-12) + 1e-300


def evaluate_conditions(model: RadialDensity, p: int) -> MinimaxReport:
    """Evaluate every applicable certification row for one model of dimension ``p``."""
    same_dimension(AuditError, model, p=p)

    e2 = model.moment(2.0)
    try:
        inv2 = model.moment(-2.0)
    except DivergentMoment:
        inv2 = math.nan
    ratio_inf = inf_ratio(model)
    phi_lim = (p - 2.0) * e2 / p

    probes = {prop: probe_monotone(model, prop) for prop in PROPERTIES}
    shrink_ok = probes["F_over_t2f_nonincreasing"].verdict == "holds"
    dens_ok = probes["f_nonincreasing"].verdict == "holds"
    kernel_ok = probes["F_over_f_nondecreasing"].verdict == "holds"

    entries = []

    def add(condition, p_ok, hyps, bound, needs_inv=False, note=""):
        applicable = p_ok and not (needs_inv and math.isnan(inv2))
        if needs_inv and math.isnan(inv2):
            note = "inverse second moment diverges"
        sat = applicable and all(hyps.values()) and _leq(phi_lim, bound)
        entries.append(ConditionEntry(condition, hyps, applicable, bound, phi_lim, sat, note))

    add("berger", p >= 3,
        {"inf_ratio_positive_finite": 0.0 < ratio_inf < math.inf},
        2.0 * (p - 2.0) * ratio_inf)
    inv_safe = inv2 if not math.isnan(inv2) else math.inf
    add("brandwein", p >= 4,
        {"shrink_ratio_nonincreasing": shrink_ok},
        2.0 * (p - 2.0) / (p * inv_safe), needs_inv=True)
    add("brandwein_strawderman", p >= 4,
        {"shrink_ratio_nonincreasing": shrink_ok, "density_nonincreasing": dens_ok},
        2.0 * p / ((p + 2.0) * inv_safe), needs_inv=True)
    add("ralescu", p == 3,
        {"shrink_ratio_nonincreasing": shrink_ok, "density_nonincreasing": dens_ok},
        _RALESCU_CONST / inv_safe, needs_inv=True)
    add("bock", p >= 4,
        {"shrink_ratio_nonincreasing": shrink_ok, "kernel_ratio_nondecreasing": kernel_ok},
        2.0 / inv_safe, needs_inv=True)

    overall = "minimax_certified" if any(e.satisfied for e in entries) else "not_certified"
    quantities = {
        "second_moment": e2,
        "inv_second_moment": inv2,
        "inf_ratio": ratio_inf,
        "phi_limit": phi_lim,
    }
    return MinimaxReport(repr(model), p, quantities, tuple(entries), overall)
