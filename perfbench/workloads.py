"""Seeded inputs, cold set-up, timed operations and reference checks.

Each workload is a class with these steps:

- ``inputs(seed)`` draws every input from the seed, using numpy only, so
  the package receives nothing but generated values;
- ``setup(inputs)`` imports ``sphereshrink`` and builds fresh model and
  prior objects, so every cache the package keys on an object starts
  cold; its wall time is the ``setup_s`` metric;
- ``reference(state, inputs, ops)`` runs the untimed gates that need
  objects of their own;
- ``round_ops(state, inputs)`` lists one round of timed operations, each
  tagged with its stage: ``main``, ``aux``, ``calls`` (a batch of short
  calls timed one by one) or ``mt`` (timed and printed, but not a bounded
  metric: it depends on the second core, which other tenants share);
- ``check(state, inputs, results, ops)`` compares every result of the
  round with a reference that holds for any seed.

Package functions are always reached through their module attribute
(``shrinkage.estimate``, not a name bound at import), so that the
wrappers the traced run installs on those attributes see every call.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

NPROC = max(1, min(2, len(os.sched_getaffinity(0))))

# Tolerances of `sphereshrink verify`; kept here because the CLI module
# cannot be imported at this commit.
VERIFY_TOL = {"gegenbauer": 1e-8, "minpower": 1e-5, "kernelmass": 5e-6}


class Ops:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def call(self, label, fn, *args, **kwargs):
        """Run one operation; on a raise count it failed and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a package failure is a measured outcome
            self.failed += 1
            self.messages.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label, ok: bool, detail=""):
        """Record the reference check of an operation already counted."""
        if not ok:
            self.failed += 1
            self.messages.append(f"{label}: reference check failed {detail}")


@dataclass(frozen=True)
class Op:
    """One timed unit: ``run(ops)`` returns the result kept under ``key``.

    A ``calls`` op returns ``(results, latencies_s)`` for its batch.
    """

    stage: str
    key: object
    run: Callable


def no_stage(name: str):
    """Stage marker of untraced runs; traced runs pass one that records a span."""
    return nullcontext()


def timed_calls(ops, label, fn, arg_rows):
    """Call ``fn(*row)`` for each row, timing each call on its own."""
    clock = time.perf_counter
    out = []
    lat = np.empty(len(arg_rows))
    for j, row in enumerate(arg_rows):
        t0 = clock()
        out.append(ops.call(label, fn, *row))
        lat[j] = clock() - t0
    return out, lat


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**63 - 1), salt])


def _jitter(rng, values, band):
    """Multiply each value by a factor drawn from [1 - band, 1 + band]."""
    values = np.asarray(values, dtype=float)
    return values * rng.uniform(1.0 - band, 1.0 + band, values.shape)


def _batches(n, size):
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def gaussian_phi(p: int, r):
    """Closed-form weight (p-2) P(p/2, r^2/2) / P(p/2-1, r^2/2) of the gaussian model."""
    from scipy.special import gammainc

    r = np.asarray(r, dtype=float)
    return (p - 2.0) * gammainc(0.5 * p, 0.5 * r * r) / gammainc(0.5 * p - 1.0, 0.5 * r * r)


def gaussian_harmonic_marginal(p: int, r: float) -> float:
    """E ||x + Z||^(2-p) for Z ~ N(0, I_p) and ||x|| = r.

    The sphere average of a harmonic function gives max(R, r)^(2-p); the
    expectation over R ~ chi_p then splits at R = r.
    """
    from scipy.special import gammainc

    tail = math.exp(-0.5 * r * r) / (2.0 ** (0.5 * p - 1.0) * math.gamma(0.5 * p))
    return r ** (2.0 - p) * float(gammainc(0.5 * p, 0.5 * r * r)) + tail


def log_kernel_h(c: float, i: float, eta: float) -> float:
    """H_i(eta) of the depth-1 kernel 1/(y log(y)^2), y = eta + c, by scipy quad."""
    from scipy.integrate import quad

    def integrand(v):
        y = eta + v + c
        return math.exp(-v / i) / (y * math.log(y) ** 2)

    val, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return val * math.log(eta + c)


class RiskCurve:
    """Risk of the harmonic-prior estimator for the gaussian model, p = 5."""

    P = 5
    DRAWS_PER_POINT = 200_000
    N_RADII = 1_000_000
    N_ESTIMATE = 2000
    BATCH = 500
    NAMES = {"main": "risk_curve_s", "aux": "sample_radius_s", "calls": "estimate_us"}

    @staticmethod
    def inputs(seed):
        rng = _rng(seed, 1)
        theta = np.concatenate(([rng.uniform(0.0, 0.25)], _jitter(rng, [4.0, 8.0, 12.0, 16.0], 0.05)))
        dirs = rng.standard_normal((RiskCurve.N_ESTIMATE, RiskCurve.P))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        norms = _jitter(rng, np.geomspace(0.05, 25.0, RiskCurve.N_ESTIMATE), 0.02)
        u_tail = 1.0 - 10.0 ** -rng.uniform(3.0, 9.0, 16)
        return {
            "theta": tuple(float(t) for t in theta),
            "draw_seed": int(rng.integers(2**62)),
            "u_draws": rng.random(RiskCurve.N_RADII),
            "x": dirs * norms[:, None],
            "u": np.concatenate((rng.uniform(1e-6, 1.0 - 1e-6, 48), u_tail)),
            "r": _jitter(rng, np.geomspace(1e-3, 40.0, 64), 0.02),
        }

    @staticmethod
    def setup(inp, stage=no_stage):
        from sphereshrink import radial_models, risk_sim, shrinkage

        model = radial_models.gaussian(RiskCurve.P)
        with stage("bench.setup.profile"):
            shrinkage.estimate(model, RiskCurve.P, inp["x"][0])  # builds the weight profile
        with stage("bench.setup.sampler"):
            risk_sim.sample_radius(model, 0.5)  # builds the inverse-CDF table
        return {"model": model}

    @staticmethod
    def reference(state, inp, ops):
        """The profile's and the sampler's own gates, on a profile built for the check."""
        from scipy.stats import chi

        from sphereshrink import risk_sim, shrinkage

        model, p = state["model"], RiskCurve.P
        err = {"phi_ref_err": math.nan, "cdf_err": math.nan}
        prof = ops.call("build_profile", shrinkage.build_profile, model)
        if prof is not None:
            ref = gaussian_phi(p, inp["r"])
            err["phi_ref_err"] = float(np.max(np.abs(np.asarray(prof.phi(inp["r"])) - ref)) / prof.limit_value)
            ops.check("profile.phi", err["phi_ref_err"] <= 1e-6, f"(max error {err['phi_ref_err']:.3g} x limit)")
        radii = ops.call("sample_radius", risk_sim.sample_radius, model, inp["u"])
        if radii is not None:
            err["cdf_err"] = float(np.max(np.abs(chi(p).cdf(radii) - inp["u"])))
            ops.check("sample_radius", err["cdf_err"] <= 1e-8, f"(max cdf error {err['cdf_err']:.3g})")
        return err

    @staticmethod
    def round_ops(state, inp):
        from sphereshrink import risk_sim, shrinkage

        model, p = state["model"], RiskCurve.P
        cfg = risk_sim.RiskConfig(model, p, "harmonic_bayes", theta_norms=inp["theta"],
                                  samples_per_point=RiskCurve.DRAWS_PER_POINT, seed=inp["draw_seed"])
        xs = inp["x"]
        out = [
            Op("main", "one", lambda ops: ops.call("estimate_risk", risk_sim.estimate_risk, cfg, threads=1)),
            Op("mt", "many", lambda ops: ops.call("estimate_risk", risk_sim.estimate_risk, cfg, threads=NPROC)),
            Op("aux", "radii", lambda ops: ops.call("sample_radius", risk_sim.sample_radius, model, inp["u_draws"])),
        ]
        for rows in _batches(len(xs), RiskCurve.BATCH):
            out.append(Op("calls", rows, lambda ops, rows=rows: timed_calls(
                ops, "estimate", shrinkage.estimate, [(model, p, xs[j]) for j in rows])))
        return out

    @staticmethod
    def check(state, inp, results, ops):
        from sphereshrink import risk_sim

        one, many = results["one"], results["many"]
        for curve in (one, many):
            if curve is not None:
                verdict = risk_sim.dominance_report(curve).verdict
                ops.check("dominance_report", verdict == "dominates", f"({verdict})")
        if one is not None and many is not None:
            ops.check("estimate_risk", one.entries == many.entries, "(threads=1 and threads=nproc differ)")
        radii = results["radii"]
        if radii is not None:
            from scipy.stats import chi

            u = inp["u_draws"][:1000]
            err = float(np.max(np.abs(chi(RiskCurve.P).cdf(radii[:1000]) - u)))
            ops.check("sample_radius", err <= 1e-8, f"(max cdf error {err:.3g})")
        p = RiskCurve.P
        for rows in _batches(len(inp["x"]), RiskCurve.BATCH):
            for j, y in zip(rows, results[rows]):
                if y is None:
                    continue
                x = inp["x"][j]
                r2 = float(x @ x)
                kappa = float(y @ x) / r2
                ref = 1.0 - float(gaussian_phi(p, math.sqrt(r2))) / r2
                ops.check("estimate", abs(kappa - ref) <= 1e-6, f"(|x|={math.sqrt(r2):.6g}: {kappa!r} vs {ref!r})")

    @staticmethod
    def human(inp, raw):
        draws = len(inp["theta"]) * RiskCurve.DRAWS_PER_POINT
        return {"risk_curve_mt_s": (raw["mt"], "s"),
                "risk_draws_per_s": (draws / raw["main"], "1/s"),
                "risk_draws_per_s_mt": (draws / raw["mt"], "1/s"),
                "sample_radius_draws_per_s": (RiskCurve.N_RADII / raw["aux"], "1/s")}


class GBOracle:
    """Generalized-Bayes multipliers through the 2-d convolution oracle, p = 5."""

    P = 5
    N_RADII = 10
    N_MARGINAL = 1000
    BATCH = 250
    NAMES = {"main": "gb_table_s", "aux": "probe_s", "calls": "marginal_m_us"}

    @staticmethod
    def inputs(seed):
        rng = _rng(seed, 2)
        return {
            "radii": tuple(float(r) for r in _jitter(rng, np.geomspace(0.1, 64.0, GBOracle.N_RADII), 0.03)),
            "probe_radii": tuple(float(r) for r in _jitter(rng, [10.0, 100.0, 1000.0], 0.05)),
            "marginal_radii": _jitter(rng, np.geomspace(0.1, 64.0, GBOracle.N_MARGINAL), 0.02),
        }

    @staticmethod
    def setup(inp, stage=no_stage):
        from sphereshrink import radial_models, rv_priors, shrinkage

        model = radial_models.gaussian(GBOracle.P)
        power = rv_priors.power_prior(-2.5, GBOracle.P)
        harmonic = rv_priors.harmonic_prior(GBOracle.P)
        for prior in (power, harmonic):
            prior.assumption_profile  # slope audit, computed once per prior
        profile = shrinkage.build_profile(model)  # reference for the harmonic multiplier
        return {"model": model, "power": power, "harmonic": harmonic, "profile": profile}

    @staticmethod
    def reference(state, inp, ops):
        prof = state["profile"]
        r = np.asarray(inp["marginal_radii"])
        err = float(np.max(np.abs(np.asarray(prof.phi(r)) - gaussian_phi(GBOracle.P, r))) / prof.limit_value)
        ops.attempted += 1
        ops.check("profile.phi", err <= 1e-6, f"(max error {err:.3g} x limit)")
        return {"phi_ref_err": err, "cdf_err": 0.0}

    @staticmethod
    def round_ops(state, inp):
        from sphereshrink import radial_convolution, shrinkage

        model, p = state["model"], GBOracle.P
        out = []
        for name in ("power", "harmonic"):
            for j, r in enumerate(inp["radii"]):
                out.append(Op("main", (name, j), lambda ops, prior=state[name], r=r: ops.call(
                    "gb_multiplier", shrinkage.gb_multiplier, prior, model, p, r)))
        for name in ("power", "harmonic"):
            out.append(Op("aux", ("probe", name), lambda ops, prior=state[name]: ops.call(
                "asymptotic_ratio_probe", radial_convolution.asymptotic_ratio_probe,
                prior, model, inp["probe_radii"])))
        rs = inp["marginal_radii"]
        for rows in _batches(len(rs), GBOracle.BATCH):
            out.append(Op("calls", rows, lambda ops, rows=rows: timed_calls(
                ops, "marginal_m", radial_convolution.marginal_m,
                [(state["harmonic"], model, float(rs[j])) for j in rows])))
        return out

    @staticmethod
    def check(state, inp, results, ops):
        radii = inp["radii"]
        for j, r in enumerate(radii):
            k = results[("harmonic", j)]
            if k is not None:
                ref = float(state["profile"].multiplier(r))
                ops.check("gb_multiplier[harmonic]", abs(k - ref) <= 1e-6, f"(r={r:.6g}: {k!r} vs {ref!r})")
        kp = [results[("power", j)] for j in range(len(radii))]
        for j, (r, k) in enumerate(zip(radii, kp)):
            if k is None:
                continue
            ok = 0.0 < k < 1.0
            if j > 0 and kp[j - 1] is not None:
                ok = ok and k > kp[j - 1]
            if r >= 8.0:
                ok = ok and abs(k - (1.0 - 2.5 / r**2)) <= 10.0 / r**4
            ops.check("gb_multiplier[power]", ok, f"(r={r:.6g}: {k!r})")
        for name in ("power", "harmonic"):
            probe = results[("probe", name)]
            if probe is None:
                continue
            for key, ratios in probe.ratios.items():
                for r, ratio in zip(probe.radii, ratios):
                    ops.check(f"asymptotic_ratio_probe[{name}, {key}]", abs(ratio - 1.0) <= 5.0 / r**2,
                              f"(r={r:.6g}: {ratio!r})")
        rs = inp["marginal_radii"]
        for rows in _batches(len(rs), GBOracle.BATCH):
            for j, m in zip(rows, results[rows]):
                if m is None:
                    continue
                ref = gaussian_harmonic_marginal(GBOracle.P, float(rs[j]))
                ops.check("marginal_m", abs(m / ref - 1.0) <= 1e-9, f"(r={rs[j]:.6g}: {m!r} vs {ref!r})")

    @staticmethod
    def human(inp, raw):
        return {}


class PriorDiag:
    """Blyth decay, properness, Brown, classification, minimax audit, identities."""

    N_ETA, N_I = 40, 25
    N_H = N_ETA * N_I
    BATCH = 125
    C1 = math.e
    NAMES = {"main": "blyth_s", "aux": "diagnostics_s", "calls": "h_eval_us"}

    @staticmethod
    def inputs(seed):
        rng = _rng(seed, 3)
        return {
            "blyth_i": tuple(float(i) for i in _jitter(rng, [64.0, 1024.0], 0.05)),
            "blyth_gamma_i": float(_jitter(rng, [4.0], 0.05)[0]),
            "mixture": tuple(float(v) for v in (rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8))),
            "h_eta": _jitter(rng, np.repeat(np.geomspace(0.1, 1e4, PriorDiag.N_ETA), PriorDiag.N_I), 0.03),
            "h_i": _jitter(rng, np.tile(np.geomspace(1.0, 1024.0, PriorDiag.N_I), PriorDiag.N_ETA), 0.03),
        }

    @staticmethod
    def setup(inp, stage=no_stage):
        from sphereshrink import radial_models, rv_priors

        rr = np.geomspace(0.02, 3.0, 220)
        a, b = inp["mixture"]
        state = {
            "g3": radial_models.gaussian(3),
            "g5": radial_models.gaussian(5),
            "pe5": radial_models.poly_exp(2.0, 1.0, 5),
            "mix": radial_models.mixture_diff(a, b, 4),
            "tab": radial_models.tabulated(rr, np.exp(-rr**4), 3),
            "harmonic3": rv_priors.harmonic_prior(3),
            "harmonic3_g": rv_priors.harmonic_prior(3, gamma=1.5),
            "harmonic5": rv_priors.harmonic_prior(5),
            "power5": rv_priors.power_prior(-2.5, 5),
            "thick3": rv_priors.log_thickened_prior(0, 2.0, 3),
            "k_blyth": rv_priors.BetaKernel(rv_priors.LogTower(1, 1.02)),
            "k1": rv_priors.BetaKernel(rv_priors.LogTower(1, PriorDiag.C1)),
        }
        for key in ("harmonic3", "harmonic3_g", "harmonic5", "power5", "thick3"):
            state[key].assumption_profile  # slope audit, computed once per prior
        return state

    @staticmethod
    def reference(state, inp, ops):
        return {"phi_ref_err": 0.0, "cdf_err": 0.0}

    CLASSIFY = (("harmonic5", "g5", "admissible_certified"),
                ("power5", "g5", "inadmissible_certified"),
                ("thick3", "g3", "admissible_certified"))

    @staticmethod
    def _identities(state, ops):
        from sphereshrink import special_integrals

        rows = [("gegenbauer", special_integrals.gegenbauer_identity, (al, av))
                for al in (0.5, 1.0, 1.5, 2.5, 4.0) for av in (-0.9, -0.5, 0.0, 0.5, 0.9)]
        rows += [("minpower", special_integrals.min_power_identity, (p, t)) for p in (3, 4, 5) for t in (0.5, 2.0)]
        rows += [("kernelmass", special_integrals.kernel_mass_identity, (model, al))
                 for model, al in ((state["g3"], 0.0), (state["g3"], 1.0), (state["pe5"], 2.0))]
        return [(name, ops.call(name, fn, *args)) for name, fn, args in rows]

    @staticmethod
    def round_ops(state, inp):
        from sphereshrink import minimax_audit, rv_priors

        out = [Op("main", ("blyth", i), lambda ops, i=i: ops.call(
            "blyth_decay", rv_priors.blyth_decay, state["harmonic3"], state["k_blyth"], [i]))
            for i in inp["blyth_i"]]
        out.append(Op("main", "blyth_gamma", lambda ops: ops.call(
            "blyth_decay", rv_priors.blyth_decay, state["harmonic3_g"], state["k1"], [inp["blyth_gamma_i"]])))
        out.append(Op("aux", "properness", lambda ops: ops.call(
            "properness_index", rv_priors.properness_index, state["harmonic3"], state["k1"])))
        out.append(Op("aux", "brown", lambda ops: ops.call(
            "brown_diagnostic", rv_priors.brown_diagnostic, state["harmonic3"])))
        for prior, model, _ in PriorDiag.CLASSIFY:
            out.append(Op("aux", ("classify", prior), lambda ops, prior=prior, model=model: ops.call(
                "classify_prior", rv_priors.classify_prior, state[prior], state[model])))
        for key in ("g5", "mix", "tab"):
            out.append(Op("aux", ("audit", key), lambda ops, model=state[key]: ops.call(
                "evaluate_conditions", minimax_audit.evaluate_conditions, model, model.p)))
        out.append(Op("aux", "identities", lambda ops: PriorDiag._identities(state, ops)))
        k1 = state["k1"]
        for rows in _batches(PriorDiag.N_H, PriorDiag.BATCH):
            seqs = [(rv_priors.HSequence(k1, float(inp["h_i"][j])), float(inp["h_eta"][j])) for j in rows]
            out.append(Op("calls", rows, lambda ops, seqs=seqs: timed_calls(
                ops, "h_eval", lambda seq, eta: seq.h_eval(eta), seqs)))
        return out

    @staticmethod
    def check(state, inp, results, ops):
        js = [results[("blyth", i)] for i in inp["blyth_i"]]
        for i, j in zip(inp["blyth_i"], js):
            if j is not None:
                ops.check("blyth_decay", math.isfinite(j[0]) and j[0] > 0, f"(J({i:.6g}) = {j})")
        if None not in js:
            ops.check("blyth_decay", js[1][0] < js[0][0], f"(J{inp['blyth_i']} = {js} not decreasing)")
        jg = results["blyth_gamma"]
        if jg is not None:
            ops.check("blyth_decay[gamma]", math.isfinite(jg[0]) and jg[0] > 0, f"({jg})")
        prop = results["properness"]
        if prop is not None:
            ops.check("properness_index", prop.verdict == "finite" and abs(prop.value - 0.417838) <= 5e-5,
                      f"({prop.verdict}, {prop.value!r})")
        brown = results["brown"]
        if brown is not None:
            ops.check("brown_diagnostic", brown.verdict == "diverges", f"({brown.verdict})")
        for prior, _, want in PriorDiag.CLASSIFY:
            cls = results[("classify", prior)]
            if cls is not None:
                ops.check(f"classify_prior[{prior}]", cls.verdict == want, f"({cls.verdict})")
        for key in ("g5", "mix", "tab"):
            rep = results[("audit", key)]
            if rep is not None:
                ok = rep.overall == "minimax_certified"
                if key == "mix":
                    ok = ok and rep.entry("berger").satisfied
                if key == "tab":
                    ok = ok and rep.entry("ralescu").satisfied
                ops.check(f"evaluate_conditions[{key}]", ok, f"({rep.overall})")
        for name, chk in results["identities"]:
            if chk is not None:
                ops.check(name, chk.rel_error <= VERIFY_TOL[name], f"({chk.params}: {chk.rel_error!r})")
        for rows in _batches(PriorDiag.N_H, PriorDiag.BATCH):
            for j, h in zip(rows, results[rows]):
                if h is None:
                    continue
                eta, i = float(inp["h_eta"][j]), float(inp["h_i"][j])
                ok = 0.0 < h < 1.0
                if ok and j < 4:
                    ref = log_kernel_h(PriorDiag.C1, i, eta)
                    ok = abs(h / ref - 1.0) <= 1e-7
                ops.check("h_eval", ok, f"(eta={eta:.6g}, i={i:.6g}: {h!r})")

    @staticmethod
    def human(inp, raw):
        return {}


WORKLOADS = {"risk_curve": RiskCurve, "gb_oracle": GBOracle, "prior_diag": PriorDiag}
