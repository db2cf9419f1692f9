"""Command-line surface for the shrinkage toolkit.

Every subcommand resolves its options from defaults, an optional JSON
config document and command-line flags (flags win), echoes the resolved
configuration as `# key = value` header lines, and writes one CSV table
(UTF-8, LF, `.` decimals) to stdout or --out.  --svg adds a single-series
line plot of the first two numeric columns.  Exit codes: 0 success,
1 numeric failure, 2 configuration error, 3 failed verdict under
--strict.

Each option is declared once, in its subcommand's table in `_COMMANDS`:
its default, and the keywords of its flag, or none for a config-only
key.  The parser, the config reader and the header echo all read that
table.  --strict exists only on the subcommands that have a verdict
(check, risk, hseq, verify).  --depth and --offset set the
log-thickened prior only; the Blyth kernel of `prior` is derived from
the prior, one log level deeper than the prior's own log tower.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from sphereshrink.minimax_audit import PROPERTIES, evaluate_conditions, inf_ratio, probe_monotone
from sphereshrink.numerics import QuadratureError
from sphereshrink.radial_convolution import ConvolutionError, asymptotic_ratio_probe, c_f
from sphereshrink.radial_models import _FAMILIES as _FAMILY_CLASSES, DivergentMoment, ModelError, normalize
from sphereshrink.risk_sim import RiskConfig, RiskSimError, dominance_report, estimate_risk, point_verdict
from sphereshrink.rv_priors import (
    BetaKernel,
    HSequence,
    LogTower,
    PriorError,
    blyth_decay,
    classify_prior,
    harmonic_prior,
    log_thickened_prior,
    power_prior,
)
from sphereshrink.shrinkage import ShrinkageError, _cached_profile, phi_limit
from sphereshrink.special_integrals import (
    IdentityError,
    gegenbauer_identity,
    kernel_mass_identity,
    min_power_identity,
)

EXIT_OK, EXIT_NUMERIC, EXIT_CONFIG, EXIT_VERDICT = 0, 1, 2, 3

# command-line spelling -> family; each parameter of a family is the
# option of the same name, but a tabulated model's "r" and "f" are the
# columns of its table
_FAMILIES = {
    "gaussian": "gaussian",
    "polyexp": "poly_exp",
    "poly_exp": "poly_exp",
    "mixdiff": "mixture_diff",
    "mixture_diff": "mixture_diff",
    "tabulated": "tabulated",
}
_E = math.e


class CLIConfigError(ValueError):
    pass


# -- option tables ------------------------------------------------------
#
# name -> (default, keywords of the flag --name, underscores written as
# dashes; None for a config-only key)

_MODEL = {
    "family": (None, {}),
    "p": (None, {"type": int}),
    "alpha": (None, {"type": float}),
    "beta": (None, {"type": float}),
    "a": (None, {"type": float}),
    "b": (None, {"type": float}),
    "table": (None, {"help": "CSV file with columns r, f for tabulated models"}),
    "table_r": (None, None),
    "table_f": (None, None),
}

_PRIOR = {
    "prior": ("harmonic", {"choices": ["harmonic", "power", "logthick"]}),
    "k": (None, {"type": float, "help": "exponent of the power prior"}),
    "depth": (0, {"type": int, "help": "log depth n of the log-thickened prior"}),
    "offset": (_E, {"type": float, "help": "log offset c of the log-thickened prior"}),
}


def _resolve_config(args, options):
    cfg = {key: default for key, (default, _) in options.items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CLIConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CLIConfigError("config document must be a JSON object")
        for key, val in doc.items():
            if key not in options:
                raise CLIConfigError(f"unknown config key {key!r} for {args.command}")
            cfg[key] = val
    for key in options:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _config_header(command, cfg):
    lines = [f"# command = {command}"]
    for key in sorted(cfg):
        lines.append(f"# {key} = {_fmt(cfg[key])}")
    return lines


def _parse_list(text, cast=float):
    try:
        return [cast(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CLIConfigError(f"cannot parse list {text!r}") from exc


def _parse_theta(text):
    s = str(text)
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise CLIConfigError("theta range must be start:stop:step")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise CLIConfigError(f"cannot parse theta range {text!r}") from exc
        if step <= 0:
            raise CLIConfigError("theta step must be positive")
        return [float(v) for v in np.arange(start, stop + 1e-9 * step, step)]
    return _parse_list(s)


def _build_model(cfg):
    fam_raw = cfg.get("family")
    if fam_raw is None:
        raise CLIConfigError("a model family is required (--family)")
    if str(fam_raw) not in _FAMILIES:
        raise CLIConfigError(f"unknown family {fam_raw!r}; choose from {sorted(set(_FAMILIES))}")
    family = _FAMILIES[str(fam_raw)]
    keys = _FAMILY_CLASSES[family].param_names
    if cfg.get("p") is None:
        raise CLIConfigError("the dimension is required (--p)")
    p = int(cfg["p"])
    missing = [f"--{k}" for k in keys if k not in ("r", "f") and cfg.get(k) is None]
    if missing:
        raise CLIConfigError(f"{family} needs {' and '.join(missing)}")
    params = {k: _table_column(cfg, k) if k in ("r", "f") else float(cfg[k]) for k in keys}
    return normalize(family, params, p)


def _table_column(cfg, key):
    if cfg.get("table_r") is not None and cfg.get("table_f") is not None:
        return np.asarray(cfg[f"table_{key}"], dtype=float)
    path = cfg.get("table")
    if path is None:
        raise CLIConfigError("tabulated model needs --table FILE or table_r/table_f config keys")
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CLIConfigError(f"cannot read table {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise CLIConfigError("table file needs two columns: r, f")
    return data[:, 0 if key == "r" else 1]


def _build_prior(cfg, p):
    name = str(cfg["prior"])
    # only `prior` sets gamma: no number of risk or probe depends on it
    gamma = float(cfg.get("gamma", 2.0))
    if name == "harmonic":
        return harmonic_prior(p, gamma)
    if name == "power":
        if cfg["k"] is None:
            raise CLIConfigError("power prior needs --k")
        return power_prior(float(cfg["k"]), p, gamma)
    if name in ("logthick", "log_thickened"):
        return log_thickened_prior(int(cfg["depth"]), float(cfg["offset"]), p, gamma)
    raise CLIConfigError(f"unknown prior {name!r}")


def _blyth_kernel(prior):
    """Kernel one log level deeper than the prior's own tower, Log_n(c) = 1.

    The harmonic and power priors get LogTower(1, e).
    """
    n = prior.log_depth + 1
    c = 1.0
    for _ in range(n):
        c = math.exp(c)
    return BetaKernel(LogTower(n, c))


# -- output -------------------------------------------------------------


def _svg_plot(rows, header, title):
    xs, ys = [], []
    for row in rows:
        nums = [v for v in row if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(nums) >= 2 and all(math.isfinite(v) for v in nums[:2]):
            xs.append(float(nums[0]))
            ys.append(float(nums[1]))
    if len(xs) < 2:
        raise CLIConfigError("not enough numeric rows to plot")
    w, h, ml, mr, mt, mb = 640, 420, 70, 20, 30, 50
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    sx = lambda x: ml + (x - x0) / (x1 - x0) * (w - ml - mr)
    sy = lambda y: h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="14" font-family="sans-serif">{title}</text>',
        f'<line x1="{ml}" y1="{h-mb}" x2="{w-mr}" y2="{h-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h-mb}" stroke="black"/>',
    ]
    for j in range(5):
        xv = x0 + j * (x1 - x0) / 4.0
        yv = y0 + j * (y1 - y0) / 4.0
        out.append(
            f'<text x="{sx(xv):.2f}" y="{h-mb+18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{xv:.6g}</text>'
        )
        out.append(
            f'<text x="{ml-8}" y="{sy(yv)+4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{yv:.6g}</text>'
        )
        out.append(f'<line x1="{sx(xv):.2f}" y1="{h-mb}" x2="{sx(xv):.2f}" y2="{h-mb+4}" stroke="black"/>')
        out.append(f'<line x1="{ml-4}" y1="{sy(yv):.2f}" x2="{ml}" y2="{sy(yv):.2f}" stroke="black"/>')
    labels = (header[0], header[1] if len(header) > 1 else "value")
    out.append(
        f'<text x="{(ml+w-mr)/2:.0f}" y="{h-12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{labels[0]}</text>'
    )
    out.append(
        f'<text x="16" y="{(mt+h-mb)/2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(mt+h-mb)/2:.0f})">{labels[1]}</text>'
    )
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit(args, command, cfg, header, rows):
    buf = io.StringIO()
    for line in _config_header(command, cfg):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (bool, float, np.generic)) else v for v in row])
    text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(_svg_plot(rows, header, command))


# -- subcommands --------------------------------------------------------


def _or_divergent(fn, *args):
    """fn(*args), or "divergent" where it needs a moment that diverges."""
    try:
        return fn(*args)
    except DivergentMoment:
        return "divergent"


def _cmd_model_info(cfg):
    model = _build_model(cfg)
    rows = [
        ("normalization_constant", model.norm_const),
        ("c_f", _or_divergent(c_f, model)),
        ("second_moment", _or_divergent(model.moment, 2.0)),
        ("inverse_second_moment", _or_divergent(model.moment, -2.0)),
        ("phi_limit", _or_divergent(phi_limit, model, model.p)),
        ("inf_ratio", inf_ratio(model)),
    ]
    tail = model.tail_profile()
    rows += [("tail_r0", tail.r0), ("tail_L", tail.L), ("tail_s", tail.s)]
    for prop in PROPERTIES:
        v = probe_monotone(model, prop)
        rows.append((prop, v.verdict if v.fails_at is None else f"{v.verdict}@{v.fails_at:.6g}"))
    return ("quantity", "value"), rows, True


def _cmd_phi(cfg):
    model = _build_model(cfg)
    r_min, r_max = float(cfg["r_min"]), float(cfg["r_max"])
    points = int(cfg["points"])
    if not (0.0 < r_min < r_max) or points < 2:
        raise CLIConfigError("need 0 < r_min < r_max and points >= 2")
    prof = _cached_profile(model)
    limit = prof.limit_value
    rows = []
    for r in np.linspace(r_min, r_max, points):
        rows.append((float(r), float(prof.phi(r)), float(prof.multiplier(r)), limit))
    return ("r", "phi", "multiplier", "limit_value"), rows, True


def _cmd_check(cfg):
    model = _build_model(cfg)
    report = evaluate_conditions(model, model.p)
    rows = []
    for e in report.entries:
        hyp = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(e.hypotheses.items()))
        rows.append((e.condition, e.applicable, hyp, e.bound, e.phi_limit, e.satisfied, e.note))
    for key in sorted(report.quantities):
        rows.append((f"quantity:{key}", "", "", report.quantities[key], "", "", ""))
    ok = report.overall == "minimax_certified"
    rows.append(("overall", "", "", "", "", ok, report.overall))
    header = ("condition", "applicable", "hypotheses", "bound", "phi_limit", "satisfied", "note")
    return header, rows, ok


def _cmd_risk(cfg):
    model = _build_model(cfg)
    est_raw = str(cfg["estimator"])
    aliases = {
        "identity": "identity",
        "harmonic": "harmonic_bayes",
        "harmonic_bayes": "harmonic_bayes",
        "gb": "generalized_bayes",
        "generalized_bayes": "generalized_bayes",
    }
    if est_raw not in aliases:
        raise CLIConfigError(f"unknown estimator {est_raw!r}")
    estimator = aliases[est_raw]
    prior = _build_prior(cfg, model.p) if estimator == "generalized_bayes" else None
    rc = RiskConfig(
        model=model,
        p=model.p,
        estimator=estimator,
        prior=prior,
        theta_norms=tuple(_parse_theta(cfg["theta"])),
        samples_per_point=int(cfg["n"]),
        seed=int(cfg["seed"]),
        paired=bool(cfg["paired"]),
    )
    curve = estimate_risk(rc)
    verdict = dominance_report(curve) if rc.paired else None
    rows = []
    for e in curve.entries:
        rows.append(
            (
                e.theta_norm,
                e.risk_estimate,
                e.std_error,
                e.baseline_risk,
                e.paired_diff_estimate,
                e.paired_diff_std_error,
                "" if verdict is None else point_verdict(e),
            )
        )
    if verdict is not None:
        rows.append(("dominance", "", "", "", "", "", verdict.verdict))
    ok = verdict is not None and verdict.verdict == "dominates"
    return ("theta_norm", "risk", "se", "baseline", "diff", "diff_se", "verdict"), rows, ok


def _cmd_hseq(cfg):
    kernel = BetaKernel(LogTower(int(cfg["n"]), float(cfg["c"])))
    i_list = _parse_list(cfg["i"])
    if not i_list:
        raise CLIConfigError("need at least one i")
    etas = np.geomspace(float(cfg["eta_min"]), float(cfg["eta_max"]), int(cfg["points"]))
    # the far rows' eta rides last in each array call
    eta_far = max(float(cfg["eta_max"]), 1e6)
    eta_all = np.append(etas, eta_far)
    seqs = [HSequence(kernel, i) for i in i_list]
    h_all = [seq.h_eval(eta_all) for seq in seqs]
    hp_all = [seq.h_derivative(eta_all) for seq in seqs]
    bounds = 2.0 * kernel.beta_eval(etas) / kernel.beta_tail(etas)
    all_ok = True
    rows = []
    for j, eta in enumerate(etas):
        prev_h = -1.0
        for seq, hs, hps in zip(seqs, h_all, hp_all):
            h, hp, bound = float(hs[j]), float(hps[j]), float(bounds[j])
            in_range = 0.0 <= h <= 1.0
            mono = h >= prev_h - 1e-12
            dbound = abs(hp) < bound
            # H does not increase in eta; its elasticity has no lower
            # bound short of the far field (-1.17 near eta = 100 at i = 1)
            elast = eta * hp / h if h > 0 else math.nan
            ok = in_range and mono and dbound and elast <= 1e-12
            all_ok = all_ok and ok
            rows.append((float(eta), seq.i, h, hp, mono, dbound, elast, ok))
            prev_h = h
    # large-eta laws, from H_i ~ i*beta/Tail: the scaling Tail/beta * H_i
    # ~ i and the elasticity eta H'/H ~ eta (beta'/beta + beta/Tail)
    beta, tail = kernel.beta_eval(eta_far), kernel.beta_tail(eta_far)
    elast_law = eta_far * (kernel.beta_deriv(eta_far) / beta + beta / tail)
    for seq, hs, hps in zip(seqs, h_all, hp_all):
        h_far = float(hs[-1])
        ratio = tail / beta * h_far / seq.i
        ok = abs(ratio - 1.0) <= 0.05
        rows.append((eta_far, seq.i, h_far, "scaling", "", ok, ratio, ok))
        elast = eta_far * float(hps[-1]) / h_far
        elast_ok = abs(elast - elast_law) <= 0.01
        rows.append((eta_far, seq.i, h_far, "elasticity", "", elast_ok, elast, elast_ok))
        all_ok = all_ok and ok and elast_ok
    header = ("eta", "i", "h", "h_prime", "monotone_in_i", "deriv_bound_ok", "elasticity", "ok")
    return header, rows, all_ok


def _cmd_prior(cfg):
    if cfg["p"] is None:
        raise CLIConfigError("the dimension is required (--p)")
    prior = _build_prior(cfg, int(cfg["p"]))
    cls = classify_prior(prior)
    rows = [
        ("classification", "verdict", cls.verdict),
        ("classification", "rv_index", cls.rv_index),
        ("classification", "tail_s", cls.tail_s),
        ("classification", "fg1_ok", cls.fg1_ok),
        ("classification", "boundary_margin", cls.boundary_margin),
        ("classification", "detail", cls.detail),
        ("brown", "verdict", cls.brown.verdict),
        ("brown", "decay_exponent", cls.brown.decay_exponent),
        # c_p int eta^{1-p} / G over eta > 1, not Brown's integral itself
        ("brown", "reduced_integral_total", cls.brown.total),
    ]
    if bool(cfg["blyth"]):
        i_list = _parse_list(cfg["i"])
        js = blyth_decay(prior, _blyth_kernel(prior), i_list)
        for i, j in zip(i_list, js):
            rows.append(("blyth", f"J({_fmt(i)})", j))
        if len(js) >= 2 and js[0] > 0:
            rows.append(("blyth", "last_over_first", js[-1] / js[0]))
    return ("section", "key", "value"), rows, True


_VERIFY_TOL = {"gegenbauer": 1e-8, "minpower": 1e-5, "kernelmass": 5e-6}


def _cmd_verify(cfg):
    which = str(cfg["identity"])
    rows = []
    checks = []
    if which in ("gegenbauer", "all"):
        if which == "gegenbauer" and cfg.get("alpha") is not None:
            alphas = [float(cfg["alpha"])]
            avals = [float(cfg["a"])] if cfg.get("a") is not None else [0.0]
        else:
            alphas = [0.5, 1.0, 1.5, 2.5, 4.0]
            avals = [-0.9, -0.5, 0.0, 0.5, 0.9]
        for al in alphas:
            for av in avals:
                checks.append(("gegenbauer", gegenbauer_identity(al, av)))
    if which in ("minpower", "all"):
        if which == "minpower" and cfg.get("t") is not None:
            pts = [(int(cfg["p"] or 3), float(cfg["t"]))]
        else:
            pts = [(p, t) for p in (3, 4, 5) for t in (0.5, 2.0)]
        for p, t in pts:
            checks.append(("minpower", min_power_identity(p, t)))
    if which in ("kernelmass", "all"):
        if which == "kernelmass" and cfg.get("family") is not None:
            model = _build_model(cfg)
            al = float(cfg["alpha"]) if cfg.get("alpha") is not None else 0.0
            checks.append(("kernelmass", kernel_mass_identity(model, al)))
        else:
            g3 = normalize("gaussian", {}, 3)
            pe = normalize("poly_exp", {"alpha": 2.0, "beta": 1.0}, 5)
            for model, al in ((g3, 0.0), (g3, 1.0), (pe, 2.0)):
                checks.append(("kernelmass", kernel_mass_identity(model, al)))
    if not checks:
        raise CLIConfigError(f"unknown identity {which!r}")
    worst_fail = False
    for name, chk in checks:
        ok = chk.rel_error <= _VERIFY_TOL[name]
        worst_fail = worst_fail or not ok
        params = ";".join(f"{k}={_fmt(float(v)) if isinstance(v, (int, float)) else v}"
                          for k, v in sorted(chk.params.items()))
        rows.append((name, params, chk.lhs, chk.rhs, chk.rel_error, ok))
    return ("identity", "params", "lhs", "rhs", "rel_error", "ok"), rows, not worst_fail


def _cmd_probe(cfg):
    model = _build_model(cfg)
    prior = _build_prior(cfg, model.p)
    radii = _parse_list(cfg["radii"])
    probe = asymptotic_ratio_probe(prior, model, radii)
    names = sorted(probe.ratios)
    rows = []
    for idx, r in enumerate(probe.radii):
        for name in names:
            rows.append((r, name, float(probe.ratios[name][idx]),
                         abs(float(probe.ratios[name][idx]) - 1.0)))
    for name in names:
        rows.append(("fitted_eps", name, float(probe.fitted_eps[name]), ""))
    return ("r", "ratio", "value", "abs_deviation"), rows, True


class _Command(NamedTuple):
    run: Callable  # cfg -> (header, rows, whether the verdict holds; True if none)
    help: str
    options: dict
    verdict: bool = False  # the subcommand takes --strict


_COMMANDS = {
    "model-info": _Command(_cmd_model_info, "moments, tail and monotonicity summary", _MODEL),
    "phi": _Command(_cmd_phi, "shrinkage weight curve as CSV", {
        **_MODEL,
        "r_min": (0.1, {"type": float}),
        "r_max": (20.0, {"type": float}),
        "points": (100, {"type": int}),
    }),
    "check": _Command(_cmd_check, "minimaxity condition audit", _MODEL, verdict=True),
    "risk": _Command(_cmd_risk, "Monte Carlo risk curve", {
        **_MODEL,
        **_PRIOR,
        "estimator": ("harmonic", {}),
        "theta": ("0:10:1", {"help": "comma list or start:stop:step"}),
        "n": (10000, {"type": int, "help": "samples per theta"}),
        "seed": (0, {"type": int}),
        "paired": (True, {"action": argparse.BooleanOptionalAction}),
    }, verdict=True),
    "hseq": _Command(_cmd_hseq, "exponential-average sequence properties", {
        "n": (1, {"type": int, "help": "log-tower depth"}),
        "c": (_E, {"type": float, "help": "log-tower offset"}),
        "i": ("1,10,100", {"help": "comma list of timescales"}),
        "eta_min": (2.0, {"type": float}),
        "eta_max": (1e6, {"type": float}),
        "points": (13, {"type": int}),
    }, verdict=True),
    "prior": _Command(_cmd_prior, "prior classification and decay diagnostics", {
        **_PRIOR,
        "gamma": (2.0, {"type": float}),
        "p": (None, {"type": int}),
        "i": ("1,4,16,64", {"help": "comma list of decay timescales"}),
        "blyth": (True, {"action": argparse.BooleanOptionalAction}),
    }),
    "verify": _Command(_cmd_verify, "closed-form integral identities", {
        **_MODEL,
        "identity": ("all", {"choices": ["gegenbauer", "minpower", "kernelmass", "all"]}),
        "t": (None, {"type": float}),
    }, verdict=True),
    "probe": _Command(_cmd_probe, "large-radius marginal ratio table", {
        **_MODEL,
        **_PRIOR,
        "radii": ("10,100,1000", {"help": "comma list of radii"}),
    }),
}

_CONFIG_STAGE = (CLIConfigError, ModelError, PriorError, RiskSimError, IdentityError)
_NUMERIC_STAGE = (
    QuadratureError,
    ConvolutionError,
    ShrinkageError,
    ArithmeticError,
)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document; flags override it")
    common.add_argument("--out", help="output CSV path (default stdout)")
    common.add_argument("--svg", help="also write a line plot of the first two numeric columns")

    parser = argparse.ArgumentParser(prog="sphereshrink",
                                     description="shrinkage estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        if command.verdict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 3 when the subcommand's verdict fails")
        for key, (_, flag) in command.options.items():
            if flag is not None:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args, command.options)
        header, rows, ok = command.run(cfg)
    except _CONFIG_STAGE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_STAGE as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _emit(args, args.command, cfg, header, rows)
    except CLIConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_VERDICT if command.verdict and args.strict and not ok else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
