"""Command-line surface for the shrinkage toolkit.

Every subcommand resolves its options from defaults, an optional JSON
config document and command-line flags (flags win), echoes the resolved
configuration as `# key = value` header lines, and writes one CSV table
(UTF-8, LF, `.` decimals) to stdout or --out.  Exit codes: 0 success,
1 numeric failure, 2 configuration error, 3 failed verdict under
--strict.  The code follows the kind of failure, not the module that
raised it: an integral or table that fails is numeric, an ill-posed
request is a configuration error.  Any argument outside its domain (a
dimension that is not an integer >= 3, a nan or infinite value where a
finite one is needed, an empty or 2-d list) is refused before any
quadrature, exit 2, with a message that names the argument.

Each option is declared once, in its subcommand's table in `_COMMANDS`:
its default, its parser, and its flag's keywords, or none for a
config-only key.  The parser alone reads the option's value, from the
flag's text and from a config's JSON value alike, so a run's settings,
and the header that echoes them, are the same typed values for either
spelling.  A value of the wrong kind (an integer 3.7 or "3", a boolean
"false", a name that is none of its spellings) is refused with a message
that names the key, exit 2.  --strict exists only on the subcommands
that have a verdict (check, risk, hseq, verify), and --svg, a line plot
of the first two numeric columns, only on those whose rows are a curve
(phi, risk, hseq, probe).  --depth and --offset set the log-thickened
prior only; the Blyth kernel of `prior` is derived from the prior, one
log level deeper than the prior's own log tower.  `risk` takes the prior
options only with --estimator generalized_bayes, and echoes them only
then.  The identities of `verify` take their own parameters (--order,
--gegen-alpha, --gegen-a, --t), so --alpha, --a and --beta always set the
model; a model option that no model of the run takes is refused, and so
is an identity option that the run does not use.
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
from sphereshrink.radial_models import _FAMILIES, DivergentMoment, ModelError, normalize
from sphereshrink.risk_sim import ESTIMATORS, RiskConfig, RiskSimError, dominance_report, estimate_risk, point_verdict
from sphereshrink.rv_priors import (
    BetaKernel,
    HSequence,
    LogTower,
    PriorError,
    blyth_decay,
    classify_prior,
    harmonic_prior,
    kernel_offset,
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


class CLIConfigError(ValueError):
    pass


# -- option parsers and tables -----------------------------------------


class _Parser(NamedTuple):
    """One kind of option value, read alike from flag text and from a JSON config value."""

    what: str  # what a value must be, as its refusal says it
    read: Callable  # a JSON config value, or ``text`` of the flag text -> the option's value
    text: Callable = str  # flag text -> a value ``read`` takes

    def __call__(self, value, key=None):
        """The flag text ``value`` as the option's value, or with ``key`` that config key's JSON value."""
        try:
            return self.read(self.text(value) if key is None else value)
        except (ValueError, TypeError, KeyError):
            refusal = f"must be {self.what}, not {json.dumps(value)}"
        raise argparse.ArgumentTypeError(refusal) if key is None else CLIConfigError(f"config key {key!r} {refusal}")


def _number(v):
    if isinstance(v, bool):  # float(True) is 1.0
        raise TypeError
    return float(v)


def _exact(kind):
    """The reader of a value whose type is ``kind`` itself: an integer is not a float, a boolean not an integer."""

    def read(v):
        if type(v) is not kind:
            raise TypeError
        return v

    return read


def _numbers(v):
    """Comma text, a JSON list or one number, as a list of floats."""
    if isinstance(v, str):
        v = [tok for tok in v.split(",") if tok.strip()]
    return [_number(x) for x in (v if isinstance(v, list) else [v])]


# Most points of a grid: a theta range (the default has 11), or phi's or
# hseq's --points (100 and 13 by default).  A larger one is refused before
# it is built.
_MAX_POINTS = 10_000


def _theta(v):
    """``_numbers``, or a start:stop:step range of at most ``_MAX_POINTS`` points."""
    if not (isinstance(v, str) and ":" in v):
        return _numbers(v)
    start, stop, step = map(float, v.split(":"))
    stop += 1e-9 * step
    # sized before np.arange allocates it; nan and inf fail the comparison
    if not (step > 0 and (stop - start) / step <= _MAX_POINTS):
        raise ValueError
    return [float(t) for t in np.arange(start, stop, step)]


def _points(v):
    """An integer of at most ``_MAX_POINTS``."""
    if _exact(int)(v) > _MAX_POINTS:
        raise ValueError
    return v


def _choice(*names, **aliases):
    """One of ``names``, or an alias, read as the name it stands for."""
    spellings = {**{name: name for name in names}, **aliases}
    return _Parser("one of " + ", ".join(spellings), spellings.__getitem__)


_REAL = _Parser("a number", _number)
_INTEGER = _Parser("an integer", _exact(int), text=int)
_POINTS = _Parser(f"an integer of at most {_MAX_POINTS}", _points, text=int)
_BOOLEAN = _Parser("true or false", _exact(bool))
_NUMBERS = _Parser("numbers, as comma text or a JSON list", _numbers)
_THETA = _Parser("numbers, as comma text or a JSON list, or start:stop:step with step > 0 "
                 f"and at most {_MAX_POINTS} points", _theta)


# name -> (default, parser, keywords of the flag --name, underscores
# written as dashes; None for a config-only key).  A boolean's flag is
# the --name/--no-name pair.

_MODEL = {
    # each parameter of a family is the option of the same name, but a
    # tabulated model's "r" and "f" are the columns of its table
    "family": (None, _choice(*_FAMILIES, polyexp="poly_exp", mixdiff="mixture_diff"), {}),
    "p": (None, _INTEGER, {}),
    "alpha": (None, _REAL, {}),
    "beta": (None, _REAL, {}),
    "a": (None, _REAL, {}),
    "b": (None, _REAL, {}),
    "table": (None, _Parser("a file path", _exact(str)), {"help": "CSV file with columns r, f for tabulated models"}),
    "table_r": (None, _NUMBERS, None),
    "table_f": (None, _NUMBERS, None),
}

# the family parameter each model option sets
_MODEL_PARAMS = {"alpha": "alpha", "beta": "beta", "a": "a", "b": "b", "table": "r", "table_r": "r", "table_f": "f"}

_PRIOR = {
    "prior": ("harmonic", _choice("harmonic", "power", "log_thickened", logthick="log_thickened"), {}),
    "k": (None, _REAL, {"help": "exponent of the power prior"}),
    "depth": (0, _INTEGER, {"help": "log depth n of the log-thickened prior"}),
    "offset": (math.e, _REAL, {"help": "log offset c of the log-thickened prior"}),
}
# risk's prior options are unset unless given: only its generalized Bayes
# estimator takes a prior, and any other refuses them
_GB_PRIOR = {key: (None, parse, flag) for key, (_, parse, flag) in _PRIOR.items()}


def _resolve_config(args, options):
    cfg = {key: default for key, (default, _, _) in options.items()}
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
            default, parse, _ = options[key]
            if val is not None or default is not None:  # a null leaves an option without a default unset
                cfg[key] = parse(val, key)
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


def _build_model(cfg, hints=None):
    family = cfg["family"]
    if family is None:
        raise CLIConfigError("a model family is required (--family)")
    keys = _FAMILIES[family].param_names
    _refuse_model_options(cfg, keys, f"the {family} model does not take it", hints)
    params = {k: _table_column(cfg, k) if k in ("r", "f") else cfg[k] for k in keys}
    return normalize(family, params, cfg["p"])


def _refuse_model_options(cfg, taken, why, hints=None):
    """Refuse a model option setting none of ``taken``; ``hints`` maps an option to the one meant."""
    for key, param in _MODEL_PARAMS.items():
        if cfg.get(key) is not None and param not in taken:
            name = f"--{key}" if _MODEL[key][2] is not None else f"config key {key!r}"
            use = f"; for an identity parameter use {hints[key]}" if hints and key in hints else ""
            raise CLIConfigError(f"{name} is a model parameter, and {why}{use}")


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
    # only `prior` sets gamma: no number of risk or probe depends on it
    gamma = cfg.get("gamma", 2.0)
    if cfg["prior"] == "harmonic":
        return harmonic_prior(p, gamma)
    if cfg["prior"] == "log_thickened":
        return log_thickened_prior(cfg["depth"], cfg["offset"], p, gamma)
    if cfg["k"] is None:
        raise CLIConfigError("power prior needs --k")
    return power_prior(cfg["k"], p, gamma)


def _blyth_kernel(prior):
    """Kernel one log level deeper than the prior's own tower, at ``kernel_offset``.

    The harmonic and power priors get LogTower(1, e).
    """
    n = prior.log_depth + 1
    return BetaKernel(LogTower(n, kernel_offset(n)))


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
    out.append(
        f'<text x="{(ml+w-mr)/2:.0f}" y="{h-12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{header[0]}</text>'
    )
    out.append(
        f'<text x="16" y="{(mt+h-mb)/2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(mt+h-mb)/2:.0f})">{header[1]}</text>'
    )
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit(args, command, cfg, header, rows):
    buf = io.StringIO()
    buf.write(f"# command = {command}\n")
    for key in sorted(cfg):
        buf.write(f"# {key} = {_fmt(cfg[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (bool, float, np.generic)) else v for v in row])
    text = buf.getvalue()
    # a plot it refuses leaves no file behind
    svg = None if getattr(args, "svg", None) is None else _svg_plot(rows, header, command)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if svg is not None:
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)


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
    r_min, r_max, points = cfg["r_min"], cfg["r_max"], cfg["points"]
    if not (0.0 < r_min < r_max < math.inf) or points < 2:
        raise CLIConfigError("need 0 < r_min < r_max < inf and points >= 2")
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
    gb = cfg["estimator"] == "generalized_bayes"
    for key, (default, _, _) in _PRIOR.items():
        if not gb and cfg[key] is not None:
            raise CLIConfigError(f"--{key} is not used by this risk run: "
                                 "only --estimator generalized_bayes takes a prior")
        if gb and cfg[key] is None:
            cfg[key] = default  # the header echoes the prior the run used
    model = _build_model(cfg)
    prior = _build_prior(cfg, model.p) if gb else None
    rc = RiskConfig(
        model=model,
        p=model.p,
        estimator=cfg["estimator"],
        prior=prior,
        theta_norms=cfg["theta"],
        samples_per_point=cfg["n"],
        seed=cfg["seed"],
        paired=cfg["paired"],
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
    kernel = BetaKernel(LogTower(cfg["n"], cfg["c"]))
    i_list = cfg["i"]
    if not i_list:
        raise CLIConfigError("need at least one i")
    eta_min, eta_max, points = cfg["eta_min"], cfg["eta_max"], cfg["points"]
    if not (0.0 < eta_min <= eta_max < math.inf) or points < 1:
        raise CLIConfigError("need 0 < eta_min <= eta_max < inf and points >= 1")
    etas = np.geomspace(eta_min, eta_max, points)
    # the far rows' eta rides last in each array call; the laws they check
    # are off by about i/eta, so it sits at least 1e4 timescales out
    eta_far = max(eta_max, 1e6, 1e4 * max(i_list))
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
    prior = _build_prior(cfg, cfg["p"])
    cls = classify_prior(prior)
    rows = [
        ("classification", "verdict", cls.verdict),
        ("classification", "rv_index", cls.rv_index),
        ("classification", "tail_s", cls.tail_s),
        ("classification", "fg1_ok", cls.fg1_ok),
        ("classification", "detail", cls.detail),
        ("brown", "verdict", cls.brown.verdict),
        ("brown", "decay_exponent", cls.brown.decay_exponent),
        # c_p int eta^{1-p} / G over eta > 1, not Brown's integral itself
        ("brown", "reduced_integral_total", cls.brown.total),
    ]
    if cfg["blyth"]:
        js = blyth_decay(prior, _blyth_kernel(prior), cfg["i"])
        for i, j in zip(cfg["i"], js):
            rows.append(("blyth", f"J({_fmt(i)})", j))
        if len(js) >= 2 and js[0] > 0:
            rows.append(("blyth", "last_over_first", js[-1] / js[0]))
    return ("section", "key", "value"), rows, True


_VERIFY_TOL = {"gegenbauer": 1e-8, "minpower": 1e-5, "kernelmass": 5e-6}


def _cmd_verify(cfg):
    which = cfg["identity"]
    # --alpha and --a once also set the identities' parameters
    hints = {"alpha": "--gegen-alpha or --order", "a": "--gegen-a"}
    model = None
    if which == "kernelmass" and cfg.get("family") is not None:
        model = _build_model(cfg, hints)
    else:
        _refuse_model_options(cfg, (), "this verify run builds no model taking it", hints)
    minpower_at = which == "minpower" and cfg.get("t") is not None
    unused = {
        "family": (which != "kernelmass", "only --identity kernelmass builds a model"),
        "p": (model is None and not minpower_at, "it needs --family, or --identity minpower with --t"),
        "order": (model is None, "it needs --identity kernelmass and --family"),
        "gegen_alpha": (which != "gegenbauer", "only --identity gegenbauer takes it"),
        "gegen_a": (which != "gegenbauer" or cfg.get("gegen_alpha") is None, "it needs --gegen-alpha"),
        "t": (which != "minpower", "only --identity minpower takes it"),
    }
    for key, (refused, why) in unused.items():
        if refused and cfg.get(key) is not None:
            raise CLIConfigError(f"--{key.replace('_', '-')} is not used by this verify run: {why}")
    rows = []
    checks = []
    if which in ("gegenbauer", "all"):
        if cfg.get("gegen_alpha") is not None:
            alphas = [cfg["gegen_alpha"]]
            avals = [cfg["gegen_a"]] if cfg.get("gegen_a") is not None else [0.0]
        else:
            alphas = [0.5, 1.0, 1.5, 2.5, 4.0]
            avals = [-0.9, -0.5, 0.0, 0.5, 0.9]
        for al in alphas:
            for av in avals:
                checks.append(("gegenbauer", gegenbauer_identity(al, av)))
    if which in ("minpower", "all"):
        if minpower_at:
            pts = [(3 if cfg["p"] is None else cfg["p"], cfg["t"])]
        else:
            pts = [(p, t) for p in (3, 4, 5) for t in (0.5, 2.0)]
        for p, t in pts:
            checks.append(("minpower", min_power_identity(p, t)))
    if which in ("kernelmass", "all"):
        if model is not None:
            order = cfg["order"] if cfg.get("order") is not None else 0.0
            checks.append(("kernelmass", kernel_mass_identity(model, order)))
        else:
            g3 = normalize("gaussian", {}, 3)
            pe = normalize("poly_exp", {"alpha": 2.0, "beta": 1.0}, 5)
            for model, order in ((g3, 0.0), (g3, 1.0), (pe, 2.0)):
                checks.append(("kernelmass", kernel_mass_identity(model, order)))
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
    probe = asymptotic_ratio_probe(prior, model, cfg["radii"])
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
    curve: bool = False  # its rows are a curve in their first two numeric columns: it takes --svg


_COMMANDS = {
    "model-info": _Command(_cmd_model_info, "moments, tail and monotonicity summary", _MODEL),
    "phi": _Command(_cmd_phi, "shrinkage weight curve as CSV", {
        **_MODEL,
        "r_min": (0.1, _REAL, {}),
        "r_max": (20.0, _REAL, {}),
        "points": (100, _POINTS, {}),
    }, curve=True),
    "check": _Command(_cmd_check, "minimaxity condition audit", _MODEL, verdict=True),
    "risk": _Command(_cmd_risk, "Monte Carlo risk curve", {
        **_MODEL,
        **_GB_PRIOR,
        "estimator": ("harmonic_bayes", _choice(*ESTIMATORS, harmonic="harmonic_bayes", gb="generalized_bayes"), {}),
        "theta": (_THETA("0:10:1"), _THETA, {"help": "comma list or start:stop:step"}),
        "n": (10000, _INTEGER, {"help": "samples per theta"}),
        "seed": (0, _INTEGER, {}),
        "paired": (True, _BOOLEAN, {}),
    }, verdict=True, curve=True),
    "hseq": _Command(_cmd_hseq, "exponential-average sequence properties", {
        "n": (1, _INTEGER, {"help": "log-tower depth"}),
        "c": (math.e, _REAL, {"help": "log-tower offset"}),
        "i": ([1.0, 10.0, 100.0], _NUMBERS, {"help": "comma list of timescales"}),
        "eta_min": (2.0, _REAL, {}),
        "eta_max": (1e6, _REAL, {}),
        "points": (13, _POINTS, {}),
    }, verdict=True, curve=True),
    "prior": _Command(_cmd_prior, "prior classification and decay diagnostics", {
        **_PRIOR,
        "gamma": (2.0, _REAL, {}),
        "p": (None, _INTEGER, {}),
        "i": ([1.0, 4.0, 16.0, 64.0], _NUMBERS, {"help": "comma list of decay timescales"}),
        "blyth": (True, _BOOLEAN, {}),
    }),
    "verify": _Command(_cmd_verify, "closed-form integral identities", {
        **_MODEL,
        "identity": ("all", _choice("gegenbauer", "minpower", "kernelmass", "all"), {}),
        "t": (None, _REAL, {"help": "radius ratio of the minpower identity"}),
        "order": (None, _REAL, {"help": "moment order of the kernelmass identity (default 0)"}),
        "gegen_alpha": (None, _REAL, {"help": "exponent alpha of the gegenbauer identity"}),
        "gegen_a": (None, _REAL, {"help": "mixing parameter a of the gegenbauer identity (default 0)"}),
    }, verdict=True),
    "probe": _Command(_cmd_probe, "large-radius marginal ratio table", {
        **_MODEL,
        **_PRIOR,
        "radii": ([10.0, 100.0, 1000.0], _NUMBERS, {"help": "comma list of radii"}),
    }, curve=True),
}

# Matched first: an error that is also an ArithmeticError (IntegrabilityError,
# TableError) is numeric, and its module's other errors are ill-posed requests.
_NUMERIC_KIND = (QuadratureError, ShrinkageError, ArithmeticError)
_CONFIG_KIND = (CLIConfigError, ModelError, PriorError, RiskSimError, IdentityError, ConvolutionError)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document; flags override it")
    common.add_argument("--out", help="output CSV path (default stdout)")

    parser = argparse.ArgumentParser(prog="sphereshrink",
                                     description="shrinkage estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        if command.verdict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 3 when the subcommand's verdict fails")
        if command.curve:
            sp.add_argument("--svg", help="also write a line plot of the first two numeric columns")
        for key, (_, parse, flag) in command.options.items():
            if flag is not None:
                read = {"action": argparse.BooleanOptionalAction} if parse is _BOOLEAN else {"type": parse}
                sp.add_argument("--" + key.replace("_", "-"), dest=key, **read, **flag)
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
    except _NUMERIC_KIND as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_KIND as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _emit(args, args.command, cfg, header, rows)
    except (CLIConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_VERDICT if command.verdict and args.strict and not ok else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
