"""Benchmark of sphereshrink: three workloads, untraced and traced runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload risk_curve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  Cold set-up runs
SETUP_REPEATS times, each in a fresh interpreter so that no cache can
hide it, and ``setup_s`` is the median.  This process then builds its
own objects and repeats rounds of the workload until the next round
would end past ``--seconds``.  Every timed operation sits between two
runs of the calibration loop in calibrate.py and is divided by their
mean; a stage metric sums its operations' medians over rounds, and a
call metric is the median over rounds of that round's statistic.

``--trace 1`` measures the per-layer metrics.  It runs set-up plus one
round three times, each in a fresh interpreter with the same seed: once
untraced, for the tracing overhead, and twice traced, to check that the
work counts repeat exactly.  Spans of the first traced run are written
to ``perfbench/out/<workload>.spans.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric by name with its unit.  See README.md for the
workloads and what each metric is expected to respond to.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2

# units of the per-layer metrics that count work; two traced runs of
# one seed must agree on them exactly
COUNT_UNITS = {"count", "evals/call", "calls/call", "knots/build"}


def _use_checkout_source():
    """Import the package from this checkout's src/, and only from there."""
    if not (SRC / "sphereshrink" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'sphereshrink'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    # third-party imports stay outside the set-up clock
    import concurrent.futures  # noqa: F401
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.special  # noqa: F401


def _check_source(module):
    if Path(module.__file__).resolve().parent != (SRC / "sphereshrink").resolve():
        sys.exit(f"perfbench: sphereshrink imported from {module.__file__}, not from {SRC}")


# -- child processes ------------------------------------------------------


def _child(workload, seed, role, extra=()):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--role", role, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {role} child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _role_setup(W, seed):
    from calibrate import calibration_s

    inp = W.inputs(seed)
    before = calibration_s()
    t0 = time.perf_counter()
    W.setup(inp)
    setup_s = time.perf_counter() - t0
    after = calibration_s()
    import sphereshrink

    _check_source(sphereshrink)
    return {"setup_s": setup_s, "calib_s": 0.5 * (before + after)}


def run_round(W, state, inp, ops, stage, calibrate):
    """One round of timed operations, then its reference checks.

    With ``calibrate`` each operation sits between two runs of the
    calibration loop, and its time is also reported divided by their mean.
    """
    from calibrate import calibration_s

    import numpy as np

    stages, raw, cal = [], [], []
    lat, lat_cal, results = [], [], {}
    c_prev = calibration_s() if calibrate else 1.0
    calibs = [c_prev]
    for op in W.round_ops(state, inp):
        with stage(f"bench.{op.stage}"):
            t0 = time.perf_counter()
            res = op.run(ops)
            dt = time.perf_counter() - t0
        c_next = calibration_s() if calibrate else 1.0
        calibs.append(c_next)
        c_mean = 0.5 * (c_prev + c_next)
        c_prev = c_next
        if op.stage == "calls":
            res, op_lat = res
            lat.append(op_lat)
            lat_cal.append(op_lat / c_mean)
        else:
            stages.append(op.stage)
            raw.append(dt)
            cal.append(dt / c_mean)
        results[op.key] = res
    with stage("bench.check"):
        W.check(state, inp, results, ops)
    return {"stages": stages, "raw": np.array(raw), "cal": np.array(cal),
            "lat": np.concatenate(lat), "lat_cal": np.concatenate(lat_cal), "calib_s": float(np.median(calibs))}


def stage_sums(stages, op_times):
    """Total time of each stage from per-operation times."""
    return {name: float(sum(t for st, t in zip(stages, op_times) if st == name)) for name in set(stages)}


def _role_once(W, seed, traced, spans_path=None):
    """Set-up, reference gates and one round, fixed work for the seed."""
    from workloads import Ops, no_stage

    import sphereshrink  # package import stays outside the clock in both cases

    _check_source(sphereshrink)
    inp = W.inputs(seed)
    ops = Ops()
    tracer = None
    stage = no_stage
    if traced:
        import tracer as tracing

        tracer = tracing.install()
        stage = tracer.span
    from calibrate import calibration_s

    before = calibration_s()
    t0 = time.perf_counter()
    with stage("bench.setup"):
        state = W.setup(inp, stage)
    with stage("bench.reference"):
        ref = W.reference(state, inp, ops)
    with stage("bench.round"):
        rnd = run_round(W, state, inp, ops, stage, calibrate=False)
    wall = time.perf_counter() - t0
    calib = 0.5 * (before + calibration_s())
    raw = stage_sums(rnd["stages"], rnd["raw"])
    out = {"wall_s": wall, "wall_cal": wall / calib, "stage_s": raw, "ref": ref,
           "attempted": ops.attempted, "failed": ops.failed, "messages": ops.messages[:20]}
    if tracer is not None:
        out["summary"], out["spans"] = tracer.summary()
        if spans_path:
            OUT.mkdir(exist_ok=True)
            tracer.write(spans_path)
    return out


# -- untraced run ---------------------------------------------------------


def _run_untraced(W, workload, seed, seconds):
    setups = [_child(workload, seed, "setup") for _ in range(SETUP_REPEATS)]

    _use_checkout_source()
    from workloads import Ops, no_stage

    import numpy as np

    inp = W.inputs(seed)
    ops = Ops()
    state = W.setup(inp)
    W.reference(state, inp, ops)
    rounds = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = run_round(W, state, inp, ops, no_stage, calibrate=True)
        rnd["wall_s"] = time.perf_counter() - t0
        rounds.append(rnd)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + max(r["wall_s"] for r in rounds) > seconds:
            break
    import sphereshrink

    _check_source(sphereshrink)

    def med(values):
        return float(statistics.median(values))

    # each operation's median over rounds, summed over the stage; each
    # call input's median over rounds, then median and tail over inputs
    stages = rounds[0]["stages"]
    lat = np.median([r["lat"] for r in rounds], axis=0)
    lat_cal = np.median([r["lat_cal"] for r in rounds], axis=0)
    cal = stage_sums(stages, np.median([r["cal"] for r in rounds], axis=0))
    raw = stage_sums(stages, np.median([r["raw"] for r in rounds], axis=0))
    metrics = {
        "setup_s": (med(x["setup_s"] for x in setups), "s"),
        "main_cal": (cal["main"], "cal"),
        "aux_cal": (cal["aux"], "cal"),
        "call_cal": (float(np.median(lat_cal)), "cal"),
        "call_cal_p90": (float(np.percentile(lat_cal, 90)), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    names = W.NAMES
    info = {
        "setup_cal": (med(x["setup_s"] / x["calib_s"] for x in setups), "cal"),
        "call_cal_p99": (float(np.percentile(lat_cal, 99)), "cal"),
        names["main"]: (raw["main"], "s"),
        names["aux"]: (raw["aux"], "s"),
        names["calls"]: (float(np.median(lat)) * 1e6, "us"),
        f"{names['calls']}_p99": (float(np.percentile(lat, 99)) * 1e6, "us"),
        **W.human(inp, raw),
        "calibration_s": (med(r["calib_s"] for r in rounds), "s"),
        "fail_frac": (ops.failed / max(ops.attempted, 1), "1"),
    }

    print(f"# workload {workload}, seed {seed}: {len(rounds)} rounds in "
          f"{time.perf_counter() - t_start:.1f} s, {rounds[0]['lat'].size} timed calls per round, "
          f"set-up repeated {SETUP_REPEATS} times in fresh interpreters")
    print("# metrics in 'cal' units are times divided by the calibration loop's time next to them")
    for key, (value, unit) in {**metrics, **info}.items():
        print(f"{key} = {value!r} {unit}")
    for msg in ops.messages[:20]:
        print(f"# failure: {msg}")
    return ops.attempted, ops.failed, True, metrics


# -- traced run -----------------------------------------------------------


def _pct(part, whole):
    return 100.0 * part / whole if whole > 0 else 0.0


def _layer_metrics(run, untraced):
    """Per-layer metrics of one traced run; the untraced run gives the speed-up."""
    s = run["summary"]
    wall = run["wall_s"]

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    marginals = ("radial_convolution.marginal_m", "radial_convolution.directional_marginal",
                 "radial_convolution.kernel_marginal_M")
    integrate_calls = get("numerics.integrate", "calls")
    m = {
        "numerics.integrate.calls": (integrate_calls, "count"),
        "numerics.integrate.evals": (get("numerics.integrate", "count"), "count"),
        "numerics.integrate.evals_per_call": (ratio(get("numerics.integrate", "count"), integrate_calls),
                                              "evals/call"),
        "numerics.integrate.failures": (get("numerics.integrate", "failed"), "count"),
        "numerics.integrate_semi_infinite.calls": (get("numerics.integrate_semi_infinite", "calls"), "count"),
        "numerics.cumulative_segments.calls": (get("numerics.cumulative_segments", "calls"), "count"),
        "radial_models.big_f.points": (get("radial_models.big_f", "count"), "count"),
        "radial_models.support_radius.calls": (get("radial_models.support_radius", "calls"), "count"),
        "shrinkage.build_profile.knots": (
            ratio(get("shrinkage.build_profile", "count"), get("shrinkage.build_profile", "calls")), "knots/build"),
        "shrinkage.phi_star.calls": (get("shrinkage.phi_star", "calls"), "count"),
        "shrinkage.multiplier.points": (get("shrinkage.multiplier", "count"), "count"),
        "risk_sim.sample_radius.draws": (get("risk_sim.sample_radius", "count"), "count"),
        "risk_sim.estimate_risk.draws": (get("risk_sim.estimate_risk", "count"), "count"),
        "radial_convolution.marginal_m.calls": (get(marginals[0], "calls"), "count"),
        "radial_convolution.directional_marginal.calls": (get(marginals[1], "calls"), "count"),
        "radial_convolution.kernel_marginal_M.calls": (get(marginals[2], "calls"), "count"),
        "radial_convolution.integrate_calls_per_marginal": (
            ratio(sum(get(n, "integrate_calls_under") for n in marginals), sum(get(n, "calls") for n in marginals)),
            "calls/call"),
        "rv_priors.HSequence.h_eval.calls": (get("rv_priors.HSequence.h_eval", "calls"), "count"),
        "rv_priors.HSequence.h_derivative.calls": (get("rv_priors.HSequence.h_derivative", "calls"), "count"),
        "rv_priors.RadialPrior.g_eval.points": (get("rv_priors.RadialPrior.g_eval", "count"), "count"),
        "trace.spans": (run["spans"], "count"),
    }
    # time shares of the traced run's wall time: self time for kernels,
    # inclusive time for the API calls a user makes
    for name in ("numerics.integrate", "numerics.integrate_semi_infinite", "numerics.cumulative_segments",
                 "radial_models.big_f", "radial_models.support_radius", "shrinkage.multiplier",
                 "risk_sim.sample_radius", "risk_sim.estimate_risk", *marginals,
                 "rv_priors.HSequence.h_eval", "rv_priors.HSequence.h_derivative", "rv_priors.RadialPrior.g_eval"):
        m[f"{name}.self_pct"] = (_pct(get(name, "self_s"), wall), "%")
    for metric, names in (
        ("shrinkage.build_profile.pct", ["shrinkage.build_profile"]),
        ("shrinkage.phi_star.pct", ["shrinkage.phi_star"]),
        ("shrinkage.gb_multiplier.power_pct", ["shrinkage.gb_multiplier[power]"]),
        ("shrinkage.gb_multiplier.harmonic_pct", ["shrinkage.gb_multiplier[harmonic]"]),
        ("risk_sim.sampler_build.pct", ["bench.setup.sampler"]),
        ("rv_priors.blyth_decay.pct", ["rv_priors.blyth_decay"]),
        ("rv_priors.properness_index.pct", ["rv_priors.properness_index"]),
        ("rv_priors.classify_prior.pct", ["rv_priors.classify_prior"]),
        ("minimax_audit.evaluate_conditions.pct", ["minimax_audit.evaluate_conditions"]),
        ("special_integrals.identities.pct", ["special_integrals.gegenbauer_identity",
                                              "special_integrals.min_power_identity",
                                              "special_integrals.kernel_mass_identity"]),
    ):
        m[metric] = (_pct(sum(get(n, "incl_s") for n in names), wall), "%")
    is_risk = get("risk_sim.estimate_risk", "calls") > 0
    stage_s = untraced["stage_s"]
    m["risk_sim.estimate_risk.mt_speedup"] = (stage_s["main"] / stage_s["mt"] if is_risk else 0.0, "x")
    m["risk_sim.sample_radius.cdf_err"] = (run["ref"]["cdf_err"], "1")
    m["shrinkage.phi.ref_err"] = (run["ref"]["phi_ref_err"], "1")
    return m


def _run_traced(workload, seed):
    untraced = _child(workload, seed, "once")
    spans_path = OUT / f"{workload}.spans.npz"
    first = _child(workload, seed, "trace", ("--spans", str(spans_path)))
    second = _child(workload, seed, "trace")
    metrics = _layer_metrics(first, untraced)
    again = _layer_metrics(second, untraced)
    # calibrated wall times, the traced one averaged over both traced runs
    traced_cal = 0.5 * (first["wall_cal"] + second["wall_cal"])
    metrics["trace.overhead_pct"] = (_pct(traced_cal - untraced["wall_cal"], untraced["wall_cal"]), "%")
    differ = [k for k, (value, unit) in metrics.items() if unit in COUNT_UNITS and value != again[k][0]]
    runs = (untraced, first, second)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"# workload {workload}, seed {seed}: set-up and one round, untraced "
          f"{untraced['wall_s']:.2f} s, traced {first['wall_s']:.2f} s and {second['wall_s']:.2f} s")
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    print("# span: calls, inclusive s, self s, work count")
    for name, row in sorted(first["summary"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name}: {row['calls']}, {row['incl_s']:.4f}, {row['self_s']:.4f}, {row['count']}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    for key in differ:
        print(f"# count differs between two traced runs of seed {seed}: {key} "
              f"{metrics[key][0]} vs {again[key][0]}")
    for r in runs:
        for msg in r["messages"]:
            print(f"# failure: {msg}")
    return attempted, failed, not differ, metrics


# -- entry point ----------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "once", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    W = WORKLOADS[args.workload]

    if args.role is not None:
        _use_checkout_source()
        if args.role == "setup":
            out = _role_setup(W, args.seed)
        else:
            out = _role_once(W, args.seed, args.role == "trace", args.spans)
        print(json.dumps(out))
        return 0

    if not (SRC / "sphereshrink" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'sphereshrink'} not found; run from the root of a checkout")
    if args.trace:
        attempted, failed, consistent, metrics = _run_traced(args.workload, args.seed)
    else:
        attempted, failed, consistent, metrics = _run_untraced(W, args.workload, args.seed, args.seconds)
    result = {
        "correct": bool(failed == 0 and consistent),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
