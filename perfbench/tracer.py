"""Spans around the package's public functions, for traced runs only.

``install()`` imports ``sphereshrink`` and replaces each function in
``TARGETS`` with a wrapper that records a span: name, start, end, parent
span and a work count.  Callers bind most of these functions with
``from ... import``, so every module attribute that holds the original
function is rebound to the wrapper; methods are replaced on their class.
Spans live in per-thread arrays in memory and are written once, at the
end of the traced run.  An untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np


def _size_of_arg(args, kwargs, out):
    return int(np.size(args[1]))


def _evaluations(args, kwargs, out):
    return int(out.evaluations)


def _knots(args, kwargs, out):
    return int(out.r_grid.size)


def _draws(args, kwargs, out):
    cfg = args[0]
    return int(cfg.samples_per_point) * len(cfg.theta_norms)


def _failed_evaluations(exc):
    result = getattr(exc, "result", None)
    evals = getattr(result, "evaluations", 0)
    return int(evals) if np.isfinite(evals) else 0


def _by_prior_family(name):
    return lambda args, kwargs: f"{name}[{args[0].family}]"


# (module, attribute or Class.method, span name, work count, count on a raise, span name from args)
TARGETS = [
    ("numerics", "integrate", "numerics.integrate", _evaluations, _failed_evaluations, None),
    ("numerics", "integrate_semi_infinite", "numerics.integrate_semi_infinite", _evaluations, _failed_evaluations, None),
    ("numerics", "cumulative_segments", "numerics.cumulative_segments", None, None, None),
    ("radial_models", "RadialDensity.big_f", "radial_models.big_f", _size_of_arg, None, None),
    ("radial_models", "RadialDensity.support_radius", "radial_models.support_radius", None, None, None),
    ("shrinkage", "build_profile", "shrinkage.build_profile", _knots, None, None),
    ("shrinkage", "phi_star", "shrinkage.phi_star", None, None, None),
    ("shrinkage", "ShrinkageProfile.multiplier", "shrinkage.multiplier", _size_of_arg, None, None),
    ("shrinkage", "estimate", "shrinkage.estimate", None, None, None),
    ("shrinkage", "gb_multiplier", "shrinkage.gb_multiplier", None, None,
     _by_prior_family("shrinkage.gb_multiplier")),
    ("risk_sim", "sample_radius", "risk_sim.sample_radius", _size_of_arg, None, None),
    ("risk_sim", "estimate_risk", "risk_sim.estimate_risk", _draws, None, None),
    ("radial_convolution", "marginal_m", "radial_convolution.marginal_m", None, None, None),
    ("radial_convolution", "directional_marginal", "radial_convolution.directional_marginal", None, None, None),
    ("radial_convolution", "kernel_marginal_M", "radial_convolution.kernel_marginal_M", None, None, None),
    ("radial_convolution", "asymptotic_ratio_probe", "radial_convolution.asymptotic_ratio_probe", None, None, None),
    ("rv_priors", "HSequence.h_eval", "rv_priors.HSequence.h_eval", None, None, None),
    ("rv_priors", "HSequence.h_derivative", "rv_priors.HSequence.h_derivative", None, None, None),
    ("rv_priors", "RadialPrior.g_eval", "rv_priors.RadialPrior.g_eval", _size_of_arg, None, None),
    ("rv_priors", "blyth_decay", "rv_priors.blyth_decay", None, None, None),
    ("rv_priors", "properness_index", "rv_priors.properness_index", None, None, None),
    ("rv_priors", "brown_diagnostic", "rv_priors.brown_diagnostic", None, None, None),
    ("rv_priors", "classify_prior", "rv_priors.classify_prior", None, None, None),
    ("minimax_audit", "evaluate_conditions", "minimax_audit.evaluate_conditions", None, None, None),
    ("special_integrals", "gegenbauer_identity", "special_integrals.gegenbauer_identity", None, None, None),
    ("special_integrals", "min_power_identity", "special_integrals.min_power_identity", None, None, None),
    ("special_integrals", "kernel_mass_identity", "special_integrals.kernel_mass_identity", None, None, None),
]


class _ThreadSpans:
    """Spans opened by one thread; parents index into the same arrays."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.failed = array("b")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own stages."""
        return _Span(self, self.name_id(name))

    def _open(self, nid: int) -> tuple[_ThreadSpans, int]:
        st = self._spans()
        idx = len(st.name)
        st.name.append(nid)
        st.parent.append(st.stack[-1] if st.stack else -1)
        st.end.append(0.0)
        st.count.append(0)
        st.failed.append(0)
        st.stack.append(idx)
        st.start.append(time.perf_counter())
        return st, idx

    def wrap(self, fn, name, count=None, count_on_raise=None, name_of=None):
        nid = self.name_id(name) if name_of is None else -1
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, idx = self._open(nid if name_of is None else self.name_id(name_of(args, kwargs)))
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                st.end[idx] = clock()
                st.stack.pop()
                st.failed[idx] = 1
                if count_on_raise is not None:
                    st.count[idx] = count_on_raise(exc)
                raise
            st.end[idx] = clock()
            st.stack.pop()
            if count is not None:
                st.count[idx] = count(args, kwargs, out)
            return out

        return wrapper

    # -- results ----------------------------------------------------------

    def arrays(self):
        """All spans as numpy columns, parents re-indexed into the joint arrays."""
        cols = {k: [] for k in ("thread", "name", "parent", "start", "end", "count", "failed")}
        offset = 0
        for t, st in enumerate(self._threads):
            n = len(st.name)
            parent = np.array(st.parent, dtype=np.int64)
            cols["thread"].append(np.full(n, t, dtype=np.int64))
            cols["name"].append(np.array(st.name, dtype=np.int64))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["start"].append(np.array(st.start, dtype=np.float64))
            cols["end"].append(np.array(st.end, dtype=np.float64))
            cols["count"].append(np.array(st.count, dtype=np.int64))
            cols["failed"].append(np.array(st.failed, dtype=np.int64))
            offset += n
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        return out, list(self._names)

    def summary(self):
        """Per span name: calls, inclusive and self seconds, work count, failures.

        Self time is a span's duration minus the durations of its child
        spans; children run in the parent's thread, so they never overlap.
        ``integrate_calls_under`` counts the numerics.integrate spans whose
        nearest ancestor outside numerics carries that name.
        """
        cols, names = self.arrays()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_s = dur - child
        out = {}
        for nid, name in enumerate(names):
            mask = cols["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "incl_s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "count": int(cols["count"][mask].sum()),
                "failed": int(cols["failed"][mask].sum()),
            }
        # integrate calls by nearest caller outside numerics; parents precede children
        integrate_id = self._ids.get("numerics.integrate", -1)
        numerics_ids = {nid for nid, name in enumerate(names) if name.startswith("numerics.")}
        under = [0] * len(names)
        nearest: list[int] = []
        for nid, par in zip(cols["name"].tolist(), parent.tolist()):
            caller = nearest[par] if par >= 0 else -1
            if nid == integrate_id and caller >= 0:
                under[caller] += 1
            nearest.append(caller if nid in numerics_ids else nid)
        for nid, name in enumerate(names):
            out[name]["integrate_calls_under"] = under[nid]
        return out, int(dur.size)

    def write(self, path):
        cols, names = self.arrays()
        np.savez_compressed(path, names=np.array(names), **cols)


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.st, self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.st.end[self.idx] = time.perf_counter()
        self.st.stack.pop()
        if exc[0] is not None:
            self.st.failed[self.idx] = 1
        return False


def install() -> Tracer:
    """Import the package and wrap every function in ``TARGETS``."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"sphereshrink.{name}")
               for name in sorted({t[0] for t in TARGETS})}
    package = [importlib.import_module("sphereshrink"), *modules.values()]
    for mod_name, attr, span_name, count, count_on_raise, name_of in TARGETS:
        mod = modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span_name, count, count_on_raise, name_of))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, span_name, count, count_on_raise, name_of)
        for m in package:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    return tracer
