"""The domain of every kind of argument, checked in one place.

Each validator takes the calling module's error class, raises it as
"<name> must be <domain>, not <value>" for a value outside the domain
(nan included), and otherwise returns the value as a float, an int or a
float array.  A float radius, timescale or eta costs one chained
comparison.
"""

from __future__ import annotations

import math

import numpy as np

_INF = math.inf


def _refuse(error, name, domain, value):
    try:
        shown = repr(np.asarray(value).tolist())
    except ValueError:  # a ragged list
        shown = repr(value)
    return error(f"{name} must be {domain}, not {shown if len(shown) <= 80 else shown[:72] + ' ...'}")


def radius(r, error, name="r", positive=False):
    """``r`` as a float: 0 <= r < inf, or 0 < r < inf if ``positive``."""
    if 0.0 < r < _INF if positive else 0.0 <= r < _INF:
        return float(r)
    raise _refuse(error, name, "positive and finite" if positive else "nonnegative and finite", r)


def timescale(i, error):
    """A smoothing timescale i as a float, 0 < i < inf."""
    return radius(i, error, "timescale i", positive=True)


def radii(values, error, name, positive=False, least=1):
    """``values`` as a 1-d float array of ``least`` or more radii, each as ``radius`` checks it."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = np.array([math.nan])
    lo = out > 0.0 if positive else out >= 0.0
    if out.ndim == 1 and out.size >= least and np.count_nonzero(lo & (out < _INF)) == out.size:
        return out
    sign = "positive" if positive else "nonnegative"
    head, tail = ("nonempty, ", "") if least == 1 else ("", f" of {least} or more")
    raise _refuse(error, name, f"{head}{sign} and finite numbers in a 1-d list{tail}", values)


def eta(x, error, name="eta"):
    """A float eta as itself, anything else as a float array of its shape; each entry 0 <= eta < inf."""
    if isinstance(x, float):
        if 0.0 <= x < _INF:
            return x
    else:
        try:
            x = np.asarray(x, dtype=float)
        except (TypeError, ValueError):
            raise _refuse(error, name, "nonnegative and finite", x) from None
        ok = (x >= 0.0) & (x < _INF)
        if ok.all():
            return x
        x = x[~ok].flat[0]
    raise _refuse(error, name, "nonnegative and finite", x)


def real(x, error, name, lo=-_INF, hi=_INF, ends="()"):
    """``x`` as a finite float between ``lo`` and ``hi``, each end open or closed as ``ends`` says."""
    try:
        v = float(x)
    except (TypeError, ValueError):
        v = math.nan
    if (lo <= v if ends[0] == "[" else lo < v) and (v <= hi if ends[1] == "]" else v < hi) and math.isfinite(v):
        return v
    bounded = lo > -_INF or hi < _INF
    raise _refuse(error, name, f"finite and in {ends[0]}{lo:g}, {hi:g}{ends[1]}" if bounded else "finite", x)


def integer(n, error, name="dimension p", least=3):
    """``n`` as an int >= ``least``, of any sign if ``least`` is None; a bool, a float (3.0 included) or nan is refused."""
    if (type(n) is int or isinstance(n, np.integer)) and (least is None or n >= least):  # type(True) is bool
        return int(n)
    raise _refuse(error, name, "an integer" if least is None else f"an integer >= {least}", n)


def same_dimension(error, model, prior=None, p=None):
    """``model.p``, once a given ``p`` (an integer) and ``prior.p`` agree with it."""
    if p is not None and (type(p) is not int or p != model.p) and integer(p, error) != model.p:
        raise error(f"dimension argument {p} does not match the model's p={model.p}")
    if prior is not None and prior.p != model.p:
        raise error(f"prior dimension {prior.p} does not match p={model.p}")
    return model.p
