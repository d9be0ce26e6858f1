"""Op model, timed passes, verdicts and end-to-end metrics.

An op is one timed call sequence into the public `updown` API together with
its oracle: the expected value, where that value comes from, and the
tolerance it is held to. Oracles are evaluated only after the timed pass, and
a verdict is reached for every executed op.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from speed import SpeedProbe

_UNSET = object()


@dataclass
class Op:
    """One timed op and its oracle.

    `expect` returns the expected value and is called once, outside any timed
    region. `compare(result, expected, tol)` decides the verdict for a
    returned value. When `raises` names an exception class from
    `updown.errors`, the op passes only by raising that class.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    source: str
    tol: float
    expect: Callable[[], Any] = lambda: None
    compare: Callable[[Any, Any, float], bool] = lambda r, w, t: False
    raises: type | None = None
    _want: Any = field(default=_UNSET, repr=False)

    def expected(self):
        if self._want is _UNSET:
            self._want = self.expect()
        return self._want

    def verdict(self, result, error):
        """True when the outcome matches the oracle."""
        if error is not None:
            return self.raises is not None and isinstance(error, self.raises)
        if self.raises is not None:
            return False
        return bool(self.compare(result, self.expected(), self.tol))

    def oracle_row(self):
        want = (f"raises {self.raises.__name__}" if self.raises is not None
                else _describe(self.expected()))
        return {"op": self.label, "expected": want, "source": self.source,
                "tol": self.tol}


def _describe(value):
    if isinstance(value, np.ndarray):
        return f"array[{value.size}] first={value.flat[0]!r}"
    if isinstance(value, tuple):
        return [_describe(v) for v in value]
    return repr(value)


def close(got, want, tol):
    """|got - want| <= max(tol, tol |want|) elementwise, all finite."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


@dataclass
class Record:
    op: Op
    start: float
    end: float
    result: Any
    error: BaseException | None
    seconds: float = 0.0   # op time, less any speed samples taken inside it
    norm: float = 0.0      # speed-normalised op time (see speed.py)


def run_pass(ops):
    """Run each op once; returns (wall seconds, records).

    Any exception an op raises is caught and kept, so one failing op never
    stops the run; verdicts are reached later, outside the timed region.
    """
    records = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # judged against the oracle, never fatal
            result, error = None, exc
        records.append(Record(op, t0, time.perf_counter(), result, error))
    return time.perf_counter() - start, records


def run_probed(ops, seconds=0.0):
    """Passes over ops under a speed probe, until another would overrun.

    At least one pass runs. Returns the records of each pass, with `seconds`
    and `norm` filled in.
    """
    passes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            wall, records = run_pass(ops)
            passes.append(records)
            if time.perf_counter() - start + wall > seconds:
                break
    for records in passes:
        for r in records:
            r.seconds, r.norm = probe.adjust(r.start, r.end)
    return passes


def judge(records):
    """List of (label, passed, reason) for a pass, in op order."""
    out = []
    for rec in records:
        passed = rec.op.verdict(rec.result, rec.error)
        if passed:
            reason = ""
        elif rec.error is not None:
            reason = f"{type(rec.error).__name__}: {str(rec.error)[:120]}"
        else:
            reason = f"outside tolerance {rec.op.tol:g}: {_summary(rec.result)}"
        out.append((rec.op.label, passed, reason))
    return out


def _summary(result):
    if hasattr(result, "_asdict"):
        return repr(tuple(result))[:160]
    if isinstance(result, np.ndarray):
        return f"array[{result.size}]"
    return repr(result)[:160]


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values):
    return percentile(values, 50.0)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}
