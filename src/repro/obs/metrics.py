"""Lightweight metrics registry: counters, gauges, histograms.

The registry is the *numeric* half of the observability layer (the
tracer in :mod:`repro.obs.tracer` is the *event* half, and owns the
registry).  Hot paths probe it behind one guard::

    mx = self.metrics            # None unless tracing was requested
    if mx is not None:
        mx.count("repair.detail_ok")

Two hard rules keep instrumented runs bit-identical to plain runs
(the PR 2 sanitizer contract):

* **no wall-clock reads** — nothing in this module ever touches a
  timer; per-layer wall time is measured from outside the program, by
  the flow benchmark's spans (``flowbench/run.py --trace 1``).  All
  values recorded here are already-computed integers/floats of the
  run itself;
* **no RNG, no layout state** — recording is pure accumulation into
  plain dicts and lists.

``snapshot()`` is the only read API: an explicit, JSON-ready copy of
everything accumulated so far.  The tracer snapshots at stage
boundaries and emits per-stage *deltas*, so trace consumers see rates
(cache hits per temperature, repairs per temperature) without the hot
loop ever doing subtraction.
"""

from __future__ import annotations

import math
from typing import Optional, Union

Number = Union[int, float]

#: Histogram bucket upper bounds: powers of two up to 2**15, then +inf.
#: Fixed bounds (rather than adaptive ones) keep snapshots comparable
#: across runs and machines.
HISTOGRAM_BOUNDS: tuple[int, ...] = tuple(2 ** i for i in range(16))


class Histogram:
    """Fixed-bucket histogram over non-negative values."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        # One bucket per bound plus one overflow bucket.
        self.buckets: list[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: Number) -> None:
        """Record one sample."""
        index = len(HISTOGRAM_BOUNDS)
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        Fixed buckets make this a conservative (rounded-up) estimate:
        the true sample lies at or below the returned bound.  Returns
        ``0.0`` for an empty histogram and ``math.inf`` when the
        quantile lands in the overflow bucket.  Raises ``ValueError``
        for ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, tally in enumerate(self.buckets):
            cumulative += tally
            if cumulative >= target:
                if i < len(HISTOGRAM_BOUNDS):
                    return float(HISTOGRAM_BOUNDS[i])
                break
        return math.inf

    def summary(self) -> dict:
        """Count/sum/mean plus bucketed p50/p90/p99, JSON-ready.

        A quantile landing in the overflow bucket is ``math.inf`` from
        :meth:`quantile`, which ``json.dumps`` would emit as the
        non-standard token ``Infinity`` (strict parsers reject it) —
        summaries report it as ``None`` instead, meaning "beyond the
        top finite bound".
        """
        def finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": finite(self.quantile(0.5)),
            "p90": finite(self.quantile(0.9)),
            "p99": finite(self.quantile(0.99)),
        }

    def as_dict(self) -> dict:
        """JSON-ready snapshot of this histogram."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with explicit snapshots."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- hot-path probes (call only under an ``is not None`` guard) ----
    def count(self, name: str, n: int = 1) -> None:
        """Bump a monotonically increasing counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: Number) -> None:
        """Set a point-in-time value (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one histogram sample."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready copy of everything accumulated so far.

        The one read API: callers diff successive snapshots to turn the
        monotone counters into per-interval rates (see
        :func:`counter_delta`).
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """Counter increments between two :meth:`MetricsRegistry.snapshot` calls.

    Only counters that moved appear in the result, so per-stage trace
    events stay compact on stages where nothing interesting happened.
    """
    old = before.get("counters", {})
    new = after.get("counters", {})
    return {
        name: value - old.get(name, 0)
        for name, value in sorted(new.items())
        if value != old.get(name, 0)
    }
