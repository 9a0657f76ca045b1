"""Counter/gauge/histogram registry with Prometheus text rendering.

The service exports its health at ``GET /metrics`` in the Prometheus
text exposition format (version 0.0.4) so any standard scraper can
watch it.  This is a deliberately small subset of a metrics client:

* :class:`Counter` — monotone totals (requests served, cache hits);
* :class:`Gauge` — instantaneous levels (queue depth, jobs running);
* :class:`Histogram` — cumulative-bucket latency distributions, with
  ``_bucket``/``_sum``/``_count`` series and an inclusive ``+Inf``
  bucket, exactly as Prometheus expects.

Instruments support a single optional label dimension, enough to split
request counts by endpoint and jobs by terminal state without pulling
in a real client library (the service is stdlib-only by design).

All instruments are thread-safe; the asyncio handlers, the job-queue
worker threads, and the scraper all touch them concurrently.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Optional, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelValue = Union[str, int, float]

# Prometheus' default latency buckets suit RPC-scale services; ours adds
# sub-millisecond resolution because the closed-form endpoints answer in
# tens of microseconds and would otherwise all land in the first bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NO_LABEL = ""


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise ValueError(f"invalid metric name: {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared plumbing: name, help text, one optional label dimension."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label: Optional[str] = None) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        self.label = label
        self._lock = threading.Lock()

    def _series(self, label_value: Optional[LabelValue]) -> str:
        if label_value is None:
            if self.label is not None:
                raise ValueError(f"metric {self.name} requires label {self.label!r}")
            return _NO_LABEL
        if self.label is None:
            raise ValueError(f"metric {self.name} does not take a label")
        return str(label_value)

    def _render_header(self) -> list[str]:
        help_text = self.help_text.replace("\\", "\\\\").replace("\n", "\\n")
        return [
            f"# HELP {self.name} {help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def _render_series_name(self, suffix: str, series: str, extra: str = "") -> str:
        labels = []
        if series != _NO_LABEL:
            labels.append(f'{self.label}="{_escape_label(series)}"')
        if extra:
            labels.append(extra)
        body = "{" + ",".join(labels) + "}" if labels else ""
        return f"{self.name}{suffix}{body}"


class Counter(_Instrument):
    """A monotonically increasing total, optionally split by one label."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, label: Optional[str] = None) -> None:
        super().__init__(name, help_text, label)
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1.0, *, label: Optional[LabelValue] = None) -> None:
        """Add ``amount`` (must be >= 0) to the series' total."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        series = self._series(label)
        with self._lock:
            self._values[series] = self._values.get(series, 0.0) + amount

    def value(self, *, label: Optional[LabelValue] = None) -> float:
        """Current total of one series (0 if never incremented)."""
        series = self._series(label)
        with self._lock:
            return self._values.get(series, 0.0)

    def render(self) -> list[str]:
        """Exposition-format lines for this metric."""
        with self._lock:
            items = sorted(self._values.items())
        lines = self._render_header()
        if not items and self.label is None:
            items = [(_NO_LABEL, 0.0)]
        for series, value in items:
            lines.append(f"{self._render_series_name('', series)} {_format_value(value)}")
        return lines


class Gauge(_Instrument):
    """An instantaneous level that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, label: Optional[str] = None) -> None:
        super().__init__(name, help_text, label)
        self._values: dict[str, float] = {}

    def set(self, value: float, *, label: Optional[LabelValue] = None) -> None:
        """Set the series to an absolute level."""
        series = self._series(label)
        with self._lock:
            self._values[series] = float(value)

    def inc(self, amount: float = 1.0, *, label: Optional[LabelValue] = None) -> None:
        """Move the series up by ``amount`` (negative moves it down)."""
        series = self._series(label)
        with self._lock:
            self._values[series] = self._values.get(series, 0.0) + amount

    def dec(self, amount: float = 1.0, *, label: Optional[LabelValue] = None) -> None:
        """Move the series down by ``amount``."""
        self.inc(-amount, label=label)

    def remove(self, *, label: Optional[LabelValue] = None) -> None:
        """Drop one series from the exposition (a no-op if it is absent)."""
        series = self._series(label)
        with self._lock:
            self._values.pop(series, None)

    def value(self, *, label: Optional[LabelValue] = None) -> float:
        """Current level of one series (0 if never set)."""
        series = self._series(label)
        with self._lock:
            return self._values.get(series, 0.0)

    def render(self) -> list[str]:
        """Exposition-format lines for this metric."""
        with self._lock:
            items = sorted(self._values.items())
        lines = self._render_header()
        if not items and self.label is None:
            items = [(_NO_LABEL, 0.0)]
        for series, value in items:
            lines.append(f"{self._render_series_name('', series)} {_format_value(value)}")
        return lines


class Histogram(_Instrument):
    """Cumulative-bucket distribution, Prometheus histogram semantics.

    ``observe(x)`` increments every bucket whose upper bound admits
    ``x`` at render time (we store per-bucket counts and cumulate when
    rendering, which keeps ``observe`` O(log buckets) via bisection).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        label: Optional[str] = None,
    ) -> None:
        super().__init__(name, help_text, label)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 or math.isinf(b) for b in bounds):
            raise ValueError("bucket bounds must be finite and positive")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.bounds = bounds
        # Per-series: per-bucket counts (+1 slot for > max bound), sum, count.
        self._buckets: dict[str, list[int]] = {}
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def observe(self, value: float, *, label: Optional[LabelValue] = None) -> None:
        """Record one observation."""
        series = self._series(label)
        import bisect

        slot = bisect.bisect_left(self.bounds, float(value))
        with self._lock:
            counts = self._buckets.setdefault(series, [0] * (len(self.bounds) + 1))
            counts[slot] += 1
            self._sums[series] = self._sums.get(series, 0.0) + float(value)
            self._counts[series] = self._counts.get(series, 0) + 1

    def count(self, *, label: Optional[LabelValue] = None) -> int:
        """Observations recorded in one series."""
        series = self._series(label)
        with self._lock:
            return self._counts.get(series, 0)

    def quantile(self, q: float, *, label: Optional[LabelValue] = None) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Good enough for load-report p50/p95/p99 summaries; the service's
        loadgen computes exact quantiles from raw samples instead.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series(label)
        with self._lock:
            counts = list(self._buckets.get(series, ()))
            total = self._counts.get(series, 0)
        if total == 0:
            return math.nan
        rank = q * total
        seen = 0
        for slot, n in enumerate(counts):
            seen += n
            if seen >= rank and n:
                return self.bounds[slot] if slot < len(self.bounds) else math.inf
        return math.inf

    def render(self) -> list[str]:
        """Exposition-format lines: ``_bucket``, ``_sum``, ``_count``."""
        with self._lock:
            series_names = sorted(self._buckets) or ([_NO_LABEL] if self.label is None else [])
            snapshot = {
                s: (list(self._buckets.get(s, [0] * (len(self.bounds) + 1))),
                    self._sums.get(s, 0.0),
                    self._counts.get(s, 0))
                for s in series_names
            }
        lines = self._render_header()
        for series in series_names:
            counts, total_sum, total_count = snapshot[series]
            cumulative = 0
            for bound, n in zip(self.bounds, counts):
                cumulative += n
                name = self._render_series_name(
                    "_bucket", series, f'le="{_format_value(bound)}"'
                )
                lines.append(f"{name} {cumulative}")
            name = self._render_series_name("_bucket", series, 'le="+Inf"')
            lines.append(f"{name} {total_count}")
            lines.append(
                f"{self._render_series_name('_sum', series)} {_format_value(total_sum)}"
            )
            lines.append(f"{self._render_series_name('_count', series)} {total_count}")
        return lines


class MetricsRegistry:
    """Factory and render root for a service's instruments.

    One registry per service instance (no process-global state — tests
    boot several services side by side).  ``render()`` concatenates
    every instrument in registration order, trailing newline included,
    as scrapers require.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered "
                        f"as {existing.kind}"
                    )
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(self, name: str, help_text: str, *, label: Optional[str] = None) -> Counter:
        """Get or create a :class:`Counter` (idempotent by name)."""
        instrument = self._register(Counter(name, help_text, label))
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help_text: str, *, label: Optional[str] = None) -> Gauge:
        """Get or create a :class:`Gauge` (idempotent by name)."""
        instrument = self._register(Gauge(name, help_text, label))
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        label: Optional[str] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram` (idempotent by name)."""
        instrument = self._register(Histogram(name, help_text, buckets=buckets, label=label))
        assert isinstance(instrument, Histogram)
        return instrument

    def render(self) -> str:
        """Full Prometheus text exposition of every registered metric."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines: list[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n" if lines else ""
