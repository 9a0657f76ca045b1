"""Columnar sweep results: the struct-of-arrays accumulation format.

A grid sweep produces one record per point, and the record shape is
fixed per sweep kind — so holding results as ``list[dict]`` pays
per-point Python-object overhead (a dict, its keys, boxed values) for
structure that never varies.  :class:`SweepFrame` stores the same data
as one typed column per grid axis and per outcome field: ``int64`` and
``float64`` columns are numpy arrays, string columns are object arrays.
At 10⁶ points that is the difference between a few hundred MiB of dicts
and a handful of flat arrays.

The frame is the only form a sweep kind's result takes: the serial
runner, the process-pool engine and the cluster coordinator all fill
the same preallocated frame (out of grid order — chunks settle as they
finish), and :class:`FrameBackedSweepResult` is what
:meth:`repro.sim.catalog.SweepKind.run` returns and every assembler
reads.  The columns round-trip exactly: ``float64`` and ``int64``
reproduce the point functions' Python values bit for bit, and rows are
rebuilt with keys in declared schema order — the same order the point
functions build their dicts.

Mid-run visibility: fills may land out of order, but the frame tracks
its contiguous *filled prefix*, and streaming readers only ever see
that prefix — so a client can page through a sweep that is still
running and resume with ``offset`` without ever observing a hole.

The wire form (:meth:`SweepFrame.to_wire` / :func:`frame_from_wire`)
ships numeric columns as base64 little-endian bytes and string columns
as JSON lists — a columnar payload whose size is within a small factor
of the raw arrays, used by ``GET /v1/sweeps/<id>?format=frame``.
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.sim.sweep import SweepResult

__all__ = [
    "FrameField",
    "FrameSchema",
    "FrameBackedSweepResult",
    "SweepFrame",
    "frame_from_wire",
]

WIRE_FORMAT = "sweep-frame"
WIRE_VERSION = 1

_DTYPES = ("f8", "i8", "str")


@dataclass(frozen=True)
class FrameField:
    """One typed column: a grid axis or an outcome field.

    ``dtype`` is ``"f8"`` (float64), ``"i8"`` (int64) or ``"str"``.
    """

    name: str
    dtype: str

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise ValueError(
                f"field {self.name!r}: dtype must be one of {', '.join(_DTYPES)}, "
                f"got {self.dtype!r}"
            )


@dataclass(frozen=True)
class FrameSchema:
    """The declared column layout of one sweep kind's results.

    ``axes`` are the grid coordinates (the keys of each point dict, in
    grid order); ``fields`` are the outcome record's keys, in the exact
    order the kind's point function builds them — row reconstruction
    follows this order, so a rebuilt row equals the record the point
    returned.  A ``scalar`` schema has a single
    implicit ``value`` float column instead of a record (the N×W
    percent-series kinds return a bare float per point).
    """

    kind: str
    axes: tuple[FrameField, ...]
    fields: tuple[FrameField, ...] = ()
    scalar: bool = False

    def __post_init__(self) -> None:
        if self.scalar and self.fields:
            raise ValueError(f"schema {self.kind!r}: scalar schemas declare no fields")
        if not self.scalar and not self.fields:
            raise ValueError(f"schema {self.kind!r}: declare outcome fields or scalar")
        names = [f.name for f in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"schema {self.kind!r}: duplicate axis names in {names}")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"schema {self.kind!r}: duplicate field names in {names}")


def _new_column(dtype: str, capacity: int) -> np.ndarray:
    if dtype == "f8":
        return np.full(capacity, np.nan, dtype=np.float64)
    if dtype == "i8":
        return np.zeros(capacity, dtype=np.int64)
    return np.full(capacity, None, dtype=object)  # str


# The Python types each column accepts on fill; ``bool`` never passes.
_CELL_TYPES = {"f8": (int, float), "i8": int, "str": str}


def _refuse_mistyped(field: str, dtype: str, values: Iterable[Any]) -> None:
    """Raise :class:`TypeError` unless every value is native to ``dtype``,
    where numpy would coerce ``None`` to NaN, ``"1.5"`` to 1.5, ``True`` to 1."""
    accepted = _CELL_TYPES[dtype]
    for value in values:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError(f"field {field!r} ({dtype}) refuses {value!r}")


def _native(dtype: str, value: Any) -> Any:
    """A column cell as the native Python value the point returned."""
    if dtype == "f8":
        return float(value)
    if dtype == "i8":
        return int(value)
    return value


class SweepFrame:
    """Preallocated struct-of-arrays storage for one sweep's results.

    Capacity is the grid size, known before the first point runs, so
    every column is allocated once and filled in place — out of grid
    order when the parallel engine or cluster settles chunks as they
    finish.  Thread-safe: a job worker fills while the serving loop
    reads the filled prefix for streaming delivery.
    """

    def __init__(self, schema: FrameSchema, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.schema = schema
        self.capacity = capacity
        self._lock = threading.Lock()
        self._axis_cols = {f.name: _new_column(f.dtype, capacity) for f in schema.axes}
        if schema.scalar:
            self._value_col = _new_column("f8", capacity)
            self._field_cols: dict[str, np.ndarray] = {}
        else:
            self._value_col = None
            self._field_cols = {
                f.name: _new_column(f.dtype, capacity) for f in schema.fields
            }
        self._filled = np.zeros(capacity, dtype=bool)
        self._n_filled = 0
        self._prefix = 0

    # -- filling ------------------------------------------------------

    def _advance_prefix(self) -> None:
        # Caller holds the lock.
        prefix = self._prefix
        filled = self._filled
        while prefix < self.capacity and filled[prefix]:
            prefix += 1
        self._prefix = prefix

    def fill(self, index: int, point: Mapping[str, Any], outcome: Any) -> None:
        """Record one settled point at its grid index (idempotent).

        A chunk of one for :meth:`fill_many`, so it refuses the same
        outcomes and writes nothing when it does.
        """
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} outside frame of {self.capacity} points")
        self.fill_many(index, [point], [outcome])

    def fill_many(self, start: int, points: Sequence[Mapping[str, Any]],
                  outcomes: Sequence[Any]) -> None:
        """Record one contiguous chunk of settled points column-wise.

        The chunk append path the parallel engine and the cluster
        coordinator use: one slice assignment per column instead of
        per-row dict traffic.  An ``f8`` outcome column takes only int
        or float, an ``i8`` one only int, a ``str`` one only str (never
        bool); anything else raises :class:`TypeError`.
        """
        if len(points) != len(outcomes):
            raise ValueError(
                f"{len(points)} points but {len(outcomes)} outcomes"
            )
        stop = start + len(points)
        if not 0 <= start <= stop <= self.capacity:
            raise IndexError(
                f"chunk [{start}, {stop}) outside frame of {self.capacity} points"
            )
        if not points:
            return
        # Build every column before writing any: a malformed outcome
        # raises here and leaves the frame untouched.
        updates = [(self._axis_cols[f.name], [p[f.name] for p in points])
                   for f in self.schema.axes]
        if self.schema.scalar:
            _refuse_mistyped("value", "f8", outcomes)
            updates.append((self._value_col, outcomes))
        else:
            for f in self.schema.fields:
                values = [o[f.name] for o in outcomes]
                _refuse_mistyped(f.name, f.dtype, values)
                updates.append((self._field_cols[f.name], values))
        columns = [(col, np.asarray(values, dtype=col.dtype)) for col, values in updates]
        with self._lock:
            for col, values in columns:
                col[start:stop] = values
            fresh = int(np.count_nonzero(~self._filled[start:stop]))
            if fresh:
                self._filled[start:stop] = True
                self._n_filled += fresh
            self._advance_prefix()

    # -- state --------------------------------------------------------

    def __len__(self) -> int:
        return self.capacity

    @property
    def filled_count(self) -> int:
        """Points recorded so far (any order)."""
        with self._lock:
            return self._n_filled

    @property
    def filled_prefix(self) -> int:
        """Length of the contiguous filled prefix — the streamable part."""
        with self._lock:
            return self._prefix

    @property
    def complete(self) -> bool:
        """Whether every grid point has been recorded."""
        with self._lock:
            return self._n_filled == self.capacity

    def column(self, name: str) -> np.ndarray:
        """One column by name (axes shadow outcome fields on collision).

        Returns the live array — callers treat it as read-only.
        """
        if name in self._axis_cols:
            return self._axis_cols[name]
        if self.schema.scalar and name == "value":
            return self._value_col
        if name in self._field_cols:
            return self._field_cols[name]
        raise KeyError(f"frame {self.schema.kind!r} has no column {name!r}")

    # -- row views ----------------------------------------------------

    def point_at(self, index: int) -> dict[str, Any]:
        """The grid point at ``index``, rebuilt in axis order."""
        return {
            f.name: _native(f.dtype, self._axis_cols[f.name][index])
            for f in self.schema.axes
        }

    def outcome_at(self, index: int) -> Any:
        """The outcome at ``index`` — a float for scalar schemas, else a
        dict rebuilt in declared field order."""
        if self.schema.scalar:
            return float(self._value_col[index])
        return {
            f.name: _native(f.dtype, self._field_cols[f.name][index])
            for f in self.schema.fields
        }

    def rows(self, offset: int = 0, limit: Optional[int] = None,
             ) -> Iterator[tuple[int, dict[str, Any], Any]]:
        """Iterate ``(index, point, outcome)`` over the filled prefix.

        Only the contiguous prefix is served, so a mid-run reader never
        sees a hole; ``offset``/``limit`` window the iteration for
        chunked delivery.
        """
        with self._lock:
            stop = self._prefix
        if limit is not None:
            stop = min(stop, offset + limit)
        for i in range(offset, stop):
            yield i, self.point_at(i), self.outcome_at(i)

    def mask(self, **criteria: Any) -> np.ndarray:
        """Boolean row mask matching all axis criteria exactly.

        One vectorized comparison per criterion, AND-folded — the
        columnar ``where``.  Unfilled rows never match.
        """
        with self._lock:
            out = self._filled.copy()
        for name, value in criteria.items():
            if name in self._axis_cols:
                out &= self._axis_cols[name] == value
            else:
                out[:] = False  # an unknown key matches nothing (dict .get semantics)
        return out

    # -- wire ---------------------------------------------------------

    def _encode_column(self, field: FrameField, col: np.ndarray,
                       offset: int, stop: int) -> dict[str, Any]:
        window = col[offset:stop]
        if field.dtype == "str":
            return {"name": field.name, "dtype": "str", "data": list(window)}
        packed = window.astype("<" + field.dtype, copy=False).tobytes()
        return {
            "name": field.name,
            "dtype": field.dtype,
            "data": base64.b64encode(packed).decode("ascii"),
        }

    def to_wire(self, offset: int = 0, limit: Optional[int] = None) -> dict[str, Any]:
        """The columnar wire payload for ``[offset, offset+limit)``.

        Windows are clamped to the filled prefix, so a mid-run read
        returns whatever is contiguously available; ``count`` in the
        payload says how much that was.
        """
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        with self._lock:
            prefix = self._prefix
            complete = self._n_filled == self.capacity
        stop = prefix if limit is None else min(prefix, offset + limit)
        stop = max(stop, offset)
        columns: list[dict[str, Any]] = [
            self._encode_column(f, self._axis_cols[f.name], offset, stop)
            for f in self.schema.axes
        ]
        fields: list[dict[str, Any]]
        if self.schema.scalar:
            fields = [self._encode_column(FrameField("value", "f8"),
                                          self._value_col, offset, stop)]
        else:
            fields = [
                self._encode_column(f, self._field_cols[f.name], offset, stop)
                for f in self.schema.fields
            ]
        return {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "kind": self.schema.kind,
            "scalar": self.schema.scalar,
            "capacity": self.capacity,
            "offset": offset,
            "count": stop - offset,
            "complete": complete,
            "axes": columns,
            "fields": fields,
        }


def _decode_column(payload: Mapping[str, Any], count: int) -> tuple[FrameField, Any]:
    field = FrameField(str(payload["name"]), str(payload["dtype"]))
    data = payload["data"]
    if field.dtype == "str":
        values: Any = list(data)
    else:
        values = np.frombuffer(
            base64.b64decode(data), dtype="<" + field.dtype
        ).astype(field.dtype)
    if len(values) != count:
        raise ValueError(
            f"column {field.name!r} holds {len(values)} values, expected {count}"
        )
    return field, values


def frame_from_wire(payload: Mapping[str, Any]) -> SweepFrame:
    """Rebuild a :class:`SweepFrame` from :meth:`SweepFrame.to_wire`.

    The decoded frame covers ``[offset, offset+count)``; row views over
    that window are byte-identical to the sender's.
    """
    if payload.get("format") != WIRE_FORMAT:
        raise ValueError(f"not a {WIRE_FORMAT} payload: {payload.get('format')!r}")
    if payload.get("version") != WIRE_VERSION:
        raise ValueError(f"unsupported {WIRE_FORMAT} version {payload.get('version')!r}")
    capacity = int(payload["capacity"])
    offset = int(payload["offset"])
    count = int(payload["count"])
    for name, value in (("offset", offset), ("count", count)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if offset + count > capacity:
        raise ValueError(
            f"offset + count = {offset + count} exceeds the capacity of {capacity} points"
        )
    scalar = bool(payload["scalar"])
    axes, axis_values = [], []
    for column in payload["axes"]:
        field, values = _decode_column(column, count)
        axes.append(field)
        axis_values.append(values)
    fields, field_values = [], []
    for column in payload["fields"]:
        field, values = _decode_column(column, count)
        fields.append(field)
        field_values.append(values)
    schema = FrameSchema(
        kind=str(payload["kind"]),
        axes=tuple(axes),
        fields=() if scalar else tuple(fields),
        scalar=scalar,
    )
    frame = SweepFrame(schema, capacity)
    stop = offset + count
    if count:
        with frame._lock:
            for field, values in zip(axes, axis_values):
                frame._axis_cols[field.name][offset:stop] = values
            if scalar:
                frame._value_col[offset:stop] = field_values[0]
            else:
                for field, values in zip(fields, field_values):
                    frame._field_cols[field.name][offset:stop] = values
            frame._filled[offset:stop] = True
            frame._n_filled = count
            frame._advance_prefix()
    return frame


class FrameBackedSweepResult(SweepResult):
    """A :class:`~repro.sim.sweep.SweepResult` whose rows live in a frame.

    The lazy row-view facade: ``points``/``outcomes`` materialize from
    the columns on first touch (and are cached), so consumers that
    genuinely need dicts still get them, while column-wise consumers
    (``where``, the assemblers' reductions) never build a row at all.
    """

    def __init__(self, frame: SweepFrame, telemetry: Optional[Any] = None) -> None:
        # Deliberately not calling the dataclass __init__: points and
        # outcomes are lazy properties here.
        self.frame = frame
        self.telemetry = telemetry
        self._points: Optional[list[dict[str, Any]]] = None
        self._outcomes: Optional[list[Any]] = None

    @property
    def points(self) -> list[dict[str, Any]]:  # type: ignore[override]
        if self._points is None:
            self._points = [self.frame.point_at(i) for i in range(self.frame.capacity)]
        return self._points

    @property
    def outcomes(self) -> list[Any]:  # type: ignore[override]
        if self._outcomes is None:
            self._outcomes = [
                self.frame.outcome_at(i) for i in range(self.frame.capacity)
            ]
        return self._outcomes

    def __len__(self) -> int:
        return self.frame.capacity

    def where(self, **criteria: Any) -> SweepResult:
        """Columnar sub-sweep: one boolean-mask pass over the columns."""
        mask = self.frame.mask(**criteria)
        out = SweepResult()
        for i in np.flatnonzero(mask):
            out.points.append(self.frame.point_at(int(i)))
            out.outcomes.append(self.frame.outcome_at(int(i)))
        return out
