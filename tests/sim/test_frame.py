"""Unit tests for the columnar sweep-result frame.

The frame is the native accumulation format behind every execution mode
(`repro.sim.frame`): these tests pin the storage semantics the engines
and the streaming endpoint rely on — idempotent out-of-order fills, the
contiguous-prefix invariant that makes mid-run streaming hole-free,
exact native-type round-trips through the typed columns, and the wire
encoding's byte-for-byte fidelity.
"""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro.sim.frame import (
    FrameBackedSweepResult,
    FrameField,
    FrameSchema,
    SweepFrame,
    frame_from_wire,
)
from repro.sim.sweep import SweepResult

SCALAR = FrameSchema(
    kind="test-scalar",
    axes=(FrameField("n", "i8"), FrameField("w", "i8")),
    scalar=True,
)

RECORD = FrameSchema(
    kind="test-record",
    axes=(FrameField("bench", "str"), FrameField("n", "i8")),
    fields=(
        FrameField("bench", "str"),
        FrameField("rate", "f8"),
        FrameField("hits", "i8"),
    ),
)


def _scalar_rows(n_rows: int) -> list[tuple[dict, float]]:
    return [({"n": 64 * (i + 1), "w": i % 3}, 0.5 * i) for i in range(n_rows)]


class TestSchema:
    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            FrameField("x", "u4")

    def test_scalar_with_fields_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            FrameSchema(kind="k", axes=(FrameField("n", "i8"),),
                        fields=(FrameField("v", "f8"),), scalar=True)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="fields or scalar"):
            FrameSchema(kind="k", axes=(FrameField("n", "i8"),))

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FrameSchema(kind="k", axes=(FrameField("n", "i8"), FrameField("n", "i8")),
                        scalar=True)


class TestFill:
    def test_out_of_order_fill_tracks_prefix(self):
        frame = SweepFrame(SCALAR, 4)
        rows = _scalar_rows(4)
        frame.fill(2, *rows[2])
        assert frame.filled_count == 1
        assert frame.filled_prefix == 0  # hole at 0: nothing streamable
        frame.fill(0, *rows[0])
        assert frame.filled_prefix == 1
        frame.fill(1, *rows[1])
        assert frame.filled_prefix == 3  # 0..2 now contiguous
        frame.fill(3, *rows[3])
        assert frame.complete
        assert frame.filled_prefix == 4

    def test_fill_is_idempotent(self):
        frame = SweepFrame(SCALAR, 2)
        rows = _scalar_rows(2)
        frame.fill(0, *rows[0])
        frame.fill(0, *rows[0])
        assert frame.filled_count == 1

    def test_fill_out_of_range_rejected(self):
        frame = SweepFrame(SCALAR, 2)
        with pytest.raises(IndexError):
            frame.fill(2, {"n": 1, "w": 1}, 0.0)

    def test_fill_many_matches_fill(self):
        rows = _scalar_rows(6)
        one = SweepFrame(SCALAR, 6)
        many = SweepFrame(SCALAR, 6)
        for i, (point, outcome) in enumerate(rows):
            one.fill(i, point, outcome)
        many.fill_many(0, [p for p, _ in rows[:3]], [o for _, o in rows[:3]])
        many.fill_many(3, [p for p, _ in rows[3:]], [o for _, o in rows[3:]])
        assert many.complete
        for i in range(6):
            assert many.point_at(i) == one.point_at(i)
            assert many.outcome_at(i) == one.outcome_at(i)

    def test_fill_many_counts_only_fresh_rows(self):
        frame = SweepFrame(SCALAR, 4)
        rows = _scalar_rows(4)
        frame.fill(1, *rows[1])
        frame.fill_many(0, [p for p, _ in rows[:3]], [o for _, o in rows[:3]])
        assert frame.filled_count == 3

    def test_fill_many_length_mismatch_rejected(self):
        frame = SweepFrame(SCALAR, 4)
        with pytest.raises(ValueError, match="points but"):
            frame.fill_many(0, [{"n": 1, "w": 1}], [])

    def test_fill_many_overflow_rejected(self):
        frame = SweepFrame(SCALAR, 2)
        rows = _scalar_rows(3)
        with pytest.raises(IndexError):
            frame.fill_many(0, [p for p, _ in rows], [o for _, o in rows])

    def test_failed_fill_many_writes_nothing(self):
        frame = SweepFrame(RECORD, 2)
        points = [{"bench": "gzip", "n": 256}, {"bench": "mcf", "n": 512}]
        outcomes = [{"bench": "gzip", "rate": 0.5, "hits": 1}, {"bench": "mcf", "rate": 0.25}]
        with pytest.raises(KeyError, match="hits"):
            frame.fill_many(0, points, outcomes)
        assert frame.filled_count == 0
        assert list(frame.column("bench")) == [None, None]
        assert list(frame.column("n")) == [0, 0]
        assert np.isnan(frame.column("rate")).all()


class TestMistypedOutcomes:
    """A column takes only its native Python type; numpy must not coerce.

    ``f8`` takes int or float, ``i8`` takes int, ``str`` takes str, and
    no column takes a bool.  A refused fill raises :class:`TypeError`
    and writes nothing, in both fill paths.
    """

    RECORD_POINT = {"bench": "gzip", "n": 256}
    GOOD_RECORD = {"bench": "gzip", "rate": 0.5, "hits": 3}

    @pytest.mark.parametrize("value", [None, "1.5", True, False, [1.0], np.bool_(True)])
    def test_scalar_column_refuses(self, value):
        frame = SweepFrame(SCALAR, 2)
        with pytest.raises(TypeError, match="'value'"):
            frame.fill_many(0, [{"n": 1, "w": 1}, {"n": 2, "w": 1}], [0.5, value])
        with pytest.raises(TypeError, match="'value'"):
            frame.fill(1, {"n": 2, "w": 1}, value)
        assert frame.filled_count == 0
        assert np.isnan(frame.column("value")).all()

    @pytest.mark.parametrize("field,value", [
        ("rate", None), ("rate", "0.5"), ("rate", True),
        ("hits", None), ("hits", "3"), ("hits", True), ("hits", 3.0),
        ("bench", None), ("bench", 5), ("bench", True),
    ])
    def test_record_columns_refuse(self, field, value):
        frame = SweepFrame(RECORD, 1)
        outcome = {**self.GOOD_RECORD, field: value}
        with pytest.raises(TypeError, match=repr(field)):
            frame.fill_many(0, [self.RECORD_POINT], [outcome])
        with pytest.raises(TypeError, match=repr(field)):
            frame.fill(0, self.RECORD_POINT, outcome)
        assert frame.filled_count == 0
        assert list(frame.column("bench")) == [None]
        assert list(frame.column("n")) == [0]

    def test_native_numbers_pass(self):
        frame = SweepFrame(RECORD, 2)
        points = [self.RECORD_POINT, {"bench": "mcf", "n": 512}]
        # An int is a valid f8 value; a float subclass (numpy's) too.
        outcomes = [{**self.GOOD_RECORD, "rate": 1},
                    {"bench": "mcf", "rate": np.float64(0.25), "hits": 0}]
        frame.fill_many(0, points, outcomes)
        assert list(frame.column("rate")) == [1.0, 0.25]

    def test_closed_record_with_mistyped_fields_is_refused(self):
        from repro.sim.catalog import SWEEP_KINDS

        kind = SWEEP_KINDS["closed"]
        params = kind.validate({"n_values": [64]})
        frame = kind.make_frame(params)
        (point,) = kind.grid(params)
        record = {**point, "conflicts": True, "committed": "3", "mean_occupancy": None,
                  "expected_occupancy": 1.0, "actual_concurrency": 1.0}
        with pytest.raises(TypeError):
            frame.fill(0, point, record)
        assert frame.filled_count == 0

    @pytest.mark.parametrize("outcomes", [[None, None], ["1.5", True]])
    def test_sink_refuses_a_mistyped_cache_entry(self, outcomes):
        from repro.sim.catalog import SWEEP_KINDS
        from repro.sim.sweep import SweepSink

        kind = SWEEP_KINDS["fig4a"]
        params = kind.validate({"n_values": [512], "w_values": [4, 8]})
        sink = SweepSink(kind.grid(params), kind.make_frame(params))
        assert sink.fill_cached(0, 2, outcomes) is False
        assert sink.frame.filled_count == 0
        assert sink.fill_cached(0, 2, [12.5, 40]) is True


class TestRowViews:
    def test_native_types_round_trip(self):
        frame = SweepFrame(RECORD, 1)
        frame.fill(0, {"bench": "mp3d", "n": 4096},
                   {"bench": "mp3d", "rate": 0.25, "hits": 7})
        point = frame.point_at(0)
        outcome = frame.outcome_at(0)
        assert point == {"bench": "mp3d", "n": 4096}
        assert type(point["n"]) is int
        assert outcome == {"bench": "mp3d", "rate": 0.25, "hits": 7}
        assert type(outcome["rate"]) is float
        assert type(outcome["hits"]) is int
        # numpy scalars would break json.dumps — these must not.
        json.dumps({"point": point, "outcome": outcome}, allow_nan=False)

    def test_rows_serves_only_the_prefix(self):
        frame = SweepFrame(SCALAR, 4)
        rows = _scalar_rows(4)
        frame.fill(0, *rows[0])
        frame.fill(1, *rows[1])
        frame.fill(3, *rows[3])  # hole at 2
        served = list(frame.rows())
        assert [i for i, _, _ in served] == [0, 1]

    def test_rows_windowing(self):
        frame = SweepFrame(SCALAR, 5)
        for i, (point, outcome) in enumerate(_scalar_rows(5)):
            frame.fill(i, point, outcome)
        window = list(frame.rows(offset=1, limit=2))
        assert [i for i, _, _ in window] == [1, 2]
        assert list(frame.rows(offset=5)) == []

    def test_mask_matches_dict_where(self):
        frame = SweepFrame(SCALAR, 6)
        for i, (point, outcome) in enumerate(_scalar_rows(6)):
            frame.fill(i, point, outcome)
        facade = FrameBackedSweepResult(frame)
        plain = SweepResult(points=list(facade.points),
                            outcomes=list(facade.outcomes))
        sub = facade.where(w=1)
        expected = plain.where(w=1)
        assert sub.points == expected.points
        assert sub.outcomes == expected.outcomes

    def test_mask_unknown_key_matches_nothing(self):
        frame = SweepFrame(SCALAR, 3)
        for i, (point, outcome) in enumerate(_scalar_rows(3)):
            frame.fill(i, point, outcome)
        assert not frame.mask(zzz=1).any()
        assert len(FrameBackedSweepResult(frame).where(zzz=1)) == 0

    def test_mask_excludes_unfilled_rows(self):
        frame = SweepFrame(SCALAR, 3)
        rows = _scalar_rows(3)
        frame.fill(0, *rows[0])
        mask = frame.mask(w=rows[1][0]["w"])
        assert not mask[1]


class TestWire:
    def test_round_trip_is_exact(self):
        frame = SweepFrame(RECORD, 3)
        values = [
            ({"bench": "gzip", "n": 256}, {"bench": "gzip", "rate": 1 / 3, "hits": 2}),
            ({"bench": "mcf", "n": 512}, {"bench": "mcf", "rate": 0.0, "hits": 0}),
            ({"bench": "art", "n": 1024}, {"bench": "art", "rate": 7e-12, "hits": 9}),
        ]
        for i, (point, outcome) in enumerate(values):
            frame.fill(i, point, outcome)
        clone = frame_from_wire(json.loads(json.dumps(frame.to_wire())))
        for i, (point, outcome) in enumerate(values):
            assert clone.point_at(i) == point
            assert clone.outcome_at(i) == outcome

    def test_windowed_wire_covers_only_its_window(self):
        frame = SweepFrame(SCALAR, 5)
        rows = _scalar_rows(5)
        for i, (point, outcome) in enumerate(rows):
            frame.fill(i, point, outcome)
        payload = frame.to_wire(offset=2, limit=2)
        assert payload["offset"] == 2 and payload["count"] == 2
        clone = frame_from_wire(payload)
        assert clone.point_at(2) == rows[2][0]
        assert clone.outcome_at(3) == rows[3][1]
        assert clone.filled_count == 2

    def test_wire_clamps_to_prefix(self):
        frame = SweepFrame(SCALAR, 4)
        rows = _scalar_rows(4)
        frame.fill(0, *rows[0])
        frame.fill(2, *rows[2])  # hole at 1
        payload = frame.to_wire()
        assert payload["count"] == 1
        assert payload["complete"] is False

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError, match="not a sweep-frame"):
            frame_from_wire({"format": "nope"})
        good = SweepFrame(SCALAR, 1)
        good.fill(0, {"n": 1, "w": 1}, 0.0)
        payload = good.to_wire()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            frame_from_wire(payload)


    @pytest.mark.parametrize(
        ("offset", "count", "bound"),
        [
            (-3, 2, "offset must be non-negative, got -3"),
            (0, -1, "count must be non-negative, got -1"),
            (3, 2, "offset + count = 5 exceeds the capacity of 4 points"),
            (5, 0, "offset + count = 5 exceeds the capacity of 4 points"),
        ],
    )
    def test_window_outside_the_frame_rejected(self, offset, count, bound):
        frame = SweepFrame(SCALAR, 4)
        for i, (point, outcome) in enumerate(_scalar_rows(4)):
            frame.fill(i, point, outcome)
        payload = frame.to_wire(offset=1, limit=2)
        payload["offset"], payload["count"] = offset, count
        with pytest.raises(ValueError, match=re.escape(bound)):
            frame_from_wire(payload)


class TestConcurrency:
    def test_concurrent_fill_and_read(self):
        frame = SweepFrame(SCALAR, 400)
        rows = _scalar_rows(400)

        def writer():
            for i, (point, outcome) in enumerate(rows):
                frame.fill(i, point, outcome)

        errors: list[Exception] = []

        def reader():
            try:
                while not frame.complete:
                    served = list(frame.rows())
                    # Prefix never regresses mid-iteration and has no holes.
                    assert [i for i, _, _ in served] == list(range(len(served)))
                    frame.to_wire(limit=32)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert frame.complete and frame.filled_prefix == 400
