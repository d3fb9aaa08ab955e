"""Sensor ingestion and index tests.

range_query and latest_at_or_before are checked against brute-force scans
over randomly generated streams — the index must only ever be an
optimization, never a semantic change.
"""

from __future__ import annotations

import csv
import json
import tempfile
from bisect import bisect_left, bisect_right
from datetime import datetime, timedelta, timezone
from operator import attrgetter, itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotlog import sensors
from iotlog.plan import IoTContextCategory, SourceDecl
from iotlog.scenario import write_stream_csv
from iotlog.sensors import (
    SensorIngestError,
    SensorReading,
    SensorStream,
    UnknownSourceError,
    _parse_value,
    build_index,
    load_stream,
)
from iotlog.timeutil import format_timestamp, parse_timestamp, to_utc, to_utc_ms

from conftest import T0, at, reading, readings_at


def decl(source_id="s1", *, fmt="csv", value_type="decimal", path=None) -> SourceDecl:
    return SourceDecl(
        source_id=source_id,
        sensor_type="temperature",
        path=path or f"{source_id}.{fmt}",
        format=fmt,
        value_type=value_type,
        category=IoTContextCategory.ENVIRONMENT,
    )


# --- reading / stream construction -------------------------------------------


def test_integer_values_become_floats_but_booleans_stay():
    assert reading("a", T0, 5).value == 5.0
    assert isinstance(reading("a", T0, 5).value, float)
    assert reading("a", T0, True).value is True


def test_reading_timestamps_truncate_to_milliseconds():
    r = SensorReading("a", T0 + timedelta(microseconds=1999), 1.0)
    assert r.timestamp.microsecond == 1000
    assert r.timestamp.tzinfo == timezone.utc


def test_a_normal_reading_keeps_its_timestamp_and_location_objects():
    when, where = T0 + timedelta(milliseconds=5), (4.3, 51.9)
    r = SensorReading("a", when, 1.0, location=where)
    assert r.timestamp is when and r.location is where


@pytest.mark.parametrize("location", [[4, 51], [4.0, 51.0], (4, 51.0), (True, 51.0)])
def test_a_reading_normalises_what_is_not_normal_yet(location):
    zoned = datetime(2024, 3, 1, 14, tzinfo=timezone(timedelta(hours=2)))
    r = SensorReading("a", zoned, 1, location=location)
    assert r.timestamp == T0 and r.timestamp.tzinfo is timezone.utc
    assert r.value == 1.0 and type(r.value) is float
    assert r.location == (float(location[0]), 51.0) and type(r.location) is tuple
    assert [type(c) for c in r.location] == [float, float]


def test_location_is_range_checked():
    SensorReading("a", T0, 1.0, location=(-180.0, 90.0))
    with pytest.raises(ValueError, match="location out of range"):
        SensorReading("a", T0, 1.0, location=(181.0, 0.0))


def test_unsupported_value_types_are_rejected():
    with pytest.raises(TypeError):
        SensorReading("a", T0, [1, 2])  # type: ignore[arg-type]


def test_stream_sorts_by_timestamp_then_sensor_id():
    stream = SensorStream(
        "s1",
        "rfid",
        (reading("z", at(10), 1.0), reading("a", at(10), 2.0), reading("m", at(0), 3.0)),
    )
    assert [(r.sensor_id, r.timestamp) for r in stream.readings] == [
        ("m", at(0)),
        ("a", at(10)),
        ("z", at(10)),
    ]


# --- index queries vs brute force ---------------------------------------------

offsets = st.integers(min_value=0, max_value=500)
stream_of = st.lists(
    st.tuples(offsets, st.sampled_from("abc")), max_size=40
).map(
    lambda rows: SensorStream(
        "s1", "x", tuple(reading(sid, at(sec), float(sec)) for sec, sid in rows)
    )
)


# Bounds up to a millisecond either side of a whole second, so they fall
# between the readings' millisecond-aligned timestamps.
bounds = st.tuples(offsets, st.integers(min_value=-999, max_value=999)).map(
    lambda p: at(p[0]) + timedelta(microseconds=p[1])
)


@given(stream_of, bounds, bounds)
@example(
    SensorStream("s1", "x", (reading("a", at(5), 5.0),)),
    at(5) + timedelta(microseconds=500),
    at(6),
)
def test_range_query_equals_filter_by_scan(stream, a, b):
    t1, t2 = min(a, b), max(a, b)
    index = build_index([stream])
    got = readings_at(index, "s1", index.range_query("s1", t1, t2))
    expected = [r for r in stream.readings if t1 <= r.timestamp <= t2]
    assert got == expected


@given(stream_of, offsets)
def test_latest_at_or_before_equals_scan(stream, t):
    index = build_index([stream])
    got = index.latest_at_or_before("s1", at(t))
    candidates = [r for r in stream.readings if r.timestamp <= at(t)]
    assert (None if got is None else stream.readings[got]) == (
        candidates[-1] if candidates else None
    )


def test_range_query_is_closed_on_both_ends():
    stream = SensorStream("s1", "x", tuple(reading("a", at(s), float(s)) for s in (0, 5, 10)))
    index = build_index([stream])
    assert [r.value for r in readings_at(index, "s1", index.range_query("s1", at(0), at(10)))] == [
        0.0, 5.0, 10.0
    ]
    assert [r.value for r in readings_at(index, "s1", index.range_query("s1", at(1), at(9)))] == [
        5.0
    ]


def test_range_query_rejects_inverted_interval():
    index = build_index([SensorStream("s1", "x")])
    with pytest.raises(ValueError, match="t1 <= t2"):
        index.range_query("s1", at(10), at(0))


PLUS_TWO = timezone(timedelta(hours=2))


@pytest.mark.parametrize(
    "t1, t2",
    [
        (T0.replace(tzinfo=None), at(10)),  # naive, aware
        (at(5).astimezone(PLUS_TWO), at(10).replace(tzinfo=None)),  # +02:00, naive
    ],
)
def test_range_lookups_read_a_naive_bound_as_utc(t1, t2):
    subject_of = {0: "x", 5: "x", 10: "y", 15: "x"}
    stream = SensorStream(
        "s1", "x", tuple(reading("a", at(s), float(s), subject=k) for s, k in subject_of.items())
    )
    index = build_index([stream])
    start = 0.0 if t1.tzinfo is None else 5.0
    expected = [v for v in (0.0, 5.0, 10.0) if v >= start]
    assert [r.value for r in readings_at(index, "s1", index.range_query("s1", t1, t2))] == expected
    got = readings_at(index, "s1", index.subject_range("s1", "x", t1, t2))
    assert [r.value for r in got] == [v for v in expected if subject_of[int(v)] == "x"]


def test_range_lookups_refuse_bounds_out_of_order_once_normalised():
    index = build_index([SensorStream("s1", "x", (reading("a", at(5), 5.0, subject="x"),))])
    # 14:00:10+02:00 is 12:00:10 UTC, after the naive 12:00:05 read as UTC.
    t1, t2 = at(10).astimezone(PLUS_TWO), at(5).replace(tzinfo=None)
    with pytest.raises(ValueError, match="t1 <= t2"):
        index.range_query("s1", t1, t2)
    with pytest.raises(ValueError, match="t1 <= t2"):
        index.subject_range("s1", "x", t1, t2)


def test_unknown_source_raises():
    index = build_index([])
    with pytest.raises(UnknownSourceError):
        index.stream("nope")
    for lookup in (
        lambda: index.range_query("nope", at(0), at(1)),
        lambda: index.latest_at_or_before("nope", at(0)),
        lambda: index.nearest("nope", at(0), timedelta(seconds=1)),
        lambda: index.subject_range("nope", "x", at(0), at(1)),
    ):
        with pytest.raises(UnknownSourceError):
            lookup()


def test_duplicate_source_ids_are_rejected():
    with pytest.raises(ValueError, match="duplicate source_id"):
        build_index([SensorStream("s1", "x"), SensorStream("s1", "y")])


def test_subject_readings_filters_by_stream_and_key():
    s1 = SensorStream("s1", "rfid", (reading("a", at(0), 1.0, subject="LPN-1"),))
    s2 = SensorStream(
        "s2",
        "rfid",
        (reading("a", at(1), 2.0, subject="LPN-1"), reading("a", at(2), 3.0, subject="LPN-2")),
    )
    index = build_index([s1, s2])
    assert [r.value for r in index.subject_readings("s2", "LPN-1")] == [2.0]
    assert index.subject_readings("s2", "missing") == ()


def test_subject_readings_stay_within_the_asked_source():
    s1 = SensorStream("s1", "rfid", (reading("a", at(0), 1.0, subject="LPN-1"),))
    s2 = SensorStream("s2", "rfid", (reading("a", at(1), 2.0, subject="LPN-2"),))
    index = build_index([s1, s2])
    assert index.subject_readings("s2", "LPN-1") == ()
    with pytest.raises(UnknownSourceError):
        index.subject_readings("nope", "LPN-1")
    # The index hands out its own tuple, the same on every call, which no caller can change.
    kept = index.subject_readings("s1", "LPN-1")
    assert type(kept) is tuple and index.subject_readings("s1", "LPN-1") is kept
    assert [r.value for r in index.subject_readings("s1", "LPN-1")] == [1.0]


# --- position lookups vs the former reading lookups ---------------------------


class ReferenceIndex:
    """The former StreamIndex lookups, which returned readings, not positions.

    range_query and subject_readings returned fresh lists; subject_range is
    what the engine did with subject_readings' list before subject_range
    existed. Bounds are compared before they are normalised, as they were,
    so only bounds of one kind are passed here.
    """

    def __init__(self, streams):
        self._streams, self._timestamps, self._by_subject = {}, {}, {}
        for stream in streams:
            self._streams[stream.source_id] = stream
            self._timestamps[stream.source_id] = [r.timestamp for r in stream.readings]
            for r in stream.readings:
                if r.subject_key is not None:
                    key = (stream.source_id, r.subject_key)
                    self._by_subject.setdefault(key, []).append(r)

    def range_query(self, source_id, t1, t2):
        if t1 > t2:
            raise ValueError("range_query requires t1 <= t2")
        timestamps = self._timestamps[source_id]
        lo = bisect_left(timestamps, to_utc(t1))
        hi = bisect_right(timestamps, to_utc(t2))
        return list(self._streams[source_id].readings[lo:hi])

    def latest_at_or_before(self, source_id, t):
        idx = bisect_right(self._timestamps[source_id], to_utc_ms(t))
        return self._streams[source_id].readings[idx - 1] if idx else None

    def nearest(self, source_id, t, window):
        readings, timestamps = self._streams[source_id].readings, self._timestamps[source_id]
        t = to_utc(t)
        i = bisect_left(timestamps, t)
        near = [(timestamps[i] - t, i)] if i < len(timestamps) else []
        if i:
            near.append((t - timestamps[i - 1], bisect_left(timestamps, timestamps[i - 1], 0, i)))
        distance, best = min(near, default=(window, None))
        return None if best is None or distance > window else readings[best]

    def subject_readings(self, source_id, subject_key):
        return list(self._by_subject.get((source_id, subject_key), ()))

    def subject_range(self, source_id, subject_key, t1, t2):
        readings = self.subject_readings(source_id, subject_key)
        lo = bisect_left(readings, t1, key=attrgetter("timestamp"))
        hi = bisect_right(readings, t2, lo=lo, key=attrgetter("timestamp"))
        return readings[lo:hi]


# Readings on a grid of half seconds, so timestamps tie within and across
# sensor ids; each with one of two subject keys or none. A source may be empty.
source_rows = st.lists(
    st.tuples(st.integers(0, 16), st.sampled_from("abc"), st.sampled_from(["p1", "p2", None])),
    max_size=25,
)
# Bounds on the grid, a millisecond or less off it, in UTC or at +02:00.
lookup_times = st.builds(
    lambda half, micros, zone: (at(half / 2) + timedelta(microseconds=micros)).astimezone(zone),
    st.integers(0, 17),
    st.sampled_from([0, 0, -1000, -1, 1, 500, 1000]),
    st.sampled_from([timezone.utc, PLUS_TWO]),
)


@given(
    st.fixed_dictionaries({"s": source_rows, "u": source_rows}),
    st.sampled_from(["s", "u"]),
    st.sampled_from(["p1", "p2", "p3"]),  # p3 is on no reading
    lookup_times,
    lookup_times,
    st.sampled_from([0, 0.0015, 0.5, 1, 3]),
)
def test_position_lookups_match_the_former_reading_lookups(rows, source_id, subject, a, b, window):
    streams = [
        SensorStream(
            sid, "x", tuple(reading(sensor, at(half / 2), float(half), key) for half, sensor, key in body)
        )
        for sid, body in rows.items()
    ]
    index, reference = build_index(streams), ReferenceIndex(streams)
    stream = index.stream(source_id).readings

    def same(positions, readings):
        return len(positions) == len(readings) and all(
            stream[p] is r for p, r in zip(positions, readings)
        )

    t1, t2 = sorted((a, b))
    assert same(index.range_query(source_id, t1, t2), reference.range_query(source_id, t1, t2))
    got = index.subject_range(source_id, subject, t1, t2)
    assert same(got, reference.subject_range(source_id, subject, t1, t2))
    subject_readings = index.subject_readings(source_id, subject)
    assert subject_readings is index.subject_readings(source_id, subject)
    assert list(subject_readings) == reference.subject_readings(source_id, subject)
    assert all(r.subject_key == subject for r in subject_readings)
    for t in (a, b):
        expected = reference.latest_at_or_before(source_id, t)
        got = index.latest_at_or_before(source_id, t)
        assert (None if got is None else stream[got]) is expected
        expected = reference.nearest(source_id, t, timedelta(seconds=window))
        got = index.nearest(source_id, t, timedelta(seconds=window))
        assert (None if got is None else stream[got]) is expected


# --- file loading -------------------------------------------------------------


def test_load_csv_with_optional_columns(tmp_path):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value,sensor_id,unit,subject_key,lon,lat\n"
        "2024-03-01T12:00:00+00:00,21.5,probe-7,celsius,LPN-0001,4.3,51.9\n"
        "2024-03-01T12:01:00+00:00,22.0,,,,,\n"
    )
    stream = load_stream(decl(), tmp_path)
    first, second = stream.readings
    assert first.value == 21.5
    assert first.unit == "celsius"
    assert first.subject_key == "LPN-0001"
    assert first.location == (4.3, 51.9)
    assert second.sensor_id == "s1"  # blank sensor_id falls back to the source id
    assert second.unit is None and second.subject_key is None and second.location is None


def test_load_csv_header_and_empty_file(tmp_path):
    (tmp_path / "s1.csv").write_text("timestamp,value\n")
    assert load_stream(decl(), tmp_path).readings == ()
    (tmp_path / "s2.csv").write_text("time,value\n1,2\n")
    with pytest.raises(SensorIngestError, match="missing column 'timestamp'"):
        load_stream(decl("s2"), tmp_path)


def test_load_csv_reports_the_failing_row(tmp_path):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value\n"
        "2024-03-01T12:00:00+00:00,1.5\n"
        "2024-03-01T12:01:00+00:00,not-a-number\n"
    )
    with pytest.raises(SensorIngestError) as err:
        load_stream(decl(), tmp_path)
    assert err.value.row == 3


def test_load_csv_boolean_literals(tmp_path):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value\n"
        "2024-03-01T12:00:00+00:00,TRUE\n"
        "2024-03-01T12:01:00+00:00,0\n"
    )
    stream = load_stream(decl(value_type="boolean"), tmp_path)
    assert [r.value for r in stream.readings] == [True, False]
    (tmp_path / "s1.csv").write_text("timestamp,value\n2024-03-01T12:00:00+00:00,yes\n")
    with pytest.raises(SensorIngestError, match="bad boolean literal"):
        load_stream(decl(value_type="boolean"), tmp_path)


def test_load_csv_lon_without_lat_fails(tmp_path):
    (tmp_path / "s1.csv").write_text("timestamp,value,lon,lat\n2024-03-01T12:00:00+00:00,1,4.3,\n")
    with pytest.raises(SensorIngestError, match="lon and lat"):
        load_stream(decl(), tmp_path)


def test_load_jsonl_uses_native_types(tmp_path):
    (tmp_path / "s1.jsonl").write_text(
        '{"timestamp": "2024-03-01T12:00:00+00:00", "value": true}\n'
        "\n"
        '{"timestamp": "2024-03-01T12:01:00+00:00", "value": false, "subject_key": "LPN-1"}\n'
    )
    stream = load_stream(decl(fmt="jsonl", value_type="boolean"), tmp_path)
    assert [r.value for r in stream.readings] == [True, False]
    assert stream.readings[1].subject_key == "LPN-1"


# A CSV's timestamps in format_timestamp's layout are read by columns, others by rows.
@pytest.mark.parametrize("fmt, stamp", [
    pytest.param("csv", "2024-03-01T12:00:{:02}Z", id="csv"),
    pytest.param("csv", "2024-03-01T12:00:{:02}.000+00:00", id="csv-columns"),
    pytest.param("jsonl", "2024-03-01T12:00:{:02}Z", id="jsonl"),
])
def test_equal_strings_of_one_file_are_one_object(tmp_path, fmt, stamp):
    fields = ("timestamp", "value", "sensor_id", "unit", "subject_key")
    rows = [
        (stamp.format(i), ("open", "shut")[i % 2], f"gate-{i % 2}", "state", f"LPN-{i % 3}")
        for i in range(12)
    ]
    if fmt == "csv":
        text = ",".join(fields) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    else:
        text = "".join(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)
    (tmp_path / f"s1.{fmt}").write_text(text)
    readings = load_stream(decl(fmt=fmt, value_type="string"), tmp_path).readings
    for field in ("value", "sensor_id", "unit", "subject_key"):
        values = [getattr(r, field) for r in readings]
        assert len({id(v) for v in values}) == len(set(values)) < len(values), field


def test_load_jsonl_rejects_mistyped_values_with_row(tmp_path):
    (tmp_path / "s1.jsonl").write_text(
        '{"timestamp": "2024-03-01T12:00:00+00:00", "value": 1}\n'
    )
    with pytest.raises(SensorIngestError) as err:
        load_stream(decl(fmt="jsonl", value_type="boolean"), tmp_path)
    assert err.value.row == 1
    (tmp_path / "s1.jsonl").write_text("not json\n")
    with pytest.raises(SensorIngestError):
        load_stream(decl(fmt="jsonl"), tmp_path)


@pytest.mark.parametrize(
    "lon,lat,bad",
    [(True, False, "lon"), ("4.3", 51.9, "lon"), (4.3, "51.9", "lat"), (4.3, True, "lat")],
)
def test_load_jsonl_rejects_coordinates_that_are_not_json_numbers(tmp_path, lon, lat, bad):
    good = {"timestamp": "2024-01-01T00:00:00Z", "value": 1.0}
    rows = [good, {**good, "lon": lon, "lat": lat}]
    (tmp_path / "s1.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(SensorIngestError, match=f"{bad} must be a number") as err:
        load_stream(decl(fmt="jsonl"), tmp_path)
    assert (err.value.path, err.value.row) == (str(tmp_path / "s1.jsonl"), 2)


def test_load_jsonl_takes_integer_coordinates_as_floats(tmp_path):
    record = {"timestamp": "2024-01-01T00:00:00Z", "value": 1.0, "lon": 4, "lat": -51}
    (tmp_path / "s1.jsonl").write_text(json.dumps(record) + "\n")
    (only,) = load_stream(decl(fmt="jsonl"), tmp_path).readings
    assert only.location == (4.0, -51.0) and [type(c) for c in only.location] == [float, float]


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_load_csv_rejects_non_finite_decimals_with_row(tmp_path, raw):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value\n"
        "2024-03-01T12:00:00+00:00,40.0\n"
        f"2024-03-01T12:01:00+00:00,{raw}\n"
    )
    with pytest.raises(SensorIngestError, match="not finite") as err:
        load_stream(decl(), tmp_path)
    assert err.value.row == 3
    assert err.value.path == str(tmp_path / "s1.csv")


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_load_jsonl_rejects_non_finite_decimals_with_row(tmp_path, raw):
    (tmp_path / "s1.jsonl").write_text(
        '{"timestamp": "2024-03-01T12:00:00+00:00", "value": 40.0}\n'
        f'{{"timestamp": "2024-03-01T12:01:00+00:00", "value": {raw}}}\n'
    )
    with pytest.raises(SensorIngestError) as err:
        load_stream(decl(fmt="jsonl"), tmp_path)
    assert err.value.row == 2
    assert err.value.path == str(tmp_path / "s1.jsonl")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2024-01-01", datetime(2024, 1, 1, tzinfo=timezone.utc)),
        ("2024-01-01T10:15", datetime(2024, 1, 1, 10, 15, tzinfo=timezone.utc)),
        ("2024-01-01 10:15:30", datetime(2024, 1, 1, 10, 15, 30, tzinfo=timezone.utc)),
        ("2024-01-01T10:15:30.123", datetime(2024, 1, 1, 10, 15, 30, 123000, timezone.utc)),
        ("2024-01-01T10:15:30.123999", datetime(2024, 1, 1, 10, 15, 30, 123000, timezone.utc)),
        ("2024-01-01T10:15:30Z", datetime(2024, 1, 1, 10, 15, 30, tzinfo=timezone.utc)),
        (" 2024-01-01T10:15:30z\n", datetime(2024, 1, 1, 10, 15, 30, tzinfo=timezone.utc)),
        ("2024-01-01T10:15:30+02:00", datetime(2024, 1, 1, 8, 15, 30, tzinfo=timezone.utc)),
        ("2024-01-01T23:15-01:00", datetime(2024, 1, 2, 0, 15, tzinfo=timezone.utc)),
    ],
)
def test_parse_timestamp_accepts_the_pinned_grammar(text, expected):
    assert parse_timestamp(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "20240101T101500",  # basic format
        "2024-W01-1",  # week date
        "2024-001",  # ordinal date
        "2024-01-01T1015",  # basic time
        "2024-01-01T10",  # hour only
        "2024-01-01T10:15:00.5",  # one fractional digit
        "2024-01-01T10:15:00.1234",  # four fractional digits
        "2024-01-01T10:15:30+0200",  # basic offset
        "2024-01-01T10:15:30+02",  # hour-only offset
        "2024-01-01t10:15",  # lowercase separator
        "2024-01-01X10:15",  # any other separator
        "2024-01-01Z",  # offset without a time
        "\u0662\u0660\u0662\u0664-01-01T10:15",  # non-ASCII digits
        "2024-01-01T24:00",  # end-of-day hour
        "2024-01-01T10:15:60",  # leap second
        "2024-13-01T00:00",  # in the grammar, but no such month
        "2024-02-30T00:00",  # in the grammar, but no such day
        "0001-01-01T00:30:00+01:00",  # in the grammar, but before year 1 in UTC
        "9999-12-31T23:00:00-02:00",  # in the grammar, but after year 9999 in UTC
        "2024-01-01T24:00:00.000+00:00",  # end-of-day hour in the written layout
        "2024-02-30T00:00:00.000+00:00",  # no such day, in the written layout
        "0000-01-01T00:00:00.000+00:00",  # year 0, in the written layout
        "",
    ],
)
def test_parse_timestamp_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_timestamp(text)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_timestamp_outside_the_grammar_is_a_located_ingest_error(tmp_path, fmt):
    rows = [("2024-03-01T12:00:00+00:00", 1.0), ("20240301T120100", 2.0)]
    if fmt == "csv":
        body = "timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in rows)
    else:
        body = "".join(f'{{"timestamp": "{t}", "value": {v}}}\n' for t, v in rows)
    (tmp_path / f"s1.{fmt}").write_text(body)
    with pytest.raises(SensorIngestError, match="20240301T120100") as err:
        load_stream(decl(fmt=fmt), tmp_path)
    assert err.value.row == (3 if fmt == "csv" else 2)
    assert err.value.path == str(tmp_path / f"s1.{fmt}")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_timestamp_that_leaves_years_1_to_9999_in_utc_is_a_located_ingest_error(
    tmp_path, fmt
):
    rows = [("2024-03-01T12:00:00+00:00", 1.0), ("0001-01-01T00:30:00+01:00", 2.0)]
    if fmt == "csv":
        body = "timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in rows)
    else:
        body = "".join(f'{{"timestamp": "{t}", "value": {v}}}\n' for t, v in rows)
    (tmp_path / f"s1.{fmt}").write_text(body)
    with pytest.raises(SensorIngestError, match="outside years 1-9999") as err:
        load_stream(decl(fmt=fmt), tmp_path)
    assert err.value.row == (3 if fmt == "csv" else 2)
    assert err.value.path == str(tmp_path / f"s1.{fmt}")


# Characters XML 1.0 cannot carry: both ends of every excluded range.
NOT_XML = ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f"]
NOT_XML += ["\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", NOT_XML)
def test_a_string_value_xml_cannot_carry_is_a_located_ingest_error(tmp_path, char):
    good = {"timestamp": "2024-03-01T12:00:00+00:00", "value": "ok"}
    bad = {**good, "value": f"x{char}y"}
    (tmp_path / "s1.jsonl").write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
    with pytest.raises(SensorIngestError, match=f"U\\+{ord(char):04X}.*XML 1.0") as err:
        load_stream(decl(fmt="jsonl", value_type="string"), tmp_path)
    assert (err.value.path, err.value.row) == (str(tmp_path / "s1.jsonl"), 2)


def test_string_values_xml_can_carry_are_accepted(tmp_path):
    allowed = "\t\n\r &<>\"' \x7f\x85\ud7ff\ue000\ufffd\U00010000\U0010ffff"
    record = {"timestamp": "2024-03-01T12:00:00+00:00", "value": allowed}
    (tmp_path / "s1.jsonl").write_text(json.dumps(record) + "\n")
    stream = load_stream(decl(fmt="jsonl", value_type="string"), tmp_path)
    assert [r.value for r in stream.readings] == [allowed]


def test_load_stream_is_deterministic(tmp_path):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value\n"
        "2024-03-01T12:01:00+00:00,2.0\n"
        "2024-03-01T12:00:00+00:00,1.0\n"
    )
    assert load_stream(decl(), tmp_path) == load_stream(decl(), tmp_path)
    # loading also sorts: file order is not reading order
    assert [r.value for r in load_stream(decl(), tmp_path).readings] == [1.0, 2.0]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3("])  # a bad start byte, a cut sequence
def test_a_byte_that_is_not_utf8_is_a_located_ingest_error(tmp_path, fmt, bad):
    good = "2024-03-01T12:00:00+00:00"
    if fmt == "csv":
        lines = ["timestamp,value", *(f"{good},{n}" for n in range(2000)), f"{good},1"]
    else:
        lines = [f'{{"timestamp": "{good}", "value": {n}}}' for n in range(2001)]
    # The bad byte sits on the last line, far past the first chunk a text
    # stream decodes.
    body = "\n".join(lines).encode()
    at_byte = body.rindex(b"1")
    (tmp_path / f"s1.{fmt}").write_bytes(body[:at_byte] + bad + body[at_byte + 1 :])
    with pytest.raises(SensorIngestError, match="is not UTF-8") as err:
        load_stream(decl(fmt=fmt), tmp_path)
    assert (err.value.path, err.value.row) == (str(tmp_path / f"s1.{fmt}"), len(lines))
    assert f"byte 0x{bad[0]:02x}" in str(err.value)


def _oversized_field_csv(path: Path, before: list[str]) -> None:
    """Five good rows, the lines `before`, then a row whose value is over csv's field size limit."""
    field = "x" * (csv.field_size_limit() + 1)
    good = [f"2024-03-01T12:00:{s:02}Z,v" for s in range(5)]  # a chunk of 4, and one row more
    lines = ["timestamp,value", *good, *before, f'2024-03-01T12:00:00Z,"{field}"']
    path.write_text("\n".join(lines) + "\n")


def test_a_csv_field_over_the_size_limit_is_an_ingest_error_naming_the_file(tmp_path):
    _oversized_field_csv(tmp_path / "s1.csv", [])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)
        with pytest.raises(SensorIngestError, match="field larger than field limit") as err:
            load_stream(decl(value_type="string"), tmp_path)
    assert (err.value.path, err.value.row) == (str(tmp_path / "s1.csv"), None)


def test_a_bad_cell_before_an_oversized_field_in_its_chunk_is_named_first(tmp_path):
    _oversized_field_csv(tmp_path / "s1.csv", ["2024-03-01T12:00:00Z,"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)
        with pytest.raises(SensorIngestError, match=r": missing value \(row 7\)$") as err:
            load_stream(decl(value_type="string"), tmp_path)
    assert (err.value.path, err.value.row) == (str(tmp_path / "s1.csv"), 7)


def test_missing_file_is_an_ingest_error(tmp_path):
    with pytest.raises(SensorIngestError, match="file not found"):
        load_stream(decl(), tmp_path)


def _value_type_of(stream: SensorStream) -> str:
    probe = stream.readings[0].value if stream.readings else 0.0
    if isinstance(probe, bool):
        return "boolean"
    if isinstance(probe, str):
        return "string"
    return "decimal"


def test_generated_streams_roundtrip_through_csv(scenario_bundle):
    _, streams, _, out_dir = scenario_bundle
    for stream in streams:
        loaded = load_stream(
            decl(stream.source_id, value_type=_value_type_of(stream)), out_dir
        )
        assert loaded.readings == stream.readings


# --- the file readers against the public constructor -----------------------------

UTC = timezone.utc
_optional_text = st.none() | st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=6
).filter(str.strip)
_values = {  # (the value SensorReading is given, its CSV text, its JSON value)
    "decimal": (st.integers(-(10**6), 10**6) | st.floats(allow_nan=False, allow_infinity=False))
    .map(lambda x: (x, repr(x), x)),
    "boolean": st.sampled_from(
        [(True, "true", True), (False, " FALSE ", False), (True, "1", True), (False, "0", False)]
    ),
    "string": st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=6)
    .filter(str.strip)
    .map(lambda x: (x, x, x)),
}
_coordinates = st.none() | st.tuples(
    st.integers(-180, 180) | st.floats(-180, 180), st.integers(-90, 90) | st.floats(-90, 90)
)
_stamps = st.datetimes(
    min_value=datetime(2000, 1, 1),
    max_value=datetime(2030, 1, 1),
    timezones=st.sampled_from([None, UTC, timezone(timedelta(hours=-5))]),
)


@given(
    st.sampled_from(sorted(_values)).flatmap(
        lambda value_type: st.tuples(
            st.just(value_type),
            st.lists(
                st.tuples(
                    _stamps, _values[value_type], _optional_text, _optional_text,
                    _optional_text, _coordinates,
                ),
                max_size=5,
            ),
        )
    )
)
def test_csv_and_jsonl_readings_are_what_the_constructor_builds_from_their_fields(drawn):
    # The readers build readings without the constructor's checks and
    # conversions; the readings must equal the constructor's, field types too.
    value_type, rows = drawn
    header = ["timestamp", "value", "sensor_id", "unit", "subject_key", "lon", "lat"]
    csv_rows, json_rows, expected = [], [], []
    for stamp, (value, text, native), sensor_id, unit, subject, location in rows:
        lon, lat = location or ("", "")
        csv_rows.append([stamp.isoformat(), text, sensor_id or "", unit or "", subject or "",
                         repr(lon) if location else "", repr(lat) if location else ""])
        record = {"timestamp": stamp.isoformat(), "value": native, "sensor_id": sensor_id,
                  "unit": unit, "subject_key": subject}
        if location:
            record.update(lon=lon, lat=lat)
        json_rows.append(json.dumps(record))
        expected.append(SensorReading(sensor_id or "s1", stamp, value, unit, subject, location))
    expected_stream = SensorStream("s1", "temperature", tuple(expected))
    with tempfile.TemporaryDirectory() as tmp:
        with open(Path(tmp) / "s1.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *csv_rows])
        (Path(tmp) / "s1.jsonl").write_text("".join(f"{row}\n" for row in json_rows))
        for fmt in ("csv", "jsonl"):
            got = load_stream(decl(fmt=fmt, value_type=value_type), tmp).readings
            assert got == expected_stream.readings, fmt
            assert [field_types(r) for r in got] == [
                field_types(r) for r in expected_stream.readings
            ], fmt


def field_types(reading: SensorReading) -> tuple:
    location = reading.location
    return (
        type(reading.sensor_id), type(reading.timestamp), reading.timestamp.tzinfo,
        type(reading.value), type(reading.unit), type(reading.subject_key), type(location),
        location and tuple(map(type, location)),
    )


def test_a_location_out_of_range_is_a_located_ingest_error(tmp_path):
    (tmp_path / "s1.csv").write_text(
        "timestamp,value,lon,lat\n2024-03-01T12:00Z,1,4.3,51.9\n2024-03-01T12:01Z,1,181,0\n"
    )
    with pytest.raises(SensorIngestError, match=r"location out of range: \(181.0, 0.0\) \(row 3\)"):
        load_stream(decl(), tmp_path)


# --- the CSV loader against the former DictReader loader -----------------------


def reference_reading_from_fields(fields: dict, source: SourceDecl) -> SensorReading:
    """The former per-row CSV parse, kept as the reference for load_stream."""
    timestamp_raw = fields.get("timestamp")
    value_raw = fields.get("value")
    if timestamp_raw is None or timestamp_raw == "":
        raise ValueError("missing timestamp")
    if value_raw is None or value_raw == "":
        raise ValueError("missing value")
    timestamp = parse_timestamp(str(timestamp_raw))
    value = _parse_value(value_raw, source.value_type, from_json=False)

    def opt(name: str) -> str | None:
        raw = fields.get(name)
        if raw is None or raw == "":
            return None
        return str(raw)

    lon, lat = fields.get("lon"), fields.get("lat")
    location = None
    if lon not in (None, "") or lat not in (None, ""):
        if lon in (None, "") or lat in (None, ""):
            raise ValueError("lon and lat must be given together")
        location = (float(lon), float(lat))
    return SensorReading(
        sensor_id=opt("sensor_id") or source.source_id,
        timestamp=timestamp,
        value=value,
        unit=opt("unit"),
        subject_key=opt("subject_key"),
        location=location,
    )


def reference_load_csv(path: Path, source: SourceDecl) -> SensorStream:
    """The former csv.DictReader loader, kept as the reference for load_stream."""
    readings = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for required in ("timestamp", "value"):
            if required not in header:
                raise SensorIngestError(f"header is missing column {required!r}", path=str(path))
        for record in reader:
            try:
                readings.append(reference_reading_from_fields(record, source))
            except ValueError as exc:
                raise SensorIngestError(str(exc), path=str(path), row=reader.line_num) from exc
    return SensorStream(source.source_id, source.sensor_type, tuple(readings))


def reference_csv_rows(reader, width: int, pick, source: SourceDecl, path: Path) -> list:
    """The former `sensors._csv_rows`: the rows left in `reader`, one at a time."""
    readings = []
    share = {}.setdefault
    for row in reader:
        if len(row) != width:
            if not row:
                continue  # a blank line
            # Extra fields are ignored; fields past the row's end are absent.
            row = row[:width] + [None] * (width - len(row))
        row.append(None)
        try:
            readings.append(
                sensors._reading_from_fields(pick(row), source, share, from_json=False)
            )
        except ValueError as exc:
            raise SensorIngestError(str(exc), path=str(path), row=reader.line_num) from exc
    return readings


def reference_row_load_csv(path: Path, source: SourceDecl) -> SensorStream:
    """The former row loader, which read a whole failing file with _csv_rows to name its bad row."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        for required in ("timestamp", "value"):
            if required not in column:
                raise SensorIngestError(f"header is missing column {required!r}", path=str(path))
        width = len(header)
        # An absent optional column reads index `width`: the None appended to every row.
        pick = itemgetter(*(column.get(name, width) for name in sensors._FIELDS))
        readings = reference_csv_rows(reader, width, pick, source, path)
    return SensorStream(source.source_id, source.sensor_type, tuple(readings))


# Any cell may hold any of CELLS; a column mostly draws from its own good cells.
# Near format_timestamp's layout: the column reader must leave each to the rows.
NEAR_LAYOUT = [
    "2024-13-01T12:00:00.000+00:00", "2024-03-01T24:00:00.000+00:00",
    "0000-03-01T12:00:00.000+00:00", "2024-03-\u0660\u0661T12:00:00.000+00:00",
    "2024-03-01T12:00:00.000000+00:00", "2024-03-01T12:00:00.000+01:00",
    " 2024-03-01T12:00:00.000+00:00",
]
CELLS = [
    "", "  ", "2024-03-01T12:00:00+00:00", "20240301T1200", "1.5", "nan", "true", "yes",
    "4.3", "200", "LPN-1", "x\ny", "a\r\nb", "p,q", 'say "hi"', "\x01", *NEAR_LAYOUT,
]
GOOD = {
    "timestamp": [
        "2024-03-01T12:00:00Z", "2024-03-01 12:00", "2024-03-01T10:00:00.123456-02:00",
        # The layout format_timestamp writes, which the column reader converts.
        "2024-03-01T12:00:00.000+00:00", "2024-02-29T23:59:59.999+00:00",
        "0001-01-01T00:00:00.000+00:00",
    ],
    "lon": ["4.3", "-71"],
    "lat": ["51.9", "0"],
}
GOOD_VALUES = {"decimal": ["1.5", "-3"], "boolean": ["true", "0"], "string": ["LPN-1", "x\ny"]}
TEXT = ["", "probe-7", "x\ny", "p,q", 'say "hi"']  # embedded line breaks move line_num

# Both required columns in any position, among optional ones; any column, the
# required ones included, may repeat, and lon may come without lat.
GROUPS = [["sensor_id"], ["unit"], ["subject_key"], ["note"], ["lon", "lat"]] * 3
GROUPS += [["timestamp"], ["value"], ["lon"]]
headers = st.lists(st.sampled_from(GROUPS), max_size=4).flatmap(
    lambda extra: st.permutations(["timestamp", "value", *(c for group in extra for c in group)])
)


def _cell(name: str, value_type: str):
    good = GOOD_VALUES[value_type] if name == "value" else GOOD.get(name, TEXT)
    return st.tuples(st.sampled_from(good * 20 + CELLS), st.booleans())  # (text, quoted)


def _rows(header: list[str], value_type: str):
    matching = st.tuples(*(_cell(name, value_type) for name in header)).map(list)
    # Half the rows fit the header; the rest are cut short (down to an empty,
    # blank-line row) or run past it.
    short = st.tuples(matching, st.integers(0, len(header) - 1)).map(lambda t: t[0][: t[1]])
    long = st.tuples(matching, st.lists(_cell("note", value_type), min_size=1, max_size=2)).map(
        lambda t: t[0] + t[1]
    )
    return st.lists(st.one_of(matching, matching, short, long), max_size=6)


def _csv_line(fields: list[tuple[str, bool]]) -> str:
    """Fields joined by commas, each quoted when asked or when it must be."""
    return ",".join(
        f'"{text.replace(chr(34), chr(34) * 2)}"' if quoted or any(c in text for c in ',"\r\n')
        else text
        for text, quoted in fields
    )


def structured_csv(value_type: str):
    return st.builds(
        lambda header_rows, quote_header, newline, last: newline.join(
            [_csv_line([(name, quote_header) for name in header_rows[0]])]
            + [_csv_line(row) for row in header_rows[1]]
        ) + (newline if last else ""),
        headers.flatmap(lambda header: st.tuples(st.just(header), _rows(header, value_type))),
        st.booleans(),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )


def columnar_csv(value_type: str):
    """Files the column reader converts, or the same with one cell of CELLS in it."""

    def text(header_rows_and_edit):
        header, rows, edit = header_rows_and_edit
        if rows and edit:
            row_at, column_at, cell = edit
            rows[row_at % len(rows)][column_at % len(header)] = cell
        lines = [_csv_line([(name, False) for name in header])]
        lines += [_csv_line([(cell, False) for cell in row]) for row in rows]
        return "\n".join(lines) + "\n"

    def rows(header):
        pools = [
            GOOD["timestamp"][3:] if name == "timestamp"
            else GOOD_VALUES[value_type] if name == "value"
            else GOOD.get(name, TEXT[1:])
            for name in header
        ]
        row = st.tuples(*map(st.sampled_from, pools)).map(list)
        edit = st.none() | st.tuples(st.integers(0, 7), st.integers(0, 9), st.sampled_from(CELLS))
        return st.tuples(st.just(header), st.lists(row, max_size=8), edit)

    return headers.flatmap(rows).map(text)


# Free text after a good header: stray quotes, lone CRs, unterminated fields.
raw_csv = st.text(alphabet='0123456789-:T .,"\n\rZaelu', max_size=80).map(
    lambda body: "timestamp,value,lon,lat,sensor_id\n" + body
)


def _outcome(load):
    try:
        readings = load().readings
    except (SensorIngestError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return [repr(r) for r in readings], readings


value_types_and_csv = st.sampled_from(["decimal", "string", "boolean"]).flatmap(
    lambda value_type: st.tuples(
        st.just(value_type),
        st.one_of(structured_csv(value_type), raw_csv, columnar_csv(value_type)),
    )
)


@given(value_types_and_csv)
@example(("decimal", "value,note\n1,2\n"))  # no timestamp column
@example(("decimal", "\ntimestamp,value\n"))  # a blank first line is the header
# A short row leaves the later of two `value` columns absent.
@example(("decimal", "timestamp,value,value\n2024-03-01T12:00Z,1\n"))
# Extra fields, and a header without the optional columns.
@example(("string", "timestamp,value\n2024-03-01,a,b,c\n"))
# The failing row comes after a blank line and a quoted line break.
@example(("decimal", 'timestamp,value\n\n"2024-03-01",1\n"2024-\n03-01",x\n'))
def test_load_csv_matches_the_dictreader_reference(value_type_and_text):
    value_type, text = value_type_and_text
    source = decl(value_type=value_type)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # Chunks of 2-3 rows, so a blank line, a short row or the failing row
        # can fall in a later chunk than the first.
        chunk = 2 + len(text) % 2
        patch.setattr(sensors, "_CHUNK", chunk)
        rows_read = _count_row_reads(patch)
        path = Path(tmp) / source.path
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda: load_stream(source, tmp))
        patch.undo()
        expected = _outcome(lambda: reference_load_csv(path, source))
        by_rows = _outcome(lambda: reference_row_load_csv(path, source))
    assert got == expected == by_rows
    # Rows are read again only in a file that fails, and at most one chunk of them.
    assert len(rows_read) <= chunk and (_failed(expected) or not rows_read)


def _count_row_reads(patch: pytest.MonkeyPatch) -> list:
    """Patch sensors._reading_from_fields to note each row it converts in the list returned.

    Only the re-read of a chunk that fails converts CSV rows through it.
    """
    calls, convert = [], sensors._reading_from_fields

    def counted(fields, *args, **kwargs):
        calls.append(fields)
        return convert(fields, *args, **kwargs)

    patch.setattr(sensors, "_reading_from_fields", counted)
    return calls


def _failed(outcome) -> bool:
    return isinstance(outcome[0], type)


_CANONICAL_HEADER = ["timestamp", "sensor_id", "value", "unit", "subject_key", "lon", "lat"]


def _canonical_rows(rows: int, value_type: str = "decimal") -> list[list[str]]:
    """Rows in the layout scenario.write_stream_csv writes, every column present."""
    values = {
        "decimal": lambda i: repr(i / 8),
        "string": lambda i: ("open", "shut")[i % 2],
        "boolean": lambda i: ("true", "0", "FALSE")[i % 3],
    }[value_type]
    return [
        [format_timestamp(T0 + timedelta(seconds=7 * i, milliseconds=i % 1000)), f"probe-{i % 3}",
         values(i), "kg", f"LPN-{i % 5}", f"4.{i}", f"-51.{i}"]
        for i in range(rows)
    ]


def _csv_text(rows: list[list[str]], header: list[str] = _CANONICAL_HEADER) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


@pytest.mark.parametrize("extra", [0, 1])
def test_a_file_of_one_chunk_or_one_more_row_is_read_by_columns_alone(tmp_path, extra):
    rows = sensors._CHUNK + extra
    path = tmp_path / "s1.csv"
    path.write_text(_csv_text(_canonical_rows(rows)))
    expected = _outcome(lambda: reference_load_csv(path, decl()))
    with pytest.MonkeyPatch.context() as patch:
        rows_read = _count_row_reads(patch)
        got = _outcome(lambda: load_stream(decl(), tmp_path))
    assert got == expected and len(got[1]) == rows and not rows_read


# One cell of each kind outside format_timestamp's layout or the common case:
# a file that loads is read by columns alone; in one that fails, only the
# chunk that holds the bad row is read again by rows.
# None drops the column from the header and every row; a "row" cell replaces
# a whole line.
DOUBTS = [
    *(("decimal", "timestamp", cell) for cell in NEAR_LAYOUT + [
        "2024-03-01T12:00:00.123456+00:00", "2024-03-01T12:00:00.000Z",
        "2024-03-01T12:00:00.000-00:00", "2024-03-01T12:00:00.000+00:00 ", "",
    ]),
    ("decimal", "value", ""), ("decimal", "value", "nan"), ("decimal", "value", "-inf"),
    ("decimal", "value", "x"), ("decimal", "value", " 2.5 "),
    ("string", "value", ""), ("string", "value", "tab\there"), ("string", "value", "\x01"),
    ("boolean", "value", ""), ("boolean", "value", "yes"), ("boolean", "value", " True "),
    ("decimal", "sensor_id", ""), ("decimal", "unit", ""), ("decimal", "subject_key", ""),
    ("decimal", "lon", ""), ("decimal", "lon", "181"), ("decimal", "lon", "nan"),
    ("decimal", "lat", "-90.5"), ("decimal", "lat", "inf"), ("decimal", "lat", "1e999"),
    ("decimal", "lat", None), ("decimal", "lon", None), ("decimal", "unit", None),
    ("decimal", "row", ""), ("decimal", "row", "2024-03-01T12:00:00.000+00:00,probe-1,1.5"),
    ("decimal", "row", "2024-03-01T12:00:00.000+00:00,p,1.5,kg,LPN-1,4.3,51.9,extra"),
]


@pytest.mark.parametrize("value_type, column, cell", DOUBTS)
def test_a_cell_in_doubt_in_a_later_chunk_reads_like_the_reference(
    tmp_path, value_type, column, cell
):
    header, rows = list(_CANONICAL_HEADER), _canonical_rows(9, value_type)
    lines = None
    if cell is None:
        at = header.index(column)
        header.pop(at)
        for row in rows:
            row.pop(at)
    elif column == "row":
        lines = [",".join(row) for row in rows]
        lines[6] = cell
    else:
        rows[6][header.index(column)] = cell
    text = _csv_text(rows, header) if lines is None else "\n".join([",".join(header), *lines]) + "\n"
    path = tmp_path / "s1.csv"
    path.write_text(text, encoding="utf-8")
    source = decl(value_type=value_type)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)  # the changed row is in the second chunk
        rows_read = _count_row_reads(patch)
        got = _outcome(lambda: load_stream(source, tmp_path))
    expected = _outcome(lambda: reference_load_csv(path, source))
    assert got == expected == _outcome(lambda: reference_row_load_csv(path, source))
    assert bool(rows_read) is _failed(expected) and len(rows_read) <= 4  # one chunk at most


@pytest.mark.parametrize("lon, fails", [("", False), ("4.3", True)])
def test_a_lon_column_without_lat_loads_only_while_it_is_empty(tmp_path, lon, fails):
    header = _CANONICAL_HEADER[:-1]
    rows = [row[:-1] for row in _canonical_rows(9)]
    for row in rows:
        row[-1] = ""
    rows[6][-1] = lon
    path = tmp_path / "s1.csv"
    path.write_text(_csv_text(rows, header))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)
        rows_read = _count_row_reads(patch)
        got = _outcome(lambda: load_stream(decl(), tmp_path))
    expected = _outcome(lambda: reference_load_csv(path, decl()))
    assert got == expected and _failed(got) is fails
    assert len(rows_read) == (3 if fails else 0)  # rows 4-6 of the second chunk


def test_a_stream_written_with_gaps_is_read_back_by_columns_alone(tmp_path):
    # write_stream_csv writes "" for a reading's absent unit, subject key or location.
    readings = [
        SensorReading("probe", T0 + timedelta(seconds=i), i / 4,
                      unit="kg" if i % 3 else None, subject_key=f"LPN-{i}" if i % 2 else None,
                      location=(4.25, -51.5) if i % 5 else None)
        for i in range(11)
    ]
    write_stream_csv(SensorStream("s1", "temperature", tuple(readings)), tmp_path / "s1.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)
        rows_read = _count_row_reads(patch)
        assert load_stream(decl(), tmp_path).readings == tuple(readings)
    assert not rows_read


def test_a_refused_chunk_whose_rows_all_convert_keeps_them_and_reading_goes_on(tmp_path):
    path = tmp_path / "s1.csv"
    path.write_text(_csv_text(_canonical_rows(11)) + "\n")  # chunks of 4, 4 and 3 rows
    refused = iter([False, True])  # the second chunk's timestamps are refused

    def timestamps(stamps):
        if next(refused, False):
            raise ValueError("refused")
        return convert(stamps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_CHUNK", 4)
        convert = sensors._chunk_timestamps
        patch.setattr(sensors, "_chunk_timestamps", timestamps)
        rows_read = _count_row_reads(patch)
        got = _outcome(lambda: load_stream(decl(), tmp_path))
    assert got == _outcome(lambda: reference_load_csv(path, decl()))
    assert [fields[2] for fields in rows_read] == ["probe-1", "probe-2", "probe-0", "probe-1"]


@pytest.mark.parametrize("extra", [0, 1])
def test_a_bad_last_row_of_a_chunk_or_past_it_is_named_by_the_row_reader(tmp_path, extra):
    rows = sensors._CHUNK + extra
    lines = _canonical_rows(rows)
    lines[-1][2] = "x"
    (tmp_path / "s1.csv").write_text(_csv_text(lines))
    with pytest.MonkeyPatch.context() as patch, pytest.raises(
        SensorIngestError, match=r"could not convert"
    ) as err:
        rows_read = _count_row_reads(patch)
        load_stream(decl(), tmp_path)
    assert err.value.row == rows + 1  # the header is row 1
    assert len(rows_read) == (sensors._CHUNK if extra == 0 else 1)  # only the bad row's chunk
