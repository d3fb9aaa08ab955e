"""Sensor stream ingestion and time-indexed lookup.

Streams are loaded from CSV or JSON-lines files, one file per sensor source,
and indexed for closed-interval range queries and subject-key lookups. A
malformed row fails the whole load with its row number; silently skipping
rows would make downstream enrichment unauditable.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .timeutil import WRITTEN_LAYOUT, ZERO_DIGITS, parse_timestamp, to_utc, to_utc_ms
from .xes import _unwritable, _writable

if TYPE_CHECKING:
    from .plan import SourceDecl

ReadingValue = float | str | bool


class SensorIngestError(ValueError):
    """A source file is missing or contains a row that cannot be parsed."""

    def __init__(self, message: str, *, path: str | None = None, row: int | None = None):
        prefix = f"{path}: " if path else ""
        suffix = f" (row {row})" if row is not None else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.path = path
        self.row = row


class UnknownSourceError(LookupError):
    """A source_id was requested that the index does not contain."""

    def __init__(self, source_id: str):
        super().__init__(f"unknown sensor source {source_id!r}")
        self.source_id = source_id


def _in_range(lon: float, lat: float) -> bool:
    """Whether (lon, lat) lies on the globe, in decimal degrees; NaN does not."""
    return -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One timestamped measurement from one sensor.

    subject_key is an optional identity-linkage token (e.g. the license
    plate read off an RFID tag) used to correlate readings with cases.
    location, when present, is (longitude, latitude) in decimal degrees.
    """

    sensor_id: str
    timestamp: datetime
    value: ReadingValue
    unit: str | None = None
    subject_key: str | None = None
    location: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise ValueError("sensor_id must be non-empty")
        timestamp = to_utc_ms(self.timestamp)
        if timestamp is not self.timestamp:
            object.__setattr__(self, "timestamp", timestamp)
        if isinstance(self.value, (str, float, bool)):
            pass
        elif isinstance(self.value, int):
            object.__setattr__(self, "value", float(self.value))
        else:
            raise TypeError(f"unsupported reading value type {type(self.value).__name__}")
        if self.location is not None:
            lon, lat = self.location
            if not _in_range(lon, lat):
                raise ValueError(f"location out of range: {self.location}")
            if type(self.location) is not tuple or type(lon) is not float or type(lat) is not float:
                object.__setattr__(self, "location", (float(lon), float(lat)))


# The file readers build readings through this, or through the setters
# themselves, which skips the constructor's checks and conversions: the
# reader has made them. An empty sensor id becomes the source's, a value is
# a float, a boolean or a string XML can carry, a location is a pair of
# floats in range, and a timestamp is normal.
_new = object.__new__
_set_sensor_id, _set_timestamp = SensorReading.sensor_id.__set__, SensorReading.timestamp.__set__
_set_value, _set_unit = SensorReading.value.__set__, SensorReading.unit.__set__
_set_subject_key = SensorReading.subject_key.__set__
_set_location = SensorReading.location.__set__


def _read_reading(sensor_id, timestamp, value, unit, subject_key, location) -> SensorReading:
    reading = _new(SensorReading)
    _set_sensor_id(reading, sensor_id)
    _set_timestamp(reading, timestamp)
    _set_value(reading, value)
    _set_unit(reading, unit)
    _set_subject_key(reading, subject_key)
    _set_location(reading, location)
    return reading


@dataclass(frozen=True)
class SensorStream:
    """All readings from one source, sorted by (timestamp, sensor_id)."""

    source_id: str
    sensor_type: str
    readings: tuple[SensorReading, ...] = ()

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        ordered = tuple(sorted(self.readings, key=attrgetter("timestamp", "sensor_id")))
        object.__setattr__(self, "readings", ordered)


class StreamIndex:
    """Immutable lookup structure over a set of streams.

    Keeps each stream's sorted timestamps, and per (source_id, subject_key),
    built on the source's first subject lookup, the tuple of readings with
    that key beside an array('q') of their stream positions. Lookups bisect
    these and return positions into `stream(source_id).readings`, not copies;
    a naive time is read as UTC. Safe for concurrent readers.
    """

    def __init__(self, streams: Iterable[SensorStream]):
        self._streams: dict[str, SensorStream] = {}
        self._timestamps: dict[str, list[datetime]] = {}
        self._subjects: dict[str, dict[str, tuple[tuple[SensorReading, ...], array]]] = {}
        for stream in streams:
            if stream.source_id in self._streams:
                raise ValueError(f"duplicate source_id {stream.source_id!r}")
            self._streams[stream.source_id] = stream
            self._timestamps[stream.source_id] = [r.timestamp for r in stream.readings]

    @property
    def streams(self) -> Mapping[str, SensorStream]:
        return self._streams

    def stream(self, source_id: str) -> SensorStream:
        try:
            return self._streams[source_id]
        except KeyError:
            raise UnknownSourceError(source_id) from None

    def _by_subject(self, source_id: str, subject_key: str) -> tuple[tuple, array]:
        """A subject's readings and positions; of two racing builds, the first is kept."""
        subjects = self._subjects.get(source_id)
        if subjects is None:
            readings, at = self.stream(source_id).readings, defaultdict(lambda: array("q"))
            for position, reading in enumerate(readings):
                if reading.subject_key is not None:
                    at[reading.subject_key].append(position)
            built = {k: (tuple(map(readings.__getitem__, p)), p) for k, p in at.items()}
            subjects = self._subjects.setdefault(source_id, built)
        return subjects.get(subject_key, _NO_SUBJECT)

    def _times(self, source_id: str) -> list[datetime]:
        if source_id not in self._timestamps:
            raise UnknownSourceError(source_id)
        return self._timestamps[source_id]

    def range_query(self, source_id: str, t1: datetime, t2: datetime) -> range:
        """A range of the positions of the readings with t1 <= timestamp <= t2 (closed ends)."""
        t1, t2 = _closed(t1, t2)
        timestamps = self._times(source_id)
        lo = bisect_left(timestamps, t1)
        return range(lo, bisect_right(timestamps, t2, lo))

    def latest_at_or_before(self, source_id: str, t: datetime) -> int | None:
        """The position (an int) of the latest reading with timestamp <= t, or None."""
        idx = bisect_right(self._times(source_id), to_utc_ms(t))
        return idx - 1 if idx else None

    def nearest(self, source_id: str, t: datetime, window: timedelta) -> int | None:
        """The position (an int) of the reading nearest to t, at most `window` from it,
        or None; of two as near the earlier, of readings at one instant the first."""
        timestamps, t = self._times(source_id), to_utc(t)
        i = bisect_left(timestamps, t)  # the first reading at or after t
        near = [(timestamps[i] - t, i)] if i < len(timestamps) else []
        if i:  # and the first reading at the last instant before t
            near.append((t - timestamps[i - 1], bisect_left(timestamps, timestamps[i - 1], 0, i)))
        distance, best = min(near, default=(window, None))
        return None if best is None or distance > window else best

    def subject_readings(self, source_id: str, subject_key: str) -> tuple[SensorReading, ...]:
        """The stream's readings with the subject key, in order: the index's own tuple."""
        return self._by_subject(source_id, subject_key)[0]

    def subject_range(self, source_id: str, subject_key: str, t1: datetime, t2: datetime) -> array:
        """The positions (an array('q')) of the subject's readings with t1 <= timestamp <= t2."""
        t1, t2 = _closed(t1, t2)
        readings = self.subject_readings(source_id, subject_key)
        lo = bisect_left(readings, t1, key=_timestamp)
        hi = bisect_right(readings, t2, lo, key=_timestamp)
        return self._by_subject(source_id, subject_key)[1][lo:hi]


_timestamp = attrgetter("timestamp")
_NO_SUBJECT = ((), array("q"))


def _closed(t1: datetime, t2: datetime) -> tuple[datetime, datetime]:
    """The bounds of a closed interval, normalised; ValueError if t1 > t2."""
    t1, t2 = to_utc(t1), to_utc(t2)
    if t1 > t2:
        raise ValueError("a closed interval requires t1 <= t2")
    return t1, t2


def build_index(streams: Iterable[SensorStream]) -> StreamIndex:
    """Index streams for range and subject queries; source_ids must be unique."""
    return StreamIndex(streams)


# --- file loading -----------------------------------------------------------

def _is_json_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


# The CSV boolean literals, after strip() and lower().
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _parse_value(raw, value_type: str, *, from_json: bool) -> ReadingValue:
    if value_type == "decimal":
        if from_json and not _is_json_number(raw):
            raise ValueError(f"expected a number, got {raw!r}")
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"decimal value {raw!r} is not finite")
        return value
    if value_type == "boolean":
        if from_json:
            if not isinstance(raw, bool):
                raise ValueError(f"expected a boolean, got {raw!r}")
            return raw
        value = _BOOLEANS.get(str(raw).strip().lower())
        if value is None:
            raise ValueError(f"bad boolean literal {raw!r}")
        return value
    if from_json and not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    if not _writable(raw):
        raise _unwritable("string value", raw)
    return raw


# The fields of a reading, in the order _reading_from_fields takes them.
_FIELDS = ("timestamp", "value", "sensor_id", "unit", "subject_key", "lon", "lat")
_ABSENT = (None, "")


def _coordinate(name: str, raw, *, from_json: bool) -> float:
    if from_json and not _is_json_number(raw):
        raise ValueError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _reading_from_fields(
    fields, source: SourceDecl, share: Callable[[str, str], str], *, from_json: bool
) -> SensorReading:
    """One reading from its raw fields in _FIELDS order; None or "" is an absent field.

    `share` is the `setdefault` of one dict per loaded file: equal strings of
    that file come back as one object, so repeated ids, units, subject keys
    and string values are held once.
    """
    timestamp_raw, value_raw, sensor_id, unit, subject_key, lon, lat = fields
    if timestamp_raw in _ABSENT:
        raise ValueError("missing timestamp")
    if value_raw in _ABSENT:
        raise ValueError("missing value")
    timestamp = parse_timestamp(str(timestamp_raw))
    value = _parse_value(value_raw, source.value_type, from_json=from_json)
    if type(value) is str:
        value = share(value, value)
    location = None
    if lon not in _ABSENT or lat not in _ABSENT:
        if lon in _ABSENT or lat in _ABSENT:
            raise ValueError("lon and lat must be given together")
        location = (
            _coordinate("lon", lon, from_json=from_json),
            _coordinate("lat", lat, from_json=from_json),
        )
        if not _in_range(*location):
            raise ValueError(f"location out of range: {location}")
    sensor_id = source.source_id if sensor_id in _ABSENT else str(sensor_id)
    unit = None if unit in _ABSENT else str(unit)
    subject_key = None if subject_key in _ABSENT else str(subject_key)
    return _read_reading(
        share(sensor_id, sensor_id),
        timestamp,
        value,
        unit and share(unit, unit),
        subject_key and share(subject_key, subject_key),
        location,
    )


def load_stream(source: SourceDecl, base_dir: str | Path | None = None) -> SensorStream:
    """Load one declared sensor source into a sorted SensorStream.

    CSV files need a header naming at least `timestamp` and `value`; the
    optional columns are sensor_id, unit, subject_key, lon, lat. JSON-lines
    files use the same field names, with native JSON types for `value`. A
    file with a valid header and zero rows yields an empty stream; a bad row
    fails the load with its row number, and only its CSV chunk is read twice.
    """
    path = Path(base_dir) / source.path if base_dir is not None else Path(source.path)
    if not path.is_file():
        raise SensorIngestError("file not found", path=str(path))
    try:
        if source.format == "csv":
            with path.open(newline="", encoding="utf-8") as handle:
                readings = _csv_columns(handle, source, path)
        else:
            readings = _load_jsonl(path, source)
    except UnicodeDecodeError as exc:
        message, line = _utf8_fault(path, exc)
        raise SensorIngestError(message, path=str(path), row=line) from None
    except csv.Error as exc:  # a NUL byte before Python 3.11, or a field over the size limit
        raise SensorIngestError(str(exc), path=str(path)) from None
    return SensorStream(source.source_id, source.sensor_type, tuple(readings))


def _utf8_fault(path: Path, exc: UnicodeDecodeError) -> tuple[str, int | None]:
    """What is wrong with a file that failed to decode as UTF-8, and on which line.

    A text stream decodes in chunks, so `exc` does not say where in the file
    the bad byte is; the file's bytes are decoded again to find it. Only
    this error path reads them.
    """
    data = path.read_bytes()
    line = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        exc, line = first, data.count(b"\n", 0, first.start) + 1
    return f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})", line


def _fit_rows(rows: list[list[str]], width: int) -> list[list[str]]:
    """Rows as a CSV row is read: a blank line is skipped, extra fields are ignored
    and missing fields are empty; an empty optional cell is absent, as "" is
    to _reading_from_fields and to the column converters."""
    rows = list(filter(None, rows))
    if set(map(len, rows)) != {width}:
        rows = [row[:width] + [""] * (width - len(row)) for row in rows]
    return rows


# Rows _csv_columns converts at a time: enough that its per-chunk costs
# vanish, few enough that one chunk's cells are a small share of memory.
_CHUNK = 1024
# The grammar's hours are 00-23. ISO 8601 also has 24:00, the end of a day,
# so this does not rely on fromisoformat to refuse it.
_LATE_HOUR = re.compile(rb"T(?:2[4-9]|[3-9])")
_fromisoformat = datetime.fromisoformat
_NOWHERE = ("", "")
_consume = deque(maxlen=0).extend


def _csv_columns(handle, source: SourceDecl, path: Path) -> list[SensorReading]:
    """The readings of the CSV file open in `handle`, read a chunk of rows at a time.

    Each chunk is fitted by _fit_rows, transposed, and each column converted
    in one C-level loop. A chunk that does not convert, or that csv cannot
    read, is read again alone, a row at a time through _reading_from_fields,
    which names the first bad row.
    """
    reader = csv.reader(handle)
    header = next(reader, [])
    column = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    for required in ("timestamp", "value"):
        if required not in column:
            raise SensorIngestError(f"header is missing column {required!r}", path=str(path))
    width, at = len(header), [column.get(name) for name in _FIELDS]  # None: an absent column
    stamp_at, value_at, id_at, unit_at, subject_at, lon_at, lat_at = at
    share = {}.setdefault
    source_id = share(source.source_id, source.source_id)
    texts = (
        (_set_sensor_id, id_at, source_id), (_set_unit, unit_at, None),
        (_set_subject_key, subject_at, None),
    )
    value_type = source.value_type
    readings: list[SensorReading] = []
    done = 0  # the rows read before the chunk in hand, blank ones included
    while True:
        try:
            chunk = list(islice(reader, _CHUNK))
            if rows := _fit_rows(chunk, width):
                columns = list(zip(*rows))
                n = len(rows)
                timestamps = _chunk_timestamps(columns[stamp_at])
                values = _chunk_values(columns[value_at], value_type, share)
                locations = repeat(None)
                if lon_at is not None or lat_at is not None:
                    nowhere = ("",) * n
                    locations = _chunk_locations(
                        nowhere if lon_at is None else columns[lon_at],
                        nowhere if lat_at is None else columns[lat_at],
                    )
                built = list(map(_new, repeat(SensorReading, n)))
                _consume(map(_set_timestamp, built, timestamps))
                _consume(map(_set_value, built, values))
                for setter, i, absent in texts:
                    if i is None:
                        cells = repeat(absent)
                    else:
                        cells = columns[i]
                        if "" in cells:
                            cells = list(map({"": absent}.get, cells, cells))
                        cells = map(share, cells, cells)
                    _consume(map(setter, built, cells))
                _consume(map(_set_location, built, locations))
                readings += built
            if not chunk:
                return readings
            done += len(chunk)
            continue
        except (ValueError, csv.Error):
            pass
        # Read this chunk again alone, a row at a time; a quoted cell may span lines.
        handle.seek(0)
        reader = csv.reader(handle)
        _consume(islice(reader, 1 + done))  # the header and the rows before it: tokenised only
        for row in islice(reader, _CHUNK):
            done += 1
            for cells in _fit_rows([row], width):
                fields = [None if i is None else cells[i] for i in at]
                try:
                    readings.append(_reading_from_fields(fields, source, share, from_json=False))
                except ValueError as exc:
                    raise SensorIngestError(str(exc), path=str(path), row=reader.line_num) from exc


def _chunk_timestamps(stamps: tuple[str, ...]) -> list[datetime]:
    """A chunk's timestamps; ValueError if parse_timestamp refuses one of them.

    Cells that all have format_timestamp's layout, WRITTEN_LAYOUT, are
    converted by fromisoformat alone, as parse_timestamp converts one such
    cell, but with one join and one translate for the chunk. The layout has
    one '+', so n matches of "+00:00" mean that every offset is zero.
    fromisoformat refuses an impossible date or time, and gives the
    timezone.utc singleton for +00:00, so each result is normal. Any other
    chunk goes through parse_timestamp.
    """
    n = len(stamps)
    text = "\n".join(stamps).encode("ascii", "replace")
    if (
        text.translate(ZERO_DIGITS) == b"\n".join(repeat(WRITTEN_LAYOUT, n))
        and text.count(b"+00:00") == n
        and not _LATE_HOUR.search(text)
    ):
        return list(map(_fromisoformat, stamps))
    return list(map(parse_timestamp, stamps))


def _chunk_values(values: tuple[str, ...], value_type: str, share) -> Iterable[ReadingValue]:
    """A chunk's values as _parse_value reads them; ValueError if one is bad."""
    if value_type == "decimal":
        values = list(map(float, values))
        if not all(map(math.isfinite, values)):
            raise ValueError("a decimal value is not finite")
        return values
    if value_type == "boolean":
        values = list(map(_BOOLEANS.get, map(str.lower, map(str.strip, values))))
        if None in values:
            raise ValueError("a bad boolean literal")
        return values
    if "" in values or not (all(map(str.isprintable, values)) or all(map(_writable, values))):
        raise ValueError("a string value is empty or holds what XML cannot carry")
    return map(share, values, values)


def _chunk_locations(lons: tuple[str, ...], lats: tuple[str, ...]) -> list:
    """A chunk's locations, None where both cells are empty; ValueError if one is bad."""
    if "" not in lons and "" not in lats:
        return _located(lons, lats)
    pairs = list(zip(lons, lats))
    given = [pair for pair in pairs if pair != _NOWHERE]
    located = iter(_located(*zip(*given)) if given else ())
    return [None if pair == _NOWHERE else next(located) for pair in pairs]


def _located(lons: tuple[str, ...], lats: tuple[str, ...]) -> list[tuple[float, float]]:
    lons, lats = list(map(float, lons)), list(map(float, lats))
    # min and max pass over a NaN, which isfinite refuses.
    if not (
        all(map(math.isfinite, lons)) and all(map(math.isfinite, lats))
        and _in_range(min(lons), min(lats)) and _in_range(max(lons), max(lats))
    ):
        raise ValueError("a location is out of range")
    return list(zip(lons, lats))


def _load_jsonl(path: Path, source: SourceDecl) -> list[SensorReading]:
    readings = []
    share = {}.setdefault
    with path.open(encoding="utf-8") as handle:
        for row_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("each line must be a JSON object")
                fields = [record.get(name) for name in _FIELDS]
                readings.append(_reading_from_fields(fields, source, share, from_json=True))
            except (ValueError, TypeError, OverflowError) as exc:
                raise SensorIngestError(str(exc), path=str(path), row=row_number) from exc
    return readings
