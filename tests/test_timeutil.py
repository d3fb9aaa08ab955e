"""to_utc_ms and parse_timestamp against the paths they replaced.

An already normal datetime (the timezone.utc singleton, whole milliseconds)
must come back as the same object; everything else must come out exactly
as the former astimezone-then-truncate path made it. parse_timestamp reads
format_timestamp's own layout with fromisoformat alone; on any text it
must give what the former regex-only parse gave, or the same error.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotlog.timeutil import UTC, format_timestamp, parse_timestamp, to_utc_ms


def slow_to_utc_ms(value: datetime) -> datetime:
    """The former to_utc_ms: convert to UTC, then truncate to milliseconds."""
    value = value.replace(tzinfo=UTC) if value.tzinfo is None else value.astimezone(UTC)
    return value.replace(microsecond=(value.microsecond // 1000) * 1000)


# Naive, the UTC singleton, a named zero offset (equal to UTC but not the
# singleton), and fixed offsets down to the microsecond.
DAY = timedelta(hours=23, minutes=59)
zones = st.one_of(
    st.none(),
    st.just(timezone.utc),
    st.just(timezone(timedelta(0), "UTC")),
    st.timedeltas(min_value=-DAY, max_value=DAY).map(timezone),
)
moments = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31))


@given(moments, zones)
@example(datetime(2024, 3, 1, 12, 0, 0, 999), timezone(timedelta(0), "UTC"))
@example(datetime(2024, 3, 1, 12, 0, 0, 1000), timezone.utc)
@example(datetime(2024, 3, 1, 12, 0, 0, 1001), timezone.utc)
@example(datetime(2024, 3, 1, 12, 0, 0), timezone(timedelta(microseconds=1)))
def test_to_utc_ms_equals_the_former_normalisation(moment, zone):
    value = moment.replace(tzinfo=zone)
    got, expected = to_utc_ms(value), slow_to_utc_ms(value)
    assert got.tzinfo is UTC
    assert (got, got.isoformat(), got.fold) == (expected, expected.isoformat(), expected.fold)
    assert format_timestamp(value) == expected.isoformat(timespec="milliseconds")
    assert to_utc_ms(got) is got
    if zone is UTC and moment.microsecond % 1000 == 0:
        assert got is value



_TIMESTAMP_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}"
    r"(?:[T ](?:[01]\d|2[0-3]):[0-5]\d(?::[0-5]\d(?:\.\d{3}(?:\d{3})?)?)?"
    r"(?:[Zz]|[+-]\d{2}:\d{2})?)?",
    re.ASCII,
)


def regex_parse_timestamp(text: str) -> datetime:
    """The former parse_timestamp: every text through the grammar's regex."""
    cleaned = text.strip()
    if _TIMESTAMP_RE.fullmatch(cleaned) is None:
        raise ValueError(
            f"timestamp {text!r} is not YYYY-MM-DD[THH:MM[:SS[.fff[fff]]][Z|+HH:MM]]"
        )
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return slow_to_utc_ms(datetime.fromisoformat(cleaned))
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 in UTC") from None


# Text in and near format_timestamp's layout: mostly ASCII digits, sometimes
# other Unicode digits, at every place.
_ascii_digit = st.sampled_from("0123456789")
_digit = st.one_of(_ascii_digit, _ascii_digit, st.sampled_from("\u0663\uff11\u096a"))


def _digits(n: int, *common: str) -> st.SearchStrategy[str]:
    drawn = st.lists(_digit, min_size=n, max_size=n).map("".join)
    return st.one_of(st.sampled_from(common), drawn) if common else drawn


@st.composite
def near_written(draw) -> str:
    year = draw(_digits(4, "0000", "0001", "2024", "9999"))
    month = draw(_digits(2, "01", "02", "12"))
    day = draw(_digits(2, "01", "28", "29", "30", "31"))
    hour = draw(st.one_of(st.integers(0, 99).map("{:02d}".format), _digits(2)))
    minute = draw(_digits(2, "00", "59", "60"))
    second = draw(_digits(2, "00", "59", "60"))
    fraction = draw(st.one_of(
        st.sampled_from([".000", ".999", ".123456", ""]), _digits(3).map(".".__add__)
    ))
    offset = draw(st.sampled_from(["+00:00", "-00:00", "+01:00", "Z"]))
    space = st.sampled_from(["", "", "", " ", "\n", "\t "])
    return (
        f"{draw(space)}{year}-{month}-{day}T{hour}:{minute}:{second}{fraction}{offset}"
        f"{draw(space)}"
    )


@given(near_written())
@example("2024-01-01T11:00:00.000+01:00")
@example("2024-01-01T24:00:00.000+00:00")
@example("2024-01-01T10:60:00.000+00:00")
@example("2024-02-30T00:00:00.000+00:00")
@example("0000-01-01T00:00:00.000+00:00")
@example("9999-12-31T23:59:59.999+00:00")
@example("\u0662024-01-01T00:00:00.000+00:00")
def test_parse_timestamp_equals_the_regex_parse(text):
    try:
        expected = regex_parse_timestamp(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_timestamp(text)
        assert str(err.value) == str(exc)
        return
    got = parse_timestamp(text)
    assert got.tzinfo is timezone.utc
    assert (got, got.isoformat()) == (expected, expected.isoformat())
