"""to_utc_ms against the normalisation it replaced.

An already normal datetime (the timezone.utc singleton, whole milliseconds)
must come back as the same object; everything else must come out exactly
as the former astimezone-then-truncate path made it.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

from hypothesis import example, given
from hypothesis import strategies as st

from iotlog.timeutil import UTC, format_timestamp, to_utc_ms


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

