"""Timestamp normalization shared across the package.

Every timestamp handled here is a timezone-aware UTC datetime truncated to
millisecond precision. Naive inputs are interpreted as UTC; zoned inputs are
converted. A timestamp is normalised once, when it is parsed or built; the
later normalisations on construction and output pass it through. The single
textual format emitted anywhere is ISO-8601 with a +00:00 offset and exactly
three fractional digits; parse_timestamp reads that layout back with
fromisoformat alone.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

UTC = timezone.utc

# The one timestamp grammar: YYYY-MM-DD, optionally followed by a T or a
# space, HH:MM (00:00-23:59), optional :SS with 3 or 6 fractional digits, and
# an optional Z or +HH:MM / -HH:MM offset. Python 3.10 and 3.11+ parse this
# subset alike; 3.11+ fromisoformat alone would also take basic and week
# dates, 20240101T101500, 2024-01-01T1015 or one-digit fractions.
_TIMESTAMP_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}"
    r"(?:[T ](?:[01]\d|2[0-3]):[0-5]\d(?::[0-5]\d(?:\.\d{3}(?:\d{3})?)?)?"
    r"(?:[Zz]|[+-]\d{2}:\d{2})?)?",
    re.ASCII,
)

# The layout of every timestamp format_timestamp writes, each digit a 0, and
# the table that makes every ASCII digit a 0. Text in the layout with a
# +00:00 offset and an hour below 24 is already normal once fromisoformat
# reads it: three fractional digits, and the timezone.utc singleton.
WRITTEN_LAYOUT = b"0000-00-00T00:00:00.000+00:00"
ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_fromisoformat = datetime.fromisoformat


def to_utc(value: datetime) -> datetime:
    """Normalize a datetime to UTC, reading a naive one as UTC."""
    return value.replace(tzinfo=UTC) if value.tzinfo is None else value.astimezone(UTC)


def to_utc_ms(value: datetime) -> datetime:
    """Normalize a datetime to UTC with millisecond precision.

    An already normal value (the timezone.utc singleton, whole milliseconds)
    is returned itself, so normalising a parsed timestamp again is one check.
    """
    if value.tzinfo is UTC and value.microsecond % 1000 == 0:
        return value
    value = to_utc(value)
    return value.replace(microsecond=(value.microsecond // 1000) * 1000)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp, accepting a trailing Z and naive forms.

    Raises ValueError on text outside the grammar of _TIMESTAMP_RE, on an
    impossible date in it (month 13, February 30) or one outside UTC years 1-9999.
    Text in format_timestamp's own layout is read by fromisoformat alone;
    if fromisoformat refuses it, the general path below says why, so the
    result or message is the same either way.
    """
    if (
        text.encode("ascii", "replace").translate(ZERO_DIGITS) == WRITTEN_LAYOUT
        and text.endswith("+00:00")
        and text[11:13] < "24"  # ISO 8601's 24:00 is the grammar's to refuse, not fromisoformat's
    ):
        try:
            return _fromisoformat(text)
        except ValueError:
            pass
    cleaned = text.strip()
    if _TIMESTAMP_RE.fullmatch(cleaned) is None:
        raise ValueError(
            f"timestamp {text!r} is not YYYY-MM-DD[THH:MM[:SS[.fff[fff]]][Z|+HH:MM]]"
        )
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return to_utc_ms(datetime.fromisoformat(cleaned))
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 in UTC") from None


def format_timestamp(value: datetime) -> str:
    """Render a datetime as ISO-8601 UTC with millisecond precision."""
    return to_utc_ms(value).isoformat("T", "milliseconds")  # positional: keywords cost more
