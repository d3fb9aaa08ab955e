"""Typed XES event-log model with deterministic parsing and serialization.

The model is intentionally small: a Log holds traces, a Trace holds events,
and all three carry flat typed attributes (string, int, float, boolean,
date). Instances are immutable after construction and safe to share across
threads; `parse_xes` (one expat pass, no tree) and `write_xes` are pure
functions. The model classes have slots, so an instance carries no `__dict__`.
Constructors reject keys, string values, activities and case ids holding a
character XML 1.0 cannot carry, so whatever is built can be written and read
back. `parse_xes` checks what it reads itself and builds attributes and
events without those checks, which parsed text always passes. Its one Python
handler sees start tags only (expat appends each end tag to a list), and it
reads the common string, date, float and boolean attributes itself; any
other attribute, or one that does not convert, goes through
`_parse_attribute`, the one place that words the error.

`write_xes` emits one fixed layout in a single pass, without a tree, and is
deterministic: mandatory fields first (case_id on traces, activity and
timestamp on events), other attributes in lexicographic key order, ISO-8601
UTC timestamps with millisecond precision, and floats in the shortest form
that round-trips binary64. Equal logs serialize to identical bytes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from operator import attrgetter
from xml.parsers import expat

from .timeutil import format_timestamp, parse_timestamp, to_utc_ms

AttrValue = str | int | float | bool | datetime

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Violation codes returned by validate_log.
DUPLICATE_CASE_ID = "duplicate_case_id"
UNSORTED_EVENTS = "unsorted_events"
DUPLICATE_ATTRIBUTE_KEY = "duplicate_attribute_key"

# Accepted key aliases for the mandatory fields. We emit the plain form and
# accept the XES standard-extension form on input.
_CASE_ID_KEYS = ("case_id", "concept:name")
_ACTIVITY_KEYS = ("activity", "concept:name")
_TIMESTAMP_KEYS = ("timestamp", "time:timestamp")
_MANDATORY_KEYS = frozenset(_CASE_ID_KEYS + _ACTIVITY_KEYS + _TIMESTAMP_KEYS)
_EVENT_FIELDS = frozenset(_ACTIVITY_KEYS + _TIMESTAMP_KEYS)
_TRACE_FIELDS = frozenset(_CASE_ID_KEYS)


class XesParseError(ValueError):
    """A document could not be parsed into a Log."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        position = ""
        if line is not None:
            position = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + position)
        self.line = line
        self.column = column


# Characters XML 1.0 cannot carry, not even as a character reference. A
# string that str.isprintable() accepts holds none of them, so _writable
# tries that first: it is the common case and costs a third of the search.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _writable(text: str) -> bool:
    """Whether XML 1.0 can carry every character of `text`."""
    return text.isprintable() or _NOT_XML_CHAR.search(text) is None


def _unwritable(field: str, text: str) -> ValueError:
    """The error for a `text` that _NOT_XML_CHAR matched, naming its field."""
    bad = _NOT_XML_CHAR.search(text)[0]
    return ValueError(f"{field} holds U+{ord(bad):04X}, which XML 1.0 cannot carry")


_EMPTY_KEY = "attribute key must be non-empty"


def _normalize_value(key: str, value: AttrValue) -> AttrValue:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ValueError(f"attribute {key!r}: integer value outside 64-bit range")
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, datetime):
        return to_utc_ms(value)
    if isinstance(value, str):
        if not _writable(value):
            raise _unwritable(f"attribute {key!r}: string value", value)
        return value
    raise TypeError(f"attribute {key!r}: unsupported value type {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class Attribute:
    """One typed key/value pair. Timestamps are stored normalized to UTC."""

    key: str
    value: AttrValue

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError(_EMPTY_KEY)
        if not _writable(self.key):
            raise _unwritable(f"attribute key {self.key!r}", self.key)
        object.__setattr__(self, "value", _normalize_value(self.key, self.value))


def _sorted_attrs(attributes) -> tuple[Attribute, ...]:
    # Stable sort: duplicate keys keep their input order so validate_log can
    # still see and report them.
    return tuple(sorted(attributes, key=_key))


_key = attrgetter("key")


def _get(attributes: tuple[Attribute, ...], key: str) -> AttrValue | None:
    for attr in attributes:
        if attr.key == key:
            return attr.value
    return None


@dataclass(frozen=True, slots=True)
class Event:
    """One process event: an activity observed at a point in time."""

    activity: str
    timestamp: datetime
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if not self.activity:
            raise ValueError("event activity must be non-empty")
        if not _writable(self.activity):
            raise _unwritable(f"event activity {self.activity!r}", self.activity)
        object.__setattr__(self, "timestamp", to_utc_ms(self.timestamp))
        object.__setattr__(self, "attributes", _sorted_attrs(self.attributes))

    def get(self, key: str) -> AttrValue | None:
        return _get(self.attributes, key)

    def attribute_keys(self) -> set[str]:
        return {a.key for a in self.attributes}


@dataclass(frozen=True, slots=True)
class Trace:
    """One case: a uniquely identified, time-ordered sequence of events.

    Trace-scope attributes are static: they describe the whole case. The
    constructor does not sort events; an out-of-order sequence is
    representable and reported by validate_log.
    """

    case_id: str
    attributes: tuple[Attribute, ...] = ()
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ValueError("trace case_id must be non-empty")
        if not _writable(self.case_id):
            raise _unwritable(f"trace case_id {self.case_id!r}", self.case_id)
        object.__setattr__(self, "attributes", _sorted_attrs(self.attributes))
        object.__setattr__(self, "events", tuple(self.events))

    def get(self, key: str) -> AttrValue | None:
        return _get(self.attributes, key)

    def attribute_keys(self) -> set[str]:
        return {a.key for a in self.attributes}

    def span(self) -> tuple[datetime, datetime] | None:
        """Closed interval from first to last event time, None when empty."""
        if not self.events:
            return None
        return self.events[0].timestamp, self.events[-1].timestamp


# The reader and the enrichment kernel build attributes, events and traces
# through these, which skip their constructors' checks: what they are given
# has passed them already. The reader refuses an empty key or activity and an
# int outside 64 bits, expat every character XML 1.0 cannot carry, and
# `parse_timestamp` returns normal timestamps. The kernel writes the keys and
# activities of a plan that `validate_plan` accepted, and checks each value
# it derives when it writes it. Each still sorts the attributes it is given.
_new = object.__new__
_set_key, _set_value = Attribute.key.__set__, Attribute.value.__set__
_set_activity, _set_timestamp = Event.activity.__set__, Event.timestamp.__set__
_set_attributes = Event.attributes.__set__
_set_case_id, _set_trace_attributes = Trace.case_id.__set__, Trace.attributes.__set__
_set_events = Trace.events.__set__


def _parsed_attribute(key: str, value: AttrValue) -> Attribute:
    attribute = _new(Attribute)
    _set_key(attribute, key)
    _set_value(attribute, value)
    return attribute


def _parsed_event(activity: str, timestamp: datetime, attributes: Iterable[Attribute]) -> Event:
    event = _new(Event)
    _set_activity(event, activity)
    _set_timestamp(event, timestamp)
    _set_attributes(event, _sorted_attrs(attributes) if attributes else ())
    return event


def _parsed_trace(
    case_id: str, attributes: Iterable[Attribute], events: tuple[Event, ...]
) -> Trace:
    trace = _new(Trace)
    _set_case_id(trace, case_id)
    _set_trace_attributes(trace, _sorted_attrs(attributes))
    _set_events(trace, events)
    return trace


@dataclass(frozen=True, slots=True)
class Log:
    """An event log: ordered traces plus log-scope metadata attributes."""

    traces: tuple[Trace, ...] = ()
    metadata: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", tuple(self.traces))
        object.__setattr__(self, "metadata", _sorted_attrs(self.metadata))

    def trace(self, case_id: str) -> Trace | None:
        for trace in self.traces:
            if trace.case_id == case_id:
                return trace
        return None


@dataclass(frozen=True)
class Violation:
    """One broken log invariant, with coordinates pointing at the culprit."""

    code: str
    message: str
    case_id: str | None = None
    trace_index: int | None = None
    event_index: int | None = None
    key: str | None = None


def validate_log(log: Log) -> list[Violation]:
    """Check Log invariants and return one Violation per breach.

    Detects duplicate case ids, out-of-order adjacent event pairs, and
    duplicate attribute keys at every scope. An empty result means the log
    is valid.
    """
    violations: list[Violation] = []
    violations.extend(_duplicate_key_violations(log.metadata, None, None, None))

    seen_cases: set[str] = set()
    for ti, trace in enumerate(log.traces):
        if trace.case_id in seen_cases:
            violations.append(
                Violation(
                    DUPLICATE_CASE_ID,
                    f"case_id {trace.case_id!r} appears more than once",
                    case_id=trace.case_id,
                    trace_index=ti,
                )
            )
        seen_cases.add(trace.case_id)

        violations.extend(_duplicate_key_violations(trace.attributes, trace.case_id, ti, None))
        for ei in range(len(trace.events) - 1):
            if trace.events[ei].timestamp > trace.events[ei + 1].timestamp:
                violations.append(
                    Violation(
                        UNSORTED_EVENTS,
                        f"event {ei} is later than event {ei + 1}",
                        case_id=trace.case_id,
                        trace_index=ti,
                        event_index=ei,
                    )
                )
        for ei, event in enumerate(trace.events):
            violations.extend(_duplicate_key_violations(event.attributes, trace.case_id, ti, ei))
    return violations


def _duplicate_key_violations(attributes, case_id, trace_index, event_index):
    seen: set[str] = set()
    duplicated: list[str] = []
    for attr in attributes:
        if attr.key in seen and attr.key not in duplicated:
            duplicated.append(attr.key)
        seen.add(attr.key)
    return [
        Violation(
            DUPLICATE_ATTRIBUTE_KEY,
            f"attribute key {key!r} appears more than once",
            case_id=case_id,
            trace_index=trace_index,
            event_index=event_index,
            key=key,
        )
        for key in duplicated
    ]


# --- parsing ---------------------------------------------------------------


def _parse_attribute(tag: str, attrs: dict[str, str]) -> tuple[str, AttrValue]:
    """The key and typed value of a flat attribute element, from its local tag name and attributes.

    Raises XesParseError without a location; the reader adds where and line.
    """
    key = attrs.get("key")
    raw = attrs.get("value")
    if tag in ("list", "container"):
        raise XesParseError(
            f"nested attribute <{tag} key={key!r}> is not supported; "
            "only flat string/int/float/boolean/date attributes are accepted"
        )
    if key is None or raw is None:
        raise XesParseError(f"attribute element <{tag}> needs key and value")
    if tag not in _VALUE_TAGS:
        raise XesParseError(f"unknown attribute type tag <{tag}>")
    try:
        if tag == "string":
            value = raw
        elif tag == "int":
            value = int(raw)
        elif tag == "float":
            value = float(raw)
        elif tag == "boolean":
            lowered = raw.strip().lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"bad boolean literal {raw!r}")
            value = lowered == "true"
        else:
            value = parse_timestamp(raw)
        # The checks of Attribute that parsed text can fail, in its order.
        if not key:
            raise ValueError(_EMPTY_KEY)
        if tag == "int":
            _normalize_value(key, value)
    except ValueError as exc:
        raise XesParseError(f"attribute {key!r}: {exc}") from exc
    return key, value


_VALUE_TAGS = {"string", "int", "float", "boolean", "date"}
_BOOLEANS = {"true": True, "false": False}
_STRUCTURAL_TAGS = {"extension", "global", "classifier"}
_timestamp = attrgetter("timestamp")


def _pop_first(held: dict[str, AttrValue], keys: tuple[str, ...]) -> AttrValue | None:
    """The held value of the first of `keys` that was given, removed from `held`."""
    for key in keys:
        if key in held:
            return held.pop(key)
    return None


def parse_xes(document: bytes | str, keep: Iterable[str] | None = None) -> Log:
    """Parse an XES document into a Log, in one expat pass.

    The mandatory fields are read from `case_id`/`activity`/`timestamp`
    attribute elements (the `concept:name` / `time:timestamp` aliases are
    also accepted); everything else is kept as a plain attribute, and so are
    an alias given beside the preferred key and a field's key given again.
    Events are re-sorted by timestamp with input order preserved on ties.
    Extension, global, and classifier declarations, the children of
    attribute elements, text, comments and processing instructions are
    skipped.

    With `keep`, a set of keys, only attributes with one of those keys or a
    mandatory field's key (or alias) are built, at every scope; the others
    are left out of the Log. Every attribute is still checked, so a document
    parses or fails alike with or without `keep`. A query needs only the
    keys it reads (`Query.keys`), so its answer does not change either.

    A document that is not well-formed XML fails with its line and column,
    even when a semantic error (a missing field, a bad value, a duplicate
    case id, a wrong root) comes before the syntax error; otherwise the first
    semantic error fails with the line of the element it concerns.

    Only start tags reach Python: expat appends each end tag's name to a
    list, and an element's depth is the start tags so far less the end tags.
    An event or trace is closed when the next element at its depth or
    shallower starts, before that element is checked, or after the last
    byte, so the semantic errors still come in document order.
    """
    if keep is not None:
        keep = _MANDATORY_KEYS.union(keep)
    parser = expat.ParserCreate(None, "}")  # a namespaced name arrives as "uri}local"
    metadata: list[Attribute] = []
    traces: list[Trace] = []
    seen_cases: set[str] = set()
    trace_attrs: list[Attribute] = []
    events: list[Event] = []
    event_attrs: list[Attribute] = []
    # The first value of each mandatory field's key (or alias) in the open
    # trace and event, held apart from the plain attributes.
    trace_held: dict[str, AttrValue] = {}
    event_held: dict[str, AttrValue] = {}
    declared: list[str | None] = []
    failures: list[XesParseError] = []
    # The `setdefault` of one dict per parse: a key or string value comes back
    # as the document's first equal string, so repeated keys, activities and
    # values are held once.
    share = {}.setdefault
    # The local tag of each name expat gives (the same string object each time).
    local: dict[str, str] = {}
    # Elements nest log (depth 1) > trace (2) > event (3) > attribute (4).
    # `ends` holds the end tags since the last depth-2 start, and `starts` the
    # start tags since then plus the two open ones at that start.
    ends: list[str] = []
    starts = 0
    # Whether the last element at depth 2/3 was a trace/event not yet closed.
    in_trace = in_event = False
    trace_line = event_line = 0

    def fail(message: str, line: int) -> None:
        # Keep the first semantic error and stop building after the element
        # at hand, but let expat read on: a syntax error anywhere in the
        # document takes precedence.
        failures.append(XesParseError(message, line=line))
        parser.StartElementHandler = parser.EndElementHandler = None

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal starts, in_trace, in_event, trace_line, event_line
        starts += 1
        depth = starts - len(ends)
        try:
            tag = local[name]
        except KeyError:
            tag = local[name] = name[name.rfind("}") + 1 :]
        if depth == 4:
            if not in_event:
                return
            into, held, fields = event_attrs, event_held, _EVENT_FIELDS
        elif depth == 3:
            if in_event:
                in_event = False
                close_event()
            if not in_trace:
                return
            if tag == "event":
                in_event, event_line = True, parser.CurrentLineNumber
                return
            into, held, fields = trace_attrs, trace_held, _TRACE_FIELDS
        elif depth == 2:
            starts = 2  # every element whose end tag `ends` holds is closed
            ends.clear()
            if in_event:
                in_event = False
                close_event()
            if in_trace:
                in_trace = False
                close_trace()
            if tag == "trace":
                in_trace, trace_line = True, parser.CurrentLineNumber
                return
            if tag in _STRUCTURAL_TAGS:
                return
            into, held, fields = metadata, None, ()
        else:
            if depth == 1 and tag != "log":
                fail(f"expected <log> root element, found <{tag}>", parser.CurrentLineNumber)
            return
        # The common attribute elements, read as _parse_attribute reads them;
        # the rest, and any that fails, go through it.
        key = attrs.get("key")
        raw = attrs.get("value")
        value = None
        if key and raw is not None:
            if tag == "string":
                value = raw
            elif tag == "date":
                try:
                    value = parse_timestamp(raw)
                except ValueError:
                    pass
            elif tag == "float":
                try:
                    value = float(raw)
                except ValueError:
                    pass
            elif tag == "boolean":
                value = _BOOLEANS.get(raw)
        if value is None:
            try:
                key, value = _parse_attribute(tag, attrs)
            except XesParseError as exc:
                where = ("log", f"trace {len(traces)}", f"trace {len(traces)}, event {len(events)}")
                fail(f"{where[depth - 2]}: {exc}", parser.CurrentLineNumber)
                return
        if key in fields and key not in held:
            held[key] = share(value, value) if type(value) is str else value
        elif keep is None or key in keep:
            value = share(value, value) if type(value) is str else value
            into.append(_parsed_attribute(share(key, key), value))

    def release(held: dict[str, AttrValue], into: list[Attribute]) -> None:
        # A held value no field took (an alias beside its preferred key) is a
        # plain attribute. It goes first, as it came before any other with
        # its key, and the attributes are sorted stably by key.
        for key, value in held.items():
            into.insert(0, _parsed_attribute(share(key, key), value))

    def close_event() -> None:
        activity = _pop_first(event_held, _ACTIVITY_KEYS)
        timestamp = _pop_first(event_held, _TIMESTAMP_KEYS)
        if activity is None or not isinstance(activity, str) or not activity:
            fail(f"trace {len(traces)}, event {len(events)}: missing mandatory activity",
                 event_line)
        elif timestamp is None or not isinstance(timestamp, datetime):
            fail(f"trace {len(traces)}, event {len(events)}: missing mandatory timestamp",
                 event_line)
        else:
            if event_held:
                release(event_held, event_attrs)
            events.append(_parsed_event(activity, timestamp, event_attrs))
        event_attrs.clear()
        event_held.clear()

    def close_trace() -> None:
        case_value = _pop_first(trace_held, _CASE_ID_KEYS)
        case_id = None if case_value is None else str(case_value)
        if case_id is None:
            fail(f"trace {len(traces)}: missing case_id", trace_line)
        elif not case_id:
            fail(f"trace {len(traces)}: case_id must be non-empty", trace_line)
        elif case_id in seen_cases:
            fail(f"trace {len(traces)}: duplicate case_id {case_id!r}", trace_line)
        else:
            seen_cases.add(case_id)
            if trace_held:
                release(trace_held, trace_attrs)
            events.sort(key=_timestamp)  # stable: ties keep input order
            traces.append(_parsed_trace(case_id, trace_attrs, tuple(events)))
        trace_attrs.clear()
        trace_held.clear()
        events.clear()

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        # After an unread external DTD, expat skips an undeclared entity in
        # content silently; it is rejected as it is in a document without one.
        if not is_parameter_entity:
            raise XesParseError(
                f"XML syntax error: undefined entity &{name};",
                line=parser.CurrentLineNumber,
                column=parser.CurrentColumnNumber,
            )

    parser.StartElementHandler = start
    parser.EndElementHandler = ends.append
    parser.SkippedEntityHandler = skipped_entity
    parser.XmlDeclHandler = lambda version, encoding, standalone: declared.append(encoding)
    try:
        parser.Parse(document, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        message = f"XML syntax error: {expat.ErrorString(exc.code)}"
        raise XesParseError(message, line=exc.lineno, column=exc.offset) from exc
    except XesParseError:
        raise
    except (LookupError, ValueError) as exc:
        if not declared:
            raise
        # expat asks Python for an encoding it does not know itself; an
        # unknown name is a LookupError, a multi-byte codec a ValueError.
        raise XesParseError(
            f"unsupported XML encoding {declared[0]!r}: {exc}",
            line=parser.ErrorLineNumber,
            column=parser.ErrorColumnNumber,
        ) from exc
    finally:
        # The handlers close over the parser; dropping them breaks that
        # cycle, so the parse leaves nothing for the cyclic collector.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.SkippedEntityHandler = parser.XmlDeclHandler = None
    if not failures:  # the last event and trace end with the document
        if in_event:
            close_event()
        if in_trace:
            close_trace()
    if failures:
        raise failures.pop(0)  # popped: a local holding it would tie it to its own traceback
    return Log(tuple(traces), tuple(metadata))


# --- writing ---------------------------------------------------------------

# write_xes emits one fixed layout: the declaration, then <log>, <trace> and
# <event> indented two spaces per level, and one <tag key=".." value=".." />
# line per attribute. Keys and string values are escaped by _ESCAPES (the
# text of a number, boolean or date never needs it). The model's constructors
# keep out lone surrogates, so every string encodes as UTF-8.
_DECLARATION = "<?xml version='1.0' encoding='UTF-8'?>\n"
_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
            "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
_escape = partial(re.compile(f"[{''.join(_ESCAPES)}]").sub, lambda m: _ESCAPES[m[0]])


class _Escaped(dict):
    """The escaped text of each key and string value looked up in it, escaped the first time.

    `re.sub` returns its argument when nothing matches, so the table holds
    no copy of a string that needs no escaping.
    """

    def __missing__(self, text: str) -> str:
        escaped = self[text] = _escape(text)
        return escaped


def _attribute(
    indent: str, key: str, value: AttrValue, escaped: _Escaped, times: Mapping[datetime, str]
) -> str:
    """One attribute line; `escaped` gives keys and string values, `times` a date if it has it."""
    if isinstance(value, str):
        tag, text = "string", escaped[value]
    elif isinstance(value, bool):
        tag, text = "boolean", "true" if value else "false"
    elif isinstance(value, int):
        tag, text = "int", str(value)
    elif isinstance(value, float):
        tag, text = "float", repr(value)
    else:
        tag, text = "date", times.get(value) or format_timestamp(value)
    return f'{indent}<{tag} key="{escaped[key]}" value="{text}" />'


def _event_attribute_lines(
    attributes: tuple[Attribute, ...],
    escaped: _Escaped,
    times: Mapping[datetime, str],
    repeated: dict[tuple, str],
) -> list[str]:
    """The lines of an event's attributes; `repeated` keeps the line of each string or boolean one.

    It is keyed by (type(value), key, value), because True == 1.
    """
    lines = []
    for attribute in attributes:
        key, value = attribute.key, attribute.value
        kind = type(value)
        if kind is str or kind is bool:
            seen = (kind, key, value)
            line = repeated.get(seen)
            if line is None:
                line = repeated[seen] = _attribute("      ", key, value, escaped, times)
        else:
            line = _attribute("      ", key, value, escaped, times)
        lines.append(line)
    return lines


def write_xes(log: Log, *, _times: Mapping[datetime, str] | None = None) -> bytes:
    """Serialize a valid Log to UTF-8 XES bytes, deterministically.

    `_times` maps datetimes to their format_timestamp text, for a caller
    that shares the texts with another writer; a date not in it is
    formatted here.
    """
    if not log.metadata and not log.traces:
        return (_DECLARATION + '<log xes.version="1.0" />').encode()
    escaped = _Escaped()  # each distinct key and string value is escaped once per call
    times = {} if _times is None else _times
    lines = [_DECLARATION + '<log xes.version="1.0">']
    lines += [_attribute("  ", a.key, a.value, escaped, times) for a in log.metadata]
    chunks = []  # encoded per trace, so only one trace's line strings are alive at a time
    for trace in log.traces:
        chunks.append("\n".join(lines).encode())
        lines = ["  <trace>", _attribute("    ", "case_id", trace.case_id, escaped, times)]
        lines += [_attribute("    ", a.key, a.value, escaped, times) for a in trace.attributes]
        repeated: dict[tuple, str] = {}  # per trace: it holds only lines `lines` holds
        for event in trace.events:
            timestamp = event.timestamp
            lines.append(
                f'    <event>\n      <string key="activity" value="{escaped[event.activity]}" />'
                f'\n      <date key="timestamp" '
                f'value="{times.get(timestamp) or format_timestamp(timestamp)}" />'
            )
            if event.attributes:
                lines += _event_attribute_lines(event.attributes, escaped, times, repeated)
            lines.append("    </event>")
        lines.append("  </trace>")
    lines.append("</log>")
    chunks.append("\n".join(lines).encode())
    del lines  # the last trace's line strings need not outlive its chunk
    return b"\n".join(chunks)
