"""XES model, parser and writer tests.

The serialization contract is the backbone of everything downstream, so this
module leans on property tests: random logs must survive a write/parse
roundtrip unchanged, writing must be byte-deterministic, and the direct
writer and the expat reader must match the ElementTree writer and reader
they replaced.
"""

from __future__ import annotations

import gc
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotlog.scenario import GenConfig, generate
from iotlog.timeutil import format_timestamp, parse_timestamp
from iotlog.xes import (
    DUPLICATE_ATTRIBUTE_KEY,
    DUPLICATE_CASE_ID,
    UNSORTED_EVENTS,
    Attribute,
    Event,
    Log,
    Trace,
    XesParseError,
    parse_xes,
    validate_log,
    write_xes,
)

from conftest import at, ev, mklog, tr

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# Keys stay clear of the mandatory-field names (and their XES aliases, which
# contain ":" and are unreachable from this alphabet anyway).
keys = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda k: k not in ("case_id", "activity", "timestamp")
)
texts = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)
stamps = st.integers(min_value=0, max_value=4_102_444_800_000).map(
    lambda ms: EPOCH + timedelta(milliseconds=ms)
)
values = st.one_of(
    texts,
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    stamps,
)


def _attrs(d: dict) -> tuple[Attribute, ...]:
    return tuple(Attribute(k, v) for k, v in d.items())


events = st.builds(
    Event,
    activity=texts.filter(bool),
    timestamp=stamps,
    attributes=st.dictionaries(keys, values, max_size=4).map(_attrs),
)
traces = st.builds(
    Trace,
    case_id=st.from_regex(r"[0-9]{4}", fullmatch=True),
    attributes=st.dictionaries(keys, values, max_size=4).map(_attrs),
    events=st.lists(events, max_size=5).map(
        lambda evs: tuple(sorted(evs, key=lambda e: e.timestamp))
    ),
)
logs = st.builds(
    Log,
    traces=st.lists(traces, max_size=5, unique_by=lambda t: t.case_id).map(tuple),
    metadata=st.dictionaries(keys, values, max_size=3).map(_attrs),
)


@given(logs)
def test_roundtrip_identity(log):
    assert parse_xes(write_xes(log)) == log


@given(logs)
def test_write_is_byte_deterministic(log):
    data = write_xes(log)
    assert write_xes(log) == data
    assert write_xes(parse_xes(data)) == data


@given(logs)
def test_write_declares_utf8_xml(log):
    data = write_xes(log)
    assert data.startswith(b"<?xml version='1.0' encoding='UTF-8'?>")
    data.decode("utf-8")  # must be valid UTF-8


def test_trace_order_is_preserved():
    log = mklog(tr("0002", [ev("a", at(0))]), tr("0001", [ev("a", at(1))]))
    assert [t.case_id for t in parse_xes(write_xes(log)).traces] == ["0002", "0001"]


def test_parse_stable_sorts_events_by_timestamp():
    doc = """<?xml version='1.0' encoding='UTF-8'?>
    <log>
      <trace>
        <string key="case_id" value="c1"/>
        <event>
          <string key="activity" value="late"/>
          <date key="timestamp" value="2024-01-01T10:00:00.000+00:00"/>
        </event>
        <event>
          <string key="activity" value="early"/>
          <date key="timestamp" value="2024-01-01T09:00:00.000+00:00"/>
        </event>
        <event>
          <string key="activity" value="late-too"/>
          <date key="timestamp" value="2024-01-01T10:00:00.000+00:00"/>
        </event>
      </trace>
    </log>"""
    log = parse_xes(doc)
    assert [e.activity for e in log.traces[0].events] == ["early", "late", "late-too"]


def test_attributes_serialize_in_lexicographic_order_after_mandatory_fields():
    log = mklog(tr("c1", [ev("go", at(0), zeta=1, alpha=2)], beta="x"))
    text = write_xes(log).decode()
    assert text.index('key="case_id"') < text.index('key="beta"')
    body = text[text.index("<event>") :]
    assert body.index('key="activity"') < body.index('key="timestamp"')
    assert body.index('key="timestamp"') < body.index('key="alpha"') < body.index('key="zeta"')


def test_timestamps_are_normalized_to_utc_milliseconds():
    plus_two = timezone(timedelta(hours=2))
    event = ev("go", datetime(2024, 3, 1, 14, 30, 0, 123999, tzinfo=plus_two))
    assert event.timestamp == datetime(2024, 3, 1, 12, 30, 0, 123000, tzinfo=timezone.utc)
    text = write_xes(mklog(tr("c1", [event]))).decode()
    assert 'value="2024-03-01T12:30:00.123+00:00"' in text


def test_float_values_roundtrip_via_repr():
    for x in (0.1, 1 / 3, 1e-17, 12345.6789, -0.0):
        log = mklog(tr("c1", [ev("go", at(0), v=x)]))
        back = parse_xes(write_xes(log)).traces[0].events[0].get("v")
        assert back == x and isinstance(back, float)


def test_standard_extension_aliases_are_accepted(ed_fixture_bytes):
    log = parse_xes(ed_fixture_bytes)
    assert [t.case_id for t in log.traces] == ["0001", "0002", "0003"]
    assert log.traces[0].events[0].activity == "Enter the ED"


def test_numeric_case_id_is_coerced_to_string():
    doc = """<log><trace><int key="case_id" value="7"/></trace></log>"""
    assert parse_xes(doc).traces[0].case_id == "7"


def test_list_and_container_attributes_are_rejected():
    doc = """<log><trace><string key="case_id" value="c"/>
      <list key="nested"><string key="x" value="y"/></list></trace></log>"""
    with pytest.raises(XesParseError, match="not supported"):
        parse_xes(doc)


def test_unknown_attribute_tag_is_rejected():
    doc = """<log><id key="x" value="y"/></log>"""
    with pytest.raises(XesParseError, match="unknown attribute type"):
        parse_xes(doc)


def test_malformed_xml_reports_position():
    with pytest.raises(XesParseError) as err:
        parse_xes("<log><trace></log>")
    assert (err.value.line, err.value.column) == (1, 14)
    assert str(err.value) == "XML syntax error: mismatched tag (line 1, column 14)"


def test_missing_mandatory_fields_are_rejected():
    with pytest.raises(XesParseError, match="missing case_id"):
        parse_xes("<log><trace/></log>")
    doc = """<log><trace><string key="case_id" value="c"/>
      <event><string key="activity" value="a"/></event></trace></log>"""
    with pytest.raises(XesParseError, match="missing mandatory timestamp"):
        parse_xes(doc)
    doc = """<log><trace><string key="case_id" value="c"/>
      <event><date key="timestamp" value="2024-01-01T00:00:00+00:00"/></event></trace></log>"""
    with pytest.raises(XesParseError, match="missing mandatory activity"):
        parse_xes(doc)


def test_a_date_outside_the_timestamp_grammar_is_a_parse_error():
    doc = """<log><trace><string key="case_id" value="c"/>
      <event><string key="activity" value="a"/>
      <date key="timestamp" value="2024-W01-1"/></event></trace></log>"""
    with pytest.raises(XesParseError, match="'timestamp'.*2024-W01-1"):
        parse_xes(doc)


@pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:00:00-02:00"])
def test_a_date_that_leaves_years_1_to_9999_in_utc_is_a_located_parse_error(stamp):
    doc = f"""<log><trace><string key="case_id" value="c"/>
      <event><string key="activity" value="a"/>
      <date key="timestamp" value="2024-01-01T00:00:00Z"/></event>
      <event><string key="activity" value="b"/>
      <date key="timestamp" value="{stamp}"/></event></trace></log>"""
    with pytest.raises(XesParseError, match="trace 0, event 1: attribute 'timestamp'.*1-9999"):
        parse_xes(doc)


def test_duplicate_case_id_rejected_at_parse_time():
    doc = """<log>
      <trace><string key="case_id" value="c"/></trace>
      <trace><string key="case_id" value="c"/></trace>
    </log>"""
    with pytest.raises(XesParseError, match="duplicate case_id"):
        parse_xes(doc)


def test_int_overflow_is_rejected():
    doc = f"""<log><int key="big" value="{2**63}"/></log>"""
    with pytest.raises(XesParseError, match="64-bit"):
        parse_xes(doc)


# --- the writer against the ElementTree writer it replaced ---------------------


def _reference_write_xes(log: Log) -> bytes:
    """The former ElementTree-based write_xes, kept as the byte reference."""

    def append(parent, key, value):
        if isinstance(value, bool):
            tag, text = "boolean", "true" if value else "false"
        elif isinstance(value, int):
            tag, text = "int", str(value)
        elif isinstance(value, float):
            tag, text = "float", repr(value)
        elif isinstance(value, datetime):
            tag, text = "date", format_timestamp(value)
        else:
            tag, text = "string", value
        ET.SubElement(parent, tag, key=key, value=text)

    root = ET.Element("log", {"xes.version": "1.0"})
    for attr in log.metadata:
        append(root, attr.key, attr.value)
    for trace in log.traces:
        trace_el = ET.SubElement(root, "trace")
        append(trace_el, "case_id", trace.case_id)
        for attr in trace.attributes:
            append(trace_el, attr.key, attr.value)
        for event in trace.events:
            event_el = ET.SubElement(trace_el, "event")
            append(event_el, "activity", event.activity)
            append(event_el, "timestamp", event.timestamp)
            for attr in event.attributes:
                append(event_el, attr.key, attr.value)
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True)


def is_xml_char(c: str) -> bool:
    """XML 1.0's Char production."""
    o = ord(c)
    return o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or o >= 0x10000


# Every Unicode category, controls XML 1.0 allows included, plus a dense mix
# of the characters the escape table handles. The model rejects the
# characters XML 1.0 cannot carry (test_text_built_through_the_api_...).
any_texts = st.one_of(
    st.text(st.characters(exclude_categories=()).filter(is_xml_char), max_size=12),
    st.text(st.sampled_from("&<>\"'\r\n\t\x7f\x85\U0001f600 a"), max_size=8),
)
nonempty_texts = any_texts.filter(bool)
any_values = st.one_of(
    any_texts,
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    stamps,
)
any_attrs = st.lists(st.builds(Attribute, nonempty_texts, any_values), max_size=4).map(tuple)
any_logs = st.builds(
    Log,
    traces=st.lists(
        st.builds(
            Trace,
            case_id=nonempty_texts,
            attributes=any_attrs,
            events=st.lists(
                st.builds(Event, activity=nonempty_texts, timestamp=stamps, attributes=any_attrs),
                max_size=3,
            ).map(tuple),
        ),
        max_size=3,
    ).map(tuple),
    metadata=any_attrs,
)


@given(any_logs)
@example(Log())
@example(Log(metadata=(Attribute("source", "a&b"),)))
@example(Log(traces=(Trace("no events"),)))
def test_write_matches_the_elementtree_writer_byte_for_byte(log):
    assert write_xes(log) == _reference_write_xes(log)


def test_write_pins_the_empty_log_and_the_escape_table():
    declaration = b"<?xml version='1.0' encoding='UTF-8'?>\n"
    assert write_xes(Log()) == declaration + b'<log xes.version="1.0" />'
    text = write_xes(Log(metadata=(Attribute('k&<>"', "\r\n\t'"),))).decode()
    assert text.splitlines()[2:] == [
        '  <string key="k&amp;&lt;&gt;&quot;" value="&#13;&#10;&#09;\'" />',
        "</log>",
    ]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Trace("c\x01"), "trace case_id 'c\\x01' holds U+0001"),
        (lambda: Event("a\x02", at(0)), "event activity 'a\\x02' holds U+0002"),
        (lambda: Attribute("k", "v\x0b"), "attribute 'k': string value holds U+000B"),
        (lambda: Attribute("k\ud800", 1), "attribute key 'k\\ud800' holds U+D800"),
        (lambda: Attribute("k", "\uffff"), "attribute 'k': string value holds U+FFFF"),
    ],
    ids=["case_id", "activity", "value", "key", "noncharacter"],
)
def test_text_xml_cannot_carry_is_rejected_naming_the_field(build, message):
    with pytest.raises(ValueError, match=re.escape(message + ", which XML 1.0 cannot carry")):
        build()


def test_the_reader_refuses_every_character_xml_cannot_carry():
    # parse_xes builds attributes and events without re-checking their text.
    outside = [c for c in map(chr, range(0x10000)) if not is_xml_char(c)]
    assert len(outside) == 2079
    for c in outside:
        for document in (
            f'<log><string key="k" value="{c}"/></log>',
            f'<log><string key="k" value="&#{ord(c)};"/></log>',
            f'<log><string key="&#x{ord(c):x};" value="v"/></log>',
        ):
            with pytest.raises(ValueError):  # an XesParseError, or a str that is not UTF-8
                parse_xes(document)


# Any text, the characters XML 1.0 cannot carry among them.
raw_texts = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.text(st.sampled_from("\x00\x01\x0b\x1f\ud800\udfff\ufffe\uffff&<\r\t a\U0001f600"), max_size=6),
)


@given(case_id=raw_texts, activity=raw_texts, key=raw_texts, value=raw_texts)
@example(case_id="c\x01", activity="a", key="k", value="v")
@example(case_id="c", activity="a\x02", key="k", value="v")
@example(case_id="c", activity="a", key="k", value="v\x0b")
@example(case_id="c", activity="a", key="case_id", value="c")
def test_text_built_through_the_api_is_rejected_or_survives_a_round_trip(
    case_id, activity, key, value
):
    texts = (case_id, activity, key, value)
    unwritable = any(not is_xml_char(c) for text in texts for c in text)
    try:
        attrs = (Attribute(key, value), Attribute(key + "_n", 1))
        log = Log(
            traces=(Trace(case_id, attrs, (Event(activity, at(0), attrs),)),),
            metadata=attrs,
        )
    except ValueError as exc:
        assert unwritable or "" in (case_id, activity, key), exc
        assert "XML 1.0 cannot carry" in str(exc) or "non-empty" in str(exc)
        return
    assert not unwritable
    assert parse_xes(write_xes(log)) == log


# --- validate_log -----------------------------------------------------------


def test_validate_clean_log_returns_no_violations(scenario_bundle):
    log, _, _, _ = scenario_bundle
    assert validate_log(log) == []


def test_validate_reports_duplicate_case_ids():
    log = mklog(tr("dup"), tr("dup"))
    codes = [v.code for v in validate_log(log)]
    assert codes == [DUPLICATE_CASE_ID]
    assert validate_log(log)[0].case_id == "dup"


def test_validate_reports_unsorted_events_with_position():
    log = mklog(tr("c1", [ev("b", at(10)), ev("a", at(0))]))
    (violation,) = validate_log(log)
    assert violation.code == UNSORTED_EVENTS
    assert violation.event_index == 0  # points at the event later than its successor


def test_validate_reports_duplicate_attribute_keys_at_each_scope():
    dup = (Attribute("k", 1), Attribute("k", 2))
    log = Log(
        traces=(
            Trace("c1", attributes=dup, events=(Event("a", at(0), attributes=dup),)),
        ),
        metadata=dup,
    )
    violations = validate_log(log)
    assert [v.code for v in violations] == [DUPLICATE_ATTRIBUTE_KEY] * 3
    assert {(v.case_id, v.event_index) for v in violations} == {
        (None, None),
        ("c1", None),
        ("c1", 0),
    }


def test_validate_accepts_equal_adjacent_timestamps():
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(0))]))
    assert validate_log(log) == []


# --- the hand-written ED fixture ---------------------------------------------


def test_ed_fixture_blank_cells_are_absent(ed_fixture_bytes):
    log = parse_xes(ed_fixture_bytes)
    enter = log.traces[0].events[0]
    assert enter.attribute_keys() == set()
    recon = log.traces[0].events[2]
    assert recon.activity == "Medicine reconciliation"
    assert recon.attribute_keys() == set()


def test_ed_fixture_roundtrips(ed_fixture_bytes):
    log = parse_xes(ed_fixture_bytes)
    assert parse_xes(write_xes(log)) == log
    assert validate_log(log) == []


# --- located semantic errors ---------------------------------------------------

_HEAD = '<log>\n  <trace>\n    <string key="case_id" value="c"/>\n'


@pytest.mark.parametrize(
    "doc,message,line",
    [
        (_HEAD + '    <event>\n      <date key="timestamp" value="2024-01-01"/>\n'
         "    </event>\n  </trace>\n</log>", "trace 0, event 0: missing mandatory activity", 4),
        (_HEAD + '    <event>\n      <string key="activity" value="a"/>\n'
         "    </event>\n  </trace>\n</log>", "trace 0, event 0: missing mandatory timestamp", 4),
        ("<log>\n  <trace>\n  </trace>\n</log>", "trace 0: missing case_id", 2),
        (_HEAD + '    <int key="n" value="x"/>\n  </trace>\n</log>',
         "trace 0: attribute 'n': invalid literal", 4),
        (_HEAD + '    <float key="n" value="x"/>\n  </trace>\n</log>',
         "trace 0: attribute 'n': could not convert", 4),
        (_HEAD + '    <boolean key="n" value="yes"/>\n  </trace>\n</log>',
         "trace 0: attribute 'n': bad boolean literal 'yes'", 4),
        (_HEAD + '    <event>\n      <string key="activity" value="a"/>\n'
         '      <date key="timestamp" value="2024-W01-1"/>\n    </event>\n  </trace>\n</log>',
         "trace 0, event 0: attribute 'timestamp': timestamp '2024-W01-1'", 6),
        (_HEAD + '    <list key="l">\n      <string key="x" value="y"/>\n    </list>\n'
         "  </trace>\n</log>", "trace 0: nested attribute <list key='l'>", 4),
        ('<log>\n\n  <container key="c"/>\n</log>', "log: nested attribute <container key='c'>", 3),
        (_HEAD + "  </trace>\n  <trace>\n    <string key=\"case_id\" value=\"c\"/>\n"
         "  </trace>\n</log>", "trace 1: duplicate case_id 'c'", 5),
        ("\n<xes>\n</xes>", "expected <log> root element, found <xes>", 2),
    ],
    ids=["activity", "timestamp", "case_id", "int", "float", "boolean", "date", "list",
         "container", "duplicate_case_id", "root"],
)
def test_semantic_errors_carry_the_line_of_the_element_they_concern(doc, message, line):
    with pytest.raises(XesParseError, match=re.escape(message)) as err:
        parse_xes(doc)
    assert (err.value.line, err.value.column) == (line, None)
    assert str(err.value).endswith(f" (line {line})")


def test_a_syntax_error_after_a_semantic_error_wins():
    with pytest.raises(XesParseError) as err:
        parse_xes("<xes>\n<trace/>\n</log>")
    assert str(err.value) == "XML syntax error: mismatched tag (line 3, column 2)"


def test_an_empty_case_id_is_a_located_parse_error():
    doc = '<log>\n  <trace>\n    <string key="case_id" value=""/>\n  </trace>\n</log>'
    with pytest.raises(XesParseError) as err:
        parse_xes(doc)
    assert str(err.value) == "trace 0: case_id must be non-empty (line 2)"


UNKNOWN_ENCODING = b"<?xml version='1.0' encoding='UT1e999'?><log/>"
UNDEFINED_ENTITY = b'<!DOCTYPE log [<!ENTITY % p SYSTEM "x">%p;]><log>&foo;</log>'


@pytest.mark.parametrize(
    "doc,message",
    [
        (UNKNOWN_ENCODING, "unsupported XML encoding 'UT1e999': unknown encoding: UT1e999"),
        (b"<?xml version='1.0' encoding='shift_jis'?><log/>",
         "unsupported XML encoding 'shift_jis': multi-byte encodings are not supported"),
    ],
)
def test_an_encoding_expat_cannot_read_is_a_located_parse_error(doc, message):
    with pytest.raises(XesParseError) as err:
        parse_xes(doc)
    assert str(err.value) == message + " (line 1, column 30)"


def test_an_undefined_entity_after_an_external_dtd_is_rejected():
    with pytest.raises(XesParseError) as err:
        parse_xes(UNDEFINED_ENTITY)
    assert str(err.value) == "XML syntax error: undefined entity &foo; (line 1, column 49)"


def test_a_str_document_ignores_its_declared_encoding():
    assert parse_xes(UNKNOWN_ENCODING.decode()) == Log()


# --- the reader against the ElementTree reader it replaced ----------------------


def _reference_attribute(element: ET.Element, where: str) -> Attribute:
    tag = element.tag.rsplit("}", 1)[-1]
    key = element.get("key")
    raw = element.get("value")
    if tag in ("list", "container"):
        raise XesParseError(
            f"{where}: nested attribute <{tag} key={key!r}> is not supported; "
            "only flat string/int/float/boolean/date attributes are accepted"
        )
    if key is None or raw is None:
        raise XesParseError(f"{where}: attribute element <{tag}> needs key and value")
    try:
        if tag == "string":
            return Attribute(key, raw)
        if tag == "int":
            return Attribute(key, int(raw))
        if tag == "float":
            return Attribute(key, float(raw))
        if tag == "boolean":
            lowered = raw.strip().lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"bad boolean literal {raw!r}")
            return Attribute(key, lowered == "true")
        if tag == "date":
            return Attribute(key, parse_timestamp(raw))
    except ValueError as exc:
        raise XesParseError(f"{where}: attribute {key!r}: {exc}") from exc
    raise XesParseError(f"{where}: unknown attribute type tag <{tag}>")


def _reference_take(attributes: list[Attribute], keys: tuple[str, ...]):
    for key in keys:
        for i, attr in enumerate(attributes):
            if attr.key == key:
                del attributes[i]
                return attr.value
    return None


def _reference_parse_xes(document: bytes | str) -> Log:
    """The former ElementTree-based parse_xes, kept as the reference."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        message = exc.msg.rpartition(": line ")[0] or exc.msg
        raise XesParseError(f"XML syntax error: {message}", line=line, column=column) from exc
    localname = root.tag.rsplit("}", 1)[-1]
    if localname != "log":
        raise XesParseError(f"expected <log> root element, found <{localname}>")
    metadata: list[Attribute] = []
    traces: list[Trace] = []
    seen_cases: set[str] = set()
    for child in root:
        tag = child.tag.rsplit("}", 1)[-1]
        if tag in ("extension", "global", "classifier"):
            continue
        if tag != "trace":
            metadata.append(_reference_attribute(child, "log"))
            continue
        trace_index = len(traces)
        attrs: list[Attribute] = []
        events: list[Event] = []
        for node in child:
            if node.tag.rsplit("}", 1)[-1] != "event":
                attrs.append(_reference_attribute(node, f"trace {trace_index}"))
                continue
            where = f"trace {trace_index}, event {len(events)}"
            event_attrs = [_reference_attribute(leaf, where) for leaf in node]
            activity = _reference_take(event_attrs, ("activity", "concept:name"))
            timestamp = _reference_take(event_attrs, ("timestamp", "time:timestamp"))
            if activity is None or not isinstance(activity, str) or not activity:
                raise XesParseError(f"{where}: missing mandatory activity")
            if timestamp is None or not isinstance(timestamp, datetime):
                raise XesParseError(f"{where}: missing mandatory timestamp")
            events.append(Event(activity, timestamp, tuple(event_attrs)))
        case_value = _reference_take(attrs, ("case_id", "concept:name"))
        if case_value is None:
            raise XesParseError(f"trace {trace_index}: missing case_id")
        case_id = str(case_value)
        if case_id in seen_cases:
            raise XesParseError(f"trace {trace_index}: duplicate case_id {case_id!r}")
        seen_cases.add(case_id)
        events.sort(key=lambda e: e.timestamp)
        traces.append(Trace(case_id, tuple(attrs), tuple(events)))
    return Log(tuple(traces), tuple(metadata))


# Attribute values, already escaped for an XML attribute, valid and not.
_STAMPS = ["2024-01-01T10:00:00Z", "2024-01-01T09:00:00+00:00", "2024-01-01T11:00:00.000+01:00",
           "2024-01-01"]
_GOOD = {
    "string": ["c1", "a&amp;b", "&#65;&#x1F600;", "&lt;x&gt;", " ", "&quot;&#10;"],
    "int": ["1", "-7", " 12 ", "9223372036854775807"],
    "float": ["1.5", "-0.0", "1e300", "nan", "inf"],
    "boolean": ["true", " FALSE "],
    "date": _STAMPS,
}
_BAD = {
    "string": [""],
    "int": ["x", "9223372036854775808", "1.0"],
    "float": ["x", ""],
    "boolean": ["yes", "1"],
    "date": ["2024-W01-1", "9999-12-31T23:00:00-02:00", "2024-01-01T1015"],
}
_TYPES = list(_GOOD)
_WILD_TAGS = ["list", "container", "id", "event", "trace", "log"]
_MISC = ["", " ", "\n  ", "text", "<!-- note -->", "<?pi data?>", "&#10;", "&amp;",
         "<![CDATA[<x/>]]>"]
_DTDS = {
    "": "",
    "internal": '<!DOCTYPE log [<!ENTITY e "ent"><!ENTITY t "<string key=\'t\' value=\'v\'/>">]>',
    "external": '<!DOCTYPE log [<!ENTITY % p SYSTEM "x">%p;]>',
}
_NS = "http://www.xes-standard.org/"


@st.composite
def xes_documents(draw):
    """Small XES-like documents: mostly valid, sometimes broken on purpose.

    They cover namespaced tags, the standard-extension aliases, structural
    elements with children, metadata after traces, tied and unsorted events,
    text, comments, processing instructions, character and entity
    references, a BOM or UTF-16, str or bytes, and undefined entities.
    """
    wild = draw(st.booleans())  # whether broken pieces may appear
    prefix = draw(st.sampled_from(["", "", "x:"]))
    dtd = draw(st.sampled_from(list(_DTDS)))
    misc_pool = _MISC + {"": [], "internal": ["&e;", "&t;"], "external": ["&foo;"] * wild}[dtd]

    def pick(options):
        return draw(st.sampled_from(options))

    def rarely() -> bool:  # a broken piece, in a sixth of the places one may go
        return wild and draw(st.integers(0, 5)) == 5

    def misc() -> str:
        return "".join(draw(st.lists(st.sampled_from(misc_pool), max_size=2)))

    def element(name: str, attrs: str, children: list[str]) -> str:
        children = draw(st.permutations(children)) if len(children) > 1 else children
        if not children and draw(st.booleans()):
            return f"<{prefix}{name}{attrs}/>"
        body = "".join(misc() + child for child in children) + misc()
        return f"<{prefix}{name}{attrs}>{body}</{prefix}{name}>"

    def attribute(keys: list, types: list[str] = _TYPES, values: list[str] | None = None) -> str:
        broken = rarely()
        tag = pick(_TYPES + _WILD_TAGS) if broken else pick(types)
        key = pick(keys + ["", None]) if broken else pick(keys)
        pool = values or _GOOD.get(tag, _GOOD["string"])
        value = pick(pool + _BAD.get(tag, [])) if broken else pick(pool)
        attrs = ("" if key is None else f' key="{key}"')
        if not (broken and draw(st.booleans())):
            attrs += f' value="{value}"'
        children = [attribute(["k"])] if draw(st.booleans()) else []  # ignored
        return element(tag, attrs, children)

    def extras(keys: list) -> list[str]:
        return [attribute(keys) for _ in range(draw(st.integers(0, 2)))]

    def event() -> str:
        children = extras(["k", "m", "concept:name", "activity"])
        if not rarely():
            activities = ["a", "b", "&#65;"]
            children.append(attribute(["activity", "concept:name"], ["string"], activities))
        if not rarely():
            children.append(attribute(["timestamp", "time:timestamp"], ["date"]))
        return element("event", "", children)

    def trace(index: int) -> str:
        children = extras(["k", "m"]) + [event() for _ in range(draw(st.integers(0, 3)))]
        if not rarely():
            cases = [f"c{index}", f"c{index}", "c0"] if wild else [f"c{index}"]
            children.append(attribute(["case_id", "concept:name"], ["string", "int"], cases))
        return element("trace", "", children)

    def structural() -> str:
        name = pick(["extension", "global", "classifier"])
        return element(name, ' name="n"', extras(["k"]) + [trace(9)] * draw(st.integers(0, 1)))

    kinds = draw(
        st.lists(st.sampled_from(["trace", "trace", "meta", "structural"]), min_size=1, max_size=5)
    )
    children = []
    for kind in kinds:
        if kind == "trace":
            children.append(trace(len(children)))
        elif kind == "meta":
            children.append(attribute(["source", "k", "concept:name"]))
        else:
            children.append(structural())
    root = pick(["xes", "trace"]) if rarely() else "log"
    namespaces = f' xmlns:x="{_NS}"' + (f' xmlns="{_NS}"' if draw(st.booleans()) else "")
    body = element(root, ' xes.version="1.0"' + namespaces, children)

    form = pick(["str", "utf-8", "utf-8-sig", "utf-16"])
    declared = {"str": "UTF-8", "utf-8-sig": "UTF-8"}.get(form, form)
    declaration = pick(["", f"<?xml version='1.0' encoding='{declared}'?>"])
    prolog = "".join(draw(st.lists(st.sampled_from(["\n", "<!-- c -->", "<?pi x?>"]), max_size=2)))
    document = declaration + prolog + _DTDS[dtd] + body
    if wild and draw(st.integers(0, 2)) == 2:  # drop a character: syntax errors anywhere
        cut = draw(st.integers(0, len(document) - 1))
        document = document[:cut] + document[cut + 1 :]
    return document if form == "str" else document.encode(form)


@given(xes_documents())
@example(UNKNOWN_ENCODING)
@example(UNDEFINED_ENTITY)
@example('<log><trace><string key="case_id" value=""/></trace></log>')
@example("<log><trace/></log")
@example(  # an event's attributes come out sorted by key, duplicates in document order
    '<log><trace><string key="case_id" value="c"/><event><int key="m" value="1"/>'
    '<string key="k" value="2"/><string key="activity" value="a"/><string key="k" value="1"/>'
    '<date key="timestamp" value="2024-01-01"/></event></trace></log>'
)
@example(  # an alias beside its preferred key stays a plain attribute, ahead of a repeat
    '<log><trace><string key="concept:name" value="t1"/><string key="case_id" value="c"/>'
    '<string key="concept:name" value="t2"/><event><string key="concept:name" value="n1"/>'
    '<string key="activity" value="a"/><string key="concept:name" value="n2"/>'
    '<date key="time:timestamp" value="2024-01-01"/><date key="timestamp" value="2024-01-02"/>'
    '<date key="time:timestamp" value="2024-01-03"/></event></trace></log>'
)
@example(
    '<log><global><int key="g" value="x"/></global><trace><string key="case_id" value="c">'
    '<event/></string><event><string key="activity" value="a"><string key="k" value="v"/>'
    '</string><date key="timestamp" value="2024-01-01"><list key="l"/></date></event>'
    '</trace><string key="after" value="traces"><trace/></string></log>'
)
@example(  # a written timestamp with a nonzero offset
    '<log><trace><string key="case_id" value="c"/><event><string key="activity" value="a"/>'
    '<date key="timestamp" value="2024-01-01T11:00:00.000+01:00"/></event></trace></log>'
)
@example(  # the last event of the last trace lacks its activity: closed after the last byte
    '<log><trace><string key="case_id" value="c"/><event><string key="activity" value="a"/>'
    '<date key="timestamp" value="2024-01-01"/></event><event>'
    '<date key="timestamp" value="2024-01-02"/></event></trace></log>'
)
@example(  # a trace without its case id, then a syntax error further on, which wins
    '<log>\n<trace>\n<event><string key="activity" value="a"/>'
    '<date key="timestamp" value="2024-01-01"/></event>\n</trace>\n'
    '<trace><string key="case_id" value="c"/></trace>\n<string key="k" value="v">\n</log>'
)
@example(  # trace attributes after the events, and a log attribute after the last trace
    '<log><string key="source" value="s"/><trace><event><string key="activity" value="a"/>'
    '<date key="timestamp" value="2024-01-01"/></event><string key="case_id" value="c"/>'
    '<float key="m" value="1.5"/></trace><trace><event><string key="activity" value="b"/>'
    '<date key="timestamp" value="2024-01-02"/></event><boolean key="k" value="true"/>'
    '<string key="case_id" value="d"/></trace><string key="after" value="traces"/></log>'
)
@example(  # a depth-5 child inside an event attribute is skipped
    '<log><trace><string key="case_id" value="c"/><event><string key="activity" value="a"/>'
    '<date key="timestamp" value="2024-01-01"/><string key="k" value="v">'
    '<int key="n" value="x"/><event/></string></event></trace></log>'
)
def test_reader_matches_the_elementtree_reference(document):
    try:
        expected = _reference_parse_xes(document)
    except XesParseError as exc:
        expected = exc
    except (LookupError, ValueError):
        # The reference crashed (an unreadable encoding, an empty case id);
        # the reader rejects the document with a location instead.
        with pytest.raises(XesParseError) as err:
            parse_xes(document)
        assert err.value.line is not None
        return
    if isinstance(expected, Log):
        assert repr(parse_xes(document)) == repr(expected)  # repr: a NaN equals itself
        return
    with pytest.raises(XesParseError) as err:
        parse_xes(document)
    got = err.value
    if expected.line is not None:  # a syntax error: same message and position
        assert (str(got), got.line, got.column) == (str(expected), expected.line, expected.column)
    else:  # a semantic error: the same message, now with a line
        assert got.line is not None and got.column is None
        assert str(got) == f"{expected} (line {got.line})"


# --- memory ----------------------------------------------------------------------


def _cyclic_garbage_of(work) -> int:
    """The objects the cyclic collector finds unreachable after `work`, run with it paused."""
    gc.collect()
    gc.disable()
    try:
        try:
            work()
        except XesParseError:
            pass
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "document",
    [
        "good",
        b'<log><trace><string key="case_id" value="c"/><event/></trace></log>',  # no activity
        b"<log><trace></log>",  # not well-formed
        UNKNOWN_ENCODING,
        UNDEFINED_ENTITY,
    ],
    ids=["parsed", "semantic", "syntax", "encoding", "entity"],
)
def test_a_parse_leaves_no_cyclic_garbage(document):
    if document == "good":
        log, _, _ = generate(GenConfig(seed=3, n_cases=5))
        document = write_xes(log)
    assert _cyclic_garbage_of(lambda: parse_xes(document)) == 0
    assert _cyclic_garbage_of(lambda: parse_xes(document, keep={"k"})) == 0


def test_parse_peaks_below_five_times_the_document_size():
    log, _, _ = generate(GenConfig(seed=7, n_cases=100))
    document = write_xes(log)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        parsed = parse_xes(document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == log
    assert peak - before < 5 * len(document)  # an ElementTree parse peaks near 12 times


def test_model_instances_carry_no_instance_dict():
    event = ev("a", at(0), k=1)
    for obj in (Attribute("k", 1), event, tr("c", [event]), mklog(tr("c"))):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_equal_keys_activities_and_string_values_of_one_document_are_one_object():
    # Each equal text is spelt out anew in the document, so expat hands the
    # reader a fresh string for each.
    log = mklog(
        tr("c1", [ev("load", at(0), plate="LPN-1", w=1.0), ev("load", at(1), step="load")],
           plate="LPN-1"),
        tr("c2", [ev("load", at(2), plate="LPN-1", w=2.0)], plate="LPN-1"),
    )
    parsed = parse_xes(write_xes(log))
    events = [e for t in parsed.traces for e in t.events]
    attributes = [a for t in parsed.traces for a in t.attributes]
    attributes += [a for e in events for a in e.attributes]
    assert len({id(a.key) for a in attributes}) == len({a.key for a in attributes}) == 3
    assert len({id(a.value) for a in attributes if a.key == "plate"}) == 1
    # An activity is a string value too, so it shares with an equal value.
    activities = {id(e.activity) for e in events}
    assert activities == {id(a.value) for a in attributes if a.key == "step"}
