"""XES model, parser and writer tests.

The serialization contract is the backbone of everything downstream, so this
module leans on property tests: random logs must survive a write/parse
roundtrip unchanged, writing must be byte-deterministic, and the direct
writer must match the ElementTree writer it replaced byte for byte.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotlog.timeutil import format_timestamp
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


# Every Unicode category, Cc (control) and Cs (lone surrogates) included,
# plus a dense mix of the characters the escape table handles.
any_texts = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.text(st.sampled_from("&<>\"'\r\n\t\x00\x0b\x85\ud800\udfff\ufffe\U0001f600 a"), max_size=8),
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
    text = write_xes(Log(metadata=(Attribute('k&<>"', "\r\n\t'\ud800"),))).decode()
    assert text.splitlines()[2:] == [
        '  <string key="k&amp;&lt;&gt;&quot;" value="&#13;&#10;&#09;\'&#55296;" />',
        "</log>",
    ]


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
