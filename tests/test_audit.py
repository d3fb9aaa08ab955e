"""The audit trail `iotlog enrich` writes: one JSON object per addition.

A record's readings are written as positions into its source's sorted
stream (docs/audit-format.md). These tests resolve every position through a
fresh `load_stream` and compare the rest of each line with the former
writer, which copied every reading in full. The writer before this one
found each reading's position by identity; it is kept here as a reference
for the text of drawn enrichments.
"""

from __future__ import annotations

import dataclasses
import io
import json
from array import array
from datetime import datetime, timezone
from importlib import resources
from operator import is_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotlog import cli
from iotlog.enrich import AuditRecord, enrich
from iotlog.plan import CorrelationStrategy, bundled_plan, parse_plan
from iotlog.sensors import SensorStream, build_index, load_stream
from iotlog.timeutil import format_timestamp
from iotlog.xes import parse_xes, write_xes

from conftest import at, ev, mklog, reading, readings_at, tr


def reference_json_value(value):
    if isinstance(value, datetime):
        return format_timestamp(value)
    return value


def reference_audit_row(record, readings) -> dict:
    """The former audit line, which copied each of the record's readings instead
    of pointing at it."""
    row = {
        "kind": record.kind,
        "case_id": record.case_id,
        "binding_id": record.binding_id,
        "source_id": record.source_id,
        "key": record.key,
        "value": reference_json_value(record.value),
        "readings": [
            {
                "sensor_id": r.sensor_id,
                "timestamp": format_timestamp(r.timestamp),
                "value": reference_json_value(r.value),
                **({"subject_key": r.subject_key} if r.subject_key else {}),
            }
            for r in readings
        ],
    }
    if record.event_index is not None:
        row["event_index"] = record.event_index
    if record.replaced is not None:
        row["replaced"] = reference_json_value(record.replaced)
    return row


def _rows(out) -> list[dict]:
    return [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]


def _enrich_cli(data, plan, log, out) -> int:
    return cli.main(
        ["enrich", "--log", str(log), "--plan", str(plan), "--sensors", str(data), "--out", str(out)]
    )


@pytest.mark.parametrize(
    "plan_name, strategies, kinds",
    [
        (
            "scenario1",
            {CorrelationStrategy.SPAN_OVERLAP, CorrelationStrategy.NEAREST_BEFORE},
            {"case_attribute", "event_attribute"},
        ),
        (
            "scenario2",
            {CorrelationStrategy.SPAN_OVERLAP, CorrelationStrategy.SUBJECT_KEY_EQUALS},
            {"case_attribute", "derived_event"},
        ),
    ],
)
def test_audit_positions_resolve_to_the_records_readings(
    scenario_bundle, tmp_path, plan_name, strategies, kinds
):
    _, _, _, data = scenario_bundle
    plan = bundled_plan(plan_name)
    index = build_index(load_stream(decl, data) for decl in plan.sources)
    result = enrich(parse_xes((data / "log.xes").read_bytes()), index, plan)
    cli._write_enrichment(result, str(tmp_path))
    rows = _rows(tmp_path)

    # A fresh load: equal readings, not the objects the writer saw.
    streams = {decl.source_id: load_stream(decl, data).readings for decl in plan.sources}
    assert len(rows) == len(result.audit)
    for row, record in zip(rows, result.audit):
        positions = row["readings"]
        assert all(type(p) is int for p in positions) and positions == list(record.readings)
        readings = readings_at(index, record.source_id, record.readings)
        assert [streams[record.source_id][p] for p in positions] == readings
        reference = reference_audit_row(record, readings)
        assert list(row) == list(reference)
        assert {**row, "readings": None} == {**reference, "readings": None}

    # Between them the two plans cover the nearest, span, subject and derived-event paths.
    assert {r["kind"] for r in rows} == kinds
    used = {r["binding_id"] for r in rows if r["readings"]}
    by_id = {b.binding_id: b.correlation.strategy for b in plan.bindings}
    assert {by_id[b] for b in used if b in by_id} == strategies


def test_identical_csv_rows_get_distinct_positions(tmp_path):
    (tmp_path / "hold.csv").write_text(
        "timestamp,value\n"
        f"{format_timestamp(at(30))},1.5\n"
        f"{format_timestamp(at(30))},1.5\n"
        f"{format_timestamp(at(10))},2.0\n"  # sorts first
    )
    (tmp_path / "log.xes").write_bytes(write_xes(mklog(tr("c1", [ev("a", at(0)), ev("b", at(60))]))))
    plan = {
        "plan_version": 1,
        "sources": [
            {"source_id": "hold", "sensor_type": "temperature", "path": "hold.csv",
             "format": "csv", "value_type": "decimal", "category": "environment"}
        ],
        "bindings": [
            {
                "binding_id": "b",
                "source_id": "hold",
                "level": "instance",
                "category": "environment",
                "correlation": {"strategy": "span_overlap"},
                "derivation": {"aggregator": "sum", "output_type": "float"},
                "target": {"kind": "case_attribute", "key": "total"},
            }
        ],
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert _enrich_cli(tmp_path, tmp_path / "plan.json", tmp_path / "log.xes", out) == 0
    [row] = _rows(out)
    assert row["value"] == 5.0 and row["readings"] == [0, 1, 2]


def test_an_overwrite_run_writes_what_it_replaced(scenario_bundle, tmp_path, capsys):
    _, _, _, data = scenario_bundle
    plan = json.loads(resources.files("iotlog.plans").joinpath("scenario1.json").read_text())
    plan["collision_policy"] = "overwrite"
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    first, second = tmp_path / "first", tmp_path / "second"
    assert _enrich_cli(data, tmp_path / "plan.json", data / "log.xes", first) == 0
    # Enriching the enriched log again meets every key it wrote and overwrites it.
    assert _enrich_cli(data, tmp_path / "plan.json", first / "enriched.xes", second) == 0
    capsys.readouterr()
    before, after = _rows(first), _rows(second)
    assert len(after) == len(before) > 0
    assert all("replaced" not in row for row in before)
    assert after == [{**row, "replaced": row["value"]} for row in before]


def test_each_line_is_the_json_dumps_of_its_row():
    # Texts json.dumps escapes (non-ASCII, quotes, backslashes, control
    # characters), repeated, as the writer encodes each distinct one once.
    texts = ["plain", "caf\u00e9 \U0001f69a", 'q"uote\\', "tab\tnew\nline"]
    values = [texts[1], 1.5, True, 7, at(5), texts[1]]
    # Positions as the engine gives them: a range, an array('q') or a tuple.
    positions = [range(0), range(1, 3), array("q", [0, 2]), (2,)]
    records = [
        AuditRecord(
            "case_attribute" if n % 2 else "event_attribute", texts[n % 4], texts[(n + 1) % 4],
            "s", texts[(n + 2) % 4], value, positions[n % 4], n % 3 or None,
            (None, texts[0], at(9))[n % 3],
        )
        for n, value in enumerate(values)
    ]
    handle = io.StringIO()
    cli._write_audit(handle, records)
    expected = []
    for record in records:
        row = reference_audit_row(record, ())
        row["readings"] = list(record.readings)
        expected.append(json.dumps(row) + "\n")
    assert handle.getvalue() == "".join(expected)


# Values whose JSON json.dumps spells in its own way: non-finite floats, -0.0,
# floats that repr in exponent form, ints at the 64-bit bounds, datetimes,
# and strings that need escapes.
audit_values = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-7]),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1]),
    st.booleans(),
    st.datetimes(timezones=st.just(timezone.utc)),
    st.text(),
    st.sampled_from(['q"uote\\', "tab\tnew\nline", "caf\u00e9 \U0001f69a", "\x00"]),
)


def stretches(n: int):
    """Increasing positions into a stream of n readings, as the engine gives them:
    one contiguous stretch as a range, or any subset as an array('q') or a tuple."""
    if not n:
        return st.just(range(0))
    contiguous = st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda bounds: range(min(bounds), max(bounds))
    )
    subsets = st.sets(st.integers(0, n - 1)).map(sorted)
    return contiguous | subsets.map(lambda p: array("q", p)) | subsets.map(tuple)


def reference_write_audit(handle, audit, index) -> None:
    """The former `cli._write_audit`, whose records held readings, not positions.

    It found each reading's position in its source's stream by identity,
    through a map built per stream, and wrote readings that are the very
    objects of one stretch of the stream as that stretch.
    """
    text = cli._Encoded()
    streams = {}
    for record in audit:
        readings = record.readings
        if not readings:
            positions = ""
        else:
            stream = streams.get(record.source_id)
            if stream is None:
                all_readings = index.stream(record.source_id).readings
                stream = streams[record.source_id] = (
                    all_readings, {id(r): p for p, r in enumerate(all_readings)}
                )
            all_readings, at_ = stream
            lo = at_[id(readings[0])]
            hi = lo + len(readings)
            if len(readings) == 1:
                positions = str(lo)
            elif hi <= len(all_readings) and all(map(is_, all_readings[lo:hi], readings)):
                positions = ", ".join(map(str, range(lo, hi)))
            else:
                positions = ", ".join([str(at_[id(r)]) for r in readings])
        line = (
            f'{{"kind": {text[record.kind]}, "case_id": {text[record.case_id]}, '
            f'"binding_id": {text[record.binding_id]}, "source_id": {text[record.source_id]}, '
            f'"key": {text[record.key]}, "value": {cli._json_text(record.value, text, {})}, '
            f'"readings": [{positions}]'
        )
        if record.event_index is not None:
            line += f', "event_index": {record.event_index}'
        if record.replaced is not None:
            line += f', "replaced": {cli._json_text(record.replaced, text, {})}'
        handle.write(line + "}\n")


def reference_audit_text(audit, index) -> str:
    """The former writer's text for records whose positions are resolved to readings."""
    resolved = [
        dataclasses.replace(
            record, readings=tuple(readings_at(index, record.source_id, record.readings))
        )
        for record in audit
    ]
    handle = io.StringIO()
    reference_write_audit(handle, resolved, index)
    return handle.getvalue()


@given(
    st.lists(st.tuples(audit_values, st.none() | audit_values), min_size=1, max_size=4),
    st.integers(0, 40),
    st.integers(1, 40),
    st.data(),
)
def test_each_line_is_the_json_dumps_of_its_row_on_drawn_values(
    values_and_replaced, size, twins, data
):
    # Every `twins` readings in a row are equal but distinct, as identical
    # CSV rows are. So the former writer, which resolved readings by
    # identity, wrote a record that skips one and takes its equal twin
    # apart from the stretch it skipped from.
    readings = tuple(reading("s", at(t // twins), 1.0) for t in range(size))
    index = build_index([SensorStream("s", "temperature", readings)])
    records = [
        AuditRecord(
            "case_attribute", "c1", "b", "s", "k", value,
            data.draw(stretches(size)), n % 2 or None, replaced,
        )
        for n, (value, replaced) in enumerate(values_and_replaced)
    ]
    handle = io.StringIO()
    cli._write_audit(handle, records)
    expected = []
    for record in records:
        row = reference_audit_row(record, ())
        row["readings"] = list(record.readings)
        expected.append(json.dumps(row) + "\n")
    assert handle.getvalue() == "".join(expected) == reference_audit_text(records, index)


# A small drawn enrichment: two sources whose readings tie on a grid of
# seconds, with subject keys; traces with and without a plate; and a plan
# with every strategy and an event rule.
grid_rows = st.lists(
    st.tuples(
        st.integers(0, 8), st.sampled_from("ab"), st.sampled_from([10.0, 30.0, 40.0]),
        st.sampled_from(["p1", "p2", None]),
    ),
    max_size=15,
)
drawn_traces = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 8), st.sampled_from("abc")), max_size=4),
        st.sampled_from([{}, {"plate": "p1"}, {"plate": "p2"}, {"plate": "p3"}]),
    ),
    min_size=1,
    max_size=3,
)


def _binding(binding_id, source_id, correlation, target, aggregator="last"):
    level = "event" if target["kind"] == "event_attribute" else "instance"
    return {
        "binding_id": binding_id, "source_id": source_id, "level": level,
        "category": "environment", "correlation": correlation, "target": target,
        "derivation": {"aggregator": aggregator, "output_type": "float"},
    }


DRAWN_PLAN = {
    "plan_version": 1,
    "collision_policy": "overwrite",
    "sources": [
        {"source_id": sid, "sensor_type": "temperature", "path": f"{sid}.csv",
         "format": "csv", "value_type": "decimal", "category": "environment"}
        for sid in ("s", "u")
    ],
    "bindings": [
        _binding("span", "s", {"strategy": "span_overlap"},
                 {"kind": "case_attribute", "key": "mean_s"}, "mean"),
        _binding("before", "u", {"strategy": "nearest_before"},
                 {"kind": "event_attribute", "key": "u_before"}),
        _binding("within", "s", {"strategy": "nearest_within", "window_seconds": 2},
                 {"kind": "event_attribute", "key": "s_within", "activity_filter": ["a", "b"]}),
        _binding("plate", "u", {"strategy": "subject_key_equals", "subject_attribute": "plate"},
                 {"kind": "event_attribute", "key": "u_plate"}),
        _binding("case", "s", {"strategy": "subject_key_equals", "subject_attribute": "case_id"},
                 {"kind": "case_attribute", "key": "s_case"}),
    ],
    "event_rules": [
        {"rule_id": "hot", "source_id": "s", "correlation": {"strategy": "span_overlap"},
         "condition": {"op": "above", "threshold": 20.0}, "activity": "alarm"},
    ],
}


@given(drawn_traces, grid_rows, grid_rows)
def test_audit_text_of_drawn_enrichments_matches_the_identity_writer(traces, s_rows, u_rows):
    log = mklog(
        *(
            tr("p1" if n == 2 else f"c{n}", [ev(a, at(t)) for t, a in sorted(body)], **plate)
            for n, (body, plate) in enumerate(traces)
        )
    )
    index = build_index(
        [
            SensorStream(
                source_id,
                "temperature",
                tuple(reading(sensor, at(t), v, subject=k) for t, sensor, v, k in rows),
            )
            for source_id, rows in (("s", s_rows), ("u", u_rows))
        ]
    )
    result = enrich(log, index, parse_plan(DRAWN_PLAN))
    handle = io.StringIO()
    cli._write_audit(handle, result.audit)
    assert handle.getvalue() == reference_audit_text(result.audit, index)
