"""The audit trail `iotlog enrich` writes: one JSON object per addition.

A record's readings are written as positions into its source's sorted
stream (docs/audit-format.md). These tests resolve every position through a
fresh `load_stream` and compare the rest of each line with the former
writer, which copied every reading in full.
"""

from __future__ import annotations

import io
import json
from datetime import datetime, timezone
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotlog import cli
from iotlog.enrich import AuditRecord, enrich
from iotlog.plan import CorrelationStrategy, bundled_plan
from iotlog.sensors import SensorStream, build_index, load_stream
from iotlog.timeutil import format_timestamp
from iotlog.xes import parse_xes, write_xes

from conftest import at, ev, mklog, reading, tr


def reference_json_value(value):
    if isinstance(value, datetime):
        return format_timestamp(value)
    return value


def reference_audit_row(record) -> dict:
    """The former audit line, which copied each reading instead of pointing at it."""
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
            for r in record.readings
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
    cli._write_enrichment(result, index, str(tmp_path))
    rows = _rows(tmp_path)

    # A fresh load: equal readings, not the objects the writer saw.
    streams = {decl.source_id: load_stream(decl, data).readings for decl in plan.sources}
    assert len(rows) == len(result.audit)
    for row, record in zip(rows, result.audit):
        positions = row["readings"]
        assert all(type(p) is int for p in positions)
        assert [streams[record.source_id][p] for p in positions] == list(record.readings)
        reference = reference_audit_row(record)
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
    readings = tuple(reading("s", at(t), 1.0) for t in range(3))
    index = build_index([SensorStream("s", "temperature", readings)])
    records = [
        AuditRecord(
            "case_attribute" if n % 2 else "event_attribute", texts[n % 4], texts[(n + 1) % 4],
            "s", texts[(n + 2) % 4], value, readings[: n % 4], n % 3 or None,
            (None, texts[0], at(9))[n % 3],
        )
        for n, value in enumerate(values)
    ]
    handle = io.StringIO()
    cli._write_audit(handle, records, index)
    expected = []
    for record in records:
        row = reference_audit_row(record)
        row["readings"] = [readings.index(r) for r in record.readings]
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
    """Increasing positions into a stream of n readings: one contiguous stretch, or any subset."""
    if not n:
        return st.just([])
    contiguous = st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda bounds: list(range(min(bounds), max(bounds)))
    )
    return contiguous | st.sets(st.integers(0, n - 1)).map(sorted)


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
    # CSV rows are. So a record that skips one and takes its equal twin
    # compares equal to the stretch it skipped from, but is not that stretch.
    readings = tuple(reading("s", at(t // twins), 1.0) for t in range(size))
    index = build_index([SensorStream("s", "temperature", readings)])
    stream = index.stream("s").readings
    records = [
        AuditRecord(
            "case_attribute", "c1", "b", "s", "k", value,
            tuple(stream[p] for p in data.draw(stretches(size))), n % 2 or None, replaced,
        )
        for n, (value, replaced) in enumerate(values_and_replaced)
    ]
    handle = io.StringIO()
    cli._write_audit(handle, records, index)
    expected = []
    for record in records:
        row = reference_audit_row(record)
        row["readings"] = [
            next(p for p, r in enumerate(stream) if r is x) for x in record.readings
        ]
        expected.append(json.dumps(row) + "\n")
    assert handle.getvalue() == "".join(expected)
