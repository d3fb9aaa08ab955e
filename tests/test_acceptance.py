"""Release gate: eight shipping requirements, one test each.

Every check here re-derives its expected answer from scratch — brute-force
scans, math.fsum, hand-transcribed fixtures — instead of reusing engine code
or the unit suites' helpers, so a red test points at the engine.

Tolerances: everything is exact except decimal aggregation, which is pinned
to 1e-12 relative (with an equal absolute floor for near-zero cancellation).
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import replace
from datetime import datetime, time, timedelta, timezone

import pytest

from iotlog.enrich import correlate_event, correlate_trace, derive_value, enrich
from iotlog.plan import (
    Aggregator,
    Binding,
    CollisionPolicy,
    Correlation,
    CorrelationStrategy,
    Derivation,
    EnrichmentPlan,
    IoTContextCategory,
    ProcessContextLevel,
    SourceDecl,
    Target,
    TargetKind,
    bundled_plan,
    validate_plan,
)
from iotlog.query import (
    AttributeCompare,
    HasActivity,
    OnActivityCompare,
    Query,
    StartTimeOfDayIn,
    parse_query,
    run_query,
)
from iotlog.scenario import GenConfig, generate
from iotlog.sensors import SensorStream, build_index
from iotlog.xes import parse_xes, write_xes

from conftest import FIXTURES, at, ev, mklog, reading, readings_at, tr


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# --- 1. lossless, deterministic XES serialization -------------------------------


def test_xes_roundtrip_is_identity_and_write_is_byte_deterministic():
    for seed in range(100):
        log, _, _ = generate(GenConfig(seed=seed, n_cases=3))
        first = write_xes(log)
        parsed = parse_xes(first)
        second = write_xes(parsed)
        assert second == first, f"seed {seed}: write is not byte-deterministic"
        assert parse_xes(second) == parsed, f"seed {seed}: reparse drifted"


# --- 2. emergency-department fixture parses to the transcribed values -----------

_ED_TABLE = (
    (
        "0001",
        (
            ("Enter the ED", "2110-03-29T18:36", {}),
            (
                "Triage in the ED",
                "2110-03-29T18:36",
                {
                    "temperature": 97.0,
                    "heartrate": 68,
                    "pain": 5,
                    "acuity": 3,
                    "chiefcomplaint": "R Inguinal pain",
                },
            ),
            ("Medicine reconciliation", "2110-03-29T20:29", {}),
            (
                "Vital sign check",
                "2110-03-30T10:21",
                {"temperature": 97.9, "heartrate": 60, "pain": 2},
            ),
            ("Discharge from the ED", "2110-03-30T11:56", {}),
        ),
    ),
    (
        "0002",
        (
            ("Enter the ED", "2110-03-29T19:37", {}),
            (
                "Triage in the ED",
                "2110-03-29T19:37",
                {
                    "temperature": 99.8,
                    "heartrate": 110,
                    "pain": 0,
                    "acuity": 2,
                    "chiefcomplaint": "ETOH",
                },
            ),
            (
                "Vital sign check",
                "2110-03-29T19:38",
                {"temperature": 99.8, "heartrate": 110, "pain": 0},
            ),
            ("Discharge from the ED", "2110-03-30T06:58", {}),
        ),
    ),
    (
        "0003",
        (
            (
                "Vital sign check",
                "2110-03-30T19:40",
                {"temperature": 98.8, "heartrate": 80, "pain": 0},
            ),
            ("Enter the ED", "2110-03-30T19:40", {}),
            (
                "Triage in the ED",
                "2110-03-30T19:40",
                {
                    "temperature": 98.8,
                    "heartrate": 80,
                    "pain": 0,
                    "acuity": 4,
                    "chiefcomplaint": "EXPOSURE",
                },
            ),
        ),
    ),
)


def test_ed_fixture_parses_to_three_traces_twelve_events_with_exact_values():
    log = parse_xes((FIXTURES / "ed_visits.xes").read_bytes())
    assert len(log.traces) == 3
    assert sum(len(t.events) for t in log.traces) == 12
    for trace, (case_id, rows) in zip(log.traces, _ED_TABLE):
        assert trace.case_id == case_id
        assert len(trace.events) == len(rows)
        for event, (activity, stamp, attrs) in zip(trace.events, rows):
            assert event.activity == activity
            assert event.timestamp == datetime.fromisoformat(f"{stamp}:00+00:00")
            got = {a.key: a.value for a in event.attributes}
            # blank table cells stay absent, so the dicts must match key-for-key
            assert got == attrs, f"{case_id}/{activity}"
            for key, value in attrs.items():
                assert type(got[key]) is type(value), f"{case_id}/{activity}/{key}"


def test_ed_fixture_blank_cells_stay_absent():
    log = parse_xes((FIXTURES / "ed_visits.xes").read_bytes())
    vitals = log.traces[0].events[3]
    assert vitals.activity == "Vital sign check"
    assert vitals.get("acuity") is None and vitals.get("chiefcomplaint") is None


# --- 3. context-level restrictions ----------------------------------------------

_ALLOWED_TARGET = {
    ProcessContextLevel.EVENT: TargetKind.EVENT_ATTRIBUTE,
    ProcessContextLevel.INSTANCE: TargetKind.CASE_ATTRIBUTE,
    ProcessContextLevel.PROCESS: TargetKind.PROCESS_REPORT_ENTRY,
}
_FORBIDDEN_LEVELS = (ProcessContextLevel.ORGANISATIONAL, ProcessContextLevel.SENSOR)


def _probe_plan(level: ProcessContextLevel, kind: TargetKind) -> EnrichmentPlan:
    source = SourceDecl(
        source_id="s",
        sensor_type="temperature",
        path="s.csv",
        format="csv",
        value_type="decimal",
        category=IoTContextCategory.ENVIRONMENT,
    )
    probe = Binding(
        binding_id="b",
        source_id="s",
        level=level,
        category=IoTContextCategory.ENVIRONMENT,
        correlation=Correlation(CorrelationStrategy.SPAN_OVERLAP),
        target=Target(kind, "k"),
        derivation=Derivation(Aggregator.LAST, "float"),
    )
    return EnrichmentPlan(sources=(source,), bindings=(probe,))


def test_level_restriction_accepts_and_rejects_exactly_per_the_grid():
    for level in ProcessContextLevel:
        for kind in TargetKind:
            codes = [issue.code for issue in validate_plan(_probe_plan(level, kind))]
            if level in _FORBIDDEN_LEVELS:
                assert codes == ["FORBIDDEN_LEVEL"], (level, kind, codes)
            elif kind is _ALLOWED_TARGET[level]:
                assert codes == [], (level, kind, codes)
            else:
                assert codes == ["LEVEL_TARGET_MISMATCH"], (level, kind, codes)
    assert validate_plan(bundled_plan("scenario1")) == []
    assert validate_plan(bundled_plan("scenario2")) == []


# --- 4. the truck-logistics plan reproduces its declared schema ------------------

_BASE_CASE_KEYS = frozenset(
    {
        "customs_supervison",
        "cargo_type",
        "cargo_price",
        "yard_category",
        "means_of_payment",
        "contract_category",
    }
)
_IOT_CASE_KEYS = frozenset(
    {
        "truck_license_plate_number",
        "driver_ID",
        "driver_credit_in_port",
        "truck_blacklist",
        "truck_retrofitted",
        "truck_category",
        "cargo_location",
        "cargo_weight",
        "weather",
    }
)
_IOT_EVENT_KEYS = frozenset({"truck_location", "truck_weight"})


def test_scenario1_enrichment_reproduces_the_declared_key_sets_exactly():
    log, streams, _ = generate(GenConfig(seed=11, n_cases=50))
    result = enrich(log, build_index(streams), bundled_plan("scenario1"))
    assert result.warnings == ()
    for trace in result.log.traces:
        assert trace.attribute_keys() == _BASE_CASE_KEYS | _IOT_CASE_KEYS, trace.case_id
    event_keys: set[str] = set()
    for trace in result.log.traces:
        for event in trace.events:
            event_keys |= event.attribute_keys()
    assert event_keys == _IOT_EVENT_KEYS


# --- 5. end-to-end: query for interrupted night pickups matches ground truth -----


def test_night_interruption_query_matches_the_manifest_on_25_seeds_of_200_cases():
    plan = bundled_plan("scenario2")
    query = parse_query(
        "count where start_hour in [22:00, 06:00) "
        'and has activity "discontinue the pick-up operation"'
    )
    for seed in range(25):
        log, streams, manifest = generate(GenConfig(seed=seed, n_cases=200))
        result = enrich(log, build_index(streams), plan)
        outcome = run_query(result.log, query)
        assert outcome.errors == ()
        assert outcome.count == manifest.interrupted_night_pickups, f"seed {seed}"


# --- 6. randomized equivalence against brute-force oracles -----------------------


def _ordered(readings):
    return sorted(readings, key=lambda r: (r.timestamp, r.sensor_id))


def test_correlation_strategies_match_a_brute_force_scan():
    rng = random.Random(0xC0FFEE)
    instances = 0
    for _ in range(300):
        readings = [
            reading(
                rng.choice(("sa", "sb")),
                at(rng.randrange(600)),
                float(rng.randrange(100)),
                subject=rng.choice((None, "p1", "p2")),
            )
            for _ in range(rng.randrange(11))
        ]
        index = build_index([SensorStream("s", "temperature", tuple(readings))])
        ordered = _ordered(readings)
        events = [ev(f"a{i}", at(t)) for i, t in enumerate(sorted(rng.randrange(600) for _ in range(rng.randrange(1, 5))))]
        anchor = rng.choice(events)
        lo, hi = events[0].timestamp, events[-1].timestamp

        got, _ = correlate_event(
            Correlation(CorrelationStrategy.NEAREST_BEFORE), index, "s", anchor, events, {}, "c"
        )
        before = [r for r in ordered if r.timestamp <= anchor.timestamp]
        assert readings_at(index, "s", got) == ([before[-1]] if before else [])

        window = rng.randrange(1, 180)
        got, _ = correlate_event(
            Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=window),
            index, "s", anchor, events, {}, "c",
        )
        inside = [
            r for r in ordered
            if abs((r.timestamp - anchor.timestamp).total_seconds()) <= window
        ]
        best = min(
            inside,
            key=lambda r: (abs(r.timestamp - anchor.timestamp), r.timestamp, r.sensor_id),
            default=None,
        )
        assert readings_at(index, "s", got) == ([best] if best is not None else [])

        got, _ = correlate_trace(
            Correlation(CorrelationStrategy.SPAN_OVERLAP), index, "s", events, {}, "c"
        )
        assert readings_at(index, "s", got) == [r for r in ordered if lo <= r.timestamp <= hi]

        got, warning = correlate_trace(
            Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate"),
            index, "s", events, {"plate": "p1"}, "c",
        )
        assert warning is None
        assert readings_at(index, "s", got) == [
            r for r in ordered if r.subject_key == "p1" and lo <= r.timestamp <= hi
        ]
        instances += 4
    assert instances >= 1000


def test_derivation_aggregators_match_independent_recomputation():
    rng = random.Random(0xA66)
    for i in range(1200):
        values = [rng.uniform(-50.0, 50.0) for _ in range(rng.randrange(1, 9))]
        readings = [reading("s", at(10 * j), v) for j, v in enumerate(values)]
        threshold = rng.uniform(-60.0, 60.0)

        assert derive_value(Derivation(Aggregator.FIRST, "float"), readings) == values[0]
        assert derive_value(Derivation(Aggregator.LAST, "float"), readings) == values[-1]
        assert derive_value(Derivation(Aggregator.MIN, "float"), readings) == min(values)
        assert derive_value(Derivation(Aggregator.MAX, "float"), readings) == max(values)
        assert close(
            derive_value(Derivation(Aggregator.SUM, "float"), readings), math.fsum(values)
        )
        assert close(
            derive_value(Derivation(Aggregator.MEAN, "float"), readings),
            math.fsum(values) / len(values),
        )
        assert derive_value(
            Derivation(Aggregator.ANY_ABOVE, "boolean", threshold=threshold), readings
        ) is any(v > threshold for v in values)
        assert derive_value(
            Derivation(Aggregator.ALL_BELOW, "boolean", threshold=threshold), readings
        ) is all(v < threshold for v in values)

        boundaries = tuple(sorted({round(rng.uniform(-60.0, 60.0), 3) for _ in range(3)}))
        labels = tuple(f"l{k}" for k in range(len(boundaries) + 1))
        got = derive_value(
            Derivation(
                Aggregator.THRESHOLD_BUCKET, "string", boundaries=boundaries, labels=labels
            ),
            readings,
        )
        peak = max(values)
        want = labels[-1]
        for boundary, label in zip(boundaries, labels):
            if peak <= boundary:
                want = label
                break
        assert got == want, (i, peak, boundaries)


def test_range_queries_match_filtering_the_whole_stream():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        readings = [
            reading(rng.choice(("sa", "sb")), at(rng.randrange(650)), float(rng.randrange(50)))
            for _ in range(rng.randrange(13))
        ]
        index = build_index([SensorStream("s", "temperature", tuple(readings))])
        t1, t2 = sorted((at(rng.randrange(650)), at(rng.randrange(650))))
        got = readings_at(index, "s", index.range_query("s", t1, t2))
        assert got == [r for r in _ordered(readings) if t1 <= r.timestamp <= t2]


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _naive_compare(value, op, literal):
    if type(value) is bool or type(literal) is bool:
        if not (type(value) is bool and type(literal) is bool) or op not in ("=", "!="):
            raise TypeError
    elif isinstance(value, str) != isinstance(literal, str):
        raise TypeError
    elif not isinstance(value, (str, int, float)):
        raise TypeError
    return _OPS[op](value, literal)


def _naive_filter(flt, trace) -> bool:
    if isinstance(flt, HasActivity):
        return any(e.activity == flt.activity for e in trace.events)
    if isinstance(flt, StartTimeOfDayIn):
        if not trace.events:
            return False
        tod = trace.events[0].timestamp.astimezone(timezone.utc).time()
        if flt.start == flt.end:
            return flt.allow_wrap
        if flt.start < flt.end:
            return flt.start <= tod < flt.end
        return flt.allow_wrap and (tod >= flt.start or tod < flt.end)
    if isinstance(flt, AttributeCompare) and flt.scope == "case":
        value = trace.get(flt.key)
        return value is not None and _naive_compare(value, flt.op, flt.literal)
    events = trace.events
    if isinstance(flt, OnActivityCompare):
        events = [e for e in events if e.activity == flt.activity]
    hits = []
    for event in events:
        value = event.get(flt.key)
        if value is not None:
            hits.append(_naive_compare(value, flt.op, flt.literal))
    return any(hits)


def _naive_run(log, query):
    matched, mismatched = [], []
    for trace in log.traces:
        try:
            if all(_naive_filter(f, trace) for f in query.filters):
                matched.append(trace.case_id)
        except TypeError:
            mismatched.append(trace.case_id)
    return matched, mismatched


def _random_trace(rng, i):
    attrs = {}
    if rng.random() < 0.8:
        attrs["p"] = rng.randrange(6)
    if rng.random() < 0.5:
        attrs["label"] = rng.choice("xyz")
    if rng.random() < 0.5:
        attrs["ok"] = rng.random() < 0.5
    if rng.random() < 0.2:  # a date-valued attribute can only ever mismatch
        attrs["dt"] = at(rng.randrange(600))
    events = []
    for _ in range(rng.randrange(4)):
        eattrs = {}
        if rng.random() < 0.6:
            eattrs["q"] = rng.choice((rng.randrange(6), rng.choice("xyz")))
        events.append(ev(rng.choice(("alpha", "beta")), at(rng.randrange(0, 86400)), **eattrs))
    events.sort(key=lambda e: e.timestamp)
    return tr(f"c{i}", events, **attrs)


def _random_filter(rng):
    op = rng.choice(list(_OPS))
    literal = rng.choice((rng.randrange(6), rng.choice("xyz"), rng.random() < 0.5))
    pick = rng.randrange(5)
    if pick == 0:
        return HasActivity(rng.choice(("alpha", "beta", "gamma")))
    if pick == 1:
        return AttributeCompare("case", rng.choice(("p", "label", "ok", "dt", "nope")), op, literal)
    if pick == 2:
        return AttributeCompare("event", "q", op, literal)
    if pick == 3:
        return OnActivityCompare(rng.choice(("alpha", "beta")), "q", op, literal)
    return StartTimeOfDayIn(
        time(rng.randrange(24), rng.choice((0, 15, 30, 45))),
        time(rng.randrange(24), rng.choice((0, 15, 30, 45))),
    )


def test_query_evaluation_matches_a_naive_scan():
    rng = random.Random(0xBEEF)
    for i in range(1000):
        log = mklog(*(_random_trace(rng, t) for t in range(rng.randrange(1, 7))))
        query = Query("cases", tuple(_random_filter(rng) for _ in range(rng.randrange(4))))
        got = run_query(log, query)
        matched, mismatched = _naive_run(log, query)
        assert list(got.case_ids) == matched, (i, query)
        assert [e.case_id for e in got.errors] == mismatched, (i, query)


# --- 7. enrichment only ever adds --------------------------------------------


def _assert_conserved(original, enriched, derived_count):
    assert [t.case_id for t in enriched.traces] == [t.case_id for t in original.traces]
    for before, after in zip(original.traces, enriched.traces):
        kept = {a.key: a.value for a in after.attributes}
        for a in before.attributes:
            assert kept[a.key] == a.value, (before.case_id, a.key)
        assert len(after.events) == len(before.events) + derived_count[before.case_id]
        walker = iter(after.events)
        for old in before.events:
            for new in walker:
                if new.activity == old.activity and new.timestamp == old.timestamp:
                    grown = {a.key: a.value for a in new.attributes}
                    if all(grown.get(a.key) == a.value for a in old.attributes):
                        break
            else:
                pytest.fail(f"{before.case_id}: lost event {old.activity}@{old.timestamp}")


def test_enrichment_is_purely_additive_and_skip_reruns_are_idempotent():
    log, streams, _ = generate(GenConfig(seed=5, n_cases=40))
    index = build_index(streams)
    for name in ("scenario1", "scenario2"):
        plan = bundled_plan(name)
        once = enrich(log, index, plan)
        derived = Counter(
            rec.case_id for rec in once.audit if rec.kind == "derived_event"
        )
        _assert_conserved(log, once.log, derived)
        assert len(once.audit) == once.additions

        skip = replace(plan, collision_policy=CollisionPolicy.SKIP)
        twice = enrich(once.log, index, skip)
        assert twice.log == once.log, name
        assert twice.additions == 0, name


# --- 8. process metrics live in the report, never in the log ---------------------


def test_process_metrics_stay_out_of_the_log_and_match_independent_aggregation():
    log, streams, _ = generate(GenConfig(seed=3, n_cases=30))
    result = enrich(log, build_index(streams), bundled_plan("scenario1"))
    metrics = {"mean_cargo_weight", "mean_empty_truck_weight"}

    assert set(result.report.entries) == metrics
    assert result.report.case_count == 30
    for trace in result.log.traces:
        assert not (metrics & trace.attribute_keys())
        for event in trace.events:
            assert not (metrics & event.attribute_keys())
    payload = write_xes(result.log)
    for name in metrics:
        assert name.encode() not in payload

    streams_by_id = {s.source_id: s for s in streams}

    def independent_mean(source_id: str, pick) -> float:
        ordered = _ordered(streams_by_id[source_id].readings)
        per_case = []
        for trace in log.traces:
            lo, hi = trace.events[0].timestamp, trace.events[-1].timestamp
            inside = [r.value for r in ordered if lo <= r.timestamp <= hi]
            if inside:
                per_case.append(float(pick(inside)))
        return math.fsum(per_case) / len(per_case)

    assert close(
        result.report.entries["mean_cargo_weight"],
        independent_mean("weight_cargo", lambda xs: xs[-1]),
    )
    assert close(
        result.report.entries["mean_empty_truck_weight"],
        independent_mean("weight", lambda xs: xs[0]),
    )
