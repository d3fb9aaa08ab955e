"""Enrichment engine tests.

Correlation strategies and derivation aggregators are compared against
brute-force scans written independently of the engine; the enrich() pass is
then checked for its structural guarantees (conservation, idempotence,
collision policies, audit completeness, report separation).
"""

from __future__ import annotations

import importlib
import io
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotlog import cli
from iotlog.enrich import (
    DERIVED_FROM_KEY,
    AuditRecord,
    CollisionError,
    DerivationError,
    InvalidLogError,
    InvalidPlanError,
    correlate_event,
    correlate_trace,
    derive_events,
    derive_value,
    enrich,
)
from iotlog.plan import (
    Aggregator,
    Binding,
    CollisionPolicy,
    Condition,
    Correlation,
    CorrelationStrategy,
    Derivation,
    EnrichmentPlan,
    EventDerivationRule,
    LEVEL_TARGETS,
    IoTContextCategory,
    ProcessContextLevel,
    SourceDecl,
    Target,
    TargetKind,
)
from iotlog.sensors import SensorReading, SensorStream, StreamIndex, build_index
from iotlog.xes import Attribute, Event, Trace

from conftest import at, ev, mklog, reading, readings_at, tr

# The package attribute `iotlog.enrich` is the function; import_module gives the module.
ENGINE = importlib.import_module("iotlog.enrich")

SPAN = Correlation(CorrelationStrategy.SPAN_OVERLAP)
BEFORE = Correlation(CorrelationStrategy.NEAREST_BEFORE)


def stream(source_id: str, readings) -> SensorStream:
    return SensorStream(source_id, "temperature", tuple(readings))


def declare(source_id: str, value_type: str = "decimal") -> SourceDecl:
    return SourceDecl(
        source_id=source_id,
        sensor_type="temperature",
        path=f"{source_id}.csv",
        format="csv",
        value_type=value_type,
        category=IoTContextCategory.ENVIRONMENT,
    )


def binding(
    binding_id: str,
    source_id: str,
    *,
    level=ProcessContextLevel.INSTANCE,
    kind=TargetKind.CASE_ATTRIBUTE,
    key: str = "reading",
    correlation=SPAN,
    derivation=Derivation(Aggregator.LAST, "float"),
    activity_filter=(),
) -> Binding:
    return Binding(
        binding_id=binding_id,
        source_id=source_id,
        level=level,
        category=IoTContextCategory.ENVIRONMENT,
        correlation=correlation,
        target=Target(kind, key, tuple(activity_filter)),
        derivation=derivation,
    )


# --- correlation vs brute force ------------------------------------------------

rows = st.lists(st.tuples(st.integers(0, 400), st.sampled_from("ab")), max_size=30)
anchors = st.integers(0, 400)


@given(rows, anchors)
def test_nearest_before_matches_scan(rows, anchor):
    readings = [reading(sid, at(sec), float(sec)) for sec, sid in rows]
    index = build_index([stream("s", readings)])
    got, warning = correlate_event(BEFORE, index, "s", ev("a", at(anchor)), [], {}, "c")
    candidates = sorted(
        (r for r in readings if r.timestamp <= at(anchor)),
        key=lambda r: (r.timestamp, r.sensor_id),
    )
    assert warning is None
    assert readings_at(index, "s", got) == ([candidates[-1]] if candidates else [])


def reference_nearest_within(index, source_id, t, window_seconds):
    """The former window scan of nearest_within: the minimum of (distance, timestamp,
    sensor_id) over every reading in [t - w, t + w], the first of equal ones."""
    window = timedelta(seconds=window_seconds)
    best, best_key = None, None
    for r in readings_at(index, source_id, index.range_query(source_id, t - window, t + window)):
        key = (abs(r.timestamp - t), r.timestamp, r.sensor_id)
        if best_key is None or key < best_key:
            best, best_key = r, key
    return best


# Tied timestamps, several sensor ids and repeated (timestamp, sensor_id)
# pairs on a grid of half seconds; anchors on the grid, between it and on a
# millisecond, so readings lie at equal distances on both sides and exactly
# at t - w or t + w, and windows come up empty.
window_rows = st.lists(
    st.tuples(st.integers(0, 80), st.sampled_from("abc"), st.integers(0, 2)), max_size=30
)


@given(
    window_rows,
    st.integers(0, 80).map(lambda n: n / 2) | st.sampled_from([0.25, 10.001, 39.999]),
    st.sampled_from([0.0015, 0.5, 1, 1.5, 2, 7, 60]),
)
def test_nearest_within_matches_scan_with_tie_break(rows, anchor, window):
    readings = [reading(sid, at(half / 2), float(n)) for half, sid, n in rows]
    index = build_index([stream("s", readings)])
    correlation = Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=window)
    expected = reference_nearest_within(index, "s", at(anchor), window)
    got = index.nearest("s", at(anchor), timedelta(seconds=window))
    # Identity: the first of equal readings in file order.
    assert (None if got is None else index.stream("s").readings[got]) is expected
    t = ev("a", at(anchor)).timestamp  # an event's timestamp is whole milliseconds
    got, _ = correlate_event(correlation, index, "s", ev("a", t), [], {}, "c")
    expected = reference_nearest_within(index, "s", t, window)
    got = readings_at(index, "s", got)
    assert len(got) == (expected is not None) and all(r is expected for r in got)


def test_nearest_within_keeps_a_sub_millisecond_window_closed():
    readings = [reading("a", at(0), 0.0), reading("b", at(0.004), 4.0)]
    index = build_index([stream("s", readings)])
    correlation = Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=0.0015)
    # Both readings lie 2 ms from the anchor, outside its 1.5 ms window.
    got, _ = correlate_event(correlation, index, "s", ev("a", at(0.002)), [], {}, "c")
    assert readings_at(index, "s", got) == []
    got, _ = correlate_event(correlation, index, "s", ev("a", at(0.001)), [], {}, "c")
    assert [r.value for r in readings_at(index, "s", got)] == [0.0]


@given(rows, st.integers(0, 400), st.integers(0, 400))
def test_span_overlap_matches_scan(rows, a, b):
    lo, hi = min(a, b), max(a, b)
    readings = [reading(sid, at(sec), float(sec)) for sec, sid in rows]
    index = build_index([stream("s", readings)])
    events = [ev("start", at(lo)), ev("end", at(hi))]
    got, _ = correlate_trace(SPAN, index, "s", events, {}, "c")
    expected = [
        r
        for r in sorted(readings, key=lambda r: (r.timestamp, r.sensor_id))
        if at(lo) <= r.timestamp <= at(hi)
    ]
    assert readings_at(index, "s", got) == expected


@given(rows, st.booleans())
def test_subject_key_equals_matches_scan(rows, use_case_id):
    readings = [
        reading(sid, at(sec), float(sec), subject="LPN-1" if sec % 2 else "LPN-2")
        for sec, sid in rows
    ]
    index = build_index([stream("s", readings)])
    events = [ev("start", at(0)), ev("end", at(400))]
    correlation = Correlation(
        CorrelationStrategy.SUBJECT_KEY_EQUALS,
        subject_attribute="case_id" if use_case_id else "plate",
    )
    got, warning = correlate_trace(
        correlation, index, "s", events, {"plate": "LPN-1"}, "LPN-1"
    )
    expected = [
        r
        for r in sorted(readings, key=lambda r: (r.timestamp, r.sensor_id))
        if r.subject_key == "LPN-1" and at(0) <= r.timestamp <= at(400)
    ]
    assert warning is None
    assert readings_at(index, "s", got) == expected


subject_rows = st.lists(
    st.tuples(
        st.integers(0, 8), st.sampled_from("ab"), st.sampled_from(["LPN-1", "LPN-2", None])
    ),
    max_size=20,
)


@given(
    st.fixed_dictionaries({"s": subject_rows, "u": subject_rows, "v": subject_rows}),
    st.sampled_from(["s", "u", "v"]),
    st.sampled_from(["LPN-1", "LPN-2", "LPN-3"]),
    st.lists(st.integers(0, 8), min_size=1, max_size=3).map(sorted),
)
def test_subject_key_equals_across_sources_matches_a_stream_scan(rows, source_id, subject, times):
    # Only source "v" ever carries LPN-3, so asking another source for it must find nothing.
    rows = {**rows, "v": [(sec, sensor, key or "LPN-3") for sec, sensor, key in rows["v"]]}
    index = build_index(
        [
            stream(sid, [reading(sensor, at(sec), float(sec), key) for sec, sensor, key in body])
            for sid, body in rows.items()
        ]
    )
    events = [ev("a", at(sec)) for sec in times]
    correlation = Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate")
    got, warning = correlate_trace(correlation, index, source_id, events, {"plate": subject}, "c")
    first, last = at(times[0]), at(times[-1])
    expected = [
        r
        for r in index.streams[source_id].readings
        if r.subject_key == subject and first <= r.timestamp <= last
    ]
    assert warning is None
    assert readings_at(index, source_id, got) == expected


def test_trace_scope_nearest_strategies_anchor_on_the_last_event():
    readings = [reading("s", at(sec), float(sec)) for sec in (10, 50, 90)]
    index = build_index([stream("s", readings)])
    events = [ev("start", at(20)), ev("end", at(60))]
    got, _ = correlate_trace(BEFORE, index, "s", events, {}, "c")
    assert [r.value for r in readings_at(index, "s", got)] == [50.0]


def test_subject_attribute_integer_values_are_coerced():
    readings = [reading("s", at(5), 1.0, subject="77")]
    index = build_index([stream("s", readings)])
    events = [ev("a", at(0)), ev("b", at(10))]
    got, warning = correlate_trace(
        Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="driver"),
        index,
        "s",
        events,
        {"driver": 77},
        "c",
    )
    assert warning is None and [r.value for r in readings_at(index, "s", got)] == [1.0]


def test_subject_attribute_missing_or_untyped_warns_and_matches_nothing():
    index = build_index([stream("s", [reading("s", at(5), 1.0, subject="x")])])
    events = [ev("a", at(0)), ev("b", at(10))]
    correlation = Correlation(
        CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="driver"
    )
    got, warning = correlate_trace(correlation, index, "s", events, {}, "c")
    assert readings_at(index, "s", got) == [] and "missing" in warning
    got, warning = correlate_trace(correlation, index, "s", events, {"driver": 1.5}, "c")
    assert readings_at(index, "s", got) == [] and "not a string or integer" in warning


def test_empty_trace_correlates_with_nothing():
    index = build_index([stream("s", [reading("s", at(5), 1.0)])])
    got, warning = correlate_trace(SPAN, index, "s", [], {}, "c")
    assert readings_at(index, "s", got) == [] and warning is None


# --- derivation ----------------------------------------------------------------

values = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20)


@given(values)
def test_numeric_aggregators_match_recomputation(xs):
    readings = [reading("s", at(i), x) for i, x in enumerate(xs)]

    def run(aggregator, output_type="float", **kw):
        return derive_value(Derivation(aggregator, output_type, **kw), readings)

    assert run(Aggregator.MIN) == min(xs)
    assert run(Aggregator.MAX) == max(xs)
    total = 0.0
    for x in xs:
        total += x
    assert run(Aggregator.SUM) == total
    assert run(Aggregator.MEAN) == total / len(xs)
    assert run(Aggregator.ANY_ABOVE, "boolean", threshold=0.0) == any(x > 0.0 for x in xs)
    assert run(Aggregator.ALL_BELOW, "boolean", threshold=0.0) == all(x < 0.0 for x in xs)


def test_first_last_and_passthrough():
    readings = [reading("s", at(0), "alpha"), reading("s", at(1), "omega")]
    assert derive_value(Derivation(Aggregator.FIRST, "string"), readings) == "alpha"
    assert derive_value(Derivation(Aggregator.LAST, "string"), readings) == "omega"
    assert derive_value(None, readings) == "omega"  # no derivation: last value unchanged


def test_empty_readings_derive_nothing():
    assert derive_value(None, []) is None
    assert derive_value(Derivation(Aggregator.MEAN, "float"), []) is None


def test_threshold_bucket_buckets_the_maximum():
    derivation = Derivation(
        Aggregator.THRESHOLD_BUCKET,
        "string",
        boundaries=(10.0, 20.0),
        labels=("low", "mid", "high"),
    )

    def bucket(*xs):
        return derive_value(derivation, [reading("s", at(i), x) for i, x in enumerate(xs)])

    assert bucket(1.0, 5.0) == "low"
    assert bucket(10.0) == "low"  # a value equal to a boundary stays below it
    assert bucket(10.0001) == "mid"
    assert bucket(20.0) == "mid"
    assert bucket(5.0, 25.0, 15.0) == "high"  # max decides, not the last value


@given(values, st.floats(-1e6, 1e6))
def test_threshold_bucket_matches_scan(xs, b0):
    boundaries = (b0, b0 + 10.0)
    derivation = Derivation(
        Aggregator.THRESHOLD_BUCKET, "string", boundaries=boundaries, labels=("a", "b", "c")
    )
    got = derive_value(derivation, [reading("s", at(i), x) for i, x in enumerate(xs)])
    peak = max(xs)
    expected = "a" if peak <= boundaries[0] else ("b" if peak <= boundaries[1] else "c")
    assert got == expected


def test_non_numeric_readings_fail_with_position():
    readings = [reading("s", at(0), 1.0), reading("s", at(1), "oops")]
    with pytest.raises(DerivationError, match="reading 1"):
        derive_value(Derivation(Aggregator.MEAN, "float"), readings)
    with pytest.raises(DerivationError):
        derive_value(Derivation(Aggregator.SUM, "float"), [reading("s", at(0), True)])


@pytest.mark.parametrize(
    "value,output_type,expected",
    [
        (21.0, "float", 21.0),
        (21.0, "int", 21),
        (21.0, "string", "21.0"),
        (True, "boolean", True),
        (True, "string", "true"),
        (False, "string", "false"),
        ("x", "string", "x"),
    ],
)
def test_output_type_coercions(value, output_type, expected):
    got = derive_value(Derivation(Aggregator.FIRST, output_type), [reading("s", at(0), value)])
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value,output_type",
    [
        (21.5, "int"),  # non-integral float
        (21.0, "boolean"),  # numbers are never booleans
        (True, "int"),  # and booleans never numbers
        (True, "float"),
        ("x", "float"),
    ],
)
def test_impossible_coercions_raise(value, output_type):
    with pytest.raises(DerivationError, match="cannot coerce"):
        derive_value(Derivation(Aggregator.FIRST, output_type), [reading("s", at(0), value)])


@pytest.mark.parametrize(
    "aggregator,value",
    [(Aggregator.FIRST, 1e20), (Aggregator.MAX, 1e300), (Aggregator.FIRST, 2.0**63)],
)
def test_an_int_derivation_outside_64_bits_names_the_binding_and_value(aggregator, value):
    readings = [reading("s", at(0), value)]
    with pytest.raises(DerivationError) as err:
        derive_value(Derivation(aggregator, "int"), readings, "binding 'b1'")
    assert str(err.value) == f"binding 'b1': cannot coerce {value!r} to int: outside 64 bits"


def test_an_int_derivation_takes_the_lowest_64_bit_value():
    got = derive_value(Derivation(Aggregator.FIRST, "int"), [reading("s", at(0), -(2.0**63))])
    assert got == -(2**63) and type(got) is int


def test_audit_records_carry_no_instance_dict():
    record = AuditRecord("case_attribute", "c1", "b1", "s1", "k", 1.0)
    assert not hasattr(record, "__dict__")


# --- event derivation ------------------------------------------------------------


def rule(op="above", threshold=30.0, activity="alarm") -> EventDerivationRule:
    return EventDerivationRule(
        rule_id="r1",
        source_id="s",
        correlation=SPAN,
        condition=Condition(op, threshold),
        activity=activity,
    )


def test_one_event_per_maximal_run():
    xs = [10, 35, 36, 10, 40, 10]  # two disjoint above-30 runs
    readings = [reading("s", at(10 * i), float(x)) for i, x in enumerate(xs)]
    index = build_index([stream("s", readings)])
    events = [ev("start", at(0)), ev("end", at(100))]
    derived, warning = derive_events(rule(), index, events, {}, "c")
    assert warning is None
    assert [(e.timestamp, e.activity) for e, _ in derived] == [
        (at(10), "alarm"),
        (at(40), "alarm"),
    ]
    # the event lands on the run's first reading and records its trigger
    assert derived[0][0].get("derived_from") == "r1"
    assert index.stream("s").readings[derived[0][1]].value == 35.0


def test_run_spanning_the_whole_stream_yields_one_event():
    readings = [reading("s", at(10 * i), 50.0) for i in range(5)]
    index = build_index([stream("s", readings)])
    derived, _ = derive_events(rule(), index, [ev("a", at(0)), ev("b", at(100))], {}, "c")
    assert len(derived) == 1 and derived[0][0].timestamp == at(0)


@pytest.mark.parametrize(
    "op,threshold,xs,hits",
    [
        ("above", 30.0, [30.0, 31.0], 1),
        ("below", 30.0, [30.0, 29.0], 1),
        ("equals", 30.0, [30.0, 31.0], 1),
        ("above", 30.0, [30.0, 30.0], 0),
    ],
)
def test_condition_operators(op, threshold, xs, hits):
    readings = [reading("s", at(10 * i), x) for i, x in enumerate(xs)]
    index = build_index([stream("s", readings)])
    derived, _ = derive_events(
        rule(op, threshold), index, [ev("a", at(0)), ev("b", at(100))], {}, "c"
    )
    assert len(derived) == hits


def test_rule_over_non_numeric_readings_fails():
    # The first value that is not a number is named by its position in the
    # correlation, also when a reading before it holds the condition.
    cases = (([10.0, 40.0, True, 10.0], 2), ([40.0, 10.0, 40.0, "text", False], 3))
    for values, position in cases:
        readings = [reading("s", at(i), value) for i, value in enumerate(values)]
        index = build_index([stream("s", readings)])
        with pytest.raises(DerivationError) as err:
            derive_events(rule(), index, [ev("a", at(0)), ev("b", at(10))], {}, "c")
        assert str(err.value) == f"rule 'r1': reading {position} in 's' is not numeric"


def test_a_rule_with_text_xml_cannot_carry_derives_no_event():
    index = build_index([stream("s", [reading("s", at(5), 50.0)])])
    events = [ev("a", at(0)), ev("b", at(10))]
    with pytest.raises(ValueError, match="event activity 'al\\\\x01arm' holds U\\+0001"):
        derive_events(rule(activity="al\x01arm"), index, events, {}, "c")
    bad_id = EventDerivationRule("r\x02", "s", SPAN, Condition("above", 30.0), "alarm")
    with pytest.raises(ValueError, match="string value holds U\\+0002"):
        derive_events(bad_id, index, events, {}, "c")


# --- the enrich() pass ------------------------------------------------------------


def simple_plan(*bindings, sources=None, event_rules=(), collision=CollisionPolicy.ERROR):
    return EnrichmentPlan(
        sources=tuple(sources if sources is not None else (declare("s"),)),
        bindings=tuple(bindings),
        event_rules=tuple(event_rules),
        collision_policy=collision,
    )


@pytest.mark.parametrize("kind", [TargetKind.CASE_ATTRIBUTE, TargetKind.EVENT_ATTRIBUTE])
def test_a_value_xml_cannot_carry_is_refused_when_it_is_written(kind):
    # A reading built through the API may hold any string; a file's may not.
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(60))]))
    index = build_index([stream("s", [reading("s", at(30), "x\x01y")])])
    level = {v: k for k, v in LEVEL_TARGETS.items()}[kind]
    plan = simple_plan(
        binding("b1", "s", level=level, kind=kind, key="k", derivation=None),
        sources=[declare("s", "string")],
    )
    with pytest.raises(ValueError, match="attribute 'k': string value holds U\\+0001"):
        enrich(log, index, plan)


def test_case_attribute_binding_attaches_and_audits():
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(60))]))
    index = build_index([stream("s", [reading("s", at(30), 21.5)])])
    plan = simple_plan(binding("b1", "s", key="temp"))
    result = enrich(log, index, plan)
    assert result.log.traces[0].get("temp") == 21.5
    assert result.additions == 1
    record = result.audit[0]
    assert record == AuditRecord(
        kind="case_attribute",
        case_id="c1",
        binding_id="b1",
        source_id="s",
        key="temp",
        value=21.5,
        readings=record.readings,
    )
    assert readings_at(index, "s", record.readings) == [reading("s", at(30), 21.5)]


def test_event_attribute_binding_honors_activity_filter():
    log = mklog(tr("c1", [ev("weigh", at(0)), ev("load", at(60)), ev("weigh", at(120))]))
    index = build_index(
        [stream("s", [reading("s", at(t), float(t)) for t in (0, 60, 120)])]
    )
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.EVENT,
            kind=TargetKind.EVENT_ATTRIBUTE,
            key="w",
            correlation=BEFORE,
            activity_filter=("weigh",),
        )
    )
    result = enrich(log, index, plan)
    got = [e.get("w") for e in result.log.traces[0].events]
    assert got == [0.0, None, 120.0]  # the load event is filtered out
    assert all(r.kind == "event_attribute" for r in result.audit)
    assert [r.event_index for r in result.audit] == [0, 2]


def test_empty_activity_filter_means_every_event():
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(60))]))
    index = build_index([stream("s", [reading("s", at(0), 1.0)])])
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.EVENT,
            kind=TargetKind.EVENT_ATTRIBUTE,
            key="w",
            correlation=BEFORE,
        )
    )
    result = enrich(log, index, plan)
    assert [e.get("w") for e in result.log.traces[0].events] == [1.0, 1.0]


def test_missing_correlation_omits_the_attribute():
    log = mklog(tr("c1", [ev("a", at(0))]))
    index = build_index([stream("s", [])])  # nothing to match
    result = enrich(log, index, simple_plan(binding("b1", "s", key="temp")))
    assert "temp" not in result.log.traces[0].attribute_keys()
    assert result.additions == 0


def test_bindings_execute_in_plan_order_enabling_bootstrap():
    # the first binding writes the plate; the second correlates by it
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(60))]))
    plate = stream("plate", [reading("tag", at(10), "LPN-7")])
    credit = stream("credit", [reading("tag", at(20), "good", subject="LPN-7")])
    index = build_index([plate, credit])
    plan = simple_plan(
        binding(
            "b-plate",
            "plate",
            key="plate",
            derivation=Derivation(Aggregator.FIRST, "string"),
        ),
        binding(
            "b-credit",
            "credit",
            key="credit",
            correlation=Correlation(
                CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate"
            ),
            derivation=Derivation(Aggregator.FIRST, "string"),
        ),
        sources=(declare("plate", "string"), declare("credit", "string")),
    )
    result = enrich(log, index, plan)
    assert result.log.traces[0].get("plate") == "LPN-7"
    assert result.log.traces[0].get("credit") == "good"
    # reversed order: the subject attribute is not there yet -> warning, no value
    reversed_plan = EnrichmentPlan(
        sources=plan.sources, bindings=tuple(reversed(plan.bindings))
    )
    result = enrich(log, index, reversed_plan)
    assert result.log.traces[0].get("credit") is None
    assert any("missing" in w for w in result.warnings)


def test_event_rules_run_before_bindings_and_events_are_sorted_in():
    log = mklog(tr("c1", [ev("start", at(0)), ev("end", at(100))]))
    temp = stream("s", [reading("s", at(t), v) for t, v in ((20, 40.0), (30, 10.0))])
    gps = stream("gps", [reading("gps", at(t), f"zone-{t}") for t in (0, 20, 100)])
    index = build_index([temp, gps])
    plan = simple_plan(
        binding(
            "b-loc",
            "gps",
            level=ProcessContextLevel.EVENT,
            kind=TargetKind.EVENT_ATTRIBUTE,
            key="loc",
            correlation=BEFORE,
            derivation=Derivation(Aggregator.FIRST, "string"),
        ),
        sources=(declare("s"), declare("gps", "string")),
        event_rules=(rule(),),
    )
    result = enrich(log, index, plan)
    activities = [e.activity for e in result.log.traces[0].events]
    assert activities == ["start", "alarm", "end"]
    derived = result.log.traces[0].events[1]
    assert derived.timestamp == at(20)
    # the binding ran after insertion, so the derived event is enriched too
    assert derived.get("loc") == "zone-20"
    derived_records = [r for r in result.audit if r.kind == "derived_event"]
    assert [r.event_index for r in derived_records] == [1]


def test_collision_policy_error_raises():
    log = mklog(tr("c1", [ev("a", at(0))], temp=19.0))
    index = build_index([stream("s", [reading("s", at(0), 21.0)])])
    with pytest.raises(CollisionError) as err:
        enrich(log, index, simple_plan(binding("b1", "s", key="temp")))
    assert err.value.case_id == "c1" and err.value.key == "temp"


def test_collision_policy_overwrite_records_the_displaced_value():
    log = mklog(tr("c1", [ev("a", at(0))], temp=19.0))
    index = build_index([stream("s", [reading("s", at(0), 21.0)])])
    plan = simple_plan(binding("b1", "s", key="temp"), collision=CollisionPolicy.OVERWRITE)
    result = enrich(log, index, plan)
    assert result.log.traces[0].get("temp") == 21.0
    assert result.audit[0].replaced == 19.0


def test_collision_policy_skip_preserves_and_stays_silent():
    log = mklog(tr("c1", [ev("a", at(0))], temp=19.0))
    index = build_index([stream("s", [reading("s", at(0), 21.0)])])
    plan = simple_plan(binding("b1", "s", key="temp"), collision=CollisionPolicy.SKIP)
    result = enrich(log, index, plan)
    assert result.log.traces[0].get("temp") == 19.0
    assert result.additions == 0


def test_enrich_is_idempotent_under_skip():
    log = mklog(tr("c1", [ev("start", at(0)), ev("end", at(100))]))
    index = build_index([stream("s", [reading("s", at(20), 40.0)])])
    plan = simple_plan(
        binding("b1", "s", key="peak", derivation=Derivation(Aggregator.MAX, "float")),
        event_rules=(rule(),),
        collision=CollisionPolicy.SKIP,
    )
    once = enrich(log, index, plan)
    twice = enrich(once.log, index, plan)
    assert twice.log == once.log
    assert twice.additions == 0  # nothing new: attribute skipped, event recognised


def test_conservation_of_pre_existing_structure(scenario_bundle):
    log, streams, _, _ = scenario_bundle
    index = build_index(streams)
    from iotlog.plan import bundled_plan

    result = enrich(log, index, bundled_plan("scenario2"))
    assert len(result.log.traces) == len(log.traces)
    for before, after in zip(log.traces, result.log.traces):
        assert before.case_id == after.case_id
        # original attributes all survive with their values
        for attr in before.attributes:
            assert after.get(attr.key) == attr.value
        # original events survive in order (derived ones may interleave)
        originals = [e for e in after.events if e.get("derived_from") is None]
        assert len(originals) == len(before.events)
        for orig, kept in zip(before.events, originals):
            assert orig.activity == kept.activity
            assert orig.timestamp == kept.timestamp
            for attr in orig.attributes:
                assert kept.get(attr.key) == attr.value


def test_audit_completeness_equals_structural_diff(scenario_bundle):
    log, streams, _, _ = scenario_bundle
    index = build_index(streams)
    from iotlog.plan import bundled_plan

    result = enrich(log, index, bundled_plan("scenario2"))
    added_attrs = 0
    added_events = 0
    for before, after in zip(log.traces, result.log.traces):
        added_events += len(after.events) - len(before.events)
        added_attrs += len(after.attributes) - len(before.attributes)
        originals = [e for e in after.events if e.get("derived_from") is None]
        for orig, kept in zip(before.events, originals):
            added_attrs += len(kept.attributes) - len(orig.attributes)
        for derived in after.events:
            if derived.get("derived_from") is not None:
                added_attrs += len(derived.attributes) - 1  # derived_from itself is the event's
    assert result.additions == added_attrs + added_events


def test_process_entries_average_across_cases_and_stay_out_of_the_log():
    log = mklog(
        tr("c1", [ev("a", at(0)), ev("b", at(60))]),
        tr("c2", [ev("a", at(3600)), ev("b", at(3660))]),
        tr("c3", [ev("a", at(7200)), ev("b", at(7260))]),  # no readings in span
    )
    index = build_index(
        [
            stream(
                "s",
                [
                    reading("s", at(10), 10.0),
                    reading("s", at(20), 20.0),
                    reading("s", at(3610), 40.0),
                ],
            )
        ]
    )
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.PROCESS,
            kind=TargetKind.PROCESS_REPORT_ENTRY,
            key="mean_reading",
            derivation=Derivation(Aggregator.MEAN, "float"),
        )
    )
    result = enrich(log, index, plan)
    assert result.report.entries == {"mean_reading": (15.0 + 40.0) / 2}
    assert result.report.case_count == 3
    assert result.report.contributions["mean_reading"] == (("c1", 15.0), ("c2", 40.0))
    for trace in result.log.traces:
        assert "mean_reading" not in trace.attribute_keys()
        for event in trace.events:
            assert "mean_reading" not in event.attribute_keys()


def test_process_entries_and_sums_add_left_to_right_on_every_python():
    # Left to right, 1e16 + 1.0 rounds back to 1e16, so the sum is 0.0.
    # From Python 3.12 the built-in sum() compensates and would give 1.0.
    xs = [1e16, 1.0, -1e16]
    log = mklog(*(tr(f"c{i}", [ev("a", at(0))]) for i in range(len(xs))))
    index = build_index(
        [stream("s", [reading("s", at(0), x, subject=f"c{i}") for i, x in enumerate(xs)])]
    )
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.PROCESS,
            kind=TargetKind.PROCESS_REPORT_ENTRY,
            key="m",
            correlation=Correlation(
                CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="case_id"
            ),
        )
    )
    assert enrich(log, index, plan).report.entries == {"m": 0.0}
    readings = [reading("s", at(i), x) for i, x in enumerate(xs)]
    assert derive_value(Derivation(Aggregator.SUM, "float"), readings) == 0.0
    assert derive_value(Derivation(Aggregator.MEAN, "float"), readings) == 0.0


def test_process_entry_with_no_contributors_is_none():
    log = mklog(tr("c1", [ev("a", at(0))]))
    index = build_index([stream("s", [])])
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.PROCESS,
            kind=TargetKind.PROCESS_REPORT_ENTRY,
            key="m",
            derivation=Derivation(Aggregator.MEAN, "float"),
        )
    )
    result = enrich(log, index, plan)
    assert result.report.entries == {"m": None}
    assert result.report.to_dict()["entries"] == {"m": None}


def test_non_numeric_process_value_is_a_derivation_error():
    log = mklog(tr("c1", [ev("a", at(0))]))
    index = build_index([stream("s", [reading("s", at(0), "text")])])
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.PROCESS,
            kind=TargetKind.PROCESS_REPORT_ENTRY,
            key="m",
            derivation=Derivation(Aggregator.FIRST, "string"),
        ),
        sources=(declare("s", "string"),),
    )
    with pytest.raises(DerivationError, match="must be numeric"):
        enrich(log, index, plan)


def test_invalid_plan_and_log_are_rejected_before_any_work():
    log = mklog(tr("c1", [ev("a", at(0))]))
    index = build_index([stream("s", [])])
    bad_plan = simple_plan(binding("b1", "ghost"))
    with pytest.raises(InvalidPlanError) as plan_err:
        enrich(log, index, bad_plan)
    assert [i.code for i in plan_err.value.issues] == ["UNKNOWN_SOURCE"]
    bad_log = mklog(tr("c1", [ev("b", at(10)), ev("a", at(0))]))
    with pytest.raises(InvalidLogError) as log_err:
        enrich(bad_log, index, simple_plan(binding("b1", "s")))
    assert [v.code for v in log_err.value.violations] == ["unsorted_events"]


# --- scaling: work per anchor, counted at E and 4E events --------------------------


def one_hour_trace(events: int, readings: int):
    """One trace of `events` events and a stream of `readings` readings, each spread over an hour."""
    log = mklog(tr("c", [ev("a", at(3600 * i / events)) for i in range(events)]))
    values = [reading("s", at(3600 * i / readings), float(i % 50)) for i in range(readings)]
    return log, build_index([stream("s", values)])


def counted(patch, owner, name, returned=len):
    """Patch owner.name to count its calls, and what `returned` makes of each result."""
    calls, total, call = [0], [0], getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = call(*args, **kwargs)
        calls[0] += 1
        total[0] += returned(result)
        return result

    patch.setattr(owner, name, wrapper)
    return calls, total


@pytest.mark.parametrize("events", [50, 200])
def test_nearest_within_reads_no_window_of_readings_per_anchor(events):
    log, index = one_hour_trace(events, 40 * events)
    correlation = Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=600)
    plan = simple_plan(
        binding("b1", "s", level=ProcessContextLevel.EVENT, kind=TargetKind.EVENT_ATTRIBUTE,
                key="v", correlation=correlation, derivation=Derivation(Aggregator.FIRST, "float"))
    )
    with pytest.MonkeyPatch.context() as patch:
        _, returned = counted(patch, StreamIndex, "range_query")
        result = enrich(log, index, plan)
    assert len(result.audit) == events
    assert returned == [0]  # a window scan copies about 13 readings per event, per event


@pytest.mark.parametrize("events", [50, 200])
@pytest.mark.parametrize("strategy", ["span", "subject"])
def test_a_trace_scoped_event_binding_correlates_and_derives_once_per_trace(events, strategy):
    log, index = one_hour_trace(events, 4 * events)
    correlation = SPAN
    if strategy == "subject":
        log = mklog(tr("c", log.traces[0].events, plate="x"))
        index = build_index([stream("s", [
            reading("s", r.timestamp, r.value, subject="x") for r in index.stream("s").readings
        ])])
        correlation = Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate")
    plan = simple_plan(
        binding("b1", "s", level=ProcessContextLevel.EVENT, kind=TargetKind.EVENT_ATTRIBUTE,
                key="v", correlation=correlation, derivation=Derivation(Aggregator.MEAN, "float"))
    )
    with pytest.MonkeyPatch.context() as patch:
        correlated, _ = counted(patch, ENGINE, "correlate_trace", lambda result: 0)
        derived, _ = counted(patch, ENGINE, "derive_value", lambda result: 0)
        result = enrich(log, index, plan)
    assert len(result.audit) == events
    assert len({id(record.readings) for record in result.audit}) == 1  # one tuple, shared
    assert correlated == derived == [1]


class CountedReading(SensorReading):
    """A reading that counts the reads of its timestamp, as a bisection's key calls do."""

    reads = 0

    @property
    def timestamp(self):
        CountedReading.reads += 1
        return SensorReading.timestamp.__get__(self)


def counted_reading(when, value, subject) -> CountedReading:
    r = object.__new__(CountedReading)
    for name, field_value in zip(SensorReading.__slots__, ("s", when, value, None, subject, None)):
        getattr(SensorReading, name).__set__(r, field_value)
    return r


def one_subject_over(cases: int):
    """`cases` one-minute traces keyed by one plate, and 4 readings of it per case."""
    log = mklog(
        *(
            tr(f"c{i}", [ev("a", at(60 * i)), ev("b", at(60 * i + 40))], plate="x")
            for i in range(cases)
        )
    )
    readings = [
        counted_reading(at(60 * i + 10 * k), float(k), "x") for i in range(cases) for k in range(4)
    ]
    return log, build_index([stream("s", readings)])


def test_subject_key_equals_bisects_the_subject_without_copying_it():
    correlation = Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate")
    calls = {}
    for cases in (250, 1000):  # n and 4n
        log, index = one_subject_over(cases)
        assert index.subject_readings("s", "x") is index.subject_readings("s", "x")
        trace = log.traces[cases // 2]
        CountedReading.reads = 0
        got, warning = correlate_trace(
            correlation, index, "s", list(trace.events), {"plate": "x"}, trace.case_id
        )
        calls[cases] = CountedReading.reads
        first, last = trace.events[0].timestamp, trace.events[-1].timestamp
        expected = [r for r in index.stream("s").readings if first <= r.timestamp <= last]
        assert warning is None and readings_at(index, "s", got) == expected and len(got) == 4
    # Two bisections, each of at most 2 more steps over 4 times the readings.
    assert calls[1000] <= calls[250] + 4, calls


def test_subject_warning_emitted_once_per_binding_and_trace():
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(10)), ev("c", at(20))]))
    index = build_index([stream("s", [reading("s", at(5), 1.0, subject="x")])])
    plan = simple_plan(
        binding(
            "b1",
            "s",
            level=ProcessContextLevel.EVENT,
            kind=TargetKind.EVENT_ATTRIBUTE,
            key="v",
            correlation=Correlation(
                CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate"
            ),
        )
    )
    result = enrich(log, index, plan)
    assert len(result.warnings) == 1


# --- derived-event insertion vs brute force -----------------------------------------


def reference_runs(rule, index, events, attrs, case_id):
    """The former loop of `derive_events`: each maximal run's first reading, read one by one."""
    positions, _ = correlate_trace(rule.correlation, index, rule.source_id, events, attrs, case_id)
    readings = readings_at(index, rule.source_id, positions)
    triggers, in_run = [], False
    for r in readings:
        if rule.condition.holds(float(r.value)):
            if not in_run:
                triggers.append(r)
            in_run = True
        else:
            in_run = False
    return triggers


def reference_insertion(trace, index, rules):
    """The trace's events after step 1, and (rule_id, timestamp, event_index,
    trigger) per inserted event, by per-reading run detection, a linear dedup
    over everything present so far and a stable sort on timestamp."""
    events = list(trace.events)
    attrs = {a.key: a.value for a in trace.attributes}
    inserted = []
    for r in rules:
        for trigger in reference_runs(r, index, events, attrs, trace.case_id):
            mark = (Attribute("derived_from", r.rule_id),)
            candidate = Event(r.activity, trigger.timestamp, mark)
            present = events + [e for _, e, _ in inserted]
            if not any(
                e.activity == candidate.activity
                and e.timestamp == candidate.timestamp
                and e.get("derived_from") == r.rule_id
                for e in present
            ):
                inserted.append((r.rule_id, candidate, trigger))
    merged = sorted(events + [e for _, e, _ in inserted], key=lambda e: e.timestamp)
    return merged, [
        (rule_id, e.timestamp, merged.index(e), trigger) for rule_id, e, trigger in inserted
    ]


def enrich_against_reference(log, index, rules):
    """Enrich with event rules only and check every trace against the reference."""
    sources = [declare(source_id) for source_id in index.streams]
    result = enrich(log, index, simple_plan(sources=sources, event_rules=rules))
    expected = []
    for before, after in zip(log.traces, result.log.traces):
        merged, derived = reference_insertion(before, index, rules)
        assert list(after.events) == merged
        expected += [(before.case_id, *d) for d in derived]
    records = [r for r in result.audit if r.kind == "derived_event"]
    assert [(r.case_id, r.binding_id, r.value, r.event_index) for r in records] == [
        e[:-1] for e in expected
    ]
    # Each record's reading is its run's first reading itself, not an equal one.
    assert all(
        len(r.readings) == 1 and readings_at(index, r.source_id, r.readings)[0] is e[-1]
        for r, e in zip(records, expected)
    )
    for r in records:
        event = result.log.trace(r.case_id).events[r.event_index]
        assert (event.activity, event.timestamp) == (r.key, r.value)
        assert event.get("derived_from") == r.binding_id
    return result


def flip_rule(rule_id, source_id="s", op="above", activity="alarm") -> EventDerivationRule:
    return EventDerivationRule(
        rule_id=rule_id,
        source_id=source_id,
        correlation=SPAN,
        condition=Condition(op, 30.0),
        activity=activity,
    )


def test_derived_event_at_an_original_timestamp_sorts_after_it():
    log = mklog(tr("c1", [ev("start", at(0)), ev("alarm", at(20)), ev("end", at(40))]))
    temps = [(0, 40.0), (10, 10.0), (20, 40.0), (30, 10.0), (40, 40.0)]
    index = build_index([stream("s", [reading("s", at(t), v) for t, v in temps])])
    result = enrich_against_reference(log, index, [flip_rule("r1")])
    events = result.log.traces[0].events
    assert [(e.activity, e.get("derived_from")) for e in events] == [
        ("start", None),
        ("alarm", "r1"),
        ("alarm", None),
        ("alarm", "r1"),
        ("end", None),
        ("alarm", "r1"),
    ]
    assert [r.event_index for r in result.audit] == [1, 3, 5]


def test_two_rules_firing_at_one_timestamp_keep_rule_order():
    log = mklog(tr("c1", [ev("start", at(0)), ev("end", at(20))]))
    index = build_index([stream("s", [reading("s", at(t), 40.0) for t in (0, 10, 20)])])
    rules = [flip_rule("r2", activity="hot"), flip_rule("r1")]
    result = enrich_against_reference(log, index, rules)
    events = result.log.traces[0].events
    assert [e.activity for e in events] == ["start", "hot", "alarm", "end"]
    assert [(r.binding_id, r.event_index) for r in result.audit] == [("r2", 1), ("r1", 2)]


def test_re_enrichment_inserts_only_what_is_missing():
    log = mklog(tr("c1", [ev("start", at(0)), ev("end", at(30))]))
    temps = [(0, 40.0), (10, 10.0), (20, 40.0)]
    index = build_index([stream("s", [reading("s", at(t), v) for t, v in temps])])
    r1, r2 = flip_rule("r1"), flip_rule("r2", op="below", activity="cool")
    once = enrich_against_reference(log, index, [r1])
    twice = enrich_against_reference(once.log, index, [r1, r2])
    assert [(r.binding_id, r.event_index) for r in twice.audit] == [("r2", 2)]
    thrice = enrich_against_reference(twice.log, index, [r1, r2])
    assert thrice.log == twice.log and thrice.additions == 0


seconds = st.integers(0, 6)
flip_readings = st.lists(
    st.tuples(seconds, st.sampled_from("ab"), st.sampled_from([10.0, 30.0, 40.0])), max_size=12
)
trace_events = st.lists(
    st.tuples(
        seconds,
        st.sampled_from(["start", "alarm", "cool"]),
        st.sampled_from([None, "r0", "r1"]),
    ),
    max_size=6,
).map(lambda body: sorted(body, key=lambda e: e[0]))
flip_rules = st.lists(
    st.tuples(
        st.sampled_from(["s", "u"]),
        st.sampled_from(["above", "below", "equals"]),
        st.sampled_from(["alarm", "cool"]),
    ),
    min_size=1,
    max_size=3,
).map(lambda specs: [flip_rule(f"r{i}", *spec) for i, spec in enumerate(specs)])


@given(st.lists(trace_events, min_size=1, max_size=3), flip_readings, flip_readings, flip_rules)
def test_derived_events_and_positions_match_a_brute_force_reference(
    traces, s_rows, u_rows, rules
):
    def derived_from(rule_id):
        return {"derived_from": rule_id} if rule_id else {}

    log = mklog(
        *(
            tr(f"c{n}", [ev(a, at(t), **derived_from(r)) for t, a, r in body])
            for n, body in enumerate(traces)
        )
    )
    index = build_index(
        [
            stream(source_id, [reading(sensor, at(t), v) for t, sensor, v in rows])
            for source_id, rows in (("s", s_rows), ("u", u_rows))
        ]
    )
    once = enrich_against_reference(log, index, rules[:1])
    enrich_against_reference(once.log, index, rules)


# --- the binding kernel vs the former two-copy kernel --------------------------------


def reference_attach(attrs, key, value, policy, case_id, scope, binding_id):
    """The former `_attach`: write key=value under the collision policy."""
    if key in attrs:
        if policy is CollisionPolicy.ERROR:
            raise CollisionError(case_id, key, scope, binding_id)
        if policy is CollisionPolicy.SKIP:
            return False, None
        replaced = attrs[key]
        attrs[key] = value
        return True, replaced
    attrs[key] = value
    return True, None


def reference_enrich_trace(trace, index, plan):
    """The former `_enrich_trace`, kept as the reference for the one binding loop.

    Event-attribute targets had a loop of their own, warned once and then
    skipped every further event, and rebuilt the event for every value written.
    They correlated and derived for every event, also under a trace-scoped
    strategy, which the kernel does once per trace. Its records hold the
    stream positions each correlation returned.
    """
    case_id = trace.case_id
    events = list(trace.events)
    trace_attrs = {a.key: a.value for a in trace.attributes}
    audit, warnings, contributions = [], [], []
    policy = plan.collision_policy

    candidates = []
    for rule in plan.event_rules:
        derived, warning = derive_events(rule, index, events, trace_attrs, case_id)
        if warning:
            warnings.append(warning)
        candidates += [(rule, e, trigger) for e, trigger in derived]
    if candidates:
        seen = {(e.activity, e.timestamp, e.get(DERIVED_FROM_KEY)) for e in events}
        inserted = []
        for rule, e, trigger in candidates:
            key = (e.activity, e.timestamp, rule.rule_id)
            if key not in seen:
                seen.add(key)
                inserted.append((rule, e, trigger))
        merged = events + [e for _, e, _ in inserted]
        order = sorted(range(len(merged)), key=lambda i: merged[i].timestamp)
        events = [merged[i] for i in order]
        position = {i: pos for pos, i in enumerate(order)}
        for i, (rule, e, trigger) in enumerate(inserted, start=len(trace.events)):
            audit.append(
                AuditRecord(
                    kind="derived_event",
                    case_id=case_id,
                    binding_id=rule.rule_id,
                    source_id=rule.source_id,
                    key=e.activity,
                    value=e.timestamp,
                    readings=(trigger,),
                    event_index=position[i],
                )
            )

    for b in plan.bindings:
        kind, key, source_id = b.target.kind, b.target.key, b.source_id
        if kind is TargetKind.EVENT_ATTRIBUTE:
            wanted = b.target.activity_filter
            warned = False
            for pos, event in enumerate(events):
                if wanted and event.activity not in wanted:
                    continue
                positions, warning = correlate_event(
                    b.correlation, index, source_id, event, events, trace_attrs, case_id
                )
                if warning:
                    if not warned:
                        warnings.append(warning)
                        warned = True
                    continue
                readings = readings_at(index, source_id, positions)
                value = derive_value(b.derivation, readings, f"binding {b.binding_id!r}")
                if value is None:
                    continue
                attrs = {a.key: a.value for a in event.attributes}
                written, replaced = reference_attach(
                    attrs, key, value, policy, case_id, "event", b.binding_id
                )
                if not written:
                    continue
                attributes = tuple(Attribute(k, v) for k, v in attrs.items())
                events[pos] = Event(event.activity, event.timestamp, attributes)
                audit.append(
                    AuditRecord(
                        kind="event_attribute",
                        case_id=case_id,
                        binding_id=b.binding_id,
                        source_id=source_id,
                        key=key,
                        value=value,
                        readings=positions,
                        event_index=pos,
                        replaced=replaced,
                    )
                )
            continue

        positions, warning = correlate_trace(
            b.correlation, index, source_id, events, trace_attrs, case_id
        )
        if warning:
            warnings.append(warning)
            continue
        readings = readings_at(index, source_id, positions)
        value = derive_value(b.derivation, readings, f"binding {b.binding_id!r}")
        if value is None:
            continue
        if kind is TargetKind.CASE_ATTRIBUTE:
            written, replaced = reference_attach(
                trace_attrs, key, value, policy, case_id, "case", b.binding_id
            )
            if written:
                audit.append(
                    AuditRecord(
                        kind="case_attribute",
                        case_id=case_id,
                        binding_id=b.binding_id,
                        source_id=source_id,
                        key=key,
                        value=value,
                        readings=positions,
                        replaced=replaced,
                    )
                )
        else:
            if type(value) is bool or not isinstance(value, (int, float)):
                raise DerivationError(
                    f"binding {b.binding_id!r}: process report entries must be "
                    f"numeric, got {value!r}"
                )
            contributions.append((key, float(value)))

    new_trace = Trace(
        case_id=case_id,
        attributes=tuple(Attribute(k, v) for k, v in trace_attrs.items()),
        events=tuple(events),
    )
    return new_trace, audit, warnings, contributions


ACTIVITIES = ["a", "b", "alarm"]
CORRELATIONS = [
    SPAN,
    BEFORE,
    Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=3),
    Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate"),
    Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="case_id"),
]
DERIVATIONS = [
    None,
    Derivation(Aggregator.LAST, "float"),
    Derivation(Aggregator.MEAN, "float"),
    Derivation(Aggregator.MAX, "int"),
    Derivation(Aggregator.FIRST, "string"),  # not numeric: a process target fails
    Derivation(Aggregator.ANY_ABOVE, "boolean", threshold=30.0),
    Derivation(Aggregator.THRESHOLD_BUCKET, "string", boundaries=(20.0,), labels=("lo", "hi")),
    Derivation(Aggregator.LAST, "boolean"),  # a float is no boolean: the derivation fails
]
# Per target kind, the keys a binding may write: v, w and k collide with
# attributes the drawn log may already hold, and derived_from with the mark
# every derived event carries.
TARGET_KEYS = {
    TargetKind.EVENT_ATTRIBUTE: ["v", "w", DERIVED_FROM_KEY],
    TargetKind.CASE_ATTRIBUTE: ["k", "m"],
    TargetKind.PROCESS_REPORT_ENTRY: ["p", "q"],
}
LEVELS = {kind: level for level, kind in LEVEL_TARGETS.items()}

kernel_events = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.sampled_from(ACTIVITIES),
        st.sampled_from([{}, {"v": 1.0}, {"w": "x"}, {"v": 2.0, "w": "y"}]),
    ),
    min_size=1,
    max_size=4,
).map(lambda body: sorted(body, key=lambda e: e[0]))
kernel_traces = st.lists(
    st.tuples(
        kernel_events,
        st.sampled_from([{}, {"plate": "x"}, {"plate": "y"}, {"plate": 7}, {"plate": 1.5},
                         {"plate": True}]),  # missing, strings, an int, a float, a bool
        st.sampled_from([{}, {"k": "old"}]),
    ),
    min_size=1,
    max_size=3,
)
kernel_readings = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.sampled_from([10.0, 25.0, 40.0]),
        st.sampled_from([None, "x", "y", "7", "c0", "c1"]),
    ),
    max_size=10,
)
kernel_bindings = st.lists(
    st.sampled_from(list(TARGET_KEYS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.sampled_from(TARGET_KEYS[kind]),
            st.sampled_from(["s", "u"]),
            st.sampled_from(CORRELATIONS),
            st.sampled_from(DERIVATIONS),
            st.lists(st.sampled_from(ACTIVITIES), max_size=2, unique=True)
            if kind is TargetKind.EVENT_ATTRIBUTE
            else st.just([]),
        )
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda spec: spec[:2],  # a repeated (kind, key) makes the plan invalid
)
kernel_rules = st.lists(
    st.tuples(
        st.sampled_from(["s", "u"]),
        st.sampled_from([SPAN, CORRELATIONS[3]]),
        st.sampled_from(["above", "below"]),
        st.sampled_from(ACTIVITIES),
    ),
    max_size=2,
)


def _result_or_error(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


EVENT, CASE, PROCESS = list(TARGET_KEYS)


@settings(max_examples=200, deadline=None)
@given(
    kernel_traces,
    kernel_readings,
    kernel_readings,
    kernel_bindings,
    kernel_rules,
    st.sampled_from(list(CollisionPolicy)),
)
# Two bindings write every event, a derived one too, over an existing key;
# a case and a process binding run beside them.
@example(
    [([(0, "a", {"v": 1.0}), (5, "b", {})], {"plate": "x"}, {"k": "old"})],
    [(0, 10.0, "x"), (5, 40.0, "x")],
    [(3, 25.0, None)],
    [
        (EVENT, "v", "s", BEFORE, None, []),
        (EVENT, "w", "u", SPAN, DERIVATIONS[2], []),
        (CASE, "k", "s", CORRELATIONS[3], DERIVATIONS[1], []),
        (PROCESS, "p", "u", SPAN, DERIVATIONS[2], []),
    ],
    [("s", SPAN, "above", "alarm")],
    CollisionPolicy.OVERWRITE,
)
# An event-level subject binding: the plate is missing in one case, a float
# in the other; each warns once.
@example(
    [([(0, "a", {}), (1, "b", {})], {}, {}), ([(0, "a", {})], {"plate": 1.5}, {})],
    [(0, 10.0, "x")],
    [],
    [(EVENT, "v", "s", CORRELATIONS[3], None, [])],
    [],
    CollisionPolicy.ERROR,
)
# A filtered binding meets the derived_from mark of the events a rule derived.
@example(
    [([(0, "a", {}), (8, "b", {})], {}, {})],
    [(2, 40.0, None), (4, 10.0, None), (6, 40.0, None)],
    [],
    [(EVENT, DERIVED_FROM_KEY, "s", BEFORE, DERIVATIONS[4], ["alarm", "b"])],
    [("s", SPAN, "above", "alarm")],
    CollisionPolicy.SKIP,
)
def test_the_binding_kernel_matches_the_two_copy_reference(
    traces, s_rows, u_rows, binding_specs, rule_specs, policy
):
    log, index, plan = kernel_inputs(traces, s_rows, u_rows, binding_specs, rule_specs, policy)
    got = _result_or_error(lambda: enrich(log, index, plan))
    with mock.patch.object(ENGINE, "_enrich_trace", reference_enrich_trace):
        expected = _result_or_error(lambda: enrich(log, index, plan))
    assert got == expected
    assert repr(got) == repr(expected)  # also each value's type: 1 == 1.0 == True
    if not isinstance(got, tuple):
        assert audit_text(got) == audit_text(expected)


def audit_text(result) -> str:
    """The audit.jsonl the enrich command writes for `result`."""
    handle = io.StringIO()
    cli._write_audit(handle, result.audit)
    return handle.getvalue()


def kernel_inputs(traces, s_rows, u_rows, binding_specs, rule_specs, policy):
    """The log, index and plan of one drawn kernel case."""
    log = mklog(
        *(
            tr(f"c{n}", [ev(a, at(t), **attrs) for t, a, attrs in body], **plate, **case)
            for n, (body, plate, case) in enumerate(traces)
        )
    )
    index = build_index(
        [
            stream(source_id, [reading(source_id, at(t), v, subject=k) for t, v, k in rows])
            for source_id, rows in (("s", s_rows), ("u", u_rows))
        ]
    )
    bindings = [
        binding(
            f"b{i}",
            source_id,
            level=LEVELS[kind],
            kind=kind,
            key=key,
            correlation=correlation,
            derivation=derivation,
            activity_filter=wanted,
        )
        for i, (kind, key, source_id, correlation, derivation, wanted) in enumerate(
            binding_specs
        )
    ]
    rules = [
        EventDerivationRule(f"r{i}", source_id, correlation, Condition(op, 30.0), activity)
        for i, (source_id, correlation, op, activity) in enumerate(rule_specs)
    ]
    plan = simple_plan(
        *bindings,
        sources=[declare("s"), declare("u")],
        event_rules=rules,
        collision=policy,
    )
    return log, index, plan


def rebuilt_attributes(attributes):
    return tuple(Attribute(a.key, a.value) for a in attributes)


def rebuilt_trace(trace: Trace) -> Trace:
    """`trace` built again through the public constructors, which check and normalise each part."""
    events = tuple(
        Event(e.activity, e.timestamp, rebuilt_attributes(e.attributes)) for e in trace.events
    )
    return Trace(trace.case_id, rebuilt_attributes(trace.attributes), events)


@settings(max_examples=200, deadline=None)
@given(
    kernel_traces,
    kernel_readings,
    kernel_readings,
    kernel_bindings,
    kernel_rules,
    st.sampled_from(list(CollisionPolicy)),
)
def test_the_kernel_builds_what_the_public_constructors_build(
    traces, s_rows, u_rows, binding_specs, rule_specs, policy
):
    # The kernel builds traces, events and attributes without their
    # constructors' checks; a rebuild through them changes nothing, not even
    # a value's type (repr tells 1 from 1.0 and True, () from []).
    log, index, plan = kernel_inputs(traces, s_rows, u_rows, binding_specs, rule_specs, policy)
    try:
        result = enrich(log, index, plan)
    except (CollisionError, DerivationError):
        return
    for trace in result.log.traces:
        assert repr(rebuilt_trace(trace)) == repr(trace)
    for record in result.audit:
        fields = [getattr(record, name) for name in AuditRecord.__slots__]
        assert repr(AuditRecord(*fields)) == repr(record)
