"""Enrichment engine: correlate sensor readings with a log and attach context.

For every trace, event derivation rules run first (so freshly derived events
can receive attributes), then bindings run in plan order on the evolving
trace (so a binding may correlate via an attribute an earlier binding just
wrote). A binding anchors on each event it selects when it targets an event
attribute, and on the trace otherwise. It correlates and derives for each
anchor under a nearest_* strategy, and once per trace under any other, whose
readings are the trace's; then, for each anchor, it writes under the
collision policy or contributes to the process report. Event- and
instance-level values land in the log; process-level values land only in
the sidecar report. Every addition to the log produces exactly one audit
record, and nothing pre-existing is ever removed or reordered.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, compress
from operator import attrgetter, gt

from .plan import (
    Aggregator,
    CollisionPolicy,
    Correlation,
    CorrelationStrategy,
    Derivation,
    EnrichmentPlan,
    EventDerivationRule,
    PlanIssue,
    TargetKind,
    validate_plan,
)
from .sensors import SensorReading, StreamIndex
from .xes import (
    Attribute,
    AttrValue,
    Event,
    Log,
    Trace,
    Violation,
    _new,
    _normalize_value,
    _parsed_attribute,
    _parsed_event,
    _parsed_trace,
    _set_activity,
    _set_attributes,
    _set_timestamp,
    _unwritable,
    _writable,
    validate_log,
)


class EnrichmentError(Exception):
    pass


class InvalidPlanError(EnrichmentError):
    """The plan failed structural validation; see `.issues`."""

    def __init__(self, issues: list[PlanIssue]):
        lines = "; ".join(f"{i.path}: {i.message}" for i in issues)
        super().__init__(f"plan is invalid: {lines}")
        self.issues = tuple(issues)


class InvalidLogError(EnrichmentError):
    """The input log failed validation; see `.violations`."""

    def __init__(self, violations: list[Violation]):
        lines = "; ".join(v.message for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"log is invalid: {lines}{more}")
        self.violations = tuple(violations)


class CollisionError(EnrichmentError):
    """A binding tried to write a key that already exists (policy = error)."""

    def __init__(self, case_id: str, key: str, scope: str, binding_id: str):
        super().__init__(
            f"case {case_id!r}: {scope} attribute {key!r} already present "
            f"(binding {binding_id!r}, collision_policy=error)"
        )
        self.case_id = case_id
        self.key = key
        self.binding_id = binding_id


class DerivationError(EnrichmentError):
    pass


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One addition to the log: an attached attribute or an inserted event.

    kind is "event_attribute", "case_attribute" or "derived_event";
    binding_id holds the rule_id for derived events. event_index points into
    the final event tuple of the trace. readings holds the stream positions
    of the readings the value was derived from, as the correlation gave them
    (for a derived event, a 1-tuple: the reading that started the run).
    replaced holds the previous value when collision_policy = overwrite displaced one.
    """

    kind: str
    case_id: str
    binding_id: str
    source_id: str
    key: str  # attribute key, or activity name for derived events
    value: AttrValue
    readings: Sequence[int] = ()
    event_index: int | None = None
    replaced: AttrValue | None = None


# AuditRecord checks nothing, but its frozen constructor sets each field
# through object.__setattr__. The kernel builds its records through
# _audit_record, which calls the slots' own setters, at about half the cost.
(
    _set_kind, _set_case_id, _set_binding_id, _set_source_id, _set_record_key,
    _set_record_value, _set_readings, _set_event_index, _set_replaced,
) = (getattr(AuditRecord, name).__set__ for name in AuditRecord.__slots__)


def _audit_record(
    kind: str,
    case_id: str,
    binding_id: str,
    source_id: str,
    key: str,
    value: AttrValue,
    readings: Sequence[int],
    event_index: int | None = None,
    replaced: AttrValue | None = None,
) -> AuditRecord:
    record = _new(AuditRecord)
    _set_kind(record, kind)
    _set_case_id(record, case_id)
    _set_binding_id(record, binding_id)
    _set_source_id(record, source_id)
    _set_record_key(record, key)
    _set_record_value(record, value)
    _set_readings(record, readings)
    _set_event_index(record, event_index)
    _set_replaced(record, replaced)
    return record


@dataclass(frozen=True)
class ProcessContextReport:
    """Process-level context, kept out of the log on purpose.

    entries maps every process-report metric the plan declares to the
    arithmetic mean of its per-case values, or None when no case
    contributed. case_count is the number of traces processed.
    """

    entries: dict[str, float | None]
    case_count: int
    contributions: dict[str, tuple[tuple[str, float], ...]] | None = None

    def to_dict(self) -> dict:
        out: dict = {"entries": dict(self.entries), "case_count": self.case_count}
        if self.contributions is not None:
            out["contributions"] = {
                key: [{"case_id": cid, "value": v} for cid, v in pairs]
                for key, pairs in self.contributions.items()
            }
        return out


@dataclass(frozen=True)
class EnrichmentResult:
    log: Log
    report: ProcessContextReport
    audit: tuple[AuditRecord, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def additions(self) -> int:
        return len(self.audit)


# --- correlation ------------------------------------------------------------

_NEAREST = (CorrelationStrategy.NEAREST_BEFORE, CorrelationStrategy.NEAREST_WITHIN)
_NOTHING = range(0)
_timestamp = attrgetter("timestamp")


def _nearest(correlation: Correlation, index: StreamIndex, source_id: str, t: datetime) -> range:
    """The position a nearest_* strategy picks for the anchor t, as a range of one or none."""
    if correlation.strategy is CorrelationStrategy.NEAREST_BEFORE:
        best = index.latest_at_or_before(source_id, t)
    else:
        assert correlation.window_seconds is not None
        best = index.nearest(source_id, t, timedelta(seconds=correlation.window_seconds))
    return _NOTHING if best is None else range(best, best + 1)


def _readings_at(index: StreamIndex, source_id: str, positions: Sequence[int]) -> Sequence:
    """The readings at `positions` in a source's stream; a range is a slice of it."""
    readings = index.stream(source_id).readings
    if type(positions) is range:
        return readings[positions.start : positions.stop]
    return list(map(readings.__getitem__, positions))


def correlate_event(
    correlation: Correlation,
    index: StreamIndex,
    source_id: str,
    event: Event,
    events: list[Event],
    trace_attrs: dict[str, AttrValue],
    case_id: str,
) -> tuple[Sequence[int], str | None]:
    """Stream positions matched to one event (a range of at most one, or under a
    trace-scoped strategy correlate_trace's), and an optional warning."""
    if correlation.strategy in _NEAREST:
        return _nearest(correlation, index, source_id, event.timestamp), None
    return correlate_trace(correlation, index, source_id, events, trace_attrs, case_id)


def correlate_trace(
    correlation: Correlation,
    index: StreamIndex,
    source_id: str,
    events: list[Event],
    trace_attrs: dict[str, AttrValue],
    case_id: str,
) -> tuple[Sequence[int], str | None]:
    """Stream positions matched to a whole trace: a range, or an array('q')
    under subject_key_equals; plus an optional warning.

    The nearest_* strategies anchor on the last event when applied at trace
    scope. An empty trace has no span and correlates with nothing.
    """
    if not events:
        return _NOTHING, None
    first, last = events[0].timestamp, events[-1].timestamp
    if correlation.strategy is CorrelationStrategy.SPAN_OVERLAP:
        return index.range_query(source_id, first, last), None
    if correlation.strategy is CorrelationStrategy.SUBJECT_KEY_EQUALS:
        name = correlation.subject_attribute
        assert name is not None
        subject = case_id if name == "case_id" else trace_attrs.get(name)
        if subject is None:
            return _NOTHING, f"case {case_id!r}: subject attribute {name!r} missing; nothing correlated"
        if type(subject) is not bool and isinstance(subject, int):
            subject = str(subject)
        elif not isinstance(subject, str):
            return _NOTHING, (
                f"case {case_id!r}: subject attribute {name!r} is not a string or "
                f"integer; nothing correlated"
            )
        return index.subject_range(source_id, subject, first, last), None
    return _nearest(correlation, index, source_id, last), None


# --- derivation -------------------------------------------------------------


def _is_number(value) -> bool:
    """An int or a float; a bool is an int to isinstance, but not a number here."""
    return type(value) is not bool and isinstance(value, (int, float))


def _sum(values) -> float:
    """The left-to-right binary64 sum. From Python 3.12 the built-in sum()
    of floats compensates its rounding, so it differs between versions."""
    total = 0.0
    for v in values:
        total += v
    return total


_value = attrgetter("value")


def _numeric_values(readings: list[SensorReading], context: str) -> list[float]:
    values = list(map(_value, readings))
    if set(map(type, values)) <= {float}:
        return values
    # Otherwise find the reading that is not a number, and name it.
    values = []
    for position, reading in enumerate(readings):
        if not _is_number(reading.value):
            raise DerivationError(
                f"{context}: reading {position} ({reading.sensor_id!r} at "
                f"{reading.timestamp.isoformat()}) is not numeric"
            )
        values.append(float(reading.value))
    return values


def _coerce(value, output_type: str, context: str) -> AttrValue:
    if output_type == "boolean":
        if type(value) is bool:
            return value
        raise DerivationError(f"{context}: cannot coerce {value!r} to boolean")
    if output_type == "float":
        if _is_number(value):
            return float(value)
        raise DerivationError(f"{context}: cannot coerce {value!r} to float")
    if output_type == "int":
        if type(value) is bool:
            raise DerivationError(f"{context}: cannot coerce a boolean to int")
        number = int(value) if isinstance(value, float) and value.is_integer() else value
        if not isinstance(number, int):
            raise DerivationError(f"{context}: cannot coerce {value!r} to int")
        if not -(2**63) <= number < 2**63:  # the range an XES <int> attribute holds
            raise DerivationError(f"{context}: cannot coerce {value!r} to int: outside 64 bits")
        return number
    if isinstance(value, str):
        return value
    if type(value) is bool:
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    raise DerivationError(f"{context}: cannot coerce {value!r} to string")


def derive_value(
    derivation: Derivation | None, readings: list[SensorReading], context: str = "derivation"
) -> AttrValue | None:
    """Collapse correlated readings to one attribute value; None if none matched.

    With no derivation the last reading's value passes through unchanged.
    Mean is the left-to-right binary64 sum over stream order divided by the
    count. The bucket aggregator buckets the maximum: label i for the first
    boundary b_i with max <= b_i, the last label if the maximum clears every
    boundary.
    """
    if not readings:
        return None
    if derivation is None:
        return readings[-1].value
    agg = derivation.aggregator
    if agg is Aggregator.FIRST:
        return _coerce(readings[0].value, derivation.output_type, context)
    if agg is Aggregator.LAST:
        return _coerce(readings[-1].value, derivation.output_type, context)
    values = _numeric_values(readings, context)
    if agg is Aggregator.MIN:
        return _coerce(min(values), derivation.output_type, context)
    if agg is Aggregator.MAX:
        return _coerce(max(values), derivation.output_type, context)
    if agg is Aggregator.SUM:
        return _coerce(_sum(values), derivation.output_type, context)
    if agg is Aggregator.MEAN:
        return _coerce(_sum(values) / len(values), derivation.output_type, context)
    if agg is Aggregator.ANY_ABOVE:
        assert derivation.threshold is not None
        return _coerce(
            any(v > derivation.threshold for v in values), derivation.output_type, context
        )
    if agg is Aggregator.ALL_BELOW:
        assert derivation.threshold is not None
        return _coerce(
            all(v < derivation.threshold for v in values), derivation.output_type, context
        )
    assert agg is Aggregator.THRESHOLD_BUCKET
    assert derivation.boundaries is not None and derivation.labels is not None
    peak = max(values)
    idx = bisect_left(derivation.boundaries, peak)
    return _coerce(derivation.labels[idx], derivation.output_type, context)


# --- event derivation -------------------------------------------------------

DERIVED_FROM_KEY = "derived_from"


def derive_events(
    rule: EventDerivationRule,
    index: StreamIndex,
    events: list[Event],
    trace_attrs: dict[str, AttrValue],
    case_id: str,
) -> tuple[list[tuple[Event, int]], str | None]:
    """Events a rule inserts for this trace, one per maximal run, each with
    the stream position of its run's first reading; and an optional warning.

    The correlated readings are scanned in stream order; every maximal run
    of consecutive readings satisfying the condition yields one event at the
    run's first reading. Run detection — rather than one event per reading —
    keeps a high-frequency sensor from flooding the trace. Each event
    carries a derived_from attribute naming the rule, which is also what
    lets re-enrichment recognise it as already present.

    The rule's id and activity are checked once per call. The values are
    tested, and the runs found, by C-level maps over the whole correlation;
    the events are then built without the checks of Event, which they pass:
    a reading's timestamp is normal, and the one mark needs no sort.
    """
    positions, warning = correlate_trace(
        rule.correlation, index, rule.source_id, events, trace_attrs, case_id
    )
    readings = _readings_at(index, rule.source_id, positions)
    marks = (Attribute(DERIVED_FROM_KEY, rule.rule_id),)  # one mark shared by the rule's events
    activity = rule.activity
    if not _writable(activity):
        raise _unwritable(f"event activity {activity!r}", activity)
    values = list(map(_value, readings))
    if not set(map(type, values)) <= {float}:
        # Otherwise convert them one by one, and name the first that is not a number.
        numbers = []
        for position, value in enumerate(values):
            if not _is_number(value):
                raise DerivationError(
                    f"rule {rule.rule_id!r}: reading {position} in {rule.source_id!r} "
                    f"is not numeric"
                )
            numbers.append(float(value))
        values = numbers
    flags = list(map(rule.condition.predicate(), values))
    # A run starts where a reading holds and the one before it does not.
    starts = compress(range(len(flags)), map(gt, flags, chain((False,), flags)))
    derived: list[tuple[Event, int]] = []
    for start in starts:
        event = _new(Event)
        _set_activity(event, activity)
        _set_timestamp(event, readings[start].timestamp)
        _set_attributes(event, marks)
        derived.append((event, positions[start]))
    return derived, warning


# --- the enrichment pass ----------------------------------------------------


def _enrich_trace(
    trace: Trace, index: StreamIndex, plan: EnrichmentPlan
) -> tuple[Trace, list[AuditRecord], list[str], list[tuple[str, float]]]:
    """Run the plan over one trace; the plan has passed `validate_plan`.

    Returns the enriched trace, its audit records, its warnings and its
    process-report contributions as (report key, value) pairs. The trace,
    its rebuilt events and their attributes are built without the checks of
    their constructors: the existing parts passed them, the plan's keys
    passed `validate_plan`, and each value written is checked when it is
    written.
    """
    case_id = trace.case_id
    events = list(trace.events)
    trace_attrs: dict[str, AttrValue] = {a.key: a.value for a in trace.attributes}
    audit: list[AuditRecord] = []
    warnings: list[str] = []
    contributions: list[tuple[str, float]] = []
    policy = plan.collision_policy

    # Step 1: event derivation rules, all against the original span. A
    # candidate whose (activity, timestamp, rule) is already in the trace,
    # or was derived just before it, is dropped.
    derived: list[tuple[EventDerivationRule, list[tuple[Event, int]]]] = []
    for rule in plan.event_rules:
        pairs, warning = derive_events(rule, index, events, trace_attrs, case_id)
        if warning:
            warnings.append(warning)
        if pairs:
            derived.append((rule, pairs))
    if derived:
        seen = {(ev.activity, ev.timestamp, ev.get(DERIVED_FROM_KEY)) for ev in events}
        inserted: list[tuple[EventDerivationRule, Event, int]] = []
        for rule, pairs in derived:
            activity, rule_id = rule.activity, rule.rule_id
            for ev, trigger in pairs:
                key = (activity, ev.timestamp, rule_id)
                if key not in seen:
                    seen.add(key)
                    inserted.append((rule, ev, trigger))
        merged = events + [ev for _, ev, _ in inserted]
        # Stable: on equal timestamps original events come first, then
        # derived ones in rule order, then in stream order.
        order = sorted(range(len(merged)), key=list(map(_timestamp, merged)).__getitem__)
        events = list(map(merged.__getitem__, order))
        position = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
        for i, (rule, ev, trigger) in enumerate(inserted, start=len(trace.events)):
            audit.append(
                _audit_record(
                    "derived_event", case_id, rule.rule_id, rule.source_id, ev.activity,
                    ev.timestamp, (trigger,), position[i],
                )
            )

    # Step 2: bindings, in plan order, on the evolving trace. The anchor
    # None stands for the trace. Event writes collect per event position.
    written: dict[int, dict[str, AttrValue]] = {}
    case_written = False
    for binding in plan.bindings:
        kind = binding.target.kind
        key = binding.target.key
        source_id = binding.source_id
        binding_id = binding.binding_id
        correlation = binding.correlation
        anchors: list[int | None] = [None]
        if kind is TargetKind.EVENT_ATTRIBUTE:
            wanted = binding.target.activity_filter
            anchors = [p for p, e in enumerate(events) if not wanted or e.activity in wanted]
        # A nearest_* strategy correlates each event on its own. Any other
        # gives every anchor the trace's readings, so it correlates and
        # derives once, for the first anchor.
        per_event = kind is TargetKind.EVENT_ATTRIBUTE and correlation.strategy in _NEAREST
        positions = None
        for pos in anchors:
            if per_event or positions is None:
                if per_event:
                    positions, warning = correlate_event(
                        correlation, index, source_id, events[pos], events, trace_attrs, case_id
                    )
                else:
                    positions, warning = correlate_trace(
                        correlation, index, source_id, events, trace_attrs, case_id
                    )
                if warning:
                    # A warning depends only on the trace's attributes, so it
                    # would repeat for every further anchor: end the binding here.
                    warnings.append(warning)
                    break
                readings = _readings_at(index, source_id, positions)
                value = derive_value(binding.derivation, readings, f"binding {binding_id!r}")
            if value is None:
                continue
            if kind is TargetKind.PROCESS_REPORT_ENTRY:
                if not _is_number(value):
                    raise DerivationError(
                        f"binding {binding_id!r}: process report entries must be "
                        f"numeric, got {value!r}"
                    )
                contributions.append((key, float(value)))
                continue
            if pos is None:
                attrs, scope, record_kind = trace_attrs, "case", "case_attribute"
            else:
                attrs = written.get(pos) or {a.key: a.value for a in events[pos].attributes}
                scope, record_kind = "event", "event_attribute"
            if key in attrs:
                if policy is CollisionPolicy.ERROR:
                    raise CollisionError(case_id, key, scope, binding_id)
                if policy is CollisionPolicy.SKIP:
                    continue
            replaced = attrs.get(key)
            attrs[key] = _normalize_value(key, value)
            if pos is None:
                case_written = True
            else:
                written[pos] = attrs
            audit.append(
                _audit_record(
                    record_kind, case_id, binding_id, source_id, key, value, positions, pos,
                    replaced,
                )
            )
    for pos, attrs in written.items():  # each written event is rebuilt once
        event = events[pos]
        attributes = [_parsed_attribute(k, v) for k, v in attrs.items()]
        events[pos] = _parsed_event(event.activity, event.timestamp, attributes)
    attributes = trace.attributes
    if case_written:
        attributes = [_parsed_attribute(k, v) for k, v in trace_attrs.items()]
    return _parsed_trace(case_id, attributes, tuple(events)), audit, warnings, contributions


def enrich(log: Log, index: StreamIndex, plan: EnrichmentPlan) -> EnrichmentResult:
    """Run the full plan over the log.

    Traces are processed in log order; bindings within a trace in plan
    order, which makes collision behaviour reproducible. Raises
    InvalidPlanError / InvalidLogError before touching anything, and
    CollisionError mid-pass when collision_policy=error meets an existing
    key.
    """
    issues = validate_plan(plan)
    if issues:
        raise InvalidPlanError(issues)
    violations = validate_log(log)
    if violations:
        raise InvalidLogError(violations)

    traces: list[Trace] = []
    audit: list[AuditRecord] = []
    warnings: list[str] = []
    contributions: dict[str, list[tuple[str, float]]] = {
        b.target.key: [] for b in plan.bindings if b.target.kind is TargetKind.PROCESS_REPORT_ENTRY
    }
    for trace in log.traces:
        new_trace, trace_audit, trace_warnings, values = _enrich_trace(trace, index, plan)
        traces.append(new_trace)
        audit += trace_audit
        warnings += trace_warnings
        for key, value in values:
            contributions[key].append((trace.case_id, value))

    entries = {
        key: _sum(v for _, v in pairs) / len(pairs) if pairs else None
        for key, pairs in contributions.items()
    }
    return EnrichmentResult(
        log=Log(traces=tuple(traces), metadata=log.metadata),
        report=ProcessContextReport(
            entries=entries,
            case_count=len(log.traces),
            contributions={k: tuple(v) for k, v in contributions.items()},
        ),
        audit=tuple(audit),
        warnings=tuple(warnings),
    )
