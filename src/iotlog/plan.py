"""Declarative enrichment plans.

A plan names sensor sources, organisational constants, attribute bindings
and event derivation rules, and is the single input that drives enrichment.
Plans are stored as JSON; `parse_plan` and `serialize_plan` round-trip, and
`validate_plan` checks the structural rules that parsing alone cannot, most
importantly the level restriction: context bound at event level must land in
an event attribute, instance-level context in a case attribute, and
process-level context in the sidecar report, never in the log itself.
Organisational context enters only as named constants feeding rules, and
sensor-level context only as declared sources, so neither is a legal binding
level. The business concern and analytical questions a plan answers ride
along as provenance metadata; they gate nothing.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Any

from .xes import _unwritable, _writable

PLAN_VERSION = 1
SOURCE_VALUE_TYPES = ("decimal", "string", "boolean")
OUTPUT_TYPES = ("string", "int", "float", "boolean")
SOURCE_FORMATS = ("csv", "jsonl")


class ProcessContextLevel(str, Enum):
    ORGANISATIONAL = "organisational"
    PROCESS = "process"
    INSTANCE = "instance"
    EVENT = "event"
    SENSOR = "sensor"


class IoTContextCategory(str, Enum):
    PHYSICAL_OBJECT = "physical_object"
    LOCATION = "location"
    TIME = "time"
    IDENTITY = "identity"
    ENVIRONMENT = "environment"


class CorrelationStrategy(str, Enum):
    NEAREST_BEFORE = "nearest_before"
    NEAREST_WITHIN = "nearest_within"
    SPAN_OVERLAP = "span_overlap"
    SUBJECT_KEY_EQUALS = "subject_key_equals"


TRACE_SCOPED_STRATEGIES = frozenset(
    {CorrelationStrategy.SPAN_OVERLAP, CorrelationStrategy.SUBJECT_KEY_EQUALS}
)


class Aggregator(str, Enum):
    FIRST = "first"
    LAST = "last"
    MIN = "min"
    MAX = "max"
    MEAN = "mean"
    SUM = "sum"
    ANY_ABOVE = "any_above"
    ALL_BELOW = "all_below"
    THRESHOLD_BUCKET = "threshold_bucket"


NUMERIC_AGGREGATORS = frozenset(
    {
        Aggregator.MIN,
        Aggregator.MAX,
        Aggregator.MEAN,
        Aggregator.SUM,
        Aggregator.ANY_ABOVE,
        Aggregator.ALL_BELOW,
        Aggregator.THRESHOLD_BUCKET,
    }
)


class TargetKind(str, Enum):
    EVENT_ATTRIBUTE = "event_attribute"
    CASE_ATTRIBUTE = "case_attribute"
    PROCESS_REPORT_ENTRY = "process_report_entry"


# The level restriction: which binding levels exist at all, and where each
# one must write. Organisational and sensor levels are absent on purpose.
LEVEL_TARGETS = {
    ProcessContextLevel.EVENT: TargetKind.EVENT_ATTRIBUTE,
    ProcessContextLevel.INSTANCE: TargetKind.CASE_ATTRIBUTE,
    ProcessContextLevel.PROCESS: TargetKind.PROCESS_REPORT_ENTRY,
}


class CollisionPolicy(str, Enum):
    ERROR = "error"
    OVERWRITE = "overwrite"
    SKIP = "skip"


class PlanParseError(ValueError):
    """Plan JSON is malformed; `path` points at the offending element."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path or "/"


@dataclass(frozen=True)
class SourceDecl:
    """One sensor stream: where its file lives and how to read its values."""

    source_id: str
    sensor_type: str
    path: str
    format: str
    value_type: str
    category: IoTContextCategory
    unit: str | None = None

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        if self.format not in SOURCE_FORMATS:
            raise ValueError(f"format must be one of {SOURCE_FORMATS}, got {self.format!r}")
        if self.value_type not in SOURCE_VALUE_TYPES:
            raise ValueError(
                f"value_type must be one of {SOURCE_VALUE_TYPES}, got {self.value_type!r}"
            )


@dataclass(frozen=True)
class RuleConstant:
    """A named organisational parameter, referenced by rules as {"const": name}.

    The rationale records where the number comes from (a guideline, a policy,
    a safety limit) so the plan stays auditable.
    """

    name: str
    value: float | str
    rationale: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("constant name must be non-empty")
        if type(self.value) is bool:
            raise TypeError("constant value must be a number or a string")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", float(self.value))
        elif not isinstance(self.value, (float, str)):
            raise TypeError("constant value must be a number or a string")


@dataclass(frozen=True)
class Correlation:
    """How readings are matched to an event or a trace.

    nearest_before  — the latest reading at or before the anchor timestamp
    nearest_within  — the reading closest to the anchor timestamp within
                      `window_seconds`; ties go to the earlier reading, then
                      to the smaller sensor_id
    span_overlap    — every reading inside the trace's closed [first, last]
                      event-time span
    subject_key_equals — readings inside the span whose subject_key equals
                      the trace attribute named by `subject_attribute` (the
                      name "case_id" resolves to the trace's case id)
    """

    strategy: CorrelationStrategy
    window_seconds: float | None = None
    subject_attribute: str | None = None

    def __post_init__(self) -> None:
        if self.strategy is CorrelationStrategy.NEAREST_WITHIN:
            if self.window_seconds is None or self.window_seconds <= 0:
                raise ValueError("nearest_within requires window_seconds > 0")
            object.__setattr__(self, "window_seconds", float(self.window_seconds))
        elif self.window_seconds is not None:
            raise ValueError(f"{self.strategy.value} does not take window_seconds")
        if self.strategy is CorrelationStrategy.SUBJECT_KEY_EQUALS:
            if not self.subject_attribute:
                raise ValueError("subject_key_equals requires subject_attribute")
        elif self.subject_attribute is not None:
            raise ValueError(f"{self.strategy.value} does not take subject_attribute")


@dataclass(frozen=True)
class Derivation:
    """How correlated readings collapse into one attribute value.

    threshold_bucket buckets the maximum of the correlated values: with
    boundaries [b0 < b1 < ...] and labels [l0, l1, ...], a maximum v gets
    label l_i for the first boundary with v <= b_i, else the last label.
    threshold_ref remembers which named constant the threshold came from so
    serialization reproduces the {"const": ...} form.
    """

    aggregator: Aggregator
    output_type: str
    threshold: float | None = None
    threshold_ref: str | None = None
    boundaries: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.output_type not in OUTPUT_TYPES:
            raise ValueError(f"output_type must be one of {OUTPUT_TYPES}")
        needs_threshold = self.aggregator in (Aggregator.ANY_ABOVE, Aggregator.ALL_BELOW)
        if needs_threshold:
            if self.threshold is None:
                raise ValueError(f"{self.aggregator.value} requires threshold")
            object.__setattr__(self, "threshold", float(self.threshold))
        elif self.threshold is not None or self.threshold_ref is not None:
            raise ValueError(f"{self.aggregator.value} does not take threshold")
        if self.aggregator is Aggregator.THRESHOLD_BUCKET:
            if not self.boundaries or not self.labels:
                raise ValueError("threshold_bucket requires boundaries and labels")
            bounds = tuple(float(b) for b in self.boundaries)
            if any(a >= b for a, b in zip(bounds, bounds[1:])):
                raise ValueError("boundaries must be strictly increasing")
            if len(self.labels) != len(bounds) + 1:
                raise ValueError("need exactly len(boundaries) + 1 labels")
            object.__setattr__(self, "boundaries", bounds)
            object.__setattr__(self, "labels", tuple(self.labels))
        elif self.boundaries is not None or self.labels is not None:
            raise ValueError(f"{self.aggregator.value} does not take boundaries/labels")


@dataclass(frozen=True)
class Target:
    """Where a binding writes. activity_filter narrows an event-attribute
    target to events with one of the listed activities; empty means all."""

    kind: TargetKind
    key: str
    activity_filter: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("target key must be non-empty")
        object.__setattr__(self, "activity_filter", tuple(self.activity_filter))
        if self.activity_filter and self.kind is not TargetKind.EVENT_ATTRIBUTE:
            raise ValueError("activity_filter only applies to event_attribute targets")


@dataclass(frozen=True)
class Binding:
    """Attach one derived (or raw) value from one source at one context level.

    Without a derivation the value of the last correlated reading is attached
    unchanged, typed by the source's value_type.
    """

    binding_id: str
    source_id: str
    level: ProcessContextLevel
    category: IoTContextCategory
    correlation: Correlation
    target: Target
    derivation: Derivation | None = None

    def __post_init__(self) -> None:
        if not self.binding_id:
            raise ValueError("binding_id must be non-empty")


@dataclass(frozen=True)
class Condition:
    """A per-reading predicate for event derivation."""

    op: str  # "above" | "below" | "equals"
    threshold: float
    threshold_ref: str | None = None

    def __post_init__(self) -> None:
        if self.op not in ("above", "below", "equals"):
            raise ValueError(f"condition op must be above, below or equals, got {self.op!r}")
        object.__setattr__(self, "threshold", float(self.threshold))

    def holds(self, value: float) -> bool:
        if self.op == "above":
            return value > self.threshold
        if self.op == "below":
            return value < self.threshold
        return value == self.threshold

    def predicate(self) -> Callable[[float], bool]:
        """`holds` for float values: a comparison method of the threshold, which map() runs in C."""
        t = self.threshold
        return {"above": t.__lt__, "below": t.__gt__, "equals": t.__eq__}[self.op]


@dataclass(frozen=True)
class EventDerivationRule:
    """Insert one event per maximal run of readings satisfying `condition`.

    Only trace-scoped correlation (span_overlap or subject_key_equals) makes
    sense here; validate_plan rejects the rest.
    """

    rule_id: str
    source_id: str
    correlation: Correlation
    condition: Condition
    activity: str

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ValueError("rule_id must be non-empty")
        if not self.activity:
            raise ValueError("activity must be non-empty")


@dataclass(frozen=True)
class EnrichmentPlan:
    plan_version: int = PLAN_VERSION
    business_concern: str = ""
    analytical_questions: tuple[str, ...] = ()
    sources: tuple[SourceDecl, ...] = ()
    constants: tuple[RuleConstant, ...] = ()
    bindings: tuple[Binding, ...] = ()
    event_rules: tuple[EventDerivationRule, ...] = ()
    excluded_keys: tuple[str, ...] = ()
    collision_policy: CollisionPolicy = CollisionPolicy.ERROR

    def __post_init__(self) -> None:
        if self.plan_version != PLAN_VERSION:
            raise ValueError(f"unsupported plan_version {self.plan_version!r}")

    def source(self, source_id: str) -> SourceDecl | None:
        for decl in self.sources:
            if decl.source_id == source_id:
                return decl
        return None

    def constant(self, name: str) -> RuleConstant | None:
        for const in self.constants:
            if const.name == name:
                return const
        return None


@dataclass(frozen=True)
class PlanIssue:
    code: str
    message: str
    path: str


# --- parsing ----------------------------------------------------------------


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise PlanParseError(f"missing required key {key!r}", path)
    return obj[key]


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise PlanParseError("expected a non-empty string", path)
    return value


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise PlanParseError("expected an object", path)
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise PlanParseError("expected an array", path)
    return value


def _as_enum(enum_cls, value: Any, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_cls)
        raise PlanParseError(f"expected one of: {allowed}; got {value!r}", path) from None


def _number_or_ref(
    value: Any, constants: dict[str, float | str], path: str
) -> tuple[float, str | None]:
    """A bare number, or {"const": name} resolving to a numeric plan constant."""
    if isinstance(value, dict):
        name = _as_str(_require(value, "const", path), f"{path}/const")
        if name not in constants:
            raise PlanParseError(f"unknown constant {name!r}", f"{path}/const")
        resolved = constants[name]
        if not isinstance(resolved, float):
            raise PlanParseError(f"constant {name!r} is not numeric", f"{path}/const")
        return resolved, name
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanParseError('expected a number or a {"const": name} reference', path)
    return float(value), None


def _parse_correlation(obj: Any, path: str) -> Correlation:
    obj = _as_obj(obj, path)
    strategy = _as_enum(CorrelationStrategy, _require(obj, "strategy", path), f"{path}/strategy")
    window = obj.get("window_seconds")
    if window is not None and (isinstance(window, bool) or not isinstance(window, (int, float))):
        raise PlanParseError("expected a number", f"{path}/window_seconds")
    subject = obj.get("subject_attribute")
    if subject is not None:
        subject = _as_str(subject, f"{path}/subject_attribute")
    try:
        return Correlation(strategy, window_seconds=window, subject_attribute=subject)
    except ValueError as exc:
        raise PlanParseError(str(exc), path) from None


def _parse_derivation(obj: Any, constants: dict[str, float | str], path: str) -> Derivation:
    obj = _as_obj(obj, path)
    aggregator = _as_enum(Aggregator, _require(obj, "aggregator", path), f"{path}/aggregator")
    output_type = _as_str(_require(obj, "output_type", path), f"{path}/output_type")
    threshold = threshold_ref = None
    if "threshold" in obj:
        threshold, threshold_ref = _number_or_ref(obj["threshold"], constants, f"{path}/threshold")
    boundaries = labels = None
    if "boundaries" in obj:
        raw = _as_list(obj["boundaries"], f"{path}/boundaries")
        boundaries = []
        for i, item in enumerate(raw):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise PlanParseError("expected a number", f"{path}/boundaries/{i}")
            boundaries.append(float(item))
    if "labels" in obj:
        raw = _as_list(obj["labels"], f"{path}/labels")
        labels = tuple(_as_str(item, f"{path}/labels/{i}") for i, item in enumerate(raw))
    try:
        return Derivation(
            aggregator,
            output_type,
            threshold=threshold,
            threshold_ref=threshold_ref,
            boundaries=tuple(boundaries) if boundaries is not None else None,
            labels=labels,
        )
    except ValueError as exc:
        raise PlanParseError(str(exc), path) from None


def _parse_target(obj: Any, path: str) -> Target:
    obj = _as_obj(obj, path)
    kind = _as_enum(TargetKind, _require(obj, "kind", path), f"{path}/kind")
    key = _as_str(_require(obj, "key", path), f"{path}/key")
    activity_filter = tuple(
        _as_str(item, f"{path}/activity_filter/{i}")
        for i, item in enumerate(_as_list(obj.get("activity_filter", []), f"{path}/activity_filter"))
    )
    try:
        return Target(kind, key, activity_filter)
    except ValueError as exc:
        raise PlanParseError(str(exc), path) from None


def parse_plan(data: str | bytes | dict) -> EnrichmentPlan:
    """Parse plan JSON into an EnrichmentPlan, reporting errors by JSON path."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PlanParseError(f"invalid JSON: {exc}") from None
    root = _as_obj(data, "")
    version = _require(root, "plan_version", "")
    if version != PLAN_VERSION:
        raise PlanParseError(f"unsupported plan_version {version!r}", "/plan_version")
    concern = root.get("business_concern", "")
    if not isinstance(concern, str):
        raise PlanParseError("expected a string", "/business_concern")
    questions = tuple(
        _as_str(item, f"/analytical_questions/{i}")
        for i, item in enumerate(
            _as_list(root.get("analytical_questions", []), "/analytical_questions")
        )
    )

    constants = []
    for i, item in enumerate(_as_list(root.get("constants", []), "/constants")):
        path = f"/constants/{i}"
        obj = _as_obj(item, path)
        value = _require(obj, "value", path)
        if type(value) is bool or not isinstance(value, (int, float, str)):
            raise PlanParseError("expected a number or a string", f"{path}/value")
        rationale = obj.get("rationale", "")
        if not isinstance(rationale, str):
            raise PlanParseError("expected a string", f"{path}/rationale")
        constants.append(
            RuleConstant(
                name=_as_str(_require(obj, "name", path), f"{path}/name"),
                value=value,
                rationale=rationale,
            )
        )
    const_values = {c.name: c.value for c in constants}

    sources = []
    for i, item in enumerate(_as_list(root.get("sources", []), "/sources")):
        path = f"/sources/{i}"
        obj = _as_obj(item, path)
        unit = obj.get("unit")
        if unit is not None:
            unit = _as_str(unit, f"{path}/unit")
        try:
            sources.append(
                SourceDecl(
                    source_id=_as_str(_require(obj, "source_id", path), f"{path}/source_id"),
                    sensor_type=_as_str(_require(obj, "sensor_type", path), f"{path}/sensor_type"),
                    path=_as_str(_require(obj, "path", path), f"{path}/path"),
                    format=_as_str(_require(obj, "format", path), f"{path}/format"),
                    value_type=_as_str(_require(obj, "value_type", path), f"{path}/value_type"),
                    category=_as_enum(
                        IoTContextCategory, _require(obj, "category", path), f"{path}/category"
                    ),
                    unit=unit,
                )
            )
        except ValueError as exc:
            raise PlanParseError(str(exc), path) from None

    bindings = []
    for i, item in enumerate(_as_list(root.get("bindings", []), "/bindings")):
        path = f"/bindings/{i}"
        obj = _as_obj(item, path)
        derivation = None
        if obj.get("derivation") is not None:
            derivation = _parse_derivation(obj["derivation"], const_values, f"{path}/derivation")
        bindings.append(
            Binding(
                binding_id=_as_str(_require(obj, "binding_id", path), f"{path}/binding_id"),
                source_id=_as_str(_require(obj, "source_id", path), f"{path}/source_id"),
                level=_as_enum(ProcessContextLevel, _require(obj, "level", path), f"{path}/level"),
                category=_as_enum(
                    IoTContextCategory, _require(obj, "category", path), f"{path}/category"
                ),
                correlation=_parse_correlation(
                    _require(obj, "correlation", path), f"{path}/correlation"
                ),
                target=_parse_target(_require(obj, "target", path), f"{path}/target"),
                derivation=derivation,
            )
        )

    event_rules = []
    for i, item in enumerate(_as_list(root.get("event_rules", []), "/event_rules")):
        path = f"/event_rules/{i}"
        obj = _as_obj(item, path)
        cond_path = f"{path}/condition"
        cond_obj = _as_obj(_require(obj, "condition", path), cond_path)
        threshold, threshold_ref = _number_or_ref(
            _require(cond_obj, "threshold", cond_path), const_values, f"{cond_path}/threshold"
        )
        try:
            condition = Condition(
                op=_as_str(_require(cond_obj, "op", cond_path), f"{cond_path}/op"),
                threshold=threshold,
                threshold_ref=threshold_ref,
            )
        except ValueError as exc:
            raise PlanParseError(str(exc), cond_path) from None
        event_rules.append(
            EventDerivationRule(
                rule_id=_as_str(_require(obj, "rule_id", path), f"{path}/rule_id"),
                source_id=_as_str(_require(obj, "source_id", path), f"{path}/source_id"),
                correlation=_parse_correlation(
                    _require(obj, "correlation", path), f"{path}/correlation"
                ),
                condition=condition,
                activity=_as_str(_require(obj, "activity", path), f"{path}/activity"),
            )
        )

    excluded = tuple(
        _as_str(item, f"/excluded_keys/{i}")
        for i, item in enumerate(_as_list(root.get("excluded_keys", []), "/excluded_keys"))
    )
    policy = _as_enum(CollisionPolicy, root.get("collision_policy", "error"), "/collision_policy")
    return EnrichmentPlan(
        plan_version=PLAN_VERSION,
        business_concern=concern,
        analytical_questions=questions,
        sources=tuple(sources),
        constants=tuple(constants),
        bindings=tuple(bindings),
        event_rules=tuple(event_rules),
        excluded_keys=excluded,
        collision_policy=policy,
    )


# --- serialization ----------------------------------------------------------


def _threshold_json(value: float, ref: str | None):
    return {"const": ref} if ref is not None else value


def _correlation_json(corr: Correlation) -> dict:
    out: dict[str, Any] = {"strategy": corr.strategy.value}
    if corr.window_seconds is not None:
        out["window_seconds"] = corr.window_seconds
    if corr.subject_attribute is not None:
        out["subject_attribute"] = corr.subject_attribute
    return out


def plan_to_dict(plan: EnrichmentPlan) -> dict:
    """The canonical JSON object form of a plan (parse_plan inverts it)."""
    out: dict[str, Any] = {"plan_version": plan.plan_version}
    if plan.business_concern:
        out["business_concern"] = plan.business_concern
    if plan.analytical_questions:
        out["analytical_questions"] = list(plan.analytical_questions)
    out["collision_policy"] = plan.collision_policy.value
    if plan.excluded_keys:
        out["excluded_keys"] = list(plan.excluded_keys)
    if plan.constants:
        out["constants"] = [
            {
                "name": c.name,
                "value": c.value,
                **({"rationale": c.rationale} if c.rationale else {}),
            }
            for c in plan.constants
        ]
    if plan.sources:
        out["sources"] = [
            {
                "source_id": s.source_id,
                "sensor_type": s.sensor_type,
                "path": s.path,
                "format": s.format,
                "value_type": s.value_type,
                "category": s.category.value,
                **({"unit": s.unit} if s.unit is not None else {}),
            }
            for s in plan.sources
        ]
    if plan.bindings:
        out["bindings"] = []
        for b in plan.bindings:
            entry: dict[str, Any] = {
                "binding_id": b.binding_id,
                "source_id": b.source_id,
                "level": b.level.value,
                "category": b.category.value,
                "correlation": _correlation_json(b.correlation),
            }
            if b.derivation is not None:
                d = b.derivation
                deriv: dict[str, Any] = {"aggregator": d.aggregator.value}
                if d.threshold is not None:
                    deriv["threshold"] = _threshold_json(d.threshold, d.threshold_ref)
                if d.boundaries is not None:
                    deriv["boundaries"] = list(d.boundaries)
                if d.labels is not None:
                    deriv["labels"] = list(d.labels)
                deriv["output_type"] = d.output_type
                entry["derivation"] = deriv
            target: dict[str, Any] = {"kind": b.target.kind.value, "key": b.target.key}
            if b.target.activity_filter:
                target["activity_filter"] = list(b.target.activity_filter)
            entry["target"] = target
            out["bindings"].append(entry)
    if plan.event_rules:
        out["event_rules"] = [
            {
                "rule_id": r.rule_id,
                "source_id": r.source_id,
                "correlation": _correlation_json(r.correlation),
                "condition": {
                    "op": r.condition.op,
                    "threshold": _threshold_json(r.condition.threshold, r.condition.threshold_ref),
                },
                "activity": r.activity,
            }
            for r in plan.event_rules
        ]
    return out


def serialize_plan(plan: EnrichmentPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2) + "\n"


# --- validation -------------------------------------------------------------


def validate_plan(plan: EnrichmentPlan) -> list[PlanIssue]:
    """Structural checks beyond parsing. An empty list means the plan is executable."""
    issues: list[PlanIssue] = []

    def issue(code: str, message: str, path: str) -> None:
        issues.append(PlanIssue(code, message, path))

    def writable(field: str, text: str, path: str) -> None:
        # Text the enrichment writes into the log must be text XML 1.0 can carry.
        if not _writable(text):
            issue("UNWRITABLE_TEXT", str(_unwritable(f"{field} {text!r}", text)), path)

    declared: dict[str, str] = {}
    for i, s in enumerate(plan.sources):
        if s.source_id in declared:
            issue(
                "DUPLICATE_SOURCE_ID", f"source_id {s.source_id!r} declared twice", f"/sources/{i}"
            )
        declared[s.source_id] = s.value_type
    names = set()
    for i, c in enumerate(plan.constants):
        if c.name in names:
            issue("DUPLICATE_CONSTANT", f"constant {c.name!r} declared twice", f"/constants/{i}")
        names.add(c.name)
    ids: set[str] = set()
    for i, b in enumerate(plan.bindings):
        if b.binding_id in ids:
            issue("DUPLICATE_BINDING_ID", f"binding_id {b.binding_id!r} reused", f"/bindings/{i}")
        ids.add(b.binding_id)
    rule_ids: set[str] = set()
    for i, r in enumerate(plan.event_rules):
        if r.rule_id in rule_ids:
            issue("DUPLICATE_RULE_ID", f"rule_id {r.rule_id!r} reused", f"/event_rules/{i}")
        rule_ids.add(r.rule_id)

    keys_in_scope: dict[tuple[TargetKind, str], int] = {}
    for b in plan.bindings:
        scope_key = (b.target.kind, b.target.key)
        keys_in_scope[scope_key] = keys_in_scope.get(scope_key, 0) + 1
    flagged: set[tuple[TargetKind, str]] = set()

    for i, b in enumerate(plan.bindings):
        path = f"/bindings/{i}"
        if b.source_id not in declared:
            issue(
                "UNKNOWN_SOURCE",
                f"binding {b.binding_id!r} names undeclared source {b.source_id!r}",
                path,
            )
        if b.level not in LEVEL_TARGETS:
            issue(
                "FORBIDDEN_LEVEL",
                f"binding {b.binding_id!r} uses level {b.level.value!r}; bindings may only "
                "sit at event, instance or process level",
                path,
            )
        elif b.target.kind is not LEVEL_TARGETS[b.level]:
            issue(
                "LEVEL_TARGET_MISMATCH",
                f"level {b.level.value!r} must write to {LEVEL_TARGETS[b.level].value!r}, "
                f"not {b.target.kind.value!r}",
                path,
            )
        scope_key = (b.target.kind, b.target.key)
        if keys_in_scope[scope_key] > 1 and scope_key not in flagged:
            flagged.add(scope_key)
            issue(
                "DUPLICATE_TARGET_KEY",
                f"{keys_in_scope[scope_key]} bindings write {b.target.key!r} in the "
                f"{b.target.kind.value} scope",
                path,
            )
        if b.target.key in plan.excluded_keys:
            issue(
                "EXCLUDED_KEY_TARGET",
                f"binding {b.binding_id!r} writes excluded key {b.target.key!r}",
                path,
            )
        if b.target.kind is not TargetKind.PROCESS_REPORT_ENTRY:
            writable("target key", b.target.key, f"{path}/target/key")
        d = b.derivation
        value_type = declared.get(b.source_id)
        if d is not None:
            for j, label in enumerate(d.labels or ()):
                writable("threshold_bucket label", label, f"{path}/derivation/labels/{j}")
            if (
                d.aggregator in NUMERIC_AGGREGATORS
                and value_type is not None
                and value_type != "decimal"
            ):
                issue(
                    "NON_NUMERIC_SOURCE",
                    f"aggregator {d.aggregator.value!r} needs a decimal source, "
                    f"but {b.source_id!r} yields {value_type}",
                    f"{path}/derivation",
                )
            if (
                d.aggregator in (Aggregator.ANY_ABOVE, Aggregator.ALL_BELOW)
                and d.output_type != "boolean"
            ):
                issue(
                    "BAD_OUTPUT_TYPE",
                    f"{d.aggregator.value} produces a boolean, not {d.output_type!r}",
                    f"{path}/derivation",
                )
            if d.aggregator is Aggregator.THRESHOLD_BUCKET and d.output_type != "string":
                issue(
                    "BAD_OUTPUT_TYPE",
                    f"threshold_bucket produces a string label, not {d.output_type!r}",
                    f"{path}/derivation",
                )

    for i, r in enumerate(plan.event_rules):
        path = f"/event_rules/{i}"
        writable("rule_id", r.rule_id, f"{path}/rule_id")  # written as the derived_from value
        writable("activity", r.activity, f"{path}/activity")
        if r.source_id not in declared:
            issue(
                "UNKNOWN_SOURCE",
                f"rule {r.rule_id!r} names undeclared source {r.source_id!r}",
                path,
            )
        elif declared[r.source_id] != "decimal":
            issue(
                "NON_NUMERIC_SOURCE",
                f"rule {r.rule_id!r} compares values of non-decimal source {r.source_id!r}",
                path,
            )
        if r.correlation.strategy not in TRACE_SCOPED_STRATEGIES:
            issue(
                "BAD_RULE_CORRELATION",
                f"rule {r.rule_id!r} must correlate by span_overlap or subject_key_equals, "
                f"not {r.correlation.strategy.value!r}",
                path,
            )
    return issues


# --- classification ---------------------------------------------------------

# Fixed suggestion table for classify_source; the first token of the sensor
# type (before "_" or "-") picks the family.
_FAMILY_CATEGORIES: dict[str, IoTContextCategory] = {
    "gps": IoTContextCategory.LOCATION,
    "timer": IoTContextCategory.TIME,
    "clock": IoTContextCategory.TIME,
    "rain": IoTContextCategory.ENVIRONMENT,
    "temperature": IoTContextCategory.ENVIRONMENT,
    "humidity": IoTContextCategory.ENVIRONMENT,
    "smoke": IoTContextCategory.ENVIRONMENT,
    "weight": IoTContextCategory.PHYSICAL_OBJECT,
    "scale": IoTContextCategory.PHYSICAL_OBJECT,
}

_PERSON_SUBJECTS = frozenset({"driver", "person", "operator", "crew"})


def classify_source(sensor_type: str, hints: dict[str, str] | None = None) -> IoTContextCategory | None:
    """Suggest a category for a sensor type; None means unclassified.

    A pure lookup: the caller may override the suggestion in the plan, and
    nothing applies it automatically. RFID depends on what the tag is
    attached to: tags read off people are identity context, tags on objects
    physical-object context — unless the hint says the payload identifies
    someone (subject=driver).
    """
    family = sensor_type.strip().lower().replace("-", "_").split("_", 1)[0]
    if family == "rfid":
        subject = (hints or {}).get("subject", "").lower()
        if subject in _PERSON_SUBJECTS:
            return IoTContextCategory.IDENTITY
        return IoTContextCategory.PHYSICAL_OBJECT
    return _FAMILY_CATEGORIES.get(family)


@dataclass(frozen=True)
class ClassifiedItem:
    """One plan element placed in the level x category grid. Constants carry
    no category of their own, hence None."""

    name: str
    kind: str  # "source" | "constant" | "binding" | "event_rule"
    level: ProcessContextLevel
    category: IoTContextCategory | None


def classify_plan(plan: EnrichmentPlan) -> list[ClassifiedItem]:
    """Place every plan element in the context grid.

    Declared streams are sensor-level context, constants organisational,
    bindings sit at their declared level, and derived events are event-level
    context in the category of the stream they watch.
    """
    items = [
        ClassifiedItem(s.source_id, "source", ProcessContextLevel.SENSOR, s.category)
        for s in plan.sources
    ]
    items += [
        ClassifiedItem(c.name, "constant", ProcessContextLevel.ORGANISATIONAL, None)
        for c in plan.constants
    ]
    items += [ClassifiedItem(b.binding_id, "binding", b.level, b.category) for b in plan.bindings]
    for r in plan.event_rules:
        decl = plan.source(r.source_id)
        category = decl.category if decl else None
        items.append(ClassifiedItem(r.rule_id, "event_rule", ProcessContextLevel.EVENT, category))
    return items


def classification_grid(
    plan: EnrichmentPlan,
) -> dict[tuple[ProcessContextLevel, IoTContextCategory], list[str]]:
    grid: dict[tuple[ProcessContextLevel, IoTContextCategory], list[str]] = {
        (level, category): [] for level in ProcessContextLevel for category in IoTContextCategory
    }
    for item in classify_plan(plan):
        if item.category is not None:
            grid[(item.level, item.category)].append(item.name)
    return grid


# --- bundled plans ----------------------------------------------------------


def bundled_plan_names() -> list[str]:
    package = resources.files("iotlog.plans")
    return sorted(p.name[: -len(".json")] for p in package.iterdir() if p.name.endswith(".json"))


def bundled_plan(name: str) -> EnrichmentPlan:
    """Load one of the plans shipped inside the package by bare name."""
    package = resources.files("iotlog.plans")
    candidate = package.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled plan named {name!r}; have {bundled_plan_names()}")
    return parse_plan(candidate.read_text(encoding="utf-8"))
