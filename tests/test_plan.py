"""Plan parsing, serialization, validation and classification tests."""

from __future__ import annotations

import json

import pytest

from iotlog.plan import (
    Aggregator,
    Binding,
    CollisionPolicy,
    Correlation,
    CorrelationStrategy,
    Derivation,
    EnrichmentPlan,
    EventDerivationRule,
    Condition,
    IoTContextCategory,
    PlanParseError,
    ProcessContextLevel,
    RuleConstant,
    SourceDecl,
    Target,
    TargetKind,
    bundled_plan,
    bundled_plan_names,
    classification_grid,
    classify_plan,
    classify_source,
    parse_plan,
    plan_to_dict,
    serialize_plan,
    validate_plan,
)

SOURCE = SourceDecl(
    source_id="temp",
    sensor_type="temperature",
    path="temp.csv",
    format="csv",
    value_type="decimal",
    category=IoTContextCategory.ENVIRONMENT,
)
SPAN = Correlation(CorrelationStrategy.SPAN_OVERLAP)


def binding(
    binding_id="b1",
    *,
    level=ProcessContextLevel.INSTANCE,
    kind=TargetKind.CASE_ATTRIBUTE,
    key="reading",
    source_id="temp",
    derivation=Derivation(Aggregator.MEAN, "float"),
    correlation=SPAN,
) -> Binding:
    return Binding(
        binding_id=binding_id,
        source_id=source_id,
        level=level,
        category=IoTContextCategory.ENVIRONMENT,
        correlation=correlation,
        target=Target(kind, key),
        derivation=derivation,
    )


def plan_with(**overrides) -> EnrichmentPlan:
    base = dict(sources=(SOURCE,), bindings=(binding(),))
    base.update(overrides)
    return EnrichmentPlan(**base)


def codes(plan: EnrichmentPlan) -> list[str]:
    return [issue.code for issue in validate_plan(plan)]


# --- model constructors -------------------------------------------------------


def test_nearest_within_needs_a_positive_window():
    Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=30)
    with pytest.raises(ValueError):
        Correlation(CorrelationStrategy.NEAREST_WITHIN)
    with pytest.raises(ValueError):
        Correlation(CorrelationStrategy.NEAREST_WITHIN, window_seconds=0)
    with pytest.raises(ValueError):
        Correlation(CorrelationStrategy.SPAN_OVERLAP, window_seconds=10)


def test_subject_key_equals_needs_an_attribute_name():
    Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS, subject_attribute="plate")
    with pytest.raises(ValueError):
        Correlation(CorrelationStrategy.SUBJECT_KEY_EQUALS)
    with pytest.raises(ValueError):
        Correlation(CorrelationStrategy.NEAREST_BEFORE, subject_attribute="plate")


def test_threshold_bucket_arity_and_ordering():
    Derivation(
        Aggregator.THRESHOLD_BUCKET, "string", boundaries=(1.0, 2.0), labels=("a", "b", "c")
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        Derivation(
            Aggregator.THRESHOLD_BUCKET, "string", boundaries=(2.0, 1.0), labels=("a", "b", "c")
        )
    with pytest.raises(ValueError, match=r"len\(boundaries\) \+ 1"):
        Derivation(Aggregator.THRESHOLD_BUCKET, "string", boundaries=(1.0,), labels=("a",))
    with pytest.raises(ValueError, match="does not take boundaries"):
        Derivation(Aggregator.MEAN, "float", boundaries=(1.0,), labels=("a", "b"))


def test_threshold_only_for_threshold_aggregators():
    Derivation(Aggregator.ANY_ABOVE, "boolean", threshold=10)
    with pytest.raises(ValueError, match="requires threshold"):
        Derivation(Aggregator.ALL_BELOW, "boolean")
    with pytest.raises(ValueError, match="does not take threshold"):
        Derivation(Aggregator.SUM, "float", threshold=1.0)


def test_activity_filter_is_event_target_only():
    Target(TargetKind.EVENT_ATTRIBUTE, "k", activity_filter=("weigh",))
    with pytest.raises(ValueError):
        Target(TargetKind.CASE_ATTRIBUTE, "k", activity_filter=("weigh",))


def test_constants_reject_booleans_and_normalize_ints():
    assert RuleConstant("n", 35).value == 35.0
    with pytest.raises(TypeError):
        RuleConstant("n", True)


def test_plan_version_is_enforced():
    with pytest.raises(ValueError, match="unsupported plan_version"):
        EnrichmentPlan(plan_version=2)


# --- parse / serialize --------------------------------------------------------


def plan_json(**overrides) -> dict:
    doc = {
        "plan_version": 1,
        "business_concern": "test",
        "analytical_questions": ["q1"],
        "collision_policy": "skip",
        "excluded_keys": ["secret"],
        "constants": [{"name": "limit", "value": 35, "rationale": "why"}],
        "sources": [
            {
                "source_id": "temp",
                "sensor_type": "temperature",
                "path": "temp.csv",
                "format": "csv",
                "value_type": "decimal",
                "category": "environment",
            }
        ],
        "bindings": [
            {
                "binding_id": "b1",
                "source_id": "temp",
                "level": "instance",
                "category": "environment",
                "correlation": {"strategy": "span_overlap"},
                "derivation": {
                    "aggregator": "any_above",
                    "output_type": "boolean",
                    "threshold": {"const": "limit"},
                },
                "target": {"kind": "case_attribute", "key": "hot"},
            }
        ],
        "event_rules": [],
    }
    doc.update(overrides)
    return doc


def test_parse_resolves_constant_references():
    plan = parse_plan(json.dumps(plan_json()))
    derivation = plan.bindings[0].derivation
    assert derivation.threshold == 35.0
    assert derivation.threshold_ref == "limit"
    assert plan.collision_policy is CollisionPolicy.SKIP


def test_serialize_then_parse_is_identity():
    plan = parse_plan(json.dumps(plan_json()))
    again = parse_plan(serialize_plan(plan))
    assert again == plan
    # the {"const": ...} reference survives, it is not flattened to a number
    assert plan_to_dict(again)["bindings"][0]["derivation"]["threshold"] == {"const": "limit"}


def test_bundled_plans_parse_serialize_identically():
    for name in bundled_plan_names():
        plan = bundled_plan(name)
        assert parse_plan(serialize_plan(plan)) == plan


def test_unknown_constant_reference_fails_with_path():
    doc = plan_json()
    doc["bindings"][0]["derivation"]["threshold"] = {"const": "missing"}
    with pytest.raises(PlanParseError, match="unknown constant"):
        parse_plan(json.dumps(doc))


def test_string_constant_in_numeric_position_fails():
    doc = plan_json(constants=[{"name": "limit", "value": "high", "rationale": ""}])
    with pytest.raises(PlanParseError, match="not numeric"):
        parse_plan(json.dumps(doc))


def test_plan_version_must_match():
    with pytest.raises(PlanParseError, match="plan_version"):
        parse_plan(json.dumps(plan_json(plan_version=99)))
    doc = plan_json()
    del doc["plan_version"]
    with pytest.raises(PlanParseError, match="plan_version"):
        parse_plan(json.dumps(doc))


def test_parse_errors_carry_json_paths():
    doc = plan_json()
    doc["bindings"][0]["correlation"] = {"strategy": "teleport"}
    with pytest.raises(PlanParseError) as err:
        parse_plan(json.dumps(doc))
    assert err.value.path == "/bindings/0/correlation/strategy"


def test_invalid_json_is_a_parse_error():
    with pytest.raises(PlanParseError, match="invalid JSON"):
        parse_plan("{nope")


# --- validate_plan ------------------------------------------------------------


def test_valid_minimal_plan_has_no_issues():
    assert codes(plan_with()) == []


def test_bundled_plans_validate_cleanly():
    assert bundled_plan_names() == ["scenario1", "scenario2"]
    for name in bundled_plan_names():
        assert validate_plan(bundled_plan(name)) == []


def test_duplicate_source_constant_binding_and_rule_ids():
    assert codes(plan_with(sources=(SOURCE, SOURCE))) == ["DUPLICATE_SOURCE_ID"]
    assert codes(
        plan_with(constants=(RuleConstant("c", 1.0), RuleConstant("c", 2.0)))
    ) == ["DUPLICATE_CONSTANT"]
    assert codes(
        plan_with(bindings=(binding("b1", key="k1"), binding("b1", key="k2")))
    ) == ["DUPLICATE_BINDING_ID"]
    rule = EventDerivationRule(
        rule_id="r1",
        source_id="temp",
        correlation=SPAN,
        condition=Condition("above", 35.0),
        activity="alarm",
    )
    assert codes(plan_with(event_rules=(rule, rule))) == ["DUPLICATE_RULE_ID"]


def test_unknown_source_is_reported_for_bindings_and_rules():
    assert codes(plan_with(bindings=(binding(source_id="ghost"),))) == ["UNKNOWN_SOURCE"]
    rule = EventDerivationRule(
        rule_id="r1",
        source_id="ghost",
        correlation=SPAN,
        condition=Condition("above", 1.0),
        activity="alarm",
    )
    assert codes(plan_with(bindings=(), event_rules=(rule,))) == ["UNKNOWN_SOURCE"]


LEVEL_CASES = [
    (ProcessContextLevel.EVENT, TargetKind.EVENT_ATTRIBUTE, []),
    (ProcessContextLevel.EVENT, TargetKind.CASE_ATTRIBUTE, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.EVENT, TargetKind.PROCESS_REPORT_ENTRY, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.INSTANCE, TargetKind.CASE_ATTRIBUTE, []),
    (ProcessContextLevel.INSTANCE, TargetKind.EVENT_ATTRIBUTE, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.INSTANCE, TargetKind.PROCESS_REPORT_ENTRY, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.PROCESS, TargetKind.PROCESS_REPORT_ENTRY, []),
    (ProcessContextLevel.PROCESS, TargetKind.EVENT_ATTRIBUTE, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.PROCESS, TargetKind.CASE_ATTRIBUTE, ["LEVEL_TARGET_MISMATCH"]),
    (ProcessContextLevel.ORGANISATIONAL, TargetKind.CASE_ATTRIBUTE, ["FORBIDDEN_LEVEL"]),
    (ProcessContextLevel.ORGANISATIONAL, TargetKind.EVENT_ATTRIBUTE, ["FORBIDDEN_LEVEL"]),
    (ProcessContextLevel.ORGANISATIONAL, TargetKind.PROCESS_REPORT_ENTRY, ["FORBIDDEN_LEVEL"]),
    (ProcessContextLevel.SENSOR, TargetKind.CASE_ATTRIBUTE, ["FORBIDDEN_LEVEL"]),
    (ProcessContextLevel.SENSOR, TargetKind.EVENT_ATTRIBUTE, ["FORBIDDEN_LEVEL"]),
    (ProcessContextLevel.SENSOR, TargetKind.PROCESS_REPORT_ENTRY, ["FORBIDDEN_LEVEL"]),
]


@pytest.mark.parametrize("level,kind,expected", LEVEL_CASES)
def test_level_restriction_accept_reject_table(level, kind, expected):
    assert codes(plan_with(bindings=(binding(level=level, kind=kind),))) == expected


def test_duplicate_target_key_reported_once_per_scope():
    bindings = (
        binding("b1", key="k"),
        binding("b2", key="k"),
        binding("b3", key="k"),
        # same key at event scope is a different namespace: no clash
        binding("b4", key="k", level=ProcessContextLevel.EVENT, kind=TargetKind.EVENT_ATTRIBUTE),
    )
    assert codes(plan_with(bindings=bindings)) == ["DUPLICATE_TARGET_KEY"]


def test_excluded_key_target_is_rejected():
    plan = plan_with(excluded_keys=("reading",))
    assert codes(plan) == ["EXCLUDED_KEY_TARGET"]


def issues_of(plan: EnrichmentPlan) -> list[tuple[str, str]]:
    return [(issue.code, issue.path) for issue in validate_plan(plan)]


@pytest.mark.parametrize("text", ["a\x01b", "\ud800", "x\ufffe"])
def test_text_the_log_would_carry_must_be_text_xml_can_carry(text):
    event = ProcessContextLevel.EVENT, TargetKind.EVENT_ATTRIBUTE
    bucket = Derivation(Aggregator.THRESHOLD_BUCKET, "string", boundaries=(1.0,),
                        labels=("lo", text))
    assert issues_of(plan_with(bindings=(binding(key=text),))) == [
        ("UNWRITABLE_TEXT", "/bindings/0/target/key")
    ]
    assert issues_of(plan_with(bindings=(binding(level=event[0], kind=event[1], key=text),))) == [
        ("UNWRITABLE_TEXT", "/bindings/0/target/key")
    ]
    assert issues_of(plan_with(bindings=(binding(derivation=bucket),))) == [
        ("UNWRITABLE_TEXT", "/bindings/0/derivation/labels/1")
    ]
    rule = EventDerivationRule(text, "temp", SPAN, Condition("above", 1.0), text)
    assert issues_of(plan_with(event_rules=(rule,))) == [
        ("UNWRITABLE_TEXT", "/event_rules/0/rule_id"),
        ("UNWRITABLE_TEXT", "/event_rules/0/activity"),
    ]
    # A process report entry is written to report.json, never to the log.
    process = ProcessContextLevel.PROCESS, TargetKind.PROCESS_REPORT_ENTRY
    assert codes(plan_with(bindings=(binding(level=process[0], kind=process[1], key=text),))) == []


def test_numeric_aggregator_needs_a_decimal_source():
    text_source = SourceDecl(
        source_id="plate",
        sensor_type="rfid",
        path="plate.csv",
        format="csv",
        value_type="string",
        category=IoTContextCategory.PHYSICAL_OBJECT,
    )
    plan = plan_with(
        sources=(text_source,),
        bindings=(binding(source_id="plate", derivation=Derivation(Aggregator.MEAN, "float")),),
    )
    assert codes(plan) == ["NON_NUMERIC_SOURCE"]
    # first/last pass values through: no numeric requirement
    plan = plan_with(
        sources=(text_source,),
        bindings=(binding(source_id="plate", derivation=Derivation(Aggregator.FIRST, "string")),),
    )
    assert codes(plan) == []


def test_threshold_aggregators_must_emit_booleans():
    bad = binding(derivation=Derivation(Aggregator.ANY_ABOVE, "string", threshold=1.0))
    assert codes(plan_with(bindings=(bad,))) == ["BAD_OUTPUT_TYPE"]
    bad = binding(
        derivation=Derivation(
            Aggregator.THRESHOLD_BUCKET, "int", boundaries=(1.0,), labels=("lo", "hi")
        )
    )
    assert codes(plan_with(bindings=(bad,))) == ["BAD_OUTPUT_TYPE"]


def test_event_rules_reject_event_scoped_correlation():
    rule = EventDerivationRule(
        rule_id="r1",
        source_id="temp",
        correlation=Correlation(CorrelationStrategy.NEAREST_BEFORE),
        condition=Condition("above", 35.0),
        activity="alarm",
    )
    assert codes(plan_with(bindings=(), event_rules=(rule,))) == ["BAD_RULE_CORRELATION"]


def test_event_rules_need_a_decimal_source():
    text_source = SourceDecl(
        source_id="plate",
        sensor_type="rfid",
        path="plate.csv",
        format="csv",
        value_type="string",
        category=IoTContextCategory.PHYSICAL_OBJECT,
    )
    rule = EventDerivationRule(
        rule_id="r1",
        source_id="plate",
        correlation=SPAN,
        condition=Condition("above", 1.0),
        activity="alarm",
    )
    plan = plan_with(sources=(text_source,), bindings=(), event_rules=(rule,))
    assert codes(plan) == ["NON_NUMERIC_SOURCE"]


# --- classification -----------------------------------------------------------


@pytest.mark.parametrize(
    "sensor_type,hints,expected",
    [
        ("gps", None, IoTContextCategory.LOCATION),
        ("gps_cargo", None, IoTContextCategory.LOCATION),
        ("timer", None, IoTContextCategory.TIME),
        ("clock-wall", None, IoTContextCategory.TIME),
        ("rain", None, IoTContextCategory.ENVIRONMENT),
        ("temperature_cargo", None, IoTContextCategory.ENVIRONMENT),
        ("humidity", None, IoTContextCategory.ENVIRONMENT),
        ("smoke", None, IoTContextCategory.ENVIRONMENT),
        ("weight", None, IoTContextCategory.PHYSICAL_OBJECT),
        ("scale", None, IoTContextCategory.PHYSICAL_OBJECT),
        ("rfid", None, IoTContextCategory.PHYSICAL_OBJECT),
        ("rfid", {"subject": "driver"}, IoTContextCategory.IDENTITY),
        ("rfid_gate", {"subject": "operator"}, IoTContextCategory.IDENTITY),
        ("rfid", {"subject": "pallet"}, IoTContextCategory.PHYSICAL_OBJECT),
        ("sonar", None, None),
        ("", None, None),
    ],
)
def test_classify_source_lookup(sensor_type, hints, expected):
    assert classify_source(sensor_type, hints) is expected


def test_classify_source_is_pure():
    hints = {"subject": "driver"}
    first = classify_source("rfid", hints)
    assert classify_source("rfid", hints) is first
    assert hints == {"subject": "driver"}  # input not mutated


def test_classify_plan_places_every_element():
    plan = bundled_plan("scenario2")
    items = {(i.kind, i.name): i for i in classify_plan(plan)}
    assert items[("source", "temperature_cargo")].level is ProcessContextLevel.SENSOR
    assert items[("constant", "max_safe_temp")].level is ProcessContextLevel.ORGANISATIONAL
    assert items[("constant", "max_safe_temp")].category is None
    assert items[("binding", "bind-driver-id")].category is IoTContextCategory.IDENTITY
    rule_item = items[("event_rule", "discontinue-on-over-temp")]
    assert rule_item.level is ProcessContextLevel.EVENT
    assert rule_item.category is IoTContextCategory.ENVIRONMENT


def test_classification_grid_has_all_cells_and_no_forbidden_binding_rows():
    plan = bundled_plan("scenario1")
    grid = classification_grid(plan)
    assert len(grid) == 25
    binding_ids = {b.binding_id for b in plan.bindings}
    for level in (ProcessContextLevel.ORGANISATIONAL, ProcessContextLevel.SENSOR):
        for category in IoTContextCategory:
            assert not binding_ids & set(grid[(level, category)])


def test_bundled_plan_unknown_name():
    with pytest.raises(FileNotFoundError, match="no bundled plan"):
        bundled_plan("scenario99")
