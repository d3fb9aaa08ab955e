"""Enrich XES event logs with sensor context, query them, generate scenarios."""

from .enrich import (
    AuditRecord,
    CollisionError,
    DerivationError,
    EnrichmentError,
    EnrichmentResult,
    InvalidLogError,
    InvalidPlanError,
    ProcessContextReport,
    correlate_event,
    correlate_trace,
    derive_events,
    derive_value,
    enrich,
)
from .plan import (
    Aggregator,
    Binding,
    ClassifiedItem,
    CollisionPolicy,
    Condition,
    Correlation,
    CorrelationStrategy,
    Derivation,
    EnrichmentPlan,
    EventDerivationRule,
    IoTContextCategory,
    PlanIssue,
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
    serialize_plan,
    validate_plan,
)
from .query import (
    Query,
    QueryParseError,
    QueryResult,
    parse_query,
    run_query,
)
from .scenario import (
    GenConfig,
    GenConfigError,
    GroundTruthManifest,
    generate,
    write_outputs,
)
from .sensors import (
    SensorIngestError,
    SensorReading,
    SensorStream,
    StreamIndex,
    UnknownSourceError,
    build_index,
    load_stream,
)
from .xes import (
    Attribute,
    Event,
    Log,
    Trace,
    Violation,
    XesParseError,
    parse_xes,
    validate_log,
    write_xes,
)

__version__ = "0.1.0"
