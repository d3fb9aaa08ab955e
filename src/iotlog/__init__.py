"""Enrich XES event logs with sensor context, query them, generate scenarios.

Every name below, and each of the modules that define them, is imported on
first access (PEP 562). A program that needs one part of the package, such
as `iotlog query`, which needs only `query`, `xes` and `timeutil`, loads
only that part. `iotlog.enrich` is the function, as it has always been; the
module is `importlib.import_module("iotlog.enrich")`.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "enrich": (
        "AuditRecord",
        "CollisionError",
        "DerivationError",
        "EnrichmentError",
        "EnrichmentResult",
        "InvalidLogError",
        "InvalidPlanError",
        "ProcessContextReport",
        "correlate_event",
        "correlate_trace",
        "derive_events",
        "derive_value",
        "enrich",
    ),
    "plan": (
        "Aggregator",
        "Binding",
        "ClassifiedItem",
        "CollisionPolicy",
        "Condition",
        "Correlation",
        "CorrelationStrategy",
        "Derivation",
        "EnrichmentPlan",
        "EventDerivationRule",
        "IoTContextCategory",
        "PlanIssue",
        "PlanParseError",
        "ProcessContextLevel",
        "RuleConstant",
        "SourceDecl",
        "Target",
        "TargetKind",
        "bundled_plan",
        "bundled_plan_names",
        "classification_grid",
        "classify_plan",
        "classify_source",
        "parse_plan",
        "serialize_plan",
        "validate_plan",
    ),
    "query": ("Query", "QueryParseError", "QueryResult", "parse_query", "run_query"),
    "scenario": ("GenConfig", "GenConfigError", "GroundTruthManifest", "generate", "write_outputs"),
    "sensors": (
        "SensorIngestError",
        "SensorReading",
        "SensorStream",
        "StreamIndex",
        "UnknownSourceError",
        "build_index",
        "load_stream",
    ),
    "xes": (
        "Attribute",
        "Event",
        "Log",
        "Trace",
        "Violation",
        "XesParseError",
        "parse_xes",
        "validate_log",
        "write_xes",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {*_EXPORTS, "timeutil"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
        return value
    if name in _MODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_MODULES})


class _Package(ModuleType):
    """The package's module type: it keeps the function `enrich` from being shadowed.

    Importing a submodule binds it on its package under its own name. For
    `iotlog.enrich` that name belongs to the function, so that one binding
    is refused; the module stays reachable through `sys.modules`.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "enrich" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
