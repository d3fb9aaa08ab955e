"""Command-line interface.

Subcommands: validate, enrich, query, gen, classify. Output is JSON by
default (one object, or one object per line for violation lists) so test
harnesses can consume it; --format table switches to aligned text for
humans. Exit codes: 0 success, 1 validation failure, 2 input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from collections.abc import Mapping
from datetime import datetime
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .timeutil import format_timestamp
from .xes import Log, XesParseError, parse_xes, validate_log, write_xes

if TYPE_CHECKING:
    from .enrich import (
        CollisionError,
        DerivationError,
        EnrichmentResult,
        InvalidLogError,
        InvalidPlanError,
        enrich,
    )
    from .plan import (
        EnrichmentPlan,
        PlanParseError,
        bundled_plan,
        bundled_plan_names,
        classify_source,
        parse_plan,
        validate_plan,
    )
    from .query import QueryParseError, parse_query, run_query
    from .scenario import GenConfig, GenConfigError, config_from_dict, generate, write_outputs
    from .sensors import SensorIngestError, _utf8_fault, build_index, load_stream

# The names that only some commands use, by the module that defines them.
# Each subcommand declares the modules it runs (`needs` in `build_parser`),
# and `main` binds their names here before the command starts, so `iotlog
# query` imports only query, xes and timeutil, and `iotlog enrich` does not
# import query. Read from outside, as `iotlog.cli.enrich`, a name binds
# itself through `__getattr__`.
_DEFERRED = {
    "enrich": (
        "CollisionError",
        "DerivationError",
        "InvalidLogError",
        "InvalidPlanError",
        "enrich",
    ),
    "plan": (
        "PlanParseError",
        "bundled_plan",
        "bundled_plan_names",
        "classify_source",
        "parse_plan",
        "validate_plan",
    ),
    "query": ("QueryParseError", "parse_query", "run_query"),
    "scenario": ("GenConfig", "GenConfigError", "config_from_dict", "generate", "write_outputs"),
    "sensors": ("SensorIngestError", "_utf8_fault", "build_index", "load_stream"),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}


def _need(*modules: str) -> None:
    """Bind the deferred names of `modules` here, keeping a name already bound (a wrapper, say)."""
    namespace = globals()
    for module in modules:
        source = import_module(f".{module}", __package__)
        for name in _DEFERRED[module]:
            namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(module)
    return globals()[name]


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row))
        return
    if not rows:
        return
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def _read_log(path: str) -> Log:
    return parse_xes(Path(path).read_bytes())


class InputFileError(ValueError):
    """A plan or config file that does not hold what it should; the message names the file."""


def _read_json(path: str):
    """A UTF-8 JSON file's value; a bad byte or bad JSON raises InputFileError naming the file and where."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message, line = _utf8_fault(Path(path), exc)
        raise InputFileError(f"{path}: {message} (line {line})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None


def _read_plan(path: str) -> EnrichmentPlan:
    # A bare name picks a plan bundled with the package (e.g. "scenario1").
    if "/" not in path and not path.endswith(".json") and path in bundled_plan_names():
        return bundled_plan(path)
    data = _read_json(path)
    try:
        return parse_plan(data)
    except PlanParseError as exc:
        raise InputFileError(f"{path}: {exc}") from None


def _log_violation_rows(violations) -> list[dict]:
    rows = []
    for v in violations:
        row = {"scope": "log", "code": v.code, "message": v.message}
        if v.case_id is not None:
            row["case_id"] = v.case_id
        if v.key is not None:
            row["key"] = v.key
        rows.append(row)
    return rows


def _plan_issue_rows(issues) -> list[dict]:
    return [
        {"scope": "plan", "code": i.code, "message": i.message, "path": i.path} for i in issues
    ]


def cmd_validate(args) -> int:
    rows: list[dict] = []
    if args.log:
        rows += _log_violation_rows(validate_log(_read_log(args.log)))
    if args.plan:
        rows += _plan_issue_rows(validate_plan(_read_plan(args.plan)))
    _emit_rows(rows, args.format)
    return EXIT_VALIDATION if rows else EXIT_OK


class _Encoded(dict):
    """The JSON text of each string looked up in it, encoded the first time."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = json.dumps(text)
        return encoded


def _json_text(value, text: _Encoded, times: Mapping[datetime, str]) -> str:
    """The JSON of an audit value as json.dumps writes it; a datetime is its format_timestamp."""
    kind = type(value)
    if kind is str:
        return text[value]
    if kind is float:
        # json.dumps spells a non-finite float NaN, Infinity or -Infinity.
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, datetime):
        return f'"{times.get(value) or format_timestamp(value)}"'  # no character needs an escape
    return json.dumps(value)


_AUDIT_BATCH = 512  # lines per write


def _write_audit(handle, audit, *, _times: Mapping[datetime, str] | None = None) -> None:
    """Write one JSON object per audit record, in the keys of docs/audit-format.md.

    A record's readings are positions into its source's stream, and are
    written as they come. Each distinct kind, case id, binding id, source
    id, key and string value is encoded once per call, and other values
    without json.dumps. A datetime's text is taken from `_times` when it is
    there, as it is for the timestamps the enrich command formats for both
    writers. Lines are written _AUDIT_BATCH at a time.
    """
    text = _Encoded()
    times = {} if _times is None else _times
    batch: list[str] = []
    for record in audit:
        line = (
            f'{{"kind": {text[record.kind]}, "case_id": {text[record.case_id]}, '
            f'"binding_id": {text[record.binding_id]}, "source_id": {text[record.source_id]}, '
            f'"key": {text[record.key]}, "value": {_json_text(record.value, text, times)}, '
            f'"readings": [{", ".join(map(str, record.readings))}]'
        )
        if record.event_index is not None:
            line += f', "event_index": {record.event_index}'
        if record.replaced is not None:
            line += f', "replaced": {_json_text(record.replaced, text, times)}'
        batch.append(line + "}\n")
        if len(batch) == _AUDIT_BATCH:
            handle.write("".join(batch))
            batch.clear()
    handle.write("".join(batch))


def _write_enrichment(result: EnrichmentResult, out_dir: str) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # A derived event's timestamp is written twice, as the event's and as
    # its audit record's value: each such instant is formatted once, here.
    instants = [record.value for record in result.audit if record.kind == "derived_event"]
    times = dict(zip(instants, map(format_timestamp, instants)))
    log_path = out / "enriched.xes"
    log_path.write_bytes(write_xes(result.log, _times=times))
    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(result.report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    audit_path = out / "audit.jsonl"
    with audit_path.open("w", encoding="utf-8") as handle:
        _write_audit(handle, result.audit, _times=times)
    return {
        "log": str(log_path),
        "report": str(report_path),
        "audit": str(audit_path),
        "additions": result.additions,
        "warnings": list(result.warnings),
    }


def cmd_enrich(args) -> int:
    log = _read_log(args.log)
    plan = _read_plan(args.plan)
    index = build_index(load_stream(decl, args.sensors) for decl in plan.sources)
    try:
        result = enrich(log, index, plan)
    except InvalidPlanError as exc:
        _emit_rows(_plan_issue_rows(exc.issues), args.format)
        return EXIT_VALIDATION
    except InvalidLogError as exc:
        _emit_rows(_log_violation_rows(exc.violations), args.format)
        return EXIT_VALIDATION
    except (CollisionError, DerivationError) as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_VALIDATION
    _emit(_write_enrichment(result, args.out), args.format)
    return EXIT_OK


def cmd_query(args) -> int:
    query = parse_query(args.query)
    log = parse_xes(Path(args.log).read_bytes(), keep=query.keys)
    result = run_query(log, query)
    _emit({"query": args.query, **result.to_dict()}, args.format)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.config:
        raw = _read_json(args.config)
        try:
            config = config_from_dict(raw)
        except GenConfigError as exc:
            raise InputFileError(f"{args.config}: {exc}") from None
    else:
        config = GenConfig()
    log, streams, manifest = generate(config)
    written = write_outputs(log, streams, manifest, args.out)
    _emit(
        {
            "out": str(args.out),
            "cases": len(log.traces),
            "interrupted_night_pickups": manifest.interrupted_night_pickups,
            "files": [p.name for p in written],
        },
        args.format,
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    rows = []
    sensors = Path(args.sensors)
    if not sensors.is_dir():
        raise FileNotFoundError(f"not a directory: {sensors}")
    for path in sorted(sensors.iterdir()):
        if path.suffix not in (".csv", ".jsonl"):
            continue
        sensor_type = path.stem
        # Streams whose name mentions the driver identify a person.
        hints = {"subject": "driver"} if "driver" in path.stem.lower() else {}
        category = classify_source(sensor_type, hints)
        rows.append(
            {
                "file": path.name,
                "sensor_type": sensor_type,
                "category": category.value if category else "unclassified",
            }
        )
    _emit_rows(rows, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotlog",
        description="Enrich XES event logs with sensor context, query them, "
        "and generate test scenarios.",
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a log and/or plan, print violations")
    p.add_argument("--log", help="XES log path")
    p.add_argument("--plan", help="plan JSON path or bundled plan name")
    p.set_defaults(func=cmd_validate, needs=("plan", "sensors"))

    p = sub.add_parser("enrich", help="run a plan over a log and sensor files")
    p.add_argument("--log", required=True, help="XES log path")
    p.add_argument("--plan", required=True, help="plan JSON path or bundled plan name")
    p.add_argument("--sensors", required=True, help="directory holding the sensor files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_enrich, needs=("enrich", "plan", "sensors"))

    p = sub.add_parser("query", help="evaluate a query over a log")
    p.add_argument("--log", required=True, help="XES log path")
    p.add_argument("--query", required=True, help="query text")
    p.set_defaults(func=cmd_query, needs=("query",))

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    p.add_argument("--config", help="generator config JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen, needs=("scenario", "sensors"))

    p = sub.add_parser("classify", help="suggest context categories for sensor files")
    p.add_argument("--sensors", required=True, help="directory holding the sensor files")
    p.set_defaults(func=cmd_classify, needs=("plan",))

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code.

    The cyclic garbage collector is paused while the command runs and
    restored on return, also when argparse exits. A command builds its
    inputs, which live until it ends, and leaves no cycles whose size grows
    with them, so a collection would only walk live objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _need(*args.needs)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 3
        # A deferred module's error can only have been raised if the command
        # needed that module, and then its class is bound here.
        bound = globals()
        deferred = ("PlanParseError", "SensorIngestError", "GenConfigError", "QueryParseError")
        input_errors = (
            *(bound[name] for name in deferred if name in bound),
            XesParseError,
            InputFileError,
            FileNotFoundError,
            IsADirectoryError,
            PermissionError,
            json.JSONDecodeError,
            UnicodeDecodeError,
        )
        if isinstance(exc, input_errors):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    """Run the command in sys.argv and exit with its code.

    Everything left when a command returns lives until the process ends, so
    the collector is frozen first: the interpreter's collections at exit
    then skip every object the command and its imports made. Atexit
    handlers and the flushing of stdio still run. `main` itself does not
    freeze, as a caller in the same process goes on making garbage.
    """
    code = main(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
