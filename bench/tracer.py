"""Per-layer tracing of one iotlog CLI command, done from outside the package.

`install(tracer)` replaces, in the iotlog modules' own namespaces, the
public functions one module calls across a module boundary with wrappers
that record a span (name, start, end, parent) or bump a counter; the
`timeutil` helpers are counted, not timed, through each importing module's
reference. `Tracer.restore()` puts the originals back. Nothing in the
package changes.

Run as a script, it traces one command in a process of its own and writes
the spans, counters and garbage-collector time to a JSON file:

    PYTHONPATH=src python3 bench/tracer.py OUT.json enrich --log ... --out ...
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

NS = 1e-9


class Tracer:
    """Spans and counters of one traced command, kept in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start: int | None = None

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result, parent_name) runs on success."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start is not None:
            self.counts["runtime.gc_ns"] += perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1
            self._gc_start = None

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call the `enrich` and `query` commands make."""
    # The package attribute `iotlog.enrich` is the function; import_module gives the module.
    cli = importlib.import_module("iotlog.cli")
    engine = importlib.import_module("iotlog.enrich")
    sensors = importlib.import_module("iotlog.sensors")
    xes = importlib.import_module("iotlog.xes")
    plan = importlib.import_module("iotlog.plan")
    by_subject = plan.CorrelationStrategy.SUBJECT_KEY_EQUALS
    c = tracer.counts

    def parsed(args, result, parent):
        c["xes.bytes_in"] += len(args[0])

    def written(args, result, parent):
        c["xes.bytes_out"] += len(result)
        c["xes.events_written"] += sum(len(t.events) for t in args[0].traces)

    def loaded(args, result, parent):
        c["sensors.readings"] += len(result.readings)

    def enriched(args, result, parent):
        c["enrich.audit_records"] += len(result.audit)
        c["enrich.derived_events"] += sum(1 for r in result.audit if r.kind == "derived_event")
        c["enrich.warnings"] += len(result.warnings)

    def queried(args, result, parent):
        c["query.traces_scanned"] += len(args[0].traces)
        c["query.matches"] += result.count

    def correlated(args, result, parent):
        if parent == "enrich.correlate_event":
            return  # a trace-scoped strategy delegated by correlate_event: counted there
        readings = result[0]
        c["enrich.correlate_calls"] += 1
        c["enrich.empty_correlations"] += not readings
        c["enrich.readings_correlated"] += len(readings)

    def correlated_trace(args, result, parent):
        if args[0].strategy is by_subject:
            c["sensors.subject_readings_kept"] += len(result[0])
        correlated(args, result, parent)

    def ranged(args, result, parent):
        c["sensors.range_query_calls"] += 1

    def subject_read(args, result, parent):
        c["sensors.subject_readings_calls"] += 1
        c["sensors.subject_readings_returned"] += len(result)

    for name, span, after in (
        ("cmd_enrich", "cli.enrich", None),
        ("cmd_query", "cli.query", None),
        ("parse_xes", "xes.parse_xes", parsed),
        ("write_xes", "xes.write_xes", written),
        ("bundled_plan", "plan.load", None),
        ("parse_plan", "plan.load", None),
        ("load_stream", "sensors.load_stream", loaded),
        ("build_index", "sensors.build_index", None),
        ("enrich", "enrich.enrich", enriched),
        ("parse_query", "query.parse_query", None),
        ("run_query", "query.run_query", queried),
    ):
        tracer.replace(cli, name, tracer.span(span, getattr(cli, name), after))
    for name, span, after in (
        ("validate_plan", "plan.validate_plan", None),
        ("validate_log", "xes.validate_log", None),
        ("correlate_event", "enrich.correlate_event", correlated),
        ("correlate_trace", "enrich.correlate_trace", correlated_trace),
        ("derive_value", "enrich.derive_value", None),
        ("derive_events", "enrich.derive_events", None),
    ):
        tracer.replace(engine, name, tracer.span(span, getattr(engine, name), after))
    index = sensors.StreamIndex
    for name, after in (
        ("range_query", ranged),
        ("latest_at_or_before", None),
        ("subject_readings", subject_read),
    ):
        tracer.replace(index, name, tracer.span(f"sensors.{name}", getattr(index, name), after))
    for module in (sensors, xes):
        short = module.__name__.rsplit(".", 1)[1]
        for name in ("to_utc_ms", "parse_timestamp"):
            counted = tracer.counter(f"timeutil.{name}@{short}", getattr(module, name))
            tracer.replace(module, name, counted)
    gc.callbacks.append(tracer.on_gc)


# --- reading a dump -------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(enrich_dump: dict, query_dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced enrich command and one traced query command."""
    total, own = Counter(), Counter()
    spans = enrich_dump["spans"]
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_ns
    query_total = Counter()
    for name, start, end, _ in query_dump["spans"]:
        query_total[name] += end - start
    c, q = Counter(enrich_dump["counts"]), Counter(query_dump["counts"])
    returned = c["sensors.subject_readings_returned"]
    readings = c["sensors.readings"]
    to_utc_ms = sum(n for key, n in c.items() if key.startswith("timeutil.to_utc_ms@"))
    return {
        "sensors.load_stream_s": total["sensors.load_stream"] * NS,
        "sensors.readings": readings,
        "sensors.build_index_s": own["sensors.build_index"] * NS,
        "sensors.range_query_calls": c["sensors.range_query_calls"],
        "sensors.subject_readings_calls": c["sensors.subject_readings_calls"],
        "sensors.subject_readings_returned": returned,
        # Nothing returned means nothing wasted.
        "sensors.subject_hit_ratio": (
            c["sensors.subject_readings_kept"] / returned if returned else 1.0
        ),
        "timeutil.to_utc_ms_calls": to_utc_ms,
        "timeutil.parse_timestamp_calls": sum(
            n for key, n in c.items() if key.startswith("timeutil.parse_timestamp@")
        ),
        "timeutil.to_utc_ms_per_reading": (
            c["timeutil.to_utc_ms@sensors"] / readings if readings else 0.0
        ),
        "xes.parse_s": total["xes.parse_xes"] * NS,
        "xes.validate_log_s": total["xes.validate_log"] * NS,
        "xes.write_s": total["xes.write_xes"] * NS,
        "xes.bytes_in": c["xes.bytes_in"],
        "xes.bytes_out": c["xes.bytes_out"],
        "xes.events_written": c["xes.events_written"],
        "xes.parse_enriched_s": query_total["xes.parse_xes"] * NS,
        "plan.load_s": total["plan.load"] * NS,
        "plan.validate_s": total["plan.validate_plan"] * NS,
        "enrich.s": total["enrich.enrich"] * NS,
        "enrich.self_s": own["enrich.enrich"] * NS,
        "enrich.correlate_calls": c["enrich.correlate_calls"],
        "enrich.empty_correlations": c["enrich.empty_correlations"],
        "enrich.readings_correlated": c["enrich.readings_correlated"],
        "enrich.derive_events_s": total["enrich.derive_events"] * NS,
        "enrich.derived_events": c["enrich.derived_events"],
        "enrich.audit_records": c["enrich.audit_records"],
        "enrich.warnings": c["enrich.warnings"],
        "query.parse_s": query_total["query.parse_query"] * NS,
        "query.run_s": query_total["query.run_query"] * NS,
        "query.traces_scanned": q["query.traces_scanned"],
        "query.matches": q["query.matches"],
        "cli.enrich_self_s": own["cli.enrich"] * NS,
        "runtime.gc_s": c["runtime.gc_ns"] * NS,
        "runtime.gc_collections": c["runtime.gc_collections"],
    }


def main(argv: list[str]) -> int:
    out_path, command = Path(argv[0]), argv[1:]
    cli = importlib.import_module("iotlog.cli")
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(command)
    finally:
        tracer.restore()
    out_path.write_text(json.dumps({"command": command[0], "exit": code, **tracer.dump()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
