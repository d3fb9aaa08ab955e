"""Seeded input builders and output checks for the benchmark workloads.

Each builder turns a seed into the files a user would hand to `iotlog
enrich`: `log.xes` plus one CSV per source the workload's bundled plan
declares. Builders use only public iotlog code (`scenario.generate`,
`dataclasses.replace` on readings, `scenario.write_stream_csv`,
`xes.write_xes`); the program under test sees nothing but the files.

Every workload also fixes its ground truth: the answer to its query, the
number of traces, and the number of derived events, so a run can check the
enrich and query outputs exactly.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

from iotlog.plan import bundled_plan
from iotlog.scenario import GenConfig, generate, is_night, write_stream_csv
from iotlog.sensors import SensorStream
from iotlog.xes import write_xes

DISCONTINUE = "discontinue the pick-up operation"
# The README's question: interrupted pick-ups of trucks that arrived at night.
NIGHT_INTERRUPTIONS = f'count where start_hour in [22:00, 06:00) and has activity "{DISCONTINUE}"'
# scenario1 writes the listing-style retrofit tag, so `false` marks a retrofitted truck.
NIGHT_RETROFITS = "count where case.truck_retrofitted = false and start_hour in [22:00, 06:00)"
DERIVED_MARK = b'<string key="derived_from" value="discontinue-on-over-temp" />'
TRACE_MARK = b"<trace>"

PORT_CASES = 1000
FLEET_SIZE = 2  # so each plate spans ~500 cases
FLAP_CASES = 10
FLAP_RUNS = 1000  # over-temperature runs, hence derived events, per trace


@dataclass(frozen=True)
class Inputs:
    """What a builder wrote, and the answers a correct run must give."""

    workload: str
    plan: str
    query: str
    expected_matches: int
    expected_traces: int
    expected_derived: int
    shape: dict


def _write(log, streams, plan_name: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "log.xes").write_bytes(write_xes(log))
    by_id = {s.source_id: s for s in streams}
    for decl in bundled_plan(plan_name).sources:
        write_stream_csv(by_id[decl.source_id], out_dir / decl.path)


def _shape(log, streams, plan_name: str, cases_per_key: float, derived: int) -> dict:
    used = {decl.source_id for decl in bundled_plan(plan_name).sources}
    cases = len(log.traces)
    return {
        "cases": cases,
        "readings": sum(len(s.readings) for s in streams if s.source_id in used),
        "events": sum(len(t.events) for t in log.traces),
        "cases_per_subject_key": cases_per_key,
        "derived_events_per_trace": derived / cases if cases else 0.0,
    }


def build_port_bulk(seed: int, out_dir: Path, n_cases: int = PORT_CASES) -> Inputs:
    """The generator's port scenario under scenario1: unique plates, no event rule."""
    log, streams, manifest = generate(GenConfig(seed=seed, n_cases=n_cases))
    _write(log, streams, "scenario1", out_dir)
    fraud = set(manifest.fraud_cases)
    matches = sum(
        1 for cid, truth in manifest.per_case.items() if cid in fraud and truth.night_arrival
    )
    return Inputs(
        workload="port-bulk",
        plan="scenario1",
        query=NIGHT_RETROFITS,
        expected_matches=matches,
        expected_traces=len(log.traces),
        expected_derived=0,
        shape=_shape(log, streams, "scenario1", 1.0, 0),
    )


def build_fleet_skew(
    seed: int, out_dir: Path, n_cases: int = PORT_CASES, fleet_size: int = FLEET_SIZE
) -> Inputs:
    """The port scenario under scenario2, with every case's plate drawn from a small fleet.

    A case keeps its readings and time slot; only the plate it is keyed by
    (each reading's subject key, and the value the plate reader reports)
    becomes one of `fleet_size` trucks.
    """
    log, streams, manifest = generate(GenConfig(seed=seed, n_cases=n_cases))
    rng = random.Random(f"fleet-skew:{seed}")
    fleet = [f"FLT-{n:04d}" for n in rng.sample(range(10000), fleet_size)]
    plate_of = {truth.plate: rng.choice(fleet) for truth in manifest.per_case.values()}

    def rekey(reading):
        plate = plate_of.get(reading.subject_key)
        if plate is None:
            return reading
        if reading.value == reading.subject_key:
            return dataclasses.replace(reading, subject_key=plate, value=plate)
        return dataclasses.replace(reading, subject_key=plate)

    used = {decl.source_id for decl in bundled_plan("scenario2").sources}
    streams = [
        SensorStream(s.source_id, s.sensor_type, tuple(rekey(r) for r in s.readings))
        for s in streams
        if s.source_id in used
    ]
    _write(log, streams, "scenario2", out_dir)
    derived = len(manifest.interrupted_cases)
    return Inputs(
        workload="fleet-skew",
        plan="scenario2",
        query=NIGHT_INTERRUPTIONS,
        expected_matches=manifest.interrupted_night_pickups,
        expected_traces=len(log.traces),
        expected_derived=derived,
        shape=_shape(log, streams, "scenario2", n_cases / len(set(plate_of.values())), derived),
    )


def build_flapping_hold(
    seed: int, out_dir: Path, n_cases: int = FLAP_CASES, runs: int = FLAP_RUNS
) -> Inputs:
    """Cold-chain cases whose cargo temperature cycles around max_safe_temp.

    The cargo-hold stream is replaced by 2 * `runs` readings per case, spread
    evenly inside the case's event span and alternating below and above
    35 degrees, so scenario2's over-temperature rule derives exactly `runs`
    events per trace.
    """
    log, streams, manifest = generate(
        GenConfig(seed=seed, n_cases=n_cases, interruption_rate=0.0)
    )
    rng = random.Random(f"flapping-hold:{seed}")
    cargo = next(s for s in streams if s.source_id == "temperature_cargo")
    template = {}
    for reading in cargo.readings:
        template.setdefault(reading.subject_key, reading)
    flapping = []
    for trace in log.traces:
        base = template[manifest.per_case[trace.case_id].plate]
        first, last = trace.events[0].timestamp, trace.events[-1].timestamp
        step_ms = (last - first) // timedelta(milliseconds=1) // (2 * runs + 1)
        for k in range(2 * runs):
            above = k % 2 == 1
            flapping.append(
                dataclasses.replace(
                    base,
                    timestamp=first + timedelta(milliseconds=step_ms * (k + 1)),
                    value=rng.uniform(35.1, 40.0) if above else rng.uniform(30.0, 34.9),
                )
            )
    streams = [
        SensorStream(s.source_id, s.sensor_type, tuple(flapping)) if s is cargo else s
        for s in streams
    ]
    _write(log, streams, "scenario2", out_dir)
    night = sum(1 for t in log.traces if is_night(t.events[0].timestamp))
    return Inputs(
        workload="flapping-hold",
        plan="scenario2",
        query=NIGHT_INTERRUPTIONS,
        expected_matches=night,
        expected_traces=len(log.traces),
        expected_derived=runs * len(log.traces),
        shape=_shape(log, streams, "scenario2", 1.0, runs * len(log.traces)),
    )


BUILDERS = {
    "port-bulk": build_port_bulk,
    "fleet-skew": build_fleet_skew,
    "flapping-hold": build_flapping_hold,
}


# --- output checks ------------------------------------------------------------


def check_enriched(inputs: Inputs, out_dir: Path) -> list[str]:
    """Problems with one `iotlog enrich` output directory; empty when correct."""
    problems = []
    try:
        xes = (out_dir / "enriched.xes").read_bytes()
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable enrich output: {exc}"]
    traces = xes.count(TRACE_MARK)
    if traces != inputs.expected_traces:
        problems.append(f"enriched.xes has {traces} traces, expected {inputs.expected_traces}")
    derived = xes.count(DERIVED_MARK)
    if derived != inputs.expected_derived:
        problems.append(
            f"enriched.xes has {derived} derived events, expected {inputs.expected_derived}"
        )
    if report.get("case_count") != inputs.expected_traces:
        problems.append(f"report.json case_count is {report.get('case_count')!r}")
    return problems


def check_query(inputs: Inputs, stdout: str) -> list[str]:
    """Problems with the JSON an `iotlog query` child printed; empty when correct."""
    try:
        answer = json.loads(stdout)
    except ValueError:
        return [f"query printed no JSON: {stdout[:200]!r}"]
    problems = []
    if answer.get("count") != inputs.expected_matches:
        problems.append(f"query count {answer.get('count')!r}, expected {inputs.expected_matches}")
    if answer.get("errors"):
        problems.append(f"query reported {len(answer['errors'])} type errors")
    return problems
