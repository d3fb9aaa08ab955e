"""Fast checks of the benchmark's own code. They make no timing assertions.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from iotlog import cli

SMALL = {
    "port-bulk": {"n_cases": 80},
    "fleet-skew": {"n_cases": 80, "fleet_size": 3},
    "flapping-hold": {"n_cases": 4, "runs": 15},
}
SEED = 3


def build(name: str, directory: Path, seed: int = SEED) -> workloads.Inputs:
    return workloads.BUILDERS[name](seed, directory, **SMALL[name])


def enrich_in_process(inputs, in_dir: Path, out_dir: Path, capsys) -> None:
    argv = ["enrich", "--log", str(in_dir / "log.xes"), "--plan", inputs.plan,
            "--sensors", str(in_dir), "--out", str(out_dir)]
    assert cli.main(argv) == 0
    capsys.readouterr()


def query_in_process(inputs, xes: Path, capsys) -> str:
    assert cli.main(["query", "--log", str(xes), "--query", inputs.query]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_builders_are_deterministic_for_a_seed(name, tmp_path):
    first = build(name, tmp_path / "a")
    again = build(name, tmp_path / "b")
    build(name, tmp_path / "c", seed=SEED + 1)
    assert first == again
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "c")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_output_checks_pass_on_real_output_and_fail_on_tampered_output(name, tmp_path, capsys):
    inputs = build(name, tmp_path / "in")
    assert inputs.expected_matches > 0  # so a query tamper can show
    out = tmp_path / "out"
    enrich_in_process(inputs, tmp_path / "in", out, capsys)
    xes = out / "enriched.xes"
    assert workloads.check_enriched(inputs, out) == []
    assert workloads.check_query(inputs, query_in_process(inputs, xes, capsys)) == []
    original = xes.read_bytes()

    # One trace fewer.
    xes.write_bytes(original[: original.rindex(b"  <trace>")] + b"</log>\n")
    assert any("traces" in p for p in workloads.check_enriched(inputs, out))

    # One derived event more or fewer.
    if inputs.expected_derived:
        cut = original.index(workloads.DERIVED_MARK)
        xes.write_bytes(original[:cut] + original[cut + len(workloads.DERIVED_MARK):])
    else:
        at = original.index(b"<event>") + len(b"<event>")
        xes.write_bytes(original[:at] + workloads.DERIVED_MARK + original[at:])
    assert any("derived" in p for p in workloads.check_enriched(inputs, out))

    # The query's answer changes.
    if inputs.plan == "scenario1":
        tampered = original.replace(
            b'key="truck_retrofitted" value="false"', b'key="truck_retrofitted" value="true"'
        )
    else:
        tampered = original.replace(
            f'value="{workloads.DISCONTINUE}"'.encode(), b'value="resume the pick-up"'
        )
    xes.write_bytes(tampered)
    assert workloads.check_query(inputs, query_in_process(inputs, xes, capsys)) != []


def test_session_counts_a_run_whose_output_digest_changed_as_failed(tmp_path):
    inputs = build("flapping-hold", tmp_path / "in")
    session = run.Session(workloads, inputs, tmp_path / "in", tmp_path)
    session.enrich()
    session.query()
    session.enrich()
    assert (session.attempted, session.failed) == (3, 0), session.problems
    session.digests = {**session.digests, "enriched.xes": "0" * 64}
    session.enrich()
    assert (session.attempted, session.failed) == (4, 1)
    assert "digests changed" in session.problems[0]


def test_self_times_of_nested_spans():
    spans = [["a", 0, 10, -1], ["b", 1, 4, 0], ["c", 5, 9, 0], ["d", 6, 7, 2]]
    assert tracer.self_times(spans) == [3, 3, 3, 1]


def test_traced_run_self_times_are_non_negative_and_account_for_their_parent(tmp_path, capsys):
    inputs = build("fleet-skew", tmp_path / "in")
    original_parse = cli.parse_xes
    spans = {}
    for command in ("enrich", "query"):
        traced = tracer.Tracer()
        tracer.install(traced)
        try:
            if command == "enrich":
                enrich_in_process(inputs, tmp_path / "in", tmp_path / "out", capsys)
            else:
                query_in_process(inputs, tmp_path / "out" / "enriched.xes", capsys)
        finally:
            traced.restore()
        spans[command] = traced.dump()
    assert cli.parse_xes is original_parse

    for command, dump in spans.items():
        records = dump["spans"]
        own = tracer.self_times(records)
        assert all(t >= 0 for t in own)
        for name, start, end, parent in records:
            if parent >= 0:
                assert records[parent][1] <= start <= end <= records[parent][2]
        assert [r[0] for r in records if r[3] == -1] == [f"cli.{command}"]
        assert sum(own) == records[0][2] - records[0][1]

    layers = tracer.layer_metrics(spans["enrich"], spans["query"])
    assert 0 <= layers["enrich.self_s"] <= layers["enrich.s"]
    assert 0 < layers["sensors.subject_hit_ratio"] < 1
    assert layers["query.matches"] == inputs.expected_matches
    assert layers["enrich.derived_events"] == inputs.expected_derived
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reported = set(layers) | {"cli.audit_bytes", "trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "port-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
