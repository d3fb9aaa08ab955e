"""What importing the package and running one command load.

`iotlog` resolves its exported names on first access, and `iotlog.cli`
imports a command's modules when the command runs, so `iotlog query` loads
only the query, xes and timeutil modules, and `iotlog enrich` does not load
query. The checks that need a fresh
interpreter run in a subprocess.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import iotlog

from conftest import FIXTURES

SRC = str(Path(iotlog.__file__).resolve().parents[1])

# The names the package exports, by the module that defines them.
EXPORTS = {
    "enrich": "AuditRecord CollisionError DerivationError EnrichmentError EnrichmentResult "
    "InvalidLogError InvalidPlanError ProcessContextReport correlate_event correlate_trace "
    "derive_events derive_value enrich",
    "plan": "Aggregator Binding ClassifiedItem CollisionPolicy Condition Correlation "
    "CorrelationStrategy Derivation EnrichmentPlan EventDerivationRule IoTContextCategory "
    "PlanIssue PlanParseError ProcessContextLevel RuleConstant SourceDecl Target TargetKind "
    "bundled_plan bundled_plan_names classification_grid classify_plan classify_source "
    "parse_plan serialize_plan validate_plan",
    "query": "Query QueryParseError QueryResult parse_query run_query",
    "scenario": "GenConfig GenConfigError GroundTruthManifest generate write_outputs",
    "sensors": "SensorIngestError SensorReading SensorStream StreamIndex UnknownSourceError "
    "build_index load_stream",
    "xes": "Attribute Event Log Trace Violation XesParseError parse_xes validate_log write_xes",
}


def python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports iotlog from this tree; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_resolves_from_the_package(module):
    source = importlib.import_module(f"iotlog.{module}")
    for name in EXPORTS[module].split():
        assert getattr(iotlog, name) is getattr(source, name), name
        assert name in dir(iotlog), name


def test_the_package_lists_exactly_its_exports():
    assert sorted(iotlog.__all__) == sorted(n for names in EXPORTS.values() for n in names.split())
    with pytest.raises(AttributeError):
        iotlog.no_such_name  # noqa: B018


def test_a_query_loads_only_the_query_xes_and_timeutil_modules():
    loaded = python(
        "import json, sys\n"
        "from iotlog import cli\n"
        f"code = cli.main(['query', '--log', {str(FIXTURES / 'ed_visits.xes')!r}, "
        "'--query', 'cases where event.pain >= 4 and has activity \"Triage in the ED\"'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('iotlog'))]))\n"
    ).splitlines()[-1]
    assert json.loads(loaded) == [
        0, ["iotlog", "iotlog.cli", "iotlog.query", "iotlog.timeutil", "iotlog.xes"]
    ]


def test_an_enrich_does_not_load_the_query_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_cases": 3}))
    data, out = tmp_path / "data", tmp_path / "out"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    loaded = python(
        "import contextlib, io, json, sys\n"
        "from iotlog import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['enrich', '--log', {str(data / 'log.xes')!r}, "
        f"'--plan', 'scenario2', '--sensors', {str(data)!r}, '--out', {str(out)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('iotlog'))]))\n"
    ).splitlines()[-1]
    assert json.loads(loaded) == [
        0,
        ["iotlog", "iotlog.cli", "iotlog.enrich", "iotlog.plan", "iotlog.plans",
         "iotlog.sensors", "iotlog.timeutil", "iotlog.xes"],
    ]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """`python -m iotlog.cli ARGV` in a fresh interpreter, so no other test has bound its names."""
    return subprocess.run(
        [sys.executable, "-m", "iotlog.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=False,
    )


def test_each_command_binds_the_names_it_runs_in_a_fresh_interpreter(tmp_path):
    data = tmp_path / "data"
    assert run_cli("validate", "--plan", "scenario1").returncode == 0
    assert run_cli("gen", "--out", str(data)).returncode == 0
    assert run_cli("validate", "--log", str(data / "log.xes"), "--plan", "scenario1").returncode == 0
    assert run_cli("classify", "--sensors", str(data)).returncode == 0
    done = run_cli("enrich", "--log", str(data / "log.xes"), "--plan", "scenario1",
                   "--sensors", str(data), "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["validate", "gen"])
def test_a_bad_input_file_is_an_input_error_in_a_fresh_interpreter(tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    flag = "--plan" if command == "validate" else "--config"
    extra = () if command == "validate" else ("--out", str(tmp_path / "out"))
    done = run_cli(command, flag, str(bad), *extra)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {bad}:"), done.stderr


def test_the_package_enrich_is_the_function_after_the_module_is_imported():
    out = python(
        "import importlib, types, iotlog\n"
        "module = importlib.import_module('iotlog.enrich')\n"
        "print(isinstance(iotlog.enrich, types.ModuleType), iotlog.enrich is module.enrich)\n"
    )
    assert out.split() == ["False", "True"]


def test_the_package_enrich_is_the_function_after_an_enrich_command(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_cases": 3}))
    data, out = tmp_path / "data", tmp_path / "out"
    answer = python(
        "import contextlib, importlib, io, types\n"
        "from iotlog import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['gen', '--config', {str(config)!r}, '--out', {str(data)!r}]) == 0\n"
        f"    assert cli.main(['enrich', '--log', {str(data / 'log.xes')!r}, "
        f"'--plan', 'scenario1', '--sensors', {str(data)!r}, '--out', {str(out)!r}]) == 0\n"
        "import iotlog\n"
        "module = importlib.import_module('iotlog.enrich')\n"
        "print(isinstance(iotlog.enrich, types.ModuleType), iotlog.enrich is module.enrich)\n"
    )
    assert answer.split() == ["False", "True"]
    assert (out / "enriched.xes").is_file()


def test_the_cli_names_a_tracer_wraps_resolve_as_module_attributes():
    cli = importlib.import_module("iotlog.cli")
    for name, module in [("enrich", "enrich"), ("bundled_plan", "plan"), ("parse_plan", "plan"),
                         ("load_stream", "sensors"), ("build_index", "sensors")]:
        assert getattr(cli, name) is getattr(importlib.import_module(f"iotlog.{module}"), name)
    assert not isinstance(cli.enrich, ModuleType)


QUERY = 'cases where event.pain >= 4 and has activity "Triage in the ED"'


def test_main_entry_prints_what_main_prints_and_exits_with_its_code(capsys, tmp_path):
    from iotlog import cli
    from iotlog.xes import Attribute, Log, Trace, write_xes

    log = str(FIXTURES / "ed_visits.xes")
    frozen = gc.get_freeze_count()
    assert cli.main(["query", "--log", log, "--query", QUERY]) == 0
    assert gc.get_freeze_count() == frozen  # main leaves the collector as it found it
    printed = capsys.readouterr().out
    done = run_cli("query", "--log", log, "--query", QUERY)
    assert (done.returncode, done.stdout, done.stderr) == (0, printed, "")

    bad = tmp_path / "bad.xes"  # a duplicate attribute key survives the round trip
    bad.write_bytes(write_xes(Log((Trace("c", (Attribute("k", 1), Attribute("k", 2))),))))
    done = run_cli("validate", "--log", str(bad))
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["code"] == "duplicate_attribute_key"
    done = run_cli("query", "--log", str(tmp_path / "missing.xes"), "--query", QUERY)
    assert done.returncode == 2 and done.stderr.startswith("error: "), done.stderr
