"""Command-line interface tests, driven through main() for speed.

Exit-code contract: 0 success, 1 validation failure, 2 input error,
3 internal error.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import re
import shutil
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotlog import cli
from iotlog.cli import main
from iotlog.plan import bundled_plan
from iotlog.query import QueryParseError, run_query
from iotlog.xes import Attribute, Trace, XesParseError, parse_xes, write_xes

from conftest import FIXTURES, at, ev, mklog

ED = str(FIXTURES / "ed_visits.xes")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


# --- validate -----------------------------------------------------------------


def test_validate_clean_log_exits_zero(capsys):
    code, out, _ = run(capsys, "validate", "--log", ED)
    assert code == 0 and out.strip() == ""


def test_validate_reports_violations_as_json_lines(capsys, tmp_path):
    # parse_xes re-sorts events, so use a violation that survives a roundtrip
    dup = Trace("c1", (Attribute("k", 1), Attribute("k", 2)), (ev("a", at(0)),))
    path = tmp_path / "bad.xes"
    path.write_bytes(write_xes(mklog(dup)))
    code, out, _ = run(capsys, "validate", "--log", str(path))
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["code"] == "duplicate_attribute_key" and rows[0]["case_id"] == "c1"


def test_validate_accepts_bundled_plan_names(capsys):
    code, out, _ = run(capsys, "validate", "--plan", "scenario1")
    assert code == 0 and out.strip() == ""


def test_validate_flags_plan_issues(capsys, tmp_path):
    plan = {
        "plan_version": 1,
        "sources": [],
        "bindings": [
            {
                "binding_id": "b1",
                "source_id": "ghost",
                "level": "organisational",
                "category": "environment",
                "correlation": {"strategy": "span_overlap"},
                "target": {"kind": "case_attribute", "key": "k"},
            }
        ],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, _ = run(capsys, "validate", "--plan", str(path))
    assert code == 1
    codes = [json.loads(line)["code"] for line in out.splitlines()]
    assert codes == ["UNKNOWN_SOURCE", "FORBIDDEN_LEVEL"]


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--log", str(tmp_path / "absent.xes"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "absent.xes" in err


def test_garbage_log_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "junk.xes"
    path.write_text("this is not xml")
    code, _, err = run(capsys, "validate", "--log", str(path))
    assert code == 2 and err.startswith("error:")


# --- gen ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-gen")
    config = out / "config.json"
    config.write_text(json.dumps({"seed": 42, "n_cases": 12}))
    code = main(["gen", "--config", str(config), "--out", str(out / "data")])
    assert code == 0
    return out / "data"


def test_gen_writes_log_streams_and_manifest(capsys, gen_dir):
    names = {p.name for p in gen_dir.iterdir()}
    assert "log.xes" in names and "manifest.json" in names
    assert sum(name.endswith(".csv") for name in names) == 16


def test_gen_is_deterministic(capsys, tmp_path, gen_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 42, "n_cases": 12}))
    code, payload, _ = jrun(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "data"))
    assert code == 0
    assert payload["cases"] == 12
    for path in sorted((tmp_path / "data").iterdir()):
        ours = hashlib.sha256(path.read_bytes()).hexdigest()
        theirs = hashlib.sha256((gen_dir / path.name).read_bytes()).hexdigest()
        assert ours == theirs, path.name


def test_gen_without_config_uses_defaults(capsys, tmp_path):
    code, payload, _ = jrun(capsys, "gen", "--out", str(tmp_path / "d"))
    assert code == 0 and payload["cases"] == 10


def test_gen_rejects_bad_rates(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fraud_rate": 2.0}))
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2 and "fraud_rate" in err


def test_gen_rejects_a_time_origin_after_year_9999_in_utc(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time_origin": "9999-12-31T23:00:00-02:00"}))
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2 and "bad time_origin" in err and "1-9999" in err


def test_gen_rejects_a_time_origin_whose_cases_run_past_year_9999(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time_origin": "9999-12-30T00:00:00Z", "n_cases": 3}))
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2 and "2 days per case for 3 cases" in err and "1-9999" in err
    assert "internal error" not in err


# --- enrich -------------------------------------------------------------------


def _enrich_with_truck_category(capsys, gen_dir, tmp_path, category: str):
    """Enrich scenario1 after setting the first truck category reading to `category`."""
    sensors = tmp_path / "sensors"
    shutil.copytree(gen_dir, sensors)
    path = sensors / "rfid_truck_category.csv"
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index("value")] = category
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "out"
    code, _, err = run(
        capsys,
        "enrich",
        "--log",
        str(sensors / "log.xes"),
        "--plan",
        "scenario1",
        "--sensors",
        str(sensors),
        "--out",
        str(out),
    )
    return code, err, out


@pytest.mark.parametrize("category", ["a\x01b", "\ufffe"])
def test_enrich_rejects_a_string_reading_xml_cannot_carry(capsys, gen_dir, tmp_path, category):
    code, err, out = _enrich_with_truck_category(capsys, gen_dir, tmp_path, category)
    assert code == 2 and "rfid_truck_category.csv" in err and "(row 2)" in err
    assert not (out / "enriched.xes").exists()


def test_enrich_output_with_escaped_strings_is_queryable(capsys, gen_dir, tmp_path):
    category = 'a&b <c> "d"\te\r\nf \U0001f69a'
    code, _, out = _enrich_with_truck_category(capsys, gen_dir, tmp_path, category)
    assert code == 0
    enriched = out / "enriched.xes"
    log = parse_xes(enriched.read_bytes())
    assert category in {t.get("truck_category") for t in log.traces}
    code, payload, _ = jrun(capsys, "query", "--log", str(enriched), "--query", "count")
    assert code == 0 and payload["count"] == 12


def test_enrich_pipeline_writes_all_artifacts(capsys, gen_dir, tmp_path):
    out = tmp_path / "enriched"
    code, payload, _ = jrun(
        capsys,
        "enrich",
        "--log",
        str(gen_dir / "log.xes"),
        "--plan",
        "scenario2",
        "--sensors",
        str(gen_dir),
        "--out",
        str(out),
    )
    assert code == 0
    assert payload["warnings"] == []
    enriched = parse_xes((out / "enriched.xes").read_bytes())
    assert {"cargo_temperature", "weather"} <= enriched.traces[0].attribute_keys()
    report = json.loads((out / "report.json").read_text())
    assert report["case_count"] == 12
    audit_rows = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    assert len(audit_rows) == payload["additions"] > 0
    assert {"kind", "case_id", "binding_id", "source_id", "key", "value", "readings"} <= set(
        audit_rows[0]
    )


def test_enrich_rerun_is_byte_identical(capsys, gen_dir, tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code, _, _ = jrun(
            capsys,
            "enrich",
            "--log",
            str(gen_dir / "log.xes"),
            "--plan",
            "scenario1",
            "--sensors",
            str(gen_dir),
            "--out",
            str(out),
        )
        assert code == 0
        digests.append(
            [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())]
        )
    assert digests[0] == digests[1]


def test_enrich_with_empty_plan_changes_nothing(capsys, gen_dir, tmp_path):
    plan = tmp_path / "empty.json"
    plan.write_text(json.dumps({"plan_version": 1, "sources": [], "bindings": []}))
    out = tmp_path / "out"
    code, payload, _ = jrun(
        capsys,
        "enrich",
        "--log",
        str(gen_dir / "log.xes"),
        "--plan",
        str(plan),
        "--sensors",
        str(gen_dir),
        "--out",
        str(out),
    )
    assert code == 0 and payload["additions"] == 0
    # output equals input modulo canonical serialization
    original = parse_xes((gen_dir / "log.xes").read_bytes())
    assert parse_xes((out / "enriched.xes").read_bytes()) == original


def test_enrich_invalid_plan_exits_one(capsys, gen_dir, tmp_path):
    plan = tmp_path / "bad.json"
    plan.write_text(
        json.dumps(
            {
                "plan_version": 1,
                "sources": [],
                "bindings": [
                    {
                        "binding_id": "b1",
                        "source_id": "ghost",
                        "level": "instance",
                        "category": "environment",
                        "correlation": {"strategy": "span_overlap"},
                        "target": {"kind": "case_attribute", "key": "k"},
                    }
                ],
            }
        )
    )
    code, out, _ = run(
        capsys,
        "enrich",
        "--log",
        str(gen_dir / "log.xes"),
        "--plan",
        str(plan),
        "--sensors",
        str(gen_dir),
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 1
    assert json.loads(out.splitlines()[0])["code"] == "UNKNOWN_SOURCE"


# A plan field the enrichment writes into the log, set to text XML 1.0 cannot carry.
@pytest.mark.parametrize(
    "name, pointer, text",
    [
        ("scenario1", "/bindings/0/target/key", "truck\x01plate"),
        ("scenario2", "/bindings/4/derivation/labels/1", ">35\ufffe"),
        ("scenario2", "/event_rules/0/rule_id", "discontinue\x1f"),
        ("scenario2", "/event_rules/0/activity", "discontinue\ud800"),
    ],
)
def test_plan_text_xml_cannot_carry_fails_validate_and_enrich_with_its_path(
    capsys, gen_dir, tmp_path, name, pointer, text
):
    plan = json.loads(resources.files("iotlog.plans").joinpath(f"{name}.json").read_text())
    *parents, last = pointer.strip("/").split("/")
    node = plan
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(last) if isinstance(node, list) else last] = text
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))  # ASCII: a lone surrogate is written as an escape
    expected = {"scope": "plan", "code": "UNWRITABLE_TEXT", "path": pointer}
    for command in (
        ["validate", "--plan", str(path)],
        ["enrich", "--log", str(gen_dir / "log.xes"), "--plan", str(path),
         "--sensors", str(gen_dir), "--out", str(tmp_path / "out")],
    ):
        code, out, err = run(capsys, *command)
        assert (code, err) == (1, ""), err
        rows = [json.loads(line) for line in out.splitlines()]
        assert [{k: row[k] for k in expected} for row in rows] == [expected]
        assert "XML 1.0 cannot carry" in rows[0]["message"]
    assert not (tmp_path / "out").exists()


def test_enrich_missing_sensor_file_is_an_input_error(capsys, gen_dir, tmp_path):
    code, _, err = run(
        capsys,
        "enrich",
        "--log",
        str(gen_dir / "log.xes"),
        "--plan",
        "scenario1",
        "--sensors",
        str(tmp_path),  # empty directory: no sensor files here
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 2 and "file not found" in err


def test_enrich_an_int_derivation_outside_64_bits_exits_one(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "n_cases": 4}))
    data = tmp_path / "data"
    assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    path = data / "rfid_driver_id.csv"
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        row[rows[0].index("value")] = "99999999999999999999"
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    capsys.readouterr()
    code, payload, err = jrun(
        capsys,
        "enrich",
        "--log",
        str(data / "log.xes"),
        "--plan",
        "scenario2",
        "--sensors",
        str(data),
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 1 and err == ""
    assert payload == {
        "error": "binding 'bind-driver-id': cannot coerce 1e+20 to int: outside 64 bits"
    }


# The source of the small scenario whose file is JSON lines instead of CSV.
JSONL_SOURCE = "humidity_cargo"


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    """A 4-case generated scenario with the bundled scenario2 plan as plan.json.

    One source, JSONL_SOURCE, is read from JSON lines with native values, so
    both file formats are read.
    """
    out = tmp_path_factory.mktemp("cli-enrich")
    config = out / "config.json"
    config.write_text(json.dumps({"seed": 1, "n_cases": 4}))
    data = out / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    with (data / f"{JSONL_SOURCE}.csv").open(newline="", encoding="utf-8") as handle:
        records = [{**row, "value": float(row["value"])} for row in csv.DictReader(handle)]
    (data / f"{JSONL_SOURCE}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    (data / f"{JSONL_SOURCE}.csv").unlink()
    plan = resources.files("iotlog.plans").joinpath("scenario2.json").read_text()
    csv_source = f'"path": "{JSONL_SOURCE}.csv", "format": "csv"'
    assert csv_source in plan
    plan = plan.replace(csv_source, f'"path": "{JSONL_SOURCE}.jsonl", "format": "jsonl"')
    (data / "plan.json").write_text(plan)
    return data


def _enrich_scenario(data, out):
    """Run `iotlog enrich` on a small scenario in-process; return (code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            [
                "enrich",
                "--log", str(data / "log.xes"),
                "--plan", str(data / "plan.json"),
                "--sensors", str(data),
                "--out", str(out),
            ]
        )
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(
    "name, where", [("rain.csv", "(row 3)"), ("plan.json", "(line 3)")]
)
def test_a_byte_that_is_not_utf8_names_the_file_and_where(small_scenario, tmp_path, name, where):
    data = tmp_path / "data"
    shutil.copytree(small_scenario, data)
    body = (data / name).read_bytes()
    at_byte = body.index(b"\n", body.index(b"\n") + 1) + 3  # on the third line
    (data / name).write_bytes(body[:at_byte] + b"\xff" + body[at_byte + 1 :])
    code, _, err = _enrich_scenario(data, tmp_path / "out")
    assert code == 2
    assert str(data / name) in err and "byte 0xff is not UTF-8" in err and where in err


def test_a_gen_config_byte_that_is_not_utf8_names_the_file_and_line(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1,\n "n_cases": \xff4}')
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2
    assert f"{config}: byte 0xff is not UTF-8 (invalid start byte) (line 2)" in err


def test_a_gen_config_that_is_not_json_names_the_file_line_and_column(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1,')
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2
    assert err == (
        f"error: {config}: invalid JSON: Expecting property name enclosed in double quotes "
        "(line 1, column 12)\n"
    )


def test_a_gen_config_that_is_not_an_object_names_the_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    code, _, err = run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert code == 2
    assert err == f"error: {config}: config must be a JSON object\n"


def test_a_truncated_plan_names_the_file_line_and_column(small_scenario, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(small_scenario, data)
    body = (data / "plan.json").read_text()
    (data / "plan.json").write_text(body[: body.index('"bindings"')])
    line = body[: body.index('"bindings"')].count("\n") + 1
    code, _, err = _enrich_scenario(data, tmp_path / "out")
    assert code == 2
    assert err.startswith(f"error: {data / 'plan.json'}: invalid JSON: ")
    assert err.endswith(f"(line {line}, column 3)\n")


_SPAN = 2**24  # edit positions are drawn from [0, _SPAN) and scaled to the document


def _mutate(data: bytes, edits) -> bytes:
    """Apply byte deletions, insertions and replacements at uniformly drawn positions."""
    data = bytearray(data)
    for kind, where, chunk in edits:
        pos = where * (len(data) + 1) // _SPAN
        if kind == "delete":
            del data[pos : pos + len(chunk)]
        elif kind == "insert":
            data[pos:pos] = chunk
        else:
            data[pos : pos + len(chunk)] = chunk
    return bytes(data)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        # Where: three random bytes give a uniform integer. Hypothesis's own
        # integers and floats favour small values, which piles edits onto
        # the first bytes of a file.
        st.binary(min_size=3, max_size=3).map(lambda b: int.from_bytes(b, "big")),
        st.one_of(  # any bytes, or characters that keep a value plausible
            st.binary(min_size=1, max_size=3),
            st.text("0123456789.-+eE:TZ ", min_size=1, max_size=3).map(str.encode),
        ),
    ),
    min_size=1,
    max_size=4,
)

# The inputs of one enrich run: the log, the plan, and the sensor files it reads.
_ENRICH_INPUTS = ["log.xes", "plan.json"] + sorted(
    {source.path.replace(f"{JSONL_SOURCE}.csv", f"{JSONL_SOURCE}.jsonl")
     for source in bundled_plan("scenario2").sources}
)
_LOCATED = re.compile(r"\((?:row|line) \d+|line \d+ column \d+|^error: /")  # or a file's path
_NAMED = re.compile(r"\b(?:binding|rule|case) '")  # a binding, rule or case id, quoted


# Mutations that once reached an internal error, with the answer each gets now:
# the exit code and a piece of the message. An insert at _SPAN - 1 appends.
_PINNED = [
    (  # a declaration of an encoding expat does not know
        "log.xes",
        [("replace", 0, b"<?xml version='1.0' encoding='UT1e9'?>")],
        2,
        "unsupported XML encoding 'UT1e9'",
    ),
    (  # a driver id that is an int outside 64 bits, read before the case's own
        "rfid_driver_id.csv",
        [("insert", _SPAN - 1,
          b"2024-03-02T04:57:49.000+00:00,rfid-gate-in,99999999999999999999,LPN-0001\n")],
        1,
        "cannot coerce 1e+20 to int: outside 64 bits",
    ),
]


def _enrich_mutated(small_scenario, out, name, edits):
    path = small_scenario / name
    original = path.read_bytes()
    path.write_bytes(_mutate(original, edits))
    try:
        return _enrich_scenario(small_scenario, out)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("name, edits, code, message", _PINNED)
def test_the_pinned_mutations_still_reach_what_they_pin(
    small_scenario, tmp_path, name, edits, code, message
):
    got, out, err = _enrich_mutated(small_scenario, tmp_path / "out", name, edits)
    assert got == code and message in out + err, out + err


def test_the_unmutated_small_scenario_enriches(small_scenario, tmp_path):
    code, out, err = _enrich_mutated(small_scenario, tmp_path / "out", "log.xes", [])
    assert (code, err) == (0, ""), err
    assert json.loads(out)["additions"] > 0


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(_ENRICH_INPUTS), edits=_EDITS)
@example(name=_PINNED[0][0], edits=_PINNED[0][1])
@example(name=_PINNED[1][0], edits=_PINNED[1][1])
def test_a_mutated_enrich_input_is_answered_or_rejected_with_a_location(
    small_scenario, tmp_path_factory, name, edits
):
    out = tmp_path_factory.getbasetemp() / "mutated"
    code, out_text, err = _enrich_mutated(small_scenario, out, name, edits)
    assert code in (0, 1, 2) and "internal error" not in err, err
    if code == 2:
        assert str(small_scenario) in err or _LOCATED.search(err), err
    if code == 1:
        # Each row names a plan JSON path or a case; an error, a binding, rule or case.
        for line in out_text.splitlines():
            row = json.loads(line)
            assert (
                row.get("path", "").startswith("/") or "case_id" in row
                or _NAMED.search(row.get("error", ""))
            ), out_text


# --- query --------------------------------------------------------------------


def test_query_count_on_the_fixture(capsys):
    code, payload, _ = jrun(capsys, "query", "--log", ED, "--query", "count")
    assert code == 0
    assert payload == {"query": "count", "mode": "count", "count": 3}


def test_query_cases_mode_lists_ids(capsys):
    code, payload, _ = jrun(
        capsys, "query", "--log", ED, "--query", 'cases where has activity "Triage in the ED"'
    )
    assert code == 0 and payload["case_ids"] == ["0001", "0002", "0003"]


def test_query_zero_matches_still_exits_zero(capsys):
    code, payload, _ = jrun(
        capsys, "query", "--log", ED, "--query", 'count where has activity "missing"'
    )
    assert code == 0 and payload["count"] == 0


def test_query_syntax_error_is_an_input_error(capsys):
    code, _, err = run(capsys, "query", "--log", ED, "--query", "count where")
    assert code == 2 and "column 12" in err


def test_query_on_a_log_in_an_unknown_encoding_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "log.xes"
    path.write_bytes(b"<?xml version='1.0' encoding='UT1e999'?><log/>")
    code, _, err = run(capsys, "query", "--log", str(path), "--query", "count")
    assert code == 2
    assert err == (
        "error: unsupported XML encoding 'UT1e999': unknown encoding: UT1e999 "
        "(line 1, column 30)\n"
    )


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-small")
    config = out / "config.json"
    config.write_text(json.dumps({"seed": 1, "n_cases": 2}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(config), "--out", str(out / "data")]) == 0
    return (out / "data" / "log.xes").read_bytes(), out / "mutated.xes"


_QUERY = (
    'cases where start_hour in [22:00, 06:00) and case.cargo_price > 1.5 '
    'and case.customs_supervison = false and has activity "load in truck"'
)


def _query_cli(path, query: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["query", "--log", str(path), "--query", query])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=60, deadline=None)
@given(edits=_EDITS)
def test_a_mutated_log_is_answered_or_rejected_never_an_internal_error(small_log, edits):
    data, path = small_log
    mutated = _mutate(data, edits)
    path.write_bytes(mutated)
    code, out, err = _query_cli(path, _QUERY)
    assert code in (0, 2), err
    # The CLI builds only the keys the query reads; the answer is the full parse's.
    try:
        expected = {"query": _QUERY, **run_query(parse_xes(mutated), _QUERY).to_dict()}
    except XesParseError as exc:
        assert (code, err) == (2, f"error: {exc}\n")
    else:
        assert (code, json.loads(out)) == (0, expected)


# Pieces of query text an edit may insert: keywords, punctuation, non-ASCII digits.
_QUERY_PIECES = ["where", " and ", "case.", "event.", 'on "load in truck": ', "has activity",
                 "start_hour in", "[", ")", ",", ":", '"', "\\", "=", "<=", "!=", "1.5", "-",
                 "true", "22:00", "\u0662", "\uff15", "x"]
_QUERY_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.binary(min_size=3, max_size=3).map(lambda b: int.from_bytes(b, "big")),
        st.one_of(st.binary(min_size=1, max_size=3),
                  st.sampled_from(_QUERY_PIECES).map(str.encode)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(edits=_QUERY_EDITS)
def test_a_mutated_query_is_answered_or_rejected_never_an_internal_error(small_log, edits):
    data, path = small_log
    path.write_bytes(data)
    # A command line that is not UTF-8 reaches Python as surrogate escapes.
    query = _mutate(_QUERY.encode(), edits).decode("utf-8", "surrogateescape")
    code, out, err = _query_cli(path, query)
    assert code in (0, 2) and "internal error" not in err, err
    try:
        expected = {"query": query, **run_query(parse_xes(data), query).to_dict()}
    except QueryParseError as exc:
        assert (code, err) == (2, f"error: {exc}\n")
    else:
        assert (code, json.loads(out)) == (0, expected)


# --- classify -----------------------------------------------------------------


def test_classify_suggests_categories_for_a_sensors_dir(capsys, gen_dir):
    code, out, _ = run(capsys, "classify", "--sensors", str(gen_dir))
    assert code == 0
    rows = {r["file"]: r["category"] for r in map(json.loads, out.splitlines())}
    assert rows["gps.csv"] == "location"
    assert rows["rain.csv"] == "environment"
    assert rows["weight.csv"] == "physical_object"
    assert rows["timer.csv"] == "time"
    assert rows["rfid_plate.csv"] == "physical_object"
    assert rows["rfid_driver_id.csv"] == "identity"  # "driver" in the name hints a person
    assert len(rows) == 16


# --- output format and error mapping --------------------------------------------


def test_table_format_renders_rows(capsys, gen_dir):
    code, out, _ = run(capsys, "--format", "table", "classify", "--sensors", str(gen_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["file", "sensor_type", "category"]
    assert len(lines) == 17


def test_unknown_subcommand_fails_fast(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- the cyclic garbage collector -----------------------------------------------


def test_main_pauses_the_cyclic_collector_and_restores_what_it_found(capsys, monkeypatch):
    during = []

    def command(args):
        during.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_query", command)
    assert main(["query", "--log", ED, "--query", "count"]) == 0
    assert during == [False] and gc.isenabled()
    with pytest.raises(SystemExit):
        main(["query", "--log", ED])  # argparse exits: --query is missing
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["query", "--log", ED, "--query", "count"]) == 0
        assert not gc.isenabled()  # a caller that paused it keeps it paused
    finally:
        gc.enable()
    capsys.readouterr()


def _cyclic_garbage_of(argv) -> int:
    """The objects the cyclic collector finds unreachable after `main(argv)`."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def _garbage_per_command(directory, seed: int, n_cases: int) -> dict[str, int]:
    config = directory / "config.json"
    config.write_text(json.dumps({"seed": seed, "n_cases": n_cases}))
    data = directory / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    garbage = {}
    for plan in ("scenario1", "scenario2"):
        out = directory / plan
        garbage[f"enrich {plan}"] = _cyclic_garbage_of(
            ["enrich", "--log", str(data / "log.xes"), "--plan", plan,
             "--sensors", str(data), "--out", str(out)]
        )
        garbage[f"query {plan}"] = _cyclic_garbage_of(
            ["query", "--log", str(out / "enriched.xes"),
             "--query", 'cases where case.weather = true and has activity "enter the port"']
        )
    return garbage


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_a_command_leaves_cyclic_garbage_that_does_not_grow_with_its_input(
    tmp_path_factory, seed
):
    # The collector is paused while a command runs, so garbage that grew with
    # the input would stay until the command ends.
    small = _garbage_per_command(tmp_path_factory.mktemp("small"), seed, 2)
    large = _garbage_per_command(tmp_path_factory.mktemp("large"), seed, 50)
    assert large == small
