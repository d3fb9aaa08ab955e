"""Scenario generator tests: determinism, manifest consistency, and that every
injected anomaly is actually present in (and only in) the emitted streams."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta, timezone

import pytest

from iotlog.scenario import (
    ARRIVE,
    DISCONTINUE,
    ENTRY_EVAL,
    EXIT_EVAL,
    LEAVE,
    LOAD,
    WEIGH_EMPTY,
    WEIGH_LOADED,
    GenConfig,
    GenConfigError,
    config_from_dict,
    generate,
    is_night,
    write_outputs,
)
from iotlog.xes import parse_xes, validate_log


def by_subject(streams, source_id: str, plate: str):
    (stream,) = [s for s in streams if s.source_id == source_id]
    return [r for r in stream.readings if r.subject_key == plate]


def in_span(streams, source_id: str, trace):
    (stream,) = [s for s in streams if s.source_id == source_id]
    first, last = trace.span()
    return [r for r in stream.readings if first <= r.timestamp <= last]


# --- configuration -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(GenConfigError, match="seed"):
        GenConfig(seed=-1)
    with pytest.raises(GenConfigError, match="n_cases"):
        GenConfig(n_cases=-2)
    with pytest.raises(GenConfigError, match="fraud_rate"):
        GenConfig(fraud_rate=1.5)
    with pytest.raises(GenConfigError, match="night_arrival_fraction"):
        GenConfig(night_arrival_fraction=-0.1)


def test_config_from_dict():
    config = config_from_dict(
        {"seed": 7, "n_cases": 3, "time_origin": "2025-01-01T00:00:00+00:00"}
    )
    assert config.seed == 7
    assert config.time_origin == datetime(2025, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(GenConfigError, match="unknown config keys"):
        config_from_dict({"cases": 3})
    with pytest.raises(GenConfigError, match="time_origin"):
        config_from_dict({"time_origin": 12345})
    with pytest.raises(GenConfigError, match="bad time_origin"):
        config_from_dict({"time_origin": "soon"})


@pytest.mark.parametrize("n_cases", [1, 2, 3])
def test_the_latest_time_origin_a_config_accepts_still_generates(n_cases):
    last = datetime(9999, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc)
    latest = last - timedelta(days=2 * n_cases)
    config = GenConfig(
        n_cases=n_cases, night_arrival_fraction=1.0, interruption_rate=0.0, time_origin=latest
    )
    log, _, _ = generate(config)
    assert max(t.span()[1] for t in log.traces) <= last
    with pytest.raises(GenConfigError, match="outside years 1-9999"):
        GenConfig(n_cases=n_cases, time_origin=latest + timedelta(milliseconds=1))


@pytest.mark.parametrize(
    "config",
    [
        {"time_origin": datetime(9999, 12, 30, tzinfo=timezone.utc), "n_cases": 3},
        {"n_cases": 10**12},
        # converting this origin to UTC leaves year 9999 before any case is added
        {"time_origin": datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-2)))},
    ],
)
def test_a_generated_span_outside_years_1_to_9999_is_a_config_error(config):
    with pytest.raises(GenConfigError, match="outside years 1-9999 in UTC"):
        GenConfig(**config)


def test_is_night_window_is_half_open():
    def probe(hh, mm):
        return is_night(datetime(2024, 3, 1, hh, mm, tzinfo=timezone.utc))

    assert probe(22, 0) and probe(23, 59) and probe(0, 0) and probe(5, 59)
    assert not probe(6, 0) and not probe(12, 0) and not probe(21, 59)


# --- determinism ----------------------------------------------------------------


def test_equal_configs_generate_equal_artifacts():
    a = generate(GenConfig(seed=7, n_cases=8))
    b = generate(GenConfig(seed=7, n_cases=8))
    assert a == b


def test_equal_configs_write_byte_identical_files(tmp_path):
    for sub in ("one", "two"):
        log, streams, manifest = generate(GenConfig(seed=9, n_cases=5))
        write_outputs(log, streams, manifest, tmp_path / sub)
    hashes = {}
    for sub in ("one", "two"):
        for path in sorted((tmp_path / sub).iterdir()):
            hashes.setdefault(path.name, []).append(
                hashlib.sha256(path.read_bytes()).hexdigest()
            )
    assert hashes and all(pair[0] == pair[1] for pair in hashes.values())


def test_different_seeds_differ():
    assert generate(GenConfig(seed=1, n_cases=5)) != generate(GenConfig(seed=2, n_cases=5))


def test_zero_cases_gives_empty_but_valid_artifacts(tmp_path):
    log, streams, manifest = generate(GenConfig(seed=0, n_cases=0))
    assert log.traces == ()
    assert all(s.readings == () for s in streams)
    assert manifest.interrupted_night_pickups == 0
    assert manifest.per_case == {}
    write_outputs(log, streams, manifest, tmp_path)
    assert parse_xes((tmp_path / "log.xes").read_bytes()).traces == ()


def test_rate_zero_means_no_anomalies():
    _, _, manifest = generate(GenConfig(seed=3, n_cases=20, interruption_rate=0.0, fraud_rate=0.0))
    assert manifest.interrupted_cases == ()
    assert manifest.fraud_cases == ()
    assert manifest.interrupted_night_pickups == 0


def test_rate_one_means_every_case():
    _, _, manifest = generate(GenConfig(seed=3, n_cases=10, interruption_rate=1.0, fraud_rate=1.0))
    assert len(manifest.interrupted_cases) == 10
    assert len(manifest.fraud_cases) == 10


# --- manifest truth -------------------------------------------------------------


def test_manifest_summary_is_recomputable(scenario_bundle):
    _, _, manifest, _ = scenario_bundle
    assert manifest.recompute_interrupted_night_pickups() == manifest.interrupted_night_pickups
    assert set(manifest.interrupted_cases) == {
        c for c, t in manifest.per_case.items() if t.interrupted
    }
    assert set(manifest.fraud_cases) == {
        c for c, t in manifest.per_case.items() if t.retrofitted
    }


def test_night_flag_matches_first_event_time(scenario_bundle):
    log, _, manifest, _ = scenario_bundle
    for trace in log.traces:
        truth = manifest.per_case[trace.case_id]
        assert trace.events[0].timestamp == truth.arrival
        assert truth.night_arrival == is_night(truth.arrival)


def test_night_fraction_extremes_pin_the_arrival_window():
    log_night, _, _ = generate(GenConfig(seed=11, n_cases=15, night_arrival_fraction=1.0))
    assert all(is_night(t.events[0].timestamp) for t in log_night.traces)
    log_day, _, _ = generate(GenConfig(seed=11, n_cases=15, night_arrival_fraction=0.0))
    assert not any(is_night(t.events[0].timestamp) for t in log_day.traces)


# --- log structure --------------------------------------------------------------


def test_activity_sequences(scenario_bundle):
    log, _, manifest, _ = scenario_bundle
    normal = [ARRIVE, ENTRY_EVAL, WEIGH_EMPTY, LOAD, WEIGH_LOADED, EXIT_EVAL, LEAVE]
    interrupted = [ARRIVE, ENTRY_EVAL, WEIGH_EMPTY, LOAD, EXIT_EVAL, LEAVE]
    for trace in log.traces:
        activities = [e.activity for e in trace.events]
        expected = interrupted if manifest.per_case[trace.case_id].interrupted else normal
        assert activities == expected


def test_discontinue_is_never_planted(scenario_bundle):
    log, _, _, _ = scenario_bundle
    for trace in log.traces:
        assert DISCONTINUE not in [e.activity for e in trace.events]


def test_generated_log_is_valid_and_case_ids_are_sequential(scenario_bundle):
    log, _, manifest, _ = scenario_bundle
    assert validate_log(log) == []
    assert [t.case_id for t in log.traces] == [f"{i:04d}" for i in range(1, 31)]
    assert [manifest.per_case[t.case_id].plate for t in log.traces] == [
        f"LPN-{i:04d}" for i in range(1, 31)
    ]


def test_base_trace_attributes(scenario_bundle):
    log, _, _, _ = scenario_bundle
    expected = {
        "customs_supervison": bool,
        "cargo_type": str,
        "cargo_price": float,
        "yard_category": str,
        "means_of_payment": str,
        "contract_category": str,
    }
    for trace in log.traces:
        assert trace.attribute_keys() == set(expected)
        for key, kind in expected.items():
            assert type(trace.get(key)) is kind
        assert trace.get("cargo_price") == round(trace.get("cargo_price"), 2)


def test_case_spans_never_overlap(scenario_bundle):
    log, _, _, _ = scenario_bundle
    spans = [t.span() for t in log.traces]
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end < start


# --- streams carry exactly the injected signals ----------------------------------


def test_interruption_lives_only_in_the_temperature_stream(scenario_bundle):
    log, streams, manifest, _ = scenario_bundle
    interrupted = set(manifest.interrupted_cases)
    assert interrupted  # seed 42 / 30 cases does inject some
    for trace in log.traces:
        plate = manifest.per_case[trace.case_id].plate
        temps = [r.value for r in by_subject(streams, "temperature_cargo", plate)]
        if trace.case_id in interrupted:
            over = [v > 35.0 for v in temps]
            assert any(over)
            # exactly one contiguous run of exactly three samples
            runs = []
            size = 0
            for flag in over + [False]:
                size = size + 1 if flag else (runs.append(size) if size else None) or 0
            assert runs == [3]
            assert all(v >= 36.5 for v, flag in zip(temps, over) if flag)
        else:
            assert all(v < 35.0 for v in temps)


def test_spike_timestamps_stay_inside_the_trace_span(scenario_bundle):
    log, streams, manifest, _ = scenario_bundle
    for case_id in manifest.interrupted_cases:
        trace = log.trace(case_id)
        plate = manifest.per_case[case_id].plate
        first, last = trace.span()
        for r in by_subject(streams, "temperature_cargo", plate):
            assert first <= r.timestamp <= last


def test_retrofit_tag_reports_the_negated_flag(scenario_bundle):
    _, streams, manifest, _ = scenario_bundle
    for case_id, truth in manifest.per_case.items():
        (tag,) = by_subject(streams, "rfid_retrofit", truth.plate)
        assert tag.value == (not truth.retrofitted)


def test_retrofit_shifts_the_empty_weighing_by_the_filler_mass(scenario_bundle):
    from iotlog.scenario import FILLER_KG, _TARE_RANGES

    _, streams, manifest, _ = scenario_bundle
    assert manifest.fraud_cases  # seed 42 / 30 cases does inject some
    for truth in manifest.per_case.values():
        (category,) = [
            r.value for r in by_subject(streams, "rfid_truck_category", truth.plate)
        ]
        weight = by_subject(streams, "weight", truth.plate)[0].value
        lo, hi = _TARE_RANGES[category]
        offset = FILLER_KG if truth.retrofitted else 0.0
        assert lo <= weight - offset <= hi


def test_weighings_per_case(scenario_bundle):
    log, streams, manifest, _ = scenario_bundle
    for trace in log.traces:
        truth = manifest.per_case[trace.case_id]
        weighings = by_subject(streams, "weight", truth.plate)
        assert len(weighings) == (1 if truth.interrupted else 2)
        if not truth.interrupted:
            empty, loaded = weighings
            assert loaded.value > empty.value + 14000.0 - 1e-9


def test_rain_covers_every_visit_and_separates_wet_from_dry(scenario_bundle):
    log, streams, manifest, _ = scenario_bundle
    for trace in log.traces:
        in_case = in_span(streams, "rain", trace)
        assert in_case and in_case[0].timestamp == trace.events[0].timestamp
        if manifest.per_case[trace.case_id].rainy:
            assert all(r.value >= 0.8 for r in in_case)
        else:
            assert all(r.value <= 0.45 for r in in_case)


def test_timer_ticks_measure_seconds_since_arrival(scenario_bundle):
    log, streams, manifest, _ = scenario_bundle
    trace = log.traces[0]
    plate = manifest.per_case[trace.case_id].plate
    ticks = by_subject(streams, "timer", plate)
    assert len(ticks) == len(trace.events)
    for event, tick in zip(trace.events, ticks):
        assert tick.timestamp == event.timestamp
        assert tick.value == (event.timestamp - trace.events[0].timestamp).total_seconds()


# --- on-disk artifacts ------------------------------------------------------------


def test_write_outputs_produces_log_streams_and_manifest(scenario_bundle):
    log, streams, manifest, out_dir = scenario_bundle
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"log.xes", "manifest.json"} | {f"{s.source_id}.csv" for s in streams}
    assert parse_xes((out_dir / "log.xes").read_bytes()) == log
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    assert on_disk == manifest.to_dict()
    assert on_disk["interrupted_night_pickups"] == manifest.interrupted_night_pickups
