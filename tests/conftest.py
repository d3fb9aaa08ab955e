"""Shared fixtures and small constructors used across the test modules."""

from __future__ import annotations

import gc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from iotlog import GenConfig, SensorReading, generate, write_outputs
from iotlog.xes import Attribute, Event, Log, Trace

FIXTURES = Path(__file__).parent / "fixtures"

T0 = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def at(seconds: float) -> datetime:
    """A timestamp `seconds` after the shared origin T0."""
    return T0 + timedelta(seconds=seconds)


def ev(activity: str, when: datetime, **attrs) -> Event:
    return Event(
        activity=activity,
        timestamp=when,
        attributes=tuple(Attribute(k, v) for k, v in attrs.items()),
    )


def tr(case_id: str, events=(), **attrs) -> Trace:
    return Trace(
        case_id=case_id,
        attributes=tuple(Attribute(k, v) for k, v in attrs.items()),
        events=tuple(events),
    )


def mklog(*traces: Trace) -> Log:
    return Log(traces=tuple(traces))


def reading(sensor_id: str, when: datetime, value, subject=None) -> SensorReading:
    return SensorReading(sensor_id=sensor_id, timestamp=when, value=value, subject_key=subject)


def readings_at(index, source_id: str, positions) -> list[SensorReading]:
    """The readings at `positions` in the index's stream of `source_id`."""
    stream = index.stream(source_id).readings
    return [stream[p] for p in positions]


@pytest.fixture(autouse=True)
def _the_cyclic_collector_stays_on():
    """Fail a test that leaves the cyclic garbage collector disabled; `cli.main` pauses it."""
    yield
    if not gc.isenabled():
        gc.enable()  # so the tests after this one run as they would
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def ed_fixture_bytes() -> bytes:
    return (FIXTURES / "ed_visits.xes").read_bytes()


@pytest.fixture(scope="session")
def scenario_bundle(tmp_path_factory):
    """One generated scenario (seed 42, 30 cases), shared read-only.

    Returns (log, streams, manifest, out_dir) with all artifacts written to
    out_dir, so tests can exercise both the in-memory and the on-disk paths.
    """
    out_dir = tmp_path_factory.mktemp("scenario42")
    config = GenConfig(seed=42, n_cases=30)
    log, streams, manifest = generate(config)
    write_outputs(log, streams, manifest, out_dir)
    return log, streams, manifest, out_dir
