"""Synthetic truck pick-up scenario: log, sensor streams, ground truth.

Generates a port pick-up process — a truck arrives, is evaluated and weighed
empty, loads cargo, is weighed again and leaves — together with the sensor
streams an enrichment plan correlates against, and a manifest of every
injected anomaly so pipeline results can be checked exactly.

Two anomaly kinds are injected:

* interrupted pick-ups: the loading phase aborts after a contiguous
  over-temperature spike in the cargo temperature stream. The spike lives
  only in the sensor data — the "discontinue the pick-up operation" activity
  is never placed in the base log, it must be derived during enrichment.
* retrofitted trucks (the fraud signature): a fixed filler mass is welded
  into the truck, shifting the empty weighing by FILLER_KG.

All randomness flows from one `random.Random(seed)` (CPython's Mersenne
Twister), drawn in a fixed order, so equal configs give byte-identical
output files. Cases sit on disjoint two-day slots, which keeps every
sensor's readings for one case inside that case's event span and away from
every other case.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from pathlib import Path

from .sensors import SensorReading, SensorStream
from .timeutil import UTC, format_timestamp, to_utc_ms
from .xes import Attribute, Event, Log, Trace, write_xes

ARRIVE = "arrive at the port"
ENTRY_EVAL = "evaluate the truck entry"
WEIGH_EMPTY = "weigh the empty truck"
LOAD = "load in truck"
WEIGH_LOADED = "weigh the loaded truck"
EXIT_EVAL = "evaluate the truck exit"
LEAVE = "leave the port"
DISCONTINUE = "discontinue the pick-up operation"  # derivable, never generated

FILLER_KG = 850.0
NIGHT_START = time(22, 0)
NIGHT_END = time(6, 0)

# (source_id, sensor family, value_type, unit); the CSV file is <source_id>.csv
STREAM_DEFS: tuple[tuple[str, str, str, str | None], ...] = (
    ("rfid_plate", "rfid", "string", None),
    ("rfid_driver_id", "rfid", "decimal", None),
    ("rfid_driver_credit", "rfid", "string", None),
    ("rfid_blacklist", "rfid", "boolean", None),
    ("rfid_retrofit", "rfid", "boolean", None),
    ("rfid_truck_category", "rfid", "string", None),
    ("gps", "gps", "string", None),
    ("gps_cargo", "gps", "string", None),
    ("weight", "weight", "decimal", "kg"),
    ("weight_cargo", "weight", "decimal", "kg"),
    ("timer", "timer", "decimal", "s"),
    ("rain", "rain", "decimal", "mm_per_h"),
    ("temperature_cargo", "temperature", "decimal", "celsius"),
    ("temperature_truck", "temperature", "decimal", "celsius"),
    ("humidity_cargo", "humidity", "decimal", "percent"),
    ("smoke_cargo", "smoke", "decimal", "ppm"),
)

_TARE_RANGES = {
    "container": (7400.0, 8600.0),
    "flatbed": (6600.0, 7600.0),
    "tanker": (8200.0, 9600.0),
    "refrigerated": (7800.0, 9000.0),
}

_ZONE_COORDS = {
    "gate": (7.190, 53.345),
    "weighbridge": (7.193, 53.347),
    "yard": (7.197, 53.349),
    "exit road": (7.188, 53.343),
}


class GenConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_cases: int = 10
    fraud_rate: float = 0.1
    interruption_rate: float = 0.2
    night_arrival_fraction: float = 0.3
    time_origin: datetime = datetime(2024, 3, 1, tzinfo=UTC)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise GenConfigError("seed must be an integer in [0, 2**64)")
        if not isinstance(self.n_cases, int) or self.n_cases < 0:
            raise GenConfigError("n_cases must be a non-negative integer")
        for name in ("fraud_rate", "interruption_rate", "night_arrival_fraction"):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate <= 1:
                raise GenConfigError(f"{name} must be a number in [0, 1]")
        # Case i starts 2 * (i - 1) days after the origin and ends within 33 hours,
        # so every generated timestamp lies before origin + 2 * n_cases days.
        try:
            origin = to_utc_ms(self.time_origin)
            origin + timedelta(days=2 * self.n_cases)
        except OverflowError:
            raise GenConfigError(
                f"time_origin plus 2 days per case for {self.n_cases} cases "
                "is outside years 1-9999 in UTC"
            ) from None
        object.__setattr__(self, "time_origin", origin)


def config_from_dict(data: dict) -> GenConfig:
    """Build a GenConfig from parsed JSON, tolerating missing keys."""
    if not isinstance(data, dict):
        raise GenConfigError("config must be a JSON object")
    known = {
        "seed",
        "n_cases",
        "fraud_rate",
        "interruption_rate",
        "night_arrival_fraction",
        "time_origin",
    }
    unknown = set(data) - known
    if unknown:
        raise GenConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "time_origin" in kwargs:
        raw = kwargs["time_origin"]
        if not isinstance(raw, str):
            raise GenConfigError("time_origin must be an ISO-8601 string")
        try:
            from .timeutil import parse_timestamp

            kwargs["time_origin"] = parse_timestamp(raw)
        except ValueError as exc:
            raise GenConfigError(f"bad time_origin: {exc}") from None
    return GenConfig(**kwargs)


def is_night(moment: datetime) -> bool:
    """Whether a timestamp's UTC time of day falls in [22:00, 06:00)."""
    t = moment.astimezone(UTC).time()
    return t >= NIGHT_START or t < NIGHT_END


@dataclass(frozen=True)
class CaseTruth:
    """The injected parameters of one generated case."""

    case_id: str
    plate: str
    interrupted: bool
    retrofitted: bool
    rainy: bool
    night_arrival: bool
    arrival: datetime


@dataclass(frozen=True)
class GroundTruthManifest:
    interrupted_cases: tuple[str, ...]
    fraud_cases: tuple[str, ...]
    interrupted_night_pickups: int
    per_case: dict[str, CaseTruth]

    def recompute_interrupted_night_pickups(self) -> int:
        """The summary count, rederived from per_case (consistency check)."""
        interrupted = set(self.interrupted_cases)
        return sum(
            1
            for truth in self.per_case.values()
            if truth.case_id in interrupted and is_night(truth.arrival)
        )

    def to_dict(self) -> dict:
        return {
            "interrupted_cases": list(self.interrupted_cases),
            "fraud_cases": list(self.fraud_cases),
            "interrupted_night_pickups": self.interrupted_night_pickups,
            "per_case": {
                cid: {
                    "plate": t.plate,
                    "interrupted": t.interrupted,
                    "retrofitted": t.retrofitted,
                    "rainy": t.rainy,
                    "night_arrival": t.night_arrival,
                    "arrival": format_timestamp(t.arrival),
                }
                for cid, t in self.per_case.items()
            },
        }


def _minutes(rng: random.Random, lo: int, hi: int) -> timedelta:
    """A whole-second duration in [lo, hi) minutes."""
    return timedelta(seconds=lo * 60 + int(rng.random() * (hi - lo) * 60))


def generate(config: GenConfig) -> tuple[Log, list[SensorStream], GroundTruthManifest]:
    rng = random.Random(config.seed)
    readings: dict[str, list[SensorReading]] = {sid: [] for sid, _, _, _ in STREAM_DEFS}
    units = {sid: unit for sid, _, _, unit in STREAM_DEFS}
    traces: list[Trace] = []
    per_case: dict[str, CaseTruth] = {}

    def emit(source_id: str, sensor_id: str, t: datetime, value, *, subject=None, zone=None):
        location = None
        if zone is not None:
            lon, lat = _ZONE_COORDS[zone]
            location = (
                lon + (rng.random() - 0.5) * 0.001,
                lat + (rng.random() - 0.5) * 0.001,
            )
        readings[source_id].append(
            SensorReading(
                sensor_id=sensor_id,
                timestamp=t,
                value=value,
                unit=units[source_id],
                subject_key=subject,
                location=location,
            )
        )

    for i in range(1, config.n_cases + 1):
        case_id = f"{i:04d}"
        plate = f"LPN-{i:04d}"
        day = config.time_origin + timedelta(days=2 * (i - 1))

        night = rng.random() < config.night_arrival_fraction
        if night:
            arrival = day + timedelta(hours=22, seconds=int(rng.random() * 8 * 3600))
        else:
            arrival = day + timedelta(hours=6, seconds=int(rng.random() * 16 * 3600))
        interrupted = rng.random() < config.interruption_rate
        retrofitted = rng.random() < config.fraud_rate
        rainy = rng.random() < 0.25
        blacklisted = rng.random() < 0.05
        overheated_truck = rng.random() < 0.1
        smoky_cargo = rng.random() < 0.05

        driver_id = rng.randrange(1000, 10000)
        credit = rng.choice(("high", "medium", "low"))
        truck_category = rng.choice(tuple(_TARE_RANGES))
        tare_lo, tare_hi = _TARE_RANGES[truck_category]
        empty_weight = rng.uniform(tare_lo, tare_hi) + (FILLER_KG if retrofitted else 0.0)
        cargo_total = rng.uniform(14000.0, 24000.0)

        t_entry = arrival + _minutes(rng, 5, 15)
        t_weigh_empty = t_entry + _minutes(rng, 5, 15)
        t_load = t_weigh_empty + _minutes(rng, 10, 30)
        duration_s = 1800 + int(rng.random() * 1800)  # planned loading: 30-60 min
        grid = [t_load + timedelta(seconds=j * 300) for j in range(duration_s // 300 + 1)]

        spike_indices: set[int] = set()
        if interrupted:
            start = rng.randrange(1, len(grid) - 3)
            spike_indices = {start, start + 1, start + 2}
            load_end = grid[start + 2] + _minutes(rng, 2, 5)
        else:
            load_end = t_load + timedelta(seconds=duration_s)

        if interrupted:
            t_weigh_loaded = None
            t_exit = load_end + _minutes(rng, 5, 15)
        else:
            t_weigh_loaded = load_end + _minutes(rng, 5, 15)
            t_exit = t_weigh_loaded + _minutes(rng, 5, 15)
        t_leave = t_exit + _minutes(rng, 5, 15)

        events = [Event(ARRIVE, arrival), Event(ENTRY_EVAL, t_entry)]
        events.append(Event(WEIGH_EMPTY, t_weigh_empty))
        events.append(Event(LOAD, t_load))
        if t_weigh_loaded is not None:
            events.append(Event(WEIGH_LOADED, t_weigh_loaded))
        events.append(Event(EXIT_EVAL, t_exit))
        events.append(Event(LEAVE, t_leave))

        traces.append(
            Trace(
                case_id=case_id,
                attributes=(
                    Attribute("customs_supervison", rng.random() < 0.15),
                    Attribute("cargo_type", rng.choice(
                        ("steel coils", "timber", "electronics", "grain", "machine parts")
                    )),
                    Attribute("cargo_price", round(rng.uniform(4000.0, 250000.0), 2)),
                    Attribute("yard_category", rng.choice(
                        ("outdoor yard", "warehouse", "covered shed")
                    )),
                    Attribute("means_of_payment", rng.choice(
                        ("after completion", "monthly", "advance")
                    )),
                    Attribute("contract_category", rng.choice(
                        ("single vessel", "long-term", "framework")
                    )),
                ),
                events=tuple(events),
            )
        )

        # RFID gate reads
        emit("rfid_plate", "rfid-gate-in", t_entry, plate, subject=plate)
        emit("rfid_plate", "rfid-gate-out", t_exit, plate, subject=plate)
        emit("rfid_driver_id", "rfid-gate-in", t_entry, float(driver_id), subject=plate)
        emit("rfid_driver_credit", "rfid-gate-in", t_entry, credit, subject=plate)
        emit("rfid_blacklist", "rfid-gate-in", t_entry, blacklisted, subject=plate)
        # Listing-style encoding: the retrofit tag reports "not retrofitted".
        emit("rfid_retrofit", "rfid-gate-in", t_entry, not retrofitted, subject=plate)
        emit("rfid_truck_category", "rfid-gate-in", t_entry, truck_category, subject=plate)

        # Truck GPS: a zone fix at every process step
        gps_id = f"gps-{plate}"
        emit("gps", gps_id, arrival, "gate", subject=plate, zone="gate")
        emit("gps", gps_id, t_entry, "gate", subject=plate, zone="gate")
        emit("gps", gps_id, t_weigh_empty, "weighbridge", subject=plate, zone="weighbridge")
        emit("gps", gps_id, t_load, "yard", subject=plate, zone="yard")
        if t_weigh_loaded is not None:
            emit("gps", gps_id, t_weigh_loaded, "weighbridge", subject=plate, zone="weighbridge")
        emit("gps", gps_id, t_exit, "gate", subject=plate, zone="gate")
        emit("gps", gps_id, t_leave, "exit road", subject=plate, zone="exit road")

        # Cargo position: on the yard while loading, on the truck once done
        cargo_gps_id = f"gps-cargo-{plate}"
        emit("gps_cargo", cargo_gps_id, t_load, "loading yard", subject=plate, zone="yard")
        final_zone = "loading yard" if interrupted else "truck"
        emit("gps_cargo", cargo_gps_id, load_end, final_zone, subject=plate, zone="yard")

        # Weighbridge: one reading per weighing
        emit("weight", "weighbridge-1", t_weigh_empty, empty_weight, subject=plate)
        if t_weigh_loaded is not None:
            emit("weight", "weighbridge-1", t_weigh_loaded, empty_weight + cargo_total, subject=plate)

        # Cumulative loaded cargo mass while loading runs
        crane_id = f"crane-scale-{plate}"
        for j, t in enumerate(grid):
            if t > load_end:
                break
            emit("weight_cargo", crane_id, t, cargo_total * (j * 300 / duration_s), subject=plate)
        loaded_fraction = min(1.0, (load_end - t_load).total_seconds() / duration_s)
        emit("weight_cargo", crane_id, load_end, cargo_total * loaded_fraction, subject=plate)

        # Elapsed-time ticks at every event
        for ev in events:
            emit(
                "timer",
                f"timer-{plate}",
                ev.timestamp,
                (ev.timestamp - arrival).total_seconds(),
                subject=plate,
            )

        # Area rain gauge, ten-minute cadence across the whole visit
        t = arrival
        while t <= t_leave:
            value = rng.uniform(0.8, 6.0) if rainy else rng.uniform(0.0, 0.45)
            emit("rain", "rain-1", t, value)
            t += timedelta(seconds=600)

        # Cargo temperature on the five-minute loading grid; the spike is a
        # contiguous run so the derived-event rule fires exactly once
        for j, t in enumerate(grid):
            if t > load_end:
                break
            if j in spike_indices:
                value = rng.uniform(36.5, 41.0)
            else:
                value = rng.uniform(18.0, 33.0)
            emit("temperature_cargo", f"temp-cargo-{plate}", t, value, subject=plate)

        # Truck engine-bay temperature across the visit
        t = arrival
        while t <= t_leave:
            value = rng.uniform(36.5, 45.0) if overheated_truck else rng.uniform(15.0, 33.0)
            emit("temperature_truck", f"temp-truck-{plate}", t, value, subject=plate)
            t += timedelta(seconds=600)

        # Hold humidity and smoke while loading runs
        t = t_load
        while t <= load_end:
            humidity = rng.uniform(70.0, 95.0) if rainy else rng.uniform(35.0, 65.0)
            emit("humidity_cargo", f"hum-cargo-{plate}", t, humidity, subject=plate)
            smoke = rng.uniform(60.0, 120.0) if smoky_cargo else rng.uniform(0.0, 8.0)
            emit("smoke_cargo", f"smoke-cargo-{plate}", t, smoke, subject=plate)
            t += timedelta(seconds=600)

        per_case[case_id] = CaseTruth(
            case_id=case_id,
            plate=plate,
            interrupted=interrupted,
            retrofitted=retrofitted,
            rainy=rainy,
            night_arrival=is_night(arrival),
            arrival=arrival,
        )

    streams = [
        SensorStream(source_id, family, tuple(readings[source_id]))
        for source_id, family, _, _ in STREAM_DEFS
    ]
    interrupted_cases = tuple(cid for cid, t in per_case.items() if t.interrupted)
    fraud_cases = tuple(cid for cid, t in per_case.items() if t.retrofitted)
    manifest = GroundTruthManifest(
        interrupted_cases=interrupted_cases,
        fraud_cases=fraud_cases,
        interrupted_night_pickups=sum(
            1 for cid in interrupted_cases if per_case[cid].night_arrival
        ),
        per_case=per_case,
    )
    return Log(traces=tuple(traces)), streams, manifest


# --- file output --------------------------------------------------------------


def _csv_value(value) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_stream_csv(stream: SensorStream, path: Path) -> None:
    """One CSV per stream; optional columns appear only when the stream uses them."""
    has_unit = any(r.unit is not None for r in stream.readings)
    has_subject = any(r.subject_key is not None for r in stream.readings)
    has_location = any(r.location is not None for r in stream.readings)
    header = ["timestamp", "sensor_id", "value"]
    if has_unit:
        header.append("unit")
    if has_subject:
        header.append("subject_key")
    if has_location:
        header += ["lon", "lat"]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for r in stream.readings:
            row = [format_timestamp(r.timestamp), r.sensor_id, _csv_value(r.value)]
            if has_unit:
                row.append(r.unit or "")
            if has_subject:
                row.append(r.subject_key or "")
            if has_location:
                row += [repr(r.location[0]), repr(r.location[1])] if r.location else ["", ""]
            writer.writerow(row)


def write_outputs(
    log: Log,
    streams: list[SensorStream],
    manifest: GroundTruthManifest,
    out_dir: str | Path,
) -> list[Path]:
    """Write log.xes, one <source_id>.csv per stream, and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    log_path = out / "log.xes"
    log_path.write_bytes(write_xes(log))
    written.append(log_path)
    for stream in streams:
        path = out / f"{stream.source_id}.csv"
        write_stream_csv(stream, path)
        written.append(path)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written
