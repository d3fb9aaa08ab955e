"""Benchmark of the iotlog batch pipeline, run the way a user runs it.

One run builds a workload's input files from a seed, then repeats, for about
`--seconds`, one `iotlog enrich` child followed by one `iotlog query` child
over that child's `enriched.xes`. Only one child runs at a time (a closed
loop with one client). Every output is checked against the workload's
ground truth, and the output digests must not change between repeats.

    python3 bench/run.py --workload port-bulk --seed 1 --seconds 30 --trace 0

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it runs each command under bench/tracer.py as well, and
reports the per-layer metrics instead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record (the
samples, digests, workload shape and environment) goes to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # setup_s is the median of this many builds
MIN_REPEATS = 3  # repeats run even when --seconds is already spent
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(f"{path.name}\0{sha256(path)}\n".encode())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Child:
    """One finished child process: wall seconds from spawn to exit, and its peak RSS."""

    def __init__(self, argv: list[str], log_stem: Path):
        with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.stdout = Path(f"{log_stem}.out").read_text(encoding="utf-8", errors="replace")
        self.stderr = Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace")

    def problems(self, what: str) -> list[str]:
        if self.exit_code == 0:
            return []
        return [f"{what} exited {self.exit_code}: {self.stderr.strip()[-300:]}"]


class Session:
    """The repeats of one run, their checks and their samples."""

    def __init__(self, workloads, inputs, input_dir: Path, run_dir: Path):
        self.workloads = workloads
        self.inputs = inputs
        self.input_dir = input_dir
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _cli(self, *args: str, traced: Path | None = None) -> list[str]:
        if traced is None:
            return [sys.executable, "-m", "iotlog.cli", *args]
        return [sys.executable, str(BENCH / "tracer.py"), str(traced), *args]

    def enrich(self, traced: Path | None = None) -> Child:
        child = Child(
            self._cli(
                "enrich",
                "--log", str(self.input_dir / "log.xes"),
                "--plan", self.inputs.plan,
                "--sensors", str(self.input_dir),
                "--out", str(self.out_dir),
                traced=traced,
            ),
            self.run_dir / "enrich",
        )
        problems = child.problems("enrich")
        if not problems:
            problems = self.workloads.check_enriched(self.inputs, self.out_dir)
            try:
                if json.loads(child.stdout).get("warnings"):
                    problems.append(f"enrich warned: {child.stdout[:300]}")
            except ValueError:
                problems.append(f"enrich printed no JSON: {child.stdout[:300]!r}")
        if not problems:
            digests = {
                name: sha256(self.out_dir / name) for name in ("enriched.xes", "report.json")
            }
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append(f"output digests changed between repeats: {digests}")
        self._record(problems)
        return child

    def query(self, traced: Path | None = None) -> Child:
        child = Child(
            self._cli(
                "query",
                "--log", str(self.out_dir / "enriched.xes"),
                "--query", self.inputs.query,
                traced=traced,
            ),
            self.run_dir / "query",
        )
        problems = child.problems("query") or self.workloads.check_query(self.inputs, child.stdout)
        self._record(problems)
        return child


def repeats(seconds: float):
    """Repeat indices until `seconds` have passed, and at least MIN_REPEATS of them."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_REPEATS or time.perf_counter() < deadline:
        yield n
        n += 1


def summary(values: list[float]) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }


def measure_end_to_end(session: Session, seconds: float) -> dict[str, list[float]]:
    samples = {"enrich_s": [], "query_s": [], "peak_rss_mb": []}
    for _ in repeats(seconds):
        enrich = session.enrich()
        query = session.query()
        samples["enrich_s"].append(enrich.wall_s)
        samples["peak_rss_mb"].append(enrich.peak_rss_mb)
        samples["query_s"].append(query.wall_s)
    return samples


def measure_layers(session: Session, tracer, seconds: float) -> dict[str, list[float]]:
    """Per repeat: one untraced enrich child, then a traced enrich and a traced query child."""
    samples: dict[str, list[float]] = {}
    untraced, traced = [], []
    for n in repeats(seconds):
        untraced.append(session.enrich().wall_s)
        enrich_dump = session.run_dir / f"spans-enrich-{n}.json"
        traced.append(session.enrich(traced=enrich_dump).wall_s)
        query_dump = session.run_dir / f"spans-query-{n}.json"
        session.query(traced=query_dump)
        try:
            layers = tracer.layer_metrics(
                json.loads(enrich_dump.read_text()), json.loads(query_dump.read_text())
            )
        except (OSError, ValueError) as exc:
            session.problems.append(f"unreadable trace dump: {exc}")
            continue
        layers["cli.audit_bytes"] = (session.out_dir / "audit.jsonl").stat().st_size
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    # Each traced child is paired with the untraced one just before it, so
    # a drift in machine speed between repeats cancels out.
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    samples["trace.enrich_untraced_s"] = untraced
    return samples


def build_inputs(workloads, name: str, seed: int, run_dir: Path, builds: int):
    """Build the inputs `builds` times; return them, their directory and the build times."""
    builder = workloads.BUILDERS[name]
    times, trees = [], []
    for n in range(builds):
        gc.collect()
        directory = run_dir / f"inputs-{n}"
        start = time.perf_counter()
        inputs = builder(seed, directory)
        times.append(time.perf_counter() - start)
        trees.append(tree_digest(directory))
        if n:
            shutil.rmtree(directory)
    gc.collect()
    return inputs, run_dir / "inputs-0", times, trees


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iotlog" / "cli.py").is_file():
        print(f"error: no iotlog sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iotlog
    import iotlog.cli  # noqa: F401  (writes the bytecode caches the children load)
    import tracer
    import workloads

    if Path(iotlog.__file__).resolve().parent != SRC / "iotlog":
        print(f"error: imported iotlog from {iotlog.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs, input_dir, setup_times, trees = build_inputs(
        workloads, args.workload, args.seed, run_dir, 1 if args.trace else SETUP_REPEATS
    )
    session = Session(workloads, inputs, input_dir, run_dir)
    if len(set(trees)) != 1:
        session.problems.append(f"builder wrote different files for one seed: {trees}")

    if args.trace:
        samples = measure_layers(session, tracer, args.seconds)
    else:
        samples = measure_end_to_end(session, args.seconds)
        samples["setup_s"] = setup_times
        samples["ops_ok"] = [1 - session.failed / session.attempted]
    values = {name: statistics.median(v) for name, v in samples.items()}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not session.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "plan": inputs.plan,
        "query": inputs.query,
        "shape": inputs.shape,
        "expected": {
            "matches": inputs.expected_matches,
            "traces": inputs.expected_traces,
            "derived_events": inputs.expected_derived,
        },
        "digests": {"inputs": trees[0], **(session.digests or {})},
        "samples": {name: summary(v) for name, v in samples.items()},
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in session.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} shape={json.dumps(inputs.shape)}")
    for name, metric in metrics.items():
        n = len(samples.get(name, ()))
        print(f"  {name:36} {metric['value']:>14.6g} {metric['unit']:6} (n={n})")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
