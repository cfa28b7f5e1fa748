"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. A run first times set-up several times, then
runs whole rounds of the workload, each in a fresh single-threaded worker
process, until about S seconds are spent (at least one round). Meanwhile the
parent probes the host's speed on the worker's CPU, and every timing is
reported in reference seconds (hostspeed.py). With
--trace 1 it runs one untraced and one traced round instead, and reports the
per-layer metrics of the traced one and the tracing overhead. Every run then
checks the program's outputs (outside the timed window), prints each metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 0 when every check passed, 1 when a check or a worker failed, and 2
when the program's sources are missing. Artifacts, logs, the trace and a
result file with the machine fingerprint are left in .perfbench_runs/NAME/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_runs"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUN_SECONDS = 20
SETUP_TRIALS = 4      # set-up-only workers per run, besides each round's own set-up
DEADLINE_S = 170      # every worker of a run must end by then

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. Timings
# are in reference seconds (hostspeed.py); their bounds stay wide because the
# conversion still leaves run-to-run spreads of 0.04-0.09 and set medians 10 %
# apart while raw host speed changes by up to 2x (README.md, "Host-speed probe").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_units_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


class RunFailed(Exception):
    pass


def benchmark_json() -> dict:
    from perfbench.tracing import PER_LAYER, RUN_MEASURED
    from perfbench.workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": m[0], "unit": m[1], "better": m[2]}
                      for m in PER_LAYER + RUN_MEASURED],
    }


def spawn(work: Path, workload: str, seed: int, result: Path, deadline: float,
          probe: HostProbe, out: Path | None = None, trace: int = 0) -> dict:
    """Run one worker process to its end, probing the host meanwhile, and
    return its result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--inputs", str(work / "inputs"), "--trace", str(trace),
           "--cpu", str(probe.cpu), "--result", str(result)]
    if out is not None:
        cmd += ["--out", str(out)]
    with open(work / "worker.log", "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=dict(os.environ, **THREAD_ENV))
        try:
            rc = probe.wait(proc, deadline)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if rc is None:
            raise RunFailed(f"worker for {workload} did not finish in time; see {log.name}")
    if rc != 0:
        raise RunFailed(f"worker for {workload} exited with {rc}; see {work / 'worker.log'}")
    return json.loads(result.read_text())


def to_reference(r: dict, probe: HostProbe) -> None:
    """Add a worker result's timings in reference seconds (see hostspeed.py)."""
    r["raw_setup_s"] = r.pop("setup_s")
    r["setup_s"] = probe.reference_seconds(*r["setup_window"])
    if "wall_window" in r:
        r["raw_wall_s"] = r.pop("wall_s")
        r["host_speed"] = probe.speed(*r["wall_window"])
        r["host_speed_by_kind"] = probe.speed_by_kind(*r["wall_window"])
        r["wall_s"] = probe.reference_seconds(*r["wall_window"])


def same_trees(a: Path, b: Path) -> list[str]:
    """Every artifact of a later round must equal the first round's byte for byte."""
    files = lambda root: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    if files(a) != files(b):
        return [f"{b.name} wrote other files than {a.name}"]
    return [f"{b.name}/{rel} differs from {a.name}/{rel}"
            for rel in files(a) if (a / rel).read_bytes() != (b / rel).read_bytes()]


def run_checks(workload, seed: int, work: Path, rounds: int) -> list[str]:
    import curriculum_lab.cli as cli
    scratch = work / "check"
    scratch.mkdir()
    with open(work / "check.log", "w") as log:
        def run_cli(argv: list[str]) -> None:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(argv)
            if rc != 0:
                raise RunFailed(f"check command {argv[0]} exited with {rc}")

        try:
            problems = workload.check(seed, work / "inputs", work / "round0", scratch, run_cli)
        except Exception as exc:  # a check that cannot complete is a failed check
            problems = [f"check raised {exc!r}"]
    for k in range(1, rounds):
        problems += same_trees(work / "round0", work / f"round{k}")
    return problems


def run(workload, seed: int, seconds: int, trace: int) -> dict:
    from perfbench.fingerprint import fingerprint
    from perfbench.hostspeed import HostProbe
    from perfbench.tracing import per_layer_metrics

    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = fingerprint(ROOT)
    # the parent probes the host on the CPU its workers run on
    probe = HostProbe()
    os.sched_setaffinity(0, {probe.cpu})
    setups = []
    for i in range(SETUP_TRIALS):
        setups.append(spawn(work, workload.name, seed, work / f"setup{i}.json", deadline, probe))
        to_reference(setups[-1], probe)

    rounds = []
    t0 = time.perf_counter()
    while True:
        k = len(rounds)
        t = time.perf_counter()
        rounds.append(spawn(work, workload.name, seed, work / f"round{k}.json", deadline,
                            probe, out=work / f"round{k}", trace=int(trace and k == 1)))
        rounds[-1]["duration_s"] = time.perf_counter() - t
        to_reference(rounds[-1], probe)
        if trace:
            if k == 1:
                break
        elif (time.perf_counter() - t0
              + statistics.median(r["duration_s"] for r in rounds)) > seconds:
            break
    setups = [r["setup_s"] for r in setups + rounds]
    errors = [e for r in rounds for e in r["errors"]]
    problems = run_checks(workload, seed, work, len(rounds))

    attempted = failed = 0
    for k, r in enumerate(rounds):
        a, f = workload.operations(work / f"round{k}", r["rcs"])
        attempted, failed = attempted + a, failed + f

    untraced = rounds[:1] if trace else rounds
    wall = statistics.median(r["wall_s"] for r in untraced)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_units_per_s": (workload.work_units() / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }
    per_layer = {}
    if trace:
        per_layer = per_layer_metrics(rounds[1]["trace"])
        written = sum(p.stat().st_size for p in (work / "round1").rglob("*") if p.is_file())
        per_layer["cli.artifact_bytes"] = (float(written), "bytes")
        per_layer["trace.overhead_s"] = (rounds[1]["wall_s"] - rounds[0]["wall_s"], "s")
        (work / "trace.json").write_text(json.dumps(rounds[1].pop("trace"), indent=1))

    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": machine, "probe_cpu": probe.cpu,
        "probe_samples": {k: len(v) for k, v in probe.samples.items()},
        "probe_median_s": probe.median_probe_s(),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in untraced),
        "host_speed": statistics.median(r["host_speed"] for r in untraced),
        "setup_samples_s": setups,
        "rounds": rounds, "problems": problems, "errors": errors,
        "attempted": attempted, "failed": failed,
        "sgd_steps": workload.sgd_steps(), "work_units": workload.work_units(),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    (work / "result.json").write_text(json.dumps(report, indent=1, default=str))
    return report


def print_report(report: dict) -> None:
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for error in report["errors"]:
        print(error, file=sys.stderr)
    name = report["workload"]
    rows = dict(report["end_to_end"])
    # the same timings as measured, before conversion to reference seconds
    rows["raw_wall_s"] = (report["raw_wall_s"], "s")
    rows["host_speed"] = (report["host_speed"], "ratio")
    # the throughput under its own name: SGD steps on the training workloads,
    # theory instances plus constant-variance families on theory_verify
    alias = "sgd_steps_per_s" if report["sgd_steps"] else "theory_instances_per_s"
    rows[alias] = rows["work_units_per_s"]
    rows.update(report["per_layer"])
    for metric, (value, unit) in rows.items():
        print(f"{name:18s} {metric:52s} {value:16.6f} {unit}")
    print(f"{name:18s} rounds {len(report['rounds'])}, operations {report['attempted']} "
          f"attempted, {report['failed']} failed, checks "
          f"{'passed' if not report['problems'] else 'FAILED'}")
    print(f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "curriculum_lab" / "__init__.py").is_file():
        print(f"error: no curriculum_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    return 0 if not report["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
