"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --inputs DIR
        [--out DIR] [--trace 0|1] [--cpu K] --result FILE

Times set-up (importing curriculum_lab and writing the workload's config
and input files), then, unless --out is omitted, the workload's CLI calls,
optionally under the span tracer. Writes the timings, each with its
`time.perf_counter` window (the parent converts them to reference seconds
with the probes it took meanwhile, see hostspeed.py), the CLI return codes,
the process's peak resident memory and the trace to FILE as JSON. With
--cpu the process runs on that CPU only.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started running worker.py.

    `ru_maxrss` would not do: Linux carries it across exec, so it reports the
    parent's size whenever the parent was the larger at the fork.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", default=None, help="omit to time set-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import curriculum_lab.cli
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed, Path(args.inputs))
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t0, "setup_window": [t0, t_setup],
              "program": curriculum_lab.__file__}

    if args.out is not None:
        tracer = None
        if args.trace:
            from perfbench.tracing import Tracer, install
            tracer = Tracer()
            result["patched"] = len(install(tracer))
        cli = sys.modules["curriculum_lab.cli"]
        commands = workload.commands(Path(args.inputs), Path(args.out))
        t1 = time.perf_counter()
        rcs, errors = [], []
        for argv in commands:
            try:
                rcs.append(cli.main(argv))
            except Exception:  # an uncaught program error is a failed command
                rcs.append(1)
                errors.append(traceback.format_exc())
        t_end = time.perf_counter()
        result["wall_s"] = t_end - t1
        result["wall_window"] = [t1, t_end]
        result["rcs"] = rcs
        result["errors"] = errors
        if tracer is not None:
            result["trace"] = tracer.to_json()
    result["peak_rss_mb"] = peak_rss_mb()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
