"""Host-speed probe: times on a shared host, converted to reference seconds.

The reference host is a shared VM whose speed changes by up to 2x from one
minute to the next, with CPU time equal to wall time: other tenants slow the
CPU, not its share of time. A long CLI call averages that drift only partly,
so raw timings of the same code spread by 15-30 % between runs.

The benchmark therefore pins each worker and the parent to one CPU and,
while the worker runs, has the parent wake every `INTERVAL_S` and time one
short probe on that same CPU, in its own CPU time. Two kinds of probe take
turns: a pure-Python integer loop (the interpreter's speed) and random reads
from a table of 200 000 ints (the caches' speed, which other tenants change
most). A probe of kind k that takes `d` seconds says the host ran at
`REF_S[k] / d` of its reference speed for that kind. The host's speed over a
window is the geometric mean over the two kinds of
`REF_S[k] / harmonic_mean(d of kind k in the window)`, and a
timed window of length T is reported as T * speed: the time the same work
would take on the host at its reference speed. The program never enters a
probe, so a faster program gives a proportionally smaller figure; the probes
take the CPU for about 3 % of each interval, in every run alike.
"""
from __future__ import annotations

import math
import os
import random
import statistics
import time

INTERVAL_S = 0.025     # sleep between probes while a worker runs
TABLE = 200_000        # ints in the probed table (about 7 MB with the int objects)
READS = 2_000          # random reads per cache probe
ADDS = 8_000           # additions per interpreter probe
# CPU seconds of one probe of each kind at the reference speed: the typical
# probe on the host of the reference figures in README.md (a shared 2-vCPU
# KVM guest)
REF_S = {"interpreter": 0.0005, "cache": 0.0010}


class HostProbe:
    def __init__(self):
        # the CPU the parent and its workers share
        self.cpu = min(os.sched_getaffinity(0))
        rng = random.Random(20312)
        self._table = list(range(TABLE))
        self._reads = [rng.randrange(TABLE) for _ in range(READS)]
        self._kinds = [("interpreter", self._interpreter), ("cache", self._cache)]
        # kind -> [(perf_counter at the probe's start, its CPU seconds)]
        self.samples: dict[str, list[tuple[float, float]]] = {k: [] for k, _ in self._kinds}
        self._turn = 0

    def _interpreter(self) -> None:
        s = 0
        for i in range(ADDS):
            s += i

    def _cache(self) -> None:
        table, s = self._table, 0
        for i in self._reads:
            s += table[i]

    def sample(self) -> None:
        kind, probe = self._kinds[self._turn % len(self._kinds)]
        self._turn += 1
        t, c = time.perf_counter(), time.thread_time()
        probe()
        self.samples[kind].append((t, time.thread_time() - c))

    def wait(self, proc, deadline: float) -> int | None:
        """Probe until `proc` ends; None if it is still running at `deadline`."""
        while proc.poll() is None:
            if time.perf_counter() > deadline:
                return None
            time.sleep(INTERVAL_S)
            self.sample()
        return proc.returncode

    def speed_by_kind(self, start: float, end: float) -> dict[str, float]:
        """Host speed over [start, end] per probe kind, as a share of the reference."""
        speeds = {}
        for kind, samples in self.samples.items():
            inside = [d for t, d in samples if start <= t <= end]
            if not inside:  # a window shorter than a turn: the probes nearest to it
                near = sorted(samples, key=lambda s: abs(s[0] - start))[:2]
                inside = [d for _, d in near]
            speeds[kind] = REF_S[kind] / statistics.harmonic_mean(inside)
        return speeds

    def speed(self, start: float, end: float) -> float:
        """Host speed over [start, end] as a share of the reference speed."""
        speeds = self.speed_by_kind(start, end).values()
        return math.exp(statistics.fmean(math.log(v) for v in speeds))

    def reference_seconds(self, start: float, end: float) -> float:
        """The window's length at the reference host speed."""
        return (end - start) * self.speed(start, end)

    def median_probe_s(self) -> dict[str, float]:
        return {k: statistics.median(d for _, d in s) for k, s in self.samples.items() if s}
