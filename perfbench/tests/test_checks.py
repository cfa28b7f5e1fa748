"""The benchmark's correctness checks, on shrunken workloads that run in
seconds: each check passes on the program's real artifacts and fails once an
artifact is deliberately corrupted.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from curriculum_lab import cli
from perfbench import checks, hostspeed, tracing
from perfbench.run import ROOT, benchmark_json
from perfbench.workloads import AcceptancePair, MlpTransfer, SelfTaughtGrid, TheoryVerify


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def run_workload(workload, seed, tmp: Path):
    inputs, out, scratch = tmp / "inputs", tmp / "out", tmp / "scratch"
    scratch.mkdir(parents=True)
    workload.setup(seed, inputs)
    for argv in workload.commands(inputs, out):
        run_cli(argv)
    check = lambda: workload.check(seed, inputs, out, scratch, run_cli)
    return out, check


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def test_changed_byte_in_curve_csv_fails(tmp_path):
    workload = AcceptancePair(repetitions=2, iterations=300)
    out, check = run_workload(workload, 0, tmp_path)
    assert check() == []
    curve = out / "curriculum" / "curve_curriculum_seed1.csv"
    lines = curve.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[1] = fields[1][:-2] + ("1" if fields[1][-2] != "1" else "2") + fields[1][-1]
    lines[3] = ",".join(fields)
    curve.write_text("".join(lines))
    problems = check()
    assert any("byte-identical" in p for p in problems), problems


def test_wrong_subset_size_fails():
    curve = {"iteration": [0, 50, 99], "subset_size": [250, 250, 250], "lr": [1.2, 1.2, 1.2]}
    pacing = {"starting_percent": "0.1", "increase": "1.9", "step_length": 50}
    lr = {"lr0": "1.2", "decrease_factor": "1.32", "lr_step_length": 300}
    assert checks.check_curve_schedule(curve, pacing, lr, 2500, 100, 50, "c") == \
        ["c: subset_size wrong at iterations [50, 99]"]
    assert checks.staircase_size(100, pacing, 2500) == 903  # 902.5 rounds half up


def test_perturbed_total_variance_fails(tmp_path):
    workload = MlpTransfer(repetitions=1, iterations=200, hidden=8)
    out, check = run_workload(workload, 0, tmp_path)
    assert check() == []
    report = out / "gradients" / "gradient_report.json"
    edit_json(report, lambda r: r["per_seed"]["0"]["total_variance"].update(
        random=r["per_seed"]["0"]["total_variance"]["random"] * (1 + 1e-7)))
    problems = check()
    assert any("total variance (random)" in p for p in problems), problems


def test_dropped_grid_cell_fails(tmp_path):
    workload = SelfTaughtGrid(repetitions=1, iterations=200)
    out, check = run_workload(workload, 0, tmp_path)
    assert check() == []
    edit_json(out / "grid" / "grid_audit.json", lambda a: a["entries"].pop(2))
    problems = check()
    assert any("audit entries per stage" in p for p in problems), problems


def test_changed_theory_residual_fails(tmp_path):
    workload = TheoryVerify(instances=50, families=10)
    out, check = run_workload(workload, 0, tmp_path)
    assert check() == []
    edit_json(out / "theory" / "theory_report.json",
              lambda r: r.update(max_decomposition_residual=1e-9))
    assert any("decomposition residual" in p for p in check())
    assert checks.check_residual(2e-12, 0.0) != []
    assert checks.check_residual(1e-16, 0.0) == []


def test_tracer_counts_every_step(tmp_path):
    tracer = tracing.Tracer()
    workload = AcceptancePair(repetitions=1, iterations=120)
    patches = tracing.install(tracer)
    try:
        run_workload(workload, 0, tmp_path)
    finally:
        tracing.uninstall(patches)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")
    metrics = tracing.per_layer_metrics(tracer.to_json())
    assert metrics["trainer.loss_and_grad.sgd_calls"][0] == 2 * 120
    assert metrics["sequencer.minibatch_at.calls"][0] == 2 * 120
    assert metrics["trainer.train.calls"][0] == 2
    assert metrics["harness.run_experiment.calls"][0] == 2
    assert {name for name, *_ in tracing.PER_LAYER} == set(metrics)


def test_benchmark_json_matches_the_code():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_json()


def test_host_probe_scales_windows_to_reference_speed():
    probe = hostspeed.HostProbe()
    for kind, ref in hostspeed.REF_S.items():
        probe.samples[kind] = [(0.5, ref), (1.5, ref), (10.5, 2 * ref), (11.5, 2 * ref),
                               (12.5, ref)]
    assert probe.reference_seconds(0.0, 2.0) == pytest.approx(2.0)
    assert probe.reference_seconds(10.0, 12.0) == pytest.approx(1.0)
    # the harmonic mean weights each probe's speed, not its duration
    assert probe.speed(10.0, 13.0) == pytest.approx((0.5 + 0.5 + 1.0) / 3)
    # the kinds combine by their geometric mean
    probe.samples["cache"] = [(0.5, hostspeed.REF_S["cache"] / 4)]
    assert probe.speed(0.0, 2.0) == pytest.approx(2.0)
    for _ in range(2):
        probe.sample()
    assert [len(s) for s in probe.samples.values()] == [6, 2]
    assert all(s[-1][1] > 0 for s in probe.samples.values())
