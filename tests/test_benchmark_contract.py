"""The package names the benchmark under perfbench/ relies on.

perfbench's workloads call `config.resolve_config`, `harness.resolve_dataset`,
`harness.run_experiment(...).models` and the theory's `LossTable`, `Prior`
and `decomposition_residual`, and its tracer wraps the methods named in
`perfbench.tracing.METHODS`. Renaming or moving any of them fails every run
of a workload, so these tests call them the way perfbench does.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from curriculum_lab.trainer import Model  # noqa: E402
from perfbench import checks, reference, tracing, workloads  # noqa: E402


def test_workload_training_helpers_run():
    assert workloads.train_split().N == workloads.N_TRAIN
    tree = {"dataset": {"synthetic": {"classes": 3, "dim": 4, "n_per_class": 30,
                                      "spread": 2.0, "seed": 11}},
            "batch_size": 10, "iterations": 20, "record_every": 10}
    assert isinstance(workloads.train_vanilla_model(tree, 3), Model)


def test_theory_workload_check_runs():
    from curriculum_lab.theory import LossTable, Prior, decomposition_residual
    for losses, p in reference.draw_theory_tables(0, 20):
        program = decomposition_residual(LossTable(losses), Prior(p))
        assert checks.check_residual(program, reference.direct_residual(losses, p)) == []


@pytest.mark.parametrize("layer,cls,method", [
    (layer, cls, method) for layer, classes in tracing.METHODS.items()
    for cls, methods in classes.items() for method in methods])
def test_traced_method_exists(layer, cls, method):
    owner = getattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"), cls)
    raw = inspect.getattr_static(owner, method)
    assert inspect.isfunction(raw) or isinstance(raw, classmethod)
