"""Span tracing of curriculum_lab from outside the program.

`install` wraps every public module-level function of the package, plus a few
hot methods, and rebinds the wrapper under every module-global name that
refers to the original. Callers look functions up by those names at call
time (``trainer.minibatch_at``, ``harness.train``), so each call passes
through a wrapper without any change to the program.

Spans are aggregated in memory per (name, parent) edge as call count,
inclusive time and self time; a benchmark run of ~10^6 spans stays small.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "curriculum_lab"
LAYERS = ("data", "config", "scoring", "pacing", "sequencer", "trainer",
          "gradient_analysis", "theory", "harness", "cli")

# public methods worth a span; other methods (array lookups, properties) are
# too fine-grained and would mostly measure the tracer itself
METHODS = {
    "data": {"BayesMixture": ("log_posteriors",)},
    "trainer": {"Model": ("initialize", "loss_and_grad", "example_losses",
                          "per_example_grads"),
                "LearningCurve": ("to_csv",)},
}

ROOT_SPAN = "<root>"


class Tracer:
    def __init__(self):
        self._stack = [ROOT_SPAN]
        self._child_ns = [0]
        # (name, parent) -> [calls, inclusive ns, self ns]
        self.edges: dict[tuple[str, str], list[int]] = {}
        # name -> largest nbytes of a result array seen (see `result_bytes`)
        self.max_result_bytes: dict[str, int] = {}

    def wrap(self, name: str, fn, result_bytes=None):
        stack, child_ns, edges = self._stack, self._child_ns, self.edges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                inner = child_ns.pop()
                child_ns[-1] += dt
                edge = edges.get((name, parent))
                if edge is None:
                    edges[(name, parent)] = [1, dt, dt - inner]
                else:
                    edge[0] += 1
                    edge[1] += dt
                    edge[2] += dt - inner
            if result_bytes is not None:
                self.max_result_bytes[name] = max(
                    self.max_result_bytes.get(name, 0), result_bytes(result))
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "edges": [{"name": n, "parent": p, "calls": c, "ns": t, "self_ns": s}
                      for (n, p), (c, t, s) in sorted(self.edges.items())],
            "max_result_bytes": dict(sorted(self.max_result_bytes.items())),
        }


# result sizes recorded for per-layer metrics computed from array sizes
RESULT_BYTES = {
    "gradient_analysis.per_example_gradients": lambda gs: int(gs.grads.nbytes),
}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the package's public functions and listed methods.

    Returns the patches as (owner, attribute, original) for `uninstall`.
    """
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, RESULT_BYTES.get(name))
    patches = []
    for mod in list(modules.values()) + [importlib.import_module(PACKAGE)]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                raw = inspect.getattr_static(cls, meth)
                name = f"{layer}.{cls_name}.{meth}"
                patches.append((cls, meth, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(name, raw))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------

class Spans:
    """Queries over a trace's (name, parent) edges."""

    def __init__(self, trace: dict):
        self.edges = trace["edges"]
        self.max_result_bytes = trace["max_result_bytes"]

    def _sum(self, field: str, name: str, parent: str | None) -> int:
        return sum(e[field] for e in self.edges
                   if e["name"] == name and (parent is None or e["parent"] == parent))

    def calls(self, name: str, parent: str | None = None) -> int:
        return self._sum("calls", name, parent)

    def seconds(self, name: str, parent: str | None = None) -> float:
        return self._sum("ns", name, parent) / 1e9

    def self_seconds(self, name: str) -> float:
        return self._sum("self_ns", name, None) / 1e9

    def per_call(self, name: str, scale: float, parent: str | None = None) -> float:
        calls = self.calls(name, parent)
        return self.seconds(name, parent) * scale / calls if calls else 0.0

    def layer_self_seconds(self, layer: str) -> float:
        return sum(e["self_ns"] for e in self.edges if e["name"].startswith(layer + ".")) / 1e9


US, MS = 1e6, 1e3
LOSS_AND_GRAD = "trainer.Model.loss_and_grad"

# (metric, unit, better, value from Spans); the end-to-end metric each should
# move is listed in README.md
PER_LAYER = [
    ("sequencer.minibatch_at.us_per_call", "us", "lower",
     lambda s: s.per_call("sequencer.minibatch_at", US)),
    ("sequencer.minibatch_at.calls", "count", "lower", lambda s: s.calls("sequencer.minibatch_at")),
    ("sequencer.balanced_prefix.us_per_call", "us", "lower",
     lambda s: s.per_call("sequencer.balanced_prefix", US)),
    ("sequencer.balanced_prefix.calls", "count", "lower",
     lambda s: s.calls("sequencer.balanced_prefix")),
    ("pacing.subset_size.us_per_call", "us", "lower", lambda s: s.per_call("pacing.subset_size", US)),
    ("pacing.subset_size.calls", "count", "lower", lambda s: s.calls("pacing.subset_size")),
    ("trainer.loss_and_grad.sgd_us_per_call", "us", "lower",
     lambda s: s.per_call(LOSS_AND_GRAD, US, "trainer.train")),
    ("trainer.loss_and_grad.sgd_calls", "count", "lower",
     lambda s: s.calls(LOSS_AND_GRAD, "trainer.train")),
    ("trainer.loss_and_grad.probe_us_per_call", "us", "lower",
     lambda s: s.per_call(LOSS_AND_GRAD, US, "scoring.transfer_score")),
    ("trainer.loss_and_grad.probe_calls", "count", "lower",
     lambda s: s.calls(LOSS_AND_GRAD, "scoring.transfer_score")),
    ("trainer.evaluate.us_per_call", "us", "lower", lambda s: s.per_call("trainer.evaluate", US)),
    ("trainer.evaluate.calls", "count", "lower", lambda s: s.calls("trainer.evaluate")),
    ("trainer.train.self_us_per_step", "us", "lower",
     lambda s: (s.self_seconds("trainer.train") * US / s.calls(LOSS_AND_GRAD, "trainer.train")
                if s.calls(LOSS_AND_GRAD, "trainer.train") else 0.0)),
    ("trainer.train.calls", "count", "lower", lambda s: s.calls("trainer.train")),
    ("trainer.example_losses.s", "s", "lower", lambda s: s.seconds("trainer.Model.example_losses")),
    ("trainer.example_losses.rescore_s", "s", "lower",
     lambda s: s.seconds("trainer.Model.example_losses", "sequencer.self_paced_rescore_hook")),
    ("scoring.transfer_score.s", "s", "lower", lambda s: s.seconds("scoring.transfer_score")),
    ("data.load_embeddings_csv.s", "s", "lower", lambda s: s.seconds("data.load_embeddings_csv")),
    ("scoring.self_taught_score.calls", "count", "lower",
     lambda s: s.calls("scoring.self_taught_score")),
    ("scoring.self_taught_score.s", "s", "lower", lambda s: s.seconds("scoring.self_taught_score")),
    ("harness.run_experiment.calls", "count", "lower", lambda s: s.calls("harness.run_experiment")),
    ("harness.run_experiment.self_s", "s", "lower",
     lambda s: s.self_seconds("harness.run_experiment")),
    ("config.resolve_config.calls", "count", "lower", lambda s: s.calls("config.resolve_config")),
    ("sequencer.build_plan.s", "s", "lower", lambda s: s.seconds("sequencer.build_plan")),
    ("data.stratified_split.s", "s", "lower", lambda s: s.seconds("data.stratified_split")),
    ("sequencer.self_paced_rescore_hook.calls", "count", "lower",
     lambda s: s.calls("sequencer.self_paced_rescore_hook")),
    ("sequencer.self_paced_rescore_hook.ms_per_call", "ms", "lower",
     lambda s: s.per_call("sequencer.self_paced_rescore_hook", MS)),
    ("gradient_analysis.coherence_report.s", "s", "lower",
     lambda s: s.seconds("gradient_analysis.coherence_report")),
    ("gradient_analysis.per_example_gradients.s", "s", "lower",
     lambda s: s.seconds("gradient_analysis.per_example_gradients")),
    ("gradient_analysis.grad_matrix_mb", "MB", "lower",
     lambda s: s.max_result_bytes.get("gradient_analysis.per_example_gradients", 0) / 2 ** 20),
    ("theory.decomposition_residual.us_per_call", "us", "lower",
     lambda s: s.per_call("theory.decomposition_residual", US)),
    ("theory.check_argmax_preservation.us_per_call", "us", "lower",
     lambda s: s.per_call("theory.check_argmax_preservation", US)),
    ("theory.check_ideal_prior_amplification.us_per_call", "us", "lower",
     lambda s: s.per_call("theory.check_ideal_prior_amplification", US)),
    ("theory.run_verification.s", "s", "lower", lambda s: s.seconds("theory.run_verification")),
    ("data.generate_gaussian_mixture.calls", "count", "lower",
     lambda s: s.calls("data.generate_gaussian_mixture")),
    ("data.generate_gaussian_mixture.s", "s", "lower",
     lambda s: s.seconds("data.generate_gaussian_mixture")),
    ("scoring.oracle_bayes_score.s", "s", "lower", lambda s: s.seconds("scoring.oracle_bayes_score")),
    ("cli.main.self_s", "s", "lower", lambda s: s.self_seconds("cli.main")),
] + [(f"layer.{layer}.self_s", "s", "lower",
      lambda s, layer=layer: s.layer_self_seconds(layer)) for layer in LAYERS]

# per-layer metrics measured by the run itself rather than read from spans
RUN_MEASURED = [
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    spans = Spans(trace)
    return {name: (float(fn(spans)), unit) for name, unit, _better, fn in PER_LAYER}
