"""Experiment orchestration: conditions, repetitions, grid search, bootstrap.

Every run is a pure function of its resolved config; summaries embed the
config, so any output artifact can be regenerated byte-for-byte from its
manifest.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, pacing_spec_for, resolve_config
from .data import Dataset, EmbeddingTable, generate_gaussian_mixture, \
    load_dataset_csv, load_bayes_json, load_embeddings_csv, stratified_split, \
    select_examples, stratified_split_ids
from .errors import ConfigError, ExperimentError, TrainingDivergedError
from .gradient_analysis import coherence_report
from .pacing import PacingSpec, saturation_iteration
from .scoring import ScoreTable, invert, load_scores_csv, oracle_bayes_score, \
    random_score, score_by_model_loss, self_taught_score, transfer_score
from .seeding import BATCH, INIT, SCORE, SPLIT, SUBSET, derived_seed
from .sequencer import balanced_prefix, build_plan, self_paced_rescore_hook
from .trainer import LearningCurve, Model, train_stack


# Reference desk-scale dataset: 5 heavily overlapping Gaussian classes. The
# spread was calibrated by sweeping it against the vanilla trainer's final
# accuracy (target window 0.4..0.7; lands near 0.48 with the default
# schedule below).
ACCEPTANCE_DATASET = {
    "classes": 5,
    "dim": 16,
    "n_per_class": 600,
    "spread": 4.5,
    "seed": 20312,
}
ACCEPTANCE_TRAIN_FRACTION = 5.0 / 6.0
ACCEPTANCE_SPLIT_SEED = 7

# the conditions that order their plan by the configured score table; the
# others start from a seeded random permutation and never build the table
SCORED_CONDITIONS = ("curriculum", "anti")


def default_acceptance_tree(condition: str = "curriculum", **overrides) -> dict:
    """The calibrated desk-scale experiment config used by the acceptance suite.

    The hot initial learning rate is deliberate: uniform sampling is noisy at
    lr0 while the easiest prefix trains cleanly, which is what separates the
    conditions early on.
    """
    tree = {
        "dataset": {
            "synthetic": dict(ACCEPTANCE_DATASET),
            "train_fraction": ACCEPTANCE_TRAIN_FRACTION,
            "split_seed": ACCEPTANCE_SPLIT_SEED,
        },
        "condition": condition,
        "scoring": {"kind": "oracle"},
        "pacing": {"variant": "fixed_exp", "starting_percent": 0.1,
                   "increase": 1.9, "step_length": 200},
        "lr": {"variant": "exponential", "lr0": 1.2, "decrease_factor": 1.32,
               "lr_step_length": 300},
        "model": {"architecture": "linear_softmax"},
        "batch_size": 100,
        "iterations": 3000,
        "record_every": 50,
    }
    tree.update(overrides)
    return tree


def resolve_dataset(config: ExperimentConfig) -> tuple[Dataset, Dataset, EmbeddingTable | None]:
    """Materialize (train, test, embeddings) from the config's dataset section."""
    ds_cfg = config.tree.get("dataset", {})
    emb = None
    if "synthetic" in ds_cfg:
        syn = ds_cfg["synthetic"]
        full = generate_gaussian_mixture(
            K=int(syn["classes"]), d=int(syn["dim"]),
            n_per_class=int(syn["n_per_class"]), spread=float(syn["spread"]),
            seed=int(syn["seed"]))
        fraction = float(ds_cfg.get("train_fraction", ACCEPTANCE_TRAIN_FRACTION))
        split_seed = int(ds_cfg.get("split_seed", 0))
        train_ds, test_ds = stratified_split(full, fraction, split_seed)
    else:
        if "train_csv" not in ds_cfg or "test_csv" not in ds_cfg:
            raise ConfigError("dataset needs either a synthetic section or train_csv/test_csv")
        train_ds = load_dataset_csv(ds_cfg["train_csv"])
        test_ds = load_dataset_csv(ds_cfg["test_csv"])
        if "bayes_json" in ds_cfg:
            bayes = load_bayes_json(ds_cfg["bayes_json"])
            train_ds = Dataset(X=train_ds.X, y=train_ds.y, K=train_ds.K, bayes=bayes)
            test_ds = Dataset(X=test_ds.X, y=test_ds.y, K=test_ds.K, bayes=bayes)
    if "embeddings_csv" in ds_cfg:
        emb = load_embeddings_csv(ds_cfg["embeddings_csv"])
    return train_ds, test_ds, emb


def make_score_provider(config: ExperimentConfig, train_ds: Dataset,
                        emb: EmbeddingTable | None):
    """seeds -> one ScoreTable per seed for the configured scoring function.

    Fixed constructions (oracle, transfer, file) are computed once and shared
    across repetitions; self-taught scoring trains one vanilla model per
    repetition seed, all seeds in one stack.

    A provider may put an `ExperimentError` in place of a seed's table; the
    harness then records that seed as failed with the error as its warning.
    """
    kind = config.scoring_kind
    if kind == "oracle":
        table = oracle_bayes_score(train_ds)
        return lambda seeds: [table] * len(seeds)
    if kind == "file":
        table = load_scores_csv(config.scoring_path)
        if len(table) != train_ds.N:
            raise ConfigError(
                f"score file covers {len(table)} ids, training set has {train_ds.N}")
        return lambda seeds: [table] * len(seeds)
    if kind == "transfer":
        if emb is None:
            raise ConfigError("scoring.kind=transfer requires dataset.embeddings_csv")
        base = int(config.tree.get("seed", config.seeds[0]))
        table = transfer_score(train_ds, emb, config.scoring_folds,
                               seed=derived_seed(base, SCORE))
        return lambda seeds: [table] * len(seeds)
    return lambda seeds: self_taught_score(train_ds, config, seeds)


@dataclass
class ExperimentResult:
    summary: dict
    curves: dict[int, LearningCurve] = field(default_factory=dict)
    models: dict[int, Model] = field(default_factory=dict)

    def summary_json(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2) + "\n"


def _final_accuracy(curve: LearningCurve, window: int) -> float:
    return float(curve.test_acc[-min(window, len(curve.test_acc)):].mean())


def _auc(curve: LearningCurve) -> float:
    return float(np.trapezoid(curve.test_acc, curve.iterations))


def _ste(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


@dataclass
class _Run:
    """One condition's plans, before training: the seeds to stack, their
    plans, and what is already known of the run (warnings, failed seeds)."""
    config: ExperimentConfig
    warnings: list[str]
    failures: dict[int, str]
    seeds: list[int]
    plans: list


def _plan_run(config: ExperimentConfig, train_ds: Dataset, score_provider) -> _Run:
    """Build one plan per repetition seed whose score table the provider made."""
    warnings: list[str] = []
    pacing = pacing_spec_for(config, train_ds.N)
    sat = saturation_iteration(pacing)
    if sat >= config.iterations:
        warnings.append(
            f"pacing saturates at iteration {sat}, beyond the horizon M={config.iterations}; "
            "training never reaches the full dataset")
    if config.repetitions == 1:
        warnings.append("single repetition: STE is reported as 0")
    run = _Run(config, warnings, {}, [], [])
    tables = _condition_scores(config, train_ds, score_provider)
    # a table shared by every seed names its warnings once
    warnings += list(dict.fromkeys(
        w for t in tables if isinstance(t, ScoreTable) for w in t.warnings))
    for seed, table in zip(config.seeds, tables):
        if isinstance(table, ExperimentError):
            run.failures[seed] = str(table)
            continue
        run.seeds.append(seed)
        run.plans.append(build_plan(train_ds, table, pacing, config.batch_size,
                                    seed=derived_seed(seed, BATCH)))
    return run


def _train_runs(train_ds: Dataset, test_ds: Dataset, runs: list[_Run]) -> list[list]:
    """Train every seed of every run as one stack; one outcome list per run.
    The runs share the model, the iteration count and `record_every`."""
    rows = [(run, seed, plan) for run in runs for seed, plan in zip(run.seeds, run.plans)]
    config = runs[0].config
    outcomes = iter(train_stack(
        train_ds, test_ds, [plan for _run, _seed, plan in rows],
        [run.config.schedule for run, _seed, _plan in rows], config.model_spec,
        [derived_seed(seed, INIT) for _run, seed, _plan in rows],
        record_every=config.record_every,
        boundary_hooks=[self_paced_rescore_hook if run.config.condition == "self_paced"
                        else None for run, _seed, _plan in rows]))
    return [[next(outcomes) for _ in run.seeds] for run in runs]


def _summarise(run: _Run, outcomes: list, keep_models: bool = True,
               out_dir=None) -> ExperimentResult:
    """Aggregate a run's outcomes into its summary; raises `ExperimentError`
    when at least half of the repetitions failed."""
    config, failures = run.config, dict(run.failures)
    result = ExperimentResult(summary={})
    for seed, outcome in zip(run.seeds, outcomes):
        if isinstance(outcome, TrainingDivergedError):
            failures[seed] = f"seed {seed} diverged at iteration {outcome.iteration}"
            continue
        model, result.curves[seed] = outcome
        if keep_models:
            result.models[seed] = model
    failed = [seed for seed in config.seeds if seed in failures]
    warnings = run.warnings + [failures[seed] for seed in failed]

    if 2 * len(failed) >= config.repetitions:
        raise ExperimentError(
            f"{len(failed)} of {config.repetitions} repetitions failed (seeds {failed})")

    ok_seeds = [s for s in config.seeds if s not in failed]
    finals = [_final_accuracy(result.curves[s], config.window) for s in ok_seeds]
    aucs = [_auc(result.curves[s]) for s in ok_seeds]
    first = result.curves[ok_seeds[0]]
    mean_acc = np.mean([result.curves[s].test_acc for s in ok_seeds], axis=0)
    mean_loss = np.mean([result.curves[s].train_loss for s in ok_seeds], axis=0)
    result.summary = {
        "config": config.tree,
        "condition": config.condition,
        "seeds": list(config.seeds),
        "failed_seeds": failed,
        "warnings": warnings,
        "checkpoints": first.iterations.tolist(),
        "mean_curve": {"test_acc": mean_acc.tolist(), "train_loss": mean_loss.tolist()},
        "per_seed": {
            "final_accuracy": {str(s): f for s, f in zip(ok_seeds, finals)},
            "auc": {str(s): a for s, a in zip(ok_seeds, aucs)},
        },
        "final_accuracy_mean": float(np.mean(finals)),
        "final_accuracy_ste": _ste(finals),
        "auc_mean": float(np.mean(aucs)),
        "auc_ste": _ste(aucs),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for s in ok_seeds:
            result.curves[s].to_csv(out / f"curve_{config.condition}_seed{s}.csv")
        (out / "summary.json").write_text(result.summary_json())
    return result


def run_experiment(config: ExperimentConfig, out_dir=None,
                   dataset: tuple[Dataset, Dataset] | None = None,
                   score_provider=None, keep_models: bool = True) -> ExperimentResult:
    """Run one condition over all repetition seeds, trained as one stack, and
    aggregate a summary.

    A repetition that diverges, or whose score table the provider could not
    make, is recorded as failed; the experiment errors out only when at
    least half of the repetitions fail. With `out_dir` set, per-seed
    learning-curve CSVs and summary.json are written there.
    """
    if dataset is None:
        train_ds, test_ds, emb = resolve_dataset(config)
    else:
        train_ds, test_ds = dataset
        emb = None
    if score_provider is None and config.condition in SCORED_CONDITIONS:
        score_provider = make_score_provider(config, train_ds, emb)
    run = _plan_run(config, train_ds, score_provider)
    (outcomes,) = _train_runs(train_ds, test_ds, [run])
    return _summarise(run, outcomes, keep_models, out_dir)


def _condition_scores(config: ExperimentConfig, train_ds: Dataset,
                      score_provider) -> list:
    """One table (or the provider's `ExperimentError`) per repetition seed."""
    cond = config.condition
    if cond == "curriculum":
        return score_provider(list(config.seeds))
    if cond == "anti":
        return [t if isinstance(t, ExperimentError) else invert(t)
                for t in score_provider(list(config.seeds))]
    # random, vanilla, self_paced: the initial table is a seeded random
    # permutation (self_paced replaces it at the first boundary anyway)
    return [random_score(train_ds, derived_seed(seed, SCORE)) for seed in config.seeds]


# ---------------------------------------------------------------------------
# Two-stage grid search
# ---------------------------------------------------------------------------

def _criterion_value(summary: dict, criterion: str) -> float:
    return summary["final_accuracy_mean"] if criterion == "final_accuracy" \
        else summary["auc_mean"]


def _with_params(config: ExperimentConfig, pacing_params: dict, lr_params: dict) -> ExperimentConfig:
    tree = {key: value for key, value in config.tree.items() if key != "grid"}
    tree["pacing"] = {**tree["pacing"], **pacing_params}
    tree["lr"] = {**tree["lr"], **lr_params}
    return resolve_config(tree)


def _cells(axes: dict[str, list]) -> list[dict]:
    if not axes:
        return [{}]
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in product(*(axes[n] for n in names))]


def refine_lr_grid(lr_axes: dict[str, list], target: int) -> dict[str, list]:
    """Expand the initial-LR axis so the total cell count approaches `target`.

    Used for the vanilla condition, which has no pacing axes: its one-stage
    search gets a finer learning-rate grid of about the same total size as
    the curriculum condition's two stages.
    """
    axes = {k: list(v) for k, v in lr_axes.items()}
    lr0 = axes.get("lr0", [0.1])
    others = 1
    for k, v in axes.items():
        if k != "lr0":
            others *= len(v)
    n = max(1, round(target / others))
    lo, hi = min(lr0), max(lr0)
    if n == 1:
        axes["lr0"] = [lo]
    elif hi > lo:
        axes["lr0"] = [float(v) for v in np.geomspace(lo, hi, n)]
    else:
        # degenerate single-value axis: spread half an octave around it
        axes["lr0"] = [float(v) for v in np.geomspace(lo / 1.5, lo * 1.5, n)]
    return axes


def _scorer_key(config: ExperimentConfig) -> tuple:
    """The config fields the configured scorer reads."""
    kind = config.scoring_kind
    if kind == "self_taught":
        return (kind, config.model_spec, config.schedule, config.batch_size, config.iterations)
    if kind == "transfer":
        return (kind, config.scoring_folds, int(config.tree.get("seed", config.seeds[0])))
    return (kind,)


def _memoised_providers(configs: list[ExperimentConfig], train_ds: Dataset,
                        emb: EmbeddingTable | None, memo: dict) -> list:
    """One score provider per config (None for an unscored condition).

    Tables are kept in `memo` under `_scorer_key`, per seed for self-taught
    scoring, so no table is made twice; the self-taught scorers this call
    adds train as one stack. The configs may differ only in pacing and LR.
    """
    scored = [c for c in configs if c.condition in SCORED_CONDITIONS]
    new = {}  # (key, seed) -> (schedule, seed) of a self-taught table to train
    for config in scored:
        key = _scorer_key(config)
        if config.scoring_kind != "self_taught":
            if key not in memo:
                memo[key] = make_score_provider(config, train_ds, emb)
            continue
        for seed in config.seeds:
            if (key, seed) not in memo:
                new[(key, seed)] = (config.schedule, seed)
    if new:
        schedules, seeds = zip(*new.values())
        tables = self_taught_score(train_ds, scored[0], seeds, schedules=schedules)
        memo.update(zip(new, tables))

    def provider(config):
        key = _scorer_key(config)
        if config.scoring_kind != "self_taught":
            return memo[key]
        return lambda seeds: [memo[(key, seed)] for seed in seeds]

    return [provider(c) if c.condition in SCORED_CONDITIONS else None for c in configs]


def two_stage_grid_search(config: ExperimentConfig, out_dir=None) -> tuple[ExperimentConfig, dict]:
    """Stage 1 sweeps pacing axes at the base LR, stage 2 sweeps LR axes at
    the stage-1 winner; vanilla runs a single refined-LR stage of matched
    size. Winners are judged on a held-out validation split of the training
    data, never the test set.

    All cells × seeds of a stage train as one stack, and each score table is
    made once per search: cells share the tables of equal scorer settings."""
    if config.grid is None:
        raise ConfigError("grid search requires a grid section in the config")
    grid = config.grid
    if not grid.pacing and not grid.lr:
        raise ConfigError("grid is empty: no pacing or learning-rate axes to sweep")
    train_ds, _test_ds, emb = resolve_dataset(config)
    fit_ids, val_ids = stratified_split_ids(
        train_ds, grid.validation_fraction, derived_seed(grid.split_seed, SPLIT))
    fit_ds, val_ds = select_examples(train_ds, fit_ids), select_examples(train_ds, val_ids)
    if emb is not None and emb.N == train_ds.N:
        # the embedding table covers the training split; cells score the fit split
        emb = EmbeddingTable(emb.vectors[fit_ids])

    audit: list[dict] = []
    best = None  # (criterion value, pacing params, config) of the best cell so far
    memo: dict = {}

    def run_stage(stage: int, cells: list[tuple[dict, dict]]) -> None:
        nonlocal best
        configs = [_with_params(config, pacing_params, lr_params)
                   for pacing_params, lr_params in cells]
        providers = _memoised_providers(configs, fit_ds, emb, memo)
        runs = [_plan_run(c, fit_ds, provider) for c, provider in zip(configs, providers)]
        for (pacing_params, lr_params), run, outcomes in zip(
                cells, runs, _train_runs(fit_ds, val_ds, runs)):
            try:
                summary = _summarise(run, outcomes, keep_models=False).summary
                value = _criterion_value(summary, config.criterion)
                entry_extra = {"final_accuracy_mean": summary["final_accuracy_mean"],
                               "auc_mean": summary["auc_mean"], "failed": False}
            except ExperimentError as exc:
                value = None
                entry_extra = {"failed": True, "error": str(exc)}
            audit.append({"stage": stage, "pacing": pacing_params, "lr": lr_params,
                          "criterion": config.criterion, "criterion_value": value,
                          **entry_extra})
            if value is not None and (best is None or value > best[0]):
                best = (value, pacing_params, run.config)

    if config.condition == "vanilla":
        pacing_cells = _cells(grid.pacing)
        curriculum_total = len(pacing_cells) + len(_cells(grid.lr))
        lr_cells = _cells(refine_lr_grid(grid.lr, curriculum_total))
        run_stage(1, [({}, lr_params) for lr_params in lr_cells])
        counts = {"stage1": len(lr_cells), "stage2": 0, "total": len(lr_cells),
                  "matched_target": curriculum_total}
    else:
        pacing_cells = _cells(grid.pacing)
        run_stage(1, [(pacing_params, {}) for pacing_params in pacing_cells])
        # stage 2 sweeps LR at the stage-1 winner, so it waits for stage 1
        best_pacing = {} if best is None else best[1]
        lr_cells = _cells(grid.lr)
        run_stage(2, [(best_pacing, lr_params) for lr_params in lr_cells])
        counts = {"stage1": len(pacing_cells), "stage2": len(lr_cells),
                  "total": len(pacing_cells) + len(lr_cells)}

    audit_log = {"condition": config.condition, "criterion": config.criterion,
                 "cell_counts": counts, "entries": audit,
                 "best_value": None if best is None else best[0],
                 "best_config": None if best is None else best[2].tree}
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid_audit.json").write_text(
            json.dumps(audit_log, sort_keys=True, indent=2) + "\n")
    if best is None:
        raise ExperimentError(f"all {counts['total']} grid cells failed; "
                              f"first error: {audit[0]['error']}")
    if out is not None:
        (out / "best_config.json").write_text(
            json.dumps(best[2].tree, sort_keys=True, indent=2) + "\n")
    return best[2], audit_log


# ---------------------------------------------------------------------------
# Self-taught bootstrapping
# ---------------------------------------------------------------------------

def bootstrap_loop(config: ExperimentConfig, generations: int | None = None,
                   out_dir=None) -> list[dict]:
    """Generation 0 trains vanilla; each later generation scores the training
    set with the previous generation's final model (per repetition seed) and
    trains a curriculum on it. Returns one summary per generation.

    A seed that fails in one generation is recorded as failed in every later
    one; a generation errors out when half of its repetitions have failed."""
    G = config.generations if generations is None else int(generations)
    if G < 0:
        raise ConfigError(f"generations must be >= 0, got {G}")
    train_ds, test_ds, _emb = resolve_dataset(config)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    summaries: list[dict] = []
    vanilla_config = resolve_config({**config.tree, "condition": "vanilla"})
    prev = run_experiment(vanilla_config, dataset=(train_ds, test_ds))
    prev.summary["generation"] = 0
    summaries.append(prev.summary)
    _write_generation(out, 0, prev)

    curriculum_config = resolve_config({**config.tree, "condition": "curriculum"})
    for g in range(1, G + 1):
        # a seed that failed in generation g-1 has no model to score with, so
        # it is recorded as failed in generation g as well
        provider = lambda seeds, m=prev.models, g=g: [
            score_by_model_loss(train_ds, m[s]) if s in m
            else ExperimentError(f"seed {s} has no generation-{g - 1} model to score with")
            for s in seeds]
        current = run_experiment(curriculum_config, dataset=(train_ds, test_ds),
                                 score_provider=provider)
        current.summary["generation"] = g
        summaries.append(current.summary)
        _write_generation(out, g, current)
        prev = current
    return summaries


def _write_generation(out: Path | None, g: int, result: ExperimentResult) -> None:
    if out is None:
        return
    for seed, curve in result.curves.items():
        curve.to_csv(out / f"curve_gen{g}_seed{seed}.csv")
    (out / f"summary_gen{g}.json").write_text(result.summary_json())


# ---------------------------------------------------------------------------
# Gradient coherence pipeline
# ---------------------------------------------------------------------------

def gradient_coherence_pipeline(config: ExperimentConfig,
                                models: dict[int, Model] | None = None) -> dict:
    """Per seed: train (or accept) a vanilla model, then compare gradient
    statistics of the easiest oracle prefix, a random subset of the same
    size, and all training points."""
    train_ds, test_ds, _emb = resolve_dataset(config)
    if models is None:
        vanilla_config = resolve_config({**config.tree, "condition": "vanilla"})
        models = run_experiment(vanilla_config, dataset=(train_ds, test_ds)).models

    size = max(1, round(config.subset_fraction * train_ds.N))
    oracle = oracle_bayes_score(train_ds)
    # the plan only supplies difficulty orders here; pacing and batch are moot
    plan = build_plan(train_ds, oracle, PacingSpec("vanilla", N=train_ds.N, M=1),
                      batch_size=1, seed=0)
    easy_ids = balanced_prefix(plan, size)
    all_ids = np.arange(train_ds.N)

    per_seed = {}
    comparisons = {"variance_easy_below_random": 0, "random_mean_closer_to_all": 0}
    for seed, model in sorted(models.items()):
        rng = np.random.default_rng(derived_seed(seed, SUBSET))
        random_ids = rng.choice(train_ds.N, size=size, replace=False)
        report = coherence_report(model, train_ds, {
            "easy_oracle": easy_ids, "random": random_ids, "all": all_ids})
        conds = report["distance_matrix"]["conditions"]
        dm = np.asarray(report["distance_matrix"]["whole_model"])
        i_easy, i_rand, i_all = (conds.index(c) for c in ("easy_oracle", "random", "all"))
        tv = {c: report["conditions"][c]["total_variance"] for c in conds}
        flags = {
            "variance_easy_below_random": bool(tv["easy_oracle"] < tv["random"]),
            "random_mean_closer_to_all": bool(dm[i_rand, i_all] < dm[i_easy, i_all]),
        }
        for k, v in flags.items():
            comparisons[k] += int(v)
        per_seed[str(seed)] = {"total_variance": tv,
                               "dist_easy_all": float(dm[i_easy, i_all]),
                               "dist_random_all": float(dm[i_rand, i_all]),
                               **flags}
    n = len(models)
    return {
        "config": config.tree,
        "subset_size": int(size),
        "n_seeds": n,
        "per_seed": per_seed,
        "fraction_variance_easy_below_random": comparisons["variance_easy_below_random"] / n,
        "fraction_random_mean_closer_to_all": comparisons["random_mean_closer_to_all"] / n,
    }
