"""Experiment orchestration: conditions, repetitions, grid search, bootstrap.

One run path, `_results`, scores, plans, stacks and summarises the runs of
`train`, of each grid stage and of each bootstrap generation; a run's typed
error is a value there, which the grid audits and the others raise.

Every run is a pure function of its resolved config; summaries embed the
config, so any output artifact can be regenerated byte-for-byte from its
manifest. The harness writes nothing: it returns values, and `cli` writes
them into the run directory.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, pacing_spec_for, resolve_config
from .data import Dataset, EmbeddingTable, generate_gaussian_mixture, json_text, \
    load_dataset_csv, load_bayes_json, load_embeddings_csv, select_examples, \
    stratified_split_ids
from .errors import ConfigError, ExperimentError, NumericalError, ParameterError, \
    TrainingDivergedError
from .gradient_analysis import gradient_set, total_variance
from .pacing import PacingSpec, saturation_iteration
from .scoring import ScoreTable, invert, load_scores_csv, oracle_bayes_score, \
    random_score, score_by_model_loss, transfer_score
from .seeding import BATCH, INIT, SCORE, SPLIT, SUBSET, derived_seed
from .sequencer import balanced_prefix, build_plan
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


def _split_ids(ds: Dataset, fraction: float, seed: int, key: str):
    """`stratified_split_ids`; an empty class side is a ConfigError naming `key`."""
    try:
        return stratified_split_ids(ds, fraction, seed)
    except ParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def resolve_dataset(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from the config's dataset section."""
    ds_cfg = config.dataset
    if "synthetic" in ds_cfg:
        syn = ds_cfg["synthetic"]
        try:  # the schema holds every other key to its domain
            full = generate_gaussian_mixture(K=syn["classes"], d=syn["dim"],
                                             n_per_class=syn["n_per_class"],
                                             spread=syn["spread"], seed=syn["seed"])
        except ParameterError as exc:
            raise ConfigError(f"dataset.synthetic.spread: {exc}") from None
        train_ds, test_ds = (select_examples(full, ids) for ids in _split_ids(
            full, ds_cfg.get("train_fraction", ACCEPTANCE_TRAIN_FRACTION),
            ds_cfg.get("split_seed", 0), "dataset.train_fraction"))
    else:
        if "train_csv" not in ds_cfg or "test_csv" not in ds_cfg:
            raise ConfigError("dataset needs either a synthetic section or train_csv/test_csv")
        train_ds = load_dataset_csv(ds_cfg["train_csv"])
        test_ds = load_dataset_csv(ds_cfg["test_csv"])
        if test_ds.d != train_ds.d:
            raise ConfigError(f"dataset.test_csv: rows have {test_ds.d} features, "
                              f"the training set has {train_ds.d}")
        if test_ds.K > train_ds.K:
            raise ConfigError(f"dataset.test_csv: label {test_ds.K - 1} is not a class of "
                              f"the training set (labels 0..{train_ds.K - 1})")
        if "bayes_json" in ds_cfg:
            bayes = load_bayes_json(ds_cfg["bayes_json"])
            if bayes.means.shape != (train_ds.K, train_ds.d):
                raise ConfigError(f"dataset.bayes_json: means have shape {bayes.means.shape}, "
                                  f"the training set needs (K, d) = ({train_ds.K}, {train_ds.d})")
            train_ds, test_ds = (replace(ds, bayes=bayes) for ds in (train_ds, test_ds))
    return train_ds, test_ds


def _fixed_table(config: ExperimentConfig, train_ds: Dataset,
                 rows: np.ndarray | None = None) -> ScoreTable:
    """The oracle, file or transfer table, shared by every repetition seed,
    over the examples `rows` of the training split (all of them when None).
    The score file and the embeddings are read here; each must cover the
    whole split."""
    kind = config.scoring["kind"]
    ds = train_ds if rows is None else select_examples(train_ds, rows)
    if kind == "oracle":
        return oracle_bayes_score(ds)
    if kind == "file":
        table = load_scores_csv(config.scoring["path"])
        if len(table) != train_ds.N:
            raise ConfigError(
                f"score file covers {len(table)} ids, training set has {train_ds.N}")
        return table if rows is None else ScoreTable(table.scores[rows])
    if (path := config.dataset.get("embeddings_csv")) is None:
        raise ConfigError("scoring.kind=transfer requires dataset.embeddings_csv")
    if not Path(path).is_file():
        raise ConfigError(f"referenced file does not exist: dataset.embeddings_csv ({path})")
    emb = load_embeddings_csv(path)
    if emb.N != train_ds.N:
        raise ConfigError(f"dataset.embeddings_csv: {path} covers {emb.N} ids, "
                          f"the training set has {train_ds.N}")
    if rows is not None:
        emb = EmbeddingTable(emb.vectors[rows])
    folds, smallest = config.scoring["folds"], int(ds.class_counts.min())
    if folds > smallest:
        raise ConfigError(f"scoring.folds must be <= {smallest}, the smallest class count of "
                          f"the {'training' if rows is None else 'fit'} split, got {folds}")
    return transfer_score(ds, emb, folds, seed=derived_seed(config.base_seed, SCORE))


def _scorer_key(config: ExperimentConfig, seed: int) -> tuple:
    """The config fields the configured scorer reads for repetition `seed`."""
    kind = config.scoring["kind"]
    if kind == "self_taught":
        return (kind, config.model_spec, config.schedule, config.batch_size,
                config.iterations, seed)
    if kind == "transfer":
        return (kind, config.scoring["folds"], config.base_seed)
    return (kind,)


def score_tables(configs: list[ExperimentConfig], data: tuple,
                 memo: dict | None = None) -> list[list]:
    """For each config, one table of its scoring function per repetition seed,
    over the training split of `data`: `resolve_dataset`'s (train, test).

    Tables are memoised in `memo` under `_scorer_key`. A self-taught table is
    the loss of the final model of that seed's vanilla run, recording only at
    its first and last iteration; the vanilla runs of the keys this call adds
    train as one stack (the configs may differ only in pacing and LR) and
    record on the test split. A seed whose scorer diverged, or cannot score
    the training split (`_loss_table`), gets an `ExperimentError` in place of
    its table, and one whose scorer cannot be planned (a batch above the
    split) that error."""
    train_ds, test_ds = data
    memo = {} if memo is None else memo
    new = {}  # key -> the one-seed vanilla run of a self-taught table to train
    for config in configs:
        for seed in config.seeds:
            key = _scorer_key(config, seed)
            if key in memo or key in new:
                continue
            if config.scoring["kind"] != "self_taught":
                memo[key] = _fixed_table(config, train_ds)
                continue
            try:
                new[key] = _plan_run(_vanilla(config, seeds=[seed], repetitions=1,
                                              record_every=config.iterations), train_ds, None)
            except (ConfigError, ParameterError) as exc:  # a batch above the split
                memo[key] = exc
    outcomes = _train_runs(train_ds, test_ds, list(new.values()))
    for (key, run), (outcome,) in zip(new.items(), outcomes):
        memo[key] = (ExperimentError(f"self-taught scorer of seed {run.seeds[0]} diverged "
                                     f"at iteration {outcome.iteration}")
                     if isinstance(outcome, TrainingDivergedError)
                     else _loss_table(train_ds, outcome[0],
                                      f"self-taught scorer of seed {run.seeds[0]}"))
    return [[memo[_scorer_key(c, seed)] for seed in c.seeds] for c in configs]


def _loss_table(train_ds: Dataset, model: Model, scorer: str) -> ScoreTable | ExperimentError:
    """`score_by_model_loss` of a trained model on the training split, or an
    `ExperimentError` naming the `scorer` where its forward or loss overflows."""
    try:
        return score_by_model_loss(train_ds, model)
    except (NumericalError, ParameterError) as exc:
        return ExperimentError(f"{scorer} cannot score the training split: {exc}")


def _vanilla(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """The config's vanilla condition, with `overrides` of its tree."""
    return resolve_config({**config.tree, "condition": "vanilla", **overrides})


@dataclass
class ExperimentResult:
    summary: dict
    curves: dict[int, LearningCurve] = field(default_factory=dict)
    models: dict[int, Model] = field(default_factory=dict)


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


def _plan_run(config: ExperimentConfig, train_ds: Dataset, tables: list | None) -> _Run:
    """Build one plan per repetition seed that has a score table; `tables` is
    one entry of `score_tables`, which an unscored condition ignores. Any other
    error than an `ExperimentError` in place of a table is raised as the config's own."""
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
    if config.condition not in SCORED_CONDITIONS:
        # random, vanilla, self_paced: the initial table is a seeded random
        # permutation (self_paced replaces it at the first boundary anyway)
        tables = [random_score(train_ds, derived_seed(seed, SCORE)) for seed in config.seeds]
    elif config.condition == "anti":
        tables = [t if isinstance(t, Exception) else invert(t) for t in tables]
    # a table shared by every seed names its warnings once
    warnings += list(dict.fromkeys(
        w for t in tables if isinstance(t, ScoreTable) for w in t.warnings))
    for seed, table in zip(config.seeds, tables):
        if isinstance(table, ExperimentError):
            run.failures[seed] = str(table)
            continue
        if isinstance(table, Exception):
            raise table
        run.seeds.append(seed)
        run.plans.append(build_plan(train_ds, table, pacing, config.batch_size,
                                    seed=derived_seed(seed, BATCH)))
    return run


def _train_runs(train_ds: Dataset, test_ds: Dataset, runs: list[_Run]) -> list[list]:
    """Train every seed of every run as one stack; one outcome list per run.
    The runs share the model, the iteration count and `record_every`."""
    if not runs:
        return []
    rows = [(run, seed, plan) for run in runs for seed, plan in zip(run.seeds, run.plans)]
    config = runs[0].config
    outcomes = iter(train_stack(
        train_ds, test_ds, [plan for _run, _seed, plan in rows],
        [run.config.schedule for run, _seed, _plan in rows], config.model_spec,
        [derived_seed(seed, INIT) for _run, seed, _plan in rows],
        record_every=config.record_every,
        self_paced=[run.config.condition == "self_paced" for run, _seed, _plan in rows]))
    return [[next(outcomes) for _ in run.seeds] for run in runs]


def _summarise(run: _Run, outcomes: list) -> ExperimentResult | ExperimentError:
    """Aggregate a run's outcomes into its summary, or an `ExperimentError`
    when at least half of the repetitions failed."""
    config, failures = run.config, dict(run.failures)
    result = ExperimentResult(summary={})
    for seed, outcome in zip(run.seeds, outcomes):
        if isinstance(outcome, TrainingDivergedError):
            failures[seed] = f"seed {seed} diverged at iteration {outcome.iteration}"
            continue
        result.models[seed], result.curves[seed] = outcome
    failed = [seed for seed in config.seeds if seed in failures]
    warnings = run.warnings + [failures[seed] for seed in failed]

    if 2 * len(failed) >= config.repetitions:
        return ExperimentError(
            f"{len(failed)} of {config.repetitions} repetitions failed (seeds {failed})")

    ok_seeds = [s for s in config.seeds if s not in failed]
    finals = [_final_accuracy(result.curves[s], config.selection["window"]) for s in ok_seeds]
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
    return result


def _results(configs: list[ExperimentConfig], data: tuple, memo: dict | None = None,
             tables: list | None = None) -> list:
    """Per config its `ExperimentResult`, or the typed error that ended it: a
    planning error, or `_summarise`'s. Config i reads `tables[i]`, else `score_tables`
    under `memo`; every plan trains in one stack on `data`."""
    if tables is None:
        scored = iter(score_tables([c for c in configs if c.condition in SCORED_CONDITIONS],
                                   data, memo))
        tables = [next(scored) if c.condition in SCORED_CONDITIONS else None for c in configs]
    runs = []
    for config, config_tables in zip(configs, tables):
        try:
            runs.append(_plan_run(config, data[0], config_tables))
        except (ConfigError, ParameterError) as exc:  # a pacing it cannot build or plan
            runs.append(exc)
    outcomes = iter(_train_runs(*data, [r for r in runs if isinstance(r, _Run)]))
    return [r if isinstance(r, Exception) else _summarise(r, next(outcomes)) for r in runs]


def run_experiment(config: ExperimentConfig,
                   data: tuple[Dataset, Dataset] | None = None) -> ExperimentResult:
    """Run one condition over all repetition seeds through `_results` and
    raise its error, if any. `data` is `resolve_dataset`'s (train, test),
    built from the config when None.

    A repetition that diverges, or has an `ExperimentError` in place of its
    table, is recorded as failed; the experiment errors out only when at
    least half of the repetitions fail."""
    data = resolve_dataset(config) if data is None else data
    (result,) = _results([config], data)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# Two-stage grid search
# ---------------------------------------------------------------------------

def _with_params(config: ExperimentConfig, pacing_params: dict, lr_params: dict) -> ExperimentConfig:
    tree = {key: value for key, value in config.tree.items() if key != "grid"}
    tree["pacing"] = {**tree["pacing"], **pacing_params}
    tree["lr"] = {**tree["lr"], **lr_params}
    return resolve_config(tree)


def _cells(axes: dict[str, list]) -> list[dict]:
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in product(*(axes[n] for n in names))]


def refine_lr_grid(lr_axes: dict[str, list], target: int,
                   lr0: float | None = None) -> dict[str, list]:
    """Expand the initial-LR axis so the total cell count approaches `target`.

    Used for the vanilla condition, which has no pacing axes: its one-stage
    search gets a finer learning-rate grid of about the same total size as
    the curriculum condition's two stages. Without an `lr0` axis the axis is
    built around the config's `lr0`; with `lr0` None (a schedule that reads
    no lr0) no axis is added.
    """
    axes = {k: list(v) for k, v in lr_axes.items()}
    if "lr0" not in axes and lr0 is None:
        return axes
    values = axes.get("lr0", [lr0])
    n = max(1, round(target / math.prod(len(v) for k, v in axes.items() if k != "lr0")))
    lo, hi = min(values), max(values)
    if n > 1 and hi == lo:
        # degenerate single-value axis: spread half an octave around it
        lo, hi = lo / 1.5, lo * 1.5
    axes["lr0"] = [lo] if n == 1 else [float(v) for v in np.geomspace(lo, hi, n)]
    return axes


def two_stage_grid_search(config: ExperimentConfig) -> tuple[ExperimentConfig | None, dict]:
    """Stage 1 sweeps pacing axes at the base LR, stage 2 sweeps LR axes at
    the stage-1 winner; vanilla runs a single refined-LR stage of matched
    size. Winners are judged on a held-out validation split of the training
    data, never the test set. Returns the winning cell's config, None when
    every cell failed, and the audit log.

    Every score table is made before stage 1, the self-taught scorers as one
    stack: `_scorer_key` ignores pacing, so the base pacing stands in for
    the stage-1 winner's. All new cells × seeds of a stage train as one
    stack (`_results`), and a cell whose resolved tree was trained already
    (in stage 2, the stage-1 winner at the base LR) reuses that run. A cell
    whose tree does not resolve, or whose pacing cannot be built or planned
    on the fit split, or whose repetitions fail, is recorded as failed."""
    if config.grid is None:
        raise ConfigError("grid search requires a grid section in the config")
    grid = config.grid
    if not grid["pacing"] and not grid["lr"]:
        raise ConfigError("grid is empty: no pacing or learning-rate axes to sweep")
    train_ds, _test_ds = resolve_dataset(config)
    fit_ids, val_ids = _split_ids(train_ds, grid["validation_fraction"],
                                  derived_seed(grid["split_seed"], SPLIT),
                                  "grid.validation_fraction")
    fit_ds, val_ds = select_examples(train_ds, fit_ids), select_examples(train_ds, val_ids)
    scored = config.condition in SCORED_CONDITIONS
    memo: dict = {}
    # a fixed table, shared by every cell, scores the fit rows
    if scored and config.scoring["kind"] != "self_taught":
        memo[_scorer_key(config, config.seeds[0])] = _fixed_table(config, train_ds, fit_ids)
    data = (fit_ds, val_ds)

    audit: list[dict] = []
    best = None  # (criterion value, pacing params, config) of the best cell so far
    # a cell's resolved tree, as JSON -> (its config, its `_results` value)
    trained: dict = {}

    def run_stage(stage: int, cells: list[tuple[dict, dict]]) -> None:
        nonlocal best
        keys, new = [], {}  # per cell its resolved tree as JSON, or the error resolving it
        for pacing_params, lr_params in cells:
            try:
                c = _with_params(config, pacing_params, lr_params)
            except (ConfigError, ParameterError) as exc:  # a tree that does not resolve
                keys.append(exc)
                continue
            keys.append(json_text(c.tree))
            if keys[-1] not in trained:
                new[keys[-1]] = c
        trained.update(zip(new, zip(new.values(), _results(list(new.values()), data, memo))))
        for (pacing_params, lr_params), key in zip(cells, keys):
            c, result = (None, key) if isinstance(key, Exception) else trained[key]
            if isinstance(result, Exception):
                value, entry_extra = None, {"failed": True, "error": str(result)}
            else:
                value = result.summary[f"{config.selection['criterion']}_mean"]
                entry_extra = {"final_accuracy_mean": result.summary["final_accuracy_mean"],
                               "auc_mean": result.summary["auc_mean"], "failed": False}
            audit.append({"stage": stage, "pacing": pacing_params, "lr": lr_params,
                          "criterion": config.selection["criterion"], "criterion_value": value,
                          **entry_extra})
            if value is not None and (best is None or value > best[0]):
                best = (value, pacing_params, c)

    if config.condition == "vanilla":
        pacing_cells = _cells(grid["pacing"])
        curriculum_total = len(pacing_cells) + len(_cells(grid["lr"]))
        schedule = config.schedule
        lr_cells = _cells(refine_lr_grid(grid["lr"], curriculum_total,
                                         schedule.lr0 if schedule.variant == "exponential" else None))
        run_stage(1, [({}, lr_params) for lr_params in lr_cells])
        counts = {"stage1": len(lr_cells), "stage2": 0, "total": len(lr_cells),
                  "matched_target": curriculum_total}
    else:
        pacing_cells, lr_cells = _cells(grid["pacing"]), _cells(grid["lr"])
        if scored:
            # every table up front, in one stack: stage 1 varies only pacing,
            # which `_scorer_key` ignores, so the base config stands in for
            # each stage-1 cell, and the base pacing for the stage-1 winner's
            score_tables([_with_params(config, {}, lr_params)
                          for lr_params in [{}] + lr_cells], data, memo)
        run_stage(1, [(pacing_params, {}) for pacing_params in pacing_cells])
        # stage 2 sweeps LR at the stage-1 winner, so it waits for stage 1
        best_pacing = {} if best is None else best[1]
        run_stage(2, [(best_pacing, lr_params) for lr_params in lr_cells])
        counts = {"stage1": len(pacing_cells), "stage2": len(lr_cells),
                  "total": len(pacing_cells) + len(lr_cells)}

    audit_log = {"condition": config.condition, "criterion": config.selection["criterion"],
                 "cell_counts": counts, "entries": audit,
                 "best_value": None if best is None else best[0],
                 "best_config": None if best is None else best[2].tree}
    return None if best is None else best[2], audit_log


# ---------------------------------------------------------------------------
# Self-taught bootstrapping
# ---------------------------------------------------------------------------

def bootstrap_loop(config: ExperimentConfig) -> Iterator[ExperimentResult]:
    """Generation 0 trains vanilla; each of the config's generations after it
    scores the training set with the previous generation's final model (per
    repetition seed) and trains a curriculum on it. Yields each generation's
    result as it ends.

    A seed that fails in one generation is recorded as failed in every later
    one; a generation errors out when half of its repetitions have failed.
    Another condition than curriculum is a ConfigError, raised by the call
    itself, before any training: no other condition defines a generation
    trained on the previous generation's scores."""
    if config.condition != "curriculum":
        raise ConfigError(f"bootstrap trains curriculum generations, not condition "
                          f"{config.condition}; set condition to curriculum")
    return _generations(config, resolve_dataset(config))


def _generations(config: ExperimentConfig, data: tuple) -> Iterator[ExperimentResult]:
    previous = None
    for g in range(config.generations + 1):
        # a seed with no generation-(g-1) model, or whose model cannot score
        # the training split, has no table: it fails in generation g as well
        tables = None if g == 0 else [[
            _loss_table(data[0], previous.models[s], f"generation-{g - 1} model of seed {s}")
            if s in previous.models
            else ExperimentError(f"seed {s} has no generation-{g - 1} model to score with")
            for s in config.seeds]]
        (result,) = _results([config if g else _vanilla(config)], data, tables=tables)
        if isinstance(result, Exception):
            raise result
        result.summary["generation"] = g
        yield result
        previous = result


# ---------------------------------------------------------------------------
# Gradient coherence pipeline
# ---------------------------------------------------------------------------

def gradient_coherence_pipeline(config: ExperimentConfig,
                                models: dict[int, Model] | None = None) -> dict:
    """Per seed: train (or accept) a vanilla model, then compare gradient
    statistics of the easiest oracle prefix, a random subset of the same
    size, and all training points."""
    data = resolve_dataset(config)
    train_ds = data[0]
    if models is None:
        # the report reads only the final models: record at t = 0 and M-1 alone
        models = run_experiment(_vanilla(config, record_every=config.iterations),
                                data=data).models

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
        sets = {name: gradient_set(model, ids, train_ds) for name, ids in
                (("easy_oracle", easy_ids), ("random", random_ids), ("all", all_ids))}
        tv = {name: total_variance(gs)[0] for name, gs in sets.items()}
        # along an axis the norm sums its squares pairwise; a flat vector's
        # norm takes a dot, which rounds differently
        dist = {name: float(np.linalg.norm((sets[name].mean - sets["all"].mean)[None],
                                           axis=1)[0])
                for name in ("easy_oracle", "random")}
        flags = {
            "variance_easy_below_random": bool(tv["easy_oracle"] < tv["random"]),
            "random_mean_closer_to_all": bool(dist["random"] < dist["easy_oracle"]),
        }
        for k, v in flags.items():
            comparisons[k] += int(v)
        per_seed[str(seed)] = {"total_variance": tv, "dist_easy_all": dist["easy_oracle"],
                               "dist_random_all": dist["random"], **flags}
    n = len(models)
    return {
        "config": config.tree,
        "subset_size": int(size),
        "n_seeds": n,
        "per_seed": per_seed,
        "fraction_variance_easy_below_random": comparisons["variance_easy_below_random"] / n,
        "fraction_random_mean_closer_to_all": comparisons["random_mean_closer_to_all"] / n,
    }
