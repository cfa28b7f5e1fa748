"""Experiment configuration: a JSON tree with a closed key schema.

Unknown keys anywhere in the tree are hard errors (listed by dotted path), so
a typo cannot silently fall back to a default and taint an experiment.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import ConfigError
from .pacing import PacingSpec, extend_boundaries
from .theory import DEFAULT_FAMILIES, DEFAULT_INSTANCES
from .trainer import LRSchedule, ModelSpec

CONDITIONS = ("curriculum", "anti", "random", "vanilla", "self_paced")
SCORING_KINDS = ("oracle", "self_taught", "transfer", "file")
CRITERIA = ("final_accuracy", "auc")

# allowed keys: None marks a leaf, a dict marks a nested section
_SCHEMA = {
    "dataset": {
        "synthetic": {"classes": None, "dim": None, "n_per_class": None,
                      "spread": None, "seed": None},
        "train_csv": None,
        "test_csv": None,
        "bayes_json": None,
        "embeddings_csv": None,
        "train_fraction": None,
        "split_seed": None,
    },
    "condition": None,
    "scoring": {"kind": None, "path": None, "folds": None},
    "pacing": {"variant": None, "starting_percent": None, "increase": None,
               "step_length": None, "boundaries": None},
    "lr": {"variant": None, "lr0": None, "decrease_factor": None,
           "lr_step_length": None, "lr_min": None, "lr_max": None,
           "cycle_length": None},
    "model": {"architecture": None, "hidden": None},
    "batch_size": None,
    "iterations": None,
    "repetitions": None,
    "seed": None,
    "seeds": None,
    "record_every": None,
    "selection": {"criterion": None, "window": None},
    "grid": {
        "pacing": {"starting_percent": None, "increase": None, "step_length": None,
                   "boundaries": None},
        "lr": {"lr0": None, "decrease_factor": None, "lr_step_length": None},
        "validation_fraction": None,
        "split_seed": None,
    },
    "bootstrap": {"generations": None},
    "gradient_analysis": {"subset_fraction": None},
    "theory": {"instances": None, "constant_variance_families": None},
}

_SYNTHETIC_TYPES = {"classes": int, "dim": int, "n_per_class": int, "spread": float, "seed": int}
# converters of the leaves a grid axis may sweep; a list leaf holds ints
_AXIS_TYPES = {"pacing": {"starting_percent": float, "increase": float, "step_length": int,
                          "boundaries": list},
               "lr": {"lr0": float, "decrease_factor": float, "lr_step_length": int}}


def _collect_unknown(tree: dict, schema: dict, prefix: str = "") -> list[str]:
    unknown = []
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if key not in schema:
            unknown.append(path)
            continue
        sub = schema[key]
        if isinstance(value, dict):
            if not isinstance(sub, dict):
                unknown.append(f"{path} (expected a value, got a section)")
            else:
                unknown.extend(_collect_unknown(value, sub, prefix=f"{path}."))
        elif isinstance(sub, dict):
            unknown.append(f"{path} (expected a section, got a value)")
    return unknown


def validate_tree(tree: dict) -> None:
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = _collect_unknown(tree, _SCHEMA)
    if unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(sorted(unknown)))


def load_config_tree(path) -> dict:
    try:
        with open(path) as f:
            tree = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    validate_tree(tree)
    return tree


@dataclass(frozen=True)
class GridSpec:
    pacing: dict[str, list]
    lr: dict[str, list]
    validation_fraction: float = 0.8
    split_seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; `tree` retains the exact resolved JSON."""

    tree: dict
    condition: str
    scoring_kind: str
    scoring_path: str | None
    scoring_folds: int
    pacing_variant: str
    starting_percent: float
    increase: float | None
    step_length: int | None
    boundaries: tuple[int, ...] | None
    schedule: LRSchedule
    model_spec: ModelSpec
    batch_size: int
    iterations: int
    seeds: tuple[int, ...]
    record_every: int
    criterion: str
    window: int
    grid: GridSpec | None
    generations: int
    subset_fraction: float
    theory_instances: int
    theory_families: int

    @property
    def repetitions(self) -> int:
        return len(self.seeds)


def _get(tree: dict, path: str, default=None):
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


_FILE_KEYS = ("dataset.train_csv", "dataset.test_csv", "dataset.bayes_json",
              "dataset.embeddings_csv", "scoring.path")


def _check_referenced_files(tree: dict) -> None:
    missing = [f"{key} ({value})" for key in _FILE_KEYS
               if (value := _get(tree, key)) is not None and not os.path.isfile(value)]
    if missing:
        raise ConfigError("referenced file(s) do not exist: " + ", ".join(missing))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _typed(convert, value, key: str):
    """convert(value) for a value of the JSON type `convert` reads: a list for
    list, a number for float, an integral number for int (int() would truncate
    150.9). A boolean or a string is no number; any other value is a
    ConfigError naming the dotted `key`."""
    if convert is list:
        ok = isinstance(value, list)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (convert is float or isinstance(value, int) or value.is_integer()))
    try:
        if not ok:
            raise ValueError(value)
        return convert(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key} must be of type {convert.__name__}, got {value!r}") from None


def _fraction(value, key: str) -> float:
    value = _typed(float, value, key)
    _require(0.0 < value < 1.0, f"{key} must be in (0, 1), got {value!r}")
    return value


def _non_negative(value: int, key: str) -> int:
    _require(value >= 0, f"{key} must be >= 0, got {value}")
    return value


def _typed_leaf(convert, value, key: str):
    """_typed, with a list leaf's elements converted to int as well."""
    value = _typed(convert, value, key)
    return [_typed(int, v, key) for v in value] if convert is list else value


def resolve_config(tree: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config tree and fill defaults; returns the resolved config.

    The resolved tree (with defaults and the seed override applied) is kept
    verbatim so manifests can reproduce the run byte-for-byte.
    """
    validate_tree(tree)
    tree = json.loads(json.dumps(tree))  # deep copy, JSON-clean

    if seed_override is not None:
        tree["seed"] = int(seed_override)
        tree.pop("seeds", None)

    # resolve_dataset converts these leaves; check them here, where a bad one is named
    dataset = tree.get("dataset", {})
    if "synthetic" in dataset:
        syn = dataset["synthetic"]
        missing = [f"dataset.synthetic.{key}" for key in _SYNTHETIC_TYPES if key not in syn]
        _require(not missing, "missing config key(s): " + ", ".join(missing))
        for key, convert in _SYNTHETIC_TYPES.items():
            _typed(convert, syn[key], f"dataset.synthetic.{key}")
        _non_negative(int(syn["seed"]), "dataset.synthetic.seed")
    if "train_fraction" in dataset:
        _fraction(dataset["train_fraction"], "dataset.train_fraction")
    if "split_seed" in dataset:
        _non_negative(_typed(int, dataset["split_seed"], "dataset.split_seed"),
                      "dataset.split_seed")

    condition = tree.setdefault("condition", "vanilla")
    _require(condition in CONDITIONS, f"condition must be one of {CONDITIONS}, got {condition!r}")

    scoring = tree.setdefault("scoring", {})
    kind = scoring.setdefault("kind", "oracle")
    _require(kind in SCORING_KINDS, f"scoring.kind must be one of {SCORING_KINDS}, got {kind!r}")
    folds = _typed(int, scoring.setdefault("folds", 4), "scoring.folds")
    _require(folds >= 2, "scoring.folds must be >= 2")
    if kind == "file":
        _require(scoring.get("path") is not None, "scoring.kind=file requires scoring.path")
    _check_referenced_files(tree)

    pacing = tree.setdefault("pacing", {})
    variant = pacing.setdefault("variant", "vanilla" if condition == "vanilla" else "fixed_exp")
    if condition == "vanilla":
        variant = "vanilla"
        pacing["variant"] = "vanilla"
    starting_percent = _typed(float, pacing.setdefault("starting_percent", 0.1),
                              "pacing.starting_percent")
    if variant in ("fixed_exp", "varied_exp"):
        pacing.setdefault("increase", 1.9)
    if variant in ("fixed_exp", "single_step"):
        pacing.setdefault("step_length", 100)
    # a key the variant does not read is type-checked too; PacingSpec drops its value
    increase, step_length, boundaries = (
        _typed_leaf(_AXIS_TYPES["pacing"][key], pacing[key], f"pacing.{key}") if key in pacing
        else None
        for key in ("increase", "step_length", "boundaries"))
    if variant == "varied_exp":
        _require(boundaries is not None and len(boundaries) >= 1,
                 "varied_exp requires pacing.boundaries (at least the first two step ends)")
        boundaries = list(extend_boundaries(boundaries, starting_percent, increase))
        pacing["boundaries"] = boundaries

    lr = tree.setdefault("lr", {})
    lr_variant = lr.setdefault("variant", "exponential")
    if lr_variant == "exponential":
        schedule = LRSchedule(
            variant="exponential",
            lr0=_typed(float, lr.setdefault("lr0", 0.1), "lr.lr0"),
            decrease_factor=_typed(float, lr.setdefault("decrease_factor", 1.5),
                                   "lr.decrease_factor"),
            lr_step_length=_typed(int, lr.setdefault("lr_step_length", 500), "lr.lr_step_length"))
    elif lr_variant == "cyclical":
        schedule = LRSchedule(
            variant="cyclical",
            lr_min=_typed(float, lr.setdefault("lr_min", 0.01), "lr.lr_min"),
            lr_max=_typed(float, lr.setdefault("lr_max", 0.1), "lr.lr_max"),
            cycle_length=_typed(int, lr.setdefault("cycle_length", 500), "lr.cycle_length"))
    else:
        raise ConfigError(f"lr.variant must be exponential or cyclical, got {lr_variant!r}")

    model = tree.setdefault("model", {})
    model_spec = ModelSpec(architecture=model.setdefault("architecture", "linear_softmax"),
                           hidden=_typed(int, model.setdefault("hidden", 0), "model.hidden"))

    batch_size = _typed(int, tree.setdefault("batch_size", 100), "batch_size")
    iterations = _typed(int, tree.setdefault("iterations", 3000), "iterations")
    record_every = _typed(int, tree.setdefault("record_every", 50), "record_every")
    _require(batch_size >= 1, "batch_size must be >= 1")
    _require(iterations >= 1, "iterations must be >= 1")
    _require(record_every >= 1, "record_every must be >= 1")

    if "seeds" in tree:
        seeds = tuple(_non_negative(_typed(int, s, "seeds"), "seeds")
                      for s in _typed(list, tree["seeds"], "seeds"))
        _require(len(seeds) >= 1, "seeds must be non-empty")
        _require(len(set(seeds)) == len(seeds), f"seeds must be distinct, got {list(seeds)}")
        if "repetitions" in tree:
            _require(_typed(int, tree["repetitions"], "repetitions") == len(seeds),
                     "repetitions does not match the length of seeds")
        tree["repetitions"] = len(seeds)
    else:
        reps = _typed(int, tree.setdefault("repetitions", 1), "repetitions")
        _require(reps >= 1, "repetitions must be >= 1")
        base = _non_negative(_typed(int, tree.setdefault("seed", 0), "seed"), "seed")
        seeds = tuple(base + r for r in range(reps))
        tree["seeds"] = list(seeds)

    selection = tree.setdefault("selection", {})
    criterion = selection.setdefault("criterion", "final_accuracy")
    _require(criterion in CRITERIA, f"selection.criterion must be one of {CRITERIA}")
    window = _typed(int, selection.setdefault("window", 5), "selection.window")
    _require(window >= 1, "selection.window must be >= 1")

    grid = None
    if "grid" in tree:
        g = tree["grid"]
        # every axis value is checked now, not when its cell runs; the tree keeps them as written
        axes = {section: {} for section in _AXIS_TYPES}
        for section, types in _AXIS_TYPES.items():
            for key, values in g.get(section, {}).items():
                path = f"grid.{section}.{key}"
                values = axes[section][key] = _typed(list, values, path)
                _require(len(values) > 0, f"{path} must be a non-empty list")
                for value in values:
                    _typed_leaf(types[key], value, path)
        grid = GridSpec(**axes,
                        validation_fraction=_fraction(g.setdefault("validation_fraction", 0.8),
                                                     "grid.validation_fraction"),
                        split_seed=_non_negative(_typed(int, g.setdefault("split_seed", 0),
                                                        "grid.split_seed"), "grid.split_seed"))

    generations = _typed(int, _get(tree, "bootstrap.generations", 1), "bootstrap.generations")
    subset_fraction = _typed(float, _get(tree, "gradient_analysis.subset_fraction", 0.1),
                             "gradient_analysis.subset_fraction")
    theory_instances, theory_families = (
        _non_negative(_typed(int, _get(tree, key, default), key), key)
        for key, default in (("theory.instances", DEFAULT_INSTANCES),
                             ("theory.constant_variance_families", DEFAULT_FAMILIES)))

    return ExperimentConfig(
        tree=tree, condition=condition, scoring_kind=kind,
        scoring_path=scoring.get("path"), scoring_folds=folds,
        pacing_variant=variant, starting_percent=starting_percent,
        increase=increase, step_length=step_length,
        boundaries=tuple(boundaries) if boundaries else None,
        schedule=schedule, model_spec=model_spec, batch_size=batch_size,
        iterations=iterations, seeds=seeds, record_every=record_every,
        criterion=criterion, window=window, grid=grid, generations=generations,
        subset_fraction=subset_fraction, theory_instances=theory_instances,
        theory_families=theory_families)


def pacing_spec_for(config: ExperimentConfig, N: int) -> PacingSpec:
    """Instantiate the config's pacing for a concrete dataset size."""
    return PacingSpec(variant=config.pacing_variant, N=N, M=config.iterations,
                      starting_percent=config.starting_percent, increase=config.increase,
                      step_length=config.step_length, boundaries=config.boundaries)
