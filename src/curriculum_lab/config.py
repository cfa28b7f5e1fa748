"""Experiment configuration: a JSON tree with a closed, typed key schema.

`_SCHEMA` is the one declaration of the format: each leaf is the JSON type of
its value (`int`, `float`, `str`, or `[t]` for a list of `t`). Unknown keys
anywhere in the tree are hard errors (listed by dotted path), so a typo cannot
silently fall back to a default and taint an experiment, and a value of the
wrong type is an error naming its dotted key. `resolve_config` writes the
defaults into the tree, converts the whole tree in one walk, and builds every
check and object from that converted view; the tree keeps its values as
written, so a manifest reproduces the run.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .pacing import PacingSpec, extend_boundaries
from .theory import DEFAULT_FAMILIES, DEFAULT_INSTANCES
from .trainer import LRSchedule, ModelSpec

CONDITIONS = ("curriculum", "anti", "random", "vanilla", "self_paced")
SCORING_KINDS = ("oracle", "self_taught", "transfer", "file")
CRITERIA = ("final_accuracy", "auc")

# the pacing and learning-rate leaves a grid axis may sweep
_PACING_AXES = {"starting_percent": float, "increase": float, "step_length": int,
                "boundaries": [int]}
_LR_AXES = {"lr0": float, "decrease_factor": float, "lr_step_length": int}

# allowed keys: a dict marks a nested section, any other value the JSON type of
# a leaf: int (an integral number), float (a number), str, or [t] (a list of t)
_SCHEMA = {
    "dataset": {
        "synthetic": {"classes": int, "dim": int, "n_per_class": int, "spread": float,
                      "seed": int},
        "train_csv": str, "test_csv": str, "bayes_json": str, "embeddings_csv": str,
        "train_fraction": float, "split_seed": int,
    },
    "condition": str,
    "scoring": {"kind": str, "path": str, "folds": int},
    "pacing": {"variant": str, **_PACING_AXES},
    "lr": {"variant": str, **_LR_AXES, "lr_min": float, "lr_max": float, "cycle_length": int},
    "model": {"architecture": str, "hidden": int},
    "batch_size": int,
    "iterations": int,
    "repetitions": int,
    "seed": int,
    "seeds": [int],
    "record_every": int,
    "selection": {"criterion": str, "window": int},
    "grid": {
        "pacing": {key: [t] for key, t in _PACING_AXES.items()},
        "lr": {key: [t] for key, t in _LR_AXES.items()},
        "validation_fraction": float,
        "split_seed": int,
    },
    "bootstrap": {"generations": int},
    "gradient_analysis": {"subset_fraction": float},
    "theory": {"instances": int, "constant_variance_families": int},
}

# the defaults written into every resolved tree
_DEFAULTS = {"condition": "vanilla", "scoring": {"kind": "oracle", "folds": 4},
             "pacing": {"starting_percent": 0.1}, "lr": {"variant": "exponential"},
             "model": {"architecture": "linear_softmax", "hidden": 0},
             "batch_size": 100, "iterations": 3000, "record_every": 50,
             "selection": {"criterion": "final_accuracy", "window": 5}}
# the defaults of each pacing variant, and the LRSchedule fields each
# learning-rate variant reads, with their defaults
_PACING_DEFAULTS = {"fixed_exp": {"increase": 1.9, "step_length": 100},
                    "varied_exp": {"increase": 1.9}, "single_step": {"step_length": 100}}
_LR_DEFAULTS = {"exponential": {"lr0": 0.1, "decrease_factor": 1.5, "lr_step_length": 500},
                "cyclical": {"lr_min": 0.01, "lr_max": 0.1, "cycle_length": 500}}
# the counts and seeds that must be >= 0
_NON_NEGATIVE = ("dataset.synthetic.seed", "dataset.split_seed", "seed", "grid.split_seed",
                 "bootstrap.generations", "theory.instances", "theory.constant_variance_families")


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
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
    """Resolved experiment settings; `tree` retains the exact resolved JSON,
    `dataset` is its dataset section converted to the schema types."""

    tree: dict
    dataset: dict
    condition: str
    scoring_kind: str
    scoring_path: str | None
    scoring_folds: int
    base_seed: int  # the config's seed, or its first repetition seed
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


def _check_referenced_files(view: dict) -> None:
    missing = [f"{key} ({value})" for key in _FILE_KEYS
               if (value := _get(view, key)) is not None and not os.path.isfile(value)]
    if missing:
        raise ConfigError("referenced file(s) do not exist: " + ", ".join(missing))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _typed(t, value, key: str):
    """`value` as the JSON type `t` of its schema leaf: a string for str, a
    number for float, an integral number for int (int() would truncate 150.9),
    a list of `t[0]` for [t]. A boolean is no number, and NaN or ±Infinity no
    float; any other value is a ConfigError naming the dotted `key`."""
    if isinstance(t, list):
        if isinstance(value, list):
            return [_typed(t[0], v, key) for v in value]
    elif t is str:
        if isinstance(value, str):
            return value
    elif t is float and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    elif (isinstance(value, (int, float)) and not isinstance(value, bool)
          and (t is float or isinstance(value, int) or value.is_integer())):
        try:
            return t(value)
        except OverflowError:  # an int past the float range
            pass
    name = "list" if isinstance(t, list) else t.__name__
    raise ConfigError(f"{key} must be of type {name}, got {value!r}")


def _typed_tree(tree: dict, schema: dict = _SCHEMA, prefix: str = "") -> dict:
    """A validated tree with every leaf converted to its schema type."""
    return {key: _typed_tree(value, schema[key], f"{prefix}{key}.") if isinstance(value, dict)
            else _typed(schema[key], value, prefix + key)
            for key, value in tree.items()}


def _fill(tree: dict, defaults: dict) -> None:
    """Write each default the tree lacks into it, section by section."""
    for key, value in defaults.items():
        if isinstance(value, dict):
            _fill(tree.setdefault(key, {}), value)
        else:
            tree.setdefault(key, value)


def resolve_config(tree: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config tree and fill defaults; returns the resolved config.

    The defaults go into the tree first; then `_typed_tree` converts the whole
    tree, and every check and object below reads that converted view. The
    resolved tree (with defaults, the derived seeds and boundaries, and the
    seed override applied) keeps each value as written, so manifests can
    reproduce the run byte-for-byte.
    """
    validate_tree(tree)
    tree = json.loads(json.dumps(tree))  # deep copy, JSON-clean

    if seed_override is not None:
        tree["seed"] = int(seed_override)
        tree.pop("seeds", None)

    # the defaults; values are not typed yet, so a variant is compared by ==
    # (a list is unhashable)
    _fill(tree, _DEFAULTS)
    pacing = tree["pacing"]
    if tree["condition"] == "vanilla":
        pacing["variant"] = "vanilla"
    pacing.setdefault("variant", "fixed_exp")
    for section, variants in (("pacing", _PACING_DEFAULTS), ("lr", _LR_DEFAULTS)):
        for name, defaults in variants.items():
            if tree[section]["variant"] == name:
                _fill(tree[section], defaults)
    if "seeds" not in tree:
        _fill(tree, {"repetitions": 1, "seed": 0})
    if "grid" in tree:
        _fill(tree["grid"], {"validation_fraction": 0.8, "split_seed": 0})

    view = _typed_tree(tree)

    dataset = view.get("dataset", {})
    if "synthetic" in dataset:
        missing = [f"dataset.synthetic.{key}" for key in _SCHEMA["dataset"]["synthetic"]
                   if key not in dataset["synthetic"]]
        _require(not missing, "missing config key(s): " + ", ".join(missing))
    for key in _NON_NEGATIVE:
        _require(_get(view, key, 0) >= 0, f"{key} must be >= 0, got {_get(view, key)}")
    for key in ("dataset.train_fraction", "grid.validation_fraction"):
        if (value := _get(view, key)) is not None:
            _require(0.0 < value < 1.0, f"{key} must be in (0, 1), got {value!r}")
    subset_fraction = _get(view, "gradient_analysis.subset_fraction", 0.1)
    _require(0.0 < subset_fraction <= 1.0,
             f"gradient_analysis.subset_fraction must be in (0, 1], got {subset_fraction!r}")

    condition = view["condition"]
    _require(condition in CONDITIONS, f"condition must be one of {CONDITIONS}, got {condition!r}")
    scoring = view["scoring"]
    kind = scoring["kind"]
    _require(kind in SCORING_KINDS, f"scoring.kind must be one of {SCORING_KINDS}, got {kind!r}")
    _require(scoring["folds"] >= 2, "scoring.folds must be >= 2")
    if kind == "file":
        _require("path" in scoring, "scoring.kind=file requires scoring.path")
    _check_referenced_files(view)

    p = view["pacing"]
    boundaries = p.get("boundaries")
    if p["variant"] == "varied_exp":
        _require(boundaries is not None and len(boundaries) >= 1,
                 "varied_exp requires pacing.boundaries (at least the first two step ends)")
        boundaries = list(extend_boundaries(boundaries, p["starting_percent"], p.get("increase")))
        pacing["boundaries"] = boundaries

    lr_variant = view["lr"]["variant"]
    _require(lr_variant in _LR_DEFAULTS,
             f"lr.variant must be exponential or cyclical, got {lr_variant!r}")
    schedule = LRSchedule(variant=lr_variant,
                          **{key: view["lr"][key] for key in _LR_DEFAULTS[lr_variant]})

    for key in ("batch_size", "iterations", "record_every"):
        _require(view[key] >= 1, f"{key} must be >= 1")

    if "seeds" in view:
        seeds = tuple(view["seeds"])
        _require(len(seeds) >= 1, "seeds must be non-empty")
        _require(min(seeds) >= 0, f"seeds must be >= 0, got {min(seeds)}")
        _require(len(set(seeds)) == len(seeds), f"seeds must be distinct, got {list(seeds)}")
        _require(view.get("repetitions", len(seeds)) == len(seeds),
                 "repetitions does not match the length of seeds")
        tree["repetitions"] = len(seeds)
    else:
        _require(view["repetitions"] >= 1, "repetitions must be >= 1")
        seeds = tuple(view["seed"] + r for r in range(view["repetitions"]))
        tree["seeds"] = list(seeds)

    selection = view["selection"]
    _require(selection["criterion"] in CRITERIA, f"selection.criterion must be one of {CRITERIA}")
    _require(selection["window"] >= 1, "selection.window must be >= 1")

    grid = None
    if "grid" in view:
        # the axes keep their values as written: each cell's tree is resolved again
        axes = {section: tree["grid"].get(section, {}) for section in ("pacing", "lr")}
        empty = [f"grid.{s}.{key}" for s, axis in axes.items() for key, v in axis.items() if not v]
        _require(not empty, f"{', '.join(empty)} must be a non-empty list")
        grid = GridSpec(**axes, validation_fraction=view["grid"]["validation_fraction"],
                        split_seed=view["grid"]["split_seed"])

    return ExperimentConfig(
        tree=tree, dataset=dataset, condition=condition, scoring_kind=kind,
        scoring_path=scoring.get("path"), scoring_folds=scoring["folds"],
        base_seed=view.get("seed", seeds[0]), pacing_variant=p["variant"],
        starting_percent=p["starting_percent"], increase=p.get("increase"),
        step_length=p.get("step_length"), boundaries=tuple(boundaries) if boundaries else None,
        schedule=schedule, model_spec=ModelSpec(**view["model"]),
        batch_size=view["batch_size"], iterations=view["iterations"], seeds=seeds,
        record_every=view["record_every"], criterion=selection["criterion"],
        window=selection["window"], grid=grid,
        generations=_get(view, "bootstrap.generations", 1),
        subset_fraction=subset_fraction,
        theory_instances=_get(view, "theory.instances", DEFAULT_INSTANCES),
        theory_families=_get(view, "theory.constant_variance_families", DEFAULT_FAMILIES))


def pacing_spec_for(config: ExperimentConfig, N: int) -> PacingSpec:
    """Instantiate the config's pacing for a concrete dataset size."""
    return PacingSpec(variant=config.pacing_variant, N=N, M=config.iterations,
                      starting_percent=config.starting_percent, increase=config.increase,
                      step_length=config.step_length, boundaries=config.boundaries)
