"""Experiment configuration: a JSON tree with a closed, typed key schema.

`_SCHEMA` is the one declaration of the format: each leaf is the JSON type of
its value (`int`, `float`, `str`, or `[t]` for a list of `t`), or a pair of
that type and its domain: `"> a"` or `">= a"`, an interval such as
`"(0, 1]"`, or a tuple of the allowed strings; a list's domain holds for each
element. Unknown keys anywhere in the tree are hard errors (listed by dotted
path), so a typo cannot silently fall back to a default and taint an
experiment, and a value of the wrong type or outside its domain is an error
naming its dotted key, also where the variant does not read it.
`resolve_config` writes the defaults into the tree, converts the whole tree
in one walk, and builds every check and object from that converted view; the
tree keeps its values as written, so a manifest reproduces the run.
"""
from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass

from .errors import ConfigError, ParameterError
from .pacing import _READS, PacingSpec, extend_boundaries, stage_starts
from .theory import DEFAULT_FAMILIES, DEFAULT_INSTANCES
from .trainer import ARCHITECTURES, LRSchedule, ModelSpec

# the defaults of each pacing variant, and the LRSchedule fields each
# learning-rate variant reads, with their defaults
_PACING_DEFAULTS = {"fixed_exp": {"increase": 1.9, "step_length": 100},
                    "varied_exp": {"increase": 1.9}, "single_step": {"step_length": 100}}
_LR_DEFAULTS = {"exponential": {"lr0": 0.1, "decrease_factor": 1.5, "lr_step_length": 500},
                "cyclical": {"lr_min": 0.01, "lr_max": 0.1, "cycle_length": 500}}

# the pacing and learning-rate leaves a grid axis may sweep; step_length 0 is
# a legal single_step (fixed_exp's PacingSpec needs 1)
_PACING_AXES = {"starting_percent": (float, "(0, 1]"), "increase": (float, "> 1"),
                "step_length": (int, ">= 0"), "boundaries": ([int], ">= 0")}
_LR_AXES = {"lr0": (float, "> 0"), "decrease_factor": (float, "> 1"),
            "lr_step_length": (int, ">= 1")}

# allowed keys: a dict marks a nested section, any other value a leaf: the
# JSON type of its value, int (an integral number), float (a number), str or
# [t] (a list of t), or a (type, domain) pair
_SCHEMA = {
    "dataset": {
        "synthetic": {"classes": (int, ">= 2"), "dim": (int, ">= 1"),
                      "n_per_class": (int, ">= 1"), "spread": (float, "> 0"),
                      "seed": (int, ">= 0")},
        "train_csv": str, "test_csv": str, "bayes_json": str, "embeddings_csv": str,
        "train_fraction": (float, "(0, 1)"), "split_seed": (int, ">= 0"),
    },
    "condition": (str, ("curriculum", "anti", "random", "vanilla", "self_paced")),
    "scoring": {"kind": (str, ("oracle", "self_taught", "transfer", "file")), "path": str,
                "folds": (int, ">= 2")},
    "pacing": {"variant": (str, (*_PACING_DEFAULTS, "vanilla")), **_PACING_AXES},
    "lr": {"variant": (str, tuple(_LR_DEFAULTS)), **_LR_AXES, "lr_min": (float, "> 0"),
           "lr_max": (float, "> 0"), "cycle_length": (int, ">= 2")},
    "model": {"architecture": (str, ARCHITECTURES), "hidden": (int, ">= 0")},
    "batch_size": (int, ">= 1"),
    "iterations": (int, ">= 1"),
    "repetitions": (int, ">= 1"),
    "seed": (int, ">= 0"),
    "seeds": ([int], ">= 0"),
    "record_every": (int, ">= 1"),
    "selection": {"criterion": (str, ("final_accuracy", "auc")), "window": (int, ">= 1")},
    "grid": {
        "pacing": {key: ([t], domain) for key, (t, domain) in _PACING_AXES.items()},
        "lr": {key: ([t], domain) for key, (t, domain) in _LR_AXES.items()},
        "validation_fraction": (float, "(0, 1)"),
        "split_seed": (int, ">= 0"),
    },
    "bootstrap": {"generations": (int, ">= 0")},
    "gradient_analysis": {"subset_fraction": (float, "(0, 1]")},
    "theory": {"instances": (int, ">= 0"), "constant_variance_families": (int, ">= 0")},
}

# the defaults written into every resolved tree
_DEFAULTS = {"condition": "vanilla", "scoring": {"kind": "oracle", "folds": 4},
             "pacing": {"starting_percent": 0.1}, "lr": {"variant": "exponential"},
             "model": {"architecture": "linear_softmax", "hidden": 0},
             "batch_size": 100, "iterations": 3000, "record_every": 50,
             "selection": {"criterion": "final_accuracy", "window": 5}}
# the defaults of the sections a resolved tree leaves out: the view alone gets them
_VIEW_DEFAULTS = {"dataset": {}, "bootstrap": {"generations": 1},
                  "gradient_analysis": {"subset_fraction": 0.1},
                  "theory": {"instances": DEFAULT_INSTANCES,
                             "constant_variance_families": DEFAULT_FAMILIES}}


def _collect_unknown(tree: dict, schema: dict, prefix: str = "") -> list[str]:
    unknown = []
    for key, value in tree.items():
        path, section = f"{prefix}{key}", isinstance(value, dict)
        if key not in schema:
            unknown.append(path)
        elif section != isinstance(schema[key], dict):
            unknown.append(f"{path} (expected a {'value' if section else 'section'}, "
                           f"got a {'section' if section else 'value'})")
        elif section:
            unknown += _collect_unknown(value, schema[key], f"{path}.")
    return unknown


def validate_tree(tree: dict) -> None:
    """Check the tree as written: its keys, and each value's type and domain."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = _collect_unknown(tree, _SCHEMA)
    if unknown:
        raise ConfigError("unknown config key(s): " + _cut(", ".join(sorted(unknown))))
    _typed_tree(tree)


def load_config_tree(path) -> dict:
    try:
        with open(path) as f:
            tree = json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also a huge integer or deep nesting
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    validate_tree(tree)
    return tree


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings. `tree` retains the exact resolved JSON;
    `dataset`, `scoring`, `pacing`, `selection` and `theory` are its sections
    converted to the schema types (`pacing` holds PacingSpec's fields but N
    and M), and `grid` is its grid section with the axes as written, or None."""

    tree: dict
    dataset: dict
    condition: str
    scoring: dict
    base_seed: int  # the config's seed, or its first repetition seed
    pacing: dict
    schedule: LRSchedule
    model_spec: ModelSpec
    batch_size: int
    iterations: int
    seeds: tuple[int, ...]
    record_every: int
    selection: dict
    grid: dict | None
    generations: int
    subset_fraction: float
    theory: dict

    @property
    def repetitions(self) -> int:
        return len(self.seeds)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# a config value in an error line: reprlib's abbreviation past 3 levels of
# nesting, 20 items or 80 characters, and at most _ECHO_LIMIT characters in all
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxlist = _ECHO.maxdict = 20
_ECHO.maxstring = _ECHO.maxother = _ECHO.maxlong = 80
_ECHO_LIMIT = 200


def _shown(value) -> str:
    """repr(value) for an error message, shortened when long or deep, so an
    oversized config value gives a short error line."""
    text = _ECHO.repr(value)
    if "..." not in text:  # nothing left out, so shallow: repr() keeps a dict's key order
        text = repr(value)
    return _cut(text)


def _cut(text: str) -> str:
    """`text`, cut to _ECHO_LIMIT characters with "..." when longer."""
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT - 3] + "..."


def _in_domain(domain, v, key: str):
    """`v` if it lies in `domain` (None admits every value), else a
    ConfigError naming the dotted `key`."""
    if domain is None:
        return v
    if isinstance(domain, tuple):
        inside, phrase = v in domain, f"one of {domain}"
    elif domain[0] in "([":
        lo, hi = map(float, domain[1:-1].split(","))
        inside = (lo < v if domain[0] == "(" else lo <= v) and \
            (v < hi if domain[-1] == ")" else v <= hi)
        phrase = f"in {domain}"
    else:
        op, bound = domain.split()
        inside, phrase = (v > float(bound) if op == ">" else v >= float(bound)), domain
    if inside:
        return v
    raise ConfigError(f"{key} must be {phrase}, got {_shown(v)}")


def _typed(leaf, value, key: str):
    """`value` as the type of its schema leaf, checked against the leaf's
    domain: a string for str, a number for float, an integral number for int
    (int() would truncate 150.9), a list of `t[0]` for [t]. A boolean is no
    number, and NaN or ±Infinity no float; any other value is a ConfigError
    naming the dotted `key`."""
    t, domain = leaf if isinstance(leaf, tuple) else (leaf, None)
    if isinstance(t, list):
        if isinstance(value, list):
            return [_typed((t[0], domain), v, key) for v in value]
    elif t is str:
        if isinstance(value, str):
            return _in_domain(domain, value, key)
    elif t is float and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    elif (isinstance(value, (int, float)) and not isinstance(value, bool)
          and (t is float or isinstance(value, int) or value.is_integer())):
        try:
            return _in_domain(domain, t(value), key)
        except OverflowError:  # an int past the float range
            pass
    name = "list" if isinstance(t, list) else t.__name__
    raise ConfigError(f"{key} must be of type {name}, got {_shown(value)}")


def _typed_tree(tree: dict, schema: dict = _SCHEMA, prefix: str = "") -> dict:
    """A tree of known keys with every leaf converted to its schema type and
    checked against its domain."""
    return {key: _typed_tree(value, schema[key], f"{prefix}{key}.") if isinstance(value, dict)
            else _typed(schema[key], value, prefix + key)
            for key, value in tree.items()}


def _built(section: str, cls, **fields):
    """`cls(**fields)`; a ParameterError, a rule across fields, names `section`."""
    try:
        return cls(**fields)
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _fill(tree: dict, defaults: dict) -> None:
    """Write each default the tree lacks into it, section by section."""
    for key, value in defaults.items():
        if isinstance(value, dict):
            _fill(tree.setdefault(key, {}), value)
        else:
            tree.setdefault(key, value)


def resolve_config(tree: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config tree and fill defaults; returns the resolved config.

    `validate_tree` checks the tree as written (a vanilla condition's pacing
    variant, which resolution overwrites, included). Then the defaults go
    into the tree, `_typed_tree` converts it, and every check and object
    below reads that converted view. The resolved tree (with defaults, the
    derived seeds and boundaries, and the seed override applied) keeps each
    value as written, so manifests can reproduce the run byte-for-byte.
    """
    validate_tree(tree)
    tree = json.loads(json.dumps(tree))  # deep copy, JSON-clean
    # checked before the seed override drops the list
    listed = tree.get("seeds")
    _require(not listed or tree.get("repetitions", len(listed)) == len(listed),
             "repetitions does not match the length of seeds")

    if seed_override is not None:
        tree["seed"] = int(seed_override)
        if tree.get("seeds"):  # the override keeps the list's repetition count
            tree.setdefault("repetitions", len(tree["seeds"]))
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
    _fill(view, _VIEW_DEFAULTS)

    dataset = view["dataset"]
    if "synthetic" in dataset:
        missing = [f"dataset.synthetic.{key}" for key in _SCHEMA["dataset"]["synthetic"]
                   if key not in dataset["synthetic"]]
        _require(not missing, "missing config key(s): " + ", ".join(missing))
    scoring = view["scoring"]
    # the input files that must exist; the embeddings are checked where they are read
    files = [("dataset", key) for key in ("train_csv", "test_csv", "bayes_json")]
    if scoring["kind"] == "file":
        _require("path" in scoring, "scoring.kind=file requires scoring.path")
        files.append(("scoring", "path"))
    missing = [f"{section}.{key} ({view[section][key]})" for section, key in files
               if key in view[section] and not os.path.isfile(view[section][key])]
    _require(not missing, "referenced file(s) do not exist: " + ", ".join(missing))

    p = view["pacing"]
    if p["variant"] == "varied_exp":
        _require(len(p.get("boundaries", ())) >= 1,
                 "varied_exp requires pacing.boundaries (at least the first two step ends)")
        p["boundaries"] = _built("pacing", extend_boundaries, bounds=p["boundaries"],
                                 starting_percent=p["starting_percent"], increase=p.get("increase"))
        pacing["boundaries"] = list(p["boundaries"])
    # the rules across pacing keys that do not read N hold for every command
    _built("pacing", stage_starts, **p)

    lr = view["lr"]
    schedule = _built("lr", LRSchedule, variant=lr["variant"],
                      **{key: lr[key] for key in _LR_DEFAULTS[lr["variant"]]})

    if "seeds" in view:
        seeds = tuple(view["seeds"])
        _require(len(seeds) >= 1, "seeds must be non-empty")
        _require(len(set(seeds)) == len(seeds),
                 f"seeds must be distinct, got {_shown(list(seeds))}")
        tree["repetitions"] = len(seeds)
    else:
        seeds = tuple(view["seed"] + r for r in range(view["repetitions"]))
        tree["seeds"] = list(seeds)

    grid = None
    if "grid" in view:
        # the axes keep their values as written: each cell's tree is resolved again
        axes = {section: tree["grid"].get(section, {}) for section in ("pacing", "lr")}
        empty = [f"grid.{s}.{key}" for s, axis in axes.items() for key, v in axis.items() if not v]
        _require(not empty, f"{', '.join(empty)} must be a non-empty list")
        # an axis the variant does not read trains the same model in every
        # cell; a vanilla condition's pacing axes only size its refined LR grid
        reads = {"pacing": _PACING_AXES if view["condition"] == "vanilla" else _READS[p["variant"]],
                 "lr": _LR_DEFAULTS[lr["variant"]]}
        unread = [f"grid.{s}.{key} is not read by {s}.variant {view[s]['variant']}"
                  for s, axis in axes.items() for key in axis if key not in reads[s]]
        _require(not unread, ", ".join(unread))
        grid = {**view["grid"], **axes}

    return ExperimentConfig(
        tree=tree, dataset=dataset, condition=view["condition"], scoring=scoring,
        base_seed=view.get("seed", seeds[0]), pacing=p, schedule=schedule,
        model_spec=_built("model", ModelSpec, **view["model"]),
        batch_size=view["batch_size"], iterations=view["iterations"], seeds=seeds,
        record_every=view["record_every"], selection=view["selection"], grid=grid,
        generations=view["bootstrap"]["generations"],
        subset_fraction=view["gradient_analysis"]["subset_fraction"], theory=view["theory"])


def pacing_spec_for(config: ExperimentConfig, N: int) -> PacingSpec:
    """Instantiate the config's pacing for a concrete dataset size."""
    return _built("pacing", PacingSpec, N=N, M=config.iterations, **config.pacing)
