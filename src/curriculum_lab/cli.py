"""Command-line entry points.

The CLI owns the run directory; the harness it calls writes nothing. One
table, `COMMANDS`, names each command's function, its help and the config
key its own flag sets; the parser, `main` and `replay` read it. A command
writes every artifact through one `_Out`, which records each name as it is
written, and its run ends with a manifest.json recording the resolved
config and those names, so any artifact can be regenerated from the
manifest; `replay` reruns a manifest and compares the bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .config import ExperimentConfig, _shown, load_config_tree, resolve_config
from .data import save_dataset_csv, write_json
from .errors import ConfigError, DataLoadError, ExperimentError, NumericalError, \
    ParameterError, TrainingDivergedError
from .harness import ExperimentResult, bootstrap_loop, default_acceptance_tree, \
    gradient_coherence_pipeline, resolve_dataset, run_experiment, score_tables, \
    two_stage_grid_search
from .scoring import save_scores_csv
from .theory import run_verification

MANIFEST = "manifest.json"


class _Out:
    """The --out directory, made if absent; `out(name)` records the artifact
    `name` and gives its path. A path that cannot be a directory (an existing
    file, or a file on the way) is a ConfigError naming --out."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {path}: cannot make the output directory: {exc}") from None
        self.names: list[str] = []

    def __call__(self, name: str) -> Path:
        self.names.append(name)
        return self.path / name


def _write_run(out: _Out, result: ExperimentResult, tag: str, summary_name: str) -> None:
    """`curve_{tag}_seed{s}.csv` for each trained seed s, then the summary as
    `summary_name`."""
    for seed, curve in result.curves.items():
        curve.to_csv(out(f"curve_{tag}_seed{seed}.csv"))
    write_json(out(summary_name), result.summary)


# Each command writes its artifacts through `out` and returns its exit code
# and the report printed after the manifest.

def cmd_gen_data(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    train_ds, test_ds = resolve_dataset(config)
    save_dataset_csv(train_ds, out("train.csv"))
    save_dataset_csv(test_ds, out("test.csv"))
    if train_ds.bayes is not None:
        write_json(out("bayes.json"), train_ds.bayes.to_json())
    return 0, ""


def cmd_score(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    # the table of the first repetition seed; scoring the others is wasted work
    first = dataclasses.replace(config, seeds=config.seeds[:1])
    ((table,),) = score_tables([first], resolve_dataset(config))
    if isinstance(table, Exception):
        raise table
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    save_scores_csv(table, out("scores.csv"))
    return 0, ""


def cmd_train(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    result = run_experiment(config)
    _write_run(out, result, config.condition, "summary.json")
    return 0, (f"final accuracy {result.summary['final_accuracy_mean']:.4f} "
               f"(STE {result.summary['final_accuracy_ste']:.4f})")


def cmd_grid_search(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    best, audit = two_stage_grid_search(config)
    write_json(out("grid_audit.json"), audit)
    if best is None:
        raise ExperimentError(f"all {audit['cell_counts']['total']} grid cells failed; "
                              f"first error: {audit['entries'][0]['error']}")
    write_json(out("best_config.json"), best.tree)
    return 0, (f"best {audit['criterion']} = {audit['best_value']:.4f} "
               f"over {audit['cell_counts']['total']} cells")


def cmd_bootstrap(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    lines = []
    for result in bootstrap_loop(config):  # each generation is written as it ends
        g = result.summary["generation"]
        _write_run(out, result, f"gen{g}", f"summary_gen{g}.json")
        lines.append(f"generation {g}: final accuracy {result.summary['final_accuracy_mean']:.4f}")
    return 0, "\n".join(lines)


def cmd_analyze_gradients(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    report = gradient_coherence_pipeline(config)
    write_json(out("gradient_report.json"), report)
    return 0, (f"variance(easy) < variance(random) in "
               f"{report['fraction_variance_easy_below_random']:.0%} of seeds")


def cmd_verify_theory(config: ExperimentConfig, out: _Out) -> tuple[int, str]:
    instances = config.theory["instances"]
    report = run_verification(instances, config.theory["constant_variance_families"],
                              config.seeds[0])
    write_json(out("theory_report.json"), report)
    return 0 if report["passed"] else 1, (f"theory verification over {instances} instances: "
                                          f"{'PASS' if report['passed'] else 'FAIL'}")


class _Command(NamedTuple):
    fn: Callable[[ExperimentConfig, _Out], tuple[int, str]]
    help: str
    key: str | None = None  # the config key `section.name` that the flag --name sets
    key_help: str | None = None


COMMANDS = {
    "gen-data": _Command(cmd_gen_data, "generate the synthetic dataset and write CSV splits"),
    "score": _Command(cmd_score, "compute a difficulty score table for the training split"),
    "train": _Command(cmd_train, "train the configured condition over all repetition seeds"),
    "grid-search": _Command(cmd_grid_search,
                            "two-stage hyper-parameter search on a validation split"),
    "bootstrap": _Command(cmd_bootstrap, "repeated self-taught scoring and retraining",
                          "bootstrap.generations",
                          "number of curriculum generations after the vanilla run"),
    "analyze-gradients": _Command(cmd_analyze_gradients,
                                  "gradient coherence report on vanilla-trained models"),
    "verify-theory": _Command(cmd_verify_theory,
                              "randomized verification of the utility-landscape results",
                              "theory.instances", "number of random instances"),
}


def _run(command: str, tree: dict, seed: int | None, out_path) -> int:
    """Run `command` on `tree`, its base seed overridden by `seed` when given,
    into `out_path`; the manifest, written last, lists every artifact."""
    config = resolve_config(tree, seed_override=seed)
    out = _Out(out_path)
    status, report = COMMANDS[command].fn(config, out)
    manifest = out(MANIFEST)  # listed among its own outputs
    write_json(manifest, {"command": command, "config": config.tree,
                          "outputs": sorted(out.names)})
    print(f"{command}: wrote {len(out.names)} artifact(s) to {out.path}")
    if report:
        print(report)
    return status


def _replay(run: Path, out: Path) -> int:
    """Rerun RUN_DIR's manifest into --out; 0 when both directories hold the
    same files with the same bytes, else 1, naming each file that does not."""
    if run.resolve() in (out.resolve(), *out.resolve().parents):
        raise ConfigError(f"--out {out} is the run directory {run} or lies inside it")
    path = run / MANIFEST
    try:
        manifest = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and deep nesting included
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or not {"command", "config"} <= manifest.keys():
        raise ConfigError(f"{path}: a manifest holds the keys command and config")
    command = manifest["command"]
    if not isinstance(command, str) or command not in COMMANDS:  # a list is unhashable
        raise ConfigError(f"{path}: cannot replay command {_shown(command)}")
    _run(command, manifest["config"], None, out)
    old, new = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}
                for d in (run, out))
    faults = [f"{name} differs" for name in sorted(old & new)
              if (run / name).read_bytes() != (out / name).read_bytes()]
    faults += [f"only in {side}: {name}" for side, names in ((run, old - new), (out, new - old))
               for name in sorted(names)]
    print("".join(f"replay: {fault}\n" for fault in faults)
          + f"replay: {len(faults)} of {len(old | new)} file(s) differ between {run} and {out}")
    return 1 if faults else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to a JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed")
    common.add_argument("--out", default="out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="curriculum-lab",
        description="Curriculum learning laboratory: scoring, pacing, training, analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=command.help)
        if command.key is not None:
            cmd.add_argument(f"--{command.key.split('.')[1]}", type=int, default=None,
                             help=command.key_help)
    replay = sub.add_parser("replay", help="rerun a run directory's manifest and compare the bytes")
    replay.add_argument("run_dir", metavar="RUN_DIR", help=f"a directory holding {MANIFEST}")
    replay.add_argument("--out", required=True, metavar="NEW_DIR", help="where the rerun writes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return _replay(Path(args.run_dir), Path(args.out))
        key = COMMANDS[args.command].key
        section, flag = key.split(".") if key is not None else (None, None)
        value = None if flag is None else getattr(args, flag)
        for name, given in (("seed", args.seed), (flag, value)):
            if given is not None and given < 0:
                raise ConfigError(f"--{name} must be >= 0, got {given}")
        tree = default_acceptance_tree() if args.config is None else load_config_tree(args.config)
        if value is not None:
            tree.setdefault(section, {})[flag] = value
        return _run(args.command, tree, args.seed, args.out)
    except (ConfigError, ParameterError, DataLoadError, ExperimentError, NumericalError,
            TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact that cannot be written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
