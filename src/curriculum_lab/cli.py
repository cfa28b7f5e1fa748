"""Command-line entry points.

Every subcommand resolves its config, runs, writes its artifacts below --out,
and finishes with a manifest.json recording the resolved config plus the list
of files it produced, so any artifact can be regenerated from the manifest;
`replay` reruns a manifest and compares the bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import _shown, load_config_tree, resolve_config
from .data import save_dataset_csv, write_json
from .errors import ConfigError, DataLoadError, ExperimentError, NumericalError, \
    ParameterError, TrainingDivergedError
from .harness import bootstrap_loop, default_acceptance_tree, \
    gradient_coherence_pipeline, resolve_dataset, run_experiment, score_tables, \
    two_stage_grid_search
from .scoring import save_scores_csv
from .theory import run_verification


def _finish(out: Path, command: str, config_tree: dict, outputs: list[str]) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": config_tree,
        "outputs": sorted(outputs),
    })
    print(f"{command}: wrote {len(outputs)} artifact(s) to {out}")


def _out_dir(path) -> Path:
    """The --out directory, made if absent; a path that cannot be one (an
    existing file, or a file on the way) is a ConfigError naming --out."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot make the output directory: {exc}") from None
    return out


def _load(args, flag: str | None = None):
    """The resolved config and the --out directory. `flag`, a dotted config
    key `section.name`, is set from the command's --name when that is given,
    so the manifest records it. A replay hands the manifest's config as `tree`."""
    tree = getattr(args, "tree", None)
    if tree is None:
        tree = default_acceptance_tree() if args.config is None else load_config_tree(args.config)
    if flag is not None:
        section, name = flag.split(".")
        if (value := getattr(args, name)) is not None:
            tree.setdefault(section, {})[name] = value
    return resolve_config(tree, seed_override=args.seed), _out_dir(args.out)


def cmd_gen_data(args) -> int:
    config, out = _load(args)
    train_ds, test_ds = resolve_dataset(config)
    outputs = ["train.csv", "test.csv"]
    save_dataset_csv(train_ds, out / "train.csv")
    save_dataset_csv(test_ds, out / "test.csv")
    if train_ds.bayes is not None:
        write_json(out / "bayes.json", train_ds.bayes.to_json())
        outputs.append("bayes.json")
    _finish(out, "gen-data", config.tree, outputs + ["manifest.json"])
    return 0


def cmd_score(args) -> int:
    config, out = _load(args)
    # the table of the first repetition seed; scoring the others is wasted work
    first = dataclasses.replace(config, seeds=config.seeds[:1])
    ((table,),) = score_tables([first], resolve_dataset(config))
    if isinstance(table, Exception):
        raise table
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    save_scores_csv(table, out / "scores.csv")
    _finish(out, "score", config.tree, ["scores.csv", "manifest.json"])
    return 0


def cmd_train(args) -> int:
    config, out = _load(args)
    result = run_experiment(config, out_dir=out)
    _finish(out, "train", config.tree, result.files + ["manifest.json"])
    print(f"final accuracy {result.summary['final_accuracy_mean']:.4f} "
          f"(STE {result.summary['final_accuracy_ste']:.4f})")
    return 0


def cmd_grid_search(args) -> int:
    config, out = _load(args)
    _best, audit = two_stage_grid_search(config, out_dir=out)
    _finish(out, "grid-search", config.tree,
            ["grid_audit.json", "best_config.json", "manifest.json"])
    print(f"best {audit['criterion']} = {audit['best_value']:.4f} "
          f"over {audit['cell_counts']['total']} cells")
    return 0


def cmd_bootstrap(args) -> int:
    config, out = _load(args, "bootstrap.generations")
    results = bootstrap_loop(config, out_dir=out)
    _finish(out, "bootstrap", config.tree,
            [name for result in results for name in result.files] + ["manifest.json"])
    for result in results:
        print(f"generation {result.summary['generation']}: "
              f"final accuracy {result.summary['final_accuracy_mean']:.4f}")
    return 0


def cmd_analyze_gradients(args) -> int:
    config, out = _load(args)
    report = gradient_coherence_pipeline(config)
    write_json(out / "gradient_report.json", report)
    _finish(out, "analyze-gradients", config.tree,
            ["gradient_report.json", "manifest.json"])
    print(f"variance(easy) < variance(random) in "
          f"{report['fraction_variance_easy_below_random']:.0%} of seeds")
    return 0


def cmd_verify_theory(args) -> int:
    config, out = _load(args, "theory.instances")
    instances = config.theory["instances"]
    report = run_verification(instances, config.theory["constant_variance_families"],
                              config.seeds[0])
    write_json(out / "theory_report.json", report)
    _finish(out, "verify-theory", config.tree, ["theory_report.json", "manifest.json"])
    print(f"theory verification over {instances} instances: "
          f"{'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


_REPLAYABLE = ("gen-data", "score", "train", "grid-search", "bootstrap", "analyze-gradients",
              "verify-theory")


def cmd_replay(args) -> int:
    """Rerun RUN_DIR's manifest into --out; 0 when both directories hold the
    same files with the same bytes, else 1, naming each file that does not."""
    run, out = Path(args.run_dir), Path(args.out)
    if run.resolve() in (out.resolve(), *out.resolve().parents):
        raise ConfigError(f"--out {out} is the run directory {run} or lies inside it")
    path = run / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and deep nesting included
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or not {"command", "config"} <= manifest.keys():
        raise ConfigError(f"{path}: a manifest holds the keys command and config")
    if manifest["command"] not in _REPLAYABLE:
        raise ConfigError(f"{path}: cannot replay command {_shown(manifest['command'])}")
    rerun = build_parser().parse_args([manifest["command"], "--out", str(out)])
    rerun.tree = manifest["config"]
    rerun.fn(rerun)
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

    sub.add_parser("gen-data", parents=[common],
                   help="generate the synthetic dataset and write CSV splits").set_defaults(fn=cmd_gen_data)
    sub.add_parser("score", parents=[common],
                   help="compute a difficulty score table for the training split").set_defaults(fn=cmd_score)
    sub.add_parser("train", parents=[common],
                   help="train the configured condition over all repetition seeds").set_defaults(fn=cmd_train)
    sub.add_parser("grid-search", parents=[common],
                   help="two-stage hyper-parameter search on a validation split").set_defaults(fn=cmd_grid_search)
    boot = sub.add_parser("bootstrap", parents=[common],
                          help="repeated self-taught scoring and retraining")
    boot.add_argument("--generations", type=int, default=None,
                      help="number of curriculum generations after the vanilla run")
    boot.set_defaults(fn=cmd_bootstrap)
    sub.add_parser("analyze-gradients", parents=[common],
                   help="gradient coherence report on vanilla-trained models").set_defaults(fn=cmd_analyze_gradients)
    verify = sub.add_parser("verify-theory", parents=[common],
                            help="randomized verification of the utility-landscape results")
    verify.add_argument("--instances", type=int, default=None,
                        help="number of random instances")
    verify.set_defaults(fn=cmd_verify_theory)
    replay = sub.add_parser("replay", help="rerun a run directory's manifest and compare the bytes")
    replay.add_argument("run_dir", metavar="RUN_DIR", help="a directory holding manifest.json")
    replay.add_argument("--out", required=True, metavar="NEW_DIR", help="where the rerun writes")
    replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("seed", "instances", "generations"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ConfigError(f"--{flag} must be >= 0, got {value}")
        return args.fn(args)
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
