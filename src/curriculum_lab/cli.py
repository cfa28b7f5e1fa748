"""Command-line entry points.

Every subcommand resolves its config, runs, writes its artifacts below --out,
and finishes with a manifest.json recording the resolved config plus the list
of files it produced, so any artifact can be regenerated from the manifest.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config_tree, resolve_config
from .data import save_bayes_json, save_dataset_csv
from .errors import ConfigError, DataLoadError, ExperimentError, NumericalError, \
    ParameterError, TrainingDivergedError
from .harness import bootstrap_loop, default_acceptance_tree, \
    gradient_coherence_pipeline, make_score_provider, resolve_dataset, \
    run_experiment, two_stage_grid_search
from .scoring import save_scores_csv
from .theory import DEFAULT_FAMILIES, DEFAULT_INSTANCES, run_verification


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _finish(out: Path, command: str, config_tree: dict, outputs: list[str]) -> None:
    _write_json(out / "manifest.json", {
        "command": command,
        "config": config_tree,
        "outputs": sorted(outputs),
    })
    print(f"{command}: wrote {len(outputs)} artifact(s) to {out}")


def _load(args):
    if args.config is None:
        tree = default_acceptance_tree()
    else:
        tree = load_config_tree(args.config)
    config = resolve_config(tree, seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def cmd_gen_data(args) -> int:
    config, out = _load(args)
    train_ds, test_ds, _emb = resolve_dataset(config)
    outputs = ["train.csv", "test.csv"]
    save_dataset_csv(train_ds, out / "train.csv")
    save_dataset_csv(test_ds, out / "test.csv")
    if train_ds.bayes is not None:
        save_bayes_json(train_ds.bayes, out / "bayes.json")
        outputs.append("bayes.json")
    _finish(out, "gen-data", config.tree, outputs + ["manifest.json"])
    return 0


def cmd_score(args) -> int:
    config, out = _load(args)
    train_ds, _test_ds, emb = resolve_dataset(config)
    provider = make_score_provider(config, train_ds, emb)
    (table,) = provider([config.seeds[0]])
    if isinstance(table, ExperimentError):
        raise table
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    save_scores_csv(table, out / "scores.csv")
    _finish(out, "score", config.tree, ["scores.csv", "manifest.json"])
    return 0


def cmd_train(args) -> int:
    config, out = _load(args)
    result = run_experiment(config, out_dir=out)
    outputs = [f"curve_{config.condition}_seed{s}.csv" for s in result.curves]
    outputs += ["summary.json", "manifest.json"]
    _finish(out, "train", config.tree, outputs)
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
    config, out = _load(args)
    summaries = bootstrap_loop(config, generations=args.generations, out_dir=out)
    outputs = ["manifest.json"]
    for g, summary in enumerate(summaries):
        outputs.append(f"summary_gen{g}.json")
        outputs += [f"curve_gen{g}_seed{s}.csv" for s in summary["seeds"]
                    if s not in summary["failed_seeds"]]
    _finish(out, "bootstrap", config.tree, outputs)
    for summary in summaries:
        print(f"generation {summary['generation']}: "
              f"final accuracy {summary['final_accuracy_mean']:.4f}")
    return 0


def cmd_analyze_gradients(args) -> int:
    config, out = _load(args)
    report = gradient_coherence_pipeline(config)
    _write_json(out / "gradient_report.json", report)
    _finish(out, "analyze-gradients", config.tree,
            ["gradient_report.json", "manifest.json"])
    print(f"variance(easy) < variance(random) in "
          f"{report['fraction_variance_easy_below_random']:.0%} of seeds")
    return 0


def cmd_verify_theory(args) -> int:
    if args.config is not None:
        tree = load_config_tree(args.config)
        if args.instances is not None:
            tree.setdefault("theory", {})["instances"] = args.instances
        config = resolve_config(tree, seed_override=args.seed)
        instances = config.theory_instances
        families = config.theory_families
        seed = config.seeds[0]
        config_tree = config.tree
    else:
        instances = DEFAULT_INSTANCES if args.instances is None else args.instances
        families = DEFAULT_FAMILIES
        seed = args.seed if args.seed is not None else 0
        config_tree = {"theory": {"instances": instances, "constant_variance_families": families},
                       "seed": seed}
    report = run_verification(instances=instances, constant_variance_families=families, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "theory_report.json", report)
    _finish(out, "verify-theory", config_tree, ["theory_report.json", "manifest.json"])
    print(f"theory verification over {instances} instances: "
          f"{'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError, DataLoadError, ExperimentError, NumericalError,
            TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
