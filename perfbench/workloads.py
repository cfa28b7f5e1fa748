"""The four benchmark workloads.

Each workload writes its config and input files during set-up, then drives
the program the way a user does: a list of ``curriculum-lab`` command lines
run through ``curriculum_lab.cli.main``. The workload seed (the benchmark's
``--seed``) only shapes the generated inputs; the program never sees it
directly.

Module-level code imports nothing heavy: the worker times ``import
curriculum_lab`` (and with it numpy) as part of set-up.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from perfbench import checks
from perfbench import reference as ref

# The calibrated reference mixture of the acceptance suite: 5 overlapping
# 16-dimensional Gaussian classes, 2500 train / 500 test points. Written out
# literally so that the benchmark's workload cannot drift with the program's
# defaults.
DATASET = {
    "synthetic": {"classes": 5, "dim": 16, "n_per_class": 600, "spread": 4.5,
                  "seed": 20312},
    "train_fraction": 5.0 / 6.0,
    "split_seed": 7,
}
N_TRAIN = 2500

# Pacing and learning-rate parameters are kept as decimal strings so that the
# checks can evaluate the staircase in exact rational arithmetic.
ACCEPTANCE_PACING = {"starting_percent": "0.1", "increase": "1.9", "step_length": 200}
ACCEPTANCE_LR = {"lr0": "1.2", "decrease_factor": "1.32", "lr_step_length": 300}


def _pacing(p: dict) -> dict:
    return {"variant": "fixed_exp", "starting_percent": float(p["starting_percent"]),
            "increase": float(p["increase"]), "step_length": int(p["step_length"])}


def _lr(p: dict) -> dict:
    return {"variant": "exponential", "lr0": float(p["lr0"]),
            "decrease_factor": float(p["decrease_factor"]),
            "lr_step_length": int(p["lr_step_length"])}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def train_split():
    """The program's training split of the reference mixture."""
    from curriculum_lab.config import resolve_config
    from curriculum_lab.harness import resolve_dataset
    return resolve_dataset(resolve_config({"dataset": DATASET}))[0]


def train_vanilla_model(tree: dict, seed: int):
    """Train one seed's vanilla model alone with the program and return it."""
    from curriculum_lab.config import resolve_config
    from curriculum_lab.harness import run_experiment
    config = resolve_config(dict(tree, condition="vanilla", seeds=[seed]))
    return run_experiment(config).models[seed]


def _summary_failures(path: Path, n_seeds: int) -> int:
    """Failed repetitions recorded in a summary; all of them if it is missing."""
    if not path.is_file():
        return n_seeds
    return len(read_json(path)["failed_seeds"])


@dataclass(frozen=True)
class AcceptancePair:
    """`train` vanilla, then `train` curriculum: the ROADMAP's north star."""

    name: ClassVar[str] = "acceptance_pair"
    why: ClassVar[str] = ("north-star pair, 25 seeds x 3000 steps of linear softmax with oracle "
                          "scores; the per-step path sequencer -> trainer -> pacing does the work")
    repetitions: int = 25
    iterations: int = 3000
    record_every: int = 50
    conditions: ClassVar[tuple[str, ...]] = ("vanilla", "curriculum")

    @property
    def seeds(self) -> list[int]:
        # Always the acceptance suite's seeds 0..24: the paper-effect check
        # below is calibrated on this set, and on other blocks of 25 seeds
        # its final-mean condition fails by chance on a few percent of blocks.
        return list(range(self.repetitions))

    def tree(self, condition: str, seeds=None) -> dict:
        return {
            "dataset": DATASET, "condition": condition, "scoring": {"kind": "oracle"},
            "pacing": _pacing(ACCEPTANCE_PACING), "lr": _lr(ACCEPTANCE_LR),
            "model": {"architecture": "linear_softmax"}, "batch_size": 100,
            "iterations": self.iterations, "record_every": self.record_every,
            "seeds": self.seeds if seeds is None else seeds,
        }

    def setup(self, seed: int, inputs: Path) -> None:
        for cond in self.conditions:
            write_json(inputs / f"{cond}.json", self.tree(cond))

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        return [["train", "--config", str(inputs / f"{c}.json"), "--out", str(out / c)]
                for c in self.conditions]

    def sgd_steps(self) -> int:
        return len(self.conditions) * self.repetitions * self.iterations

    work_units = sgd_steps

    def operations(self, out: Path, rcs: list[int]) -> tuple[int, int]:
        failed = sum(rc != 0 for rc in rcs)
        for c in self.conditions:
            failed += _summary_failures(out / c / "summary.json", self.repetitions)
        return len(rcs) + len(self.conditions) * self.repetitions, failed

    def rerun_seeds(self, seed: int) -> list[int]:
        """The two seeds re-run alone for the byte-identity check."""
        import numpy as np
        return sorted(int(s) for s in
                      np.random.default_rng(seed).choice(self.seeds, 2, replace=False))

    def check(self, seed: int, inputs: Path, out: Path, scratch: Path, run_cli) -> list[str]:
        problems = []
        curves = {}
        for cond in self.conditions:
            curves[cond] = {s: ref.read_curve(out / cond / f"curve_{cond}_seed{s}.csv")
                            for s in self.seeds}
            pacing = None if cond == "vanilla" else ACCEPTANCE_PACING
            for s, curve in curves[cond].items():
                problems += checks.check_curve_schedule(
                    curve, pacing, ACCEPTANCE_LR, N_TRAIN, self.iterations,
                    self.record_every, f"{cond} seed {s}")
            problems += checks.check_summary_means(
                read_json(out / cond / "summary.json"), curves[cond], window=5, label=cond)
        for s in self.rerun_seeds(seed):
            for cond in self.conditions:
                cfg = scratch / f"rerun_{cond}_{s}.json"
                write_json(cfg, self.tree(cond, seeds=[s]))
                run_cli(["train", "--config", str(cfg), "--out", str(scratch / f"rerun_{s}")])
                name = f"curve_{cond}_seed{s}.csv"
                problems += checks.check_same_bytes(out / cond / name, scratch / f"rerun_{s}" / name)
        # the paper's effect is calibrated on the full-size pair only
        if (self.repetitions, self.iterations) == (25, 3000):
            problems += checks.check_curriculum_effect(curves["vanilla"], curves["curriculum"],
                                                       window=5)
        return problems


@dataclass(frozen=True)
class SelfTaughtGrid:
    """`grid-search` with self-taught scoring: many short runs."""

    name: ClassVar[str] = "self_taught_grid"
    why: ClassVar[str] = ("many short runs: 2x2 pacing then 2x2 LR cells, each retraining "
                          "self-taught tables, so per-run set-up and scoring carry the load")
    repetitions: int = 4
    iterations: int = 1200
    pacing_axes: ClassVar[dict] = {"starting_percent": [0.1, 0.2], "step_length": [50, 100]}
    lr_axes: ClassVar[dict] = {"lr0": [0.8, 1.2], "decrease_factor": [1.32, 2.0]}
    validation_fraction: ClassVar[float] = 0.8

    def seeds(self, seed: int) -> list[int]:
        return [self.repetitions * seed + r for r in range(self.repetitions)]

    def tree(self, seed: int) -> dict:
        return {
            "dataset": DATASET, "condition": "curriculum", "scoring": {"kind": "self_taught"},
            "pacing": {"variant": "fixed_exp", "starting_percent": 0.1, "increase": 1.9,
                       "step_length": 100},
            "lr": {"variant": "exponential", "lr0": 1.2, "decrease_factor": 1.32,
                   "lr_step_length": 150},
            "model": {"architecture": "linear_softmax"}, "batch_size": 100,
            "iterations": self.iterations, "record_every": 50,
            "seeds": self.seeds(seed),
            "selection": {"criterion": "final_accuracy", "window": 5},
            "grid": {"pacing": self.pacing_axes, "lr": self.lr_axes,
                     "validation_fraction": self.validation_fraction, "split_seed": seed},
        }

    def setup(self, seed: int, inputs: Path) -> None:
        write_json(inputs / "grid.json", self.tree(seed))

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        return [["grid-search", "--config", str(inputs / "grid.json"), "--out", str(out / "grid")]]

    def cell_counts(self) -> tuple[int, int]:
        return checks.product_of_lengths(self.pacing_axes), checks.product_of_lengths(self.lr_axes)

    def sgd_steps(self) -> int:
        # every cell trains each seed twice: the self-taught scorer, then the curriculum
        return sum(self.cell_counts()) * self.repetitions * 2 * self.iterations

    work_units = sgd_steps

    def operations(self, out: Path, rcs: list[int]) -> tuple[int, int]:
        total = sum(self.cell_counts())
        failed = sum(rc != 0 for rc in rcs)
        audit = out / "grid" / "grid_audit.json"
        entries = read_json(audit)["entries"] if audit.is_file() else []
        failed += sum(e["failed"] for e in entries) + max(0, total - len(entries))
        return len(rcs) + total, failed

    def check(self, seed: int, inputs: Path, out: Path, scratch: Path, run_cli) -> list[str]:
        audit = read_json(out / "grid" / "grid_audit.json")
        best = read_json(out / "grid" / "best_config.json")
        tree = self.tree(seed)
        problems = checks.check_grid_audit(audit, best, self.pacing_axes, self.lr_axes,
                                           tree["pacing"], tree["lr"])
        # the validation split, rebuilt by the benchmark from the training CSV
        run_cli(["gen-data", "--config", str(inputs / "grid.json"), "--out", str(scratch / "data")])
        train = ref.read_dataset_csv(scratch / "data" / "train.csv")
        fit, val = ref.stratified_split(train, self.validation_fraction,
                                        ref.derived_seed(seed, ref.SPLIT))
        ref.write_dataset_csv(fit, scratch / "fit.csv")
        ref.write_dataset_csv(val, scratch / "val.csv")
        csv_data = {"train_csv": str(scratch / "fit.csv"), "test_csv": str(scratch / "val.csv")}

        # re-run the winning cell alone on that split
        winner = dict(best, dataset=csv_data)
        write_json(scratch / "winner.json", winner)
        run_cli(["train", "--config", str(scratch / "winner.json"), "--out", str(scratch / "winner")])
        rerun = read_json(scratch / "winner" / "summary.json")["final_accuracy_mean"]
        problems += checks.check_equal(rerun, audit["best_value"],
                                       "winning cell re-run criterion value")

        # one seed's self-taught table against a vanilla model trained alone
        s = self.seeds(seed)[0]
        one = {k: v for k, v in tree.items() if k != "grid"}
        one.update(dataset=csv_data, seeds=[s])
        write_json(scratch / "score.json", one)
        run_cli(["score", "--config", str(scratch / "score.json"), "--out", str(scratch / "score")])
        table = ref.read_scores_csv(scratch / "score" / "scores.csv")
        model = train_vanilla_model(dict(one, condition="vanilla"), s)
        own = ref.softmax_losses(model.array("W"), model.array("b"), fit.X, fit.y)
        problems += checks.check_close(table, own, 1e-12, f"self-taught table of seed {s}")
        return problems


@dataclass(frozen=True)
class MlpTransfer:
    """Three commands on mlp1 with transfer scores from generated embeddings."""

    name: ClassVar[str] = "mlp_transfer"
    why: ClassVar[str] = ("mlp1 with larger matmuls, transfer probes, the self-paced rescoring "
                          "hook and gradient analysis on 2500x1413 per-example matrices")
    repetitions: int = 6
    iterations: int = 2000
    hidden: int = 64
    embedding_dim: ClassVar[int] = 48
    embedding_noise: ClassVar[float] = 0.3
    subset_fraction: ClassVar[float] = 0.1

    def seeds(self, seed: int) -> list[int]:
        return [self.repetitions * seed + r for r in range(self.repetitions)]

    def tree(self, seed: int, inputs: Path, condition: str = "curriculum") -> dict:
        return {
            "dataset": dict(DATASET, embeddings_csv=str(inputs / "embeddings.csv")),
            "condition": condition, "scoring": {"kind": "transfer", "folds": 4},
            "pacing": _pacing(ACCEPTANCE_PACING),
            "lr": _lr(dict(ACCEPTANCE_LR, lr0="0.5")),
            "model": {"architecture": "mlp1", "hidden": self.hidden}, "batch_size": 100,
            "iterations": self.iterations, "record_every": 50, "seeds": self.seeds(seed),
            "gradient_analysis": {"subset_fraction": self.subset_fraction},
        }

    def setup(self, seed: int, inputs: Path) -> None:
        emb = ref.make_embeddings(train_split().X, seed, self.embedding_dim, self.embedding_noise)
        inputs.mkdir(parents=True, exist_ok=True)
        ref.write_embeddings_csv(emb, inputs / "embeddings.csv")
        write_json(inputs / "curriculum.json", self.tree(seed, inputs))
        write_json(inputs / "self_paced.json", self.tree(seed, inputs, "self_paced"))
        # analyze-gradients aborts on a transfer-scored config (see README,
        # known faults); the scores do not enter its report, so it gets oracle
        write_json(inputs / "gradients.json",
                   dict(self.tree(seed, inputs), scoring={"kind": "oracle"}))

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        # analyze-gradients sets the round's peak memory. Run first, on a fresh
        # heap, that peak is the same for every seed; after the two trainings
        # glibc's heap layout made it 107 or 133 MB depending on the seed.
        return [
            ["analyze-gradients", "--config", str(inputs / "gradients.json"),
             "--out", str(out / "gradients")],
            ["train", "--config", str(inputs / "curriculum.json"), "--out", str(out / "curriculum")],
            ["train", "--config", str(inputs / "self_paced.json"), "--out", str(out / "self_paced")],
        ]

    def sgd_steps(self) -> int:
        # curriculum, self-paced, and the vanilla models analyze-gradients trains
        return 3 * self.repetitions * self.iterations

    work_units = sgd_steps

    def operations(self, out: Path, rcs: list[int]) -> tuple[int, int]:
        R = self.repetitions
        failed = sum(rc != 0 for rc in rcs)
        for cond in ("curriculum", "self_paced"):
            failed += _summary_failures(out / cond / "summary.json", R)
        report = out / "gradients" / "gradient_report.json"
        failed += (R - read_json(report)["n_seeds"]) if report.is_file() else R
        return len(rcs) + 3 * R, failed

    def check(self, seed: int, inputs: Path, out: Path, scratch: Path, run_cli) -> list[str]:
        seeds = self.seeds(seed)
        problems = []
        for cond in ("curriculum", "self_paced"):
            summary = read_json(out / cond / "summary.json")
            problems += checks.check_equal(summary["failed_seeds"], [], f"{cond} failed seeds")
            problems += checks.check_equal(summary["seeds"], seeds, f"{cond} seeds")
        report = read_json(out / "gradients" / "gradient_report.json")
        problems += checks.check_equal(sorted(report["per_seed"], key=int),
                                       [str(s) for s in seeds], "gradient report seeds")

        train_ds = train_split()
        oracle = ref.oracle_difficulty(train_ds.X, train_ds.y, train_ds.bayes.means,
                                       DATASET["synthetic"]["spread"])
        run_cli(["score", "--config", str(inputs / "curriculum.json"), "--out", str(scratch / "score")])
        problems += checks.check_transfer_scores(
            ref.read_scores_csv(scratch / "score" / "scores.csv"), oracle)

        s = seeds[0]
        tree = dict(self.tree(seed, inputs, "vanilla"), seeds=[s])
        model = train_vanilla_model(tree, s)
        problems += checks.check_gradient_report(
            report["per_seed"][str(s)], tuple(model.array(a) for a in ("W1", "b1", "W2", "b2")),
            train_ds.X, train_ds.y, oracle,
            ref.derived_seed(s, ref.SUBSET), self.subset_fraction)
        return problems


@dataclass(frozen=True)
class TheoryVerify:
    """`verify-theory` sized to run for several seconds."""

    name: ClassVar[str] = "theory_verify"
    why: ClassVar[str] = ("the only workload of the theory module; it never trains, so a "
                          "training-engine change should move nothing here")
    instances: int = 12000
    # The constant-variance families are left out: on some seeds one family
    # draws two hypotheses with the same permutation, the covariance argmax
    # ties, and verify-theory fails (seed 7 with 4000 families). A failure
    # that depends on the seed cannot be carried as a fixed share of failures.
    families: int = 0
    own_tables: ClassVar[int] = 200

    def setup(self, seed: int, inputs: Path) -> None:
        write_json(inputs / "theory.json", {
            "seed": seed,
            "theory": {"instances": self.instances, "constant_variance_families": self.families},
        })

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        return [["verify-theory", "--config", str(inputs / "theory.json"), "--out", str(out / "theory")]]

    def sgd_steps(self) -> int:
        return 0

    def work_units(self) -> int:
        return self.instances + self.families

    def operations(self, out: Path, rcs: list[int]) -> tuple[int, int]:
        return len(rcs), sum(rc != 0 for rc in rcs)

    def check(self, seed: int, inputs: Path, out: Path, scratch: Path, run_cli) -> list[str]:
        report = read_json(out / "theory" / "theory_report.json")
        problems = checks.check_theory_report(report, self.instances, self.families)
        from curriculum_lab.theory import LossTable, Prior, decomposition_residual
        for losses, p in ref.draw_theory_tables(seed, self.own_tables):
            program = decomposition_residual(LossTable(losses), Prior(p))
            problems += checks.check_residual(program, ref.direct_residual(losses, p))
        return problems


WORKLOADS = {w.name: w for w in (AcceptancePair(), SelfTaughtGrid(), MlpTransfer(), TheoryVerify())}
