import json
import math

import numpy as np
import pytest

from curriculum_lab.config import resolve_config
from curriculum_lab.data import json_text
from curriculum_lab.errors import ConfigError, ExperimentError, ParameterError, \
    TrainingDivergedError
from curriculum_lab import harness
from curriculum_lab.harness import (bootstrap_loop, gradient_coherence_pipeline,
                                    refine_lr_grid, resolve_dataset,
                                    run_experiment, two_stage_grid_search)
from curriculum_lab.scoring import score_by_model_loss
from helpers import save_embeddings_csv


def tiny_tree(condition="vanilla", **overrides):
    tree = {
        "dataset": {
            "synthetic": {"classes": 3, "dim": 4, "n_per_class": 30,
                          "spread": 2.0, "seed": 11},
            "train_fraction": 0.8,
            "split_seed": 2,
        },
        "condition": condition,
        "scoring": {"kind": "oracle"},
        "pacing": {"variant": "fixed_exp", "starting_percent": 0.25,
                   "increase": 2.0, "step_length": 15},
        "lr": {"variant": "exponential", "lr0": 0.2, "decrease_factor": 1.5,
               "lr_step_length": 30},
        "model": {"architecture": "linear_softmax"},
        "batch_size": 10,
        "iterations": 60,
        "record_every": 20,
        "repetitions": 2,
        "seed": 0,
    }
    tree.update(overrides)
    return tree


class TestRunExperiment:
    def test_summary_bytes_deterministic(self):
        cfg = resolve_config(tiny_tree("curriculum"))
        a = json_text(run_experiment(cfg).summary)
        b = json_text(run_experiment(cfg).summary)
        assert a == b

    def test_single_repetition_warns_and_zeroes_ste(self):
        cfg = resolve_config(tiny_tree(repetitions=1))
        res = run_experiment(cfg)
        assert res.summary["final_accuracy_ste"] == 0.0
        assert any("single repetition" in w for w in res.summary["warnings"])

    def test_ste_matches_two_pass_computation(self):
        cfg = resolve_config(tiny_tree(repetitions=4))
        res = run_experiment(cfg)
        finals = [res.summary["per_seed"]["final_accuracy"][str(s)]
                  for s in res.summary["seeds"]]
        mean = sum(finals) / len(finals)
        var = sum((f - mean) ** 2 for f in finals) / (len(finals) - 1)
        expected = math.sqrt(var) / math.sqrt(len(finals))
        assert res.summary["final_accuracy_ste"] == pytest.approx(expected, rel=1e-12)

    def test_failed_seed_is_marked(self, monkeypatch):
        real_train_stack = harness.train_stack

        def flaky(*args, **kwargs):
            # the first row diverges, the others train as usual
            outcomes = real_train_stack(*args, **kwargs)
            return [TrainingDivergedError(7)] + outcomes[1:]

        monkeypatch.setattr(harness, "train_stack", flaky)
        cfg = resolve_config(tiny_tree(repetitions=3))
        res = run_experiment(cfg)
        assert res.summary["failed_seeds"] == [0]
        assert any("diverged at iteration 7" in w for w in res.summary["warnings"])

    def test_majority_failure_is_experiment_error(self, monkeypatch):
        def always_fail(ds_train, ds_test, plans, *args, **kwargs):
            return [TrainingDivergedError(3) for _ in plans]

        monkeypatch.setattr(harness, "train_stack", always_fail)
        cfg = resolve_config(tiny_tree(repetitions=2))
        with pytest.raises(ExperimentError):
            run_experiment(cfg)

    @pytest.mark.parametrize("condition,architecture,pacing,scoring", [
        ("vanilla", "linear_softmax", None, "oracle"),
        ("curriculum", "mlp1", None, "oracle"),
        ("curriculum", "linear_softmax", "single_step", "self_taught"),
        ("anti", "linear_softmax", "varied_exp", "oracle"),
        ("random", "mlp1", "single_step", "oracle"),
        ("self_paced", "mlp1", "varied_exp", "oracle"),
    ])
    def test_stacked_seeds_equal_seeds_run_alone(self, tmp_path, condition, architecture,
                                                 pacing, scoring):
        tree = tiny_tree(condition, repetitions=3, scoring={"kind": scoring},
                         model={"architecture": architecture, "hidden": 5})
        if pacing == "single_step":
            tree["pacing"] = {"variant": "single_step", "starting_percent": 0.25,
                              "step_length": 25}
        elif pacing == "varied_exp":
            tree["pacing"] = {"variant": "varied_exp", "starting_percent": 0.25,
                              "increase": 2.0, "boundaries": [8, 20]}
        stacked = run_experiment(resolve_config(tree), out_dir=tmp_path / "stack")
        alone_curves = []
        for seed in (0, 1, 2):
            out = tmp_path / f"alone{seed}"
            alone = run_experiment(resolve_config(dict(tree, seeds=[seed], repetitions=1)),
                                   out_dir=out)
            name = f"curve_{condition}_seed{seed}.csv"
            assert (tmp_path / "stack" / name).read_bytes() == (out / name).read_bytes()
            assert np.array_equal(stacked.models[seed].params, alone.models[seed].params)
            for key in ("final_accuracy", "auc"):
                assert (stacked.summary["per_seed"][key][str(seed)]
                        == alone.summary["per_seed"][key][str(seed)])
            alone_curves.append(alone.curves[seed])
        assert stacked.summary["failed_seeds"] == []
        assert stacked.summary["mean_curve"]["test_acc"] == \
            np.mean([c.test_acc for c in alone_curves], axis=0).tolist()

    def test_saturation_warning_when_horizon_too_short(self):
        tree = tiny_tree("curriculum")
        tree["pacing"]["step_length"] = 30  # saturates at 60 == M
        cfg = resolve_config(tree)
        res = run_experiment(cfg)
        assert any("saturates" in w for w in res.summary["warnings"])

    def test_no_saturation_warning_when_rounding_reaches_full_size(self):
        tree = tiny_tree("curriculum")
        # N = 72: 0.5 * 1.99 * 72 = 71.6 rounds up to N at iteration 30, one
        # step before step_length * num_steps = 60 == M
        tree["pacing"].update(starting_percent=0.5, increase=1.99, step_length=30)
        res = run_experiment(resolve_config(tree))
        assert not any("saturates" in w for w in res.summary["warnings"])
        assert res.curves[0].subset_size[-1] == 72

    def test_writes_artifacts(self, tmp_path):
        cfg = resolve_config(tiny_tree("curriculum"))
        run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "curve_curriculum_seed0.csv").exists()
        assert (tmp_path / "curve_curriculum_seed1.csv").exists()

    def test_conditions_produce_different_curves(self):
        curves = {}
        for condition in ("vanilla", "curriculum", "anti", "random", "self_paced"):
            cfg = resolve_config(tiny_tree(condition))
            res = run_experiment(cfg)
            curves[condition] = res.curves[0].test_acc.tolist()
        assert curves["vanilla"] != curves["curriculum"]
        assert curves["curriculum"] != curves["anti"]

    def test_cyclical_schedule_trains(self):
        tree = tiny_tree("curriculum")
        tree["lr"] = {"variant": "cyclical", "lr_min": 0.02, "lr_max": 0.3,
                      "cycle_length": 20}
        res = run_experiment(resolve_config(tree))
        curve = res.curves[0]
        assert curve.lr[0] == pytest.approx(0.02)   # recorded at t=0, 20, 40, 59
        assert curve.lr[-1] == pytest.approx(0.02 + (0.3 - 0.02) * (1 - abs(19 - 10) / 10))

    def test_varied_exp_boundary_grid_axis(self):
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["pacing"] = {"variant": "varied_exp", "starting_percent": 0.25,
                          "increase": 2.0, "boundaries": [8, 20]}
        tree["grid"] = {"pacing": {"boundaries": [[8, 20], [5, 12]]},
                        "lr": {"lr0": [0.2]}}
        cfg = resolve_config(tree)
        best, audit = two_stage_grid_search(cfg)
        assert audit["cell_counts"] == {"stage1": 2, "stage2": 1, "total": 3}
        assert best.pacing["boundaries"] in ((8, 20), (5, 12))


class TestGridSearch:
    def grid_tree(self, condition="curriculum", criterion="final_accuracy"):
        tree = tiny_tree(condition, repetitions=1, iterations=40)
        tree["selection"] = {"criterion": criterion, "window": 2}
        tree["grid"] = {
            "pacing": {"starting_percent": [0.25, 0.5], "step_length": [10, 20]},
            "lr": {"lr0": [0.1, 0.3]},
            "validation_fraction": 0.75,
            "split_seed": 1,
        }
        return tree

    def test_audit_counts_two_stages(self):
        cfg = resolve_config(self.grid_tree())
        best, audit = two_stage_grid_search(cfg)
        assert audit["cell_counts"] == {"stage1": 4, "stage2": 2, "total": 6}
        assert len(audit["entries"]) == 6
        stages = [e["stage"] for e in audit["entries"]]
        assert stages.count(1) == 4 and stages.count(2) == 2

    def test_single_cell_grid_returns_base_config(self):
        tree = self.grid_tree()
        tree["grid"]["pacing"] = {"starting_percent": [0.25], "step_length": [15]}
        tree["grid"]["lr"] = {"lr0": [0.2]}
        cfg = resolve_config(tree)
        best, audit = two_stage_grid_search(cfg)
        assert best.pacing["starting_percent"] == 0.25
        assert best.pacing["step_length"] == 15
        assert best.schedule.lr0 == 0.2

    def test_vanilla_gets_matched_refined_grid(self):
        # the pacing axes, which no vanilla run reads, size the refined LR grid
        cfg = resolve_config(self.grid_tree("vanilla"))
        best, audit = two_stage_grid_search(cfg)
        counts = audit["cell_counts"]
        target = counts["matched_target"]
        assert abs(counts["total"] - target) <= 0.1 * target
        assert all(e["stage"] == 1 for e in audit["entries"])

    def test_vanilla_lr_axis_centres_on_config_lr0(self):
        tree = self.grid_tree("vanilla")
        tree["lr"]["lr0"] = 1.0
        tree["grid"]["lr"] = {"decrease_factor": [1.2, 2.0]}
        best, audit = two_stage_grid_search(resolve_config(tree))
        tried = sorted({e["lr"]["lr0"] for e in audit["entries"]})
        assert tried == pytest.approx([1 / 1.5, 1.0, 1.5])
        assert best.schedule.lr0 in tried

    def test_cyclical_vanilla_grid_adds_no_lr0_axis(self):
        tree = self.grid_tree("vanilla")
        tree["lr"] = {"variant": "cyclical", "lr_min": 0.02, "lr_max": 0.3, "cycle_length": 20}
        tree["grid"]["lr"] = {}
        _best, audit = two_stage_grid_search(resolve_config(tree))
        assert [e["lr"] for e in audit["entries"]] == [{}]

    def test_both_criteria_produce_full_logs(self):
        for criterion in ("final_accuracy", "auc"):
            cfg = resolve_config(self.grid_tree(criterion=criterion))
            _best, audit = two_stage_grid_search(cfg)
            assert audit["criterion"] == criterion
            assert all(e["criterion"] == criterion for e in audit["entries"])
            assert len(audit["entries"]) == 6

    def test_winner_maximizes_validation_criterion(self):
        cfg = resolve_config(self.grid_tree())
        _best, audit = two_stage_grid_search(cfg)
        stage1 = [e for e in audit["entries"] if e["stage"] == 1]
        best_stage1 = max(stage1, key=lambda e: e["criterion_value"])
        stage2 = [e for e in audit["entries"] if e["stage"] == 2]
        assert all(e["pacing"] == best_stage1["pacing"] for e in stage2)

    def test_missing_grid_rejected(self):
        cfg = resolve_config(tiny_tree())
        with pytest.raises(ConfigError):
            two_stage_grid_search(cfg)

    def test_empty_grid_rejected(self):
        tree = tiny_tree("curriculum")
        tree["grid"] = {"pacing": {}, "lr": {}}
        with pytest.raises(ConfigError, match="empty"):
            two_stage_grid_search(resolve_config(tree))

    @pytest.mark.parametrize("condition", ["curriculum", "anti"])
    def test_transfer_scored_grid_scores_the_fit_split(self, tmp_path, monkeypatch, condition):
        from curriculum_lab.data import EmbeddingTable, stratified_split_ids
        from curriculum_lab.seeding import SPLIT, derived_seed
        train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
        vectors = train_ds.X[:, :2]
        save_embeddings_csv(EmbeddingTable(vectors), tmp_path / "emb.csv")
        seen = []
        real_transfer_score = harness.transfer_score

        def spy(ds, emb, folds, seed):
            seen.append((ds, emb))
            return real_transfer_score(ds, emb, folds, seed)

        monkeypatch.setattr(harness, "transfer_score", spy)
        tree = self.grid_tree(condition)
        tree["scoring"] = {"kind": "transfer"}
        tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
        tree["grid"]["pacing"] = {"starting_percent": [0.25, 0.5]}
        tree["grid"]["lr"] = {"lr0": [0.1, 0.3]}
        _best, audit = two_stage_grid_search(resolve_config(tree), out_dir=tmp_path / "o")
        assert audit["cell_counts"]["total"] == 4
        assert not any(e["failed"] for e in audit["entries"])
        fit_ids, _ = stratified_split_ids(train_ds, 0.75, derived_seed(1, SPLIT))
        assert len(seen) == 1   # the four cells share one table
        for ds, emb in seen:
            assert np.array_equal(ds.X, train_ds.X[fit_ids])
            assert np.array_equal(emb.vectors, vectors[fit_ids])

    def test_file_scored_grid_equals_the_oracle_scored_grid(self, tmp_path):
        # a file holding the training split's oracle table: the cells plan on
        # its fit rows, which are the fit split's own oracle scores, bit for bit
        from curriculum_lab.scoring import oracle_bayes_score, save_scores_csv
        tree = self.grid_tree()
        save_scores_csv(oracle_bayes_score(resolve_dataset(resolve_config(tree))[0]),
                        tmp_path / "scores.csv")
        _best, oracle = two_stage_grid_search(resolve_config(tree))
        tree["scoring"] = {"kind": "file", "path": str(tmp_path / "scores.csv")}
        _best, from_file = two_stage_grid_search(resolve_config(tree))
        assert not any(e["failed"] for e in from_file["entries"])
        assert from_file["entries"] == oracle["entries"]

    def test_failed_cell_records_null_criterion(self, tmp_path):
        tree = self.grid_tree()
        tree["model"] = {"architecture": "mlp1", "hidden": 6}
        tree["grid"]["lr"] = {"lr0": [0.2, 1e12]}
        best, audit = two_stage_grid_search(resolve_config(tree), out_dir=tmp_path)
        failed = [e for e in audit["entries"] if e["failed"]]
        assert [e["lr"] for e in failed] == [{"lr0": 1e12}]
        assert failed[0]["criterion_value"] is None
        text = (tmp_path / "grid_audit.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["entries"] == audit["entries"]
        assert audit["best_value"] == max(e["criterion_value"] for e in audit["entries"]
                                          if not e["failed"])
        assert best.schedule.lr0 != 1e12

    def test_every_cell_failing_is_experiment_error(self, tmp_path):
        tree = self.grid_tree()
        tree["model"] = {"architecture": "mlp1", "hidden": 6}
        tree["lr"]["lr0"] = 1e12
        tree["grid"]["lr"] = {"lr0": [1e12, 1e13]}
        with pytest.raises(ExperimentError, match="all 6 grid cells failed"):
            two_stage_grid_search(resolve_config(tree), out_dir=tmp_path)
        audit = json.loads((tmp_path / "grid_audit.json").read_text())
        assert all(e["failed"] and e["criterion_value"] is None for e in audit["entries"])
        assert audit["best_value"] is None and audit["best_config"] is None
        assert not (tmp_path / "best_config.json").exists()

    def test_refine_lr_grid_hits_target(self):
        axes = refine_lr_grid({"lr0": [0.05, 0.2], "decrease_factor": [1.5, 2.0]}, 14)
        total = len(axes["lr0"]) * len(axes["decrease_factor"])
        assert abs(total - 14) <= 1.4


def emb_tree(tmp_path, tree):
    """`tree` with transfer scoring on embeddings of the first two features."""
    from curriculum_lab.data import EmbeddingTable
    train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
    save_embeddings_csv(EmbeddingTable(train_ds.X[:, :2]), tmp_path / "emb.csv")
    tree["scoring"] = {"kind": "transfer"}
    tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
    return tree


class TestGridStack:
    """A grid stage trains all its cells x seeds as one stack and makes each
    score table once; every audit entry must still equal its cell run alone."""

    def grid_tree(self, condition="curriculum", repetitions=2):
        tree = TestGridSearch().grid_tree(condition)
        tree["repetitions"] = repetitions
        return tree

    def cells_alone(self, tree):
        """The audit entries of `tree`'s grid, each cell run by itself through
        `run_experiment` on the grid's fit/validation split; a fixed-kind
        scored cell is given the table of the training split's fit rows."""
        from curriculum_lab.data import select_examples, stratified_split_ids
        from curriculum_lab.seeding import SPLIT, derived_seed
        config = resolve_config(tree)
        _best, audit = two_stage_grid_search(config)
        train_ds, _test = resolve_dataset(config)
        fit_ids, val_ids = stratified_split_ids(
            train_ds, config.grid["validation_fraction"],
            derived_seed(config.grid["split_seed"], SPLIT))
        fit_ds, val_ds = select_examples(train_ds, fit_ids), select_examples(train_ds, val_ids)
        alone = []
        for entry in audit["entries"]:
            cell = {k: v for k, v in tree.items() if k != "grid"}
            cell["pacing"] = {**tree["pacing"], **entry["pacing"]}
            cell["lr"] = {**tree["lr"], **entry["lr"]}
            cell_config = resolve_config(cell)
            tables = None
            if (cell_config.condition in harness.SCORED_CONDITIONS
                    and cell_config.scoring["kind"] != "self_taught"):
                tables = ([harness._fixed_table(cell_config, train_ds, fit_ids)]
                          * cell_config.repetitions)
            try:
                summary = run_experiment(cell_config, data=(fit_ds, val_ds),
                                         tables=tables).summary
                value = summary["final_accuracy_mean" if config.selection["criterion"] == "final_accuracy"
                                else "auc_mean"]
                extra = {"final_accuracy_mean": summary["final_accuracy_mean"],
                         "auc_mean": summary["auc_mean"], "failed": False}
            except (ExperimentError, ParameterError) as exc:
                value, extra = None, {"failed": True, "error": str(exc)}
            alone.append({"stage": entry["stage"], "pacing": entry["pacing"], "lr": entry["lr"],
                          "criterion": config.selection["criterion"], "criterion_value": value,
                          **extra})
        return audit["entries"], alone

    @pytest.mark.parametrize("condition", ["curriculum", "anti", "vanilla", "self_paced"])
    def test_entries_equal_cells_run_alone(self, condition):
        entries, alone = self.cells_alone(self.grid_tree(condition))
        assert entries == alone

    @pytest.mark.parametrize("condition", ["curriculum", "anti"])
    def test_transfer_scored_entries_equal_cells_run_alone(self, tmp_path, condition):
        tree = emb_tree(tmp_path, self.grid_tree(condition))
        entries, alone = self.cells_alone(tree)
        assert entries == alone

    def test_self_taught_entries_equal_cells_run_alone(self):
        tree = self.grid_tree(repetitions=3)
        tree["scoring"] = {"kind": "self_taught"}
        tree["grid"]["lr"] = {"lr0": [0.2, 0.3], "decrease_factor": [1.5, 2.0]}
        entries, alone = self.cells_alone(tree)
        assert entries == alone

    def test_failing_cell_entries_equal_cells_run_alone(self):
        tree = self.grid_tree(repetitions=3)
        tree["model"] = {"architecture": "mlp1", "hidden": 6}
        tree["grid"]["lr"] = {"lr0": [0.2, 1e12]}
        entries, alone = self.cells_alone(tree)
        assert [e["failed"] for e in entries] == [False] * 5 + [True]
        assert entries == alone

    @pytest.mark.parametrize("scoring", ["oracle", "self_taught"])
    def test_unplannable_pacing_cell_entries_equal_cells_run_alone(self, scoring):
        # 0.05 of the 54-example fit split is a first subset of 3, below the batch of 10
        tree = self.grid_tree()
        tree["scoring"] = {"kind": scoring}
        tree["grid"]["pacing"] = {"starting_percent": [0.05, 0.25]}
        entries, alone = self.cells_alone(tree)
        assert [e["failed"] for e in entries] == [True, False, False, False]
        assert entries[0]["error"].startswith("initial subset size g(0)=3 is smaller than")
        assert entries == alone

    def test_self_taught_scorers_train_once_per_key(self, monkeypatch):
        # the shape of the benchmark's self-taught grid: every scorer key
        # trains up front, one for stage 1 and three more for stage 2, as its
        # cell lr0 0.2 / decrease factor 1.5 is the base schedule; that cell
        # is the stage-1 winner and reuses its run
        rows = []
        real = harness.train_stack

        def counting(ds_train, ds_test, plans, *args, **kwargs):
            rows.append(len(plans))
            return real(ds_train, ds_test, plans, *args, **kwargs)

        monkeypatch.setattr(harness, "train_stack", counting)
        tree = self.grid_tree(repetitions=4)
        tree["scoring"] = {"kind": "self_taught"}
        tree["grid"]["lr"] = {"lr0": [0.2, 0.3], "decrease_factor": [1.5, 2.0]}
        _best, audit = two_stage_grid_search(resolve_config(tree))
        assert not any(e["failed"] for e in audit["entries"])
        # the scorer stack, then each stage's new cells
        assert rows == [16, 16, 12]

    def test_self_taught_scorers_record_on_the_runs_test_split(self, monkeypatch):
        # a scorer stack evaluates where its runs do: the validation split in a
        # grid stage, the test split in a plain run, never its training rows
        seen = []
        real = harness.train_stack

        def spying(ds_train, ds_test, *args, record_every, **kwargs):
            seen.append((record_every, ds_train.N, ds_test.N))
            return real(ds_train, ds_test, *args, record_every=record_every, **kwargs)

        monkeypatch.setattr(harness, "train_stack", spying)
        tree = self.grid_tree()
        tree["scoring"] = {"kind": "self_taught"}
        tree["grid"]["validation_fraction"] = 0.8  # 58 fit, 14 validation rows
        two_stage_grid_search(resolve_config(tree))
        del tree["grid"]
        run_experiment(resolve_config(tree))
        grid_calls, run_calls = seen[:-2], seen[-2:]
        # a scorer records only at its first and last iteration: every M = 40
        assert [every for every, *_ in grid_calls] == [40, 20, 20]
        assert {tuple(sizes) for _, *sizes in grid_calls} == {(58, 14)}
        assert run_calls == [(40, 72, 18), (20, 72, 18)]

    @pytest.mark.parametrize("lr0", [[0.2, 0.3], [0.2]])
    def test_stage_2_cell_equal_to_the_winner_reuses_its_run(self, monkeypatch, lr0):
        # the stage-2 cell at the base lr0 0.2 is the stage-1 winner: it never
        # reaches train_stack, so a stage 2 of only that cell trains nothing
        rows = []
        real = harness.train_stack

        def counting(ds_train, ds_test, plans, *args, **kwargs):
            rows.append(len(plans))
            return real(ds_train, ds_test, plans, *args, **kwargs)

        tree = self.grid_tree()
        tree["grid"]["lr"] = {"lr0": lr0}
        monkeypatch.setattr(harness, "train_stack", counting)
        _best, audit = two_stage_grid_search(resolve_config(tree))
        monkeypatch.undo()
        # four stage-1 cells, then the stage-2 cells but the winner, x two seeds
        assert rows == [8] + [2] * (len(lr0) - 1)
        assert len(audit["entries"]) == 4 + len(lr0)
        entries, alone = self.cells_alone(tree)
        assert entries == alone

    def test_diverging_self_taught_scorer_fails_only_its_cell(self, tmp_path):
        # the benchmark's self-taught grid on mlp1, with one stage-2 cell whose
        # scorers diverge: that cell fails under the half rule, the search goes on
        tree = harness.default_acceptance_tree(
            "curriculum", scoring={"kind": "self_taught"},
            model={"architecture": "mlp1", "hidden": 8}, iterations=200, seeds=[0, 1, 2, 3],
            selection={"criterion": "final_accuracy", "window": 5},
            grid={"pacing": {"starting_percent": [0.1, 0.2], "step_length": [50, 100]},
                  "lr": {"lr0": [1.2, 1e12]}, "validation_fraction": 0.8, "split_seed": 0})
        tree["pacing"]["step_length"] = 100
        tree["lr"]["lr_step_length"] = 150
        best, audit = two_stage_grid_search(resolve_config(tree), out_dir=tmp_path)
        failed = [e for e in audit["entries"] if e["failed"]]
        assert [(e["stage"], e["lr"]) for e in failed] == [(2, {"lr0": 1e12})]
        assert failed[0]["error"] == "4 of 4 repetitions failed (seeds [0, 1, 2, 3])"
        assert len(audit["entries"]) == 6
        assert best.schedule.lr0 == 1.2
        assert json.loads((tmp_path / "grid_audit.json").read_text()) == audit
        assert (tmp_path / "best_config.json").exists()


class TestResults:
    """The one run path: per config its `ExperimentResult` or the typed error
    that ended it, with every plan of the call trained in one stack."""

    @staticmethod
    def mlp1(**sections):
        tree = tiny_tree("curriculum", model={"architecture": "mlp1", "hidden": 6})
        for section, values in sections.items():
            tree[section] = {**tree[section], **values}
        return resolve_config(tree)

    def test_each_config_gets_its_result_or_its_error(self, monkeypatch):
        # 0.05 of the 72-example split is a first subset of 4, below the batch of 10
        configs = [self.mlp1(pacing={"starting_percent": 0.05}), self.mlp1(lr={"lr0": 1e12}),
                   self.mlp1()]
        rows = []
        real = harness.train_stack

        def counting(ds_train, ds_test, plans, *args, **kwargs):
            rows.append(len(plans))
            return real(ds_train, ds_test, plans, *args, **kwargs)

        monkeypatch.setattr(harness, "train_stack", counting)
        unplannable, diverged, trained = harness._results(
            configs, resolve_dataset(configs[2]), None)
        monkeypatch.undo()
        assert rows == [4]  # the two plannable configs x two seeds
        assert isinstance(unplannable, ParameterError)
        assert str(unplannable).startswith("initial subset size g(0)=4 is smaller than")
        assert isinstance(diverged, ExperimentError)
        assert str(diverged) == "2 of 2 repetitions failed (seeds [0, 1])"
        alone = run_experiment(configs[2])
        assert json_text(trained.summary) == json_text(alone.summary)
        assert trained.curves.keys() == alone.curves.keys() == trained.models.keys()
        for seed, curve in alone.curves.items():
            for name in ("iterations", "train_loss", "test_acc", "subset_size", "lr"):
                assert np.array_equal(getattr(trained.curves[seed], name), getattr(curve, name))
            assert trained.models[seed].params.tobytes() == alone.models[seed].params.tobytes()


def spied_draws(monkeypatch, command):
    """Run `command()`; the (plan seed, t, g(t)) of every batch draw it made,
    the keys its stacks need (each stack's keys below N, and every full-size
    key once), and each stack's per-stack distinct key count."""
    from curriculum_lab import trainer
    draws, stacks = [], []
    positions, stack = trainer._batch_positions, harness.train_stack

    def counted(plan, t, rngs):
        draws.append((plan.seed, t, plan.pacing.sizes[t]))
        return positions(plan, t, rngs)

    def recorded(ds_train, ds_test, plans, *args, **kwargs):
        stacks.append([(p.seed, t, g, g == p.N) for p in plans
                       for t, g in enumerate(p.pacing.sizes)])
        return stack(ds_train, ds_test, plans, *args, **kwargs)

    monkeypatch.setattr(trainer, "_batch_positions", counted)
    monkeypatch.setattr(harness, "train_stack", recorded)
    command()
    monkeypatch.undo()
    needed = [key for keys in stacks for key in {k[:3] for k in keys if not k[3]}]
    needed += {key[:3] for keys in stacks for key in keys if key[3]}
    return draws, needed, [len({k[:3] for k in keys}) for keys in stacks]


class TestBatchStoreSharing:
    """Commands that train several stacks over the same plan seeds draw each
    full-size batch once; every other draw is made once per stack."""

    def self_taught(self, **overrides):
        return resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                        **overrides))

    def grid_search(self):
        tree = TestGridStack().grid_tree(repetitions=3)
        tree["scoring"] = {"kind": "self_taught"}
        tree["grid"]["lr"] = {"lr0": [0.2, 0.3], "decrease_factor": [1.5, 2.0]}
        two_stage_grid_search(resolve_config(tree))

    def train(self):
        run_experiment(self.self_taught())

    def bootstrap(self):
        bootstrap_loop(self.self_taught(bootstrap={"generations": 2}))

    # the scorers, then each grid stage's new cells; the scorers, then the
    # run; one stack per generation
    @pytest.mark.parametrize("command,stacks", [("grid_search", 3), ("train", 2),
                                                ("bootstrap", 3)])
    def test_full_size_draws_are_made_once_per_command(self, monkeypatch, command, stacks):
        draws, needed, per_stack = spied_draws(monkeypatch, getattr(self, command))
        assert len(per_stack) == stacks
        assert sorted(draws) == sorted(needed)
        # without the store every stack draws its full-size keys again
        assert len(draws) < sum(per_stack)

    def stores_passed(self, monkeypatch, command) -> list:
        stores = []
        real = harness.train_stack

        def spying(*args, batch_store=None, **kwargs):
            stores.append(batch_store)
            return real(*args, batch_store=batch_store, **kwargs)

        monkeypatch.setattr(harness, "train_stack", spying)
        command()
        monkeypatch.undo()
        return stores

    @pytest.mark.parametrize("condition,scoring", [
        ("vanilla", "oracle"), ("curriculum", "oracle"), ("anti", "oracle"),
        ("self_paced", "oracle"), ("random", "oracle"), ("vanilla", "self_taught")])
    def test_single_stack_run_keeps_no_store(self, monkeypatch, condition, scoring):
        config = resolve_config(tiny_tree(condition, scoring={"kind": scoring}))
        assert self.stores_passed(monkeypatch, lambda: run_experiment(config)) == [None]

    def test_run_on_given_tables_keeps_no_store(self, monkeypatch):
        config = self.self_taught()
        data = resolve_dataset(config)
        (tables,) = harness.score_tables([config], data)
        assert self.stores_passed(
            monkeypatch, lambda: run_experiment(config, data=data, tables=tables)) == [None]

    def test_self_taught_run_shares_one_store(self, monkeypatch):
        stores = self.stores_passed(monkeypatch, self.train)
        assert len(stores) == 2 and stores[0] is stores[1] is not None


class TestSelfTaughtTables:
    """A self-taught table is the loss of the final model of that seed's
    vanilla run: each equals, bit for bit, `score_by_model_loss` of the model
    an explicit vanilla `run_experiment` trains with that seed."""

    def assert_tables_equal_vanilla_runs(self, configs, tables, data):
        for config, config_tables in zip(configs, tables):
            vanilla = run_experiment(resolve_config({**config.tree, "condition": "vanilla"}),
                                     data=data)
            for seed, table in zip(config.seeds, config_tables):
                own = score_by_model_loss(data[0], vanilla.models[seed])
                assert np.array_equal(table.scores, own.scores)

    @pytest.mark.parametrize("architecture", ["linear_softmax", "mlp1"])
    def test_stacked_seeds_equal_explicit_vanilla_runs(self, architecture):
        config = resolve_config(tiny_tree(
            "curriculum", scoring={"kind": "self_taught"}, repetitions=3,
            model={"architecture": architecture, "hidden": 5}))
        data = resolve_dataset(config)
        self.assert_tables_equal_vanilla_runs([config], harness.score_tables([config], data),
                                              data)

    def test_grid_stage_equals_explicit_vanilla_runs(self, monkeypatch):
        # cells of one stage on the fit/validation split: cells that differ
        # only in pacing share their tables, and every new key trains in one stack
        from curriculum_lab.data import select_examples, stratified_split_ids
        rows = []
        real = harness.train_stack

        def counting(ds_train, ds_test, plans, *args, **kwargs):
            rows.append(len(plans))
            return real(ds_train, ds_test, plans, *args, **kwargs)

        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"}, iterations=40)
        tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]},
                        "lr": {"lr0": [0.2, 0.3], "decrease_factor": [1.5, 2.0]}}
        config = resolve_config(tree)
        train_ds, _test = resolve_dataset(config)
        fit_ids, val_ids = stratified_split_ids(train_ds, 0.75, 1)
        data = (select_examples(train_ds, fit_ids), select_examples(train_ds, val_ids))
        cells = [harness._with_params(config, pacing, lr) for pacing, lr in [
            ({"starting_percent": 0.5}, {"lr0": 0.3}), ({}, {"decrease_factor": 2.0}),
            ({"starting_percent": 0.5}, {}), ({}, {"lr0": 0.3})]]
        monkeypatch.setattr(harness, "train_stack", counting)
        tables = harness.score_tables(cells, data)
        monkeypatch.undo()
        assert rows == [6]  # three schedules x two seeds
        self.assert_tables_equal_vanilla_runs(cells, tables, data)

    def test_a_model_whose_loss_overflows_gives_an_error_in_place_of_its_table(self):
        # finite logits 3e308 apart: each example's loss overflows to inf
        from curriculum_lab.data import Dataset
        from curriculum_lab.trainer import Model, ModelSpec
        ds = Dataset(X=np.array([[1.0], [-1.0]]), y=np.array([1, 0]), K=2)
        model = Model.zeros(ModelSpec("linear_softmax"), 2, 1)
        model.params[:2] = [1.5e308, -1.5e308]
        error = harness._loss_table(ds, model, "self-taught scorer of seed 7")
        assert isinstance(error, ExperimentError)
        assert str(error) == ("self-taught scorer of seed 7 cannot score the training split: "
                              "scores contain non-finite values")


class TestBootstrap:
    def test_zero_generations_is_vanilla(self):
        cfg = resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                       bootstrap={"generations": 0}))
        results = bootstrap_loop(cfg)
        vanilla = run_experiment(resolve_config(tiny_tree("vanilla"))).summary
        assert len(results) == 1
        assert results[0].summary["mean_curve"] == vanilla["mean_curve"]

    @pytest.mark.parametrize("condition", ["vanilla", "anti", "random", "self_paced"])
    def test_vanilla_condition_is_a_config_error(self, condition):
        # only a curriculum defines the generations after the first
        with pytest.raises(ConfigError, match=f"^bootstrap trains curriculum generations, "
                                              f"not condition {condition}; set condition"):
            bootstrap_loop(resolve_config(tiny_tree(condition, bootstrap={"generations": 1})))

    def test_one_generation_equals_self_taught_condition(self):
        cfg = resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                       bootstrap={"generations": 1}))
        results = bootstrap_loop(cfg)
        direct = run_experiment(cfg)
        assert results[1].summary["mean_curve"] == direct.summary["mean_curve"]
        assert results[1].summary["per_seed"] == direct.summary["per_seed"]

    def test_three_generations_emit_curves(self, tmp_path):
        cfg = resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                       bootstrap={"generations": 3}))
        results = bootstrap_loop(cfg, out_dir=tmp_path)
        assert [r.summary["generation"] for r in results] == [0, 1, 2, 3]
        for g, result in enumerate(results):
            assert result.files == [f"curve_gen{g}_seed0.csv", f"curve_gen{g}_seed1.csv",
                                    f"summary_gen{g}.json"]
            assert all((tmp_path / name).exists() for name in result.files)

    def test_diverged_seed_fails_in_later_generations(self, monkeypatch, tmp_path):
        real_train_stack = harness.train_stack
        calls = []

        def first_row_diverges_once(*args, **kwargs):
            outcomes = real_train_stack(*args, **kwargs)
            calls.append(len(outcomes))
            if len(calls) == 1:  # generation 0: seed 0 diverges
                outcomes[0] = TrainingDivergedError(5)
            return outcomes

        monkeypatch.setattr(harness, "train_stack", first_row_diverges_once)
        cfg = resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                       repetitions=3, bootstrap={"generations": 2}))
        summaries = [r.summary for r in bootstrap_loop(cfg, out_dir=tmp_path)]
        assert calls == [3, 2, 2]  # later generations stack only seeds 1 and 2
        assert [s["failed_seeds"] for s in summaries] == [[0], [0], [0]]
        assert "seed 0 diverged at iteration 5" in summaries[0]["warnings"]
        assert "seed 0 has no generation-0 model to score with" in summaries[1]["warnings"]
        assert "seed 0 has no generation-1 model to score with" in summaries[2]["warnings"]
        for g in range(3):
            assert not (tmp_path / f"curve_gen{g}_seed0.csv").exists()
            assert (tmp_path / f"curve_gen{g}_seed1.csv").exists()

    def test_carried_failures_count_toward_half_rule(self, monkeypatch):
        real_train_stack = harness.train_stack

        def first_row_diverges(*args, **kwargs):
            return [TrainingDivergedError(5)] + real_train_stack(*args, **kwargs)[1:]

        monkeypatch.setattr(harness, "train_stack", first_row_diverges)
        cfg = resolve_config(tiny_tree("curriculum", scoring={"kind": "self_taught"},
                                       repetitions=4, bootstrap={"generations": 1}))
        # generation 0 loses seed 0; generation 1 carries it and loses seed 1
        with pytest.raises(ExperimentError, match=r"2 of 4 repetitions .*\[0, 1\]"):
            bootstrap_loop(cfg)

    def test_reference_dataset_bootstrap_smoke(self):
        from curriculum_lab.harness import default_acceptance_tree
        tree = default_acceptance_tree("curriculum", repetitions=1)
        tree["scoring"] = {"kind": "self_taught"}
        tree["bootstrap"] = {"generations": 3}
        results = bootstrap_loop(resolve_config(tree))
        assert len(results) == 4
        # no monotone-improvement claim: repeated bootstrapping may plateau
        assert all(r.summary["failed_seeds"] == [] for r in results)


class TestGradientPipeline:
    def test_report_shape_and_flags(self):
        cfg = resolve_config(tiny_tree("curriculum"))
        report = gradient_coherence_pipeline(cfg)
        assert report["n_seeds"] == 2
        assert 0.0 <= report["fraction_variance_easy_below_random"] <= 1.0
        for entry in report["per_seed"].values():
            assert set(entry["total_variance"]) == {"easy_oracle", "random", "all"}
        assert report["subset_size"] == max(1, round(0.1 * 72))

    def test_json_serializable(self):
        cfg = resolve_config(tiny_tree("curriculum"))
        report = gradient_coherence_pipeline(cfg)
        json.dumps(report)

    def test_trains_recording_only_first_and_last_iteration(self, monkeypatch):
        # the report reads only the final models, so the vanilla runs record
        # at t = 0 and t = M-1 alone
        seen = []
        real = harness.train_stack

        def spying(*args, record_every, **kwargs):
            seen.append(record_every)
            return real(*args, record_every=record_every, **kwargs)

        monkeypatch.setattr(harness, "train_stack", spying)
        gradient_coherence_pipeline(resolve_config(tiny_tree("curriculum")))
        assert seen == [60]


class TestDatasetResolution:
    def test_csv_roundtrip_via_files(self, tmp_path):
        from curriculum_lab.data import save_dataset_csv, write_json
        cfg = resolve_config(tiny_tree())
        train_ds, test_ds = resolve_dataset(cfg)
        save_dataset_csv(train_ds, tmp_path / "train.csv")
        save_dataset_csv(test_ds, tmp_path / "test.csv")
        write_json(tmp_path / "bayes.json", train_ds.bayes.to_json())
        tree = tiny_tree()
        tree["dataset"] = {"train_csv": str(tmp_path / "train.csv"),
                           "test_csv": str(tmp_path / "test.csv"),
                           "bayes_json": str(tmp_path / "bayes.json")}
        train2, test2 = resolve_dataset(resolve_config(tree))
        assert np.array_equal(train2.X, train_ds.X)
        assert train2.bayes is not None

    def test_transfer_requires_embeddings(self):
        tree = tiny_tree("curriculum", scoring={"kind": "transfer"})
        cfg = resolve_config(tree)
        with pytest.raises(ConfigError, match="embeddings"):
            run_experiment(cfg)

    def test_anti_transfer_requires_embeddings(self):
        cfg = resolve_config(tiny_tree("anti", scoring={"kind": "transfer"}))
        with pytest.raises(ConfigError, match="embeddings"):
            run_experiment(cfg)

    def test_given_data_keeps_the_embeddings(self, tmp_path):
        config = resolve_config(emb_tree(tmp_path, tiny_tree("curriculum")))
        given = run_experiment(config, data=resolve_dataset(config))
        assert given.summary == run_experiment(config).summary

    @pytest.mark.parametrize("condition", ["self_paced", "vanilla", "random"])
    def test_unscored_condition_never_computes_transfer_scores(
            self, tmp_path, monkeypatch, condition):
        from curriculum_lab.data import EmbeddingTable
        train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
        save_embeddings_csv(EmbeddingTable(train_ds.X[:, :2]), tmp_path / "emb.csv")

        def forbidden(*args, **kwargs):
            raise AssertionError("transfer_score called for an unscored condition")

        monkeypatch.setattr(harness, "transfer_score", forbidden)
        tree = tiny_tree(condition, scoring={"kind": "transfer"})
        tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
        result = run_experiment(resolve_config(tree))
        assert result.summary["failed_seeds"] == []
        assert sorted(result.curves) == [0, 1]

    @pytest.mark.parametrize("condition", ["curriculum", "anti"])
    def test_unconverged_probe_warnings_reach_the_summary(self, tmp_path, monkeypatch,
                                                          condition):
        from curriculum_lab import scoring
        from curriculum_lab.data import EmbeddingTable
        train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
        save_embeddings_csv(EmbeddingTable(train_ds.X[:, :2]), tmp_path / "emb.csv")
        tree = tiny_tree(condition, scoring={"kind": "transfer"})
        tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
        converged = run_experiment(resolve_config(tree), out_dir=tmp_path / "a")
        assert converged.summary["warnings"] == []
        monkeypatch.setattr(scoring, "_PROBE_MAX_ITER", 3)
        capped = run_experiment(resolve_config(tree), out_dir=tmp_path / "b")
        probe_warnings = [w for w in capped.summary["warnings"] if w.startswith("transfer probe")]
        # one table serves both seeds; each fold is named once
        assert [w.split(" did")[0] for w in probe_warnings] == [
            f"transfer probe of fold {f}" for f in range(4)]
        on_disk = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert on_disk["warnings"] == capped.summary["warnings"]
