import json

import pytest

from curriculum_lab.cli import main
from curriculum_lab.config import resolve_config, validate_tree
from curriculum_lab.errors import ConfigError


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


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


class TestConfigValidation:
    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            validate_tree({"foo": 1, "pacing": {"bogus": 2, "variant": "vanilla"}})
        message = str(err.value)
        assert "foo" in message and "pacing.bogus" in message

    def test_value_vs_section_mismatch(self):
        with pytest.raises(ConfigError):
            validate_tree({"pacing": 3})

    def test_seed_override_rewrites_seeds(self):
        cfg = resolve_config(tiny_tree(seeds=[5, 6]), seed_override=9)
        assert cfg.seeds == (9, 10)

    def test_explicit_seeds_win(self):
        cfg = resolve_config(tiny_tree(seeds=[4, 8, 15], repetitions=3))
        assert cfg.seeds == (4, 8, 15)

    def test_mismatched_repetitions_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(tiny_tree(seeds=[1, 2], repetitions=3))

    def test_bad_condition_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(tiny_tree("mystery"))

    def test_varied_exp_boundaries_derived(self):
        tree = tiny_tree("curriculum")
        tree["pacing"] = {"variant": "varied_exp", "starting_percent": 0.25,
                          "increase": 2.0, "boundaries": [10, 25]}
        cfg = resolve_config(tree)
        assert cfg.boundaries == (10, 25)  # num_steps(0.25, 2) == 2

    def test_resolved_tree_is_json_clean(self):
        cfg = resolve_config(tiny_tree())
        json.dumps(cfg.tree)

    def test_dataset_and_grid_values_kept_as_written(self):
        tree = tiny_tree("curriculum")
        del tree["dataset"]["train_fraction"], tree["dataset"]["split_seed"]
        tree["dataset"]["synthetic"]["classes"] = "3"
        tree["grid"] = {"pacing": {"step_length": [5, "10"]}, "lr": {"lr0": [1, 0.5]}}
        resolved = resolve_config(tree).tree
        assert resolved["dataset"] == tree["dataset"]
        assert resolved["grid"]["pacing"] == {"step_length": [5, "10"]}
        assert resolved["grid"]["lr"] == {"lr0": [1, 0.5]}

    def test_missing_referenced_files_rejected(self):
        tree = tiny_tree()
        tree["dataset"] = {"train_csv": "/nonexistent/train.csv",
                           "test_csv": "/nonexistent/test.csv"}
        with pytest.raises(ConfigError, match="do not exist"):
            resolve_config(tree)

    def test_missing_score_file_rejected(self):
        tree = tiny_tree("curriculum", scoring={"kind": "file",
                                                "path": "/nonexistent/scores.csv"})
        with pytest.raises(ConfigError, match="scoring.path"):
            resolve_config(tree)


class TestCliGenData:
    def test_identical_bytes_across_runs(self, tmp_path):
        config = write_config(tmp_path, tiny_tree())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["gen-data", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("train.csv", "test.csv", "bayes.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_lists_outputs(self, tmp_path):
        config = write_config(tmp_path, tiny_tree())
        out = tmp_path / "o"
        main(["gen-data", "--config", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert "train.csv" in manifest["outputs"]
        assert manifest["config"]["dataset"]["synthetic"]["seed"] == 11


class TestCliErrors:
    def test_unknown_config_key_is_reported(self, tmp_path, capsys):
        config = write_config(tmp_path, {**tiny_tree(), "typo_key": 1})
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "typo_key" in capsys.readouterr().err

    def test_tiny_starting_percent_names_minimal_value(self, tmp_path, capsys):
        tree = tiny_tree("curriculum")
        tree["pacing"]["starting_percent"] = 0.05  # 72 * 0.05 -> 4 < batch 10
        config = write_config(tmp_path, tree)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "starting_percent must be at least" in err

    @pytest.mark.parametrize("section,key,value", [
        (None, "batch_size", "ten"),
        ("pacing", "boundaries", 5),
        ("pacing", "step_length", "x"),
        (None, "seeds", 3),
        ("model", "hidden", "a"),
        (None, "iterations", None),
        ("pacing", "increase", [1, 2]),
        ("dataset.synthetic", "classes", "a"),
        ("dataset.synthetic", "spread", [4.5]),
        ("dataset", "train_fraction", "most"),
        ("dataset", "split_seed", "seven"),
    ])
    def test_wrong_typed_value_names_its_key(self, tmp_path, capsys, section, key, value):
        tree = tiny_tree("curriculum")
        node = tree
        for part in section.split(".") if section else ():
            node = node[part]
        node[key] = value
        config = write_config(tmp_path, tree)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        dotted = key if section is None else f"{section}.{key}"
        assert capsys.readouterr().err.startswith(f"error: {dotted} must be of type ")

    def test_missing_synthetic_key_is_named(self, tmp_path, capsys):
        tree = tiny_tree()
        del tree["dataset"]["synthetic"]["dim"]
        config = write_config(tmp_path, tree)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: missing config key(s): dataset.synthetic.dim\n"

    def test_wrong_typed_grid_value_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import curriculum_lab.harness as harness
        cells = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: cells.append(a))
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["grid"] = {"pacing": {"step_length": [5, "x"]}}
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: grid.pacing.step_length must be of type int, got 'x'")
        assert cells == []
        assert not (out / "grid_audit.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("pacing", "boundaries", [[10, "y"]]),
        ("pacing", "starting_percent", [0.25, None]),
        ("lr", "lr_step_length", ["z"]),
        ("lr", "lr0", 0.1),
    ])
    def test_wrong_typed_grid_axis_names_its_key(self, section, key, value):
        tree = tiny_tree("curriculum")
        tree["grid"] = {section: {key: value}}
        with pytest.raises(ConfigError, match=f"^grid\\.{section}\\.{key} must be of type"):
            resolve_config(tree)

    def test_invalid_json_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestCliTrainAndScore:
    def test_train_writes_curves_summary_manifest(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out = tmp_path / "o"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "summary.json" in manifest["outputs"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["condition"] == "curriculum"
        assert (out / "curve_curriculum_seed0.csv").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train", "--config", str(config), "--out", str(out1), "--seed", "0"])
        main(["train", "--config", str(config), "--out", str(out2), "--seed", "123"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["seeds"] == [0, 1]
        assert s2["seeds"] == [123, 124]

    def test_rerun_from_manifest_config_is_identical(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out1 = tmp_path / "o1"
        main(["train", "--config", str(config), "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay = write_config(tmp_path, manifest["config"], name="replay.json")
        out2 = tmp_path / "o2"
        main(["train", "--config", str(replay), "--out", str(out2)])
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_single_step_with_stray_pacing_keys_trains(self, tmp_path):
        # increase and boundaries are not read by single_step; they must not
        # change the run or make the stacked plans' pacing spec unhashable
        tree = tiny_tree("curriculum")
        tree["pacing"] = {"variant": "single_step", "starting_percent": 0.25, "step_length": 15}
        clean = write_config(tmp_path, tree, name="clean.json")
        tree["pacing"].update(increase=2.0, boundaries=[5, 10])
        stray = write_config(tmp_path, tree, name="stray.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["train", "--config", str(clean), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(stray), "--out", str(out2)]) == 0
        for name in ("curve_curriculum_seed0.csv", "curve_curriculum_seed1.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # the summary differs only in the recorded config, which keeps the stray keys
        s1, s2 = (json.loads((out / "summary.json").read_text()) for out in (out1, out2))
        assert s2.pop("config")["pacing"]["boundaries"] == [5, 10]
        s1.pop("config")
        assert s1 == s2

    def test_score_writes_table(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out = tmp_path / "o"
        assert main(["score", "--config", str(config), "--out", str(out)]) == 0
        from curriculum_lab.scoring import load_scores_csv
        table = load_scores_csv(out / "scores.csv")
        assert len(table) == 72  # train side of 90 at 0.8

    def test_grid_search_cli(self, tmp_path):
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]},
                        "lr": {"lr0": [0.1, 0.3]}}
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(config), "--out", str(out)]) == 0
        audit = json.loads((out / "grid_audit.json").read_text())
        assert audit["cell_counts"]["total"] == 4
        assert (out / "best_config.json").exists()

    def test_bootstrap_cli(self, tmp_path):
        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"}, repetitions=1)
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(config), "--out", str(out),
                     "--generations", "2"]) == 0
        for g in range(3):
            assert (out / f"summary_gen{g}.json").exists()

    def test_analyze_gradients_cli(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out = tmp_path / "o"
        assert main(["analyze-gradients", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "gradient_report.json").read_text())
        assert report["n_seeds"] == 2


class TestCliTransferScoredConfig:
    def transfer_config(self, tmp_path):
        from curriculum_lab.data import EmbeddingTable, save_embeddings_csv
        from curriculum_lab.harness import resolve_dataset
        train_ds, _, _ = resolve_dataset(resolve_config(tiny_tree()))
        save_embeddings_csv(EmbeddingTable(train_ds.X[:, :2]), tmp_path / "emb.csv")
        tree = tiny_tree("curriculum", scoring={"kind": "transfer"}, repetitions=1)
        tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
        return write_config(tmp_path, tree)

    def test_analyze_gradients_accepts_transfer_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["analyze-gradients", "--config", str(self.transfer_config(tmp_path)),
                     "--out", str(out)]) == 0
        report = json.loads((out / "gradient_report.json").read_text())
        assert report["n_seeds"] == 1
        assert "gradient_report.json" in json.loads((out / "manifest.json").read_text())["outputs"]

    def test_score_prints_unconverged_probe_warnings(self, tmp_path, monkeypatch, capsys):
        from curriculum_lab import scoring
        config = str(self.transfer_config(tmp_path))
        assert main(["score", "--config", config, "--out", str(tmp_path / "a")]) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setattr(scoring, "_PROBE_MAX_ITER", 3)
        assert main(["score", "--config", config, "--out", str(tmp_path / "b")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4   # one line per fold, four by default
        assert all(line.startswith("warning: transfer probe of fold") for line in err)
        assert (tmp_path / "b" / "scores.csv").exists()

    def test_bootstrap_accepts_transfer_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(self.transfer_config(tmp_path)),
                     "--out", str(out), "--generations", "1"]) == 0
        for g in range(2):
            summary = json.loads((out / f"summary_gen{g}.json").read_text())
            assert summary["generation"] == g
            assert summary["failed_seeds"] == []


class TestCliNumericalFailure:
    def test_diverging_self_taught_score_is_a_typed_error(self, tmp_path, capsys):
        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"},
                         model={"architecture": "mlp1", "hidden": 6})
        tree["lr"]["lr0"] = 1e12
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["score", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "iteration" in err
        assert not (out / "scores.csv").exists()


    def test_grid_search_with_every_cell_failing_exits_2(self, tmp_path, capsys):
        tree = tiny_tree("curriculum", repetitions=1, iterations=40,
                         model={"architecture": "mlp1", "hidden": 6})
        tree["lr"]["lr0"] = 1e12
        tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [1e12]}}
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: all 3 grid cells failed")
        audit = json.loads((out / "grid_audit.json").read_text())
        assert [e["criterion_value"] for e in audit["entries"]] == [None, None, None]
        assert not (out / "manifest.json").exists()


class TestCliVerifyTheory:
    def test_exit_zero_and_clean_report(self, tmp_path):
        out = tmp_path / "o"
        code = main(["verify-theory", "--out", str(out), "--instances", "50",
                     "--seed", "1"])
        assert code == 0
        report = json.loads((out / "theory_report.json").read_text())
        assert report["passed"]
        assert report["argmax_preservation_violations"] == 0
        assert report["constant_variance_violations"] == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("with_config", [False, True])
    def test_instances_override_reruns_from_manifest(self, tmp_path, with_config):
        argv = ["verify-theory", "--instances", "30", "--seed", "3"]
        if with_config:
            argv += ["--config", str(write_config(
                tmp_path, {"theory": {"instances": 1000, "constant_variance_families": 4}}))]
        first = tmp_path / "a"
        assert main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["theory"]["instances"] == 30
        replay = write_config(tmp_path, manifest["config"], name="replay.json")
        second = tmp_path / "b"
        assert main(["verify-theory", "--config", str(replay), "--out", str(second)]) == 0
        report = (first / "theory_report.json").read_bytes()
        assert json.loads(report)["instances"] == 30
        assert (second / "theory_report.json").read_bytes() == report
