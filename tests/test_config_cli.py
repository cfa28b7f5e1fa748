import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from curriculum_lab.cli import main
from curriculum_lab.config import _SCHEMA, resolve_config, validate_tree
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


SYNTHETIC = tiny_tree()["dataset"]["synthetic"]


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


def csv_tree(tmp_path):
    """A curriculum config read from the CSV files `gen-data` writes."""
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(write_config(tmp_path, tiny_tree())),
                 "--out", str(data)]) == 0
    tree = tiny_tree("curriculum")
    tree["dataset"] = {"train_csv": str(data / "train.csv"),
                       "test_csv": str(data / "test.csv"),
                       "bayes_json": str(data / "bayes.json")}
    return tree, data


@pytest.fixture(scope="module")
def console_data(tmp_path_factory):
    """The CSV splits and mixture that `gen-data` writes without a config,
    and emb.csv: embeddings of the training split's first four features."""
    data = tmp_path_factory.mktemp("console") / "data"
    assert main(["gen-data", "--out", str(data)]) == 0
    rows = [line.split(",") for line in (data / "train.csv").read_text().splitlines()]
    (data / "emb.csv").write_text("id,e0,e1,e2,e3\n" + "".join(
        ",".join([row[0], *row[2:6]]) + "\n" for row in rows[1:]))
    return data


def console_tree(data, **overrides):
    """The self-taught curriculum of 300 steps and 2 repetitions on the
    console_data splits, edited by `overrides`."""
    dataset = {"train_csv": str(data / "train.csv"), "test_csv": str(data / "test.csv"),
               "bayes_json": str(data / "bayes.json")}
    if overrides.get("scoring", {}).get("kind") == "transfer":
        dataset["embeddings_csv"] = str(data / "emb.csv")
    return {"dataset": dataset, "condition": "curriculum", "scoring": {"kind": "self_taught"},
            "iterations": 300, "repetitions": 2, **overrides}


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
        tree = tiny_tree(seeds=[3, 4, 5])
        del tree["repetitions"]  # the count comes from the seeds list alone
        assert resolve_config(tree, seed_override=7).seeds == (7, 8, 9)
        # the override rewrites the seeds, not their count: a mismatch stays an error
        with pytest.raises(ConfigError, match="repetitions does not match the length of seeds"):
            resolve_config(tiny_tree(seeds=[3, 4, 5], repetitions=2), seed_override=7)

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
        assert cfg.pacing["boundaries"] == (10, 25)  # num_steps(0.25, 2) == 2

    def test_resolved_tree_is_json_clean(self):
        cfg = resolve_config(tiny_tree())
        json.dumps(cfg.tree)

    def test_dataset_and_grid_values_kept_as_written(self):
        tree = tiny_tree("curriculum")
        del tree["dataset"]["train_fraction"], tree["dataset"]["split_seed"]
        tree["dataset"]["synthetic"]["classes"] = 3.0
        tree["grid"] = {"pacing": {"step_length": [5, 10.0]}, "lr": {"lr0": [1, 0.5]}}
        resolved = resolve_config(tree).tree
        # compared as JSON text: 3.0 == 3 in Python, but not once written out
        assert json.dumps(resolved["dataset"]) == json.dumps(tree["dataset"])
        assert json.dumps(resolved["grid"]["pacing"]) == '{"step_length": [5, 10.0]}'
        assert json.dumps(resolved["grid"]["lr"]) == '{"lr0": [1, 0.5]}'

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

    def test_unbuildable_pacing_names_its_section(self, tmp_path, capsys):
        # the schema lets step_length be 0 (a legal single_step); fixed_exp needs 1
        tree = tiny_tree("curriculum")
        tree["pacing"]["step_length"] = 0
        config = write_config(tmp_path, tree)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: pacing: step_length must be >= 1, got 0\n"

    # bootstrap and analyze-gradients plan vanilla runs, which have no starting_percent
    @pytest.mark.parametrize("command", ["train", "bootstrap", "analyze-gradients"])
    def test_batch_size_above_the_training_split_names_it(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tiny_tree(
            "curriculum", batch_size=1000))), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: batch_size=1000 exceeds the dataset's "
                                           "N=72 examples\n")
        assert os.listdir(out) == []

    # a self-taught scorer's plan gives the error, as the run's own plan would
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_self_taught_batch_size_above_the_training_split_names_it(self, tmp_path, capsys,
                                                                     command):
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tiny_tree(
            "curriculum", batch_size=1000, scoring={"kind": "self_taught"}))),
            "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: batch_size=1000 exceeds the dataset's "
                                           "N=72 examples\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("scoring", ["oracle", "self_taught"])
    def test_grid_audits_a_batch_size_above_the_fit_split(self, tmp_path, capsys, scoring):
        # a self-taught cell's scorers cannot be planned either: their error is the cell's
        tree = tiny_tree("curriculum", repetitions=1, iterations=40, batch_size=60,
                         scoring={"kind": scoring},
                         grid={"pacing": {"starting_percent": [0.9, 1.0]}})
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        error = "batch_size=60 exceeds the dataset's N=58 examples"
        assert capsys.readouterr().err == f"error: all 3 grid cells failed; first error: {error}\n"
        # both pacing cells, then stage 2 at the base learning rate
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [(e["failed"], e["error"]) for e in entries] == [(True, error)] * 3

    @pytest.mark.parametrize("command", ["gen-data", "score", "train", "grid-search",
                                         "bootstrap", "analyze-gradients", "verify-theory"])
    @pytest.mark.parametrize("pacing,error", [
        ({"variant": "fixed_exp", "step_length": 0}, "step_length must be >= 1, got 0"),
        ({"variant": "varied_exp", "starting_percent": 0.25, "increase": 2.0,
          "boundaries": [10, 5]}, "boundaries must be strictly increasing, got (10, 5)"),
        ({"variant": "varied_exp", "starting_percent": 0.25, "increase": 2.0,
          "boundaries": [5, 10, 15]}, "varied_exp takes at most num_steps=2 boundaries, got 3"),
    ], ids=["step-length-0", "decreasing", "too-many"])
    def test_cross_key_pacing_rule_fails_every_command(self, tmp_path, capsys, command,
                                                       pacing, error):
        # the rules across pacing keys that do not read N are checked when the
        # config resolves, also by the commands that never build the pacing
        tree = tiny_tree("curriculum", pacing=pacing,
                         grid={"pacing": {"starting_percent": [0.25, 0.5]}})
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: pacing: {error}\n"
        assert not (out / "manifest.json").exists()

    def test_unextendable_boundaries_name_their_section(self, tmp_path, capsys):
        # one boundary cannot be extended to the two steps varied_exp needs here
        tree = tiny_tree("curriculum")
        tree["pacing"] = {"variant": "varied_exp", "starting_percent": 0.25, "increase": 2.0,
                          "boundaries": [10]}
        config = write_config(tmp_path, tree)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: pacing: need at least the first two boundaries to derive the remaining 1\n")

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
        # int() would truncate these or read True as 1
        (None, "iterations", 150.9),
        ("model", "hidden", 7.9),
        (None, "batch_size", True),
        (None, "seeds", [0, 1.5]),
        ("dataset.synthetic", "n_per_class", 30.5),
        # float() would read True as 1.0 and parse strings, int() would parse "100"
        ("lr", "lr0", True),
        ("pacing", "starting_percent", True),
        ("lr", "decrease_factor", "1.5"),
        (None, "batch_size", "100"),
        (None, "seeds", "01"),
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

    @staticmethod
    def schema_leaves(schema=_SCHEMA, prefix=""):
        """(dotted key, type, domain) of every schema leaf; the domain of a
        bare-type leaf is None."""
        for key, leaf in schema.items():
            if isinstance(leaf, dict):
                yield from TestCliErrors.schema_leaves(leaf, f"{prefix}{key}.")
            else:
                yield (prefix + key, *(leaf if isinstance(leaf, tuple) else (leaf, None)))

    @staticmethod
    def planted(dotted, value):
        """The curriculum tiny config with `value` at the dotted key."""
        tree = tiny_tree("curriculum")
        *sections, key = dotted.split(".")
        node = tree
        for part in sections:
            node = node.setdefault(part, {})
        node[key] = value
        return tree

    def test_every_schema_leaf_rejects_a_wrong_typed_value(self, tmp_path, capsys):
        # walks the schema itself, so a key added later cannot skip the check
        visited = set()
        for dotted, t, _domain in self.schema_leaves():
            wrong = ([5] if isinstance(t, list) else [["x"]] if t is str
                     else ["x", True])
            for value in wrong:
                config = write_config(tmp_path, self.planted(dotted, value))
                assert main(["train", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 2, (dotted, value)
                err = capsys.readouterr().err
                assert err == f"error: {dotted} must be of type " \
                    f"{'list' if isinstance(t, list) else t.__name__}, got {value!r}\n"
            visited.add(dotted)
        assert {"condition", "seeds", "dataset.synthetic.spread", "grid.pacing.boundaries",
                "theory.constant_variance_families"} <= visited

    def test_every_float_leaf_rejects_a_non_finite_value(self, tmp_path, capsys):
        # NaN and ±Infinity are JSON to Python's reader, but no float leaf takes them
        visited = set()
        for dotted, t, _domain in self.schema_leaves():
            if t not in (float, [float]):
                continue
            for value in (float("nan"), float("inf"), float("-inf")):
                config = write_config(
                    tmp_path, self.planted(dotted, [value] if t == [float] else value))
                assert main(["train", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 2, (dotted, value)
                assert capsys.readouterr().err == \
                    f"error: {dotted} must be a finite number, got {value!r}\n"
            visited.add(dotted)
        assert {"dataset.synthetic.spread", "lr.lr0", "pacing.increase", "grid.lr.lr0",
                "gradient_analysis.subset_fraction"} <= visited

    @staticmethod
    def outside(scalar, domain):
        """Values of type `scalar` just outside `domain`, with the phrase of
        the error that names them."""
        if isinstance(domain, tuple):
            return ["bogus", ""], f"one of {domain}"
        if domain[0] in "([":
            lo, hi = map(scalar, domain[1:-1].split(","))
            step = scalar(1)
            return [lo if domain[0] == "(" else lo - step,
                    hi if domain[-1] == ")" else hi + step], f"in {domain}"
        op, bound = domain.split()
        bound = scalar(bound)
        return [bound if op == ">" else bound - 1, bound - 5], domain

    def test_every_domain_leaf_rejects_an_out_of_domain_value(self, tmp_path, capsys):
        # each leaf with a domain, planted alone: a value just past each edge,
        # an unknown string for a fixed set of strings, one element of a list
        visited = set()
        for dotted, t, domain in self.schema_leaves():
            if domain is None:
                continue
            scalar, depth = t, 0
            while isinstance(scalar, list):
                scalar, depth = scalar[0], depth + 1
            values, phrase = self.outside(scalar, domain)
            for value in values:
                planted = value
                for _ in range(depth):  # the one element of a list leaf
                    planted = [planted]
                config = write_config(tmp_path, self.planted(dotted, planted))
                assert main(["train", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 2, (dotted, value)
                assert capsys.readouterr().err == \
                    f"error: {dotted} must be {phrase}, got {value!r}\n", (dotted, value)
            visited.add(dotted)
        assert {"condition", "pacing.variant", "lr.variant", "model.architecture",
                "scoring.kind", "selection.criterion", "model.hidden", "seeds",
                "grid.pacing.starting_percent", "grid.pacing.boundaries",
                "dataset.synthetic.classes", "gradient_analysis.subset_fraction"} <= visited

    def test_missing_synthetic_key_is_named(self, tmp_path, capsys):
        tree = tiny_tree()
        del tree["dataset"]["synthetic"]["dim"]
        config = write_config(tmp_path, tree)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: missing config key(s): dataset.synthetic.dim\n"

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("spread,variance", [(1e155, "inf"), (1e-300, "0.0")])
    def test_spread_whose_square_leaves_the_float_range_is_named(self, tmp_path, capsys,
                                                                  command, spread, variance):
        tree = tiny_tree("curriculum")
        tree["dataset"]["synthetic"]["spread"] = spread
        code = main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset.synthetic.spread: the variance spread**2 must be finite and > 0, "
            f"got {variance} from spread {spread}\n")

    def test_subnormal_variance_trains_without_a_warning(self, tmp_path):
        # spread 1e-160 squares to 1e-320: the far classes' oracle logits
        # overflow to -inf, which leaves every posterior finite
        import warnings
        tree = tiny_tree("curriculum")
        tree["dataset"]["synthetic"]["spread"] = 1e-160
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(write_config(tmp_path, tree)),
                         "--out", str(tmp_path / "o")]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_wrong_typed_grid_value_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import curriculum_lab.harness as harness
        cells = []
        monkeypatch.setattr(harness, "train_stack", lambda *a, **k: cells.append(a))
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["grid"] = {"pacing": {"step_length": [5, "x"]}}
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: grid.pacing.step_length must be of type int, got 'x'")
        assert cells == []
        assert not (out / "grid_audit.json").exists()

    @pytest.mark.parametrize("pacing,axis,failed,error", [
        # the [10] cell's tree does not resolve: one boundary cannot be extended
        ({"variant": "varied_exp", "starting_percent": 0.25, "increase": 2.0,
          "boundaries": [10, 25]}, {"boundaries": [[10, 25], [10]]}, [False, True, False],
         "pacing: need at least the first two boundaries to derive the remaining 1"),
        # the 0 cell's tree does not resolve: fixed_exp needs a step_length of 1
        (None, {"step_length": [0, 15]}, [True, False, False],
         "pacing: step_length must be >= 1, got 0"),
    ], ids=["unresolvable-cell", "unbuildable-pacing"])
    def test_failing_grid_cell_is_audited_and_the_search_goes_on(self, tmp_path, pacing, axis,
                                                                  failed, error):
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["pacing"] = pacing or tree["pacing"]
        tree["grid"] = {"pacing": axis}
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(config), "--out", str(out)]) == 0
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [e["failed"] for e in entries] == failed
        assert [e["error"] for e in entries if e["failed"]] == [error]

    @pytest.mark.parametrize("section,key,value", [
        ("pacing", "boundaries", [[10, "y"]]),
        ("pacing", "starting_percent", [0.25, None]),
        ("lr", "lr_step_length", ["z"]),
        ("lr", "lr0", 0.1),
        ("pacing", "step_length", [5, 7.5]),
        ("lr", "lr_step_length", [False]),
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


class TestCliMalformedInput:
    """Each input that cannot be used ends in exit 2 and one `error:` line of
    under 400 bytes naming the path or key, never a traceback."""

    def error_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err.encode()) < 400, err[:400]
        return err

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert str(path) in err

    def test_config_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json reads it through int(), whose ValueError is no JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {path}: not valid JSON")

    def test_config_nested_past_the_recursion_limit(self, tmp_path, capsys):
        # json's decoder recurses once per level: a RecursionError, no ValueError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {path}: not valid JSON")

    @pytest.mark.parametrize("text,start", [
        ('{"dataset": {"synthetic": {"classes": ' + "[" * 900 + "]" * 900 + "}}}",
         "dataset.synthetic.classes must be "),
        ('{"condition": "' + "x" * 100_000 + '"}', "condition must be "),
        ('{"seeds": [' + ", ".join(map(str, range(10_000))) + ", 0]}", "seeds must be "),
        ('{"' + "k" * 100_000 + '": 1}', "unknown config key(s): kkk"),
        ('{"' + "a" * 5_000 + '": 1, "' + "b" * 5_000 + '": 2}', "unknown config key(s): aaa"),
    ], ids=["list-900-deep", "100000-character-string", "10001-seeds",
            "100000-character-key", "two-5000-character-keys"])
    def test_oversized_config_value_gives_a_short_error_line(self, tmp_path, capsys, text,
                                                              start):
        # the error abbreviates the value or keys it echoes, so its line stays short
        path = tmp_path / "big.json"
        path.write_text(text)
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {start}") and len(err) < 300, err[:300]

    def test_short_config_value_is_echoed_as_repr(self, tmp_path, capsys):
        path = tmp_path / "dict.json"
        path.write_text('{"seeds": [{"b": 1, "a": 2}]}')
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert err == "error: seeds must be of type int, got {'b': 1, 'a': 2}\n"

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"condition": "vanilla\xff"}')
        err = self.error_line(capsys, ["train", "--config", str(path),
                                       "--out", str(tmp_path / "o")])
        assert str(path) in err

    @pytest.mark.parametrize("section,key,value", [
        ("dataset", "train_csv", ["x"]),
        ("pacing", "variant", ["a"]),
        ("scoring", "path", 0),
    ])
    def test_non_string_path_or_enum_value(self, tmp_path, capsys, section, key, value):
        # a list path reached os.stat, a list variant a set lookup, and 0 was
        # read by os.path.isfile as a file descriptor
        tree = tiny_tree("curriculum")
        tree[section][key] = value
        config = write_config(tmp_path, tree)
        err = self.error_line(capsys, ["train", "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {section}.{key} must be of type str, got {value!r}")

    @pytest.mark.parametrize("command,out", [
        (["train"], "afile"),
        (["verify-theory", "--instances", "5"], "afile/x"),
    ])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, command, out):
        (tmp_path / "afile").write_text("")
        argv = [*command, "--out", str(tmp_path / out)]
        if command == ["train"]:
            argv += ["--config", str(write_config(tmp_path, tiny_tree("curriculum")))]
        err = self.error_line(capsys, argv)
        assert err.startswith(f"error: --out {tmp_path / out}: cannot make the output directory")
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("command,artifact", [
        (["train"], "summary.json"),
        (["verify-theory", "--instances", "5"], "manifest.json"),
    ])
    def test_artifact_that_cannot_be_written(self, tmp_path, capsys, command, artifact):
        (tmp_path / "o" / artifact).mkdir(parents=True)
        argv = [*command, "--out", str(tmp_path / "o")]
        if command == ["train"]:
            argv += ["--config", str(write_config(tmp_path, tiny_tree("curriculum")))]
        err = self.error_line(capsys, argv)
        assert err == f"error: {tmp_path / 'o' / artifact}: Is a directory\n"

    def test_duplicate_seeds(self, tmp_path, capsys):
        config = write_config(tmp_path, tiny_tree("curriculum", seeds=[0, 0, 1], repetitions=3))
        err = self.error_line(capsys, ["train", "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith("error: seeds must be distinct")

    @pytest.mark.parametrize("flags,tree,named", [
        (["--instances", "-3"], None, "--instances must be >= 0, got -3"),
        (["--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (["--instances", "-3"], {"theory": {"instances": 5}}, "--instances must be >= 0"),
        ([], {"theory": {"instances": -3}}, "theory.instances must be >= 0, got -3"),
        ([], {"theory": {"constant_variance_families": -2}},
         "theory.constant_variance_families must be >= 0, got -2"),
        ([], {"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["instances-flag", "seed-flag", "instances-flag-over-config", "instances",
            "families", "seed"])
    def test_negative_theory_count_or_seed(self, tmp_path, capsys, flags, tree, named):
        argv = ["verify-theory", "--out", str(tmp_path / "o"), *flags]
        if tree is not None:
            argv += ["--config", str(write_config(tmp_path, tree))]
        assert self.error_line(capsys, argv).startswith(f"error: {named}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flags,overrides,named", [
        ("train", [], {"seeds": [3, -2], "repetitions": 2}, "seeds must be >= 0, got -2"),
        ("train", [], {"seed": -1}, "seed must be >= 0, got -1"),
        ("train", ["--seed", "-1"], {}, "--seed must be >= 0, got -1"),
        ("train", [], {"dataset": {"synthetic": {**SYNTHETIC, "seed": -4}}},
         "dataset.synthetic.seed must be >= 0, got -4"),
        ("train", [], {"dataset": {"synthetic": SYNTHETIC, "split_seed": -2}},
         "dataset.split_seed must be >= 0, got -2"),
        ("train", [], {"grid": {"split_seed": -3}}, "grid.split_seed must be >= 0, got -3"),
        ("bootstrap", [], {"bootstrap": {"generations": -1}},
         "bootstrap.generations must be >= 0, got -1"),
        ("bootstrap", ["--generations", "-2"], {}, "--generations must be >= 0, got -2"),
        ("bootstrap", ["--generations", "-2"], {"bootstrap": {"generations": 3}},
         "--generations must be >= 0, got -2"),
        # vanilla overwrites the pacing variant, so the one written is checked first
        ("gen-data", [], {"condition": "vanilla", "pacing": {"variant": "bogus"}},
         "pacing.variant must be one of ('fixed_exp', 'varied_exp', 'single_step', 'vanilla'), "
         "got 'bogus'"),
        ("train", [], {"model": {"architecture": "linear_softmax", "hidden": -3}},
         "model.hidden must be >= 0, got -3"),
        ("grid-search", [], {"grid": {"pacing": {"starting_percent": [1.5, 0.25]}}},
         "grid.pacing.starting_percent must be in (0, 1], got 1.5"),
        # a key the variant does not read is checked too
        ("train", [], {"lr": {"variant": "exponential", "lr_min": 0}},
         "lr.lr_min must be > 0, got 0.0"),
        # a rule across a section's keys names the section
        ("train", [], {"model": {"architecture": "mlp1", "hidden": 0}},
         "model: mlp1 needs hidden >= 1, got 0"),
        ("train", [], {"lr": {"variant": "cyclical", "lr_min": 0.5, "lr_max": 0.1}},
         "lr: need 0 < lr_min <= lr_max, got 0.5, 0.1"),
        # a grid axis the variant does not read would train one model in every cell
        ("grid-search", [], {"lr": {"variant": "cyclical"},
                             "grid": {"lr": {"decrease_factor": [1.2, 2.0]}}},
         "grid.lr.decrease_factor is not read by lr.variant cyclical"),
        ("grid-search", [], {"pacing": {"variant": "single_step"},
                             "grid": {"pacing": {"increase": [1.5, 2.0]}}},
         "grid.pacing.increase is not read by pacing.variant single_step"),
    ], ids=["seeds", "seed", "seed-flag", "synthetic-seed", "split-seed", "grid-split-seed",
            "generations", "generations-flag", "generations-flag-over-config",
            "unknown-pacing-variant", "negative-hidden", "grid-element", "unread-lr-key",
            "mlp1-without-hidden", "lr-min-above-max", "unread-grid-lr-axis",
            "unread-grid-pacing-axis"])
    def test_negative_training_seed(self, tmp_path, capsys, command, flags, overrides, named):
        # and every other bad config value: each names its key or section
        config = write_config(tmp_path, tiny_tree(**{"condition": "curriculum", **overrides}))
        err = self.error_line(capsys, [command, "--config", str(config),
                                       "--out", str(tmp_path / "o"), *flags])
        assert err.startswith(f"error: {named}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_truncating_or_boolean_theory_count(self, tmp_path, capsys, value):
        config = write_config(tmp_path, {"theory": {"instances": value}})
        err = self.error_line(capsys, ["verify-theory", "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err == f"error: theory.instances must be of type int, got {value!r}\n"

    def test_integral_float_for_an_integer_key_is_still_accepted(self):
        config = resolve_config(tiny_tree(iterations=60.0, batch_size=10.0))
        assert (config.iterations, config.batch_size) == (60, 10)

    @pytest.mark.parametrize("section,key,value", [
        ("dataset", "train_fraction", 1.0),
        ("dataset", "train_fraction", 0),
        ("dataset", "train_fraction", 1.5),
        ("grid", "validation_fraction", 1.0),
        ("grid", "validation_fraction", 0),
    ])
    def test_out_of_range_fraction_names_its_key(self, tmp_path, capsys, section, key, value):
        tree = tiny_tree("curriculum")
        tree.setdefault(section, {})[key] = value
        config = write_config(tmp_path, tree)
        err = self.error_line(capsys, ["train", "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err == f"error: {section}.{key} must be in (0, 1), got {float(value)!r}\n"

    @pytest.mark.parametrize("value", [0.0, -0.5, 5.0])
    def test_out_of_range_subset_fraction_names_its_key(self, tmp_path, capsys, value):
        tree = tiny_tree("curriculum", gradient_analysis={"subset_fraction": value})
        config = write_config(tmp_path, tree)
        err = self.error_line(capsys, ["analyze-gradients", "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err == f"error: gradient_analysis.subset_fraction must be in (0, 1], " \
            f"got {value!r}\n"

    def test_whole_training_set_subset_fraction_runs(self, tmp_path):
        tree = tiny_tree("curriculum", gradient_analysis={"subset_fraction": 1.0})
        out = tmp_path / "o"
        assert main(["analyze-gradients", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        assert json.loads((out / "gradient_report.json").read_text())["subset_size"] == 72

    @pytest.mark.parametrize("command,section,key", [
        ("train", "dataset", "train_fraction"),
        ("grid-search", "grid", "validation_fraction"),
    ])
    def test_fraction_leaving_a_class_empty_names_its_key(self, tmp_path, capsys, command,
                                                          section, key):
        tree = tiny_tree("curriculum", grid={"lr": {"lr0": [0.1, 0.2]}})
        tree[section][key] = 0.01
        config = write_config(tmp_path, tree)
        err = self.error_line(capsys, [command, "--config", str(config),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {section}.{key}: fraction 0.01 leaves class ")

    @pytest.mark.parametrize("edit,named", [
        (lambda bayes: {}, "missing key(s) means, variance, class_priors"),
        (lambda bayes: "{not json", "not valid JSON"),
        (lambda bayes: '{"variance": ' + "1" * 5000 + "}", "not valid JSON"),
        (lambda bayes: "[" * 100_000 + "]" * 100_000, "not valid JSON"),
        (lambda bayes: {**bayes, "means": bayes["means"][0]}, "means must be a (K, d) matrix"),
        (lambda bayes: {**bayes, "means": [[1.0, "x"]]}, "malformed mixture"),
        (lambda bayes: {**bayes, "variance": 0.0}, "variance must be finite and > 0"),
        (lambda bayes: {**bayes, "variance": float("inf")}, "variance must be finite and > 0"),
        (lambda bayes: {**bayes, "class_priors": [0.5, 0.5]}, "class_priors must hold 3"),
        (lambda bayes: {**bayes, "means": [m + [0.0] for m in bayes["means"]]},
         "dataset.bayes_json: means have shape (3, 5)"),
        (lambda bayes: {**bayes, "means": bayes["means"][:2], "class_priors": [0.5, 0.5]},
         "dataset.bayes_json: means have shape (2, 4)"),
    ], ids=["empty", "not-json", "integer-past-digit-limit", "nested-past-recursion-limit",
            "means-1d", "means-not-numeric", "variance-0", "variance-inf",
            "priors-length", "means-wrong-d", "means-wrong-k"])
    def test_malformed_bayes_json(self, tmp_path, capsys, edit, named):
        tree, data = csv_tree(tmp_path)
        path = data / "bayes.json"
        bad = edit(json.loads(path.read_text()))
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        err = self.error_line(capsys, ["train", "--config", str(write_config(tmp_path, tree)),
                                       "--out", str(tmp_path / "o")])
        assert named in err
        if not named.startswith("dataset.bayes_json"):
            assert str(path) in err

    @pytest.mark.parametrize("label,feature,named", [
        ("0", "1" * 131073, "line {n} cannot be parsed"),  # past csv's field size limit
        ("1000000000000", "1.0", "empty class 3"),
    ], ids=["oversized-field", "huge-label"])
    def test_dataset_csv_row_past_a_limit(self, tmp_path, capsys, label, feature, named):
        tree, data = csv_tree(tmp_path)
        path = data / "train.csv"
        lines = path.read_text().splitlines()
        row = [str(len(lines) - 1), label] + lines[-1].split(",")[2:-1] + [feature]
        path.write_text("\n".join(lines + [",".join(row)]) + "\n")
        err = self.error_line(capsys, ["train", "--config", str(write_config(tmp_path, tree)),
                                       "--out", str(tmp_path / "o")])
        assert err.startswith(f"error: {path}: " + named.format(n=len(lines) + 1)), err

    @pytest.mark.parametrize("name", ["train.csv", "test.csv"])
    def test_dataset_csv_not_utf8(self, tmp_path, capsys, name):
        tree, data = csv_tree(tmp_path)
        path = data / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        err = self.error_line(capsys, ["train", "--config", str(write_config(tmp_path, tree)),
                                       "--out", str(tmp_path / "o")])
        assert f"{path}: cannot read file" in err

    @pytest.mark.parametrize("kind", ["transfer", "file"])
    def test_embeddings_or_scores_csv_not_utf8(self, tmp_path, capsys, kind):
        path = tmp_path / "table.csv"
        path.write_bytes(b"id,e0\n0,\xff\n")
        tree = tiny_tree("curriculum", scoring={"kind": kind})
        if kind == "file":
            tree["scoring"]["path"] = str(path)
        else:
            tree["dataset"]["embeddings_csv"] = str(path)
        err = self.error_line(capsys, ["train", "--config", str(write_config(tmp_path, tree)),
                                       "--out", str(tmp_path / "o")])
        assert f"{path}: cannot read file" in err

    @staticmethod
    def relabel(rows):
        # half of class 2 becomes a class 3 that the training set lacks
        twos = [row for row in rows[1:] if row[1] == "2"]
        for row in twos[: len(twos) // 2]:
            row[1] = "3"
        return rows

    @staticmethod
    def widen(rows):
        return [row + [f"f{len(rows[0]) - 2}" if i == 0 else "0.5"]
                for i, row in enumerate(rows)]

    @pytest.mark.parametrize("edit,named", [
        (relabel, "dataset.test_csv: label 3 is not a class of the training set"),
        (widen, "dataset.test_csv: rows have 5 features, the training set has 4"),
    ], ids=["unknown-label", "wider"])
    def test_test_csv_that_does_not_fit_the_training_set(self, tmp_path, capsys, edit, named):
        tree, data = csv_tree(tmp_path)
        path = data / "test.csv"
        rows = edit([line.split(",") for line in path.read_text().splitlines()])
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "o"
        err = self.error_line(capsys, ["train", "--config", str(write_config(tmp_path, tree)),
                                       "--out", str(out)])
        assert named in err
        assert not list(out.glob("curve_*"))  # rejected before any training

    def test_entry_point_exit_code_reaches_the_shell(self, tmp_path):
        # the real entry point, as a shell runs it: exit status 2, no traceback
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "curriculum_lab", "train",
             "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


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

    # the console-script runs' edits of console_tree: self-paced, and mlp1 on
    # transfer scores of the console embeddings, with and without grids
    GRID = {"pacing": {"starting_percent": [0.1, 0.2]}, "lr": {"lr0": [0.1, 0.2]}}
    MLP1 = {"scoring": {"kind": "transfer"}, "model": {"architecture": "mlp1", "hidden": 8},
            "lr": {"lr0": 0.5}}

    @pytest.mark.parametrize("command,kind,edit", [
        ("train", "oracle", None), ("gen-data", "oracle", None), ("score", "oracle", None),
        ("score", "self_taught", None), ("score", "transfer", None), ("score", "file", None),
        ("grid-search", "oracle", None), ("analyze-gradients", "oracle", None),
        ("bootstrap", "self_taught", None), ("verify-theory", "oracle", None),
        ("train", "self_taught", {"condition": "self_paced"}),
        ("grid-search", "self_taught", {"condition": "self_paced", "grid": GRID}),
        ("train", "transfer", MLP1), ("train", "transfer", {**MLP1, "condition": "self_paced"}),
        ("analyze-gradients", "transfer", MLP1),
        ("grid-search", "transfer",
         {**MLP1, "grid": {"pacing": {"starting_percent": [0.1, 0.2]}, "lr": {"lr0": [0.3, 0.5]}}}),
        ("grid-search", "file", {"grid": GRID}), ("verify-theory", None, None),
    ], ids=["train", "gen-data", "score-oracle", "score-self_taught", "score-transfer",
            "score-file", "grid-search", "analyze-gradients", "bootstrap", "verify-theory",
            "console-self-paced", "console-grid-self-paced", "console-mlp",
            "console-mlp-self-paced", "console-mlp-grad", "console-mlp-grid", "console-grid-file",
            "console-theory"])
    def test_rerun_from_manifest_config_is_identical(self, tmp_path, capsys, console_data,
                                                     command, kind, edit):
        # `edit` None is the tiny config, else an edit of console_tree; `kind`
        # None runs without --config
        tree = tiny_tree("curriculum", scoring={"kind": kind},
                         theory={"instances": 50, "constant_variance_families": 5})
        if edit is not None:
            tree = console_tree(console_data, **edit)
        elif command == "bootstrap":
            # seed 1 fails from generation 1 on, so those curves are not written
            tree = TestCliNumericalFailure.outlier_tree(tmp_path, bootstrap={"generations": 2})
        elif kind == "transfer":
            tree = TestCliTransferScoredConfig.transfer_tree(tmp_path, tree)
        if command == "grid-search" and edit is None:
            tree.update(repetitions=1, iterations=40,
                        grid={"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [0.1, 0.3]}})
        if kind == "file":
            table = tmp_path / "table"
            base = tiny_tree() if edit is None else console_tree(console_data)
            assert main(["score", "--config", str(write_config(tmp_path, base)),
                         "--out", str(table)]) == 0
            tree["scoring"] = {"kind": "file", "path": str(table / "scores.csv")}
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        config = ["--instances", "300"] if kind is None else [
            "--config", str(write_config(tmp_path, tree))]
        assert main([command, *config, "--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out1), "--out", str(out2)]) == 0, capsys.readouterr().out
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert sorted(os.listdir(out1)) == sorted(manifest["outputs"])
        if command == "train":  # every transfer probe of the run converged
            warnings = json.loads((out1 / "summary.json").read_text())["warnings"]
            assert not [w for w in warnings if "did not converge" in w], warnings

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

    def test_lr_past_the_float_range_trains(self, tmp_path):
        # 2.0 ** k overflows a float from k = 1024 on
        tree = tiny_tree("curriculum", iterations=1100, record_every=10)
        tree["lr"].update(decrease_factor=2.0, lr_step_length=1)
        out = tmp_path / "o"
        assert main(["train", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        lines = (out / "curve_curriculum_seed0.csv").read_text().splitlines()
        lrs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert lines[0].endswith(",lr") and len(lrs) > 100
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == 0.0

    def test_score_trains_one_scorer(self, tmp_path, monkeypatch):
        from curriculum_lab import harness
        rows = []
        real = harness.train_stack

        def counting(ds_train, ds_test, plans, *args, **kwargs):
            rows.append(len(plans))
            return real(ds_train, ds_test, plans, *args, **kwargs)

        monkeypatch.setattr(harness, "train_stack", counting)
        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"}, repetitions=3)
        out = tmp_path / "o"
        assert main(["score", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        assert rows == [1]
        assert (out / "scores.csv").exists()

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

    def test_grid_cell_whose_pacing_cannot_be_planned_fails_and_the_other_wins(self, tmp_path):
        # 0.05 of the 58-example fit split is a first subset of 3, below the batch of 10
        tree = tiny_tree("curriculum", repetitions=1, iterations=40)
        tree["grid"] = {"pacing": {"starting_percent": [0.05, 0.25]}}
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [e["pacing"] for e in entries] == [{"starting_percent": 0.05},
                                                  {"starting_percent": 0.25}, {"starting_percent": 0.25}]
        assert entries[0]["failed"] and entries[0]["criterion_value"] is None
        assert entries[0]["error"] == ("initial subset size g(0)=3 is smaller than batch_size=10; "
                                       f"starting_percent must be at least {9.5 / 58}")
        assert not entries[1]["failed"]
        best = json.loads((out / "best_config.json").read_text())
        assert best["pacing"]["starting_percent"] == 0.25

    def test_bootstrap_cli(self, tmp_path):
        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"}, repetitions=1)
        config = write_config(tmp_path, tree)
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(config), "--out", str(out),
                     "--generations", "2"]) == 0
        for g in range(3):
            assert (out / f"summary_gen{g}.json").exists()

    def test_generations_override_reruns_from_manifest(self, tmp_path):
        tree = tiny_tree("curriculum", scoring={"kind": "self_taught"}, repetitions=1,
                         bootstrap={"generations": 1})
        first = tmp_path / "a"
        assert main(["bootstrap", "--config", str(write_config(tmp_path, tree)),
                     "--generations", "2", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["bootstrap"]["generations"] == 2
        assert "summary_gen2.json" in os.listdir(first)
        assert main(["replay", str(first), "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("condition", ["vanilla", "anti", "random", "self_paced"])
    def test_bootstrap_on_a_vanilla_condition_exits_2(self, tmp_path, capsys, condition):
        # a vanilla condition resolves its pacing to vanilla, which the
        # curriculum generations would train with; no other condition defines
        # a generation trained on the previous generation's scores
        tree = tiny_tree(condition, pacing={"starting_percent": 0.5}, iterations=40,
                         bootstrap={"generations": 1})
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: bootstrap trains curriculum generations, not condition {condition}; "
            "set condition to curriculum\n")
        assert os.listdir(out) == []

    def test_analyze_gradients_cli(self, tmp_path):
        config = write_config(tmp_path, tiny_tree("curriculum"))
        out = tmp_path / "o"
        assert main(["analyze-gradients", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "gradient_report.json").read_text())
        assert report["n_seeds"] == 2


class TestCliTransferScoredConfig:
    @staticmethod
    def transfer_tree(tmp_path, tree):
        """`tree` scored by transfer on embeddings of the first two features."""
        from curriculum_lab.data import EmbeddingTable
        from curriculum_lab.harness import resolve_dataset
        from helpers import save_embeddings_csv
        train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
        save_embeddings_csv(EmbeddingTable(train_ds.X[:, :2]), tmp_path / "emb.csv")
        tree["scoring"] = {"kind": "transfer"}
        tree["dataset"]["embeddings_csv"] = str(tmp_path / "emb.csv")
        return tree

    def transfer_config(self, tmp_path):
        return write_config(tmp_path, self.transfer_tree(tmp_path,
                                                         tiny_tree("curriculum", repetitions=1)))

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

    @pytest.mark.parametrize("command,split,smallest", [
        ("train", "training", 24), ("score", "training", 24), ("grid-search", "fit", 19)])
    def test_folds_above_the_smallest_class_count_name_their_key(self, tmp_path, capsys,
                                                                  command, split, smallest):
        tree = self.transfer_tree(tmp_path, tiny_tree("curriculum", repetitions=1,
                                                      grid={"lr": {"lr0": [0.1, 0.2]}}))
        tree["scoring"]["folds"] = 100
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: scoring.folds must be <= {smallest}, the smallest class count of the "
            f"{split} split, got 100\n")
        assert os.listdir(out) == []

    def test_bootstrap_accepts_transfer_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(self.transfer_config(tmp_path)),
                     "--out", str(out), "--generations", "1"]) == 0
        for g in range(2):
            summary = json.loads((out / f"summary_gen{g}.json").read_text())
            assert summary["generation"] == g
            assert summary["failed_seeds"] == []

    @staticmethod
    def count_parses(monkeypatch):
        from curriculum_lab import harness
        parses = []
        real = harness.load_embeddings_csv

        def spy(path):
            parses.append(path)
            return real(path)

        monkeypatch.setattr(harness, "load_embeddings_csv", spy)
        return parses

    def test_mlp_transfer_commands_parse_the_embeddings_once(self, tmp_path, monkeypatch):
        # an oracle-scored analyze-gradients, then a transfer-scored curriculum
        # and self-paced train on mlp1: only the curriculum builds the table
        tree = self.transfer_tree(tmp_path, tiny_tree("curriculum", repetitions=1,
                                                      model={"architecture": "mlp1",
                                                             "hidden": 8}))
        parses = self.count_parses(monkeypatch)
        for command, name, edit in [("analyze-gradients", "gradients",
                                     {"scoring": {"kind": "oracle"}}),
                                    ("train", "curriculum", {}),
                                    ("train", "self_paced", {"condition": "self_paced"})]:
            config = write_config(tmp_path, {**tree, **edit}, name=f"{name}.json")
            assert main([command, "--config", str(config), "--out", str(tmp_path / name)]) == 0
        assert parses == [tree["dataset"]["embeddings_csv"]]

    @pytest.mark.parametrize("command,condition,parses", [
        ("gen-data", "curriculum", 0), ("analyze-gradients", "curriculum", 0),
        ("bootstrap", "curriculum", 0), ("train", "vanilla", 0), ("train", "self_paced", 0),
        ("train", "curriculum", 1), ("train", "anti", 1), ("score", "vanilla", 1),
        ("score", "curriculum", 1), ("grid-search", "self_paced", 0),
        ("grid-search", "curriculum", 1)])
    def test_only_a_command_that_builds_a_transfer_table_parses_the_embeddings(
            self, tmp_path, monkeypatch, command, condition, parses):
        tree = self.transfer_tree(tmp_path, tiny_tree(condition, repetitions=1))
        if command == "grid-search":
            tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [0.1]}}
        seen = self.count_parses(monkeypatch)
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(seen) == parses

    def test_unreadable_embeddings_fail_only_a_command_that_reads_them(self, tmp_path, capsys):
        path = tmp_path / "emb.csv"
        path.write_bytes(b"id,e0\n0,\xff\n")
        tree = tiny_tree("curriculum", repetitions=1, scoring={"kind": "transfer"})
        tree["dataset"]["embeddings_csv"] = str(path)
        config = write_config(tmp_path, tree)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: cannot read file" in err
        assert main(["analyze-gradients", "--config", str(config),
                     "--out", str(tmp_path / "b")]) == 0
        self_paced = write_config(tmp_path, {**tree, "condition": "self_paced"}, name="sp.json")
        assert main(["train", "--config", str(self_paced), "--out", str(tmp_path / "c")]) == 0

    @pytest.mark.parametrize("command,stray_score_path", [
        ("gen-data", False), ("analyze-gradients", False), ("train", False), ("train", True)],
        ids=["gen-data", "analyze-gradients", "train", "train-stray-score-path"])
    def test_a_missing_file_the_command_does_not_read_is_no_error(self, tmp_path, command,
                                                                  stray_score_path):
        # oracle scores: no command reads the embeddings, nor a score file
        missing = str(tmp_path / "missing.csv")
        tree = tiny_tree("curriculum", repetitions=1)
        tree["dataset"]["embeddings_csv"] = missing
        if stray_score_path:
            tree["scoring"]["path"] = missing
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["train", "score", "grid-search"])
    def test_missing_embeddings_fail_a_transfer_scored_train_naming_the_key(self, tmp_path,
                                                                             capsys, command):
        missing = tmp_path / "missing.csv"
        tree = tiny_tree("curriculum", repetitions=1, scoring={"kind": "transfer"})
        tree["dataset"]["embeddings_csv"] = str(missing)
        tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [0.1]}}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: referenced file does not exist: "
                                           f"dataset.embeddings_csv ({missing})\n")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_embeddings_that_miss_training_ids_name_the_file(self, tmp_path, capsys, command):
        from curriculum_lab.data import EmbeddingTable
        from curriculum_lab.harness import resolve_dataset
        from helpers import save_embeddings_csv
        train_ds, _ = resolve_dataset(resolve_config(tiny_tree()))
        path = tmp_path / "emb.csv"
        save_embeddings_csv(EmbeddingTable(train_ds.X[:69, :2]), path)
        tree = tiny_tree("curriculum", repetitions=1, scoring={"kind": "transfer"})
        tree["dataset"]["embeddings_csv"] = str(path)
        tree["grid"] = {"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [0.1]}}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: dataset.embeddings_csv: {path} covers "
                                           "69 ids, the training set has 72\n")
        assert not (out / "manifest.json").exists()


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


    def test_self_paced_grid_audits_a_diverging_cell_as_failed(self, tmp_path):
        # at lr0 1e308 the first step overflows the parameters, and the
        # self-paced rows' re-rank at the stage start t = 1 meets non-finite
        # activations: the cell fails as a diverging curriculum cell does
        tree = tiny_tree("self_paced")
        tree["pacing"]["step_length"] = 1
        tree["grid"] = {"lr": {"lr0": [0.1, 1e308]}}
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [(e["lr"], e["failed"]) for e in entries] == [
            ({}, False), ({"lr0": 0.1}, False), ({"lr0": 1e308}, True)]
        assert entries[2]["error"] == "2 of 2 repetitions failed (seeds [0, 1])"
        assert (out / "manifest.json").exists()

    # at lr0 1e308 every row's parameters stay finite after step 0, but its
    # forward of the test set at that record step is not
    OVERFLOWING = {"dataset": {"synthetic": {"classes": 3, "dim": 4, "n_per_class": 40,
                                             "spread": 2.0, "seed": 11}},
                   "batch_size": 10, "iterations": 1, "repetitions": 3,
                   "pacing": {"starting_percent": 0.5}}

    @pytest.mark.parametrize("condition,scoring", [("vanilla", "oracle"),
                                                   ("curriculum", "self_taught")])
    def test_grid_audits_a_cell_whose_test_forward_overflows_as_failed(
            self, tmp_path, condition, scoring):
        tree = dict(self.OVERFLOWING, condition=condition, scoring={"kind": scoring},
                    grid={"lr": {"lr0": [0.1, 1e308]}})
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [e["failed"] for e in entries] == [False, False, True]
        assert entries[2]["lr"] == {"lr0": 1e308}
        assert entries[2]["error"] == "3 of 3 repetitions failed (seeds [0, 1, 2])"

    @pytest.mark.parametrize("command", ["train", "bootstrap"])
    def test_a_run_whose_test_forward_overflows_fails_every_repetition(self, tmp_path, capsys,
                                                                       command):
        tree = dict(self.OVERFLOWING, condition="curriculum", scoring={"kind": "self_taught"},
                    lr={"lr0": 1e308})
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: 3 of 3 repetitions failed (seeds [0, 1, 2])\n"
        assert os.listdir(out) == []

    @staticmethod
    def outlier_tree(tmp_path, **overrides):
        """A self-taught curriculum at lr0 1e6, one step of batch 1, seeds
        0..3, on a 20-row, 2-feature training split whose last row is
        (1e300, 1e300) and a 10-row test split. Seed 1's vanilla scorer draws
        that row and ends with weights near 1e306: finite on the test split,
        but its forward of that row overflows."""
        for name, n in (("train", 20), ("test", 10)):
            rows = ["id,label,f0,f1"] + [f"{i},{i % 2},{i % 3},{i % 4 - 2}" for i in range(n)]
            if name == "train":
                rows[-1] = f"{n - 1},1,1e300,1e300"
            (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
        return {"dataset": {"train_csv": str(tmp_path / "train.csv"),
                            "test_csv": str(tmp_path / "test.csv")},
                "condition": "curriculum", "scoring": {"kind": "self_taught"},
                "pacing": {"starting_percent": 0.5}, "lr": {"lr0": 1e6},
                "iterations": 1, "batch_size": 1, "seeds": [0, 1, 2, 3], **overrides}

    OVERFLOWING_TABLE = ("self-taught scorer of seed 1 cannot score the training split: "
                         "non-finite activations in forward pass")

    def test_train_fails_the_seed_whose_score_table_overflows(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--config", str(write_config(tmp_path, self.outlier_tree(tmp_path))),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_seeds"] == [1]
        assert self.OVERFLOWING_TABLE in summary["warnings"]
        assert not (out / "curve_curriculum_seed1.csv").exists()
        assert "curve_curriculum_seed1.csv" not in json.loads(
            (out / "manifest.json").read_text())["outputs"]

    def test_grid_audits_a_cell_whose_score_tables_overflow_as_failed(self, tmp_path):
        # at lr0 1e12 three of the four scorers overflow on the outlier row
        # when they score the fit rows
        tree = self.outlier_tree(tmp_path, grid={"lr": {"lr0": [1e-3, 1e12]}})
        out = tmp_path / "o"
        assert main(["grid-search", "--config", str(write_config(tmp_path, tree)),
                     "--out", str(out)]) == 0
        entries = json.loads((out / "grid_audit.json").read_text())["entries"]
        assert [(e["lr"], e["failed"]) for e in entries] == [
            ({}, False), ({"lr0": 1e-3}, False), ({"lr0": 1e12}, True)]
        assert entries[2]["error"] == "3 of 4 repetitions failed (seeds [0, 1, 3])"
        assert main(["replay", str(out), "--out", str(tmp_path / "replay")]) == 0

    def test_bootstrap_fails_the_seed_in_every_later_generation(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bootstrap", "--config", str(write_config(tmp_path, self.outlier_tree(
            tmp_path))), "--generations", "2", "--out", str(out)]) == 0
        summaries = [json.loads((out / f"summary_gen{g}.json").read_text()) for g in range(3)]
        assert [s["failed_seeds"] for s in summaries] == [[], [1], [1]]
        assert ("generation-0 model of seed 1 cannot score the training split: "
                "non-finite activations in forward pass") in summaries[1]["warnings"]
        assert "seed 1 has no generation-1 model to score with" in summaries[2]["warnings"]
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "curve_gen0_seed1.csv" in outputs
        assert "curve_gen1_seed1.csv" not in outputs and "curve_gen2_seed1.csv" not in outputs
        assert not (out / "curve_gen1_seed1.csv").exists()

    def test_bootstrap_whose_generation_1_fails_keeps_generation_0(self, tmp_path, capsys):
        # seed 1's generation-0 model cannot score the training split, so
        # generation 1 loses one of its two seeds and errors out; generation
        # 0, written as it ended, stays on disk, and no manifest is written
        out = tmp_path / "o"
        tree = self.outlier_tree(tmp_path, seeds=[0, 1])
        assert main(["bootstrap", "--config", str(write_config(tmp_path, tree)),
                     "--generations", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: 1 of 2 repetitions failed (seeds [1])\n"
        assert sorted(os.listdir(out)) == ["curve_gen0_seed0.csv", "curve_gen0_seed1.csv",
                                           "summary_gen0.json"]
        assert json.loads((out / "summary_gen0.json").read_text())["failed_seeds"] == []

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
        assert not (out / "best_config.json").exists()
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
        assert json.loads((first / "theory_report.json").read_text())["instances"] == 30
        assert main(["replay", str(first), "--out", str(tmp_path / "b")]) == 0


class TestCliReplay:
    """`replay RUN_DIR --out NEW_DIR` reruns RUN_DIR's manifest into NEW_DIR:
    exit 0 when the two directories hold the same files with the same bytes,
    1 naming each file that does not, and 2 with one error line when there is
    nothing to rerun."""

    @staticmethod
    def replay(capsys, run, out, code):
        """The lines replay printed of its own, and its stderr."""
        capsys.readouterr()
        assert main(["replay", str(run), "--out", str(out)]) == code
        printed = capsys.readouterr()
        return [line for line in printed.out.splitlines() if line.startswith("replay: ")], \
            printed.err

    @staticmethod
    def snapshot(run):
        return {path: path.read_bytes() if path.is_file() else None for path in run.rglob("*")}

    @pytest.mark.parametrize("run", golden.runs(), ids=lambda run: run["command"])
    def test_every_golden_run_replays(self, tmp_path, capsys, run):
        out, new = golden.run_command(run, tmp_path), tmp_path / "replay"
        assert self.replay(capsys, out, new, 0) == ([
            f"replay: 0 of {len(os.listdir(out))} file(s) differ between {out} and {new}"], "")

    @pytest.mark.parametrize("edit,faults,files", [
        ("flip", ["curve_curriculum_seed0.csv differs"], 4),
        ("delete", ["only in {new}: curve_curriculum_seed1.csv"], 4),
        ("stray", ["only in {run}: stray.txt"], 5),
    ], ids=["flip", "delete", "stray"])
    def test_a_file_that_differs_exits_1_naming_it(self, tmp_path, capsys, edit, faults, files):
        run, new = tmp_path / "run", tmp_path / "replay"
        assert main(["train", "--config", str(write_config(tmp_path, tiny_tree("curriculum"))),
                     "--out", str(run)]) == 0
        if edit == "flip":  # one bit of one byte in the middle of a curve
            path = run / "curve_curriculum_seed0.csv"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 1
            path.write_bytes(bytes(data))
        elif edit == "delete":
            (run / "curve_curriculum_seed1.csv").unlink()
        else:
            (run / "stray.txt").write_text("")
        assert self.replay(capsys, run, new, 1) == ([
            f"replay: {fault.format(run=run, new=new)}" for fault in faults] + [
            f"replay: 1 of {files} file(s) differ between {run} and {new}"], "")

    @pytest.mark.parametrize("manifest,error", [
        (None, "{path}: No such file or directory"),
        ("{not json", "{path}: not valid JSON: "),
        ("[" * 100_000 + "]" * 100_000, "{path}: not valid JSON: "),
        ({"config": {}}, "{path}: a manifest holds the keys command and config"),
        ({"command": "gen-data"}, "{path}: a manifest holds the keys command and config"),
        ({"command": "replay", "config": {}}, "{path}: cannot replay command 'replay'"),
        ({"command": "bogus", "config": {}}, "{path}: cannot replay command 'bogus'"),
    ], ids=["missing", "not-json", "nested-past-recursion-limit", "no-command", "no-config",
            "replay", "unknown-command"])
    def test_a_manifest_that_cannot_be_rerun_exits_2(self, tmp_path, capsys, manifest, error):
        run, new = tmp_path / "run", tmp_path / "replay"
        assert main(["gen-data", "--config", str(write_config(tmp_path, tiny_tree())),
                     "--out", str(run)]) == 0
        path = run / "manifest.json"
        if manifest is None:
            path.unlink()
        else:
            path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        before = self.snapshot(run)
        lines, err = self.replay(capsys, run, new, 2)
        assert lines == [] and err.count("\n") == 1, err
        assert err.startswith("error: " + error.format(path=path)), err
        assert self.snapshot(run) == before and not new.exists()

    @pytest.mark.parametrize("command", [["train"], {"train": 1}], ids=["list", "object"])
    def test_a_manifest_naming_a_command_of_another_type_exits_2(self, tmp_path, capsys,
                                                                   command):
        run, new = tmp_path / "run", tmp_path / "replay"
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps({"command": command, "config": {}}))
        assert self.replay(capsys, run, new, 2) == (
            [], f"error: {run / 'manifest.json'}: cannot replay command {command!r}\n")
        assert not new.exists()

    @pytest.mark.parametrize("out", ["", "new", "new/deeper", "new/../../run"],
                             ids=["run-dir", "inside", "two-deep", "run-dir-by-another-path"])
    def test_an_out_in_the_run_directory_exits_2(self, tmp_path, capsys, out):
        run = tmp_path / "run"
        assert main(["gen-data", "--config", str(write_config(tmp_path, tiny_tree())),
                     "--out", str(run)]) == 0
        before = self.snapshot(run)
        assert self.replay(capsys, run, run / out, 2) == (
            [], f"error: --out {run / out} is the run directory {run} or lies inside it\n")
        assert self.snapshot(run) == before
