"""Every CLI command still writes the golden artifacts (tests/golden.py):
everywhere value for value (ints and strings exactly, floats at 1e-12
relative), and byte for byte where numpy and BLAS match the recorded ones.
The byte comparison is its own test, skipped with both environments in the
reason elsewhere, so a run's `-rs` summary shows whether it compared them."""
import json

import pytest

from golden import GOLDEN, environment, mismatches, parse, run_command, sha256

RECORDED = json.loads(GOLDEN.read_text())
RUN_IDS = [run["command"] for run in RECORDED["runs"]]


@pytest.mark.parametrize("run", RECORDED["runs"], ids=RUN_IDS)
def test_artifacts_equal_the_golden_ones(tmp_path, run):
    out = run_command(run, tmp_path)
    assert sorted(path.name for path in out.iterdir()) == sorted(run["artifacts"])
    # the manifest lists every file of its run directory, itself included
    assert json.loads((out / "manifest.json").read_text())["outputs"] == sorted(
        path.name for path in out.iterdir())
    for name, want in run["artifacts"].items():
        assert mismatches(parse(out / name), want["content"], name) == []


@pytest.mark.parametrize("run", RECORDED["runs"], ids=RUN_IDS)
def test_artifact_hashes_equal_the_golden_ones(tmp_path, run):
    here = environment()
    if RECORDED["environment"] != here:
        pytest.skip(f"golden hashes recorded on {RECORDED['environment']}, "
                    f"this machine has {here}")
    out = run_command(run, tmp_path)
    for name, want in run["artifacts"].items():
        assert sha256(out / name) == want["sha256"], name


def test_floats_compare_at_1e12_relative():
    assert mismatches([{"x": 0.1}], [{"x": 0.1}]) == []
    assert mismatches(0.1 * (1 + 1e-13), 0.1) == []
    assert mismatches(0.1 * (1 + 1e-11), 0.1) != []
    assert mismatches(1, 1.0) != []
    assert mismatches("a", "b") != []
