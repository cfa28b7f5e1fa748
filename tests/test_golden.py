"""Every CLI command still writes the golden artifacts (tests/golden.py):
byte for byte where numpy and BLAS match the recorded ones, and everywhere
value for value (ints and strings exactly, floats at 1e-12 relative)."""
import json

import pytest

from golden import GOLDEN, environment, mismatches, parse, run_command, sha256

RECORDED = json.loads(GOLDEN.read_text())
SAME_ENVIRONMENT = RECORDED["environment"] == environment()


@pytest.mark.parametrize("run", RECORDED["runs"], ids=lambda run: run["command"])
def test_artifacts_equal_the_golden_ones(tmp_path, run):
    out = run_command(run, tmp_path)
    assert sorted(path.name for path in out.iterdir()) == sorted(run["artifacts"])
    for name, want in run["artifacts"].items():
        assert mismatches(parse(out / name), want["content"], name) == []
        if SAME_ENVIRONMENT:
            assert sha256(out / name) == want["sha256"], name


def test_floats_compare_at_1e12_relative():
    assert mismatches([{"x": 0.1}], [{"x": 0.1}]) == []
    assert mismatches(0.1 * (1 + 1e-13), 0.1) == []
    assert mismatches(0.1 * (1 + 1e-11), 0.1) != []
    assert mismatches(1, 1.0) != []
    assert mismatches("a", "b") != []
