"""The golden artifacts: one tiny run of each CLI command, pinned by hash.

`tests/golden.json` holds, for each run, its command and config, and for
each artifact it writes the sha256 and the parsed content, plus the numpy
version and BLAS the file was made on. `tests/test_golden.py` runs the
commands again: where numpy and BLAS match it compares hashes, and
everywhere it compares the parsed content (ints and strings exactly, floats
at 1e-12 relative).

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/golden.py

only when a change alters artifact bytes on purpose, and say why in
CHANGES.md.
"""
import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from curriculum_lab.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
FLOAT_RTOL = 1e-12


def environment() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def runs() -> list[dict]:
    """The seven commands on the tests' tiny config; train, score,
    grid-search and bootstrap score self-taught."""
    from test_harness import tiny_tree
    self_taught = {"kind": "self_taught"}
    grid = {"pacing": {"starting_percent": [0.25, 0.5]}, "lr": {"lr0": [0.2, 0.3]}}
    return [
        {"command": "gen-data", "config": tiny_tree()},
        {"command": "score", "config": tiny_tree("curriculum", scoring=self_taught)},
        {"command": "train", "config": tiny_tree("curriculum", scoring=self_taught)},
        {"command": "grid-search",
         "config": tiny_tree("curriculum", scoring=self_taught, iterations=40, grid=grid)},
        {"command": "bootstrap",
         "config": tiny_tree("curriculum", scoring=self_taught, bootstrap={"generations": 2})},
        {"command": "analyze-gradients", "config": tiny_tree("curriculum")},
        {"command": "verify-theory",
         "config": tiny_tree(theory={"instances": 300, "constant_variance_families": 30})},
    ]


def run_command(run: dict, tmp: Path) -> Path:
    """Run `run`'s command on its config; the directory it wrote."""
    name = run["command"]
    config, out = tmp / f"{name}.json", tmp / name
    config.write_text(json.dumps(run["config"]))
    code = main([name, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    return out


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(path: Path):
    """A JSON artifact's value, or a CSV artifact's rows with each cell an
    int, a float or a string."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as f:
        return [[_cell(cell) for cell in row] for row in csv.reader(f)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mismatches(got, want, where: str = "") -> list[str]:
    """Where `got` differs from `want`: ints, strings and booleans exactly,
    floats at FLOAT_RTOL relative, containers element by element."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} is not of the type of {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if got == want or abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want)):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def record(tmp: Path) -> dict:
    """Run every command below `tmp` and describe what it wrote."""
    entries = []
    for run in runs():
        out = run_command(run, tmp)
        entries.append({**run, "artifacts": {
            path.name: {"sha256": sha256(path), "content": parse(path)}
            for path in sorted(out.iterdir())}})
    return {"environment": environment(), "runs": entries}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(len(r['artifacts']) for r in golden['runs'])} artifacts")
