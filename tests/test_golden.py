"""Golden outputs: every subcommand on the fixture world, against the
committed results in ``tests/golden/``.

Each command runs as ``python -m moraldrift.cli`` from a scratch
directory holding the fixture world, with relative paths, so the config
hash in ``_meta`` does not depend on where the test runs. Exit codes,
stdout, stderr, file names, words, keys and structure must match
exactly; floats must match within ``REL_TOL`` of the larger magnitude.
Their last bits depend on the BLAS build and the CPU.

A change that moves outputs on purpose rewrites the golden files in the
same diff, so that the change is reviewed:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_changer_files, write_world_files

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
REL_TOL = 1e-9

WORLD = ["--manifest", "world/manifest.csv", "--mfd", "world/mfd.csv",
         "--norms", "world/norms.csv"]
CHANGERS = ["--matrix", "changers/relevance_matrix.json", "--norms", "changers/norms.csv",
            "--wordlist", "changers/wordlist.csv"]
# (label, argv), run in this order; the label names the golden file and
# the command's --out-dir, out/<label>.
COMMANDS = [
    ("align", ["align", "--manifest", "world/manifest.csv"]),
    ("classify", ["classify", *WORLD, "--word", "riser", "--tier", "category"]),
    ("classify-unknown-word", ["classify", *WORLD, "--word", "nowhere", "--tier", "relevance"]),
    ("timecourse-relevance", ["timecourse", *WORLD, "--word", "riser", "--tier", "relevance"]),
    ("timecourse-category", ["timecourse", *WORLD, "--word", "gapword", "--tier", "category"]),
    ("matrix", ["matrix", *WORLD, "--wordlist", "world/wordlist.csv", "--kind", "relevance"]),
    ("matrix-polarity", ["matrix", *WORLD, "--wordlist", "world/wordlist.csv",
                         "--kind", "polarity", "--model", "kde"]),
    ("evaluate", ["evaluate", *WORLD, "--tier", "relevance", "--decade", "1930"]),
    ("evaluate-historical", ["evaluate", *WORLD, "--model", "knn", "--tier", "category",
                             "--historical"]),
    ("valence-corr", ["valence-corr", *WORLD, "--model", "naive_bayes"]),
    ("survey-corr", ["survey-corr", *WORLD, "--survey", "world/survey.csv"]),
    ("retrieve", ["retrieve", *WORLD, "--matrix", "out/matrix/matrix_relevance.json",
                  "--direction", "toward-relevance"]),
    ("retrieve-negative", ["retrieve", *WORLD,
                           "--matrix", "out/matrix-polarity/matrix_polarity.json",
                           "--relevance-matrix", "out/matrix/matrix_relevance.json",
                           "--direction", "toward-negative", "--model", "kde"]),
    ("regress", ["regress", *CHANGERS]),
    ("permute", ["permute", *CHANGERS, "--shuffles", "20"]),
    ("project", ["project", *WORLD, "--words", "riser,alwayspos", "--all-decades"]),
]


def _cell(text: str):
    """A CSV cell as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _file(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        return [[_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]
    if path.suffix == ".npy":
        array = np.load(path)
        return {"dtype": array.dtype.str, "shape": list(array.shape),
                "values": array.tolist()}
    return path.read_text().splitlines()


def run_suite(root: Path, src: Path = SRC) -> dict:
    """Write the fixture world under ``root``, run every command there with
    the package in ``src`` and return ``{label: result}`` in the golden
    files' form. Each command's files stay in ``root/out/<label>``."""
    write_world_files(root / "world")
    write_changer_files(root / "changers", decade_noise=0.02)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    results = {}
    for label, argv in COMMANDS:
        out = f"out/{label}"
        proc = subprocess.run([sys.executable, "-m", "moraldrift.cli", *argv, "--out-dir", out],
                              cwd=root, env=env, capture_output=True, text=True)
        try:
            stdout = json.loads(proc.stdout)
        except ValueError:
            stdout = proc.stdout
        written = sorted((root / out).glob("*"))
        results[label] = {"argv": [*argv, "--out-dir", out], "exit": proc.returncode,
                          "stdout": stdout, "stderr": proc.stderr,
                          "files": {p.name: _file(p) for p in written}}
    return results


def assert_same(got, want, where="") -> None:
    """Equal in type, keys, length and every non-float; floats within
    ``REL_TOL`` of the larger magnitude (NaN equals NaN)."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            assert math.isnan(want) and math.isnan(got), f"{where}: {got!r} != {want!r}"
        else:
            assert abs(got - want) <= REL_TOL * max(abs(got), abs(want)), \
                f"{where}: {got!r} != {want!r} (relative tolerance {REL_TOL})"
        return
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("golden"))


def test_the_suite_runs_every_subcommand():
    from moraldrift.cli import _HANDLERS

    assert {argv[0] for _, argv in COMMANDS} == set(_HANDLERS)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(label for label, _ in COMMANDS)


@pytest.mark.parametrize("label", [label for label, _ in COMMANDS])
def test_outputs_match_the_golden_files(suite, label):
    want = json.loads((GOLDEN / f"{label}.json").read_text())
    assert_same(suite[label], want, label)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.mkdir(exist_ok=True)
        for label, result in run_suite(Path(scratch)).items():
            (GOLDEN / f"{label}.json").write_text(json.dumps(result, indent=1) + "\n")
