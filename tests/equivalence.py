"""Compare what two source trees of moraldrift write, command by command.

    python tests/equivalence.py run --src SRC OUT
    python tests/equivalence.py compare A B

``run`` runs SRC's package (``python -m moraldrift.cli`` with SRC on
PYTHONPATH and one BLAS thread) on five suites. Each suite runs in its
own directory under OUT with relative paths, so the config hash in
``_meta`` does not depend on OUT:

- ``golden``: the 16 commands of ``test_golden.py`` on the fixture world;
- ``bench-text`` and ``bench-binary``: the 13 cli-pipeline commands of
  ``bench/workloads.py`` on ``bench/gen.py``'s seed-1 corpus, as word2vec
  text and as word2vec binary;
- ``bench-scan``: on the seed-1 matrix-scan corpus (word2vec binary, a
  4,210-word list and 14,000 rated words, so more than one scoring
  block), ``matrix`` of both kinds and ``valence-corr`` with ``centroid``
  and with ``kde --bandwidth 0.5``, ``retrieve`` toward-relevance and
  toward-negative, ``regress``, ``permute``, and ``timecourse`` of a
  planted riser at the relevance and category tiers;
- ``bench-npy``: the bench-scan commands on the same corpus as ``<f4``
  npy stores (``.npy``, ``.vocab`` and an ``npy`` manifest), which this
  script writes from the word2vec binary files.

A suite directory keeps its inputs, the commands' files under ``out/``
and ``commands.json``: each command's argv, exit code, stdout and stderr.

``compare`` checks that A and B ran the same commands with the same exit
codes, stdout and stderr, and wrote the same files with the same words
and structure. It reports each file as identical (the same bytes), or as
the number of numeric cells that moved and the largest relative change
``|a - b| / max(|a|, |b|)``, or as differing in words or structure. It
exits 0 when everything is identical and 1 otherwise.

The script needs numpy and the standard library. The golden suite writes
its fixture world with the test suite's own helpers (``conftest.py``,
which imports pytest and this tree's ``src/``), so both trees read the
same inputs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
_BENCH_SUITES = {"bench-text": ("cli-pipeline", "text"),  # suite: (workload, format)
                 "bench-binary": ("cli-pipeline", "binary"),
                 "bench-scan": ("matrix-scan", "binary"), "bench-npy": ("matrix-scan", "npy")}
SUITES = ("golden", *_BENCH_SUITES)
BENCH_SEED = 1
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _stdout(text: str):
    """A command's stdout as JSON if it parses, else as text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _golden(root: Path, src: Path) -> dict:
    sys.path[:0] = [str(TESTS), str(ROOT / "src")]
    from test_golden import run_suite

    return {label: {key: result[key] for key in ("argv", "exit", "stdout", "stderr")}
            for label, result in run_suite(root, src).items()}


def _bench(root: Path, src: Path, workload: str, fmt: str) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import gen
    import workloads

    corpus = gen.generate(root / "inputs", BENCH_SEED, workloads.SHAPES[workload],
                          formats=("binary",) if fmt == "npy" else (fmt,))
    manifest = (_npy_stores(corpus.manifests["binary"]) if fmt == "npy"
                else corpus.manifests[fmt])
    paths = {"manifest": manifest, "mfd": corpus.mfd, "norms": corpus.norms,
             "wordlist": corpus.wordlist}
    inputs = {key: str(path.relative_to(root)) for key, path in paths.items()}
    inputs.update(risers=corpus.risers, fallers=corpus.fallers, changers=corpus.changers)
    commands = (workloads.cli_commands(inputs, "out") if workload == "cli-pipeline"
                else _scan_commands(inputs, workloads.MATRIX_SCAN_H, workloads.SHUFFLES))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    results = {}
    for label, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "moraldrift.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True)
        results[label] = {"argv": argv, "exit": proc.returncode,
                          "stdout": _stdout(proc.stdout), "stderr": proc.stderr}
    return results


def _npy_stores(binary_manifest: Path) -> Path:
    """Write each decade of a word2vec binary manifest as a ``<f4`` npy
    store beside it (``npy/<decade>.npy`` and ``.vocab``), and the ``npy``
    manifest that lists them. Returns the manifest's path."""
    inputs = binary_manifest.parent
    (inputs / "npy").mkdir()
    lines = binary_manifest.read_text(encoding="utf-8").splitlines()
    rows = ["decade,path,format"]
    for line in lines[1:]:
        decade, path, _ = line.split(",")
        data = (inputs / path).read_bytes()
        header_end = data.index(b"\n")
        n, dim = map(int, data[:header_end].split())
        words, matrix, at = [], np.empty((n, dim), dtype="<f4"), header_end + 1
        for i in range(n):
            if data[at:at + 1] == b"\n":  # a newline may end the previous vector
                at += 1
            space = data.index(b" ", at)
            words.append(data[at:space].decode("utf-8"))
            at = space + 1 + 4 * dim
            matrix[i] = np.frombuffer(data[space + 1:at], dtype="<f4")
        np.save(inputs / "npy" / f"{decade}.npy", matrix, allow_pickle=False)
        (inputs / "npy" / f"{decade}.vocab").write_text(
            "".join(f"{w}\n" for w in words), encoding="utf-8", newline="\n")
        rows.append(f"{decade},npy/{decade}.npy,npy")
    manifest = inputs / "manifest_npy.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    return manifest


def _scan_commands(inputs: dict, h: float, shuffles: int) -> list[tuple[str, list[str]]]:
    """(label, argv tail) of the bench-scan suite: both matrix kinds per
    model, each model's files in its own directory, then retrieval,
    regression and the permutation control on the centroid matrices, each
    model's valence correlation, and a riser's time courses."""
    lex = ["--manifest", inputs["manifest"], "--mfd", inputs["mfd"], "--norms", inputs["norms"]]
    models = {"centroid": ["--model", "centroid"],
              "kde": ["--model", "kde", "--bandwidth", str(h)]}
    cmds = [(f"matrix.{name}.{kind}", ["matrix", *lex, *model, "--wordlist", inputs["wordlist"],
                                       "--kind", kind, "--out-dir", f"out/{name}"])
            for name, model in models.items() for kind in ("relevance", "polarity")]
    rel, pol = "out/centroid/matrix_relevance.json", "out/centroid/matrix_polarity.json"
    reg = ["--matrix", rel, "--norms", inputs["norms"], "--wordlist", inputs["wordlist"],
           "--out-dir", "out"]
    return cmds + [
        ("retrieve.toward-relevance", ["retrieve", *lex, "--matrix", rel,
                                       "--direction", "toward-relevance", "--out-dir", "out"]),
        ("retrieve.toward-negative", ["retrieve", *lex, "--matrix", pol,
                                      "--relevance-matrix", rel, "--direction",
                                      "toward-negative", "--out-dir", "out"]),
        ("regress", ["regress", *reg]),
        ("permute", ["permute", *reg, "--shuffles", str(shuffles), "--seed", "0"]),
    ] + [(f"valence-corr.{name}", ["valence-corr", *lex, *model, "--out-dir", f"out/{name}"])
         for name, model in models.items()] + [
        (f"timecourse.{tier}", ["timecourse", *lex, *models["centroid"], "--word",
                                inputs["risers"][0], "--tier", tier, "--out-dir", "out"])
        for tier in ("relevance", "category")]


def run(src: Path, out: Path) -> None:
    sys.dont_write_bytecode = True  # leave no cache in tests/ or bench/
    src = src.resolve()
    for suite in SUITES:
        root = out.resolve() / suite
        root.mkdir(parents=True, exist_ok=False)
        if suite == "golden":
            results = _golden(root, src)
        else:
            results = _bench(root, src, *_BENCH_SUITES[suite])
        (root / "commands.json").write_text(json.dumps(results, indent=1) + "\n")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

class _Cells:
    """The numeric cells of one file or stream: how many, the relative
    changes of those that moved, and where the first moved one is."""

    def __init__(self):
        self.n = 0
        self.moved: list[float] = []
        self.first = ""

    def add(self, a: float, b: float, same: bool, where: str) -> None:
        self.n += 1
        if not same:
            scale = max(abs(a), abs(b))
            change = abs(a - b) / scale if scale else 0.0
            self.moved.append(change if math.isfinite(change) else math.inf)
            self.first = self.first or where

    def report(self) -> str:
        if not self.moved:
            return "identical"
        return (f"{len(self.moved)} of {self.n} numeric cells moved, largest relative "
                f"change {max(self.moved):.2g} (first at {self.first})")


def _walk(a, b, cells: _Cells, where: str = "") -> bool:
    """Add the numbers of two parsed JSON values to ``cells``; False when
    their words, keys, types or lengths differ."""
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        if type(a) is not type(b):
            return False
        cells.add(a, b, repr(a) == repr(b), where or "/")
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_walk(a[k], b[k], cells, f"{where}/{k}") for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_walk(x, y, cells, f"{where}/{i}")
                                        for i, (x, y) in enumerate(zip(a, b)))
    return a == b


def _csv(a: str, b: str, cells: _Cells) -> bool:
    """``_walk`` for CSV text: a cell that is a number in both may move."""
    rows_a, rows_b = a.split("\n"), b.split("\n")
    if len(rows_a) != len(rows_b):
        return False
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        row_a, row_b = row_a.split(","), row_b.split(",")
        if len(row_a) != len(row_b):
            return False
        for column, (x, y) in enumerate(zip(row_a, row_b), start=1):
            if _NUMBER.fullmatch(x) and _NUMBER.fullmatch(y):
                cells.add(float(x), float(y), x == y, f"line {line}, column {column}")
            elif x != y:
                return False
    return True


def _npy(a: Path, b: Path, cells: _Cells) -> bool:
    x, y = np.load(a, allow_pickle=False), np.load(b, allow_pickle=False)
    if x.dtype != y.dtype or x.shape != y.shape or x.dtype.kind != "f":
        return False
    x, y = x.ravel().astype(np.float64), y.ravel().astype(np.float64)
    moved = np.flatnonzero(x.view(np.uint64) != y.view(np.uint64))
    cells.n += x.size - moved.size
    for i in moved:
        cells.add(float(x[i]), float(y[i]), False, f"flat index {i}")
    return True


def _file(a: Path, b: Path) -> str:
    """One file's line of the report."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    cells = _Cells()
    if a.suffix == ".npy":
        ok = _npy(a, b, cells)
    elif a.suffix == ".json":
        ok = _walk(json.loads(a.read_text()), json.loads(b.read_text()), cells)
    elif a.suffix == ".csv":
        ok = _csv(a.read_text(), b.read_text(), cells)
    else:
        ok = False
    if not ok:
        return "DIFFERS in words or structure"
    return cells.report() if cells.moved else "DIFFERS in bytes only"


def _command(a: dict, b: dict) -> str:
    """One command's line of the report: exit code, stdout and stderr."""
    if a["argv"] != b["argv"]:
        return f"DIFFERS: argv {a['argv']} != {b['argv']}"
    faults = []
    if a["exit"] != b["exit"]:
        faults.append(f"exit {a['exit']} != {b['exit']}")
    cells = _Cells()
    if not _walk(a["stdout"], b["stdout"], cells):
        faults.append("stdout DIFFERS in words or structure")
    elif cells.moved:
        faults.append(f"stdout: {cells.report()}")
    lines_a, lines_b = a["stderr"].splitlines(), b["stderr"].splitlines()
    if lines_a != lines_b:
        i = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                 min(len(lines_a), len(lines_b)))
        faults.append(f"stderr line {i + 1} DIFFERS: "
                      f"{(lines_a + [''])[i]!r} != {(lines_b + [''])[i]!r}")
    return "; ".join(faults) if faults else "exit, stdout and stderr identical"


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """The report lines for run directories ``a`` and ``b``, and whether
    everything is identical."""
    lines = []
    suites = [sorted(p.name for p in d.iterdir() if (p / "commands.json").is_file())
              for d in (a, b)]
    if suites[0] != suites[1]:
        lines.append(f"suites DIFFER: {suites[0]} != {suites[1]}")
    n_files = n_identical = 0
    for suite in sorted(set(suites[0]) & set(suites[1])):
        ran_a, ran_b = (json.loads((d / suite / "commands.json").read_text()) for d in (a, b))
        if list(ran_a) != list(ran_b):
            lines.append(f"{suite}: commands DIFFER: {list(ran_a)} != {list(ran_b)}")
        for label in [label for label in ran_a if label in ran_b]:
            lines.append(f"{suite}/{label}: {_command(ran_a[label], ran_b[label])}")
        files_a, files_b = ({p.relative_to(d) for p in (d / suite / "out").rglob("*")
                             if p.is_file()} for d in (a, b))
        for name in sorted(files_a ^ files_b):
            lines.append(f"{name}: DIFFERS: only in {a if name in files_a else b}")
        for name in sorted(files_a & files_b):
            lines.append(f"{name}: {_file(a / name, b / name)}")
            n_identical += lines[-1].endswith(": identical")
        n_files += len(files_a | files_b)
    same = all(line.endswith("identical") for line in lines)
    lines.append(f"{n_identical} of {n_files} files identical; "
                 + ("everything identical" if same else "DIFFERENCES above"))
    return lines, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="run SRC's package on every suite into OUT")
    p.add_argument("--src", type=Path, required=True, help="a tree's src/ directory")
    p.add_argument("out", type=Path, help="a new directory for the results")
    p = sub.add_parser("compare", help="compare two run directories")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        run(args.src, args.out)
        return 0
    lines, same = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
