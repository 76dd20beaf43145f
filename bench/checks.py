"""Output checks, run after the timed region. Each failed check counts
as one failed operation.

The planted answers come from ``gen.py``: relevance risers lead the
toward-relevance retrieval, polarity fallers lead toward-negative, and
the change regression samples only words that cross the relevance
midpoint (risers and changers). Posteriors are compared with the
brute-force oracles in ``tests/reference.py``; naive Bayes and KDE
only on a small low-dimensional world, because those oracles multiply
densities directly and underflow at 300 d.
"""
from __future__ import annotations

import csv
import json
import math
import traceback
from pathlib import Path

import numpy as np

# Required LOO accuracy above chance_level, per tier.
LOO_MARGIN = {"relevance": 0.3, "polarity": 0.3, "category": 0.5}
ORACLE_TOL = 1e-9
N_ORACLE_WORDS = 5


class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def run(self, name: str, fn) -> None:
        """Record ``fn()``; it returns a failure message or None. Raising fails too."""
        try:
            message = fn()
        except Exception:
            message = traceback.format_exc(limit=3)
        self.results.append({"check": name, "ok": message is None,
                             "detail": message or ""})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _reference(root: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("reference", root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _top_contains(words, planted, label) -> str | None:
    missing = sorted(set(planted) - set(words))
    return f"{label}: planted {missing} missing from {list(words)}" if missing else None


def _loo(report, tier) -> str | None:
    import moraldrift as md

    need = md.chance_level(tier) + LOO_MARGIN[tier]
    return (None if report.accuracy >= need else
            f"{tier} {report.model.kind} decade {report.decade}: accuracy "
            f"{report.accuracy:.3f} < chance + margin {need:.3f}")


def _first_failure(messages) -> str | None:
    return next((m for m in messages if m), None)


def _matrix(matrix, n_words, n_decades) -> str | None:
    v = matrix.values
    if v.shape != (n_words, n_decades):
        return f"matrix shape {v.shape} != {(n_words, n_decades)}"
    if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
        return "matrix has missing or out-of-range scores"
    return None


def _oracle(ref, ctx, matrices, words, rng) -> str | None:
    """Centroid and kNN posteriors of sampled words vs the oracles."""
    import moraldrift as md

    dia, lexicon = ctx["dia"], ctx["lexicon"]
    for (kind, tier), matrix in matrices.items():
        column = {"relevance": "relevant", "polarity": "positive"}[tier]
        for j in rng.choice(len(dia.spaces), size=2, replace=False):
            space = dia.spaces[int(j)]
            class_vectors = md.seed_vectors(lexicon, space, tier)
            for i in rng.choice(len(words), size=N_ORACLE_WORDS, replace=False):
                q = space.vector(words[int(i)])
                if kind == "centroid":
                    want = ref.centroid_posterior(q, class_vectors)[column]
                else:
                    want = ref.knn_posterior(q, class_vectors, md.ModelSpec("knn").k)[column]
                got = matrix.values[int(i), int(j)]
                if abs(got - want) > ORACLE_TOL:
                    return (f"{kind} {tier} {words[int(i)]} decade {space.decade}: "
                            f"{got!r} vs oracle {want!r}")
    return None


def _low_dim_oracles(ref, seed) -> str | None:
    """Naive Bayes and KDE against the oracles on a 4-d, 3-class world."""
    import moraldrift as md

    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.standard_normal((3, 4))
    class_vectors = {f"c{i}": centers[i] + rng.standard_normal((5, 4)) for i in range(3)}
    queries = rng.standard_normal((20, 4))
    for spec, oracle in ((md.ModelSpec("naive_bayes"), ref.naive_bayes_posterior),
                         (md.ModelSpec("kde", h=0.5),
                          lambda q, cv: ref.kde_posterior(q, cv, 0.5))):
        got = md.posterior_batch(md.fit(spec, class_vectors), queries)
        for q, row in zip(queries, got):
            want = oracle(q, class_vectors)
            for c, label in enumerate(class_vectors):
                if abs(row[c] - want[label]) > ORACLE_TOL:
                    return f"{spec.kind}: {row[c]!r} vs oracle {want[label]!r}"
    return None


def library(workload: str, out: dict, ctx, inputs: dict, freqs, root: Path,
            seed: int) -> Checks:
    import moraldrift as md
    from moraldrift.classifiers import BANDWIDTH_GRID

    checks = Checks()
    ref = _reference(root)
    rng = np.random.default_rng(seed)
    words = [w for w, _ in freqs]
    n_dec = len(ctx["dia"].spaces)
    risers, fallers = inputs["risers"], inputs["fallers"]
    changers = inputs["changers"]

    if workload == "kde-fit":
        for tier in ("relevance", "polarity", "category"):
            hist = out[f"loo_historical.kde.{tier}"]
            checks.run(f"loo_historical.kde.{tier}.above_chance",
                       lambda h=hist, t=tier: _first_failure(_loo(r, t) for r in h.reports))
            checks.run(f"loo_historical.kde.{tier}.h_in_grid",
                       lambda h=hist: _first_failure(
                           None if r.model.h in BANDWIDTH_GRID else f"h={r.model.h}"
                           for r in h.reports))
            for kind in ("centroid", "naive_bayes", "knn"):
                checks.run(f"loo.{kind}.{tier}.above_chance",
                           lambda r=out[f"loo.{kind}.{tier}"], t=tier: _loo(r, t))
        checks.run("matrix.kde.relevance.shape",
                   lambda: _matrix(out["matrix.kde.relevance"], len(words), n_dec))
        checks.run("retrieve.kde.toward-relevance.riser_first",
                   lambda: _first_failure(
                       None if r.word in risers else f"{r.word} is not a planted riser"
                       for r in out["retrieve.kde.toward-relevance"]) or (
                       None if out["retrieve.kde.toward-relevance"] else "empty retrieval"))
        # kde-fit scores no centroid or kNN matrix in its timed sequence.
        sampled = {(kind, tier): md.prediction_matrix(ctx["dia"], ctx["lexicon"],
                                                      md.ModelSpec(kind), words, tier)
                   for kind in ("centroid", "knn") for tier in ("relevance", "polarity")}
        checks.run("oracle.centroid_knn", lambda: _oracle(ref, ctx, sampled, words, rng))
    elif workload == "matrix-scan":
        for name in out:
            if name.startswith("matrix."):
                checks.run(f"{name}.shape",
                           lambda m=out[name]: _matrix(m, len(words), n_dec))
        sampled = {(kind, tier): out[f"matrix.{kind}.{tier}"]
                   for kind in ("centroid", "knn") for tier in ("relevance", "polarity")}
        checks.run("oracle.centroid_knn", lambda: _oracle(ref, ctx, sampled, words, rng))
        top = {d: [r.word for r in out[f"retrieve.centroid.{d}"]]
               for d in ("toward-relevance", "toward-positive", "toward-negative")}
        checks.run("retrieve.toward-relevance.risers",
                   lambda: _top_contains(top["toward-relevance"], risers, "toward-relevance"))
        checks.run("retrieve.toward-negative.fallers",
                   lambda: _top_contains(top["toward-negative"], fallers, "toward-negative"))
        checks.run("retrieve.toward-positive.no_fallers",
                   lambda: (f"fallers in toward-positive: {top['toward-positive']}"
                            if set(top["toward-positive"]) & set(fallers) else None))
        fit, sample = out["regress"]
        checks.run("regress.sample",
                   lambda: (f"regression sample has {fit.n} words" if fit.n < 5 else
                            _first_failure(f"{w} is not a planted riser or changer"
                                           for w in sample if w not in risers + changers)))
        report = out["permute"]
        checks.run("permute.report",
                   lambda: (f"{report.n_shuffles} shuffles" if report.n_shuffles != 1000 else
                            _first_failure(f"{n}: p={fc.empirical_p}"
                                           for n, fc in report.factors.items()
                                           if not 0.0 < fc.empirical_p <= 1.0)))
    checks.run("oracle.naive_bayes_kde_low_dim", lambda: _low_dim_oracles(ref, seed))
    return checks


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli(out_dir: Path, stdout: dict, inputs: dict, n_words: int) -> Checks:
    """Checks on the files and stdout of one cli-pipeline iteration."""
    checks = Checks()
    n_dec = 20

    def aligned():
        rows = _read_csv(out_dir / "aligned_manifest.csv")
        return None if len(rows) == n_dec else f"{len(rows)} aligned decades"

    def matrix(kind):
        data = _read_json(out_dir / f"matrix_{kind}.json")
        shape = (len(data["words"]), len(data["decades"]))
        if shape != (n_words, n_dec):
            return f"matrix_{kind}.json shape {shape}"
        if any(v is None or not 0.0 <= v <= 1.0 for row in data["values"] for v in row):
            return f"matrix_{kind}.json has missing or out-of-range scores"
        rows = _read_csv(out_dir / f"matrix_{kind}.csv")
        return None if len(rows) == n_words * n_dec else f"matrix_{kind}.csv has {len(rows)} rows"

    def evaluate():
        data = _read_json(out_dir / "evaluate_category_centroid_historical.json")
        need = 0.1 + LOO_MARGIN["category"]
        low = [r["accuracy"] for r in data["per_decade"] if r["accuracy"] < need]
        return f"category accuracies below {need}: {low}" if low else (
            None if len(data["per_decade"]) == n_dec else "missing decades")

    def retrieve(direction, planted):
        rows = _read_csv(out_dir / f"retrieve_{direction}.csv")
        return _top_contains([r["word"] for r in rows], planted, direction)

    def regress():
        data = _read_json(out_dir / "regress.json")
        n = data["fit"]["n"]
        stray = [w for w in data["words"] if w not in inputs["risers"] + inputs["changers"]]
        return f"n={n}" if n < 5 else (f"unplanted words {stray}" if stray else None)

    def permute():
        data = _read_json(out_dir / "permute.json")
        return None if data["n_shuffles"] == 1000 else f"{data['n_shuffles']} shuffles"

    def query(label, text):
        command = label.split(".")[2]
        if command == "classify":
            probs = json.loads(text)["posterior"].values()
            return None if math.isclose(sum(probs), 1.0, abs_tol=ORACLE_TOL) else \
                f"posterior sums to {sum(probs)}"
        files = list(out_dir.glob("timecourse_*.json"))
        return None if files and all(len(_read_json(f)["scores"]) == n_dec for f in files) \
            else "timecourse output missing or short"

    checks.run("align.manifest", aligned)
    checks.run("matrix.relevance", lambda: matrix("relevance"))
    checks.run("matrix.polarity", lambda: matrix("polarity"))
    checks.run("evaluate.category.above_chance", evaluate)
    checks.run("retrieve.toward-relevance.risers",
               lambda: retrieve("toward-relevance", inputs["risers"]))
    checks.run("retrieve.toward-negative.fallers",
               lambda: retrieve("toward-negative", inputs["fallers"]))
    checks.run("regress.sample", regress)
    checks.run("permute.report", permute)
    for label, text in stdout.items():
        checks.run(f"{label}.output", lambda l=label, t=text: query(l, t))
    return checks
