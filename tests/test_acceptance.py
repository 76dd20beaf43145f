"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS line on success (failures surface as ordinary pytest
failures). The reproduction tests at the bottom need real corpus data
and are skipped unless MORALDRIFT_DATA_DIR points at a directory with
manifest.csv, mfd.csv, and norms.csv.
"""
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from moraldrift import (EmbeddingSpace, ModelSpec, align_procrustes,
                        build_tiers, fit, fit_tier, load_diachronic, load_mfd,
                        load_norms, loo_accuracy,
                        loo_accuracy_historical, permutation_control,
                        posterior_batch, prediction_matrix,
                        psycholinguistic_regression, retrieve_changing,
                        valence_correlation)
from moraldrift.cli import dispatch
from moraldrift.stats import slope_rows

import reference
from conftest import CHANGER_DECADES, changer_courses, norm_table

DATA_DIR = os.environ.get("MORALDRIFT_DATA_DIR")
needs_real_data = pytest.mark.skipif(
    not DATA_DIR, reason="set MORALDRIFT_DATA_DIR to run corpus reproductions")


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def random_class_vectors(rng, n_classes, max_total_seeds, dim):
    sizes = rng.integers(1, max(2, max_total_seeds // n_classes) + 1,
                         size=n_classes)
    centers = 3.0 * rng.standard_normal((n_classes, dim))
    return {f"c{i}": centers[i] + rng.standard_normal((int(sizes[i]), dim))
            for i in range(n_classes)}


def tier_lexicon_and_space(centers, n_seeds, sigma, seed, categories):
    """Seed clusters at the given centers wired into a lexicon + space."""
    rng = np.random.default_rng(seed)
    mfd, positions = {}, {}
    for cat, center in zip(categories, centers):
        for i in range(n_seeds):
            word = f"c{cat}w{i}"
            mfd[word] = cat
            positions[word] = center + sigma * rng.standard_normal(len(center))
    lexicon = build_tiers(mfd, {f"dummy{i}" for i in range(len(mfd))})
    words = list(positions)
    space = EmbeddingSpace(1900, words, np.vstack([positions[w] for w in words]))
    return lexicon, space


def test_posterior_normalization():
    """All four models: 1,000 random queries, |sum p - 1| < 1e-9, p >= 0."""
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    specs = [ModelSpec("centroid"), ModelSpec("naive_bayes"),
             ModelSpec("knn", k=5), ModelSpec("kde", h=0.8)]
    for spec in specs:
        vectors = random_class_vectors(rng, n_classes=4, max_total_seeds=40,
                                       dim=8)
        model = fit(spec, vectors)
        queries = rng.standard_normal((1000, 8))
        probs = posterior_batch(model, queries)
        assert np.all(probs >= 0.0), spec.kind
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9, spec.kind
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok("posterior-normalization")


def test_oracle_equivalence():
    """kNN exact and KDE within 1e-12 of double-loop sums on 200 random
    instances; NB log-space within 1e-9 of the direct density product."""
    rng = np.random.default_rng(101)
    for _ in range(200):
        n_classes = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 11))
        vectors = random_class_vectors(rng, n_classes, 50, dim)
        total = sum(len(v) for v in vectors.values())
        q = rng.standard_normal(dim)

        k = int(rng.integers(1, total + 1))
        knn = fit(ModelSpec("knn", k=k), vectors)
        got = posterior_batch(knn, q)[0]
        want = reference.knn_posterior(q, vectors, k)
        for j, label in enumerate(knn.classes):
            assert got[j] == want[label]

        h = float(rng.uniform(0.2, 3.0))
        kde = fit(ModelSpec("kde", h=h), vectors)
        got = posterior_batch(kde, q)[0]
        want = reference.kde_posterior(q, vectors, h)
        for j, label in enumerate(kde.classes):
            assert abs(got[j] - want[label]) < 1e-12

    # the direct product is only comparable where it does not underflow
    compared = 0
    while compared < 200:
        dim = int(rng.integers(1, 6))
        vectors = random_class_vectors(rng, int(rng.integers(2, 5)), 30, dim)
        q = rng.standard_normal(dim)
        raw = reference.naive_bayes_scores(q, vectors)
        if min(raw.values()) < 1e-280:
            continue
        nb = fit(ModelSpec("naive_bayes"), vectors)
        got = posterior_batch(nb, q)[0]
        total = sum(raw.values())
        for j, label in enumerate(nb.classes):
            assert got[j] == pytest.approx(raw[label] / total, rel=1e-9)
        compared += 1
    ok("oracle-equivalence")


def test_loo_separable_clusters():
    """Two clusters at 10 sigma: every model reaches accuracy 1.0; the
    ten-class analogue reaches >= 0.9 for the centroid model."""
    center = np.zeros(5)
    center[0] = 5.0
    lexicon, space = tier_lexicon_and_space([center, -center], n_seeds=10,
                                            sigma=1.0, seed=102,
                                            categories=(1, 2))
    for spec in [ModelSpec("centroid"), ModelSpec("naive_bayes"),
                 ModelSpec("knn", k=5), ModelSpec("kde")]:
        report = loo_accuracy(spec, lexicon, space, "polarity")
        assert report.accuracy == 1.0, spec.kind

    centers = [10.0 * np.eye(10)[c - 1] for c in range(1, 11)]
    lexicon10, space10 = tier_lexicon_and_space(centers, n_seeds=10,
                                                sigma=1.0, seed=103,
                                                categories=range(1, 11))
    report = loo_accuracy(ModelSpec("centroid"), lexicon10, space10, "category")
    assert report.accuracy >= 0.9
    ok("loo-separable-clusters")


def test_slope_recovery():
    """Planted 0.005/decade under sigma=0.01 noise: recovered within
    +/- 0.003 with p < 0.05 in at least 90 of 100 seeded trials."""
    t_idx = np.arange(1, 21, dtype=float)
    scores = np.vstack([
        0.5 + 0.005 * (t_idx - 10.5)
        + 0.01 * np.random.default_rng(200 + trial).standard_normal(20)
        for trial in range(100)])
    b, p = slope_rows(scores)
    hits = int(np.count_nonzero((np.abs(b - 0.005) <= 0.003) & (p < 0.05)))
    assert hits >= 90, f"only {hits}/100 trials recovered the trend"

    b, p = slope_rows(np.full((1, 20), 0.5))
    assert (b.tolist(), p.tolist()) == ([0.0], [1.0])
    ok("slope-recovery")


def test_retrieval_ranking(world):
    """One planted riser among 99 flat words ranks first; the reported
    correction equals min(1, m * p_raw) recomputed by hand."""
    words = ["riser"] + list(world.flat_words)
    matrix = prediction_matrix(world.diachronic, world.lexicon,
                               ModelSpec("centroid"), words, "relevance")
    records = retrieve_changing(matrix, world.lexicon, world.diachronic,
                                ModelSpec("centroid"), "toward-relevance",
                                top_n=10)
    assert records[0].word == "riser"
    m = 100  # all 100 words pass the mean-relevance filter
    for r in records:
        assert r.p_bonferroni == pytest.approx(min(1.0, m * r.p_raw), abs=1e-15)
    assert min(1.0, 10 * 0.001) == 0.01
    ok("retrieval-ranking")


def test_regression_fidelity():
    """Slope-on-factors fit recovers planted coefficients within 2
    standard errors at n=600; the zero-noise case is exact to 1e-10."""
    words, freqs, concs, values = changer_courses(
        n_words=600, seed=104, beta_f=1e-4, beta_c=-2e-4, beta_l=0.0,
        noise=1e-4)
    matrix = _relevance_matrix(words, values)
    norms = norm_table(words, 5.0, concs)
    frequencies = {w: float(f) for w, f in zip(words, freqs)}
    fit_noisy, kept = psycholinguistic_regression(matrix, norms, frequencies)
    for name, beta in [("frequency", 1e-4), ("concreteness", -2e-4),
                       ("length", 0.0)]:
        err = abs(fit_noisy.coefficients[name] - beta)
        assert err <= 2.0 * fit_noisy.std_errors[name], name

    words, freqs, concs, values = changer_courses(
        n_words=600, seed=105, beta_f=1e-4, beta_c=-2e-4, beta_l=0.0,
        noise=0.0)
    matrix = _relevance_matrix(words, values)
    norms = norm_table(words, 5.0, concs)
    fit_exact, _ = psycholinguistic_regression(
        matrix, norms, {w: float(f) for w, f in zip(words, freqs)})
    assert fit_exact.coefficients["frequency"] == pytest.approx(1e-4, abs=1e-10)
    assert fit_exact.coefficients["concreteness"] == pytest.approx(-2e-4, abs=1e-10)
    assert fit_exact.coefficients["length"] == pytest.approx(0.0, abs=1e-10)
    ok("regression-fidelity")


def _relevance_matrix(words, values):
    from moraldrift import PredictionMatrix
    return PredictionMatrix(kind="relevance", words=tuple(words),
                            decades=CHANGER_DECADES,
                            values=np.asarray(values, dtype=float))


def test_permutation_control_null():
    """On null matrices every factor's control-coefficient mean stays
    within 3 standard errors of zero; fixed seeds reproduce bit-for-bit."""
    rng = np.random.default_rng(106)
    n_words = 200
    words = [f"{'z' * (1 + i % 6)}{i}" for i in range(n_words)]
    values = np.clip(0.5 + 0.05 * rng.standard_normal((n_words, 20)), 0.0, 1.0)
    matrix = _relevance_matrix(words, values)
    norms = norm_table(words, 5.0, [rng.uniform(1, 5) for _ in words])
    frequencies = {w: float(rng.uniform(1e2, 1e5)) for w in words}
    report = permutation_control(matrix, norms, frequencies,
                                 n_shuffles=200, seed=107)
    for name, fc in report.factors.items():
        se = fc.control_stdev / np.sqrt(report.n_shuffles)
        assert abs(fc.control_mean) <= 3.0 * se, name

    again = permutation_control(matrix, norms, frequencies,
                                n_shuffles=200, seed=107)
    assert report == again
    ok("permutation-control-null")


def test_procrustes_recovery():
    """Planted-rotation recovery within 1e-6; orthogonality within 1e-8."""
    rng = np.random.default_rng(108)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    q *= np.sign(np.diag(r))
    words = [f"w{i}" for i in range(50)]
    base = rng.standard_normal((50, 8))
    source = EmbeddingSpace(1900, words, base)
    target = EmbeddingSpace(1910, words, base @ q)
    rotation, aligned = align_procrustes(source, target)
    assert np.abs(rotation - q).max() < 1e-6
    assert np.abs(rotation.T @ rotation - np.eye(8)).max() < 1e-8
    assert np.abs(aligned.matrix - target.matrix).max() < 1e-6
    ok("procrustes-recovery")


def test_end_to_end_determinism(world_files, changer_files, tmp_path):
    """Re-running retrieve and permute with an identical configuration
    produces byte-identical output files."""
    matrix_dir = tmp_path / "matrix"
    assert dispatch(["matrix", "--manifest", str(world_files.manifest),
                     "--mfd", str(world_files.mfd),
                     "--norms", str(world_files.norms),
                     "--wordlist", str(world_files.wordlist),
                     "--kind", "relevance",
                     "--out-dir", str(matrix_dir)]) == 0

    out = tmp_path / "run"
    retrieve_args = ["retrieve", "--manifest", str(world_files.manifest),
                     "--mfd", str(world_files.mfd),
                     "--norms", str(world_files.norms),
                     "--matrix", str(matrix_dir / "matrix_relevance.json"),
                     "--direction", "toward-relevance", "--top", "10",
                     "--out-dir", str(out)]
    permute_args = ["permute", "--matrix", str(changer_files.matrix),
                    "--norms", str(changer_files.norms),
                    "--wordlist", str(changer_files.wordlist),
                    "--shuffles", "50", "--seed", "11",
                    "--out-dir", str(out)]

    assert dispatch(retrieve_args) == 0
    assert dispatch(permute_args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert dispatch(retrieve_args) == 0
    assert dispatch(permute_args) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second
    assert "retrieve_toward-relevance.csv" in first
    assert "permute.json" in first
    hashes = {json.loads(second["permute.json"].decode())["_meta"]["config_hash"]}
    assert len(hashes) == 1
    ok("end-to-end-determinism")


# ---------------------------------------------------------------------------
# Corpus reproductions (opt-in; require the real embeddings and lexicons)
# ---------------------------------------------------------------------------

def _real_inputs():
    root = Path(DATA_DIR)
    diachronic = load_diachronic(root / "manifest.csv")
    mfd = load_mfd(root / "mfd.csv")
    norms = load_norms(root / "norms.csv")
    from moraldrift import build_irrelevant_seeds, relevant_words
    irrelevant = build_irrelevant_seeds(norms, relevant_words(mfd))
    lexicon = build_tiers(mfd, irrelevant)
    return diachronic, lexicon, norms


@needs_real_data
def test_reproduces_modern_seed_accuracy():
    """Centroid 1990s accuracies within +/-0.03 of 0.84/0.90/0.59."""
    diachronic, lexicon, _ = _real_inputs()
    space = diachronic.space(1990)
    targets = {"relevance": 0.84, "polarity": 0.90, "category": 0.59}
    for tier, target in targets.items():
        report = loo_accuracy(ModelSpec("centroid"), lexicon, space, tier)
        assert abs(report.accuracy - target) <= 0.03, (tier, report.accuracy)
    ok("modern-seed-accuracy")


@needs_real_data
def test_reproduces_valence_correlation():
    """Polarity-vs-valence correlation 0.43 +/- 0.05 with n near 12,293."""
    diachronic, lexicon, norms = _real_inputs()
    space = diachronic.space(1990)
    model = fit_tier(ModelSpec("centroid"), lexicon, space, "polarity")
    report = valence_correlation(model, space, norms)
    assert abs(report.r - 0.43) <= 0.05
    assert abs(report.n - 12293) <= 0.05 * 12293
    ok("valence-correlation")


@needs_real_data
def test_reproduces_historical_means():
    """Centroid all-decade mean accuracies within +/-0.04 of
    0.82/0.89/0.64."""
    diachronic, lexicon, _ = _real_inputs()
    targets = {"relevance": 0.82, "polarity": 0.89, "category": 0.64}
    for tier, target in targets.items():
        result = loo_accuracy_historical(ModelSpec("centroid"), lexicon,
                                         diachronic, tier)
        assert abs(result.mean_accuracy - target) <= 0.04, \
            (tier, result.mean_accuracy)
    ok("historical-means")
