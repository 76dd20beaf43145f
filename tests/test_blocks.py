"""Queries are scored in blocks of ``_BLOCK_ROWS`` rows of the word list.

A word list of 2 blocks plus 37 words, with absent words on both sides of
each block edge and a last block that one decade lacks entirely, is
scored bit for bit as ``reference.decade_scores`` scores it block by
block, for all four model kinds and all three tiers, and as a rated-word
list by ``valence_correlation``; ``posterior_batch`` scores its rows in
the same blocks. A prediction matrix asks ``fit_tier`` once per decade.
Memory does not grow with the word list: ``tracemalloc`` (which sees
numpy's buffers) bounds a prediction matrix over 8,000 words, a valence
correlation over 8,000 rated words and a 1,000-shuffle permutation control.
"""
import tracemalloc

import numpy as np
import pytest

import moraldrift.diachronic
from moraldrift import (DiachronicEmbeddings, EmbeddingSpace, ModelSpec, PredictionMatrix,
                        build_tiers, fit_tier, pearson, permutation_control,
                        posterior_batch, prediction_matrix, valence_correlation)
from moraldrift.classifiers import _BLOCK_ROWS
from moraldrift.diachronic import _decade_scores

import reference
from conftest import norm_table

SPECS = (ModelSpec("centroid"), ModelSpec("naive_bayes", variance_floor=0.01),
         ModelSpec("knn", k=3), ModelSpec("kde", h=0.5))
SPEC_IDS = ("centroid", "naive_bayes", "knn", "kde")
N_WORDS = 2 * _BLOCK_ROWS + 37
EDGES = (_BLOCK_ROWS, 2 * _BLOCK_ROWS)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def seeded_world(n_words, dim, n_decades, seed, absent=lambda i, j: False,
                 dtype=np.float64):
    """Decades of 10 seed clusters (3 seeds each), 30 neutral seeds,
    plus ``n_words`` list words ``w0, w1, ...`` near random clusters; list
    word i is left out of decade j where ``absent(i, j)``. Returns the
    embeddings, the tier lexicon and the word list."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((11, dim))
    seeds = [f"seed{c}_{k}" for c in range(10) for k in range(3)]
    neutral = [f"neutral{k}" for k in range(30)]
    words = [f"w{i}" for i in range(n_words)]
    homes = rng.integers(0, 11, n_words)
    spaces = []
    for j in range(n_decades):
        kept = [i for i in range(n_words) if not absent(i, j)]
        rows = centers[np.r_[np.arange(30) // 3, np.full(30, 10), homes[kept]]]
        rows += 0.1 * rng.standard_normal(rows.shape)
        spaces.append(EmbeddingSpace(1900 + 10 * j, seeds + neutral + [words[i] for i in kept],
                                     rows.astype(dtype)))
    lexicon = build_tiers({w: 1 + i // 3 for i, w in enumerate(seeds)}, neutral)
    return DiachronicEmbeddings(spaces), lexicon, words


def edge_absent(i, j):
    """Absent on both sides of each block edge in alternate decades, one
    word absent everywhere, and the last block absent from decade 0."""
    near_edge = any(edge - 2 <= i < edge + 2 for edge in EDGES)
    return (near_edge and (i + j) % 2 == 0) or i == _BLOCK_ROWS + 5 or (
        j == 0 and i >= 2 * _BLOCK_ROWS)


@pytest.fixture(scope="module")
def edge_world():
    return seeded_world(N_WORDS, 300, 4, seed=23, absent=edge_absent, dtype=np.float32)


def test_word_list_crosses_two_block_edges(edge_world):
    diachronic, _, words = edge_world
    assert _BLOCK_ROWS == 256 and len(words) == 549
    present = np.array([[w in space for space in diachronic] for w in words])
    for edge in EDGES:
        assert not present[edge - 1].all() and not present[edge].all()
        assert present[edge - 1].any() and present[edge].any()
    assert not present[2 * _BLOCK_ROWS:, 0].any() and present[2 * _BLOCK_ROWS + 2:, 1:].all()


@pytest.mark.parametrize("kind", ["relevance", "polarity"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_prediction_matrix_matches_blockwise_oracle(edge_world, spec, kind):
    diachronic, lexicon, words = edge_world
    got = prediction_matrix(diachronic, lexicon, spec, words, kind).values
    want = reference.decade_scores(diachronic, lexicon, spec, words, kind)
    np.testing.assert_array_equal(bits(got), bits(want))
    assert np.isnan(got[_BLOCK_ROWS + 5]).all() and np.isnan(got[2 * _BLOCK_ROWS:, 0]).all()
    assert np.isfinite(got[2 * _BLOCK_ROWS + 2:, 1:]).all()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_category_scores_match_blockwise_oracle(edge_world, spec):
    diachronic, lexicon, words = edge_world
    got = _decade_scores(diachronic, lexicon, spec, words, "category")
    want = reference.decade_scores(diachronic, lexicon, spec, words, "category")
    assert got.shape == (N_WORDS, 4, 10)
    np.testing.assert_array_equal(bits(got), bits(want))


def test_prediction_matrix_fits_once_per_decade(edge_world, monkeypatch):
    diachronic, lexicon, words = edge_world
    spaces = []

    def counting_fit_tier(spec, lexicon, space, tier):
        spaces.append(space)
        return fit_tier(spec, lexicon, space, tier)

    monkeypatch.setattr(moraldrift.diachronic, "fit_tier", counting_fit_tier)
    prediction_matrix(diachronic, lexicon, SPECS[0], words, "relevance")
    assert spaces == list(diachronic.spaces)  # 4 calls, not one per block and decade


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_valence_correlation_matches_blockwise_oracle(edge_world, spec):
    diachronic, lexicon, words = edge_world
    norms = norm_table(words, np.random.default_rng(3).uniform(1.0, 9.0, len(words)))
    for space in diachronic:
        positive = reference.decade_scores(DiachronicEmbeddings([space]), lexicon, spec,
                                           norms.words, "polarity")[:, 0]
        present = ~np.isnan(positive)
        assert not present.all()
        got = valence_correlation(fit_tier(spec, lexicon, space, "polarity"), space, norms)
        assert got == pearson(norms.valence[present], positive[present])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_posterior_batch_scores_block_by_block(edge_world, spec):
    diachronic, lexicon, words = edge_world
    space = diachronic.spaces[-1]
    model = fit_tier(spec, lexicon, space, "category")
    queries = space.rows(words)[0]
    assert len(queries) > 2 * _BLOCK_ROWS
    want = np.vstack([posterior_batch(model, queries[s:s + _BLOCK_ROWS])
                      for s in range(0, len(queries), _BLOCK_ROWS)])
    np.testing.assert_array_equal(bits(posterior_batch(model, queries)), bits(want))


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [ModelSpec("centroid"), ModelSpec("kde", h=0.5)],
                         ids=["centroid", "kde"])
def test_prediction_matrix_memory_stays_near_one_block(spec):
    diachronic, lexicon, words = seeded_world(8000, 300, 2, seed=5)
    block = _BLOCK_ROWS * 300 * 8
    output = len(words) * len(diachronic) * 8
    peak = traced_peak(lambda: prediction_matrix(diachronic, lexicon, spec, words,
                                                 "relevance"))
    # An unblocked 8,000 x 300 float64 gather alone is 19.2 MB.
    assert peak < 4 * (block + output), (peak, block, output)


def test_valence_correlation_memory_stays_near_one_block():
    diachronic, lexicon, words = seeded_world(8000, 300, 1, seed=7)
    space = diachronic.spaces[0]
    model = fit_tier(ModelSpec("centroid"), lexicon, space, "polarity")
    norms = norm_table(words, np.random.default_rng(7).uniform(1.0, 9.0, len(words)))
    block = _BLOCK_ROWS * 300 * 8
    output = len(words) * 8
    peak = traced_peak(lambda: valence_correlation(model, space, norms))
    # An unblocked 8,000 x 300 float64 gather alone is 19.2 MB.
    assert peak < 4 * (block + output), (peak, block, output)


def test_permutation_control_memory_does_not_grow_with_shuffles():
    rng = np.random.default_rng(11)
    n_words, n_decades = 8000, 20
    words = tuple(f"w{i}" for i in range(n_words))
    values = rng.uniform(0.05, 0.95, (n_words, n_decades))
    gappy = np.arange(0, n_words, 7)
    values[gappy, rng.integers(0, n_decades, gappy.size)] = np.nan
    matrix = PredictionMatrix("relevance", words, tuple(range(1800, 2000, 10)), values)
    norms = norm_table(words, 5.0, rng.uniform(1.0, 5.0, n_words))
    frequencies = [(w, float(f)) for w, f in zip(words, rng.uniform(1.0, 1e4, n_words))]
    peak = traced_peak(lambda: permutation_control(matrix, norms, frequencies,
                                                   n_shuffles=1000, seed=0))
    # The change filter of all 1,000 shuffles at once is 3 x 8 MB of booleans.
    assert peak < 6 * values.nbytes, (peak, values.nbytes)
