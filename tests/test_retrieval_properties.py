"""Property tests for retrieval.

``retrieve_changing`` filters, ranks and annotates a whole score matrix
with array operations. It is checked against the word-by-word retrieval
in ``reference.py`` on generated matrices: 6 and 20 decades, gaps,
scores of exactly 0.5, rows without a score and rows with too few scored
decades for a slope, all three directions and both Bonferroni families.
The category annotations come from small worlds with gappy embeddings.
"""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (DiachronicEmbeddings, ModelSpec, PredictionMatrix, build_tiers,
                        prediction_matrix, retrieve_changing)
from moraldrift.diachronic import DIRECTIONS
from moraldrift.stats import MIN_SLOPE_DECADES

import reference
from conftest import (DIM, NEUTRAL_CENTER, SEEDS_PER_CATEGORY, category_center,
                      make_space, seed_base, world_mfd)

SPEC = ModelSpec("centroid")
# q11 has no embedding in any decade; q10 only before 1900. Names sort
# as strings, so q10 comes before q2.
QUERY = tuple(f"q{i}" for i in range(12))
NEUTRAL = tuple(f"neutral{i:02d}" for i in range(10 * SEEDS_PER_CATEGORY))


@functools.lru_cache(maxsize=None)
def gappy_world(n_decades):
    """Decades up to 1990 (some before 1900, some modern), seed clusters
    per category, and query words between the neutral cluster and a
    category, each missing from about a quarter of the decades."""
    decades = tuple(range(2000 - 10 * n_decades, 2000, 10))
    rng = np.random.default_rng(n_decades)
    homes = [(category_center(1 + i % 10), rng.uniform(0.2, 1.0)) for i in range(len(QUERY))]
    spaces = []
    for decade in decades:
        positions = {}
        for c in range(1, 11):
            for j in range(SEEDS_PER_CATEGORY):
                positions[f"{seed_base(c)}{j}"] = category_center(c) + 0.3 * rng.standard_normal(DIM)
        for word in NEUTRAL:
            positions[word] = NEUTRAL_CENTER + 0.3 * rng.standard_normal(DIM)
        for word, (center, weight) in zip(QUERY[:10], homes):
            if rng.random() < 0.75:
                positions[word] = (weight * center + (1.0 - weight) * NEUTRAL_CENTER
                                   + 0.5 * rng.standard_normal(DIM))
        if decade < 1900:
            positions["q10"] = category_center(2) + 0.5 * rng.standard_normal(DIM)
        spaces.append(make_space(decade, positions))
    return DiachronicEmbeddings(spaces), build_tiers(world_mfd(), NEUTRAL)


# Scores tie at 0.5 and between rows; a few are arbitrary. Most are at
# least 0.5, so that most relevance rows pass the filter.
SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.5, 0.625, 0.75, 0.75, 1.0, 1.0]) \
    | st.floats(0.0, 1.0)


@st.composite
def score_rows(draw, n_words, n_decades):
    """Rows that are complete, gappy, all missing, scored in fewer decades
    than a slope needs, or copies of an earlier row (so slopes tie)."""
    rows = []
    for _ in range(n_words):
        row = [draw(SCORES) for _ in range(n_decades)]
        kind = draw(st.sampled_from(["full", "full", "gappy", "gappy", "empty", "short",
                                     "copy", "copy"]))
        if kind == "copy" and rows:
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "gappy":
            row = [v if draw(st.sampled_from([True, True, False])) else np.nan for v in row]
        elif kind == "empty":
            row = [np.nan] * n_decades
        elif kind == "short":
            keep = set(draw(st.lists(st.integers(0, n_decades - 1),
                                     max_size=MIN_SLOPE_DECADES - 1)))
            row = [v if j in keep else np.nan for j, v in enumerate(row)]
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", type, text)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("n_decades", [6, 20])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_retrieval_matches_word_by_word(n_decades, data):
    diachronic, lexicon = gappy_world(n_decades)
    words = tuple(data.draw(st.lists(st.sampled_from(QUERY), min_size=3, unique=True)))
    direction = data.draw(st.sampled_from(DIRECTIONS))
    relevance = PredictionMatrix("relevance", words, diachronic.decades,
                                 data.draw(score_rows(len(words), n_decades)))
    if direction == "toward-relevance":
        matrix, companion = relevance, None
    else:
        matrix = PredictionMatrix("polarity", words, diachronic.decades,
                                  data.draw(score_rows(len(words), n_decades)))
        companion = relevance if data.draw(st.booleans()) else None
    kwargs = dict(top_n=data.draw(st.integers(1, 6)), relevance_matrix=companion,
                  bonferroni_family=data.draw(st.sampled_from(["filtered", "all-words"])))
    args = (matrix, lexicon, diachronic, SPEC, direction)
    expected = _outcome(reference.retrieve_changing, *args, **kwargs)
    got = _outcome(retrieve_changing, *args, **kwargs)
    if expected[0] == "raised":
        assert got == expected
        return
    assert got[0] == "ok"
    records, wanted = got[1], expected[1]
    assert [dataclasses.replace(r, mean_relevance=0.0) for r in records] == \
        [dataclasses.replace(r, mean_relevance=0.0) for r in wanted]
    if companion is None and direction != "toward-relevance":
        relevance = prediction_matrix(diachronic, lexicon, SPEC, list(words), "relevance")
    for record, want in zip(records, wanted):
        row = relevance.values[words.index(record.word)]
        if n_decades < 8 or np.isfinite(row).all():
            assert record.mean_relevance == want.mean_relevance
        else:  # numpy's pairwise sum groups a row with zeros in its gaps differently
            assert abs(record.mean_relevance - want.mean_relevance) \
                <= 4 * np.spacing(want.mean_relevance)
