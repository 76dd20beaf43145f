"""``fit_tier`` fits each (lexicon, space, spec, tier) model once.

Every score that goes through the memo is checked bit for bit against
``reference.decade_scores``, which refits every decade's model on every
call: time courses, prediction matrices and retrieval's category labels,
for all four model kinds (KDE with its bandwidth search included) and all
three tiers, with queries in any order. A failed fit is not kept, and
the memo lets go of a space's models with the space. kNN and KDE models of
one space and tier hold one seed block.
"""
import copy
import dataclasses
import gc
import logging
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (CoverageError, DiachronicEmbeddings, ModelSpec, PredictionMatrix,
                        build_tiers, fit, fit_tier, prediction_matrix, retrieve_changing,
                        seed_vectors, time_course)

import reference
from conftest import make_space

SPECS = (ModelSpec("centroid"), ModelSpec("naive_bayes", variance_floor=0.01),
         ModelSpec("knn", k=3), ModelSpec("kde"), ModelSpec("kde", h=0.5))
SPEC_IDS = ("centroid", "naive_bayes", "knn", "kde-auto", "kde-0.5")
TIERS = ("relevance", "polarity", "category")
WORDS = ("riser", "posriser", "negfaller", "alwayspos", "posmean", "gapword", "flat00")


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def fresh(lexicon):
    """An equal lexicon with an empty memo."""
    return dataclasses.replace(lexicon)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_time_courses_match_refit_oracle(world, spec, tier):
    lexicon = fresh(world.lexicon)
    for _ in range(2):  # the second pass reads the memo only
        for word in WORDS:
            course = time_course(world.diachronic, lexicon, spec, word, tier)
            want = reference.decade_scores(world.diachronic, lexicon, spec, [word], tier)[0]
            np.testing.assert_array_equal(bits(course), bits(want))
    assert set(lexicon._models) == set(world.spaces)
    assert all(set(models) == {(spec, tier)} for models in lexicon._models.values())


@pytest.mark.parametrize("kind", ["relevance", "polarity"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_prediction_matrices_match_refit_oracle(world, spec, kind):
    lexicon = fresh(world.lexicon)
    words = list(WORDS + world.flat_words[1:20])
    want = reference.decade_scores(world.diachronic, lexicon, spec, words, kind)
    for _ in range(2):
        got = prediction_matrix(world.diachronic, lexicon, spec, words, kind)
        np.testing.assert_array_equal(bits(got.values), bits(want))


@pytest.mark.parametrize("direction", ["toward-relevance", "toward-positive"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_retrieval_categories_match_refit_oracle(world, spec, direction):
    lexicon = fresh(world.lexicon)
    words = WORDS[:-1] + world.flat_words[:10]
    kind = "relevance" if direction == "toward-relevance" else "polarity"
    matrix = PredictionMatrix(kind, words, world.decades, reference.decade_scores(
        world.diachronic, lexicon, spec, words, kind))
    want = reference.retrieve_changing(matrix, lexicon, world.diachronic, spec, direction,
                                       top_n=8)
    assert want
    for _ in range(2):
        got = retrieve_changing(matrix, lexicon, world.diachronic, spec, direction, top_n=8)
        assert [(r.word, r.switching_decade, r.early_category, r.modern_category)
                for r in got] == \
            [(r.word, r.switching_decade, r.early_category, r.modern_category) for r in want]


QUERIES = [(word, tier, spec) for word in ("riser", "gapword", "posmean")
           for tier in TIERS for spec in (SPECS[0], SPECS[3])]


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(len(QUERIES))))
def test_query_order_does_not_change_bits(world, order):
    lexicon = fresh(world.lexicon)
    for i in order:
        word, tier, spec = QUERIES[i]
        course = time_course(world.diachronic, lexicon, spec, word, tier)
        want = reference.decade_scores(world.diachronic, lexicon, spec, [word], tier)[0]
        np.testing.assert_array_equal(bits(course), bits(want))


def test_same_model_object_per_key(world, caplog):
    lexicon, space = fresh(world.lexicon), world.spaces[0]
    with caplog.at_level(logging.INFO, logger="moraldrift.classifiers"):
        model = fit_tier(ModelSpec("kde"), lexicon, space, "category")
        assert fit_tier(ModelSpec("kde"), lexicon, space, "category") is model
    assert model.spec.h is not None
    assert sum("selected KDE bandwidth" in r.message for r in caplog.records) == 1
    assert fit_tier(ModelSpec("kde", h=model.spec.h), lexicon, space, "category") \
        is not model
    assert fit_tier(ModelSpec("kde"), lexicon, space, "polarity") is not model
    assert fit_tier(ModelSpec("kde"), lexicon, world.spaces[1], "category") is not model
    assert fit_tier(ModelSpec("kde"), world.lexicon, space, "category") is not model
    with pytest.raises(ValueError, match="read-only"):
        model.seed_matrix[0, 0] = 0.0


@pytest.mark.parametrize("first", ["knn", "kde"])
def test_knn_and_kde_share_one_seed_block_per_space_and_tier(world, first):
    lexicon, space = fresh(world.lexicon), world.spaces[0]
    specs = {"knn": ModelSpec("knn", k=3), "kde": ModelSpec("kde")}
    fit_tier(specs[first], lexicon, space, "relevance")
    knn, kde = (fit_tier(specs[kind], lexicon, space, "relevance") for kind in specs)
    assert kde.seed_matrix is knn.seed_matrix and kde.seed_labels is knn.seed_labels
    assert not kde.seed_matrix.flags.writeable and not kde.seed_labels.flags.writeable
    alone = fit(ModelSpec("kde"), seed_vectors(lexicon, space, "relevance"))
    assert kde.spec.h == alone.spec.h
    np.testing.assert_array_equal(bits(kde.seed_matrix), bits(alone.seed_matrix))
    np.testing.assert_array_equal(kde.seed_labels, alone.seed_labels)
    others = [fit_tier(specs["kde"], lexicon, space, "polarity"),
              fit_tier(specs["knn"], lexicon, world.spaces[1], "relevance")]
    assert all(m.seed_matrix is not kde.seed_matrix for m in others)
    assert fit_tier(ModelSpec("centroid"), lexicon, space, "relevance").seed_matrix is None
    assert set(lexicon._models[space]) == {
        (specs["knn"], "relevance"), (specs["kde"], "relevance"), (specs["kde"], "polarity"),
        (ModelSpec("centroid"), "relevance")}
    assert len(pickle.loads(pickle.dumps(lexicon))._models) == 0


def test_failed_fit_is_raised_again():
    lexicon = build_tiers({"good": 1, "evil": 2}, {"table", "chair"})
    space = make_space(1900, {"good": np.array([1.0, 1.0]), "table": np.array([0.0, 5.0]),
                              "chair": np.array([0.2, 5.0])})
    dia = DiachronicEmbeddings([space])
    message = "^class 'negative' has no seed embeddings in decade 1900$"
    for _ in range(2):
        with pytest.raises(CoverageError, match=message):
            fit_tier(ModelSpec("centroid"), lexicon, space, "polarity")
        with pytest.raises(CoverageError, match=message):
            time_course(dia, lexicon, ModelSpec("centroid"), "good", "polarity")
    assert lexicon._models[space] == {}
    fit_tier(ModelSpec("centroid"), lexicon, space, "relevance")
    assert list(lexicon._models[space]) == [(ModelSpec("centroid"), "relevance")]


def test_memo_lets_go_of_dropped_spaces(world):
    lexicon = fresh(world.lexicon)
    dia = DiachronicEmbeddings([make_space(s.decade, dict(zip(s.words, s.matrix)))
                                for s in world.spaces])
    first = weakref.ref(dia.spaces[0])
    for tier in TIERS:
        time_course(dia, lexicon, ModelSpec("kde"), "riser", tier)
    model = fit_tier(ModelSpec("centroid"), lexicon, dia.spaces[0], "relevance")
    assert len(lexicon._models) == len(world.spaces)
    del dia
    gc.collect()
    assert first() is None
    assert len(lexicon._models) == 0
    assert model.means.shape == (2, world.dim)  # a model outlives its space


def test_lexicon_with_models_pickles_and_copies_without_them(world):
    lexicon = fresh(world.lexicon)
    fit_tier(ModelSpec("centroid"), lexicon, world.spaces[0], "relevance")
    for other in (pickle.loads(pickle.dumps(lexicon)), copy.copy(lexicon),
                  copy.deepcopy(lexicon)):
        assert other == lexicon
        assert len(other._models) == 0
    assert len(lexicon._models) == 1
