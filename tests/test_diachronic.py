import dataclasses
import json

import numpy as np
import pytest

from moraldrift import (CoverageError, DataError, DiachronicEmbeddings,
                        EmbeddingSpace, ModelSpec, ParseError, PredictionMatrix,
                        load_wordlist, matrix_from_json, matrix_to_json_dict,
                        multiple_regression, prediction_matrix,
                        psycholinguistic_regression, retrieve_changing,
                        time_course, tier_classes)
from moraldrift.diachronic import _switching_index
from moraldrift.stats import slope_rows

import reference
from conftest import CHANGER_DECADES, changer_courses, norm_table

SPEC = ModelSpec("centroid")


class TestTimeCourse:
    def test_word_at_positive_mean_scores_above_half(self, world):
        scores = time_course(world.diachronic, world.lexicon, SPEC,
                             "posmean", "polarity")
        assert scores.shape == (6,)
        assert np.all(scores > 0.5)
        # oracle check in the first decade: brute-force posterior of the
        # same seed vectors must agree
        space = world.spaces[0]
        from moraldrift import seed_vectors
        vectors = seed_vectors(world.lexicon, space, "polarity")
        want = reference.centroid_posterior(space.vector("posmean"), vectors)
        assert scores[0] == pytest.approx(want["positive"], rel=1e-9)

    def test_missing_decades_masked(self, world):
        for tier in ("relevance", "category"):
            scores = time_course(world.diachronic, world.lexicon, SPEC, "gapword", tier)
            assert np.all(np.isnan(scores[:3]))
            assert np.all(np.isfinite(scores[3:]))

    def test_category_tier_distributions(self, world):
        scores = time_course(world.diachronic, world.lexicon, SPEC,
                             "alwayspos", "category")
        assert scores.shape == (6, 10)
        assert tier_classes("category")[0] == "care+"
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.argmax(scores, axis=1) == 0)  # care+ everywhere

    def test_absent_everywhere_is_coverage_error(self, world):
        with pytest.raises(CoverageError, match="nowhere"):
            time_course(world.diachronic, world.lexicon, SPEC,
                        "nowhere", "polarity")


class TestPredictionMatrix:
    def test_shape_and_order(self, world):
        words = ["flat00", "flat01", "riser"]
        matrix = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                   words, "relevance")
        assert matrix.values.shape == (3, 6)
        assert matrix.words == tuple(words)
        assert matrix.decades == world.decades

    @pytest.mark.parametrize("kind", ["relevance", "polarity"])
    def test_matches_single_word_time_courses(self, world, kind):
        words = ["flat00", "riser", "gapword"]
        matrix = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                   words, kind)
        for i, word in enumerate(words):
            scores = time_course(world.diachronic, world.lexicon, SPEC, word, kind)
            np.testing.assert_array_equal(np.isnan(matrix.values[i]), np.isnan(scores))
            present = ~np.isnan(scores)
            np.testing.assert_allclose(matrix.values[i][present],
                                       scores[present], rtol=1e-12)

    def test_empty_wordlist_rejected(self, world):
        with pytest.raises(DataError, match="empty"):
            prediction_matrix(world.diachronic, world.lexicon, SPEC, [], "relevance")

    def test_duplicate_words_rejected(self, world):
        with pytest.raises(DataError, match="duplicates"):
            prediction_matrix(world.diachronic, world.lexicon, SPEC,
                              ["riser", "riser"], "relevance")

    def test_bad_kind_rejected(self, world):
        with pytest.raises(ValueError, match="kind"):
            prediction_matrix(world.diachronic, world.lexicon, SPEC,
                              ["riser"], "category")

    def test_json_round_trip(self, tmp_path, world):
        matrix = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                   ["riser", "gapword"], "relevance")
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix_to_json_dict(matrix)))
        loaded = matrix_from_json(path)
        assert loaded.kind == matrix.kind
        assert loaded.words == matrix.words
        assert loaded.decades == matrix.decades
        np.testing.assert_array_equal(np.isnan(loaded.values),
                                      np.isnan(matrix.values))
        both = np.isfinite(matrix.values)
        np.testing.assert_array_equal(loaded.values[both], matrix.values[both])

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "relevance"}')
        with pytest.raises(ParseError):
            matrix_from_json(path)


class TestSlope:
    """Time-course rows of ``slope_rows``; NaN is a masked decade."""

    def test_exact_linear_course(self):
        b, p = slope_rows(np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]))
        assert b[0] == pytest.approx(0.1, abs=1e-12)

    def test_constant_course(self):
        b, p = slope_rows(np.full((1, 6), 0.3))
        assert (b.tolist(), p.tolist()) == ([0.0], [1.0])

    def test_lowered_minimum_still_needs_three_points(self):
        with pytest.raises(DataError,
                           match="^row 0 has 2 finite entries; a slope test needs at least 3$"):
            slope_rows(np.array([[0.1, np.nan, 0.3, np.nan]]))

    def test_masked_decades_excluded(self):
        scores = np.array([0.1, np.nan, 0.3, 0.4, 0.5, 0.6])
        b, _ = slope_rows(scores[None, :])
        # abscissa keeps the original decade indices 1..6 minus the gap
        t = np.array([1.0, 3.0, 4.0, 5.0, 6.0])
        y = scores[np.isfinite(scores)]
        expected = np.polyfit(t, y, 1)[0]
        assert b[0] == pytest.approx(expected, abs=1e-12)

    def test_seeded_noisy_recovery(self):
        rng = np.random.default_rng(0)
        scores = 0.4 + 0.005 * np.arange(1, 21) + 0.01 * rng.standard_normal(20)
        b, p = slope_rows(scores[None, :])
        assert b[0] == pytest.approx(0.005, abs=0.003)
        assert p[0] < 0.05


class TestSlopesPerDecade:
    """Slopes are fitted against the decades, one step per ten years, not
    against the column positions: here 1930 and 1960 have no column."""

    DECADES = (1900, 1910, 1920, 1940, 1950, 1970)

    def test_retrieval_slopes_match_linregress(self, world):
        from scipy.stats import linregress
        diachronic = DiachronicEmbeddings([EmbeddingSpace(d, s.words, s.matrix)
                                           for d, s in zip(self.DECADES, world.diachronic)])
        words = tuple(world.flat_words[:12])
        values = np.random.default_rng(5).uniform(0.5, 1.0, (len(words), len(self.DECADES)))
        values[0, 2] = values[3, 4] = np.nan
        matrix = PredictionMatrix("relevance", words, self.DECADES, values)
        records = retrieve_changing(matrix, world.lexicon, diachronic, SPEC,
                                    "toward-relevance", top_n=len(words))
        assert len(records) == len(words)
        t = np.array(self.DECADES) / 10
        for record in records:
            row = values[words.index(record.word)]
            want = linregress(t[np.isfinite(row)], row[np.isfinite(row)])
            assert record.slope == pytest.approx(want.slope, rel=1e-10)
            assert record.p_raw == pytest.approx(want.pvalue, rel=1e-9)

    def test_change_regression_slopes_match_linregress(self):
        from scipy.stats import linregress
        words, freqs, concs, values = changer_courses(decade_noise=0.02)
        keep = [j for j, d in enumerate(CHANGER_DECADES) if d not in (1850, 1900, 1910)]
        decades = tuple(CHANGER_DECADES[j] for j in keep)
        matrix = PredictionMatrix("relevance", tuple(words), decades, values[:, keep])
        frequencies = dict(zip(words, freqs))
        fit, kept = psycholinguistic_regression(matrix, norm_table(words, 5.0, concs),
                                                frequencies)
        slopes = [linregress(np.array(decades) / 10, matrix.values[words.index(w)]).slope
                  for w in kept]
        want = multiple_regression(slopes, {
            "frequency": [np.log(frequencies[w]) for w in kept],
            "length": [len(w) for w in kept],
            "concreteness": [concs[words.index(w)] for w in kept]})
        for name, coefficient in fit.coefficients.items():
            assert coefficient == pytest.approx(want.coefficients[name], rel=1e-8)


def switching_decades(rows, tier="polarity"):
    """The switching decade of each row of one ``_switching_index`` call,
    decades from 1800 (None for a row with no score), checked against the
    reference."""
    rows = np.asarray(rows, dtype=float)
    got = [None if i < 0 else 1800 + 10 * i for i in _switching_index(rows, tier).tolist()]
    decades = tuple(1800 + 10 * i for i in range(rows.shape[1]))
    assert got == [reference.switching_period(row, decades, tier) for row in rows]
    return got


class TestSwitchingPeriod:
    def test_neg_neg_pos_pos(self):
        assert switching_decades([[0.2, 0.3, 0.8, 0.9]]) == [1820]

    def test_all_positive_course_switches_at_start(self):
        assert switching_decades([[0.8, 0.9, 0.7, 0.95]]) == [1800]

    def test_alternating_course_switches_at_final_decade(self):
        assert switching_decades([[0.8, 0.2, 0.9, 0.1, 0.7]]) == [1840]

    def test_fully_masked_course(self):
        assert switching_decades([[np.nan, np.nan], [np.nan, 0.7]]) == [None, 1800]

    def test_output_class_agrees_with_final_class(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.0, 1.0, size=(50, 8))
        rows[rng.random(rows.shape) < 0.2] = np.nan
        for row, decade in zip(rows, switching_decades(rows)):
            scored = row[(decade - 1800) // 10:]
            final = scored[np.isfinite(scored)][-1] >= 0.5
            assert all((s >= 0.5) == final for s in scored[np.isfinite(scored)])

    def test_relevance_tie_goes_to_irrelevant(self):
        # 0.5 is classified irrelevant (first class), so the switch to
        # 'relevant' happens only at the last decade; polarity's first
        # class is positive, so there 0.5 already counts as positive
        assert switching_decades([[0.4, 0.5, 0.8]], "relevance") == [1820]
        assert switching_decades([[0.4, 0.5, 0.8]], "polarity") == [1810]


@pytest.fixture(scope="module")
def relevance_matrix(world):
    words = ["riser"] + list(world.flat_words) + ["gapword"]
    return prediction_matrix(world.diachronic, world.lexicon, SPEC,
                             words, "relevance")


class TestRetrieveChanging:
    @pytest.mark.parametrize("field", ["words", "decades"])
    def test_mismatched_relevance_matrix_refused(self, world, relevance_matrix, field):
        words, decades = relevance_matrix.words, relevance_matrix.decades
        if field == "words":
            relevance = dataclasses.replace(relevance_matrix, words=words[::-1])
            message = "relevance matrix words do not match the score matrix"
        else:
            relevance = dataclasses.replace(relevance_matrix,
                                            decades=tuple(d + 10 for d in decades))
            message = (f"relevance matrix decades {list(relevance.decades)} do not match "
                       f"the embeddings' {list(decades)}")
        polarity = prediction_matrix(world.diachronic, world.lexicon, SPEC, list(words),
                                     "polarity")
        with pytest.raises(DataError) as info:
            retrieve_changing(polarity, world.lexicon, world.diachronic, SPEC,
                              "toward-negative", relevance_matrix=relevance)
        assert str(info.value) == message

    @pytest.mark.parametrize("direction", ["toward-relevance", "toward-negative"])
    def test_infinite_score_refused(self, world, relevance_matrix, direction):
        values = relevance_matrix.values.copy()
        values[3, 2] = np.inf
        relevance = dataclasses.replace(relevance_matrix, values=values)
        matrix, kwargs = relevance, {}
        if direction != "toward-relevance":
            matrix = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                       list(relevance.words), "polarity")
            kwargs["relevance_matrix"] = relevance
        with pytest.raises(DataError, match=f"^word {relevance.words[3]!r} has an infinite "
                                            f"score; only NaN marks a missing one$"):
            retrieve_changing(matrix, world.lexicon, world.diachronic, SPEC, direction,
                              **kwargs)

    def test_planted_riser_ranks_first(self, world, relevance_matrix):
        records = retrieve_changing(relevance_matrix, world.lexicon,
                                    world.diachronic, SPEC,
                                    "toward-relevance", top_n=5)
        assert len(records) == 5
        assert records[0].word == "riser"
        assert records[0].slope > records[1].slope

    def test_records_satisfy_filter_and_correction(self, world, relevance_matrix):
        records = retrieve_changing(relevance_matrix, world.lexicon,
                                    world.diachronic, SPEC,
                                    "toward-relevance", top_n=10)
        # every surviving record is morally relevant on average, and the
        # correction multiplier is the filtered-family size
        m = 100  # riser + 99 flats pass the filter; gapword lacks decades
        for r in records:
            assert r.mean_relevance >= 0.5
            assert r.p_bonferroni == pytest.approx(min(1.0, m * r.p_raw))

    def test_riser_annotations(self, world, relevance_matrix):
        records = retrieve_changing(relevance_matrix, world.lexicon,
                                    world.diachronic, SPEC,
                                    "toward-relevance", top_n=1)
        riser = records[0]
        # drifts into the care+ region; first decade sits below 0.5
        assert riser.early_category == "care+"
        assert riser.modern_category == "care+"
        assert riser.switching_decade == 1910

    def test_polarity_directions_disjoint(self, world):
        words = ["posriser", "negfaller"] + list(world.flat_words[:20])
        polarity = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                     words, "polarity")
        relevance = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                      words, "relevance")
        up = retrieve_changing(polarity, world.lexicon, world.diachronic, SPEC,
                               "toward-positive", top_n=3,
                               relevance_matrix=relevance)
        down = retrieve_changing(polarity, world.lexicon, world.diachronic, SPEC,
                                 "toward-negative", top_n=3,
                                 relevance_matrix=relevance)
        assert up[0].word == "posriser"
        assert down[0].word == "negfaller"
        assert not {r.word for r in up} & {r.word for r in down}

    def test_polarity_early_category(self, world):
        words = ["posriser"] + list(world.flat_words[:10])
        polarity = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                     words, "polarity")
        records = retrieve_changing(polarity, world.lexicon, world.diachronic,
                                    SPEC, "toward-positive", top_n=1)
        assert records[0].word == "posriser"
        assert records[0].early_category == "harm-"

    def test_direction_kind_mismatch(self, world, relevance_matrix):
        with pytest.raises(DataError, match="polarity"):
            retrieve_changing(relevance_matrix, world.lexicon, world.diachronic,
                              SPEC, "toward-positive")

    def test_toward_relevance_refuses_a_polarity_matrix(self, world, relevance_matrix):
        polarity = dataclasses.replace(relevance_matrix, kind="polarity")
        with pytest.raises(DataError, match="^direction toward-relevance needs a relevance "
                                            "matrix, got kind 'polarity'$"):
            retrieve_changing(polarity, world.lexicon, world.diachronic, SPEC,
                              "toward-relevance")

    def test_unknown_bonferroni_family(self, world, relevance_matrix):
        with pytest.raises(ValueError, match="^unknown bonferroni family 'every-word'$"):
            retrieve_changing(relevance_matrix, world.lexicon, world.diachronic, SPEC,
                              "toward-relevance", bonferroni_family="every-word")

    def test_relevance_filter_of_another_kind_refused(self, world):
        polarity = prediction_matrix(world.diachronic, world.lexicon, SPEC,
                                     ["negfaller"] + list(world.flat_words[:10]), "polarity")
        with pytest.raises(DataError, match="^the relevance filter needs a relevance matrix, "
                                            "got kind 'polarity'$"):
            retrieve_changing(polarity, world.lexicon, world.diachronic, SPEC,
                              "toward-negative", relevance_matrix=polarity)

    def test_toward_relevance_refuses_a_separate_filter(self, world, relevance_matrix):
        with pytest.raises(DataError, match="^direction toward-relevance takes no "
                                            "separate relevance matrix$"):
            retrieve_changing(relevance_matrix, world.lexicon, world.diachronic, SPEC,
                              "toward-relevance", relevance_matrix=relevance_matrix)

    def test_unknown_direction(self, world, relevance_matrix):
        with pytest.raises(ValueError, match="direction"):
            retrieve_changing(relevance_matrix, world.lexicon, world.diachronic,
                              SPEC, "sideways")

    def test_empty_after_filter(self, world, caplog):
        values = np.full((3, 6), 0.1)
        matrix = PredictionMatrix(kind="relevance",
                                  words=("neutral00", "neutral01", "neutral02"),
                                  decades=world.decades, values=values)
        with caplog.at_level("WARNING", logger="moraldrift.diachronic"):
            records = retrieve_changing(matrix, world.lexicon, world.diachronic,
                                        SPEC, "toward-relevance")
        assert records == []
        assert any("filter" in rec.message for rec in caplog.records)

    def test_all_words_bonferroni_family(self, world, relevance_matrix):
        filtered = retrieve_changing(relevance_matrix, world.lexicon,
                                     world.diachronic, SPEC,
                                     "toward-relevance", top_n=1)
        allwords = retrieve_changing(relevance_matrix, world.lexicon,
                                     world.diachronic, SPEC,
                                     "toward-relevance", top_n=1,
                                     bonferroni_family="all-words")
        # family sizes: 100 filtered vs 101 listed words
        assert allwords[0].p_bonferroni == \
            pytest.approx(min(1.0, 101 * allwords[0].p_raw))
        assert filtered[0].p_bonferroni == \
            pytest.approx(min(1.0, 100 * filtered[0].p_raw))

    def test_bonferroni_arithmetic(self):
        assert min(1.0, 10 * 0.001) == pytest.approx(0.01)
        assert min(1.0, 3000 * 0.001) == 1.0


class TestWordlist:
    def test_parse(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("word,frequency\nlanguage,123456\nTruth,99\n")
        assert load_wordlist(path) == [("language", 123456.0), ("truth", 99.0)]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("word,frequency\na,1\na,2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_wordlist(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("token,count\na,1\n")
        with pytest.raises(ParseError, match="header"):
            load_wordlist(path)


class TestRetrieveBatchedCategories:
    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_below_one_rejected(self, world, relevance_matrix, top_n):
        with pytest.raises(ValueError, match="top_n"):
            retrieve_changing(relevance_matrix, world.lexicon, world.diachronic,
                              SPEC, "toward-relevance", top_n=top_n)

    def test_categories_match_single_word_time_courses(self, world, relevance_matrix):
        records = retrieve_changing(relevance_matrix, world.lexicon,
                                    world.diachronic, SPEC,
                                    "toward-relevance", top_n=10)
        lo, hi = 1900, 1999
        labels = tier_classes("category")
        for r in records:
            scores = time_course(world.diachronic, world.lexicon, SPEC, r.word, "category")
            present = ~np.isnan(scores).all(axis=1)
            modern = present & np.array([lo <= d <= hi for d in world.diachronic.decades])
            expected = (labels[int(np.argmax(scores[modern].mean(axis=0)))]
                        if modern.any() else None)
            assert r.modern_category == expected, r.word
            rel = relevance_matrix.values[relevance_matrix.words.index(r.word)]
            early = [i for i in np.flatnonzero(present) if rel[i] > 0.5]
            expected = labels[int(np.argmax(scores[early[0]]))] if early else None
            assert r.early_category == expected, r.word
