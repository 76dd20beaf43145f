import re

import numpy as np
import pytest

from moraldrift import (CoverageError, DataError, ParseError,
                        build_irrelevant_seeds, build_tiers, load_mfd,
                        load_norms, relevant_words, seed_vectors, tier_classes)

from conftest import make_space, norm_table, padded_seeds


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadMfd:
    def test_basic_row(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "word,category\nempathy,1\n")
        assert load_mfd(path) == {"empathy": 1}
        assert tier_classes("category")[1 - 1] == "care+"

    def test_out_of_range_category(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "word,category\nbetray,11\n")
        with pytest.raises(ParseError, match=":2"):
            load_mfd(path)

    def test_row_count(self, tmp_path):
        rows = "\n".join(f"w{i},{1 + i % 10}" for i in range(25))
        path = write_csv(tmp_path / "mfd.csv", "word,category\n" + rows + "\n")
        assert len(load_mfd(path)) == 25

    def test_lowercasing(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "word,category\nEmpathy,1\n")
        assert list(load_mfd(path)) == ["empathy"]

    def test_multiword_entries_skipped_with_warning(self, tmp_path, caplog):
        path = write_csv(tmp_path / "mfd.csv",
                         "word,category\ngood faith,3\nhonesty,3\n")
        with caplog.at_level("WARNING", logger="moraldrift.lexicon"):
            mfd = load_mfd(path)
        assert mfd == {"honesty": 3}
        assert any("multi-word" in rec.message for rec in caplog.records)

    def test_entries_with_any_whitespace_skipped(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv",
                         'word,category\n"kind\theart",1\n"fair\u00a0play",3\nhonesty,3\n')
        assert list(load_mfd(path)) == ["honesty"]

    @pytest.mark.parametrize("rows", ["", "good faith,3\n"])
    def test_table_without_single_word_seed_refused(self, tmp_path, rows):
        path = write_csv(tmp_path / "mfd.csv", "word,category\n" + rows)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no single-word seed"):
            load_mfd(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "term,cat\nx,1\n")
        with pytest.raises(ParseError, match="header"):
            load_mfd(path)

    def test_repeated_word_keeps_first_category(self, tmp_path, caplog):
        path = write_csv(tmp_path / "mfd.csv", "word,category\ndual,1\ndual,2\nb,2\nDual,3\n")
        with caplog.at_level("WARNING", logger="moraldrift.lexicon"):
            mfd = load_mfd(path)
        assert mfd == {"dual": 1, "b": 2}
        assert [(rec.name, rec.message) for rec in caplog.records] == [
            ("moraldrift.lexicon", "ignored 2 repeated seed words (first category kept)")]
        lexicon = build_tiers(mfd, {"x", "y"})
        assert "dual" in lexicon.positive
        assert "dual" not in lexicon.negative
        assert lexicon.categories[1] == {"dual"}


class TestLoadNorms:
    def test_entry_values(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence,concreteness\ncalm,5.0,3.1\n")
        norms = load_norms(path)
        assert (norms.words, norms.valence.tolist(), norms.concreteness.tolist()) == (
            ("calm",), [5.0], [3.1])

    def test_duplicate_word_named(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence\ncalm,5.0\ncalm,6.0\n")
        with pytest.raises(ParseError, match="calm"):
            load_norms(path)

    def test_three_rows(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence\na,1.0\nb,5.0\nc,9.0\n")
        assert len(load_norms(path)) == 3

    def test_valence_out_of_scale(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv", "word,valence\nx,9.5\n")
        with pytest.raises(ParseError, match="valence"):
            load_norms(path)

    def test_concreteness_out_of_scale(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence,concreteness\nx,5.0,6.0\n")
        with pytest.raises(ParseError, match="concreteness"):
            load_norms(path)

    def test_concreteness_column_optional(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv", "word,valence\nx,5.0\n")
        assert np.isnan(load_norms(path).concreteness[0])

    def test_empty_concreteness_cell(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence,concreteness\nx,5.0,\n")
        assert np.isnan(load_norms(path).concreteness[0])


class TestBuildIrrelevantSeeds:
    def test_ordering_by_neutrality(self):
        norms = norm_table(["calm", "joy", "murder"], [5.0, 8.2, 1.5])
        assert build_irrelevant_seeds(norms, padded_seeds(set(), 2)) == {"calm", "joy"}

    def test_seed_words_excluded(self):
        norms = norm_table(["duty", "calm", "chair"], [5.0, 5.2, 5.3])
        selected = build_irrelevant_seeds(norms, padded_seeds({"duty"}, 2))
        assert selected == {"calm", "chair"}

    def test_count_defaults_to_seed_count(self):
        norms = norm_table([f"n{i}" for i in range(10)], [5.0 + 0.01 * i for i in range(10)])
        selected = build_irrelevant_seeds(norms, {"a", "b", "c"})
        assert len(selected) == 3

    def test_capacity_error(self):
        norms = norm_table(["only"], 5.0)
        with pytest.raises(DataError, match="candidate"):
            build_irrelevant_seeds(norms, padded_seeds(set(), 2))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        norms = norm_table([f"w{i}" for i in range(50)], rng.uniform(1, 9, size=50))
        first = build_irrelevant_seeds(norms, padded_seeds({"w0", "w1"}, 10))
        second = build_irrelevant_seeds(norms, padded_seeds({"w0", "w1"}, 10))
        assert first == second

    def test_lexicographic_tie_break(self):
        norms = norm_table(["zeta", "alpha", "mid"], [5.1, 4.9, 5.0])
        assert build_irrelevant_seeds(norms, padded_seeds(set(), 2)) == {"mid", "alpha"}

    def test_selected_dominate_non_selected(self):
        # every selected word is at least as neutral as every non-selected one
        rng = np.random.default_rng(42)
        norms = norm_table([f"w{i:03d}" for i in range(200)], rng.uniform(1, 9, size=200))
        mfd = {f"w{i:03d}" for i in range(0, 200, 7)}
        selected = build_irrelevant_seeds(norms, padded_seeds(mfd, 40))
        by_word = dict(zip(norms.words, np.abs(norms.valence - 5.0)))
        worst_selected = max(by_word[w] for w in selected)
        others = [by_word[w] for w in norms.words if w not in selected and w not in mfd]
        assert all(worst_selected <= d + 1e-12 for d in others)

    def test_vocabulary_filter(self):
        norms = norm_table(["invocab", "outvocab"], [5.2, 5.0])
        selected = build_irrelevant_seeds(norms, padded_seeds(set(), 1),
                                          vocabulary={"invocab"})
        assert selected == {"invocab"}


class TestBuildTiers:
    def test_two_entry_example(self):
        lexicon = build_tiers({"a": 1, "b": 2}, {"x", "y"})
        assert lexicon.positive == {"a"}
        assert lexicon.negative == {"b"}
        assert lexicon.relevant == {"a", "b"}
        assert lexicon.irrelevant == {"x", "y"}

    def test_all_ten_categories_populated(self):
        mfd = {f"w{c}": c for c in range(1, 11)}
        lexicon = build_tiers(mfd, {f"n{i}" for i in range(10)})
        assert all(lexicon.categories[c] for c in range(1, 11))
        assert len(lexicon.categories) == 10

    def test_overlap_is_error(self):
        with pytest.raises(DataError, match="overlap"):
            build_tiers({"a": 1, "b": 2}, {"a", "x"})

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DataError, match="equally many"):
            build_tiers({"a": 1, "b": 2}, {"x"})

    def test_pole_invariants(self):
        mfd = {f"w{i}": 1 + i % 10 for i in range(40)}
        lexicon = build_tiers(mfd, {f"n{i}" for i in range(40)})
        assert lexicon.positive | lexicon.negative == lexicon.relevant
        assert not lexicon.positive & lexicon.negative
        union = set()
        for c in range(1, 11):
            union |= lexicon.categories[c]
        assert union == lexicon.relevant

    def test_odd_categories_positive_even_negative(self):
        mfd = {f"w{c}": c for c in range(1, 11)}
        lexicon = build_tiers(mfd, {f"n{i}" for i in range(10)})
        assert lexicon.positive == {f"w{c}" for c in (1, 3, 5, 7, 9)}
        assert lexicon.negative == {f"w{c}" for c in (2, 4, 6, 8, 10)}


class TestSeedVectors:
    def _lexicon(self):
        return build_tiers({"good": 1, "bad": 2}, {"table", "chair"})

    def _space(self, words):
        rng = np.random.default_rng(1)
        return make_space(1900, {w: rng.standard_normal(3) for w in words})

    def test_polarity_classes_and_sizes(self):
        lexicon = self._lexicon()
        space = self._space(["good", "bad", "table", "chair"])
        vectors = seed_vectors(lexicon, space, "polarity")
        assert list(vectors) == ["positive", "negative"]
        assert vectors["positive"].shape == (1, 3)
        assert vectors["negative"].shape == (1, 3)

    def test_relevance_two_classes(self):
        lexicon = self._lexicon()
        space = self._space(["good", "bad", "table", "chair"])
        vectors = seed_vectors(lexicon, space, "relevance")
        assert list(vectors) == ["irrelevant", "relevant"]
        assert vectors["relevant"].shape == (2, 3)
        assert vectors["irrelevant"].shape == (2, 3)

    def test_empty_class_names_class_and_decade(self):
        lexicon = self._lexicon()
        space = self._space(["good", "table", "chair"])  # no 'bad'
        with pytest.raises(CoverageError, match="negative.*1900"):
            seed_vectors(lexicon, space, "polarity")

    def test_category_tier_coverage_error(self, world):
        # drop one category's seeds from a copy of a world decade
        space = world.spaces[0]
        keep = [w for w in space.words if not w.startswith("degradation")]
        reduced = make_space(space.decade,
                             {w: space.vector(w) for w in keep})
        with pytest.raises(CoverageError, match="degradation-"):
            seed_vectors(world.lexicon, reduced, "category")

    def test_world_category_sizes(self, world):
        vectors = seed_vectors(world.lexicon, world.spaces[0], "category")
        assert list(vectors) == list(tier_classes("category"))
        assert all(m.shape == (3, world.dim) for m in vectors.values())

    def test_rows_follow_sorted_seed_words(self, world):
        space = world.spaces[0]
        vectors = seed_vectors(world.lexicon, space, "category")
        for label, words in world.lexicon.classes_for("category").items():
            expected = np.array([space.vector(w) for w in sorted(words)])
            np.testing.assert_array_equal(vectors[label], expected)

    def test_seed_rows_in_sorted_word_order(self):
        lexicon = self._lexicon()
        space = self._space(["table", "good", "chair", "bad"])
        vectors = seed_vectors(lexicon, space, "relevance")
        np.testing.assert_array_equal(vectors["irrelevant"], space.rows(["chair", "table"])[0])
        np.testing.assert_array_equal(vectors["relevant"], space.rows(["bad", "good"])[0])
        with pytest.raises(ValueError, match="unknown tier"):
            seed_vectors(lexicon, space, "moral")


class TestLabels:
    def test_tier_class_orders(self):
        assert tier_classes("relevance") == ("irrelevant", "relevant")
        assert tier_classes("polarity") == ("positive", "negative")
        categories = tier_classes("category")  # category number c is categories[c - 1]
        assert len(categories) == 10
        assert [categories[c - 1] for c in (1, 2, 9, 10)] == [
            "care+", "harm-", "sanctity+", "degradation-"]
        with pytest.raises(ValueError):
            tier_classes("other")

    def test_relevant_words_dedup_order(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "word,category\nb,1\na,2\nb,3\n")
        assert relevant_words(load_mfd(path)) == ["b", "a"]
