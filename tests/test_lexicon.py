import re

import numpy as np
import pytest

from moraldrift import (CoverageError, DataError, NormEntry, ParseError,
                        build_irrelevant_seeds, build_tiers, category_label,
                        load_mfd, load_norms, relevant_words, seed_vectors,
                        tier_classes)
from moraldrift.lexicon import SeedEntry

from conftest import make_space


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadMfd:
    def test_basic_row(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "word,category\nempathy,1\n")
        entries = load_mfd(path)
        assert entries == [SeedEntry(word="empathy", category=1)]
        assert category_label(1) == "care+"

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
        assert load_mfd(path)[0].word == "empathy"

    def test_multiword_entries_skipped_with_warning(self, tmp_path, caplog):
        path = write_csv(tmp_path / "mfd.csv",
                         "word,category\ngood faith,3\nhonesty,3\n")
        with caplog.at_level("WARNING", logger="moraldrift.lexicon"):
            entries = load_mfd(path)
        assert [e.word for e in entries] == ["honesty"]
        assert any("multi-word" in rec.message for rec in caplog.records)

    def test_entries_with_any_whitespace_skipped(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv",
                         'word,category\n"kind\theart",1\n"fair\u00a0play",3\nhonesty,3\n')
        assert [e.word for e in load_mfd(path)] == ["honesty"]

    @pytest.mark.parametrize("rows", ["", "good faith,3\n"])
    def test_table_without_single_word_seed_refused(self, tmp_path, rows):
        path = write_csv(tmp_path / "mfd.csv", "word,category\n" + rows)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no single-word seed"):
            load_mfd(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "mfd.csv", "term,cat\nx,1\n")
        with pytest.raises(ParseError, match="header"):
            load_mfd(path)


class TestLoadNorms:
    def test_entry_values(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence,concreteness\ncalm,5.0,3.1\n")
        entries = load_norms(path)
        assert list(entries) == [NormEntry(word="calm", valence=5.0, concreteness=3.1)]

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
        assert load_norms(path)[0].concreteness is None

    def test_empty_concreteness_cell(self, tmp_path):
        path = write_csv(tmp_path / "norms.csv",
                         "word,valence,concreteness\nx,5.0,\n")
        assert load_norms(path)[0].concreteness is None


class TestBuildIrrelevantSeeds:
    def test_ordering_by_neutrality(self):
        norms = [NormEntry("calm", 5.0), NormEntry("joy", 8.2),
                 NormEntry("murder", 1.5)]
        assert build_irrelevant_seeds(norms, set(), count=2) == {"calm", "joy"}

    def test_seed_words_excluded(self):
        norms = [NormEntry("duty", 5.0), NormEntry("calm", 5.2),
                 NormEntry("chair", 5.3)]
        selected = build_irrelevant_seeds(norms, {"duty"}, count=2)
        assert selected == {"calm", "chair"}

    def test_count_defaults_to_seed_count(self):
        norms = [NormEntry(f"n{i}", 5.0 + 0.01 * i) for i in range(10)]
        selected = build_irrelevant_seeds(norms, {"a", "b", "c"})
        assert len(selected) == 3

    def test_capacity_error(self):
        norms = [NormEntry("only", 5.0)]
        with pytest.raises(DataError, match="candidate"):
            build_irrelevant_seeds(norms, set(), count=2)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        norms = [NormEntry(f"w{i}", float(rng.uniform(1, 9))) for i in range(50)]
        first = build_irrelevant_seeds(norms, {"w0", "w1"}, count=10)
        second = build_irrelevant_seeds(norms, {"w0", "w1"}, count=10)
        assert first == second

    def test_lexicographic_tie_break(self):
        norms = [NormEntry("zeta", 5.1), NormEntry("alpha", 4.9),
                 NormEntry("mid", 5.0)]
        assert build_irrelevant_seeds(norms, set(), count=2) == {"mid", "alpha"}

    def test_selected_dominate_non_selected(self):
        # every selected word is at least as neutral as every non-selected one
        rng = np.random.default_rng(42)
        norms = [NormEntry(f"w{i:03d}", float(rng.uniform(1, 9))) for i in range(200)]
        mfd = {f"w{i:03d}" for i in range(0, 200, 7)}
        selected = build_irrelevant_seeds(norms, mfd, count=40)
        by_word = {e.word: abs(e.valence - 5.0) for e in norms}
        worst_selected = max(by_word[w] for w in selected)
        others = [by_word[e.word] for e in norms
                  if e.word not in selected and e.word not in mfd]
        assert all(worst_selected <= d + 1e-12 for d in others)

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_irrelevant_seeds([NormEntry("calm", 5.0)], set(), count=-1)

    def test_vocabulary_filter(self):
        norms = [NormEntry("invocab", 5.2), NormEntry("outvocab", 5.0)]
        selected = build_irrelevant_seeds(norms, set(), count=1,
                                          vocabulary={"invocab"})
        assert selected == {"invocab"}


class TestBuildTiers:
    def test_two_entry_example(self):
        lexicon = build_tiers([SeedEntry("a", 1), SeedEntry("b", 2)], {"x", "y"})
        assert lexicon.positive == {"a"}
        assert lexicon.negative == {"b"}
        assert lexicon.relevant == {"a", "b"}
        assert lexicon.irrelevant == {"x", "y"}

    def test_all_ten_categories_populated(self):
        entries = [SeedEntry(f"w{c}", c) for c in range(1, 11)]
        lexicon = build_tiers(entries, {f"n{i}" for i in range(10)})
        assert all(lexicon.categories[c] for c in range(1, 11))
        assert len(lexicon.categories) == 10

    def test_overlap_is_error(self):
        with pytest.raises(DataError, match="overlap"):
            build_tiers([SeedEntry("a", 1), SeedEntry("b", 2)], {"a", "x"})

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DataError, match="equally many"):
            build_tiers([SeedEntry("a", 1), SeedEntry("b", 2)], {"x"})

    def test_repeated_word_keeps_first_category(self, caplog):
        entries = [SeedEntry("dual", 1), SeedEntry("dual", 2), SeedEntry("b", 2)]
        with caplog.at_level("WARNING", logger="moraldrift.lexicon"):
            lexicon = build_tiers(entries, {"x", "y"})
        assert "dual" in lexicon.positive
        assert "dual" not in lexicon.negative
        assert lexicon.categories[1] == {"dual"}

    def test_pole_invariants(self):
        entries = [SeedEntry(f"w{i}", 1 + i % 10) for i in range(40)]
        lexicon = build_tiers(entries, {f"n{i}" for i in range(40)})
        assert lexicon.positive | lexicon.negative == lexicon.relevant
        assert not lexicon.positive & lexicon.negative
        union = set()
        for c in range(1, 11):
            union |= lexicon.categories[c]
        assert union == lexicon.relevant

    def test_odd_categories_positive_even_negative(self):
        entries = [SeedEntry(f"w{c}", c) for c in range(1, 11)]
        lexicon = build_tiers(entries, {f"n{i}" for i in range(10)})
        assert lexicon.positive == {f"w{c}" for c in (1, 3, 5, 7, 9)}
        assert lexicon.negative == {f"w{c}" for c in (2, 4, 6, 8, 10)}


class TestSeedVectors:
    def _lexicon(self):
        entries = [SeedEntry("good", 1), SeedEntry("bad", 2)]
        return build_tiers(entries, {"table", "chair"})

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

    def test_seed_words_sorted_once(self):
        lexicon = self._lexicon()
        first = lexicon._sorted_classes("relevance")
        assert first == {"irrelevant": ("chair", "table"), "relevant": ("bad", "good")}
        assert lexicon._sorted_classes("relevance") is first
        with pytest.raises(ValueError, match="unknown tier"):
            lexicon._sorted_classes("moral")


class TestLabels:
    def test_category_label_table(self):
        assert category_label(1) == "care+"
        assert category_label(2) == "harm-"
        assert category_label(9) == "sanctity+"
        assert category_label(10) == "degradation-"
        with pytest.raises(ValueError):
            category_label(11)

    def test_tier_class_orders(self):
        assert tier_classes("relevance") == ("irrelevant", "relevant")
        assert tier_classes("polarity") == ("positive", "negative")
        assert len(tier_classes("category")) == 10
        with pytest.raises(ValueError):
            tier_classes("other")

    def test_relevant_words_dedup_order(self):
        entries = [SeedEntry("b", 1), SeedEntry("a", 2), SeedEntry("b", 3)]
        assert relevant_words(entries) == ["b", "a"]
