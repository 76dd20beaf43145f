import numpy as np
import pytest

from moraldrift import (DataError, DiachronicEmbeddings, ModelSpec,
                        build_tiers, chance_level, fit_tier, load_survey,
                        loo_accuracy, loo_accuracy_historical, posterior,
                        posterior_batch, survey_correlation,
                        valence_correlation)

import reference
from conftest import make_space, norm_table


def cluster_lexicon(n_per_class):
    """Polarity lexicon of n positive (category 1) and n negative
    (category 2) seeds, with dummy neutral words to balance the tiers."""
    mfd = {f"p{i}": 1 for i in range(n_per_class)}
    mfd.update({f"n{i}": 2 for i in range(n_per_class)})
    neutral = {f"dummy{i}" for i in range(2 * n_per_class)}
    return build_tiers(mfd, neutral)


def cluster_space(decade, n_per_class, dim=4, separation=10.0, sigma=1.0,
                  seed=0, overrides=None):
    rng = np.random.default_rng(seed)
    offset = np.zeros(dim)
    offset[0] = separation
    positions = {}
    for i in range(n_per_class):
        positions[f"p{i}"] = sigma * rng.standard_normal(dim) + offset
        positions[f"n{i}"] = sigma * rng.standard_normal(dim) - offset
    if overrides:
        positions.update(overrides)
    return make_space(decade, positions)


class TestLooAccuracy:
    def test_separable_clusters_centroid(self):
        lexicon = cluster_lexicon(5)
        space = cluster_space(1900, 5)
        report = loo_accuracy(ModelSpec("centroid"), lexicon, space, "polarity")
        assert report.accuracy == 1.0
        assert report.n == 10
        assert report.decade == 1900
        assert report.confusion["positive"]["positive"] == 5

    @pytest.mark.parametrize("kind,params,oracle", [
        ("centroid", {}, reference.centroid_posterior),
        ("naive_bayes", {}, reference.naive_bayes_posterior),
        ("knn", {"k": 3}, lambda q, cv: reference.knn_posterior(q, cv, 3)),
        ("kde", {"h": 0.8}, lambda q, cv: reference.kde_posterior(q, cv, 0.8)),
    ])
    def test_matches_brute_force_loo(self, kind, params, oracle):
        # independent oracle: reference classifier + reference LOO loop
        lexicon = cluster_lexicon(6)
        space = cluster_space(1910, 6, separation=1.0, sigma=1.5, seed=3)
        report = loo_accuracy(ModelSpec(kind, **params), lexicon, space, "polarity")
        vectors = {"positive": np.vstack([space.vector(f"p{i}") for i in range(6)]),
                   "negative": np.vstack([space.vector(f"n{i}") for i in range(6)])}
        expected = reference.loo_accuracy(oracle, vectors)
        assert report.accuracy == pytest.approx(expected)

    def test_chance_baselines(self):
        assert chance_level("relevance") == 0.5
        assert chance_level("polarity") == 0.5
        assert chance_level("category") == pytest.approx(0.1)

    def test_all_models_beat_chance_on_separable_seeds(self):
        lexicon = cluster_lexicon(8)
        space = cluster_space(1920, 8, seed=5)
        for spec in [ModelSpec("centroid"), ModelSpec("naive_bayes"),
                     ModelSpec("knn", k=5), ModelSpec("kde", h=0.5)]:
            report = loo_accuracy(spec, lexicon, space, "polarity")
            assert report.accuracy > chance_level("polarity") + 0.3, spec.kind

    def test_degenerate_identical_seeds_follow_tie_rule(self):
        # every seed at one point: ties resolve to the first class, so
        # accuracy equals the first class's share of the seeds
        lexicon = cluster_lexicon(4)
        point = np.ones(3)
        positions = {w: point.copy() for w in
                     [f"p{i}" for i in range(4)] + [f"n{i}" for i in range(4)]}
        space = make_space(1900, positions)
        for kind in ("centroid", "naive_bayes", "kde"):
            spec = ModelSpec(kind, h=1.0)
            report = loo_accuracy(spec, lexicon, space, "polarity")
            assert report.accuracy == 0.5, kind
            assert report.confusion["positive"]["positive"] == 4
            assert report.confusion["negative"]["positive"] == 4

    def test_singleton_class_is_error(self):
        lexicon = cluster_lexicon(1)
        space = cluster_space(1900, 1)
        with pytest.raises(DataError, match="positive|negative"):
            loo_accuracy(ModelSpec("centroid"), lexicon, space, "polarity")

    def test_row_order_invariance(self):
        # shuffling seed entry order leaves the accuracy unchanged
        pairs = [(f"p{i}", 1) for i in range(5)] + [(f"n{i}", 2) for i in range(5)]
        rng = np.random.default_rng(9)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        neutral = {f"dummy{i}" for i in range(10)}
        space = cluster_space(1900, 5, separation=1.2, sigma=1.0, seed=10)
        a = loo_accuracy(ModelSpec("knn", k=3), build_tiers(dict(pairs), neutral),
                         space, "polarity")
        b = loo_accuracy(ModelSpec("knn", k=3), build_tiers(dict(shuffled), neutral),
                         space, "polarity")
        assert a.accuracy == b.accuracy

    def test_seeds_without_embeddings_are_excluded(self):
        lexicon = cluster_lexicon(5)
        space = cluster_space(1900, 5)
        reduced = make_space(1900, {w: space.vector(w) for w in space.words
                                    if w != "p4"})
        report = loo_accuracy(ModelSpec("centroid"), lexicon, reduced, "polarity")
        assert report.n == 9

    def test_kde_bandwidth_resolved_once_and_reported(self):
        lexicon = cluster_lexicon(5)
        space = cluster_space(1900, 5, seed=8)
        report = loo_accuracy(ModelSpec("kde"), lexicon, space, "polarity")
        assert report.model.h is not None
        assert 0.1 <= report.model.h <= 1.0


class TestLooHistorical:
    def test_constant_accuracy_zero_stdev(self):
        lexicon = cluster_lexicon(5)
        spaces = [cluster_space(1900, 5, seed=1), cluster_space(1910, 5, seed=1)]
        result = loo_accuracy_historical(ModelSpec("centroid"), lexicon,
                                         DiachronicEmbeddings(spaces), "polarity")
        assert result.mean_accuracy == 1.0
        assert result.stdev_accuracy == 0.0
        assert len(result.reports) == 2

    def test_mean_and_population_stdev(self):
        # decade A is fully separable; decade B plants one positive seed
        # deep inside the negative cluster, costing exactly one error
        lexicon = cluster_lexicon(5)
        space_a = cluster_space(1900, 5, seed=2)
        traitor = np.zeros(4)
        traitor[0] = -10.0
        space_b = cluster_space(1910, 5, seed=2, overrides={"p4": traitor})
        result = loo_accuracy_historical(ModelSpec("centroid"), lexicon,
                                         DiachronicEmbeddings([space_a, space_b]),
                                         "polarity")
        accs = sorted(r.accuracy for r in result.reports)
        assert accs == [0.9, 1.0]
        assert result.mean_accuracy == pytest.approx(0.95)
        assert result.stdev_accuracy == pytest.approx(0.05)


class TestValenceCorrelation:
    def _polarity_model_and_space(self):
        lexicon = cluster_lexicon(5)
        extra = {f"q{i}": np.array([x, 0.5, -0.5, 1.0])
                 for i, x in enumerate(np.linspace(-8.0, 8.0, 9))}
        space = cluster_space(1900, 5, seed=4, overrides=extra)
        model = fit_tier(ModelSpec("centroid"), lexicon, space, "polarity")
        return model, space, list(extra)

    def test_norms_equal_to_predictions_give_unit_correlation(self):
        model, space, words = self._polarity_model_and_space()
        matrix, _ = space.rows(words)
        probs = posterior_batch(model, matrix)[:, 0]
        norms = norm_table(words, 1.0 + 8.0 * probs)
        report = valence_correlation(model, space, norms)
        assert report.r == pytest.approx(1.0, abs=1e-12)
        assert report.n == len(words)

    def test_inverted_norms_give_negative_unit_correlation(self):
        model, space, words = self._polarity_model_and_space()
        matrix, _ = space.rows(words)
        probs = posterior_batch(model, matrix)[:, 0]
        norms = norm_table(words, 1.0 + 8.0 * (1.0 - probs))
        report = valence_correlation(model, space, norms)
        assert report.r == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_overlapping_words(self):
        model, space, words = self._polarity_model_and_space()
        norms = norm_table(["q0", "nowhere"], 5.0)
        with pytest.raises(DataError, match=">= 3"):
            valence_correlation(model, space, norms)

    def test_model_of_another_dimension_refused(self):
        model, space, words = self._polarity_model_and_space()
        wider = make_space(1900, {w: np.append(space.vector(w), 0.0) for w in space.words})
        with pytest.raises(DataError, match="^query has dimension 5, model expects 4$"):
            valence_correlation(model, wider, norm_table(words, 5.0))

    def test_rated_words_without_embeddings_skipped(self):
        model, space, words = self._polarity_model_and_space()
        matrix, _ = space.rows(words)
        probs = posterior_batch(model, matrix)[:, 0]
        norms = norm_table([*words, "ghost"], [*(1.0 + 8.0 * probs), 2.0])
        report = valence_correlation(model, space, norms)
        assert report.n == len(words)


class TestSurveyCorrelation:
    def _models_and_space(self, world):
        space = world.spaces[-1]
        relevance = fit_tier(ModelSpec("centroid"), world.lexicon, space, "relevance")
        polarity = fit_tier(ModelSpec("centroid"), world.lexicon, space, "polarity")
        return relevance, polarity, space

    def test_survey_equal_to_predictions(self, world):
        relevance, polarity, space = self._models_and_space(world)
        topics = [["flat00"], ["flat01"], ["flat02"], ["neutral00"],
                  ["care0", "harm0"], ["riser"]]
        survey = []
        for tokens in topics:
            from moraldrift import average_vector
            q = average_vector(space, tokens)
            survey.append((tokens, posterior(relevance, q)["irrelevant"],
                           posterior(polarity, q)["positive"]))
        rel_report, pol_report = survey_correlation(relevance, polarity,
                                                    space, survey)
        assert rel_report.r == pytest.approx(1.0, abs=1e-12)
        assert pol_report.r == pytest.approx(1.0, abs=1e-12)
        assert rel_report.n == pol_report.n == 6

    def test_eight_topics_n_eight(self, world):
        relevance, polarity, space = self._models_and_space(world)
        rng = np.random.default_rng(11)
        survey = [([w], float(rng.uniform()), float(rng.uniform()))
                  for w in ["flat00", "flat01", "flat02", "flat03", "flat04",
                            "neutral00", "riser", "alwayspos"]]
        rel_report, pol_report = survey_correlation(relevance, polarity,
                                                    space, survey)
        assert rel_report.n == 8 and pol_report.n == 8

    def test_multiword_topic_uses_averaged_embedding(self, world):
        relevance, polarity, space = self._models_and_space(world)
        from moraldrift import average_vector
        q = average_vector(space, ["care0", "harm0"])
        expected = posterior(relevance, q)["irrelevant"]
        survey = [(["care0", "harm0"], expected, 0.5),
                  (["flat00"], 0.4, 0.3), (["flat01"], 0.6, 0.7),
                  (["flat02"], 0.5, 0.9)]
        rel_report, _ = survey_correlation(relevance, polarity, space, survey)
        # the multi-token pairing is exact, so it cannot reduce a perfect
        # correlation on its own; check directly through the model
        manual = posterior(relevance, q)["irrelevant"]
        assert manual == expected

    def test_unresolvable_topic_skipped_with_warning(self, world, caplog):
        relevance, polarity, space = self._models_and_space(world)
        survey = [(["zzz", "qqq"], 0.5, 0.5), (["flat00"], 0.1, 0.2),
                  (["flat01"], 0.3, 0.4), (["flat02"], 0.2, 0.9)]
        with caplog.at_level("WARNING", logger="moraldrift.evaluate"):
            rel_report, _ = survey_correlation(relevance, polarity, space, survey)
        assert rel_report.n == 3
        assert any("zzz" in rec.message for rec in caplog.records)

    def test_too_few_resolvable_topics(self, world):
        relevance, polarity, space = self._models_and_space(world)
        survey = [(["zzz"], 0.5, 0.5), (["flat00"], 0.1, 0.2),
                  (["flat01"], 0.3, 0.4)]
        with pytest.raises(DataError, match="resolvable"):
            survey_correlation(relevance, polarity, space, survey)


class TestLoadSurvey:
    def test_parse(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text("topic,frac_not_moral,frac_acceptable\n"
                        "abortion,0.1,0.25\n"
                        "premarital sex,0.3,0.4\n")
        rows = load_survey(path)
        assert rows == [(["abortion"], 0.1, 0.25),
                        (["premarital", "sex"], 0.3, 0.4)]

    def test_out_of_range_proportion(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text("topic,frac_not_moral,frac_acceptable\nx,1.5,0.2\n")
        from moraldrift import ParseError
        with pytest.raises(ParseError, match="proportion"):
            load_survey(path)

    def test_world_category_loo_is_strong(self, world):
        report = loo_accuracy(ModelSpec("centroid"), world.lexicon,
                              world.spaces[0], "category")
        assert report.n == 30
        assert report.accuracy > chance_level("category") + 0.3
