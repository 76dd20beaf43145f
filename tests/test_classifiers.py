import math
import sys

import numpy as np
import pytest

from moraldrift import (DataError, ModelSpec, classify, classify_batch, fit,
                        fit_tier, log_odds, posterior, posterior_batch,
                        select_bandwidth)
from moraldrift.classifiers import BANDWIDTH_GRID, _loo_predict

import reference
from conftest import make_space


def random_instance(rng, n_classes=3, max_seeds=10, dim=4, spread=3.0):
    centers = spread * rng.standard_normal((n_classes, dim))
    return {
        f"c{i}": centers[i] + rng.standard_normal((int(rng.integers(2, max_seeds + 1)), dim))
        for i in range(n_classes)
    }


class TestFit:
    def test_centroid_stores_mean(self):
        model = fit(ModelSpec("centroid"),
                    {"a": [[0.0, 0.0], [2.0, 0.0]], "b": [[5.0, 5.0]]})
        np.testing.assert_array_equal(model.means[0], [1.0, 0.0])

    def test_nb_constant_dimension_gets_floor(self):
        model = fit(ModelSpec("naive_bayes"),
                    {"a": [[1.0, 0.0], [1.0, 2.0]], "b": [[4.0, 1.0], [6.0, 3.0]]})
        assert model.variances[0][0] == pytest.approx(1e-8)
        assert model.variances[0][1] == pytest.approx(1.0)

    def test_knn_k_exceeding_seed_count(self):
        vectors = {"a": [[0.0, 0.0], [1.0, 0.0]], "b": [[5.0, 5.0], [6.0, 6.0]]}
        with pytest.raises(DataError, match="k=5"):
            fit(ModelSpec("knn", k=5), vectors)

    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="no seed"):
            fit(ModelSpec("centroid"), {"a": [[1.0]], "b": np.empty((0, 1))})

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="2 classes"):
            fit(ModelSpec("centroid"), {"a": [[1.0, 2.0]]})

    def test_dim_disagreement_rejected(self):
        with pytest.raises(DataError, match="dimensionality"):
            fit(ModelSpec("centroid"), {"a": [[1.0, 2.0]], "b": [[1.0]]})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("svm")
        with pytest.raises(ValueError):
            ModelSpec("knn", k=0)
        for value in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="^k must be an integer, got "):
                ModelSpec("knn", k=value)
        assert ModelSpec("knn", k=np.int64(3)).k == 3
        with pytest.raises(ValueError):
            ModelSpec("kde", h=-1.0)
        with pytest.raises(ValueError):
            ModelSpec("naive_bayes", variance_floor=0.0)
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^bandwidth h must be finite and positive"):
                ModelSpec("kde", h=value)
            with pytest.raises(ValueError, match="^variance_floor must be finite and positive"):
                ModelSpec("naive_bayes", variance_floor=value)

    def test_bandwidth_with_infinite_2h_rejected(self):
        # The kernels divide by 2h; an overflowing 2h made the masked LOO
        # diagonal -inf/inf = NaN. Warnings are errors under pytest.
        largest = sys.float_info.max / 2.0
        for value in (1e308, np.nextafter(largest, np.inf), sys.float_info.max):
            with pytest.raises(ValueError, match="^bandwidth h must be at most 8.98847e"
                                                 r"\+307, so that 2h is finite, got "):
                ModelSpec("kde", h=value)
        vectors = {"a": [[0.0, 0.0], [1.0, 0.0]], "b": [[5.0, 5.0], [6.0, 6.0]]}
        spec, predicted = _loo_predict(ModelSpec("kde", h=largest), vectors)
        assert spec.h == largest
        assert predicted.tolist() == [0, 0, 0, 0]  # uniform rows: ties go to class a
        p = posterior(fit(spec, vectors), [0.0, 0.0])
        assert p == {"a": 0.5, "b": 0.5}

    @pytest.mark.parametrize("spec", [ModelSpec("centroid"), ModelSpec("naive_bayes"),
                                      ModelSpec("knn", k=1), ModelSpec("kde", h=0.5)])
    def test_model_arrays_are_read_only(self, spec):
        vectors = {"a": np.array([[0.0, 0.0], [1.0, 0.0]]), "b": np.array([[5.0, 5.0]])}
        model = fit(spec, vectors)
        arrays = [a for a in (model.means, model.variances, model.seed_matrix,
                              model.seed_labels) if a is not None]
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # The caller's seed vectors are copied, not frozen.
        assert all(m.flags.writeable for m in vectors.values())


class TestCentroidPosterior:
    def test_two_classes_at_distance_zero_and_two(self):
        # p = (1, e^-2) normalized: hand evaluation of the softmax rule
        model = fit(ModelSpec("centroid"),
                    {"near": [[0.0, 0.0]], "far": [[2.0, 0.0]]})
        p = posterior(model, np.array([0.0, 0.0]))
        expected_near = 1.0 / (1.0 + math.exp(-2.0))
        assert p["near"] == pytest.approx(expected_near, abs=1e-12)
        assert p["far"] == pytest.approx(1.0 - expected_near, abs=1e-12)
        assert p["near"] == pytest.approx(0.8808, abs=1e-4)
        assert p["far"] == pytest.approx(0.1192, abs=1e-4)

    def test_symmetry_gives_half_half(self):
        model = fit(ModelSpec("centroid"),
                    {"left": [[-1.0, 0.0], [-2.0, 0.0]],
                     "right": [[1.0, 0.0], [2.0, 0.0]]})
        p = posterior(model, np.array([0.0, 0.0]))
        assert p["left"] == pytest.approx(0.5, abs=1e-15)
        assert p["right"] == pytest.approx(0.5, abs=1e-15)

    def test_translation_invariance_of_classify(self):
        rng = np.random.default_rng(0)
        vectors = random_instance(rng)
        model = fit(ModelSpec("centroid"), vectors)
        shift = np.array([100.0, -50.0, 3.0, 7.0])
        shifted = {c: np.asarray(v) + shift for c, v in vectors.items()}
        shifted_model = fit(ModelSpec("centroid"), shifted)
        for _ in range(50):
            q = rng.standard_normal(4)
            assert classify(model, q) == classify(shifted_model, q + shift)


class TestKnnPosterior:
    def test_three_two_split(self):
        # five nearest seeds split 3 A / 2 B
        vectors = {"a": [[1.0], [2.0], [3.0]], "b": [[4.0], [5.0], [50.0]]}
        model = fit(ModelSpec("knn", k=5), vectors)
        p = posterior(model, np.array([0.0]))
        assert p["a"] == pytest.approx(0.6)
        assert p["b"] == pytest.approx(0.4)

    def test_rank_ties_admit_all(self):
        # all three seeds exactly at distance 1: k=1 admits every one
        vectors = {"a": [[1.0, 0.0]], "b": [[0.0, 1.0], [-1.0, 0.0]]}
        model = fit(ModelSpec("knn", k=1), vectors)
        p = posterior(model, np.array([0.0, 0.0]))
        assert p["a"] == pytest.approx(1.0 / 3.0)
        assert p["b"] == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force_sort_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            vectors = random_instance(rng)
            total = sum(len(v) for v in vectors.values())
            k = int(rng.integers(1, total + 1))
            model = fit(ModelSpec("knn", k=k), vectors)
            q = rng.standard_normal(4)
            got = posterior(model, q)
            want = reference.knn_posterior(q, vectors, k)
            for label in vectors:
                assert got[label] == want[label]


class TestNaiveBayesPosterior:
    def test_log_space_matches_direct_product(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 6))
            vectors = random_instance(rng, dim=dim)
            model = fit(ModelSpec("naive_bayes"), vectors)
            q = rng.standard_normal(dim)
            got = posterior(model, q)
            want = reference.naive_bayes_posterior(q, vectors)
            for label in vectors:
                assert got[label] == pytest.approx(want[label], rel=1e-9, abs=1e-12)

    def test_singleton_class_usable(self):
        # floored variance makes the singleton a sharp spike at its point
        model = fit(ModelSpec("naive_bayes"),
                    {"a": [[0.0, 0.0]], "b": [[5.0, 5.0], [6.0, 6.0]]})
        p = posterior(model, np.array([0.0, 0.0]))
        assert p["a"] > 0.99


class TestKdePosterior:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dim = int(rng.integers(1, 5))
            vectors = random_instance(rng, dim=dim, max_seeds=8)
            h = float(rng.uniform(0.2, 2.0))
            model = fit(ModelSpec("kde", h=h), vectors)
            q = rng.standard_normal(dim)
            got = posterior(model, q)
            want = reference.kde_posterior(q, vectors, h)
            for label in vectors:
                assert got[label] == pytest.approx(want[label], abs=1e-12)

    def test_large_bandwidth_approaches_uniform(self):
        # class-size independence: 3 vs 12 seeds, still uniform as h grows
        rng = np.random.default_rng(17)
        vectors = {"small": rng.uniform(-1, 1, size=(3, 4)),
                   "large": rng.uniform(-1, 1, size=(12, 4))}
        model = fit(ModelSpec("kde", h=1e6), vectors)
        p = posterior(model, rng.uniform(-1, 1, size=4))
        assert p["small"] == pytest.approx(0.5, abs=1e-3)
        assert p["large"] == pytest.approx(0.5, abs=1e-3)

    def test_auto_bandwidth_from_grid(self):
        rng = np.random.default_rng(19)
        vectors = {"a": rng.standard_normal((6, 3)),
                   "b": 5.0 + rng.standard_normal((6, 3))}
        h = select_bandwidth(vectors)
        assert h in BANDWIDTH_GRID
        model = fit(ModelSpec("kde"), vectors)  # h=None resolves at fit
        assert model.spec.h == h

    def test_auto_bandwidth_all_singletons_rejected(self):
        with pytest.raises(DataError, match="singleton"):
            select_bandwidth({"a": [[0.0]], "b": [[1.0]]})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid, message", [
        ([], "bandwidth grid is empty"),
        ([1e308], "bandwidth h must be at most 8.98847e+307, so that 2h is finite, "
                  "got 1e+308"),
        ([-1.0], "bandwidth h must be finite and positive, got -1.0"),
        ([math.nan], "bandwidth h must be finite and positive, got nan"),
        ([math.inf], "bandwidth h must be finite and positive, got inf"),
        ([0.5, -1.0], "bandwidth h must be finite and positive, got -1.0"),
    ])
    def test_bad_grid_refused_before_the_search(self, grid, message):
        # Each value is held to ModelSpec's rule for h, with no LOO run first.
        with pytest.raises(ValueError) as info:
            select_bandwidth({"a": [[0.0], [0.1]], "b": [[1.0], [1.1]]}, grid)
        assert str(info.value) == message


class TestClassify:
    def test_argmax(self):
        model = fit(ModelSpec("centroid"),
                    {"near": [[0.0, 0.0]], "far": [[2.0, 0.0]]})
        assert classify(model, np.array([0.0, 0.0])) == "near"

    def test_exact_tie_goes_to_first_declared_class(self):
        model = fit(ModelSpec("centroid"),
                    {"first": [[1.0, 0.0]], "second": [[-1.0, 0.0]]})
        assert classify(model, np.array([0.0, 0.0])) == "first"

    @pytest.mark.parametrize("kind,params", [
        ("centroid", {}), ("naive_bayes", {}), ("knn", {"k": 3}),
        ("kde", {"h": 0.5}),
    ])
    def test_agrees_with_reference_on_separated_ten_class_instance(self, kind, params):
        rng = np.random.default_rng(23)
        centers = 30.0 * rng.standard_normal((10, 5))
        vectors = {f"c{i}": centers[i] + 0.5 * rng.standard_normal((6, 5))
                   for i in range(10)}
        model = fit(ModelSpec(kind, **params), vectors)
        oracle = {
            "centroid": lambda q: reference.centroid_posterior(q, vectors),
            "naive_bayes": lambda q: reference.naive_bayes_posterior(q, vectors),
            "knn": lambda q: reference.knn_posterior(q, vectors, 3),
            "kde": lambda q: reference.kde_posterior(q, vectors, 0.5),
        }[kind]
        hits = 0
        for _ in range(100):
            target = int(rng.integers(0, 10))
            q = centers[target] + 0.5 * rng.standard_normal(5)
            got = classify(model, q)
            want = reference.argmax_label(oracle(q), list(vectors))
            assert got == want
            hits += got == f"c{target}"
        assert hits == 100  # instance is well separated


class TestPosteriorContracts:
    @pytest.mark.parametrize("kind,params", [
        ("centroid", {}), ("naive_bayes", {}), ("knn", {"k": 3}),
        ("kde", {"h": 0.7}),
    ])
    def test_normalized_and_nonnegative(self, kind, params):
        rng = np.random.default_rng(29)
        vectors = random_instance(rng, n_classes=4, dim=6)
        model = fit(ModelSpec(kind, **params), vectors)
        queries = rng.standard_normal((200, 6))
        probs = posterior_batch(model, queries)
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_non_finite_query_rejected(self):
        model = fit(ModelSpec("centroid"), {"a": [[0.0]], "b": [[1.0]]})
        with pytest.raises(DataError, match="non-finite"):
            posterior(model, np.array([np.nan]))

    def test_dimension_mismatch_rejected(self):
        model = fit(ModelSpec("centroid"), {"a": [[0.0, 1.0]], "b": [[1.0, 0.0]]})
        with pytest.raises(DataError, match="dimension"):
            posterior(model, np.array([0.0]))

    def test_batch_matches_single(self):
        # row reductions may round differently per array shape; agreement
        # is to relative precision, not bitwise
        rng = np.random.default_rng(31)
        vectors = random_instance(rng)
        for kind, params in [("centroid", {}), ("naive_bayes", {}),
                             ("knn", {"k": 4}), ("kde", {"h": 0.4})]:
            model = fit(ModelSpec(kind, **params), vectors)
            queries = rng.standard_normal((5, 4))
            batch = posterior_batch(model, queries)
            for i in range(5):
                single = posterior(model, queries[i])
                for j, label in enumerate(model.classes):
                    assert single[label] == pytest.approx(batch[i, j], rel=1e-12)
        assert classify_batch(model, queries) == \
            [classify(model, queries[i]) for i in range(5)]


class TestLogOdds:
    def test_even_posterior_is_zero(self):
        assert log_odds({"a": 0.5, "b": 0.5}, "a", "b") == 0.0

    def test_distance_two_example(self):
        model = fit(ModelSpec("centroid"),
                    {"near": [[0.0, 0.0]], "far": [[2.0, 0.0]]})
        p = posterior(model, np.array([0.0, 0.0]))
        # odds ratio is exactly e^2
        assert log_odds(p, "near", "far") == pytest.approx(2.0, abs=1e-12)

    def test_clamped_for_degenerate_posterior(self):
        value = log_odds({"a": 1.0, "b": 0.0}, "a", "b")
        assert value == pytest.approx(math.log((1 - 1e-6) / 1e-6), abs=1e-9)
        assert value == pytest.approx(13.8155, abs=1e-4)
        assert math.isfinite(value)

    def test_unknown_class(self):
        with pytest.raises(KeyError):
            log_odds({"a": 0.5, "b": 0.5}, "a", "zzz")


class TestFitTier:
    def test_polarity_model_from_world(self, world):
        model = fit_tier(ModelSpec("centroid"), world.lexicon,
                         world.spaces[0], "polarity")
        assert model.classes == ("positive", "negative")
        assert model.tier == "polarity"
        p = posterior(model, world.spaces[0].vector("posmean"))
        assert p["positive"] > 0.5

    def test_mini_space(self):
        from moraldrift import build_tiers
        lexicon = build_tiers({"good": 1, "evil": 2}, {"table", "chair"})
        space = make_space(1900, {
            "good": np.array([1.0, 1.0]), "evil": np.array([-1.0, -1.0]),
            "table": np.array([0.0, 5.0]), "chair": np.array([0.2, 5.0]),
        })
        model = fit_tier(ModelSpec("centroid"), lexicon, space, "relevance")
        assert model.classes == ("irrelevant", "relevant")
