"""Property tests for the seed-distance paths of the classifiers.

Batched posteriors come from one seed-distance matrix per batch.
Leave-one-out (LOO) predictions come from one masked or closed-form pass
instead of one refit per seed, and the bandwidth search reuses that pass
for the whole grid. All three are checked against the brute-force oracles
in ``reference.py``. The posteriors are checked for the invariances that
cross-decade comparison after Procrustes alignment relies on. The KDE
row log-sum-exp is checked against scipy's and against a direct sum.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from moraldrift import ModelSpec, fit, posterior, posterior_batch, select_bandwidth
from moraldrift.classifiers import BANDWIDTH_GRID, _logsumexp_rows, _loo_predict

import reference

# A naive-Bayes floor that keeps the reference's direct density products
# (no log space) clear of underflow in up to four dimensions.
NB_FLOOR = 0.1


@st.composite
def seed_sets(draw, integer=False, min_seeds=2, max_classes=3):
    """1-4 dims, 2-``max_classes`` classes, ``min_seeds``-8 seeds per
    class, drawn with numpy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(min_seeds, 8), min_size=2, max_size=max_classes))
    if integer:  # a small grid, so many distances tie exactly
        return {f"c{i}": rng.integers(0, 3, size=(n, dim)).astype(float)
                for i, n in enumerate(sizes)}
    centers = 2.0 * rng.standard_normal((len(sizes), dim))
    return {f"c{i}": centers[i] + rng.standard_normal((n, dim))
            for i, n in enumerate(sizes)}


def loo_accuracy(spec, class_vectors):
    _, predicted = _loo_predict(spec, class_vectors)
    truth = np.repeat(np.arange(len(class_vectors)),
                      [len(v) for v in class_vectors.values()])
    return float(np.mean(predicted == truth))


def oracle_specs(k, h):
    """Each model kind's spec with its brute-force posterior."""
    return {
        ModelSpec("centroid"): reference.centroid_posterior,
        ModelSpec("naive_bayes", variance_floor=NB_FLOOR):
            lambda q, cv: reference.naive_bayes_posterior(q, cv, NB_FLOOR),
        ModelSpec("knn", k=k): lambda q, cv: reference.knn_posterior(q, cv, k),
        ModelSpec("kde", h=h): lambda q, cv: reference.kde_posterior(q, cv, h),
    }


class TestPosteriorAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(seed_sets(min_seeds=1, max_classes=4), st.integers(1, 4),
           st.sampled_from([0.1, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    def test_all_kinds_match_brute_force(self, class_vectors, k, h, seed):
        # Singleton classes included: the centroid is the seed, the
        # naive-Bayes variance is the floor, the kde density one kernel.
        # Queries lie near seeds, so the direct density products of the
        # naive-Bayes and kde oracles stay clear of underflow.
        seeds = np.vstack(list(class_vectors.values()))
        rng = np.random.default_rng(seed)
        queries = seeds[rng.integers(0, len(seeds), 5)] + rng.standard_normal((5, seeds.shape[1]))
        for spec, oracle in oracle_specs(min(k, len(seeds)), h).items():
            model = fit(spec, class_vectors)
            batch = posterior_batch(model, queries)
            for q, row in zip(queries, batch):
                want = oracle(q, class_vectors)
                np.testing.assert_allclose(row, [want[c] for c in model.classes],
                                           rtol=0, atol=1e-9, err_msg=spec.kind)
                # One row through BLAS may round differently from a batch.
                single = posterior(model, q)
                assert type(single) is dict and list(single) == list(model.classes)
                assert single == pytest.approx(dict(zip(model.classes, row.tolist())),
                                               rel=0, abs=1e-12), spec.kind


class TestLooAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(seed_sets(), st.integers(1, 3), st.sampled_from(BANDWIDTH_GRID))
    def test_all_kinds_match_brute_force_loo(self, class_vectors, k, h):
        for spec, oracle in oracle_specs(k, h).items():
            assert loo_accuracy(spec, class_vectors) == pytest.approx(
                reference.loo_accuracy(oracle, class_vectors)), spec.kind

    @settings(max_examples=30, deadline=None)
    @given(seed_sets())
    def test_select_bandwidth_is_brute_force_argmax(self, class_vectors):
        accuracies = [
            reference.loo_accuracy(
                lambda q, cv, h=h: reference.kde_posterior(q, cv, h), class_vectors)
            for h in BANDWIDTH_GRID]
        best = max(accuracies)
        smallest_best = next(h for h, a in zip(BANDWIDTH_GRID, accuracies) if a == best)
        assert select_bandwidth(class_vectors) == smallest_best

    @settings(max_examples=60, deadline=None)
    @given(seed_sets(integer=True), st.integers(1, 5))
    def test_knn_with_tied_distances_matches_refit(self, class_vectors, k):
        k = min(k, sum(len(v) for v in class_vectors.values()) - 1)
        spec = ModelSpec("knn", k=k)
        refit = []
        for label, matrix in class_vectors.items():
            for i in range(len(matrix)):
                fold = dict(class_vectors)
                fold[label] = np.delete(matrix, i, axis=0)
                refit.append(int(np.argmax(posterior_batch(fit(spec, fold), matrix[i])[0])))
        _, predicted = _loo_predict(spec, class_vectors)
        assert predicted.tolist() == refit


SPECS = [ModelSpec("centroid"), ModelSpec("naive_bayes"), ModelSpec("knn", k=3),
         ModelSpec("kde", h=0.5)]


def queries_for(class_vectors, rng):
    dim = next(iter(class_vectors.values())).shape[1]
    return 2.0 * rng.standard_normal((6, dim))


def assert_same_posteriors(spec, before, after, q_before, q_after):
    np.testing.assert_allclose(posterior_batch(fit(spec, after), q_after),
                               posterior_batch(fit(spec, before), q_before),
                               rtol=0, atol=1e-9)


class TestPosteriorInvariance:
    @settings(max_examples=50, deadline=None)
    @given(seed_sets(), st.sampled_from(SPECS), st.integers(0, 2**32 - 1))
    def test_seed_order_within_class(self, class_vectors, spec, seed):
        rng = np.random.default_rng(seed)
        q = queries_for(class_vectors, rng)
        shuffled = {c: rng.permutation(v) for c, v in class_vectors.items()}
        assert_same_posteriors(spec, class_vectors, shuffled, q, q)

    @settings(max_examples=50, deadline=None)
    @given(seed_sets(), st.sampled_from(SPECS), st.integers(0, 2**32 - 1),
           st.floats(0.0, 10.0))
    def test_joint_translation(self, class_vectors, spec, seed, length):
        rng = np.random.default_rng(seed)
        q = queries_for(class_vectors, rng)
        t = rng.standard_normal(q.shape[1])
        t *= length / np.linalg.norm(t)
        moved = {c: v + t for c, v in class_vectors.items()}
        assert_same_posteriors(spec, class_vectors, moved, q, q + t)

    @settings(max_examples=50, deadline=None)
    @given(seed_sets(), st.sampled_from(SPECS), st.integers(0, 2**32 - 1))
    def test_joint_orthogonal_map(self, class_vectors, spec, seed):
        # Naive Bayes keeps a diagonal covariance, so only the orthogonal
        # maps that permute and flip axes leave it unchanged; the other
        # kinds depend on distances alone and take any orthogonal map.
        rng = np.random.default_rng(seed)
        q = queries_for(class_vectors, rng)
        dim = q.shape[1]
        if spec.kind == "naive_bayes":
            rotation = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)
        else:
            rotation, r = np.linalg.qr(rng.standard_normal((dim, dim)))
            rotation *= np.sign(np.diag(r))
        rotated = {c: v @ rotation for c, v in class_vectors.items()}
        assert_same_posteriors(spec, class_vectors, rotated, q, q @ rotation)


# Log kernel values as KDE scores them: at most -10, so a row's result
# stays clear of 0 and a relative tolerance is meaningful. A few repeated
# values make ties at the row max common, and a spread of up to 1,490
# makes every non-max term of some rows underflow (exp(-745) is 0).
LOG_KERNELS = st.one_of(st.sampled_from([-10.0, -12.5, -800.0]),
                        st.floats(-1500.0, -10.0))


def direct_logsumexp(row):
    """log(sum(exp(row))) over the finite entries, from an exact sum."""
    finite = [x for x in row if x > -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    return top + math.log(math.fsum(math.exp(x - top) for x in finite))


class TestLogSumExpRows:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.integers(1, 12).flatmap(
        lambda k: arrays(np.float64, (n, k), elements=LOG_KERNELS))))
    def test_matches_scipy(self, a):
        # Relative 1e-14, not bit equality: scipy's arithmetic differs
        # between the 1.10 floor and later versions.
        np.testing.assert_allclose(_logsumexp_rows(a), logsumexp(a, axis=1),
                                   rtol=1e-14, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda k: st.tuples(arrays(np.float64, (4, k), elements=LOG_KERNELS),
                            arrays(np.bool_, (4, k)))))
    def test_minus_inf_entries_add_no_mass(self, a_and_dropped):
        a, dropped = a_and_dropped
        a[dropped] = -np.inf
        a[-1] = -np.inf  # one row with no mass at all
        got = _logsumexp_rows(a)
        assert got[-1] == -np.inf
        np.testing.assert_allclose(got, [direct_logsumexp(row) for row in a],
                                   rtol=1e-14, atol=0)

    def test_ties_and_underflow_by_hand(self):
        a = np.array([[-10.0, -10.0, -10.0],       # three-way tie at the max
                      [-10.0, -900.0, -1400.0],    # every non-max term underflows
                      [-np.inf, -10.0, -np.inf],   # one kernel left
                      [-np.inf, -np.inf, -np.inf]])
        np.testing.assert_array_equal(
            _logsumexp_rows(a), [-10.0 + math.log(3.0), -10.0, -10.0, -np.inf])
        np.testing.assert_array_equal(_logsumexp_rows(a[:, :1]), a[:, 0])
