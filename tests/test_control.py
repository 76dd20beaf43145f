"""The decade-shuffled control against the one-pass-per-shuffle loop in
``reference.py``, the permutations it accepts, and the in-place naive
Bayes kernel against the one-expression form.

The batched control must reproduce the loop bit for bit: every control
coefficient, the report, and the refusal of a shuffle.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from moraldrift import DataError, PredictionMatrix, permutation_control
from moraldrift.classifiers import _nb_log_likelihood
from moraldrift.stats import REGRESSION_FACTORS

from conftest import CHANGER_DECADES, changer_courses, norm_table


def relevance_matrix(words, values, steps=None):
    """Decades from 1800, ten years apart, or ``steps`` decades apart."""
    steps = range(values.shape[1]) if steps is None else steps
    return PredictionMatrix(kind="relevance", words=tuple(words),
                            decades=tuple(1800 + 10 * int(j) for j in steps), values=values)


@st.composite
def control_inputs(draw):
    """(matrix, norms, frequencies, permutations): scores around 0.5 with
    NaN gaps, decades that may skip some, some words without a concreteness
    rating or frequency, and shuffles that may include the identity."""
    n_dec = draw(st.integers(5, 25))
    n_words = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 0.5 + 0.3 * rng.standard_normal((n_words, n_dec))
    if draw(st.booleans()):
        values = np.round(values, 1)  # scores of exactly 0.5 count as low
    values[rng.random(values.shape) < draw(st.floats(0.0, 0.3))] = np.nan
    words = [f"{'w' * (1 + i % 5)}{i}" for i in range(n_words)]
    norms = norm_table(words, 5.0, [np.nan if rng.random() < 0.1 else rng.uniform(1, 5)
                                    for _ in words])
    frequencies = {w: float(rng.uniform(-10, 1e4)) for w in words if rng.random() > 0.1}
    if draw(st.integers(0, 3)) == 0:
        frequencies[draw(st.sampled_from(words))] = np.inf  # refused once selected
    perms = [rng.permutation(n_dec) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        perms.insert(draw(st.integers(0, len(perms))), np.arange(n_dec))
    steps = np.sort(rng.choice(3 * n_dec, n_dec, replace=False)) if draw(st.booleans()) else None
    return relevance_matrix(words, values, steps), norms, frequencies, perms


def assert_matches_loop(matrix, norms, frequencies, perms=None, **kwargs):
    """The control gives the loop's report and, shuffle by shuffle, the
    loop's coefficients to the bit; or the loop's refusal, word for word."""
    try:
        expected, coefficients = reference.permutation_control_loop(
            matrix, norms, frequencies, permutations=perms, **kwargs)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            permutation_control(matrix, norms, frequencies, permutations=perms, **kwargs)
        assert str(got.value) == str(exc)
        return
    assert permutation_control(matrix, norms, frequencies, permutations=perms,
                               **kwargs) == expected
    for i, perm in enumerate(perms if perms is not None else []):
        one = permutation_control(matrix, norms, frequencies, permutations=[perm])
        got = np.array([one.factors[name].control_mean for name in REGRESSION_FACTORS])
        np.testing.assert_array_equal(got.view(np.uint64), coefficients[i].view(np.uint64))


class TestAgainstLoop:
    @settings(max_examples=150, deadline=None)
    @given(control_inputs())
    def test_random_matrices(self, inputs):
        assert_matches_loop(*inputs)

    def test_changer_fixture_seeded(self):
        words, freqs, concs, values = changer_courses(n_words=200, seed=21,
                                                      decade_noise=0.02)
        values[::7, :3] = np.nan
        norms = norm_table(words, 5.0, concs)
        frequencies = {w: float(f) for w, f in zip(words, freqs)}
        assert_matches_loop(relevance_matrix(words, values), norms, frequencies,
                            n_shuffles=200, seed=4)


class TestShuffleRefusals:
    """Shuffle 1 moves the first and last decade to columns 1 and 4: it
    drops the six varied words the identity selects and selects the
    ``n_same`` words of one length instead."""

    @staticmethod
    def inputs(n_same, infinite=()):
        varied = [f"{'v' * (1 + i)}{i}" for i in range(6)]
        same = [f"s{i:03d}" for i in range(n_same)]
        values = np.array([[0.9, 0.6, 0.5, 0.4, 0.7, 0.1]] * 6
                          + [[0.6, 0.9, 0.5, 0.4, 0.1, 0.7]] * n_same)
        values += 0.001 * np.arange(len(values))[:, None] * np.arange(6)
        words = varied + same
        norms = norm_table(words, 5.0, [1.0 + 0.5 * (3 * i % 7) for i in range(len(words))])
        frequencies = {w: np.inf if w in infinite else 10.0 + 7.0 * i * i
                       for i, w in enumerate(words)}
        perms = [np.arange(6), np.array([1, 0, 2, 3, 5, 4])]
        return relevance_matrix(words, values), norms, frequencies, perms

    @pytest.mark.parametrize("n_same, infinite, message", [
        (3, (), "shuffle 1: only 3 words qualify for the change regression; "
                "need more than 4"),
        (6, (), "shuffle 1: design matrix is rank-deficient (collinear factors)"),
        (6, ("s002",), "shuffle 1: frequency contains non-finite values")])
    def test_message_matches_loop(self, n_same, infinite, message):
        inputs = self.inputs(n_same, infinite)
        with pytest.raises(DataError) as got:
            permutation_control(*inputs[:3], permutations=inputs[3])
        assert str(got.value) == message
        assert_matches_loop(*inputs)


class TestPermutationsChecked:
    N_DEC = len(CHANGER_DECADES)

    @pytest.mark.parametrize("bad", [
        np.r_[np.arange(19), 18],                 # a repeated column
        np.arange(19)[::-1],                      # a dropped column
        np.arange(20)[::-1] - 20,                 # negative indices
        np.arange(20)[::-1] + 1,                  # out of range
        np.arange(20, dtype=np.float64),          # not integers
        np.arange(20)[None, :],                   # not one-dimensional
    ], ids=["repeat", "short", "negative", "out-of-range", "float", "2-d"])
    def test_non_permutation_names_the_shuffle(self, bad):
        words, freqs, concs, values = changer_courses(n_words=80, seed=17,
                                                      decade_noise=0.02)
        norms = norm_table(words, 5.0, concs)
        with pytest.raises(ValueError, match="^shuffle 1: not a permutation of the "
                                             "20 decade columns$"):
            permutation_control(relevance_matrix(words, values), norms,
                                dict(zip(words, freqs)),
                                permutations=[np.arange(self.N_DEC), bad])


@st.composite
def nb_moments(draw):
    """(queries, mean, variance): shared (d,) or per-row (n, d) moments,
    variances at or just above the floor 1e-8 or spread over decades."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, d) if draw(st.booleans()) else (d,)
    scale = draw(st.sampled_from([1e-12, 1e-8, 1.0, 1e4]))
    var = np.maximum(scale * rng.random(shape), 1e-8)
    return rng.standard_normal((n, d)), rng.standard_normal(shape), var


@settings(max_examples=200, deadline=None)
@given(nb_moments())
def test_nb_log_likelihood_bit_identical(moments):
    got = _nb_log_likelihood(*moments)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  reference.nb_log_likelihood(*moments).view(np.uint64))
