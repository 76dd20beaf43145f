import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moraldrift import (DataError, PredictionMatrix, fisher_projection,
                        multiple_regression, pearson, permutation_control,
                        psycholinguistic_regression)
from moraldrift.stats import _two_sided_p, slope_rows

import reference
from conftest import CHANGER_DECADES, changer_courses, norm_table


def make_relevance_matrix(words, values, decades=None):
    values = np.asarray(values, dtype=float)
    decades = tuple(decades) if decades is not None else \
        tuple(1800 + 10 * j for j in range(values.shape[1]))
    return PredictionMatrix(kind="relevance", words=tuple(words),
                            decades=decades, values=values)


def changer_inputs(**kwargs):
    words, freqs, concs, values = changer_courses(**kwargs)
    norms = norm_table(words, 5.0, concs)
    frequencies = {w: float(f) for w, f in zip(words, freqs)}
    return make_relevance_matrix(words, values, CHANGER_DECADES), norms, frequencies


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]).r == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]).r == pytest.approx(-1.0)

    def test_hand_computed_point_eight(self):
        # covariance 4, each sum of squares 5: r = 4/5
        report = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert report.r == pytest.approx(0.8, abs=1e-15)
        assert report.n == 4

    def test_p_from_t_transform(self):
        from scipy.stats import t as student_t
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        y = 0.5 * x + rng.standard_normal(30)
        report = pearson(x, y)
        t_stat = report.r * np.sqrt(28 / (1 - report.r ** 2))
        assert report.p == pytest.approx(2 * student_t.sf(abs(t_stat), 28))

    def test_constant_input_rejected(self):
        with pytest.raises(DataError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(DataError, match="3"):
            pearson([1.0, 2.0], [1.0, 2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        base = pearson(x, y).r
        scaled = pearson(3.0 * x + 7.0, 0.25 * y - 2.0).r
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_matches_scipy_pearsonr(self):
        from scipy.stats import pearsonr
        rng = np.random.default_rng(30)
        for _ in range(10):
            x = rng.standard_normal(40)
            y = 0.3 * x + rng.standard_normal(40)
            report = pearson(x, y)
            want_r, want_p = pearsonr(x, y)
            assert report.r == pytest.approx(want_r, abs=1e-12)
            assert report.p == pytest.approx(want_p, rel=1e-9)


class TestSlopeTest:
    """Single rows and row pairs of ``slope_rows``."""

    def test_exact_linear_sequence(self):
        slope, p = slope_rows(np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]))
        assert slope[0] == pytest.approx(0.1, abs=1e-12)
        assert p[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_series(self):
        slope, p = slope_rows(np.full((1, 8), 0.4))
        assert (slope.tolist(), p.tolist()) == ([0.0], [1.0])

    def test_pair_reordering_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(12)
        t = np.arange(1.0, 13.0)
        base, base_p = slope_rows(y[None, :], t)
        perm = rng.permutation(12)
        got, got_p = slope_rows(y[perm][None, :], t[perm])
        assert got[0] == pytest.approx(base[0], abs=1e-12)
        assert got_p[0] == pytest.approx(base_p[0], abs=1e-12)

    def test_constant_shift_leaves_slope(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(10)
        base, shifted = slope_rows(np.vstack([y, y + 5.0]))[0]
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_planted_noisy_slope(self):
        rng = np.random.default_rng(4)
        t = np.arange(1.0, 21.0)
        y = 0.3 + 0.005 * t + 0.01 * rng.standard_normal(20)
        slope, p = slope_rows(y[None, :], t)
        assert slope[0] == pytest.approx(0.005, abs=0.003)
        assert p[0] < 0.05

    def test_matches_scipy_linregress(self):
        from scipy.stats import linregress
        rng = np.random.default_rng(31)
        for _ in range(10):
            t = np.sort(rng.uniform(0, 10, size=15))
            y = 0.2 * t + rng.standard_normal(15)
            slope, p = slope_rows(y[None, :], t)
            want = linregress(t, y)
            assert slope[0] == pytest.approx(want.slope, rel=1e-10)
            assert p[0] == pytest.approx(want.pvalue, rel=1e-9)


@st.composite
def masked_rows(draw):
    """A matrix of 8-20 columns with NaN gaps (each row keeps >= 3
    points), plus exactly linear integer rows whose fits have zero
    residual."""
    n_cols = draw(st.integers(8, 20))
    n_rows = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)))
    for row in values:
        keep = draw(st.sets(st.integers(0, n_cols - 1), min_size=3))
        row[[j for j in range(n_cols) if j not in keep]] = np.nan
    coefficients = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3)),
                                 min_size=1, max_size=3))
    return values, coefficients


class TestSlopeRows:
    @settings(max_examples=200, deadline=None)
    @given(masked_rows())
    def test_matches_linregress_on_compacted_rows(self, data):
        from scipy.stats import linregress
        values, coefficients = data
        t = np.arange(1.0, values.shape[1] + 1)
        lines = [a + b * t for a, b in coefficients]
        slopes, p = slope_rows(np.vstack([values, *lines]))
        for i, row in enumerate(values):
            present = np.isfinite(row)
            want = linregress(t[present], row[present])
            assume(np.ptp(row[present]) > 1e-3 and abs(want.rvalue) < 0.999)
            assert slopes[i] == pytest.approx(want.slope, rel=1e-9, abs=1e-12)
            assert p[i] == pytest.approx(want.pvalue, rel=1e-7)
        for i, (_, b) in enumerate(coefficients, start=len(values)):
            assert slopes[i] == b
            assert p[i] == (1.0 if b == 0 else 0.0)

    @pytest.mark.parametrize("kept", [2, 1, 0])
    def test_row_with_fewer_than_three_entries_refused(self, kept):
        values = np.arange(15.0).reshape(3, 5)
        values[1, kept:] = np.nan
        values[2, :] = np.nan
        with pytest.raises(DataError, match=f"^row 1 has {kept} finite entries; "
                                            f"a slope test needs at least 3$"):
            slope_rows(values)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_refused(self, bad):
        values = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.1, bad, 0.3, 0.4, 0.5]])
        with pytest.raises(DataError, match="^row 1 has an infinite score; "
                                            "only NaN marks a missing one$"):
            slope_rows(values)


class TestTwoSidedP:
    """The numpy Student-t tail against the mpmath oracle."""

    @settings(max_examples=300, deadline=None)
    @example(df=1, ts=[0.0, 1e-8])  # scipy 1.17.1's stdtr is off by 3.1e-9 here
    @given(df=st.integers(1, 10**6),
           ts=st.lists(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e150)),
                       min_size=2, max_size=2))
    def test_matches_mpmath(self, df, ts):
        tol = 1e-12 if df <= 10**4 else 1e-10
        lo, hi = sorted(ts)
        p = _two_sided_p(np.array([lo, -lo, hi, -hi]), df)
        assert p[1] == p[0] and p[3] == p[2]
        # non-increasing in |t|, up to the accuracy asserted below
        assert p[2] <= p[0] * (1.0 + 2.0 * tol)
        for t, got in ((lo, p[0]), (hi, p[2])):
            expected = reference.two_sided_t_p(t, df)
            if expected >= 1e-300:
                assert abs(got - expected) <= tol * expected, (t, df, got, expected)
            else:
                assert got <= 1e-300 * (1.0 + tol)

    @pytest.mark.parametrize("df", [1, 7, 10**6])
    def test_edge_values(self, df):
        t = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e308])
        p = _two_sided_p(t, df)
        assert p[:3].tolist() == [1.0, 1.0, 1.0]
        assert p[3:5].tolist() == [0.0, 0.0]
        assert np.isnan(p[5])
        assert p[6] == pytest.approx(reference.two_sided_t_p(1e308, df), rel=1e-12, abs=0.0)
        assert float(_two_sided_p(0.0, df)) == 1.0

    def test_needs_one_degree_of_freedom(self):
        with pytest.raises(ValueError, match="at least 1 degree of freedom"):
            _two_sided_p(np.array([1.0, 2.0]), np.array([3, 0]))


class TestMultipleRegression:
    def test_exact_fit_single_factor(self):
        x = np.arange(1.0, 11.0)
        fit = multiple_regression(2.0 * x, {"x": x})
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficients["intercept"] == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_columns_rejected(self):
        x = np.arange(1.0, 11.0)
        with pytest.raises(DataError, match="rank"):
            multiple_regression(2.0 * x, {"x": x, "also_x": x})

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        n = 80
        factors = {"a": rng.standard_normal(n), "b": rng.standard_normal(n),
                   "c": rng.standard_normal(n)}
        y = (1.5 * factors["a"] - 0.5 * factors["b"] + 0.2
             + 0.3 * rng.standard_normal(n))
        fit = multiple_regression(y, factors)
        # independent solve of the normal equations
        x = np.column_stack([np.ones(n), factors["a"], factors["b"], factors["c"]])
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        for j, name in enumerate(["intercept", "a", "b", "c"]):
            assert fit.coefficients[name] == pytest.approx(beta[j], rel=1e-8)

    def test_p_values_flag_strong_factor(self):
        rng = np.random.default_rng(6)
        n = 200
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        y = 2.0 * a + 0.05 * rng.standard_normal(n)
        fit = multiple_regression(y, {"a": a, "b": b})
        assert fit.p_values["a"] < 1e-10
        assert fit.p_values["b"] > 0.01

    def test_sample_size_guard(self):
        with pytest.raises(DataError, match="samples"):
            multiple_regression([1.0, 2.0], {"x": [1.0, 2.0]})

    def test_zero_residual_t_has_the_coefficient_sign(self):
        # y = 1 - x exactly: se is 0, or a rounding residue on some BLAS builds.
        fit = multiple_regression([2.0, -1.0, 0.0, 3.0], {"x": [-1.0, 2.0, 1.0, -2.0]})
        assert fit.coefficients["x"] == pytest.approx(-1.0, rel=1e-12)
        assert np.sign(fit.t_stats["x"]) == np.sign(fit.coefficients["x"]) == -1.0
        assert fit.partial("x").r == -1.0

    @pytest.mark.parametrize("n, seed", [(6, 1), (40, 2), (500, 3)])
    def test_matches_reference_ols(self, n, seed):
        rng = np.random.default_rng(seed)
        factors = {"a": rng.standard_normal(n), "b": rng.uniform(1, 5, n),
                   "c": rng.integers(0, 4, n).astype(float)}
        y = 0.7 * factors["a"] - 0.1 * factors["b"] + rng.standard_normal(n)
        fit = multiple_regression(y, factors)
        coefficients, std_errors, p_values, r_squared = reference.ols(y, factors)
        assert list(fit.coefficients) == ["intercept", "a", "b", "c"]
        for name in coefficients:
            assert fit.coefficients[name] == pytest.approx(coefficients[name], rel=1e-9, abs=1e-12)
            assert fit.std_errors[name] == pytest.approx(std_errors[name], rel=1e-9)
            assert fit.p_values[name] == pytest.approx(p_values[name], rel=1e-7)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-9)


class TestPartialCorrelation:
    """``RegressionFit.partial``: the partial correlation read off the fit's
    t-test (Frisch-Waugh-Lovell), against the residual correlation of
    ``reference.partial_correlation``."""

    def test_empty_controls_equals_pearson(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        report, want = multiple_regression(x, {"y": y}).partial("y"), pearson(x, y)
        assert report.r == pytest.approx(want.r, rel=1e-12)
        assert report.p == pytest.approx(want.p, rel=1e-9)
        assert report.n == want.n == 25

    @pytest.mark.parametrize("n, n_controls", [(12, 2), (12, 1), (40, 3)])
    def test_p_equals_the_regression_p_of_the_factor(self, n, n_controls):
        rng = np.random.default_rng(n + n_controls)
        controls = {f"c{i}": rng.standard_normal(n) for i in range(n_controls)}
        factor = rng.standard_normal(n) + sum(controls.values())
        target = 0.5 * factor - 0.3 * controls["c0"] + rng.standard_normal(n)
        fit = multiple_regression(target, {"factor": factor, **controls})
        report = fit.partial("factor")
        r, p = reference.partial_correlation(target, factor, controls)
        assert report.p == fit.p_values["factor"]
        assert report.p == pytest.approx(p, rel=1e-9)
        assert report.r == pytest.approx(r, rel=1e-10)
        assert report.n == n

    @settings(max_examples=100, deadline=None)
    @given(n_controls=st.integers(0, 3), extra=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), effect=st.floats(-2.0, 2.0))
    def test_matches_the_residual_oracle(self, n_controls, extra, seed, effect):
        n = n_controls + 2 + extra  # at least one degree of freedom
        rng = np.random.default_rng(seed)
        controls = {f"c{i}": rng.standard_normal(n) for i in range(n_controls)}
        factor = rng.standard_normal(n) + sum(controls.values(), np.zeros(n))
        target = effect * factor + sum(controls.values(), np.zeros(n)) + rng.standard_normal(n)
        fit = multiple_regression(target, {"factor": factor, **controls})
        report = fit.partial("factor")
        r, p = reference.partial_correlation(target, factor, controls)
        assert report.r == pytest.approx(r, rel=1e-10)
        assert report.p == fit.p_values["factor"]
        assert report.p == pytest.approx(p, rel=1e-7)
        assert report.n == n

    def test_factor_linear_in_controls_rejected(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(30)
        with pytest.raises(DataError, match="rank-deficient"):
            multiple_regression(rng.standard_normal(30), {"factor": 2.0 * z + 1.0, "z": z})

    def test_planted_partial_structure(self):
        rng = np.random.default_rng(9)
        n = 400
        z = rng.standard_normal(n)
        u = rng.standard_normal(n)
        factor = u + 5.0 * z
        target = u - 5.0 * z
        raw = pearson(target, factor).r
        partial = multiple_regression(target, {"factor": factor, "z": z}).partial("factor").r
        assert partial > raw
        assert partial > 0.9


class TestChangeRegression:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_score_refused(self, bad):
        matrix, norms, frequencies = changer_inputs(n_words=80, seed=17, decade_noise=0.02)
        values = matrix.values.copy()
        values[5, 2] = bad
        matrix = dataclasses.replace(matrix, values=values)
        message = f"^word {matrix.words[5]!r} has an infinite score; only NaN marks a missing one$"
        with pytest.raises(DataError, match=message):
            psycholinguistic_regression(matrix, norms, frequencies)
        with pytest.raises(DataError, match=message):
            permutation_control(matrix, norms, frequencies, n_shuffles=3)

    def test_recovers_planted_coefficients(self):
        matrix, norms, frequencies = changer_inputs(
            n_words=600, seed=10, beta_f=1e-4, beta_c=-2e-4, beta_l=0.0,
            noise=1e-4)
        fit, words = psycholinguistic_regression(matrix, norms, frequencies)
        for name, beta in [("frequency", 1e-4), ("concreteness", -2e-4),
                           ("length", 0.0)]:
            halfwidth = 2.0 * fit.std_errors[name]
            assert abs(fit.coefficients[name] - beta) <= halfwidth
        assert fit.n == len(words)

    def test_zero_noise_exact(self):
        matrix, norms, frequencies = changer_inputs(
            n_words=200, seed=11, beta_f=1e-4, beta_c=-2e-4, beta_l=5e-5,
            noise=0.0)
        fit, _ = psycholinguistic_regression(matrix, norms, frequencies)
        assert fit.coefficients["frequency"] == pytest.approx(1e-4, abs=1e-10)
        assert fit.coefficients["concreteness"] == pytest.approx(-2e-4, abs=1e-10)
        assert fit.coefficients["length"] == pytest.approx(5e-5, abs=1e-10)

    def test_only_changed_words_selected(self):
        # two flat words (no class change) and six crossing words;
        # names vary in length so the design stays full rank
        words = ["aa", "bbb"] + [f"{'c' * (1 + i)}{i}" for i in range(6)]
        values = np.empty((8, 6))
        values[0] = 0.9   # relevant throughout
        values[1] = 0.1   # irrelevant throughout
        for i in range(2, 8):
            sign = 1.0 if i % 2 == 0 else -1.0
            values[i] = 0.5 + sign * 0.02 * (np.arange(1, 7) - 3.5) * (i - 1)
        matrix = make_relevance_matrix(words, values,
                                       decades=range(1800, 1860, 10))
        concs = [2.0, 3.0, 1.5, 4.0, 2.2, 3.7, 1.1, 4.9]
        norms = norm_table(words, 5.0, concs)
        frequencies = {w: float(10 + 3 ** i % 17) for i, w in enumerate(words)}
        fit, kept = psycholinguistic_regression(matrix, norms, frequencies)
        assert set(kept) == set(words[2:])

    def test_masked_decades_dropped(self):
        matrix, norms, frequencies = changer_inputs(n_words=100, seed=12)
        values = matrix.values.copy()
        values[0, :16] = np.nan  # only 4 decades left: below the minimum
        masked = make_relevance_matrix(matrix.words, values, matrix.decades)
        _, kept = psycholinguistic_regression(masked, norms, frequencies)
        assert matrix.words[0] not in kept

    def test_too_few_changed_words(self):
        words = ["a", "b", "c"]
        values = np.tile(np.linspace(0.4, 0.6, 6), (3, 1))
        matrix = make_relevance_matrix(words, values,
                                       decades=range(1800, 1860, 10))
        norms = norm_table(words, 5.0, 2.0)
        with pytest.raises(DataError, match="qualify"):
            psycholinguistic_regression(matrix, norms, {w: 10.0 for w in words})


    @pytest.mark.parametrize("regress", [
        psycholinguistic_regression,
        lambda *inputs: permutation_control(*inputs, n_shuffles=3)],
        ids=["regression", "permutation"])
    def test_polarity_matrix_refused(self, regress):
        matrix, norms, frequencies = changer_inputs(n_words=100, seed=12)
        polarity = dataclasses.replace(matrix, kind="polarity")
        with pytest.raises(DataError) as info:
            regress(polarity, norms, frequencies)
        assert str(info.value) == "change regression needs a relevance matrix, got 'polarity'"


class TestPermutationControl:
    def test_identity_permutation_reproduces_diachronic(self):
        matrix, norms, frequencies = changer_inputs(n_words=100, seed=13)
        identity = np.arange(len(matrix.decades))
        report = permutation_control(matrix, norms, frequencies,
                                     permutations=[identity])
        for fc in report.factors.values():
            assert fc.control_mean == pytest.approx(fc.diachronic_coefficient,
                                                    abs=1e-15)
            assert fc.empirical_p == 1.0  # (1 + 1) / (1 + 1)

    def test_null_matrix_controls_center_on_zero(self):
        rng = np.random.default_rng(14)
        n_words, n_dec = 150, 20
        words = [f"{'y' * (1 + i % 5)}{i}" for i in range(n_words)]
        values = np.clip(0.5 + 0.05 * rng.standard_normal((n_words, n_dec)), 0, 1)
        matrix = make_relevance_matrix(words, values)
        norms = norm_table(words, 5.0, [rng.uniform(1, 5) for _ in words])
        frequencies = {w: float(rng.uniform(100, 10000)) for w in words}
        report = permutation_control(matrix, norms, frequencies,
                                     n_shuffles=150, seed=99)
        for name, fc in report.factors.items():
            se = fc.control_stdev / np.sqrt(report.n_shuffles)
            assert abs(fc.control_mean) <= 3.0 * se, name

    def test_planted_trend_outside_control_band(self):
        # slopes driven strongly by concreteness: the diachronic
        # coefficient must sit far outside the shuffled distribution
        matrix, norms, frequencies = changer_inputs(
            n_words=200, seed=15, beta_f=0.0, beta_c=-2e-3, beta_l=0.0,
            noise=1e-5, decade_noise=0.02)
        report = permutation_control(matrix, norms, frequencies,
                                     n_shuffles=100, seed=7)
        fc = report.factors["concreteness"]
        assert abs(fc.diachronic_coefficient - fc.control_mean) \
            > 3.0 * fc.control_stdev
        assert fc.empirical_p < 0.05

    def test_bit_reproducible_under_seed(self):
        matrix, norms, frequencies = changer_inputs(n_words=80, seed=16,
                                                     decade_noise=0.02)
        first = permutation_control(matrix, norms, frequencies,
                                    n_shuffles=25, seed=5)
        second = permutation_control(matrix, norms, frequencies,
                                     n_shuffles=25, seed=5)
        assert first == second

    def test_shuffle_count_respected(self):
        matrix, norms, frequencies = changer_inputs(n_words=80, seed=17,
                                                     decade_noise=0.02)
        report = permutation_control(matrix, norms, frequencies,
                                     n_shuffles=10, seed=1)
        assert report.n_shuffles == 10

    def test_too_few_decades(self):
        matrix = make_relevance_matrix(["a"], np.full((1, 4), 0.5),
                                       decades=range(1800, 1840, 10))
        with pytest.raises(DataError, match="decades"):
            permutation_control(matrix, [], {}, n_shuffles=1)


class TestFisherProjection:
    def _three_classes(self, rng, dim=10, spread=0.1):
        centers = {"virtue": np.eye(dim)[0] * 5.0,
                   "vice": np.eye(dim)[1] * 5.0,
                   "neutral": np.zeros(dim)}
        return {label: center + spread * rng.standard_normal((8, dim))
                for label, center in centers.items()}

    def test_separated_classes_stay_separated(self):
        rng = np.random.default_rng(18)
        classes = self._three_classes(rng)
        axes = fisher_projection(classes)
        coords = {label: np.asarray(mat).mean(axis=0) @ axes for label, mat in classes.items()}
        spreads = []
        for label, mat in classes.items():
            proj = np.asarray(mat) @ axes
            spreads.append(np.linalg.norm(proj - coords[label], axis=1).mean())
        within = max(spreads)
        for a in coords:
            for b in coords:
                if a < b:
                    gap = np.linalg.norm(coords[a] - coords[b])
                    assert gap > 5.0 * within

    def test_query_at_class_mean_projects_onto_it(self):
        # The map is linear: the class mean lands on the mean of its seeds' points.
        rng = np.random.default_rng(19)
        classes = self._three_classes(rng)
        axes = fisher_projection(classes)
        virtue = np.asarray(classes["virtue"])
        np.testing.assert_allclose(virtue.mean(axis=0) @ axes, (virtue @ axes).mean(axis=0),
                                   rtol=1e-12, atol=1e-12)

    def test_output_shapes(self):
        rng = np.random.default_rng(20)
        classes = self._three_classes(rng)
        axes = fisher_projection(classes)
        assert axes.shape == (10, 2)
        assert (rng.standard_normal((7, 10)) @ axes).shape == (7, 2)

    def test_rotation_invariance_up_to_sign(self):
        rng = np.random.default_rng(21)
        classes = self._three_classes(rng, dim=6)
        queries = rng.standard_normal((5, 6))
        base = queries @ fisher_projection(classes)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        rot = q * np.sign(np.diag(r))
        rotated = (queries @ rot) @ fisher_projection(
            {c: np.asarray(m) @ rot for c, m in classes.items()})
        for i in range(5):
            for j in range(i + 1, 5):
                d_base = np.linalg.norm(base[i] - base[j])
                d_rot = np.linalg.norm(rotated[i] - rotated[j])
                assert d_rot == pytest.approx(d_base, abs=1e-8)

    def test_exactly_three_classes_required(self):
        rng = np.random.default_rng(23)
        classes = self._three_classes(rng)
        classes.pop("neutral")
        with pytest.raises(DataError, match="3 classes"):
            fisher_projection(classes)

    def test_small_class_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fisher_projection({"a": [[1.0, 0.0]], "b": [[0.0, 1.0], [0.0, 2.0]],
                               "c": [[1.0, 1.0], [2.0, 2.0]]})

    def test_axes_solve_the_generalized_eigenproblem(self):
        # independent check: axes are eigenvectors of inv(S_w) S_b for
        # the two largest eigenvalues
        rng = np.random.default_rng(24)
        classes = self._three_classes(rng, dim=5)
        axes = fisher_projection(classes)
        dim = 5
        total = np.vstack([np.asarray(m) for m in classes.values()])
        grand = total.mean(axis=0)
        s_w = 1e-6 * np.eye(dim)
        s_b = np.zeros((dim, dim))
        for m in classes.values():
            m = np.asarray(m)
            mu = m.mean(axis=0)
            dev = m - mu
            s_w += dev.T @ dev
            gap = (mu - grand)[:, None]
            s_b += m.shape[0] * (gap @ gap.T)
        eigvals = np.sort(np.linalg.eigvals(np.linalg.inv(s_w) @ s_b).real)[::-1]
        for j in range(2):
            w = axes[:, j]
            ratio = (s_b @ w) / (s_w @ w)
            assert np.allclose(ratio, eigvals[j], rtol=1e-6)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_collinear_class_means_rejected(self, dim):
        # Centres 0, (1, 2) and (3, 6), each the exact mean of +-0.5 steps
        # along every axis; the second eigenvalue comes out within 1e-16
        # of the first's scale, which is rounding.
        steps = np.kron(np.eye(dim), [[0.5], [-0.5]])
        classes = {label: np.pad(np.array(centre, dtype=float), (0, dim - 2)) + steps
                   for label, centre in (("a", (0, 0)), ("b", (1, 2)), ("c", (3, 6)))}
        with pytest.raises(DataError, match="^the three class means are collinear"):
            fisher_projection(classes)

    def test_axes_match_scipy_generalized_eigh(self):
        # 24 seeds in 8 dimensions: cond(S_w) is 14. The largest difference
        # measured is 6.7e-16 of the largest axis entry.
        classes = self._three_classes(np.random.default_rng(0), dim=8, spread=1.0)
        expected = reference.fisher_axes_scipy(classes)
        axes = fisher_projection(classes)
        assert np.max(np.abs(axes - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_axes_match_mpmath_when_seeds_are_fewer_than_dimensions(self):
        # 12 seeds in 20 dimensions: 11 of the 20 eigenvalues of S_w are the
        # ridge alone and cond(S_w) is 3.5e7, so a float64 solve is good to about
        # cond * eps = 8e-9. Measured against a 60-digit solve: 1.1e-9 of
        # the largest axis entry (the full scipy eigensolve: 8.1e-10).
        rng = np.random.default_rng(100)
        centres = {"virtue": np.eye(20)[0] * 5.0, "vice": np.eye(20)[1] * 5.0,
                   "neutral": np.zeros(20)}
        classes = {label: c + rng.standard_normal((4, 20)) for label, c in centres.items()}
        expected = reference.fisher_axes_mpmath(classes)
        axes = fisher_projection(classes)
        assert np.max(np.abs(axes - expected)) <= 1e-7 * np.max(np.abs(expected))


class TestPermutationControlRejectsNoShuffles:
    @pytest.mark.parametrize("n_shuffles", [0, -3])
    def test_shuffle_count_below_one(self, n_shuffles):
        matrix, norms, frequencies = changer_inputs(n_words=80, seed=17,
                                                     decade_noise=0.02)
        with pytest.raises(ValueError, match="at least one shuffle"):
            permutation_control(matrix, norms, frequencies, n_shuffles=n_shuffles)

    def test_empty_permutations(self):
        matrix, norms, frequencies = changer_inputs(n_words=80, seed=17,
                                                     decade_noise=0.02)
        with pytest.raises(ValueError, match="at least one shuffle"):
            permutation_control(matrix, norms, frequencies, permutations=[])
