"""Statistical primitives: OLS regression, correlations, permutation
controls, and a regularized Fisher-discriminant 2D projection.

Also hosts the broad-scale pipeline that regresses per-word rates of
moral-relevance change on psycholinguistic factors (log frequency,
word length, concreteness), which the permutation control re-runs on
decade-shuffled score matrices.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .embeddings import QueryVector
from .errors import DataError
from .lexicon import NormEntry

if TYPE_CHECKING:
    from .diachronic import PredictionMatrix

logger = logging.getLogger(__name__)

REGRESSION_FACTORS = ("frequency", "length", "concreteness")
# A word needs this many scored decades for a change slope.
MIN_SLOPE_DECADES = 5


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson correlation with a two-sided t-test p-value."""

    r: float
    p: float
    n: int

    def to_dict(self) -> dict:
        return {"r": self.r, "p": self.p, "n": self.n}


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit with per-coefficient t statistics and p-values."""

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    n: int
    r_squared: float

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "std_errors": self.std_errors,
            "t_stats": self.t_stats,
            "p_values": self.p_values,
            "n": self.n,
            "r_squared": self.r_squared,
        }


@dataclass(frozen=True)
class FactorControl:
    """One factor's diachronic coefficient against its shuffled control."""

    diachronic_coefficient: float
    control_mean: float
    control_stdev: float
    empirical_p: float

    def to_dict(self) -> dict:
        return {
            "diachronic_coefficient": self.diachronic_coefficient,
            "control_mean": self.control_mean,
            "control_stdev": self.control_stdev,
            "empirical_p": self.empirical_p,
        }


@dataclass(frozen=True)
class PermutationReport:
    factors: dict[str, FactorControl]
    n_shuffles: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "factors": {name: fc.to_dict() for name, fc in self.factors.items()},
            "n_shuffles": self.n_shuffles,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ProjectionResult:
    """2D discriminant coordinates for queries and class anchors."""

    query_coords: np.ndarray               # (n_queries, 2)
    class_coords: dict[str, np.ndarray]    # class label -> (2,)
    anchor_coords: dict[str, np.ndarray]   # anchor label -> (2,)
    axes: np.ndarray                        # (dim, 2) projection matrix


def _column(name: str, values, n: int | None = None) -> np.ndarray:
    col = np.asarray(values, dtype=np.float64)
    if col.ndim != 1:
        raise DataError(f"{name} must be one-dimensional")
    if n is not None and col.shape[0] != n:
        raise DataError(f"{name} has length {col.shape[0]}, expected {n}")
    if not np.all(np.isfinite(col)):
        raise DataError(f"{name} contains non-finite values")
    return col


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationReport:
    """Sample Pearson correlation; p from the exact t-transform (df=n-2)."""
    xa = _column("x", x)
    ya = _column("y", y, xa.shape[0])
    n = xa.shape[0]
    if n < 3:
        raise DataError(f"need at least 3 samples for a correlation, got {n}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    if sx == 0.0 or sy == 0.0:
        raise DataError("correlation is undefined for a constant input")
    r = float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))
    if 1.0 - r * r <= 0.0:
        p = 0.0
    else:
        t_stat = r * np.sqrt((n - 2) / (1.0 - r * r))
        p = float(_two_sided_p(t_stat, n - 2))
    return CorrelationReport(r=r, p=p, n=n)


def _two_sided_p(t_stat, df):
    """Two-sided Student-t p-value, 2 * P(T_df > |t|)."""
    from scipy.special import stdtr  # 0.3 s to import; most commands never call this

    return 2.0 * stdtr(df, -np.abs(t_stat))


def slope_rows(values: np.ndarray, t_values: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row OLS slopes of ``values`` on ``t_values`` with two-sided
    t-test p-values, in one vectorized pass.

    NaN entries are missing: each row is fitted on its finite entries
    only, against the matching abscissa values (default 1..n_columns).
    Every row needs at least 3 finite entries. Degenerate zero-residual
    fits use the convention p=0 for a nonzero slope and p=1 for a zero
    slope.

    The row sums follow the input's memory layout, so the last bits of a
    slope depend on it: callers pass C-ordered rows (a column gather such
    as ``values[:, perm]`` is Fortran-ordered).
    """
    slopes, tc, yc, k, sxx = _slopes(values, t_values)
    resid = yc - slopes[:, None] * tc
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(np.sum(resid * resid, axis=1) / (k - 2) / sxx)
        p = _two_sided_p(slopes / se, k - 2)
    degenerate = se == 0.0
    p[degenerate] = np.where(slopes[degenerate] == 0.0, 1.0, 0.0)
    return slopes, p


def _slopes(values: np.ndarray, t_values: np.ndarray | None = None):
    """The slopes of ``slope_rows`` without their p-values; also returns
    the centred abscissa and values, the finite counts and the abscissa
    sums of squares that the p-values need."""
    values = np.asarray(values, dtype=np.float64)
    if t_values is None:
        t_values = np.arange(1, values.shape[1] + 1, dtype=np.float64)
    present = np.isfinite(values)
    k = present.sum(axis=1)
    t_mean = np.where(present, t_values, 0.0).sum(axis=1) / k
    y_mean = np.where(present, values, 0.0).sum(axis=1) / k
    tc = np.where(present, t_values[None, :] - t_mean[:, None], 0.0)
    yc = np.where(present, values - y_mean[:, None], 0.0)
    sxx = np.sum(tc * tc, axis=1)
    if np.any(sxx == 0.0):
        raise DataError("abscissa has zero variance")
    return np.sum(tc * yc, axis=1) / sxx, tc, yc, k, sxx


def slope_test(y: Sequence[float], t_values: Sequence[float] | None = None
               ) -> tuple[float, float]:
    """OLS slope of y on t (default t = 1..n) with a two-sided t-test p.

    The one-row case of ``slope_rows``, for complete data. Degenerate
    zero-residual fits use the convention p=0 for a nonzero slope and
    p=1 for a zero slope.
    """
    ya = _column("y", y)
    n = ya.shape[0]
    ta = None if t_values is None else _column("t", t_values, n)
    if n < 3:
        raise DataError(f"need at least 3 points for a slope test, got {n}")
    slopes, p = slope_rows(ya[None, :], ta)
    return float(slopes[0]), float(p[0])


def _design(factors: Mapping[str, Sequence[float]], n: int) -> tuple[np.ndarray, list[str]]:
    names = ["intercept"] + list(factors)
    cols = [np.ones(n)]
    for name in factors:
        cols.append(_column(name, factors[name], n))
    return np.column_stack(cols), names


def _solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` on the full-rank design ``x``."""
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise DataError("design matrix is rank-deficient (collinear factors)")
    return np.linalg.lstsq(x, y, rcond=None)[0]


def multiple_regression(y: Sequence[float],
                        factors: Mapping[str, Sequence[float]]) -> RegressionFit:
    """OLS with intercept; two-sided t-test p-value per coefficient."""
    ya = _column("y", y)
    n = ya.shape[0]
    if n <= len(factors) + 1:
        raise DataError(f"need more than {len(factors) + 1} samples, got {n}")
    x, names = _design(factors, n)
    p_cols = x.shape[1]
    beta = _solve(x, ya)
    resid = ya - x @ beta
    rss = float(resid @ resid)
    dof = n - p_cols
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se = np.sqrt(np.diag(cov))

    coeffs, errs, tstats, pvals = {}, {}, {}, {}
    for j, name in enumerate(names):
        b = float(beta[j])
        s = float(se[j])
        if s == 0.0:
            t_stat = 0.0 if b == 0.0 else np.inf
            p = 1.0 if b == 0.0 else 0.0
        else:
            t_stat = b / s
            p = float(_two_sided_p(t_stat, dof))
        coeffs[name] = b
        errs[name] = s
        tstats[name] = float(t_stat)
        pvals[name] = p
    tss = float(np.sum((ya - ya.mean()) ** 2))
    r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return RegressionFit(coefficients=coeffs, std_errors=errs, t_stats=tstats,
                         p_values=pvals, n=n, r_squared=r_squared)


def partial_correlation(target: Sequence[float], factor: Sequence[float],
                        controls: Mapping[str, Sequence[float]]) -> CorrelationReport:
    """Pearson correlation of the OLS residuals of target and factor on
    the control columns. With no controls this is the plain correlation."""
    ta = _column("target", target)
    fa = _column("factor", factor, ta.shape[0])
    if not controls:
        return pearson(ta, fa)
    x, _ = _design(controls, ta.shape[0])
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise DataError("control design matrix is rank-deficient")

    def residualize(name, v):
        beta, _, _, _ = np.linalg.lstsq(x, v, rcond=None)
        resid = v - x @ beta
        centered = v - v.mean()
        total = float(centered @ centered)
        if total == 0.0 or float(resid @ resid) <= 1e-10 * total:
            raise DataError(f"{name} is (numerically) a linear function of the controls")
        return resid

    return pearson(residualize("target", ta), residualize("factor", fa))


# ---------------------------------------------------------------------------
# Broad-scale change regression and its shuffled control
# ---------------------------------------------------------------------------

class _ChangeSample:
    """The rows that can enter the change regression, found once for any
    number of decade shuffles: words with at least ``MIN_SLOPE_DECADES``
    scored decades and an entry in both factor tables. Holds their score
    rows (C-ordered) and factor columns, and the design matrix (intercept,
    then ``REGRESSION_FACTORS``)."""

    def __init__(self, values: np.ndarray, words: Sequence[str],
                 concreteness: Mapping[str, float], log_frequency: Mapping[str, float]):
        values = np.asarray(values, dtype=np.float64)
        usable = np.isfinite(values).sum(axis=1) >= MIN_SLOPE_DECADES
        rows = [i for i in np.flatnonzero(usable)
                if words[i] in concreteness and words[i] in log_frequency]
        self.words = [words[i] for i in rows]
        self.values = values[rows]
        self.factors = {
            "frequency": np.array([log_frequency[w] for w in self.words]),
            "length": np.array([float(len(w)) for w in self.words]),
            "concreteness": np.array([concreteness[w] for w in self.words]),
        }
        self.design = np.column_stack([np.ones(len(rows)), *self.factors.values()])

    def changed(self, perms: np.ndarray) -> np.ndarray:
        """(rows, shuffles) booleans: the word's relevance class (score vs
        0.5) differs between its first and last scored decade once the
        decade columns are reordered by that row of ``perms``.

        A row without gaps starts at column ``perm[0]`` and ends at
        ``perm[-1]`` under every shuffle, so its filter is one gather; a
        row with gaps finds its first and last scored decade per shuffle."""
        high = self.values > 0.5
        changed = high[:, perms[:, 0]] != high[:, perms[:, -1]]
        gappy = np.flatnonzero(~np.isfinite(self.values).all(axis=1))
        if gappy.size:
            present, high = np.isfinite(self.values[gappy]), high[gappy]
            rows, last = np.arange(gappy.size), perms.shape[1] - 1
            for i, perm in enumerate(perms):
                shuffled = present[:, perm]
                first_col = perm[np.argmax(shuffled, axis=1)]
                last_col = perm[last - np.argmax(shuffled[:, ::-1], axis=1)]
                changed[gappy, i] = high[rows, first_col] != high[rows, last_col]
        return changed

    def slopes(self, changed: np.ndarray, perm: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The rows one shuffle selects (one column of ``changed``) and
        their change slopes over the decades in ``perm`` order."""
        sel = np.flatnonzero(changed)
        if sel.size <= len(REGRESSION_FACTORS) + 1:
            raise DataError(
                f"only {sel.size} words qualify for the change regression; "
                f"need more than {len(REGRESSION_FACTORS) + 1}")
        return sel, _slopes(self.values[sel[:, None], perm])[0]  # C-ordered gather

    def fit(self) -> tuple[RegressionFit, list[str], np.ndarray, dict[str, np.ndarray]]:
        """The unshuffled regression: see ``changed_word_fit``."""
        identity = np.arange(self.values.shape[1])
        sel, slopes = self.slopes(self.changed(identity[None, :])[:, 0], identity)
        factors = {name: col[sel] for name, col in self.factors.items()}
        return (multiple_regression(slopes, factors), [self.words[i] for i in sel],
                slopes, factors)


def changed_word_fit(values: np.ndarray, words: Sequence[str],
                     concreteness: Mapping[str, float],
                     log_frequency: Mapping[str, float]
                     ) -> tuple[RegressionFit, list[str], np.ndarray, dict[str, np.ndarray]]:
    """The change regression on a words x decades score array, given the
    factor tables of ``factor_tables``; see psycholinguistic_regression.
    Returns the fit, the words that entered it, and their slopes and
    factor columns."""
    return _ChangeSample(values, words, concreteness, log_frequency).fit()


def factor_tables(norms: Sequence[NormEntry],
                  frequencies: Mapping[str, float] | Sequence[tuple[str, float]]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Word -> concreteness and word -> log frequency; words without a
    concreteness rating or with a non-positive frequency are left out."""
    concreteness = {e.word: e.concreteness for e in norms if e.concreteness is not None}
    freq_map = dict(frequencies)
    log_frequency = {}
    skipped = 0
    for w, f in freq_map.items():
        if f > 0:
            log_frequency[w] = float(np.log(f))
        else:
            skipped += 1
    if skipped:
        logger.warning("skipped %d words with non-positive frequency", skipped)
    return concreteness, log_frequency


def psycholinguistic_regression(
    matrix: "PredictionMatrix",
    norms: Sequence[NormEntry],
    frequencies: Mapping[str, float] | Sequence[tuple[str, float]],
) -> tuple[RegressionFit, list[str]]:
    """Regress per-word relevance-change slopes on log frequency, word
    length, and concreteness.

    The sample is restricted to words whose relevance class (score vs
    0.5) differs between their first and last unmasked decades, i.e.
    words that changed relevance in either direction. Returns the fit
    and the words that entered it.
    """
    fit, words, _, _ = changed_word_fit(np.asarray(matrix.values, dtype=np.float64),
                                        list(matrix.words),
                                        *factor_tables(norms, frequencies))
    return fit, words


def permutation_control(
    matrix: "PredictionMatrix",
    norms: Sequence[NormEntry],
    frequencies: Mapping[str, float] | Sequence[tuple[str, float]],
    n_shuffles: int = 1000,
    seed: int = 0,
    permutations: Sequence[np.ndarray] | None = None,
) -> PermutationReport:
    """Decade-shuffled control for the change regression.

    Each shuffle applies one shared permutation of the decade columns to
    every word's time course, then re-runs the regression pipeline
    (change filter, slopes, factor fit). The empirical p per factor is
    the two-sided fraction of control coefficients at least as large in
    magnitude as the diachronic one, with the +1/(n+1) finite-sample
    correction. Deterministic under a fixed seed.

    The candidate words, their factor columns and the design matrix do
    not depend on the shuffle and are found once. The change filter for
    all shuffles is one gather (see ``_ChangeSample.changed``); each
    shuffle then fits slopes on the rows it selects and solves the
    least-squares problem. The coefficients equal, bit for bit, a
    ``changed_word_fit`` run on each shuffled matrix.

    ``permutations`` overrides the seeded shuffles (for controls/tests);
    each must be a permutation of ``range(n_decades)``.
    """
    n_shuffles = n_shuffles if permutations is None else len(permutations)
    if n_shuffles < 1:
        raise ValueError(f"need at least one shuffle, got {n_shuffles}")
    values = np.asarray(matrix.values, dtype=np.float64)
    n_dec = values.shape[1]
    if n_dec < MIN_SLOPE_DECADES:
        raise DataError(f"need at least {MIN_SLOPE_DECADES} decades, got {n_dec}")
    if permutations is None:
        children = np.random.SeedSequence(seed).spawn(n_shuffles)
        perms = np.stack([np.random.default_rng(c).permutation(n_dec) for c in children])
    else:
        perms = [np.asarray(p) for p in permutations]
        for i, perm in enumerate(perms):
            if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm),
                                                                 np.arange(n_dec)):
                raise ValueError(f"shuffle {i}: not a permutation of the "
                                 f"{n_dec} decade columns")
        perms = np.stack(perms)

    sample = _ChangeSample(values, list(matrix.words), *factor_tables(norms, frequencies))
    base_fit = sample.fit()[0]
    changed = sample.changed(perms)
    control = np.empty((len(REGRESSION_FACTORS), n_shuffles))
    for i, perm in enumerate(perms):
        try:
            sel, slopes = sample.slopes(changed[:, i], perm)
            x = sample.design[sel]
            for name, col in zip(("y",) + REGRESSION_FACTORS, (slopes, *x.T[1:])):
                _column(name, col)  # the refusals of multiple_regression
            control[:, i] = _solve(x, slopes)[1:]
        except DataError as exc:
            raise DataError(f"shuffle {i}: {exc}") from exc

    factors: dict[str, FactorControl] = {}
    for name, ctrl in zip(REGRESSION_FACTORS, control):
        observed = base_fit.coefficients[name]
        extreme = int(np.count_nonzero(np.abs(ctrl) >= abs(observed)))
        factors[name] = FactorControl(
            diachronic_coefficient=observed,
            control_mean=float(ctrl.mean()),
            control_stdev=float(ctrl.std(ddof=1)) if n_shuffles > 1 else 0.0,
            empirical_p=(1 + extreme) / (n_shuffles + 1),
        )
    return PermutationReport(factors=factors, n_shuffles=n_shuffles, seed=seed)


# ---------------------------------------------------------------------------
# Fisher discriminant projection
# ---------------------------------------------------------------------------

def _query_rows(queries) -> np.ndarray:
    rows = []
    for q in queries:
        rows.append(q.values if isinstance(q, QueryVector) else np.asarray(q, dtype=np.float64))
    if not rows:
        return np.empty((0, 0))
    return np.vstack(rows)


def fisher_projection(class_vectors: Mapping[str, Sequence],
                      queries: Sequence,
                      anchors: Mapping[str, Sequence] | None = None,
                      ridge: float = 1e-6) -> ProjectionResult:
    """Project queries onto the top-2 Fisher discriminant axes of three
    seed classes (typically virtue / vice / irrelevance).

    The within-class scatter is ridge-regularized (seed counts can fall
    below the embedding dimensionality). Axis signs are fixed so each
    axis's largest-magnitude entry is positive. ``anchors`` adds extra
    labelled vector sets whose centroids are projected as map anchors.
    """
    if len(class_vectors) != 3:
        raise DataError(f"fisher_projection expects exactly 3 classes, got {len(class_vectors)}")
    labels = list(class_vectors)
    matrices = []
    for label in labels:
        m = np.asarray(class_vectors[label], dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 2:
            raise DataError(f"class {label!r} needs at least 2 vectors")
        matrices.append(m)
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DataError(f"classes disagree on dimensionality: {sorted(dims)}")
    dim = dims.pop()

    total = np.vstack(matrices)
    grand_mean = total.mean(axis=0)
    s_w = ridge * np.eye(dim)
    s_b = np.zeros((dim, dim))
    centroids = {}
    for label, m in zip(labels, matrices):
        mu = m.mean(axis=0)
        centroids[label] = mu
        dev = m - mu
        s_w += dev.T @ dev
        gap = (mu - grand_mean)[:, None]
        s_b += m.shape[0] * (gap @ gap.T)

    import scipy.linalg

    try:
        eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DataError(f"discriminant eigensolve failed: {exc}") from exc
    axes = eigvecs[:, [-1, -2]]
    for j in range(2):
        col = axes[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            axes[:, j] = -col

    q = _query_rows(queries)
    if q.size and q.shape[1] != dim:
        raise DataError(f"queries have dimension {q.shape[1]}, classes have {dim}")
    query_coords = q @ axes if q.size else np.empty((0, 2))

    class_coords = {label: centroids[label] @ axes for label in labels}
    anchor_coords = {}
    if anchors:
        for label, vectors in anchors.items():
            m = np.asarray(vectors, dtype=np.float64)
            if m.ndim == 1:
                m = m.reshape(1, -1)
            anchor_coords[label] = m.mean(axis=0) @ axes
    return ProjectionResult(query_coords=query_coords, class_coords=class_coords,
                            anchor_coords=anchor_coords, axes=axes)
