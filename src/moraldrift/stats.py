"""Statistical primitives: OLS regression, correlations, permutation
controls, and a regularized Fisher-discriminant 2D projection.

Also hosts the broad-scale pipeline that regresses per-word rates of
moral-relevance change on psycholinguistic factors (log frequency,
word length, concreteness), which the permutation control re-runs on
decade-shuffled score matrices.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DataError
from .lexicon import NormTable

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


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit with per-coefficient t statistics and p-values."""

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    n: int
    r_squared: float

    def partial(self, name: str) -> CorrelationReport:
        """The partial correlation of y and factor ``name`` given the fit's
        other columns, read off the fit (Frisch-Waugh-Lovell; Lovell, JASA
        1963): r = t / sqrt(t^2 + dof) for dof = n - len(coefficients), ±1
        with the coefficient's sign at infinite t, and p is the factor's p."""
        t = self.t_stats[name]
        dof = self.n - len(self.coefficients)
        r = math.copysign(1.0, t) if math.isinf(t) else t / math.hypot(t, math.sqrt(dof))
        return CorrelationReport(r=r, p=self.p_values[name], n=self.n)


@dataclass(frozen=True)
class FactorControl:
    """One factor's diachronic coefficient against its shuffled control."""

    diachronic_coefficient: float
    control_mean: float
    control_stdev: float
    empirical_p: float


@dataclass(frozen=True)
class PermutationReport:
    factors: dict[str, FactorControl]
    n_shuffles: int
    seed: int


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
    t = r * np.sqrt((n - 2) / (1.0 - r * r)) if r * r < 1.0 else np.inf  # p = 0 at |r| = 1
    return CorrelationReport(r=r, p=float(_two_sided_p(t, n - 2)), n=n)


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# log Γ(a + 1/2)/Γ(a) - (log a)/2 = Σ c_k a^-k over odd k, c_k = (-1)^(k+1)
# (B_(k+1)(1/2) - B_(k+1)) / (k (k+1)) (Stirling, with Bernoulli polynomials);
# the first omitted term is below 3e-18 for a >= 16.
_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)
_MAX_TERMS = 1000
_TINY = 1e-300  # modified Lentz: a vanishing denominator is replaced by this
_EPS = float(np.finfo(np.float64).eps)
_RIDGE = 1e-6  # on the within-class scatter's diagonal: seeds can be fewer than dimensions
_COLLINEAR = 8 * _EPS  # Fisher lambda_2 / lambda_1 at or below this is rounding


def _two_sided_p(t_stat, df):
    """Two-sided Student-t p-value, 2 * P(T_df > |t|), elementwise, for
    df >= 1 (every caller passes an integer df).

    p is the regularized incomplete beta function I_x(df/2, 1/2) at
    x = df / (df + t^2), from its continued fraction (``_beta_fraction``).
    Exactly 1 at t = 0, 0 at |t| = inf and wherever p underflows, NaN for
    a NaN t; no floating-point warnings."""
    t = np.abs(np.asarray(t_stat, dtype=np.float64))
    nu = np.broadcast_to(np.asarray(df, dtype=np.float64), t.shape)
    if np.any(nu < 1.0):
        raise ValueError("a t-test needs at least 1 degree of freedom")
    s = t / np.sqrt(nu)  # 0 also for a subnormal t
    p = np.where(s == 0.0, 1.0, np.where(s == np.inf, 0.0, np.nan))
    inside = (s > 0.0) & (s < np.inf)
    p[inside] = _t_tail(s[inside], 0.5 * nu[inside])
    return p


def _t_tail(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """I_x(a, 1/2) for x = 1 / (1 + s^2), s = |t| / sqrt(df) finite and
    positive, a = df / 2.

    x, y = 1 - x and their logs come from r = min(s, 1/s), so that s^2
    never overflows: x and y are 1 / (1 + r^2) and r^2 / (1 + r^2) in some
    order. The fraction converges fast for x < (a + 1) / (a + 5/2);
    elsewhere I_x(a, 1/2) = 1 - I_y(1/2, a), which is then at least 0.08."""
    big = s > 1.0
    r = np.divide(1.0, s, out=s.copy(), where=big)
    l = np.log1p(r * r)
    near, far = np.exp(-l), -np.expm1(-l)
    log_near, log_far = -l, 2.0 * np.log(r) - l
    x, y = np.where(big, far, near), np.where(big, near, far)
    log_x, log_y = np.where(big, log_far, log_near), np.where(big, log_near, log_far)
    # log B(a, 1/2) = log Γ(1/2) - log Γ(a + 1/2)/Γ(a)
    halves, at = np.unique(a, return_inverse=True)
    log_ratio = np.array([_log_gamma_ratio(h) for h in halves.tolist()])[at]
    front = np.exp(a * log_x + 0.5 * log_y + log_ratio - _LOG_SQRT_PI)  # x^a y^½ / B
    swap = x > (a + 1.0) / (a + 2.5)
    first = np.where(swap, 0.5, a)
    part = front / first * _beta_fraction(first, np.where(swap, a, 0.5),
                                          np.where(swap, y, x), np.where(swap, x, y))
    return np.where(swap, 1.0 - part, part)


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + 1/2)/Γ(a): from ``math.lgamma`` below 16 and from its
    asymptotic series above. The difference of two lgammas of size
    a log a keeps their absolute error: 2e-11 at a = 5e4, 5e-10 at 5e5."""
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv2 = 1.0 / (a * a)
    acc = 0.0
    for c in reversed(_RATIO_SERIES):
        acc = acc * inv2 + c
    return 0.5 * math.log(a) + acc / a


def _beta_fraction(a, b, x, y):
    """I_x(a, b) · a B(a, b) / (x^a y^b) for y = 1 - x, b <= 1 or a <= 1.

    The continued fraction of DLMF 8.17.22, 1 / (1 + d1 / (1 + d2 / ...)),
    is 1 - d1 / G, where G = 1 + d1 + d2 - d2 d3 / (1 + d3 + d4 - ...) is
    its even part, summed by modified Lentz. G takes 1 + d(2m+1) as y plus
    a multiple of x, a sum of terms of one sign when b <= 1. The plain
    fraction forms it as 1 minus a number near 1 and loses about log10(a)
    digits at large a and x near 1 (3e-11 relative at df = 1e6)."""
    def d_even(m):
        return m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))

    even = d_even(1)
    g = y + (1.0 - b) * x / (a + 1.0) + even
    g = np.where(np.abs(g) < _TINY, _TINY, g)
    c, d = g, np.zeros_like(g)
    for m in range(1, _MAX_TERMS + 1):
        q = (a + 2 * m) * (a + 2 * m + 1)
        numerator = even * (a + m) * (a + b + m) * x / q  # -d(2m) d(2m+1)
        even = d_even(m + 1)
        denominator = y + (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)) * x / q + even
        d = denominator + numerator * d
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = denominator + numerator / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = c * d
        g = g * delta
        if np.all(np.abs(delta - 1.0) <= _EPS):
            return 1.0 + (a + b) * x / ((a + 1.0) * g)
    raise ArithmeticError(f"incomplete beta fraction did not converge in {_MAX_TERMS} terms")


def slope_rows(values: np.ndarray, t_values: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row OLS slopes of ``values`` on ``t_values`` with two-sided
    t-test p-values, in one vectorized pass.

    NaN entries are missing: each row is fitted on its finite entries
    only, against the matching abscissa values (default 1..n_columns).
    ``values`` is 2-D, a row per time course. Every row needs at least 3
    finite entries, and a ±inf entry is refused. A zero-residual fit
    follows ``_t_test``'s zero-error rule: p = 0 for a nonzero slope and
    p = 1 for a zero slope.

    The row sums follow the input's memory layout, so the last bits of a
    slope depend on it: callers pass C-ordered rows (a column gather such
    as ``values[:, perm]`` is Fortran-ordered).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"slope rows must be 2-D, got {values.ndim}-D")
    _refuse_infinite(values)
    counts = np.isfinite(values).sum(axis=1)
    if (short := np.flatnonzero(counts < 3)).size:
        raise DataError(f"row {short[0]} has {counts[short[0]]} finite entries; "
                        f"a slope test needs at least 3")
    slopes, tc, yc, k, sxx = _slopes(values, t_values)
    resid = yc - slopes[:, None] * tc
    se = np.sqrt(np.sum(resid * resid, axis=1) / (k - 2) / sxx)
    return slopes, _t_test(slopes, se, k - 2)[1]


def _decade_steps(decades: Sequence[int]) -> np.ndarray:
    """The abscissa of change slopes: 1 at the first decade, one step per
    ten years (1..n for n consecutive decades), so a slope is per decade."""
    decades = np.asarray(decades, dtype=np.float64)
    return (decades - decades[0]) / 10 + 1


def _refuse_infinite(values: np.ndarray, words: Sequence[str] | None = None) -> None:
    """Refuse a score row holding ±inf, naming the row (or its word): only
    NaN means a missing score."""
    if (bad := np.flatnonzero(np.isinf(values).any(axis=1))).size:
        row = f"word {words[bad[0]]!r}" if words is not None else f"row {bad[0]}"
        raise DataError(f"{row} has an infinite score; only NaN marks a missing one")


def _slopes(values: np.ndarray, t_values: np.ndarray | None = None,
            work: np.ndarray | None = None):
    """The slopes of ``slope_rows`` without their p-values; also returns
    the centred abscissa and values, the finite counts and the abscissa
    sums of squares that the p-values need. These are computed in
    ``work``, float64 (3, at least n_rows, n_columns), if given; ``values``
    may be its second slab."""
    values = np.asarray(values, dtype=np.float64)
    if t_values is None:
        t_values = np.arange(1, values.shape[1] + 1, dtype=np.float64)
    tc, yc, prod = np.empty((3, *values.shape)) if work is None else work[:, :len(values)]
    absent = ~np.isfinite(values)
    k = values.shape[1] - absent.sum(axis=1)
    for centred, x in ((tc, t_values), (yc, values)):  # minus the mean; 0 where absent
        np.copyto(centred, x)
        np.copyto(centred, 0.0, where=absent)
        np.subtract(centred, (centred.sum(axis=1) / k)[:, None], out=centred)
        np.copyto(centred, 0.0, where=absent)
    sxx = np.multiply(tc, tc, out=prod).sum(axis=1)
    if np.any(sxx == 0.0):
        raise DataError("abscissa has zero variance")
    return np.multiply(tc, yc, out=prod).sum(axis=1) / sxx, tc, yc, k, sxx


def _t_test(estimates: np.ndarray, std_errors: np.ndarray, dof) -> tuple[np.ndarray, np.ndarray]:
    """t statistics and two-sided p-values of ``estimates`` over their
    ``std_errors`` with ``dof`` degrees of freedom. At a zero standard
    error a zero estimate gets t = 0 and p = 1, any other t = ±inf and
    p = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std_errors == 0.0,
                     np.where(estimates == 0.0, 0.0, np.copysign(np.inf, estimates)),
                     estimates / std_errors)
    return t, _two_sided_p(t, dof)


def _least_squares(y, factors: Mapping[str, Sequence[float]]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked least-squares part of ``multiple_regression``: ``y`` and
    each factor column must be one-dimensional, finite and of one length,
    with more samples than coefficients, and the design (intercept, then
    ``factors`` in order) must have full rank, by the solve's own rank
    (singular values above eps * max(n, p) times the largest). Returns y,
    the design and the coefficients."""
    ya = _column("y", y)
    n = ya.shape[0]
    if n <= len(factors) + 1:
        raise DataError(f"need more than {len(factors) + 1} samples, got {n}")
    x = np.ones((n, len(factors) + 1))
    for j, (name, col) in enumerate(factors.items(), 1):
        x[:, j] = _column(name, col, n)
    beta, _, rank, _ = np.linalg.lstsq(x, ya, rcond=None)
    if rank < x.shape[1]:
        raise DataError("design matrix is rank-deficient (collinear factors)")
    return ya, x, beta


def multiple_regression(y: Sequence[float],
                        factors: Mapping[str, Sequence[float]]) -> RegressionFit:
    """OLS with intercept; two-sided t-test p-value per coefficient."""
    ya, x, beta = _least_squares(y, factors)
    n, p_cols = x.shape
    resid = ya - x @ beta
    rss = float(resid @ resid)
    dof = n - p_cols
    se = np.sqrt(np.diag(rss / dof * np.linalg.inv(x.T @ x)))
    t_stats, p = _t_test(beta, se, dof)
    tss = float(np.sum((ya - ya.mean()) ** 2))
    r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
    names = ["intercept", *factors]
    return RegressionFit(coefficients=dict(zip(names, beta.tolist())),
                         std_errors=dict(zip(names, se.tolist())),
                         t_stats=dict(zip(names, t_stats.tolist())),
                         p_values=dict(zip(names, p.tolist())), n=n, r_squared=r_squared)


# ---------------------------------------------------------------------------
# Broad-scale change regression and its shuffled control
# ---------------------------------------------------------------------------

class _ChangeSample:
    """The rows of a relevance ``PredictionMatrix`` that can enter the
    change regression, found once for any number of decade shuffles:
    words with at least ``MIN_SLOPE_DECADES`` scored decades and an entry
    in both tables of ``factor_tables(norms, frequencies)``. Holds their
    score rows (C-ordered), relevance classes (score > 0.5) and factor
    columns (``REGRESSION_FACTORS``), the rows with gaps (with their
    presence and classes) and the decades' ``_decade_steps``. A matrix
    whose kind is not relevance, or that holds a ±inf score, is refused."""

    def __init__(self, matrix: "PredictionMatrix", norms: NormTable,
                 frequencies: Mapping[str, float] | Sequence[tuple[str, float]]):
        if matrix.kind != "relevance":
            raise DataError(f"change regression needs a relevance matrix, got {matrix.kind!r}")
        concreteness, log_frequency = factor_tables(norms, frequencies)
        values = np.asarray(matrix.values, dtype=np.float64)
        words = matrix.words
        _refuse_infinite(values, words)
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
        present = np.isfinite(self.values)
        self.high = self.values > 0.5
        gappy = np.flatnonzero(~present.all(axis=1))
        self.gaps = gappy, present[gappy], self.high[gappy]
        self.steps = _decade_steps(matrix.decades)
        self.work = np.empty((3, *self.values.shape))  # _slopes' buffers, for any shuffle

    def select(self, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """The rows one decade shuffle selects, their change slopes and their
        factor columns: the slopes fit the score columns in ``perm`` order
        against the decades in matrix order. A row is selected when its
        relevance class (score vs 0.5) differs between its first and last
        scored decade in ``perm`` order: column ``perm[0]`` and ``perm[-1]``
        for a row without gaps, found per shuffle for a row with gaps."""
        changed = self.high[:, perm[0]] != self.high[:, perm[-1]]
        gappy, present, high = self.gaps
        if gappy.size:
            shuffled, rows = present[:, perm], np.arange(gappy.size)
            first_col = perm[np.argmax(shuffled, axis=1)]
            last_col = perm[len(perm) - 1 - np.argmax(shuffled[:, ::-1], axis=1)]
            changed[gappy] = high[rows, first_col] != high[rows, last_col]
        sel = np.flatnonzero(changed)
        if sel.size <= len(REGRESSION_FACTORS) + 1:
            raise DataError(
                f"only {sel.size} words qualify for the change regression; "
                f"need more than {len(REGRESSION_FACTORS) + 1}")
        # The C-ordered rows in ``perm`` column order, gathered in ``work``; the
        # indices are in range, and mode "raise" would gather via a new buffer.
        rows, gathered = self.work[2, :sel.size], self.work[1, :sel.size]
        np.take(self.values, sel, axis=0, out=rows, mode="clip")
        np.take(rows, perm, axis=1, out=gathered, mode="clip")
        factors = {name: col[sel] for name, col in self.factors.items()}
        return sel, _slopes(gathered, self.steps, work=self.work)[0], factors

    def fit(self) -> tuple[RegressionFit, list[str]]:
        """The unshuffled regression (see ``psycholinguistic_regression``):
        the fit and the words that entered it."""
        sel, slopes, factors = self.select(np.arange(self.values.shape[1]))
        return multiple_regression(slopes, factors), [self.words[i] for i in sel]


def factor_tables(norms: NormTable,
                  frequencies: Mapping[str, float] | Sequence[tuple[str, float]]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Word -> concreteness and word -> log frequency; words without a
    concreteness rating or with a non-positive frequency are left out."""
    rated = np.flatnonzero(~np.isnan(norms.concreteness))
    concreteness = dict(zip([norms.words[i] for i in rated],
                            norms.concreteness[rated].tolist()))
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
    norms: NormTable,
    frequencies: Mapping[str, float] | Sequence[tuple[str, float]],
) -> tuple[RegressionFit, list[str]]:
    """Regress per-word relevance-change slopes, per decade, on log
    frequency, word length, and concreteness.

    The sample is restricted to words whose relevance class (score vs
    0.5) differs between their first and last unmasked decades, i.e.
    words that changed relevance in either direction. Returns the fit
    and the words that entered it. A matrix whose kind is not relevance,
    or that holds a ±inf score, is refused.
    """
    return _ChangeSample(matrix, norms, frequencies).fit()


def permutation_control(
    matrix: "PredictionMatrix",
    norms: NormTable,
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
    correction. Deterministic under a fixed seed, a non-negative integer.

    The candidate words and their factor columns do not depend on the
    shuffle and are found once, and so are each word's relevance classes
    and the words with gaps. Each shuffle then takes its own change
    filter, one column per word (see ``_ChangeSample.select``), fits
    slopes on the rows it selects and solves through ``_least_squares``,
    the checked solve of ``multiple_regression``, without its t-tests: a
    shuffle's refusals are the regression's, prefixed with its index, and
    its coefficients equal, bit for bit, a ``psycholinguistic_regression``
    run on the shuffled matrix. A matrix whose kind is not relevance, or
    that holds a ±inf score, is refused.

    ``permutations`` overrides the seeded shuffles (for controls/tests);
    each must be a permutation of ``range(n_decades)``.
    """
    n_shuffles = n_shuffles if permutations is None else len(permutations)
    if n_shuffles < 1:
        raise ValueError(f"need at least one shuffle, got {n_shuffles}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_dec = np.shape(matrix.values)[1]
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

    sample = _ChangeSample(matrix, norms, frequencies)
    base_fit = sample.fit()[0]
    control = np.empty((len(REGRESSION_FACTORS), n_shuffles))
    for i, perm in enumerate(perms):
        try:
            _, slopes, factors = sample.select(perm)
            control[:, i] = _least_squares(slopes, factors)[2][1:]  # no t-tests
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

def fisher_projection(class_vectors: Mapping[str, Sequence]) -> np.ndarray:
    """The (dim, 2) top-2 Fisher discriminant axes of three seed classes
    (typically virtue / vice / irrelevance); ``points @ axes`` projects.

    With S_w the ridge-regularized within-class scatter and G = [sqrt(n_c)
    (mu_c - mu)], S_b = G G^T has rank 2: the axes are S_w^-1 G y / sqrt(l)
    for the top two eigenpairs (l, y) of the 3x3 G^T S_w^-1 G. Collinear
    class means are refused. Each axis's largest-magnitude entry is
    positive.
    """
    if len(class_vectors) != 3:
        raise DataError(f"fisher_projection expects exactly 3 classes, got {len(class_vectors)}")
    matrices = []
    for label, vectors in class_vectors.items():
        m = np.asarray(vectors, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 2:
            raise DataError(f"class {label!r} needs at least 2 vectors")
        matrices.append(m)
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DataError(f"classes disagree on dimensionality: {sorted(dims)}")
    dim = dims.pop()

    grand_mean = np.vstack(matrices).mean(axis=0)
    s_w = _RIDGE * np.eye(dim)
    gaps = []
    for m in matrices:
        mu = m.mean(axis=0)
        dev = m - mu
        s_w += dev.T @ dev
        gaps.append(math.sqrt(m.shape[0]) * (mu - grand_mean))
    g = np.column_stack(gaps)
    try:
        w = np.linalg.solve(s_w, g)
        eigvals, eigvecs = np.linalg.eigh(g.T @ w)  # ascending
    except np.linalg.LinAlgError as exc:
        raise DataError(f"discriminant solve failed: {exc}") from exc
    if not eigvals[1] > _COLLINEAR * eigvals[2]:
        raise DataError("the three class means are collinear: no second discriminant axis")
    axes = w @ (eigvecs[:, [2, 1]] / np.sqrt(eigvals[[2, 1]]))
    for j in range(2):
        col = axes[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            axes[:, j] = -col
    return axes
