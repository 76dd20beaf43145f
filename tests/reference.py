"""Brute-force reference implementations used as independent oracles.

These deliberately avoid the library's vectorized/log-space code paths:
densities are computed term by term with math.exp, neighbors by a full
sort. Slow and only suitable for small instances.
"""
import math

import numpy as np


def _normalize(scores):
    total = sum(scores.values())
    return {c: s / total for c, s in scores.items()}


def centroid_posterior(q, class_vectors):
    q = np.asarray(q, dtype=float)
    scores = {}
    for label, vectors in class_vectors.items():
        mean = np.mean(np.asarray(vectors, dtype=float), axis=0)
        scores[label] = math.exp(-float(np.linalg.norm(q - mean)))
    return _normalize(scores)


def naive_bayes_scores(q, class_vectors, variance_floor=1e-8):
    """Unnormalized direct density products (can underflow to zero)."""
    q = np.asarray(q, dtype=float)
    scores = {}
    for label, vectors in class_vectors.items():
        mat = np.asarray(vectors, dtype=float)
        mu = mat.mean(axis=0)
        var = np.maximum(mat.var(axis=0), variance_floor)
        density = 1.0
        for j in range(q.shape[0]):
            density *= math.exp(-(q[j] - mu[j]) ** 2 / (2.0 * var[j])) \
                / math.sqrt(2.0 * math.pi * var[j])
        scores[label] = density
    return scores


def nb_log_likelihood(q, mean, var):
    """The diagonal-Gaussian log density as one expression, with a new
    n x d array per operation (the kernel before it worked in place)."""
    dev = q - mean
    return -0.5 * np.sum(math.log(2.0 * math.pi) + np.log(var) + dev * dev / var, axis=1)


def naive_bayes_posterior(q, class_vectors, variance_floor=1e-8):
    return _normalize(naive_bayes_scores(q, class_vectors, variance_floor))


def knn_posterior(q, class_vectors, k):
    q = np.asarray(q, dtype=float)
    dists = []
    for label, vectors in class_vectors.items():
        for v in np.asarray(vectors, dtype=float):
            dists.append((float(np.linalg.norm(q - v)), label))
    dists.sort(key=lambda pair: pair[0])
    counts = {label: 0 for label in class_vectors}
    for _, label in dists[:k]:
        counts[label] += 1
    return _normalize(counts)


def kde_posterior(q, class_vectors, h):
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    scores = {}
    for label, vectors in class_vectors.items():
        mat = np.asarray(vectors, dtype=float)
        total = 0.0
        for w in mat:
            density = 1.0
            for j in range(d):
                density *= math.exp(-(q[j] - w[j]) ** 2 / (2.0 * h)) \
                    / math.sqrt(2.0 * math.pi * h)
            total += density
        scores[label] = total / mat.shape[0]
    return _normalize(scores)


def argmax_label(probs, class_order):
    """First class (in declared order) attaining the maximum probability."""
    best = max(probs[c] for c in class_order)
    for c in class_order:
        if probs[c] == best:
            return c
    raise AssertionError("unreachable")


def loo_accuracy(posterior_fn, class_vectors):
    """Brute-force leave-one-out accuracy for any posterior function."""
    labels = list(class_vectors)
    correct = total = 0
    for label in labels:
        mat = np.asarray(class_vectors[label], dtype=float)
        for i in range(mat.shape[0]):
            fold = {c: np.asarray(v, dtype=float) for c, v in class_vectors.items()}
            fold[label] = np.delete(mat, i, axis=0)
            probs = posterior_fn(mat[i], fold)
            if argmax_label(probs, labels) == label:
                correct += 1
            total += 1
    return correct / total


# ---------------------------------------------------------------------------
# word2vec readers, row by row (the readers before the one-buffer rewrite)
# ---------------------------------------------------------------------------

def _word2vec_header(line):
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"malformed header {line!r}")
    count, dim = int(parts[0]), int(parts[1])
    if count <= 0 or dim <= 0:
        raise ValueError("header counts must be positive")
    return count, dim


def word2vec_text(path):
    """(words, float64 matrix, duplicates dropped); ValueError if rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        count, dim = _word2vec_header(fh.readline())
        words, seen, vectors, n_dup = [], set(), [], 0
        for line in fh:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ValueError(f"expected {dim} values, got {len(parts) - 1}")
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            if not np.all(np.isfinite(vec)):
                raise ValueError("non-finite vector entry")
            if parts[0] in seen:
                n_dup += 1
                continue
            seen.add(parts[0])
            words.append(parts[0])
            vectors.append(vec)
    if len(words) + n_dup != count:
        raise ValueError(f"header declares {count} entries, found {len(words) + n_dup}")
    return words, np.vstack(vectors), n_dup


def _binary_word(fh):
    chunks = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            return chunks.decode("utf-8") if chunks else None
        if ch == b" ":
            return chunks.decode("utf-8")
        if ch == b"\n" and not chunks:
            continue  # newline separators between entries
        chunks.extend(ch)


def word2vec_binary(path):
    """(words, float64 matrix, duplicates dropped); ValueError if rejected.
    Reads exactly the header's count of entries, one byte at a time."""
    with open(path, "rb") as fh:
        count, dim = _word2vec_header(fh.readline().decode("utf-8"))
        words, seen, vectors, n_dup = [], set(), [], 0
        for _ in range(count):
            word = _binary_word(fh)
            raw = fh.read(4 * dim)
            if word is None or len(raw) != 4 * dim:
                raise ValueError("truncated file")
            vec = np.frombuffer(raw, dtype="<f4")
            if not np.all(np.isfinite(vec)):  # before widening, which warns on a signalling NaN
                raise ValueError(f"non-finite vector for word {word!r}")
            vec = vec.astype(np.float64)
            if word in seen:
                n_dup += 1
                continue
            seen.add(word)
            words.append(word)
            vectors.append(vec)
    return words, np.vstack(vectors), n_dup


def space_index(words):
    """An embedding space's word -> row index, built word by word; or,
    for a vocabulary the space refuses, the message naming its first
    empty or repeated word."""
    index = {}
    for i, w in enumerate(words):
        if not w:
            return "empty word in vocabulary"
        if w in index:
            return f"duplicate word in vocabulary: {w!r}"
        index[w] = i
    return index


# ---------------------------------------------------------------------------
# The change regression and its shuffled control, one full pass per shuffle
# (the loop before the batched change filter)
# ---------------------------------------------------------------------------

def decade_abscissa(decades):
    """Slope x values: one step per ten years, 1 at the first decade."""
    return np.array([(d - decades[0]) / 10 + 1 for d in decades])


def changed_word_fit(values, decades, words, concreteness, log_frequency):
    """The change regression's coefficients, found row by row from the
    first and last scored decade of each word, with slopes over
    ``decades``."""
    from moraldrift.errors import DataError
    from moraldrift.stats import MIN_SLOPE_DECADES, multiple_regression, slope_rows

    present = np.isfinite(values)
    selected = []
    for i, row in enumerate(values):
        cols = np.flatnonzero(present[i])
        if cols.size < MIN_SLOPE_DECADES:
            continue
        if (row[cols[0]] > 0.5) != (row[cols[-1]] > 0.5) \
                and words[i] in concreteness and words[i] in log_frequency:
            selected.append(i)
    if len(selected) <= 4:
        raise DataError(f"only {len(selected)} words qualify for the change "
                        f"regression; need more than 4")
    kept = [words[i] for i in selected]
    slopes, _ = slope_rows(values[np.array(selected)], decade_abscissa(decades))
    return multiple_regression(slopes, {
        "frequency": np.array([log_frequency[w] for w in kept]),
        "length": np.array([float(len(w)) for w in kept]),
        "concreteness": np.array([concreteness[w] for w in kept]),
    })


def permutation_control_loop(matrix, norms, frequencies, n_shuffles=1000, seed=0,
                             permutations=None):
    """(PermutationReport, control coefficients (shuffles, 3)): the
    change regression re-run on each decade-shuffled copy of the matrix."""
    from moraldrift.errors import DataError
    from moraldrift.stats import (REGRESSION_FACTORS, FactorControl,
                                  PermutationReport, factor_tables)

    values = np.asarray(matrix.values, dtype=np.float64)
    tables = factor_tables(norms, frequencies)
    words = list(matrix.words)
    base = changed_word_fit(values, matrix.decades, words, *tables)
    if permutations is None:
        children = np.random.SeedSequence(seed).spawn(n_shuffles)
        permutations = [np.random.default_rng(c).permutation(values.shape[1])
                        for c in children]
    n_shuffles = len(permutations)
    control = np.empty((n_shuffles, len(REGRESSION_FACTORS)))
    for i, perm in enumerate(permutations):
        try:
            fit = changed_word_fit(values[:, perm], matrix.decades, words, *tables)
        except DataError as exc:
            raise DataError(f"shuffle {i}: {exc}") from exc
        control[i] = [fit.coefficients[name] for name in REGRESSION_FACTORS]
    factors = {}
    for j, name in enumerate(REGRESSION_FACTORS):
        observed = base.coefficients[name]
        ctrl = control[:, j].copy()
        factors[name] = FactorControl(
            diachronic_coefficient=observed,
            control_mean=float(ctrl.mean()),
            control_stdev=float(ctrl.std(ddof=1)) if n_shuffles > 1 else 0.0,
            empirical_p=(1 + int(np.count_nonzero(np.abs(ctrl) >= abs(observed))))
            / (n_shuffles + 1))
    return PermutationReport(factors=factors, n_shuffles=n_shuffles, seed=seed), control


def ols(y, factors):
    """OLS with intercept by the normal equations: ``(coefficients, standard
    errors, p-values, r_squared)``, the first three as dicts keyed by
    "intercept" and the factor names, p-values from ``scipy.stats.t``."""
    from scipy import stats

    y = np.asarray(y, dtype=float)
    names = ["intercept", *factors]
    x = np.column_stack([np.ones(len(y))] + [np.asarray(v, dtype=float)
                                             for v in factors.values()])
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    dof = len(y) - x.shape[1]
    se = np.sqrt(np.diag(xtx_inv) * float(resid @ resid) / dof)
    p = 2.0 * stats.t.sf(np.abs(beta / se), dof)
    r_squared = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
    return (dict(zip(names, beta.tolist())), dict(zip(names, se.tolist())),
            dict(zip(names, p.tolist())), r_squared)


def partial_correlation(target, factor, controls):
    """``(r, p)``: the Pearson correlation of the OLS residuals of ``target``
    and ``factor`` on an intercept and the ``controls`` columns (the plain
    correlation with no controls), and the two-sided p of its t-test on
    n - 2 - len(controls) degrees of freedom, from ``scipy.stats.t``."""
    from scipy import stats

    target, factor = np.asarray(target, dtype=float), np.asarray(factor, dtype=float)
    n = len(target)
    if controls:
        x = np.column_stack([np.ones(n)] + [np.asarray(v, dtype=float)
                                            for v in controls.values()])
        target, factor = (v - x @ np.linalg.lstsq(x, v, rcond=None)[0]
                          for v in (target, factor))
    tc, fc = target - target.mean(), factor - factor.mean()
    r = float(np.sum(tc * fc) / (np.sqrt(np.sum(tc * tc)) * np.sqrt(np.sum(fc * fc))))
    dof = n - 2 - len(controls)
    return r, float(2.0 * stats.t.sf(abs(r) * math.sqrt(dof / (1.0 - r * r)), dof))


def two_sided_t_p(t, df, dps=40):
    """2 P(T_df > |t|) in mpmath at ``dps`` digits, rounded to a float:
    I_x(a, 1/2) with a = df/2, x = df / (df + t^2), y = 1 - x, from
    I_x(a, b) = x^a y^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x) (DLMF 8.17.8).
    For x above (a + 1) / (a + 5/2) it takes 1 - I_y(1/2, a) instead, as
    mpmath's 2F1 loses digits near x = 1 (p is then at least 0.08). Below,
    the 2F1 is at most 1/y, so where x^a y^(-1/2) / (a B) is below 1e-320
    the result is 0.0 without it (mpmath cannot sum it there)."""
    import mpmath

    def incomplete(a, b, x, y, floor):
        log_front = (a * mpmath.log(x) + b * mpmath.log(y) - mpmath.log(a)
                     - mpmath.log(mpmath.beta(a, b)))
        if floor and log_front - mpmath.log(y) < mpmath.log(mpmath.mpf("1e-320")):
            return mpmath.mpf(0)
        return mpmath.exp(log_front) * mpmath.hyp2f1(a + b, 1, a + 1, x)

    with mpmath.workdps(dps):
        t = abs(mpmath.mpf(float(t)))
        if t == 0:
            return 1.0
        nu = mpmath.mpf(df)
        a, half = nu / 2, mpmath.mpf(1) / 2
        x, y = nu / (nu + t * t), t * t / (nu + t * t)
        if x > (a + 1) / (a + half + 2):
            return float(1 - incomplete(half, a, y, x, floor=False))
        return float(incomplete(a, half, x, y, floor=True))


def _signed_axes(axes):
    """Each column flipped so that its largest-magnitude entry is positive."""
    axes = np.array(axes, dtype=float)
    for j in range(axes.shape[1]):
        if axes[int(np.argmax(np.abs(axes[:, j]))), j] < 0:
            axes[:, j] = -axes[:, j]
    return axes


def fisher_axes_scipy(class_vectors, ridge=1e-6):
    """The top two generalized eigenvectors of (S_b, S_w + ridge I), both
    d x d scatters built in full, from ``scipy.linalg.eigh``."""
    import scipy.linalg

    mats = [np.asarray(m, dtype=float) for m in class_vectors.values()]
    grand = np.vstack(mats).mean(axis=0)
    s_w = ridge * np.eye(grand.shape[0])
    s_b = np.zeros_like(s_w)
    for m in mats:
        mu = m.mean(axis=0)
        s_w += (m - mu).T @ (m - mu)
        s_b += m.shape[0] * np.outer(mu - grand, mu - grand)
    return _signed_axes(scipy.linalg.eigh(s_b, s_w)[1][:, [-1, -2]])


def fisher_axes_mpmath(class_vectors, ridge=1e-6, dps=60):
    """The same axes in mpmath at ``dps`` digits, rounded to floats: with
    S_w = L L^T, the top two eigenvectors z of the d x d symmetric
    L^-1 S_b L^-T give v = L^-T z, so that v^T S_w v = 1."""
    import mpmath

    with mpmath.workdps(dps):
        mats = [mpmath.matrix(np.asarray(m, dtype=float).tolist())
                for m in class_vectors.values()]
        d, n = mats[0].cols, sum(m.rows for m in mats)

        def column_mean(rows):
            return mpmath.matrix([mpmath.fsum(m[i, j] for m in rows for i in range(m.rows))
                                  / sum(m.rows for m in rows) for j in range(d)])

        grand = column_mean(mats)
        s_w, s_b = mpmath.eye(d) * mpmath.mpf(ridge), mpmath.zeros(d, d)
        for m in mats:
            mu = column_mean([m])
            for i in range(m.rows):
                s_w += (m[i, :].T - mu) * (m[i, :].T - mu).T
            s_b += m.rows * (mu - grand) * (mu - grand).T
        l_inv = mpmath.inverse(mpmath.cholesky(s_w))
        eigvals, z = mpmath.eigsy(l_inv * s_b * l_inv.T)
        v = l_inv.T * z
        top = sorted(range(d), key=lambda k: eigvals[k], reverse=True)[:2]
        return _signed_axes([[float(v[i, k]) for k in top] for i in range(d)])


# ---------------------------------------------------------------------------
# Per-decade scores with every model refit on every call (no memo)
# ---------------------------------------------------------------------------

def decade_scores(diachronic, lexicon, spec, words, tier):
    """The library's ``_decade_scores`` without ``fit_tier``: each decade's
    model is built with ``fit(spec, seed_vectors(...))`` on every call, and
    the found words of each block of ``_BLOCK_ROWS`` words of the list are
    scored in one batch, the block partition the library scores in."""
    from moraldrift.classifiers import _BLOCK_ROWS, fit, posterior_batch
    from moraldrift.diachronic import _SCORE_CLASS
    from moraldrift.lexicon import CATEGORY, seed_vectors, tier_classes

    words = list(words)
    values = np.full((len(words), len(diachronic))
                     + ((len(tier_classes(tier)),) if tier == CATEGORY else ()), np.nan)
    for j, space in enumerate(diachronic):
        model = fit(spec, seed_vectors(lexicon, space, tier))
        for start in range(0, len(words), _BLOCK_ROWS):
            found = [w for w in words[start:start + _BLOCK_ROWS] if w in space]
            if not found:
                continue
            probs = posterior_batch(model, np.array([space.vector(w) for w in found]))
            if tier != CATEGORY:
                probs = probs[:, model.classes.index(_SCORE_CLASS[tier])]
            values[[words.index(w) for w in found], j] = probs
    return values


# ---------------------------------------------------------------------------
# Retrieval word by word: a loop over the rows for the filters, and score
# rows for each top word (before retrieval read the matrix as arrays)
# ---------------------------------------------------------------------------

def _binary_classes(scores, tier):
    """Predicted pole per decade; ties at 0.5 go to the first class."""
    from moraldrift.diachronic import _SCORE_CLASS
    from moraldrift.lexicon import tier_classes

    if tier_classes(tier).index(_SCORE_CLASS[tier]) == 0:
        return scores >= 0.5
    return scores > 0.5


def switching_period(scores, decades, tier):
    """Earliest decade from which every later unmasked prediction of a
    binary-tier score row equals the final decade's predicted class. None
    if fully masked."""
    present = np.flatnonzero(~np.isnan(scores))
    if present.size == 0:
        return None
    classes = _binary_classes(scores, tier)
    final = classes[present[-1]]
    mismatches = [i for i in present if classes[i] != final]
    idx = 0 if not mismatches else int(max(mismatches)) + 1
    return decades[idx]


def _mean_modern_category(scores, decades):
    """The most probable category of a (decades, 10) score block's mean
    over its scored modern decades."""
    from moraldrift.diachronic import MODERN_RANGE
    from moraldrift.lexicon import CATEGORY, tier_classes

    lo, hi = MODERN_RANGE
    missing = np.isnan(scores).all(axis=1)
    idx = [i for i, d in enumerate(decades) if lo <= d <= hi and not missing[i]]
    if not idx:
        return None
    return tier_classes(CATEGORY)[int(np.argmax(scores[idx].mean(axis=0)))]


def _early_category(scores, relevance_row):
    """The most probable category of a (decades, 10) score block at its
    first scored decade whose relevance score is above 0.5."""
    from moraldrift.lexicon import CATEGORY, tier_classes

    missing = np.isnan(scores).all(axis=1)
    for i in range(len(scores)):
        if np.isfinite(relevance_row[i]) and relevance_row[i] > 0.5 and not missing[i]:
            return tier_classes(CATEGORY)[int(np.argmax(scores[i]))]
    return None


def retrieve_changing(matrix, lexicon, diachronic, spec, direction, top_n=10,
                      relevance_matrix=None, bonferroni_family="filtered"):
    """``retrieve_changing`` for valid arguments: each row filtered on its
    own, the survivors sorted on (slope, word), and each top word
    annotated from its own score rows, scored by ``decade_scores``."""
    from moraldrift.diachronic import (TOWARD_NEGATIVE, TOWARD_RELEVANCE, ChangeRecord,
                                       PredictionMatrix)
    from moraldrift.errors import CoverageError
    from moraldrift.lexicon import CATEGORY, RELEVANCE
    from moraldrift.stats import MIN_SLOPE_DECADES, slope_rows

    if direction == TOWARD_RELEVANCE:
        relevance_matrix = matrix
    elif relevance_matrix is None:
        relevance_matrix = PredictionMatrix(
            RELEVANCE, matrix.words, diachronic.decades,
            decade_scores(diachronic, lexicon, spec, matrix.words, RELEVANCE))
    rows, mean_rels = [], []
    for i, rel_row in enumerate(relevance_matrix.values):
        rel_row = rel_row[np.isfinite(rel_row)]
        if rel_row.size == 0 or (mean_rel := float(rel_row.mean())) < 0.5:
            continue
        if int(np.isfinite(matrix.values[i]).sum()) < MIN_SLOPE_DECADES:
            continue
        rows.append(i)
        mean_rels.append(mean_rel)
    if not rows:
        return []
    slopes, p_values = slope_rows(matrix.values[rows], decade_abscissa(matrix.decades))
    candidates = [(matrix.words[i], float(b), float(p), mean_rel)
                  for i, b, p, mean_rel in zip(rows, slopes, p_values, mean_rels)]
    m = len(candidates) if bonferroni_family == "filtered" else len(matrix.words)
    sign = 1 if direction == TOWARD_NEGATIVE else -1
    top = sorted(candidates, key=lambda c: (sign * c[1], c[0]))[:top_n]

    categories = decade_scores(diachronic, lexicon, spec, [c[0] for c in top], CATEGORY)
    records = []
    for (word, b, p, mean_rel), cat_scores in zip(top, categories):
        if np.isnan(cat_scores).all():
            raise CoverageError(f"word {word!r} has no embedding in any decade")
        i = matrix.words.index(word)
        records.append(ChangeRecord(
            word=word, slope=b, p_raw=p, p_bonferroni=min(1.0, m * p),
            mean_relevance=mean_rel,
            switching_decade=switching_period(matrix.values[i], matrix.decades, matrix.kind),
            early_category=_early_category(cat_scores, relevance_matrix.values[i]),
            modern_category=_mean_modern_category(cat_scores, diachronic.decades)))
    return records


# ---------------------------------------------------------------------------
# The CSV tables, row by row: each cell parsed on its own, in file order (the
# loaders before the column checker), and the norms ranking by a full sort
# ---------------------------------------------------------------------------

def read_table_rows(path, headers):
    """``(path:line, cells)`` per kept data row of a CSV table."""
    import csv

    from moraldrift.embeddings import _not_utf8
    from moraldrift.errors import ParseError

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            kept = [(n, line) for n, line in enumerate(fh, start=1)
                    if not line.startswith("#")]
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    reader = csv.reader(line for _, line in kept)
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        normalized = [h.strip().lower() for h in header]
        if normalized not in [list(h) for h in headers]:
            want = " or ".join(",".join(h) for h in headers)
            raise ParseError(f"{path}: expected header '{want}', got {','.join(header)!r}")
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            lineno = kept[reader.line_num - 1][0]
            if len(row) != len(normalized):
                raise ParseError(f"{path}:{lineno}: expected {len(normalized)} columns, "
                                 f"got {len(row)}")
            rows.append((f"{path}:{lineno}", row))
    except csv.Error as exc:
        raise ParseError(f"{path}:{kept[reader.line_num - 1][0]}: {exc}") from None
    return rows


def parse_cell(text, where, column, kind=str, *, bounds=None, blank=False, seen=None):
    """One cell: a word (``kind`` str) is stripped, lowercased, not empty
    and, with ``seen``, not in ``seen`` (it is added); a number is parsed
    by ``kind``, lies in ``bounds`` when given, is finite if a float, and
    is None if blank and ``blank``."""
    from moraldrift.errors import ParseError

    if kind is str:
        word = text.strip().lower()
        if not word:
            raise ParseError(f"{where}: empty {column}")
        if seen is not None:
            if word in seen:
                raise ParseError(f"{where}: duplicate {column} {word!r}")
            seen.add(word)
        return word
    if blank and not text.strip():
        return None
    try:
        value = kind(text)
    except ValueError:
        what = "non-integer" if kind is int else "non-numeric"
        raise ParseError(f"{where}: {what} {column} {text!r}") from None
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ParseError(f"{where}: {column} {value} outside "
                         f"[{bounds[0]}, {bounds[1]}]")
    if kind is float and not math.isfinite(value):
        raise ParseError(f"{where}: non-finite {column} {text!r}")
    return value


def load_norms(path):
    """A ``(word, valence, concreteness)`` tuple per row; a concreteness
    is NaN without a rating."""
    from moraldrift.lexicon import CONCRETENESS_RANGE, VALENCE_RANGE

    entries = []
    seen = set()
    for where, row in read_table_rows(
            path, [["word", "valence"], ["word", "valence", "concreteness"]]):
        word = parse_cell(row[0], where, "word", seen=seen)
        valence = parse_cell(row[1], where, "valence", float, bounds=VALENCE_RANGE)
        concreteness = None
        if len(row) == 3:
            concreteness = parse_cell(row[2], where, "concreteness", float,
                                      bounds=CONCRETENESS_RANGE, blank=True)
        entries.append((word, valence, math.nan if concreteness is None else concreteness))
    return entries


def load_mfd(path):
    """``word -> category`` for the seed rows without whitespace, the first
    listing of a word winning; a table left without one is refused."""
    from moraldrift.errors import ParseError

    mfd = {}
    for where, row in read_table_rows(path, [["word", "category"]]):
        word = parse_cell(row[0], where, "word")
        category = parse_cell(row[1], where, "category", int, bounds=(1, 10))
        if not any(ch.isspace() for ch in word) and word not in mfd:
            mfd[word] = category
    if not mfd:
        raise ParseError(f"{path}: no single-word seed entries")
    return mfd


def load_wordlist(path):
    """``(word, frequency)`` per row; at least one row."""
    from moraldrift.errors import ParseError

    out = []
    seen = set()
    for where, row in read_table_rows(path, [["word", "frequency"]]):
        out.append((parse_cell(row[0], where, "word", seen=seen),
                    parse_cell(row[1], where, "frequency", float)))
    if not out:
        raise ParseError(f"{path}: no entries")
    return out


def load_survey(path):
    """``(topic tokens, frac_not_moral, frac_acceptable)`` per row."""
    rows = []
    for where, row in read_table_rows(
            path, [["topic", "frac_not_moral", "frac_acceptable"]]):
        tokens = parse_cell(row[0], where, "topic").split()
        fractions = [parse_cell(cell, where, f"proportion {name}", float, bounds=(0.0, 1.0))
                     for cell, name in zip(row[1:], ["frac_not_moral", "frac_acceptable"])]
        rows.append((tokens, *fractions))
    return rows


def load_diachronic(manifest):
    """Every manifest row checked in file order (a decade parsed and not
    repeated, a known format), then each decade loaded."""
    from pathlib import Path

    from moraldrift.embeddings import (FORMATS, DiachronicEmbeddings,
                                       load_embedding_space)
    from moraldrift.errors import DataError, ParseError

    manifest = Path(manifest)
    entries = []
    for where, row in read_table_rows(manifest, [["decade", "path", "format"]]):
        decade = parse_cell(row[0], where, "decade", int)
        if decade in [d for d, _, _ in entries]:
            raise ParseError(f"{where}: duplicate decade {decade}")
        path = row[1].strip()
        if not path:
            raise ParseError(f"{where}: empty path")
        fmt = row[2].strip()
        if fmt not in FORMATS:
            raise ParseError(f"{where}: unknown format {fmt!r}")
        entries.append((decade, path, fmt))
    if not entries:
        raise ParseError(f"{manifest}: no entries")
    spaces = []
    for decade, path, fmt in entries:
        try:
            spaces.append(load_embedding_space(manifest.parent / path, fmt, decade))
        except (OSError, ParseError, DataError) as exc:
            raise DataError(f"decade {decade}: {exc}") from exc
    return DiachronicEmbeddings(spaces)


def build_irrelevant_seeds(norms, mfd_words, count=None, vocabulary=None):
    """The ``count`` most neutral non-seed words of a NormTable, by one
    full sort of its rows on (distance from 5.0, word)."""
    from moraldrift.errors import DataError

    mfd = set(mfd_words)
    if count is None:
        count = len(mfd)
    vocab = set(vocabulary) if vocabulary is not None else None
    candidates = [(word, valence) for word, valence in zip(norms.words, norms.valence.tolist())
                  if word not in mfd and (vocab is None or word in vocab)]
    if count > len(candidates):
        raise DataError(
            f"requested {count} irrelevant seeds but only {len(candidates)} "
            f"non-seed candidate words are available")
    ranked = sorted(candidates, key=lambda row: (abs(row[1] - 5.0), row[0]))
    return {word for word, _ in ranked[:count]}
