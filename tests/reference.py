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
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite vector for word {word!r}")
            if word in seen:
                n_dup += 1
                continue
            seen.add(word)
            words.append(word)
            vectors.append(vec)
    return words, np.vstack(vectors), n_dup


# ---------------------------------------------------------------------------
# The change regression and its shuffled control, one full pass per shuffle
# (the loop before the batched change filter)
# ---------------------------------------------------------------------------

def changed_word_fit(values, words, concreteness, log_frequency):
    """The change regression's coefficients, found row by row from the
    first and last scored decade of each word."""
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
    slopes, _ = slope_rows(values[np.array(selected)])
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
    base = changed_word_fit(values, words, *tables)
    if permutations is None:
        children = np.random.SeedSequence(seed).spawn(n_shuffles)
        permutations = [np.random.default_rng(c).permutation(values.shape[1])
                        for c in children]
    n_shuffles = len(permutations)
    control = np.empty((n_shuffles, len(REGRESSION_FACTORS)))
    for i, perm in enumerate(permutations):
        try:
            fit = changed_word_fit(values[:, perm], words, *tables)
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


# ---------------------------------------------------------------------------
# The norms table, row by row (the loader and ranking before the columnar
# NormTable)
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
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    normalized = [h.strip().lower() for h in header]
    if normalized not in [list(h) for h in headers]:
        want = " or ".join(",".join(h) for h in headers)
        raise ParseError(f"{path}: expected header '{want}', got {','.join(header)!r}")
    rows = []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        lineno = kept[reader.line_num - 1][0]
        if len(row) != len(normalized):
            raise ParseError(f"{path}:{lineno}: expected {len(normalized)} columns, "
                             f"got {len(row)}")
        rows.append((f"{path}:{lineno}", row))
    return rows


def load_norms(path):
    """A list of NormEntry, one per row, each cell parsed on its own."""
    from moraldrift.embeddings import parse_cell
    from moraldrift.lexicon import CONCRETENESS_RANGE, VALENCE_RANGE, NormEntry

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
        entries.append(NormEntry(word=word, valence=valence, concreteness=concreteness))
    return entries


def build_irrelevant_seeds(norms, mfd_words, count=None, vocabulary=None):
    """The ``count`` most neutral non-seed words by one full sort on
    (distance from 5.0, word)."""
    from moraldrift.errors import DataError

    mfd = set(mfd_words)
    if count is None:
        count = len(mfd)
    vocab = set(vocabulary) if vocabulary is not None else None
    candidates = [e for e in norms
                  if e.word not in mfd and (vocab is None or e.word in vocab)]
    if count > len(candidates):
        raise DataError(
            f"requested {count} irrelevant seeds but only {len(candidates)} "
            f"non-seed candidate words are available")
    ranked = sorted(candidates, key=lambda e: (abs(e.valence - 5.0), e.word))
    return {e.word for e in ranked[:count]}
