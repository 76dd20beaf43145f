"""Probabilistic moral-sentiment classifiers over seed word vectors.

Four model kinds share one interface. Each is fit from per-class seed
vectors and turns a query vector into a posterior over the classes:

* centroid     - distance to the class mean, softmax over -distance
* naive_bayes  - per-dimension Gaussian with diagonal covariance
* knn          - majority vote among the k nearest seed vectors
* kde          - class-size-normalized sum of isotropic Gaussian kernels

Density work is done in log space (300-dimensional products underflow)
and normalized exactly, so posteriors always sum to one.
"""
from __future__ import annotations

import logging
import numbers
import sys
from dataclasses import dataclass, field, replace
from itertools import pairwise
from typing import Iterator, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DataError
from .lexicon import SeedLexicon, seed_vectors

logger = logging.getLogger(__name__)

CENTROID = "centroid"
NAIVE_BAYES = "naive_bayes"
KNN = "knn"
KDE = "kde"
MODEL_KINDS = (CENTROID, NAIVE_BAYES, KNN, KDE)

BANDWIDTH_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))

_LOG_2PI = float(np.log(2.0 * np.pi))
_MAX_H = sys.float_info.max / 2.0
_BLOCK_ROWS = 256  # rows scored at once: 256 x 300 float64 rows are 600 KB


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus its (at most one) parameter.

    ``k`` applies to knn only; ``h`` to kde only. ``h`` is the kernel
    variance, not a standard deviation: each seed w contributes
    exp(-|x - w|^2 / 2h). ``h=None`` asks fit() to pick the bandwidth
    maximizing leave-one-out accuracy on the seeds over the grid
    0.1 .. 1.0.
    """

    kind: str
    k: int = 5
    h: float | None = None
    variance_floor: float = 1e-8

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.h is not None and not 0 < self.h < np.inf:
            raise ValueError(f"bandwidth h must be finite and positive, got {self.h}")
        if self.h is not None and self.h > _MAX_H:  # the kernels divide by 2h
            raise ValueError(f"bandwidth h must be at most {_MAX_H:g}, so that 2h is "
                             f"finite, got {self.h}")
        if not 0 < self.variance_floor < np.inf:
            raise ValueError(f"variance_floor must be finite and positive, "
                             f"got {self.variance_floor}")


@dataclass(frozen=True)
class Classifier:
    """A fitted model over one tier's class vector sets. Immutable."""

    spec: ModelSpec
    classes: tuple[str, ...]
    dim: int
    # Sufficient statistics; which fields are set depends on spec.kind.
    means: np.ndarray | None = field(default=None, repr=False)       # (C, d)
    variances: np.ndarray | None = field(default=None, repr=False)   # (C, d)
    seed_matrix: np.ndarray | None = field(default=None, repr=False)  # (S, d)
    seed_labels: np.ndarray | None = field(default=None, repr=False)  # (S,) class idx
    # Squared row norms of the points distances go to: means (centroid) or
    # seed_matrix (knn, kde); (C,) or (S,).
    sq_norms: np.ndarray | None = field(default=None, repr=False)


def _as_matrix(label: str, vectors) -> np.ndarray:
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.size == 0:  # no rows, or rows of no entries
        raise DataError(f"class {label!r} has no seed vectors")
    if not np.all(np.isfinite(mat)):
        raise DataError(f"class {label!r} contains non-finite seed vectors")
    return mat


def _class_matrices(class_vectors: Mapping[str, Sequence]
                    ) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The class labels and checked (n_c, d) seed matrices of one tier."""
    if len(class_vectors) < 2:
        raise DataError(f"need at least 2 classes, got {len(class_vectors)}")
    labels = tuple(class_vectors)
    matrices = [_as_matrix(label, class_vectors[label]) for label in labels]
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DataError(f"classes disagree on vector dimensionality: {sorted(dims)}")
    return labels, matrices


def _stack(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (S, d) seed matrix in class order and each seed's class index."""
    return (np.vstack(matrices),
            np.repeat(np.arange(len(matrices)), [m.shape[0] for m in matrices]))


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each row."""
    return np.sum(rows * rows, axis=1)


def _sq_dists(queries: np.ndarray,
              parts: Sequence[tuple[slice, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Squared Euclidean distances of query rows to points, (n_queries,
    n_points). ``parts`` are ``(rows, points, sq_norms)``: consecutive rows
    of ``queries``, the (P, d) points they are measured against and those
    points' ``_sq_norms``. Each part's product is one matmul of its own
    rows, the shape its last bits depend on; the rest is row by row."""
    out = np.empty((len(queries), parts[0][1].shape[0]))
    prod = np.empty_like(out)
    for rows, points, sq_norms in parts:
        out[rows] = sq_norms
        np.matmul(queries[rows], points.T, out=prod[rows])
    out += _sq_norms(queries)[:, None]
    prod *= 2.0
    out -= prod
    return np.maximum(out, 0.0, out=out)


def fit(spec: ModelSpec, class_vectors: Mapping[str, Sequence]) -> Classifier:
    """Fit a classifier from per-class seed vectors.

    Class order (and hence tie-breaking order) follows the mapping's
    iteration order. Requires at least two non-empty classes of matching
    dimensionality. The model's arrays are its own and read-only.
    """
    labels, matrices = _class_matrices(class_vectors)
    arrays = {}
    if spec.kind in (CENTROID, NAIVE_BAYES):
        arrays["means"] = np.vstack([m.mean(axis=0) for m in matrices])
        if spec.kind == NAIVE_BAYES:
            arrays["variances"] = np.vstack([np.maximum(m.var(axis=0), spec.variance_floor)
                                             for m in matrices])
        else:
            arrays["sq_norms"] = _sq_norms(arrays["means"])
    else:
        arrays["seed_matrix"], arrays["seed_labels"] = _stack(matrices)
        arrays["sq_norms"] = _sq_norms(arrays["seed_matrix"])
        if spec.kind == KNN and spec.k > len(arrays["seed_labels"]):
            raise DataError(f"k={spec.k} exceeds the {len(arrays['seed_labels'])} "
                            f"available seed vectors")
        if spec.kind == KDE and spec.h is None:
            spec = replace(spec, h=select_bandwidth(class_vectors))
            logger.info("selected KDE bandwidth h=%g by leave-one-out accuracy", spec.h)
    for array in arrays.values():
        array.flags.writeable = False
    return Classifier(spec=spec, classes=labels, dim=matrices[0].shape[1], **arrays)


def fit_tier(spec: ModelSpec, lexicon: SeedLexicon, space: EmbeddingSpace,
             tier: str) -> Classifier:
    """Fit a model on one tier's seed vectors from one decade's space, once
    per (lexicon, space, spec, tier): later calls return the same read-only
    model. A fit that raises is not kept, so it raises again. kNN and KDE
    models of one space and tier hold one seed block, the first one's."""
    models = lexicon._models.get(space)
    if models is not None and (model := models.get((spec, tier))) is not None:
        return model
    models = lexicon._models.setdefault(space, {})
    model = fit(spec, seed_vectors(lexicon, space, tier))
    held = [m for (_, t), m in models.items() if t == tier and m.seed_matrix is not None]
    if model.seed_matrix is not None and held:  # the same rows, gathered the same way
        model = replace(model, seed_matrix=held[0].seed_matrix,
                        seed_labels=held[0].seed_labels, sq_norms=held[0].sq_norms)
    models[spec, tier] = model
    return model


def _nb_log_likelihood(q: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of each row of ``q``; moments (d,) or per row.
    One n x d buffer, updated in place (addition commutes, so the terms
    are the same bits as log(2 pi) + log(var) + dev^2 / var)."""
    dev = q - mean
    dev *= dev
    dev /= var
    dev += _LOG_2PI + np.log(var)
    return -0.5 * np.sum(dev, axis=1)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a real (n, k) array, k >= 1, in the
    max-shifted form of Blanchard, Higham & Higham (IMA J. Numer. Anal.,
    2021) with scipy 1.17.1's arithmetic, so the bits match its logsumexp:
    with M the row max, m the count of entries equal to M and s the sum
    of exp(a - M) over the others, log1p(s / m) + log(m) + M. A row of -inf
    gives -inf, one with +inf gives +inf and one with NaN gives NaN."""
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=1, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.exp(a - top)
        terms[at_top] = 0.0
        return np.log1p(terms.sum(axis=1) / m) + np.log(m) + top[:, 0]


def _class_bounds(seed_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Where each class's seeds start in the class-ordered seed stack of
    ``_stack``, then the stack's end: (C + 1,)."""
    return np.searchsorted(seed_labels, np.arange(n_classes + 1))


def _kde_log_likelihoods(neg_sq: np.ndarray, bounds: np.ndarray, sizes: np.ndarray,
                         h: float, dim: int) -> np.ndarray:
    """Per-class log kernel densities from negated squared distances to the
    seeds, ``neg_sq`` (n, S) Fortran-ordered, so that each class's column
    slice between ``bounds`` sums its kernels seed by seed; -inf adds no
    mass. Class ``sizes`` are shared (C,) or per row (n, C). A row with no
    kernel mass in any class is refused: its posterior would be 0/0."""
    log_norm = -0.5 * dim * (_LOG_2PI + np.log(h))
    with np.errstate(over="ignore"):  # a tiny h loses the mass, refused below
        out = np.column_stack([_logsumexp_rows(neg_sq[:, lo:hi] / (2.0 * h))
                               - np.log(sizes[..., c]) + log_norm
                               for c, (lo, hi) in enumerate(pairwise(bounds.tolist()))])
    empty = np.count_nonzero(~(out > -np.inf).any(axis=1))
    if empty:
        raise DataError(f"KDE bandwidth h={h:g} leaves {empty} of {out.shape[0]} rows "
                        f"with no kernel mass in any class; use a larger h")
    return out


def _knn_counts(sq: np.ndarray, bounds: np.ndarray, k: int) -> np.ndarray:
    """Per-class neighbor counts for each row of ``sq`` (n, S), the classes'
    columns between ``bounds``; distance ties at rank k admit all tied
    seeds, +inf entries are never admitted."""
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    admitted = sq <= kth
    return np.column_stack([np.count_nonzero(admitted[:, lo:hi], axis=1)
                            for lo, hi in pairwise(bounds.tolist())])


def _normalize(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of log scores, in place."""
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _blocks(n: int) -> Iterator[slice]:
    """The blocks of ``_BLOCK_ROWS`` queries that ``n`` queries, or a list of
    ``n`` words, are cut into, so no temporary grows with ``n``. A score's
    last bits can depend on its block (BLAS), so ``posterior_batch`` and
    ``_word_posteriors`` share them."""
    return (slice(s, s + _BLOCK_ROWS) for s in range(0, n, _BLOCK_ROWS))


def _same_layout(a: Classifier, b: Classifier) -> bool:
    """Whether ``a`` and ``b`` can score rows of one block: the same kind, k,
    class count and dimension, and for knn and kde the same seeds per class."""
    return ((a.spec.kind, a.spec.k, len(a.classes), a.dim)
            == (b.spec.kind, b.spec.k, len(b.classes), b.dim)
            and (a.seed_labels is None or np.array_equal(a.seed_labels, b.seed_labels)))


def _word_posteriors(pairs: Sequence[tuple[Classifier, EmbeddingSpace]],
                     words: Sequence[str]) -> np.ndarray:
    """Posteriors of a word list under each (model, space) pair, shape
    (n_words, n_pairs, n_classes), with a NaN row where a space lacks the
    word. The list is looked up once per distinct vocabulary object and cut
    into ``_blocks``. Within one, consecutive pairs share a scoring block of
    at most ``_BLOCK_ROWS`` (pair, word) rows while their found rows fit and
    their models have the ``_same_layout``; so a one-word list scores up to
    256 decades in one block. The rows are gathered into one reused buffer
    and scored unchecked (a space's rows are finite) by ``_posteriors``,
    each pair's rows under its own model as one segment: its found rows of
    the word block, in list order, the batch ``posterior_batch`` would
    score them in. Every model's ``dim`` must be every space's ``dim``."""
    rows: dict[int, np.ndarray] = {}  # id(space.words) -> the list's rows
    for _, space in pairs:
        if id(space.words) not in rows:
            rows[id(space.words)] = space._lookup(words)
    out = np.full((len(words), len(pairs), len(pairs[0][0].classes)), np.nan)
    buffer = np.empty((min(len(words) * len(pairs), _BLOCK_ROWS), pairs[0][1].dim))
    for block in _blocks(len(words)):
        packed, filled = [], 0  # (model, buffer rows, pair index, found mask)
        for j, (model, space) in enumerate(pairs):
            at = rows[id(space.words)][block]
            found = at >= 0
            n = np.count_nonzero(found)
            if not n:
                continue
            if packed and (filled + n > _BLOCK_ROWS or not _same_layout(packed[0][0], model)):
                _score_packed(buffer, packed, out[block])
                packed, filled = [], 0
            space._gather(at, out=buffer[filled:])
            packed.append((model, slice(filled, filled + n), j, found))
            filled += n
        if packed:
            _score_packed(buffer, packed, out[block])
    return out


def _score_packed(buffer: np.ndarray, packed: list, out: np.ndarray) -> None:
    """Score ``_word_posteriors``' packed rows of ``buffer`` and write each
    pair's rows to its column of one word block's ``out``."""
    probs = _posteriors(buffer[:packed[-1][1].stop], [(m, rows) for m, rows, _, _ in packed])
    for _, rows, j, found in packed:
        out[found, j] = probs[rows]


def posterior_batch(model: Classifier, queries) -> np.ndarray:
    """Posterior probabilities for a batch of queries, shape (n, n_classes),
    scored in ``_blocks``.

    Columns follow ``model.classes``. Rows are normalized exactly.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.shape[1] != model.dim:
        raise DataError(f"query has dimension {q.shape[1]}, model expects {model.dim}")
    if not np.all(np.isfinite(q)):
        raise DataError("query vector contains non-finite entries")
    out = np.empty((len(q), len(model.classes)))
    for block in _blocks(len(q)):
        out[block] = _posteriors(q[block], [(model, slice(None))])
    return out


def _posteriors(q: np.ndarray, segments: Sequence[tuple[Classifier, slice]]) -> np.ndarray:
    """Posteriors of one block of queries, a finite float64 (n, dim) matrix,
    unchecked. ``segments`` cut the block into consecutive rows, each
    scored under its own model; all models have the ``_same_layout``. Only
    the work whose bits depend on a segment's height runs per segment: the
    distance product (``_sq_dists``) and KDE's class log-sum-exp, which
    numpy sums pairwise in a one-row block and seed by seed in a taller
    one. The rest runs once per block and gives every row the same bits
    whatever the block's height. Naive Bayes gathers per-row moments only
    when the block holds more than one segment."""
    model = segments[0][0]
    n_classes = len(model.classes)
    if model.spec.kind == NAIVE_BAYES:
        if len(segments) == 1:  # moments (d,), as posterior_batch scores them
            at, means, variances = 0, model.means[None], model.variances[None]
        else:  # moments per row
            at = np.repeat(np.arange(len(segments)),
                           [rows.stop - rows.start for _, rows in segments])
            means = np.stack([m.means for m, _ in segments])
            variances = np.stack([m.variances for m, _ in segments])
        return _normalize(np.column_stack(
            [_nb_log_likelihood(q, means[at, c], variances[at, c]) for c in range(n_classes)]))
    if model.spec.kind == CENTROID:
        sq = _sq_dists(q, [(rows, m.means, m.sq_norms) for m, rows in segments])
        return _normalize(-np.sqrt(sq))
    sq = _sq_dists(q, [(rows, m.seed_matrix, m.sq_norms) for m, rows in segments])
    bounds = _class_bounds(model.seed_labels, n_classes)
    if model.spec.kind == KNN:  # scores are counts, not log densities
        counts = _knn_counts(sq, bounds, model.spec.k)
        return counts / counts.sum(axis=1, keepdims=True)
    neg_sq = np.negative(sq, order="F")
    return _normalize(np.vstack([_kde_log_likelihoods(neg_sq[rows], bounds, np.diff(bounds),
                                                      m.spec.h, m.dim)
                                 for m, rows in segments]))


def posterior(model: Classifier, query) -> dict[str, float]:
    """Posterior over the model's classes for one query vector,
    ``{label: probability}`` in class order."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim > 1 and q.shape[0] != 1:
        raise DataError("posterior() takes a single query; use posterior_batch()")
    row = posterior_batch(model, q)
    return {label: float(p) for label, p in zip(model.classes, row[0])}


def _loo_predict(spec: ModelSpec, class_vectors: Mapping[str, Sequence]
                 ) -> tuple[ModelSpec, np.ndarray]:
    """The spec (h chosen if None) and each seed's leave-one-out predicted
    class index, seeds stacked in class order. Nothing is refit: knn and kde
    mask the diagonal of the seed-by-seed distances (a kde seed's class then
    counts n - 1 seeds); centroid and naive_bayes drop the seed from its
    class moments in closed form (|x - mu_-i| = n/(n-1)·|x - mu|), flooring
    the variance after. The bandwidth search takes the smallest value of
    ``BANDWIDTH_GRID`` of best accuracy over seeds outside singleton classes."""
    labels, matrices = _class_matrices(class_vectors)
    seeds, seed_labels = _stack(matrices)
    n_seeds, dim = seeds.shape
    sizes = np.bincount(seed_labels, minlength=len(labels))
    own = seed_labels[:, None] == np.arange(len(labels))  # (S, C)

    if spec.kind in (CENTROID, NAIVE_BAYES):
        means = np.vstack([m.mean(axis=0) for m in matrices])
        variances = np.vstack([m.var(axis=0) for m in matrices])
        n = sizes[seed_labels][:, None].astype(np.float64)
        if spec.kind == CENTROID:
            logits = (-np.sqrt(_sq_dists(seeds, [(slice(None), means, _sq_norms(means))]))
                      * np.where(own, n / (n - 1), 1.0))
        else:
            dev = seeds - means[seed_labels]
            loo_mean = means[seed_labels] - dev / (n - 1)
            loo_var = n / (n - 1) * (variances[seed_labels] - dev * dev / (n - 1))
            logits = np.column_stack([_nb_log_likelihood(
                seeds, np.where(own[:, c, None], loo_mean, means[c]),
                np.maximum(np.where(own[:, c, None], loo_var, variances[c]),
                           spec.variance_floor))
                for c in range(len(labels))])
        return spec, np.argmax(_normalize(logits), axis=1)

    sq = _sq_dists(seeds, [(slice(None), seeds, _sq_norms(seeds))])
    np.fill_diagonal(sq, np.inf)
    bounds = _class_bounds(seed_labels, len(labels))
    if spec.kind == KNN:
        if spec.k > n_seeds - 1:
            raise DataError(f"k={spec.k} exceeds the {n_seeds - 1} available seed vectors")
        return spec, np.argmax(_knn_counts(sq, bounds, spec.k), axis=1)

    # KDE. A singleton class keeps size 1 with no kernel left: log density -inf.
    loo_sizes = np.maximum(sizes - own, 1)
    scored = sizes[seed_labels] > 1
    if spec.h is None and not scored.any():
        raise DataError("cannot auto-select bandwidth: every class is a singleton; "
                        "pass an explicit h")
    grid = BANDWIDTH_GRID if spec.h is None else (spec.h,)  # ascending
    neg_sq = np.negative(sq, order="F")  # negated once for the grid
    predicted = [np.argmax(_normalize(_kde_log_likelihoods(neg_sq, bounds, loo_sizes, h, dim)),
                           axis=1)
                 for h in grid]
    best = int(np.argmax([np.count_nonzero(p[scored] == seed_labels[scored])
                          for p in predicted]))  # first maximum: the smaller h
    return replace(spec, h=float(grid[best])), predicted[best]


def select_bandwidth(class_vectors: Mapping[str, Sequence]) -> float:
    """Pick the KDE bandwidth of ``BANDWIDTH_GRID`` with the best
    leave-one-out seed accuracy.

    The leave-one-out is masked, not refit: one seed-by-seed distance
    matrix with its diagonal masked serves the whole grid. Seeds in
    singleton classes are skipped; accuracy ties go to the smaller h."""
    return _loo_predict(ModelSpec(kind=KDE), class_vectors)[0].h
