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
from typing import Iterable, Iterator, Mapping, Sequence

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
_BLOCK_ROWS = 256  # queries scored at once: 256 x 300 float64 rows are 600 KB


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


def _as_matrix(label: str, vectors) -> np.ndarray:
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.shape[0] == 0:
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


def _sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n_queries, n_points)."""
    q_sq = np.sum(queries * queries, axis=1)[:, None]
    p_sq = np.sum(points * points, axis=1)[None, :]
    out = q_sq + p_sq - 2.0 * (queries @ points.T)
    return np.maximum(out, 0.0)


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
        arrays["seed_matrix"], arrays["seed_labels"] = _stack(matrices)
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
    models = lexicon._models.setdefault(space, {})
    if (spec, tier) not in models:
        model = fit(spec, seed_vectors(lexicon, space, tier))
        held = [m for (_, t), m in models.items() if t == tier and m.seed_matrix is not None]
        if model.seed_matrix is not None and held:  # the same rows, gathered the same way
            model = replace(model, seed_matrix=held[0].seed_matrix,
                            seed_labels=held[0].seed_labels)
        models[spec, tier] = model
    return models[spec, tier]


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
    of exp(a - M) over the others, log1p(s / m) + log(m) + M. Rows with no
    finite result (all -inf) take log(sum(exp(a)))."""
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=1, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.exp(a - top)
        terms[at_top] = 0.0
        out = np.log1p(terms.sum(axis=1) / m) + np.log(m) + top[:, 0]
        lost = ~np.isfinite(out)
        if lost.any():
            out[lost] = np.log(np.sum(np.exp(a[lost]), axis=1))
    return out


def _kde_log_likelihoods(blocks: Iterable[np.ndarray], sizes: np.ndarray,
                         h: float, dim: int) -> np.ndarray:
    """Per-class log kernel densities from each class's negated squared
    distances, ``blocks`` (n, n_c) in class order; -inf adds no mass.
    Class ``sizes`` are shared (C,) or per row (n, C). A row with no
    kernel mass in any class is refused: its posterior would be 0/0."""
    log_norm = -0.5 * dim * (_LOG_2PI + np.log(h))
    columns = []
    with np.errstate(over="ignore"):  # a tiny h loses the mass, refused below
        for c, block in enumerate(blocks):
            columns.append(_logsumexp_rows(block / (2.0 * h))
                           - np.log(sizes[..., c]) + log_norm)
    out = np.column_stack(columns)
    empty = np.count_nonzero(~(out > -np.inf).any(axis=1))
    if empty:
        raise DataError(f"KDE bandwidth h={h:g} leaves {empty} of {out.shape[0]} rows "
                        f"with no kernel mass in any class; use a larger h")
    return out


def _knn_counts(sq: np.ndarray, seed_labels: np.ndarray, n_classes: int,
                k: int) -> np.ndarray:
    """Per-class neighbor counts for each row of ``sq`` (n, S); distance
    ties at rank k admit all tied seeds, +inf entries are never admitted."""
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    admitted = sq <= kth
    return np.column_stack([np.count_nonzero(admitted[:, seed_labels == c], axis=1)
                            for c in range(n_classes)])


def _normalize(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of log scores, in place."""
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _blocks(n: int) -> Iterator[slice]:
    """The row blocks that ``n`` queries are scored in, ``_BLOCK_ROWS`` at a
    time, so no temporary grows with ``n``. A score's last bits can depend on
    its block (BLAS), so ``posterior_batch`` and ``_word_posteriors`` share them."""
    return (slice(s, s + _BLOCK_ROWS) for s in range(0, n, _BLOCK_ROWS))


def _word_posteriors(model: Classifier, space: EmbeddingSpace, at: np.ndarray) -> np.ndarray:
    """Posteriors of a word list in one space, given as its rows ``at`` from
    ``space._lookup``, shape (n, n_classes), with a NaN row where the space
    lacks the word. Each of the list's ``_blocks`` is gathered into one
    reused buffer and its present rows are scored unchecked: a space's rows
    are finite. ``model.dim`` must be ``space.dim``."""
    out = np.full((len(at), len(model.classes)), np.nan)
    buffer = np.empty((min(len(at), _BLOCK_ROWS), space.dim))
    for block in _blocks(len(at)):
        matrix, present = space._gather(at[block], out=buffer)
        out[block][present] = _posteriors(model, matrix)
    return out


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
        out[block] = _posteriors(model, q[block])
    return out


def _posteriors(model: Classifier, q: np.ndarray) -> np.ndarray:
    """Posteriors of one block of queries, a finite float64 (n, dim) matrix,
    unchecked."""
    n_classes = len(model.classes)
    if model.spec.kind == CENTROID:
        return _normalize(-np.sqrt(_sq_dists(q, model.means)))
    if model.spec.kind == NAIVE_BAYES:
        return _normalize(np.column_stack(
            [_nb_log_likelihood(q, model.means[c], model.variances[c])
             for c in range(n_classes)]))
    sq = _sq_dists(q, model.seed_matrix)
    if model.spec.kind == KNN:  # scores are counts, not log densities
        counts = _knn_counts(sq, model.seed_labels, n_classes, model.spec.k)
        return counts / counts.sum(axis=1, keepdims=True)
    sizes = np.bincount(model.seed_labels, minlength=n_classes)
    # One class block at a time, so peak memory stays near one n x S matrix.
    blocks = (-sq[:, model.seed_labels == c] for c in range(n_classes))
    return _normalize(_kde_log_likelihoods(blocks, sizes, model.spec.h, model.dim))


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
            logits = -np.sqrt(_sq_dists(seeds, means)) * np.where(own, n / (n - 1), 1.0)
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

    sq = _sq_dists(seeds, seeds)
    np.fill_diagonal(sq, np.inf)
    if spec.kind == KNN:
        if spec.k > n_seeds - 1:
            raise DataError(f"k={spec.k} exceeds the {n_seeds - 1} available seed vectors")
        return spec, np.argmax(_knn_counts(sq, seed_labels, len(labels), spec.k), axis=1)

    # KDE. A singleton class keeps size 1 with no kernel left: log density -inf.
    loo_sizes = np.maximum(sizes - own, 1)
    scored = sizes[seed_labels] > 1
    if spec.h is None and not scored.any():
        raise DataError("cannot auto-select bandwidth: every class is a singleton; "
                        "pass an explicit h")
    grid = BANDWIDTH_GRID if spec.h is None else (spec.h,)  # ascending
    blocks = [-sq[:, seed_labels == c] for c in range(len(labels))]  # gathered once for the grid
    predicted = [np.argmax(_normalize(_kde_log_likelihoods(blocks, loo_sizes, h, dim)), axis=1)
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
