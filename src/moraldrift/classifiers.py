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
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, QueryVector
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
_CLAMP = 1e-6


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
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.h is not None and not self.h > 0:
            raise ValueError(f"bandwidth h must be positive, got {self.h}")
        if not self.variance_floor > 0:
            raise ValueError(f"variance_floor must be positive, got {self.variance_floor}")


@dataclass(frozen=True)
class PosteriorDistribution:
    """Normalized class probabilities for one query."""

    probs: Mapping[str, float]

    def __getitem__(self, label: str) -> float:
        return self.probs[label]


@dataclass(frozen=True)
class Classifier:
    """A fitted model over one tier's class vector sets. Immutable."""

    spec: ModelSpec
    classes: tuple[str, ...]
    dim: int
    tier: str | None = None
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


def fit(spec: ModelSpec, class_vectors: Mapping[str, Sequence],
        tier: str | None = None) -> Classifier:
    """Fit a classifier from per-class seed vectors.

    Class order (and hence tie-breaking order) follows the mapping's
    iteration order. Requires at least two non-empty classes of matching
    dimensionality.
    """
    labels, matrices = _class_matrices(class_vectors)
    model = dict(classes=labels, dim=matrices[0].shape[1], tier=tier)
    if spec.kind in (CENTROID, NAIVE_BAYES):
        means = np.vstack([m.mean(axis=0) for m in matrices])
        if spec.kind == CENTROID:
            return Classifier(spec=spec, means=means, **model)
        variances = np.vstack([np.maximum(m.var(axis=0), spec.variance_floor)
                               for m in matrices])
        return Classifier(spec=spec, means=means, variances=variances, **model)
    seeds, seed_labels = _stack(matrices)
    if spec.kind == KNN and spec.k > len(seed_labels):
        raise DataError(f"k={spec.k} exceeds the {len(seed_labels)} available seed vectors")
    if spec.kind == KDE and spec.h is None:
        spec = replace(spec, h=select_bandwidth(class_vectors))
        logger.info("selected KDE bandwidth h=%g by leave-one-out accuracy", spec.h)
    return Classifier(spec=spec, seed_matrix=seeds, seed_labels=seed_labels, **model)


def fit_tier(spec: ModelSpec, lexicon: SeedLexicon, space: EmbeddingSpace,
             tier: str) -> Classifier:
    """Fit a model on one tier's seed vectors from one decade's space."""
    return fit(spec, seed_vectors(lexicon, space, tier), tier=tier)


def _query_matrix(model: Classifier, queries) -> np.ndarray:
    if isinstance(queries, QueryVector):
        queries = queries.values
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.shape[1] != model.dim:
        raise DataError(f"query has dimension {q.shape[1]}, model expects {model.dim}")
    if not np.all(np.isfinite(q)):
        raise DataError("query vector contains non-finite entries")
    return q


def _nb_log_likelihood(q: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of each row of ``q``; moments (d,) or per row.
    One n x d buffer, updated in place (addition commutes, so the terms
    are the same bits as log(2 pi) + log(var) + dev^2 / var)."""
    dev = q - mean
    dev *= dev
    dev /= var
    dev += _LOG_2PI + np.log(var)
    return -0.5 * np.sum(dev, axis=1)


def _kde_log_likelihoods(sq: np.ndarray, seed_labels: np.ndarray,
                         sizes: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Per-class log kernel densities from squared distances ``sq`` (n, S).
    Class ``sizes`` are shared (C,) or per row (n, C); +inf adds no mass."""
    from scipy.special import logsumexp  # 0.3 s to import; most commands never call this

    log_norm = -0.5 * dim * (_LOG_2PI + np.log(h))
    out = np.empty((sq.shape[0], sizes.shape[-1]))
    for c in range(sizes.shape[-1]):
        out[:, c] = (logsumexp(-sq[:, seed_labels == c] / (2.0 * h), axis=1)
                     - np.log(sizes[..., c]) + log_norm)
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


def posterior_batch(model: Classifier, queries) -> np.ndarray:
    """Posterior probabilities for a batch of queries, shape (n, n_classes).

    Columns follow ``model.classes``. Rows are normalized exactly.
    """
    q = _query_matrix(model, queries)
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
    return _normalize(_kde_log_likelihoods(sq, model.seed_labels, sizes,
                                           model.spec.h, model.dim))


def posterior(model: Classifier, query) -> PosteriorDistribution:
    """Posterior over the model's classes for one query vector."""
    row = posterior_batch(model, query)
    if row.shape[0] != 1:
        raise DataError("posterior() takes a single query; use posterior_batch()")
    return PosteriorDistribution(
        probs={label: float(p) for label, p in zip(model.classes, row[0])})


def classify_batch(model: Classifier, queries) -> list[str]:
    """Argmax class labels; ties go to the earlier class in model.classes."""
    probs = posterior_batch(model, queries)
    return [model.classes[i] for i in np.argmax(probs, axis=1)]


def classify(model: Classifier, query) -> str:
    return classify_batch(model, query)[0]


def log_odds(p: PosteriorDistribution, numerator: str, denominator: str) -> float:
    """Natural log of the ratio of two class probabilities.

    Probabilities are clamped to [1e-6, 1 - 1e-6] so degenerate
    posteriors still produce finite, plot-ready values.
    """
    num = p.probs[numerator]
    den = p.probs[denominator]
    num = min(max(num, _CLAMP), 1.0 - _CLAMP)
    den = min(max(den, _CLAMP), 1.0 - _CLAMP)
    return float(np.log(num / den))


def _loo_predict(spec: ModelSpec, class_vectors: Mapping[str, Sequence],
                 grid: Sequence[float] = BANDWIDTH_GRID) -> tuple[ModelSpec, np.ndarray]:
    """The spec (h chosen if None) and each seed's leave-one-out predicted
    class index, seeds stacked in class order. Nothing is refit: knn and kde
    mask the diagonal of the seed-by-seed distances (a kde seed's class then
    counts n - 1 seeds); centroid and naive_bayes drop the seed from its
    class moments in closed form (|x - mu_-i| = n/(n-1)·|x - mu|), flooring
    the variance after. The bandwidth search takes the first grid value of
    best accuracy over seeds outside singleton classes."""
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
    grid = grid if spec.h is None else (spec.h,)
    predicted = [np.argmax(_normalize(_kde_log_likelihoods(sq, seed_labels, loo_sizes, h, dim)),
                           axis=1) for h in grid]
    best = int(np.argmax([np.count_nonzero(p[scored] == seed_labels[scored])
                          for p in predicted]))  # first maximum: the smaller h
    return replace(spec, h=float(grid[best])), predicted[best]


def select_bandwidth(class_vectors: Mapping[str, Sequence],
                     grid: Sequence[float] = BANDWIDTH_GRID) -> float:
    """Pick the KDE bandwidth with the best leave-one-out seed accuracy.

    The leave-one-out is masked, not refit: one seed-by-seed distance
    matrix with its diagonal masked serves the whole grid. Seeds in
    singleton classes are skipped; accuracy ties go to the smaller h."""
    spec, _ = _loo_predict(ModelSpec(kind=KDE), class_vectors, grid)
    return spec.h
