"""Model evaluations: leave-one-out seed classification and agreement
with human ratings (valence norms and survey judgments)."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers import Classifier, ModelSpec, _loo_predict, _word_posteriors, posterior
from .embeddings import (Column, DiachronicEmbeddings, EmbeddingSpace, average_vector,
                         read_table)
from .errors import DataError
from .lexicon import NormTable, SeedLexicon, seed_vectors, tier_classes
from .stats import CorrelationReport, pearson

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AccuracyReport:
    """Leave-one-out accuracy on one tier, one decade."""

    tier: str
    model: ModelSpec
    decade: int
    accuracy: float
    confusion: dict[str, dict[str, int]]  # true class -> predicted -> count
    n: int


@dataclass(frozen=True)
class HistoricalAccuracy:
    """Per-decade accuracies with their mean and population stdev."""

    tier: str
    model: ModelSpec
    reports: tuple[AccuracyReport, ...]
    mean_accuracy: float
    stdev_accuracy: float


def chance_level(tier: str) -> float:
    """Accuracy of uniform random guessing on a tier."""
    return 1.0 / len(tier_classes(tier))


def loo_accuracy(spec: ModelSpec, lexicon: SeedLexicon, space: EmbeddingSpace,
                 tier: str) -> AccuracyReport:
    """Classify each seed with the model fit on all other seeds.

    The leave-one-out is closed-form or masked, not refit (kNN and KDE
    mask the seed's own distance; centroid and naive Bayes remove it
    from its class moments); ``h=None`` picks the KDE bandwidth in the
    same pass. Seeds without embeddings are excluded from both training
    and evaluation. Every class must hold two or more embedded seeds.
    """
    class_vectors = seed_vectors(lexicon, space, tier)
    for label, matrix in class_vectors.items():
        if matrix.shape[0] < 2:
            raise DataError(
                f"class {label!r} has {matrix.shape[0]} embedded seed(s) in decade "
                f"{space.decade}; leave-one-out would empty it")
    spec, predicted = _loo_predict(spec, class_vectors)
    labels = list(class_vectors)
    confusion = {t: {p: 0 for p in labels} for t in labels}
    truth = [label for label, matrix in class_vectors.items() for _ in matrix]
    for t, p in zip(truth, predicted):
        confusion[t][labels[p]] += 1
    correct = sum(confusion[c][c] for c in labels)
    return AccuracyReport(tier=tier, model=spec, decade=space.decade,
                          accuracy=correct / len(truth), confusion=confusion, n=len(truth))


def loo_accuracy_historical(spec: ModelSpec, lexicon: SeedLexicon,
                            diachronic: DiachronicEmbeddings,
                            tier: str) -> HistoricalAccuracy:
    """Leave-one-out accuracy per decade, summarized by mean and
    population standard deviation across decades."""
    reports = tuple(loo_accuracy(spec, lexicon, space, tier)
                    for space in diachronic)
    accs = np.array([r.accuracy for r in reports])
    return HistoricalAccuracy(tier=tier, model=spec, reports=reports,
                              mean_accuracy=float(accs.mean()),
                              stdev_accuracy=float(accs.std(ddof=0)))


def valence_correlation(polarity_model: Classifier, space: EmbeddingSpace,
                        norms: NormTable) -> CorrelationReport:
    """Correlate human valence ratings with predicted positive-polarity
    probability over all rated words that have embeddings, scored by
    ``_word_posteriors``. A model of another dimension than the space is
    refused."""
    if polarity_model.dim != space.dim:
        raise DataError(f"query has dimension {space.dim}, model expects {polarity_model.dim}")
    probs = _word_posteriors(polarity_model, space, space._lookup(norms.words))
    present = ~np.isnan(probs[:, 0])
    if (n := int(np.count_nonzero(present))) < 3:
        raise DataError(f"only {n} rated words have embeddings; need >= 3")
    return pearson(norms.valence[present],
                   probs[present, polarity_model.classes.index("positive")])


def load_survey(path: str | Path) -> list[tuple[list[str], float, float]]:
    """Parse a survey CSV (topic,frac_not_moral,frac_acceptable).

    Topics may contain several space-separated tokens; proportions must
    lie in [0, 1].
    """
    header = ["topic", "frac_not_moral", "frac_acceptable"]
    proportions = [Column(f"proportion {name}", float, bounds=(0.0, 1.0)) for name in header[1:]]
    topics, not_moral, acceptable = read_table(path, [header], [Column("topic"), *proportions])
    return [(topic.split(), a, b)
            for topic, a, b in zip(topics, not_moral.tolist(), acceptable.tolist())]


def survey_correlation(relevance_model: Classifier, polarity_model: Classifier,
                       space: EmbeddingSpace,
                       survey: Sequence[tuple[Sequence[str], float, float]]
                       ) -> tuple[CorrelationReport, CorrelationReport]:
    """Correlate survey judgments with model predictions per topic.

    The first report pairs the ''not a moral issue'' proportion with the
    predicted irrelevance probability; the second pairs the
    ''acceptable'' proportion with the predicted positive-polarity
    probability. Multi-word topics are queried by their averaged
    embedding; unresolvable topics are skipped with a warning.
    """
    irr, pos, not_moral, acceptable = [], [], [], []
    for tokens, frac_not_moral, frac_acceptable in survey:
        try:
            q = average_vector(space, list(tokens))
        except DataError:
            logger.warning("decade %d: topic %r has no resolvable tokens; skipped",
                           space.decade, " ".join(tokens))
            continue
        irr.append(posterior(relevance_model, q)["irrelevant"])
        pos.append(posterior(polarity_model, q)["positive"])
        not_moral.append(frac_not_moral)
        acceptable.append(frac_acceptable)
    if len(irr) < 3:
        raise DataError(f"only {len(irr)} topics resolvable to vectors; need >= 3")
    return pearson(not_moral, irr), pearson(acceptable, pos)
