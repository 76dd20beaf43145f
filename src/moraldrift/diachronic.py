"""Diachronic pipeline: per-decade score time courses, word-by-decade
prediction matrices, change slopes, switching periods, and retrieval
of the words whose scores changed the most."""
from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers import ModelSpec, _word_posteriors, fit_tier
from .embeddings import Column, DiachronicEmbeddings, read_table
from .errors import CoverageError, DataError, ParseError
from .lexicon import CATEGORY, POLARITY, RELEVANCE, SeedLexicon, tier_classes
from .stats import MIN_SLOPE_DECADES, _decade_steps, _refuse_infinite, slope_rows

logger = logging.getLogger(__name__)

TOWARD_RELEVANCE = "toward-relevance"
TOWARD_POSITIVE = "toward-positive"
TOWARD_NEGATIVE = "toward-negative"
DIRECTIONS = (TOWARD_RELEVANCE, TOWARD_POSITIVE, TOWARD_NEGATIVE)

MODERN_RANGE = (1900, 1999)

# The binary-tier score column tracks one pole of the class pair.
_SCORE_CLASS = {RELEVANCE: "relevant", POLARITY: "positive"}


@dataclass(frozen=True)
class PredictionMatrix:
    """words x decades score matrix for one binary tier (NaN = missing)."""

    kind: str  # "relevance" or "polarity"
    words: tuple[str, ...]
    decades: tuple[int, ...]
    values: np.ndarray


@dataclass(frozen=True)
class ChangeRecord:
    word: str
    slope: float
    p_raw: float
    p_bonferroni: float
    mean_relevance: float
    switching_decade: int | None
    early_category: str | None
    modern_category: str | None


def _decade_scores(diachronic: DiachronicEmbeddings, lexicon: SeedLexicon,
                   spec: ModelSpec, words: Sequence[str], tier: str) -> np.ndarray:
    """Scores of words under each decade's model, fit once per decade: the
    tracked pole's probability for a binary tier, (n_words, n_decades); the
    class distribution for the category tier, (n_words, n_decades, 10).
    NaN where a word has no embedding. Decade by decade, ``_word_posteriors``
    scores the word list."""
    values = np.empty((len(words), len(diachronic))
                      + ((len(tier_classes(tier)),) if tier == CATEGORY else ()))
    for j, space in enumerate(diachronic):
        model = fit_tier(spec, lexicon, space, tier)
        probs = _word_posteriors(model, space, words)
        if tier != CATEGORY:
            probs = probs[:, model.classes.index(_SCORE_CLASS[tier])]
        values[:, j] = probs
    return values


def time_course(diachronic: DiachronicEmbeddings, lexicon: SeedLexicon,
                spec: ModelSpec, word: str, tier: str) -> np.ndarray:
    """Score one word against per-decade classifiers fitted from each
    decade's seed vectors: the tracked pole's probability (relevant or
    positive) per decade for a binary tier, shape (n_decades,); the class
    distribution, columns ``tier_classes(tier)``, for the category tier,
    shape (n_decades, 10). Decades without the word hold NaN."""
    scores = _decade_scores(diachronic, lexicon, spec, [word], tier)[0]
    if np.isnan(scores).all():
        raise CoverageError(f"word {word!r} has no embedding in any decade")
    return scores


def prediction_matrix(diachronic: DiachronicEmbeddings, lexicon: SeedLexicon,
                      spec: ModelSpec, words: Sequence[str],
                      kind: str) -> PredictionMatrix:
    """Batch time courses for a word list at one binary tier.

    Rows follow the input word order, columns the decade order. Words
    missing from a decade get NaN there; fully absent words are all-NaN
    rows (flagged in the log, not an error).
    """
    if kind not in (RELEVANCE, POLARITY):
        raise ValueError(f"matrix kind must be '{RELEVANCE}' or '{POLARITY}', got {kind!r}")
    if not words:
        raise DataError("word list is empty")
    if len(set(words)) != len(words):
        raise DataError("word list contains duplicates")
    values = _decade_scores(diachronic, lexicon, spec, words, kind)
    absent = int(np.count_nonzero(~np.isfinite(values).any(axis=1)))
    if absent:
        logger.warning("%d of %d words have no embedding in any decade",
                       absent, len(words))
    return PredictionMatrix(kind=kind, words=tuple(words),
                            decades=diachronic.decades, values=values)


def _switching_index(values: np.ndarray, tier: str) -> np.ndarray:
    """Per row of a binary-tier score matrix (NaN = missing), the index of
    the earliest decade from which every later scored prediction equals
    the last scored decade's predicted class; -1 for a row with no score.
    Ties at 0.5 go to the first class of ``tier_classes(tier)``, as the
    argmax of a posterior row does."""
    present = np.isfinite(values)
    if tier_classes(tier).index(_SCORE_CLASS[tier]) == 0:
        classes = values >= 0.5
    else:
        classes = values > 0.5
    n = values.shape[1]
    last = n - 1 - np.argmax(present[:, ::-1], axis=1)
    mismatch = present & (classes != classes[np.arange(len(values)), last][:, None])
    index = np.where(mismatch.any(axis=1), n - np.argmax(mismatch[:, ::-1], axis=1), 0)
    return np.where(present.any(axis=1), index, -1)


def retrieve_changing(matrix: PredictionMatrix, lexicon: SeedLexicon,
                      diachronic: DiachronicEmbeddings, spec: ModelSpec,
                      direction: str, top_n: int = 10,
                      relevance_matrix: PredictionMatrix | None = None,
                      bonferroni_family: str = "filtered") -> list[ChangeRecord]:
    """Rank words by fitted score slope, per decade, and annotate the top
    ones.

    Words whose mean relevance score falls below 0.5 are removed, as are
    words with too few scored decades for a slope. Raw slope p-values
    are Bonferroni-corrected; with ``bonferroni_family='filtered'`` the
    multiplier is the number of words that survived the filters, with
    'all-words' it is the full word-list size. Top records get a
    switching decade plus fine-grained categories at the earliest
    morally-relevant decade and in the modern period. A ±inf score in
    either matrix is refused (NaN means missing).
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    if bonferroni_family not in ("filtered", "all-words"):
        raise ValueError(f"unknown bonferroni family {bonferroni_family!r}")
    if direction == TOWARD_RELEVANCE:
        if matrix.kind != RELEVANCE:
            raise DataError(f"direction {direction} needs a relevance matrix, "
                            f"got kind {matrix.kind!r}")
        if relevance_matrix is not None:
            raise DataError(f"direction {direction} takes no separate relevance matrix")
        relevance_matrix = matrix
    else:
        if matrix.kind != POLARITY:
            raise DataError(f"direction {direction} needs a polarity matrix, "
                            f"got kind {matrix.kind!r}")
        if relevance_matrix is None:
            logger.info("computing companion relevance matrix for filtering")
            relevance_matrix = prediction_matrix(diachronic, lexicon, spec,
                                                 list(matrix.words), RELEVANCE)
        if relevance_matrix.kind != RELEVANCE:
            raise DataError(f"the relevance filter needs a relevance matrix, "
                            f"got kind {relevance_matrix.kind!r}")
        if relevance_matrix.words != matrix.words:
            raise DataError("relevance matrix words do not match the score matrix")
    for scores in (matrix, relevance_matrix):
        if scores.decades != diachronic.decades:
            raise DataError(f"{scores.kind} matrix decades {list(scores.decades)} do not "
                            f"match the embeddings' {list(diachronic.decades)}")
        _refuse_infinite(scores.values, scores.words)

    scored = np.isfinite(relevance_matrix.values)
    with np.errstate(invalid="ignore"):  # 0/0 on a row without a relevance score
        mean_rels = (np.where(scored, relevance_matrix.values, 0.0).sum(axis=1)
                     / scored.sum(axis=1))
    relevant = mean_rels >= 0.5
    long_enough = np.isfinite(matrix.values).sum(axis=1) >= MIN_SLOPE_DECADES
    if skipped_short := int(np.count_nonzero(relevant & ~long_enough)):
        logger.info("skipped %d words with fewer than %d scored decades",
                    skipped_short, MIN_SLOPE_DECADES)
    rows = np.flatnonzero(relevant & long_enough)
    if not rows.size:
        logger.warning("no words pass the relevance filter; empty retrieval")
        return []
    slopes, p_values = slope_rows(matrix.values[rows], _decade_steps(matrix.decades))
    reverse = direction in (TOWARD_RELEVANCE, TOWARD_POSITIVE)
    words = np.array(matrix.words, dtype=object)[rows]
    top = np.lexsort((words, -slopes if reverse else slopes))[:top_n]
    m = rows.size if bonferroni_family == "filtered" else len(matrix.words)
    rows, words, slopes, p_values = rows[top], words[top], slopes[top], p_values[top]

    categories = _decade_scores(diachronic, lexicon, spec, list(words), CATEGORY)
    early, modern = _early_modern_categories(
        categories, relevance_matrix.values[rows] > 0.5, diachronic.decades, words)
    switching = _switching_index(matrix.values[rows], matrix.kind)
    return [ChangeRecord(word=word, slope=float(b), p_raw=float(p),
                         p_bonferroni=min(1.0, m * float(p)),
                         mean_relevance=float(mean_rels[i]),
                         switching_decade=matrix.decades[s] if s >= 0 else None,
                         early_category=early_label, modern_category=modern_label)
            for word, i, b, p, s, early_label, modern_label
            in zip(words, rows, slopes, p_values, switching, early, modern)]


def _early_modern_categories(categories: np.ndarray, relevant: np.ndarray,
                             decades: tuple[int, ...], words: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per word of a (words, decades, 10) category-score block, the most
    probable category at the first decade that is scored and ``relevant``,
    and that of the mean distribution over the scored modern decades;
    None where there is no such decade. A word scored in no decade is a
    CoverageError."""
    scored = ~np.isnan(categories).all(axis=2)
    if not scored.any(axis=1).all():
        raise CoverageError(f"word {words[np.argmin(scored.any(axis=1))]!r} "
                            f"has no embedding in any decade")
    labels = np.array(tier_classes(CATEGORY), dtype=object)
    early = scored & relevant
    first = categories[np.arange(len(categories)), np.argmax(early, axis=1)]
    lo, hi = MODERN_RANGE
    modern = scored & (lo <= np.array(decades)) & (np.array(decades) <= hi)
    with np.errstate(invalid="ignore"):  # 0/0 on a word without a modern decade
        modern_mean = (np.where(modern[..., None], categories, 0.0).sum(axis=1)
                       / modern.sum(axis=1)[:, None])
    return (np.where(early.any(axis=1), labels[np.argmax(first, axis=1)], None),
            np.where(modern.any(axis=1), labels[np.argmax(modern_mean, axis=1)], None))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_wordlist(path: str | Path) -> list[tuple[str, float]]:
    """Parse a word,frequency CSV; words are lowercased, order kept."""
    words, frequencies = read_table(path, [["word", "frequency"]],
                                    [Column("word", unique=True), Column("frequency", float)])
    if not words:
        raise ParseError(f"{path}: no entries")
    return list(zip(words, frequencies.tolist()))


def json_scores(values: np.ndarray) -> list:
    """Scores as JSON-ready lists: null where a score is missing (NaN)."""
    return np.where(np.isfinite(values), values, None).tolist()


def matrix_to_json_dict(matrix: PredictionMatrix) -> dict:
    """JSON-ready dict with null for missing scores."""
    return {
        "kind": matrix.kind,
        "decades": list(matrix.decades),
        "words": list(matrix.words),
        "values": json_scores(matrix.values),
    }


def _not_a_score(constant: str):
    raise ValueError(f"{constant} is not a score")


def matrix_from_json(path: str | Path) -> PredictionMatrix:
    """Read a prediction matrix written as ``matrix_to_json_dict``: a list
    of word strings, a list of increasing integer decades, and per word a
    row of scores in [0, 1] or null. Anything else raises a ParseError
    naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh, parse_constant=_not_a_score)
        kind, decades, words, rows = data["kind"], data["decades"], data["words"], data["values"]
        if type(words) is not list or not all(type(w) is str for w in words):
            raise ValueError("words must be a list of strings")
        if (type(decades) is not list or not all(type(d) is int for d in decades)
                or any(a >= b for a, b in zip(decades, decades[1:]))):
            raise ValueError("decades must be a list of increasing integers")
        if type(rows) is not list or not all(type(row) is list for row in rows):
            raise ValueError("values must be a list of rows")
        if not set(map(type, chain.from_iterable(rows))) <= {int, float, type(None)}:
            raise ValueError("a score is neither a number nor null")
        values = np.array(rows, dtype=np.float64)
        repeated = [w for w, n in Counter(words).items() if n > 1]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed prediction-matrix JSON: {exc}") from exc
    if kind not in (RELEVANCE, POLARITY):
        raise ParseError(f"{path}: unknown matrix kind {kind!r}")
    if repeated:
        raise ParseError(f"{path}: duplicate word {repeated[0]!r}")
    if values.shape != (len(words), len(decades)):
        raise ParseError(f"{path}: values shape {values.shape} does not match "
                         f"{len(words)} words x {len(decades)} decades")
    outside = np.argwhere((values < 0) | (values > 1))
    if outside.size:
        i, j = outside[0]
        raise ParseError(f"{path}: word {words[i]!r}, decade {decades[j]}: "
                         f"score {float(values[i, j])} outside [0, 1]")
    return PredictionMatrix(kind=kind, words=tuple(words), decades=tuple(decades),
                            values=values)
