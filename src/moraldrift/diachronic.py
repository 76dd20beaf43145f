"""Diachronic pipeline: per-decade score time courses, word-by-decade
prediction matrices, change slopes, switching periods, and retrieval
of the words whose scores changed the most."""
from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers import ModelSpec, fit_tier, posterior_batch
from .embeddings import DiachronicEmbeddings, parse_cell, read_table
from .errors import CoverageError, DataError, ParseError
from .lexicon import CATEGORY, POLARITY, RELEVANCE, SeedLexicon, tier_classes
from .stats import MIN_SLOPE_DECADES, slope_rows

logger = logging.getLogger(__name__)

TOWARD_RELEVANCE = "toward-relevance"
TOWARD_POSITIVE = "toward-positive"
TOWARD_NEGATIVE = "toward-negative"
DIRECTIONS = (TOWARD_RELEVANCE, TOWARD_POSITIVE, TOWARD_NEGATIVE)

MODERN_RANGE = (1900, 1999)

# The binary-tier score column tracks one pole of the class pair.
_SCORE_CLASS = {RELEVANCE: "relevant", POLARITY: "positive"}


@dataclass(frozen=True)
class TimeCourse:
    """Per-decade scores for one word at one tier.

    For the binary tiers ``scores`` has shape (n_decades,) and holds the
    probability of the tracked pole (relevant / positive). For the
    category tier it has shape (n_decades, 10) holding the full
    distribution; ``class_labels`` names the columns. ``missing`` is
    True exactly where the word had no embedding; those scores are NaN.
    """

    word: str
    tier: str
    decades: tuple[int, ...]
    scores: np.ndarray
    missing: np.ndarray
    class_labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PredictionMatrix:
    """words x decades score matrix for one binary tier (NaN = missing)."""

    kind: str  # "relevance" or "polarity"
    words: tuple[str, ...]
    decades: tuple[int, ...]
    values: np.ndarray

    def course(self, word: str) -> TimeCourse:
        i = self.words.index(word)
        row = self.values[i]
        return TimeCourse(word=word, tier=self.kind, decades=self.decades,
                          scores=row, missing=~np.isfinite(row))


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
    NaN where a word has no embedding."""
    values = np.full((len(words), len(diachronic))
                     + ((len(tier_classes(tier)),) if tier == CATEGORY else ()), np.nan)
    row_of = {w: i for i, w in enumerate(words)}
    for j, space in enumerate(diachronic):
        model = fit_tier(spec, lexicon, space, tier)
        matrix, found, _ = space.rows(words)
        if not found:
            continue
        probs = posterior_batch(model, matrix)
        if tier != CATEGORY:
            probs = probs[:, model.classes.index(_SCORE_CLASS[tier])]
        values[[row_of[w] for w in found], j] = probs
    return values


def _course(word: str, tier: str, decades: tuple[int, ...],
            scores: np.ndarray) -> TimeCourse:
    missing = np.isnan(scores) if scores.ndim == 1 else np.isnan(scores).all(axis=1)
    if missing.all():
        raise CoverageError(f"word {word!r} has no embedding in any decade")
    return TimeCourse(word=word, tier=tier, decades=decades, scores=scores,
                      missing=missing,
                      class_labels=tier_classes(tier) if tier == CATEGORY else None)


def time_course(diachronic: DiachronicEmbeddings, lexicon: SeedLexicon,
                spec: ModelSpec, word: str, tier: str) -> TimeCourse:
    """Score one word against per-decade classifiers fitted from each
    decade's seed vectors. Decades without the word are masked."""
    scores = _decade_scores(diachronic, lexicon, spec, [word], tier)[0]
    return _course(word, tier, diachronic.decades, scores)


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


def slope(tc: TimeCourse, min_decades: int = MIN_SLOPE_DECADES) -> tuple[float, float]:
    """OLS slope of the score on the decade index 1..n over unmasked
    decades, with a two-sided t-test p-value. Slopes are per decade
    index, i.e. per calendar decade for contiguous data."""
    if tc.scores.ndim != 1:
        raise DataError("slope is defined for binary-tier time courses")
    present = ~tc.missing
    if int(present.sum()) < min_decades:
        raise DataError(
            f"word {tc.word!r}: {int(present.sum())} unmasked decades; "
            f"need at least {min_decades} for a slope")
    if not np.all(np.isfinite(tc.scores[present])):
        raise DataError(f"word {tc.word!r}: non-finite score in an unmasked decade")
    slopes, p = slope_rows(np.where(present, tc.scores, np.nan)[None, :])
    return float(slopes[0]), float(p[0])


def _binary_classes(tc: TimeCourse) -> np.ndarray:
    """Predicted pole per unmasked decade, matching classify()'s
    first-class tie rule (ties at 0.5 go to the first declared class)."""
    labels = tier_classes(tc.tier)
    pole = _SCORE_CLASS[tc.tier]
    if labels.index(pole) == 0:
        return tc.scores >= 0.5
    return tc.scores > 0.5


def switching_period(tc: TimeCourse) -> int | None:
    """Earliest decade from which every later unmasked prediction equals
    the final decade's predicted class. None if fully masked."""
    present = np.flatnonzero(~tc.missing)
    if present.size == 0:
        return None
    classes = _binary_classes(tc)
    final = classes[present[-1]]
    mismatches = [i for i in present if classes[i] != final]
    idx = 0 if not mismatches else int(max(mismatches)) + 1
    return tc.decades[idx]


def _mean_modern_category(course: TimeCourse) -> str | None:
    lo, hi = MODERN_RANGE
    idx = [i for i, d in enumerate(course.decades)
           if lo <= d <= hi and not course.missing[i]]
    if not idx:
        return None
    mean_dist = course.scores[idx].mean(axis=0)
    return course.class_labels[int(np.argmax(mean_dist))]


def _early_category(course: TimeCourse, relevance_row: np.ndarray) -> str | None:
    for i in range(len(course.decades)):
        if np.isfinite(relevance_row[i]) and relevance_row[i] > 0.5 \
                and not course.missing[i]:
            return course.class_labels[int(np.argmax(course.scores[i]))]
    return None


def retrieve_changing(matrix: PredictionMatrix, lexicon: SeedLexicon,
                      diachronic: DiachronicEmbeddings, spec: ModelSpec,
                      direction: str, top_n: int = 10,
                      relevance_matrix: PredictionMatrix | None = None,
                      bonferroni_family: str = "filtered") -> list[ChangeRecord]:
    """Rank words by fitted score slope and annotate the top ones.

    Words whose mean relevance score falls below 0.5 are removed, as are
    words with too few scored decades for a slope. Raw slope p-values
    are Bonferroni-corrected; with ``bonferroni_family='filtered'`` the
    multiplier is the number of words that survived the filters, with
    'all-words' it is the full word-list size. Top records get a
    switching decade plus fine-grained categories at the earliest
    morally-relevant decade and in the modern period.
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
        relevance_matrix = matrix
    else:
        if matrix.kind != POLARITY:
            raise DataError(f"direction {direction} needs a polarity matrix, "
                            f"got kind {matrix.kind!r}")
        if relevance_matrix is None:
            logger.info("computing companion relevance matrix for filtering")
            relevance_matrix = prediction_matrix(diachronic, lexicon, spec,
                                                 list(matrix.words), RELEVANCE)
        if relevance_matrix.words != matrix.words:
            raise DataError("relevance matrix words do not match the score matrix")

    rows: list[int] = []
    mean_rels: list[float] = []
    skipped_short = 0
    for i, rel_row in enumerate(relevance_matrix.values):
        rel_row = rel_row[np.isfinite(rel_row)]
        if rel_row.size == 0 or (mean_rel := float(rel_row.mean())) < 0.5:
            continue
        if int(np.isfinite(matrix.values[i]).sum()) < MIN_SLOPE_DECADES:
            skipped_short += 1
            continue
        rows.append(i)
        mean_rels.append(mean_rel)
    if skipped_short:
        logger.info("skipped %d words with fewer than %d scored decades",
                    skipped_short, MIN_SLOPE_DECADES)
    if not rows:
        logger.warning("no words pass the relevance filter; empty retrieval")
        return []
    slopes, p_values = slope_rows(matrix.values[rows])
    candidates = [(matrix.words[i], float(b), float(p), mean_rel)
                  for i, b, p, mean_rel in zip(rows, slopes, p_values, mean_rels)]

    m = len(candidates) if bonferroni_family == "filtered" else len(matrix.words)
    reverse = direction in (TOWARD_RELEVANCE, TOWARD_POSITIVE)
    candidates.sort(key=lambda c: ((-c[1] if reverse else c[1]), c[0]))
    top = candidates[:top_n]

    categories = _decade_scores(diachronic, lexicon, spec, [c[0] for c in top], CATEGORY)
    records = []
    for (word, b, p, mean_rel), cat_scores in zip(top, categories):
        cat_course = _course(word, CATEGORY, diachronic.decades, cat_scores)
        rel_row = relevance_matrix.values[matrix.words.index(word)]
        records.append(ChangeRecord(
            word=word, slope=b, p_raw=p, p_bonferroni=min(1.0, m * p),
            mean_relevance=mean_rel, switching_decade=switching_period(matrix.course(word)),
            early_category=_early_category(cat_course, rel_row),
            modern_category=_mean_modern_category(cat_course)))
    return records


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_wordlist(path: str | Path) -> list[tuple[str, float]]:
    """Parse a word,frequency CSV; words are lowercased, order kept."""
    out: list[tuple[str, float]] = []
    seen: set[str] = set()
    columns, lines = read_table(path, [["word", "frequency"]])
    for line, word_cell, frequency in zip(lines, *columns):
        where = f"{path}:{line}"
        word = parse_cell(word_cell, where, "word", seen=seen)
        freq = parse_cell(frequency, where, "frequency", float)
        out.append((word, freq))
    if not out:
        raise ParseError(f"{path}: no entries")
    return out


def matrix_to_json_dict(matrix: PredictionMatrix) -> dict:
    """JSON-ready dict with null for missing scores."""
    values = [[(float(v) if np.isfinite(v) else None) for v in row]
              for row in matrix.values]
    return {
        "kind": matrix.kind,
        "decades": list(matrix.decades),
        "words": list(matrix.words),
        "values": values,
    }


def matrix_from_json(path: str | Path) -> PredictionMatrix:
    """Read a prediction matrix written as ``matrix_to_json_dict``; a
    malformed file raises a ParseError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        kind = data["kind"]
        decades = tuple(int(d) for d in data["decades"])
        words = tuple(data["words"])
        values = np.array([[np.nan if v is None else float(v) for v in row]
                           for row in data["values"]], dtype=np.float64)
        repeated = [w for w, n in Counter(words).items() if n > 1]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed prediction-matrix JSON: {exc}") from exc
    if kind not in (RELEVANCE, POLARITY):
        raise ParseError(f"{path}: unknown matrix kind {kind!r}")
    if repeated:
        raise ParseError(f"{path}: duplicate word {repeated[0]!r}")
    if values.shape != (len(words), len(decades)):
        raise ParseError(f"{path}: values shape {values.shape} does not match "
                         f"{len(words)} words x {len(decades)} decades")
    return PredictionMatrix(kind=kind, words=words, decades=decades, values=values)
