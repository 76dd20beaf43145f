"""Seed lexicon construction for the three classification tiers.

Moral seed words come from a word,category CSV (ten categories, five
foundations with a virtue and a vice pole each). Morally irrelevant
seeds are drawn from a valence-norms table: the words rated closest to
the neutral midpoint that are not themselves moral seeds.
"""
from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .embeddings import Column, EmbeddingSpace, read_table
from .errors import CoverageError, DataError, ParseError

logger = logging.getLogger(__name__)

RELEVANCE = "relevance"
POLARITY = "polarity"
CATEGORY = "category"
TIERS = (RELEVANCE, POLARITY, CATEGORY)

RELEVANCE_CLASSES = ("irrelevant", "relevant")
POLARITY_CLASSES = ("positive", "negative")
# Index i holds the label for category number i+1; odd numbers are
# virtue (positive) poles, even numbers vice (negative) poles.
CATEGORY_CLASSES = (
    "care+", "harm-", "fairness+", "cheating-", "loyalty+",
    "betrayal-", "authority+", "subversion-", "sanctity+", "degradation-",
)

VALENCE_MIDPOINT = 5.0
VALENCE_RANGE = (1.0, 9.0)
CONCRETENESS_RANGE = (1.0, 5.0)


def category_label(category: int) -> str:
    if not 1 <= category <= 10:
        raise ValueError(f"category number out of range: {category}")
    return CATEGORY_CLASSES[category - 1]


def tier_classes(tier: str) -> tuple[str, ...]:
    """Canonical class labels, in tie-breaking order, for a tier."""
    if tier == RELEVANCE:
        return RELEVANCE_CLASSES
    if tier == POLARITY:
        return POLARITY_CLASSES
    if tier == CATEGORY:
        return CATEGORY_CLASSES
    raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")


@dataclass(frozen=True, eq=False)
class NormTable:
    """A ratings table as columns, in file order: ``valence`` and
    ``concreteness`` are float64 arrays aligned with ``words``, and a NaN
    concreteness means no rating. Its length is its number of words."""

    words: tuple[str, ...]
    valence: np.ndarray
    concreteness: np.ndarray

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SeedLexicon:
    """The moral environment organized into the three tier views."""

    relevant: frozenset[str]
    irrelevant: frozenset[str]
    positive: frozenset[str]
    negative: frozenset[str]
    categories: Mapping[int, frozenset[str]]

    def classes_for(self, tier: str) -> dict[str, frozenset[str]]:
        """Class label -> seed word set, in canonical class order."""
        if tier == RELEVANCE:
            return {"irrelevant": self.irrelevant, "relevant": self.relevant}
        if tier == POLARITY:
            return {"positive": self.positive, "negative": self.negative}
        if tier == CATEGORY:
            return {category_label(c): self.categories[c] for c in range(1, 11)}
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")

    @cached_property
    def _models(self) -> weakref.WeakKeyDictionary:
        """``classifiers.fit_tier``'s memo: space -> {(spec, tier): model}.
        The space is held weakly, so its models go with it."""
        return weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        """Pickle and copy the seed sets only; the memo starts empty."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_mfd(path: str | Path) -> dict[str, int]:
    """Parse the moral seed CSV (header word,category; categories 1-10)
    into ``word -> category`` in file order.

    Words are lowercased. Entries holding whitespace cannot be matched
    against single-token embedding vocabularies and are skipped with a
    warning; a table left without a seed is refused. A word listed under
    several categories keeps its first one (also with a warning), so every
    seed belongs to exactly one category and one polarity pole.
    """
    words, categories = read_table(path, [["word", "category"]],
                                   [Column("word"), Column("category", int, bounds=(1, 10))])
    pairs = [(w, c) for w, c in zip(words, categories) if len(w.split()) == 1]
    if len(pairs) < len(words):
        logger.warning("%s: skipped %d multi-word seed entries", path,
                       len(words) - len(pairs))
    if not pairs:
        raise ParseError(f"{path}: no single-word seed entries")
    mfd: dict[str, int] = {}
    for word, category in pairs:
        mfd.setdefault(word, category)
    if len(mfd) < len(pairs):
        logger.warning("ignored %d repeated seed words (first category kept)",
                       len(pairs) - len(mfd))
    return mfd


def load_norms(path: str | Path) -> NormTable:
    """Parse the ratings CSV (word,valence[,concreteness]); rejects
    duplicates. Only a blank concreteness cell means no rating."""
    columns = read_table(path, [["word", "valence"], ["word", "valence", "concreteness"]], [
        Column("word", unique=True), Column("valence", float, bounds=VALENCE_RANGE),
        Column("concreteness", float, bounds=CONCRETENESS_RANGE, blank=True)])
    words, valence = columns[:2]
    concreteness = columns[2] if len(columns) == 3 else np.full(len(words), math.nan)
    return NormTable(tuple(words), valence, concreteness)


def relevant_words(mfd: Mapping[str, int]) -> list[str]:
    """The seed words of ``load_mfd``, in file order."""
    return list(mfd)


def build_irrelevant_seeds(norms: NormTable, mfd_words: Iterable[str],
                           count: int | None = None,
                           vocabulary: Iterable[str] | None = None) -> set[str]:
    """Select the ``count`` most valence-neutral non-seed words.

    Neutrality is distance from the scale midpoint 5.0; ties break
    lexicographically. ``count`` defaults to the seed-word count so the
    relevant and irrelevant sets end up the same size. ``vocabulary``,
    when given, restricts candidates to words with embeddings.
    """
    mfd = set(mfd_words)
    if count is None:
        count = len(mfd)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    vocab = set(vocabulary) if vocabulary is not None else None
    rows = [i for i, w in enumerate(norms.words)
            if w not in mfd and (vocab is None or w in vocab)]
    if count > len(rows):
        raise DataError(
            f"requested {count} irrelevant seeds but only {len(rows)} "
            f"non-seed candidate words are available")
    if count == 0:
        return set()
    distance = np.abs(norms.valence[rows] - VALENCE_MIDPOINT)
    # The count-th smallest distance: every word nearer is chosen, and the
    # words at it fill the remaining places in word order.
    cut = np.partition(distance, count - 1)[count - 1]
    chosen = [norms.words[rows[i]] for i in np.flatnonzero(distance < cut)]
    tied = sorted(norms.words[rows[i]] for i in np.flatnonzero(distance == cut))
    return set(chosen + tied[:count - len(chosen)])


def build_tiers(mfd: Mapping[str, int], irrelevant: Iterable[str]) -> SeedLexicon:
    """Assemble the three tier views from ``word -> category`` seeds and
    neutral words."""
    categories: dict[int, set[str]] = {c: set() for c in range(1, 11)}
    for word, category in mfd.items():
        categories[category].add(word)
    relevant = frozenset(mfd)
    positive = frozenset(w for c in (1, 3, 5, 7, 9) for w in categories[c])
    negative = frozenset(w for c in (2, 4, 6, 8, 10) for w in categories[c])
    irrelevant = frozenset(w.lower() for w in irrelevant)

    overlap = irrelevant & relevant
    if overlap:
        raise DataError(
            f"irrelevant seeds overlap moral seeds: {sorted(overlap)[:5]}")
    if len(irrelevant) != len(relevant):
        raise DataError(
            f"expected equally many irrelevant ({len(irrelevant)}) and "
            f"relevant ({len(relevant)}) seeds")
    return SeedLexicon(
        relevant=relevant,
        irrelevant=irrelevant,
        positive=positive,
        negative=negative,
        categories={c: frozenset(ws) for c, ws in categories.items()},
    )


def seed_vectors(lexicon: SeedLexicon, space: EmbeddingSpace,
                 tier: str) -> dict[str, np.ndarray]:
    """Per-class seed vector matrices for one tier in one decade's space.

    Rows follow the sorted seed words. Seeds without embeddings are
    dropped; a class left empty raises a coverage error naming the class
    and decade.
    """
    out: dict[str, np.ndarray] = {}
    for label, words in lexicon.classes_for(tier).items():
        matrix, found, missing = space.rows(sorted(words))
        if not found:
            raise CoverageError(
                f"class {label!r} has no seed embeddings in decade {space.decade}")
        if missing:
            logger.debug("decade %d, class %s: %d/%d seeds have embeddings",
                         space.decade, label, len(found), len(words))
        out[label] = matrix
    return out
