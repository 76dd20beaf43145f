"""Seed lexicon construction for the three classification tiers.

Moral seed words come from a word,category CSV (ten categories, five
foundations with a virtue and a vice pole each). Morally irrelevant
seeds are drawn from a valence-norms table: the words rated closest to
the neutral midpoint that are not themselves moral seeds.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, parse_cell, read_table
from .errors import CoverageError, DataError

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


@dataclass(frozen=True)
class SeedEntry:
    word: str
    category: int  # 1..10


@dataclass(frozen=True)
class NormEntry:
    word: str
    valence: float
    concreteness: float | None = None


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

    def _sorted_classes(self, tier: str) -> dict[str, tuple[str, ...]]:
        """``classes_for`` with each seed set sorted, once per tier:
        ``seed_vectors`` gathers rows in this order on every fit."""
        cache = self._sorted_cache
        if tier not in cache:
            cache[tier] = {label: tuple(sorted(words))
                           for label, words in self.classes_for(tier).items()}
        return cache[tier]

    @cached_property
    def _sorted_cache(self) -> dict[str, dict[str, tuple[str, ...]]]:
        return {}


def load_mfd(path: str | Path) -> list[SeedEntry]:
    """Parse the moral seed CSV (header word,category; categories 1-10).

    Words are lowercased. Multi-token entries cannot be matched against
    single-token embedding vocabularies and are skipped with a warning.
    """
    entries: list[SeedEntry] = []
    skipped = 0
    for where, row in read_table(path, [["word", "category"]]):
        word = parse_cell(row[0], where, "word")
        category = parse_cell(row[1], where, "category", int, bounds=(1, 10))
        if " " in word:
            skipped += 1
            continue
        entries.append(SeedEntry(word=word, category=category))
    if skipped:
        logger.warning("%s: skipped %d multi-word seed entries", path, skipped)
    return entries


def load_norms(path: str | Path) -> list[NormEntry]:
    """Parse the ratings CSV (word,valence[,concreteness]); rejects duplicates."""
    entries: list[NormEntry] = []
    seen: set[str] = set()
    for where, row in read_table(
            path, [["word", "valence"], ["word", "valence", "concreteness"]]):
        word = parse_cell(row[0], where, "word", seen=seen)
        valence = parse_cell(row[1], where, "valence", float, bounds=VALENCE_RANGE)
        concreteness = None
        if len(row) == 3:
            concreteness = parse_cell(row[2], where, "concreteness", float,
                                      bounds=CONCRETENESS_RANGE, blank=True)
        entries.append(NormEntry(word=word, valence=valence, concreteness=concreteness))
    return entries


def relevant_words(entries: Iterable[SeedEntry]) -> list[str]:
    """Distinct seed words in first-occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    for e in entries:
        if e.word not in seen:
            seen.add(e.word)
            out.append(e.word)
    return out


def build_irrelevant_seeds(norms: Sequence[NormEntry], mfd_words: Iterable[str],
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
    vocab = set(vocabulary) if vocabulary is not None else None
    candidates = [e for e in norms
                  if e.word not in mfd and (vocab is None or e.word in vocab)]
    if count > len(candidates):
        raise DataError(
            f"requested {count} irrelevant seeds but only {len(candidates)} "
            f"non-seed candidate words are available")
    ranked = sorted(candidates, key=lambda e: (abs(e.valence - VALENCE_MIDPOINT), e.word))
    return {e.word for e in ranked[:count]}


def build_tiers(mfd: Sequence[SeedEntry], irrelevant: Iterable[str]) -> SeedLexicon:
    """Assemble the three tier views from seed entries and neutral words.

    A word listed under several categories keeps its first one, so every
    seed belongs to exactly one category and one polarity pole.
    """
    by_word: dict[str, int] = {}
    n_dup = 0
    for e in mfd:
        if e.word in by_word:
            n_dup += 1
            continue
        by_word[e.word] = e.category
    if n_dup:
        logger.warning("ignored %d repeated seed words (first category kept)", n_dup)

    categories: dict[int, set[str]] = {c: set() for c in range(1, 11)}
    for word, category in by_word.items():
        categories[category].add(word)
    relevant = frozenset(by_word)
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

    Seeds without embeddings are dropped; a class left empty raises a
    coverage error naming the class and decade.
    """
    out: dict[str, np.ndarray] = {}
    for label, words in lexicon._sorted_classes(tier).items():
        matrix, found, missing = space.rows(words)
        if not found:
            raise CoverageError(
                f"class {label!r} has no seed embeddings in decade {space.decade}")
        if missing:
            logger.debug("decade %d, class %s: %d/%d seeds have embeddings",
                         space.decade, label, len(found), len(words))
        out[label] = matrix
    return out
