"""Seed lexicon construction for the three classification tiers.

Moral seed words come from a word,category CSV (ten categories, five
foundations with a virtue and a vice pole each). Morally irrelevant
seeds are drawn from a valence-norms table: the words rated closest to
the neutral midpoint that are not themselves moral seeds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

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


@dataclass(frozen=True, eq=False)
class NormTable:
    """A ratings table as columns, in file order: ``valence`` and
    ``concreteness`` are float64 arrays aligned with ``words``, and a NaN
    concreteness means no rating. Its length, indexing and iteration give
    NormEntry rows."""

    words: tuple[str, ...]
    valence: np.ndarray
    concreteness: np.ndarray

    @classmethod
    def of(cls, norms: NormTable | Iterable[NormEntry]) -> NormTable:
        """``norms`` itself if a NormTable, else the table of its rows."""
        if isinstance(norms, NormTable):
            return norms
        norms = list(norms)
        return cls(tuple(e.word for e in norms),
                   np.array([e.valence for e in norms], dtype=np.float64),
                   np.array([math.nan if e.concreteness is None else e.concreteness
                             for e in norms], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> NormEntry:
        concreteness = float(self.concreteness[i])
        return NormEntry(self.words[i], float(self.valence[i]),
                         None if math.isnan(concreteness) else concreteness)

    def __iter__(self) -> Iterator[NormEntry]:
        return (self[i] for i in range(len(self)))


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
    columns, lines = read_table(path, [["word", "category"]])
    for line, word_cell, category_cell in zip(lines, *columns):
        where = f"{path}:{line}"
        word = parse_cell(word_cell, where, "word")
        category = parse_cell(category_cell, where, "category", int, bounds=(1, 10))
        if " " in word:
            skipped += 1
            continue
        entries.append(SeedEntry(word=word, category=category))
    if skipped:
        logger.warning("%s: skipped %d multi-word seed entries", path, skipped)
    return entries


def load_norms(path: str | Path) -> NormTable:
    """Parse the ratings CSV (word,valence[,concreteness]); rejects
    duplicates. Only a blank concreteness cell means no rating."""
    columns, lines = read_table(
        path, [["word", "valence"], ["word", "valence", "concreteness"]])
    words = [cell.strip().lower() for cell in columns[0]]
    valence = _number_column(columns[1], VALENCE_RANGE)
    concreteness = (_number_column(columns[2], CONCRETENESS_RANGE, blank=True)
                    if len(columns) == 3 else np.full(len(words), math.nan))
    if (valence is None or concreteness is None or not all(words)
            or len(set(words)) < len(words)):
        _refuse_first_bad_row(path, columns, lines)
    return NormTable(tuple(words), valence, concreteness)


def _number_column(cells: list[str], bounds: tuple[float, float],
                   blank: bool = False) -> np.ndarray | None:
    """The cells as float64, NaN where blank if ``blank``; None if any
    cell would fail ``parse_cell``: not a number, NaN or outside ``bounds``
    (so not finite), or blank without ``blank``."""
    n_blank = 0
    if blank:
        cells = [cell.strip() for cell in cells]
        n_blank = cells.count("")
    try:
        values = np.array([float(c) if c else math.nan for c in cells] if n_blank
                          else list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None
    missing = np.isnan(values)
    inside = (values >= bounds[0]) & (values <= bounds[1])
    if np.count_nonzero(missing) != n_blank or not np.all(inside | missing):
        return None
    return values


def _refuse_first_bad_row(path: str | Path, columns: list[list[str]],
                          lines: list[int]) -> NoReturn:
    """Raise the ParseError of the first refused row, in file order, by
    parsing the rows one by one with ``parse_cell``."""
    seen: set[str] = set()
    for line, *cells in zip(lines, *columns):
        where = f"{path}:{line}"
        parse_cell(cells[0], where, "word", seen=seen)
        parse_cell(cells[1], where, "valence", float, bounds=VALENCE_RANGE)
        if len(cells) == 3:
            parse_cell(cells[2], where, "concreteness", float,
                       bounds=CONCRETENESS_RANGE, blank=True)
    raise RuntimeError(f"{path}: a column check refused a row that parse_cell accepts")


def relevant_words(entries: Iterable[SeedEntry]) -> list[str]:
    """Distinct seed words in first-occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    for e in entries:
        if e.word not in seen:
            seen.add(e.word)
            out.append(e.word)
    return out


def build_irrelevant_seeds(norms: NormTable | Sequence[NormEntry],
                           mfd_words: Iterable[str], count: int | None = None,
                           vocabulary: Iterable[str] | None = None) -> set[str]:
    """Select the ``count`` most valence-neutral non-seed words.

    Neutrality is distance from the scale midpoint 5.0; ties break
    lexicographically. ``count`` defaults to the seed-word count so the
    relevant and irrelevant sets end up the same size. ``vocabulary``,
    when given, restricts candidates to words with embeddings.
    """
    table = NormTable.of(norms)
    mfd = set(mfd_words)
    if count is None:
        count = len(mfd)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    vocab = set(vocabulary) if vocabulary is not None else None
    rows = [i for i, w in enumerate(table.words)
            if w not in mfd and (vocab is None or w in vocab)]
    if count > len(rows):
        raise DataError(
            f"requested {count} irrelevant seeds but only {len(rows)} "
            f"non-seed candidate words are available")
    if count == 0:
        return set()
    distance = np.abs(table.valence[rows] - VALENCE_MIDPOINT)
    # The count-th smallest distance: every word nearer is chosen, and the
    # words at it fill the remaining places in word order.
    cut = np.partition(distance, count - 1)[count - 1]
    chosen = [table.words[rows[i]] for i in np.flatnonzero(distance < cut)]
    tied = sorted(table.words[rows[i]] for i in np.flatnonzero(distance == cut))
    return set(chosen + tied[:count - len(chosen)])


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
