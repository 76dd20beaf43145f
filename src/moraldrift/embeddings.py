"""Decade-binned word embedding spaces: loading, lookup, and alignment.

Spaces are read from word2vec-style files (text or binary) or from an
``npy`` store (a float64 or float32 array plus a vocabulary file,
memory-mapped at load), indexed by word, and optionally rotated into a
common coordinate system with orthogonal Procrustes alignment so that
vectors are comparable across decades. The npy store is the only format
written: ``_write_labelled`` and ``_map_labelled`` hold its layout, and
word2vec files are read-only.
"""
from __future__ import annotations

import csv
import logging
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import AlignmentError, CoverageError, DataError, ParseError

logger = logging.getLogger(__name__)

TEXT_FORMAT = "text-word2vec"
BINARY_FORMAT = "binary-word2vec"
NPY_FORMAT = "npy"
FORMATS = (TEXT_FORMAT, BINARY_FORMAT, NPY_FORMAT)
TEXT_CHUNK = 1 << 18  # characters of word2vec text parsed at once


class _Vocabulary(tuple):
    """Words in row order; every space on this object shares its ``index``."""

    @cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self, range(len(self))))


class EmbeddingSpace:
    """One decade's word -> vector map with fixed dimensionality.

    Immutable after construction; safe for concurrent reads. Vectors are
    rows of a read-only matrix in insertion order, float32 if given so,
    else float64; ``vector`` and ``rows`` widen them exactly to float64.
    Given another space's ``words``, a space shares its word tuple and
    index.
    """

    def __init__(self, decade: int, words: Sequence[str], matrix: np.ndarray,
                 n_duplicates: int = 0):
        if decade % 10 != 0:
            raise DataError(f"decade must be a multiple of 10, got {decade}")
        given, matrix = matrix, np.asarray(matrix)
        if matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix is given:  # the caller's own array keeps its flag
            matrix = matrix.view()
        matrix.flags.writeable = False
        if matrix.ndim != 2:
            raise DataError("embedding matrix must be 2-dimensional")
        if len(words) != matrix.shape[0]:
            raise DataError(f"{len(words)} words but {matrix.shape[0]} matrix rows")
        if matrix.shape[0] == 0:
            raise DataError("embedding space has empty vocabulary")
        if not np.all(np.isfinite(matrix)):
            raise DataError("embedding matrix contains non-finite entries")
        words = words if isinstance(words, _Vocabulary) else _Vocabulary(words)
        index = words.index
        if len(index) < len(words) or "" in index:  # an empty or repeated word: name the first
            seen: set[str] = set()
            for w in words:
                if not w:
                    raise DataError("empty word in vocabulary")
                if w in seen:
                    raise DataError(f"duplicate word in vocabulary: {w!r}")
                seen.add(w)
        self.decade = int(decade)
        self.words: tuple[str, ...] = words
        self.matrix = matrix
        self.n_duplicates = n_duplicates
        self._index = index

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray | None:
        """The vector for ``word`` as a read-only float64 row, or None."""
        i = self._index.get(word)
        if i is None:
            return None
        row = self.matrix[i].astype(np.float64, copy=False)
        row.flags.writeable = False
        return row

    def rows(self, words: Iterable[str], out: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 rows of the words the space holds, in input order, and a
        boolean mask over ``words`` that is True where the word is held.
        With ``out`` (float64, a row per word) the matrix is its first rows."""
        return self._gather(self._lookup(words), out)

    def _lookup(self, words: Iterable[str]) -> np.ndarray:
        """Each word's row, -1 where absent: rows of every space on these ``words``."""
        return np.fromiter(map(self._index.get, words, repeat(-1)), dtype=np.intp)

    def _gather(self, at: np.ndarray, out: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` of the words at ``_lookup`` rows ``at``."""
        present = at >= 0
        index = at[present]
        mat = np.empty((len(index), self.dim)) if out is None else out[:len(index)]
        if self.matrix.dtype == np.float64:
            # The indices are in range; mode "raise" would gather via a buffer.
            np.take(self.matrix, index, axis=0, out=mat, mode="clip")
        else:
            mat[...] = self.matrix.take(index, axis=0)
        return mat, present


class DiachronicEmbeddings:
    """Ordered sequence of embedding spaces with strictly increasing decades."""

    def __init__(self, spaces: Sequence[EmbeddingSpace]):
        if not spaces:
            raise DataError("diachronic sequence is empty")
        spaces = sorted(spaces, key=lambda s: s.decade)
        dims = {s.dim for s in spaces}
        if len(dims) != 1:
            raise DataError(f"member spaces disagree on dimensionality: {sorted(dims)}")
        decades = [s.decade for s in spaces]
        if len(set(decades)) != len(decades):
            raise DataError("duplicate decades in diachronic sequence")
        self.spaces: tuple[EmbeddingSpace, ...] = tuple(spaces)
        self.dim = spaces[0].dim

    @property
    def decades(self) -> tuple[int, ...]:
        return tuple(s.decade for s in self.spaces)

    def __len__(self) -> int:
        return len(self.spaces)

    def __iter__(self) -> Iterator[EmbeddingSpace]:
        return iter(self.spaces)

    def space(self, decade: int) -> EmbeddingSpace:
        for s in self.spaces:
            if s.decade == decade:
                return s
        raise DataError(f"no embedding space for decade {decade} "
                        f"(have {list(self.decades)})")


@dataclass(frozen=True)
class Column:
    """How ``read_table`` checks one column; errors call it ``name``.
    ``kind`` str: a word, stripped and lowercased, not empty. int or
    float: a number parsed by ``kind``, in the closed interval ``bounds``
    if given, else finite; NaN where blank if ``blank``. A tuple: the
    stripped cell, one of its strings. None: the stripped cell, not
    empty. With ``unique`` (words and ints), no value repeats an earlier
    one."""

    name: str
    kind: type | tuple[str, ...] | None = str
    bounds: tuple[float, float] | None = None
    blank: bool = False
    unique: bool = False

    def parse(self, cells: Sequence[str]) -> tuple[list | np.ndarray, tuple[int, str] | None]:
        """The values (a float64 array for float) and the first refused
        cell as ``(row, message)``, or None; a cell's first failed check
        (parse, bounds or choice, repeat) names it."""
        fault = None
        if self.kind in (int, float):
            values, fault = self._numbers(cells)
        elif self.kind in (str, None):
            values = [c.strip().lower() if self.kind is str else c.strip() for c in cells]
            if "" in values:
                fault = values.index(""), f"empty {self.name}"
        else:
            values = [c.strip() for c in cells]
            if not set(values) <= set(self.kind):
                bad = next(i for i, v in enumerate(values) if v not in self.kind)
                fault = bad, f"unknown {self.name} {values[bad]!r}"
        if self.unique and len(set(values)) < len(values):
            first: dict = {}
            i = next(i for i, v in enumerate(values) if first.setdefault(v, i) != i)
            if fault is None or i < fault[0]:
                fault = i, f"duplicate {self.name} {values[i]!r}"
        return values, fault

    def _numbers(self, cells: Sequence[str]) -> tuple[list | np.ndarray,
                                                      tuple[int, str] | None]:
        """``parse`` for an int or float column."""
        parse = self.kind
        if self.blank and not all(map(str.strip, cells)):
            parse = lambda c: self.kind(c) if c.strip() else math.nan
        fault = None
        try:
            values = list(map(parse, cells))
        except ValueError:  # the cells before the first unparsable one are checked on
            values = []
            for cell in cells:
                try:
                    values.append(parse(cell))
                except ValueError:
                    break
            what = "non-integer" if self.kind is int else "non-numeric"
            fault = len(values), f"{what} {self.name} {cells[len(values)]!r}"
        array = np.array(values, dtype=np.float64 if self.kind is float else object)
        if self.bounds is not None:
            lo, hi = self.bounds
            refused = ~((array >= lo) & (array <= hi)).astype(bool)
        else:
            refused = ~np.isfinite(array) if self.kind is float else np.zeros(len(array), bool)
        if self.blank:  # a blank cell is NaN; a "nan" cell is refused
            refused[[i for i in np.flatnonzero(np.isnan(array)) if not cells[i].strip()]] = False
        if refused.any():
            i = int(np.argmax(refused))
            fault = i, (f"{self.name} {values[i]} outside [{lo}, {hi}]" if self.bounds
                        else f"non-finite {self.name} {cells[i]!r}")
        return (array if self.kind is float else values), fault


def read_table(path: str | Path, headers: Sequence[Sequence[str]],
               columns: Sequence[Column]) -> list[list | np.ndarray]:
    """The values of each column of a CSV table whose header is one of
    ``headers``, checked by ``columns`` (one rule per header column; a
    shorter header uses the first ones).

    Lines starting with ``#`` and blank rows are skipped. Header cells
    are compared stripped and lowercased. A row of the wrong width, a
    cell over the csv module's field limit, or the first cell its rule
    refuses in file order raises a ParseError naming ``path:line`` (for
    a row with a quoted line break, its last line).
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    numbers = [n for n, line in enumerate(lines, start=1) if not line.startswith("#")]
    if len(numbers) < len(lines):
        lines = [lines[n - 1] for n in numbers]
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        normalized = [h.strip().lower() for h in header]
        if normalized not in [list(h) for h in headers]:
            want = " or ".join(",".join(h) for h in headers)
            raise ParseError(f"{path}: expected header '{want}', got {','.join(header)!r}")
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path}:{numbers[reader.line_num - 1]}: {exc}") from None
    if len(rows) + 1 < len(lines):  # a record spans lines: number each by its last
        reader = csv.reader(lines)
        numbers = [numbers[reader.line_num - 1] for _ in reader]
    numbers = numbers[1:]
    if not all(map(str.strip, map("".join, rows))):
        kept = [i for i, row in enumerate(rows) if "".join(row).strip()]
        rows, numbers = [rows[i] for i in kept], [numbers[i] for i in kept]
    width = len(normalized)
    bad = next((i for i, row in enumerate(rows) if len(row) != width), None)
    if bad is not None:
        raise ParseError(f"{path}:{numbers[bad]}: expected {width} columns, "
                         f"got {len(rows[bad])}")
    cells = [list(column) for column in zip(*rows)] if rows else [[] for _ in header]
    return _check_columns(path, cells, numbers, columns)


def _check_columns(path: str | Path, cells: Sequence[Sequence[str]],
                   lines: Sequence[int], columns: Sequence[Column]) -> list[list | np.ndarray]:
    """Each column of ``cells`` parsed by its rule in ``columns``; the
    first refused cell in file order (the earliest row, and in a row the
    leftmost column) raises a ParseError naming ``path:`` its line."""
    parsed = [rule.parse(column) for rule, column in zip(columns, cells)]
    faults = [(fault[0], j, fault[1]) for j, (_, fault) in enumerate(parsed) if fault]
    if faults:
        row, _, message = min(faults)
        raise ParseError(f"{path}:{lines[row]}: {message}")
    return [values for values, _ in parsed]


def _not_utf8(path: str | Path) -> ParseError:
    """The refusal of a text file that is not valid UTF-8, naming the line
    of its first invalid byte (text reads decode in chunks, so the line is
    found again from the raw bytes)."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}:{line}: not valid UTF-8 ({exc.reason})")
    return ParseError(f"{path}: not valid UTF-8")


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def _parse_header(line: str, path: Path) -> tuple[int, int]:
    """The entry count and dimension on a word2vec file's first line."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"{path}:1: malformed header {line!r}")
    (count,), (dim,) = _check_columns(path, [[part] for part in parts], [1], [
        Column(f"header {name}", int, bounds=(1, math.inf))
        for name in ("entry count", "dimension")])
    return count, dim


def _first_rows(path: Path, count: int, words: list[str], matrix: np.ndarray,
                lines: Sequence[int] | None = None) -> tuple[_Vocabulary, np.ndarray, int]:
    """The checks and dedupe shared by both word2vec readers: the entries
    must number ``count`` and be finite, duplicates included (errors name
    the word, and in text its line from ``lines``). Each word keeps its
    first row; returns the words, their rows and the duplicates dropped."""
    if len(words) != count:
        raise ParseError(f"{path}: header declares {count} entries, found {len(words)}"
                         + (" (truncated file)" if len(words) < count else ""))
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        i = int(bad[0])
        where = f"{path}:{lines[i]}" if lines else f"{path}"
        raise ParseError(f"{where}: non-finite vector for word {words[i]!r}")
    first: dict[str, int] = {}
    for i, word in enumerate(words):
        first.setdefault(word, i)
    n_dup = len(words) - len(first)
    if n_dup:
        words, matrix = list(first), matrix[list(first.values())]
    return _Vocabulary(words), matrix, n_dup


def _load_text(path: Path) -> tuple[_Vocabulary, np.ndarray, int]:
    """Parse a word2vec text file by ``_text_chunk``, ``TEXT_CHUNK``
    characters of lines at a time. The lines read before a decode error
    are parsed first, so an earlier bad line is named, as line by line."""
    words: list[str] = []
    lines: list[int] = []
    values = array("d")
    chunk: list[str] = []
    start, size, dim = 2, 0, 0
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            count, dim = _parse_header(fh.readline(), path)
            for line in fh:
                chunk.append(line)
                size += len(line)
                if size >= TEXT_CHUNK:
                    _text_chunk(path, dim, chunk, start, words, lines, values)
                    start, chunk, size = start + len(chunk), [], 0
    except UnicodeDecodeError:
        _text_chunk(path, dim, chunk, start, words, lines, values)
        raise _not_utf8(path) from None
    _text_chunk(path, dim, chunk, start, words, lines, values)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(words), dim)
    return _first_rows(path, count, words, matrix, lines)


def _text_chunk(path: Path, dim: int, chunk: Sequence[str], start: int, words: list[str],
                lines: list[int], values: array) -> None:
    """Append the entries of ``chunk``, lines ``start`` on, to ``words``,
    ``lines`` and ``values``. numpy's C reader parses the values with
    ``PyOS_string_to_double``, as ``float`` does, so to the same bits. A
    chunk it refuses (``1_0``, which only ``float`` reads; a wrong count)
    is read line by line, which parses it or names the bad line."""
    pairs = [line.split(maxsplit=1) for line in chunk]
    kept = [pair for pair in pairs if pair]  # blank lines skipped
    if not kept:  # numpy would warn of no data
        return
    try:
        block = np.loadtxt([rest for _, rest in kept], dtype=np.float64,
                           comments=None, ndmin=2)
    except ValueError:  # a word alone, a token numpy refuses, a ragged chunk
        block = None
    if block is not None and block.shape == (len(kept), dim):
        words.extend(word for word, _ in kept)
        lines.extend(start + i for i, pair in enumerate(pairs) if pair)
        values.frombytes(memoryview(block).cast("B"))
        return
    for lineno, line in enumerate(chunk, start=start):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dim + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {dim} values for word "
                f"{parts[0]!r}, got {len(parts) - 1}")
        try:
            values.extend(map(float, parts[1:]))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric vector entry") from None
        words.append(parts[0])
        lines.append(lineno)


def _load_binary(path: Path) -> tuple[_Vocabulary, np.ndarray, int]:
    """Walk the file in one buffer: a word runs to the next space and is
    followed by exactly 4 * dim vector bytes, so vector bytes are never
    taken for separators. Newlines before a word are skipped."""
    buf = path.read_bytes()
    pos = buf.find(b"\n")
    pos = len(buf) if pos < 0 else pos
    count, dim = _parse_header(buf[:pos].decode("utf-8", "replace"), path)
    pos += 1
    words: list[str] = []
    vectors = bytearray()
    while True:
        while buf.startswith(b"\n", pos):
            pos += 1
        if pos >= len(buf):
            break
        end = buf.find(b" ", pos)
        end = len(buf) if end < 0 else end
        try:
            word = buf[pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: entry {len(words) + 1}: word is not valid "
                             f"UTF-8 ({exc.reason})") from None
        pos = end + 1 + 4 * dim
        if pos > len(buf):
            raise ParseError(f"{path}: truncated vector for word {word!r}")
        words.append(word)
        vectors += buf[end + 1:pos]
    bad = _unstorable(words, str.split, " ")
    if bad is not None:
        raise ParseError(f"{path}: entry {bad + 1}: word {words[bad]!r} contains whitespace")
    matrix = np.frombuffer(vectors, dtype="<f4").reshape(len(words), dim)
    return _first_rows(path, count, words, matrix)


def _write_labelled(path: Path, words: Sequence[str], array: np.ndarray) -> None:
    """Write ``array`` to ``path`` as ``<f8`` (no pickle) and ``words``, one
    per ``\n``-ended line, to ``<stem>.vocab``. A path not ending in
    ``.npy``, or a word holding a line break (it would not read back),
    raises DataError before anything is written."""
    if path.suffix != ".npy":
        raise DataError(f"{path}: an npy store's path must end in .npy")
    bad = _unstorable(words, str.splitlines, "\n")
    if bad is not None:
        raise DataError(f"{path}: word {words[bad]!r} contains a line break, which the "
                        "npy format cannot store")
    # Write beside and rename: ``array`` may be a map of ``path``
    # itself, which truncating in place would pull from under it.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, np.ascontiguousarray(array, dtype="<f8"), allow_pickle=False)
    os.replace(tmp, path)
    with open(path.with_suffix(".vocab"), "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{w}\n" for w in words)


def _map_labelled(path: Path, known: dict) -> tuple[_Vocabulary, np.ndarray]:
    """Map ``path``, a 2-D ``<f4`` or ``<f8`` array, read-only and read the
    words of ``<stem>.vocab``, one per ``\n``-ended line (a ``\r`` before
    the ``\n`` is dropped); a word the writer refuses (a ``\r`` or U+2028
    inside it) is refused. ``.vocab`` bytes that key ``known`` give its
    words, read before; new ones are added.

    Rows are not checked here: the EmbeddingSpace checks (finite values,
    one row per word, no empty or duplicate word) apply to the map.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
    if magic != np.lib.format.MAGIC_PREFIX:  # np.load would try a zip or a pickle
        raise ParseError(f"{path}: not a single .npy array" if magic.startswith(b"PK\x03\x04")
                         else f"{path}: not an .npy array")
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except ValueError as exc:  # object data, truncated file
        raise ParseError(f"{path}: {exc}") from None
    if array.dtype.str not in ("<f4", "<f8") or array.ndim != 2:
        raise ParseError(f"{path}: expected a 2-D <f4 or <f8 array, got "
                         f"{array.ndim}-D {array.dtype.str}")
    vocab = path.with_suffix(".vocab")
    try:
        raw = vocab.read_bytes()
    except FileNotFoundError:
        raise ParseError(f"{path}: vocabulary file {vocab} not found") from None
    if raw in known:
        return known[raw], array
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(vocab) from None
    words = text.split("\n")
    if words[-1] == "":
        words.pop()
    if "\r" in text:  # a CRLF line reads as its word; any other \r is refused below
        words = [w[:-1] if w.endswith("\r") else w for w in words]
    bad = _unstorable(words, str.splitlines, "\n")
    if bad is not None:
        raise ParseError(f"{vocab}:{bad + 1}: word {words[bad]!r} contains a line break")
    known[raw] = _Vocabulary(words)
    return known[raw], array


def load_embedding_space(path: str | Path, format: str, decade: int,
                         normalize: bool = False) -> EmbeddingSpace:
    """Load one decade's embedding space from a word2vec-style file or an
    npy store.

    A word2vec file must hold exactly the entries its header counts.
    Duplicate words keep their first occurrence; the number of dropped
    duplicates is recorded on the returned space. An npy store is
    mapped read-only, not copied, and must not repeat a word. Binary and
    ``<f4`` stay float32. With ``normalize``, every vector is scaled to
    unit L2 norm after loading (into a new float64 matrix).
    """
    return _load_space(Path(path), format, decade, normalize, {})


def _load_space(path: Path, format: str, decade: int, normalize: bool,
                vocabularies: dict) -> EmbeddingSpace:
    """``load_embedding_space`` taking equal words from ``vocabularies``
    (keyed by the words, and by npy ``.vocab`` bytes), where new ones go."""
    readers = {TEXT_FORMAT: _load_text, BINARY_FORMAT: _load_binary,
               NPY_FORMAT: lambda path: (*_map_labelled(path, vocabularies), 0)}  # 0 duplicates
    if format not in readers:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {FORMATS}")
    words, matrix, n_dup = readers[format](path)
    words = vocabularies.setdefault(words, words)
    if n_dup:
        logger.warning("%s: dropped %d duplicate vocabulary entries", path, n_dup)
    if normalize:
        matrix = _normalize_rows(matrix)
    try:
        return EmbeddingSpace(decade, words, matrix, n_dup)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _unstorable(words: Sequence[str], split: Callable[[str], list[str]],
                sep: str) -> int | None:
    """Index of the first word that ``split`` does not give back whole, or
    None. Empty words are left to EmbeddingSpace. One split of the words
    joined by ``sep`` clears a clean vocabulary; only a failing one is
    searched word by word."""
    if split(sep.join(words)) == list(words):
        return None
    return next((i for i, w in enumerate(words) if w and split(w) != [w]), None)


def save_embedding_space(space: EmbeddingSpace, path: str | Path) -> None:
    """Write a space as an npy store at ``path``. A path not ending in
    ``.npy``, or a word the store cannot hold, raises DataError before
    anything is written. The store is float64, and loading it reproduces
    every row ``rows`` gives bit-for-bit. word2vec files are read-only."""
    _write_labelled(Path(path), space.words, space.matrix)


def lookup(space: EmbeddingSpace, word: str) -> np.ndarray | None:
    """Exact-match lookup: the word's row as a read-only float64 array, or
    None when it is absent."""
    return space.vector(word)


def average_vector(space: EmbeddingSpace, words: Sequence[str]) -> np.ndarray:
    """Arithmetic mean of the vectors of the words present in the space.
    Absent words are skipped and logged; none present is a coverage error."""
    matrix, present = space.rows(words)
    if not len(matrix):
        raise CoverageError(
            f"none of the words {list(words)!r} have embeddings in decade {space.decade}")
    if not present.all():
        missing = [w for w, p in zip(words, present) if not p]
        logger.warning("decade %d: skipped %d word(s) without embeddings: %s",
                       space.decade, len(missing), ", ".join(missing))
    return matrix.mean(axis=0)


def align_procrustes(source: EmbeddingSpace,
                     target: EmbeddingSpace) -> tuple[np.ndarray, EmbeddingSpace]:
    """Least-squares rotation of ``source`` onto ``target``.

    Finds the orthogonal R minimizing the Frobenius norm of X R - Y over
    the shared vocabulary (X = source rows, Y = target rows), then
    applies R to every source vector. Returns (R, aligned source).
    """
    if source.dim != target.dim:
        raise AlignmentError(
            f"dimension mismatch: {source.dim} vs {target.dim}")
    shared = sorted(source.words if source.words is target.words
                    else (w for w in source.words if w in target))
    if len(shared) < source.dim:
        raise AlignmentError(
            f"shared vocabulary has {len(shared)} words; need at least "
            f"dim={source.dim} for a stable alignment")
    x, _ = source.rows(shared)
    y, _ = target.rows(shared)
    # R = V U^T from the SVD of Y^T X = U S V^T.
    try:
        u, _, vt = np.linalg.svd(y.T @ x)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed during alignment: {exc}") from exc
    rotation = vt.T @ u.T
    aligned = EmbeddingSpace(source.decade, source.words,
                             source.matrix.astype(np.float64, copy=False) @ rotation,
                             n_duplicates=source.n_duplicates)
    return rotation, aligned


def load_diachronic(manifest: str | Path, normalize: bool = False) -> DiachronicEmbeddings:
    """Load all spaces listed in a manifest CSV (header: decade,path,format).

    Every row is checked (an integer decade, not repeated; a known
    format) before any decade is loaded. Relative paths are resolved
    against the manifest's own directory. All spaces must share one
    dimensionality. Decades with equal vocabularies share one word tuple
    and index; a repeated npy ``.vocab`` content is read once.
    """
    manifest = Path(manifest)
    decades, paths, formats = read_table(manifest, [["decade", "path", "format"]], [
        Column("decade", int, unique=True), Column("path", None), Column("format", FORMATS)])
    if not decades:
        raise ParseError(f"{manifest}: no entries")
    spaces, vocabularies = [], {}
    for decade, path, fmt in zip(decades, paths, formats):
        try:  # an absolute path stays as is
            spaces.append(_load_space(manifest.parent / path, fmt, decade, normalize,
                                      vocabularies))
        except (OSError, ParseError, DataError) as exc:
            raise DataError(f"decade {decade}: {exc}") from exc
    return DiachronicEmbeddings(spaces)


def align_diachronic(diachronic: DiachronicEmbeddings,
                     direction: str = "backward") -> DiachronicEmbeddings:
    """Chain-align all spaces pairwise through time.

    direction='backward' anchors the most recent decade and rotates each
    earlier space onto its (already aligned) successor; 'forward' anchors
    the earliest decade and rotates each later space onto its predecessor.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown alignment direction {direction!r}")
    # Backward is forward over the reversed decades; the result sorts by decade.
    spaces = diachronic.spaces if direction == "forward" else diachronic.spaces[::-1]
    aligned = [spaces[0]]
    for sp in spaces[1:]:
        aligned.append(align_procrustes(sp, aligned[-1])[1])
    return DiachronicEmbeddings(aligned)
