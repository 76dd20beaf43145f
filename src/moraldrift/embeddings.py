"""Decade-binned word embedding spaces: loading, lookup, and alignment.

Spaces are read from word2vec-style files (text or binary) or from an
``npy`` store (a float64 array plus a vocabulary file, memory-mapped at
load), indexed by word, and optionally rotated into a common coordinate
system with orthogonal Procrustes alignment so that vectors are
comparable across decades.
"""
from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AlignmentError, CoverageError, DataError, ParseError

logger = logging.getLogger(__name__)

TEXT_FORMAT = "text-word2vec"
BINARY_FORMAT = "binary-word2vec"
NPY_FORMAT = "npy"
FORMATS = (TEXT_FORMAT, BINARY_FORMAT, NPY_FORMAT)
# The npy store holds the matrix in this dtype, so loading maps it as is.
NPY_DTYPE = np.dtype("<f8")

# 17 significant digits round-trip any IEEE-754 double exactly.
FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class QueryVector:
    """A dense query vector plus the word(s) it was derived from."""

    values: np.ndarray
    source: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.values.shape[0]


class EmbeddingSpace:
    """One decade's word -> vector map with fixed dimensionality.

    Immutable after construction; safe for concurrent reads. Vectors are
    stored as rows of a float64 matrix in insertion order.
    """

    def __init__(self, decade: int, words: Sequence[str], matrix: np.ndarray,
                 n_duplicates: int = 0):
        if decade % 10 != 0:
            raise DataError(f"decade must be a multiple of 10, got {decade}")
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError("embedding matrix must be 2-dimensional")
        if len(words) != matrix.shape[0]:
            raise DataError(
                f"{len(words)} words but {matrix.shape[0]} matrix rows")
        if matrix.shape[0] == 0:
            raise DataError("embedding space has empty vocabulary")
        if not np.all(np.isfinite(matrix)):
            raise DataError("embedding matrix contains non-finite entries")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if not w:
                raise DataError("empty word in vocabulary")
            if w in index:
                raise DataError(f"duplicate word in vocabulary: {w!r}")
            index[w] = i
        self.decade = int(decade)
        self.words: tuple[str, ...] = tuple(words)
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
        """Raw stored vector for ``word``, or None if absent."""
        i = self._index.get(word)
        return None if i is None else self.matrix[i]

    def rows(self, words: Iterable[str]) -> tuple[np.ndarray, list[str], list[str]]:
        """Matrix of vectors for the given words.

        Returns (matrix, found_words, missing_words); rows follow the
        order of ``found_words``.
        """
        found, missing = [], []
        for w in words:
            (found if w in self._index else missing).append(w)
        if found:
            mat = self.matrix[[self._index[w] for w in found]]
        else:
            mat = np.empty((0, self.dim))
        return mat, found, missing


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
        raise DataError(f"no embedding space for decade {decade}")


def read_table(path: str | Path, headers: Sequence[Sequence[str]]
               ) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a CSV table whose header is one of ``headers``.

    Lines starting with ``#`` and blank rows are skipped. Header cells
    are compared stripped and lowercased. Returns the matched header and
    ``(lineno, cells)`` per data row, where ``lineno`` is the row's line
    in the file. A row whose column count differs from the header's
    raises a ParseError naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        kept = [(n, line) for n, line in enumerate(fh, start=1)
                if not line.startswith("#")]
    reader = csv.reader(line for _, line in kept)
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    normalized = [h.strip().lower() for h in header]
    if normalized not in [list(h) for h in headers]:
        want = " or ".join(",".join(h) for h in headers)
        raise ParseError(f"{path}: expected header '{want}', got {','.join(header)!r}")
    rows = []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        lineno = kept[reader.line_num - 1][0]
        if len(row) != len(normalized):
            raise ParseError(f"{path}:{lineno}: expected {len(normalized)} columns, "
                             f"got {len(row)}")
        rows.append((lineno, row))
    return normalized, rows


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def _parse_header(line: str, lineno: int, path: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{path}:{lineno}: non-integer header {line!r}") from None
    if count <= 0 or dim <= 0:
        raise ParseError(f"{path}:{lineno}: header counts must be positive")
    return count, dim


def _load_text(path: Path) -> tuple[list[str], np.ndarray, int]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ParseError(f"{path}:1: missing header line")
        count, dim = _parse_header(header, 1, str(path))
        words: list[str] = []
        seen: dict[str, int] = {}
        vectors: list[np.ndarray] = []
        n_dup = 0
        lineno = 1
        for line in fh:
            lineno += 1
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} values for word "
                    f"{parts[0]!r}, got {len(parts) - 1}")
            word = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric vector entry") from None
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}:{lineno}: non-finite vector entry")
            if word in seen:
                n_dup += 1
                continue
            seen[word] = len(words)
            words.append(word)
            vectors.append(vec)
        if len(words) + n_dup != count:
            raise ParseError(
                f"{path}: header declares {count} entries, found {len(words) + n_dup}")
    if not words:
        raise DataError(f"{path}: empty vocabulary")
    return words, np.vstack(vectors), n_dup


def _read_binary_word(fh, path: str) -> str | None:
    chunks = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            return None if not chunks else chunks.decode("utf-8")
        if ch == b" ":
            break
        if ch == b"\n" and not chunks:
            continue  # tolerate newline separators between entries
        chunks.extend(ch)
    return chunks.decode("utf-8")


def _load_binary(path: Path) -> tuple[list[str], np.ndarray, int]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        count, dim = _parse_header(header, 1, str(path))
        words: list[str] = []
        seen: set[str] = set()
        vectors: list[np.ndarray] = []
        n_dup = 0
        for i in range(count):
            word = _read_binary_word(fh, str(path))
            if word is None:
                raise ParseError(f"{path}: truncated file at entry {i + 1} of {count}")
            raw = fh.read(4 * dim)
            if len(raw) != 4 * dim:
                raise ParseError(f"{path}: truncated vector for word {word!r}")
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}: non-finite vector for word {word!r}")
            if word in seen:
                n_dup += 1
                continue
            seen.add(word)
            words.append(word)
            vectors.append(vec)
    if not words:
        raise DataError(f"{path}: empty vocabulary")
    return words, np.vstack(vectors), n_dup


def _vocab_path(path: Path) -> Path:
    return path.with_suffix(".vocab")


def _load_npy(path: Path) -> tuple[list[str], np.ndarray, int]:
    """Map ``path`` read-only and read the words of ``<stem>.vocab``.

    Rows are not checked here: the EmbeddingSpace checks (finite values,
    one row per word, no empty or duplicate word) apply to the map.
    """
    try:
        matrix = np.load(path, mmap_mode="r", allow_pickle=False)
    except ValueError as exc:  # pickled or object data, truncated file
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(matrix, np.ndarray):  # an .npz archive
        matrix.close()
        raise ParseError(f"{path}: not a single .npy array")
    if matrix.dtype != NPY_DTYPE or matrix.ndim != 2:
        raise ParseError(f"{path}: expected a 2-D {NPY_DTYPE.str} array, got "
                         f"{matrix.ndim}-D {matrix.dtype.str}")
    vocab = _vocab_path(path)
    try:
        text = vocab.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"{path}: vocabulary file {vocab} not found") from None
    words = text.split("\n")
    if words[-1] == "":
        words.pop()
    return words, matrix, 0


def load_embedding_space(path: str | Path, format: str, decade: int,
                         normalize: bool = False) -> EmbeddingSpace:
    """Load one decade's embedding space from a word2vec-style file or an
    npy store.

    Duplicate words in word2vec files keep their first occurrence; the
    number of dropped duplicates is recorded on the returned space. An
    npy store is mapped read-only, not copied, and must not repeat a
    word. With ``normalize``, every vector is scaled to unit L2 norm
    after loading (into a new in-memory matrix).
    """
    path = Path(path)
    if format == TEXT_FORMAT:
        words, matrix, n_dup = _load_text(path)
    elif format == BINARY_FORMAT:
        words, matrix, n_dup = _load_binary(path)
    elif format == NPY_FORMAT:
        words, matrix, n_dup = _load_npy(path)
    else:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {FORMATS}")
    if n_dup:
        logger.warning("%s: dropped %d duplicate vocabulary entries", path, n_dup)
    if normalize:
        matrix = _normalize_rows(matrix)
    try:
        return EmbeddingSpace(decade, words, matrix, n_duplicates=n_dup)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_words(words: Sequence[str], path: Path, format: str) -> None:
    """Refuse a word that ``format`` cannot store and read back: a line
    break in the npy vocabulary, any whitespace in word2vec files."""
    npy = format == NPY_FORMAT
    for word in words:
        if (word.splitlines() if npy else word.split()) != [word]:
            what = "a line break" if npy else "whitespace"
            raise DataError(f"{path}: word {word!r} contains {what}, which the "
                            f"{format} format cannot store")


def save_embedding_space(space: EmbeddingSpace, path: str | Path,
                         format: str = TEXT_FORMAT) -> None:
    """Write a space out in word2vec text or binary format or as an npy
    store.

    Text mode formats floats with 17 significant digits so that a
    load -> save -> load cycle reproduces every vector bit-for-bit.
    Binary mode casts to 32-bit floats, as the format requires. The npy
    store writes the float64 matrix to ``path`` (no pickle) and one word
    per line to ``<stem>.vocab``; it reproduces every vector bit-for-bit.
    A word the format cannot store (whitespace in word2vec formats, a
    line break in npy) raises DataError before anything is written.
    """
    path = Path(path)
    if format not in FORMATS:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {FORMATS}")
    _check_words(space.words, path, format)
    if format == NPY_FORMAT:
        # Write beside and rename: ``space`` may be a map of ``path``
        # itself, which truncating in place would pull from under it.
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(space.matrix, dtype=NPY_DTYPE),
                    allow_pickle=False)
        os.replace(tmp, path)
        with open(_vocab_path(path), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{w}\n" for w in space.words)
    elif format == TEXT_FORMAT:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(space)} {space.dim}\n")
            for word, row in zip(space.words, space.matrix):
                values = " ".join(FLOAT_FORMAT % x for x in row)
                fh.write(f"{word} {values}\n")
    else:
        with open(path, "wb") as fh:
            fh.write(f"{len(space)} {space.dim}\n".encode("utf-8"))
            for word, row in zip(space.words, space.matrix):
                fh.write(word.encode("utf-8") + b" ")
                fh.write(row.astype("<f4").tobytes())


def lookup(space: EmbeddingSpace, word: str) -> QueryVector | None:
    """Exact-match lookup. Missing words return None, never an error."""
    vec = space.vector(word)
    if vec is None:
        return None
    return QueryVector(values=vec, source=(word,))


def average_vector(space: EmbeddingSpace, words: Sequence[str]) -> QueryVector:
    """Arithmetic mean of the vectors of the words present in the space.

    Absent words are skipped (and logged); the returned ``source`` names
    exactly the words that entered the average.
    """
    matrix, found, missing = space.rows(words)
    if not found:
        raise CoverageError(
            f"none of the words {list(words)!r} have embeddings in decade {space.decade}")
    if missing:
        logger.warning("decade %d: skipped %d word(s) without embeddings: %s",
                       space.decade, len(missing), ", ".join(missing))
    return QueryVector(values=matrix.mean(axis=0), source=tuple(found))


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
    shared = sorted(w for w in source.words if w in target)
    if len(shared) < source.dim:
        raise AlignmentError(
            f"shared vocabulary has {len(shared)} words; need at least "
            f"dim={source.dim} for a stable alignment")
    x, _, _ = source.rows(shared)
    y, _, _ = target.rows(shared)
    # R = V U^T from the SVD of Y^T X = U S V^T.
    try:
        u, _, vt = np.linalg.svd(y.T @ x)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed during alignment: {exc}") from exc
    rotation = vt.T @ u.T
    aligned = EmbeddingSpace(source.decade, source.words,
                             source.matrix @ rotation,
                             n_duplicates=source.n_duplicates)
    return rotation, aligned


def load_diachronic(manifest: str | Path, normalize: bool = False) -> DiachronicEmbeddings:
    """Load all spaces listed in a manifest CSV (header: decade,path,format).

    Relative paths are resolved against the manifest's own directory.
    All spaces must share one dimensionality.
    """
    manifest = Path(manifest)
    base = manifest.parent
    rows: list[tuple[int, Path, str]] = []
    _, table = read_table(manifest, [["decade", "path", "format"]])
    for lineno, row in table:
        try:
            decade = int(row[0])
        except ValueError:
            raise ParseError(f"{manifest}:{lineno}: bad decade {row[0]!r}") from None
        fmt = row[2].strip()
        if fmt not in FORMATS:
            raise ParseError(f"{manifest}:{lineno}: unknown format {fmt!r}")
        p = Path(row[1].strip())
        rows.append((decade, p if p.is_absolute() else base / p, fmt))
    if not rows:
        raise ParseError(f"{manifest}: no entries")
    spaces = []
    for decade, path, fmt in rows:
        try:
            spaces.append(load_embedding_space(path, fmt, decade, normalize=normalize))
        except (OSError, ParseError, DataError) as exc:
            raise DataError(f"decade {decade}: {exc}") from exc
    dims = {s.dim for s in spaces}
    if len(dims) != 1:
        raise DataError(f"manifest spaces disagree on dimensionality: {sorted(dims)}")
    return DiachronicEmbeddings(spaces)


def align_diachronic(diachronic: DiachronicEmbeddings,
                     direction: str = "backward") -> DiachronicEmbeddings:
    """Chain-align all spaces pairwise through time.

    direction='backward' anchors the most recent decade and rotates each
    earlier space onto its (already aligned) successor; 'forward' anchors
    the earliest decade and rotates each later space onto its predecessor.
    """
    spaces = list(diachronic.spaces)
    if direction == "forward":
        aligned = [spaces[0]]
        for sp in spaces[1:]:
            _, a = align_procrustes(sp, aligned[-1])
            aligned.append(a)
    elif direction == "backward":
        aligned = [spaces[-1]]
        for sp in reversed(spaces[:-1]):
            _, a = align_procrustes(sp, aligned[0])
            aligned.insert(0, a)
    else:
        raise ValueError(f"unknown alignment direction {direction!r}")
    return DiachronicEmbeddings(aligned)
