"""The npy embedding store: a float64 ``<stem>.npy`` array plus a
``<stem>.vocab`` word list, memory-mapped read-only at load.

Round trips must reproduce every bit (``-0.0``, subnormals and the
extremes included), and a malformed store must be refused with its path
in the message. Also covered here: the store is the only format
``save_embedding_space`` writes, so a path not ending in ``.npy`` and a
word holding a line break are refused before anything is written.
"""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moraldrift import (DataError, ParseError, load_diachronic, load_embedding_space,
                        save_embedding_space)
from moraldrift.embeddings import NPY_FORMAT, EmbeddingSpace

FMAX = float(np.finfo(np.float64).max)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, FMAX, -FMAX)

# Any word without a line break, surrogates excluded (UTF-8 cannot hold them).
WORDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=8).filter(lambda w: w.splitlines() == [w])


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(WORDS, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.one_of(st.sampled_from(SPECIAL),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=n * dim, max_size=n * dim))
    return EmbeddingSpace(1900, words, np.array(values).reshape(n, dim))


def save_and_load(space, root):
    path = Path(root) / "space.npy"
    save_embedding_space(space, path)
    return load_embedding_space(path, NPY_FORMAT, space.decade)


@settings(max_examples=200, deadline=None)
@given(spaces())
@example(EmbeddingSpace(1900, ["café", "naïveté", "日本語", "moral sense"],
                        np.array([[-0.0, 5e-324], [FMAX, -FMAX],
                                  [2.2250738585072009e-308, 0.0], [1 / 3, -1e300]])))
def test_round_trip_is_bit_identical(space):
    with tempfile.TemporaryDirectory() as root:
        loaded = save_and_load(space, root)
        assert loaded.words == space.words
        np.testing.assert_array_equal(loaded.matrix.view(np.uint64),
                                      space.matrix.view(np.uint64))


def test_loaded_matrix_is_a_read_only_map(tmp_path):
    space = EmbeddingSpace(1900, ["a", "b"], np.arange(6.0).reshape(2, 3))
    loaded = save_and_load(space, tmp_path)
    assert not loaded.matrix.flags.writeable
    assert isinstance(loaded.matrix.base, np.memmap)
    with pytest.raises(ValueError):
        loaded.matrix[0, 0] = 1.0


def test_store_files(tmp_path):
    space = EmbeddingSpace(1900, ["b", "ä"], np.ones((2, 3)))
    save_embedding_space(space, tmp_path / "s.npy")
    assert (tmp_path / "s.vocab").read_bytes() == "b\nä\n".encode("utf-8")
    raw = np.load(tmp_path / "s.npy", allow_pickle=False)
    assert raw.dtype.str == "<f8" and raw.flags.c_contiguous and raw.shape == (2, 3)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.npy", "s.vocab"]


def test_normalize_copies_the_map(tmp_path):
    space = EmbeddingSpace(1900, ["a", "b"], np.array([[3.0, 4.0], [0.0, 2.0]]))
    save_embedding_space(space, tmp_path / "s.npy")
    loaded = load_embedding_space(tmp_path / "s.npy", NPY_FORMAT, 1900, normalize=True)
    np.testing.assert_array_equal(loaded.matrix, [[0.6, 0.8], [0.0, 1.0]])


def test_save_over_the_mapped_file(tmp_path):
    path = tmp_path / "s.npy"
    save_embedding_space(EmbeddingSpace(1900, ["a", "b"], np.eye(2)), path)
    loaded = load_embedding_space(path, NPY_FORMAT, 1900)
    save_embedding_space(loaded, path)
    np.testing.assert_array_equal(loaded.matrix, np.eye(2))
    np.testing.assert_array_equal(load_embedding_space(path, NPY_FORMAT, 1900).matrix, np.eye(2))


@pytest.mark.parametrize("name", ["a.txt", "a.bin", "a.npz", "a.NPY", "a"])
def test_path_not_ending_in_npy_refused(tmp_path, name):
    # word2vec files are read-only: a .txt or .bin path gets no npy bytes.
    path = tmp_path / name
    with pytest.raises(DataError) as info:
        save_embedding_space(EmbeddingSpace(1900, ["a", "b"], np.eye(2)), path)
    assert str(info.value) == f"{path}: an npy store's path must end in .npy"
    assert list(tmp_path.iterdir()) == []


def test_manifest_entry(tmp_path):
    for decade in (1900, 1910):
        space = EmbeddingSpace(decade, ["a", "b"], np.full((2, 2), decade / 1000))
        save_embedding_space(space, tmp_path / f"{decade}.npy")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("decade,path,format\n1900,1900.npy,npy\n1910,1910.npy,npy\n")
    dia = load_diachronic(manifest)
    assert dia.decades == (1900, 1910)
    np.testing.assert_array_equal(dia.space(1910).vector("b"), [1.91, 1.91])


class TestRejected:
    """Every malformed store is refused, naming the file."""

    def store(self, tmp_path, array, vocab="a\nb\n", allow_pickle=False):
        path = tmp_path / "s.npy"
        with open(path, "wb") as fh:
            np.save(fh, array, allow_pickle=allow_pickle)
        if vocab is not None:
            (tmp_path / "s.vocab").write_text(vocab, encoding="utf-8")
        return path

    def refused(self, path, error, match):
        with pytest.raises(error, match=match) as info:
            load_embedding_space(path, NPY_FORMAT, 1900)
        assert str(path.with_suffix("")) in str(info.value)

    def test_missing_vocabulary(self, tmp_path):
        path = self.store(tmp_path, np.zeros((2, 3)), vocab=None)
        self.refused(path, ParseError, "s.vocab not found")

    @pytest.mark.parametrize("vocab", ["a\n", "a\nb\nc\n"])
    def test_row_count_differs_from_vocabulary(self, tmp_path, vocab):
        path = self.store(tmp_path, np.zeros((2, 3)), vocab=vocab)
        self.refused(path, DataError, "words but 2 matrix rows")

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 1)])
    def test_not_two_dimensional(self, tmp_path, shape):
        path = self.store(tmp_path, np.zeros(shape))
        self.refused(path, ParseError, "expected a 2-D <f8 array")

    def test_object_array(self, tmp_path):
        array = np.empty((2, 1), dtype=object)
        array[:, 0] = [1.0, "x"]
        path = self.store(tmp_path, array, allow_pickle=True)
        self.refused(path, ParseError, "Python objects")

    def test_npz_archive(self, tmp_path):
        path = tmp_path / "s.npy"
        with open(path, "wb") as fh:
            np.savez(fh, matrix=np.zeros((2, 3)))
        (tmp_path / "s.vocab").write_text("a\nb\n")
        self.refused(path, ParseError, "not a single .npy array")

    @pytest.mark.parametrize("content, message", [
        (b"2 2\na 1 2\nb 3 4\n", "not an .npy array"),  # word2vec text
        (b"", "not an .npy array"),
        (b"PK\x03\x04 and no more", "not a single .npy array"),  # a broken zip archive
    ])
    def test_without_the_npy_magic(self, tmp_path, content, message):
        path = tmp_path / "s.npy"
        path.write_bytes(content)
        (tmp_path / "s.vocab").write_text("a\nb\n")
        with pytest.raises(ParseError) as info:
            load_embedding_space(path, NPY_FORMAT, 1900)
        assert str(info.value) == f"{path}: {message}"

    def test_float32_array(self, tmp_path):
        path = self.store(tmp_path, np.zeros((2, 3), dtype=np.float32))
        self.refused(path, ParseError, "<f4")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, tmp_path, bad):
        array = np.zeros((2, 3))
        array[1, 2] = bad
        path = self.store(tmp_path, array)
        self.refused(path, DataError, "non-finite")

    @pytest.mark.parametrize("vocab, match", [("a\na\n", "duplicate word"),
                                              ("a\n\n", "empty word")])
    def test_bad_vocabulary(self, tmp_path, vocab, match):
        path = self.store(tmp_path, np.zeros((2, 3)), vocab=vocab)
        self.refused(path, DataError, match)

    def test_through_the_manifest(self, tmp_path):
        self.store(tmp_path, np.zeros((2, 3)), vocab=None)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("decade,path,format\n1900,s.npy,npy\n")
        with pytest.raises(DataError, match="decade 1900: .*s.vocab not found"):
            load_diachronic(manifest)


class TestUnstorableWords:
    """A word that would not load back is refused before anything is written."""

    @pytest.mark.parametrize("word", ["line\nbreak", "cr\rhere", "sep\u2028x", "nel\x85x"])
    def test_line_break_in_npy(self, tmp_path, word):
        space = EmbeddingSpace(1900, ["ok", word], np.zeros((2, 2)))
        path = tmp_path / "s.npy"
        with pytest.raises(DataError, match=re.escape(f"word {word!r} contains a line break")):
            save_embedding_space(space, path)
        assert list(tmp_path.iterdir()) == []

    def test_npy_stores_spaces_inside_words(self, tmp_path):
        space = EmbeddingSpace(1900, ["new york", "a\tb"], np.eye(2))
        assert save_and_load(space, tmp_path).words == ("new york", "a\tb")
