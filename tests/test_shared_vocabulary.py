"""Decades with one vocabulary share one word tuple and one index.

``load_diachronic`` parses an npy ``.vocab`` once per distinct content
(compared as bytes) and gives a decade whose words equal an earlier
decade's that decade's tuple; aligned spaces keep their source's. Scoring looks
a word list up once per distinct vocabulary object, so each decade gathers
the same row positions. None of this may change a bit: ``rows`` is checked
against a word-by-word oracle, and the scores of ``prediction_matrix`` and
``time_course`` against ``reference.decade_scores``, on decades that
share a vocabulary, hold equal but separate ones, or hold different ones,
with absent words on both sides of a scoring block's edge.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (DataError, DiachronicEmbeddings, EmbeddingSpace, ModelSpec,
                        ParseError, align_diachronic, align_procrustes, load_diachronic,
                        load_embedding_space, prediction_matrix, save_embedding_space,
                        time_course)
from moraldrift.classifiers import _BLOCK_ROWS
from moraldrift.cli import _seed_inputs, build_parser
from moraldrift.embeddings import NPY_FORMAT
from moraldrift.lexicon import build_irrelevant_seeds, relevant_words

import reference
from conftest import (WORLD_DECADES, _world_positions, category_center, world_mfd,
                      write_binary, write_text)
from test_fit_memo import bits, fresh

BASE = list(_world_positions(3))  # every word of the world, gapword included
SEEDS = set(world_mfd()) | {f"neutral{i:02d}" for i in range(30)}
DROPPABLE = [w for w in BASE if w not in SEEDS]
ABSENT = [f"absent{i:03d}" for i in range(2 * _BLOCK_ROWS)]


def oracle_rows(space, words):
    """``rows`` word by word, from the space's own word order."""
    where = {w: i for i, w in enumerate(space.words)}
    found = [w for w in words if w in where]
    matrix = np.array([space.matrix[where[w]] for w in found], dtype=np.float64)
    return matrix.reshape(len(found), space.dim), [w in where for w in words]


@st.composite
def diachronic_sets(draw):
    """The world's decades, each sharing the first decade's vocabulary
    object, holding an equal copy of it, or holding a different one (words
    dropped, order reversed); and a word list of present and absent words."""
    spaces = []
    for j, decade in enumerate(WORLD_DECADES):
        positions = _world_positions(j)
        positions.setdefault("gapword", category_center(3))
        how = draw(st.sampled_from(["shared", "equal", "different"])) if j else "equal"
        if how == "shared":
            words = spaces[0].words
        elif how == "equal":
            words = list(BASE)
        else:
            dropped = draw(st.sets(st.sampled_from(DROPPABLE), min_size=1, max_size=20))
            words = [w for w in BASE if w not in dropped]
            if draw(st.booleans()):
                words.reverse()
        spaces.append(EmbeddingSpace(decade, words, np.array([positions[w] for w in words])))
    n = draw(st.integers(_BLOCK_ROWS - 10, _BLOCK_ROWS + 40))
    absent = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):  # absent words on both sides of the first block edge
        absent[_BLOCK_ROWS - 1:_BLOCK_ROWS + 1] = [True, True]
    present = iter(draw(st.permutations(BASE)))
    missing = iter(ABSENT)
    words = [next(missing) if a else next(present, None) or next(missing) for a in absent]
    return DiachronicEmbeddings(spaces), words


SPECS = (ModelSpec("centroid"), ModelSpec("knn", k=3), ModelSpec("kde", h=0.5))


@settings(max_examples=25, deadline=None)
@given(data=diachronic_sets(), spec=st.sampled_from(SPECS),
       kind=st.sampled_from(["relevance", "polarity"]))
def test_rows_and_scores_match_the_oracles(world, data, spec, kind):
    dia, words = data
    for space in dia:
        matrix, present = space.rows(words)
        want, want_present = oracle_rows(space, words)
        np.testing.assert_array_equal(matrix.view(np.uint64), want.view(np.uint64))
        assert present.tolist() == want_present
    lexicon = fresh(world.lexicon)
    got = prediction_matrix(dia, lexicon, spec, words, kind)
    np.testing.assert_array_equal(
        bits(got.values), bits(reference.decade_scores(dia, lexicon, spec, words, kind)))
    for word in ("riser", "gapword"):
        np.testing.assert_array_equal(
            bits(time_course(dia, lexicon, spec, word, "category")),
            bits(reference.decade_scores(dia, lexicon, spec, [word], "category")[0]))


def test_a_space_on_another_spaces_words_shares_them():
    first = EmbeddingSpace(1900, ["a", "b"], np.eye(2))
    second = EmbeddingSpace(1910, first.words, 2 * np.eye(2))
    assert second.words is first.words and second._index is first._index
    assert EmbeddingSpace(1920, list(first.words), np.eye(2)).words is not first.words
    with pytest.raises(DataError, match="3 words but 2 matrix rows"):
        EmbeddingSpace(1930, EmbeddingSpace(1900, ["a", "b", "c"], np.eye(3)).words, np.eye(2))


class TestNpyStores:
    def store(self, root, decade, vocab: bytes, rows=None):
        rows = np.full((len(vocab.splitlines()), 2), decade / 1000) if rows is None else rows
        np.save(root / f"{decade}.npy", rows.astype("<f4"))
        (root / f"{decade}.vocab").write_bytes(vocab)
        return f"{decade},{decade}.npy,npy\n"

    def load(self, root, vocabs):
        lines = [self.store(root, 1900 + 10 * i, vocab) for i, vocab in enumerate(vocabs)]
        manifest = root / "manifest.csv"
        manifest.write_text("decade,path,format\n" + "".join(lines))
        return load_diachronic(manifest)

    def test_identical_files_share_one_tuple_and_index(self, tmp_path):
        dia = self.load(tmp_path, [b"a\nb\nc\n"] * 3)
        first = dia.spaces[0]
        assert all(s.words is first.words and s._index is first._index for s in dia)
        assert first.words == ("a", "b", "c")
        np.testing.assert_array_equal(dia.space(1920).vector("c"), np.float32([1.92, 1.92]))

    def test_a_file_one_word_apart_gets_its_own(self, tmp_path):
        dia = self.load(tmp_path, [b"a\nb\nc\n", b"a\nb\nd\n", b"a\nb\nc\n"])
        a, b, c = dia.spaces
        assert c.words is a.words and b.words is not a.words and b._index is not a._index
        assert b.words == ("a", "b", "d") and "d" in b and "d" not in a
        assert b.rows(["d", "c"])[1].tolist() == [True, False]

    @pytest.mark.parametrize("damaged", [b"a\nb\xff\nc\n", b"a\nb\xe2\x80\xa8x\nc\n"])
    def test_a_damaged_later_file_is_refused_as_alone(self, tmp_path, damaged):
        with pytest.raises(DataError) as info:
            self.load(tmp_path, [b"a\nb\nc\n", damaged])
        with pytest.raises(ParseError) as alone:
            load_embedding_space(tmp_path / "1910.npy", NPY_FORMAT, 1910)
        assert str(info.value) == f"decade 1910: {alone.value}"
        assert "1910.vocab:2: " in str(info.value)

    @pytest.mark.parametrize("other", [b"a\r\nb\r\nc\r\n", b"\xef\xbb\xbfa\nb\nc\n"])
    def test_crlf_and_bom_files_read_the_same_words(self, tmp_path, other):
        dia = self.load(tmp_path, [b"a\nb\nc\n", other, other])
        assert dia.spaces[0].words == ("a", "b", "c")
        assert all(s.words is dia.spaces[0].words for s in dia)  # equal words: shared
        np.testing.assert_array_equal(dia.space(1910).vector("a"), np.float32([1.91, 1.91]))


@pytest.mark.parametrize("write", [write_text, write_binary])
def test_word2vec_decades_with_equal_words_share_them(tmp_path, write):
    words = ["a", "b", "c"]
    write(tmp_path / "1900.w2v", words, np.eye(3))
    write(tmp_path / "1910.w2v", words + ["a"], np.eye(4)[:, :3])  # a duplicate, dropped
    write(tmp_path / "1920.w2v", ["a", "c", "b"], np.eye(3))
    fmt = "text-word2vec" if write is write_text else "binary-word2vec"
    (tmp_path / "manifest.csv").write_text(
        "decade,path,format\n" + "".join(f"{d},{d}.w2v,{fmt}\n" for d in (1900, 1910, 1920)))
    a, b, c = load_diachronic(tmp_path / "manifest.csv")
    assert b.words is a.words and c.words is not a.words
    assert (a.n_duplicates, b.n_duplicates) == (0, 1)
    np.testing.assert_array_equal(c.vector("c"), [0.0, 1.0, 0.0])


def test_aligned_spaces_keep_the_source_vocabulary():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    first = EmbeddingSpace(1900, words, rng.standard_normal((12, 3)))
    shared = [first] + [EmbeddingSpace(d, first.words, rng.standard_normal((12, 3)))
                        for d in (1910, 1920)]
    aligned = align_diachronic(DiachronicEmbeddings(shared))
    assert all(s.words is first.words for s in aligned)
    # A shared vocabulary gives the rotation of an equal, separate one, bit for bit.
    separate = EmbeddingSpace(1910, words, shared[1].matrix)
    for target in (shared[0], EmbeddingSpace(1900, words, shared[0].matrix)):
        rotation, _ = align_procrustes(shared[1], target)
        want, _ = align_procrustes(separate, target)
        np.testing.assert_array_equal(rotation.view(np.uint64), want.view(np.uint64))


def test_neutral_seeds_in_every_vocabulary(world, tmp_path):
    """``--neutral-in-vocab`` intersects each distinct vocabulary once; the
    set is that of a word-by-word intersection over the decades."""
    lines = []
    for space in world.spaces:
        if space.decade >= 1940:  # both drop the most neutral word: one .vocab content
            kept = [w for w in space.words if w != "neutral00"]
            space = EmbeddingSpace(space.decade, kept, space.rows(kept)[0])
        save_embedding_space(space, tmp_path / f"{space.decade}.npy")
        lines.append(f"{space.decade},{space.decade}.npy,npy\n")
    (tmp_path / "manifest.csv").write_text("decade,path,format\n" + "".join(lines))
    norms = tmp_path / "norms.csv"
    norms.write_text("word,valence\n" + "".join(
        f"{w},{v!r}\n" for w, v in zip(world.norms.words, world.norms.valence.tolist())))
    mfd = tmp_path / "mfd.csv"
    mfd.write_text("word,category\n" + "".join(f"{w},{c}\n" for w, c in world.mfd.items()))
    args = build_parser().parse_args(
        ["evaluate", "--manifest", str(tmp_path / "manifest.csv"), "--mfd", str(mfd),
         "--norms", str(norms), "--neutral-in-vocab"])
    dia, lexicon = _seed_inputs(args)
    assert dia.space(1950).words is dia.space(1940).words
    everywhere = {w for w in dia.spaces[0].words if all(w in space for space in dia)}
    assert "neutral00" not in everywhere
    assert lexicon.irrelevant == build_irrelevant_seeds(
        world.norms, relevant_words(world.mfd), vocabulary=everywhere)
