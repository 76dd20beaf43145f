"""float32 embeddings and read-only spaces.

A binary word2vec file or a ``<f4`` npy store is kept as float32, and
rows are widened to float64 where they are gathered. Widening is exact,
so every result must equal, bit for bit, the one from a ``<f8`` store
holding the same widened values: any difference would be a computation
that read the float32 matrix as is.

A space's matrix is read-only in every format, so a write through
``lookup`` or ``.matrix`` cannot change it under a model that
``fit_tier`` has memoised.
"""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (DiachronicEmbeddings, ModelSpec, align_diachronic, fit_tier,
                        load_diachronic, load_embedding_space, loo_accuracy, lookup,
                        prediction_matrix, save_embedding_space, time_course)
from moraldrift.cli import dispatch
from moraldrift.embeddings import BINARY_FORMAT, NPY_FORMAT, TEXT_FORMAT, EmbeddingSpace

from conftest import (DIM, FLAT_WORDS, QUERY_WORDS, WORLD_DECADES, _world_positions,
                      write_binary, write_text)

SPECS = (ModelSpec("centroid"), ModelSpec("naive_bayes"), ModelSpec("knn", k=3),
         ModelSpec("kde"))
# Words that may be missing from a decade; "riser" is kept in all of them.
DROPPABLE = set(FLAT_WORDS) | set(QUERY_WORDS) - {"riser"}
MATRIX_WORDS = [*QUERY_WORDS, *FLAT_WORDS[:30], "nowhere"]


def float32_world(seed):
    """Per decade, the world's words and float32 rows, jittered by
    ``seed``, with about a fifth of the droppable words left out."""
    rng = np.random.default_rng(seed)
    world = []
    for i in range(len(WORLD_DECADES)):
        positions = _world_positions(i)
        words = [w for w in positions if w not in DROPPABLE or rng.random() > 0.2]
        rows = np.array([positions[w] for w in words])
        rows += 0.05 * rng.standard_normal((len(words), DIM))
        world.append((words, rows.astype(np.float32)))
    return world


def write_npy(path, words, rows):
    """An npy store holding ``rows`` in their own dtype."""
    np.save(path, rows)
    path.with_suffix(".vocab").write_text("".join(f"{w}\n" for w in words), encoding="utf-8")


def write_stores(root, world):
    """Manifests of the world as binary word2vec, as a ``<f4`` store and
    as a ``<f8`` store of the widened rows, by name."""
    manifests = {}
    for name, suffix, fmt in (("binary", ".bin", BINARY_FORMAT), ("f4", ".npy", NPY_FORMAT),
                              ("f8", ".npy", NPY_FORMAT)):
        (root / name).mkdir()
        lines = ["decade,path,format"]
        for decade, (words, rows) in zip(WORLD_DECADES, world):
            path = root / name / f"{decade}{suffix}"
            if name == "binary":
                write_binary(path, words, rows)
            else:
                write_npy(path, words, rows if name == "f4" else rows.astype(np.float64))
            lines.append(f"{decade},{path.name},{fmt}")
        manifests[name] = root / name / "manifest.csv"
        manifests[name].write_text("\n".join(lines) + "\n")
    return manifests


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_results(dia, wide, lexicon):
    for spec in SPECS:
        for kind in ("relevance", "polarity"):
            np.testing.assert_array_equal(
                bits(prediction_matrix(dia, lexicon, spec, MATRIX_WORDS, kind).values),
                bits(prediction_matrix(wide, lexicon, spec, MATRIX_WORDS, kind).values))
    kde = ModelSpec("kde")
    np.testing.assert_array_equal(
        bits(time_course(dia, lexicon, kde, "riser", "category")),
        bits(time_course(wide, lexicon, kde, "riser", "category")))
    for space, wide_space in zip(dia, wide):
        assert (loo_accuracy(kde, lexicon, space, "category")
                == loo_accuracy(kde, lexicon, wide_space, "category"))
    for aligned, wide_aligned in zip(align_diachronic(dia), align_diachronic(wide)):
        np.testing.assert_array_equal(bits(aligned.matrix), bits(wide_aligned.matrix))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float32_spaces_match_their_widened_copy(world, seed):
    with tempfile.TemporaryDirectory() as tmp:
        manifests = write_stores(Path(tmp), float32_world(seed))
        wide = load_diachronic(manifests["f8"])
        for name in ("binary", "f4"):
            dia = load_diachronic(manifests[name])
            assert all(space.matrix.dtype == np.float32 for space in dia)
            assert_same_results(dia, wide, world.lexicon)
            for space, wide_space in zip(load_diachronic(manifests[name], normalize=True),
                                         load_diachronic(manifests["f8"], normalize=True)):
                assert space.matrix.dtype == np.float64
                np.testing.assert_array_equal(bits(space.matrix), bits(wide_space.matrix))


@pytest.mark.parametrize("model", ["centroid", "kde"])
def test_cli_matrix_on_a_float32_store_matches_its_float64_copy(world_files, tmp_path,
                                                                model):
    # Both runs read the same manifest path and write to the same
    # directory, so the config hash in ``_meta`` is the same too.
    world = float32_world(0)
    manifest = write_stores(tmp_path, world)["f4"]
    out = tmp_path / "out"
    argv = ["matrix", "--manifest", str(manifest), "--mfd", str(world_files.mfd),
            "--norms", str(world_files.norms), "--wordlist", str(world_files.wordlist),
            "--kind", "relevance", "--model", model, "--out-dir", str(out)]
    outputs = []
    for dtype in (np.float32, np.float64):
        for decade, (words, rows) in zip(WORLD_DECADES, world):
            write_npy(manifest.parent / f"{decade}.npy", words, rows.astype(dtype))
        assert dispatch(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert list(outputs[0]) == ["matrix_relevance.csv", "matrix_relevance.json"]
    assert outputs[0] == outputs[1]


def read_only_spaces(tmp_path):
    """The same space loaded from each format (the npy store as written,
    ``<f8``, and as ``<f4``), and aligned."""
    words, rows = float32_world(0)[0]
    text, binary = tmp_path / "v.txt", tmp_path / "v.bin"
    store, f4_store = tmp_path / "v.npy", tmp_path / "v4.npy"
    write_text(text, words, rows)
    write_binary(binary, words, rows)
    save_embedding_space(EmbeddingSpace(1900, words, rows), store)
    write_npy(f4_store, words, rows)
    spaces = {name: load_embedding_space(path, fmt, 1900) for name, path, fmt in (
        (TEXT_FORMAT, text, TEXT_FORMAT), (BINARY_FORMAT, binary, BINARY_FORMAT),
        (NPY_FORMAT, store, NPY_FORMAT), ("npy <f4", f4_store, NPY_FORMAT))}
    target = EmbeddingSpace(1910, words, rows[:, ::-1])
    for name in (TEXT_FORMAT, BINARY_FORMAT):
        spaces[f"aligned {name}"] = align_diachronic(
            DiachronicEmbeddings([spaces[name], target])).space(1900)
    return spaces


@pytest.mark.parametrize("name", [TEXT_FORMAT, BINARY_FORMAT, NPY_FORMAT, "npy <f4",
                                  f"aligned {TEXT_FORMAT}", f"aligned {BINARY_FORMAT}"])
def test_space_cannot_be_written_through(tmp_path, world, name):
    space = read_only_spaces(tmp_path)[name]
    before = space.matrix.copy()
    model = fit_tier(ModelSpec("centroid"), world.lexicon, space, "relevance")
    vector = lookup(space, "care0")
    assert vector.dtype == np.float64
    with pytest.raises(ValueError):
        vector[:] = 0.0
    with pytest.raises(ValueError):
        space.matrix[0] = 0.0
    np.testing.assert_array_equal(space.matrix, before)
    assert fit_tier(ModelSpec("centroid"), world.lexicon, space, "relevance") is model


def test_callers_array_keeps_its_flag():
    rows = np.eye(3, dtype=np.float32)
    space = EmbeddingSpace(1900, ["a", "b", "c"], rows)
    assert rows.flags.writeable and not space.matrix.flags.writeable
    assert space.matrix.dtype == np.float32
    assert space.rows(["c", "x"])[0].dtype == np.float64
