"""CLI ``align`` aligns one pair of decades at a time.

It loads each decade in anchor order, rotates it onto the aligned space
before it, stages the store and drops the source. Its files must be the
bytes that ``align_diachronic`` over ``load_diachronic`` and then
``save_embedding_space`` write, for any input formats, vocabularies,
manifest order and direction; and no more than one source and two
aligned spaces may be alive at once.
"""
import contextlib
import io
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (MoraldriftError, align_diachronic, cli, load_diachronic,
                        save_embedding_space)
from moraldrift.cli import dispatch

from conftest import write_binary, write_text

FORMATS = ("text", "binary", "<f4", "<f8")


def write_decade(root: Path, decade: int, fmt: str, words, rows) -> str:
    """One decade in ``fmt`` under ``root``; returns its manifest row."""
    if fmt == "text":
        write_text(root / f"{decade}.txt", words, rows)
        return f"{decade},{decade}.txt,text-word2vec\n"
    if fmt == "binary":
        write_binary(root / f"{decade}.bin", words, rows)
        return f"{decade},{decade}.bin,binary-word2vec\n"
    np.save(root / f"{decade}.npy", np.asarray(rows, dtype=fmt))
    (root / f"{decade}.vocab").write_text("".join(f"{w}\n" for w in words), encoding="utf-8")
    return f"{decade},{decade}.npy,npy\n"


@st.composite
def worlds(draw):
    """Decades of one dimension in drawn formats, with one vocabulary for
    all or each its own (a drawn subset of a pool, in drawn order), and
    their manifest rows in drawn order."""
    n = draw(st.integers(2, 5))
    dim = draw(st.integers(1, 3))
    pool = [f"w{i}" for i in range(dim + 4)]
    shared = draw(st.booleans())
    values = st.integers(-4, 4).map(float)
    decades = []
    for decade in range(1900, 1900 + 10 * n, 10):
        words = pool
        if not shared:
            words = draw(st.permutations(pool))[:draw(st.integers(1, len(pool)))]
        rows = draw(st.lists(values, min_size=len(words) * dim, max_size=len(words) * dim))
        decades.append((decade, draw(st.sampled_from(FORMATS)), list(words),
                        np.array(rows).reshape(len(words), dim) / 2))
    return draw(st.permutations(decades))


@settings(max_examples=60, deadline=None)
@given(world=worlds(), direction=st.sampled_from(["forward", "backward"]),
       normalize=st.booleans())
def test_cli_align_writes_the_library_stores(world, direction, normalize):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = root / "manifest.csv"
        manifest.write_text("decade,path,format\n" + "".join(
            write_decade(root, *decade) for decade in world))
        flags = ["--alignment-direction", direction] + ["--normalize-embeddings"] * normalize
        cli_out, library_out = root / "cli", root / "library"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = dispatch(["align", "--manifest", str(manifest), "--out-dir", str(cli_out),
                             *flags])
        try:
            aligned = align_diachronic(load_diachronic(manifest, normalize), direction)
        except MoraldriftError as exc:  # too few shared words: the first pair in the chain
            assert (code, err.getvalue()) == (2, f"moraldrift: error: {exc}\n")
            assert not cli_out.exists()
            return
        assert (code, err.getvalue()) == (0, "")
        library_out.mkdir()
        for space in aligned:
            save_embedding_space(space, library_out / f"aligned_{space.decade}.npy")
        stores = {p.name: p.read_bytes() for p in sorted(library_out.iterdir())}
        written = {p.name: p.read_bytes() for p in sorted(cli_out.iterdir())}
        assert written.pop("aligned_manifest.csv").decode().splitlines()[1:] == [
            "decade,path,format", *(f"{d},aligned_{d}.npy,npy" for d in aligned.decades)]
        report = json.loads(written.pop("align.json"))
        assert (report["direction"], report["decades"], report["dim"]) == (
            direction, list(aligned.decades), aligned.dim)
        assert written == stores


def test_align_holds_one_source_and_two_aligned_spaces(world_files, tmp_path, monkeypatch):
    # Every space the loader returns or the chain yields is watched; at
    # each load and each yield, count the ones still alive.
    loaded, yielded, counts = [], [], []
    load_row, align_chain = cli._load_row, cli._align_chain

    def alive():
        aligned = [r() for r in yielded if r() is not None]
        sources = [r() for r in loaded
                   if r() is not None and not any(r() is space for space in aligned)]
        counts.append((len(sources), len(aligned)))

    def watched_load(*args):
        space = load_row(*args)
        loaded.append(weakref.ref(space))
        alive()
        return space

    def watched_chain(spaces):
        for space in align_chain(spaces):
            yielded.append(weakref.ref(space))
            alive()
            yield space

    monkeypatch.setattr(cli, "_load_row", watched_load)
    monkeypatch.setattr(cli, "_align_chain", watched_chain)
    assert dispatch(["align", "--manifest", str(world_files.manifest),
                     "--out-dir", str(tmp_path)]) == 0
    assert len(loaded) == len(yielded) == 6
    assert max(sources for sources, _ in counts) == 1
    assert max(aligned for _, aligned in counts) <= 2
