import re

import numpy as np
import pytest

from moraldrift import (AlignmentError, CoverageError, DataError,
                        MoraldriftError, ParseError, align_diachronic,
                        align_procrustes, average_vector, load_diachronic,
                        load_embedding_space, lookup)
from moraldrift import load_mfd, load_norms, load_survey, load_wordlist
from moraldrift.embeddings import EmbeddingSpace

from conftest import make_space, write_binary, write_text


def write(path, text):
    path.write_text(text)
    return path


def small_space(tmp_path):
    path = write(tmp_path / "small.txt", "2 3\na 1 0 0\nb 0 1 0\n")
    return load_embedding_space(path, "text-word2vec", 1900)


def random_space(decade, n, dim, seed=0, prefix="w"):
    rng = np.random.default_rng(seed)
    words = [f"{prefix}{i}" for i in range(n)]
    return EmbeddingSpace(decade, words, rng.standard_normal((n, dim)))


def random_orthogonal(dim, seed=0):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class TestTextFormat:
    def test_load_small_file(self, tmp_path):
        space = small_space(tmp_path)
        assert space.dim == 3
        assert len(space) == 2
        assert space.decade == 1900
        np.testing.assert_array_equal(space.vector("a"), [1.0, 0.0, 0.0])

    def test_dimension_mismatch_row(self, tmp_path):
        path = write(tmp_path / "bad.txt", "2 3\na 1 0 0\nb 1 0\n")
        with pytest.raises(ParseError, match="3"):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_malformed_value_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2\na 1 oops\n")
        with pytest.raises(ParseError, match=":2"):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "bad.txt", "\n")
        with pytest.raises(ParseError):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_header_count_mismatch(self, tmp_path):
        path = write(tmp_path / "bad.txt", "3 2\na 1 0\nb 0 1\n")
        with pytest.raises(ParseError, match="declares 3"):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2\na 1 nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_empty_vocabulary_rejected(self, tmp_path):
        path = write(tmp_path / "bad.txt", "0 3\n")
        with pytest.raises(MoraldriftError):
            load_embedding_space(path, "text-word2vec", 1900)

    def test_duplicates_keep_first_and_count(self, tmp_path):
        # 10 rows, one word repeated: 9 distinct entries, 1 duplicate report.
        rows = [f"w{i} {i} 0" for i in range(9)] + ["w3 99 99"]
        path = write(tmp_path / "dup.txt", "10 2\n" + "\n".join(rows) + "\n")
        space = load_embedding_space(path, "text-word2vec", 1900)
        assert len(space) == 9
        assert space.n_duplicates == 1
        np.testing.assert_array_equal(space.vector("w3"), [3.0, 0.0])

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path / "x.txt", "1 1\na 1\n")
        with pytest.raises(ValueError, match="format"):
            load_embedding_space(path, "word2vec", 1900)

    def test_decade_must_be_multiple_of_ten(self, tmp_path):
        path = write(tmp_path / "x.txt", "1 1\na 1\n")
        with pytest.raises(DataError, match="multiple of 10"):
            load_embedding_space(path, "text-word2vec", 1905)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        # float32-representable values survive the binary round trip exactly
        matrix = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        space = EmbeddingSpace(1910, [f"w{i}" for i in range(7)], matrix)
        path = tmp_path / "vecs.bin"
        write_binary(path, space.words, space.matrix)
        loaded = load_embedding_space(path, "binary-word2vec", 1910)
        assert loaded.words == space.words
        np.testing.assert_array_equal(loaded.matrix, space.matrix)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.bin"
        with open(path, "wb") as fh:
            fh.write(b"2 3\n")
            fh.write(b"a " + np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(ParseError, match="truncated"):
            load_embedding_space(path, "binary-word2vec", 1900)

    def test_non_ascii_word_round_trip(self, tmp_path):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).astype(np.float64)
        space = EmbeddingSpace(1900, ["café", "naïveté"], matrix)
        path = tmp_path / "utf8.bin"
        write_binary(path, space.words, space.matrix)
        loaded = load_embedding_space(path, "binary-word2vec", 1900)
        assert loaded.words == ("café", "naïveté")
        np.testing.assert_array_equal(loaded.matrix, matrix)

    def test_newline_separated_entries_tolerated(self, tmp_path):
        # some writers emit a newline between entries
        path = tmp_path / "nl.bin"
        with open(path, "wb") as fh:
            fh.write(b"2 2\n")
            fh.write(b"a " + np.array([1, 2], dtype="<f4").tobytes() + b"\n")
            fh.write(b"b " + np.array([3, 4], dtype="<f4").tobytes())
        loaded = load_embedding_space(path, "binary-word2vec", 1900)
        assert loaded.words == ("a", "b")
        np.testing.assert_array_equal(loaded.vector("b"), [3.0, 4.0])


class TestRoundTrip:
    def test_text_17_digit_round_trip_is_exact(self, tmp_path):
        space = random_space(1920, 20, 4, seed=11)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_text(first, space.words, space.matrix)
        loaded = load_embedding_space(first, "text-word2vec", 1920)
        write_text(second, loaded.words, loaded.matrix)
        reloaded = load_embedding_space(second, "text-word2vec", 1920)
        assert loaded.words == reloaded.words == space.words
        np.testing.assert_array_equal(loaded.matrix, space.matrix)
        np.testing.assert_array_equal(reloaded.matrix, loaded.matrix)
        assert first.read_bytes() == second.read_bytes()

    def test_normalize_flag(self, tmp_path):
        space = random_space(1920, 10, 4, seed=5)
        path = tmp_path / "n.txt"
        write_text(path, space.words, space.matrix)
        normalized = load_embedding_space(path, "text-word2vec", 1920, normalize=True)
        norms = np.linalg.norm(normalized.matrix, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestLookup:
    def test_present(self, tmp_path):
        space = small_space(tmp_path)
        np.testing.assert_array_equal(lookup(space, "a"), [1.0, 0.0, 0.0])

    def test_missing_is_none(self, tmp_path):
        assert lookup(small_space(tmp_path), "zzz") is None

    def test_matches_independent_file_scan(self, tmp_path):
        space = random_space(1930, 200, 6, seed=7)
        path = tmp_path / "big.txt"
        write_text(path, space.words, space.matrix)
        loaded = load_embedding_space(path, "text-word2vec", 1930)
        # independent scan: parse the text file line by line
        lines = path.read_text().splitlines()[1:]
        for line in lines:
            parts = line.split()
            expected = np.array([float(x) for x in parts[1:]])
            np.testing.assert_array_equal(lookup(loaded, parts[0]), expected)

    def test_vectors_have_dim_finite_entries(self, tmp_path):
        space = random_space(1930, 50, 8, seed=9)
        for word in space.words:
            q = lookup(space, word)
            assert q.shape == (8,)
            assert np.all(np.isfinite(q))


class TestAverageVector:
    def test_midpoint(self, tmp_path):
        q = average_vector(small_space(tmp_path), ["a", "b"])
        np.testing.assert_array_equal(q, [0.5, 0.5, 0.0])

    def test_single_word_identity(self, tmp_path):
        q = average_vector(small_space(tmp_path), ["b"])
        np.testing.assert_array_equal(q, [0.0, 1.0, 0.0])

    def test_absent_words_skipped_and_reported(self, tmp_path, caplog):
        space = small_space(tmp_path)
        with caplog.at_level("WARNING", logger="moraldrift.embeddings"):
            q = average_vector(space, ["a", "b", "zzz"])
        assert any("zzz" in rec.message for rec in caplog.records)
        # oracle: recompute the mean over the present words only
        expected = (space.vector("a") + space.vector("b")) / 2.0
        np.testing.assert_array_equal(q, expected)

    def test_all_missing_is_error(self, tmp_path):
        with pytest.raises(CoverageError):
            average_vector(small_space(tmp_path), ["x", "y"])


class TestProcrustes:
    def test_identity_when_target_equals_source(self):
        space = random_space(1900, 30, 5, seed=1)
        rotation, aligned = align_procrustes(space, space)
        np.testing.assert_allclose(rotation, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(aligned.matrix, space.matrix, atol=1e-8)

    def test_recovers_planted_rotation(self):
        source = random_space(1900, 40, 6, seed=2)
        q = random_orthogonal(6, seed=3)
        target = EmbeddingSpace(1910, source.words, source.matrix @ q)
        rotation, aligned = align_procrustes(source, target)
        np.testing.assert_allclose(rotation, q, atol=1e-6)
        np.testing.assert_allclose(aligned.matrix, target.matrix, atol=1e-6)

    def test_orthogonality(self):
        source = random_space(1900, 25, 5, seed=4)
        target = random_space(1910, 25, 5, seed=5)
        rotation, _ = align_procrustes(source, target)
        residual = np.abs(rotation.T @ rotation - np.eye(5)).max()
        assert residual < 1e-8

    def test_matches_scipy_orthogonal_procrustes(self):
        from scipy.linalg import orthogonal_procrustes
        source = random_space(1900, 30, 6, seed=12)
        target = random_space(1910, 30, 6, seed=13)
        rotation, _ = align_procrustes(source, target)
        shared = sorted(source.words)
        x, _, _ = source.rows(shared)
        y, _, _ = target.rows(shared)
        want, _ = orthogonal_procrustes(x, y)
        np.testing.assert_allclose(rotation, want, atol=1e-10)

    def test_alignment_does_not_increase_residual(self):
        source = random_space(1900, 30, 4, seed=6)
        target = random_space(1910, 30, 4, seed=7)
        _, aligned = align_procrustes(source, target)
        before = np.linalg.norm(source.matrix - target.matrix)
        after = np.linalg.norm(aligned.matrix - target.matrix)
        assert after <= before + 1e-12

    def test_small_shared_vocabulary_rejected(self):
        source = random_space(1900, 3, 5, seed=8)
        target = random_space(1910, 3, 5, seed=9)
        with pytest.raises(AlignmentError, match="shared vocabulary"):
            align_procrustes(source, target)

    def test_dim_mismatch_rejected(self):
        source = random_space(1900, 10, 4, seed=8)
        target = random_space(1910, 10, 5, seed=9)
        with pytest.raises(AlignmentError, match="dimension"):
            align_procrustes(source, target)


class TestManifest:
    def _write_manifest(self, tmp_path, specs):
        lines = ["decade,path,format"]
        for decade, name, dim, seed in specs:
            space = random_space(decade, 12, dim, seed=seed)
            write_text(tmp_path / name, space.words, space.matrix)
            lines.append(f"{decade},{name},text-word2vec")
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_two_decades(self, tmp_path):
        manifest = self._write_manifest(
            tmp_path, [(1910, "b.txt", 4, 1), (1900, "a.txt", 4, 0)])
        diachronic = load_diachronic(manifest)
        assert diachronic.decades == (1900, 1910)
        assert diachronic.dim == 4

    def test_dim_disagreement(self, tmp_path):
        manifest = self._write_manifest(
            tmp_path, [(1900, "a.txt", 4, 0), (1910, "b.txt", 5, 1)])
        with pytest.raises(DataError, match="dim"):
            load_diachronic(manifest)

    def test_twenty_decades(self, tmp_path):
        specs = [(1800 + 10 * i, f"d{i}.txt", 3, i) for i in range(20)]
        diachronic = load_diachronic(self._write_manifest(tmp_path, specs))
        assert len(diachronic) == 20
        assert diachronic.decades == tuple(range(1800, 2000, 10))

    def test_member_failure_names_decade(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("decade,path,format\n1930,missing.txt,text-word2vec\n")
        with pytest.raises(DataError, match="1930"):
            load_diachronic(manifest)

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("decade,file\n")
        with pytest.raises(ParseError, match="header"):
            load_diachronic(manifest)

    def test_duplicate_decade_names_line(self, tmp_path):
        manifest = self._write_manifest(tmp_path, [(1900, "a.txt", 3, 0)])
        manifest.write_text(manifest.read_text() + "1900,a.txt,text-word2vec\n")
        with pytest.raises(ParseError, match=re.escape(f"{manifest}:3: duplicate decade 1900")):
            load_diachronic(manifest)

    @pytest.mark.parametrize("row,error", [
        ("19x0,b.txt,text-word2vec", "non-integer decade '19x0'"),
        ("1910,b.txt,word2vec", "unknown format 'word2vec'"),
        ("1910, ,text-word2vec", "empty path"),
    ])
    def test_whole_manifest_checked_before_loading(self, tmp_path, row, error):
        # The missing decade on line 2 is never opened: line 3 is refused first.
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"decade,path,format\n1900,missing.txt,text-word2vec\n{row}\n")
        with pytest.raises(ParseError, match=re.escape(f"{manifest}:3: {error}")):
            load_diachronic(manifest)


def _manifest_rows(tmp_path):
    for decade in (1900, 1910):
        space = random_space(decade, 4, 2, seed=decade)
        write_text(tmp_path / f"{decade}.txt", space.words, space.matrix)
    return ["1900,1900.txt,text-word2vec", "1910,1910.txt,text-word2vec"]


# (reader, header, two valid rows or a function of tmp_path writing
#  what they refer to and returning them, a row with one column too many)
TABLE_READERS = {
    "manifest": (load_diachronic, "decade,path,format", _manifest_rows,
                 "1920,x.txt,text-word2vec,extra"),
    "mfd": (load_mfd, "word,category", ["care,1", "harm,2"], "fair,3,4"),
    "norms": (load_norms, "Word,Valence,Concreteness", ["calm,5.1,2.0", "war,2.0,"],
              "tree,5.0,4.0,1"),
    "wordlist": (load_wordlist, "word,frequency", ["truth,99", "lie,12"], "myth,3,3"),
    "survey": (load_survey, "topic,frac_not_moral,frac_acceptable",
               ["abortion,0.1,0.25", "premarital sex,0.3,0.4"], "war,0.1,0.2,0.3"),
}


class TestReadTable:
    @pytest.fixture(params=sorted(TABLE_READERS))
    def reader(self, request, tmp_path):
        load, header, rows, bad = TABLE_READERS[request.param]
        if callable(rows):
            rows = rows(tmp_path)
        return load, header, rows, bad

    def test_comments_and_blank_rows_skipped(self, reader, tmp_path):
        load, header, rows, _ = reader
        path = write(tmp_path / "table.csv",
                     f"# written by a test\n{header}\n{rows[0]}\n\n"
                     f"# a comment between rows\n ,  \n{rows[1]}\n")
        assert len(load(path)) == 2

    def test_wrong_column_count_names_line(self, reader, tmp_path):
        load, header, rows, bad = reader
        path = write(tmp_path / "table.csv",
                     f"# written by a test\n{header}\n{rows[0]}\n# note\n{bad}\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: expected")):
            load(path)

    def test_cell_over_the_csv_field_limit_names_line(self, reader, tmp_path):
        load, header, rows, _ = reader
        path = write(tmp_path / "table.csv",
                     f"{header}\n{rows[0]}\n# note\n{'x' * 131_073}{rows[1]}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:4: field larger than field limit (131072)")):
            load(path)


class TestAlignDiachronic:
    def _rotated_chain(self, n_decades=4, dim=5, n_words=30):
        base = random_space(1900, n_words, dim, seed=20)
        spaces = [base]
        for i in range(1, n_decades):
            q = random_orthogonal(dim, seed=30 + i)
            spaces.append(EmbeddingSpace(1900 + 10 * i, base.words, base.matrix @ q))
        from moraldrift import DiachronicEmbeddings
        return DiachronicEmbeddings(spaces)

    @pytest.mark.parametrize("direction,anchor_idx", [("forward", 0), ("backward", -1)])
    def test_chain_restores_comparability(self, direction, anchor_idx):
        diachronic = self._rotated_chain()
        aligned = align_diachronic(diachronic, direction=direction)
        anchor = aligned.spaces[anchor_idx]
        for space in aligned:
            np.testing.assert_allclose(space.matrix, anchor.matrix, atol=1e-8)
        # the anchor decade itself is untouched
        original = diachronic.spaces[anchor_idx]
        np.testing.assert_array_equal(anchor.matrix, original.matrix)

    def test_unknown_direction(self):
        diachronic = self._rotated_chain(n_decades=2)
        with pytest.raises(ValueError):
            align_diachronic(diachronic, direction="sideways")


class TestSpaceInvariants:
    def test_duplicate_words_rejected_in_constructor(self):
        with pytest.raises(DataError, match="duplicate"):
            EmbeddingSpace(1900, ["a", "a"], np.zeros((2, 2)))

    def test_decades_strictly_increasing(self):
        from moraldrift import DiachronicEmbeddings
        a = random_space(1900, 5, 3, seed=0)
        b = random_space(1900, 5, 3, seed=1)
        with pytest.raises(DataError, match="duplicate decades"):
            DiachronicEmbeddings([a, b])

    def test_make_space_helper(self):
        space = make_space(1950, {"x": np.array([1.0, 2.0])})
        assert space.decade == 1950 and space.dim == 2
