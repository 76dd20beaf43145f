"""Input readers: the word2vec readers against the row-by-row reference
readers in ``reference.py``, the faults each input reader rejects, and
the one change-regression pass.

A rejected input raises a ParseError whose message names the file and
the place in it: ``path:line`` and the column for the CSV tables, the
word (and in text its line) for word2vec files.
"""
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from moraldrift import (DataError, MoraldriftError, ParseError, load_diachronic,
                        load_embedding_space, load_mfd, load_norms, load_survey,
                        load_wordlist, matrix_from_json, multiple_regression,
                        psycholinguistic_regression)
import moraldrift.embeddings
from moraldrift.embeddings import BINARY_FORMAT, TEXT_FORMAT
from moraldrift.embeddings import NPY_FORMAT, EmbeddingSpace, save_embedding_space
from moraldrift.stats import factor_tables, slope_rows

from conftest import write_binary, write_text

# Words both word2vec formats can hold: no whitespace, no surrogates.
WORDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=6).filter(lambda w: w.split() == [w])
# Vector bytes, often a space (0x20) or a newline (0x0A): a reader that
# took them for separators would split words or entries in the wrong place.
VECTOR_BYTES = st.one_of(st.sampled_from([0x20, 0x0A]), st.integers(0, 255))


@st.composite
def word2vec_entries(draw):
    """(words with repeats, (n, dim) float32 rows, newlines before each
    binary entry)."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(WORDS, min_size=1, max_size=4, unique=True))
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    raw = draw(st.lists(VECTOR_BYTES, min_size=4 * dim * len(words),
                        max_size=4 * dim * len(words)))
    rows = np.frombuffer(bytes(raw), dtype="<f4").reshape(len(words), dim)
    newlines = draw(st.lists(st.integers(0, 2), min_size=len(words), max_size=len(words)))
    return words, rows, newlines


def b2f(raw):
    """The float32 whose little-endian bytes are ``raw``."""
    return np.frombuffer(raw, dtype="<f4")[0]


def assert_reads_as_reference(path, format, oracle):
    """The reader gives the oracle's words, duplicate count and the bits
    of its widened rows, or rejects the file where the oracle does. The
    binary reader keeps float32; the text reader parses float64."""
    try:
        words, matrix, n_dup = oracle(path)
    except ValueError:
        with pytest.raises(MoraldriftError):
            load_embedding_space(path, format, 1900)
        return
    space = load_embedding_space(path, format, 1900)
    assert space.words == tuple(words)
    assert space.n_duplicates == n_dup
    assert space.matrix.dtype == (np.float32 if format == BINARY_FORMAT else np.float64)
    rows, _ = space.rows(space.words)
    np.testing.assert_array_equal(rows.view(np.uint64), matrix.view(np.uint64))


class TestWord2vecAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(word2vec_entries())
    @example((["a", "b", "a"], np.array([[b2f(b" \n \n")], [b2f(b"\n\n\n\n")],
                                         [b2f(b"    ")]], dtype="<f4"), [0, 1, 2]))
    @example((["a", "b"], np.array([[b2f(b" \n \n")], [b2f(b"\x01\x00\xa0\x7f")]],
                                   dtype="<f4"), [0, 0]))  # a signalling NaN, refused
    def test_both_formats_match_reference(self, entries):
        words, rows, newlines = entries
        with tempfile.TemporaryDirectory() as tmp:
            text, binary = Path(tmp) / "v.txt", Path(tmp) / "v.bin"
            write_text(text, words, rows)
            write_binary(binary, words, rows, newlines)
            assert_reads_as_reference(text, TEXT_FORMAT, reference.word2vec_text)
            assert_reads_as_reference(binary, BINARY_FORMAT, reference.word2vec_binary)


# Tokens that float() reads and numpy's C reader does not (1_0, an Arabic-
# Indic one), that both read (+.5, 5.), and that both read as non-finite
# or zero (1e999, 1e-400, nan, -Infinity).
ODD_TOKENS = ("1_0", "\u0661", "+.5", "5.", "1e999", "1e-400", "nan", "-Infinity")
REPRS = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x)
# Whitespace to str.split, not a line end to a text-mode file.
SEPARATORS = st.sampled_from([" ", "   ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                              "\u2028", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def word2vec_text_files(draw):
    """(text of a word2vec text file, characters per parsed chunk). Its
    lines join their tokens with any whitespace, end in CRLF, LF or a lone
    CR, and come between blank and whitespace-only lines; some hold one
    value too few or too many. Each file draws at most two odd tokens and
    mixes them into 17-digit reprs."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(WORDS, min_size=1, max_size=3, unique=True))
    odd = draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=2, unique=True))
    tokens = st.one_of(REPRS, st.sampled_from(odd)) if odd else REPRS
    n = draw(st.integers(1, 6))
    text = f"{n} {dim}" + draw(LINE_ENDS)
    for _ in range(n):
        for _ in range(draw(st.integers(0, 1))):  # a blank or whitespace-only line
            text += draw(st.sampled_from(["", " ", "\t\xa0"])) + draw(LINE_ENDS)
        width = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
        parts = [draw(st.sampled_from(pool))] + [draw(tokens) for _ in range(width)]
        text += draw(st.sampled_from(["", "\x0c"])) + parts[0]
        text += "".join(draw(SEPARATORS) + part for part in parts[1:])
        text += draw(st.sampled_from(["", " ", "\u3000"])) + draw(LINE_ENDS)
    return text, draw(st.one_of(st.integers(1, 60), st.just(moraldrift.embeddings.TEXT_CHUNK)))


class TestTextChunks:
    """The text reader parses chunks of lines with numpy's C reader and
    reads a chunk numpy refuses line by line, with its line numbers."""

    @settings(max_examples=300, deadline=None)
    @given(word2vec_text_files())
    @example(("2 2\n1_0 1_0 2\n\xe9 \u0661 5.\n", 8))
    @example(("1 1\n\n \n\t\n\na +.5\n", 4))  # a chunk of blank lines only
    def test_text_files_match_reference(self, drawn):
        text, chunk = drawn
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(moraldrift.embeddings, "TEXT_CHUNK", chunk):
            path = Path(tmp) / "v.txt"
            path.write_text(text, encoding="utf-8", newline="")
            assert_reads_as_reference(path, TEXT_FORMAT, reference.word2vec_text)

    def write(self, path, cell):
        """40 entries of 2 values, with ``cell`` in place of the first
        value of word w30 (line 32)."""
        rows = np.arange(80.0).reshape(40, 2) / 7
        write_text(path, [f"w{i}" for i in range(40)], rows)
        lines = path.read_text().splitlines(keepends=True)
        lines[31] = lines[31].replace(lines[31].split()[1], cell, 1)
        path.write_text("".join(lines))

    @pytest.mark.parametrize("cell, message", [
        ("1.0 9.5", "expected 2 values for word 'w30', got 3"),
        ("1.0x", "non-numeric vector entry"),
        ("inf", "non-finite vector for word 'w30'")])
    def test_bad_line_in_a_later_chunk_named(self, tmp_path, monkeypatch, cell, message):
        monkeypatch.setattr(moraldrift.embeddings, "TEXT_CHUNK", 64)
        path = tmp_path / "v.txt"
        self.write(path, cell)
        with pytest.raises(ParseError) as info:
            load_embedding_space(path, TEXT_FORMAT, 1900)
        assert str(info.value) == f"{path}:32: {message}"

    def test_underscore_token_in_a_later_chunk_reads_as_float_does(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(moraldrift.embeddings, "TEXT_CHUNK", 64)
        path = tmp_path / "v.txt"
        self.write(path, "1_0")
        words, matrix, _ = reference.word2vec_text(path)
        space = load_embedding_space(path, TEXT_FORMAT, 1900)
        assert space.words == tuple(words)
        assert space.matrix[30, 0] == 10.0
        np.testing.assert_array_equal(space.matrix.view(np.uint64), matrix.view(np.uint64))

    def test_chunk_of_blank_lines_warns_nothing(self, tmp_path, monkeypatch):
        # numpy warns on a chunk with no data; the reader lets no warning out.
        monkeypatch.setattr(moraldrift.embeddings, "TEXT_CHUNK", 4)
        path = tmp_path / "v.txt"
        path.write_text("1 1\n\n \n\t\n\n\na 0.5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            space = load_embedding_space(path, TEXT_FORMAT, 1900)
        assert caught == []
        assert space.words == ("a",) and space.matrix[0, 0] == 0.5

    def test_bad_line_before_an_invalid_byte_named_first(self, tmp_path):
        # Both faults fall in one chunk, but text decodes in 8 KiB blocks
        # as it is read: the bad line, in an earlier block, is named.
        path = tmp_path / "v.txt"
        write_text(path, [f"w{i}" for i in range(2000)], np.ones((2000, 2)))
        data = path.read_bytes().replace(b"\nw2 1 1\n", b"\nw2 1\n").replace(b"w1999 ", b"\xff ")
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            load_embedding_space(path, TEXT_FORMAT, 1900)
        assert str(info.value) == f"{path}:4: expected 2 values for word 'w2', got 1"


class TestWord2vecFaults:
    rows = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)

    @pytest.mark.parametrize("format, write", [(TEXT_FORMAT, write_text),
                                               (BINARY_FORMAT, write_binary)])
    def test_entries_beyond_the_header_count_rejected(self, tmp_path, format, write):
        path = tmp_path / "v"
        write(path, ["a", "b"], self.rows)
        data = path.read_bytes().replace(b"2 2\n", b"1 2\n", 1)
        path.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{path}: header declares 1 "
                                                       f"entries, found 2")):
            load_embedding_space(path, format, 1900)

    def test_invalid_utf8_word_names_file_and_entry(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"2 2\na " + self.rows[0].tobytes()
                         + b"\xff\xfe " + self.rows[1].tobytes())
        with pytest.raises(ParseError, match=re.escape(f"{path}: entry 2: ")):
            load_embedding_space(path, BINARY_FORMAT, 1900)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"decade,path,format\n1900,v.bin,{BINARY_FORMAT}\n")
        with pytest.raises(DataError, match=re.escape(f"decade 1900: {path}: entry 2: ")):
            load_diachronic(manifest)

    @pytest.mark.parametrize("format, write, where", [
        (TEXT_FORMAT, write_text, ":4: "), (BINARY_FORMAT, write_binary, ": ")])
    def test_non_finite_duplicate_named(self, tmp_path, format, write, where):
        # The third entry repeats "a" and is dropped, but is still checked.
        rows = np.array([[1, 2], [3, 4], [5, np.inf]], dtype=np.float32)
        path = tmp_path / "v"
        write(path, ["a", "b", "a"], rows)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}{where}non-finite vector for word 'a'")):
            load_embedding_space(path, format, 1900)

    def test_truncated_vector_named(self, tmp_path):
        path = tmp_path / "v.bin"
        write_binary(path, ["a", "b"], self.rows)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError, match="truncated vector for word 'b'"):
            load_embedding_space(path, BINARY_FORMAT, 1900)

    @pytest.mark.parametrize("format, write, where", [
        (TEXT_FORMAT, write_text, ":3: "), (BINARY_FORMAT, write_binary, ": ")])
    def test_non_finite_kept_row_named(self, tmp_path, format, write, where):
        # The reader checks each row and names the first bad one, before the
        # space's own finiteness check, whose message names no row.
        rows = np.array([[1, 2], [np.nan, 4]], dtype=np.float32)
        path = tmp_path / "v"
        write(path, ["a", "b"], rows)
        with pytest.raises(ParseError) as info:
            load_embedding_space(path, format, 1900)
        assert str(info.value) == f"{path}{where}non-finite vector for word 'b'"

    def test_direct_construction_refuses_non_finite(self):
        with pytest.raises(DataError) as info:
            EmbeddingSpace(1900, ["a", "b"], np.array([[0.0, 1.0], [np.nan, 2.0]]))
        assert str(info.value) == "embedding matrix contains non-finite entries"


class TestUnstorableWordsAtLoad:
    """A word that its format's writer refuses is refused at load too,
    naming the file and the entry (binary) or the vocabulary line (npy)."""

    @pytest.mark.parametrize("word", ["tab\there", "line\nbreak", "nel\x85x", "sep\u2028x"])
    def test_binary_word_with_whitespace(self, tmp_path, word):
        path = tmp_path / "v.bin"
        write_binary(path, ["a", word], np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: entry 2: word {word!r} contains whitespace")):
            load_embedding_space(path, BINARY_FORMAT, 1900)

    @pytest.mark.parametrize("word", ["sep\u2028x", "par\u2029x", "nel\x85x", "vt\x0bx"])
    def test_npy_word_with_a_line_break(self, tmp_path, word):
        path = tmp_path / "v.npy"
        save_embedding_space(EmbeddingSpace(1900, ["a", "b"], np.eye(2)), path)
        vocab = path.with_suffix(".vocab")
        vocab.write_text(f"a\n{word}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(
                f"{vocab}:2: word {word!r} contains a line break")):
            load_embedding_space(path, NPY_FORMAT, 1900)

    def test_lone_cr_in_npy_vocabulary_named(self, tmp_path):
        path = tmp_path / "s.npy"
        np.save(path, np.zeros((2, 2)))
        vocab = path.with_suffix(".vocab")
        vocab.write_bytes(b"cr\rhere\nb\n")
        with pytest.raises(ParseError) as info:
            load_embedding_space(path, NPY_FORMAT, 1900)
        assert str(info.value) == f"{vocab}:1: word 'cr\\rhere' contains a line break"

    def test_crlf_npy_vocabulary_reads_its_words(self, tmp_path):
        path = tmp_path / "v.npy"
        save_embedding_space(EmbeddingSpace(1900, ["a", "b"], np.eye(2)), path)
        path.with_suffix(".vocab").write_bytes(b"a\r\nb\r\n")
        assert load_embedding_space(path, NPY_FORMAT, 1900).words == ("a", "b")


# reader -> (header, a row with one fault, the message after "path:line: ",
#            which names the column)
TABLE_FAULTS = {
    "manifest": (load_diachronic, "decade,path,format", "19x0,a.txt,text-word2vec",
                 "non-integer decade '19x0'"),
    "manifest-path": (load_diachronic, "decade,path,format", "1910, ,text-word2vec",
                      "empty path"),
    "mfd": (load_mfd, "word,category", "harm,11", "category 11 outside [1, 10]"),
    "norms": (load_norms, "word,valence,concreteness", "war,2.0,7.5",
              "concreteness 7.5 outside [1.0, 5.0]"),
    "wordlist": (load_wordlist, "word,frequency", "lie,often",
                 "non-numeric frequency 'often'"),
    "survey": (load_survey, "topic,frac_not_moral,frac_acceptable", " ,0.1,0.2",
               "empty topic"),
}


@pytest.mark.parametrize("name", sorted(TABLE_FAULTS))
def test_table_fault_names_line_and_column(tmp_path, name):
    load, header, bad, message = TABLE_FAULTS[name]
    path = tmp_path / "table.csv"
    path.write_text(f"# written by a test\n{header}\n# a note\n{bad}\n")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("text", ["", "# only a comment\n"])
@pytest.mark.parametrize("load", [load_diachronic, load_mfd, load_norms, load_wordlist,
                                  load_survey], ids=lambda load: load.__name__)
def test_empty_table_refused(tmp_path, load, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == f"{path}: empty file"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_frequency_refused(tmp_path, value):
    path = tmp_path / "wordlist.csv"
    path.write_text(f"word,frequency\na,3\nb,{value}\n")
    with pytest.raises(ParseError) as info:
        load_wordlist(path)
    assert str(info.value) == f"{path}:3: non-finite frequency {value!r}"


def test_bounded_column_keeps_its_range_message_for_inf(tmp_path):
    path = tmp_path / "norms.csv"
    path.write_text("word,valence\ncalm,inf\n")
    with pytest.raises(ParseError) as info:
        load_norms(path)
    assert str(info.value) == f"{path}:2: valence inf outside [1.0, 9.0]"


def test_table_duplicate_word_refused(tmp_path):
    path = tmp_path / "norms.csv"
    path.write_text("word,valence\nCalm,5.0\n calm ,6.0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: duplicate word 'calm'")):
        load_norms(path)


def test_blank_concreteness_is_nan(tmp_path):
    path = tmp_path / "norms.csv"
    path.write_text("word,valence,concreteness\ncalm,5.0, \n")
    assert np.isnan(load_norms(path).concreteness[0])


class TestMatrixFromJson:
    good = {"kind": "relevance", "decades": [1900, 1910], "words": ["a", "b"],
            "values": [[0.1, None], [0.3, 0.4]]}

    def load(self, tmp_path, **change):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({**self.good, **change}))
        return path, lambda: matrix_from_json(path)

    def test_good_file_loads(self, tmp_path):
        _, load = self.load(tmp_path)
        assert load().words == ("a", "b")

    @pytest.mark.parametrize("change, message", [
        ({"values": [[0.1, 0.2], [0.3]]}, "malformed"),
        ({"values": [[0.1, "high"], [0.3, 0.4]]}, "malformed"),
        ({"values": [[0.1, [0.2]], [0.3, 0.4]]}, "malformed"),
        ({"kind": "category"}, "unknown matrix kind 'category'"),
        ({"words": ["a", "a"]}, "duplicate word 'a'"),
        ({"values": [[10 ** 400, 0.2], [0.3, 0.4]]},
         "malformed prediction-matrix JSON: int too large to convert to float"),
        ({"values": [[0.1, float("nan")], [0.3, 0.4]]},
         "malformed prediction-matrix JSON: NaN is not a score"),
        ({"values": [[0.1, True], [0.3, 0.4]]}, "malformed prediction-matrix JSON: a score is"),
        ({"values": [[0.1, "0.25"], [0.3, 0.4]]}, "malformed prediction-matrix JSON: a score is"),
        ({"values": [[0.1, "nan"], [0.3, 0.4]]}, "malformed prediction-matrix JSON: a score is"),
        ({"values": {"a": [0.1, 0.2]}}, "malformed prediction-matrix JSON: values must be"),
        ({"values": [[0.1, 7.0], [0.3, 0.4]]}, "word 'a', decade 1910: score 7.0 outside [0, 1]"),
        ({"values": [[0.1, 0.2], [-0.5, 0.4]]},
         "word 'b', decade 1900: score -0.5 outside [0, 1]"),
        ({"words": [5, "b"]}, "malformed prediction-matrix JSON: words must be a list of strings"),
        ({"words": {"a": 1, "b": 2}}, "malformed prediction-matrix JSON: words must be"),
        ({"decades": [1900, 1910.5]}, "malformed prediction-matrix JSON: decades must be a list "
                                      "of increasing integers"),
        ({"decades": [1900, True]}, "malformed prediction-matrix JSON: decades must be"),
        ({"decades": [1900, 1900]}, "malformed prediction-matrix JSON: decades must be"),
        ({"decades": [1910, 1900]}, "malformed prediction-matrix JSON: decades must be"),
        ({"decades": "1900"}, "malformed prediction-matrix JSON: decades must be"),
        ({"values": [[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]]},
         "values shape (2, 3) does not match 2 words x 2 decades"),
    ])
    def test_fault_names_path(self, tmp_path, change, message):
        path, load = self.load(tmp_path, **change)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            load()

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("{")
        with pytest.raises(ParseError, match=re.escape(f"{path}: malformed")):
            matrix_from_json(path)


def test_changed_word_fit_is_the_fit_of_its_slopes_and_factors(changer_files):
    matrix = matrix_from_json(changer_files.matrix)
    norms, frequencies = load_norms(changer_files.norms), load_wordlist(changer_files.wordlist)
    fit, words = psycholinguistic_regression(matrix, norms, frequencies)
    rows = [matrix.words.index(w) for w in words]
    slopes = slope_rows(matrix.values[rows])[0]
    concreteness, log_frequency = factor_tables(norms, frequencies)
    factors = {"frequency": [log_frequency[w] for w in words],
               "length": [len(w) for w in words],
               "concreteness": [concreteness[w] for w in words]}
    assert fit == multiple_regression(slopes, factors)
    assert fit.n == len(words)


class TestNotUtf8:
    """A text input that is not valid UTF-8 is refused with its path and
    the line of the first invalid byte."""

    def test_wordlist(self, tmp_path):
        path = tmp_path / "wordlist.csv"
        path.write_bytes(b"word,frequency\ncafe,10\ncaf\xe9,3\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:3: not valid UTF-8 (invalid continuation byte)")):
            load_wordlist(path)

    def test_line_beyond_the_first_read_chunk(self, tmp_path):
        path = tmp_path / "wordlist.csv"
        rows = b"".join(b"w%d,%d\n" % (i, i + 1) for i in range(5000))
        path.write_bytes(b"word,frequency\n" + rows + b"\xff,1\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:5002: not valid UTF-8")):
            load_wordlist(path)

    def test_text_decade_through_manifest(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"2 2\na 1.0 2.0\ncaf\xe9 3.0 4.0\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"decade,path,format\n1900,v.txt,{TEXT_FORMAT}\n")
        with pytest.raises(DataError, match=re.escape(
                f"decade 1900: {path}:3: not valid UTF-8")):
            load_diachronic(manifest)

    def test_npy_vocabulary(self, tmp_path):
        path = tmp_path / "v.npy"
        save_embedding_space(EmbeddingSpace(1900, ["a", "b"], np.eye(2)), path)
        path.with_suffix(".vocab").write_bytes(b"a\n\xe9\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path.with_suffix('.vocab')}:2: not valid UTF-8")):
            load_embedding_space(path, NPY_FORMAT, 1900)


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a text input (spreadsheet
    programs write one) is skipped, and lines are still numbered from 1."""

    def test_csv_table(self, tmp_path):
        path = tmp_path / "mfd.csv"
        path.write_bytes(BOM + b"word,category\ncare,1\n")
        assert load_mfd(path) == {"care": 1}
        path.write_bytes(BOM + b"word,category\ncare,1\nharm,11\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: category 11 outside")):
            load_mfd(path)
        path.write_bytes(BOM + b"word,category\ncare,1\ncaf\xe9,2\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: not valid UTF-8")):
            load_mfd(path)

    def test_word2vec_text(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(BOM + b"2 2\ncare 1.0 2.0\nharm 3.0 4.0\n")
        space = load_embedding_space(path, TEXT_FORMAT, 1900)
        assert space.words == ("care", "harm")
        np.testing.assert_array_equal(space.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_npy_vocabulary(self, tmp_path):
        path = tmp_path / "v.npy"
        save_embedding_space(EmbeddingSpace(1900, ["care", "harm"], np.eye(2)), path)
        vocab = path.with_suffix(".vocab")
        vocab.write_bytes(BOM + vocab.read_bytes())
        space = load_embedding_space(path, NPY_FORMAT, 1900)
        assert space.words == ("care", "harm") and "care" in space

    def test_prediction_matrix_json(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_bytes(BOM + json.dumps({"kind": "relevance", "decades": [1900],
                                           "words": ["care"], "values": [[0.5]]}).encode())
        assert matrix_from_json(path).words == ("care",)


@pytest.mark.filterwarnings("error")
def test_signalling_nan_refused_without_a_warning(tmp_path):
    path = tmp_path / "v.bin"
    snan = b"\x01\x00\xa0\x7f"  # float32 0x7fa00001
    path.write_bytes(b"2 2\na " + np.float32([1, 2]).tobytes()
                     + b"b " + snan + np.float32([4]).tobytes())
    with pytest.raises(ParseError, match=re.escape(f"{path}: non-finite vector for word 'b'")):
        load_embedding_space(path, BINARY_FORMAT, 1900)
