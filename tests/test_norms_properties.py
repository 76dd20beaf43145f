"""Property tests for the CSV tables.

``read_table`` checks whole columns at once and ``build_irrelevant_seeds``
ranks with one array partition. The five table loaders are checked
against the row-by-row loaders in ``reference.py`` and the ranking
against its full sort, on generated files with faults in several rows
and columns: the same rows, or the same exception with the same text.
"""
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import (build_irrelevant_seeds, load_diachronic, load_mfd,
                        load_norms, load_survey, load_wordlist)
from moraldrift.stats import factor_tables

import reference
from conftest import norm_table, padded_seeds, write_text


def cells(valid, faults):
    """A cell drawn from ``valid`` six times as often as from ``faults``."""
    return st.sampled_from(valid * 6 + faults)


# A word differs from another only in case or surrounding whitespace, is
# blank, or holds a comma or a line break (quoted by the writer).
WORD_FORMS = [str] * 12 + [str.upper, lambda w: f" {w} ", lambda w: f"{w}\t",
              lambda w: f"{w},x", lambda w: f"{w}\nx", lambda w: "", lambda w: " "]
WORDS = st.builds(lambda form, n: form(f"w{n}"), st.sampled_from(WORD_FORMS),
                  st.integers(0, 40))
# Seeds and topics may also hold inner whitespace.
PHRASES = WORDS | st.sampled_from(["kind heart", "kind\theart", "fair\u00a0play", " a  b "])
# Valences 4.0/6.0 and 4.5/5.5 tie in distance from 5.
VALENCES = cells(["5", "5.0", " 4.5 ", "5.5", "4.0", "6.0", "1", "9", "1e0", "7.25"],
                 ["", " ", "nan", "NaN", "inf", "-inf", "9.5", "0.5", "abc", "1_0"])
CONCRETENESS = cells(["", " ", "1", "5", "3.1", "2.5", "4"], ["nan", "inf", "-inf", "6", "0", "x"])
CATEGORIES = cells(["1", "2", "10", " 3 ", "+5", "0_7"], ["0", "11", "1.5", "x", "", "-1"])
FREQUENCIES = cells(["1", "12.5", "1e3", " 7 ", "0", "-3"], ["inf", "-inf", "nan", "x", "", "1e400"])
PROPORTIONS = cells(["0", "1", "0.5", " 0.25 ", "1e-1"], ["1.5", "-0.1", "nan", "inf", "x", ""])
# Two decade files, a.txt and b.txt, sit beside each manifest; 1905 is
# refused on load, a repeated decade by the manifest.
DECADES = cells(["1900", "1910", " 1920 ", "+1930", "1_940"], ["19x0", "", "1905", "1900.0"])
PATHS = cells(["a.txt", " b.txt "], ["missing.txt", ""])
FORMATS = cells(["text-word2vec", " text-word2vec "], ["Text-Word2vec", "npy", "xyz", ""])

# name -> (loader, reference loader, headers to write (each accepted:
# header cells are compared stripped and lowercased), the strategy of
# each column's cells)
TABLES = {
    "norms": (load_norms, reference.load_norms,
              [["word", "valence"], ["Word", " VALENCE "], ["word", "valence", "concreteness"],
               [" word", "Valence", "Concreteness "]], [WORDS, VALENCES, CONCRETENESS]),
    "mfd": (load_mfd, reference.load_mfd, [["word", "category"], [" Word", "CATEGORY"]],
            [PHRASES, CATEGORIES]),
    "wordlist": (load_wordlist, reference.load_wordlist,
                 [["word", "frequency"], ["WORD ", "Frequency"]], [WORDS, FREQUENCIES]),
    "survey": (load_survey, reference.load_survey,
               [["topic", "frac_not_moral", "frac_acceptable"],
                ["Topic", " frac_not_moral", "FRAC_ACCEPTABLE"]],
               [PHRASES, PROPORTIONS, PROPORTIONS]),
    "manifest": (load_diachronic, reference.load_diachronic,
                 [["decade", "path", "format"], ["Decade", "PATH ", "format"]],
                 [DECADES, PATHS, FORMATS]),
}


@st.composite
def table_texts(draw, headers, columns, max_rows=14):
    """The text of a table: one of ``headers``, then data rows with cells
    drawn from the strategies of as many ``columns`` as the header has,
    comments, blank and whitespace-only rows and rows one cell too wide,
    with LF, CRLF or CR line ends."""
    header = draw(st.sampled_from(headers))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    if draw(st.booleans()):
        out.write("# a table" + eol)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["row"] * 16 + ["comment", "blank", "spaces", "wide"]))
        if kind == "comment":
            out.write("#,a comment" + eol)
        elif kind == "blank":
            out.write(eol)
        elif kind == "spaces":
            writer.writerow([" "] * draw(st.integers(1, 4)))
        else:
            row = [draw(column) for column in columns[:len(header)]]
            writer.writerow(row + ["1"] * (kind == "wide"))
    text = out.getvalue()
    return text[:-len(eol)] if text.endswith(eol) and draw(st.booleans()) else text


def _outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", type, text)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return "raised", type(exc), str(exc)


class TestNormsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(table_texts(*TABLES["norms"][2:]), st.data())
    def test_load_and_rank_match_row_by_row(self, text, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "norms.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = _outcome(reference.load_norms, path)
            got = _outcome(load_norms, path)
        if expected[0] == "raised":
            assert got == expected
            return
        assert got[0] == "ok"
        table, rows = got[1], expected[1]
        assert len(table) == len(rows)
        assert table.words == tuple(word for word, _, _ in rows)
        assert table.valence.dtype == table.concreteness.dtype == np.float64
        np.testing.assert_array_equal(table.valence, [valence for _, valence, _ in rows])
        np.testing.assert_array_equal(table.concreteness, [c for _, _, c in rows])
        assert factor_tables(table, [])[0] == {
            word: c for word, _, c in rows if not math.isnan(c)}

        words = list(table.words)
        mfd = data.draw(st.sets(st.sampled_from(words))) if words else set()
        vocabulary = data.draw(st.none() | st.sets(st.sampled_from(words + ["absent"])))
        for count in range(len(mfd), len(rows) + 2):  # one neutral word per seed word
            assert (_outcome(build_irrelevant_seeds, table, padded_seeds(mfd, count),
                             vocabulary)
                    == _outcome(reference.build_irrelevant_seeds, table, mfd, count,
                                vocabulary))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.sampled_from([1.0, 4.0, 4.5, 5.0, 5.5, 6.0, 7.25, 9.0])),
                    max_size=30), st.data())
    def test_ranking_ties_match_the_full_sort(self, pairs, data):
        # Few distinct distances, so the count-th place is nearly always a
        # tie; a word may repeat, as a NormTable built by hand allows.
        table = norm_table([f"w{i}" for i, _ in pairs], [valence for _, valence in pairs])
        words = sorted(set(table.words))
        mfd = data.draw(st.sets(st.sampled_from(words))) if words else set()
        vocabulary = data.draw(st.none() | st.sets(st.sampled_from(words + ["absent"])))
        for count in range(len(mfd), len(pairs) + 2):
            assert (_outcome(build_irrelevant_seeds, table, padded_seeds(mfd, count),
                             vocabulary)
                    == _outcome(reference.build_irrelevant_seeds, table, mfd, count,
                                vocabulary))


def _comparable(result):
    """A loader's result as plain values; a dict as its items in order, a
    DiachronicEmbeddings as its decades, words and matrix bytes."""
    if isinstance(result, dict):
        return list(result.items())
    if hasattr(result, "spaces"):
        return [(s.decade, s.words, s.matrix.tobytes()) for s in result.spaces]
    return result


class TestTablesAgainstReference:
    @pytest.mark.parametrize("table", ["mfd", "wordlist", "survey", "manifest"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_matches_row_by_row(self, table, data):
        load, load_rows, headers, columns = TABLES[table]
        text = data.draw(table_texts(headers, columns, max_rows=6 if table == "manifest" else 14))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{table}.csv"
            path.write_bytes(text.encode("utf-8"))
            for name in ("a.txt", "b.txt"):
                write_text(Path(tmp) / name, ["x", "y"], [[1.0, 0.0], [0.0, 1.0]])
            expected = _outcome(load_rows, path)
            got = _outcome(load, path)
        if expected[0] == "ok":
            expected, got = ("ok", _comparable(expected[1])), (got[0], _comparable(got[1]))
        assert got == expected
