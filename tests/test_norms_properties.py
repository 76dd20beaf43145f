"""Property tests for the columnar norms table.

``load_norms`` parses whole columns at once and ``build_irrelevant_seeds``
ranks with one array partition. Both are checked against the row-by-row
loader and the full sort in ``reference.py`` on generated norms files:
the same rows, or the same exception with the same text.
"""
import csv
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from moraldrift import NormEntry, build_irrelevant_seeds, load_norms
from moraldrift.stats import factor_tables

import reference

HEADERS = {2: [["word", "valence"], ["Word", " VALENCE "]],
           3: [["word", "valence", "concreteness"], [" word", "Valence", "Concreteness "]]}
# Cells a row draws from, valid ones more often. Valences 4.0/6.0 and
# 4.5/5.5 tie in distance from 5.
VALENCES = ["5", "5.0", " 4.5 ", "5.5", "4.0", "6.0", "1", "9", "1e0", "7.25"] * 6 + [
    "", " ", "nan", "NaN", "inf", "-inf", "9.5", "0.5", "abc", "1_0"]
CONCRETENESS = ["", " ", "1", "5", "3.1", "2.5", "4"] * 6 + [
    "nan", "inf", "-inf", "6", "0", "x"]
# A word differs from another only in case or surrounding whitespace, is
# blank, or holds a comma or a line break (quoted by the writer).
WORD_FORMS = [str] * 12 + [str.upper, lambda w: f" {w} ", lambda w: f"{w}\t",
              lambda w: f"{w},x", lambda w: f"{w}\nx", lambda w: "", lambda w: " "]


@st.composite
def norms_texts(draw):
    """The text of a norms file: a 2- or 3-column header, then data rows,
    comments, blank and whitespace-only rows and rows one cell too wide,
    with LF, CRLF or CR line ends."""
    width = draw(st.sampled_from([2, 3]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    if draw(st.booleans()):
        out.write("# ratings" + eol)
    writer.writerow(draw(st.sampled_from(HEADERS[width])))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 16 + ["comment", "blank", "spaces", "wide"]))
        if kind == "comment":
            out.write("#,a comment" + eol)
        elif kind == "blank":
            out.write(eol)
        elif kind == "spaces":
            writer.writerow([" "] * draw(st.integers(1, 4)))
        else:
            cells = [draw(st.sampled_from(WORD_FORMS))(f"w{draw(st.integers(0, 40))}"),
                     draw(st.sampled_from(VALENCES))]
            if width == 3:
                cells.append(draw(st.sampled_from(CONCRETENESS)))
            if kind == "wide":
                cells.append("1")
            writer.writerow(cells)
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
    @given(norms_texts(), st.data())
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
        assert list(table) == rows
        assert len(table) == len(rows)
        assert [table[i] for i in range(len(rows))] == rows
        assert factor_tables(table, [])[0] == {
            e.word: e.concreteness for e in rows if e.concreteness is not None}

        words = [e.word for e in rows]
        mfd = data.draw(st.sets(st.sampled_from(words))) if words else set()
        vocabulary = data.draw(st.none() | st.sets(st.sampled_from(words + ["absent"])))
        for count in [None, *range(len(rows) + 2)]:
            expected = _outcome(reference.build_irrelevant_seeds, rows, mfd, count, vocabulary)
            assert _outcome(build_irrelevant_seeds, table, mfd, count, vocabulary) == expected
            assert _outcome(build_irrelevant_seeds, rows, mfd, count, vocabulary) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.sampled_from([1.0, 4.0, 4.5, 5.0, 5.5, 6.0, 7.25, 9.0])),
                    max_size=30), st.data())
    def test_ranking_ties_match_the_full_sort(self, pairs, data):
        # Few distinct distances, so the count-th place is nearly always a
        # tie; a word may repeat, as a list of NormEntry allows.
        rows = [NormEntry(f"w{i}", valence) for i, valence in pairs]
        words = sorted({e.word for e in rows})
        mfd = data.draw(st.sets(st.sampled_from(words))) if words else set()
        vocabulary = data.draw(st.none() | st.sets(st.sampled_from(words + ["absent"])))
        for count in range(len(rows) + 2):
            assert (_outcome(build_irrelevant_seeds, rows, mfd, count, vocabulary)
                    == _outcome(reference.build_irrelevant_seeds, rows, mfd, count,
                                vocabulary))
