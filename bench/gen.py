"""Seeded synthetic inputs of the paper's shape: 20 decades (1800-1990)
of 300-d embeddings, an MFD-shaped seed CSV with 10 categories, a
Warriner-sized norms CSV, a word,frequency list and a survey CSV.

The geometry plants known answers that the benchmark checks:

* one cluster per moral category and one neutral cluster; axis 0
  separates moral from neutral, axis 1 virtue from vice, axes 2-6 the
  five foundations;
* relevance risers drift from the neutral cluster into a category;
* polarity fallers drift from a virtue category to its vice pole;
* relevance changers sit at the relevance midpoint with per-decade
  jitter, so their class flips between decades. Without the jitter a
  decade shuffle whose end columns fall on one side of the midpoint
  leaves no word for the change regression (see
  ``tests/conftest.py::changer_courses``).

The neutral seeds are the most valence-neutral norm words and every one
of them is embedded, so the irrelevant seed set is fully embedded.

The same seed gives byte-identical files. Run standalone with
``python3 bench/gen.py --out DIR --seed N [--shape WORKLOAD]`` to write
one workload's input set in both formats and print each file's sha256.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 300
DECADES = tuple(range(1800, 2000, 10))
CATEGORY_BASES = ("care", "harm", "fairness", "cheating", "loyalty",
                  "betrayal", "authority", "subversion", "sanctity",
                  "degradation")

# Cluster geometry: distance of the moral and neutral clusters from the
# origin on axis 0, polarity offset on axis 1, foundation offset on axes
# 2-6, per-word spread and per-decade jitter (per coordinate).
MORAL_OFFSET = 3.0
POLARITY_OFFSET = 3.0
FOUNDATION_OFFSET = 2.0
WORD_SPREAD = 0.1
DECADE_JITTER = 0.02
# Changers' position on the neutral -> category ramp varies by this much
# (standard deviation) from decade to decade around the midpoint 0.5.
CHANGER_JITTER = 0.04
RISER_START = 0.2


@dataclass(frozen=True)
class Shape:
    """Sizing knobs. Dimension and decade count stay at the paper's values."""

    seeds_per_category: int
    n_background: int
    n_wordlist_background: int
    n_risers: int = 4
    n_fallers: int = 4
    n_changers: int = 48
    n_norm_rows: int = 14000
    n_survey: int = 24


@dataclass(frozen=True)
class Corpus:
    """Paths of one generated input set plus its planted answers."""

    root: Path
    manifests: dict
    mfd: Path
    norms: Path
    wordlist: Path
    survey: Path
    risers: tuple
    fallers: tuple
    changers: tuple
    words: tuple          # the word list, in file order
    n_values: int         # embedding values per manifest

    def files(self) -> list[Path]:
        return sorted(p for p in self.root.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _category_center(c: int) -> np.ndarray:
    v = np.zeros(DIM)
    v[0] = MORAL_OFFSET
    v[1] = POLARITY_OFFSET if c % 2 == 1 else -POLARITY_OFFSET
    v[2 + (c - 1) // 2] = FOUNDATION_OFFSET
    return v


def _neutral_center() -> np.ndarray:
    v = np.zeros(DIM)
    v[0] = -MORAL_OFFSET
    return v


def _word(prefix: str, i: int) -> str:
    # Varying lengths keep word length from being collinear with the
    # other regression factors.
    return prefix + "x" * (i % 5) + str(i)


def _plan(shape: Shape, rng: np.random.Generator):
    """Word names with their per-decade ramp (start, end, alpha per decade)."""
    n_dec = len(DECADES)
    steps = np.arange(n_dec) / (n_dec - 1)
    neutral = _neutral_center()
    words, starts, ends, alphas = [], [], [], []

    def add(word, start, end, alpha):
        words.append(word)
        starts.append(start)
        ends.append(end)
        alphas.append(alpha)

    fixed = np.zeros(n_dec)
    for c in range(1, 11):
        for j in range(shape.seeds_per_category):
            add(f"{CATEGORY_BASES[c - 1]}{j}", _category_center(c), _category_center(c), fixed)
    n_seeds = 10 * shape.seeds_per_category
    for i in range(n_seeds):
        add(f"neutral{i:04d}", neutral, neutral, fixed)
    for i in range(shape.n_risers):
        c = 1 + (2 * i) % 10
        add(_word("riser", i), neutral, _category_center(c),
            RISER_START + (1.0 - RISER_START) * steps)
    for i in range(shape.n_fallers):
        c = 1 + (2 * i) % 10
        add(_word("faller", i), _category_center(c), _category_center(c + 1), steps)
    for i in range(shape.n_changers):
        c = 1 + i % 10
        add(_word("changer", i), neutral, _category_center(c),
            0.5 + CHANGER_JITTER * rng.standard_normal(n_dec))
    # Background words sit in one cluster for all decades.
    kinds = rng.integers(0, 11, size=shape.n_background)
    for i, k in enumerate(kinds):
        center = neutral if k == 0 else _category_center(int(k))
        add(_word("bg", i), center, center, fixed)
    return words, np.array(starts), np.array(ends), np.array(alphas), n_seeds


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_text(path: Path, words, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix.tolist()):
            fh.write(word + " " + " ".join(["%.6f" % x for x in row]) + "\n")


def _write_binary(path: Path, words, matrix: np.ndarray) -> None:
    rows = matrix.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n".encode())
        for word, row in zip(words, rows):
            fh.write(word.encode() + b" " + row.tobytes())


def generate(out: Path, seed: int, shape: Shape, formats=("text", "binary")) -> Corpus:
    """Write one input set under ``out``; the same seed gives the same bytes.

    ``text`` writes each decade in its own random orthogonal basis, so
    ``align`` has real work to do; ``binary`` writes the decades in the
    shared basis. Scores per decade are identical under either, since
    every classifier is rotation invariant.
    """
    out.mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence(seed)
    plan_ss, vec_ss, rot_ss, meta_ss = ss.spawn(4)
    words, starts, ends, alphas, n_seeds = _plan(shape, np.random.default_rng(plan_ss))
    n_words = len(words)
    base_noise = WORD_SPREAD * np.random.default_rng(vec_ss).standard_normal((n_words, DIM))
    jitter_rng = np.random.default_rng(vec_ss.spawn(1)[0])
    rot_rng = np.random.default_rng(rot_ss)

    manifests = {}
    for fmt in formats:
        manifests[fmt] = out / f"manifest_{fmt}.csv"
        (out / fmt).mkdir(exist_ok=True)
    rows = {fmt: [] for fmt in formats}
    for t, decade in enumerate(DECADES):
        a = alphas[:, t][:, None]
        matrix = ((1.0 - a) * starts + a * ends + base_noise
                  + DECADE_JITTER * jitter_rng.standard_normal((n_words, DIM)))
        if "binary" in formats:
            name = f"binary/{decade}.bin"
            _write_binary(out / name, words, matrix)
            rows["binary"].append((decade, name, "binary-word2vec"))
        if "text" in formats:
            q, r = np.linalg.qr(rot_rng.standard_normal((DIM, DIM)))
            rotation = q * np.sign(np.diag(r))
            name = f"text/{decade}.txt"
            _write_text(out / name, words, matrix @ rotation)
            rows["text"].append((decade, name, "text-word2vec"))
    for fmt in formats:
        _write_csv(manifests[fmt], ("decade", "path", "format"), rows[fmt])

    rng = np.random.default_rng(meta_ss)
    mfd = out / "mfd.csv"
    _write_csv(mfd, ("word", "category"),
               [(words[i], 1 + i // shape.seeds_per_category) for i in range(n_seeds)])

    # Neutral seeds are the most neutral norm words (|v - 5| <= 0.1);
    # every other rated word is at least 0.5 away from the midpoint.
    norm_rows = []
    for i in range(n_seeds):
        norm_rows.append((words[n_seeds + i], round(5.0 + (-1) ** i * 0.001 * i, 3),
                          round(float(rng.uniform(1.0, 5.0)), 2)))
    others = list(words[2 * n_seeds:])
    others += [f"rated{i:05d}" for i in range(shape.n_norm_rows - n_seeds - len(others))]
    for w in others:
        side = 1.0 if rng.random() < 0.5 else -1.0
        norm_rows.append((w, round(5.0 + side * float(rng.uniform(0.5, 4.0)), 2),
                          round(float(rng.uniform(1.0, 5.0)), 2)))
    norms = out / "norms.csv"
    _write_csv(norms, ("word", "valence", "concreteness"), norm_rows)

    risers = tuple(w for w in words if w.startswith("riser"))
    fallers = tuple(w for w in words if w.startswith("faller"))
    changers = tuple(w for w in words if w.startswith("changer"))
    background = [w for w in words if w.startswith("bg")][:shape.n_wordlist_background]
    listed = list(risers + fallers + changers) + background
    wordlist = out / "wordlist.csv"
    _write_csv(wordlist, ("word", "frequency"),
               [(w, int(rng.lognormal(7.0, 1.5)) + 1) for w in listed])

    survey = out / "survey.csv"
    topics = rng.choice(np.array(listed), size=(shape.n_survey, 2), replace=False)
    _write_csv(survey, ("topic", "frac_not_moral", "frac_acceptable"),
               [(" ".join(pair[: 1 + i % 2]), round(float(rng.random()), 3),
                 round(float(rng.random()), 3)) for i, pair in enumerate(topics)])

    return Corpus(root=out, manifests=manifests, mfd=mfd, norms=norms,
                  wordlist=wordlist, survey=survey, risers=risers,
                  fallers=fallers, changers=changers, words=tuple(listed),
                  n_values=n_words * DIM * len(DECADES))


def main() -> None:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--shape", choices=sorted(workloads.SHAPES), default="cli-pipeline")
    args = ap.parse_args()
    corpus = generate(args.out, args.seed, workloads.SHAPES[args.shape])
    for path in corpus.files():
        print(sha256(path), path.relative_to(corpus.root))


if __name__ == "__main__":
    main()
