"""Shared synthetic-world fixtures.

The "world" is a small diachronic corpus with planted geometry: moral
seed clusters per category, a neutral cluster, flat background words,
and a few query words with designed trajectories (a relevance riser, a
polarity riser/faller, a word with missing early decades).
"""
import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from moraldrift import (DiachronicEmbeddings, EmbeddingSpace, NormTable,
                        build_irrelevant_seeds, build_tiers, relevant_words)
from moraldrift.lexicon import CATEGORY_CLASSES

WORLD_DECADES = (1900, 1910, 1920, 1930, 1940, 1950)
DIM = 6
SEEDS_PER_CATEGORY = 3
N_FLAT = 99

FLAT_WORDS = tuple(f"flat{i:02d}" for i in range(N_FLAT))
QUERY_WORDS = ("riser", "posriser", "negfaller", "alwayspos", "posmean", "gapword")

NEUTRAL_CENTER = np.array([-3.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def category_center(c: int) -> np.ndarray:
    foundation = (c - 1) // 2
    sign = 1.0 if c % 2 == 1 else -1.0
    v = np.zeros(DIM)
    v[0] = 3.0
    v[1] = 3.0 * sign
    v[2] = 2.0 * np.cos(2.0 * np.pi * foundation / 5.0)
    v[3] = 2.0 * np.sin(2.0 * np.pi * foundation / 5.0)
    return v


def seed_base(c: int) -> str:
    return CATEGORY_CLASSES[c - 1].rstrip("+-")


def make_space(decade: int, positions: dict) -> EmbeddingSpace:
    words = list(positions)
    matrix = np.vstack([positions[w] for w in words])
    return EmbeddingSpace(decade, words, matrix)


def write_text(path: Path, words, rows) -> None:
    """Write ``words`` and their ``rows`` as a word2vec text file, floats
    with 17 significant digits (every float64 bit reads back). Nothing is
    checked, so a test can also write what the reader refuses: repeated
    words, whitespace, non-finite values."""
    rows = np.asarray(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(words)} {rows.shape[1]}\n")
        fh.writelines(f"{word} {' '.join('%.17g' % x for x in row)}\n"
                      for word, row in zip(words, rows))


def write_binary(path: Path, words, rows, newlines=None) -> None:
    """``write_text`` in word2vec binary: each row as little-endian float32,
    with ``newlines[i]`` newlines before entry i."""
    rows = np.asarray(rows)
    out = bytearray(f"{len(words)} {rows.shape[1]}\n".encode("utf-8"))
    for i, (word, row) in enumerate(zip(words, rows)):
        out += b"\n" * (newlines[i] if newlines else 0)
        out += word.encode("utf-8") + b" " + row.astype("<f4").tobytes()
    path.write_bytes(bytes(out))


def _ramp(start: np.ndarray, end: np.ndarray, step: int, n_steps: int) -> np.ndarray:
    alpha = step / (n_steps - 1)
    return (1.0 - alpha) * start + alpha * end


def _world_positions(decade_index: int) -> dict:
    decade = WORLD_DECADES[decade_index]
    rng = np.random.default_rng(7000 + decade)
    positions: dict[str, np.ndarray] = {}

    for c in range(1, 11):
        center = category_center(c)
        for j in range(SEEDS_PER_CATEGORY):
            positions[f"{seed_base(c)}{j}"] = center + 0.3 * rng.standard_normal(DIM)
    for i in range(10 * SEEDS_PER_CATEGORY):
        positions[f"neutral{i:02d}"] = NEUTRAL_CENTER + 0.3 * rng.standard_normal(DIM)

    # Flat background words: constant positions near cycling category centers.
    for i, word in enumerate(FLAT_WORDS):
        wrng = np.random.default_rng(9000 + i)
        positions[word] = category_center(1 + i % 10) + 0.2 * wrng.standard_normal(DIM)

    n = len(WORLD_DECADES)
    care = category_center(1)
    harm = category_center(2)
    # riser: drifts from the neutral side into the care+ region; its first
    # decade sits just below the relevance midpoint, later ones well above.
    x0 = -0.5 + 3.5 * decade_index / (n - 1)
    beta = (x0 + 3.0) / 6.0
    positions["riser"] = (1.0 - beta) * NEUTRAL_CENTER + beta * care
    positions["posriser"] = _ramp(harm, care, decade_index, n)
    positions["negfaller"] = _ramp(care, harm, decade_index, n)
    positions["alwayspos"] = care.copy()
    if decade_index >= 3:
        positions["gapword"] = category_center(3).copy()

    # posmean: exactly the mean of this decade's positive-pole seeds.
    pos_rows = [positions[f"{seed_base(c)}{j}"]
                for c in (1, 3, 5, 7, 9) for j in range(SEEDS_PER_CATEGORY)]
    positions["posmean"] = np.mean(pos_rows, axis=0)
    return positions


def world_mfd() -> dict[str, int]:
    return {f"{seed_base(c)}{j}": c
            for c in range(1, 11) for j in range(SEEDS_PER_CATEGORY)}


def norm_table(words, valence, concreteness=np.nan) -> NormTable:
    """A NormTable of the given columns; a single number is every word's
    value, and a NaN concreteness is no rating."""
    words = tuple(words)
    valence, concreteness = (
        np.broadcast_to(np.array(column, dtype=np.float64), (len(words),)).copy()
        for column in (valence, concreteness))
    return NormTable(words, valence, concreteness)


def padded_seeds(words, count: int) -> set[str]:
    """``words`` as a set of ``count`` seed words, padded with words that no
    norms table in the tests holds (``build_irrelevant_seeds`` draws one
    neutral word per seed word)."""
    seeds = set(words)
    return seeds | {f"unrated{i}" for i in range(count - len(seeds))}


def world_norm_rows() -> list[tuple[str, float, float]]:
    rows = []
    for i in range(10 * SEEDS_PER_CATEGORY):
        valence = 5.0 + (0.001 * i if i % 2 == 0 else -0.001 * i)
        rows.append((f"neutral{i:02d}", valence, 2.5))
    for i, word in enumerate(FLAT_WORDS):
        rows.append((word, 2.0 + (i % 5) * 1.2, 1.0 + (i % 9) * 0.5))
    for i, word in enumerate(QUERY_WORDS):
        rows.append((word, 7.5 - 0.3 * i, 2.0 + 0.4 * i))
    return rows


@pytest.fixture(scope="session")
def world():
    spaces = [make_space(decade, _world_positions(i))
              for i, decade in enumerate(WORLD_DECADES)]
    diachronic = DiachronicEmbeddings(spaces)
    mfd = world_mfd()
    norms = norm_table(*zip(*world_norm_rows()))
    irrelevant = build_irrelevant_seeds(norms, relevant_words(mfd))
    lexicon = build_tiers(mfd, irrelevant)
    assert lexicon.irrelevant == {f"neutral{i:02d}" for i in range(30)}
    return SimpleNamespace(
        decades=WORLD_DECADES,
        dim=DIM,
        spaces=spaces,
        diachronic=diachronic,
        mfd=mfd,
        lexicon=lexicon,
        norms=norms,
        flat_words=FLAT_WORDS,
    )


def write_world_files(root: Path) -> SimpleNamespace:
    """Write the world as CSV/embedding files for CLI-level tests."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decade", "path", "format"])
        for i, decade in enumerate(WORLD_DECADES):
            space = make_space(decade, _world_positions(i))
            name = f"embeddings_{decade}.txt"
            write_text(root / name, space.words, space.matrix)
            writer.writerow([decade, name, "text-word2vec"])

    mfd = root / "mfd.csv"
    with open(mfd, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "category"])
        writer.writerows(world_mfd().items())

    norms = root / "norms.csv"
    with open(norms, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "valence", "concreteness"])
        for word, valence, concreteness in world_norm_rows():
            writer.writerow([word, valence, concreteness])

    wordlist = root / "wordlist.csv"
    with open(wordlist, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "frequency"])
        writer.writerow(["riser", 5000])
        for i, word in enumerate(FLAT_WORDS):
            writer.writerow([word, 4000 - i])
        writer.writerow(["gapword", 100])

    survey = root / "survey.csv"
    with open(survey, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["topic", "frac_not_moral", "frac_acceptable"])
        topics = [("riser", 0.30, 0.55), ("alwayspos", 0.10, 0.80),
                  ("flat00", 0.20, 0.40), ("flat01", 0.25, 0.35),
                  ("neutral00", 0.90, 0.50), ("care0 harm0", 0.15, 0.45),
                  ("flat02", 0.22, 0.60), ("flat03", 0.05, 0.10)]
        for row in topics:
            writer.writerow(row)

    return SimpleNamespace(root=root, manifest=manifest, mfd=mfd, norms=norms,
                           wordlist=wordlist, survey=survey)


@pytest.fixture(scope="session")
def world_files(tmp_path_factory):
    return write_world_files(tmp_path_factory.mktemp("world"))


# ---------------------------------------------------------------------------
# Synthetic "changers" inputs for the broad-scale regression commands
# ---------------------------------------------------------------------------

CHANGER_DECADES = tuple(range(1800, 2000, 10))


def changer_courses(n_words=80, seed=42, beta_f=1e-4, beta_c=-2e-4,
                    beta_l=0.0, noise=1e-4, decade_noise=0.0):
    """Linear relevance courses through 0.5 whose slopes follow a known
    psycholinguistic model. Returns (words, freqs, concs, values).

    ``decade_noise`` adds per-decade observation jitter; without it the
    courses are exactly linear, which is degenerate under decade
    shuffling (a permutation whose endpoints fall on the same side of
    the midpoint leaves no word crossing 0.5).
    """
    rng = np.random.default_rng(seed)
    words = [f"{'x' * (1 + i % 7)}{i}" for i in range(n_words)]
    log_freq = rng.uniform(5.0, 10.0, size=n_words)
    freqs = np.exp(log_freq)
    concs = rng.uniform(1.0, 5.0, size=n_words)
    lengths = np.array([len(w) for w in words], dtype=float)
    slopes = (beta_f * log_freq + beta_c * concs + beta_l * lengths
              + noise * rng.standard_normal(n_words))
    n_dec = len(CHANGER_DECADES)
    t_idx = np.arange(1, n_dec + 1, dtype=float)
    values = 0.5 + slopes[:, None] * (t_idx - (n_dec + 1) / 2.0)[None, :]
    if decade_noise:
        values = values + decade_noise * rng.standard_normal(values.shape)
    return words, freqs, concs, values


def write_changer_files(root: Path, **kwargs) -> SimpleNamespace:
    import json

    root.mkdir(parents=True, exist_ok=True)
    words, freqs, concs, values = changer_courses(**kwargs)
    matrix = root / "relevance_matrix.json"
    with open(matrix, "w") as fh:
        json.dump({"kind": "relevance", "decades": list(CHANGER_DECADES),
                   "words": words,
                   "values": [[float(v) for v in row] for row in values]}, fh)
    norms = root / "norms.csv"
    with open(norms, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "valence", "concreteness"])
        for w, c in zip(words, concs):
            writer.writerow([w, 5.0, round(float(c), 6)])
    wordlist = root / "wordlist.csv"
    with open(wordlist, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "frequency"])
        for w, f in zip(words, freqs):
            writer.writerow([w, repr(float(f))])
    return SimpleNamespace(root=root, matrix=matrix, norms=norms,
                           wordlist=wordlist, words=words)


@pytest.fixture(scope="session")
def changer_files(tmp_path_factory):
    return write_changer_files(tmp_path_factory.mktemp("changers"),
                               decade_noise=0.02)
