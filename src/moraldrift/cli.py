"""Command-line interface.

One subcommand per analysis: align, classify, timecourse, matrix,
evaluate, valence-corr, survey-corr, retrieve, regress, permute,
project. Commands compose via files (e.g. `matrix` writes the
prediction matrix that `retrieve`, `regress`, and `permute` read).

Options may come from a flat key=value config file (--config) whose keys
name options of the subcommand. Each line becomes that option's flag,
checked by the subcommand's own parser, and the flags go before the
command line's, so explicit flags override the file. Outputs are
byte-reproducible: fixed seeds, fixed orderings, floats at 17
significant digits, and every output embeds the tool version and a hash
of the resolved configuration.

Exit codes: 0 success, 1 usage error, 2 data or validation error or out
of memory.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .classifiers import MODEL_KINDS, ModelSpec, _word_posteriors, fit_tier
from .diachronic import (DIRECTIONS, ChangeRecord, json_scores, load_wordlist,
                         matrix_from_json, matrix_to_json_dict,
                         prediction_matrix, retrieve_changing, time_course)
from .embeddings import (NPY_FORMAT, DiachronicEmbeddings, EmbeddingSpace,
                         _align_chain, _load_row, _manifest_rows, _not_utf8,
                         load_diachronic, save_embedding_space)
from .errors import CoverageError, DataError, MoraldriftError, ParseError
from .evaluate import (load_survey, loo_accuracy, loo_accuracy_historical,
                       survey_correlation, valence_correlation)
from .lexicon import (TIERS, NormTable, SeedLexicon, build_irrelevant_seeds,
                      build_tiers, load_mfd, load_norms, relevant_words, tier_classes)
from .stats import (CorrelationReport, FactorControl, fisher_projection,
                    permutation_control, psycholinguistic_regression)

logger = logging.getLogger(__name__)

TOOL_NAME = "moraldrift"
FLOAT_FMT = "%.17g"

_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "on": True,
                 "false": False, "0": False, "no": False, "off": False}
# Namespace entries that change no output, left out of the config hash.
_UNHASHED = ("config", "verbose")
# Percent-encoded in a word that names an output file, so the file stays in --out-dir.
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\0": "%00"})
_NAME_BYTES = 255  # the longest file name, in bytes, that common file systems take


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exception so the
    dispatcher can exit with code 1 (argparse's default is 2).
    ``build_parser`` sets ``commands``: subcommand name -> its parser."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Config files: each line becomes a flag of the subcommand
# ---------------------------------------------------------------------------

def _config_argv(path: Path, parser: argparse.ArgumentParser) -> list[str]:
    """The flags that a flat key=value file stands for: ``--flag=value``,
    the bare flag for a true boolean, nothing for a false one.

    Keys name the subcommand's options (dashes or underscores); an
    unknown key is an error. Each line's flag is parsed alone by
    ``parser``, so a value it refuses names ``path:line``.
    """
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    try:
        lines = path.read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    argv = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        action = actions.get(key.strip().lower().replace("-", "_"))
        if action is None:
            raise DataError(f"{path}:{lineno}: unknown option {key.strip()!r} "
                            f"for {parser.prog}")
        flag, value = action.option_strings[0], value.strip()
        if action.nargs == 0:
            on = _BOOL_STRINGS.get(value.lower())
            if on is None:
                raise DataError(f"{path}:{lineno}: {flag}: expected a boolean, "
                                f"got {value!r}")
            tokens = [flag] if on else []
        else:
            tokens = [f"{flag}={value}"]
        try:
            parser.parse_args(tokens)
        except _UsageError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        argv += tokens
    return argv


def _meta(args: argparse.Namespace) -> dict:
    settings = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    text = json.dumps(settings, sort_keys=True)
    return {"tool": TOOL_NAME, "version": __version__, "command": args.command,
            "config_hash": hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]}


def _required(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise DataError(f"missing required option --{name.replace('_', '-')}")
    return value


def _path(args: argparse.Namespace, name: str) -> Path:
    path = Path(_required(args, name))
    if not path.exists():
        raise DataError(f"--{name.replace('_', '-')}: path does not exist: {path}")
    return path


# ---------------------------------------------------------------------------
# Shared loading and output helpers
# ---------------------------------------------------------------------------

def _seed_inputs(args: argparse.Namespace, norms: NormTable | None = None
                 ) -> tuple[DiachronicEmbeddings, SeedLexicon]:
    """The decades of --manifest and the seed lexicon of --mfd and ``norms``."""
    diachronic = load_diachronic(_path(args, "manifest"),
                                 normalize=args.normalize_embeddings)
    entries = load_mfd(_path(args, "mfd"))
    if norms is None:
        norms = load_norms(_path(args, "norms"))
    words = relevant_words(entries)
    vocabulary = None
    if args.neutral_in_vocab:  # once per distinct vocabulary object
        first, *others = {id(space.words): space.words for space in diachronic}.values()
        vocabulary = set(first).intersection(*others)
    irrelevant = build_irrelevant_seeds(norms, words, vocabulary=vocabulary)
    return diachronic, build_tiers(entries, irrelevant)


def _model_inputs(args: argparse.Namespace, norms: NormTable | None = None
                  ) -> tuple[ModelSpec, DiachronicEmbeddings, SeedLexicon]:
    """The model spec and the ``_seed_inputs`` that classifying commands read."""
    spec = ModelSpec(kind=args.model, k=args.k, h=args.bandwidth,
                     variance_floor=args.variance_floor)
    return (spec, *_seed_inputs(args, norms))


def _pick_space(args: argparse.Namespace, diachronic: DiachronicEmbeddings) -> EmbeddingSpace:
    """The space of --decade, by default the latest one."""
    return diachronic.space(diachronic.decades[-1] if args.decade is None else args.decade)


def _fmt(value) -> str:
    """A CSV cell: empty for None and for a NaN (missing) score."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else FLOAT_FMT % value
    return str(value)


def _table(kind: type, records, key: str | None = None) -> tuple[list[str], list[tuple]]:
    """A CSV table of ``kind`` records: a column per field, in order, and a
    row per record. With ``key``, ``records`` maps a key to each record and
    the ``key`` column comes first."""
    header = [field.name for field in dataclasses.fields(kind)]
    if key is None:
        return header, [dataclasses.astuple(r) for r in records]
    return [key, *header], [(k, *dataclasses.astuple(r)) for k, r in records.items()]


def _write_json(fh, meta: dict, body: dict) -> None:
    json.dump({"_meta": meta, **body}, fh, indent=2)
    fh.write("\n")


def _write_csv(fh, meta: dict, table: tuple[Sequence[str], Sequence[Sequence]]) -> None:
    """The meta line, then the header and rows quoted as the csv module
    quotes them (a cell holding a comma, a quote or a line break)."""
    header, rows = table
    fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_outputs(args: argparse.Namespace, outputs: dict) -> None:
    """Write a handler's ``name -> body`` outputs in order, each with the
    command's ``_meta``: a dict for ``.json``, a ``(header, rows)`` pair for
    ``.csv``, a dict for ``-`` (JSON on stdout). --out-dir is made on demand."""
    meta, out = _meta(args), Path(args.out_dir)
    for name, body in outputs.items():
        if name == "-":
            _write_json(sys.stdout, meta, body)
            continue
        out.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            (_write_json if name.endswith(".json") else _write_csv)(fh, meta, body)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its outputs for _write_outputs
# ---------------------------------------------------------------------------

def _cmd_align(args) -> dict:
    # One pair of decades at a time, in anchor order, each saved into a scratch
    # directory in --out-dir. The stores move out of it once all have aligned;
    # it goes either way, and on a failure so does any directory made here.
    manifest = _path(args, "manifest")
    rows = sorted(_manifest_rows(manifest), reverse=args.alignment_direction == "backward")
    out = Path(args.out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    vocabularies = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=out))
        try:
            for space in _align_chain(_load_row(manifest, row, args.normalize_embeddings,
                                                vocabularies) for row in rows):
                save_embedding_space(space, scratch / f"aligned_{space.decade}.npy")
                for key in [k for k, v in vocabularies.items() if v is not space.words]:
                    del vocabularies[key]  # only the next source may share a vocabulary
            for store in sorted(scratch.iterdir()):
                store.replace(out / store.name)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
    decades = sorted(decade for decade, _, _ in rows)
    manifest_rows = [(d, f"aligned_{d}.npy", NPY_FORMAT) for d in decades]
    return {"aligned_manifest.csv": (["decade", "path", "format"], manifest_rows),
            "align.json": {"direction": args.alignment_direction, "decades": decades,
                           "dim": space.dim}}


def _cmd_classify(args) -> dict:
    word = _required(args, "word").lower()
    tier = _required(args, "tier")
    spec, diachronic, lexicon = _model_inputs(args)
    space = _pick_space(args, diachronic)
    model = fit_tier(spec, lexicon, space, tier)
    [[row]] = _word_posteriors([(model, space)], [word])
    if np.isnan(row).any():
        raise CoverageError(f"word {word!r} has no embedding in decade {space.decade}")
    return {"-": {"word": word, "tier": tier, "decade": space.decade,
                  "posterior": dict(zip(model.classes, row.tolist()))}}


def _cmd_timecourse(args) -> dict:
    word = _required(args, "word").lower()
    tier = _required(args, "tier")
    spec, diachronic, lexicon = _model_inputs(args)
    scores = time_course(diachronic, lexicon, spec, word, tier)
    decades = diachronic.decades
    missing = np.isnan(scores) if tier != "category" else np.isnan(scores).all(axis=1)
    body: dict = {"word": word, "tier": tier, "decades": list(decades),
                  "missing": [bool(b) for b in missing]}
    if tier == "category":
        labels = tier_classes(tier)
        body["class_labels"] = list(labels)
        body["scores"] = [(json_scores(row) if not m else None)
                          for row, m in zip(scores, missing)]
        rows = [(d, label, score) for d, row in zip(decades, scores.tolist())
                for label, score in zip(labels, row)]
        table = (["decade", "label", "probability"], rows)
    else:
        body["scores"] = json_scores(scores)
        clamped = np.clip(scores, 1e-6, 1.0 - 1e-6)
        odds = np.log(clamped / (1.0 - clamped))
        body["log_odds"] = json_scores(odds)
        table = (["decade", "score", "log_odds"],
                 list(zip(decades, scores.tolist(), odds.tolist())))
    name = word.translate(_FILE_NAME_ESCAPES)
    room = _NAME_BYTES - len(f"timecourse__{tier}.json")
    if len(name.encode()) > room:  # cut on a character and outside any %XX escape
        tag = "-" + hashlib.sha256(word.encode()).hexdigest()[:16]
        name = name.encode()[:room - len(tag)].decode(errors="ignore")
        name = name[:-2] + name[-2:].split("%")[0] + tag
    stem = f"timecourse_{name}_{tier}"
    return {f"{stem}.csv": table, f"{stem}.json": body}


def _cmd_matrix(args) -> dict:
    kind = _required(args, "kind")
    wordlist_path = _path(args, "wordlist")
    spec, diachronic, lexicon = _model_inputs(args)
    words = [w for w, _ in load_wordlist(wordlist_path)]
    matrix = prediction_matrix(diachronic, lexicon, spec, words, kind)
    rows = [(w, d, score) for w, scores in zip(matrix.words, matrix.values.tolist())
            for d, score in zip(matrix.decades, scores)]
    return {f"matrix_{kind}.json": matrix_to_json_dict(matrix),
            f"matrix_{kind}.csv": (["word", "decade", "score"], rows)}


def _cmd_evaluate(args) -> dict:
    tier = _required(args, "tier")
    if args.historical and args.decade is not None:
        raise DataError("--historical evaluates every decade and takes no --decade")
    spec, diachronic, lexicon = _model_inputs(args)
    stem = f"evaluate_{tier}_{spec.kind}"
    if args.historical:
        summary = loo_accuracy_historical(spec, lexicon, diachronic, tier)
        reports, stem = summary.reports, f"{stem}_historical"
    else:
        reports = [loo_accuracy(spec, lexicon, _pick_space(args, diachronic), tier)]
    records = []
    for report in reports:  # its fields, the model as its kind and the confusion last
        record = dataclasses.asdict(report)
        record.update(model=spec.kind, confusion=record.pop("confusion"))
        records.append(record)
    body = records[0]
    if args.historical:
        body = {"tier": tier, "model": spec.kind, "mean_accuracy": summary.mean_accuracy,
                "stdev_accuracy": summary.stdev_accuracy, "per_decade": records}
    columns = ["tier", "model", "decade", "accuracy", "n"]
    return {f"{stem}.json": body,
            f"{stem}.csv": (columns, [[r[c] for c in columns] for r in records])}


def _cmd_valence_corr(args) -> dict:
    norms = load_norms(_path(args, "norms"))
    spec, diachronic, lexicon = _model_inputs(args, norms)
    space = _pick_space(args, diachronic)
    model = fit_tier(spec, lexicon, space, "polarity")
    report = valence_correlation(model, space, norms)
    return {"valence_corr.json": {"decade": space.decade, **dataclasses.asdict(report)},
            "valence_corr.csv": _table(CorrelationReport, {space.decade: report}, "decade")}


def _cmd_survey_corr(args) -> dict:
    survey_path = _path(args, "survey")
    spec, diachronic, lexicon = _model_inputs(args)
    space = _pick_space(args, diachronic)
    survey = load_survey(survey_path)
    relevance_model = fit_tier(spec, lexicon, space, "relevance")
    polarity_model = fit_tier(spec, lexicon, space, "polarity")
    reports = dict(zip(("irrelevance", "acceptability"),
                       survey_correlation(relevance_model, polarity_model, space, survey)))
    body = {measure: dataclasses.asdict(r) for measure, r in reports.items()}
    return {"survey_corr.json": {"decade": space.decade, **body},
            "survey_corr.csv": _table(CorrelationReport, reports, "measure")}


def _cmd_retrieve(args) -> dict:
    direction = _required(args, "direction")
    matrix = matrix_from_json(_path(args, "matrix"))
    relevance_matrix = None
    if args.relevance_matrix is not None:
        relevance_matrix = matrix_from_json(_path(args, "relevance_matrix"))
    spec, diachronic, lexicon = _model_inputs(args)
    records = retrieve_changing(matrix, lexicon, diachronic, spec, direction,
                                top_n=args.top, relevance_matrix=relevance_matrix,
                                bonferroni_family=args.bonferroni_family)
    return {f"retrieve_{direction}.csv": _table(ChangeRecord, records)}


def _regression_inputs(args):
    """The matrix, norms and word list that ``regress`` and ``permute`` read."""
    return (matrix_from_json(_path(args, "matrix")), load_norms(_path(args, "norms")),
            load_wordlist(_path(args, "wordlist")))


def _cmd_regress(args) -> dict:
    fit, words = psycholinguistic_regression(*_regression_inputs(args))
    return {
        "regress.json": {"fit": dataclasses.asdict(fit),
                         "partial_concreteness": dataclasses.asdict(fit.partial("concreteness")),
                         "words": words},
        "regress.csv": (["factor", "coefficient", "std_error", "t_stat", "p_value"],
                        [(name, fit.coefficients[name], fit.std_errors[name],
                          fit.t_stats[name], fit.p_values[name])
                         for name in fit.coefficients]),
    }


def _cmd_permute(args) -> dict:
    report = permutation_control(*_regression_inputs(args),
                                 n_shuffles=args.shuffles, seed=args.seed)
    return {"permute.json": dataclasses.asdict(report),
            "permute.csv": _table(FactorControl, report.factors, "factor")}


def _cmd_project(args) -> dict:
    words = [w.strip().lower() for w in _required(args, "words").split(",")
             if w.strip()]
    if not words:
        raise DataError("--words must name at least one query word")
    diachronic, lexicon = _seed_inputs(args)
    space = _pick_space(args, diachronic)
    classes = {}
    for label in ("positive", "negative", "irrelevant"):
        classes[label], _ = space.rows(sorted(getattr(lexicon, label)))
        if len(classes[label]) < 2:
            raise CoverageError(f"class {label!r} has {len(classes[label])} seed embeddings "
                                f"in decade {space.decade}; need >= 2")
    anchors = {label: space.rows(sorted(seeds))[0]
               for label, seeds in lexicon.classes_for("category").items()}

    query_rows = []
    query_keys = []
    decades = diachronic.decades if args.all_decades else (space.decade,)
    for word in words:
        for decade in decades:
            vec = diachronic.space(decade).vector(word)
            if vec is None:
                logger.warning("word %r missing from decade %d; skipped", word, decade)
                continue
            query_rows.append(vec)
            query_keys.append((word, decade))
    if not query_rows:
        raise CoverageError("none of the query words have embeddings in the "
                            "requested decades")
    axes = fisher_projection(classes)

    rows = [("class", label, None, *(m.mean(axis=0) @ axes).tolist())
            for label, m in classes.items()]
    rows += [("anchor", label, None, *(m.mean(axis=0) @ axes).tolist())
             for label, m in anchors.items() if len(m)]
    rows += [("query", word, decade, *xy)
             for (word, decade), xy in zip(query_keys, (np.asarray(query_rows) @ axes).tolist())]
    return {"project.csv": (["kind", "label", "decade", "x", "y"], rows)}


_HANDLERS = {
    "align": _cmd_align,
    "classify": _cmd_classify,
    "timecourse": _cmd_timecourse,
    "matrix": _cmd_matrix,
    "evaluate": _cmd_evaluate,
    "valence-corr": _cmd_valence_corr,
    "survey-corr": _cmd_survey_corr,
    "retrieve": _cmd_retrieve,
    "regress": _cmd_regress,
    "permute": _cmd_permute,
    "project": _cmd_project,
}


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _model_kind(value: str) -> str:
    return value.replace("-", "_")


def _add_common(p: _Parser, *, manifest: bool = True, mfd: bool = False,
                model: bool = False, decade: bool = False) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--out-dir", dest="out_dir", default=".",
                   help="output directory (default: .)")
    if manifest:
        p.add_argument("--manifest", help="CSV manifest of decade embedding files")
        p.add_argument("--normalize-embeddings", dest="normalize_embeddings",
                       action="store_true", help="L2-normalize every vector at load")
    if mfd:
        p.add_argument("--mfd", help="seed word CSV (word,category)")
        p.add_argument("--neutral-in-vocab", dest="neutral_in_vocab",
                       action="store_true",
                       help="restrict neutral-seed candidates to words present "
                            "in every decade's vocabulary")
        p.add_argument("--norms", help="ratings CSV (word,valence[,concreteness])")
    if model:
        p.add_argument("--model", type=_model_kind, choices=MODEL_KINDS,
                       default="centroid", metavar="{centroid,naive-bayes,knn,kde}",
                       help="classifier kind (default: centroid)")
        p.add_argument("--k", type=int, default=5,
                       help="neighbor count for knn (default: 5)")
        p.add_argument("--bandwidth", type=float,
                       help="kde bandwidth h, the kernel variance: kernel "
                            "exp(-d^2/2h) (default: tuned by leave-one-out)")
        p.add_argument("--variance-floor", dest="variance_floor", type=float,
                       default=1e-8,
                       help="minimum per-dimension variance for naive-bayes")
    if decade:
        p.add_argument("--decade", type=int,
                       help="decade to query (default: latest in manifest)")


def build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME,
                     description="Moral sentiment inference and change analysis "
                                 "over diachronic word embeddings.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.commands = sub.choices

    p = sub.add_parser("align", help="rotationally align all decades into a common space")
    _add_common(p)
    p.add_argument("--alignment-direction", dest="alignment_direction",
                   choices=["forward", "backward"], default="backward",
                   help="chaining anchor: forward=earliest decade, "
                        "backward=latest (default)")

    p = sub.add_parser("classify", help="posterior for one word (JSON on stdout)")
    _add_common(p, mfd=True, model=True, decade=True)
    p.add_argument("--word", help="query word")
    p.add_argument("--tier", choices=list(TIERS), help="classification tier")

    p = sub.add_parser("timecourse", help="per-decade scores for one word")
    _add_common(p, mfd=True, model=True)
    p.add_argument("--word", help="query word")
    p.add_argument("--tier", choices=list(TIERS), help="classification tier")

    p = sub.add_parser("matrix", help="word-by-decade prediction matrix for a word list")
    _add_common(p, mfd=True, model=True)
    p.add_argument("--wordlist", help="word,frequency CSV")
    p.add_argument("--kind", choices=["relevance", "polarity"],
                   help="which binary score to compute")

    p = sub.add_parser("evaluate", help="leave-one-out seed classification accuracy")
    _add_common(p, mfd=True, model=True, decade=True)
    p.add_argument("--tier", choices=list(TIERS), help="classification tier")
    p.add_argument("--historical", action="store_true",
                   help="evaluate every decade and summarize mean/stdev")

    p = sub.add_parser("valence-corr",
                       help="correlate positive-polarity predictions with valence ratings")
    _add_common(p, mfd=True, model=True, decade=True)

    p = sub.add_parser("survey-corr",
                       help="correlate predictions with survey moral judgments")
    _add_common(p, mfd=True, model=True, decade=True)
    p.add_argument("--survey", help="topic,frac_not_moral,frac_acceptable CSV")

    p = sub.add_parser("retrieve", help="top words by moral sentiment change")
    _add_common(p, mfd=True, model=True)
    p.add_argument("--matrix", help="prediction-matrix JSON from the matrix command")
    p.add_argument("--relevance-matrix", dest="relevance_matrix",
                   help="companion relevance matrix JSON (polarity directions)")
    p.add_argument("--direction", choices=list(DIRECTIONS), help="change direction")
    p.add_argument("--top", type=int, default=10, help="number of records (default: 10)")
    p.add_argument("--bonferroni-family", dest="bonferroni_family",
                   choices=["filtered", "all-words"], default="filtered",
                   help="correction multiplier family (default: filtered)")

    for name, help_text in (
            ("regress", "regress relevance-change slopes on psycholinguistic factors"),
            ("permute", "decade-shuffled control for the change regression")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, manifest=False)
        p.add_argument("--matrix", help="relevance prediction-matrix JSON")
        p.add_argument("--norms", help="ratings CSV with concreteness column")
        p.add_argument("--wordlist", help="word,frequency CSV")
    # The loop ends on permute's parser, which alone takes these two.
    p.add_argument("--shuffles", type=int, default=1000,
                   help="number of shuffles (default: 1000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    p = sub.add_parser("project", help="2D discriminant map of query words")
    _add_common(p, mfd=True, decade=True)
    p.add_argument("--words", help="comma-separated query words")
    p.add_argument("--all-decades", dest="all_decades", action="store_true",
                   help="project each word's vector from every decade")

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help/--version print and exit 0
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            # The file's flags go right after the subcommand, so explicit
            # flags, parsed after them, still win.
            at = argv.index(args.command) + 1
            argv = [*argv[:at], *_config_argv(Path(args.config),
                                              parser.commands[args.command]), *argv[at:]]
            args = parser.parse_args(argv)
        _write_outputs(args, _HANDLERS[args.command](args))
        return 0
    except (MoraldriftError, OSError, ValueError, KeyError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"{TOOL_NAME}: error: out of memory in {args.command}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
