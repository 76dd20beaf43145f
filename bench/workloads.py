"""The three workloads: input shapes, the timed operation sequences and
the one-word queries.

Each workload is a closed loop with one client: an operation starts only
after the previous one has returned. Library workloads call the package
through the ``moraldrift`` namespace at call time, so the tracer's
wrappers see every call. ``cli-pipeline`` runs the same analysis as
``python -m moraldrift.cli`` subprocesses (see ``cli_commands``).
"""
from __future__ import annotations

from gen import Shape

TIERS = ("relevance", "polarity", "category")

# Sizes keep a run under about 45 s on a 2-CPU machine. cli-pipeline
# needs at least 300 shared words per decade (``align`` refuses fewer
# than ``dim``), and re-parses text in every command. kde-fit's cost is
# the KDE bandwidth grid search, which grows with seeds x classes; 3
# seeds per category keep all three historical LOO tiers and the
# category refits of retrieval in budget.
SHAPES = {
    "cli-pipeline": Shape(seeds_per_category=6, n_background=134,
                          n_wordlist_background=134),
    "kde-fit": Shape(seeds_per_category=3, n_background=200,
                     n_wordlist_background=170, n_risers=3, n_changers=20),
    "matrix-scan": Shape(seeds_per_category=6, n_background=4000,
                         n_wordlist_background=4000, n_risers=5, n_fallers=5,
                         n_changers=200),
}
FORMAT = {"cli-pipeline": "text", "kde-fit": "binary", "matrix-scan": "binary"}

KDE_RETRIEVE_TOP = 1
# With 3 seeds per category a LOO fold leaves 2 seeds in the held-out
# seed's class. Naive Bayes variances from 2 points are degenerate in
# 300 d at the default floor 1e-8, so the floor is the squared per-word
# spread of the generated clusters. kNN uses k=3, so that the two
# remaining seeds can be a majority.
KDE_FIT_NB_FLOOR = 0.01
KDE_FIT_K = 3
MATRIX_SCAN_H = 0.5
MATRIX_SCAN_TOP = 10
SHUFFLES = 1000


def setup(inputs: dict):
    """Everything ``setup_s`` covers after the import: load the manifest,
    the seed and norms CSVs, and build the tiers."""
    import moraldrift as md

    dia = md.load_diachronic(inputs["manifest"])
    entries = md.load_mfd(inputs["mfd"])
    norms = md.load_norms(inputs["norms"])
    irrelevant = md.build_irrelevant_seeds(norms, md.relevant_words(entries))
    lexicon = md.build_tiers(entries, irrelevant)
    return {"dia": dia, "entries": entries, "norms": norms, "lexicon": lexicon}


def queries(inputs: dict) -> list[tuple[str, str, str]]:
    """(command, word, tier) for the one-word queries every workload runs."""
    riser, faller, changer = inputs["risers"][0], inputs["fallers"][0], inputs["changers"][0]
    # Three of five are time courses, so the median is a time course even
    # in-process, where a classify costs a twentieth of one.
    return [("classify", riser, "relevance"), ("classify", faller, "polarity"),
            ("timecourse", riser, "relevance"), ("timecourse", faller, "polarity"),
            ("timecourse", changer, "category")]


def run_query(ctx, command: str, word: str, tier: str):
    import moraldrift as md

    spec = md.ModelSpec("centroid")
    dia, lexicon = ctx["dia"], ctx["lexicon"]
    if command == "classify":
        space = dia.spaces[-1]
        return md.posterior(md.fit_tier(spec, lexicon, space, tier), md.lookup(space, word))
    return md.time_course(dia, lexicon, spec, word, tier)


def library_ops(workload: str, ctx, freqs: list, out: dict) -> list:
    """The timed sequence of one iteration: a list of (name, callable).

    ``freqs`` is the parsed word list. Each callable stores its result in
    ``out`` under its name; the checks read them after the timed region.
    """
    import moraldrift as md

    dia, lexicon, norms = ctx["dia"], ctx["lexicon"], ctx["norms"]
    words = [w for w, _ in freqs]
    latest = dia.spaces[-1]
    ops = []

    def op(name, fn):
        def call():
            out[name] = fn()
            return out[name]
        ops.append((name, call))

    if workload == "kde-fit":
        kde = md.ModelSpec("kde")
        for tier in TIERS:
            op(f"loo_historical.kde.{tier}",
               lambda t=tier: md.loo_accuracy_historical(kde, lexicon, dia, t))
        for tier in TIERS:
            for spec in (md.ModelSpec("centroid"),
                         md.ModelSpec("naive_bayes", variance_floor=KDE_FIT_NB_FLOOR),
                         md.ModelSpec("knn", k=KDE_FIT_K)):
                op(f"loo.{spec.kind}.{tier}",
                   lambda s=spec, t=tier: md.loo_accuracy(s, lexicon, latest, t))
        op("matrix.kde.relevance",
           lambda: md.prediction_matrix(dia, lexicon, kde, words, "relevance"))
        op("retrieve.kde.toward-relevance",
           lambda: md.retrieve_changing(out["matrix.kde.relevance"], lexicon, dia, kde,
                                        "toward-relevance", top_n=KDE_RETRIEVE_TOP))
    elif workload == "matrix-scan":
        specs = {"centroid": md.ModelSpec("centroid"),
                 "naive_bayes": md.ModelSpec("naive_bayes"),
                 "knn": md.ModelSpec("knn"),
                 "kde": md.ModelSpec("kde", h=MATRIX_SCAN_H)}
        for name, spec in specs.items():
            for kind in ("relevance", "polarity"):
                op(f"matrix.{name}.{kind}",
                   lambda s=spec, k=kind: md.prediction_matrix(dia, lexicon, s, words, k))
        centroid = specs["centroid"]
        op("retrieve.centroid.toward-relevance",
           lambda: md.retrieve_changing(out["matrix.centroid.relevance"], lexicon, dia,
                                        centroid, "toward-relevance", top_n=MATRIX_SCAN_TOP))
        for direction in ("toward-positive", "toward-negative"):
            op(f"retrieve.centroid.{direction}",
               lambda d=direction: md.retrieve_changing(
                   out["matrix.centroid.polarity"], lexicon, dia, centroid, d,
                   top_n=MATRIX_SCAN_TOP, relevance_matrix=out["matrix.centroid.relevance"]))
        op("regress",
           lambda: md.psycholinguistic_regression(out["matrix.centroid.relevance"], norms, freqs))
        op("permute",
           lambda: md.permutation_control(out["matrix.centroid.relevance"], norms, freqs,
                                          n_shuffles=SHUFFLES, seed=0))
    else:
        raise ValueError(f"{workload} is not a library workload")
    return ops


def cli_commands(inputs: dict, out_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv tail) for one cli-pipeline iteration, in order.

    After ``align`` every command reads the aligned manifest it wrote.
    Labels of the one-word queries start with ``query.``.
    """
    raw = inputs["manifest"]
    aligned = f"{out_dir}/aligned_manifest.csv"
    lex = ["--mfd", inputs["mfd"], "--norms", inputs["norms"], "--model", "centroid"]
    rel = f"{out_dir}/matrix_relevance.json"
    pol = f"{out_dir}/matrix_polarity.json"
    reg = ["--matrix", rel, "--norms", inputs["norms"], "--wordlist", inputs["wordlist"],
           "--out-dir", out_dir]
    cmds = [
        ("align", ["align", "--manifest", raw, "--out-dir", out_dir]),
        ("matrix.relevance", ["matrix", "--manifest", aligned, *lex, "--wordlist",
                              inputs["wordlist"], "--kind", "relevance", "--out-dir", out_dir]),
        ("matrix.polarity", ["matrix", "--manifest", aligned, *lex, "--wordlist",
                             inputs["wordlist"], "--kind", "polarity", "--out-dir", out_dir]),
        ("evaluate", ["evaluate", "--manifest", aligned, *lex, "--tier", "category",
                      "--historical", "--out-dir", out_dir]),
        ("retrieve.toward-relevance", ["retrieve", "--manifest", aligned, *lex,
                                       "--matrix", rel, "--direction", "toward-relevance",
                                       "--out-dir", out_dir]),
        ("retrieve.toward-negative", ["retrieve", "--manifest", aligned, *lex,
                                      "--matrix", pol, "--relevance-matrix", rel,
                                      "--direction", "toward-negative", "--out-dir", out_dir]),
        ("regress", ["regress", *reg]),
        ("permute", ["permute", *reg, "--shuffles", str(SHUFFLES), "--seed", "0"]),
    ]
    # Queries are spread through the iteration, after these pipeline
    # steps, so their median does not hang on one stretch of machine speed.
    after = ("align", "matrix.polarity", "evaluate", "retrieve.toward-negative", "permute")
    out = []
    pending = list(enumerate(queries(inputs)))
    for label, argv in cmds:
        out.append((label, argv))
        if label in after:
            i, (command, word, tier) = pending.pop(0)
            query = [command, "--manifest", aligned, *lex, "--word", word, "--tier", tier]
            if command == "timecourse":
                query += ["--out-dir", out_dir]
            out.append((f"query.{i}.{command}", query))
    return out
