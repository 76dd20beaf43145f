"""moraldrift: moral sentiment inference and change analysis over
diachronic word embeddings.

The library classifies words at three tiers (moral relevance, moral
polarity, fine-grained moral categories) using seed-word models over
per-decade embedding spaces, and analyzes how those classifications
move through historical time.
"""

__version__ = "0.1.0"

from .classifiers import (Classifier, ModelSpec, fit, fit_tier, posterior,
                          posterior_batch, select_bandwidth)
from .diachronic import (ChangeRecord, PredictionMatrix, load_wordlist,
                         matrix_from_json, matrix_to_json_dict,
                         prediction_matrix, retrieve_changing, time_course)
from .embeddings import (DiachronicEmbeddings, EmbeddingSpace, align_diachronic,
                         align_procrustes, average_vector, load_diachronic,
                         load_embedding_space, lookup, save_embedding_space)
from .errors import (AlignmentError, CoverageError, DataError,
                     MoraldriftError, ParseError)
from .evaluate import (AccuracyReport, HistoricalAccuracy, chance_level,
                       load_survey, loo_accuracy, loo_accuracy_historical,
                       survey_correlation, valence_correlation)
from .lexicon import (NormTable, SeedLexicon, build_irrelevant_seeds,
                      build_tiers, load_mfd, load_norms, relevant_words,
                      seed_vectors, tier_classes)
from .stats import (CorrelationReport, PermutationReport, RegressionFit,
                    fisher_projection, multiple_regression, pearson,
                    permutation_control, psycholinguistic_regression)

__all__ = [
    "__version__",
    # embeddings
    "EmbeddingSpace", "DiachronicEmbeddings", "load_embedding_space",
    "save_embedding_space", "lookup", "average_vector", "align_procrustes",
    "load_diachronic", "align_diachronic",
    # lexicon
    "NormTable", "SeedLexicon", "load_mfd", "load_norms",
    "build_irrelevant_seeds", "build_tiers", "seed_vectors", "relevant_words",
    "tier_classes",
    # classifiers
    "ModelSpec", "Classifier", "fit", "fit_tier", "posterior",
    "posterior_batch", "select_bandwidth",
    # evaluation
    "AccuracyReport", "HistoricalAccuracy", "loo_accuracy",
    "loo_accuracy_historical", "valence_correlation", "survey_correlation",
    "load_survey", "chance_level",
    # diachronic analysis
    "PredictionMatrix", "ChangeRecord", "time_course",
    "prediction_matrix", "retrieve_changing",
    "load_wordlist", "matrix_to_json_dict", "matrix_from_json",
    # stats
    "CorrelationReport", "RegressionFit", "PermutationReport",
    "pearson", "multiple_regression", "psycholinguistic_regression",
    "permutation_control", "fisher_projection",
    # errors
    "MoraldriftError", "ParseError", "DataError", "CoverageError",
    "AlignmentError",
]
