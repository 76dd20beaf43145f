"""Refusals of the library's constructors and statistics, each with its
exact message: bad input is refused, never read as something else."""
import numpy as np
import pytest

from moraldrift import (DataError, DiachronicEmbeddings, EmbeddingSpace, ModelSpec,
                        fisher_projection, fit, multiple_regression, pearson)
from moraldrift.stats import slope_rows

CASES = {
    "space-1d-matrix": (lambda: EmbeddingSpace(1900, ["a", "b"], np.zeros(2)),
                        "embedding matrix must be 2-dimensional"),
    "space-empty-vocabulary": (lambda: EmbeddingSpace(1900, [], np.zeros((0, 3))),
                               "embedding space has empty vocabulary"),
    "space-no-columns": (lambda: EmbeddingSpace(1900, ["a", "b", "c"], np.zeros((3, 0))),
                         "embedding matrix has no columns"),
    "diachronic-empty": (lambda: DiachronicEmbeddings([]), "diachronic sequence is empty"),
    "fit-non-finite-seed": (
        lambda: fit(ModelSpec("centroid"), {"a": [[0.0, 1.0]], "b": [[1.0, 0.0], [np.nan, 1.0]]}),
        "class 'b' contains non-finite seed vectors"),
    "fit-empty-seed-vector": (lambda: fit(ModelSpec("centroid"), {"a": [], "b": []}),
                              "class 'a' has no seed vectors"),
    "fit-zero-width-seeds": (
        lambda: fit(ModelSpec("centroid"), {"a": np.zeros((2, 0)), "b": np.zeros((1, 0))}),
        "class 'a' has no seed vectors"),
    "pearson-2d": (lambda: pearson([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
                   "x must be one-dimensional"),
    "regression-factor-length": (
        lambda: multiple_regression([1.0, 2.0, 4.0, 3.0], {"x": [1.0, 2.0, 3.0]}),
        "x has length 3, expected 4"),
    "slopes-constant-abscissa": (
        lambda: slope_rows(np.arange(15.0).reshape(3, 5), np.full(5, 1930.0)),
        "abscissa has zero variance"),
    "slopes-1d-values": (lambda: slope_rows(np.arange(5.0)),
                         "slope rows must be 2-D, got 1-D"),
    "slopes-3d-values": (lambda: slope_rows(np.zeros((2, 3, 5))),
                         "slope rows must be 2-D, got 3-D"),
    "fisher-mixed-dimensions": (
        lambda: fisher_projection({"a": np.eye(2), "b": 2 * np.eye(2), "c": np.eye(2, 3)}),
        "classes disagree on dimensionality: [2, 3]"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_refused_with_message(case):
    call, message = CASES[case]
    with pytest.raises(DataError) as info:
        call()
    assert str(info.value) == message
