"""Closed-form ridge-regression readout and figure-of-merit accounting.

The readout is the only trained component of the whole pipeline.  Training
solves the regularized normal equations

    (X^T X + lambda I) W = X^T Y

for one-hot targets Y through a symmetric positive-definite (Cholesky)
factorization: deterministic, and bit-identical across runs for identical
inputs.  The normal equations X^T X and X^T Y are built once per training
set (:attr:`DesignMatrix.normal_equations`) and shared by every lambda.
The Gram matrix is the one N x N buffer a training set holds (8 N^2 bytes,
32 MiB at N = 2048): its strict lower triangle and a copy of its diagonal
keep X^T X, and each solve writes X^T X + lambda I from them into the
other half and factors it there in place.  A lambda sweep thus pays for
one Gram build and then, per lambda, a triangle copy and a factorization,
with no N x N allocation.  Prediction is a single matrix product plus a
row-wise argmax.

MAC and parameter counts quantify the training cost that the split-loop
architecture is designed to shrink: halving the state size quarters the
Gram-matrix build, the dominant term for realistic B.
"""

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NUMBER, SingularMatrixError, at_least, check_fields, frozen_array

#: The range of :func:`train_ridge`'s ``lam``; configs and model headers share it.
RIDGE_FIELDS = {"lam": at_least(0, NUMBER)}

# :meth:`NormalEquations.restore` copies the Gram matrix in strips this wide.
_TILE = 64
_STRICT_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


@dataclass(frozen=True)
class DesignMatrix:
    """B state vectors with integer class labels.

    Requires C >= 2, B >= 1, consistent row lengths, and finite entries;
    only :func:`train_ridge` needs B >= C, so a test set may be smaller.
    ``rows`` is a read-only float64 view of the given matrix, not a copy
    (see :func:`~looprc.errors.frozen_array`).
    """

    rows: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        rows = frozen_array(self.rows, "row", "entries", "BN")
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size != rows.shape[0] or labels.size == 0:
            raise ValueError("need one label per row, and at least one row")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")
        labels.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def one_hot(self) -> np.ndarray:
        y = np.zeros((self.n_rows, self.class_count))
        y[np.arange(self.n_rows), self.labels] = 1.0
        return y

    @cached_property
    def normal_equations(self) -> "NormalEquations":
        """``X^T X`` and ``X^T Y``, built on first use and shared by every solve.

        Finite rows whose products overflow raise :class:`SingularMatrixError`.
        """
        try:
            with np.errstate(over="raise", invalid="raise"):
                gram = self.rows.T @ self.rows
                rhs = self.rows.T @ self.one_hot()
        except FloatingPointError as exc:
            raise SingularMatrixError("normal equations overflow: the states are too large") from exc
        diag = gram.diagonal().copy()
        diag.setflags(write=False)
        rhs.setflags(write=False)
        return NormalEquations(gram=gram, diag=diag, rhs=rhs)


@dataclass(frozen=True, eq=False)
class NormalEquations:
    """One training set's normal equations and the buffer its solves share.

    ``gram`` is the C-ordered N x N product ``X^T X``.  Its strict lower
    triangle is never written after the build, and ``diag`` keeps its
    diagonal.  The rest of it is the solver's workspace: seen through the
    Fortran-ordered ``gram.T``, the diagonal and strict upper triangle
    are the lower triangle that LAPACK factors in place, so a solve
    allocates no N x N array.  ``lock`` serializes the solves that share
    the buffer.
    """

    gram: np.ndarray
    diag: np.ndarray
    rhs: np.ndarray
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def restore(self, lam: float) -> np.ndarray:
        """Write ``X^T X + lam I`` into the workspace and return ``gram.T``.

        Each column strip of the lower triangle is copied, transposed, onto
        the rows above it.  Adding +0.0 off the diagonal turns -0.0 into
        0.0, as ``X^T X + lam I`` does; at ``lam = 0`` -0.0 is added
        instead, which keeps every value as ``X^T X`` holds it.
        """
        gram, n = self.gram, len(self.gram)
        zero = 0.0 if lam > 0 else -0.0
        for i in range(0, n, _TILE):
            end = min(i + _TILE, n)
            np.add(gram[i:end, :i].T, zero, out=gram[:i, i:end])
            block = gram[i:end, i:end]
            np.add(block.T, zero, out=block, where=_STRICT_UPPER[: end - i, : end - i])
        gram.flat[:: n + 1] = self.diag + lam
        return gram.T


@dataclass(frozen=True)
class RidgeModel:
    """Trained readout: weights, regularization, and the label map.

    ``weights`` is a read-only float64 (N, C) view of the given matrix
    (see :func:`~looprc.errors.frozen_array`).
    """

    weights: np.ndarray
    lam: float
    label_map: tuple[str, ...]

    def __post_init__(self):
        weights = frozen_array(self.weights, "weight row", "entries", "NC")
        if len(self.label_map) != weights.shape[1]:
            raise ValueError("label map must name every class")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "label_map", tuple(self.label_map))

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Metrics:
    """Evaluation result: accuracy, per-class accuracy, confusion matrix."""

    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_class_accuracy", np.asarray(self.per_class_accuracy, dtype=np.float64))
        object.__setattr__(self, "confusion", np.asarray(self.confusion, dtype=np.int64))


def train_ridge(
    data: DesignMatrix,
    lam: float = 1e-3,
    label_map: Sequence[str] | None = None,
) -> RidgeModel:
    """Solve the regularized normal equations in closed form.

    Parameters
    ----------
    data : DesignMatrix
        Training state vectors and labels, at least one row per class
        (``ValueError`` otherwise).
    lam : float
        Regularization strength in its :data:`RIDGE_FIELDS` range, a
        finite number >= 0 (``ValueError`` otherwise).  The default 1e-3
        sits mid-range of the usual sweep grid and is always overridable.
        At ``lam=0`` the Gram matrix must be numerically invertible.
    label_map : sequence of str, optional
        Class names; defaults to stringified indices.

    Notes
    -----
    A solve factors ``X^T X + lam I`` inside the Gram buffer of
    :class:`NormalEquations` and allocates no N x N array, so a training
    set holds 8 N^2 bytes (32 MiB at N = 2048) for any number of lambdas.
    Solves on one design hold its lock and run one at a time.

    Raises
    ------
    SingularMatrixError
        Singular system at ``lam=0``; retry with ``lam > 0``.
    """
    import scipy.linalg  # imported here: inference and reports need no scipy

    check_fields({"lam": lam}, RIDGE_FIELDS, ValueError, "ridge")
    if data.n_rows < data.class_count:
        raise ValueError("need at least one row per class (B >= C)")
    eqs = data.normal_equations
    with eqs.lock:
        try:
            c, low = scipy.linalg.cho_factor(
                eqs.restore(lam), lower=True, overwrite_a=True, check_finite=False
            )
            weights = scipy.linalg.cho_solve((c, low), eqs.rhs, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"normal equations singular at lambda={lam}; use lambda > 0"
            ) from exc
    if not np.all(np.isfinite(weights)):
        raise SingularMatrixError(
            f"normal equations ill-conditioned at lambda={lam}; use lambda > 0"
        )
    if label_map is None:
        label_map = tuple(str(i) for i in range(data.class_count))
    return RidgeModel(weights=weights, lam=float(lam), label_map=label_map)


def scores(model: RidgeModel, rows: np.ndarray) -> np.ndarray:
    """The (B, C) class scores ``rows @ weights`` of B state vectors.

    One matrix product over the whole call: a row's scores can differ in
    the last bits with the number of rows in the call, as BLAS picks its
    kernel by the product's size.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise ValueError(f"rows must be B x {model.n_features}")
    return rows @ model.weights


def predict_indices(model: RidgeModel, rows: np.ndarray) -> np.ndarray:
    """Batch prediction: argmax class index per row."""
    return np.argmax(scores(model, rows), axis=1)


def evaluate(model: RidgeModel, test: DesignMatrix) -> Metrics:
    """Accuracy, per-class accuracy, and confusion matrix on a test set.

    Confusion rows are true classes, columns predicted; row j sums to the
    number of test points of class j.  Per-class accuracy is NaN for
    classes absent from the test set.
    """
    if test.n_features != model.n_features:
        raise ValueError("test set feature size does not match model")
    if test.class_count != model.class_count:
        raise ValueError("test set class count does not match model")
    pred = predict_indices(model, test.rows)
    c = test.class_count
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (test.labels, pred), 1)
    per_class_total = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(
            per_class_total > 0, np.diag(confusion) / per_class_total, np.nan
        )
    accuracy = float(np.trace(confusion)) / test.n_rows
    return Metrics(accuracy=accuracy, per_class_accuracy=per_class, confusion=confusion)


def training_macs(n_rows: int, n_features: int, class_count: int) -> int:
    """Multiply-accumulate count of one closed-form training solve.

    Gram build (B N^2) + Cholesky (N^3 / 3) + right-hand side (B N C)
    + triangular solves (N^2 C).  The Gram term dominates for realistic
    B, which is why splitting the input into k loops of size N/k cuts
    training cost by about k^2.
    """
    if n_rows < 1 or n_features < 1 or class_count < 1:
        raise ValueError("counts must be positive")
    b, n, c = n_rows, n_features, class_count
    return b * n * n + n**3 // 3 + b * n * c + n * n * c


def trainable_params(n_features: int, class_count: int) -> int:
    """Number of trained parameters: the N x C readout matrix."""
    if n_features < 1 or class_count < 1:
        raise ValueError("counts must be positive")
    return n_features * class_count
