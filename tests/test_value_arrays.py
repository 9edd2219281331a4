"""The one array rule of the frozen value types: each stores its float or
complex array through ``errors.frozen_array``, as a read-only view that
shares memory with a right-dtype input and leaves the caller's array
writable, and rejects a wrong shape or a non-finite entry."""

import numpy as np
import pytest

from looprc.classifier import DesignMatrix, RidgeModel
from looprc.errors import frozen_array
from looprc.ioformats import IQBurst
from looprc.reservoir import Mask
from looprc.synthrf import LabeledDataset
from looprc.transforms import MeanAmplitudeProfile

FLOAT = ((np.float64,), (np.float32, np.int64))
COMPLEX = ((np.complex64, np.complex128), (np.float64, np.int64))

#: name: (build from an array, the stored field, number of axes, (kept dtypes, converted dtypes))
TYPES = {
    "Mask": (lambda a: Mask(values=a), "values", 1, FLOAT),
    "MeanAmplitudeProfile": (lambda a: MeanAmplitudeProfile(values=a), "values", 1, FLOAT),
    "DesignMatrix": (lambda a: DesignMatrix(rows=a, labels=[0, 1, 0, 1], class_count=2), "rows", 2, FLOAT),
    "RidgeModel": (lambda a: RidgeModel(weights=a, lam=0.1, label_map=("a", "b", "c")), "weights", 2, FLOAT),
    "IQBurst": (lambda a: IQBurst(samples=a), "samples", 1, COMPLEX),
    "LabeledDataset": (
        lambda a: LabeledDataset(a, [0, 1, 0, 1], ("a", "b"), [0, 1], [2, 3]), "bursts", 2, COMPLEX,
    ),
}


def _array(ndim: int, dtype) -> np.ndarray:
    """A (4, 3) matrix or a (3,) vector of finite values."""
    shape = (4, 3) if ndim == 2 else (3,)
    return np.arange(1, 1 + np.prod(shape)).reshape(shape).astype(dtype)


@pytest.fixture(params=sorted(TYPES))
def value_type(request):
    return TYPES[request.param]


def test_a_right_dtype_array_is_kept_as_a_read_only_view(value_type):
    build, attr, ndim, (kept, _) = value_type
    for dtype in kept:
        given = _array(ndim, dtype)
        stored = getattr(build(given), attr)
        assert np.shares_memory(stored, given) and stored.dtype == dtype
        assert not stored.flags.writeable
        assert given.flags.writeable  # the caller's array is left as it was


def test_another_dtype_is_converted_to_the_last_kept_one(value_type):
    build, attr, ndim, (kept, converted) = value_type
    for dtype in converted:
        given = _array(ndim, dtype)
        stored = getattr(build(given), attr)
        assert stored.dtype == kept[-1] and not np.shares_memory(stored, given)
        assert np.array_equal(stored, given) and not stored.flags.writeable


def test_a_wrong_shape_or_a_non_finite_entry_is_a_value_error(value_type):
    build, _, ndim, (kept, _) = value_type
    wrong_ndim = _array(3 - ndim, kept[-1])
    empty = np.empty((4, 0) if ndim == 2 else 0, dtype=kept[-1])
    for given in (wrong_ndim, empty, np.asarray(5, dtype=kept[-1])):
        with pytest.raises(ValueError, match="must fill a"):
            build(given)
    for bad in (np.nan, np.inf, -np.inf):
        given = _array(ndim, kept[-1])
        given.flat[-1] = bad
        with pytest.raises(ValueError, match="3 has non-finite" if ndim == 2 else "must be finite"):
            build(given)


def test_a_matrix_error_names_the_first_bad_row():
    rows = np.ones((5, 3))
    rows[3, 2] = rows[4, 0] = np.nan
    with pytest.raises(ValueError, match="^row 3 has non-finite entries$"):
        frozen_array(rows, "row", "entries", "BN")
    with pytest.raises(ValueError, match=r"^row entries must fill a \(B, N\) array with N >= 1$"):
        frozen_array(rows[0], "row", "entries", "BN")
    with pytest.raises(ValueError, match="^mask values must be finite$"):
        frozen_array(rows[3], "mask", "values", "N")
