"""Exception types shared across the library, the one field check every
input boundary uses, and the one rule by which a frozen value type stores
an array: :func:`frozen_array`, a checked read-only view.

Plain ``ValueError`` is raised for invalid arguments (bad shapes, out-of-range
parameters); the classes here cover the failure modes that callers are
expected to branch on, and that the CLI maps to distinct exit codes.
"""

import math
from typing import Any, Callable, Iterable

import numpy as np


class LoopRCError(Exception):
    """Base class for library-specific errors."""


class NumericOverflowError(LoopRCError):
    """Loop state became non-finite during a run.

    Only reachable for pathological gain/filter settings; carries the
    1-based global chip index at which the state first left the finite range.
    """

    def __init__(self, chip_index: int):
        self.chip_index = chip_index
        super().__init__(f"non-finite loop state at chip {chip_index}")


class SingularMatrixError(LoopRCError):
    """Normal equations are numerically singular (lambda = 0 only), or
    overflow as they are built."""


class ConfigError(LoopRCError):
    """Experiment configuration is invalid or inconsistent."""


class DataFormatError(LoopRCError):
    """A data file is missing, truncated, or malformed."""


class ArtifactError(DataFormatError):
    """A model artifact failed a version or integrity check."""


class OutputError(LoopRCError):
    """An output file or directory cannot be written."""


class StageError(LoopRCError):
    """A pipeline stage failed; carries the stage name and datapoint index.

    The original exception is chained as ``cause`` so callers (and the
    CLI's exit-code mapping) can branch on what actually went wrong.
    """

    def __init__(self, stage: str, cause: BaseException, datapoint=None):
        self.stage = stage
        self.datapoint = datapoint
        self.cause = cause
        where = f" (datapoint {datapoint})" if datapoint is not None else ""
        super().__init__(f"stage '{stage}'{where}: {cause}")


#: A field's check: what its value must be (for messages), and the test.
Field = tuple[str, Callable[[Any], bool]]

INTEGER: Field = ("an integer", lambda v: type(v) is int)
NUMBER: Field = ("a finite number", lambda v: type(v) is int or (isinstance(v, float) and math.isfinite(v)))
BOOLEAN: Field = ("a boolean", lambda v: type(v) is bool)
STRING: Field = ("a string", lambda v: type(v) is str)
LIST: Field = ("a list", lambda v: type(v) is list)
STRINGS: Field = ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
OBJECT: Field = ("an object", lambda v: type(v) is dict)


def at_least(low, field: Field = INTEGER) -> Field:
    what, ok = field
    return f"{what} >= {low}", lambda v: ok(v) and v >= low


def within(low, high, field: Field = NUMBER) -> Field:
    what, ok = field
    return f"{what} in [{low}, {high}]", lambda v: ok(v) and low <= v <= high


def or_null(field: Field) -> Field:
    what, ok = field
    return f"{what} or null", lambda v: v is None or ok(v)


def one_of(options: Iterable[str]) -> Field:
    options = tuple(options)
    return f"one of {list(options)}", lambda v: type(v) is str and v in options


def check_fields(
    obj, table: dict[str, Field], error: type[Exception], where: str, required: Iterable[str] = (), closed: bool = True
) -> dict:
    """Check a JSON object against a ``{key: (what, predicate)}`` table; return it.

    Predicates see values as parsed: nothing is coerced.  A closed table
    is also the set of allowed keys; an open one lets other keys through,
    for formats whose writers store keys the reader ignores.  The first
    failure raises ``error`` naming ``where`` and the key.
    """
    if not isinstance(obj, dict):
        raise error(f"{where} must be an object")
    unknown = set(obj) - set(table) if closed else set()
    if unknown:
        raise error(f"unknown key(s) in {where}: {sorted(unknown, key=str)}")
    for key in required:
        if key not in obj:
            raise error(f"{where} requires '{key}'")
    for key, (what, ok) in table.items():
        if key in obj and not ok(obj[key]):
            raise error(f"{where}.{key} must be {what}, got {obj[key]!r}")
    return obj


def frozen_array(value, where: str, entries: str, dims: str, dtypes: tuple = (np.float64,)) -> np.ndarray:
    """A read-only view of ``value``, the array a frozen value type stores.

    The dtype is kept when it is one of ``dtypes`` and converted to the
    last of them otherwise, so a right-dtype array is shared, not copied,
    and stays writable for its owner.  ``dims`` names the axes, one letter
    each ("BL": B rows of length L).  A wrong number of axes, an empty last
    axis or a non-finite entry is a ``ValueError`` naming ``where`` (the
    vector, or a matrix's first bad row) and its ``entries``.
    """
    array = np.asarray(value)
    array = (array if array.dtype in dtypes else array.astype(dtypes[-1])).view()
    if array.ndim != len(dims) or array.shape[-1] == 0:
        raise ValueError(f"{where} {entries} must fill a ({', '.join(dims)}) array with {dims[-1]} >= 1")
    finite = np.isfinite(array).all(axis=-1)
    if not finite.all():
        if array.ndim == 1:
            raise ValueError(f"{where} {entries} must be finite")
        raise ValueError(f"{where} {int(np.argmin(finite))} has non-finite {entries}")
    array.setflags(write=False)
    return array
