"""Byte-level file formats: raw I/Q captures and the model container.

Both formats are explicitly little-endian so files travel between
machines.  The I/Q format is the common interleaved-float32 layout
(I0, Q0, I1, Q1, ...) with a JSON sidecar next to the data file; the
model container is a single self-describing binary with a JSON header,
an array manifest, and a SHA-256 over the payload.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    LIST, NUMBER, OBJECT, STRINGS, ArtifactError, DataFormatError, OutputError, at_least, check_fields, frozen_array,
    or_null,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class IQBurst:
    """One burst as read from an I/Q file, with its capture metadata.

    ``samples`` is a read-only view (:func:`~looprc.errors.frozen_array`)
    of the given samples: complex64 rows, such as those :func:`load_iq_file`
    gives, are kept as they are, and any other dtype becomes complex128.
    ``sample_rate`` is in Hz and ``meta`` carries free-form metadata.
    """

    samples: np.ndarray
    sample_rate: float = 100e6
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        samples = frozen_array(self.samples, "burst", "samples", "L", (np.complex64, np.complex128))
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


IQ_FORMAT_VERSION = 1
#: The float32 I/Q bytes :func:`read_iq_samples` reads and decodes, and
#: :func:`write_iq_file` encodes and writes, at a time: whole bursts, at
#: least one.
IQ_CHUNK_BYTES = 2**20

_SIDECAR_FIELDS = {
    "format_version": (f"version {IQ_FORMAT_VERSION}", lambda v: type(v) is int and v == IQ_FORMAT_VERSION),
    "sample_rate": ("a finite positive number", lambda v: NUMBER[1](v) and v > 0),
    "burst_length": at_least(1),
    "n_bursts": or_null(at_least(0)),
    "labels": or_null(LIST),
    "label_names": or_null(STRINGS),
    "meta": OBJECT,
}


def _sidecar_path(path: PathLike) -> Path:
    return Path(str(path) + ".json")


def _check_regular_file(path: Path, what: str, error: type[Exception] = DataFormatError) -> None:
    """``error`` when ``path`` is missing or not a regular file (a directory, say)."""
    if not path.exists():
        raise error(f"missing {what} {path}")
    if not path.is_file():
        raise error(f"{what} {path} is not a regular file")


def _read_regular_file(path: Path, what: str, error: type[Exception] = DataFormatError) -> bytes:
    """The bytes of ``path``; ``error`` when it is missing, not a regular
    file (a directory, say) or cannot be read."""
    _check_regular_file(path, what, error)
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json_object(path: PathLike, what: str, error: type[Exception] = DataFormatError) -> dict:
    """The JSON object stored in ``path``; ``error`` when the file cannot
    be read, is not UTF-8 JSON or holds something other than an object."""
    raw = _read_regular_file(Path(path), what, error)
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} is not a JSON object")
    return doc


def write_output(path: PathLike, data: Union[bytes, str, Iterable], what: str) -> None:
    """Write ``data`` to the file ``path``: bytes, a string as UTF-8, or
    an iterable of byte chunks (anything with the buffer protocol), which
    are written one after another.

    Every file the library writes goes through here, so that a path that
    names a directory, lies under a missing directory or cannot be written
    ends in :class:`~looprc.errors.OutputError` naming it.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    try:
        with Path(path).open("wb") as out:
            out.writelines(data)
    except OSError as exc:
        raise OutputError(f"cannot write {what} {path}: {exc.strerror or exc}") from exc


def check_output_path(path: PathLike, what: str) -> None:
    """:class:`~looprc.errors.OutputError` unless ``path`` names a file in
    an existing directory, for commands that write only after long work."""
    out = Path(path)
    if out.is_dir():
        raise OutputError(f"cannot write {what} {path}: it is a directory")
    if not out.parent.is_dir():
        raise OutputError(f"cannot write {what} {path}: no directory {out.parent}")


def make_output_dir(path: PathLike) -> Path:
    """Create the directory ``path`` and its parents if missing;
    :class:`~looprc.errors.OutputError` when that fails (``path`` names a
    file, say)."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return out


def write_iq_file(
    path: PathLike,
    samples: np.ndarray,
    sample_rate: float,
    labels: Optional[Sequence[int]] = None,
    label_names: Optional[Sequence[str]] = None,
    meta: Optional[dict] = None,
) -> None:
    """Write (B, L) complex bursts as interleaved little-endian float32
    I/Q plus sidecar.

    Labels (if given) are stored in the sidecar, one per burst, alongside
    ``sample_rate`` in Hz and free-form ``meta``.  The bursts are encoded
    and written in chunks of whole bursts of about :data:`IQ_CHUNK_BYTES`
    file bytes, each from the samples' own dtype, so writing takes at most
    one chunk of memory besides ``samples``, not a copy of the file.

    A finite sample beyond the float32 range, which would be stored as
    inf, is a DataFormatError naming its burst, before any file is opened.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.size == 0:
        raise ValueError("need a non-empty (B, L) array of bursts")
    if labels is not None and len(labels) != len(samples):
        raise ValueError("need one label per burst")
    sidecar = {
        "format_version": IQ_FORMAT_VERSION,
        "sample_rate": float(sample_rate),
        "center_frequency_hz": 0.0,
        "burst_length": samples.shape[1],
        "n_bursts": len(samples),
        "labels": None if labels is None else [int(v) for v in labels],
        "label_names": None if label_names is None else list(label_names),
        "meta": meta or {},
    }
    rows = _chunk_rows(samples.shape[1])
    parts = [samples[start : start + rows] for start in range(0, len(samples), rows)]
    with np.errstate(over="ignore"):
        lost = np.concatenate([(np.isfinite(p) & ~np.isfinite(p.astype(np.complex64))).any(axis=1) for p in parts])
    if lost.any():
        raise DataFormatError(f"{path}: burst {int(np.argmax(lost))} has finite samples beyond the float32 range")
    # Little-endian complex64 is the file's interleaved float32 I/Q.
    write_output(path, (np.ascontiguousarray(p, "<c8") for p in parts), "I/Q file")
    write_output(_sidecar_path(path), json.dumps(sidecar, indent=2, sort_keys=True), "sidecar")


def read_iq_sidecar(path: PathLike) -> dict:
    """Parse and sanity-check the sidecar belonging to an I/Q file.

    ``burst_length`` must be a positive integer, ``n_bursts`` (optional)
    a non-negative integer, ``sample_rate`` a finite positive number,
    ``labels`` and ``label_names`` lists or null, and ``meta`` an object.
    Keys the reader does not use are let through.
    """
    sc_path = _sidecar_path(path)
    return check_fields(
        read_json_object(sc_path, "sidecar"), _SIDECAR_FIELDS, DataFormatError, f"{sc_path}: sidecar",
        required=("format_version", "sample_rate", "burst_length"), closed=False,
    )


def _chunk_rows(burst_len: int) -> int:
    """Bursts of ``burst_len`` samples per I/Q chunk."""
    return max(1, IQ_CHUNK_BYTES // (8 * burst_len))


def _iq_shape(path: PathLike) -> tuple[Path, dict, int, int]:
    """An I/Q file's data path, checked sidecar, bursts and burst length,
    from the file's size; DataFormatError on a missing data file, a
    malformed sidecar or a byte count that does not fit it."""
    data_path = Path(path)
    _check_regular_file(data_path, "I/Q file")
    sidecar = read_iq_sidecar(path)
    try:
        n_bytes = data_path.stat().st_size
    except OSError as exc:
        raise DataFormatError(f"cannot read I/Q file {data_path}: {exc}") from exc
    if n_bytes % 8 != 0:
        raise DataFormatError(f"{data_path}: {n_bytes} bytes is no whole number of I/Q pairs (truncated)")
    burst_len = sidecar["burst_length"]
    n_complex = n_bytes // 8
    if n_complex % burst_len != 0:
        raise DataFormatError(
            f"{data_path}: {n_complex} samples is not a multiple of burst length {burst_len}"
        )
    n_bursts = n_complex // burst_len
    if sidecar.get("n_bursts") not in (None, n_bursts):
        raise DataFormatError(
            f"{data_path}: sidecar claims {sidecar['n_bursts']} bursts, file holds {n_bursts}"
        )
    if n_bursts == 0:
        raise DataFormatError(f"{data_path}: holds no bursts")
    return data_path, sidecar, n_bursts, burst_len


def iq_burst_length(path: PathLike) -> int:
    """The burst length of an I/Q file, without reading its samples.

    Raises :class:`~looprc.errors.DataFormatError` as
    :func:`read_iq_samples` does on a missing data file, a malformed
    sidecar or a byte count that does not fit it, so a config is never
    checked against a length the file contradicts.
    """
    return _iq_shape(path)[3]


def _check_labels(data_path: Path, sidecar: dict, n_bursts: int) -> None:
    """DataFormatError unless the sidecar holds no labels or one class
    index per burst."""
    labels = sidecar.get("labels")
    if labels is not None and len(labels) != n_bursts:
        raise DataFormatError(f"{data_path}: {len(labels)} labels for {n_bursts} bursts")
    label_names = sidecar.get("label_names")
    limit = float("inf") if label_names is None else len(label_names)
    for i, label in enumerate(labels or []):
        if type(label) is not int or not 0 <= label < limit:
            raise DataFormatError(f"{data_path}: burst {i} has label {label!r}, not a class index")


def read_iq_samples(path: PathLike) -> tuple[np.ndarray, dict]:
    """Read an I/Q file: its bursts as a read-only (B, L) complex64
    array, and its checked sidecar.

    This is the one I/Q decoder, for inference and training alike.
    complex64 holds the file's float32 I/Q pairs as they are, at half the
    size of complex128; widening it to complex128 is exact, and
    :func:`~looprc.pipeline.transform_rows` does so one block at a time.
    The shape comes from the file size and the sidecar, and the labels
    are checked, before any sample is read.  The samples are then read
    and decoded in chunks of whole bursts of about
    :data:`IQ_CHUNK_BYTES` file bytes, each decoded in place into its
    rows of the one result array, so reading takes the result plus the
    one chunk buffer, not copies of the file.

    Raises :class:`~looprc.errors.DataFormatError` on a data file or
    sidecar that is missing, not a regular file or unreadable, a
    malformed sidecar, a byte count that is no whole number of float32
    I/Q pairs (truncated file), a sample count that is not a multiple of
    the declared burst length, a file with no bursts, a label that is not
    an index into ``label_names`` (or, without names, not a non-negative
    integer), a burst with non-finite samples, or a file that ends before
    the byte count its size gave (truncated while being read).
    """
    data_path, sidecar, n_bursts, burst_len = _iq_shape(path)
    _check_labels(data_path, sidecar, n_bursts)
    samples = np.empty((n_bursts, burst_len), dtype=np.complex64)
    rows = _chunk_rows(burst_len)
    buffer = np.empty(2 * burst_len * min(rows, n_bursts), dtype="<f4")
    try:
        with data_path.open("rb") as data:
            for start in range(0, n_bursts, rows):
                block = samples[start : start + rows]
                raw = buffer[: 2 * block.size]
                got = data.readinto(raw)
                if got != raw.nbytes:
                    raise DataFormatError(
                        f"{data_path}: file ended at byte {start * 8 * burst_len + got} "
                        f"of {samples.size * 8} (truncated)"
                    )
                # I + 1j * Q in complex64, in place.  It turns most signed
                # zeros into +0.0; filling .real and .imag instead would keep
                # them, and change sample bytes and dataset hashes.
                flat = block.reshape(-1)
                with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j
                    np.multiply(raw[1::2], 1j, out=flat)
                    np.add(flat, raw[0::2], out=flat)
                finite = np.isfinite(block).all(axis=1)
                if not finite.all():
                    raise DataFormatError(f"{data_path}: burst {start + int(np.argmin(finite))} has non-finite samples")
    except OSError as exc:
        raise DataFormatError(f"cannot read I/Q file {data_path}: {exc}") from exc
    samples.setflags(write=False)
    return samples, sidecar


def load_iq_file(path: PathLike) -> list[IQBurst]:
    """Load an I/Q file into bursts, with the checks of :func:`read_iq_samples`.

    The bursts' samples are read-only complex64 views of the rows of the
    one (B, L) array that function reads.  Per-burst labels from the
    sidecar land in each burst's ``meta`` (keys ``label`` and
    ``label_name``).
    """
    samples, sidecar = read_iq_samples(path)
    labels, label_names = sidecar.get("labels"), sidecar.get("label_names")
    bursts = []
    for i, row in enumerate(samples):
        meta = {}
        if labels is not None:
            meta["label"] = labels[i]
            if label_names is not None:
                meta["label_name"] = label_names[labels[i]]
        bursts.append(IQBurst(samples=row, sample_rate=float(sidecar["sample_rate"]), meta=meta))
    return bursts


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"LRCMODEL"
CONTAINER_VERSION = 1
_RESERVED_HEADER_KEYS = {"format_version", "arrays", "payload_sha256"}
#: The dtype strings :func:`write_container` stores: little-endian numbers.
_STORED_DTYPES = {
    np.dtype(code).newbyteorder("<").str for code in np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
}
_SIZE = at_least(0)
_ENTRY_FIELDS = {
    "dtype": ("a little-endian numeric dtype", lambda v: type(v) is str and v in _STORED_DTYPES),
    "shape": ("a list of non-negative integers", lambda v: type(v) is list and all(map(_SIZE[1], v))),
    "offset": _SIZE,
    "nbytes": _SIZE,
}


def _le_dtype(arr: np.ndarray) -> np.dtype:
    dt = arr.dtype.newbyteorder("<")
    if dt.str not in _STORED_DTYPES:
        raise ValueError(f"cannot store arrays of dtype {arr.dtype}")
    return dt


def write_container(path: PathLike, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a self-describing binary container.

    Layout: 8-byte magic, u32 version, u64 header length, JSON header,
    concatenated little-endian array payload.  The header gains an array
    manifest (dtype/shape/offset/nbytes per array) and a payload SHA-256.
    """
    clash = _RESERVED_HEADER_KEYS & set(header)
    if clash:
        raise ValueError(f"header keys {sorted(clash)} are reserved")
    manifest = {}
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        chunk = arr.astype(_le_dtype(arr), copy=False).tobytes()
        manifest[name] = {
            "dtype": _le_dtype(arr).str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(chunk),
        }
        chunks.append(chunk)
        offset += len(chunk)
    payload = b"".join(chunks)
    full_header = {
        "format_version": CONTAINER_VERSION,
        "arrays": manifest,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        **header,
    }
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    fixed = struct.pack("<IQ", CONTAINER_VERSION, len(header_bytes))
    write_output(path, b"".join((CONTAINER_MAGIC, fixed, header_bytes, payload)), "model container")


def read_container(path: PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; verifies magic, version, payload hash and
    array manifest, raising :class:`~looprc.errors.ArtifactError` on any
    mismatch."""
    blob = _read_regular_file(Path(path), "model container", ArtifactError)
    fixed = len(CONTAINER_MAGIC) + 4 + 8
    if len(blob) < fixed:
        raise ArtifactError(f"{path}: too short to be a model container")
    if blob[: len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
        raise ArtifactError(f"{path}: bad magic, not a model container")
    (version,) = struct.unpack_from("<I", blob, len(CONTAINER_MAGIC))
    if version != CONTAINER_VERSION:
        raise ArtifactError(f"{path}: unsupported container version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, len(CONTAINER_MAGIC) + 4)
    if len(blob) < fixed + header_len:
        raise ArtifactError(f"{path}: truncated header")
    try:
        header = json.loads(blob[fixed : fixed + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: unreadable header: {exc}") from exc
    check_fields(header, {"arrays": OBJECT}, ArtifactError, f"{path}: header", closed=False)
    payload = blob[fixed + header_len :]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ArtifactError(f"{path}: payload checksum mismatch (corrupted container)")
    arrays = {}
    for name, entry in header.get("arrays", {}).items():
        # The checksum covers the payload only, so the manifest is checked here.
        check_fields(entry, _ENTRY_FIELDS, ArtifactError, f"{path}: arrays.{name}", _ENTRY_FIELDS, closed=False)
        dtype, shape, off, nbytes = np.dtype(entry["dtype"]), entry["shape"], entry["offset"], entry["nbytes"]
        if nbytes != dtype.itemsize * math.prod(shape):
            raise ArtifactError(f"{path}: array {name!r} of {nbytes} bytes is not {shape} x {dtype.str}")
        if off + nbytes > len(payload):
            raise ArtifactError(f"{path}: array {name!r} extends past the payload")
        arrays[name] = np.frombuffer(payload[off : off + nbytes], dtype=dtype).reshape(shape).copy()
    return header, arrays
