"""Byte-level file formats: raw I/Q captures and the model container.

Both formats are explicitly little-endian so files travel between
machines.  The I/Q format is the common interleaved-float32 layout
(I0, Q0, I1, Q1, ...) with a JSON sidecar next to the data file; the
model container is a single self-describing binary with a JSON header,
an array manifest, and a SHA-256 over the payload.
"""

import hashlib
import json
import struct
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ArtifactError, DataFormatError
from .transforms import IQBurst

PathLike = Union[str, Path]

IQ_FORMAT_VERSION = 1


def _sidecar_path(path: PathLike) -> Path:
    return Path(str(path) + ".json")


def write_iq_file(
    path: PathLike,
    bursts: Sequence[IQBurst],
    labels: Optional[Sequence[int]] = None,
    label_names: Optional[Sequence[str]] = None,
    meta: Optional[dict] = None,
) -> None:
    """Write bursts as interleaved little-endian float32 I/Q plus sidecar.

    All bursts must share one length; labels (if given) are stored in the
    sidecar, one per burst, alongside free-form ``meta``.
    """
    if not bursts:
        raise ValueError("need at least one burst")
    burst_len = len(bursts[0])
    if any(len(b) != burst_len for b in bursts):
        raise ValueError("bursts must all have the same length")
    if labels is not None and len(labels) != len(bursts):
        raise ValueError("need one label per burst")
    flat = np.empty(2 * burst_len * len(bursts), dtype="<f4")
    for i, b in enumerate(bursts):
        block = flat[2 * burst_len * i : 2 * burst_len * (i + 1)]
        block[0::2] = b.samples.real
        block[1::2] = b.samples.imag
    sidecar = {
        "format_version": IQ_FORMAT_VERSION,
        "sample_rate": float(bursts[0].sample_rate),
        "center_frequency_hz": 0.0,
        "burst_length": burst_len,
        "n_bursts": len(bursts),
        "labels": None if labels is None else [int(v) for v in labels],
        "label_names": None if label_names is None else list(label_names),
        "meta": meta or {},
    }
    Path(path).write_bytes(flat.tobytes())
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def read_iq_sidecar(path: PathLike) -> dict:
    """Parse and sanity-check the sidecar belonging to an I/Q file."""
    sc_path = _sidecar_path(path)
    if not sc_path.exists():
        raise DataFormatError(f"missing sidecar {sc_path}")
    try:
        sidecar = json.loads(sc_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"unreadable sidecar {sc_path}: {exc}") from exc
    for key in ("format_version", "sample_rate", "burst_length"):
        if key not in sidecar:
            raise DataFormatError(f"sidecar {sc_path} lacks required key {key!r}")
    if sidecar["format_version"] != IQ_FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported I/Q format version {sidecar['format_version']}"
        )
    return sidecar


def load_iq_file(path: PathLike) -> list[IQBurst]:
    """Load an I/Q file into bursts.

    Per-burst labels from the sidecar land in each burst's ``meta``
    (keys ``label`` and ``label_name``).  Raises
    :class:`~looprc.errors.DataFormatError` on a missing sidecar, an odd
    float count (truncated I/Q pair), a sample count that is not a
    multiple of the declared burst length, a file with no bursts, a label
    that is not an index into ``label_names`` (or, without names, not a
    non-negative integer), or a burst with non-finite samples.
    """
    data_path = Path(path)
    if not data_path.exists():
        raise DataFormatError(f"no such I/Q file: {data_path}")
    sidecar = read_iq_sidecar(path)
    raw = np.frombuffer(data_path.read_bytes(), dtype="<f4")
    if raw.size % 2 != 0:
        raise DataFormatError(f"{data_path}: odd float count {raw.size} (truncated I/Q pair)")
    burst_len = int(sidecar["burst_length"])
    n_complex = raw.size // 2
    if burst_len < 1 or n_complex % burst_len != 0:
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
    labels = sidecar.get("labels")
    if labels is not None and len(labels) != n_bursts:
        raise DataFormatError(f"{data_path}: {len(labels)} labels for {n_bursts} bursts")
    label_names = sidecar.get("label_names")
    limit = float("inf") if label_names is None else len(label_names)
    for i, label in enumerate(labels or []):
        if type(label) is not int or not 0 <= label < limit:
            raise DataFormatError(f"{data_path}: burst {i} has label {label!r}, not a class index")
    samples = (raw[0::2] + 1j * raw[1::2]).astype(np.complex128).reshape(n_bursts, burst_len)
    finite = np.all(np.isfinite(samples), axis=1)
    if not finite.all():
        raise DataFormatError(f"{data_path}: burst {int(np.argmin(finite))} has non-finite samples")
    bursts = []
    for i in range(n_bursts):
        meta = {}
        if labels is not None:
            meta["label"] = labels[i]
            if label_names is not None:
                meta["label_name"] = label_names[labels[i]]
        bursts.append(
            IQBurst(samples=samples[i], sample_rate=float(sidecar["sample_rate"]), meta=meta)
        )
    return bursts


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"LRCMODEL"
CONTAINER_VERSION = 1
_RESERVED_HEADER_KEYS = {"format_version", "arrays", "payload_sha256"}


def _le_dtype(arr: np.ndarray) -> np.dtype:
    dt = arr.dtype.newbyteorder("<")
    if dt.kind not in "fiuc" or dt.hasobject:
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
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", CONTAINER_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def read_container(path: PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; verifies magic, version, and payload hash."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read container {path}: {exc}") from exc
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
    payload = blob[fixed + header_len :]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ArtifactError(f"{path}: payload checksum mismatch (corrupted container)")
    arrays = {}
    for name, entry in header.get("arrays", {}).items():
        off, nbytes = entry["offset"], entry["nbytes"]
        if off < 0 or off + nbytes > len(payload):
            raise ArtifactError(f"{path}: array {name!r} extends past the payload")
        arr = np.frombuffer(payload[off : off + nbytes], dtype=np.dtype(entry["dtype"]))
        arrays[name] = arr.reshape(entry["shape"]).copy()
    return header, arrays
