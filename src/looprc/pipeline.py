"""Config-driven experiment pipeline.

One JSON document describes an experiment end to end: where data comes
from (a generator spec or an I/Q file), how bursts become real-valued
datapoints (a list of transforms whose outputs are concatenated), the
loop topology that turns datapoints into state vectors (or ``null`` for
the no-reservoir ridge baseline), and the readout regularization.

The schema is closed-world: unknown keys are errors, and every derived
length (transform output vs. slice coverage vs. mask length) is checked
before any data is generated or touched.  All randomness flows from
seeds in the config, so a config determines every output byte except
wall-clock timings.
"""

import copy
import csv
import functools
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import classifier, synthrf
from .classifier import (
    RIDGE_FIELDS,
    DesignMatrix,
    Metrics,
    RidgeModel,
    evaluate,
    train_ridge,
    trainable_params,
    training_macs,
)
from .errors import (
    BOOLEAN,
    INTEGER,
    LIST,
    NUMBER,
    OBJECT,
    STRING,
    STRINGS,
    ArtifactError,
    ConfigError,
    DataFormatError,
    Field,
    LoopRCError,
    StageError,
    at_least,
    check_fields,
    one_of,
    or_null,
)
from .hyperopt import (
    BAYES_FIELDS,
    GRID_FIELDS,
    Categorical,
    Real,
    SearchSpace,
    TrialRecord,
    bayes_opt,
    grid_search,
    grouped_order,
    write_trial_log,
)
from .ioformats import (
    IQBurst, check_output_path, iq_burst_length, make_output_dir, read_container, read_iq_samples,
    write_container, write_iq_file, write_output,
)
from .reservoir import LOOP_FIELDS, LoopSpec, Mask, noise_seed
from .synthrf import LabeledDataset, stratified_split
from .topology import COMBINERS, INPUT_LENGTH, LoopBank, TopologySpec, run_topology
from .transforms import MeanAmplitudeProfile, TransformSpec, compute_mean_amplitude

PathLike = Union[str, Path]

#: λ grid used by regularization sweeps: 10^-6 .. 10^2, 9 log-spaced points.
LAMBDA_SWEEP = tuple(float(10.0**e) for e in range(-6, 3))

#: Fixed column order of sweep result tables.
SWEEP_COLUMNS = (
    "transform",
    "n_nodes",
    "k",
    "d",
    "lambda",
    "seed",
    "accuracy",
    "trainable_params",
    "training_macs",
    "train_seconds",
)

# Reductions versus large trained models, as published for this method's
# reference platform; printed next to measured numbers for context.
REFERENCE_PARAMS_REDUCTION = 20
REFERENCE_MACS_REDUCTION = 100
REFERENCE_LATENCY_REDUCTION = 1200  # lower bound


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# The ranges of loop, dataset and ridge fields are those of the types and
# functions the fields feed (LoopSpec, the generators, train_ridge).
_DATASET_FIELDS = {
    "sei": {"kind": STRING, **synthrf.SEI_FIELDS},
    "wiprec": {"kind": STRING, **synthrf.WIPREC_FIELDS},
    "iq_file": {"kind": STRING, "path": STRING},
}
# The gains have no defaults.
_LOOP_REQUIRED = ("n_nodes", "loop_gain", "input_gain")
_TOPOLOGY_FIELDS = {**LOOP_FIELDS, "k": at_least(1), "combiner": one_of(COMBINERS), "pad_to_multiple": BOOLEAN}
_NONEMPTY_LIST = ("a non-empty list", lambda v: type(v) is list and v != [])


def _each(field: Field) -> Field:
    """A non-empty list whose every element passes ``field``."""
    what, ok = field
    return f"a non-empty list, each {what}", lambda v: _NONEMPTY_LIST[1](v) and all(map(ok, v))


_INTEGERS = ("a list of integers", lambda v: type(v) is list and all(map(INTEGER[1], v)))
_LAYERED_FIELDS = {"layers": _each(_NONEMPTY_LIST), "combiner": one_of(COMBINERS)}
_LAYERED_LOOP_FIELDS = {"input_length": INPUT_LENGTH, **LOOP_FIELDS}


def _setting(key: str) -> Callable[[dict, object], dict]:
    return lambda section, value: {**section, key: value}


# Each sweep axis or search parameter: the config section a point sets,
# the new section made of the old one and the point's value, and the check
# the values pass, that of the config field they replace.
_POINTS = {
    "transform": ("transforms", lambda _, v: copy.deepcopy(v) if isinstance(v, list) else [{"kind": v}],
                  ("a transform kind or list", lambda v: type(v) in (str, list))),
    "d": ("transforms", lambda _, v: [{"kind": "decimated_dft", "d": v}], INTEGER),
    "lambda": ("ridge", _setting("lam"), RIDGE_FIELDS["lam"]),
    **{name: ("topology", _setting(name), _TOPOLOGY_FIELDS[name])
       for name in ("n_nodes", "k", "input_gain", "loop_gain", "noise_std")},
}
# In the nesting order of sweep points, outermost first.
_SWEEP_FIELDS = {
    **{axis: _each(_POINTS[axis][2]) for axis in ("transform", "d", "n_nodes", "k", "lambda")},
    "seeds": _each(at_least(0)),
}
_METHOD_FIELDS = {"grid": GRID_FIELDS, "bayes": BAYES_FIELDS}
_CONFIG_FIELDS = {
    **dict.fromkeys(("dataset", "ridge", "sweep", "hyperopt"), OBJECT),
    "transforms": LIST,
    "topology": or_null(OBJECT),
    "seed": at_least(0),
    "threads": at_least(1),
}


def _validate_dataset(ds: dict) -> dict:
    check_fields(ds, {"kind": one_of(sorted(_DATASET_FIELDS))}, ConfigError, "dataset", ("kind",), closed=False)
    required = ("path",) if ds["kind"] == "iq_file" else ()
    return dict(check_fields(ds, _DATASET_FIELDS[ds["kind"]], ConfigError, "dataset", required))


def _validate_hyperopt(section: dict) -> dict:
    check_fields(section, {"method": one_of(_METHOD_FIELDS)}, ConfigError, "hyperopt", closed=False)
    section = {"method": "bayes", **section}
    table = {"method": STRING, "space": OBJECT, **_METHOD_FIELDS[section["method"]]}
    return check_fields(section, table, ConfigError, "hyperopt", ("budget",) if section["method"] == "bayes" else ())


def _validate_transforms(entries) -> list[TransformSpec]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'transforms' must be a non-empty list")
    specs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"transforms[{i}] must be an object with a 'kind'")
        try:
            specs.append(TransformSpec.from_dict(entry))
        except ValueError as exc:
            raise ConfigError(f"transforms[{i}]: {exc}") from exc
    return specs


def _check_layers(topo: dict, error: type[Exception], closed: bool) -> None:
    """Check a layered topology's structure and every loop's fields."""
    check_fields(topo, _LAYERED_FIELDS, error, "topology", required=("layers",), closed=closed)
    for li, layer in enumerate(topo["layers"]):
        for i, loop in enumerate(layer):
            where = f"topology.layers[{li}][{i}]"
            check_fields(loop, _LAYERED_LOOP_FIELDS, error, where, required=("input_length", *_LOOP_REQUIRED))


def _validate_topology(topo: Optional[dict]) -> None:
    if topo is None:
        return
    if "layers" in topo:
        _check_layers(topo, ConfigError, closed=True)
        loops = [loop for layer in topo["layers"] for loop in layer]
    else:
        loops = [check_fields(topo, _TOPOLOGY_FIELDS, ConfigError, "topology", required=_LOOP_REQUIRED)]
    if any(loop.get("nonlinearity") == "identity" for loop in loops):
        raise ConfigError("topology: 'identity' is a linear test hook, not a valid experiment nonlinearity")


def validate_config(config: dict, require_pipeline: bool = True) -> dict:
    """Validate a config against the closed-world schema; fill defaults.

    Structural checks only — length consistency needs the burst length
    and happens in :func:`datapoint_length` and :func:`build_topology`.
    With ``require_pipeline`` false, only the dataset section is mandatory
    (the ``generate`` command's case).
    """
    required = ("dataset", "transforms", "topology") if require_pipeline else ("dataset",)
    cfg = copy.deepcopy(check_fields(config, _CONFIG_FIELDS, ConfigError, "config", required))
    cfg["dataset"] = _validate_dataset(cfg["dataset"])
    if "transforms" in cfg:
        _validate_transforms(cfg["transforms"])
    if "topology" in cfg:
        _validate_topology(cfg["topology"])
    for section, table in (("ridge", RIDGE_FIELDS), ("sweep", _SWEEP_FIELDS)):
        if section in cfg:
            check_fields(cfg[section], table, ConfigError, section)
    if "hyperopt" in cfg:
        cfg["hyperopt"] = _validate_hyperopt(cfg["hyperopt"])
    cfg.setdefault("ridge", {}).setdefault("lam", 1e-3)
    cfg.setdefault("seed", 0)
    return cfg


# ---------------------------------------------------------------------------
# resolution: configs -> concrete pipeline objects
# ---------------------------------------------------------------------------


def datapoint_length(specs: Sequence[TransformSpec], burst_len: int) -> int:
    """Concatenated output length of the transform list; ConfigError if any
    transform is incompatible with the burst length."""
    total = 0
    for spec in specs:
        try:
            total += spec.output_length(burst_len)
        except ValueError as exc:
            raise ConfigError(f"transform {spec.kind}: {exc}") from exc
    return total


def _layered(topo_cfg: dict, length: int) -> dict:
    """A checked topology config in the layered form, without drawing
    masks; ConfigError if it does not fit datapoints of ``length`` values.
    A compact config is one layer of ``k`` equal loops, loop ``i`` with
    mask seed ``mask_seed + i``."""
    if "layers" in topo_cfg:
        layers = topo_cfg["layers"]
        consumed = sum(loop["input_length"] for loop in layers[0])
        if consumed != length:
            raise ConfigError(f"topology consumes {consumed} values, datapoint has {length}")
    else:
        k = topo_cfg.get("k", 1)
        if length % k != 0 and not topo_cfg.get("pad_to_multiple", False):
            raise ConfigError(
                f"k={k} does not divide datapoint length {length}; set pad_to_multiple to zero-pad explicitly"
            )
        loop = {name: value for name, value in topo_cfg.items() if name not in ("k", "combiner", "pad_to_multiple")}
        seed = loop.pop("mask_seed", LoopSpec.mask_seed)
        layers = [[{**loop, "input_length": -(-length // k), "mask_seed": seed + i} for i in range(k)]]
    return {"layers": layers, "combiner": topo_cfg.get("combiner", TopologySpec.combiner)}


def _check_lengths(cfg: dict, burst_len: int) -> None:
    """ConfigError unless a checked config's transforms fit bursts of
    ``burst_len`` values and its topology fits their datapoints."""
    length = datapoint_length(_validate_transforms(cfg["transforms"]), burst_len)
    if cfg["topology"] is not None:
        _layered(cfg["topology"], length)


def build_topology(topo_cfg: Optional[dict], input_length: int) -> Optional[TopologySpec]:
    """Build a TopologySpec from a validated config against a known
    datapoint length.

    The spec's ``input_length`` exceeds ``input_length`` when
    ``pad_to_multiple`` zero-pads a datapoint.  A null config is the
    no-reservoir baseline: ``None``.
    """
    if topo_cfg is None:
        return None
    try:
        return topology_from_dict(_layered(topo_cfg, input_length))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid topology: {exc}") from exc


def topology_to_dict(topo: TopologySpec) -> dict:
    return {
        "combiner": topo.combiner,
        "layers": [
            [
                {"input_length": length, **asdict(spec), "filter_taps": list(spec.filter_taps)}
                for spec, length in zip(bank.loops, bank.input_lengths)
            ]
            for bank in topo.layers
        ],
    }


def topology_from_dict(data: dict, mask: Optional[Callable[[int, int], np.ndarray]] = None) -> TopologySpec:
    """Inverse of :func:`topology_to_dict`; a loop may omit ``filter_taps``.

    ``mask(layer, loop)``, when given, supplies each loop's stored mask
    values; otherwise masks are generated from the loop seeds.  Raises
    ``ValueError`` on a malformed description.
    """
    _check_layers(data, ValueError, closed=False)
    banks = []
    for li, layer in enumerate(data["layers"]):
        loops = tuple(LoopSpec(**{name: v for name, v in loop.items() if name != "input_length"}) for loop in layer)
        masks = None if mask is None else tuple(Mask(values=mask(li, i)) for i in range(len(loops)))
        banks.append(LoopBank(loops, tuple(loop["input_length"] for loop in layer), masks))
    return TopologySpec(layers=tuple(banks), combiner=data["combiner"])


def _burst_length_of(cfg: dict) -> int:
    ds = cfg["dataset"]
    if ds["kind"] == "iq_file":
        return iq_burst_length(ds["path"])
    return ds.get("length", synthrf.BURST_LEN)


def load_dataset(ds_cfg: dict) -> LabeledDataset:
    """Generate or load the dataset a config names.

    A malformed section, a value out of its range included, raises
    :class:`ConfigError`; a generator failure (such as a ``spread`` so large
    that the bursts overflow) or an unreadable file raises
    ``StageError("dataset")``.  The generators run with numpy's overflow,
    division and invalid-value warnings silenced, since a burst they
    make non-finite ends in that error.
    """
    ds_cfg = _validate_dataset(ds_cfg)
    kind = ds_cfg.pop("kind")
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if kind == "sei":
                return synthrf.make_sei_dataset(**ds_cfg)
            if kind == "wiprec":
                return synthrf.make_wiprec_dataset(**ds_cfg)
        return dataset_from_iq_file(**ds_cfg)
    except (DataFormatError, ValueError, ArithmeticError) as exc:
        raise StageError("dataset", exc) from exc


def dataset_to_iq_file(ds: LabeledDataset, path: PathLike) -> None:
    """Persist a labeled dataset (bursts, labels, split, provenance)."""
    write_iq_file(
        path,
        ds.bursts,
        ds.sample_rate,
        labels=ds.labels.tolist(),
        label_names=list(ds.label_names),
        meta={
            "generator": ds.meta,
            "train_idx": ds.train_idx.tolist(),
            "test_idx": ds.test_idx.tolist(),
        },
    )


# The fields of an I/Q sidecar's ``meta`` that :func:`dataset_to_iq_file`
# writes and :func:`dataset_from_iq_file` reads back.
_SPLIT_FIELDS = {"generator": OBJECT, "train_idx": _INTEGERS, "test_idx": _INTEGERS}


def dataset_from_iq_file(path: PathLike) -> LabeledDataset:
    """Load a labeled dataset from an I/Q file.

    The stored split is reused when present; otherwise a fresh
    stratified 80/20 split is drawn from seed 0.  The bursts are
    the read-only complex64 array :func:`read_iq_samples` decodes, kept
    as read: the dataset holds the capture at its size on file.
    """
    samples, sidecar = read_iq_samples(path)
    if sidecar.get("labels") is None:
        raise DataFormatError(f"{path}: dataset has no labels; cannot train on it")
    labels = np.asarray(sidecar["labels"], dtype=np.int64)
    names = sidecar.get("label_names")
    if names is None:
        names = [f"class_{c}" for c in range(int(labels.max()) + 1)]
    meta = check_fields(sidecar.get("meta", {}), _SPLIT_FIELDS, DataFormatError, f"{path}: sidecar.meta", closed=False)
    if "train_idx" in meta and "test_idx" in meta:
        train_idx = np.asarray(meta["train_idx"], dtype=np.int64)
        test_idx = np.asarray(meta["test_idx"], dtype=np.int64)
    else:
        train_idx, test_idx = stratified_split(labels, 0)
    return LabeledDataset(
        bursts=samples,
        labels=labels,
        label_names=tuple(names),
        train_idx=train_idx,
        test_idx=test_idx,
        sample_rate=sidecar["sample_rate"],
        meta={**meta.get("generator", {}), "source": str(path)},
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


#: Upper bound on the burst values one block of :func:`transform_rows`
#: widens and transforms at a time: 1 MiB of complex128, 64 bursts of
#: 1024 samples.  On a 2-core AVX-512 Xeon, on 2500 bursts of 1024,
#: blocks of 2**14 to 2**17 values ran every transform kind at the same
#: speed within the timing noise, and transforming the whole batch at
#: once ran about twice as slow and took 20 to 40 times the
#: temporaries.
TRANSFORM_BLOCK_VALUES = 2**16


def transform_rows(
    bursts: np.ndarray,
    specs: Sequence[TransformSpec],
    profile: Optional[MeanAmplitudeProfile] = None,
) -> np.ndarray:
    """Apply the transform list to (B, L) complex bursts: a (B, M) real
    array, each row the transforms' outputs concatenated.

    The bare kernels of :mod:`looprc.transforms` compute in their
    input's precision, so callers with complex64 samples (an I/Q file as
    read, for inference or training) go through here, which widens them
    to complex128.  The bursts run in blocks of whole bursts of at most
    :data:`TRANSFORM_BLOCK_VALUES` samples (at least one burst), each
    widened and its outputs written into its slice of one preallocated
    output, so a batch of any size takes the output plus one block's
    temporaries, and the rows equal those of the whole batch widened at
    once.  A transform that does not fit L raises ConfigError.  Numpy's
    overflow and invalid-value warnings are silenced: a non-finite row
    is reported by the stage that reads it.
    """
    bursts = np.asarray(bursts)
    width = datapoint_length(specs, bursts.shape[1])
    out = np.empty((len(bursts), width))
    block = max(1, TRANSFORM_BLOCK_VALUES // max(1, bursts.shape[1]))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(bursts), block):
                part = np.asarray(bursts[start : start + block], dtype=np.complex128)
                np.concatenate([s.apply(part, profile) for s in specs], axis=1, out=out[start : start + len(part)])
    except Exception as exc:
        raise StageError("transform", exc) from exc
    return out


def _noisy(topo: Optional[TopologySpec]) -> bool:
    """Whether some loop of ``topo`` draws noise from the run seed."""
    return topo is not None and any(spec.noise_std > 0 for bank in topo.layers for spec in bank.loops)


#: Upper bound on the loop states one block of :func:`compute_states`
#: holds per layer, and so on the values of each (R, N) buffer of its
#: ``run_loop`` calls: 512 KiB of float64, 54 datapoints of a k=4, N=300
#: bank.  On a 2-core AVX-512 Xeon, blocks of 2**14 to 2**18 states ran
#: at the same speed per datapoint within the timing noise, and blocks of
#: 2**19 and 2**20 ran about 30% slower on that bank.
STATE_BLOCK_VALUES = 2**16


# A cgroup's CPU quota: cgroup v2's "<quota> <period>" file, else cgroup v1's two files.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _cpu_quota() -> Optional[int]:
    """ceil(quota / period) CPUs of this process's cgroup quota; None
    without a quota ("max" or -1) or a readable, well-formed file."""
    try:
        try:
            fields = Path(_CPU_MAX).read_text().split()
        except OSError:
            fields = [Path(name).read_text() for name in (_CFS_QUOTA, _CFS_PERIOD)]
        quota, period = map(int, fields)
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


@functools.cache
def _usable_cpus() -> int:
    """The affinity mask's CPUs, else the CPU count, at most the cgroup quota, once per process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _cpu_quota() or cpus)


def compute_states(
    rows: np.ndarray,
    topo: Optional[TopologySpec],
    run_seed: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """State vectors for a batch of datapoints.

    A null topology passes rows through unchanged (the ridge baseline).
    Rows shorter than ``topo.input_length`` (a topology built with
    ``pad_to_multiple``) are zero-padded to it here.  Rows are
    independent, so the batch runs in blocks of consecutive datapoints,
    each written into its slice of one preallocated output: at most
    :data:`STATE_BLOCK_VALUES` loop states per layer, and no more than an
    even share of the rows among min(:func:`_usable_cpus`, blocks)
    workers, which run the blocks in parallel.  ``threads``, when given,
    caps that count; ``threads=1`` measures no CPUs.  A batch of any size
    therefore takes the output plus one block's ``run_loop`` buffers per
    worker, and the output is identical for any worker count.  Loop
    noise, when a loop spec asks for it, draws from per-(datapoint,
    layer, loop) streams derived from ``run_seed`` and the datapoint's
    index i in the whole batch, through the one cached link
    :func:`looprc.reservoir.noise_seed`: the datapoint's seed is
    ``noise_seed(run_seed, 929, i)``.  A noise-free
    topology derives no seeds.  A loop call whose noise fits one block
    reuses the block of the call before it when their seeds match (see
    :func:`looprc.reservoir.run_loop`).  Calls of one datapoint, as
    streamed inference makes, all put it at index 0: after the first
    they derive no seed, and where a topology's noisy loops all run in
    one ``run_loop`` call (one layer of equal loops) they draw no noise.
    A non-finite row is a ``reservoir`` StageError, topology or not.
    ``threads`` is None or follows the config's ``threads`` rule, an
    integer >= 1: anything else, ``2.0`` or ``True`` included, is a
    ValueError.
    """
    what, ok = _CONFIG_FIELDS["threads"]
    if threads is not None and not ok(threads):
        raise ValueError(f"threads must be {what}, got {threads!r}")
    rows = np.asarray(rows, dtype=np.float64)
    if topo is None:
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise StageError("reservoir", ValueError("row entries must be finite"), datapoint=int(bad[0]))
        return rows
    noisy = _noisy(topo)
    width = max(sum(bank.output_lengths) for bank in topo.layers)
    cpus = 1 if threads == 1 else _usable_cpus()
    workers = cpus if threads is None else min(threads, cpus)
    block = max(1, min(STATE_BLOCK_VALUES // width, -(-len(rows) // workers)))
    pad = topo.input_length - rows.shape[1]
    out = np.empty((len(rows), topo.output_length))

    def run(start: int) -> None:
        part = rows[start : start + block]
        if pad > 0:
            part = np.pad(part, ((0, 0), (0, pad)))
        seeds = None
        if noisy:
            seeds = [noise_seed(run_seed, 929, i) for i in range(start, start + len(part))]
        try:
            out[start : start + len(part)] = run_topology(part, topo, seeds)
        except Exception as exc:
            # Name the first failing datapoint and its own error, as a run
            # of one datapoint after another would meet them.
            for b in range(len(part)):
                try:
                    run_topology(part[b : b + 1], topo, None if seeds is None else seeds[b : b + 1])
                except Exception as first:
                    raise StageError("reservoir", first, datapoint=start + b) from first
            raise StageError("reservoir", exc, datapoint=start) from exc

    starts = range(0, len(rows), block)
    if workers == 1 or len(starts) < 2:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            list(pool.map(run, starts))  # raises the lowest failing block's error
    return out


# ---------------------------------------------------------------------------
# model artifact
# ---------------------------------------------------------------------------

MODEL_KIND = "looprc-model"

# The model header fields :meth:`ModelArtifact.load` requires besides
# ``ridge``; headers may hold keys it does not read.
_HEADER_FIELDS = {
    "topology": or_null(OBJECT),
    "transforms": ("a list of objects", lambda v: type(v) is list and all(type(t) is dict for t in v)),
    "label_names": STRINGS,
    "burst_length": at_least(1),
    "eff_length": INTEGER,
}


@dataclass
class ModelArtifact:
    """Everything inference needs, in one self-contained object.

    The topology's masks are stored by explicit value (not regenerated
    from seeds), so a model file keeps working even if mask generation
    ever changes.  Building an artifact checks that its parts agree: a
    profile of ``burst_length`` values is present exactly when a
    transform needs one, the transforms' datapoint fits the topology's
    input (shorter only by the padding :func:`build_topology` makes), and
    the readout takes as many states as the topology gives.
    """

    topology: Optional[TopologySpec]
    transforms: list[TransformSpec]
    profile: Optional[MeanAmplitudeProfile]
    model: RidgeModel
    burst_length: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = datapoint_length(self.transforms, self.burst_length)
        need = self.burst_length if any(spec.needs_profile() for spec in self.transforms) else 0
        have = 0 if self.profile is None else len(self.profile)
        if have != need:
            raise ValueError(f"mean amplitude profile has {have} values, its transforms need {need}")
        if self.topology is not None:
            # The padding build_topology makes: k loops that read ceil(width / k) values each.
            consumed, first = self.topology.input_length, self.topology.layers[0]
            padded = all(length == -(-width // first.k) for length in first.input_lengths)
            if consumed != width and not padded:
                raise ValueError(f"transforms give {width} values per datapoint, topology consumes {consumed}")
            width = self.topology.output_length
        if self.model.n_features != width:
            raise ValueError(
                f"model readout takes {self.model.n_features} states, its transforms and topology give {width}"
            )

    def _input_length(self) -> int:
        """The padded datapoint length the states are computed from."""
        if self.topology is None:
            return datapoint_length(self.transforms, self.burst_length)
        return self.topology.input_length

    def save(self, path: PathLike) -> None:
        header = {
            "kind": MODEL_KIND,
            "topology": None if self.topology is None else topology_to_dict(self.topology),
            "transforms": [t.to_dict() for t in self.transforms],
            "ridge": {"lam": self.model.lam},
            "label_names": list(self.model.label_map),
            "burst_length": self.burst_length,
            "eff_length": self._input_length(),
            "metadata": self.metadata,
        }
        arrays: dict[str, np.ndarray] = {"weights": self.model.weights}
        if self.profile is not None:
            arrays["profile"] = self.profile.values
        if self.topology is not None:
            for li, layer in enumerate(self.topology.masks()):
                for i, mask in enumerate(layer):
                    arrays[f"mask_{li}_{i}"] = mask.values
        write_container(path, header, arrays)

    @classmethod
    def load(cls, path: PathLike) -> "ModelArtifact":
        header, arrays = read_container(path)
        if header.get("kind") != MODEL_KIND:
            raise ArtifactError(f"{path}: container is not a model (kind={header.get('kind')!r})")
        where = f"{path}: header"
        check_fields(header, _HEADER_FIELDS, ArtifactError, where, (*_HEADER_FIELDS, "ridge"), closed=False)
        ridge = check_fields(header["ridge"], RIDGE_FIELDS, ArtifactError, f"{where}.ridge", ("lam",), closed=False)
        metadata = header.get("metadata", {})
        check_fields(metadata, {"seed": at_least(0)}, ArtifactError, f"{where}.metadata", closed=False)
        try:
            topo = header["topology"]
            artifact = cls(
                topology=None if topo is None else topology_from_dict(topo, lambda li, i: arrays[f"mask_{li}_{i}"]),
                transforms=[TransformSpec.from_dict(t) for t in header["transforms"]],
                profile=MeanAmplitudeProfile(values=arrays["profile"]) if "profile" in arrays else None,
                model=RidgeModel(weights=arrays["weights"], lam=ridge["lam"], label_map=tuple(header["label_names"])),
                burst_length=header["burst_length"],
                metadata=metadata,
            )
        except (KeyError, ValueError, TypeError, ConfigError) as exc:
            raise ArtifactError(f"{path}: malformed model: {exc}") from exc
        length = artifact._input_length()
        if header["eff_length"] != length:
            raise ArtifactError(f"{path}: header eff_length {header['eff_length']} != padded datapoint length {length}")
        return artifact

    def states_for(self, samples: np.ndarray) -> np.ndarray:
        """State vectors of (B, L) complex bursts, on every usable CPU:
        :func:`compute_states` with no ``threads`` cap."""
        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise DataFormatError(f"bursts must be a (B, L) array, got shape {samples.shape}")
        if samples.shape[1] != self.burst_length:
            raise DataFormatError(f"bursts have {samples.shape[1]} samples, model expects {self.burst_length}")
        rows = transform_rows(samples, self.transforms, self.profile)
        return compute_states(rows, self.topology, self.metadata.get("seed", 0))

    def predict_bursts(self, bursts: Sequence[IQBurst]) -> tuple[list[str], np.ndarray]:
        """Labels and raw scores for a batch of bursts of one length."""
        lengths = sorted({len(b) for b in bursts})
        if len(lengths) != 1:
            raise DataFormatError(f"need bursts of one length, got lengths {lengths}")
        return self.predict(np.stack([b.samples for b in bursts]))

    def predict(self, samples: np.ndarray) -> tuple[list[str], np.ndarray]:
        """Labels and raw scores for (B, L) complex bursts, such as the
        samples :func:`~looprc.ioformats.read_iq_samples` returns."""
        values = classifier.scores(self.model, self.states_for(samples))
        return [self.model.label_map[i] for i in np.argmax(values, axis=1)], values


# ---------------------------------------------------------------------------
# training / inference / sweeps
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    artifact: ModelArtifact
    metrics: Metrics
    metrics_doc: dict
    train_seconds: float


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def metrics_to_json(doc: dict) -> str:
    """Canonical serialization of a metrics document or a config: sorted keys, NaN as null."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _topology_stage(cfg: dict, out: dict) -> dict:
    specs = _validate_transforms(cfg["transforms"])
    burst_len = _burst_length_of(cfg)
    length = datapoint_length(specs, burst_len)
    return {"specs": specs, "burst_len": burst_len, "length": length, "topo": build_topology(cfg["topology"], length)}


def _dataset_stage(cfg: dict, out: dict) -> dict:
    ds = load_dataset(cfg["dataset"])
    if ds.train_idx.size == 0 or ds.test_idx.size == 0:
        split = f"{ds.train_idx.size} train and {ds.test_idx.size} test bursts"
        raise StageError("dataset", ValueError(f"split has {split}; both need at least one"))
    if ds.bursts.shape[1] != out["burst_len"]:
        raise StageError("dataset", ValueError(f"burst length {ds.bursts.shape[1]} != configured {out['burst_len']}"))
    return {"ds": ds, "label_names": ds.label_names, "dataset_hash": ds.content_hash()}


def _rows_stage(cfg: dict, out: dict) -> dict:
    ds, specs = out["ds"], out["specs"]
    train_bursts, _ = ds.subset(ds.train_idx)
    t0 = time.perf_counter()
    profile = compute_mean_amplitude(train_bursts) if any(s.needs_profile() for s in specs) else None
    train_rows = transform_rows(train_bursts, specs, profile)
    seconds = time.perf_counter() - t0
    del train_bursts  # a copy of the split's bursts; the rows need not hold it
    test_rows = transform_rows(ds.subset(ds.test_idx)[0], specs, profile)
    return {"profile": profile, "train_rows": train_rows, "test_rows": test_rows, "rows_seconds": seconds}


def _states_stage(cfg: dict, out: dict) -> dict:
    ds, topo = out["ds"], out["topo"]

    def design(rows: np.ndarray, idx: np.ndarray, stage: str) -> DesignMatrix:
        states = compute_states(rows, topo, cfg["seed"], cfg.get("threads"))
        try:
            return DesignMatrix(rows=states, labels=ds.labels[idx], class_count=ds.n_classes)
        except ValueError as exc:
            raise StageError(stage, exc) from exc

    t0 = time.perf_counter()
    train = design(out["train_rows"], ds.train_idx, "train")
    train.normal_equations  # the Gram build is shared by every λ of the point
    seconds = time.perf_counter() - t0
    return {"train": train, "test": design(out["test_rows"], ds.test_idx, "evaluate"), "states_seconds": seconds}


#: The stages up to the ridge solve, in order: name, the config sections
#: read, and a function of the config and the earlier stages' outputs.
#: ``topology`` reads no data, so config errors come first.  ``rows`` and
#: ``states`` time their training split; ``states`` reads ``seed`` only
#: for a :func:`_noisy` topology.
_STAGES = (
    ("topology", ("dataset", "transforms", "topology"), _topology_stage),
    ("dataset", ("dataset",), _dataset_stage),
    ("rows", ("dataset", "transforms"), _rows_stage),
    ("states", ("dataset", "transforms", "topology", "seed"), _states_stage),
)
_STATES_SECTIONS = _STAGES[-1][1]


def _key(cfg: dict, sections: Sequence[str]) -> str:
    """Canonical JSON of a checked config's ``sections``."""
    return json.dumps({name: cfg[name] for name in sections}, sort_keys=True)


#: Stage outputs that only later stages read, not :func:`_fit`.
_STAGE_INPUTS = ("ds", "train_rows", "test_rows")


class _Stages:
    """:data:`_STAGES` with one memo slot each: a stage's output and the
    sections it read.  A call drops every slot that misses before it runs
    any stage, so memory never holds two points' states."""

    def __init__(self) -> None:
        self.slots: dict[str, tuple[list, str, dict]] = {}

    def __call__(self, cfg: dict) -> dict:
        """The stages' outputs for a checked config, in one dict without
        :data:`_STAGE_INPUTS`: only the slots hold those, so a one-shot
        run frees the samples and rows before the solve."""
        self.slots = {name: slot for name, slot in self.slots.items() if _key(cfg, slot[0]) == slot[1]}
        out: dict = {}
        for name, sections, stage in _STAGES:
            if name not in self.slots:
                reads = [s for s in sections if s != "seed" or _noisy(out["topo"])]
                self.slots[name] = (reads, _key(cfg, reads), stage(cfg, out))
            out.update(self.slots[name][2])
        return {name: value for name, value in out.items() if name not in _STAGE_INPUTS}


def _fit(out: dict, lam: float, seed: int) -> TrainResult:
    """Ridge solve at a checked ``lam`` on the outputs of :class:`_Stages`,
    evaluation, metrics and artifact; ``seed`` is the point's run seed."""
    train, test, label_names = out["train"], out["test"], out["label_names"]
    t0 = time.perf_counter()
    try:
        model = train_ridge(train, lam=lam, label_map=label_names)
    except (LoopRCError, ValueError) as exc:
        raise StageError("train", exc) from exc
    train_seconds = out["rows_seconds"] + out["states_seconds"] + time.perf_counter() - t0
    try:
        metrics = evaluate(model, test)
    except (LoopRCError, ValueError) as exc:
        raise StageError("evaluate", exc) from exc

    n_classes = len(label_names)
    n_state = train.n_features
    # The facts both the metrics document and the model metadata state.
    shared = {
        "accuracy": metrics.accuracy,
        "seed": seed,
        "dataset_hash": out["dataset_hash"],
        "state_length": n_state,
        "trainable_params": trainable_params(n_state, n_classes),
        "training_macs": training_macs(train.n_rows, n_state, n_classes),
    }
    metrics_doc = {
        **shared,
        "per_class_accuracy": metrics.per_class_accuracy,
        "confusion": metrics.confusion,
        "n_train": train.n_rows,
        "n_test": test.n_rows,
        "label_names": list(label_names),
        "lambda": lam,
        "datapoint_length": out["length"],
        "transforms": [t.to_dict() for t in out["specs"]],
        "topology": None if out["topo"] is None else topology_to_dict(out["topo"]),
    }
    metadata = {**shared, "train_seconds": train_seconds, "n_classes": n_classes}
    artifact = ModelArtifact(out["topo"], out["specs"], out["profile"], model, out["burst_len"], metadata)
    return TrainResult(artifact, metrics, metrics_doc, train_seconds)


def run_training(config: dict, out_dir: Optional[PathLike] = None) -> TrainResult:
    """Full training pass: data → transforms → loops → ridge → metrics.

    Runs the stages once, with fresh slots.  Returns the model artifact,
    test-split metrics, the deterministic metrics document, and the
    training wall time (the training split's profile, transform, states,
    Gram and solve; topology, data loading and evaluation excluded).
    With ``out_dir``, writes ``model.lrcm`` and ``metrics.json`` there.
    The solve runs after the dataset's samples and rows are freed.
    """
    cfg = validate_config(config)
    out = None if out_dir is None else make_output_dir(out_dir)
    result = _fit(_Stages()(cfg), cfg["ridge"]["lam"], cfg["seed"])
    if out is not None:
        result.artifact.save(out / "model.lrcm")
        write_output(out / "metrics.json", metrics_to_json(result.metrics_doc), "metrics file")
    return result


def run_inference(
    model_path: PathLike,
    iq_path: PathLike,
    out_path: Optional[PathLike] = None,
) -> tuple[list[str], np.ndarray]:
    """Load a model and classify every burst in an I/Q file, on the usable CPUs.

    Returns (labels, score matrix); optionally writes a CSV with one row
    per burst.  Scores are bit-identical across runs on the same files.
    """
    if out_path is not None:
        check_output_path(out_path, "predictions CSV")
    artifact = ModelArtifact.load(model_path)
    samples, _ = read_iq_samples(iq_path)
    labels, scores = artifact.predict(samples)
    if out_path is not None:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["burst", "label"] + [f"score_{name}" for name in artifact.model.label_map])
        for i, label in enumerate(labels):
            writer.writerow([i, label] + [repr(float(s)) for s in scores[i]])
        write_output(out_path, text.getvalue(), "predictions CSV")
    return labels, scores


def _sweep_row(cfg: dict, result: TrainResult) -> dict:
    topo = result.artifact.topology
    n_nodes, k = ("", "") if topo is None else (topo.layers[0].loops[0].n_nodes, topo.layers[0].k)
    specs = result.artifact.transforms
    d = ""
    for s in specs:
        if s.kind == "decimated_dft":
            d = s.params.get("d", 1)
    return {
        "transform": "+".join(s.kind for s in specs),
        "n_nodes": n_nodes,
        "k": k,
        "d": d,
        "lambda": cfg["ridge"]["lam"],
        "seed": cfg["seed"],
        "accuracy": result.metrics.accuracy,
        "trainable_params": result.metrics_doc["trainable_params"],
        "training_macs": result.metrics_doc["training_macs"],
        "train_seconds": round(result.train_seconds, 6),
    }


def run_sweep(config: dict, out_path: Optional[PathLike] = None) -> list[dict]:
    """Cartesian sweep over the axes in ``config["sweep"]``.

    Every combination of (transform, d, n_nodes, k, λ, seed) trains a
    model; one result row per combination, in that nesting order (seed
    innermost) and the fixed :data:`SWEEP_COLUMNS` column order.  Axes
    absent from the config keep the base value, so an empty sweep section
    reduces to one run_training.  Every point's lengths are checked
    before the first trial.  The points share one :class:`_Stages`, so
    the dataset loads once, rows are computed once per transform list
    and states once per point apart from λ (and the seed, if noise-free);
    ``train_seconds`` counts the reused stages' recorded time and the
    point's own solve.
    """
    cfg = validate_config(config)
    sweep = cfg.pop("sweep", {}) or {}
    axes = [axis for axis in _SWEEP_FIELDS if axis in sweep]
    points = []
    for values in itertools.product(*(sweep[axis] for axis in axes)):
        point = dict(zip(axes, values))
        seed = point.pop("seeds", cfg["seed"])
        sub = apply_hyperparams(cfg, point)
        sub["seed"] = seed
        points.append(sub)
    burst_len = _burst_length_of(cfg)
    for sub in points:  # every point's lengths, before any trial
        _check_lengths(sub, burst_len)
    if out_path is not None:
        check_output_path(out_path, "sweep CSV")

    # Points that share their states run one after another, so that the
    # one states slot computes them once; rows keep the point order.
    stages = _Stages()
    rows: list[dict] = [{} for _ in points]
    for i in grouped_order([_key(sub, _STATES_SECTIONS) for sub in points]):
        rows[i] = _sweep_row(points[i], _fit(stages(points[i]), points[i]["ridge"]["lam"], points[i]["seed"]))
    if out_path is not None:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(SWEEP_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
        write_output(out_path, text.getvalue(), "sweep CSV")
    return rows


# The metrics fields :func:`report_fom` reads; metrics files hold others too.
_REPORT_FIELDS = {
    "label_names": LIST,
    **dict.fromkeys(("state_length", "trainable_params", "training_macs"), INTEGER),
    "accuracy": NUMBER,
}


def report_fom(metrics: dict, train_seconds: Optional[float] = None) -> str:
    """Figure-of-merit table for one trained model.

    Prints the measured numbers next to this method's published
    reference reductions versus large trained models (parameter count,
    training MACs, training latency) so readers can compare scales.
    Raises :class:`~looprc.errors.DataFormatError` when a field it reads
    has the wrong type.
    """
    check_fields(metrics, _REPORT_FIELDS, DataFormatError, "metrics", closed=False)
    if train_seconds is not None and not NUMBER[1](train_seconds):
        raise DataFormatError(f"train_seconds must be {NUMBER[0]}, got {train_seconds!r}")
    lines = ["figure-of-merit report", "----------------------"]
    rows = [
        ("classes", len(metrics.get("label_names", [])) or "?"),
        ("state length", metrics.get("state_length", "?")),
        ("trainable params", metrics.get("trainable_params", "?")),
        ("training MACs", metrics.get("training_macs", "?")),
        ("test accuracy", metrics.get("accuracy", "?")),
    ]
    if train_seconds is not None:
        rows.append(("training latency", f"{train_seconds:.3f} s"))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        lines.append(f"  {name:<{width}}  {value}")
    lines.append("reference reductions vs large trained models (published constants):")
    lines.append(f"  trainable params  {REFERENCE_PARAMS_REDUCTION}x")
    lines.append(f"  training MACs     {REFERENCE_MACS_REDUCTION}x")
    lines.append(f"  training latency  >= {REFERENCE_LATENCY_REDUCTION}x")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hyperparameter search over configs
# ---------------------------------------------------------------------------

# Each hyperopt.space domain type: its constructor, fields, required
# fields and the values to check as the config field it replaces (a real
# domain yields floats between its bounds; an integer list is searched as
# its distinct values in increasing order).
_DOMAINS = {
    "real": (Real, {"low": NUMBER, "high": NUMBER, "log": BOOLEAN}, ("low", "high"),
             lambda dom: [float(dom["low"]), float(dom["high"])]),
    "integers": (lambda values: Categorical(tuple(sorted(set(values)))), {"values": _INTEGERS}, ("values",),
                 lambda dom: dom["values"]),
    "categorical": (Categorical, {"options": LIST}, ("options",), lambda dom: dom["options"]),
}


def _check_varied(cfg: dict, names) -> None:
    """ConfigError unless a sweep or search of ``cfg`` may vary ``names``:
    known parameters, not both ``d`` and ``transform``, and a loop field
    only of a non-null, compact topology."""
    if "d" in names and "transform" in names:
        raise ConfigError("vary either 'd' or 'transform', not both")
    topo = cfg.get("topology")
    for name in names:
        if name not in _POINTS:
            raise ConfigError(f"unknown search parameter {name!r}")
        if _POINTS[name][0] == "topology":
            if topo is None:
                raise ConfigError(f"varying '{name}' requires a non-null topology")
            if "layers" in topo:
                raise ConfigError(f"varying '{name}' requires the compact topology form")


def apply_hyperparams(cfg: dict, point: dict) -> dict:
    """Overlay one search or sweep point onto a base config: a new config
    without ``sweep`` and ``hyperopt`` that copies the sections the point
    sets and shares the others with ``cfg``, which stays unchanged."""
    _check_varied(cfg, point)
    out = {key: value for key, value in cfg.items() if key not in ("hyperopt", "sweep")}
    for name, value in point.items():
        section, set_value, _ = _POINTS[name]
        out[section] = set_value(out.get(section), value)
    return out


def build_search_space(cfg: dict) -> SearchSpace:
    """SearchSpace from a config's hyperopt.space section.

    Adds a constraint that rejects points whose derived lengths are
    inconsistent (split count not dividing the datapoint length,
    decimation not dividing the burst length) before the objective ever
    sees them.  A space of parameters that set only the ``ridge`` section
    changes no length: it has no constraint, and a base config whose
    lengths are inconsistent raises :class:`ConfigError` here.
    """
    hcfg = cfg.get("hyperopt") or {}
    domains = dict.fromkeys(sorted(_POINTS), OBJECT)
    space_cfg = check_fields(hcfg.get("space"), domains, ConfigError, "hyperopt.space")
    if not space_cfg:
        raise ConfigError("hyperopt.space must be a non-empty object")
    _check_varied(cfg, space_cfg)
    params = {}
    for name, dom in space_cfg.items():
        where = f"hyperopt.space.{name}"
        check_fields(dom, {"type": one_of(_DOMAINS)}, ConfigError, where, ("type",), closed=False)
        domain, table, required, values = _DOMAINS[dom["type"]]
        check_fields(dom, {"type": STRING, **table}, ConfigError, where, required)
        try:
            params[name] = domain(**{key: value for key, value in dom.items() if key != "type"})
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        what, ok = _POINTS[name][2]
        for value in values(dom):
            if not ok(value):
                raise ConfigError(f"{where}: '{name}' must be {what}, but its {dom['type']} domain yields {value!r}")
    burst_len = _burst_length_of(cfg)
    if all(_POINTS[name][0] == "ridge" for name in params):
        # No point changes a length: check the base config's lengths once.
        _check_lengths(cfg, burst_len)
        return SearchSpace(params=params)

    def lengths_consistent(point: dict) -> bool:
        try:
            _check_lengths(apply_hyperparams(cfg, point), burst_len)
        except ConfigError:
            return False
        return True

    return SearchSpace(params=params, constraints=(lengths_consistent,))


def run_hyperopt(
    config: dict,
    out_path: Optional[PathLike] = None,
    log_path: Optional[PathLike] = None,
) -> tuple[dict, TrialRecord, list[TrialRecord]]:
    """Search hyperparameters; emit the winning config and the trial log.

    The objective is the test-split accuracy of a full training run on
    the config's dataset (fixed stratified split, so the objective is
    deterministic per point).  Trials share one :class:`_Stages`, so a
    trial's logged ``wall_time`` leaves out each stage it reused from the
    trial before it.  The winning config uses the experiment schema,
    ready for ``run_training`` as-is.  When every trial fails, the first
    failure is raised: its own :class:`LoopRCError`, or
    ``StageError("hyperopt")`` around any other exception.
    """
    cfg = validate_config(config)
    if "hyperopt" not in cfg:
        raise ConfigError("config has no 'hyperopt' section")
    settings = {key: value for key, value in cfg["hyperopt"].items() if key not in ("method", "space")}
    space = build_search_space(cfg)
    for path, what in ((out_path, "winning config"), (log_path, "trial log")):
        if path is not None:
            check_output_path(path, what)

    stages = _Stages()

    def states_key(point: dict) -> str:
        return _key(apply_hyperparams(cfg, point), _STATES_SECTIONS)

    def objective(point: dict) -> float:
        sub = apply_hyperparams(cfg, point)
        return _fit(stages(sub), sub["ridge"]["lam"], sub["seed"]).metrics.accuracy

    try:
        if cfg["hyperopt"]["method"] == "grid":
            best, log = grid_search(space, objective, group=states_key, **settings)
        else:
            best, log = bayes_opt(space, objective, **{"seed": cfg["seed"], **settings})
    except RuntimeError as exc:  # every trial failed: the first trial's error is its cause
        failure = exc.__cause__
        if failure is None:
            raise
        if isinstance(failure, LoopRCError):
            raise failure
        raise StageError("hyperopt", failure) from failure
    best_cfg = apply_hyperparams(cfg, best.params)
    if out_path is not None:
        write_output(out_path, metrics_to_json(best_cfg), "winning config")
    if log_path is not None:
        write_trial_log(log_path, log)
    return best_cfg, best, log
