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
import io
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import synthrf
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
    IQBurst, check_output_path, iq_burst_length, make_output_dir, read_container, read_iq_samples, write_container,
    write_iq_file, write_output,
)
from .reservoir import LOOP_FIELDS, LoopSpec, Mask
from .synthrf import LabeledDataset, stratified_split
from .topology import COMBINERS, LoopBank, TopologySpec, run_topology
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
    "iq_file": {"kind": STRING, "path": STRING, "split_seed": at_least(0)},
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
_LAYERED_LOOP_FIELDS = {"input_length": INTEGER, **LOOP_FIELDS}
# The config field each sweep axis or search parameter replaces; its
# values are checked as that field.
_POINT_FIELDS = {
    "transform": ("a transform kind or list", lambda v: type(v) in (str, list)),
    "d": INTEGER,
    "n_nodes": LOOP_FIELDS["n_nodes"],
    "k": _TOPOLOGY_FIELDS["k"],
    "lambda": RIDGE_FIELDS["lam"],
    **{name: LOOP_FIELDS[name] for name in ("input_gain", "loop_gain", "noise_std")},
}
# In the nesting order of sweep points, outermost first.
_SWEEP_FIELDS = {
    **{axis: _each(_POINT_FIELDS[axis]) for axis in ("transform", "d", "n_nodes", "k", "lambda")},
    "seeds": _each(at_least(0)),
}
_HYPEROPT_FIELDS = {
    "method": one_of(("grid", "bayes")),
    **dict.fromkeys(("budget", "levels", "points_per_axis"), at_least(1)),
    "seed": at_least(0),
    "init_points": or_null(at_least(0)),
    "space": OBJECT,
}
_CONFIG_FIELDS = {
    **dict.fromkeys(("dataset", "ridge", "sweep", "hyperopt"), OBJECT),
    "transforms": LIST,
    "topology": or_null(OBJECT),
    "seed": at_least(0),
    "threads": at_least(1),
    "out_dir": STRING,
}


def _validate_dataset(ds: dict) -> dict:
    check_fields(ds, {"kind": one_of(sorted(_DATASET_FIELDS))}, ConfigError, "dataset", ("kind",), closed=False)
    required = ("path",) if ds["kind"] == "iq_file" else ()
    return dict(check_fields(ds, _DATASET_FIELDS[ds["kind"]], ConfigError, "dataset", required))


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
    for section, table in (("ridge", RIDGE_FIELDS), ("sweep", _SWEEP_FIELDS), ("hyperopt", _HYPEROPT_FIELDS)):
        if section in cfg:
            check_fields(cfg[section], table, ConfigError, section)
    cfg.setdefault("ridge", {}).setdefault("lam", 1e-3)
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
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
        seed = loop.pop("mask_seed", 0)
        layers = [[{**loop, "input_length": -(-length // k), "mask_seed": seed + i} for i in range(k)]]
    return {"layers": layers, "combiner": topo_cfg.get("combiner", "sum")}


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
                {"input_length": stop - start, **asdict(spec), "filter_taps": list(spec.filter_taps)}
                for spec, (start, stop) in zip(bank.loops, bank.slices)
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
        loops, slices, pos = [], [], 0
        for loop in layer:
            loop = dict(loop)
            ilen = loop.pop("input_length")
            loops.append(LoopSpec(**loop))
            slices.append((pos, pos + ilen))
            pos += ilen
        masks = None if mask is None else tuple(Mask(values=mask(li, i)) for i in range(len(loops)))
        banks.append(LoopBank(loops=tuple(loops), slices=tuple(slices), masks=masks))
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
    ``StageError("dataset")``.
    """
    ds_cfg = _validate_dataset(ds_cfg)
    kind = ds_cfg.pop("kind")
    try:
        if kind == "sei":
            return synthrf.make_sei_dataset(**ds_cfg)
        if kind == "wiprec":
            return synthrf.make_wiprec_dataset(**ds_cfg)
        return dataset_from_iq_file(ds_cfg["path"], split_seed=ds_cfg.get("split_seed", 0))
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


def dataset_from_iq_file(path: PathLike, split_seed: int = 0) -> LabeledDataset:
    """Load a labeled dataset from an I/Q file.

    The stored split is reused when present; otherwise a fresh
    stratified 80/20 split is drawn from ``split_seed``.
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
        train_idx, test_idx = stratified_split(labels, split_seed)
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


def _profile_for(specs: Sequence[TransformSpec], train_bursts: np.ndarray) -> Optional[MeanAmplitudeProfile]:
    if any(s.needs_profile() for s in specs):
        return compute_mean_amplitude(train_bursts)
    return None


def transform_rows(
    bursts: np.ndarray,
    specs: Sequence[TransformSpec],
    profile: Optional[MeanAmplitudeProfile] = None,
) -> np.ndarray:
    """Apply the transform list to (B, L) complex bursts: a (B, M) real
    array, each row the transforms' outputs concatenated.

    A transform that does not fit L raises ConfigError.
    """
    datapoint_length(specs, bursts.shape[1])
    try:
        return np.concatenate([s.apply(bursts, profile) for s in specs], axis=1)
    except Exception as exc:
        raise StageError("transform", exc) from exc


def _datapoint_noise_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([run_seed, 929, index]).generate_state(1)[0])


def compute_states(
    rows: np.ndarray,
    topo: Optional[TopologySpec],
    run_seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """State vectors for a batch of datapoints.

    A null topology passes rows through unchanged (the ridge baseline).
    Rows shorter than ``topo.input_length`` (a topology built with
    ``pad_to_multiple``) are zero-padded to it here.  Rows are
    independent, so the batch splits into ``threads`` contiguous chunks
    that run in parallel and concatenate in order, making the output
    identical for any thread count.  Loop noise, when a loop spec asks for it, draws from
    per-(datapoint, layer, loop) streams derived from ``run_seed``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if topo is None:
        return np.asarray(rows, dtype=np.float64)
    if rows.shape[1] < topo.input_length:
        rows = np.pad(rows, ((0, 0), (0, topo.input_length - rows.shape[1])))
    seeds = [_datapoint_noise_seed(run_seed, i) for i in range(len(rows))]
    chunk = max(1, -(-len(rows) // threads))

    def run(start: int) -> np.ndarray:
        part, part_seeds = rows[start : start + chunk], seeds[start : start + chunk]
        try:
            return run_topology(part, topo, part_seeds)
        except Exception as exc:
            # Name the first failing datapoint and its own error, as a run
            # of one datapoint after another would meet them.
            for b in range(len(part)):
                try:
                    run_topology(part[b : b + 1], topo, part_seeds[b : b + 1])
                except Exception as first:
                    raise StageError("reservoir", first, datapoint=start + b) from first
            raise StageError("reservoir", exc, datapoint=start) from exc

    starts = range(0, max(len(rows), 1), chunk)
    if len(starts) == 1:
        return run(0)
    with ThreadPoolExecutor(max_workers=len(starts)) as pool:
        return np.concatenate(list(pool.map(run, starts)))


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
    ever changes.  Building an artifact checks that its parts agree: the
    transforms' datapoint fits the topology's input (shorter only by the
    padding :func:`build_topology` makes), and the readout takes as many
    states as the topology gives.
    """

    topology: Optional[TopologySpec]
    transforms: list[TransformSpec]
    profile: Optional[MeanAmplitudeProfile]
    model: RidgeModel
    burst_length: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = datapoint_length(self.transforms, self.burst_length)
        if self.topology is not None:
            # The padding build_topology makes: k slices of ceil(width / k).
            consumed, first = self.topology.input_length, self.topology.layers[0]
            padded = all(stop - start == -(-width // first.k) for start, stop in first.slices)
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

    def states_for(self, samples: np.ndarray, threads: int = 1) -> np.ndarray:
        """State vectors of (B, L) complex bursts."""
        if samples.shape[1] != self.burst_length:
            raise DataFormatError(f"bursts have {samples.shape[1]} samples, model expects {self.burst_length}")
        rows = transform_rows(samples, self.transforms, self.profile)
        return compute_states(rows, self.topology, self.metadata.get("seed", 0), threads)

    def predict_bursts(self, bursts: Sequence[IQBurst], threads: int = 1) -> tuple[list[str], np.ndarray]:
        """Labels and raw scores for a batch of bursts of one length."""
        lengths = sorted({len(b) for b in bursts})
        if len(lengths) != 1:
            raise DataFormatError(f"need bursts of one length, got lengths {lengths}")
        return self._predict(np.stack([b.samples for b in bursts]), threads)

    def _predict(self, samples: np.ndarray, threads: int) -> tuple[list[str], np.ndarray]:
        scores = self.states_for(samples, threads) @ self.model.weights
        return [self.model.label_map[i] for i in np.argmax(scores, axis=1)], scores


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
    """Canonical metrics serialization: sorted keys, NaN as null."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


@dataclass
class _Prepared:
    """A trial's work up to the ridge solve.  None of it depends on λ, so
    trials that differ only in λ can share it."""

    cfg: dict
    specs: list[TransformSpec]
    burst_len: int
    length: int
    topo: Optional[TopologySpec]
    label_names: tuple[str, ...]
    profile: Optional[MeanAmplitudeProfile]
    train: DesignMatrix
    test: DesignMatrix
    dataset_hash: str
    seconds: float  # transforms, states and normal equations of the training split


def _prepare(cfg: dict) -> _Prepared:
    """Resolve a checked config, load its dataset and compute the design
    matrices of both splits."""
    specs = _validate_transforms(cfg["transforms"])
    burst_len = _burst_length_of(cfg)
    length = datapoint_length(specs, burst_len)
    topo = build_topology(cfg["topology"], length)

    ds = load_dataset(cfg["dataset"])
    if ds.train_idx.size == 0 or ds.test_idx.size == 0:
        split = f"{ds.train_idx.size} train and {ds.test_idx.size} test bursts"
        raise StageError("dataset", ValueError(f"split has {split}; both need at least one"))
    if ds.bursts.shape[1] != burst_len:
        raise StageError(
            "dataset",
            ValueError(f"burst length {ds.bursts.shape[1]} != configured {burst_len}"),
        )
    train_bursts, train_labels = ds.subset(ds.train_idx)

    t0 = time.perf_counter()
    profile = _profile_for(specs, train_bursts)
    train_rows = transform_rows(train_bursts, specs, profile)
    del train_bursts  # a copy of the split's bursts; the Gram build need not hold it
    train_states = compute_states(train_rows, topo, cfg["seed"], cfg["threads"])
    try:
        train = DesignMatrix(rows=train_states, labels=train_labels, class_count=ds.n_classes)
    except ValueError as exc:
        raise StageError("train", exc) from exc
    train.normal_equations  # the Gram build is shared by every λ of the group
    seconds = time.perf_counter() - t0

    test_bursts, test_labels = ds.subset(ds.test_idx)
    test_rows = transform_rows(test_bursts, specs, profile)
    test_states = compute_states(test_rows, topo, cfg["seed"], cfg["threads"])
    try:
        test = DesignMatrix(rows=test_states, labels=test_labels, class_count=ds.n_classes)
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc
    return _Prepared(
        cfg, specs, burst_len, length, topo, ds.label_names, profile,
        train, test, ds.content_hash(), seconds,
    )


def _fit(p: _Prepared, lam: float) -> TrainResult:
    """Ridge solve at a checked ``lam``, evaluation, metrics and artifact."""
    t0 = time.perf_counter()
    try:
        model = train_ridge(p.train, lam=lam, label_map=p.label_names)
    except LoopRCError as exc:
        raise StageError("train", exc) from exc
    train_seconds = p.seconds + time.perf_counter() - t0
    try:
        metrics = evaluate(model, p.test)
    except (LoopRCError, ValueError) as exc:
        raise StageError("evaluate", exc) from exc

    n_classes = len(p.label_names)
    n_state = p.train.n_features
    params = trainable_params(n_state, n_classes)
    macs = training_macs(p.train.n_rows, n_state, n_classes)
    metrics_doc = {
        "accuracy": metrics.accuracy,
        "per_class_accuracy": metrics.per_class_accuracy,
        "confusion": metrics.confusion,
        "n_train": p.train.n_rows,
        "n_test": p.test.n_rows,
        "label_names": list(p.label_names),
        "lambda": lam,
        "seed": p.cfg["seed"],
        "datapoint_length": p.length,
        "state_length": n_state,
        "trainable_params": params,
        "training_macs": macs,
        "transforms": [t.to_dict() for t in p.specs],
        "topology": None if p.topo is None else topology_to_dict(p.topo),
        "dataset_hash": p.dataset_hash,
    }
    artifact = ModelArtifact(
        topology=p.topo,
        transforms=p.specs,
        profile=p.profile,
        model=model,
        burst_length=p.burst_len,
        metadata={
            "seed": p.cfg["seed"],
            "dataset_hash": p.dataset_hash,
            "accuracy": metrics.accuracy,
            "train_seconds": train_seconds,
            "trainable_params": params,
            "training_macs": macs,
            "n_classes": n_classes,
            "state_length": n_state,
        },
    )
    return TrainResult(artifact, metrics, metrics_doc, train_seconds)


def _prepare_key(cfg: dict) -> str:
    """Canonical JSON of a config without its ``ridge`` section."""
    return json.dumps({k: v for k, v in cfg.items() if k != "ridge"}, sort_keys=True)


def _one_entry_memo() -> Callable[[dict], _Prepared]:
    """:func:`_prepare` memoised for the trials of one sweep or search.

    It holds one entry, so memory holds at most one set of states;
    trials that share a :func:`_prepare_key` should run one after another.
    """
    memo: dict[str, _Prepared] = {}

    def prepared(cfg: dict) -> _Prepared:
        key = _prepare_key(cfg)
        if key not in memo:
            memo.clear()
            memo[key] = _prepare(cfg)
        return memo[key]

    return prepared


def run_training(config: dict, out_dir: Optional[PathLike] = None) -> TrainResult:
    """Full training pass: data → transforms → loops → ridge → metrics.

    Returns the self-contained model artifact, evaluation metrics on the
    held-out split, the deterministic metrics document, and the training
    wall time (transforms + state computation + solve for the training
    split; data generation and evaluation excluded).  With ``out_dir``
    (or ``out_dir`` in the config), writes ``model.lrcm`` and
    ``metrics.json`` there.
    """
    cfg = validate_config(config)
    out = out_dir if out_dir is not None else cfg.get("out_dir")
    if out is not None:
        out = make_output_dir(out)
    prepared = _prepare(cfg)
    result = _fit(prepared, cfg["ridge"]["lam"])
    if out is not None:
        result.artifact.save(out / "model.lrcm")
        write_output(out / "metrics.json", metrics_to_json(result.metrics_doc), "metrics file")
    return result


def run_inference(
    model_path: PathLike,
    iq_path: PathLike,
    out_path: Optional[PathLike] = None,
    threads: int = 1,
) -> tuple[list[str], np.ndarray]:
    """Load a model and classify every burst in an I/Q file.

    Returns (labels, score matrix); optionally writes a CSV with one row
    per burst.  Scores are bit-identical across runs on the same files.
    """
    if out_path is not None:
        check_output_path(out_path, "predictions CSV")
    artifact = ModelArtifact.load(model_path)
    samples, _ = read_iq_samples(iq_path)
    labels, scores = artifact._predict(samples, threads)
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
    before the first trial.  Points that differ only in λ share one
    dataset, transform and state computation; a row's ``train_seconds``
    is that shared time plus the point's own solve.
    """
    cfg = validate_config(config)
    sweep = cfg.pop("sweep", {}) or {}
    cfg.pop("out_dir", None)
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

    # Points that differ only in λ run one after another, so that the
    # one-entry memo computes their states once; rows keep the point order.
    prepared = _one_entry_memo()
    rows: list[dict] = [{} for _ in points]
    for i in grouped_order([_prepare_key(sub) for sub in points]):
        rows[i] = _sweep_row(points[i], _fit(prepared(points[i]), points[i]["ridge"]["lam"]))
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
    **dict.fromkeys(("n_classes", "state_length", "trainable_params", "training_macs"), INTEGER),
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
    n_classes = len(metrics.get("label_names", [])) or metrics.get("n_classes", "?")
    rows = [
        ("classes", n_classes),
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

_HYPER_TOPOLOGY_KEYS = {"input_gain", "loop_gain", "noise_std", "n_nodes", "k"}
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
    not both ``d`` and ``transform``, and a loop field only of a non-null,
    compact topology."""
    if "d" in names and "transform" in names:
        raise ConfigError("vary either 'd' or 'transform', not both")
    topo = cfg.get("topology")
    for name in names:
        if name in _HYPER_TOPOLOGY_KEYS:
            if topo is None:
                raise ConfigError(f"varying '{name}' requires a non-null topology")
            if "layers" in topo:
                raise ConfigError(f"varying '{name}' requires the compact topology form")


def apply_hyperparams(cfg: dict, point: dict) -> dict:
    """Overlay one search or sweep point onto a base config (returns a copy)."""
    _check_varied(cfg, point)
    out = copy.deepcopy(cfg)
    out.pop("hyperopt", None)
    out.pop("sweep", None)
    for name, value in point.items():
        if name in _HYPER_TOPOLOGY_KEYS:
            out["topology"][name] = value
        elif name == "lambda":
            out["ridge"]["lam"] = value
        elif name == "transform":
            out["transforms"] = copy.deepcopy(value) if isinstance(value, list) else [{"kind": value}]
        elif name == "d":
            out["transforms"] = [{"kind": "decimated_dft", "d": value}]
        else:
            raise ConfigError(f"unknown search parameter {name!r}")
    return out


def build_search_space(cfg: dict) -> SearchSpace:
    """SearchSpace from a config's hyperopt.space section.

    Adds a constraint that rejects points whose derived lengths are
    inconsistent (split count not dividing the datapoint length,
    decimation not dividing the burst length) before the objective ever
    sees them.
    """
    hcfg = cfg.get("hyperopt") or {}
    domains = dict.fromkeys(sorted(_POINT_FIELDS), OBJECT)
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
        what, ok = _POINT_FIELDS[name]
        for value in values(dom):
            if not ok(value):
                raise ConfigError(f"{where}: '{name}' must be {what}, but its {dom['type']} domain yields {value!r}")
    burst_len = _burst_length_of(cfg)

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
    deterministic per point).  Consecutive trials that differ only in λ
    share the dataset, transforms and states, so such a trial's logged
    ``wall_time`` covers its ridge solve and evaluation alone.  The
    winning config uses the experiment schema, ready for
    ``run_training`` as-is.  When every trial fails, the first failure is
    raised: its own :class:`LoopRCError`, or ``StageError("hyperopt")``
    around any other exception.
    """
    cfg = validate_config(config)
    hcfg = cfg.get("hyperopt")
    if not hcfg:
        raise ConfigError("config has no 'hyperopt' section")
    method = hcfg.get("method", "bayes")
    if method == "bayes" and "budget" not in hcfg:
        raise ConfigError("hyperopt.method 'bayes' requires 'budget'")
    space = build_search_space(cfg)
    for path, what in ((out_path, "winning config"), (log_path, "trial log")):
        if path is not None:
            check_output_path(path, what)

    prepared = _one_entry_memo()

    def prepare_key(point: dict) -> str:
        return _prepare_key(apply_hyperparams(cfg, point))

    # Kept until a trial succeeds: a search whose every trial fails ends
    # in the first trial's own error.
    first_failure: Optional[Exception] = None
    succeeded = False

    def objective(point: dict) -> float:
        nonlocal first_failure, succeeded
        try:
            sub = apply_hyperparams(cfg, point)
            accuracy = _fit(prepared(sub), sub["ridge"]["lam"]).metrics.accuracy
        except Exception as exc:
            if not succeeded and first_failure is None:
                first_failure = exc
            raise
        succeeded, first_failure = True, None
        return accuracy

    try:
        if method == "grid":
            levels, points = hcfg.get("levels", 2), hcfg.get("points_per_axis", 5)
            best, log = grid_search(space, objective, levels=levels, points_per_axis=points, group=prepare_key)
        else:
            seed, init = hcfg.get("seed", cfg["seed"]), hcfg.get("init_points")
            best, log = bayes_opt(space, objective, budget=hcfg["budget"], seed=seed, init_points=init)
    except RuntimeError:  # every trial failed
        if first_failure is None:
            raise
        if isinstance(first_failure, LoopRCError):
            raise first_failure
        raise StageError("hyperopt", first_failure) from first_failure
    best_cfg = apply_hyperparams(cfg, best.params)
    if out_path is not None:
        write_output(out_path, json.dumps(_jsonable(best_cfg), indent=2, sort_keys=True) + "\n", "winning config")
    if log_path is not None:
        write_trial_log(log_path, log)
    return best_cfg, best, log
