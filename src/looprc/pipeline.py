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
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import synthrf
from .classifier import (
    DesignMatrix,
    Metrics,
    RidgeModel,
    evaluate,
    predict_indices,
    train_ridge,
    trainable_params,
    training_macs,
)
from .errors import ArtifactError, ConfigError, DataFormatError, LoopRCError, StageError
from .hyperopt import (
    Categorical,
    IntegerSet,
    Real,
    SearchSpace,
    TrialRecord,
    bayes_opt,
    grid_search,
    write_trial_log,
)
from .ioformats import load_iq_file, read_container, read_iq_sidecar, write_container, write_iq_file
from .reservoir import MASK_DISTRIBUTIONS, NONLINEARITIES, LoopSpec, Mask
from .synthrf import LabeledDataset, stratified_split
from .topology import COMBINERS, LoopBank, TopologySpec, even_bank, run_topology
from .transforms import IQBurst, MeanAmplitudeProfile, TransformSpec, compute_mean_amplitude

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

_TOP_KEYS = {"dataset", "transforms", "topology", "ridge", "seed", "threads", "out_dir", "sweep", "hyperopt"}
_DATASET_KEYS = {
    "sei": {
        "kind",
        "n_devices",
        "bursts_per_device",
        "snr_db",
        "seed",
        "spread",
        "length",
        "bit_flip_prob",
        "if_offset",
    },
    "wiprec": {"kind", "bursts_per_class", "clean", "bw_normalized", "seed", "snr_db", "length", "fingerprints_per_class", "spread"},
    "iq_file": {"kind", "path", "split_seed"},
}
_TOPO_COMPACT_KEYS = {
    "k", "n_nodes", "loop_gain", "input_gain", "nonlinearity", "filter_taps",
    "noise_std", "mask_seed", "mask_distribution", "combiner", "pad_to_multiple",
}
_TOPO_LAYERED_KEYS = {"layers", "combiner"}
_LOOP_KEYS = {
    "input_length", "n_nodes", "loop_gain", "input_gain", "nonlinearity",
    "filter_taps", "noise_std", "mask_seed", "mask_distribution",
}
_RIDGE_KEYS = {"lam"}
_SWEEP_KEYS = {"transform", "n_nodes", "k", "d", "lambda", "seeds"}
_HYPEROPT_KEYS = {"method", "budget", "seed", "init_points", "levels", "points_per_axis", "space"}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _validate_dataset(ds: dict) -> dict:
    if not isinstance(ds, dict):
        raise ConfigError("'dataset' must be an object")
    kind = ds.get("kind")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    _reject_unknown(ds, _DATASET_KEYS[kind], f"dataset ({kind})")
    if kind == "iq_file" and "path" not in ds:
        raise ConfigError("dataset.kind 'iq_file' requires 'path'")
    return dict(ds)


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


def _validate_loop_fields(cfg: dict, where: str) -> None:
    for key in ("loop_gain", "input_gain"):
        if key not in cfg:
            raise ConfigError(f"{where} requires explicit '{key}' (no default gain exists)")
    nl = cfg.get("nonlinearity", "sine")
    if nl not in NONLINEARITIES:
        raise ConfigError(f"{where}: unknown nonlinearity {nl!r}")
    if nl == "identity":
        raise ConfigError(
            f"{where}: 'identity' is a linear test hook, not a valid experiment nonlinearity"
        )
    if cfg.get("mask_distribution", "binary") not in MASK_DISTRIBUTIONS:
        raise ConfigError(f"{where}: unknown mask_distribution {cfg.get('mask_distribution')!r}")


def _validate_topology(topo) -> None:
    if topo is None:
        return
    if not isinstance(topo, dict):
        raise ConfigError("'topology' must be an object or null")
    if "layers" in topo:
        _reject_unknown(topo, _TOPO_LAYERED_KEYS, "topology")
        if not isinstance(topo["layers"], list) or not topo["layers"]:
            raise ConfigError("topology.layers must be a non-empty list of layers")
        for li, layer in enumerate(topo["layers"]):
            if not isinstance(layer, list) or not layer:
                raise ConfigError(f"topology.layers[{li}] must be a non-empty list of loops")
            for i, loop in enumerate(layer):
                where = f"topology.layers[{li}][{i}]"
                if not isinstance(loop, dict):
                    raise ConfigError(f"{where} must be an object")
                _reject_unknown(loop, _LOOP_KEYS, where)
                for key in ("input_length", "n_nodes"):
                    if key not in loop:
                        raise ConfigError(f"{where} requires '{key}'")
                _validate_loop_fields(loop, where)
    else:
        _reject_unknown(topo, _TOPO_COMPACT_KEYS, "topology")
        if "n_nodes" not in topo:
            raise ConfigError("topology requires 'n_nodes'")
        _validate_loop_fields(topo, "topology")
    combiner = topo.get("combiner", "sum")
    if combiner not in COMBINERS:
        raise ConfigError(f"unknown combiner {combiner!r}")


def validate_config(config: dict, require_pipeline: bool = True) -> dict:
    """Validate a config against the closed-world schema; fill defaults.

    Structural checks only — length consistency needs the burst length
    and happens in :func:`resolve_pipeline`.  With ``require_pipeline``
    false, only the dataset section is mandatory (the ``generate``
    command's case).
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    cfg = copy.deepcopy(config)
    if "dataset" not in cfg:
        raise ConfigError("missing required key 'dataset'")
    cfg["dataset"] = _validate_dataset(cfg["dataset"])
    required = ("transforms", "topology") if require_pipeline else ()
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}' (use null topology for the ridge baseline)")
    if "transforms" in cfg:
        _validate_transforms(cfg["transforms"])
    if "topology" in cfg:
        _validate_topology(cfg["topology"])
    ridge = cfg.setdefault("ridge", {"lam": 1e-3})
    if not isinstance(ridge, dict):
        raise ConfigError("'ridge' must be an object")
    _reject_unknown(ridge, _RIDGE_KEYS, "ridge")
    lam = ridge.setdefault("lam", 1e-3)
    if not isinstance(lam, (int, float)) or lam < 0 or not math.isfinite(lam):
        raise ConfigError(f"ridge.lam must be a finite number >= 0, got {lam!r}")
    seed = cfg.setdefault("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    threads = cfg.setdefault("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"'threads' must be a positive integer, got {threads!r}")
    if "sweep" in cfg:
        if not isinstance(cfg["sweep"], dict):
            raise ConfigError("'sweep' must be an object")
        _reject_unknown(cfg["sweep"], _SWEEP_KEYS, "sweep")
        for axis, values in cfg["sweep"].items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep.{axis} must be a non-empty list")
    if "hyperopt" in cfg:
        if not isinstance(cfg["hyperopt"], dict):
            raise ConfigError("'hyperopt' must be an object")
        _reject_unknown(cfg["hyperopt"], _HYPEROPT_KEYS, "hyperopt")
    return cfg


# ---------------------------------------------------------------------------
# resolution: configs -> concrete pipeline objects
# ---------------------------------------------------------------------------


def transform_specs_from_config(cfg: dict) -> list[TransformSpec]:
    return _validate_transforms(cfg["transforms"])


def datapoint_length(specs: Sequence[TransformSpec], burst_len: int) -> int:
    """Concatenated output length of the transform list; ConfigError if any
    transform is incompatible with the burst length."""
    total = 0
    for spec in specs:
        try:
            total += spec.output_length(burst_len)
        except ValueError as exc:
            raise ConfigError(f"transform {spec.kind.value}: {exc}") from exc
    return total


def build_topology(topo_cfg: Optional[dict], input_length: int) -> tuple[Optional[TopologySpec], int]:
    """Build a TopologySpec from config against a known datapoint length.

    Returns ``(spec, effective_length)`` where the effective length may
    exceed ``input_length`` when ``pad_to_multiple`` zero-pads a
    datapoint whose length the split count does not divide.  A null
    config is the no-reservoir baseline: ``(None, input_length)``.
    """
    if topo_cfg is None:
        return None, input_length
    cfg = copy.deepcopy(topo_cfg)
    combiner = cfg.pop("combiner", "sum")
    try:
        if "layers" in cfg:
            banks = []
            for layer in cfg["layers"]:
                loops, slices, pos = [], [], 0
                for loop in layer:
                    loop = dict(loop)
                    ilen = int(loop.pop("input_length"))
                    if "filter_taps" in loop:
                        loop["filter_taps"] = tuple(loop["filter_taps"])
                    loops.append(LoopSpec(**loop))
                    slices.append((pos, pos + ilen))
                    pos += ilen
                banks.append(LoopBank(loops=tuple(loops), slices=tuple(slices)))
            topo = TopologySpec(layers=tuple(banks), combiner=combiner)
            if topo.input_length != input_length:
                raise ConfigError(
                    f"topology consumes {topo.input_length} values, datapoint has {input_length}"
                )
            return topo, input_length
        pad = bool(cfg.pop("pad_to_multiple", False))
        k = int(cfg.pop("k", 1))
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        eff = input_length
        if input_length % k != 0:
            if not pad:
                raise ConfigError(
                    f"k={k} does not divide datapoint length {input_length}; "
                    "set pad_to_multiple to zero-pad explicitly"
                )
            eff = -(-input_length // k) * k
        if "filter_taps" in cfg:
            cfg["filter_taps"] = tuple(cfg["filter_taps"])
        if "mask_seed" in cfg:
            cfg["mask_seed_base"] = cfg.pop("mask_seed")
        bank = even_bank(k, eff, **cfg)
        return TopologySpec(layers=(bank,), combiner=combiner), eff
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid topology: {exc}") from exc


def loop_to_dict(spec: LoopSpec, input_length: int) -> dict:
    return {
        "input_length": input_length,
        "n_nodes": spec.n_nodes,
        "loop_gain": spec.loop_gain,
        "input_gain": spec.input_gain,
        "nonlinearity": spec.nonlinearity,
        "filter_taps": list(spec.filter_taps),
        "noise_std": spec.noise_std,
        "mask_seed": spec.mask_seed,
        "mask_distribution": spec.mask_distribution,
    }


def topology_to_dict(topo: TopologySpec) -> dict:
    return {
        "combiner": topo.combiner,
        "layers": [
            [
                loop_to_dict(spec, stop - start)
                for spec, (start, stop) in zip(bank.loops, bank.slices)
            ]
            for bank in topo.layers
        ],
    }


def topology_from_dict(data: dict) -> TopologySpec:
    banks = []
    for layer in data["layers"]:
        loops, slices, pos = [], [], 0
        for loop in layer:
            loop = dict(loop)
            ilen = int(loop.pop("input_length"))
            loop["filter_taps"] = tuple(loop["filter_taps"])
            loops.append(LoopSpec(**loop))
            slices.append((pos, pos + ilen))
            pos += ilen
        banks.append(LoopBank(loops=tuple(loops), slices=tuple(slices)))
    return TopologySpec(layers=tuple(banks), combiner=data["combiner"])


def _burst_length_of(cfg: dict) -> int:
    ds = cfg["dataset"]
    if ds["kind"] == "iq_file":
        return int(read_iq_sidecar(ds["path"])["burst_length"])
    return int(ds.get("length", synthrf.BURST_LEN))


def load_dataset(ds_cfg: dict) -> LabeledDataset:
    """Generate or load the dataset a config names."""
    ds_cfg = _validate_dataset(ds_cfg)
    kind = ds_cfg.pop("kind")
    if kind == "sei":
        return synthrf.make_sei_dataset(**ds_cfg)
    if kind == "wiprec":
        return synthrf.make_wiprec_dataset(**ds_cfg)
    return dataset_from_iq_file(ds_cfg["path"], split_seed=ds_cfg.get("split_seed", 0))


def dataset_to_iq_file(ds: LabeledDataset, path: PathLike) -> None:
    """Persist a labeled dataset (bursts, labels, split, provenance)."""
    write_iq_file(
        path,
        list(ds.bursts),
        labels=ds.labels.tolist(),
        label_names=list(ds.label_names),
        meta={
            "generator": ds.meta,
            "train_idx": ds.train_idx.tolist(),
            "test_idx": ds.test_idx.tolist(),
        },
    )


def dataset_from_iq_file(path: PathLike, split_seed: int = 0) -> LabeledDataset:
    """Load a labeled dataset from an I/Q file.

    The stored split is reused when present; otherwise a fresh
    stratified 80/20 split is drawn from ``split_seed``.
    """
    bursts = load_iq_file(path)
    sidecar = read_iq_sidecar(path)
    if sidecar.get("labels") is None:
        raise DataFormatError(f"{path}: dataset has no labels; cannot train on it")
    labels = np.asarray(sidecar["labels"], dtype=np.int64)
    names = sidecar.get("label_names")
    if names is None:
        names = [f"class_{c}" for c in range(int(labels.max()) + 1)]
    meta = sidecar.get("meta", {})
    if "train_idx" in meta and "test_idx" in meta:
        train_idx = np.asarray(meta["train_idx"], dtype=np.int64)
        test_idx = np.asarray(meta["test_idx"], dtype=np.int64)
    else:
        train_idx, test_idx = stratified_split(labels, split_seed)
    return LabeledDataset(
        bursts=tuple(bursts),
        labels=labels,
        label_names=tuple(names),
        train_idx=train_idx,
        test_idx=test_idx,
        meta={**meta.get("generator", {}), "source": str(path)},
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _profile_for(specs: Sequence[TransformSpec], train_bursts: Sequence[IQBurst]) -> Optional[MeanAmplitudeProfile]:
    if any(s.needs_profile() for s in specs):
        return compute_mean_amplitude(train_bursts)
    return None


def transform_rows(
    bursts: Sequence[IQBurst],
    specs: Sequence[TransformSpec],
    profile: Optional[MeanAmplitudeProfile] = None,
) -> np.ndarray:
    """Apply the transform list to every burst; outputs concatenate row-wise."""
    rows = np.empty((len(bursts), datapoint_length(specs, len(bursts[0]))))
    for i, burst in enumerate(bursts):
        try:
            rows[i] = np.concatenate([s.apply(burst, profile) for s in specs])
        except LoopRCError:
            raise
        except Exception as exc:
            raise StageError("transform", exc, datapoint=i) from exc
    return rows


def _datapoint_noise_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([run_seed, 929, index]).generate_state(1)[0])


def compute_states(
    rows: np.ndarray,
    topo: Optional[TopologySpec],
    eff_length: int,
    run_seed: int = 0,
    threads: int = 1,
    masks: Optional[list[list[Mask]]] = None,
) -> np.ndarray:
    """State vectors for a batch of datapoints.

    A null topology passes rows through unchanged (the ridge baseline).
    Zero-padding to ``eff_length`` happens here when the topology was
    built with ``pad_to_multiple``.  Rows are independent, so the batch
    splits into ``threads`` contiguous chunks that run in parallel and
    concatenate in order, making the output identical for any thread
    count.  Loop noise, when a loop spec asks for it, draws from
    per-(datapoint, layer, loop) streams derived from ``run_seed``.
    """
    if topo is None:
        return np.asarray(rows, dtype=np.float64)
    if rows.shape[1] < eff_length:
        rows = np.pad(rows, ((0, 0), (0, eff_length - rows.shape[1])))
    seeds = [_datapoint_noise_seed(run_seed, i) for i in range(len(rows))]
    chunk = max(1, -(-len(rows) // threads))

    def run(start: int) -> np.ndarray:
        part, part_seeds = rows[start : start + chunk], seeds[start : start + chunk]
        try:
            return run_topology(part, topo, part_seeds, masks)
        except Exception as exc:
            # Name the first failing datapoint and its own error, as a run
            # of one datapoint after another would meet them.
            for b in range(len(part)):
                try:
                    run_topology(part[b : b + 1], topo, part_seeds[b : b + 1], masks)
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


@dataclass
class ModelArtifact:
    """Everything inference needs, in one self-contained object.

    Masks are stored by explicit value (not regenerated from seeds), so
    a model file keeps working even if mask generation ever changes.
    """

    topology: Optional[TopologySpec]
    masks: Optional[list[list[Mask]]]
    transforms: list[TransformSpec]
    profile: Optional[MeanAmplitudeProfile]
    model: RidgeModel
    burst_length: int
    eff_length: int
    metadata: dict = field(default_factory=dict)

    def save(self, path: PathLike) -> None:
        header = {
            "kind": MODEL_KIND,
            "topology": None if self.topology is None else topology_to_dict(self.topology),
            "transforms": [t.to_dict() for t in self.transforms],
            "ridge": {"lam": self.model.lam},
            "label_names": list(self.model.label_map),
            "burst_length": self.burst_length,
            "eff_length": self.eff_length,
            "metadata": self.metadata,
        }
        arrays: dict[str, np.ndarray] = {"weights": self.model.weights}
        if self.profile is not None:
            arrays["profile"] = self.profile.values
        if self.masks is not None:
            for li, layer in enumerate(self.masks):
                for i, mask in enumerate(layer):
                    arrays[f"mask_{li}_{i}"] = mask.values
        write_container(path, header, arrays)

    @classmethod
    def load(cls, path: PathLike) -> "ModelArtifact":
        header, arrays = read_container(path)
        if header.get("kind") != MODEL_KIND:
            raise ArtifactError(f"{path}: container is not a model (kind={header.get('kind')!r})")
        try:
            topo = None if header["topology"] is None else topology_from_dict(header["topology"])
            transforms = [TransformSpec.from_dict(t) for t in header["transforms"]]
            model = RidgeModel(
                weights=arrays["weights"],
                lam=float(header["ridge"]["lam"]),
                label_map=tuple(header["label_names"]),
            )
            profile = MeanAmplitudeProfile(values=arrays["profile"]) if "profile" in arrays else None
            masks = None
            if topo is not None:
                masks = []
                for li, bank in enumerate(topo.layers):
                    layer = []
                    for i, spec in enumerate(bank.loops):
                        layer.append(Mask(values=arrays[f"mask_{li}_{i}"], seed=spec.mask_seed))
                    masks.append(layer)
            return cls(
                topology=topo,
                masks=masks,
                transforms=transforms,
                profile=profile,
                model=model,
                burst_length=int(header["burst_length"]),
                eff_length=int(header["eff_length"]),
                metadata=header.get("metadata", {}),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ArtifactError(f"{path}: malformed model header: {exc}") from exc

    def states_for(self, bursts: Sequence[IQBurst], threads: int = 1) -> np.ndarray:
        for i, b in enumerate(bursts):
            if len(b) != self.burst_length:
                raise DataFormatError(
                    f"burst {i} has {len(b)} samples, model expects {self.burst_length}"
                )
        rows = transform_rows(bursts, self.transforms, self.profile)
        run_seed = int(self.metadata.get("seed", 0))
        return compute_states(rows, self.topology, self.eff_length, run_seed, threads, self.masks)

    def predict_bursts(self, bursts: Sequence[IQBurst], threads: int = 1) -> tuple[list[str], np.ndarray]:
        """Labels and raw scores for a batch of bursts."""
        states = self.states_for(bursts, threads)
        idx = predict_indices(self.model, states)
        scores = states @ self.model.weights
        return [self.model.label_map[i] for i in idx], scores


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
    specs = transform_specs_from_config(cfg)
    burst_len = _burst_length_of(cfg)
    length = datapoint_length(specs, burst_len)
    topo, eff = build_topology(cfg["topology"], length)

    try:
        ds = load_dataset(cfg["dataset"])
    except (LoopRCError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise StageError("dataset", exc) from exc
    if len(ds.bursts[0]) != burst_len:
        raise StageError(
            "dataset",
            ValueError(f"burst length {len(ds.bursts[0])} != configured {burst_len}"),
        )
    train_bursts, train_labels = ds.subset(ds.train_idx)
    test_bursts, test_labels = ds.subset(ds.test_idx)

    t0 = time.perf_counter()
    profile = _profile_for(specs, train_bursts)
    train_rows = transform_rows(train_bursts, specs, profile)
    train_states = compute_states(train_rows, topo, eff, cfg["seed"], cfg["threads"])
    train_matrix = DesignMatrix(rows=train_states, labels=train_labels, class_count=ds.n_classes)
    try:
        model = train_ridge(train_matrix, lam=cfg["ridge"]["lam"], label_map=ds.label_names)
    except LoopRCError as exc:
        raise StageError("train", exc) from exc
    train_seconds = time.perf_counter() - t0

    test_rows = transform_rows(test_bursts, specs, profile)
    test_states = compute_states(test_rows, topo, eff, cfg["seed"], cfg["threads"])
    try:
        metrics = evaluate(
            model, DesignMatrix(rows=test_states, labels=test_labels, class_count=ds.n_classes)
        )
    except (LoopRCError, ValueError) as exc:
        raise StageError("evaluate", exc) from exc

    n_state = train_states.shape[1]
    params = trainable_params(n_state, ds.n_classes)
    macs = training_macs(train_matrix.n_rows, n_state, ds.n_classes)
    dataset_hash = ds.content_hash()
    metrics_doc = {
        "accuracy": metrics.accuracy,
        "per_class_accuracy": metrics.per_class_accuracy,
        "confusion": metrics.confusion,
        "n_train": train_matrix.n_rows,
        "n_test": len(test_bursts),
        "label_names": list(ds.label_names),
        "lambda": cfg["ridge"]["lam"],
        "seed": cfg["seed"],
        "datapoint_length": length,
        "state_length": n_state,
        "trainable_params": params,
        "training_macs": macs,
        "transforms": [t.to_dict() for t in specs],
        "topology": None if topo is None else topology_to_dict(topo),
        "dataset_hash": dataset_hash,
    }
    artifact = ModelArtifact(
        topology=topo,
        masks=None if topo is None else topo.masks(),
        transforms=specs,
        profile=profile,
        model=model,
        burst_length=burst_len,
        eff_length=eff,
        metadata={
            "seed": cfg["seed"],
            "dataset_hash": dataset_hash,
            "accuracy": metrics.accuracy,
            "train_seconds": train_seconds,
            "trainable_params": params,
            "training_macs": macs,
            "n_classes": ds.n_classes,
            "state_length": n_state,
        },
    )
    out = out_dir if out_dir is not None else cfg.get("out_dir")
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        artifact.save(out / "model.lrcm")
        (out / "metrics.json").write_text(metrics_to_json(metrics_doc))
    return TrainResult(artifact, metrics, metrics_doc, train_seconds)


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
    artifact = ModelArtifact.load(model_path)
    bursts = load_iq_file(iq_path)
    labels, scores = artifact.predict_bursts(bursts, threads=threads)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["burst", "label"] + [f"score_{name}" for name in artifact.model.label_map])
            for i, label in enumerate(labels):
                writer.writerow([i, label] + [repr(float(s)) for s in scores[i]])
    return labels, scores


def _sweep_row_values(cfg: dict, specs: Sequence[TransformSpec]) -> dict:
    topo = cfg.get("topology")
    if topo is None:
        n_nodes, k = "", ""
    elif "layers" in topo:
        n_nodes = topo["layers"][0][0]["n_nodes"]
        k = len(topo["layers"][0])
    else:
        n_nodes = topo["n_nodes"]
        k = topo.get("k", 1)
    d = ""
    for s in specs:
        if s.kind.value == "decimated_dft":
            d = int(s.params.get("d", 1))
    return {
        "transform": "+".join(s.kind.value for s in specs),
        "n_nodes": n_nodes,
        "k": k,
        "d": d,
    }


def run_sweep(config: dict, out_path: Optional[PathLike] = None) -> list[dict]:
    """Cartesian sweep over the axes in ``config["sweep"]``.

    Every combination of (transform, n_nodes, k, d, λ, seed) trains a
    fresh model; one result row per combination, in the fixed
    :data:`SWEEP_COLUMNS` order.  Axes absent from the config keep the
    base value, so an empty sweep section reduces to one run_training.
    """
    cfg = validate_config(config)
    sweep = cfg.pop("sweep", {}) or {}
    cfg.pop("out_dir", None)
    transform_axis = sweep.get("transform", [None])
    n_axis = sweep.get("n_nodes", [None])
    k_axis = sweep.get("k", [None])
    d_axis = sweep.get("d", [None])
    lam_axis = sweep.get("lambda", [None])
    seeds = sweep.get("seeds", [cfg["seed"]])
    if any(axis != [None] for axis in (n_axis, k_axis)) and cfg.get("topology") is None:
        raise ConfigError("sweeping n_nodes/k requires a non-null topology")
    if cfg.get("topology") is not None and "layers" in cfg["topology"] and (
        n_axis != [None] or k_axis != [None]
    ):
        raise ConfigError("sweeping n_nodes/k requires the compact topology form")

    rows = []
    for tr in transform_axis:
        for d in d_axis:
            for n in n_axis:
                for k in k_axis:
                    for lam in lam_axis:
                        for seed in seeds:
                            sub = copy.deepcopy(cfg)
                            if tr is not None:
                                sub["transforms"] = (
                                    [{"kind": tr}] if isinstance(tr, str) else copy.deepcopy(tr)
                                )
                            if d is not None:
                                sub["transforms"] = [{"kind": "decimated_dft", "d": int(d)}]
                            if n is not None:
                                sub["topology"]["n_nodes"] = int(n)
                            if k is not None:
                                sub["topology"]["k"] = int(k)
                            if lam is not None:
                                sub["ridge"]["lam"] = float(lam)
                            sub["seed"] = int(seed)
                            specs = transform_specs_from_config(sub)
                            result = run_training(sub)
                            row = _sweep_row_values(sub, specs)
                            row.update(
                                {
                                    "lambda": sub["ridge"]["lam"],
                                    "seed": sub["seed"],
                                    "accuracy": result.metrics.accuracy,
                                    "trainable_params": result.metrics_doc["trainable_params"],
                                    "training_macs": result.metrics_doc["training_macs"],
                                    "train_seconds": round(result.train_seconds, 6),
                                }
                            )
                            rows.append(row)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(SWEEP_COLUMNS))
            writer.writeheader()
            writer.writerows(rows)
    return rows


def report_fom(metrics: dict, train_seconds: Optional[float] = None) -> str:
    """Figure-of-merit table for one trained model.

    Prints the measured numbers next to this method's published
    reference reductions versus large trained models (parameter count,
    training MACs, training latency) so readers can compare scales.
    """
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
_HYPER_KEYS = _HYPER_TOPOLOGY_KEYS | {"lambda", "d", "transform"}


def apply_hyperparams(cfg: dict, point: dict) -> dict:
    """Overlay one search point onto a base config (returns a copy)."""
    out = copy.deepcopy(cfg)
    out.pop("hyperopt", None)
    out.pop("sweep", None)
    for name, value in point.items():
        if name in _HYPER_TOPOLOGY_KEYS:
            if out.get("topology") is None:
                raise ConfigError(f"searching '{name}' requires a non-null topology")
            out["topology"][name] = int(value) if name in ("n_nodes", "k") else float(value)
        elif name == "lambda":
            out["ridge"]["lam"] = float(value)
        elif name == "transform":
            out["transforms"] = [{"kind": str(value)}]
        elif name == "d":
            out["transforms"] = [{"kind": "decimated_dft", "d": int(value)}]
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
    space_cfg = hcfg.get("space")
    if not isinstance(space_cfg, dict) or not space_cfg:
        raise ConfigError("hyperopt.space must be a non-empty object")
    if "d" in space_cfg and "transform" in space_cfg:
        raise ConfigError("search either 'd' or 'transform', not both")
    unknown = set(space_cfg) - _HYPER_KEYS
    if unknown:
        raise ConfigError(f"unknown search parameter(s): {sorted(unknown)}")
    if _HYPER_TOPOLOGY_KEYS & set(space_cfg) and cfg.get("topology") is None:
        raise ConfigError("searching topology parameters requires a non-null topology")
    params = {}
    for name, dom in space_cfg.items():
        if not isinstance(dom, dict) or "type" not in dom:
            raise ConfigError(f"hyperopt.space.{name} must be an object with a 'type'")
        kind = dom["type"]
        try:
            if kind == "real":
                _reject_unknown(dom, {"type", "low", "high", "log"}, f"hyperopt.space.{name}")
                params[name] = Real(float(dom["low"]), float(dom["high"]), bool(dom.get("log", False)))
            elif kind == "integers":
                _reject_unknown(dom, {"type", "values"}, f"hyperopt.space.{name}")
                params[name] = IntegerSet(tuple(dom["values"]))
            elif kind == "categorical":
                _reject_unknown(dom, {"type", "options"}, f"hyperopt.space.{name}")
                params[name] = Categorical(tuple(dom["options"]))
            else:
                raise ConfigError(f"hyperopt.space.{name}: unknown type {kind!r}")
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"hyperopt.space.{name}: {exc}") from exc
    burst_len = _burst_length_of(cfg)

    def lengths_consistent(point: dict) -> bool:
        try:
            sub = apply_hyperparams(cfg, point)
            specs = transform_specs_from_config(sub)
            build_topology(sub.get("topology"), datapoint_length(specs, burst_len))
        except (ConfigError, ValueError):
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
    deterministic per point).  The winning config uses the experiment
    schema, ready for ``run_training`` as-is.
    """
    cfg = validate_config(config)
    hcfg = cfg.get("hyperopt")
    if not hcfg:
        raise ConfigError("config has no 'hyperopt' section")
    method = hcfg.get("method", "bayes")
    space = build_search_space(cfg)

    def objective(point: dict) -> float:
        return run_training(apply_hyperparams(cfg, point)).metrics.accuracy

    if method == "grid":
        best, log = grid_search(
            space,
            objective,
            levels=int(hcfg.get("levels", 2)),
            points_per_axis=int(hcfg.get("points_per_axis", 5)),
        )
    elif method == "bayes":
        if "budget" not in hcfg:
            raise ConfigError("hyperopt.method 'bayes' requires 'budget'")
        init = hcfg.get("init_points")
        best, log = bayes_opt(
            space,
            objective,
            budget=int(hcfg["budget"]),
            seed=int(hcfg.get("seed", cfg["seed"])),
            init_points=None if init is None else int(init),
        )
    else:
        raise ConfigError(f"hyperopt.method must be 'grid' or 'bayes', got {method!r}")
    best_cfg = apply_hyperparams(cfg, best.params)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(_jsonable(best_cfg), indent=2, sort_keys=True) + "\n")
    if log_path is not None:
        write_trial_log(log_path, log)
    return best_cfg, best, log
