import copy
import dataclasses
import functools
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looprc import classifier, cli, pipeline, reservoir
from looprc.classifier import DesignMatrix, trainable_params
from looprc.errors import ArtifactError, ConfigError, DataFormatError, SingularMatrixError, StageError
from looprc.hyperopt import bayes_opt, grid_search
from looprc.ioformats import IQBurst, load_iq_file, read_container, read_iq_samples, write_container, write_iq_file
from looprc.pipeline import (
    LAMBDA_SWEEP,
    SWEEP_COLUMNS,
    ModelArtifact,
    apply_hyperparams,
    build_search_space,
    build_topology,
    dataset_from_iq_file,
    dataset_to_iq_file,
    load_dataset,
    metrics_to_json,
    report_fom,
    run_hyperopt,
    run_inference,
    run_sweep,
    run_training,
    validate_config,
)
from looprc.reservoir import LoopSpec, Mask, mask_for
from looprc.synthrf import SAMPLE_RATE
from looprc.topology import LoopBank, TopologySpec
from looprc.transforms import compute_mean_amplitude


def base_config(**dataset_over):
    """Small, fast, fully explicit experiment config."""
    dataset = {
        "kind": "sei",
        "n_devices": 3,
        "bursts_per_device": 10,
        "snr_db": 30.0,
        "seed": 4,
        "length": 256,
    }
    dataset.update(dataset_over)
    return {
        "dataset": dataset,
        "transforms": [{"kind": "fft_mag"}],
        "topology": {
            "k": 2,
            "n_nodes": 64,
            "loop_gain": 0.8,
            "input_gain": 1.0,
            "filter_taps": [1.0, 0.6],
            "mask_distribution": "uniform",
            "mask_seed": 3,
        },
        "ridge": {"lam": 1e-3},
        "seed": 1,
        "threads": 1,
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = base_config()
    result = run_training(cfg, out_dir=out)
    return cfg, result, out


# --- I/Q file format ---


def test_iq_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    # float32-representable samples so storage adds no rounding
    samples = (
        rng.normal(size=(3, 128)).astype(np.float32).astype(np.float64)
        + 1j * rng.normal(size=(3, 128)).astype(np.float32).astype(np.float64)
    )
    path = tmp_path / "cap.iq"
    write_iq_file(path, samples, SAMPLE_RATE, labels=[0, 1, 0], label_names=["a", "b"])
    back = load_iq_file(path)
    assert len(back) == 3
    for orig, got in zip(samples, back):
        assert np.array_equal(orig, got.samples)
    assert [b.meta["label"] for b in back] == [0, 1, 0]
    assert back[1].meta["label_name"] == "b"


def test_burst_validation():
    with pytest.raises(ValueError):
        IQBurst(samples=np.array([], dtype=complex))
    with pytest.raises(ValueError):
        IQBurst(samples=np.array([1.0, np.inf], dtype=complex))


def test_burst_keeps_complex64_samples_and_widens_every_other_dtype():
    narrow = np.array([1 + 2j, -0.5j], dtype=np.complex64)
    kept = IQBurst(samples=narrow).samples
    assert kept.dtype == np.complex64 and np.shares_memory(kept, narrow) and not kept.flags.writeable
    for given in ([1.0, 2.0], np.array([1, 2], dtype=np.float32), np.array([1 + 2j, 3j], dtype=np.clongdouble)):
        assert IQBurst(samples=given).samples.dtype == np.complex128


def test_iq_file_truncated_pair_rejected(tmp_path):
    path = tmp_path / "cap.iq"
    write_iq_file(path, np.ones((1, 64), dtype=complex), SAMPLE_RATE)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # drop one float -> odd count
    with pytest.raises(DataFormatError, match="truncated"):
        load_iq_file(path)


def test_iq_file_burst_count_mismatch_rejected(tmp_path):
    path = tmp_path / "cap.iq"
    write_iq_file(path, np.ones((2, 64), dtype=complex), SAMPLE_RATE)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # drop one whole burst
    with pytest.raises(DataFormatError):
        load_iq_file(path)


def test_iq_file_missing_sidecar_rejected(tmp_path):
    path = tmp_path / "cap.iq"
    write_iq_file(path, np.ones((1, 64), dtype=complex), SAMPLE_RATE)
    (tmp_path / "cap.iq.json").unlink()
    with pytest.raises(DataFormatError, match="sidecar"):
        load_iq_file(path)


def test_dataset_round_trip_preserves_labels_and_split(tmp_path):
    ds = load_dataset(base_config()["dataset"])
    path = tmp_path / "ds.iq"
    dataset_to_iq_file(ds, path)
    back = dataset_from_iq_file(path)
    assert np.array_equal(back.labels, ds.labels)
    assert back.label_names == ds.label_names
    assert np.array_equal(back.train_idx, ds.train_idx)
    assert np.array_equal(back.test_idx, ds.test_idx)


def test_unlabeled_iq_file_cannot_become_dataset(tmp_path):
    path = tmp_path / "cap.iq"
    write_iq_file(path, np.ones((1, 64), dtype=complex), SAMPLE_RATE)
    with pytest.raises(DataFormatError, match="labels"):
        dataset_from_iq_file(path)


# --- model container ---


def test_model_artifact_round_trip_bit_identical(trained, tmp_path):
    cfg, result, out = trained
    ds = load_dataset(cfg["dataset"])
    test_bursts = [IQBurst(samples=s) for s in ds.subset(ds.test_idx)[0]]
    labels_a, scores_a = result.artifact.predict_bursts(test_bursts)
    loaded = ModelArtifact.load(out / "model.lrcm")
    labels_b, scores_b = loaded.predict_bursts(test_bursts)
    assert labels_a == labels_b
    assert np.array_equal(scores_a, scores_b)


def test_heterogeneous_layered_model_keeps_its_header_topology_through_save_and_load(tmp_path):
    loop = {"loop_gain": 0.8, "input_gain": 1.0}
    cfg = base_config()
    cfg["topology"] = {
        "layers": [
            [{**loop, "input_length": 100, "n_nodes": 6}, {**loop, "input_length": 156, "n_nodes": 9, "mask_seed": 2}],
            [{**loop, "input_length": 5, "n_nodes": 4, "nonlinearity": "tanh"}, {**loop, "input_length": 10, "n_nodes": 4}],
        ],
        "combiner": "concat",
    }
    run_training(cfg, out_dir=tmp_path)
    header, _ = read_container(tmp_path / "model.lrcm")
    assert [[loop["input_length"] for loop in layer] for layer in header["topology"]["layers"]] == [[100, 156], [5, 10]]
    ModelArtifact.load(tmp_path / "model.lrcm").save(tmp_path / "again.lrcm")
    again, _ = read_container(tmp_path / "again.lrcm")
    assert json.dumps(again["topology"]) == json.dumps(header["topology"])


def test_loaded_model_runs_its_stored_masks_not_its_seeds(trained, tmp_path):
    cfg, result, _ = trained
    artifact = result.artifact
    bank = artifact.topology.layers[0]
    flipped = tuple(Mask(values=-m.values) for m in bank.masks)
    topo = dataclasses.replace(artifact.topology, layers=(dataclasses.replace(bank, masks=flipped),))
    dataclasses.replace(artifact, topology=topo).save(tmp_path / "flipped.lrcm")
    loaded = ModelArtifact.load(tmp_path / "flipped.lrcm")
    assert loaded.topology.masks() == [list(flipped)]
    assert loaded.topology.masks() != [[mask_for(spec) for spec in bank.loops]]
    bursts = load_dataset(cfg["dataset"]).bursts[:3]
    assert not np.array_equal(loaded.states_for(bursts), artifact.states_for(bursts))


def _count_mask_draws(monkeypatch) -> list:
    calls = []
    draw = reservoir.generate_mask
    monkeypatch.setattr(reservoir, "generate_mask", lambda *a, **kw: calls.append(1) or draw(*a, **kw))
    return calls


def test_training_and_a_lambda_sweep_draw_each_mask_once(monkeypatch):
    calls = _count_mask_draws(monkeypatch)
    run_training(base_config())
    assert len(calls) == 2  # k = 2 loops
    calls.clear()
    cfg = base_config()
    cfg["sweep"] = {"lambda": [1e-3, 1e-2, 1e-1]}
    run_sweep(cfg)
    assert len(calls) == 2


def test_corrupted_model_payload_rejected(trained, tmp_path):
    _, _, out = trained
    raw = bytearray((out / "model.lrcm").read_bytes())
    raw[-3] ^= 0xFF
    bad = tmp_path / "bad.lrcm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError):
        ModelArtifact.load(bad)


def test_wrong_container_kind_rejected(tmp_path):
    path = tmp_path / "other.lrcm"
    write_container(path, {"kind": "something-else"}, {"x": np.zeros(3)})
    with pytest.raises(ArtifactError, match="kind"):
        ModelArtifact.load(path)


def test_container_header_round_trip(tmp_path):
    header = {"kind": "probe", "nested": {"a": [1, 2.5, "s"]}}
    arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
    path = tmp_path / "c.lrcm"
    write_container(path, header, arrays)
    h2, a2 = read_container(path)
    assert h2["kind"] == "probe" and h2["nested"] == header["nested"]
    assert np.array_equal(a2["w"], arrays["w"])


# --- config validation ---


def test_validate_fills_defaults():
    cfg = validate_config(base_config())
    assert cfg["ridge"]["lam"] == 1e-3
    assert cfg["threads"] == 1


def test_unknown_top_level_key_rejected():
    cfg = base_config()
    cfg["reservoirs"] = 2
    with pytest.raises(ConfigError, match="reservoirs"):
        validate_config(cfg)


def test_identity_nonlinearity_rejected_in_config():
    cfg = base_config()
    cfg["topology"]["nonlinearity"] = "identity"
    with pytest.raises(ConfigError, match="identity"):
        validate_config(cfg)


def test_topology_requires_explicit_gains():
    cfg = base_config()
    del cfg["topology"]["loop_gain"]
    with pytest.raises(ConfigError, match="loop_gain"):
        validate_config(cfg)


_MUTATIONS = {
    "unknown_top": lambda c: c.update(extra=1),
    "unknown_dataset": lambda c: c["dataset"].update(wavelength=3),
    "bad_dataset_kind": lambda c: c["dataset"].update(kind="sei2"),
    "empty_transforms": lambda c: c.update(transforms=[]),
    "bad_transform_kind": lambda c: c.update(transforms=[{"kind": "wavelet"}]),
    "transform_kind_list": lambda c: c.update(transforms=[{"kind": ["fft_mag"]}]),
    "unknown_topology_key": lambda c: c["topology"].update(chirality="left"),
    "bad_combiner": lambda c: c["topology"].update(combiner="xor"),
    "negative_lam": lambda c: c["ridge"].update(lam=-1.0),
    "nan_lam": lambda c: c["ridge"].update(lam=float("nan")),
    "negative_seed": lambda c: c.update(seed=-1),
    "negative_dataset_seed": lambda c: c["dataset"].update(seed=-1),
    "zero_threads": lambda c: c.update(threads=0),
    "bad_sweep_axis": lambda c: c.update(sweep={"voltage": [1]}),
    "empty_sweep_axis": lambda c: c.update(sweep={"k": []}),
    # Every field has one JSON type; nothing is coerced.
    "transform_d_null": lambda c: c.update(transforms=[{"kind": "decimated_dft", "d": None}]),
    "transform_d_list": lambda c: c.update(transforms=[{"kind": "decimated_dft", "d": [2]}]),
    "transform_d_float": lambda c: c.update(transforms=[{"kind": "decimated_dft", "d": 2.5}]),
    "transform_d_bool": lambda c: c.update(transforms=[{"kind": "decimated_dft", "d": True}]),
    "fractional_n_nodes": lambda c: c["topology"].update(n_nodes=64.5),
    "string_k": lambda c: c["topology"].update(k="2"),
    "fractional_k": lambda c: c["topology"].update(k=2.5),
    "string_pad_to_multiple": lambda c: c["topology"].update(pad_to_multiple="no"),
    "bool_lam": lambda c: c["ridge"].update(lam=True),
    "bool_seed": lambda c: c.update(seed=True),
    "bool_threads": lambda c: c.update(threads=True),
}


@given(name=st.sampled_from(sorted(_MUTATIONS)))
@settings(max_examples=len(_MUTATIONS), deadline=None)
def test_corrupted_configs_rejected(name):
    cfg = copy.deepcopy(base_config())
    _MUTATIONS[name](cfg)
    with pytest.raises(ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_cli_train_on_corrupted_config_exits_two(tmp_path, name):
    cfg = copy.deepcopy(base_config())
    _MUTATIONS[name](cfg)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2


def test_indivisible_split_needs_explicit_padding():
    with pytest.raises(ConfigError, match="pad_to_multiple"):
        build_topology(
            {"k": 3, "n_nodes": 30, "loop_gain": 0.8, "input_gain": 1.0}, 256
        )
    topo = build_topology(
        {"k": 3, "n_nodes": 30, "loop_gain": 0.8, "input_gain": 1.0, "pad_to_multiple": True},
        256,
    )
    assert topo.input_length == 258


@pytest.mark.parametrize(
    "k, length, pad, padded",
    [(1, 12, False, 12), (2, 12, False, 12), (3, 12, False, 12), (2, 12, True, 12), (1, 11, True, 11),
     (2, 11, True, 12), (3, 10, True, 12)],
)
@pytest.mark.parametrize("mask_seed", [None, 7])
def test_compact_topology_is_one_layer_of_k_equal_loops(k, length, pad, padded, mask_seed):
    cfg = {"k": k, "n_nodes": 5, "loop_gain": 0.8, "input_gain": 1.0, "filter_taps": [1.0, 0.6]}
    if pad:
        cfg["pad_to_multiple"] = True
    if mask_seed is not None:
        cfg["mask_seed"] = mask_seed
    first = 0 if mask_seed is None else mask_seed
    step = padded // k
    loops = tuple(
        LoopSpec(n_nodes=5, loop_gain=0.8, input_gain=1.0, filter_taps=(1.0, 0.6), mask_seed=first + i)
        for i in range(k)
    )
    bank = LoopBank(loops=loops, input_lengths=(step,) * k)
    topo = build_topology(cfg, length)
    assert topo == TopologySpec(layers=(bank,), combiner="sum")
    assert topo.input_length == padded
    masks = [tuple(m.values) for m in topo.masks()[0]]
    assert len(set(masks)) == k


def test_compact_model_payload_is_pinned(tmp_path):
    # A trained compact model's masks and weights, byte for byte: k = 3
    # loops over a datapoint of 128 values zero-padded to 129.
    cfg = base_config()
    cfg["topology"].update(k=3, pad_to_multiple=True)
    run_training(cfg, out_dir=tmp_path)
    _, arrays = read_container(tmp_path / "model.lrcm")
    assert sorted(arrays) == ["mask_0_0", "mask_0_1", "mask_0_2", "weights"]
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    assert digest.hexdigest() == "c9976f8da4807dacd71a839f62dbd56ad935b3a262e64927a11b588fc2919312"


def test_layered_topology_length_mismatch_rejected():
    layers = [
        [
            {"input_length": 100, "n_nodes": 20, "loop_gain": 0.8, "input_gain": 1.0},
            {"input_length": 100, "n_nodes": 20, "loop_gain": 0.8, "input_gain": 1.0},
        ]
    ]
    with pytest.raises(ConfigError, match="256"):
        build_topology({"layers": layers}, 256)


def test_transform_incompatible_with_burst_length_rejected():
    cfg = base_config()
    cfg["transforms"] = [{"kind": "decimated_dft", "d": 7}]  # 7 does not divide 256
    with pytest.raises(ConfigError):
        run_training(cfg)


@pytest.mark.parametrize(
    "transform", [{"kind": "kay_freq", "stride": 0}, {"kind": "amplitude_subburst", "length": -5}]
)
def test_cli_train_on_out_of_range_transform_parameter_exits_two(tmp_path, transform):
    cfg = base_config()
    cfg["topology"] = None
    cfg["transforms"] = [transform]
    with pytest.raises(ConfigError, match=">= 1"):
        run_training(cfg)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2


# --- training, inference, sweeps ---


def test_metrics_document_bytes_deterministic(trained, tmp_path):
    cfg, result, out = trained
    again = run_training(copy.deepcopy(cfg), out_dir=tmp_path)
    assert metrics_to_json(again.metrics_doc) == metrics_to_json(result.metrics_doc)
    assert (tmp_path / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    # The model file differs only in its wall-clock train_seconds.
    (header, arrays), (header_again, arrays_again) = (read_container(d / "model.lrcm") for d in (out, tmp_path))
    assert arrays.keys() == arrays_again.keys()
    assert all(arrays[name].tobytes() == arrays_again[name].tobytes() for name in arrays)
    for h in (header, header_again):
        del h["metadata"]["train_seconds"]
    assert header == header_again


def test_predict_bursts_of_unequal_length_is_a_data_error(trained):
    _, result, _ = trained
    bursts = [IQBurst(samples=np.ones(256, dtype=complex)), IQBurst(samples=np.ones(128, dtype=complex))]
    with pytest.raises(DataFormatError, match="one length") as info:
        result.artifact.predict_bursts(bursts)
    assert cli._exit_code_for(info.value) == 3
    with pytest.raises(DataFormatError, match="model expects 256"):
        result.artifact.predict_bursts(bursts[1:])


@pytest.mark.parametrize("shape", [(256,), (1, 1, 256), ()])
def test_predict_on_samples_that_are_not_a_burst_matrix_is_a_data_error(trained, shape):
    _, result, _ = trained
    with pytest.raises(DataFormatError, match=r"\(B, L\) array") as info:
        result.artifact.predict(np.ones(shape, dtype=complex))
    assert cli._exit_code_for(info.value) == 3


def test_predict_on_a_nested_list_of_bursts_equals_predict_on_its_array(trained):
    cfg, result, _ = trained
    ds = load_dataset(cfg["dataset"])
    bursts = ds.bursts[ds.test_idx[:3]]
    labels, scores = result.artifact.predict(bursts.tolist())
    want_labels, want_scores = result.artifact.predict(bursts)
    assert labels == want_labels
    assert scores.tobytes() == want_scores.tobytes()
    rows = pipeline.transform_rows(bursts, result.artifact.transforms)
    assert pipeline.transform_rows(bursts.tolist(), result.artifact.transforms).tobytes() == rows.tobytes()
    topo = result.artifact.topology
    assert pipeline.compute_states(rows.tolist(), topo).tobytes() == pipeline.compute_states(rows, topo).tobytes()


def test_a_non_finite_datapoint_is_a_reservoir_error_with_or_without_a_topology(trained):
    cfg, result, _ = trained
    baseline = run_training({**base_config(), "topology": None}).artifact
    ds = load_dataset(cfg["dataset"])
    bursts = ds.bursts[ds.test_idx[:3]].copy()
    bursts[1, 5] = np.nan
    for artifact in (baseline, result.artifact):
        with pytest.raises(StageError, match="row entries must be finite") as info:
            artifact.predict(bursts)
        assert (info.value.stage, info.value.datapoint) == ("reservoir", 1)
        assert cli._exit_code_for(info.value) == 3
    # Finite samples whose FFT overflows give non-finite datapoints too,
    # with no numpy warning before the error.
    huge = np.full((2, 256), 1e308 + 1e308j)
    with pytest.raises(StageError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        baseline.predict(np.vstack([bursts[:1], huge]))
    assert (info.value.stage, info.value.datapoint) == ("reservoir", 1)
    with pytest.raises(StageError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        baseline.predict(huge[:1])
    assert (info.value.stage, info.value.datapoint) == ("reservoir", 0)


@pytest.mark.parametrize("snr_db", [-3100, -4000])  # the noise power overflows, or its divisor is 0
def test_a_generator_that_overflows_is_a_dataset_error_with_no_numpy_warning(tmp_path, snr_db):
    cfg = base_config()
    cfg["dataset"] = {"kind": "wiprec", "bursts_per_class": 2, "clean": False, "seed": 1, "snr_db": snr_db}
    with pytest.raises(StageError, match="non-finite") as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_training(cfg)
    assert info.value.stage == "dataset"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == 3


def test_metrics_json_written_matches_doc(trained):
    _, result, out = trained
    assert (out / "metrics.json").read_text() == metrics_to_json(result.metrics_doc)


def test_inference_reproduces_evaluation_accuracy(trained, tmp_path):
    cfg, result, out = trained
    ds = load_dataset(cfg["dataset"])
    test_bursts, test_labels = ds.subset(ds.test_idx)
    iq = tmp_path / "test.iq"
    write_iq_file(iq, test_bursts, ds.sample_rate)
    labels, scores = run_inference(out / "model.lrcm", iq, out_path=tmp_path / "pred.csv")
    name_to_idx = {n: i for i, n in enumerate(ds.label_names)}
    acc = float(np.mean([name_to_idx[l] for l in labels] == test_labels))
    assert acc == pytest.approx(result.metrics.accuracy)
    # CSV has one row per burst plus header
    lines = (tmp_path / "pred.csv").read_text().strip().splitlines()
    assert len(lines) == len(test_bursts) + 1


def test_inference_deterministic_across_calls(trained, tmp_path):
    cfg, _, out = trained
    ds = load_dataset(cfg["dataset"])
    test_bursts, _ = ds.subset(ds.test_idx)
    iq = tmp_path / "test.iq"
    write_iq_file(iq, test_bursts, ds.sample_rate)
    labels_a, scores_a = run_inference(out / "model.lrcm", iq)
    labels_b, scores_b = run_inference(out / "model.lrcm", iq)
    assert labels_a == labels_b
    assert np.array_equal(scores_a, scores_b)


def test_bursts_loaded_from_a_file_score_as_their_widened_samples(trained, tmp_path):
    cfg, _, out = trained
    ds = load_dataset(cfg["dataset"])
    iq = tmp_path / "test.iq"
    write_iq_file(iq, ds.subset(ds.test_idx)[0], ds.sample_rate)
    bursts = load_iq_file(iq)
    samples, _ = read_iq_samples(iq)
    # Views of the one complex64 array the file was read into.
    assert all(b.samples.dtype == np.complex64 and b.samples.base is bursts[0].samples.base for b in bursts)
    artifact = ModelArtifact.load(out / "model.lrcm")
    want_labels, want = artifact.predict(samples.astype(np.complex128))
    labels, scores = artifact.predict_bursts(bursts)
    assert labels == want_labels and scores.tobytes() == want.tobytes()
    labels, scores = run_inference(out / "model.lrcm", iq)
    assert labels == want_labels and scores.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def noisy_trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("noisy")
    cfg = base_config()
    cfg["topology"]["noise_std"] = 1e-4
    run_training(cfg, out_dir=out)
    ds = load_dataset(cfg["dataset"])
    bursts = ds.bursts[ds.test_idx[:2]]
    np.save(out / "bursts.npy", bursts)
    return out / "model.lrcm", bursts


def _predict_in_a_fresh_process(model_path, bursts_path, index: int) -> str:
    """Label and score bytes of one burst, predicted alone in a new interpreter."""
    script = (
        "import numpy as np\n"
        "from looprc.ioformats import IQBurst\n"
        "from looprc.pipeline import ModelArtifact\n"
        f"burst = IQBurst(np.load({str(bursts_path)!r})[{index}])\n"
        f"labels, scores = ModelArtifact.load({str(model_path)!r}).predict_bursts([burst])\n"
        "print(labels[0], scores.tobytes().hex())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_one_burst_calls_on_a_noisy_model_draw_its_noise_once(noisy_trained, cold_noise_caches, monkeypatch):
    model_path, bursts = noisy_trained
    artifact = ModelArtifact.load(model_path)
    make, built, got = np.random.default_rng, [], []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or make(*a))
    for burst in bursts:
        labels, scores = artifact.predict_bursts([IQBurst(burst)])
        got.append(f"{labels[0]} {scores.tobytes().hex()}")
        # k = 2 loops run in one call: two generators, then none.
        assert len(built) == 2
    info = reservoir._noise_block.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # One datapoint seed and k = 2 loop seeds, derived once; the second
    # call finds all three in the one cache.
    seeds = reservoir.noise_seed.cache_info()
    assert (seeds.hits, seeds.misses) == (3, 1 + 2)
    assert got[0] != got[1]
    for i in range(len(bursts)):
        assert got[i] == _predict_in_a_fresh_process(model_path, model_path.parent / "bursts.npy", i)


def test_inference_reads_its_scores_from_the_classifiers_readout(trained, tmp_path, monkeypatch):
    cfg, result, out = trained
    ds = load_dataset(cfg["dataset"])
    iq = tmp_path / "test.iq"
    write_iq_file(iq, ds.subset(ds.test_idx)[0], ds.sample_rate)
    artifact = ModelArtifact.load(out / "model.lrcm")
    samples, _ = read_iq_samples(iq)
    want = artifact.states_for(samples, threads=1) @ artifact.model.weights
    readout, calls = classifier.scores, []
    monkeypatch.setattr(classifier, "scores", lambda model, rows: calls.append(len(rows)) or readout(model, rows))
    _, scores = run_inference(out / "model.lrcm", iq)
    assert scores.tobytes() == want.tobytes()
    assert calls == [len(samples)]


def test_training_on_written_dataset_matches_generator(trained, tmp_path):
    """iq_file datasets reuse the stored split, so training on the
    written form of a generated dataset must agree with the generator
    run (bursts differ only by float32 storage rounding)."""
    cfg, result, _ = trained
    ds = load_dataset(cfg["dataset"])
    path = tmp_path / "ds.iq"
    dataset_to_iq_file(ds, path)
    cfg2 = copy.deepcopy(cfg)
    cfg2["dataset"] = {"kind": "iq_file", "path": str(path)}
    again = run_training(cfg2)
    assert again.metrics.accuracy == pytest.approx(result.metrics.accuracy)


def test_profile_computed_on_training_split_only():
    cfg = base_config()
    cfg["transforms"] = [{"kind": "diff_fft"}]
    result = run_training(cfg)
    ds = load_dataset(cfg["dataset"])
    train_bursts, _ = ds.subset(ds.train_idx)
    oracle = compute_mean_amplitude(train_bursts)
    assert np.array_equal(result.artifact.profile.values, oracle.values)
    leaky = compute_mean_amplitude(ds.bursts)
    assert not np.array_equal(result.artifact.profile.values, leaky.values)


def test_single_point_sweep_equals_run_training(trained, tmp_path):
    cfg, result, _ = trained
    sweep_cfg = copy.deepcopy(cfg)
    sweep_cfg["sweep"] = {}
    out = tmp_path / "sweep.csv"
    rows = run_sweep(sweep_cfg, out_path=out)
    assert len(rows) == 1
    assert rows[0]["accuracy"] == pytest.approx(result.metrics.accuracy)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_sweep_covers_cartesian_axes(trained):
    cfg, _, _ = trained
    sweep_cfg = copy.deepcopy(cfg)
    sweep_cfg["sweep"] = {"lambda": [1e-3, 1e-1], "k": [1, 2]}
    rows = run_sweep(sweep_cfg)
    assert len(rows) == 4
    assert {(r["k"], r["lambda"]) for r in rows} == {(1, 1e-3), (1, 1e-1), (2, 1e-3), (2, 1e-1)}


@pytest.mark.parametrize(
    "point, sections",
    [({"lambda": 1e-2}, {"ridge"}), ({"k": 1, "input_gain": 0.5}, {"topology"}), ({"d": 2}, {"transforms"}),
     ({"transform": [{"kind": "diff_fft"}], "lambda": 1.0}, {"transforms", "ridge"})],
)
def test_apply_hyperparams_copies_only_the_sections_a_point_sets(point, sections):
    base = validate_config({**base_config(), "sweep": {"lambda": [1e-3]}, "hyperopt": {"method": "grid"}})
    before = copy.deepcopy(base)
    out = apply_hyperparams(base, point)
    assert base == before
    assert set(out) == set(base) - {"sweep", "hyperopt"}
    assert {key for key in out if out[key] is not base[key]} == sections


def test_sweeping_topology_axes_requires_topology():
    cfg = base_config()
    cfg["topology"] = None
    cfg["sweep"] = {"n_nodes": [10, 20]}
    with pytest.raises(ConfigError, match="topology"):
        run_sweep(cfg)


def _count_state_calls(monkeypatch) -> list:
    calls = []
    compute_states = pipeline.compute_states

    def counted(*args, **kwargs):
        calls.append(1)
        return compute_states(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_states", counted)
    return calls


def test_sweep_rows_match_fresh_training_per_point():
    cfg = base_config()
    cfg["topology"]["noise_std"] = 1e-3  # the seed reaches the states
    axes = {"k": [1, 2], "lambda": [1e-6, 1e2], "seeds": [1, 2]}
    cfg["sweep"] = axes
    rows = run_sweep(cfg)

    expected = []
    for k in axes["k"]:  # the documented nesting order, seeds innermost
        for lam in axes["lambda"]:
            for seed in axes["seeds"]:
                point = copy.deepcopy(cfg)
                del point["sweep"]
                point["topology"]["k"] = k
                point["ridge"]["lam"] = lam
                point["seed"] = seed
                result = run_training(point)
                expected.append({
                    "transform": "fft_mag", "n_nodes": 64, "k": k, "d": "", "lambda": lam,
                    "seed": seed, "accuracy": result.metrics.accuracy,
                    "trainable_params": result.metrics_doc["trainable_params"],
                    "training_macs": result.metrics_doc["training_macs"],
                })
    assert [{c: r[c] for c in SWEEP_COLUMNS if c != "train_seconds"} for r in rows] == expected


def test_lambda_only_sweep_computes_states_once(monkeypatch):
    calls = _count_state_calls(monkeypatch)
    cfg = base_config()
    cfg["sweep"] = {"lambda": [1e-3, 1e-2, 1e-1]}
    assert len(run_sweep(cfg)) == 3
    assert len(calls) == 2  # the train and the test split, shared by the three points


_INPUT_GAIN_SEARCH = {
    "method": "bayes", "budget": 4, "seed": 2, "space": {"input_gain": {"type": "real", "low": 0.1, "high": 2.0}},
}


# calls: load_dataset, transform_rows and compute_states calls, then mask draws.
@pytest.mark.parametrize(
    "section, noise_std, calls",
    [
        ({"sweep": {"k": [1, 2, 4]}}, None, (1, 2, 6, 7)),
        ({"sweep": {"seeds": [1, 2, 3]}}, None, (1, 2, 2, 2)),
        ({"sweep": {"transform": ["fft_mag", "kay_freq"], "n_nodes": [32, 64]}}, None, (1, 4, 8, 8)),
        ({"hyperopt": _INPUT_GAIN_SEARCH}, None, (1, 2, 8, 8)),
        ({"sweep": {"seeds": [1, 2]}}, 1e-3, (1, 2, 4, 2)),
    ],
    ids=["k", "seeds", "transform_n_nodes", "input_gain_search", "noisy_seeds"],
)
def test_sweep_and_search_compute_each_stage_once_per_value_of_the_sections_it_reads(
    monkeypatch, section, noise_std, calls
):
    counts = {}
    for name in ("load_dataset", "transform_rows", "compute_states"):
        seen, real = counts.setdefault(name, []), getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, real=real, seen=seen, **kw: seen.append(1) or real(*a, **kw))
    counts["masks"] = _count_mask_draws(monkeypatch)
    cfg = {**base_config(), **section}
    if noise_std is not None:
        cfg["topology"]["noise_std"] = noise_std  # the states read the seed
    (run_hyperopt if "hyperopt" in section else run_sweep)(cfg)
    assert tuple(map(len, counts.values())) == calls


def test_a_sweep_releases_a_points_states_before_it_computes_the_next(monkeypatch):
    made, live = [], []
    design, compute_states = pipeline.DesignMatrix, pipeline.compute_states

    def tracked(**kwargs):
        data = design(**kwargs)
        made.append(weakref.ref(data))
        return data

    monkeypatch.setattr(pipeline, "DesignMatrix", tracked)
    monkeypatch.setattr(pipeline, "compute_states", lambda *a, **kw: live.append(
        [i for i, ref in enumerate(made) if ref() is not None]) or compute_states(*a, **kw))
    cfg = base_config()
    cfg["sweep"] = {"k": [1, 2, 4]}
    run_sweep(cfg)
    # Design matrices alive as each states call starts: none at a point's
    # training split, and at its test split only that point's training one.
    assert live == [[], [0], [], [2], [], [4]]


def _count_gram_builds(monkeypatch) -> list:
    calls = []
    build = DesignMatrix.normal_equations.func

    def counted(data):
        calls.append(1)
        return build(data)

    prop = functools.cached_property(counted)
    prop.__set_name__(DesignMatrix, "normal_equations")
    monkeypatch.setattr(DesignMatrix, "normal_equations", prop)
    return calls


def test_lambda_only_sweep_and_search_build_the_gram_once(monkeypatch):
    calls = _count_gram_builds(monkeypatch)
    cfg = base_config()
    cfg["sweep"] = {"lambda": [1e-3, 1e-2, 1e-1]}
    assert len(run_sweep(cfg)) == 3
    assert len(calls) == 1

    del cfg["sweep"]
    cfg["hyperopt"] = {
        "method": "bayes", "budget": 4, "seed": 2,
        "space": {"lambda": {"type": "real", "low": 1e-6, "high": 1e2, "log": True}},
    }
    _, _, log = run_hyperopt(cfg)
    assert len(log) == 4 and not any(r.failed for r in log)
    assert len(calls) == 2


def test_hyperopt_trials_match_fresh_training_per_trial(monkeypatch):
    cfg = base_config()
    cfg["hyperopt"] = {
        "method": "bayes", "budget": 5, "seed": 2,
        "space": {"lambda": {"type": "real", "low": 1e-6, "high": 1e2, "log": True}},
    }
    calls = _count_state_calls(monkeypatch)
    best_cfg, _, log = run_hyperopt(cfg)
    assert len(calls) == 2
    monkeypatch.undo()

    base = validate_config(cfg)
    oracle_best, oracle_log = bayes_opt(
        build_search_space(base),
        lambda point: run_training(apply_hyperparams(base, point)).metrics.accuracy,
        budget=5,
        seed=2,
    )
    assert [(r.params, r.accuracy, r.error) for r in log] == [
        (r.params, r.accuracy, r.error) for r in oracle_log
    ]
    assert best_cfg == apply_hyperparams(base, oracle_best.params)


def test_grid_search_listing_lambda_first_computes_states_once_per_k(monkeypatch, tmp_path):
    cfg = base_config()
    cfg["hyperopt"] = {
        "method": "grid",
        "space": {
            "lambda": {"type": "categorical", "options": [1e-4, 1e-2, 1.0]},
            "k": {"type": "integers", "values": [1, 2]},
        },
    }
    calls = _count_state_calls(monkeypatch)
    _, _, log = run_hyperopt(cfg, log_path=tmp_path / "trials.jsonl")
    assert len(calls) == 4  # train and test split for each k, not for each trial
    monkeypatch.undo()

    # The log keeps the grid order (k innermost) and its trial numbers.
    base = validate_config(cfg)
    _, oracle_log = grid_search(
        build_search_space(base), lambda point: run_training(apply_hyperparams(base, point)).metrics.accuracy
    )
    assert [(r.params["lambda"], r.params["k"]) for r in log] == [(lam, k) for lam in (1e-4, 1e-2, 1.0) for k in (1, 2)]
    assert [r.trial for r in log] == list(range(6))
    without_time = [dataclasses.replace(r, wall_time=0.0).to_json_line() for r in log]
    assert without_time == [dataclasses.replace(r, wall_time=0.0).to_json_line() for r in oracle_log]
    written = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
    assert [{**rec, "wall_time": 0.0} for rec in written] == [json.loads(line) for line in without_time]


def test_grid_search_over_an_integer_list_evaluates_each_distinct_value_in_order():
    cfg = base_config()
    cfg["hyperopt"] = {"method": "grid", "space": {"k": {"type": "integers", "values": [4, 1, 2, 2]}}}
    _, _, log = run_hyperopt(cfg)
    assert [r.params["k"] for r in log] == [1, 2, 4]


def test_search_constraint_draws_no_masks(monkeypatch):
    cfg = base_config()
    cfg["topology"].update(k=4, n_nodes=300)
    cfg["hyperopt"] = {"method": "bayes", "budget": 4, "space": {"input_gain": {"type": "real", "low": 0.1, "high": 2.0}}}
    space = build_search_space(validate_config(cfg))
    calls = _count_mask_draws(monkeypatch)
    assert all(space.is_valid({"input_gain": 0.1 + 1.9 * i / 255}) for i in range(256))
    assert calls == []


def _lambda_search(cfg: dict) -> dict:
    cfg["hyperopt"] = {
        "method": "bayes", "budget": 5, "seed": 2,
        "space": {"lambda": {"type": "real", "low": 1e-6, "high": 1e2, "log": True}},
    }
    return cfg


def test_lambda_only_search_checks_the_base_lengths_once(monkeypatch):
    checks = []
    check = pipeline._check_lengths
    monkeypatch.setattr(pipeline, "_check_lengths", lambda *a: checks.append(1) or check(*a))
    _, _, log = run_hyperopt(_lambda_search(base_config()))
    assert len(log) == 5 and not any(r.failed for r in log)
    assert len(checks) == 1


def test_lambda_only_search_on_inconsistent_lengths_exits_two_with_the_length_message(tmp_path, monkeypatch, capsys):
    calls = _count_state_calls(monkeypatch)
    cfg = _lambda_search(base_config())
    cfg["topology"]["k"] = 3  # does not divide the 256-value datapoints
    with pytest.raises(ConfigError, match="k=3 does not divide datapoint length 256"):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "k=3 does not divide" in capsys.readouterr().err
    assert calls == []


def test_sweep_transform_axis_takes_kinds_and_transform_lists():
    cfg = base_config()
    cfg["sweep"] = {"transform": ["diff_fft", [{"kind": "fft_mag"}, {"kind": "diff_fft"}]]}
    rows = run_sweep(cfg)
    assert [r["transform"] for r in rows] == ["diff_fft", "fft_mag+diff_fft"]


@pytest.mark.parametrize(
    "topology, axes, match",
    [
        (None, {"transform": ["fft_mag", "diff_fft"], "d": [2, 4]}, "not both"),
        ({"layers": [[{"input_length": 256, "n_nodes": 8, "loop_gain": 0.8, "input_gain": 1.0}]]},
         {"k": [1, 2]}, "compact"),
        (None, {"lambda": ["small"]}, "lambda"),
        (None, {"lambda": [1e-3, -1.0]}, "sweep.lambda"),
        (None, {"seeds": [1, "a"]}, "seed"),
        (None, {"seeds": [1.5]}, "seed"),
        # k = 2 fits the 256-value datapoints, so only a check of every point
        # before the first trial keeps its states from being computed.
        (base_config()["topology"], {"k": [2, 3]}, "k=3"),
        (base_config()["topology"], {"n_nodes": [64, 0]}, "sweep.n_nodes"),
    ],
)
def test_inconsistent_sweep_axes_rejected(tmp_path, monkeypatch, topology, axes, match):
    calls = _count_state_calls(monkeypatch)
    cfg = base_config()
    cfg["topology"] = topology
    cfg["sweep"] = axes
    with pytest.raises(ConfigError, match=match):
        run_sweep(cfg)
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert calls == []


@pytest.mark.parametrize(
    "axis, value",
    [("k", 2.5), ("k", True), ("n_nodes", 4.9), ("lambda", "0.001"), ("lambda", True), ("d", 2.0), ("transform", 5)],
)
def test_cli_sweep_axis_value_of_the_wrong_type_exits_two(tmp_path, capsys, axis, value):
    # Each value is checked as the config field it replaces, not coerced.
    cfg = base_config()
    if axis == "d":
        cfg["transforms"] = [{"kind": "decimated_dft", "d": 2}]
    cfg["sweep"] = {axis: [value]}
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert f"sweep.{axis}" in capsys.readouterr().err


def test_lambda_sweep_grid_constants():
    assert len(LAMBDA_SWEEP) == 9
    assert LAMBDA_SWEEP[0] == pytest.approx(1e-6)
    assert LAMBDA_SWEEP[-1] == pytest.approx(1e2)


def test_null_topology_is_ridge_baseline():
    cfg = base_config()
    cfg["topology"] = None
    result = run_training(cfg)
    # state length equals the datapoint length: no reservoir in the path
    assert result.metrics_doc["state_length"] == result.metrics_doc["datapoint_length"]


def test_fom_report_prints_reference_constants(trained):
    _, result, _ = trained
    text = report_fom(result.metrics_doc, train_seconds=result.train_seconds)
    assert str(result.metrics_doc["trainable_params"]) in text
    assert "20x" in text and "100x" in text and ">= 1200x" in text


def test_trainable_params_consistent_with_formula(trained):
    _, result, _ = trained
    doc = result.metrics_doc
    assert doc["trainable_params"] == trainable_params(doc["state_length"], 3)


# --- CLI ---


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_cli_train_and_infer_exit_zero(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "model.lrcm").exists() and (out_dir / "metrics.json").exists()

    ds = load_dataset(base_config()["dataset"])
    test_bursts, _ = ds.subset(ds.test_idx)
    iq = tmp_path / "test.iq"
    write_iq_file(iq, test_bursts, ds.sample_rate)
    code = cli.main(
        ["infer", "--model", str(out_dir / "model.lrcm"), "--iq", str(iq),
         "--out", str(tmp_path / "pred.csv")]
    )
    assert code == 0
    assert (tmp_path / "pred.csv").exists()


def _unwritable_output_argv(trained, tmp_path, flag: str) -> tuple[list[str], str]:
    """A command line whose output ``flag`` names a path that cannot be
    written, and that path."""
    cfg, _, out = trained
    missing = str(tmp_path / "absent" / "out")
    if flag == "generate --out":  # a directory
        return ["generate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)], str(tmp_path)
    if flag == "train --out":  # a file
        path = write_config(tmp_path, cfg)
        return ["train", "--config", str(path), "--out", str(path)], str(path)
    if flag == "infer --out":
        iq, _ = _dataset_file(cfg, tmp_path)
        return ["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq), "--out", missing], missing
    if flag == "sweep --out":
        sweep = {**cfg, "sweep": {"lambda": [1e-3]}}
        return ["sweep", "--config", str(write_config(tmp_path, sweep)), "--out", missing], missing
    search = {**cfg, "hyperopt": {"method": "grid", "space": {"lambda": {"type": "categorical", "options": [1e-3]}}}}
    argv = ["hyperopt", "--config", str(write_config(tmp_path, search))]
    return argv + [flag.split()[1], missing], missing


@pytest.mark.parametrize(
    "flag", ["generate --out", "train --out", "infer --out", "sweep --out", "hyperopt --out", "hyperopt --trial-log"]
)
def test_cli_unwritable_output_path_exits_three(trained, tmp_path, capsys, monkeypatch, flag):
    argv, path = _unwritable_output_argv(trained, tmp_path, flag)
    prepared, states = [], []
    real_stages = pipeline._Stages.__call__
    monkeypatch.setattr(pipeline._Stages, "__call__", lambda self, cfg: prepared.append(cfg) or real_stages(self, cfg))
    real_states = pipeline.compute_states
    monkeypatch.setattr(pipeline, "compute_states", lambda *a, **kw: states.append(1) or real_states(*a, **kw))
    assert cli.main(argv) == 3
    assert path in capsys.readouterr().err
    # The path is checked before any dataset is generated or states computed.
    assert prepared == [] and states == []


def test_cli_config_errors_exit_two(tmp_path):
    bad = base_config()
    bad["dataset"]["kind"] = "nope"
    cfg_path = write_config(tmp_path, bad)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert cli.main(["train", "--config", str(tmp_path / "absent.json")]) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    assert cli.main(["train", "--config", str(not_json)]) == 2


def test_cli_data_errors_exit_three(tmp_path):
    cfg = base_config()
    cfg["dataset"] = {"kind": "iq_file", "path": str(tmp_path / "missing.iq")}
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path)]) == 3


def _dataset_file(cfg, tmp_path):
    """The config's dataset written as an I/Q file; returns its path and sidecar doc."""
    iq = tmp_path / "ds.iq"
    dataset_to_iq_file(load_dataset(cfg["dataset"]), iq)
    return iq, json.loads((tmp_path / "ds.iq.json").read_text())


@pytest.mark.parametrize("label", [3, -1, 1.5])
def test_cli_label_outside_label_names_exits_three(trained, tmp_path, capsys, label):
    cfg, _, out = trained  # three devices: labels 0..2
    iq, sidecar = _dataset_file(cfg, tmp_path)
    sidecar["labels"][5] = label
    (tmp_path / "ds.iq.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match="burst 5"):
        load_iq_file(iq)
    train_cfg = base_config()
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    assert "burst 5" in capsys.readouterr().err


def test_cli_non_finite_samples_exit_three(trained, tmp_path, capsys):
    cfg, _, out = trained
    iq, sidecar = _dataset_file(cfg, tmp_path)
    raw = np.frombuffer(iq.read_bytes(), dtype="<f4").copy()
    raw[2 * sidecar["burst_length"] * 4 + 7] = np.nan  # burst 4, a Q sample
    iq.write_bytes(raw.tobytes())
    train_cfg = base_config()
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    assert "burst 4" in capsys.readouterr().err


def test_empty_split_exits_three(tmp_path):
    cfg = base_config()
    # Two bursts per class all go to the 80% training share.
    cfg["dataset"] = {"kind": "wiprec", "bursts_per_class": 2, "clean": True, "seed": 1}
    with pytest.raises(StageError, match="0 test bursts") as info:
        run_training(cfg)
    assert info.value.stage == "dataset"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == 3


def test_train_split_with_fewer_rows_than_classes_exits_three(trained, tmp_path):
    cfg, _, _ = trained  # three devices
    iq, sidecar = _dataset_file(cfg, tmp_path)
    sidecar["meta"]["train_idx"] = [0, 1]
    sidecar["meta"]["test_idx"] = list(range(2, len(sidecar["labels"])))
    (tmp_path / "ds.iq.json").write_text(json.dumps(sidecar))
    train_cfg = base_config()
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    with pytest.raises(StageError, match="per class") as info:
        run_training(train_cfg)
    assert info.value.stage == "train"
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3


def test_a_capture_whose_test_split_has_fewer_bursts_than_classes_trains(tmp_path):
    cfg = base_config()  # three devices of ten bursts
    ds = load_dataset(cfg["dataset"])
    keep = np.concatenate([np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)[:2],
                           np.flatnonzero(ds.labels == 2)[:2]])
    iq = tmp_path / "ds.iq"
    write_iq_file(iq, ds.bursts[keep], ds.sample_rate, labels=ds.labels[keep].tolist(),
                  label_names=list(ds.label_names))
    cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    result = run_training(cfg, out_dir=tmp_path / "run")
    # The stratified 80/20 split keeps both bursts of classes 1 and 2 for training.
    assert (result.metrics_doc["n_train"], result.metrics_doc["n_test"]) == (12, 2)
    assert np.isnan(result.metrics.per_class_accuracy[1:]).all()
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["per_class_accuracy"][1:] == [None, None]
    assert [sum(row) for row in metrics["confusion"]] == [2, 0, 0]


def test_cli_infer_on_empty_capture_exits_three(trained, tmp_path, capsys):
    _, _, out = trained
    iq = tmp_path / "empty.iq"
    write_iq_file(iq, np.ones((1, 256), dtype=complex), SAMPLE_RATE)
    iq.write_bytes(b"")
    sidecar = json.loads((tmp_path / "empty.iq.json").read_text())
    sidecar["n_bursts"] = 0
    (tmp_path / "empty.iq.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match="no bursts"):
        load_iq_file(iq)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    assert "no bursts" in capsys.readouterr().err


def test_cli_single_node_second_tap_exits_two_before_data(tmp_path, monkeypatch):
    calls = []
    load = pipeline.load_dataset
    monkeypatch.setattr(pipeline, "load_dataset", lambda *a, **kw: calls.append(1) or load(*a, **kw))
    cfg = base_config()
    cfg["topology"].update(k=1, n_nodes=1, filter_taps=[1.0, 0.6])
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
    assert calls == []


@pytest.mark.parametrize("lengths", [(0, 256), (-1, 257)])
def test_cli_layered_input_length_below_one_exits_two_before_data(tmp_path, monkeypatch, capsys, lengths):
    calls = []
    load = pipeline.load_dataset
    monkeypatch.setattr(pipeline, "load_dataset", lambda *a, **kw: calls.append(1) or load(*a, **kw))
    cfg = base_config()
    loop = {"n_nodes": 8, "loop_gain": 0.8, "input_gain": 1.0}
    cfg["topology"] = {"layers": [[{**loop, "input_length": n, "mask_seed": i} for i, n in enumerate(lengths)]]}
    with pytest.raises(ConfigError, match=r"topology.layers\[0\]\[0\].*input_length.*>= 1"):
        validate_config(cfg)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "input_length" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("threads", [0, -1])
def test_compute_states_rejects_non_positive_threads(threads):
    cfg = base_config()
    topo = build_topology(cfg["topology"], 64)
    with pytest.raises(ValueError, match="threads"):
        pipeline.compute_states(np.ones((2, 64)), topo, threads=threads)


def test_cli_infer_rejects_non_positive_threads(trained, tmp_path):
    cfg, _, out = trained
    iq, _ = _dataset_file(cfg, tmp_path)
    infer = ["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]
    assert cli.main(infer + ["--threads", "0"]) == 2
    assert cli.main(infer + ["--threads", "-3"]) == 2
    assert cli.main(infer + ["--threads", "2", "--out", str(tmp_path / "two.csv")]) == 0
    assert cli.main(infer + ["--out", str(tmp_path / "one.csv")]) == 0
    assert (tmp_path / "two.csv").read_text() == (tmp_path / "one.csv").read_text()


def test_cli_numeric_errors_exit_four(tmp_path):
    # rank-deficient normal equations at lambda = 0: 1024-dim rows, 24 train points
    cfg = base_config()
    cfg["topology"] = None
    cfg["dataset"]["length"] = 1024
    cfg["ridge"] = {"lam": 0.0}
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path)]) == 4


@pytest.mark.parametrize(
    "dataset, match",
    [
        ({"kind": "sei", "n_devices": 1, "bursts_per_device": 4, "seed": 1, "length": 256}, "n_devices"),
        ({"kind": "wiprec", "bursts_per_class": 0, "clean": True, "seed": 1}, "bursts_per_class"),
    ],
)
def test_cli_on_out_of_range_dataset_exits_two(tmp_path, capsys, dataset, match):
    with pytest.raises(ConfigError, match=match):
        load_dataset(dataset)
    cfg = base_config()
    cfg["dataset"] = dataset
    path = write_config(tmp_path, cfg)
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "g.iq")]) == 2
    assert cli.main(["train", "--config", str(path)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("content", ["directory", b'{"seed": "\xff"}'])
def test_cli_on_unreadable_config_or_metrics_file_exits_two_or_three(tmp_path, content):
    path = tmp_path / "file.json"
    if content == "directory":
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli.main(["train", "--config", str(path)]) == 2
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "g.iq")]) == 2
    assert cli.main(["report", "--metrics", str(path)]) == 3


def test_cli_generate_of_samples_beyond_float32_writes_nothing(tmp_path):
    # Finite complex128 samples above the float32 range would be stored as
    # inf, in a capture that its own reader rejects.
    dataset = {"kind": "sei", "n_devices": 2, "bursts_per_device": 3, "length": 64, "seed": 1, "snr_db": -800}
    cfg_path = write_config(tmp_path, {"dataset": dataset})
    out = tmp_path / "gen.iq"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 3
        with pytest.raises(DataFormatError, match="burst 0 has finite samples beyond the float32 range"):
            dataset_to_iq_file(load_dataset(dataset), out)
    assert not out.exists() and not Path(str(out) + ".json").exists()


def test_reading_non_finite_iq_pairs_gives_the_typed_error_and_no_numpy_warning(tmp_path):
    bursts = np.ones((3, 16), dtype=np.complex128)
    bursts[1, 4] = complex(np.inf, 1.0)
    bursts[2, 0] = complex(1.0, np.inf)
    path = tmp_path / "inf.iq"
    write_iq_file(path, bursts, 1e6)
    with pytest.raises(DataFormatError, match="burst 1 has non-finite samples"), warnings.catch_warnings():
        warnings.simplefilter("error")
        read_iq_samples(path)


def test_cli_generate_writes_loadable_dataset(tmp_path):
    cfg_path = write_config(tmp_path, {"dataset": base_config()["dataset"]})
    out = tmp_path / "gen.iq"
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    back = dataset_from_iq_file(out)
    assert len(back) == 30


def test_cli_hyperopt_writes_runnable_config(tmp_path):
    cfg = base_config()
    cfg["hyperopt"] = {
        "method": "grid",
        "levels": 1,
        "points_per_axis": 3,
        "space": {"lambda": {"type": "real", "low": 1e-4, "high": 1e-1, "log": True}},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "best.json"
    log = tmp_path / "trials.csv"
    code = cli.main(
        ["hyperopt", "--config", str(cfg_path), "--out", str(out), "--trial-log", str(log)]
    )
    assert code == 0
    best_cfg = json.loads(out.read_text())
    assert "hyperopt" not in best_cfg
    result = run_training(best_cfg)
    assert 0.0 <= result.metrics.accuracy <= 1.0
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 3  # one JSON record per trial
    assert all("accuracy" in json.loads(line) for line in lines)


def test_cli_report_exit_zero(tmp_path, capsys):
    metrics = {"accuracy": 0.5, "label_names": ["a", "b"], "trainable_params": 128,
               "training_macs": 999, "state_length": 64}
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics))
    assert cli.main(["report", "--metrics", str(path)]) == 0
    assert "figure-of-merit" in capsys.readouterr().out


# --- malformed sidecars, model containers and metrics files ---


@pytest.mark.parametrize(
    "field, value",
    [
        ("burst_length", "x"),
        ("burst_length", 256.5),
        ("n_bursts", "x"),
        ("sample_rate", "x"),
        ("sample_rate", float("nan")),
        ("labels", 5),
        ("label_names", 5),
    ],
)
def test_cli_infer_on_malformed_sidecar_field_exits_three(trained, tmp_path, capsys, field, value):
    cfg, _, out = trained
    iq, sidecar = _dataset_file(cfg, tmp_path)
    sidecar[field] = value
    (tmp_path / "ds.iq.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match=field):
        load_iq_file(iq)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"5", b'{"burst_length": "\xff"}'])
def test_cli_infer_on_sidecar_that_is_no_json_object_exits_three(trained, tmp_path, text):
    cfg, _, out = trained
    iq, _ = _dataset_file(cfg, tmp_path)
    (tmp_path / "ds.iq.json").write_bytes(text)
    with pytest.raises(DataFormatError, match="sidecar"):
        load_iq_file(iq)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda meta: meta["train_idx"].__setitem__(0, 999), "partition"),  # one index past the end
        (lambda meta: meta.update(test_idx="x"), "test_idx"),
        (lambda meta: meta.update(generator=[1]), "generator"),
    ],
)
def test_cli_train_on_malformed_sidecar_split_exits_three(trained, tmp_path, capsys, edit, match):
    cfg, _, _ = trained
    iq, sidecar = _dataset_file(cfg, tmp_path)
    edit(sidecar["meta"])
    (tmp_path / "ds.iq.json").write_text(json.dumps(sidecar))
    train_cfg = base_config()
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3
    assert match in capsys.readouterr().err


def test_cli_infer_on_iq_file_cut_inside_a_float_exits_three(trained, tmp_path, capsys):
    cfg, _, out = trained
    iq, _ = _dataset_file(cfg, tmp_path)
    iq.write_bytes(iq.read_bytes()[:-1])
    with pytest.raises(DataFormatError, match="truncated"):
        load_iq_file(iq)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    assert "truncated" in capsys.readouterr().err


def _edit_container_header(src, dst, edit):
    """Copy a container, rewriting its JSON header (which the payload
    checksum does not cover) through ``edit``."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20 : 20 + n])
    edit(header)
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + n :])


_HEADER_EDITS = {
    "unknown_dtype": lambda h: h["arrays"]["weights"].update(dtype="<f9"),
    "object_dtype": lambda h: h["arrays"]["weights"].update(dtype="|O"),
    "wrong_shape": lambda h: h["arrays"]["weights"].update(shape=[7, 3]),
    "inferred_shape": lambda h: h["arrays"]["weights"].update(shape=[-1, 3]),
    "nbytes_not_itemsize_multiple": lambda h: h["arrays"]["weights"].update(nbytes=13),
    "missing_offset": lambda h: h["arrays"]["weights"].pop("offset"),
    "arrays_list": lambda h: h.update(arrays=[]),
    "entry_not_object": lambda h: h["arrays"].update(weights=5),
    "metadata_list": lambda h: h.update(metadata=[]),
    "seed_not_int": lambda h: h["metadata"].update(seed="x"),
    "burst_length_infinite": lambda h: h.update(burst_length=float("inf")),
    "burst_length_float": lambda h: h.update(burst_length=256.0),
    "seed_negative": lambda h: h["metadata"].update(seed=-1),
    "transform_d_null": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": None}]),
    "transform_d_list": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": [2]}]),
    "transform_d_string": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": "x"}]),
    "transform_d_float": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": 2.5}]),
    "transform_d_bool": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": True}]),
    "transform_d_zero": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": 0}]),
    "transform_d_not_dividing": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": 3}]),
    "burst_length_zero": lambda h: h.update(burst_length=0),
    # The model's 256-value datapoints need no padding for k = 2.
    "eff_length_huge": lambda h: h.update(eff_length=10**12),
    "eff_length_off_by_one": lambda h: h.update(eff_length=257),
    "datapoint_short_of_topology": lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": 2}]),
    "n_nodes_not_mask_length": lambda h: [loop.update(n_nodes=32) for loop in h["topology"]["layers"][0]],
    # Slices of 65 and 64 values over 128-value datapoints: one value more
    # than the datapoint, but not the k slices of ceil(128 / k) that padding makes.
    "slices_uneven_over_short_datapoint": lambda h: [
        h.update(transforms=[{"kind": "decimated_dft", "d": 2}], eff_length=129),
        *(loop.update(input_length=n) for loop, n in zip(h["topology"]["layers"][0], (65, 64))),
    ],
}


@pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
def test_cli_infer_on_malformed_container_header_exits_three(trained, tmp_path, edit):
    cfg, _, out = trained
    bad = tmp_path / "bad.lrcm"
    _edit_container_header(out / "model.lrcm", bad, _HEADER_EDITS[edit])
    with pytest.raises(ArtifactError):
        ModelArtifact.load(bad)
    iq, _ = _dataset_file(cfg, tmp_path)
    assert cli.main(["infer", "--model", str(bad), "--iq", str(iq)]) == 3


@pytest.mark.parametrize(
    "transform, edit",
    [
        ("diff_fft", lambda arrays: arrays.pop("profile")),
        ("diff_fft", lambda arrays: arrays.update(profile=arrays["profile"][:100])),
        ("fft_mag", lambda arrays: arrays.update(profile=np.ones(256))),
    ],
    ids=["needed_profile_missing", "profile_shorter_than_bursts", "unneeded_profile"],
)
def test_cli_infer_on_model_whose_profile_does_not_fit_its_transforms_exits_three(tmp_path, transform, edit):
    cfg = base_config()
    cfg["transforms"] = [{"kind": transform}]
    run_training(cfg, out_dir=tmp_path)
    header, arrays = read_container(tmp_path / "model.lrcm")
    arrays = dict(arrays)
    edit(arrays)
    bad = tmp_path / "bad.lrcm"
    reserved = ("format_version", "arrays", "payload_sha256")  # write_container adds these
    write_container(bad, {key: value for key, value in header.items() if key not in reserved}, arrays)
    with pytest.raises(ArtifactError, match="profile"):
        ModelArtifact.load(bad)
    iq, _ = _dataset_file(cfg, tmp_path)
    assert cli.main(["infer", "--model", str(bad), "--iq", str(iq)]) == 3


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()], ids=["missing", "directory"])
def test_cli_infer_on_model_path_that_is_no_file_exits_three(trained, tmp_path, capsys, make):
    cfg, _, _ = trained
    model = tmp_path / "model.lrcm"
    make(model)
    with pytest.raises(ArtifactError, match="model container"):
        ModelArtifact.load(model)
    iq, _ = _dataset_file(cfg, tmp_path)
    assert cli.main(["infer", "--model", str(model), "--iq", str(iq)]) == 3
    assert str(model) in capsys.readouterr().err


def test_cli_infer_on_container_whose_header_is_no_object_exits_three(trained, tmp_path):
    cfg, _, out = trained
    raw = (out / "model.lrcm").read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 12)
    bad = tmp_path / "bad.lrcm"
    bad.write_bytes(raw[:12] + struct.pack("<Q", 2) + b"[]" + raw[20 + n :])
    with pytest.raises(ArtifactError, match="object"):
        read_container(bad)
    iq, _ = _dataset_file(cfg, tmp_path)
    assert cli.main(["infer", "--model", str(bad), "--iq", str(iq)]) == 3


def test_cli_infer_on_readout_narrower_than_states_exits_three(tmp_path, capsys):
    # A null-topology model whose header names a transform of another
    # output length: the checksum passes and the readout no longer fits.
    cfg = base_config()
    cfg["topology"] = None
    run_training(cfg, out_dir=tmp_path)
    bad = tmp_path / "bad.lrcm"
    _edit_container_header(
        tmp_path / "model.lrcm", bad, lambda h: h.update(transforms=[{"kind": "decimated_dft", "d": 2}])
    )
    iq, _ = _dataset_file(cfg, tmp_path)
    assert cli.main(["infer", "--model", str(bad), "--iq", str(iq)]) == 3
    assert "readout" in capsys.readouterr().err


def test_cli_report_on_metrics_that_are_no_object_exits_three(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text("[1, 2]")
    assert cli.main(["report", "--metrics", str(path)]) == 3
    assert "object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dataset, field",
    [
        (base_config(n_devices="3")["dataset"], "n_devices"),
        (base_config(snr_db="x")["dataset"], "snr_db"),
        (base_config(length=256.5)["dataset"], "length"),
        (base_config(seed=True)["dataset"], "seed"),
        (base_config(spread=float("nan"))["dataset"], "spread"),
        ({"kind": "wiprec", "bursts_per_class": 5, "clean": "yes"}, "clean"),
        ({"kind": "iq_file", "path": 5}, "path"),
    ],
)
def test_cli_train_on_wrongly_typed_dataset_field_exits_two(tmp_path, capsys, dataset, field):
    cfg = base_config()
    cfg["dataset"] = dataset
    with pytest.raises(ConfigError, match=f"dataset.{field}"):
        validate_config(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(path)]) == 2
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "g.iq")]) == 2
    assert f"dataset.{field}" in capsys.readouterr().err


def test_cli_on_iq_path_that_is_a_directory_exits_three(trained, tmp_path, capsys):
    cfg, _, out = trained
    iq, sidecar = _dataset_file(cfg, tmp_path)
    folder = tmp_path / "folder.iq"
    folder.mkdir()
    (tmp_path / "folder.iq.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match="not a regular file"):
        load_iq_file(folder)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(folder)]) == 3
    train_cfg = base_config()
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(folder)}
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3
    assert "not a regular file" in capsys.readouterr().err

    (tmp_path / "ds.iq.json").unlink()
    (tmp_path / "ds.iq.json").mkdir()  # the sidecar is the directory now
    with pytest.raises(DataFormatError, match="sidecar .* not a regular file"):
        load_iq_file(iq)
    assert cli.main(["infer", "--model", str(out / "model.lrcm"), "--iq", str(iq)]) == 3
    train_cfg["dataset"] = {"kind": "iq_file", "path": str(iq)}
    assert cli.main(["train", "--config", str(write_config(tmp_path, train_cfg))]) == 3


@pytest.mark.parametrize(
    "field, value",
    [("label_names", 5), ("label_names", None), ("state_length", "64"), ("training_macs", 1.5),
     ("accuracy", "high")],
)
def test_cli_report_on_wrongly_typed_metrics_field_exits_three(tmp_path, capsys, field, value):
    metrics = {"accuracy": 0.5, "label_names": ["a", "b"], "trainable_params": 128,
               "training_macs": 999, "state_length": 64, field: value}
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics))
    with pytest.raises(DataFormatError, match=field):
        report_fom(metrics)
    assert cli.main(["report", "--metrics", str(path)]) == 3
    assert field in capsys.readouterr().err


def test_cli_report_on_model_with_wrongly_typed_train_seconds_exits_three(trained, tmp_path, capsys):
    _, _, out = trained
    bad = tmp_path / "bad.lrcm"
    _edit_container_header(out / "model.lrcm", bad, lambda h: h["metadata"].update(train_seconds="slow"))
    metrics = str(out / "metrics.json")
    assert cli.main(["report", "--metrics", metrics, "--model", str(out / "model.lrcm")]) == 0
    assert cli.main(["report", "--metrics", metrics, "--model", str(bad)]) == 3
    assert "train_seconds" in capsys.readouterr().err


# --- malformed hyperopt sections ---


def _hyperopt_config(**section):
    cfg = base_config()
    cfg["topology"] = None
    cfg["hyperopt"] = {
        "method": "grid", "levels": 1, "points_per_axis": 2,
        "space": {"lambda": {"type": "real", "low": 1e-4, "high": 1e-1, "log": True}},
        **section,
    }
    return cfg


@pytest.mark.parametrize(
    "section, match",
    [
        ({"levels": 0}, "levels"),
        ({"points_per_axis": 0}, "points_per_axis"),
        ({"levels": "a"}, "levels"),
        ({"method": "bayes", "budget": 0}, "budget"),
        ({"method": "bayes", "budget": "x"}, "budget"),
        ({"method": "bayes", "budget": 3, "init_points": -1}, "init_points"),
        ({"method": "bayes", "budget": 3, "seed": "s"}, "seed"),
        ({"space": {"k": {"type": "integers", "values": 5}}}, "space.k"),
        ({"space": {"lambda": {"type": "categorical", "options": 3}}}, "space.lambda"),
        ({"space": {"lambda": {"type": "real", "low": None, "high": 1.0}}}, "space.lambda"),
        ({"space": {"lambda": {"type": "real", "low": 1e-4, "high": 1e-1, "log": "no"}}}, "space.lambda"),
        ({"space": {"k": {"type": "integers", "values": [2.5]}}}, "space.k"),
    ],
)
def test_cli_hyperopt_on_malformed_section_exits_two(tmp_path, section, match):
    cfg = _hyperopt_config(**section)
    if "k" in section.get("space", {}):
        cfg["topology"] = base_config()["topology"]
    with pytest.raises(ConfigError, match=match):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2


@pytest.mark.parametrize(
    "name, domain",
    [
        ("k", {"type": "categorical", "options": [2.5]}),
        ("n_nodes", {"type": "categorical", "options": [True]}),
        ("lambda", {"type": "categorical", "options": ["0.001"]}),
        ("n_nodes", {"type": "real", "low": 4, "high": 9.9}),  # a real domain yields floats
        ("loop_gain", {"type": "categorical", "options": [0.5, None]}),
        ("transform", {"type": "categorical", "options": [5]}),
    ],
)
def test_cli_hyperopt_domain_value_of_the_wrong_type_exits_two(tmp_path, capsys, name, domain):
    # Each value a domain yields is checked as the config field it replaces, not coerced.
    cfg = _hyperopt_config(space={name: domain})
    cfg["topology"] = base_config()["topology"]
    with pytest.raises(ConfigError, match=f"space.{name}"):
        build_search_space(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert f"hyperopt.space.{name}" in capsys.readouterr().err


@pytest.mark.parametrize("method", [{"method": "grid"}, {"method": "bayes", "budget": 3}])
def test_cli_hyperopt_without_a_valid_point_exits_two(tmp_path, method):
    # k = 3 divides no datapoint length of 256 samples, so every point is invalid.
    cfg = _hyperopt_config(**method, space={"k": {"type": "integers", "values": [3]}})
    cfg["topology"] = base_config()["topology"]
    with pytest.raises(ConfigError, match="constraint"):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2


@pytest.mark.parametrize("method", [{"method": "grid"}, {"method": "bayes", "budget": 3}])
@pytest.mark.parametrize("name", ["k", "n_nodes", "loop_gain", "input_gain", "noise_std"])
def test_cli_hyperopt_over_a_loop_field_of_a_layered_topology_exits_two(tmp_path, monkeypatch, capsys, method, name):
    calls = []
    monkeypatch.setattr(pipeline, "load_dataset", lambda *a, **kw: calls.append(1))
    cfg = _hyperopt_config(**method, space={name: {"type": "categorical", "options": [1]}})
    cfg["topology"] = {"layers": [[{"input_length": 128, "n_nodes": 8, "loop_gain": 0.8, "input_gain": 1.0}]]}
    with pytest.raises(ConfigError, match="requires the compact topology form"):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "requires the compact topology form" in capsys.readouterr().err
    assert calls == []


def test_cli_hyperopt_whose_trials_all_fail_with_a_typed_error_raises_the_first(tmp_path, monkeypatch):
    # Domain values are checked before any trial, so a typed trial failure comes from the fit.
    def singular_fit(stages, lam, seed):
        raise SingularMatrixError(f"singular at {lam}")

    monkeypatch.setattr(pipeline, "_fit", singular_fit)
    cfg = _hyperopt_config()
    with pytest.raises(SingularMatrixError, match="singular at 0.0001"):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 4


def test_cli_hyperopt_whose_trials_all_fail_ends_in_the_first_error(tmp_path, monkeypatch):
    cfg = _hyperopt_config(space={"lambda": {"type": "categorical", "options": [-1.0, -2.0]}})
    with pytest.raises(ConfigError, match="-1.0"):
        run_hyperopt(cfg)
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 2

    def broken_fit(stages, lam, seed):
        raise ZeroDivisionError(f"no fit at {lam}")

    monkeypatch.setattr(pipeline, "_fit", broken_fit)
    cfg = _hyperopt_config()
    with pytest.raises(StageError, match="no fit at 0.0001") as info:
        run_hyperopt(cfg)
    assert info.value.stage == "hyperopt"
    assert cli.main(["hyperopt", "--config", str(write_config(tmp_path, cfg))]) == 3
