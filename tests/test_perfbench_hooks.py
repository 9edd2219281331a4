"""The traced benchmark run must keep fitting the package it wraps.

``perfbench/spans.py`` looks up public functions and methods by name and
reads work counts from their positional arguments (``run_loop``'s second
argument is its ``LoopSpec``).  A rename or a signature change has to fail
here rather than crash the benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import looprc
import looprc.cli
import looprc.synthrf
import looprc.transforms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans

        yield spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_hooks_install_trace_and_uninstall(spans):
    pipeline = looprc.pipeline
    topo = pipeline.build_topology(
        {"k": 2, "n_nodes": 8, "loop_gain": 0.8, "input_gain": 1.0, "filter_taps": [1.0, 0.6]}, 16
    )
    rows = np.random.default_rng(0).normal(size=(5, 16))
    hooks = spans.looprc_hooks(looprc)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in hooks]

    tracer = spans.Tracer()
    tracer.install(hooks)
    try:
        traced = pipeline.compute_states(rows, topo, threads=2)
        # The burst counts read len(result.bursts) and len(args[0]), now (B, L) arrays.
        ds = looprc.synthrf.make_wiprec_dataset(bursts_per_class=2, length=64)
        pipeline.transform_rows(ds.bursts[:5], [looprc.transforms.TransformSpec(kind="fft_mag")])
    finally:
        tracer.uninstall()

    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert np.array_equal(traced, pipeline.compute_states(rows, topo, threads=2))
    names = [s.name for s in tracer.spans]
    assert names.count("pipeline.compute_states") == 1
    assert names.count("topology.run_topology") == 2  # one per thread chunk
    assert names.count("reservoir.run_loop") == 2  # the bank's two loops run fused
    _, counts, _ = spans.layer_totals(tracer.spans, {tracer.op_id})
    assert counts["reservoir.calls"] == 2
    # Rows (2 loops x 5 datapoints) times the loop size.
    assert counts["reservoir.chips"] == 2 * 5 * 8
    assert counts["synthrf.bursts"] == 8
    assert counts["transforms.bursts"] == 5
    assert names.count("transforms.TransformSpec.apply") == 1  # one call per transform, not per burst


def test_hooks_trace_a_model_round_trip_and_a_one_burst_prediction(spans, tmp_path):
    """The stream workload's path: save a trained model, load it, and
    classify one burst per call."""
    pipeline = looprc.pipeline
    cfg = {
        "dataset": {"kind": "sei", "n_devices": 2, "bursts_per_device": 5, "length": 64, "seed": 3},
        "transforms": [{"kind": "fft_mag"}],
        "topology": {"k": 2, "n_nodes": 8, "loop_gain": 0.8, "input_gain": 1.0, "filter_taps": [1.0, 0.6]},
    }
    artifact = pipeline.run_training(cfg).artifact
    burst = looprc.ioformats.IQBurst(samples=pipeline.load_dataset(cfg["dataset"]).bursts[0])

    tracer = spans.Tracer()
    tracer.install(spans.looprc_hooks(looprc))
    try:
        artifact.save(tmp_path / "model.lrcm")
        loaded = pipeline.ModelArtifact.load(tmp_path / "model.lrcm")
        labels, scores = loaded.predict_bursts([burst])
    finally:
        tracer.uninstall()

    assert len(labels) == 1 and scores.shape == (1, 2)
    names = [s.name for s in tracer.spans]
    for name in (
        "pipeline.ModelArtifact.save",
        "ioformats.read_container",
        "pipeline.ModelArtifact.states_for",
        "pipeline.ModelArtifact.predict_bursts",
    ):
        assert names.count(name) == 1, name
