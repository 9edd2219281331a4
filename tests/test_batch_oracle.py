"""The batch reservoir and transforms against the per-row oracle they replaced.

Every batch output must be byte-identical (``np.array_equal``) to the
per-row path in ``per_row_oracle``, noise included, and errors must name
the same first failing datapoint, cause and chip.  Datasets generated one
class block at a time must equal the per-burst generator's, byte for byte,
and hash as it did.
"""

import dataclasses
import hashlib
import itertools
import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import per_row_oracle as oracle
from looprc.errors import DataFormatError, NumericOverflowError, StageError
from looprc import ioformats, pipeline, reservoir, synthrf, transforms
from looprc.classifier import RidgeModel
from looprc.ioformats import read_iq_samples, write_iq_file
from looprc.pipeline import compute_states, dataset_from_iq_file, dataset_to_iq_file, transform_rows
from looprc.reservoir import LoopSpec, Mask, generate_mask, run_loop
from looprc.synthrf import (
    IDENTITY_FINGERPRINT,
    SAMPLE_RATE,
    LabeledDataset,
    device_fingerprint,
    make_sei_dataset,
    make_wiprec_dataset,
)
from looprc.topology import LoopBank, TopologySpec, run_topology
from looprc.transforms import TransformSpec, compute_mean_amplitude


def spec_for(nonlinearity, taps, n, sigma, seed=0):
    return LoopSpec(
        n_nodes=n,
        loop_gain=0.6 if nonlinearity == "identity" else 0.9,
        input_gain=1.1,
        nonlinearity=nonlinearity,
        filter_taps=taps,
        noise_std=sigma,
        mask_seed=seed,
        mask_distribution="uniform",
    )


@pytest.mark.parametrize("sigma", [0.0, 1e-4])
@pytest.mark.parametrize("n", [1, 2, 3, 300])
@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6), (0.0, 1.0), (0.5, -0.3)])
@pytest.mark.parametrize("nonlinearity", ["sine", "tanh", "identity"])
@pytest.mark.parametrize("batch", [1, 5])
def test_run_loop_matches_per_row_oracle(batch, nonlinearity, taps, n, sigma):
    if n == 1 and taps[1] != 0.0:
        # The h(1) tap of a one-node loop is the chip being computed.
        with pytest.raises(ValueError, match="n_nodes >= 2"):
            spec_for(nonlinearity, taps, n, sigma)
        return
    spec = spec_for(nonlinearity, taps, n, sigma)
    rng = np.random.default_rng(n + batch)
    rows = rng.normal(size=(batch, 13))
    masks = [generate_mask(n, 40 + r, "uniform") for r in range(batch)]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=batch)]
    got = run_loop(rows, spec, [m.values for m in masks], seeds)
    expect = np.stack([oracle.run_loop(rows[r], spec, masks[r], seeds[r]) for r in range(batch)])
    assert got.shape == (batch, n)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6)])
@pytest.mark.parametrize("batch, n, length", [(64, 2048, 21), (3, 5, 40)])
def test_noise_drawn_in_blocks_matches_per_row_oracle(monkeypatch, batch, n, length, taps):
    # 64 x 2048 rows take 8 steps per noise block, so 21 steps span three
    # blocks, the last one short; the small case shrinks the block to 2 steps.
    if n == 5:
        monkeypatch.setattr(reservoir, "NOISE_BLOCK_VALUES", 2 * batch * n)
    assert reservoir.NOISE_BLOCK_VALUES // (batch * n) < length
    spec = spec_for("sine", taps, n, 1e-3)
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(batch, length))
    masks = [generate_mask(n, 40 + r, "uniform") for r in range(batch)]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=batch)]
    got = run_loop(rows, spec, [m.values for m in masks], seeds)
    expect = np.stack([oracle.run_loop(rows[r], spec, masks[r], seeds[r]) for r in range(batch)])
    assert np.array_equal(got, expect)
    assert run_loop(np.empty((0, length)), spec, np.empty((0, n)), []).shape == (0, n)


@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6), (0.5, -0.3)])
@pytest.mark.parametrize("length", [1, 5])
def test_zero_input_keeps_the_oracles_signed_zeros(length, taps):
    # array_equal does not tell -0.0 from 0.0; the state bytes must match.
    # A negative loop gain keeps -0.0 states alive from step to step, so
    # the all-zero states carry both signs.
    spec = LoopSpec(n_nodes=6, loop_gain=-0.9, input_gain=1.1, filter_taps=taps, mask_distribution="uniform")
    rows = np.where(np.random.default_rng(1).random((16, length)) < 0.5, -0.0, 0.0)
    masks = [generate_mask(6, 40 + r, "uniform") for r in range(16)]
    got = run_loop(rows, spec, [m.values for m in masks])
    expect = np.stack([oracle.run_loop(rows[r], spec, masks[r]) for r in range(16)])
    assert not got.any() and np.signbit(got).any() != np.signbit(got).all()
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("h1", [0.0, 0.6])
@pytest.mark.parametrize("h0", [1.0, -1.0, 0.5])
def test_each_h0_matches_the_per_row_oracle_bytes(h0, h1, sigma):
    # With h(1) != 0 a unit h(0) takes no multiply, since x * 1.0 is x,
    # signed zeros included.  Row 1 is all zero, so without noise its
    # states are ±0.0 (which sign depends on the taps; the negative loop
    # gain keeps -0.0 alive), and a lost sign shows in the bytes.
    spec = LoopSpec(n_nodes=7, loop_gain=-0.9, input_gain=1.1, filter_taps=(h0, h1), noise_std=sigma,
                    mask_distribution="uniform")
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 9))
    rows[1] = 0.0
    masks = [generate_mask(7, 40 + r, "uniform") for r in range(4)]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=4)]
    got = run_loop(rows, spec, [m.values for m in masks], seeds)
    expect = np.stack([oracle.run_loop(rows[r], spec, masks[r], seeds[r]) for r in range(4)])
    assert got.tobytes() == expect.tobytes()
    if sigma == 0.0:
        assert not got[1].any()


@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6)])
@pytest.mark.parametrize("length", [64, 4096])
def test_run_loop_memory_is_a_few_input_and_state_arrays(length, taps):
    # Without noise the kernel holds per-row input terms and a few state
    # buffers; a drive built for every step at once, R x L x N values,
    # would exceed this bound about 60-fold at L = 4096.
    batch, n = 4, 300
    spec = spec_for("sine", taps, n, 0.0)
    rows = np.random.default_rng(0).normal(size=(batch, length))
    masks = np.stack([generate_mask(n, 40 + r, "uniform").values for r in range(batch)])
    tracemalloc.start()
    try:
        run_loop(rows, spec, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (4 * batch * length + 16 * batch * n)


def heterogeneous_topology(combiner, sigma):
    """Two layers; the first has fusable runs of loops and a loop of its own."""
    a = [spec_for("sine", (1.0, 0.6), 3, sigma, seed) for seed in (1, 2, 4)]
    b = spec_for("tanh", (1.0, 0.0), 4, sigma, 3)
    first = LoopBank(loops=(a[0], a[1], b, a[2]), input_lengths=(5, 5, 6, 5))
    second = LoopBank(
        loops=(spec_for("sine", (1.0, 0.6), 5, sigma, 7), spec_for("sine", (1.0, 0.6), 5, sigma, 8)),
        input_lengths=(6, 7),
    )
    return TopologySpec(layers=(first, second), combiner=combiner)


def even_topology(combiner, sigma):
    loops = tuple(
        LoopSpec(n_nodes=30, loop_gain=1.0, input_gain=0.5, filter_taps=(1.0, 0.6), noise_std=sigma,
                 mask_distribution="uniform", mask_seed=5 + i)
        for i in range(4)
    )
    bank = LoopBank(loops=loops, input_lengths=(6,) * 4)
    return TopologySpec(layers=(bank,), combiner=combiner)


def two_run_topology(combiner, sigma):
    """Two layers; the first bank's two runs read inputs of unequal lengths,
    the second's one run reads the whole upstream state."""
    a = [spec_for("sine", (1.0, 0.6), 4, sigma, seed) for seed in range(1, 6)]
    first = LoopBank(loops=tuple(a), input_lengths=(3, 3, 5, 5, 5))
    b = tuple(spec_for("sine", (1.0, 0.6), 4, sigma, seed) for seed in (6, 7))
    return TopologySpec(layers=(first, LoopBank(loops=b, input_lengths=(10, 10))), combiner=combiner)


TOPOLOGIES = {"even": even_topology, "heterogeneous": heterogeneous_topology, "two_runs": two_run_topology}


@pytest.mark.parametrize("sigma", [0.0, 1e-4])
@pytest.mark.parametrize("combiner", ["sum", "concat", "normalized_product"])
@pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
@pytest.mark.parametrize("batch", [1, 7])
def test_run_topology_matches_per_row_oracle(batch, shape, combiner, sigma):
    topo = TOPOLOGIES[shape](combiner, sigma)
    rng = np.random.default_rng(batch)
    rows = rng.normal(size=(batch, topo.input_length))
    seeds = [int(s) for s in rng.integers(0, 2**32, size=batch)]
    got = run_topology(rows, topo, noise_seeds=seeds)
    expect = np.stack([oracle.run_topology(rows[b], topo, noise_seed=seeds[b]) for b in range(batch)])
    assert got.shape == (batch, topo.output_length)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("parent", [0, 3, 2**32 + 7, np.int64(11), np.uint32(2**31)])
def test_noise_seed_is_the_oracles_datapoint_and_loop_seed_link(parent, cold_noise_caches):
    for a, b in [(929, 0), (929, 5), (0, 0), (1, 3), (2, 1000)]:
        got = reservoir.noise_seed(parent, a, b)
        assert type(got) is int
        assert got == oracle._loop_noise_seed(parent, a, b)
        if a == 929:
            assert got == oracle._datapoint_noise_seed(int(parent), b)
        assert reservoir.noise_seed(parent, a, b) == got
    info = reservoir.noise_seed.cache_info()
    assert (info.hits, info.misses) == (5, 5)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("sigma", [0.0, 1e-4])
@pytest.mark.parametrize("combiner", ["sum", "concat", "normalized_product"])
@pytest.mark.parametrize("batch", [1, 7])
def test_compute_states_matches_per_row_oracle(batch, combiner, sigma, threads, monkeypatch):
    topo = even_topology(combiner, sigma)
    rows = np.random.default_rng(batch).normal(size=(batch, 22))  # padded to 24
    derived = []
    seed_of = pipeline.noise_seed
    monkeypatch.setattr(pipeline, "noise_seed", lambda *a: derived.append(a) or seed_of(*a))
    got = compute_states(rows, topo, run_seed=3, threads=threads)
    assert len(derived) == (batch if sigma > 0 else 0)  # a noise-free topology needs no seeds
    expect = oracle.compute_states(rows, topo, 24, run_seed=3, threads=1)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6)])
def test_overflow_reports_the_chip_of_the_lowest_failing_row(taps):
    # Row 2 blows up first in time, row 1 later; rows 0 and 3 stay bounded.
    spec = LoopSpec(n_nodes=2, loop_gain=3.0, input_gain=1.0, nonlinearity="identity", filter_taps=taps)
    mask = generate_mask(2, 0)
    rows = np.zeros((4, 1200))
    rows[1, 300:] = 1.0
    rows[2] = 1.0
    with pytest.raises(NumericOverflowError) as expect:
        oracle.run_loop(rows[1], spec, mask)
    with pytest.raises(NumericOverflowError) as got:
        run_loop(rows, spec, [mask.values] * 4)
    assert got.value.chip_index == expect.value.chip_index


def failure_topology():
    """Identity loops whose overflow depends on the input scale.

    Layer 0 turns an input of 1 into states near 1e300 (finite) and an
    input of 1e9 into an overflow; layer 1 multiplies states near 1e300
    by 1e10 and overflows.
    """
    first = LoopBank(
        loops=(LoopSpec(n_nodes=2, loop_gain=0.5, input_gain=1e300, nonlinearity="identity"),),
        input_lengths=(3,),
    )
    second = LoopBank(
        loops=(LoopSpec(n_nodes=2, loop_gain=0.5, input_gain=1e10, nonlinearity="identity", mask_seed=1),),
        input_lengths=(2,),
    )
    return TopologySpec(layers=(first, second), combiner="sum")


ROW_KINDS = {
    "fine": np.zeros(3),
    "layer1": np.ones(3),
    "layer0": np.full(3, 1e9),
    "nan": np.array([0.0, np.nan, 0.0]),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "order",
    [
        ("fine", "layer1", "layer0", "nan"),
        ("fine", "nan", "layer0", "layer1"),
        ("layer0", "layer1", "fine", "nan"),
        ("fine", "fine", "layer1", "layer0", "fine"),
    ],
)
def test_stage_error_names_first_failing_datapoint(order, threads):
    topo = failure_topology()
    rows = np.stack([ROW_KINDS[kind] for kind in order])
    with pytest.raises(StageError) as expect:
        oracle.compute_states(rows, topo, 3)
    with pytest.raises(StageError) as got:
        compute_states(rows, topo, threads=threads)
    assert got.value.stage == "reservoir"
    assert got.value.datapoint == expect.value.datapoint
    assert type(got.value.cause) is type(expect.value.cause)
    if isinstance(expect.value.cause, NumericOverflowError):
        assert got.value.cause.chip_index == expect.value.cause.chip_index


def _spy_block_sizes(monkeypatch) -> list:
    sizes = []
    run = pipeline.run_topology
    monkeypatch.setattr(pipeline, "run_topology", lambda rows, *a: sizes.append(len(rows)) or run(rows, *a))
    return sizes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1e-4])
@pytest.mark.parametrize("block", [1, 7, 17])
def test_compute_states_in_blocks_matches_per_row_oracle(block, sigma, threads, monkeypatch):
    # Two layers: the first holds the most states per datapoint, 13, so a
    # block of ``block`` datapoints holds 13 * block of them.
    topo = heterogeneous_topology("concat", sigma)
    assert max(sum(bank.output_lengths) for bank in topo.layers) == 13
    monkeypatch.setattr(pipeline, "STATE_BLOCK_VALUES", 13 * block)
    sizes = _spy_block_sizes(monkeypatch)
    rows = np.random.default_rng(block).normal(size=(17, topo.input_length))
    got = compute_states(rows, topo, run_seed=3, threads=threads)
    # The noise seeds follow each datapoint's index in the whole batch.
    expect = oracle.compute_states(rows, topo, topo.input_length, run_seed=3)
    assert got.tobytes() == expect.tobytes()
    assert sum(sizes) == 17
    assert max(sizes) == min(block, -(-17 // threads))


def _cpu_quota_files(monkeypatch, tmp_path, cpu_max=None, cfs_quota=None, cfs_period=None) -> None:
    """Point the cgroup quota files at files of the given contents (bytes
    or text; None: no such file)."""
    for name, content in (("_CPU_MAX", cpu_max), ("_CFS_QUOTA", cfs_quota), ("_CFS_PERIOD", cfs_period)):
        path = tmp_path / name
        if content is not None:
            (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        monkeypatch.setattr(pipeline, name, str(path))


def test_usable_cpus_are_the_affinity_mask_else_the_cpu_count(monkeypatch, tmp_path):
    _cpu_quota_files(monkeypatch, tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert pipeline._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


@pytest.mark.parametrize(
    "files, cpus",
    [
        ({"cpu_max": "200000 100000\n"}, 2),
        ({"cpu_max": "150000 100000\n"}, 2),
        ({"cpu_max": "50000 100000\n"}, 1),
        ({"cpu_max": "max 100000\n"}, 8),
        ({"cpu_max": "garbage\n"}, 8),
        ({"cpu_max": b"\xff\xfe"}, 8),
        ({"cfs_quota": "200000\n", "cfs_period": "100000\n"}, 2),
        ({"cfs_quota": "150000\n", "cfs_period": "100000\n"}, 2),
        ({"cfs_quota": "50000\n", "cfs_period": "100000\n"}, 1),
        ({"cfs_quota": "-1\n", "cfs_period": "100000\n"}, 8),
        ({"cfs_quota": "garbage\n", "cfs_period": "100000\n"}, 8),
        ({"cfs_quota": "200000\n"}, 8),  # no period file
        ({}, 8),
        ({"cpu_max": "1600000 100000\n"}, 8),
        ({"cpu_max": "max 100000\n", "cfs_quota": "100000\n", "cfs_period": "100000\n"}, 8),
    ],
    ids=["v2_two", "v2_one_and_a_half", "v2_half", "v2_max", "v2_garbage", "v2_binary", "v1_two",
         "v1_one_and_a_half", "v1_half", "v1_none", "v1_garbage", "v1_without_period", "no_file",
         "quota_above_the_mask", "v2_before_v1"],
)
def test_usable_cpus_are_bounded_by_the_cgroup_cpu_quota(monkeypatch, tmp_path, files, cpus):
    # ceil(quota / period), at least 1; cgroup v2's cpu.max, else v1's two files.
    _cpu_quota_files(monkeypatch, tmp_path, **files)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert pipeline._usable_cpus() == cpus


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failure_in_a_later_block_names_its_global_datapoint(threads, monkeypatch):
    topo = failure_topology()
    rows = np.stack([ROW_KINDS[kind] for kind in ["fine"] * 9 + ["layer1", "fine", "layer0"]])
    monkeypatch.setattr(pipeline, "STATE_BLOCK_VALUES", 2 * 7)  # blocks of 7 datapoints
    with pytest.raises(StageError) as expect:
        oracle.compute_states(rows, topo, 3)
    with pytest.raises(StageError) as got:
        compute_states(rows, topo, threads=threads)
    assert got.value.datapoint == expect.value.datapoint == 9
    assert type(got.value.cause) is type(expect.value.cause)
    assert got.value.cause.chip_index == expect.value.cause.chip_index


# Loops that go non-finite in ways the per-step check saw, for run_loop's
# single check of the final state: spec fields, the mask entry set to an
# exact 0 (or None), and whether the call raises.  Rows 1 and 2 take a
# drive sample of 4 at steps 7 and 2, which an input gain of 1e308 turns
# into ±inf: the higher row fails first.
RECLOCK_CASES = {
    "sine_of_an_infinite_drive": ({}, None, True),
    "tanh_of_an_infinite_drive_stays_finite": ({"nonlinearity": "tanh"}, None, False),
    "tanh_of_a_nan_drive_at_a_zero_mask_entry": ({"nonlinearity": "tanh"}, 2, True),
    "taps_0_1": ({"filter_taps": (0.0, 1.0)}, None, True),
    "noise_from_the_memo": ({"noise_std": 1e-3}, None, True),
    "noise_drawn_in_blocks": ({"noise_std": 1e-3}, None, True),
    # A tanh state of ±inf can turn finite at the next step, so these two
    # are checked at every step.  With a loop gain of 1e-315 only an
    # infinite state feeds back enough to saturate tanh.
    "tanh_with_noise_that_overflows": ({"nonlinearity": "tanh", "input_gain": 1.0, "noise_std": 1e308}, None, True),
    "tanh_with_a_tap_sum_that_overflows": (
        {"nonlinearity": "tanh", "input_gain": 1.0, "loop_gain": 1e-315, "filter_taps": (1e308, 1e308)}, None, True),
}


def _loop_outcome(call):
    try:
        return call().tobytes()
    except NumericOverflowError as exc:
        return exc.chip_index


def _states_outcome(call):
    try:
        return call().tobytes()
    except StageError as exc:
        return exc.datapoint, type(exc.cause), exc.cause.chip_index


@pytest.mark.parametrize("case", sorted(RECLOCK_CASES))
def test_a_call_checked_once_reports_what_the_per_step_check_reported(case, cold_noise_caches, monkeypatch):
    fields, zero_at, raises = RECLOCK_CASES[case]
    batch, n, length = 4, 5, 10
    if case == "noise_drawn_in_blocks":
        monkeypatch.setattr(reservoir, "NOISE_BLOCK_VALUES", 2 * batch * n)  # blocks of 2 steps
    spec = LoopSpec(**{"n_nodes": n, "loop_gain": 0.9, "input_gain": 1e308, "filter_taps": (1.0, 0.6), **fields})
    mask = generate_mask(n, 7)
    if zero_at is not None:
        mask = Mask(values=np.where(np.arange(n) == zero_at, 0.0, mask.values))
    rows = np.random.default_rng(5).uniform(-0.5, 0.5, size=(batch, length))
    rows[1, 7], rows[2, 2] = 4.0, -4.0
    seeds = [11, 12, 13, 14]
    got = _loop_outcome(lambda: run_loop(rows, spec, [mask.values] * batch, seeds))
    per_row = [_loop_outcome(lambda r=r: oracle.run_loop(rows[r], spec, mask, seeds[r])) for r in range(batch)]
    failures = [chip for chip in per_row if isinstance(chip, int)]
    assert got == (failures[0] if failures else b"".join(per_row))
    assert isinstance(got, int) == raises
    for r in range(batch):
        assert _loop_outcome(lambda: run_loop(rows[r : r + 1], spec, [mask.values], seeds[r : r + 1])) == per_row[r]
    topo = TopologySpec(layers=(LoopBank(loops=(spec,), input_lengths=(length,), masks=(mask,)),))
    expect = _states_outcome(lambda: oracle.compute_states(rows, topo, length, run_seed=3))
    assert _states_outcome(lambda: compute_states(rows, topo, run_seed=3)) == expect
    assert isinstance(expect, tuple) == raises


# --- the in-loop noise memo ---


@pytest.mark.parametrize("seeds", [None, [None] * 3, [np.random.SeedSequence(1)] * 3,
                                   [np.random.default_rng(1)] * 3, [1.5] * 3, [True] * 3, [1, -1, 2]],
                         ids=["none", "none_each", "seed_sequence", "generator", "float", "bool", "negative"])
def test_noisy_loops_need_one_integer_seed_per_row(seeds):
    spec = spec_for("sine", (1.0, 0.6), 7, 1e-3)
    rows = np.random.default_rng(0).normal(size=(3, 9))
    masks = np.stack([generate_mask(7, 40 + r, "uniform").values for r in range(3)])
    with pytest.raises(ValueError, match="integer noise seed"):
        run_loop(rows, spec, masks, seeds)
    quiet = spec_for("sine", (1.0, 0.6), 7, 0.0)
    assert run_loop(rows, quiet, masks, seeds).tobytes() == run_loop(rows, quiet, masks).tobytes()
    assert run_loop(np.empty((0, 9)), spec, np.empty((0, 7)), []).shape == (0, 7)  # no rows need no seeds
    if seeds is None:
        with pytest.raises(ValueError, match="integer noise seed"):
            run_topology(np.ones((2, 24)), even_topology("sum", 1e-3), noise_seeds=None)
        assert run_topology(np.ones((2, 24)), even_topology("sum", 0.0), noise_seeds=None).shape == (2, 30)


MEMO_CASE = {"seeds": (11, 12, 13), "sigma": 1e-3, "length": 9, "n": 7}


def _memo_call(monkeypatch, seeds, sigma, length, n, taps=(1.0, 0.6), input_seed=0):
    """run_loop on fresh rows and masks, checked byte for byte against the
    per-row oracle; returns the states and the generators run_loop built."""
    spec = spec_for("sine", taps, n, sigma)
    rng = np.random.default_rng(input_seed)
    rows = rng.normal(size=(len(seeds), length))
    masks = [generate_mask(n, 40 + input_seed + r, "uniform") for r in range(len(seeds))]
    built = []
    make = np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda *a: built.append(a) or make(*a))
        got = run_loop(rows, spec, [mask.values for mask in masks], list(seeds))
    expect = np.stack([oracle.run_loop(rows[r], spec, masks[r], seeds[r]) for r in range(len(seeds))])
    assert got.tobytes() == expect.tobytes()
    return got, len(built)


@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6)])
def test_a_repeated_noise_key_builds_no_generator_and_keeps_the_oracle_bytes(cold_noise_caches, monkeypatch, taps):
    first, built = _memo_call(monkeypatch, **MEMO_CASE, taps=taps)
    assert built == 3
    # Other rows and masks, the same seeds: the noise block is reused.
    second, built = _memo_call(monkeypatch, **MEMO_CASE, taps=taps, input_seed=1)
    assert built == 0
    assert first.tobytes() != second.tobytes()
    info = reservoir._noise_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize(
    "part, value", [("seeds", (11, 12, 14)), ("sigma", 2e-3), ("length", 10), ("n", 8)]
)
def test_each_part_of_the_noise_key_misses_the_memo(cold_noise_caches, monkeypatch, part, value):
    _memo_call(monkeypatch, **MEMO_CASE)
    _, built = _memo_call(monkeypatch, **{**MEMO_CASE, part: value}, input_seed=1)
    assert built == 3
    info = reservoir._noise_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 1)


def test_noise_of_many_blocks_draws_past_the_memo(cold_noise_caches, monkeypatch):
    monkeypatch.setattr(reservoir, "NOISE_BLOCK_VALUES", 2 * 3 * MEMO_CASE["n"])  # blocks of 2 steps
    for _ in range(2):
        _, built = _memo_call(monkeypatch, **MEMO_CASE)
        assert built == 3
    assert reservoir._noise_block.cache_info().misses == 0


def test_the_cached_noise_block_is_read_only_and_unchanged_by_later_calls(cold_noise_caches, monkeypatch):
    seeds, sigma, length, n = MEMO_CASE.values()
    _memo_call(monkeypatch, **MEMO_CASE)
    block = reservoir._noise_block(seeds, sigma, length, n)
    assert block.shape == (length, len(seeds), n)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0] = 0.0
    for input_seed in (1, 2):
        _memo_call(monkeypatch, **MEMO_CASE, input_seed=input_seed)
    assert reservoir._noise_block(seeds, sigma, length, n) is block
    for r, seed in enumerate(seeds):
        assert block[:, r].tobytes() == np.random.default_rng(seed).normal(0.0, sigma, (length, n)).tobytes()


def test_threads_sharing_the_noise_memo_each_get_their_own_seeds_noise(cold_noise_caches):
    # More workers than cores and a short switch interval, so calls with
    # three alternating keys replace the one entry under each other.
    spec = spec_for("sine", (1.0, 0.6), 7, 1e-3)
    rows = np.random.default_rng(0).normal(size=(3, 9))
    masks = [generate_mask(7, 40 + r, "uniform") for r in range(3)]
    keys = [(11, 12, 13), (21, 22, 23), (31, 32, 33)]
    expect = {key: np.stack([oracle.run_loop(rows[r], spec, masks[r], key[r]) for r in range(3)]).tobytes()
              for key in keys}

    def call(i):
        key = keys[i % len(keys)]
        return key, run_loop(rows, spec, [mask.values for mask in masks], list(key)).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(call, i) for i in range(96)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 96
    assert all(got == expect[key] for key, got in results)


def test_compute_states_through_the_noise_memo_gives_the_same_bytes_for_two_threads(cold_noise_caches):
    topo = even_topology("concat", 1e-4)
    rows = np.random.default_rng(5).normal(size=(7, topo.input_length))
    expect = oracle.compute_states(rows, topo, topo.input_length, run_seed=3)
    # Twice each: the second pass meets the memo and seed caches warm.
    for threads in (1, 2, 2, 1):
        assert compute_states(rows, topo, run_seed=3, threads=threads).tobytes() == expect.tobytes()
    for b in (3, 3, 4):
        # One datapoint per call, always at index 0.
        got = compute_states(rows[b : b + 1], topo, run_seed=3, threads=2)
        assert got.tobytes() == oracle.compute_states(rows[b : b + 1], topo, topo.input_length, run_seed=3).tobytes()
    assert reservoir._noise_block.cache_info().hits >= 2


# --- transforms, mean profile, I/Q writer and dataset hashes ---


def _bursts(batch: int, length: int) -> np.ndarray:
    rng = np.random.default_rng([batch, length])
    x = rng.normal(size=(batch, length)) + 1j * rng.normal(size=(batch, length))
    x[:, ::17] = 0  # zero samples take differential_fft's phase-0 branch
    x.real[:, 5::31] = -0.0
    x.imag[:, 7::29] = -0.0
    return x


@pytest.mark.parametrize("length", [256, 1024])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_transforms_profile_and_iq_writer_match_per_burst_oracle(tmp_path, batch, length):
    bursts = _bursts(batch, length)
    profile = compute_mean_amplitude(bursts)
    assert profile.values.tobytes() == oracle.mean_amplitude(bursts).tobytes()
    specs = [
        TransformSpec(kind="amplitude_subburst", params={"length": 64}),
        TransformSpec(kind="amplitude_subburst", params={"offset": 3, "length": 200}),
        TransformSpec(kind="fft_mag"),
        TransformSpec(kind="diff_fft"),
        *(TransformSpec(kind="decimated_dft", params={"d": d}) for d in (1, 2, 4)),
        TransformSpec(kind="kay_freq", params={"stride": 1}),
        TransformSpec(kind="kay_freq"),
    ]
    for spec in specs:
        want = oracle.transform_rows(bursts, [spec], profile.values).tobytes()
        assert spec.apply(bursts, profile).tobytes() == want, spec
        assert transform_rows(bursts, [spec], profile).tobytes() == want, spec
    want = oracle.transform_rows(bursts, specs, profile.values)
    assert transform_rows(bursts, specs, profile).tobytes() == want.tobytes()
    write_iq_file(tmp_path / "b.iq", bursts, SAMPLE_RATE)
    assert (tmp_path / "b.iq").read_bytes() == oracle.iq_file_bytes(bursts)


def test_transform_rows_of_zero_length_bursts_is_a_transform_stage_error():
    with pytest.raises(StageError) as info:
        transform_rows(np.ones((3, 0), dtype=np.complex64), [TransformSpec(kind="fft_mag")])
    assert info.value.stage == "transform"


@pytest.mark.parametrize("batch, length, blocks", [(3, 256, 1), (200, 1024, 4)])
def test_transform_rows_widens_complex64_block_by_block_to_the_bytes_of_the_whole_widened_batch(batch, length, blocks):
    # 3 x 256 is one block of 12 KiB of complex128, under numpy's 256 KiB
    # threshold for reusing temporaries; 200 x 1024 runs three blocks of
    # 64 bursts (1 MiB of complex128, 512 KiB per float64 temporary) and
    # a last one of 8 (64 KiB per float64 temporary).
    assert -(-batch // (pipeline.TRANSFORM_BLOCK_VALUES // length)) == blocks
    narrow = _bursts(batch, length).astype(np.complex64)
    wide = narrow.astype(np.complex128)
    profile = compute_mean_amplitude(wide)
    specs = [TransformSpec(kind=kind) for kind in transforms._KINDS]
    for spec in specs:
        want = spec.apply(wide, profile).tobytes()
        assert transform_rows(narrow, [spec], profile).tobytes() == want, spec
        assert transform_rows(wide, [spec], profile).tobytes() == want, spec
    want = np.concatenate([spec.apply(wide, profile) for spec in specs], axis=1)
    assert transform_rows(narrow, specs, profile).tobytes() == want.tobytes()


#: An I/Q chunk of 192 samples: three bursts of 64.
SMALL_CHUNK = 8 * 192


@pytest.mark.parametrize("length", [64, 100, 300])  # divides the chunk, does not, exceeds it
def test_chunked_iq_writer_and_reader_match_the_whole_file_oracle(tmp_path, monkeypatch, length):
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", SMALL_CHUNK)
    bursts = _bursts(7, length)  # with -0.0 in I and in Q
    bursts[3, 0] = complex(-0.0, -0.0)  # the first sample of a chunk
    bursts[2, -1] = complex(-0.0, 1.0)  # the last sample of a chunk
    path = tmp_path / "c.iq"
    write_iq_file(path, bursts, SAMPLE_RATE, labels=[0, 1, 2, 0, 1, 2, 0], label_names=["a", "b", "c"])
    blob = path.read_bytes()
    assert blob == oracle.iq_file_bytes(bursts)
    samples, sidecar = read_iq_samples(path)
    assert samples.dtype == np.complex64
    assert samples.astype(np.complex128).tobytes() == oracle.decode_iq_file(blob, length).tobytes()
    assert samples.shape == (7, length) and not samples.flags.writeable
    assert sidecar["labels"] == [0, 1, 2, 0, 1, 2, 0]


@pytest.mark.parametrize("length", [64, 100, 300])
def test_iq_writer_encodes_complex64_complex128_and_strided_bursts_to_the_oracle_bytes(tmp_path, monkeypatch, length):
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", SMALL_CHUNK)
    bursts = _bursts(7, length)
    for given in (bursts, bursts.astype(np.complex64), bursts[::-1, ::2], bursts.astype(np.complex64)[:, 1::2]):
        write_iq_file(tmp_path / "w.iq", given, SAMPLE_RATE)
        assert (tmp_path / "w.iq").read_bytes() == oracle.iq_file_bytes(given), given.dtype


@pytest.mark.parametrize("part, burst", [("real", 4), ("imag", 5), ("imag", 6)])
def test_chunked_reader_names_the_first_non_finite_burst_by_its_global_index(tmp_path, monkeypatch, part, burst):
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", SMALL_CHUNK)
    bursts = _bursts(7, 64)
    getattr(bursts, part)[burst, 9] = np.nan
    bursts.real[6, 1] = np.inf
    path = tmp_path / "bad.iq"
    write_iq_file(path, bursts, SAMPLE_RATE)
    whole = oracle.decode_iq_file(path.read_bytes(), 64)
    first = int(np.argmin(np.isfinite(whole).all(axis=1)))
    assert first == burst
    with pytest.raises(DataFormatError, match=f"burst {first} has non-finite samples"):
        read_iq_samples(path)


def test_a_file_cut_short_while_read_is_a_truncated_file_error(tmp_path, monkeypatch):
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", SMALL_CHUNK)
    path = tmp_path / "cut.iq"
    write_iq_file(path, _bursts(7, 64), SAMPLE_RATE)
    n_bytes = path.stat().st_size
    check_labels = ioformats._check_labels

    def cut_after_stat(*args):  # the shape is known, no sample is read yet
        os.truncate(path, n_bytes - 1028)  # inside burst 5, in the second chunk
        check_labels(*args)

    monkeypatch.setattr(ioformats, "_check_labels", cut_after_stat)
    with pytest.raises(DataFormatError, match=rf"ended at byte {n_bytes - 1028} of {n_bytes} \(truncated\)"):
        read_iq_samples(path)


def test_reading_and_writing_an_iq_file_takes_the_samples_plus_a_few_chunks(tmp_path, monkeypatch):
    chunk = 2**18
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", chunk)
    bursts = _bursts(256, 2048)  # 4 MiB on file, 8 MiB of complex128
    path = tmp_path / "big.iq"
    tracemalloc.start()
    write_iq_file(path, bursts, SAMPLE_RATE)
    _, write_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    samples, _ = read_iq_samples(path)
    _, read_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Writing holds one float32 chunk.  Reading holds the result, the read
    # buffer, the decode's complex64 temporaries (at most two, each a
    # chunk) and numpy's cast buffer.  A whole-file pass takes 4 MiB more
    # for either.
    assert write_peak < 1.5 * chunk
    assert read_peak - samples.nbytes < 4 * chunk
    assert samples.dtype == np.complex64
    assert samples.astype(np.complex128).tobytes() == oracle.decode_iq_file(path.read_bytes(), 2048).tobytes()


def test_writing_a_complex64_capture_takes_no_more_than_a_complex128_one(tmp_path, monkeypatch):
    chunk = 2**18
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", chunk)
    bursts = _bursts(256, 2048).astype(np.complex64)  # 4 MiB, as on file
    path = tmp_path / "big.iq"
    tracemalloc.start()
    write_iq_file(path, bursts, SAMPLE_RATE)
    _, write_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Widening the whole capture before encoding takes 8 MiB.
    assert write_peak < 1.5 * chunk
    assert path.read_bytes() == oracle.iq_file_bytes(bursts)


def test_a_dataset_read_from_an_iq_file_takes_its_bursts_plus_a_few_chunks(tmp_path, monkeypatch):
    chunk = 2**18
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", chunk)
    path = tmp_path / "ds.iq"
    write_iq_file(path, _bursts(256, 2048), SAMPLE_RATE, labels=[0, 1] * 128, label_names=["a", "b"])
    tracemalloc.start()
    ds = dataset_from_iq_file(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The dataset keeps the complex64 samples read_iq_samples decodes, with
    # its chunk buffers; a complex128 copy of the file would take 8 MiB,
    # 32 chunks.
    assert ds.bursts.dtype == np.complex64
    assert peak - ds.bursts.nbytes < 4 * chunk
    assert ds.bursts.astype(np.complex128).tobytes() == oracle.decode_iq_file(path.read_bytes(), 2048).tobytes()


def test_inference_with_an_fft_model_takes_the_samples_rows_and_a_few_transform_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(ioformats, "IQ_CHUNK_BYTES", 2**16)
    bursts = _bursts(4096, 256)
    iq, model = tmp_path / "cap.iq", tmp_path / "fft.lrcm"
    write_iq_file(iq, bursts, SAMPLE_RATE)
    readout = RidgeModel(weights=np.ones((256, 2)), lam=1.0, label_map=("a", "b"))
    pipeline.ModelArtifact(None, [TransformSpec(kind="fft_mag")], None, readout, burst_length=256).save(model)
    tracemalloc.start()
    _, scores = pipeline.run_inference(model, iq)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    samples = rows = 8 * bursts.size  # complex64 samples, float64 rows
    block = 16 * pipeline.TRANSFORM_BLOCK_VALUES  # one block of complex128
    # A null topology passes the rows on as the states.  A complex128
    # capture transformed whole takes 32 MiB above the complex64 samples.
    assert peak - samples < rows + 4 * block
    wide = bursts.astype(np.complex64).astype(np.complex128)
    assert scores.tobytes() == (transforms.fft_magnitude(wide) @ readout.weights).tobytes()


def test_mean_profile_of_many_bursts_sums_in_row_order():
    bursts = _bursts(700, 64)
    assert compute_mean_amplitude(bursts).values.tobytes() == oracle.mean_amplitude(bursts).tobytes()


def test_mean_profile_of_complex64_bursts_widens_one_burst_at_a_time():
    bursts = np.ones((2000, 1024), dtype=np.complex64)  # 16 MiB
    tracemalloc.start()
    try:
        profile = compute_mean_amplitude(bursts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The float64 amplitudes take 16 MiB; widening the whole set to
    # complex128 first would take 32 MiB more.
    assert peak < 1.25 * 8 * bursts.size
    assert np.array_equal(profile.values, np.ones(1024))


# ``content_hash`` of each dataset as generated and hashed one burst at a time.
PER_BURST_HASHES = {
    "sei": "59fb814f35700121892b61dd911cc30492b9c33c93964dd431a71e05da46c520",
    "sei_if_offset": "4a135a0ae790da0076faf44de58e01fbd7e566adc81373fdeed92f38549ec425",
    "wiprec_clean": "60cce990ee90a61f8d3bdec7e159cb0775145592c878363a73feda39f70f6a05",
    "wiprec_noisy": "2c2498002d9d5c2de69b41641ed622ed4f0ddd05e6afb6501c65108c30c95d23",
    "wiprec_bw_normalized": "d0a62baa93519e0aa178062a88d4562ab80b30bb774fd1ef194599685492c2f2",
    "iq_file": "5b40555f0ae423e3dccc54e0afb9be45d12b14a9102d5957309f554bb5f43eb5",
    # Class blocks of 30 x 1024 (480 KiB) and 24 x 1024 (384 KiB) samples:
    # above numpy's 256 KiB threshold for computing into a temporary.
    "sei_large_blocks": "f3157b5e989c8f4576a9c86cd2d7e1fe90f2e9ee09fae47ccbc89a1d3891e44a",
    "wiprec_large_blocks": "8881ba5055e9f67ab01048760a13fd59fd669d5eadada137f01c5b4caa7b71c4",
}
DATASETS = {
    "sei": lambda: make_sei_dataset(n_devices=3, bursts_per_device=4, seed=2, length=256),
    "sei_if_offset": lambda: make_sei_dataset(n_devices=3, bursts_per_device=4, seed=2, length=256, if_offset=0.25),
    "wiprec_clean": lambda: make_wiprec_dataset(bursts_per_class=2, clean=True, seed=1, length=256),
    "wiprec_noisy": lambda: make_wiprec_dataset(bursts_per_class=2, clean=False, seed=1, length=256),
    "wiprec_bw_normalized": lambda: make_wiprec_dataset(
        bursts_per_class=2, clean=False, bw_normalized=True, seed=1, length=256
    ),
    "sei_large_blocks": lambda: make_sei_dataset(
        n_devices=3, bursts_per_device=30, length=1024, if_offset=0.25, spread=2.5, seed=4
    ),
    "wiprec_large_blocks": lambda: make_wiprec_dataset(bursts_per_class=24, clean=False, length=1024, seed=4),
}


def _round_trip(ds: LabeledDataset, path) -> LabeledDataset:
    dataset_to_iq_file(ds, path)
    return dataset_from_iq_file(path)


@pytest.mark.parametrize("name", sorted(PER_BURST_HASHES))
def test_dataset_hash_matches_per_burst_generator(tmp_path, name):
    if name == "iq_file":
        ds = _round_trip(DATASETS["sei_if_offset"](), tmp_path / "ds.iq")
    else:
        ds = DATASETS[name]()
    assert ds.content_hash() == PER_BURST_HASHES[name]


def _assert_same_dataset(got: LabeledDataset, want: LabeledDataset) -> None:
    assert got.bursts.tobytes() == want.bursts.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.train_idx.tobytes() == want.train_idx.tobytes()
    assert got.test_idx.tobytes() == want.test_idx.tobytes()
    assert got.label_names == want.label_names and got.meta == want.meta


@pytest.mark.parametrize("length", [64, 256, 1024])
@pytest.mark.parametrize(
    "if_offset, spread, bit_flip_prob, snr_db",
    itertools.product([0.0, 0.25], [0.0, 1.0, 2.5], [0.0, 0.1], [30.0, -5.0]),
)
def test_sei_dataset_matches_per_burst_oracle(if_offset, spread, bit_flip_prob, snr_db, length):
    kw = dict(n_devices=2, bursts_per_device=3, seed=6, length=length, if_offset=if_offset, spread=spread,
              bit_flip_prob=bit_flip_prob, snr_db=snr_db)
    _assert_same_dataset(make_sei_dataset(**kw), oracle.make_sei_dataset(**kw))


@pytest.mark.parametrize("length", [64, 256, 1024])
@pytest.mark.parametrize("fingerprints_per_class", [1, 5])
@pytest.mark.parametrize("form", ["clean", "noisy", "bw_normalized"])
def test_wiprec_dataset_matches_per_burst_oracle(form, fingerprints_per_class, length):
    kw = dict(bursts_per_class=7, clean=form == "clean", bw_normalized=form == "bw_normalized", seed=6,
              length=length, fingerprints_per_class=fingerprints_per_class, snr_db=10.0)
    _assert_same_dataset(make_wiprec_dataset(**kw), oracle.make_wiprec_dataset(**kw))


@pytest.mark.parametrize(
    "generate, kw",
    [
        # 20 x 1024 complex samples: a 320 KiB class block.
        ("make_sei_dataset", dict(n_devices=2, bursts_per_device=20, length=1024, spread=2.5, snr_db=-5.0)),
        ("make_sei_dataset", dict(n_devices=2, bursts_per_device=20, length=1000, if_offset=-0.3, bit_flip_prob=0.0)),
        ("make_wiprec_dataset", dict(bursts_per_class=20, clean=False, length=1024, fingerprints_per_class=1)),
        ("make_wiprec_dataset", dict(bursts_per_class=20, clean=False, length=1000, fingerprints_per_class=3)),
    ],
)
def test_class_blocks_above_the_elision_threshold_match_per_burst_oracle(generate, kw):
    _assert_same_dataset(getattr(synthrf, generate)(seed=8, **kw), getattr(oracle, generate)(seed=8, **kw))


def test_bandwidth_retries_match_per_burst_oracle(monkeypatch):
    # A burst that normalizes short is regenerated alone, from twice the raw
    # samples, until it fits; here one GFSK burst takes three retries.
    calls = []
    batch = synthrf.gen_protocol_bursts

    def spy(spec, seeds, length, *args):
        calls.append((len(seeds), length))
        return batch(spec, seeds, length, *args)

    monkeypatch.setattr(synthrf, "gen_protocol_bursts", spy)
    kw = dict(bursts_per_class=6, clean=False, bw_normalized=True, seed=3, length=256)
    _assert_same_dataset(make_wiprec_dataset(**kw), oracle.make_wiprec_dataset(**kw))
    assert (1, 8 * 1792) in calls


def test_zero_spread_makes_identity_fingerprints():
    # Every impairment is a draw times 0, so the fields are +0.0 or -0.0;
    # both compare equal to the identity's, and the chain is skipped.
    fps = [device_fingerprint(5, d, spread=0.0) for d in range(4)]
    assert all(fp == IDENTITY_FINGERPRINT for fp in fps)
    assert any(math.copysign(1.0, fp.cfo) < 0 for fp in fps)
    kw = dict(n_devices=4, bursts_per_device=3, seed=5, spread=0.0, length=256)
    _assert_same_dataset(make_sei_dataset(**kw), oracle.make_sei_dataset(**kw))


def test_iq_round_trip_of_signed_zeros_keeps_sample_bytes(tmp_path):
    # The reader turns most -0.0 parts into +0.0, as it always has; filling
    # the real and imaginary parts directly would keep them and change the hash.
    zeros = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(0.0, 0.0),
             complex(-0.0, 1.5), complex(1.5, -0.0), complex(-2.0, -0.0), complex(-0.0, -3.0)]
    samples = np.tile(zeros, (2, 4))
    ds = LabeledDataset(bursts=samples, labels=[0, 1], label_names=("a", "b"), train_idx=[0], test_idx=[1])
    back = _round_trip(ds, tmp_path / "z.iq")
    got = back.bursts[0, :8]
    assert np.signbit(got.real).tolist() == [True, False, False, False, False, False, True, True]
    assert np.signbit(got.imag).tolist() == [False] * 7 + [True]
    assert hashlib.sha256(back.bursts.astype(np.complex128).tobytes()).hexdigest() == (
        "297cd79c60b701b85d2701c474642b5a0072f521eda7a4966e36e82f69aeef9f"
    )
    assert back.content_hash() == "4a0701f40111fb9dd704b50ba7104d194438b3cbe0e5453d7d9e27fc9c31bc31"


def test_a_complex64_dataset_hashes_profiles_and_trains_as_its_complex128_twin(tmp_path, monkeypatch):
    ds = _round_trip(DATASETS["sei"](), tmp_path / "ds.iq")
    twin = dataclasses.replace(ds, bursts=ds.bursts.astype(np.complex128))
    assert (ds.bursts.dtype, twin.bursts.dtype) == (np.complex64, np.complex128)
    whole = hashlib.sha256(twin.bursts.tobytes())  # the 12 bursts hashed at once, not one at a time
    for part in (ds.labels, ds.train_idx, ds.test_idx):
        whole.update(part.tobytes())
    whole.update("\x00".join(ds.label_names).encode())
    assert ds.content_hash() == twin.content_hash() == whole.hexdigest()
    assert compute_mean_amplitude(ds.bursts).values.tobytes() == compute_mean_amplitude(twin.bursts).values.tobytes()

    cfg = {
        "dataset": {"kind": "iq_file", "path": str(tmp_path / "ds.iq")},
        "transforms": [{"kind": "diff_fft"}],  # the profile enters the rows
        "topology": {"k": 2, "n_nodes": 32, "loop_gain": 0.8, "input_gain": 1.0, "mask_seed": 3},
        "ridge": {"lam": 1e-3},
        "seed": 1,
        "threads": 1,
    }
    narrow = pipeline.run_training(cfg)
    monkeypatch.setattr(pipeline, "load_dataset", lambda ds_cfg: twin)
    wide = pipeline.run_training(cfg)
    assert pipeline.metrics_to_json(narrow.metrics_doc) == pipeline.metrics_to_json(wide.metrics_doc)
    assert narrow.artifact.model.weights.tobytes() == wide.artifact.model.weights.tobytes()
    assert narrow.artifact.profile.values.tobytes() == wide.artifact.profile.values.tobytes()
