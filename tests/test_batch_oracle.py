"""The batch reservoir and transforms against the per-row oracle they replaced.

Every batch output must be byte-identical (``np.array_equal``) to the
per-row path in ``per_row_oracle``, noise included, and errors must name
the same first failing datapoint, cause and chip.  Datasets generated one
class block at a time must equal the per-burst generator's, byte for byte,
and hash as it did.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import per_row_oracle as oracle
from looprc.errors import NumericOverflowError, StageError
from looprc import reservoir, synthrf
from looprc.ioformats import write_iq_file
from looprc.pipeline import compute_states, dataset_from_iq_file, dataset_to_iq_file, transform_rows
from looprc.reservoir import LoopSpec, generate_mask, run_loop
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
    first = LoopBank(loops=(a[0], a[1], b, a[2]), slices=((0, 5), (5, 10), (10, 16), (16, 21)))
    second = LoopBank(
        loops=(spec_for("sine", (1.0, 0.6), 5, sigma, 7), spec_for("sine", (1.0, 0.6), 5, sigma, 8)),
        slices=((0, 6), (6, 13)),
    )
    return TopologySpec(layers=(first, second), combiner=combiner)


def even_topology(combiner, sigma):
    loops = tuple(
        LoopSpec(n_nodes=30, loop_gain=1.0, input_gain=0.5, filter_taps=(1.0, 0.6), noise_std=sigma,
                 mask_distribution="uniform", mask_seed=5 + i)
        for i in range(4)
    )
    bank = LoopBank(loops=loops, slices=tuple((6 * i, 6 * (i + 1)) for i in range(4)))
    return TopologySpec(layers=(bank,), combiner=combiner)


TOPOLOGIES = {"even": even_topology, "heterogeneous": heterogeneous_topology}


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


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("sigma", [0.0, 1e-4])
@pytest.mark.parametrize("combiner", ["sum", "concat", "normalized_product"])
@pytest.mark.parametrize("batch", [1, 7])
def test_compute_states_matches_per_row_oracle(batch, combiner, sigma, threads):
    topo = even_topology(combiner, sigma)
    rows = np.random.default_rng(batch).normal(size=(batch, 22))  # padded to 24
    got = compute_states(rows, topo, run_seed=3, threads=threads)
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
        slices=((0, 3),),
    )
    second = LoopBank(
        loops=(LoopSpec(n_nodes=2, loop_gain=0.5, input_gain=1e10, nonlinearity="identity", mask_seed=1),),
        slices=((0, 2),),
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


def test_mean_profile_of_many_bursts_sums_in_row_order():
    bursts = _bursts(700, 64)
    assert compute_mean_amplitude(bursts).values.tobytes() == oracle.mean_amplitude(bursts).tobytes()


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
    assert hashlib.sha256(back.bursts.tobytes()).hexdigest() == (
        "297cd79c60b701b85d2701c474642b5a0072f521eda7a4966e36e82f69aeef9f"
    )
    assert back.content_hash() == "4a0701f40111fb9dd704b50ba7104d194438b3cbe0e5453d7d9e27fc9c31bc31"
