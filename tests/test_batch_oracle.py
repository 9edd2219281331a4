"""The batch reservoir against the per-row oracle it replaced.

Every batch output must be byte-identical (``np.array_equal``) to the
per-row path in ``per_row_oracle``, noise included, and errors must name
the same first failing datapoint, cause and chip.
"""

import numpy as np
import pytest

import per_row_oracle as oracle
from looprc.errors import NumericOverflowError, StageError
from looprc import reservoir
from looprc.pipeline import compute_states
from looprc.reservoir import LoopSpec, generate_mask, run_loop
from looprc.topology import LoopBank, TopologySpec, even_bank, run_topology


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
@pytest.mark.parametrize("taps", [(1.0, 0.0), (1.0, 0.6)])
@pytest.mark.parametrize("nonlinearity", ["sine", "tanh", "identity"])
@pytest.mark.parametrize("batch", [1, 5])
def test_run_loop_matches_per_row_oracle(batch, nonlinearity, taps, n, sigma):
    spec = spec_for(nonlinearity, taps, n, sigma)
    rng = np.random.default_rng(n + batch)
    rows = rng.normal(size=(batch, 13))
    masks = [generate_mask(n, 40 + r, "uniform") for r in range(batch)]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=batch)]
    if n == 1 and taps[1] != 0.0:
        with pytest.raises(ValueError):
            oracle.run_loop(rows[0], spec, masks[0], seeds[0])
        with pytest.raises(ValueError):
            run_loop(rows, spec, [m.values for m in masks], seeds)
        return
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
    bank = even_bank(
        4, 24, n_nodes=30, loop_gain=1.0, input_gain=0.5, filter_taps=(1.0, 0.6),
        noise_std=sigma, mask_distribution="uniform", mask_seed_base=5,
    )
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
    got = compute_states(rows, topo, 24, run_seed=3, threads=threads)
    expect = oracle.compute_states(rows, topo, 24, run_seed=3, threads=1)
    assert np.array_equal(got, expect)


def test_overflow_reports_the_chip_of_the_lowest_failing_row():
    # Row 2 blows up first in time, row 1 later; rows 0 and 3 stay bounded.
    spec = LoopSpec(n_nodes=2, loop_gain=3.0, input_gain=1.0, nonlinearity="identity")
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
        compute_states(rows, topo, 3, threads=threads)
    assert got.value.stage == "reservoir"
    assert got.value.datapoint == expect.value.datapoint
    assert type(got.value.cause) is type(expect.value.cause)
    if isinstance(expect.value.cause, NumericOverflowError):
        assert got.value.cause.chip_index == expect.value.cause.chip_index
