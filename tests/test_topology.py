import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looprc import topology
from looprc.reservoir import LoopSpec, Mask, generate_mask, mask_for, run_loop
from looprc.topology import LoopBank, TopologySpec, combine, run_topology


def loop(n=4, seed=0, **kw):
    kw.setdefault("loop_gain", 0.8)
    kw.setdefault("input_gain", 1.3)
    return LoopSpec(n_nodes=n, mask_seed=seed, **kw)


def even(k, length, n, **kw):
    """k loops of ``n`` nodes over an even split of ``length`` values;
    loop i has mask seed i."""
    step = length // k
    loops = tuple(loop(n, seed=i, **kw) for i in range(k))
    return LoopBank(loops=loops, input_lengths=(step,) * k)


def one_loop(spec, length, combiner="sum"):
    return TopologySpec(layers=(LoopBank(loops=(spec,), input_lengths=(length,)),), combiner=combiner)


def pieces(dp, bank):
    """The slices of ``dp`` that the bank's loops read."""
    return [dp[start:stop] for start, stop in bank.slices]


# --- combine ---


def test_sum_golden():
    assert combine([[[1.0, 2.0]], [[3.0, 4.0]]], "sum").tolist() == [[4.0, 6.0]]


def test_normalized_product_golden():
    out = combine([[[1.0, 0.0]], [[2.0, 5.0]]], "normalized_product")
    assert out[0] == pytest.approx([1.0, 0.0])


def test_concat_preserves_lengths():
    out = combine([np.ones((3, 750)), np.zeros((3, 250))], "concat")
    assert out.shape == (3, 1000)


def test_zero_product_vector_stays_zero():
    out = combine([[[1.0, 0.0], [1.0, 1.0]], [[0.0, 3.0], [3.0, 4.0]]], "normalized_product")
    assert out[0].tolist() == [0.0, 0.0]
    assert out[1].tolist() == [0.6, 0.8]


def test_combine_validation():
    with pytest.raises(ValueError):
        combine([[[1.0, 2.0]], [[3.0]]], "sum")
    with pytest.raises(ValueError):
        combine([[[1.0]]], "mean")
    with pytest.raises(ValueError):
        combine([], "sum")
    with pytest.raises(ValueError):
        combine([[1.0, 2.0]], "sum")  # a lone vector is not a (B, N) batch
    with pytest.raises(ValueError):
        combine([np.ones((2, 3)), np.ones((1, 3))], "concat")  # different B


def test_single_state_degeneracy():
    v = np.array([[3.0, 4.0]])
    assert combine([v], "sum").tolist() == [[3.0, 4.0]]
    assert combine([v], "concat").tolist() == [[3.0, 4.0]]
    assert combine([v], "normalized_product").tolist() == [[0.6, 0.8]]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sum_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    states = [rng.normal(size=(1, 6)) for _ in range(4)]
    base = combine(states, "sum")
    perm = combine([states[i] for i in rng.permutation(4)], "sum")
    assert np.allclose(base, perm, rtol=1e-12, atol=0)


# --- bank / topology construction ---


@pytest.mark.parametrize("length", [4.7, True, 0, -1])
def test_bank_rejects_an_input_length_that_is_not_a_positive_int(length):
    # Nothing is coerced: 4.7 does not become 4, nor True 1.
    with pytest.raises(ValueError, match="input lengths"):
        LoopBank(loops=(loop(), loop()), input_lengths=(4, length))


def test_bank_needs_one_input_length_per_loop():
    with pytest.raises(ValueError):
        LoopBank(loops=(loop(), loop()), input_lengths=(4,))
    with pytest.raises(ValueError):
        LoopBank(loops=(), input_lengths=())


def test_sum_requires_equal_final_sizes():
    bank = LoopBank(loops=(loop(4), loop(6, seed=1)), input_lengths=(2, 2))
    with pytest.raises(ValueError):
        TopologySpec(layers=(bank,), combiner="sum")
    # concat accepts heterogeneous loop sizes
    topo = TopologySpec(layers=(bank,), combiner="concat")
    assert topo.output_length == 10


def test_layer_dimension_chain_is_checked():
    first = even(2, 8, 4, loop_gain=0.5, input_gain=1.0)
    good = LoopBank(loops=(loop(3, seed=7),), input_lengths=(8,))
    TopologySpec(layers=(first, good))  # 2*4 produced, 8 consumed
    bad = LoopBank(loops=(loop(3, seed=7),), input_lengths=(9,))
    with pytest.raises(ValueError):
        TopologySpec(layers=(first, bad))


def test_bank_generates_each_loop_mask_from_its_seed():
    bank = even(3, 12, 5, loop_gain=0.5, input_gain=1.0, mask_distribution="uniform")
    assert bank.masks == tuple(mask_for(spec) for spec in bank.loops)
    assert not bank.masks[0].values.flags.writeable


def test_bank_keeps_given_masks_and_checks_them():
    specs = (loop(3, seed=1), loop(3, seed=2))
    given = (Mask(values=[1.0, 2.0, 3.0]), generate_mask(3, 40))
    bank = LoopBank(loops=specs, input_lengths=(4, 4), masks=given)
    assert bank.masks == given
    topo = TopologySpec(layers=(bank,), combiner="concat")
    dp = np.arange(8.0)
    assert np.array_equal(run_topology([dp], topo)[0, :3], run_loop([dp[:4]], specs[0], [[1.0, 2.0, 3.0]])[0])
    with pytest.raises(ValueError, match="3 nodes but a mask of 4 values"):
        LoopBank(loops=specs, input_lengths=(4, 4), masks=(given[0], Mask(values=np.ones(4))))
    with pytest.raises(ValueError, match="1 masks for 2 loops"):
        LoopBank(loops=specs, input_lengths=(4, 4), masks=given[:1])


def test_bank_fuses_runs_of_equal_loops_once_when_built(monkeypatch):
    specs = (loop(3, seed=1), loop(3, seed=2), loop(3, seed=3, nonlinearity="tanh"), loop(3, seed=4), loop(3, seed=5))
    lengths = (4, 4, 4, 4, 6)
    bank = LoopBank(loops=specs, input_lengths=lengths)
    assert bank.slices == ((0, 4), (4, 8), (8, 12), (12, 16), (16, 22))
    assert [run for run, _ in bank.runs] == [(0, 1), (2,), (3,), (4,)]
    for run, stacked in bank.runs:
        assert np.array_equal(stacked, [bank.masks[i].values for i in run])
        assert not stacked.flags.writeable
    assert bank == LoopBank(loops=specs, input_lengths=lengths)
    topo = TopologySpec(layers=(bank,), combiner="concat")
    built = []
    monkeypatch.setattr(LoopSpec, "__post_init__", lambda self: built.append(self))
    run_topology(np.ones((2, 22)), topo)
    assert built == []


# --- run_topology ---


def test_k1_topology_is_run_loop_bit_identical():
    rng = np.random.default_rng(2)
    dp = rng.normal(size=12)
    spec = loop(8, seed=3)
    direct = run_loop([dp], spec, [mask_for(spec).values])[0]
    for combiner in ("sum", "concat"):
        topo = one_loop(spec, 12, combiner=combiner)
        assert np.array_equal(run_topology([dp], topo)[0], direct)
    topo = one_loop(spec, 12, combiner="normalized_product")
    expect = direct / np.linalg.norm(direct)
    assert np.allclose(run_topology([dp], topo)[0], expect, rtol=1e-12)


def test_a_run_reading_the_whole_row_hands_run_loop_a_view_of_the_datapoints(monkeypatch):
    seen = []
    monkeypatch.setattr(topology, "run_loop", lambda rows, *a: seen.append(rows) or run_loop(rows, *a))
    rows = np.random.default_rng(3).normal(size=(3, 24))
    bank = even(4, 24, 5)
    assert len(bank.runs) == 1
    joint = run_topology(rows, TopologySpec(layers=(bank,), combiner="concat"))
    assert len(seen) == 1 and seen[0].shape == (12, 6) and np.shares_memory(seen[0], rows)
    for b, dp in enumerate(rows):
        for j, (spec, piece) in enumerate(zip(bank.loops, pieces(dp, bank))):
            assert np.array_equal(joint[b, j * 5 : (j + 1) * 5], run_loop([piece], spec, [mask_for(spec).values])[0])


@pytest.mark.parametrize("nonlinearity", ["identity", "sine"])
def test_sum_combiner_matches_independent_loop_oracle(nonlinearity):
    """Split loops share no state, so the joint vector must equal the sum
    of per-loop runs done completely outside the topology code."""
    rng = np.random.default_rng(4)
    dp = rng.normal(size=24)
    bank = even(3, 24, 5, loop_gain=0.7, input_gain=0.9, nonlinearity=nonlinearity)
    topo = TopologySpec(layers=(bank,), combiner="sum")
    joint = run_topology([dp], topo)[0]

    oracle = np.zeros(5)
    for spec, piece in zip(bank.loops, pieces(dp, bank)):
        oracle += run_loop([piece], spec, [mask_for(spec).values])[0]
    assert np.allclose(joint, oracle, rtol=1e-12, atol=0)


def test_concat_blocks_recover_per_loop_states():
    rng = np.random.default_rng(5)
    dp = rng.normal(size=20)
    bank = even(4, 20, 6, loop_gain=0.6, input_gain=1.1)
    topo = TopologySpec(layers=(bank,), combiner="concat")
    joint = run_topology([dp], topo)[0]
    for j, (spec, piece) in enumerate(zip(bank.loops, pieces(dp, bank))):
        block = joint[j * 6 : (j + 1) * 6]
        assert np.array_equal(block, run_loop([piece], spec, [mask_for(spec).values])[0])


def test_two_layer_routing_matches_manual_chain():
    rng = np.random.default_rng(6)
    dp = rng.normal(size=16)
    first = even(2, 16, 4, loop_gain=0.5, input_gain=1.0)
    second = LoopBank(loops=(loop(3, seed=20),), input_lengths=(8,))
    topo = TopologySpec(layers=(first, second), combiner="sum")
    joint = run_topology([dp], topo)[0]

    mid = np.concatenate(
        [
            run_loop([piece], spec, [mask_for(spec).values])[0]
            for spec, piece in zip(first.loops, pieces(dp, first))
        ]
    )
    expect = run_loop([mid], second.loops[0], [mask_for(second.loops[0]).values])[0]
    assert np.array_equal(joint, expect)


def test_run_topology_validates_input():
    topo = one_loop(loop(4), 8)
    with pytest.raises(ValueError):
        run_topology(np.ones((1, 9)), topo)
    with pytest.raises(ValueError):
        run_topology(np.ones((2, 4)), topo)
    with pytest.raises(ValueError):
        run_topology(np.ones(8), topo)  # a lone datapoint is not a (B, L) batch
    with pytest.raises(ValueError):
        run_topology(np.ones((2, 8)), topo, noise_seeds=[1])  # one seed per datapoint


def test_noise_streams_are_reproducible_and_per_loop():
    dp = np.tile(np.arange(4.0), 2)  # both halves identical
    specs = tuple(
        LoopSpec(n_nodes=3, loop_gain=0.5, input_gain=1.0, noise_std=0.1, mask_seed=9)
        for _ in range(2)
    )
    bank = LoopBank(loops=specs, input_lengths=(4, 4))
    topo = TopologySpec(layers=(bank,), combiner="concat")
    a = run_topology([dp], topo, noise_seeds=[77])[0]
    b = run_topology([dp], topo, noise_seeds=[77])[0]
    assert np.array_equal(a, b)
    # same spec, same mask, same input halves -- only the per-loop noise
    # stream can make the two blocks differ
    assert not np.array_equal(a[:3], a[3:])
    c = run_topology([dp], topo, noise_seeds=[78])[0]
    assert not np.array_equal(a, c)


def test_output_length_property():
    bank = even(4, 32, 7, loop_gain=0.5, input_gain=1.0)
    assert TopologySpec(layers=(bank,), combiner="sum").output_length == 7
    assert TopologySpec(layers=(bank,), combiner="concat").output_length == 28
    assert TopologySpec(layers=(bank,), combiner="sum").input_length == 32
