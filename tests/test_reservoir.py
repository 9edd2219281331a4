import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looprc import reservoir
from looprc.errors import NumericOverflowError
from looprc.reservoir import LOOP_FIELDS, LoopSpec, Mask, generate_mask, mask_for, run_loop


def scalar_loop_oracle(dp, spec, mask):
    """Straight-line per-chip unrolling of the loop recurrence.

    Deliberately naive (scalar Python, explicit chip timeline) so the
    block-vectorized implementation is checked against an independently
    written one, not against itself.
    """
    f = {"sine": np.sin, "tanh": np.tanh, "identity": lambda v: v}[spec.nonlinearity]
    n = spec.n_nodes
    h0, h1 = spec.filter_taps
    eta, nu = spec.loop_gain, spec.input_gain
    total = len(dp) * n
    x = np.zeros(total + 1)  # x[t], 1-indexed; t <= 0 reads as 0

    def chip_state(t):
        return x[t] if t >= 1 else 0.0

    def chip_input(t):
        if t < 1:
            return 0.0
        block, j = divmod(t - 1, n)
        return mask.values[j] * dp[block]

    for t in range(1, total + 1):
        acc = h0 * f(eta * chip_state(t - n) + nu * chip_input(t))
        if h1 != 0.0:
            acc += h1 * f(eta * chip_state(t - n + 1) + nu * chip_input(t - 1))
        x[t] = acc
    return x[total - n + 1 :]


def noisy_chip_oracle(dp, spec, mask, seed, tap_after_noise=False):
    """A noisy loop clocked one chip at a time by the module's rule.

    Chip N-1's u=1 tap is chip 0 of the same pass before its noise is
    added; ``tap_after_noise`` takes that chip with its noise instead.
    Operands associate as in the per-row oracle: chip 0's drive terms are
    ``nu * m[0] * s`` and ``nu * m[N-1] * s_prev``, every other chip's
    ``(nu * s) * m[j]`` and ``(nu * s) * m[j-1]``.
    """
    f = {"sine": np.sin, "tanh": np.tanh, "identity": lambda v: v}[spec.nonlinearity]
    n, m = spec.n_nodes, mask.values
    h0, h1 = spec.filter_taps
    eta, nu = spec.loop_gain, spec.input_gain
    rng = np.random.default_rng(seed)
    eps = np.concatenate([rng.normal(0.0, spec.noise_std, size=n) for _ in dp])
    total = len(dp) * n
    clean, x = np.zeros(total), np.zeros(total)  # chip t before and after its noise

    def past(t):
        return x[t] if t >= 0 else 0.0

    for t in range(total):
        i, j = divmod(t, n)
        s, s_prev = dp[i], dp[i - 1] if i else 0.0
        d0, d1 = (nu * m[0] * s, nu * m[n - 1] * s_prev) if j == 0 else ((nu * s) * m[j], (nu * s) * m[j - 1])
        tap = clean[t - n + 1] if j == n - 1 and not tap_after_noise else past(t - n + 1)
        clean[t] = h0 * f(eta * past(t - n) + d0) + h1 * f(eta * tap + d1)
        x[t] = clean[t] + eps[t]
    return x[total - n :]


def dense_linear_oracle(dp, spec, mask):
    """Identity-nonlinearity loop solved as one explicit linear system.

    Builds the (total x total) unrolled-edge matrix and solves
    (I - L) x = b; valid only for the identity hook.
    """
    assert spec.nonlinearity == "identity"
    n = spec.n_nodes
    h0, h1 = spec.filter_taps
    eta, nu = spec.loop_gain, spec.input_gain
    total = len(dp) * n
    J = np.zeros(total + 1)
    for t in range(1, total + 1):
        block, j = divmod(t - 1, n)
        J[t] = mask.values[j] * dp[block]
    L = np.zeros((total, total))
    b = np.zeros(total)
    for t in range(1, total + 1):
        if t - n >= 1:
            L[t - 1, t - n - 1] += h0 * eta
        if h1 != 0.0 and 1 <= t - n + 1 <= total:
            L[t - 1, t - n + 1 - 1] += h1 * eta
        b[t - 1] = h0 * nu * J[t] + h1 * nu * (J[t - 1] if t - 1 >= 1 else 0.0)
    x = np.linalg.solve(np.eye(total) - L, b)
    return x[-n:]


# --- mask generation ---


def test_mask_binary_golden_values():
    assert generate_mask(4, seed=7).values.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert generate_mask(3, seed=1).values.tolist() == [-1.0, 1.0, 1.0]
    assert generate_mask(3, seed=2).values.tolist() == [1.0, -1.0, -1.0]


def test_mask_regeneration_is_bit_exact():
    a = generate_mask(600, seed=42, distribution="uniform")
    b = generate_mask(600, seed=42, distribution="uniform")
    assert np.array_equal(a.values, b.values)
    assert a.values.dtype == np.float64


def test_mask_binary_values_only():
    m = generate_mask(256, seed=9)
    assert set(np.unique(m.values)) == {-1.0, 1.0}


def test_mask_uniform_open_interval():
    m = generate_mask(600, seed=5, distribution="uniform")
    assert np.all(m.values > -1.0) and np.all(m.values < 1.0)
    # not degenerate
    assert len(np.unique(m.values)) == 600


def test_mask_distinct_seeds_differ():
    a = generate_mask(3, seed=1)
    b = generate_mask(3, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_mask_rejects_empty():
    with pytest.raises(ValueError):
        generate_mask(0, seed=1)


# --- run_loop basics ---


def test_hand_unrolled_golden():
    # l=2, N=3, eta=0.5, nu=1, h=(1,0), identity, mask all ones, s=[1,2]:
    # block 1 -> [1,1,1]; block 2 -> 0.5*1 + 2 = 2.5 at every chip.
    spec = LoopSpec(n_nodes=3, loop_gain=0.5, input_gain=1.0, nonlinearity="identity")
    mask = Mask(values=np.ones(3))
    out = run_loop([np.array([1.0, 2.0])], spec, [mask.values])[0]
    assert np.allclose(out, [2.5, 2.5, 2.5], atol=1e-12)


def test_masks_compare_and_hash_by_value():
    a, b = generate_mask(64, seed=3), generate_mask(64, seed=3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != generate_mask(64, seed=4)
    assert Mask(values=[0.0, 1.0]) == Mask(values=[-0.0, 1.0])
    assert hash(Mask(values=[0.0, 1.0])) == hash(Mask(values=[-0.0, 1.0]))


def test_deterministic_bit_identical():
    spec = LoopSpec(n_nodes=32, loop_gain=0.8, input_gain=1.3, mask_seed=4)
    mask = mask_for(spec)
    dp = np.random.default_rng(0).normal(size=40)
    a = run_loop([dp], spec, [mask.values])[0]
    b = run_loop([dp], spec, [mask.values])[0]
    assert np.array_equal(a, b)


def test_zero_loop_gain_collapses_to_final_sample():
    spec = LoopSpec(n_nodes=8, loop_gain=0.0, input_gain=0.7, mask_seed=3)
    mask = mask_for(spec)
    dp = np.array([0.3, -1.2, 0.9, 2.0])
    out = run_loop([dp], spec, [mask.values])[0]
    assert np.allclose(out, np.sin(0.7 * mask.values * dp[-1]), atol=0.0)


def test_zero_input_zero_state():
    spec = LoopSpec(n_nodes=16, loop_gain=0.9, input_gain=2.0, mask_seed=1)
    out = run_loop([np.zeros(10)], spec, [mask_for(spec).values])[0]
    assert not np.any(out)


def test_readout_length_always_n_nodes():
    for n, l in [(1, 1), (5, 1), (3, 7), (64, 2)]:
        spec = LoopSpec(n_nodes=n, loop_gain=0.5, input_gain=1.0, mask_seed=2)
        out = run_loop([np.ones(l)], spec, [mask_for(spec).values])[0]
        assert out.shape == (n,)


def test_boundedness_sine_and_tanh():
    rng = np.random.default_rng(7)
    for nl in ("sine", "tanh"):
        spec = LoopSpec(
            n_nodes=20, loop_gain=3.0, input_gain=5.0, nonlinearity=nl,
            filter_taps=(0.8, 0.5), mask_seed=6,
        )
        out = run_loop([rng.normal(size=30)], spec, [mask_for(spec).values])[0]
        assert np.all(np.abs(out) <= 0.8 + 0.5 + 1e-12)


def test_mask_length_mismatch_rejected():
    spec = LoopSpec(n_nodes=4, loop_gain=0.5, input_gain=1.0)
    with pytest.raises(ValueError):
        run_loop([np.ones(4)], spec, [np.ones(3)])


def test_non_finite_input_rejected():
    spec = LoopSpec(n_nodes=4, loop_gain=0.5, input_gain=1.0)
    with pytest.raises(ValueError):
        run_loop([np.array([1.0, np.nan])], spec, [mask_for(spec).values])


def test_unstable_identity_loop_overflows_with_chip_index():
    # eta=3 with identity nonlinearity grows ~3^blocks; float64 gives out
    # around block 600 and the error must name the first bad chip.
    spec = LoopSpec(n_nodes=2, loop_gain=3.0, input_gain=1.0, nonlinearity="identity")
    with pytest.raises(NumericOverflowError) as exc_info:
        run_loop([np.ones(2000)], spec, [mask_for(spec).values])
    assert exc_info.value.chip_index >= 1
    assert "chip" in str(exc_info.value)


def test_single_node_with_second_tap_rejected():
    # N=1 makes the u=1 tap refer to the chip being computed.
    with pytest.raises(ValueError, match="n_nodes >= 2"):
        LoopSpec(n_nodes=1, loop_gain=0.5, input_gain=1.0, filter_taps=(1.0, 0.5))


def test_noise_reproducible_and_zero_sigma_exact():
    spec = LoopSpec(n_nodes=8, loop_gain=0.6, input_gain=1.0, noise_std=0.01, mask_seed=2)
    mask = mask_for(spec)
    dp = np.linspace(-1, 1, 6)
    a = run_loop([dp], spec, [mask.values], [123])[0]
    b = run_loop([dp], spec, [mask.values], [123])[0]
    c = run_loop([dp], spec, [mask.values], [124])[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    clean_spec = LoopSpec(n_nodes=8, loop_gain=0.6, input_gain=1.0, mask_seed=2)
    x = run_loop([dp], clean_spec, [mask.values])[0]
    y = run_loop([dp], clean_spec, [mask.values], [99])[0]  # sigma=0: seed irrelevant
    assert np.array_equal(x, y)


# --- oracle equivalence ---


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 8),
    l=st.integers(1, 6),
    eta=st.floats(-1.2, 1.2),
    nu=st.floats(-2.0, 2.0),
    h1=st.sampled_from([0.0, 0.25, -0.4]),
    seed=st.integers(0, 2**31 - 1),
)
def test_identity_loop_matches_dense_linear_system(n, l, eta, nu, h1, seed):
    if n == 1 and h1 != 0.0:
        return
    rng = np.random.default_rng(seed)
    spec = LoopSpec(
        n_nodes=n, loop_gain=eta, input_gain=nu,
        nonlinearity="identity", filter_taps=(1.0, h1), mask_seed=seed % 1000,
    )
    mask = generate_mask(n, seed % 1000, "uniform")
    dp = rng.normal(size=l)
    got = run_loop([dp], spec, [mask.values])[0]
    assert np.allclose(got, dense_linear_oracle(dp, spec, mask), atol=1e-9, rtol=0)
    assert np.allclose(got, scalar_loop_oracle(dp, spec, mask), atol=1e-9, rtol=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    l=st.integers(1, 5),
    h1=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_sine_loop_matches_scalar_oracle(n, l, h1, seed):
    rng = np.random.default_rng(seed)
    spec = LoopSpec(
        n_nodes=n, loop_gain=0.9, input_gain=1.1,
        filter_taps=(1.0, h1), mask_seed=seed % 1000,
    )
    mask = generate_mask(n, seed % 1000, "uniform")
    dp = rng.normal(size=l)
    got = run_loop([dp], spec, [mask.values])[0]
    assert np.allclose(got, scalar_loop_oracle(dp, spec, mask), atol=1e-9, rtol=0)


def test_noisy_last_chip_taps_chip_0_of_its_pass_before_the_noise():
    spec = LoopSpec(n_nodes=4, loop_gain=0.9, input_gain=1.1, filter_taps=(1.0, 0.6), noise_std=0.1,
                    mask_distribution="uniform", mask_seed=2)
    mask = mask_for(spec)
    dp = np.random.default_rng(6).normal(size=3)
    got = run_loop([dp], spec, [mask.values], [17])[0]
    assert got.tobytes() == noisy_chip_oracle(dp, spec, mask, 17).tobytes()
    # Tapping chip 0 with its noise is another rule, not a rounding slip.
    assert np.abs(got - noisy_chip_oracle(dp, spec, mask, 17, tap_after_noise=True)).max() > 1e-3


def test_fading_memory_of_first_sample():
    # Two inputs differing only in s(1): the state distance must shrink
    # as the sequence grows, for a stable identity loop.
    spec = LoopSpec(n_nodes=6, loop_gain=0.8, input_gain=1.0, nonlinearity="identity", mask_seed=11)
    mask = mask_for(spec)
    rng = np.random.default_rng(3)

    def dist(l):
        dp = rng.normal(size=l)
        dp2 = dp.copy()
        dp2[0] += 1.0
        a = run_loop([dp], spec, [mask.values])[0]
        b = run_loop([dp2], spec, [mask.values])[0]
        return np.linalg.norm(a - b)

    assert dist(32) < dist(2) * 0.01


def test_loop_fields_name_every_loop_spec_field():
    assert set(LOOP_FIELDS) == {f.name for f in dataclasses.fields(LoopSpec)}


@pytest.mark.parametrize(
    "kw",
    [{"n_nodes": 4.0}, {"n_nodes": np.int64(4)}, {"loop_gain": float("nan")}, {"filter_taps": (1.0, float("inf"))},
     {"mask_seed": True}],
)
def test_loop_spec_coerces_nothing(kw):
    with pytest.raises(ValueError, match=f"loop.{next(iter(kw))}"):
        LoopSpec(**{"n_nodes": 4, "loop_gain": 0.5, "input_gain": 1.0, **kw})


@pytest.mark.parametrize("args", [(4.0, 1), (4, 1.5), (4, 1, "gaussian")])
def test_generate_mask_checks_its_arguments(args):
    with pytest.raises(ValueError, match="mask"):
        generate_mask(*args)


def _count_nonlinearity_calls(monkeypatch, name) -> list:
    calls = []
    f = reservoir.NONLINEARITIES[name]
    monkeypatch.setitem(reservoir.NONLINEARITIES, name, lambda *a, **kw: calls.append(1) or f(*a, **kw))
    return calls


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("nonlinearity", ["sine", "tanh"])
@pytest.mark.parametrize("taps, per_step", [((1.0, 0.6), 2), ((0.0, 1.0), 2), ((1.0, 0.0), 1)])
def test_a_finite_step_calls_the_nonlinearity_once_for_both_taps(monkeypatch, taps, per_step, nonlinearity, sigma):
    # With h(1) != 0, one call takes both taps' arguments and one chip
    # N-1's own chain; a finite call is clocked once.
    calls = _count_nonlinearity_calls(monkeypatch, nonlinearity)
    spec = LoopSpec(n_nodes=5, loop_gain=0.9, input_gain=1.1, nonlinearity=nonlinearity, filter_taps=taps,
                    noise_std=sigma)
    length = 17
    rows = np.random.default_rng(0).normal(size=(3, length))
    run_loop(rows, spec, [generate_mask(5, r).values for r in range(3)], [1, 2, 3])
    assert len(calls) == per_step * length


@pytest.mark.parametrize("lowest", [0, 1])
@pytest.mark.parametrize("taps, per_step", [((1.0, 0.6), 2), ((1.0, 0.0), 1)])
def test_an_overflowing_call_is_clocked_again_up_to_its_lowest_rows_failure(monkeypatch, taps, per_step, lowest):
    # The first pass runs every step; the checked one stops at row 0's
    # failing step, and runs to the end when only a higher row fails.
    calls = _count_nonlinearity_calls(monkeypatch, "identity")
    spec = LoopSpec(n_nodes=2, loop_gain=3.0, input_gain=1.0, nonlinearity="identity", filter_taps=taps)
    length = 1200
    rows = np.zeros((2, length))
    rows[lowest] = 1.0
    with pytest.raises(NumericOverflowError) as err:
        run_loop(rows, spec, [generate_mask(2, 0).values] * 2)
    failing_step = (err.value.chip_index - 1) // 2
    assert failing_step < length - 1
    reclocked = failing_step + 1 if lowest == 0 else length
    assert len(calls) == per_step * (length + reclocked)
