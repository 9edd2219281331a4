"""Tests of the benchmark's own arithmetic: tail rule, self time, digests,
reference sampling.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

import hashlib
import os
import signal
import struct
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import measure  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(1, 100.0, 0), (19, 100.0, 0), (20, 50.0, 10), (99, 50.0, 49), (100, 90.0, 10),
     (999, 90.0, 99), (1000, 99.0, 10), (10000, 99.9, 10), (100000, 99.99, 10)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, beyond):
    value, got_pct, got_beyond = measure.tail(list(range(n, 0, -1)))
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond
    assert sum(1 for x in range(1, n + 1) if x > value) == beyond


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        measure.tail([])


def _span(span_id, parent, start, end, layer="pipeline"):
    return spans.Span(span_id, f"{layer}.f{span_id}", layer, parent, 0, start, end)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # two children that ran in parallel threads:
        _span(2, 0, 3.0, 6.0),   # together they cover [1, 6] of the parent
        _span(3, 1, 2.0, 3.0),   # grandchild: charged to span 1, not span 0
        _span(4, 0, 9.5, 11.0),  # child outliving its parent is clipped
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_totals_sum_self_time_and_counts_per_layer():
    tree = [
        _span(0, None, 0.0, 10.0, "topology"),
        _span(1, 0, 1.0, 4.0, "reservoir"),
        _span(2, 0, 5.0, 7.0, "reservoir"),
    ]
    tree[1].counts = {"reservoir.chips": 30}
    tree[2].counts = {"reservoir.chips": 12}
    seconds, counts, by_name = spans.layer_totals(tree, {0})
    assert seconds["topology"] == pytest.approx(5.0)
    assert seconds["reservoir"] == pytest.approx(5.0)
    assert counts == {"reservoir.chips": 42}
    assert spans.busy_time(tree[1:]) == pytest.approx(5.0)
    assert spans.busy_time([_span(5, None, 0.0, 2.0), _span(6, None, 1.0, 3.0)]) == pytest.approx(3.0)


def test_wrapped_calls_nest_and_count():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x * 2, "reservoir.inner", lambda a, k, r: {"reservoir.calls": 1})
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "topology.outer")
    assert outer(3) == 12
    by_name = {s.name: s for s in tracer.spans}
    assert len(tracer.spans) == 3
    assert by_name["topology.outer"].parent is None
    children = [s for s in tracer.spans if s.name == "reservoir.inner"]
    assert all(s.parent == by_name["topology.outer"].span_id for s in children)
    assert sum(s.counts["reservoir.calls"] for s in children) == 2


def test_flipped_output_byte_counts_as_failed():
    output = b'{"accuracy": 0.95}\n'
    reference = [measure.sha256(output)] * 2
    flipped = bytearray(output)
    flipped[3] ^= 0x01
    digests = [measure.sha256(bytes(flipped)), measure.sha256(output)]
    assert measure.compare_digests(digests, reference) == [0]
    assert measure.sha256(b"ab", b"c") == hashlib.sha256(b"abc").hexdigest()


def test_container_payload_skips_the_header():
    header = b'{"metadata": {"train_seconds": 1.5}}'
    blob = b"LRCMODEL" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + b"\x01\x02"
    assert measure.container_payload(blob) == b"\x01\x02"


def test_operations_beyond_the_reference_are_not_compared():
    assert measure.compare_digests(["a", "b", "c"], ["a"]) == []


def test_digests_ignore_wall_clock_fields_only():
    header = "transform,n_nodes,k,d,lambda,seed,accuracy,trainable_params,training_macs,train_seconds\n"
    a = header + "fft_mag,300,2,,0.1,1,0.95,1200,100,1.25\n"
    b = header + "fft_mag,300,2,,0.1,1,0.95,1200,100,3.5\n"
    c = header + "fft_mag,300,2,,0.1,1,0.9,1200,100,1.25\n"
    assert measure.sweep_csv_bytes(a) == measure.sweep_csv_bytes(b)
    assert measure.sweep_csv_bytes(a) != measure.sweep_csv_bytes(c)
    assert b"train_seconds" not in measure.sweep_csv_bytes(a)

    log = '{"accuracy": 0.5, "params": {"lambda": 0.1}, "trial": 0, "wall_time": %s}\n'
    assert measure.trial_log_bytes(log % "1.0") == measure.trial_log_bytes(log % "2.0")
    assert b"wall_time" not in measure.trial_log_bytes(log % "1.0")


def test_sampler_clock_leaves_out_the_samples():
    before = signal.getsignal(signal.SIGALRM)
    with measure.ReferenceSampler(measure.loop_kernel) as sampler:
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            sum(range(1000))
        elapsed, wall = sampler.clock() - start, time.perf_counter() - wall
    assert len(sampler.times) >= 3
    assert sampler.spent >= sum(sampler.times)
    assert elapsed == pytest.approx(wall - sampler.spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before
