"""Statistics, reference kernels and output digests shared by the benchmark and its tests."""

import csv
import hashlib
import io
import json
import math
import signal
import struct
import time

import numpy as np
import scipy.linalg

#: Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples of the reference kernel taken on each side of an operation.
REFERENCE_REPEATS = 2

#: Wall seconds between samples of the reference kernel during an operation.
SAMPLE_INTERVAL_S = 0.05


def loop_kernel(steps=50):
    """A fixed computation shaped like the reservoir's inner loop: a Python
    loop of small numpy calls on 300-element vectors.  The default takes
    about half a millisecond."""
    a = np.linspace(0.0, 1.0, 300)
    x = 0.1
    for _ in range(steps):
        x = float(np.sin(a * x + 0.5).sum()) * 1e-3
    return x


_SOLVE_ROWS = np.random.default_rng(0).standard_normal((96, 192))


def solve_kernel():
    """A fixed computation shaped like a trial of the ridge baseline: a Gram
    product and its Cholesky factor take about two thirds of the time, as
    the ridge solve does there, and the Python loop of :func:`loop_kernel`
    the rest, as data synthesis does.  About a millisecond."""
    gram = _SOLVE_ROWS.T @ _SOLVE_ROWS + 192.0 * np.eye(192)
    scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    return loop_kernel(25)


def reference_times(kernel, repeats=REFERENCE_REPEATS):
    """Wall times of ``repeats`` back-to-back calls of ``kernel``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class ReferenceSampler:
    """Times a reference kernel every :data:`SAMPLE_INTERVAL_S` while an
    operation runs, so that the samples see the core's speed during the
    operation, not only at its ends.

    A wall-clock timer signal runs the kernel in the main thread between
    two bytecodes of the operation.  :meth:`clock` is a wall clock that
    stands still while the kernel runs, so that the operation's time leaves
    the samples out.  Use it as a context manager, in the main thread.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.times = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def clock(self):
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _rank(pct, n):
    # Rounding first keeps float error (99.99 / 100 * 1e5) out of the ceiling.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail(samples):
    """Tail of a sample: ``(value, percentile, samples beyond it)``.

    The percentile is the highest one in :data:`TAIL_LADDER` that leaves
    at least ten samples beyond it (nearest rank). A sample too small for
    any of them reports its maximum, as percentile 100 with none beyond.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= 10:
            best = pct
    if best is None:
        return values[-1], 100.0, 0
    return nearest_rank(values, best), best, n - _rank(best, n)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def sweep_csv_bytes(text: str) -> bytes:
    """A sweep CSV without its wall-clock ``train_seconds`` column."""
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("train_seconds")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    return out.getvalue().encode()


def trial_log_bytes(text: str) -> bytes:
    """A hyperopt trial log without its wall-clock ``wall_time`` field."""
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("wall_time")
        lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


def container_payload(blob: bytes) -> bytes:
    """The array payload of a looprc model container (weights, masks,
    profile), without the JSON header, whose metadata holds wall-clock time.

    Layout: 8-byte magic, u32 version, u64 header length, header, payload.
    """
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    return blob[20 + header_len:]


def compare_digests(digests, reference):
    """Indices of operations whose digest differs from the reference.

    ``reference`` lists the expected digest by operation index; an index
    it does not cover is not checked.
    """
    return [i for i, d in enumerate(digests) if i < len(reference) and d != reference[i]]
