"""Slow reference implementations kept only as test oracles.

The reservoir, topology and state stage one datapoint at a time, the path
that the batch kernel replaced: ``run_loop`` clocks one datapoint through
one loop, ``run_topology`` runs one datapoint through every layer, and
``compute_states`` hands datapoints to a thread pool one at a time.  The
batch code must reproduce these outputs byte for byte, including the
per-(datapoint, layer, loop) noise streams, and must report the same
first failing datapoint.

``ridge_oracle`` is the ridge solve that builds the normal equations
afresh for every λ; ``classifier.train_ridge``, which shares them across
λ, must reproduce its weights byte for byte.

``transform_rows``, ``mean_amplitude`` and ``iq_file_bytes`` take one
burst (a 1-D complex array) at a time: the transforms, the mean amplitude
profile and the I/Q writer that the (B, L) batch forms replaced.
"""

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
import scipy.linalg

from looprc.classifier import DesignMatrix
from looprc.errors import LoopRCError, NumericOverflowError, StageError
from looprc.reservoir import LoopSpec, Mask
from looprc.topology import COMBINERS, TopologySpec
from looprc.transforms import TransformSpec

NONLINEARITIES = {"sine": np.sin, "tanh": np.tanh, "identity": lambda x: x}


def run_loop(
    datapoint: np.ndarray,
    spec: LoopSpec,
    mask: Mask,
    noise_seed: Optional[int] = None,
) -> np.ndarray:
    x = np.asarray(datapoint, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("datapoint must be a non-empty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("datapoint entries must be finite")
    n = spec.n_nodes
    if len(mask) != n:
        raise ValueError(f"mask length {len(mask)} != n_nodes {n}")
    h0, h1 = float(spec.filter_taps[0]), float(spec.filter_taps[1])
    if n == 1 and h1 != 0.0:
        # h(1) couples chip t to chip t - N + 1 = t: self-referential.
        raise ValueError("filter_taps[1] != 0 requires n_nodes >= 2")

    f = NONLINEARITIES[spec.nonlinearity]
    eta = float(spec.loop_gain)
    nu = float(spec.input_gain)
    m = mask.values
    sigma = float(spec.noise_std)
    rng = np.random.default_rng(noise_seed) if sigma > 0.0 else None

    state = np.zeros(n)
    s_prev = 0.0
    # Overflow shows up as inf/nan in the state and is reported explicitly
    # below; keep numpy quiet about the intermediate arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, s_n in enumerate(x):
            if h1 == 0.0:
                new = h0 * f(eta * state + (nu * s_n) * m)
            else:
                # Chip j (0-based) takes its u=1 tap from state chip j+1 of
                # the previous pass, except the last chip, which sees the
                # first chip of the current pass; the u=1 drive is the
                # previous chip of J.
                first = h0 * f(eta * state[0] + nu * m[0] * s_n) + h1 * f(
                    eta * state[1] + nu * m[n - 1] * s_prev
                )
                tap = np.empty(n - 1)
                tap[: n - 2] = state[2:]
                tap[n - 2] = first
                new = np.empty(n)
                new[0] = first
                new[1:] = h0 * f(eta * state[1:] + (nu * s_n) * m[1:]) + h1 * f(
                    eta * tap + (nu * s_n) * m[: n - 1]
                )
            if rng is not None:
                new = new + rng.normal(0.0, sigma, size=n)
            if not np.all(np.isfinite(new)):
                bad = int(np.flatnonzero(~np.isfinite(new))[0])
                raise NumericOverflowError(chip_index=i * n + bad + 1)
            state = new
            s_prev = s_n
    return state


def combine(values: list[np.ndarray], mode: str) -> np.ndarray:
    assert mode in COMBINERS
    if mode == "concat":
        return np.concatenate(values)
    if mode == "sum":
        return np.sum(values, axis=0)
    out = values[0].copy()
    for v in values[1:]:
        out *= v
    norm = np.linalg.norm(out)
    if norm > 0:
        out = out / norm
    return out


def _loop_noise_seed(base: Optional[int], layer: int, index: int) -> Optional[int]:
    if base is None:
        return None
    seq = np.random.SeedSequence([int(base), layer, index])
    return int(seq.generate_state(1)[0])


def run_topology(
    datapoint: np.ndarray,
    topo: TopologySpec,
    noise_seed: Optional[int] = None,
    masks: Optional[list[list[Mask]]] = None,
) -> np.ndarray:
    x = np.asarray(datapoint, dtype=np.float64)
    assert x.ndim == 1 and x.size == topo.input_length
    if masks is None:
        masks = topo.masks()
    current = x
    states: list[np.ndarray] = []
    for li, bank in enumerate(topo.layers):
        states = []
        for i, (spec, (start, stop)) in enumerate(zip(bank.loops, bank.slices)):
            states.append(
                run_loop(
                    current[start:stop],
                    spec,
                    masks[li][i],
                    noise_seed=_loop_noise_seed(noise_seed, li, i),
                )
            )
        current = np.concatenate(states)
    return combine(states, topo.combiner)


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
    if topo is None:
        return np.asarray(rows, dtype=np.float64)
    if masks is None:
        masks = topo.masks()
    if rows.shape[1] < eff_length:
        rows = np.pad(rows, ((0, 0), (0, eff_length - rows.shape[1])))
    noisy = any(spec.noise_std > 0 for bank in topo.layers for spec in bank.loops)

    def one(i: int) -> np.ndarray:
        try:
            seed_i = _datapoint_noise_seed(run_seed, i) if noisy else None
            return run_topology(rows[i], topo, noise_seed=seed_i, masks=masks)
        except LoopRCError as exc:
            raise StageError("reservoir", exc, datapoint=i) from exc
        except Exception as exc:
            raise StageError("reservoir", exc, datapoint=i) from exc

    out = np.empty((rows.shape[0], topo.output_length))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, state in enumerate(pool.map(one, range(rows.shape[0]))):
                out[i] = state
    else:
        for i in range(rows.shape[0]):
            out[i] = one(i)
    return out


def ridge_oracle(data: DesignMatrix, lam: float) -> np.ndarray:
    x = data.rows
    gram = x.T @ x
    if lam > 0:
        gram = gram + lam * np.eye(data.n_features)
    rhs = x.T @ data.one_hot()
    c, low = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)


def _fft_magnitude(burst: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft(burst)) / len(burst)


def transform(spec: TransformSpec, burst: np.ndarray, profile: Optional[np.ndarray]) -> np.ndarray:
    n = len(burst)
    if spec.kind == "amplitude_subburst":
        length = spec.params.get("length", 256)
        offset = spec.params.get("offset")
        offset = (n - length) // 2 if offset is None else offset
        return np.abs(burst[offset : offset + length])
    if spec.kind == "fft_mag":
        return _fft_magnitude(burst)
    if spec.kind == "diff_fft":
        amp = np.abs(burst)
        phase = np.where(amp > 0, burst / np.where(amp > 0, amp, 1.0), 1.0)
        return _fft_magnitude(np.array((amp - profile) * phase, dtype=np.complex128))
    if spec.kind == "decimated_dft":
        d = spec.params.get("d", 1)
        if d == 1:
            return _fft_magnitude(burst)
        return np.abs(np.fft.fft(burst.reshape(d, n // d).sum(axis=0))) / n
    starts = np.arange(0, n - 2, spec.params.get("stride", 4))
    d1 = np.angle(burst[starts + 1] * np.conj(burst[starts]))
    d2 = np.angle(burst[starts + 2] * np.conj(burst[starts + 1]))
    return (d1 + d2) / (4.0 * np.pi)


def transform_rows(bursts, specs, profile: Optional[np.ndarray] = None) -> np.ndarray:
    return np.stack([np.concatenate([transform(s, b, profile) for s in specs]) for b in bursts])


def mean_amplitude(bursts) -> np.ndarray:
    acc = np.zeros(len(bursts[0]))
    for b in bursts:
        acc += np.abs(b)
    return acc / len(bursts)


def iq_file_bytes(bursts) -> bytes:
    """The interleaved little-endian float32 payload of an I/Q file."""
    n = len(bursts[0])
    flat = np.empty(2 * n * len(bursts), dtype="<f4")
    for i, b in enumerate(bursts):
        block = flat[2 * n * i : 2 * n * (i + 1)]
        block[0::2] = b.real
        block[1::2] = b.imag
    return flat.tobytes()
