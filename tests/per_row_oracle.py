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

``make_sei_dataset`` and ``make_wiprec_dataset`` build a dataset one burst
at a time, each burst from the three streams of
``SeedSequence([seed, 1, i]).spawn(3)``, through ``gen_protocol_burst``,
``apply_fingerprint`` and ``add_awgn``; the class-block generator in
``synthrf`` must reproduce their bytes, labels and split.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from looprc.classifier import DesignMatrix
from looprc.errors import LoopRCError, NumericOverflowError, StageError
from looprc.reservoir import LoopSpec, Mask
from looprc.synthrf import (
    BURST_LEN,
    IDENTITY_FINGERPRINT,
    MIN_BURST_LEN,
    NORMALIZED_BW,
    PROTOCOL_FAMILIES,
    PROTOCOLS,
    Fingerprint,
    LabeledDataset,
    ProtocolSpec,
    SeedLike,
    _raw_length,
    center_crop,
    device_fingerprint,
    fingerprint_pool,
    normalize_bandwidth,
    stratified_split,
)
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


# --- the per-burst dataset generator ---


def apply_fingerprint(
    x: np.ndarray, fp: Fingerprint, noise_seed: Optional[SeedLike] = None
) -> np.ndarray:
    """Run a burst through a device's impairment chain.

    The identity fingerprint returns the input unchanged.  A phase-noise
    component requires ``noise_seed``; everything else is deterministic.
    """
    if fp == IDENTITY_FINGERPRINT:
        return x
    e = 10.0 ** (fp.iq_gain_imbalance / 20.0) * np.exp(1j * fp.iq_phase_skew)
    y = 0.5 * (1.0 + e) * x + 0.5 * (1.0 - e) * np.conj(x)
    y = y + fp.dc_offset
    a1, a3, a5 = fp.pa_coeffs
    p = np.abs(y) ** 2
    y = a1 * y + a3 * y * p + a5 * y * p * p
    if fp.cfo != 0.0:
        y = y * np.exp(2j * np.pi * fp.cfo * np.arange(len(y)))
    if fp.phase_noise_std > 0.0:
        if noise_seed is None:
            raise ValueError("phase_noise_std > 0 requires a noise_seed")
        walk = np.cumsum(np.random.default_rng(noise_seed).normal(0.0, fp.phase_noise_std, len(y)))
        y = y * np.exp(1j * walk)
    return y


def add_awgn(x: np.ndarray, snr_db: float, seed: Optional[SeedLike] = None) -> np.ndarray:
    """Add complex white Gaussian noise at the requested SNR.

    SNR is relative to the measured average power of this burst.
    ``snr_db=inf`` is a no-op returning the input itself.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return x
    if seed is None:
        raise ValueError("finite snr_db requires a seed")
    p_sig = float(np.mean(np.abs(x) ** 2))
    p_noise = p_sig / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, len(x)) + 1j * rng.normal(0.0, 1.0, len(x))
    return x + noise * math.sqrt(p_noise / 2.0)


def _payload_bits(
    rng: np.random.Generator,
    count: int,
    base_bits: Optional[np.ndarray],
    bit_flip_prob: float,
) -> np.ndarray:
    """Random bits, or a fixed pattern with a fraction of positions flipped."""
    if base_bits is None:
        return rng.integers(0, 2, count)
    bits = np.resize(np.asarray(base_bits, dtype=np.int64), count)
    if bit_flip_prob > 0:
        flips = rng.random(count) < bit_flip_prob
        bits = bits ^ flips.astype(np.int64)
    return bits


def _ofdm_qpsk(rng, length, spec, base_bits, bit_flip_prob):
    # 64 occupied subcarriers (DC null) in an FFT sized so the occupied
    # fraction equals spec.occupied_bw; quarter-length cyclic prefix.
    n_occ = 64
    nfft = int(round(n_occ / spec.occupied_bw))
    cp = nfft // 4
    n_sym = -(-length // (nfft + cp))
    bits = _payload_bits(rng, 2 * n_occ * n_sym, base_bits, bit_flip_prob)
    qpsk = ((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / math.sqrt(2)
    qpsk = qpsk.reshape(n_sym, n_occ)
    spectrum = np.zeros((n_sym, nfft), dtype=np.complex128)
    spectrum[:, 1 : n_occ // 2 + 1] = qpsk[:, : n_occ // 2]
    spectrum[:, nfft - n_occ // 2 :] = qpsk[:, n_occ // 2 :]
    symbols = np.fft.ifft(spectrum, axis=1)
    with_cp = np.concatenate([symbols[:, -cp:], symbols], axis=1)
    return with_cp.reshape(-1)[:length]


def _gfsk(rng, length, spec, base_bits, bit_flip_prob):
    sps = int(round(1.0 / spec.symbol_rate))
    pad = 4  # symbols absorbed by the filter transient at each end
    n_sym = -(-length // sps) + 2 * pad
    bits = _payload_bits(rng, n_sym, base_bits, bit_flip_prob)
    nrz = np.repeat(2.0 * bits - 1.0, sps)
    # Gaussian pulse-shaping filter; std in samples from the BT product.
    std = sps * math.sqrt(math.log(2.0)) / (2.0 * math.pi * spec.gauss_bt)
    t = np.arange(-2 * sps, 2 * sps + 1)
    kernel = np.exp(-0.5 * (t / std) ** 2)
    kernel /= kernel.sum()
    shaped = np.convolve(nrz, kernel, mode="same")
    phase = np.pi * spec.mod_index * np.cumsum(shaped) / sps
    return np.exp(1j * phase)[pad * sps : pad * sps + length]


def _oqpsk_halfsine(rng, length, spec, base_bits, bit_flip_prob):
    sps = int(round(1.0 / spec.symbol_rate))  # samples per chip
    pad = 2
    per_branch = -(-length // (2 * sps)) + 2 * pad + 2
    chips = 2.0 * _payload_bits(rng, 2 * per_branch, base_bits, bit_flip_prob) - 1.0
    pulse = np.sin(np.pi * np.arange(2 * sps) / (2 * sps))
    # Each chip holds one whole pulse, so every sample is a single product.
    # ``+ 0.0`` turns the -0.0 a negative chip makes at ``pulse[0] = 0``
    # into +0.0, as a zero-initialised filter sum gives.
    i_br = (chips[0::2, None] * pulse).reshape(-1) + 0.0
    q_br = (chips[1::2, None] * pulse).reshape(-1) + 0.0
    n = min(len(i_br), len(q_br) + sps)
    sig = i_br[:n].astype(np.complex128)
    sig[sps:n] += 1j * q_br[: n - sps]  # half-chip branch offset
    return sig[pad * 2 * sps : pad * 2 * sps + length]


_MODULATORS = {
    "ofdm_qpsk": _ofdm_qpsk,
    "gfsk": _gfsk,
    "oqpsk_halfsine": _oqpsk_halfsine,
}


def gen_protocol_burst(
    spec: ProtocolSpec,
    payload_seed: SeedLike,
    length: int = BURST_LEN,
    base_bits: Optional[np.ndarray] = None,
    bit_flip_prob: float = 0.0,
) -> np.ndarray:
    """Generate one clean burst of a waveform family.

    Deterministic per (spec, payload_seed).  Output has exactly unit
    average power and a raised-cosine amplitude ramp at both ends.  With
    ``base_bits`` the payload is that fixed pattern, each bit flipped
    independently with ``bit_flip_prob`` — the "mostly constant frame"
    regime of beacon-like traffic.
    """
    if length < MIN_BURST_LEN:
        raise ValueError(f"length must be >= {MIN_BURST_LEN}")
    rng = np.random.default_rng(payload_seed)
    sig = _MODULATORS[spec.modulation](rng, length, spec, base_bits, bit_flip_prob)
    if spec.ramp > 0:
        win = 0.5 * (1.0 - np.cos(np.pi * (np.arange(spec.ramp) + 0.5) / spec.ramp))
        env = np.ones(length)
        env[: spec.ramp] = win
        env[length - spec.ramp :] = win[::-1]
        sig = sig * env
    return sig / math.sqrt(float(np.mean(np.abs(sig) ** 2)))


def _generate(
    seed: int,
    names: tuple[str, ...],
    per_class: int,
    length: int,
    burst: Callable[..., np.ndarray],
    meta: dict,
) -> LabeledDataset:
    """The dataset layout both generators share.

    Bursts are class-major: row ``i`` is burst ``j = i % per_class`` of
    class ``c = i // per_class``, made by ``burst(c, j, payload_ss,
    impairment_ss, channel_ss)`` from three independent streams of
    ``SeedSequence([seed, 1, i])``.  The stratified split is seeded by
    ``SeedSequence([seed, 2])``.
    """
    bursts = np.empty((len(names) * per_class, length), dtype=np.complex128)
    for i in range(len(bursts)):
        bursts[i] = burst(i // per_class, i % per_class, *np.random.SeedSequence([seed, 1, i]).spawn(3))
    labels = np.repeat(np.arange(len(names)), per_class)
    train_idx, test_idx = stratified_split(labels, np.random.SeedSequence([seed, 2]))
    return LabeledDataset(bursts, labels, names, train_idx, test_idx, meta=meta)


def make_sei_dataset(
    n_devices: int = 10,
    bursts_per_device: int = 100,
    snr_db: float = 30.0,
    seed: int = 0,
    spread: float = 1.0,
    length: int = BURST_LEN,
    bit_flip_prob: float = 0.1,
    if_offset: float = 0.0,
) -> LabeledDataset:
    """``synthrf.make_sei_dataset``, one burst at a time."""
    spec = PROTOCOLS["wifi_like"]
    fps = [device_fingerprint(seed, d, spread) for d in range(n_devices)]
    base_bits = np.random.default_rng(np.random.SeedSequence([seed, 0])).integers(0, 2, 4096)
    shift = np.exp(2j * np.pi * if_offset * np.arange(length)) if if_offset != 0.0 else None

    def burst(d, j, pay_ss, imp_ss, chan_ss):
        x = gen_protocol_burst(spec, pay_ss, length, base_bits, bit_flip_prob)
        if shift is not None:
            x = x * shift
        return add_awgn(apply_fingerprint(x, fps[d], imp_ss), snr_db, chan_ss)

    names = tuple(f"device_{d:02d}" for d in range(n_devices))
    meta = dict(kind="sei", n_devices=n_devices, bursts_per_device=bursts_per_device, snr_db=snr_db,
                seed=seed, spread=spread, bit_flip_prob=bit_flip_prob, if_offset=if_offset)
    return _generate(seed, names, bursts_per_device, length, burst, meta)


def make_wiprec_dataset(
    bursts_per_class: int = 200,
    clean: bool = True,
    bw_normalized: bool = False,
    seed: int = 0,
    snr_db: float = 30.0,
    length: int = BURST_LEN,
    fingerprints_per_class: int = 5,
    spread: float = 1.0,
) -> LabeledDataset:
    """``synthrf.make_wiprec_dataset``, one burst at a time."""
    specs = [PROTOCOLS[fam] for fam in PROTOCOL_FAMILIES]
    pools = [fingerprint_pool(seed, c, fingerprints_per_class, spread) for c in range(len(specs))]
    raw_lens = [_raw_length(spec, NORMALIZED_BW, length) if bw_normalized else length for spec in specs]

    def burst(c, j, pay_ss, imp_ss, chan_ss):
        raw = raw_lens[c]
        while True:
            x = gen_protocol_burst(specs[c], pay_ss, raw)
            if not clean:
                x = apply_fingerprint(x, pools[c][j % fingerprints_per_class], imp_ss)
            if not bw_normalized:
                break
            xn = normalize_bandwidth(x)
            if len(xn) >= length:
                x = center_crop(xn, length)
                break
            # Measured width came in below nominal; retry with more raw
            # samples (same seeds, so the payload prefix is unchanged).
            raw *= 2
        return x if clean else add_awgn(x, snr_db, chan_ss)

    meta = dict(kind="wiprec", bursts_per_class=bursts_per_class, clean=clean,
                bw_normalized=bw_normalized, snr_db=snr_db, seed=seed, spread=spread)
    return _generate(seed, PROTOCOL_FAMILIES, bursts_per_class, length, burst, meta)
