"""Synthetic labeled RF data: emitter fingerprints, ISM-like bursts, channels.

Stands in for over-the-air captures.  Two task families are covered:

* emitter identification — one waveform family, many transmitters, where
  class information lives only in hardware impairments (IQ imbalance, DC
  offset, PA compression, CFO, phase noise) applied per device;
* protocol recognition — four waveform families (OFDM, two GFSK variants,
  half-sine OQPSK) with distinct symbol rates and bandwidths, each class
  drawing from a small pool of device fingerprints.

Waveforms are deliberately simplified: they reuse the modulation and
rough rate/bandwidth relationships of the real protocols without any
claim of standards compliance.  Everything is deterministic from a seed.
The numerics are batch-first: ``gen_protocol_bursts``,
``apply_fingerprint`` and ``add_awgn`` take and return (B, L) complex128
bursts, one burst per row, and only the random draws run row by row.  A
dataset holds its bursts as one (B, L) array and builds each class as one
block, but row ``i`` is a pure function of (seed, i, parameters): it
draws only from its own three streams, the children of
``SeedSequence([seed, 1, i])``, so no block size or order changes a byte.
Those streams are not built one ``SeedSequence`` at a time: one
vectorized hash per dataset computes every row's PCG64 seed words, byte
for byte the words of ``SeedSequence([seed, 1, i]).spawn(3)``, and each
stream hands its words to ``np.random.default_rng`` as they are.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import BOOLEAN, NUMBER, at_least, check_fields, frozen_array, within

SAMPLE_RATE = 100e6  # Hz; all rate fields below are fractions of this
BURST_LEN = 1024
MIN_BURST_LEN = 64

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


# ---------------------------------------------------------------------------
# emitter fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Per-transmitter impairment chain parameters.

    Applied in a fixed order: IQ imbalance, DC offset, memoryless PA
    polynomial a1·x + a3·x|x|² + a5·x|x|⁴, carrier-frequency-offset
    rotation, phase-noise random walk.
    """

    iq_gain_imbalance: float = 0.0  # dB
    iq_phase_skew: float = 0.0  # radians
    dc_offset: complex = 0j
    cfo: float = 0.0  # cycles per sample
    pa_coeffs: tuple[float, float, float] = (1.0, 0.0, 0.0)
    phase_noise_std: float = 0.0  # radians per sample

    def __post_init__(self):
        if len(self.pa_coeffs) != 3:
            raise ValueError("pa_coeffs must be (a1, a3, a5)")
        if self.phase_noise_std < 0:
            raise ValueError("phase_noise_std must be >= 0")
        object.__setattr__(self, "pa_coeffs", tuple(float(a) for a in self.pa_coeffs))


IDENTITY_FINGERPRINT = Fingerprint()


#: The draw and the type of ``rng.choice((-1.0, 1.0))``, without its
#: per-call overhead.  NumPy floats: an impairment that overflows becomes
#: inf, not a Python OverflowError.
_SIGNS = (np.float64(-1.0), np.float64(1.0))


def _draw_fingerprint(rng: np.random.Generator, spread: float) -> Fingerprint:
    # Magnitudes loosely follow commodity transceivers but run hot where a
    # realistic value would vanish inside one FFT bin of a 1024-sample
    # burst (CFO especially); `spread` scales every impairment so task
    # difficulty is tunable in one knob.
    sign = lambda: _SIGNS[rng.integers(0, 2)]
    return Fingerprint(
        iq_gain_imbalance=sign() * rng.uniform(0.2, 1.5) * spread,
        iq_phase_skew=sign() * rng.uniform(0.01, 0.06) * spread,
        dc_offset=complex(rng.normal(0, 0.01), rng.normal(0, 0.01)) * spread,
        cfo=sign() * rng.uniform(1e-3, 5e-3) * spread,
        pa_coeffs=(
            1.0,
            -rng.uniform(0.05, 0.25) * spread,
            rng.uniform(0.0, 0.05) * spread,
        ),
        phase_noise_std=rng.uniform(0.5e-3, 3e-3) * spread,
    )


def device_fingerprint(seed: int, device_id: int, spread: float = 1.0) -> Fingerprint:
    """Deterministic fingerprint for one device of a seeded population.

    Devices of the same seed differ in every impairment with probability
    one (continuous draws), in particular in the (a3, a5, cfo) triple.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1, device_id]))
    return _draw_fingerprint(rng, spread)


def fingerprint_pool(
    seed: int, class_index: int, count: int = 5, spread: float = 1.0
) -> tuple[Fingerprint, ...]:
    """Pool of device fingerprints for one protocol class.

    All but the last cluster tightly around a shared draw, mimicking
    devices from one manufacturing run; the last is an independent draw
    at a looser spread (a different make of the same radio).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF2, class_index]))
    center = _draw_fingerprint(rng, spread)
    pool = []
    for _ in range(count - 1):
        jitter = _draw_fingerprint(rng, 0.15 * spread)
        summed = {}
        for f in fields(Fingerprint):
            a, b = getattr(center, f.name), getattr(jitter, f.name)
            summed[f.name] = tuple(x + y for x, y in zip(a, b)) if isinstance(a, tuple) else a + b
        summed["pa_coeffs"] = (1.0, *summed["pa_coeffs"][1:])  # a1 stays unit gain
        pool.append(Fingerprint(**summed))
    pool.append(_draw_fingerprint(rng, 1.5 * spread))
    return tuple(pool)


def _draw(seeds: Sequence[SeedLike], draw: Callable, shape: tuple, dtype=np.float64) -> np.ndarray:
    """One row per seed, filled by ``draw`` from that seed's own generator."""
    out = np.empty((len(seeds), *shape), dtype)
    for row, seed in zip(out, seeds):
        row[...] = draw(np.random.default_rng(seed))
    return out


def apply_fingerprint(
    x: np.ndarray, fp: Fingerprint, noise_seeds: Optional[Sequence[SeedLike]] = None
) -> np.ndarray:
    """Run (B, L) bursts of one device through its impairment chain.

    The identity fingerprint returns the input itself.  A phase-noise
    component requires ``noise_seeds``, one per row, each drawing its
    row's walk; everything else is deterministic.
    """
    if fp == IDENTITY_FINGERPRINT:
        return x
    # Each complex product keeps the per-burst operand order: above 256 KiB
    # numpy may compute ``a * temporary`` in place as ``temporary * a``, and
    # the fused multiply-adds would round the imaginary parts differently.
    e = 10.0 ** (fp.iq_gain_imbalance / 20.0) * np.exp(1j * fp.iq_phase_skew)
    image = np.conj(x)
    y = 0.5 * (1.0 + e) * x + np.multiply(0.5 * (1.0 - e), image, out=image)
    y += fp.dc_offset
    a1, a3, a5 = fp.pa_coeffs
    p = np.abs(y) ** 2
    y = a1 * y + a3 * y * p + a5 * y * p * p
    length = x.shape[1]
    if fp.cfo != 0.0:
        np.multiply(y, np.exp(2j * np.pi * fp.cfo * np.arange(length)), out=y)
    if fp.phase_noise_std > 0.0:
        if noise_seeds is None:
            raise ValueError("phase_noise_std > 0 requires noise_seeds")
        steps = _draw(noise_seeds, lambda rng: rng.normal(0.0, fp.phase_noise_std, length), (length,))
        np.multiply(y, np.exp(1j * np.cumsum(steps, axis=1)), out=y)
    return y


def add_awgn(x: np.ndarray, snr_db: float, seeds: Optional[Sequence[SeedLike]] = None) -> np.ndarray:
    """Add complex white Gaussian noise to (B, L) bursts at the requested SNR.

    SNR is relative to the measured average power of each row, and row
    ``r``'s noise is drawn from ``seeds[r]``.  ``snr_db=inf`` is a no-op
    returning the input itself.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return x
    if seeds is None:
        raise ValueError("finite snr_db requires seeds")
    p_noise = np.mean(np.abs(x) ** 2, axis=1, keepdims=True) / 10.0 ** (snr_db / 10.0)
    length = x.shape[1]
    parts = _draw(seeds, lambda rng: (rng.normal(0.0, 1.0, length), rng.normal(0.0, 1.0, length)), (2, length))
    noise = parts[:, 0] + 1j * parts[:, 1]
    return x + np.multiply(noise, np.sqrt(p_noise / 2.0), out=noise)


# ---------------------------------------------------------------------------
# protocol waveforms
# ---------------------------------------------------------------------------

PROTOCOL_FAMILIES = ("wifi_like", "bt_like", "zigbee_like", "nrf_like")


@dataclass(frozen=True)
class ProtocolSpec:
    """One ISM-band waveform family.

    ``symbol_rate`` and ``occupied_bw`` are fractions of the sample rate;
    ``occupied_bw`` is the nominal −20 dB support width.  ``mod_index``
    and ``gauss_bt`` only apply to the GFSK families.
    """

    modulation: str  # "ofdm_qpsk" | "gfsk" | "oqpsk_halfsine"
    symbol_rate: float
    occupied_bw: float
    mod_index: float = 0.0
    gauss_bt: float = 0.5

    def __post_init__(self):
        if not (0 < self.symbol_rate < 1):
            raise ValueError("symbol_rate must be a fraction of the sample rate")
        if not (0 < self.occupied_bw < 1):
            raise ValueError("occupied_bw must be a fraction of the sample rate")


# Rates keep the real protocols' ordering (WiFi ≫ ZigBee > NRF > BT in
# bandwidth) at a 100 MHz equivalent sample rate, without compliance.
PROTOCOLS: dict[str, ProtocolSpec] = {
    "wifi_like": ProtocolSpec(
        modulation="ofdm_qpsk", symbol_rate=1 / 400, occupied_bw=0.20
    ),
    "bt_like": ProtocolSpec(
        modulation="gfsk",
        symbol_rate=0.01,
        occupied_bw=0.010,
        mod_index=0.32,
        gauss_bt=0.5,
    ),
    "zigbee_like": ProtocolSpec(
        modulation="oqpsk_halfsine",
        symbol_rate=0.025,  # chip rate
        occupied_bw=0.032,
    ),
    "nrf_like": ProtocolSpec(
        modulation="gfsk",
        symbol_rate=0.02,
        occupied_bw=0.023,
        mod_index=0.5,
        gauss_bt=0.5,
    ),
}


def _payload_bits(
    seeds: Sequence[SeedLike],
    count: int,
    base_bits: Optional[np.ndarray],
    bit_flip_prob: float,
) -> np.ndarray:
    """(B, count) random bits, or a fixed pattern with a fraction of each
    row's positions flipped."""
    if base_bits is None:
        return _draw(seeds, lambda rng: rng.integers(0, 2, count), (count,), np.int64)
    bits = np.resize(np.asarray(base_bits, dtype=np.int64), count)
    if bit_flip_prob > 0:
        flips = _draw(seeds, lambda rng: rng.random(count), (count,)) < bit_flip_prob
        return bits ^ flips.astype(np.int64)
    return np.broadcast_to(bits, (len(seeds), count))


def _ofdm_qpsk(seeds, length, spec, base_bits, bit_flip_prob):
    # 64 occupied subcarriers (DC null) in an FFT sized so the occupied
    # fraction equals spec.occupied_bw; quarter-length cyclic prefix.
    n_occ = 64
    nfft = int(round(n_occ / spec.occupied_bw))
    cp = nfft // 4
    n_sym = -(-length // (nfft + cp))
    bits = _payload_bits(seeds, 2 * n_occ * n_sym, base_bits, bit_flip_prob)
    qpsk = ((1 - 2 * bits[:, 0::2]) + 1j * (1 - 2 * bits[:, 1::2])) / math.sqrt(2)
    qpsk = qpsk.reshape(len(bits), n_sym, n_occ)
    spectrum = np.zeros((len(bits), n_sym, nfft), dtype=np.complex128)
    spectrum[..., 1 : n_occ // 2 + 1] = qpsk[..., : n_occ // 2]
    spectrum[..., nfft - n_occ // 2 :] = qpsk[..., n_occ // 2 :]
    symbols = np.fft.ifft(spectrum, axis=-1)
    with_cp = np.concatenate([symbols[..., -cp:], symbols], axis=-1)
    return with_cp.reshape(len(bits), -1)[:, :length]


def _gfsk(seeds, length, spec, base_bits, bit_flip_prob):
    sps = int(round(1.0 / spec.symbol_rate))
    pad = 4  # symbols absorbed by the filter transient at each end
    n_sym = -(-length // sps) + 2 * pad
    nrz = np.repeat(2.0 * _payload_bits(seeds, n_sym, base_bits, bit_flip_prob) - 1.0, sps, axis=1)
    # Gaussian pulse-shaping filter; std in samples from the BT product.
    std = sps * math.sqrt(math.log(2.0)) / (2.0 * math.pi * spec.gauss_bt)
    t = np.arange(-2 * sps, 2 * sps + 1)
    kernel = np.exp(-0.5 * (t / std) ** 2)
    kernel /= kernel.sum()
    # np.convolve sums each output with a BLAS dot product; row by row, its
    # sums keep their order.
    shaped = np.empty_like(nrz)
    for out, row in zip(shaped, nrz):
        out[:] = np.convolve(row, kernel, mode="same")
    phase = np.pi * spec.mod_index * np.cumsum(shaped, axis=1)[:, pad * sps : pad * sps + length] / sps
    return np.exp(1j * phase)


def _oqpsk_halfsine(seeds, length, spec, base_bits, bit_flip_prob):
    sps = int(round(1.0 / spec.symbol_rate))  # samples per chip
    pad = 2
    per_branch = -(-length // (2 * sps)) + 2 * pad + 2
    chips = 2.0 * _payload_bits(seeds, 2 * per_branch, base_bits, bit_flip_prob) - 1.0
    pulse = np.sin(np.pi * np.arange(2 * sps) / (2 * sps))
    # Each chip holds one whole pulse, so every sample is a single product.
    # ``+ 0.0`` turns the -0.0 a negative chip makes at ``pulse[0] = 0``
    # into +0.0, as a zero-initialised filter sum gives.
    i_br = (chips[:, 0::2, None] * pulse).reshape(len(chips), -1) + 0.0
    q_br = (chips[:, 1::2, None] * pulse).reshape(len(chips), -1) + 0.0
    n = min(i_br.shape[1], q_br.shape[1] + sps)
    sig = i_br[:, :n].astype(np.complex128)
    sig[:, sps:n] += 1j * q_br[:, : n - sps]  # half-chip branch offset
    return sig[:, pad * 2 * sps : pad * 2 * sps + length]


_MODULATORS = {
    "ofdm_qpsk": _ofdm_qpsk,
    "gfsk": _gfsk,
    "oqpsk_halfsine": _oqpsk_halfsine,
}


#: Samples in the raised-cosine amplitude ramp at each end of a burst.
RAMP_LEN = 16


def gen_protocol_bursts(
    spec: ProtocolSpec,
    payload_seeds: Sequence[SeedLike],
    length: int = BURST_LEN,
    base_bits: Optional[np.ndarray] = None,
    bit_flip_prob: float = 0.0,
) -> np.ndarray:
    """Generate clean bursts of a waveform family, one (B, L) row per seed.

    Row ``r`` is a pure function of (spec, ``payload_seeds[r]``).  Each row
    has exactly unit average power and a raised-cosine amplitude ramp of
    :data:`RAMP_LEN` samples at both ends.  With ``base_bits`` the payload
    is that fixed pattern, each bit flipped independently with
    ``bit_flip_prob`` — the "mostly constant frame" regime of beacon-like
    traffic.
    """
    if length < MIN_BURST_LEN:
        raise ValueError(f"length must be >= {MIN_BURST_LEN}")
    sig = _MODULATORS[spec.modulation](payload_seeds, length, spec, base_bits, bit_flip_prob)
    win = 0.5 * (1.0 - np.cos(np.pi * (np.arange(RAMP_LEN) + 0.5) / RAMP_LEN))
    env = np.ones(length)
    env[:RAMP_LEN] = win
    env[length - RAMP_LEN :] = win[::-1]
    sig = sig * env
    return sig / np.sqrt(np.mean(np.abs(sig) ** 2, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# bandwidth measurement and normalization
# ---------------------------------------------------------------------------


def measure_occupied_bandwidth(x: np.ndarray) -> float:
    """−20 dB support width of the averaged power spectrum.

    Hann-windowed segments of nfft = 512 samples with 50% overlap are
    averaged (one segment if the burst is short), and the width
    is the contiguous run of bins within 20 dB of the peak that contains
    the peak, as a fraction of the sample rate.  Using the peak's run
    (not the outermost bins above threshold) keeps a stray
    payload-dependent sidelobe from inflating the estimate; segments are
    zero-padded 4x so the crossing quantizes to 1/(4·nfft) of the sample
    rate.
    """
    if not np.any(x):
        raise ValueError("zero-energy burst")
    if not np.all(np.isfinite(x)):
        raise ValueError("burst samples must be finite")
    nfft = min(512, len(x))
    grid = 4 * nfft
    hop = max(1, nfft // 2)
    win = np.hanning(nfft)
    acc = np.zeros(grid)
    count = 0
    for start in range(0, len(x) - nfft + 1, hop):
        seg = np.fft.fft(x[start : start + nfft] * win, n=grid)
        acc += np.abs(seg) ** 2
        count += 1
    psd = np.fft.fftshift(acc / count)
    above = np.flatnonzero(psd >= psd.max() * 10.0 ** (-20.0 / 10.0))
    peak = int(np.argmax(psd))
    runs = np.split(above, np.flatnonzero(np.diff(above) > 1) + 1)
    run = next(r for r in runs if r[0] <= peak <= r[-1])
    return len(run) / grid


NORMALIZED_BW = 0.05  # common post-normalization −20 dB width


def normalize_bandwidth(x: np.ndarray) -> np.ndarray:
    """Resample a burst so its occupied bandwidth matches :data:`NORMALIZED_BW`.

    Removes the bandwidth cue between waveform families while keeping
    the modulation structure.  The output length scales inversely with
    the rate change, so callers needing fixed-length bursts crop after
    normalizing.

    A burst that already measures within 5% of the target is returned
    unchanged.

    The driving measurement runs on a fixed-size central window (the
    standard burst length) so long raw bursts and their fixed-length
    crops agree on the width.  The -20 dB crossing of a short burst's
    averaged PSD is payload-noisy, so the loop resamples up to 8 times
    and keeps the round that measured closest to the target.
    """
    from scipy.signal import resample_poly  # imported here: only bandwidth normalisation needs scipy

    y = best = x
    best_err = math.inf
    for _ in range(8):
        win = y if len(y) <= BURST_LEN else center_crop(y, BURST_LEN)
        measured = measure_occupied_bandwidth(win)
        err = abs(NORMALIZED_BW / measured - 1.0)
        if err < best_err:
            best_err, best = err, y
        if err <= 0.05:
            break
        ratio = Fraction(measured / NORMALIZED_BW).limit_denominator(64)
        y = resample_poly(y, ratio.numerator, ratio.denominator)
    return best


def center_crop(x: np.ndarray, length: int) -> np.ndarray:
    """Central ``length`` samples of a burst."""
    n = len(x)
    if n < length:
        raise ValueError(f"burst of length {n} cannot be cropped to {length}")
    start = (n - length) // 2
    return x[start : start + length]


# ---------------------------------------------------------------------------
# labeled datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """Bursts with integer labels and a fixed stratified train/test split.

    ``bursts`` is a read-only (B, L) view of the given bursts (see
    :func:`~looprc.errors.frozen_array`), one finite burst per row at
    ``sample_rate`` Hz: complex64 kept as given (a capture as read), else complex128.
    """

    bursts: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]
    train_idx: np.ndarray
    test_idx: np.ndarray
    sample_rate: float = SAMPLE_RATE
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        bursts = frozen_array(self.bursts, "burst", "samples", "BL", (np.complex64, np.complex128))
        object.__setattr__(self, "bursts", bursts)
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_names", tuple(self.label_names))
        for name in ("train_idx", "test_idx"):
            idx = np.array(getattr(self, name), dtype=np.int64)
            idx.setflags(write=False)
            object.__setattr__(self, name, idx)
        if len(self.bursts) != self.labels.size:
            raise ValueError("labels and bursts disagree in length")
        if self.labels.size and not (
            0 <= self.labels.min() and self.labels.max() < len(self.label_names)
        ):
            raise ValueError("labels outside label_names range")
        both = np.concatenate([self.train_idx, self.test_idx])
        if not np.array_equal(np.sort(both), np.arange(len(self.bursts))):
            raise ValueError("train/test must partition the dataset")

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def __len__(self) -> int:
        return len(self.bursts)

    def subset(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.bursts[indices], self.labels[indices]

    def content_hash(self) -> str:
        """SHA-256 over samples (widened to complex128 a burst at a time), labels, split and names."""
        h = hashlib.sha256()
        for burst in self.bursts:
            h.update(np.ascontiguousarray(burst, dtype=np.complex128))
        h.update(self.labels.tobytes())
        h.update(self.train_idx.tobytes())
        h.update(self.test_idx.tobytes())
        h.update("\x00".join(self.label_names).encode())
        return h.hexdigest()


def stratified_split(labels: np.ndarray, seed: SeedLike) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class shuffle, first 80% of each class to train."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        cut = int(round(0.8 * idx.size))
        train.append(idx[:cut])
        test.append(idx[cut:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


# numpy's SeedSequence hash constants (after O'Neill's seed_seq_fe).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(n, 1, 1) uint32: ``init``, then each times ``mult`` mod 2**32."""
    return np.array([init] + [mult] * (n - 1), np.uint32).cumprod(dtype=np.uint32)[:, None, None]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # One step of SeedSequence's ``hashmix`` and ``generate_state``: uint32
    # arrays wrap mod 2**32 without a warning.
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # SeedSequence's ``mix`` of two pool words.
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> 16)


def _stream_words(seed: int, rows: range) -> np.ndarray:
    """(3, B, 4) uint64: ``SeedSequence([seed, 1, i]).spawn(3)[k].generate_state(4, np.uint64)``
    at ``[k, r]`` for row ``i = rows[r]``, hashed for every row and stream at once.

    This is numpy's SeedSequence entropy assembly, mixing into its pool of
    four words and output hash, on (3, B) uint32 arrays.  The seed (>= 0)
    is split into 32-bit words, low word first, as numpy splits it, and a
    run entropy ``[seed words, 1, i]`` shorter than the pool is padded with
    zeros before the spawn key ``k``.  A row index of 2**32 or more would
    be two words, so it raises.
    """
    if rows.start < 0 or rows.stop > 2**32:
        raise ValueError("row indices must be in [0, 2**32)")
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    run = len(seed_words) + 2
    entropy = np.zeros((max(run, 4) + 1, 3, len(rows)), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None, None]
    entropy[run - 2] = 1
    entropy[run - 1] = np.arange(rows.start, rows.stop, dtype=np.uint32)
    entropy[-1] = np.arange(3, dtype=np.uint32)[:, None]
    # mix_entropy: hashmix call n xors with a[n] and multiplies by a[n + 1].
    a = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    mixer = _hashmix(entropy[:4], a[0:4], a[1:5])
    n = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], a[n : n + 3], a[n + 1 : n + 4]))
        n += 3
    for value in entropy[4:]:
        mixer = _mix(mixer, _hashmix(value, a[n : n + 4], a[n + 1 : n + 5]))
        n += 4
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired low word first.
    b = _hash_constants(_INIT_B, _MULT_B, 9)
    state = _hashmix(mixer[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:]).astype(np.uint64)
    words = np.ascontiguousarray(np.moveaxis(state[0::2] | state[1::2] << np.uint64(32), 0, -1))
    words.setflags(write=False)
    return words


class _Stream(np.random.bit_generator.ISeedSequence):
    """One row's stream: a seed that ``np.random.default_rng`` turns into the
    same ``Generator(PCG64(...))`` as the ``SeedSequence`` it stands for,
    without hashing again.  Stateless, so every generator built from it
    starts at the same point."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a row stream holds only PCG64's seed, generate_state(4, np.uint64)")
        return self._words


def _streams(words: np.ndarray, k: int) -> list[_Stream]:
    """Stream ``k`` of each row of a ``_stream_words`` block."""
    return [_Stream(w) for w in words[k]]


def _generate(
    seed: int,
    names: tuple[str, ...],
    per_class: int,
    length: int,
    block: Callable[..., np.ndarray],
    meta: dict,
) -> LabeledDataset:
    """The dataset layout both generators share.

    Bursts are class-major: row ``i`` is burst ``i % per_class`` of class
    ``c = i // per_class``.  Each class is built as one (per_class, L)
    block by ``block(c, streams)``, where ``streams(k)`` lists stream ``k``
    (payload 0, impairment 1, channel 2) of each of the class's rows, the
    ``k``-th child of ``SeedSequence([seed, 1, i])``, all hashed in one
    :func:`_stream_words` call.  Row ``i`` draws only from its own three
    streams, so it is a pure function of (seed, i, parameters), built in
    any block.  The stratified split is seeded by ``SeedSequence([seed, 2])``.
    """
    bursts = np.empty((len(names) * per_class, length), dtype=np.complex128)
    words = _stream_words(seed, range(len(bursts)))
    for c in range(len(names)):
        rows = slice(c * per_class, (c + 1) * per_class)
        bursts[rows] = block(c, partial(_streams, words[:, rows]))
    labels = np.repeat(np.arange(len(names)), per_class)
    train_idx, test_idx = stratified_split(labels, np.random.SeedSequence([seed, 2]))
    return LabeledDataset(bursts, labels, names, train_idx, test_idx, meta=meta)


#: Each :func:`make_sei_dataset` parameter's range; dataset configs share it.
SEI_FIELDS = {
    "n_devices": at_least(2),
    "bursts_per_device": at_least(1),
    "length": at_least(MIN_BURST_LEN),
    "seed": at_least(0),
    "snr_db": NUMBER,
    "spread": at_least(0, NUMBER),
    "bit_flip_prob": within(0, 1),
    "if_offset": within(-0.5, 0.5),
}
#: Each :func:`make_wiprec_dataset` parameter's range.
WIPREC_FIELDS = {
    **dict.fromkeys(("bursts_per_class", "fingerprints_per_class"), at_least(1)),
    "length": at_least(MIN_BURST_LEN),
    "seed": at_least(0),
    "snr_db": NUMBER,
    "spread": at_least(0, NUMBER),
    **dict.fromkeys(("clean", "bw_normalized"), BOOLEAN),
}


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
    """Emitter-identification dataset: one waveform, ``n_devices`` radios.

    Every device transmits near-identical beacon-like frames (one fixed
    payload with ~``bit_flip_prob`` of bits flipped per burst), so class
    information comes almost entirely from the fingerprints.

    ``if_offset`` (cycles/sample) tunes the capture off-center, the usual
    trick for keeping a signal away from the receiver's DC/LO artifacts.
    The occupied band then sits in the interior of the spectrum instead of
    straddling the bin-0 wraparound.  A parameter outside its
    :data:`SEI_FIELDS` range raises ``ValueError``; nothing is coerced.
    """
    check_fields(locals(), SEI_FIELDS, ValueError, "sei")
    spec = PROTOCOLS["wifi_like"]
    fps = [device_fingerprint(seed, d, spread) for d in range(n_devices)]
    base_bits = np.random.default_rng(np.random.SeedSequence([seed, 0])).integers(0, 2, 4096)
    shift = np.exp(2j * np.pi * if_offset * np.arange(length)) if if_offset != 0.0 else None

    def block(d, streams):
        x = gen_protocol_bursts(spec, streams(0), length, base_bits, bit_flip_prob)
        if shift is not None:
            np.multiply(x, shift, out=x)
        return add_awgn(apply_fingerprint(x, fps[d], streams(1)), snr_db, streams(2))

    names = tuple(f"device_{d:02d}" for d in range(n_devices))
    meta = dict(kind="sei", n_devices=n_devices, bursts_per_device=bursts_per_device, snr_db=snr_db,
                seed=seed, spread=spread, bit_flip_prob=bit_flip_prob, if_offset=if_offset)
    return _generate(seed, names, bursts_per_device, length, block, meta)


def _raw_length(spec: ProtocolSpec, length: int) -> int:
    # Widening a narrowband burst to the target compresses it in time by
    # target/width, so those families need proportionally more raw samples
    # for the final crop to fit.  Narrowing a wideband burst stretches it,
    # so plain `length` already suffices there.
    grow = max(1.0, NORMALIZED_BW / spec.occupied_bw)
    need = int(math.ceil(length * grow * 1.4))
    return max(length, -(-need // 256) * 256)


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
    """Protocol-recognition dataset over the four waveform families.

    ``clean=True`` emits pristine modulator output.  Otherwise each
    class's bursts rotate through a pool of ``fingerprints_per_class``
    devices and pass through an AWGN channel at ``snr_db``.  With
    ``bw_normalized`` every burst is resampled to a common occupied
    bandwidth (then center-cropped back to ``length``), which deletes
    the bandwidth cue between families.  A parameter outside its
    :data:`WIPREC_FIELDS` range raises ``ValueError``; nothing is coerced.
    """
    check_fields(locals(), WIPREC_FIELDS, ValueError, "wiprec")
    specs = [PROTOCOLS[fam] for fam in PROTOCOL_FAMILIES]
    pools = [fingerprint_pool(seed, c, fingerprints_per_class, spread) for c in range(len(specs))]

    def block(c, streams):
        payload, impairment = streams(0), None if clean else streams(1)

        def impaired(rows, raw):
            # The class's rows that share a pool device pass its chain together.
            x = gen_protocol_bursts(specs[c], [payload[j] for j in rows], raw)
            if not clean:
                device = np.asarray(rows) % fingerprints_per_class
                for k in np.unique(device):
                    mine = np.flatnonzero(device == k)
                    x[mine] = apply_fingerprint(x[mine], pools[c][k], [impairment[rows[r]] for r in mine])
            return x

        if not bw_normalized:
            x = impaired(range(bursts_per_class), length)
        else:
            # Resampling runs per burst anyway; a burst at a time also keeps
            # the raw samples, up to 7x the final length, out of a block.
            x = np.empty((bursts_per_class, length), dtype=np.complex128)
            for j in range(bursts_per_class):
                raw = _raw_length(specs[c], length)
                while len(xn := normalize_bandwidth(impaired([j], raw)[0])) < length:
                    # Measured width came in below nominal; retry with more raw
                    # samples (same seeds, so the payload prefix is unchanged).
                    raw *= 2
                x[j] = center_crop(xn, length)
        return x if clean else add_awgn(x, snr_db, streams(2))

    meta = dict(kind="wiprec", bursts_per_class=bursts_per_class, clean=clean,
                bw_normalized=bw_normalized, snr_db=snr_db, seed=seed, spread=spread)
    return _generate(seed, PROTOCOL_FAMILIES, bursts_per_class, length, block, meta)
