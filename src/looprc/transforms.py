"""Transforms from complex I/Q bursts to real-valued loop inputs.

Delay loops process real vectors only, so every transform here discards
phase in some form: amplitude extraction, spectral magnitudes (full,
differential, or column-decimated DFT), and phase-difference frequency
estimates.  Each maps a batch of bursts along its last axis in one array
operation: a (B, L) complex array to a (B, M) real one, and a single (L,)
burst to (M,).  :class:`TransformSpec` gives each transform a
serializable description plus an exact output-length query, which the
topology layer uses to validate slice assignments before any computation
runs.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import INTEGER, check_fields, or_null


@dataclass(frozen=True)
class MeanAmplitudeProfile:
    """Per-sample mean amplitude over a training set.

    Must be computed on training bursts only; reusing a test-set profile
    leaks label information into the transform.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("profile must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


class TransformKind(str, enum.Enum):
    AMPLITUDE_SUBBURST = "amplitude_subburst"
    FFT_MAG = "fft_mag"
    DIFF_FFT = "diff_fft"
    DECIMATED_DFT = "decimated_dft"
    KAY_FREQ = "kay_freq"


def amplitude_subburst(
    bursts: np.ndarray, offset: Optional[int] = None, length: int = 256
) -> np.ndarray:
    """Extract the amplitudes of a contiguous sub-burst.

    ``offset=None`` centers the window in the burst, where the salient
    part of a burst tends to sit; both offset and length are otherwise
    free (and searchable) parameters.
    """
    n = bursts.shape[-1]
    if length < 1:
        raise ValueError("length must be >= 1")
    if offset is None:
        offset = (n - length) // 2
    if offset < 0 or offset + length > n:
        raise ValueError(f"window [{offset}, {offset + length}) outside burst of length {n}")
    return np.abs(bursts[..., offset : offset + length])


def fft_magnitude(bursts: np.ndarray) -> np.ndarray:
    """Magnitudes of the 1/L-scaled DFT of each burst (length L)."""
    return np.abs(np.fft.fft(bursts, axis=-1)) / bursts.shape[-1]


def compute_mean_amplitude(bursts: np.ndarray) -> MeanAmplitudeProfile:
    """Elementwise mean of |b[i]| over a (B, L) set of bursts.

    The sum runs over the bursts in row order, so recomputation over the
    same set is bit-identical.
    """
    bursts = np.asarray(bursts)
    if bursts.ndim != 2 or len(bursts) == 0:
        raise ValueError("need a (B, L) array of at least one burst")
    return MeanAmplitudeProfile(values=np.abs(bursts).sum(axis=0) / len(bursts))


def differential_fft(bursts: np.ndarray, profile: MeanAmplitudeProfile) -> np.ndarray:
    """FFT magnitudes after removing the dataset-mean amplitude.

    The profile is subtracted from each burst's amplitude while the phase
    of every sample is preserved; samples with zero amplitude take phase
    0 (the choice is immaterial: any phase times zero magnitude is zero).
    """
    if len(profile) != bursts.shape[-1]:
        raise ValueError(f"profile length {len(profile)} != burst length {bursts.shape[-1]}")
    amp = np.abs(bursts)
    phase = np.where(amp > 0, bursts / np.where(amp > 0, amp, 1.0), 1.0)
    return fft_magnitude((amp - profile.values) * phase)


def decimated_dft(bursts: np.ndarray, d: int) -> np.ndarray:
    """Magnitudes of the column-decimated DFT (length L/d).

    Keeping every d-th column of the 1/L-scaled DFT matrix and projecting
    a burst onto those columns evaluates every d-th frequency bin, which
    equals an L/d-point FFT of the d-fold folded burst.  That pruned form
    is used here; the dense matrix product serves as the test oracle.
    """
    n = bursts.shape[-1]
    if d < 1:
        raise ValueError("d must be >= 1")
    if n % d != 0:
        raise ValueError(f"decimation {d} does not divide burst length {n}")
    folded = bursts.reshape(*bursts.shape[:-1], d, n // d).sum(axis=-2)
    return np.abs(np.fft.fft(folded, axis=-1)) / n


def kay_freq_estimate(bursts: np.ndarray, stride: int = 4) -> np.ndarray:
    """Phase-difference frequency estimates over 3-sample windows.

    For window start p the estimate is the mean of the two successive
    phase increments, expressed as a normalized frequency in (-0.5, 0.5]:

        f(p) = (arg(b[p+1] conj(b[p])) + arg(b[p+2] conj(b[p+1]))) / (4 pi)

    Windows start every ``stride`` samples; output length is
    ``(L - 3) // stride + 1``.  Exact on noiseless complex exponentials.
    The two increments get equal weight: with only two phase differences
    per window, parabolic window weighting is indistinguishable from
    uniform.
    """
    n = bursts.shape[-1]
    if n < 3:
        raise ValueError("burst must hold at least 3 samples")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = np.arange(0, n - 2, stride)
    # np.multiply, not *: for a large temporary right operand, * computes
    # the product in place with the operands swapped, which rounds the
    # complex product differently (fused multiply-adds are not symmetric).
    d1 = np.angle(np.multiply(bursts[..., starts + 1], np.conj(bursts[..., starts])))
    d2 = np.angle(np.multiply(bursts[..., starts + 2], np.conj(bursts[..., starts + 1])))
    return (d1 + d2) / (4.0 * np.pi)


#: The parameters each transform kind takes, and their types.
_PARAM_FIELDS = {
    TransformKind.AMPLITUDE_SUBBURST: {"offset": or_null(INTEGER), "length": INTEGER},
    TransformKind.FFT_MAG: {},
    TransformKind.DIFF_FFT: {},
    TransformKind.DECIMATED_DFT: {"d": INTEGER},
    TransformKind.KAY_FREQ: {"stride": INTEGER},
}


@dataclass(frozen=True)
class TransformSpec:
    """Serializable description of one input transform.

    ``params`` is checked per kind at construction; an unknown key or a
    value of the wrong type raises ``ValueError``:

    - ``amplitude_subburst``: ``offset`` (int, or None for centered),
      ``length`` (int, default 256)
    - ``fft_mag``: no params
    - ``diff_fft``: no params (the mean profile is supplied at apply time)
    - ``decimated_dft``: ``d`` (int, default 1)
    - ``kay_freq``: ``stride`` (int, default 4)
    """

    kind: TransformKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = TransformKind(self.kind)
        object.__setattr__(self, "kind", kind)
        check_fields(self.params, _PARAM_FIELDS[kind], ValueError, kind.value)

    def output_length(self, input_length: int) -> int:
        """Exact output length for a burst of ``input_length`` samples."""
        if self.kind is TransformKind.AMPLITUDE_SUBBURST:
            length = self.params.get("length", 256)
            if length < 1:
                raise ValueError("length must be >= 1")
            offset = self.params.get("offset")
            offset = (input_length - length) // 2 if offset is None else offset
            if offset < 0 or offset + length > input_length:
                raise ValueError("sub-burst window outside burst")
            return length
        if self.kind in (TransformKind.FFT_MAG, TransformKind.DIFF_FFT):
            return input_length
        if self.kind is TransformKind.DECIMATED_DFT:
            d = self.params.get("d", 1)
            if d < 1 or input_length % d != 0:
                raise ValueError(f"decimation {d} does not divide length {input_length}")
            return input_length // d
        stride = self.params.get("stride", 4)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if input_length < 3:
            raise ValueError("burst must hold at least 3 samples")
        return (input_length - 3) // stride + 1

    def needs_profile(self) -> bool:
        return self.kind is TransformKind.DIFF_FFT

    def apply(
        self, bursts: np.ndarray, profile: Optional[MeanAmplitudeProfile] = None
    ) -> np.ndarray:
        """The transform of (B, L) bursts: a (B, M) array."""
        if self.kind is TransformKind.AMPLITUDE_SUBBURST:
            return amplitude_subburst(
                bursts, offset=self.params.get("offset"), length=self.params.get("length", 256)
            )
        if self.kind is TransformKind.FFT_MAG:
            return fft_magnitude(bursts)
        if self.kind is TransformKind.DIFF_FFT:
            if profile is None:
                raise ValueError("diff_fft requires a mean amplitude profile")
            return differential_fft(bursts, profile)
        if self.kind is TransformKind.DECIMATED_DFT:
            return decimated_dft(bursts, self.params.get("d", 1))
        return kay_freq_estimate(bursts, stride=self.params.get("stride", 4))

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, **self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "TransformSpec":
        data = dict(data)
        kind = TransformKind(data.pop("kind"))
        return cls(kind=kind, params=data)
