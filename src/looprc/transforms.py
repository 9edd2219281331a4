"""Transforms from complex I/Q bursts to real-valued loop inputs.

Delay loops process real vectors only, so every transform here discards
phase in some form: amplitude extraction, spectral magnitudes (full,
differential, or column-decimated DFT), and phase-difference frequency
estimates.  Each maps a batch of bursts along its last axis in one array
operation: a (B, L) complex array to a (B, M) real one, and a single (L,)
burst to (M,).  The kernels compute in their input's precision, so
complex64 bursts (an I/Q file as read) go through
:func:`looprc.pipeline.transform_rows`, which widens them to complex128
one block at a time.  :class:`TransformSpec` gives each transform a
serializable description plus an exact output-length query, which the
topology layer uses to validate slice assignments before any computation
runs.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import INTEGER, Field, check_fields, frozen_array, or_null


@dataclass(frozen=True)
class MeanAmplitudeProfile:
    """Per-sample mean amplitude over a training set.

    Must be computed on training bursts only; reusing a test-set profile
    leaks label information into the transform.  ``values`` is a
    read-only float64 view of the given vector (see
    :func:`~looprc.errors.frozen_array`).
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, "profile", "values", "L"))

    def __len__(self) -> int:
        return self.values.size


def _window(n: int, offset: Optional[int], length: int) -> range:
    """The sample indices of a sub-burst window in a burst of ``n``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if offset is None:
        offset = (n - length) // 2
    if offset < 0 or offset + length > n:
        raise ValueError(f"window [{offset}, {offset + length}) outside burst of length {n}")
    return range(offset, offset + length)


def amplitude_subburst(bursts: np.ndarray, offset: Optional[int] = None, length: int = 256) -> np.ndarray:
    """Extract the amplitudes of a contiguous sub-burst.

    ``offset=None`` centers the window in the burst, where the salient
    part of a burst tends to sit; both offset and length are otherwise
    free (and searchable) parameters.
    """
    window = _window(bursts.shape[-1], offset, length)
    return np.abs(bursts[..., window.start : window.stop])


def fft_magnitude(bursts: np.ndarray) -> np.ndarray:
    """Magnitudes of the 1/L-scaled DFT of each burst (length L)."""
    return np.abs(np.fft.fft(bursts, axis=-1)) / bursts.shape[-1]


def compute_mean_amplitude(bursts: np.ndarray) -> MeanAmplitudeProfile:
    """Elementwise mean of |b[i]| over a (B, L) set of bursts.

    Each burst is widened to complex128 on its own and its amplitudes
    written into one float64 (B, L) array, so a complex64 set takes half
    its widened size besides the input; the sum runs over the bursts in
    row order, so recomputation over the same set is bit-identical.
    """
    bursts = np.asarray(bursts)
    if bursts.ndim != 2 or len(bursts) == 0:
        raise ValueError("need a (B, L) array of at least one burst")
    amplitudes = np.empty(bursts.shape)
    for burst, out in zip(bursts, amplitudes):
        np.abs(burst.astype(np.complex128, copy=False), out=out)
    return MeanAmplitudeProfile(values=amplitudes.sum(axis=0) / len(bursts))


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


def _decimated_length(n: int, d: int) -> int:
    if d < 1:
        raise ValueError("d must be >= 1")
    if n % d != 0:
        raise ValueError(f"decimation {d} does not divide burst length {n}")
    return n // d


def decimated_dft(bursts: np.ndarray, d: int = 1) -> np.ndarray:
    """Magnitudes of the column-decimated DFT (length L/d).

    Keeping every d-th column of the 1/L-scaled DFT matrix and projecting
    a burst onto those columns evaluates every d-th frequency bin, which
    equals an L/d-point FFT of the d-fold folded burst.  That pruned form
    is used here; the dense matrix product serves as the test oracle.
    """
    n = bursts.shape[-1]
    folded = bursts.reshape(*bursts.shape[:-1], d, _decimated_length(n, d)).sum(axis=-2)
    return np.abs(np.fft.fft(folded, axis=-1)) / n


def _kay_windows(n: int, stride: int) -> int:
    """The number of 3-sample windows, ``stride`` apart, in a burst of ``n``."""
    if n < 3:
        raise ValueError("burst must hold at least 3 samples")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return (n - 3) // stride + 1


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
    starts = stride * np.arange(_kay_windows(bursts.shape[-1], stride))
    # np.multiply, not *: for a large temporary right operand, * computes
    # the product in place with the operands swapped, which rounds the
    # complex product differently (fused multiply-adds are not symmetric).
    d1 = np.angle(np.multiply(bursts[..., starts + 1], np.conj(bursts[..., starts])))
    d2 = np.angle(np.multiply(bursts[..., starts + 2], np.conj(bursts[..., starts + 1])))
    return (d1 + d2) / (4.0 * np.pi)


class _Kind(NamedTuple):
    fn: Callable[..., np.ndarray]
    params: dict[str, Field]  # the parameters it takes, and their types
    length: Callable[..., int]  # output length for a burst length and the params


#: Each transform kind by its config name.  A length rule calls its
#: transform's fit check, with the transform's defaults.
_KINDS = {
    "amplitude_subburst": _Kind(amplitude_subburst, {"offset": or_null(INTEGER), "length": INTEGER},
                                lambda n, offset=None, length=256: len(_window(n, offset, length))),
    "fft_mag": _Kind(fft_magnitude, {}, lambda n: n),
    "diff_fft": _Kind(differential_fft, {}, lambda n: n),
    "decimated_dft": _Kind(decimated_dft, {"d": INTEGER}, lambda n, d=1: _decimated_length(n, d)),
    "kay_freq": _Kind(kay_freq_estimate, {"stride": INTEGER}, lambda n, stride=4: _kay_windows(n, stride)),
}


@dataclass(frozen=True)
class TransformSpec:
    """Serializable description of one input transform.

    ``params`` are the kind's keyword arguments, checked at construction;
    an unknown kind or key or a value of the wrong type raises ValueError:

    - ``amplitude_subburst``: ``offset`` (int, or None for centered),
      ``length`` (int, default 256)
    - ``fft_mag``: no params
    - ``diff_fft``: no params (the mean profile is supplied at apply time)
    - ``decimated_dft``: ``d`` (int, default 1)
    - ``kay_freq``: ``stride`` (int, default 4)
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # The type first: an unhashable kind cannot be looked up.
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"transform kind must be one of {sorted(_KINDS)}, got {self.kind!r}")
        check_fields(self.params, _KINDS[self.kind].params, ValueError, self.kind)

    def output_length(self, input_length: int) -> int:
        """Exact output length for a burst of ``input_length`` samples;
        ``ValueError`` where :meth:`apply` would raise one."""
        return _KINDS[self.kind].length(input_length, **self.params)

    def needs_profile(self) -> bool:
        return self.kind == "diff_fft"

    def apply(self, bursts: np.ndarray, profile: Optional[MeanAmplitudeProfile] = None) -> np.ndarray:
        """The transform of (B, L) bursts: a (B, M) array."""
        fn = _KINDS[self.kind].fn
        if not self.needs_profile():
            return fn(bursts, **self.params)
        if profile is None:
            raise ValueError("diff_fft requires a mean amplitude profile")
        return fn(bursts, profile)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "TransformSpec":
        return cls(kind=data.get("kind"), params={k: v for k, v in data.items() if k != "kind"})
