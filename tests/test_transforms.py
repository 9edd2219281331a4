import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looprc.transforms import (
    MeanAmplitudeProfile,
    TransformSpec,
    amplitude_subburst,
    compute_mean_amplitude,
    decimated_dft,
    differential_fft,
    fft_magnitude,
    kay_freq_estimate,
)


def dense_dft_matrix(length: int) -> np.ndarray:
    """The 1/N-scaled DFT matrix, entry (t, k) = omega^(-t*k) / N.

    Built by explicit outer product so spectral transforms are checked
    against a direct O(L^2) multiply, not another FFT call.
    """
    t = np.arange(length)
    return np.exp(-2j * np.pi * np.outer(t, t) / length) / length


def decimated_oracle(samples: np.ndarray, d: int) -> np.ndarray:
    dmat = dense_dft_matrix(len(samples))
    return np.abs(samples @ dmat[:, ::d])


def random_burst(rng, length):
    return rng.normal(size=length) + 1j * rng.normal(size=length)


def burst(samples):
    return np.asarray(samples, dtype=np.complex128)


# --- amplitude sub-burst ---


def test_amplitude_subburst_modulus_golden():
    b = burst([3 + 4j, 0, 1])
    assert amplitude_subburst(b, offset=0, length=3).tolist() == [5.0, 0.0, 1.0]


def test_amplitude_subburst_zero_burst():
    b = np.full(32, 0j)
    assert not amplitude_subburst(b, length=16).any()


def test_amplitude_subburst_default_offset_is_centered():
    rng = np.random.default_rng(0)
    b = random_burst(rng, 1024)
    centered = amplitude_subburst(b, length=256)
    explicit = amplitude_subburst(b, offset=384, length=256)
    assert np.array_equal(centered, explicit)


def test_amplitude_subburst_window_bounds():
    b = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        amplitude_subburst(b, offset=-1, length=4)
    with pytest.raises(ValueError):
        amplitude_subburst(b, offset=6, length=4)
    with pytest.raises(ValueError):
        amplitude_subburst(b, length=0)


# --- FFT magnitude ---


def test_fft_magnitude_constant_burst_is_dc_only():
    c = 2.0 - 1.5j
    out = fft_magnitude(np.full(64, c))
    assert out[0] == pytest.approx(abs(c), abs=1e-12)
    assert np.max(np.abs(out[1:])) < 1e-12


def test_fft_magnitude_tone_concentrates_at_bin():
    n, m = 128, 17
    tone = np.exp(2j * np.pi * m * np.arange(n) / n)
    out = fft_magnitude(tone)
    assert out[m] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.delete(out, m)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fft_magnitude_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    b = random_burst(rng, 64)
    assert np.max(np.abs(fft_magnitude(b) - decimated_oracle(b, 1))) <= 1e-9


# --- decimated DFT ---


def test_decimated_dft_golden_l4_d2():
    # 4-point DFT of [1,1,1,1] keeping every 2nd column: [1, 0]
    out = decimated_dft(burst([1, 1, 1, 1]), d=2)
    assert out == pytest.approx([1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("length", [8, 64, 1024])
def test_decimated_dft_d1_equals_fft_magnitude(length):
    rng = np.random.default_rng(length)
    b = random_burst(rng, length)
    assert np.max(np.abs(decimated_dft(b, 1) - fft_magnitude(b))) <= 1e-9


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 8, 16]))
@settings(max_examples=60, deadline=None)
def test_decimated_dft_matches_dense_matrix(seed, d):
    rng = np.random.default_rng(seed)
    b = random_burst(rng, 64)
    out = decimated_dft(b, d)
    assert out.shape == (64 // d,)
    assert np.max(np.abs(out - decimated_oracle(b, d))) <= 1e-9


def test_decimated_dft_rejects_nondivisor():
    b = np.ones(10, dtype=complex)
    with pytest.raises(ValueError):
        decimated_dft(b, 3)
    with pytest.raises(ValueError):
        decimated_dft(b, 0)


# --- Kay frequency estimates ---


def test_kay_exact_on_noiseless_tones():
    rng = np.random.default_rng(9)
    n = 64
    for _ in range(100):
        f = rng.uniform(-0.45, 0.45)
        phi = rng.uniform(0, 2 * np.pi)
        tone = np.exp(1j * (2 * np.pi * f * np.arange(n) + phi))
        est = kay_freq_estimate(tone, stride=4)
        assert np.max(np.abs(est - f)) <= 1e-10


def test_kay_constant_real_burst_is_zero():
    est = kay_freq_estimate(np.full(16, 3.0 + 0j))
    assert not est.any()


def test_kay_output_length():
    b = np.exp(2j * np.pi * 0.1 * np.arange(1024))
    assert kay_freq_estimate(b, stride=4).shape == (256,)
    assert kay_freq_estimate(b, stride=1).shape == (1022,)


def test_kay_input_validation():
    with pytest.raises(ValueError):
        kay_freq_estimate(burst([1 + 0j, 1 + 0j]))
    with pytest.raises(ValueError):
        kay_freq_estimate(np.ones(8, dtype=complex), stride=0)


# --- mean amplitude profile / differential FFT ---


def test_mean_amplitude_single_burst_is_own_amplitude():
    rng = np.random.default_rng(3)
    b = random_burst(rng, 32)
    assert np.allclose(compute_mean_amplitude(b[None]).values, np.abs(b))


def test_mean_amplitude_arithmetic_mean():
    rng = np.random.default_rng(4)
    a = np.abs(rng.normal(size=16)) + 0.1
    b1 = a.astype(complex)
    b2 = 3 * a.astype(complex)
    assert np.allclose(compute_mean_amplitude(np.stack([b1, b2])).values, 2 * a)


def test_mean_amplitude_rejects_bad_sets():
    with pytest.raises(ValueError):
        compute_mean_amplitude(np.ones((0, 8), dtype=complex))
    with pytest.raises(ValueError):
        compute_mean_amplitude(np.ones(8, dtype=complex))  # one burst, not a (B, L) set


def test_mean_amplitude_recomputation_bit_identical():
    rng = np.random.default_rng(5)
    bursts = np.stack([random_burst(rng, 64) for _ in range(7)])
    a = compute_mean_amplitude(bursts).values
    b = compute_mean_amplitude(bursts).values
    assert np.array_equal(a, b)


def test_differential_fft_zero_profile_is_fft_magnitude():
    rng = np.random.default_rng(6)
    b = random_burst(rng, 128)
    zero = MeanAmplitudeProfile(values=np.zeros(128))
    # the amplitude/phase split rounds, so equality is to float precision
    assert np.allclose(differential_fft(b, zero), fft_magnitude(b), atol=1e-12)


def test_differential_fft_identical_bursts_cancel():
    rng = np.random.default_rng(7)
    b = random_burst(rng, 64)
    profile = compute_mean_amplitude(np.stack([b, b, b]))
    assert np.max(differential_fft(b, profile)) < 1e-12


def test_differential_fft_zero_amplitude_takes_phase_zero():
    # A zero sample minus a positive profile value must land on the
    # negative real axis (arg 0), not at an arbitrary angle.
    b = burst([0j, 1j, 1 + 0j, 0j])
    profile = MeanAmplitudeProfile(values=[0.5, 0.5, 0.5, 0.5])
    residual = np.array([-0.5, 0.5j, 0.5, -0.5])
    expected = np.abs(np.fft.fft(residual)) / 4
    assert np.allclose(differential_fft(b, profile), expected, atol=1e-12)


def test_differential_fft_length_mismatch():
    b = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        differential_fft(b, MeanAmplitudeProfile(values=np.zeros(9)))


# --- phase discard ---


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_global_phase_rotation_is_discarded(seed, phi):
    """Every transform must be blind to a global e^{j phi} rotation."""
    rng = np.random.default_rng(seed)
    b = random_burst(rng, 32)
    rotated = b * np.exp(1j * phi)
    profile = MeanAmplitudeProfile(values=np.abs(rng.normal(size=32)))
    pairs = [
        (amplitude_subburst(b, length=16), amplitude_subburst(rotated, length=16)),
        (fft_magnitude(b), fft_magnitude(rotated)),
        (decimated_dft(b, 4), decimated_dft(rotated, 4)),
        (differential_fft(b, profile), differential_fft(rotated, profile)),
        (kay_freq_estimate(b, stride=2), kay_freq_estimate(rotated, stride=2)),
    ]
    for plain, rot in pairs:
        assert np.max(np.abs(plain - rot)) < 1e-9


# --- TransformSpec ---

ALL_KINDS = [
    TransformSpec(kind="amplitude_subburst", params={"length": 16}),
    TransformSpec(kind="fft_mag"),
    TransformSpec(kind="diff_fft"),
    TransformSpec(kind="decimated_dft", params={"d": 4}),
    TransformSpec(kind="kay_freq", params={"stride": 3}),
]


#: Every kind, with parameters that fit some of LENGTHS and not others.
SPECS = [
    *(TransformSpec(kind="amplitude_subburst", params=p) for p in (
        {}, {"length": 16}, {"offset": 3, "length": 8}, {"offset": None, "length": 17},
        {"offset": -1, "length": 4}, {"offset": 250, "length": 8}, {"length": 0},
    )),
    TransformSpec(kind="fft_mag"),
    TransformSpec(kind="diff_fft"),
    *(TransformSpec(kind="decimated_dft", params=p) for p in ({}, {"d": 1}, {"d": 3}, {"d": 4}, {"d": 0}, {"d": -2})),
    *(TransformSpec(kind="kay_freq", params=p) for p in ({}, {"stride": 1}, {"stride": 3}, {"stride": 0})),
]
LENGTHS = [1, 2, 3, 4, 16, 17, 32, 64, 256, 258]


def test_output_length_query_matches_apply():
    # Each length rule runs its transform's own fit check, so for every
    # burst length the query gives the width apply produces, or both fail.
    for length in LENGTHS:
        b = random_burst(np.random.default_rng(length), length)[None, :]
        profile = MeanAmplitudeProfile(values=np.ones(length))
        for spec in SPECS:
            try:
                width = spec.output_length(length)
            except ValueError:
                with pytest.raises(ValueError):
                    spec.apply(b, profile)
                continue
            out = spec.apply(b, profile)
            assert out.shape == (1, width), (spec, length)
            assert out.dtype == np.float64
            assert np.all(np.isfinite(out))


def test_spec_rejects_unknown_params():
    with pytest.raises(ValueError):
        TransformSpec(kind="fft_mag", params={"d": 2})
    with pytest.raises(ValueError):
        TransformSpec(kind="kay_freq", params={"window": 5})
    for kind in ("wavelet", ["fft_mag"], None):  # a list is unhashable: ValueError, not TypeError
        with pytest.raises(ValueError):
            TransformSpec(kind=kind)


def test_spec_round_trips_through_dict():
    for spec in ALL_KINDS:
        again = TransformSpec.from_dict(spec.to_dict())
        assert again == spec


def test_diff_fft_requires_profile():
    b = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        TransformSpec(kind="diff_fft").apply(b, None)


def test_profile_validation():
    with pytest.raises(ValueError):
        MeanAmplitudeProfile(values=[])
    with pytest.raises(ValueError):
        MeanAmplitudeProfile(values=[1.0, np.inf])
