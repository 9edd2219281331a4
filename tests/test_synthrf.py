import inspect
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import per_row_oracle as oracle
from looprc import cli, synthrf
from looprc.synthrf import (
    IDENTITY_FINGERPRINT,
    PROTOCOL_FAMILIES,
    PROTOCOLS,
    Fingerprint,
    LabeledDataset,
    add_awgn,
    apply_fingerprint,
    device_fingerprint,
    fingerprint_pool,
    gen_protocol_bursts,
    make_sei_dataset,
    make_wiprec_dataset,
    measure_occupied_bandwidth,
    normalize_bandwidth,
    stratified_split,
)
from looprc.transforms import fft_magnitude


def multitone(length=1024):
    """Three incommensurate tones: a high-PAPR test signal for PA checks."""
    t = np.arange(length)
    x = (
        np.exp(2j * np.pi * 0.011 * t)
        + np.exp(2j * np.pi * 0.037 * t)
        + np.exp(2j * np.pi * 0.113 * t)
    ) / math.sqrt(3)
    return x


def papr(samples):
    p = np.abs(samples) ** 2
    return float(p.max() / p.mean())


# --- fingerprints ---


def test_identity_fingerprint_is_exact_passthrough():
    b = multitone()[None]
    assert apply_fingerprint(b, IDENTITY_FINGERPRINT) is b


def test_pa_compression_reduces_peak_to_average():
    b = multitone()[None]
    fp = Fingerprint(pa_coeffs=(1.0, -0.1, 0.0))
    out = apply_fingerprint(b, fp)
    assert papr(out) < papr(b)


def test_phase_noise_requires_seed():
    fp = Fingerprint(phase_noise_std=1e-3)
    with pytest.raises(ValueError):
        apply_fingerprint(multitone()[None], fp)


def test_device_fingerprint_deterministic_and_distinct():
    a = device_fingerprint(3, 0)
    b = device_fingerprint(3, 0)
    c = device_fingerprint(3, 1)
    assert a == b
    # distinct devices must differ in the (a3, a5, cfo) triple
    assert (a.pa_coeffs[1], a.pa_coeffs[2], a.cfo) != (c.pa_coeffs[1], c.pa_coeffs[2], c.cfo)


def test_fingerprint_spread_scales_impairments_linearly():
    base = device_fingerprint(3, 0, spread=1.0)
    wide = device_fingerprint(3, 0, spread=2.0)
    assert wide.cfo == pytest.approx(2.0 * base.cfo, rel=1e-12)
    assert wide.iq_gain_imbalance == pytest.approx(2.0 * base.iq_gain_imbalance, rel=1e-12)


def test_fingerprint_pool_size_and_cluster():
    pool = fingerprint_pool(0, 2, count=5)
    assert len(pool) == 5
    # first four cluster around one draw; the fifth is an outside make
    cfos = np.array([fp.cfo for fp in pool])
    assert np.ptp(cfos[:4]) < abs(np.median(cfos[:4])) * 2


@pytest.mark.parametrize("seed", [0, 3, 17, 2**31 - 1])
def test_fingerprint_signs_draw_as_rng_choice_did(monkeypatch, seed):
    got = [device_fingerprint(seed, d, 1.5) for d in range(3)] + [fingerprint_pool(seed, c) for c in range(2)]
    monkeypatch.setattr(synthrf, "_draw_fingerprint", oracle.draw_fingerprint)
    want = [device_fingerprint(seed, d, 1.5) for d in range(3)] + [fingerprint_pool(seed, c) for c in range(2)]
    assert repr(got) == repr(want)  # the values and their NumPy types


def test_pa_coeffs_length_validated():
    with pytest.raises(ValueError):
        Fingerprint(pa_coeffs=(1.0, 0.0))


def test_phase_noise_std_validated():
    with pytest.raises(ValueError, match="^phase_noise_std must be >= 0$"):
        Fingerprint(phase_noise_std=-0.1)


def test_fingerprint_pool_count_validated():
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        fingerprint_pool(seed=0, class_index=0, count=0)


@pytest.mark.parametrize(
    "kw, message",
    [({"symbol_rate": 1.0, "occupied_bw": 0.5}, "symbol_rate"), ({"symbol_rate": 0.1, "occupied_bw": 0.0}, "occupied_bw")],
)
def test_protocol_rates_are_fractions_of_the_sample_rate(kw, message):
    with pytest.raises(ValueError, match=f"^{message} must be a fraction of the sample rate$"):
        synthrf.ProtocolSpec(modulation="gfsk", **kw)


def test_center_crop_refuses_a_burst_shorter_than_the_crop():
    assert synthrf.center_crop(np.arange(6), 2).tolist() == [2, 3]
    with pytest.raises(ValueError, match="^burst of length 6 cannot be cropped to 7$"):
        synthrf.center_crop(np.arange(6), 7)


# --- channel noise ---


def test_awgn_infinite_snr_is_noop():
    b = multitone()[None]
    assert add_awgn(b, math.inf) is b


def test_awgn_requires_seed_for_finite_snr():
    with pytest.raises(ValueError):
        add_awgn(multitone()[None], 20.0)


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
def test_awgn_measured_snr_within_half_db(snr_db):
    b = multitone(4096)[None]
    out = add_awgn(b, snr_db, seeds=[5])
    noise = out - b
    measured = 10 * np.log10(np.mean(np.abs(b) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(measured - snr_db) <= 0.5


# --- protocol waveforms ---


def test_burst_is_unit_power_and_deterministic():
    spec = PROTOCOLS["wifi_like"]
    (a,) = gen_protocol_bursts(spec, payload_seeds=[9])
    (b,) = gen_protocol_bursts(spec, payload_seeds=[9])
    assert np.array_equal(a, b)
    assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, rel=1e-9)


def test_burst_length_floor():
    with pytest.raises(ValueError):
        gen_protocol_bursts(PROTOCOLS["bt_like"], payload_seeds=[0], length=32)


def test_zigbee_narrower_than_wifi():
    (wifi,) = gen_protocol_bursts(PROTOCOLS["wifi_like"], payload_seeds=[1])
    (zig,) = gen_protocol_bursts(PROTOCOLS["zigbee_like"], payload_seeds=[1])
    assert measure_occupied_bandwidth(zig) < measure_occupied_bandwidth(wifi)


@pytest.mark.parametrize("family", PROTOCOL_FAMILIES)
def test_each_row_is_a_function_of_its_own_seed(family):
    seeds = [4, 11, 4, 2]
    block = gen_protocol_bursts(PROTOCOLS[family], seeds, length=200)
    assert block.shape == (4, 200) and block[0].tobytes() == block[2].tobytes()
    for row, seed in zip(block, seeds):
        assert row.tobytes() == gen_protocol_bursts(PROTOCOLS[family], [seed], length=200)[0].tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 1])
def test_each_rows_streams_are_its_spawned_children(seed):
    # Three classes of four rows: the first block starts at row 0, the second
    # in the middle of the dataset.
    per_class, given = 4, []

    def block(c, streams):
        given.append([streams(k) for k in range(3)])
        return np.zeros((per_class, synthrf.MIN_BURST_LEN), np.complex128)

    synthrf._generate(seed, ("a", "b", "c"), per_class, synthrf.MIN_BURST_LEN, block, {})
    draws = (lambda g: g.normal(size=9), lambda g: g.integers(0, 2, 9), lambda g: g.random(9))
    for c, per_stream in enumerate(given):
        for k, streams in enumerate(per_stream):
            assert len(streams) == per_class
            for j, stream in enumerate(streams):
                child = np.random.SeedSequence([seed, 1, c * per_class + j]).spawn(3)[k]
                assert stream.generate_state(4, np.uint64).tobytes() == child.generate_state(4, np.uint64).tobytes()
                ours, theirs = np.random.default_rng(stream), np.random.default_rng(child)
                for draw in draws:
                    assert draw(ours).tobytes() == draw(theirs).tobytes()
                # A stream is a seed, not a generator: it starts over each time.
                assert draws[0](np.random.default_rng(stream)).tobytes() == draws[0](np.random.default_rng(child)).tobytes()


@pytest.mark.parametrize("make", [
    lambda n: make_wiprec_dataset(bursts_per_class=n, clean=False, length=synthrf.MIN_BURST_LEN),
    lambda n: make_sei_dataset(n_devices=2, bursts_per_device=n, length=synthrf.MIN_BURST_LEN),
], ids=["wiprec", "sei"])
def test_a_dataset_builds_no_seed_sequence_per_row(monkeypatch, make):
    made = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    make(2)
    at_two = len(made)
    make(20)
    assert len(made) - at_two == at_two


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (1, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_a_row_stream_answers_only_pcg64s_request(n_words, dtype):
    words = synthrf._stream_words(7, range(1))
    stream = synthrf._Stream(words[0, 0])
    with pytest.raises(ValueError, match="PCG64"):
        stream.generate_state(n_words, dtype)
    for spelling in (np.uint64, np.dtype("<u8"), "uint64"):
        assert stream.generate_state(4, spelling).tobytes() == words[0, 0].tobytes()


@pytest.mark.parametrize("rows", [range(2**32, 2**32 + 1), range(2**32 - 1, 2**32 + 1), range(-1, 1)])
def test_the_stream_hash_refuses_row_indices_outside_one_word(rows):
    with pytest.raises(ValueError, match="row indices"):
        synthrf._stream_words(7, rows)


def test_the_last_one_word_row_index_hashes_as_numpy_does():
    child = np.random.SeedSequence([7, 1, 2**32 - 1]).spawn(3)[2]
    words = synthrf._stream_words(7, range(2**32 - 1, 2**32))
    assert words[2, 0].tobytes() == child.generate_state(4, np.uint64).tobytes()


# --- bandwidth normalization ---


def test_normalized_families_have_matching_widths():
    ds = make_wiprec_dataset(bursts_per_class=3, clean=True, bw_normalized=True, seed=4)
    widths = {}
    for name in ds.label_names:
        c = ds.label_names.index(name)
        rows = [measure_occupied_bandwidth(ds.bursts[i]) for i in np.flatnonzero(ds.labels == c)]
        widths[name] = float(np.mean(rows))
    spread = max(widths.values()) / min(widths.values())
    assert spread <= 1.10, widths


def test_normalize_bandwidth_rejects_zero_energy():
    with pytest.raises(ValueError):
        normalize_bandwidth(np.zeros(1024, dtype=complex))


# --- labeled datasets ---


def test_sei_dataset_balanced_and_deterministic():
    a = make_sei_dataset(n_devices=4, bursts_per_device=6, seed=2)
    b = make_sei_dataset(n_devices=4, bursts_per_device=6, seed=2)
    assert a.content_hash() == b.content_hash()
    counts = np.bincount(a.labels)
    assert np.all(counts == 6)
    assert len(a.train_idx) + len(a.test_idx) == len(a)


def test_sei_dataset_seed_changes_content():
    a = make_sei_dataset(n_devices=4, bursts_per_device=6, seed=2)
    b = make_sei_dataset(n_devices=4, bursts_per_device=6, seed=3)
    assert a.content_hash() != b.content_hash()


def test_sei_requires_two_devices():
    with pytest.raises(ValueError):
        make_sei_dataset(n_devices=1)


def test_sei_if_offset_moves_band_off_center():
    centered = make_sei_dataset(n_devices=2, bursts_per_device=4, seed=5)
    shifted = make_sei_dataset(n_devices=2, bursts_per_device=4, seed=5, if_offset=0.25)
    mean_c = np.mean(fft_magnitude(centered.bursts), axis=0)
    mean_s = np.mean(fft_magnitude(shifted.bursts), axis=0)
    peak_c, peak_s = np.argmax(mean_c), np.argmax(mean_s)
    length = len(mean_c)
    assert peak_c < 0.12 * length or peak_c > 0.88 * length
    assert 0.15 * length < peak_s < 0.35 * length


def test_sei_if_offset_validated():
    with pytest.raises(ValueError):
        make_sei_dataset(n_devices=2, bursts_per_device=2, if_offset=0.7)


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_sei_bit_flip_prob_validated(p):
    with pytest.raises(ValueError, match="bit_flip_prob"):
        make_sei_dataset(n_devices=2, bursts_per_device=2, bit_flip_prob=p)


def test_nearest_neighbor_oracle_gate():
    """Fingerprints at default spread must be learnable before any
    reservoir result on them can be read: 1-NN on plain FFT magnitudes
    clears chance + 30 points on a small 4-device instance."""
    ds = make_sei_dataset(n_devices=4, bursts_per_device=30, snr_db=30.0, seed=7)
    rows = fft_magnitude(ds.bursts)
    tr, te = np.asarray(ds.train_idx), np.asarray(ds.test_idx)
    d2 = ((rows[te][:, None, :] - rows[tr][None, :, :]) ** 2).sum(-1)
    pred = ds.labels[tr][np.argmin(d2, axis=1)]
    acc = float(np.mean(pred == ds.labels[te]))
    assert acc >= 0.25 + 0.30


def test_wiprec_histogram_uniform_and_named():
    ds = make_wiprec_dataset(bursts_per_class=5, clean=True, seed=1)
    assert ds.label_names == ("wifi_like", "bt_like", "zigbee_like", "nrf_like")
    assert np.all(np.bincount(ds.labels) == 5)


def test_wiprec_bursts_per_class_validated():
    with pytest.raises(ValueError):
        make_wiprec_dataset(bursts_per_class=0)


@pytest.mark.parametrize(
    "generate, table", [(make_sei_dataset, synthrf.SEI_FIELDS), (make_wiprec_dataset, synthrf.WIPREC_FIELDS)]
)
def test_generator_table_names_every_parameter(generate, table):
    assert set(table) == set(inspect.signature(generate).parameters)


@pytest.mark.parametrize(
    "generate, kw",
    [
        (make_sei_dataset, {"snr_db": math.inf}),
        (make_sei_dataset, {"n_devices": 2.0}),
        (make_sei_dataset, {"seed": np.int64(1)}),
        (make_wiprec_dataset, {"clean": 1}),
        (make_wiprec_dataset, {"length": True}),
    ],
)
def test_generators_coerce_nothing(generate, kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        generate(**kw)


def test_dataset_split_must_partition():
    bursts = np.stack([multitone(128)] * 4)
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        LabeledDataset(
            bursts=bursts,
            labels=labels,
            label_names=("a", "b"),
            train_idx=np.array([0, 1]),
            test_idx=np.array([1, 2, 3]),  # overlaps train
            meta={},
        )


def _dataset(bursts):
    return LabeledDataset(bursts=bursts, labels=[0, 1], label_names=("a", "b"), train_idx=[0], test_idx=[1])


@pytest.mark.parametrize(
    "labels, message", [([0], "^labels and bursts disagree in length$"), ([0, 2], "^labels outside label_names range$"),
                        ([-1, 0], "^labels outside label_names range$")],
)
def test_dataset_labels_are_one_class_index_per_burst(labels, message):
    with pytest.raises(ValueError, match=message):
        LabeledDataset(bursts=np.stack([multitone(8)] * 2), labels=labels, label_names=("a", "b"),
                       train_idx=[0], test_idx=[1])


def test_dataset_bursts_are_a_checked_read_only_matrix():
    samples = np.stack([multitone(64), multitone(64)])
    ds = _dataset(samples)
    assert ds.bursts.shape == (2, 64) and ds.bursts.dtype == np.complex128
    assert not ds.bursts.flags.writeable
    assert samples.flags.writeable  # the caller's array is left as it was
    with pytest.raises(ValueError, match="burst 1 has non-finite"):
        _dataset(np.stack([multitone(64), np.full(64, np.nan + 0j)]))
    with pytest.raises(ValueError, match=r"\(B, L\)"):
        _dataset(multitone(2))


@pytest.mark.parametrize("bw_normalized", [False, True])
def test_impairments_that_overflow_end_in_value_error(bw_normalized):
    with pytest.raises(ValueError, match="finite"), np.errstate(all="ignore"):
        make_wiprec_dataset(bursts_per_class=1, clean=False, bw_normalized=bw_normalized, spread=1e200, length=256)


@pytest.mark.parametrize("spread, seed, first_bad", [(1e200, 0, 0), (1e20, 2, 4)])
def test_sei_impairments_that_overflow_name_the_first_bad_burst(tmp_path, spread, seed, first_bad):
    dataset = {"n_devices": 3, "bursts_per_device": 2, "seed": seed, "spread": spread, "length": 256}
    cfg = {
        "dataset": {"kind": "sei", **dataset},
        "transforms": [{"kind": "fft_mag"}],
        "topology": {"k": 2, "n_nodes": 4, "loop_gain": 0.8, "input_gain": 1.0},
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        for generate in (oracle.make_sei_dataset, make_sei_dataset):
            with pytest.raises(ValueError, match=f"^burst {first_bad} has non-finite samples$"):
                generate(**dataset)
        # StageError("dataset") wraps the ValueError: a data error, exit 3.
        assert cli.main(["train", "--config", str(tmp_path / "config.json")]) == 3


def test_stratified_split_is_per_class():
    labels = np.array([0] * 10 + [1] * 10)
    tr, te = stratified_split(labels, seed=0)
    assert np.sum(labels[tr] == 0) == 8 and np.sum(labels[tr] == 1) == 8
    assert np.sum(labels[te] == 0) == 2 and np.sum(labels[te] == 1) == 2


def _oqpsk_halfsine_upfirdn(rng, length, spec, base_bits, bit_flip_prob):
    """The filter-bank form ``_oqpsk_halfsine`` replaced, kept as its oracle."""
    from scipy.signal import upfirdn

    sps = int(round(1.0 / spec.symbol_rate))
    pad = 2
    per_branch = -(-length // (2 * sps)) + 2 * pad + 2
    chips = 2.0 * oracle._payload_bits(rng, 2 * per_branch, base_bits, bit_flip_prob) - 1.0
    pulse = np.sin(np.pi * np.arange(2 * sps) / (2 * sps))
    i_br = upfirdn(pulse, chips[0::2], up=2 * sps)
    q_br = upfirdn(pulse, chips[1::2], up=2 * sps)
    n = min(len(i_br), len(q_br) + sps)
    sig = i_br[:n].astype(np.complex128)
    sig[sps:n] += 1j * q_br[: n - sps]
    return sig[pad * 2 * sps : pad * 2 * sps + length]


@pytest.mark.parametrize("sps", [1, 7, 40, 41, 50])
def test_oqpsk_halfsine_matches_upfirdn_oracle_bytes(sps):
    # Lengths of 1 to 200 chips, whole and partial; a fixed pattern with
    # flips as well as random bits, so both chip signs meet pulse[0] = 0.
    spec = SimpleNamespace(symbol_rate=1.0 / sps)
    base_bits = np.array([1, 0, 0, 1, 1, 1, 0])
    for chips in range(1, 201):
        length = chips * sps + chips % sps
        for seed, base, flip in ((chips, None, 0.0), (chips, base_bits, 0.3)):
            (got,) = synthrf._oqpsk_halfsine([seed], length, spec, base, flip)
            want = _oqpsk_halfsine_upfirdn(np.random.default_rng(seed), length, spec, base, flip)
            assert got.tobytes() == want.tobytes(), (sps, length, base is None)
