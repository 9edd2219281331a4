"""Acceptance suite: thirteen numbered checks covering the whole package.

Checks 1-6 are hard property suites (independent oracles, tight
tolerances).  Checks 7-12 are directional desk-scale reproductions on
synthetic radio data with pinned seeds; they assert orderings and
margins, not exact accuracies.  Check 13 pins the figure-of-merit
constants.  Every test prints one verdict line straight to the terminal
(bypassing capture) so a full run reads as a 13-line scoreboard.
"""

import logging
import os
import time

import numpy as np
import pytest

from looprc.classifier import (
    DesignMatrix,
    evaluate,
    train_ridge,
    trainable_params,
    training_macs,
)
from looprc.pipeline import (
    LAMBDA_SWEEP,
    build_topology,
    compute_states,
    report_fom,
    transform_rows,
    _profile_for,
)
from looprc.reservoir import LoopSpec, generate_mask, mask_for, run_loop
from looprc.synthrf import make_sei_dataset, make_wiprec_dataset
from looprc.topology import LoopBank, TopologySpec, run_topology
from looprc.transforms import (
    TransformSpec,
    decimated_dft,
    fft_magnitude,
    kay_freq_estimate,
)

THREADS = min(4, os.cpu_count() or 1)
FFT = [TransformSpec(kind="fft_mag")]
DIFF = [TransformSpec(kind="diff_fft")]
AMP = [TransformSpec(kind="amplitude_subburst", params={"length": 256})]


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _loop_cfg(k, n_nodes, loop_gain, input_gain, combiner="sum", **over):
    cfg = dict(
        k=k,
        n_nodes=n_nodes,
        combiner=combiner,
        loop_gain=loop_gain,
        input_gain=input_gain,
        filter_taps=[1.0, 0.6],
        mask_distribution="uniform",
        mask_seed=5,
    )
    cfg.update(over)
    return cfg


def _fit(states, ds, lam):
    """Train on the dataset's own split, return test accuracy."""
    tr_idx, te_idx = np.asarray(ds.train_idx), np.asarray(ds.test_idx)
    labels = np.asarray(ds.labels)
    c = len(ds.label_names)
    tr = DesignMatrix(rows=states[tr_idx], labels=labels[tr_idx], class_count=c)
    te = DesignMatrix(rows=states[te_idx], labels=labels[te_idx], class_count=c)
    return evaluate(train_ridge(tr, lam=lam, label_map=list(ds.label_names)), te).accuracy


def _states(rows, topo_cfg, run_seed=0):
    topo = build_topology(topo_cfg, rows.shape[1])
    return compute_states(rows, topo, run_seed=run_seed, threads=THREADS)


# --- 1. linear-loop equivalence against an unrolled linear system ---


def _dense_linear_oracle(dp, spec, mask):
    """Identity-nonlinearity loop as one explicit (I - L) x = b solve."""
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


def test_criterion_01_linear_loop_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    h1_choices = (0.0, 0.25, -0.4)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 9))
        l = int(rng.integers(1, 7))
        h1 = h1_choices[i % 3] if n > 1 else 0.0
        spec = LoopSpec(
            n_nodes=n,
            loop_gain=float(rng.uniform(-1.2, 1.2)),
            input_gain=float(rng.uniform(-2.0, 2.0)),
            nonlinearity="identity",
            filter_taps=(1.0, h1),
            mask_seed=i,
        )
        mask = generate_mask(n, i, "uniform" if i % 2 else "binary")
        dp = rng.normal(size=l)
        got = run_loop([dp], spec, [mask.values])[0]
        worst = max(worst, float(np.max(np.abs(got - _dense_linear_oracle(dp, spec, mask)))))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"identity loop vs dense linear system: 1000 cases, "
             f"max err {worst:.2e} (<=1e-9), {elapsed:.1f}s (<10s)")
    assert ok


# --- 2. ridge closed form vs iterative oracle ---


def _gd_ridge_oracle(x, y, lam, tol=1e-13, max_iter=200_000):
    smax = np.linalg.norm(x, 2)
    step = 1.0 / (smax * smax + lam)
    w = np.zeros((x.shape[1], y.shape[1]))
    for _ in range(max_iter):
        grad = x.T @ (x @ w - y) + lam * w
        w_next = w - step * grad
        if np.max(np.abs(w_next - w)) < tol:
            return w_next
        w = w_next
    return w


def test_criterion_02_ridge_closed_form_vs_iterative(capsys):
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for i in range(50):
        lam = (1e-2, 1e-1, 1.0)[i % 3]
        rows = rng.normal(size=(50, 20))
        labels = rng.integers(0, 4, size=50)
        labels[:4] = np.arange(4)
        data = DesignMatrix(rows=rows, labels=labels, class_count=4)
        model = train_ridge(data, lam=lam)
        oracle = _gd_ridge_oracle(data.rows, data.one_hot(), lam)
        worst = max(worst, float(np.max(np.abs(model.weights - oracle))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"closed-form ridge vs gradient descent: 50 instances, "
             f"max err {worst:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")
    assert ok


# --- 3. decimated DFT identities ---


def test_criterion_03_decimated_dft_identities(capsys):
    rng = np.random.default_rng(3)
    worst_d1 = 0.0
    for length in (8, 64, 1024):
        b = rng.normal(size=length) + 1j * rng.normal(size=length)
        worst_d1 = max(worst_d1, float(np.max(np.abs(decimated_dft(b, 1) - fft_magnitude(b)))))
    length = 64
    dmat = np.exp(-2j * np.pi * np.outer(np.arange(length), np.arange(length)) / length) / length
    worst_mat = 0.0
    for d in (1, 2, 4, 8, 16):
        b = rng.normal(size=length) + 1j * rng.normal(size=length)
        oracle = np.abs(b @ dmat[:, ::d])
        worst_mat = max(worst_mat, float(np.max(np.abs(decimated_dft(b, d) - oracle))))
    ok = worst_d1 <= 1e-9 and worst_mat <= 1e-9
    _verdict(capsys, 3, ok,
             f"d=1 vs plain FFT magnitude err {worst_d1:.2e}, "
             f"dense-matrix oracle err {worst_mat:.2e} (both <=1e-9)")
    assert ok


# --- 4. frequency-estimator exactness ---


def test_criterion_04_kay_estimator_exact_on_tones(capsys):
    rng = np.random.default_rng(9)
    n = 64
    worst = 0.0
    for _ in range(100):
        f = rng.uniform(-0.45, 0.45)
        phi = rng.uniform(0, 2 * np.pi)
        tone = np.exp(1j * (2 * np.pi * f * np.arange(n) + phi))
        est = kay_freq_estimate(tone, stride=4)
        worst = max(worst, float(np.max(np.abs(est - f))))
    ok = worst <= 1e-10
    _verdict(capsys, 4, ok,
             f"noiseless tones, 100 random frequencies: max |f_hat - f| {worst:.2e} (<=1e-10)")
    assert ok


# --- 5. degeneracy and determinism identities ---


def test_criterion_05_degeneracies(capsys):
    rng = np.random.default_rng(2)
    dp = rng.normal(size=12)
    spec = LoopSpec(n_nodes=8, loop_gain=0.9, input_gain=1.1, mask_seed=3)
    direct = run_loop([dp], spec, [mask_for(spec).values])[0]
    bank = LoopBank(loops=(spec,), input_lengths=(12,))
    k1_ok = all(
        np.array_equal(
            run_topology([dp], TopologySpec(layers=(bank,), combiner=c))[0],
            direct,
        )
        for c in ("sum", "concat")
    )
    normed = run_topology([dp], TopologySpec(layers=(bank,), combiner="normalized_product"))[0]
    k1_ok = k1_ok and np.allclose(
        normed, direct / np.linalg.norm(direct), rtol=1e-12
    )

    flat = LoopSpec(n_nodes=8, loop_gain=0.0, input_gain=0.7, mask_seed=3)
    m = mask_for(flat)
    collapse_ok = np.allclose(
        run_loop([dp], flat, [m.values])[0], np.sin(0.7 * m.values * dp[-1]), atol=0.0
    )

    zero_ok = not np.any(run_loop([np.zeros(10)], spec, [mask_for(spec).values]))

    rows = rng.normal(size=(12, 24))
    cfg = _loop_cfg(3, 7, 0.8, 1.0)
    det_ok = np.array_equal(_states(rows, cfg), _states(rows, cfg))
    topo = build_topology(cfg, 24)
    det_ok = det_ok and np.array_equal(
        compute_states(rows, topo, threads=1),
        compute_states(rows, topo, threads=2),
    )

    ok = k1_ok and collapse_ok and zero_ok and det_ok
    _verdict(capsys, 5, ok,
             f"k=1 bit-identity {k1_ok}, zero-feedback collapse {collapse_ok}, "
             f"zero input -> zero state {zero_ok}, thread-count determinism {det_ok}")
    assert ok


# --- 6. split-loop training-cost ratio ---


def test_criterion_06_split_loop_mac_ratio(capsys):
    b, c = 640, 4
    worst = np.inf
    for n in (256, 512, 1024):
        for k in (2, 4, 8):
            ratio = training_macs(b, n, c) / training_macs(b, n // k, c)
            worst = min(worst, ratio / (0.8 * k * k))
    ok = worst >= 1.0
    _verdict(capsys, 6, ok,
             f"training-MAC ratio >= 0.8 k^2 for N in 256..1024, k in 2/4/8 "
             f"(worst margin x{worst:.2f})")
    assert ok


# --- shared fixtures for the desk-scale checks ---


@pytest.fixture(scope="module")
def wiprec_pair():
    """Noisy protocol-recognition task and its bandwidth-normalized twin,
    with reservoir states and raw rows for both."""
    cfg = _loop_cfg(2, 300, 0.9, 10.0)
    out = {}
    for key, normalized in (("plain", False), ("norm", True)):
        ds = make_wiprec_dataset(
            bursts_per_class=200, clean=False, bw_normalized=normalized,
            seed=3, snr_db=20.0,
        )
        rows = transform_rows(ds.bursts, FFT)
        out[key] = (ds, rows, _states(rows, cfg))
    return out


def test_criterion_07_protocol_recognition_clean(capsys):
    t0 = time.time()
    ds = make_wiprec_dataset(bursts_per_class=200, clean=True, seed=3)
    rows = transform_rows(ds.bursts, FFT)
    acc = _fit(_states(rows, _loop_cfg(2, 300, 0.9, 10.0)), ds, lam=0.1)
    elapsed = time.time() - t0
    ok = acc >= 0.97 and elapsed < 300.0
    _verdict(capsys, 7, ok,
             f"clean 4-protocol task, FFT k=2 N=300: acc {acc:.4f} (>=0.97), "
             f"{elapsed:.0f}s (<300s)")
    assert ok


def test_criterion_08_bandwidth_removal_ablation(capsys, wiprec_pair):
    ds_p, rows_p, states_p = wiprec_pair["plain"]
    ds_n, rows_n, states_n = wiprec_pair["norm"]
    lam = 0.1
    dlr_drop = _fit(states_p, ds_p, lam) - _fit(states_n, ds_n, lam)
    raw_drop = _fit(rows_p, ds_p, lam) - _fit(rows_n, ds_n, lam)
    ok = dlr_drop <= 0.05 + 1e-9 and raw_drop > dlr_drop
    _verdict(capsys, 8, ok,
             f"bandwidth cue removed: loop drop {100 * dlr_drop:.1f}pt (<=5), "
             f"raw-ridge drop {100 * raw_drop:.1f}pt (strictly larger)")
    assert ok


def test_criterion_09_lambda_stability(capsys, wiprec_pair):
    ds, rows, states = wiprec_pair["plain"]
    dlr = [_fit(states, ds, lam) for lam in LAMBDA_SWEEP]
    raw = [_fit(rows, ds, lam) for lam in LAMBDA_SWEEP]
    dlr_spread = max(dlr) - min(dlr)
    raw_spread = max(raw) - min(raw)
    ok = dlr_spread <= raw_spread
    _verdict(capsys, 9, ok,
             f"accuracy spread over lambda 1e-6..1e2: loop {100 * dlr_spread:.1f}pt "
             f"<= raw ridge {100 * raw_spread:.1f}pt")
    assert ok


@pytest.fixture(scope="module")
def sei_split_task():
    return make_sei_dataset(
        n_devices=10, bursts_per_device=60, snr_db=30.0, seed=11,
        spread=2.5, bit_flip_prob=0.1, if_offset=0.25,
    )


def test_criterion_10_split_loop_benefit(capsys, sei_split_task):
    ds = sei_split_task
    rows_fft = transform_rows(ds.bursts, FFT)
    # Memory-limited regime: the occupied band sits mid-row, so a single
    # loop whose state has faded by readout time must lose to 8 splits
    # that each see their slice late.
    acc_k1 = _fit(_states(rows_fft, _loop_cfg(1, 600, 0.6, 0.5)), ds, lam=1e-3)
    acc_k8 = _fit(_states(rows_fft, _loop_cfg(8, 600, 0.6, 0.5)), ds, lam=1e-3)
    fft_ok = acc_k8 >= acc_k1

    rows_amp = transform_rows(ds.bursts, AMP)
    amp_k4 = _fit(_states(rows_amp, _loop_cfg(4, 600, 0.6, 0.5)), ds, lam=1e-3)
    amp_k8 = _fit(_states(rows_amp, _loop_cfg(8, 600, 0.6, 0.5)), ds, lam=1e-3)
    amp_ok = amp_k8 <= amp_k4 + 0.01 + 1e-9
    if not amp_ok:
        logging.getLogger("looprc.acceptance").warning(
            "amplitude-input clause failed: k=8 %.4f > k=4 %.4f + 1pt "
            "(depends on the synthetic fingerprint model; reported, not fatal)",
            amp_k8, amp_k4,
        )
    _verdict(capsys, 10, fft_ok,
             f"FFT inputs: k=8 {acc_k8:.4f} >= k=1 {acc_k1:.4f}; "
             f"amplitude inputs: k=8 {amp_k8:.4f} vs k=4 {amp_k4:.4f} "
             f"({'ok' if amp_ok else 'warned'})")
    assert fft_ok


def test_criterion_11_decimation_vs_splitting(capsys):
    ds = make_sei_dataset(
        n_devices=10, bursts_per_device=100, snr_db=30.0, seed=11,
        spread=2.5, bit_flip_prob=0.1, if_offset=0.25,
    )
    rows_d8 = transform_rows(
        ds.bursts, [TransformSpec(kind="decimated_dft", params={"d": 8})]
    )
    rows_d4 = transform_rows(
        ds.bursts, [TransformSpec(kind="decimated_dft", params={"d": 4})]
    )
    # equal joint readout: 2*600 = 4*300 = 1200 concatenated nodes
    acc_d8k2 = _fit(
        _states(rows_d8, _loop_cfg(2, 600, 1.0, 0.5, combiner="concat")), ds, lam=1e-3
    )
    acc_d4k4 = _fit(
        _states(rows_d4, _loop_cfg(4, 300, 1.0, 0.5, combiner="concat")), ds, lam=1e-3
    )
    gap = abs(acc_d8k2 - acc_d4k4)
    ok = gap <= 0.02 + 1e-9
    _verdict(capsys, 11, ok,
             f"equal 1200-node readout: d=8,k=2 {acc_d8k2:.4f} vs d=4,k=4 "
             f"{acc_d4k4:.4f}, gap {100 * gap:.1f}pt (<=2)")
    assert ok


def test_criterion_12_loop_noise_robustness(capsys):
    ds = make_sei_dataset(
        n_devices=8, bursts_per_device=60, snr_db=30.0, seed=13,
        spread=0.5, bit_flip_prob=0.0,
    )
    rows_plain = transform_rows(ds.bursts, FFT)
    profile = _profile_for(DIFF, ds.bursts[ds.train_idx])
    rows_diff = transform_rows(ds.bursts, DIFF, profile=profile)
    nu_plain = 2.0
    # matched drive scale: the differential rows are residuals, far
    # smaller than the raw magnitudes they came from
    nu_diff = nu_plain * float(rows_plain.std()) / float(rows_diff.std())
    sigma = 0.005

    clean = _fit(_states(rows_plain, _loop_cfg(2, 300, 0.9, nu_plain)), ds, lam=1e-3)
    noisy_plain = _fit(
        _states(rows_plain, _loop_cfg(2, 300, 0.9, nu_plain, noise_std=sigma), run_seed=1),
        ds, lam=1e-3,
    )
    noisy_diff = _fit(
        _states(rows_diff, _loop_cfg(2, 300, 0.9, nu_diff, noise_std=sigma), run_seed=1),
        ds, lam=1e-3,
    )
    drop = clean - noisy_plain
    recovered = noisy_diff - noisy_plain
    ok = drop >= 0.10 and recovered >= drop / 2
    _verdict(capsys, 12, ok,
             f"in-loop noise sigma={sigma}: plain FFT {clean:.4f} -> {noisy_plain:.4f} "
             f"(drop {100 * drop:.1f}pt, >=10), differential FFT {noisy_diff:.4f} "
             f"recovers {100 * recovered:.1f}pt (>= half the drop)")
    assert ok


def test_criterion_13_figure_of_merit_constants(capsys):
    params = trainable_params(600, 20)
    doc = {
        "state_length": 600,
        "label_names": [f"device_{i:02d}" for i in range(20)],
        "trainable_params": params,
        "training_macs": training_macs(960, 600, 20),
        "accuracy": 0.0,
    }
    text = report_fom(doc)
    ok = (
        params == 12000
        and str(params) in text
        and "20x" in text
        and "100x" in text
        and ">= 1200x" in text
    )
    _verdict(capsys, 13, ok,
             f"N=600, 20 classes: trainable params {params} (= 12000 exactly); "
             f"report cites 20x / 100x / >= 1200x reference ratios")
    assert ok
