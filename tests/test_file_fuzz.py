"""Random damage to the files looprc reads from outside.

A model container or an I/Q file with its sidecar may arrive flipped,
truncated or edited by hand.  Reading one may return, or raise the
format's typed error (``ArtifactError`` for containers, ``DataFormatError``
for I/Q files), never anything else; and ``looprc infer`` on a file that
does not read exits 3.  An experiment config edited by hand makes
``looprc train`` exit with a documented code, never raise: 0, 2 or 3,
or 4 when an edited gain is so large that the loop state leaves the
finite range.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from looprc import cli
from looprc.errors import ArtifactError, DataFormatError
from looprc.ioformats import load_iq_file, read_container, write_iq_file
from looprc.pipeline import ModelArtifact, run_training
from looprc.reservoir import LOOP_FIELDS, LoopSpec
from looprc.synthrf import SAMPLE_RATE, make_sei_dataset, make_wiprec_dataset

BURST_LEN = 64
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Replacement values for a header or sidecar field: every JSON type,
#: out-of-range numbers and non-finite floats.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-3, 300), max_size=3),
    st.dictionaries(st.sampled_from(["dtype", "shape", "offset", "nbytes", "x"]), st.integers(-1, 300), max_size=2),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small trained model, a matching labeled I/Q file with enough
    bursts for a train and a test split, and a config that trains on a
    copy of that file."""
    root = tmp_path_factory.mktemp("fuzz")
    run_training(
        {
            "dataset": {"kind": "sei", "n_devices": 2, "bursts_per_device": 6, "snr_db": 30.0,
                        "seed": 1, "length": BURST_LEN},
            "transforms": [{"kind": "fft_mag"}],
            "topology": {"k": 2, "n_nodes": 4, "loop_gain": 0.8, "input_gain": 1.0},
            "seed": 2,
        },
        out_dir=root,
    )
    rng = np.random.default_rng(0)
    bursts = np.stack([rng.normal(size=BURST_LEN) + 1j * rng.normal(size=BURST_LEN) for _ in range(6)])
    write_iq_file(root / "ok.iq", bursts, SAMPLE_RATE, labels=[0, 1, 0, 1, 0, 1], label_names=["a", "b"])
    train_on_bad = {
        "dataset": {"kind": "iq_file", "path": str(root / "bad.iq")},
        "transforms": [{"kind": "fft_mag"}],
        "topology": {"k": 2, "n_nodes": 4, "loop_gain": 0.8, "input_gain": 1.0},
    }
    (root / "train_bad.json").write_text(json.dumps(train_on_bad))
    return root


def _damage(blob: bytes, flips, cut) -> bytes:
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out[: len(out) - cut % len(out)] if cut else out)


def _paths(doc, prefix=()):
    """Every key path of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _write_header(path, blob: bytes, header: dict) -> None:
    (n,) = struct.unpack_from("<Q", blob, 12)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + n :])


#: Small valid configs that train in a fraction of a second, one per
#: topology form.  Every transform that takes parameters appears, so
#: each parameter can be edited.
TRANSFORMS = [
    {"kind": "decimated_dft", "d": 2},
    {"kind": "amplitude_subburst", "offset": 4, "length": 16},
    {"kind": "kay_freq", "stride": 4},
]
LOOP = {"n_nodes": 4, "loop_gain": 0.8, "input_gain": 1.0}
CONFIGS = [
    {
        "dataset": {"kind": "sei", "n_devices": 2, "bursts_per_device": 5, "snr_db": 30.0, "seed": 1,
                    "length": BURST_LEN},
        "transforms": TRANSFORMS,
        "topology": {**LOOP, "k": 2, "nonlinearity": "sine", "filter_taps": [1.0, 0.6], "noise_std": 0.0,
                     "mask_seed": 3, "mask_distribution": "uniform", "combiner": "sum", "pad_to_multiple": False},
        "ridge": {"lam": 1e-3},
        "seed": 1,
        "threads": 1,
        "sweep": {"lambda": [1e-3, 1e-1], "seeds": [1, 2]},
        "hyperopt": {"method": "bayes", "budget": 3, "seed": 0, "init_points": 2, "levels": 1, "points_per_axis": 2,
                     "space": {"lambda": {"type": "real", "low": 1e-4, "high": 1.0, "log": True}}},
    },
    {
        "dataset": {"kind": "wiprec", "bursts_per_class": 3, "clean": False, "bw_normalized": False, "seed": 2,
                    "snr_db": 20.0, "length": BURST_LEN, "fingerprints_per_class": 1, "spread": 1.0},
        "transforms": TRANSFORMS,
        "topology": {
            "combiner": "concat",
            "layers": [[{**LOOP, "input_length": 32}, {**LOOP, "input_length": 32, "noise_std": 1e-3}],
                       [{**LOOP, "input_length": 8, "filter_taps": [1.0, 0.5], "mask_seed": 2}]],
        },
        "seed": 0,
    },
]
#: Replacement values for a config field: every JSON type, small
#: integers (a size drawn from them cannot make an example slow), names
#: the schema knows, and non-finite floats.
CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["sei", "wiprec", "iq_file", "fft_mag", "decimated_dft", "tanh", "identity", "concat", "grid"]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 8), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "d", "n_nodes", "lam", "type", "x"]), st.integers(-3, 8), max_size=2),
)


def _model_reads_or_infer_exits_three(root, bad) -> None:
    try:
        read_container(bad)
        ModelArtifact.load(bad)
    except ArtifactError:
        assert cli.main(["infer", "--model", str(bad), "--iq", str(root / "ok.iq")]) == 3


def _iq_reads_or_infer_exits_three(root) -> None:
    try:
        load_iq_file(root / "bad.iq")
    except DataFormatError:
        assert cli.main(["infer", "--model", str(root / "model.lrcm"), "--iq", str(root / "bad.iq")]) == 3


FLIPS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=4)
CUTS = st.integers(0, 2**16)


@FUZZ
@given(flips=FLIPS, cut=CUTS)
def test_damaged_container_bytes(files, flips, cut):
    bad = files / "bad.lrcm"
    bad.write_bytes(_damage((files / "model.lrcm").read_bytes(), flips, cut))
    _model_reads_or_infer_exits_three(files, bad)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_edited_container_header(files, data, value):
    # The payload checksum does not cover the header, so header edits
    # reach the manifest and model parsers.
    blob = (files / "model.lrcm").read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20 : 20 + n])
    _replace(header, data.draw(st.sampled_from(list(_paths(header)))), value)
    bad = files / "bad.lrcm"
    _write_header(bad, blob, header)
    _model_reads_or_infer_exits_three(files, bad)


@FUZZ
@given(data_flips=FLIPS, data_cut=CUTS, sidecar_flips=FLIPS, sidecar_cut=CUTS)
def test_damaged_iq_and_sidecar_bytes(files, data_flips, data_cut, sidecar_flips, sidecar_cut):
    (files / "bad.iq").write_bytes(_damage((files / "ok.iq").read_bytes(), data_flips, data_cut))
    sidecar = (files / "ok.iq.json").read_bytes()
    (files / "bad.iq.json").write_bytes(_damage(sidecar, sidecar_flips, sidecar_cut))
    _iq_reads_or_infer_exits_three(files)


@FUZZ
@given(data=st.data(), value=JSON_VALUES, drop=st.booleans())
def test_edited_sidecar_field(files, data, value, drop):
    sidecar = json.loads((files / "ok.iq.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(sidecar))))
    if drop and len(path) == 1:
        del sidecar[path[0]]
    else:
        _replace(sidecar, path, value)
    (files / "bad.iq").write_bytes((files / "ok.iq").read_bytes())
    (files / "bad.iq.json").write_text(json.dumps(sidecar))
    _iq_reads_or_infer_exits_three(files)
    # Training reads the fields inference ignores (labels, label names, split).
    assert cli.main(["train", "--config", str(files / "train_bad.json")]) in (0, 3)


@pytest.mark.parametrize("burst_length", [1, 3])
def test_sidecar_burst_length_the_file_contradicts_exits_three(files, burst_length):
    # The file holds 6 x 1024 samples and its sidecar says 6 bursts; a burst
    # length that contradicts them is a data error, though k = 2 also fails to
    # divide it: the file is checked before the config is checked against it.
    sidecar = json.loads((files / "ok.iq.json").read_text())
    sidecar["burst_length"] = burst_length
    (files / "bad.iq").write_bytes((files / "ok.iq").read_bytes())
    (files / "bad.iq.json").write_text(json.dumps(sidecar))
    assert cli.main(["train", "--config", str(files / "train_bad.json")]) == 3


@FUZZ
@given(data=st.data(), value=CONFIG_VALUES, add=st.booleans())
def test_edited_config_field(files, data, value, add):
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(CONFIGS))))
    if add:  # an unknown key in any object
        objects = [()] + [p for p in _paths(cfg) if isinstance(_get(cfg, p), dict)]
        _get(cfg, data.draw(st.sampled_from(objects)))["unknown"] = value
    else:
        _replace(cfg, data.draw(st.sampled_from(list(_paths(cfg)))), value)
    path = files / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path)]) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("sei", "length", -5), ("sei", "length", 0), ("sei", "length", 63), ("sei", "n_devices", 1),
        ("sei", "bursts_per_device", 0), ("sei", "bit_flip_prob", 5), ("sei", "bit_flip_prob", -1),
        ("sei", "spread", -1), ("sei", "if_offset", 0.7),
        ("wiprec", "length", 63), ("wiprec", "bursts_per_class", 0), ("wiprec", "fingerprints_per_class", 0),
        ("wiprec", "spread", -1),
    ],
)
def test_out_of_range_dataset_size_exits_two(tmp_path, kind, key, value):
    # fft_mag keeps the burst length and padding fits any length, so only
    # the dataset's own range can reject the value, for `generate` as for
    # `train`.
    (dataset,) = [c["dataset"] for c in CONFIGS if c["dataset"]["kind"] == kind]
    cfg = {
        **CONFIGS[0],
        "dataset": {**dataset, key: value},
        "transforms": [{"kind": "fft_mag"}],
        "topology": {**CONFIGS[0]["topology"], "pad_to_multiple": True},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "data.iq")]) == 2
    assert not (tmp_path / "data.iq").exists()
    # The generator itself checks the same range when called from Python.
    generate = {"sei": make_sei_dataset, "wiprec": make_wiprec_dataset}[kind]
    with pytest.raises(ValueError, match=key):
        generate(**{name: v for name, v in cfg["dataset"].items() if name != "kind"})


#: One out-of-range or wrongly typed value per LoopSpec field.
BAD_LOOP_VALUES = {
    "n_nodes": 0,
    "mask_seed": 1.5,
    "loop_gain": True,
    "input_gain": None,
    "noise_std": -0.1,
    "nonlinearity": "relu",
    "filter_taps": [1.0],
    "mask_distribution": "gaussian",
}


def test_bad_loop_values_cover_every_loop_field():
    assert set(BAD_LOOP_VALUES) == set(LOOP_FIELDS)


@pytest.mark.parametrize("key, value", sorted(BAD_LOOP_VALUES.items()))
def test_out_of_range_loop_field_exits_two(tmp_path, key, value):
    with pytest.raises(ValueError, match=key):
        LoopSpec(**{**LOOP, key: value})
    cfg = {**CONFIGS[0], "topology": {**CONFIGS[0]["topology"], key: value}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path)]) == 2
