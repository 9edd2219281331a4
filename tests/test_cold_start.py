"""Cold start: each command imports only the scipy submodules it runs.

scipy's ``signal`` and ``stats`` take about a second to import, more than
numpy and looprc together.  Each check runs in a fresh interpreter, since
this test process has imported scipy already, and lists the scipy modules
loaded once the command has finished.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from looprc.pipeline import dataset_to_iq_file, load_dataset, run_training

SRC = Path(__file__).resolve().parents[1] / "src"
GUARDED = {"scipy.signal", "scipy.stats", "scipy.special", "scipy.linalg"}


def _scipy_loaded_by(code: str, cwd: Path) -> set[str]:
    """The scipy modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter with this checkout's ``src`` first on the path."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return f"from looprc import cli\nassert cli.main({list(argv)!r}) == 0"


def _sei_config() -> dict:
    return {
        "dataset": {"kind": "sei", "n_devices": 3, "bursts_per_device": 6, "snr_db": 30.0, "seed": 4, "length": 256},
        "transforms": [{"kind": "fft_mag"}],
        "topology": {"k": 2, "n_nodes": 16, "loop_gain": 0.8, "input_gain": 1.0},
        "ridge": {"lam": 1e-3},
    }


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _scipy_loaded_by("import looprc.cli", tmp_path) == set()


def test_generate_loads_no_scipy(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _sei_config())
    assert _scipy_loaded_by(_cli("generate", "--config", cfg, "--out", str(tmp_path / "ds.iq")), tmp_path) == set()


def test_infer_loads_no_scipy(tmp_path):
    cfg = _sei_config()
    run_training(cfg, out_dir=tmp_path)
    dataset_to_iq_file(load_dataset(cfg["dataset"]), tmp_path / "ds.iq")
    argv = ("infer", "--model", str(tmp_path / "model.lrcm"), "--iq", str(tmp_path / "ds.iq"))
    assert _scipy_loaded_by(_cli(*argv, "--out", str(tmp_path / "scores.csv")), tmp_path) == set()


@pytest.mark.parametrize("kind", ["sei", "wiprec"])
def test_train_loads_scipy_linalg_only(tmp_path, kind):
    cfg = _sei_config()
    if kind == "wiprec":  # every waveform family, without bandwidth normalisation
        cfg["dataset"] = {"kind": "wiprec", "bursts_per_class": 5, "seed": 2, "length": 256}
    argv = ("train", "--config", _write(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "model"))
    assert _scipy_loaded_by(_cli(*argv), tmp_path) & GUARDED == {"scipy.linalg"}


def test_bayes_hyperopt_loads_no_scipy_stats(tmp_path):
    cfg = _sei_config()
    cfg["hyperopt"] = {
        "method": "bayes", "budget": 4, "init_points": 2,
        "space": {"lambda": {"type": "real", "low": 1e-6, "high": 1e2, "log": True}},
    }
    argv = ("hyperopt", "--config", _write(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "best.json"))
    assert _scipy_loaded_by(_cli(*argv), tmp_path) & GUARDED <= {"scipy.linalg", "scipy.special"}
