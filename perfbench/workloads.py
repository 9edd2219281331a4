"""The four benchmark workloads, driven through looprc's public entry points.

``train_wiprec``, ``sweep_lambda`` and ``search_baseline`` call
``looprc.cli.main`` exactly as a shell user would; ``stream_sei`` calls
``ModelArtifact.predict_bursts`` on one burst per request, as in library
use.  Every operation gets its own inputs: operation ``i`` of a run with
workload seed ``s`` synthesizes its dataset from seed ``s + 1000 * i``, so
repeating operations in one process cannot be sped up by reusing results
across them.  Within an operation, work is shared exactly as a user's
command would share it (the nine λ points of a sweep see one dataset).

Each operation's deterministic output is digested: the ``metrics.json``
bytes plus the model container's array payload (weights and masks), the
sweep CSV without ``train_seconds``, the winning config plus
the trial log without ``wall_time``, and the streamed labels and score
bytes.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import measure

#: The regularization grid a λ sweep covers (looprc.pipeline.LAMBDA_SWEEP).
LAMBDA_SWEEP = [float(10.0 ** e) for e in range(-6, 3)]

WIPREC_TOPOLOGY = {
    "k": 2, "n_nodes": 300, "combiner": "sum", "loop_gain": 0.9, "input_gain": 10.0,
    "nonlinearity": "sine", "filter_taps": [1.0, 0.6],
    "mask_distribution": "uniform", "mask_seed": 5,
}

SEI_EMITTERS = {
    "kind": "sei", "n_devices": 10, "snr_db": 30.0, "spread": 2.5,
    "bit_flip_prob": 0.1, "if_offset": 0.25,
}


def op_seed(seed: int, index: int) -> int:
    """Dataset seed of operation ``index`` in a run with workload seed ``seed``."""
    return seed + 1000 * index


@dataclass
class OpResult:
    digest: str
    accuracy: float
    bursts: int
    trials: int = 0
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


class Workload:
    """One operation is one ``looprc`` command on a freshly seeded dataset;
    subclasses give the command, its config, outputs and output check."""

    name = ""
    default_seed = 0
    command = ""
    min_ops = 3
    max_ops = 48
    #: The fixed computation operation times are measured against.
    reference_kernel = staticmethod(measure.loop_kernel)

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed

    def config(self, dataset_seed: int, small: bool) -> dict:
        raise NotImplementedError

    def outputs(self, out: str) -> list:
        """Output paths and the CLI flags that name them."""
        raise NotImplementedError

    def check(self, out: str, cfg: dict) -> OpResult:
        raise NotImplementedError

    def setup(self, cli, fresh: bool) -> None:
        """Warm imports, the first BLAS call and lazy set-up with a small
        command through the same entry point."""
        self._run(cli, "warmup", self.config(op_seed(self.seed, 0), small=True))

    def run_op(self, cli, index: int, time_fn) -> tuple[float, OpResult]:
        cfg = self.config(op_seed(self.seed, index), small=False)
        return self._run(cli, f"op{index}", cfg, time_fn)

    def _prepare(self, tag: str, cfg: dict):
        out = os.path.join(self.work, tag)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cfg_path = os.path.join(out, "config.json")
        _write_json(cfg_path, cfg)
        argv = [self.command, "--config", cfg_path]
        for flag, path in self.outputs(out):
            argv += [flag, path]
        return out, argv

    def _run(self, cli, tag, cfg, time_fn=time.perf_counter):
        out, argv = self._prepare(tag, cfg)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time_fn()
            rc = cli.main(argv)
            elapsed = time_fn() - start
        if rc != 0:
            return elapsed, OpResult("", 0.0, 0, problems=[f"exit code {rc}: {sink.getvalue().strip()}"])
        return elapsed, self.check(out, cfg)


class TrainWiprec(Workload):
    """``looprc train``, criterion-07 shape.

    Timed at one thread: at two threads the per-row thread pool is no
    faster today and its interpreter-lock hand-offs made run-to-run times
    swing by a quarter on a shared two-core host.  The two-thread run is
    kept as the untimed determinism check in :meth:`thread_check`.
    """

    name = "train_wiprec"
    default_seed = 3
    command = "train"
    bursts_per_class = 12
    threads = 1
    check_threads = 2

    def config(self, dataset_seed, small, threads=None):
        return {
            "dataset": {"kind": "wiprec", "bursts_per_class": 5 if small else self.bursts_per_class,
                        "clean": True, "seed": dataset_seed},
            "transforms": [{"kind": "fft_mag"}],
            "topology": dict(WIPREC_TOPOLOGY, n_nodes=20) if small else WIPREC_TOPOLOGY,
            "ridge": {"lam": 0.1},
            "seed": 1,
            "threads": threads or self.threads,
        }

    def outputs(self, out):
        return [("--out", out)]

    def check(self, out, cfg):
        raw = _read(os.path.join(out, "metrics.json"))
        doc = json.loads(raw)
        problems = []
        expected = 4 * cfg["dataset"]["bursts_per_class"]
        if doc["n_train"] + doc["n_test"] != expected:
            problems.append(f"{doc['n_train']} + {doc['n_test']} bursts, expected {expected}")
        if not 0.0 <= doc["accuracy"] <= 1.0:
            problems.append(f"accuracy {doc['accuracy']} outside [0, 1]")
        with open(os.path.join(out, "model.lrcm"), "rb") as fh:
            payload = measure.container_payload(fh.read())
        digest = measure.sha256(raw.encode(), payload)
        return OpResult(digest, doc["accuracy"], expected, 1, problems=problems)

    def thread_check(self, cli) -> OpResult:
        """Operation 0 again at two threads: its digest must not change."""
        cfg = self.config(op_seed(self.seed, 0), small=False, threads=self.check_threads)
        _, result = self._run(cli, "thread-check", cfg)
        return result


class SweepLambda(Workload):
    """``looprc sweep`` over the nine-point λ grid, criterion-09 shape.

    The sweep's only deterministic output is one test accuracy per λ
    point, so the output check sees a change of the states only if it
    flips a test burst.  Bursts a quarter of the default length buy four
    times as many for the same reservoir work: 24 test bursts, enough to
    catch a relative state perturbation of 1e-3 on every operation.
    """

    name = "sweep_lambda"
    default_seed = 3
    command = "sweep"
    bursts_per_class = 32
    burst_length = 256

    def config(self, dataset_seed, small):
        return {
            "dataset": {"kind": "wiprec", "bursts_per_class": 5 if small else self.bursts_per_class,
                        "clean": False, "snr_db": 20.0, "length": self.burst_length, "seed": dataset_seed},
            "transforms": [{"kind": "decimated_dft", "d": 4}],
            "topology": dict(WIPREC_TOPOLOGY, n_nodes=20) if small else WIPREC_TOPOLOGY,
            "ridge": {"lam": 0.1},
            "seed": 1,
            "threads": 1,
            "sweep": {"lambda": LAMBDA_SWEEP[:2] if small else LAMBDA_SWEEP},
        }

    def outputs(self, out):
        return [("--out", os.path.join(out, "sweep.csv"))]

    def check(self, out, cfg):
        raw = _read(os.path.join(out, "sweep.csv"))
        body = list(csv.DictReader(io.StringIO(raw)))
        lam = [float(r["lambda"]) for r in body]
        acc = [float(r["accuracy"]) for r in body]
        problems = []
        if lam != cfg["sweep"]["lambda"]:
            problems.append(f"lambda column {lam} != {cfg['sweep']['lambda']}")
        if not all(0.0 <= a <= 1.0 for a in acc):
            problems.append(f"accuracy outside [0, 1]: {acc}")
        bursts = len(body) * 4 * cfg["dataset"]["bursts_per_class"]
        digest = measure.sha256(measure.sweep_csv_bytes(raw))
        return OpResult(digest, max(acc), bursts, len(body), problems=problems)


class SearchBaseline(Workload):
    """``looprc hyperopt`` (GP search over λ) on the null-topology ridge baseline."""

    name = "search_baseline"
    default_seed = 11
    command = "hyperopt"
    bursts_per_device = 15
    budget = 10
    reference_kernel = staticmethod(measure.solve_kernel)

    def config(self, dataset_seed, small):
        return {
            "dataset": dict(SEI_EMITTERS, n_devices=2 if small else 10,
                            bursts_per_device=5 if small else self.bursts_per_device, seed=dataset_seed),
            "transforms": [{"kind": "fft_mag"}, {"kind": "amplitude_subburst", "length": 1024}],
            "topology": None,
            "ridge": {"lam": 1e-3},
            "seed": 1,
            "threads": 1,
            "hyperopt": {
                "method": "bayes", "budget": 5 if small else self.budget,
                "space": {"lambda": {"type": "real", "low": 1e-6, "high": 1e2, "log": True}},
            },
        }

    def outputs(self, out):
        return [("--out", os.path.join(out, "best.json")),
                ("--trial-log", os.path.join(out, "trials.jsonl"))]

    def check(self, out, cfg):
        best = _read(os.path.join(out, "best.json"))
        log = _read(os.path.join(out, "trials.jsonl"))
        records = [json.loads(line) for line in log.splitlines()]
        problems = []
        budget = cfg["hyperopt"]["budget"]
        if len(records) != budget:
            problems.append(f"{len(records)} trials, budget {budget}")
        acc = [r["accuracy"] for r in records if r["accuracy"] is not None]
        if not acc or not all(0.0 <= a <= 1.0 for a in acc):
            problems.append(f"trial accuracies {acc}")
        ds = cfg["dataset"]
        bursts = len(records) * ds["n_devices"] * ds["bursts_per_device"]
        digest = measure.sha256(best.encode(), measure.trial_log_bytes(log))
        return OpResult(digest, max(acc, default=0.0), bursts, len(records), problems=problems)


class StreamSei(Workload):
    """Closed loop, one client: ``predict_bursts`` on one burst per request.

    Set-up trains a criterion-11-shaped model (``looprc train``), writes a
    capture of the same emitters (``looprc generate``), then loads the
    model container and the capture.  An operation is a session of
    consecutive requests; the capture is streamed in a seeded order, and
    no burst is requested twice in a run.
    """

    name = "stream_sei"
    default_seed = 11
    train_bursts_per_device = 20
    capture_bursts_per_device = 250
    session = 50
    min_ops = 10

    def config(self, dataset_seed, small):
        return {
            "dataset": dict(SEI_EMITTERS, bursts_per_device=self.train_bursts_per_device, seed=dataset_seed),
            "transforms": [{"kind": "decimated_dft", "d": 4}],
            "topology": {
                "k": 4, "n_nodes": 300, "combiner": "concat", "loop_gain": 1.0, "input_gain": 0.5,
                "nonlinearity": "sine", "filter_taps": [1.0, 0.6], "noise_std": 1e-4,
                "mask_distribution": "uniform", "mask_seed": 5,
            },
            "ridge": {"lam": 1e-3},
            "seed": 1,
            "threads": 1,
        }

    def setup(self, cli, fresh):
        from looprc.ioformats import load_iq_file
        from looprc.pipeline import ModelArtifact

        model_dir = os.path.join(self.work, "model")
        capture = os.path.join(self.work, "capture.iq")
        if fresh:
            os.makedirs(self.work, exist_ok=True)
            train_cfg = os.path.join(self.work, "train.json")
            capture_cfg = os.path.join(self.work, "capture.json")
            _write_json(train_cfg, self.config(self.seed, small=False))
            _write_json(capture_cfg, {"dataset": dict(
                SEI_EMITTERS, bursts_per_device=self.capture_bursts_per_device, seed=self.seed)})
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in (["train", "--config", train_cfg, "--out", model_dir],
                             ["generate", "--config", capture_cfg, "--out", capture]):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"looprc {argv[0]} failed: {sink.getvalue().strip()}")
        self.model = ModelArtifact.load(os.path.join(model_dir, "model.lrcm"))
        self.bursts = load_iq_file(capture)
        self.order = np.random.default_rng(self.seed).permutation(len(self.bursts))
        # The last burst in the order warms up inference and is left out of
        # every session.
        self.max_ops = (len(self.bursts) - 1) // self.session
        self.model.predict_bursts([self.bursts[self.order[-1]]])

    def run_op(self, cli, index, time_fn):
        latencies, parts, correct, problems = [], [], 0, []
        names = set(self.model.model.label_map)
        start = time_fn()
        for j in self.order[index * self.session:(index + 1) * self.session]:
            burst = self.bursts[j]
            t0 = time_fn()
            labels, scores = self.model.predict_bursts([burst])
            latencies.append(time_fn() - t0)
            parts += [labels[0].encode(), scores.tobytes()]
            correct += labels[0] == burst.meta["label_name"]
            if labels[0] not in names or scores.shape != (1, len(names)) or not np.isfinite(scores).all():
                problems.append(f"burst {j}: label {labels[0]!r}, scores {scores.shape}")
        elapsed = time_fn() - start
        result = OpResult(measure.sha256(*parts), correct / self.session, self.session, 0, latencies, problems)
        return elapsed, result


WORKLOADS = {w.name: w for w in (TrainWiprec, StreamSei, SweepLambda, SearchBaseline)}
