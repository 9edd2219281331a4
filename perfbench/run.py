"""looprc benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_wiprec --seed 3 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``train_wiprec``, ``stream_sei``,
``sweep_lambda``, ``search_baseline``.  The program under test is the
checkout's ``src/looprc``; the run fails, printing no result, without it.

A run sets up three times, each in a fresh interpreter (imports, the first
BLAS call, data generation, and for ``stream_sei`` model training plus the
container and capture round trip), and reports the median as ``setup_s``.
The first comes before the operations and is followed by one more set-up
in process, which the operations use; the other two fall a third and two
thirds of the way through the timed phase, between operations, so set-up
and operations are measured under the same host conditions.  Operations
run until ``--seconds`` would be exceeded, after at least a minimum number
of them.  Every operation's output is digested and compared with the
digests recorded from the reference commit in ``reference_digests.json``
where that file covers the seed; per-operation digests are printed, so two
commits can be compared on any seed.

Operation times are reported relative to a reference kernel shaped like
the workload's hot path (``measure.loop_kernel``, a Python loop of small
numpy calls like the reservoir's; ``measure.solve_kernel`` for the ridge
baseline), timed on the same thread right before, every 50 ms during
(``measure.ReferenceSampler``) and right after each operation.
``wall_ref`` is the median over operations of the operation's wall time,
without the samples, divided by the harmonic mean of its samples: the
number of reference kernels the core could have run in that time.  The
harmonic mean because the samples are even in time and the work done in
a stretch of time goes as the inverse of the kernel's time there.  The
host's cores change speed by nearly twofold within seconds, and the ratio
cancels that where a raw time cannot; the raw times are in the details
line.  BLAS runs on one thread, so that every operation runs on the core
its reference kernel measured.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from a traced run, where every
other operation runs traced and the rest untraced, which gives the tracing
overhead.  The line before the last holds the details: provenance,
per-operation times and digests, the tail percentile and its sample count.
Everything the run writes goes under ``.perfbench-work/`` in the checkout.
"""

import os

# Before numpy is imported, here or in a set-up's fresh interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import measure
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_looprc():
    if not os.path.isfile(os.path.join(SRC, "looprc", "__init__.py")):
        raise SystemExit(f"no looprc sources under {SRC}; run from the root of a looprc checkout")
    sys.path.insert(0, SRC)
    import looprc
    import looprc.cli

    if not os.path.abspath(looprc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported looprc from {looprc.__file__}, not from {SRC}")
    return looprc


def setup_child(args, work):
    """One fresh-interpreter set-up; with tracing, saves its layer totals."""
    looprc = import_looprc()
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(spans.looprc_hooks(looprc))
    workload.setup(looprc.cli, fresh=True)
    if tracer:
        tracer.uninstall()
        seconds, counts, _ = spans.layer_totals(tracer.spans, {0})
        with open(os.path.join(work, "setup-layers.json"), "w") as fh:
            json.dump({"seconds": seconds, "counts": counts}, fh)
    return 0


def timed_setup(args):
    """Run the set-up in a fresh interpreter; return its wall time."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return elapsed


def run_ops(workload, cli, seconds, tracer, hooks, setup_times, setup):
    """Operations until the next one would end past the deadline.

    ``setup()`` times one fresh-interpreter set-up; calls to it are
    appended to ``setup_times`` at even steps through the phase, between
    operations and outside their times, until it holds SETUP_REPEATS.
    With a tracer, even-numbered operations run traced and odd ones
    untraced.  The reference kernel is timed right before, during and
    right after each operation, outside its time; the harmonic mean of
    those samples is the operation's reference time.
    """
    durations, references, results, traced = [], [], [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    for i in range(workload.max_ops):
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - begin >= due:
            setup_times.append(setup())
        if i >= workload.min_ops and time.perf_counter() + statistics.median(durations) > deadline:
            break
        gc.collect()
        ref = measure.reference_times(workload.reference_kernel)
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.op_id = i
            tracer.install(hooks)
        with measure.ReferenceSampler(workload.reference_kernel) as sampler:
            start = sampler.clock()
            try:
                elapsed, result = workload.run_op(cli, i, sampler.clock)
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = sampler.clock() - start
                result = workloads.OpResult("", 0.0, 0, problems=[f"{type(exc).__name__}: {exc}"])
            finally:
                if on:
                    tracer.uninstall()
        ref += sampler.times + measure.reference_times(workload.reference_kernel)
        durations.append(elapsed)
        references.append(statistics.harmonic_mean(ref))
        results.append(result)
        traced.append(on)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup())
    return durations, references, results, traced


def sin_floor_ns_per_chip(np):
    """Two large-array ``np.sin`` evaluations per chip, timed here."""
    x = np.random.default_rng(0).uniform(-np.pi, np.pi, 1 << 16)
    out = np.empty_like(x)
    times = []
    for _ in range(31):
        start = time.perf_counter()
        np.sin(x, out=out)
        times.append(time.perf_counter() - start)
    return 2.0 * statistics.median(times) / x.size * 1e9


def us_per_span():
    """Cost of one traced call of an empty function, timed here."""
    tracer = spans.Tracer()
    empty = tracer.wrap(lambda: None, "trace.empty")
    n = 20000
    start = time.perf_counter()
    for _ in range(n):
        empty()
    return (time.perf_counter() - start) / n * 1e6


def layer_metrics(tracer, traced_ids, costs, traced, setup_layers, np):
    seconds, counts, by_name = spans.layer_totals(tracer.spans, set(traced_ids))
    ops = max(1, len(traced_ids))

    def per_op(value):
        return value / ops

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    floor = sin_floor_ns_per_chip(np)
    # Loops on worker threads interleave under the interpreter lock, so the
    # per-chip cost is taken over the wall time the reservoir was busy.
    loops = [s for s in tracer.spans if s.op_id in traced_ids and s.name == "reservoir.run_loop"]
    ns_per_chip = ratio(spans.busy_time(loops), c("reservoir.chips")) * 1e9
    on = [cost for cost, t in zip(costs, traced) if t]
    off = [cost for cost, t in zip(costs, traced) if not t]
    overhead = 100.0 * (statistics.median(on) / statistics.median(off) - 1.0) if on and off else 0.0
    setup_seconds, setup_counts = setup_layers["seconds"], setup_layers["counts"]
    return {
        "cli.self_s": per_op(seconds["cli"]),
        "pipeline.trials": per_op(c("pipeline.trials")),
        "pipeline.chips_per_trial": ratio(c("reservoir.chips"), c("pipeline.trials")),
        "pipeline.self_s": per_op(seconds["pipeline"]),
        "synthrf.bursts": per_op(c("synthrf.bursts")),
        "synthrf.self_s": per_op(seconds["synthrf"]),
        "synthrf.us_per_burst": ratio(seconds["synthrf"], c("synthrf.bursts")) * 1e6,
        "synthrf.setup_bursts": setup_counts.get("synthrf.bursts", 0),
        "synthrf.setup_self_s": setup_seconds["synthrf"],
        "transforms.bursts": per_op(c("transforms.bursts")),
        "transforms.self_s": per_op(seconds["transforms"]),
        "transforms.us_per_burst": ratio(seconds["transforms"], c("transforms.bursts")) * 1e6,
        "topology.datapoints": per_op(c("topology.datapoints")),
        "topology.loops_run": per_op(len(loops)),
        "topology.self_s": per_op(seconds["topology"]),
        "reservoir.calls": per_op(c("reservoir.calls")),
        "reservoir.chips": per_op(c("reservoir.chips")),
        "reservoir.self_s": per_op(seconds["reservoir"]),
        "reservoir.ns_per_chip": ns_per_chip,
        "reservoir.sin_floor_ns_per_chip": floor,
        "reservoir.floor_ratio": ratio(ns_per_chip, floor),
        "classifier.solves": per_op(c("classifier.solves")),
        "classifier.gram_n": ratio(c("classifier.gram_n"), c("classifier.solves")),
        "classifier.macs": per_op(c("classifier.macs")),
        "classifier.solve_s": per_op(by_name.get("classifier.train_ridge", 0.0)),
        "classifier.predict_s": per_op(by_name.get("classifier.evaluate", 0.0)
                                       + by_name.get("classifier.predict_indices", 0.0)),
        "ioformats.bytes_read": per_op(c("ioformats.bytes_read")),
        "ioformats.bytes_written": per_op(c("ioformats.bytes_written")),
        "ioformats.self_s": per_op(seconds["ioformats"]),
        "ioformats.setup_bytes_read": setup_counts.get("ioformats.bytes_read", 0),
        "ioformats.setup_self_s": setup_seconds["ioformats"],
        "hyperopt.trials": per_op(c("hyperopt.trials")),
        "hyperopt.failed_trials": per_op(c("hyperopt.failed_trials")),
        "hyperopt.self_s": per_op(seconds["hyperopt"]),
        "trace.overhead_pct": overhead,
        "trace.spans_per_op": per_op(sum(1 for s in tracer.spans if s.op_id in traced_ids)),
        "trace.us_per_span": us_per_span(),
    }


def layer_unit(name):
    leaf = name.rsplit(".", 1)[1]
    for suffix, unit in (("_s", "s"), ("ns_per_chip", "ns"), ("us_per_burst", "us"),
                         ("us_per_span", "us"), ("_pct", "%"),
                         ("_ratio", "ratio"), ("bytes_read", "bytes"), ("bytes_written", "bytes")):
        if leaf.endswith(suffix):
            return unit
    return "count"


def provenance(seed, repeats):
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads": None,
        "git_commit": None,
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "repeats": repeats,
        "setup_repeats": SETUP_REPEATS,
    }
    try:
        info["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    info["blas_threads"] = openblas_threads()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def openblas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest():
    """SHA-256 over the looprc sources, which names the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "looprc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def load_reference(workload, seed):
    with open(os.path.join(HERE, "reference_digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def main(argv=None):
    args = parse_args(argv)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    if args.setup_only:
        return setup_child(args, work)

    looprc = import_looprc()
    import numpy as np

    # The first set-up also writes the files the in-process set-up loads.
    setup_times = [timed_setup(args)]

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    workload.setup(looprc.cli, fresh=False)
    parent_setup_s = time.perf_counter() - start

    hooks = spans.looprc_hooks(looprc) if tracer else None
    durations, references, results, traced = run_ops(workload, looprc.cli, args.seconds, tracer, hooks,
                                                     setup_times, lambda: timed_setup(args))
    costs = [d / r for d, r in zip(durations, references)]

    failures = {}
    for i, r in enumerate(results):
        if r.problems:
            failures[i] = r.problems
    reference = load_reference(args.workload, args.seed)
    for i in measure.compare_digests([r.digest for r in results], reference):
        failures.setdefault(i, []).append(f"digest {results[i].digest} != reference {reference[i]}")
    attempted = len(results)
    if isinstance(workload, workloads.TrainWiprec):
        attempted += 1
        try:
            check = workload.thread_check(looprc.cli)
        except Exception as exc:  # counted like a failed operation
            check = workloads.OpResult("", 0.0, 0, problems=[f"{type(exc).__name__}: {exc}"])
        if check.problems or check.digest != results[0].digest:
            failures["threads"] = check.problems + [
                f"threads={workload.check_threads} digest {check.digest} != threads=1 digest {results[0].digest}"]

    latencies = [x for r in results for x in r.latencies] or durations
    tail_value, tail_pct, beyond = measure.tail(latencies)
    wall_s = statistics.median(durations)
    first = results[:workload.min_ops]
    trials = statistics.median([r.trials for r in results])
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, len(results)),
        "setup_samples_s": setup_times,
        "in_process_setup_s": parent_setup_s,
        "op_seconds": durations,
        "reference_seconds": references,
        "wall_s": wall_s,
        "bursts_per_s": statistics.median([r.bursts for r in results]) / wall_s,
        "op_digests": [r.digest for r in results],
        "reference_checked": min(len(reference), len(results)),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "tail_samples_beyond": beyond,
        "trials_per_s": trials / wall_s if trials else None,
        "accuracy": sum(r.accuracy for r in first) / len(first),
        "accuracy_ops": len(first),
        "failed_frac": len(failures) / attempted,
        "failures": {str(k): v for k, v in failures.items()},
    }
    if tracer:
        with open(os.path.join(work, "setup-layers.json")) as fh:
            setup_layers = json.load(fh)
        traced_ids = [i for i, t in enumerate(traced) if t]
        metrics = layer_metrics(tracer, traced_ids, costs, traced, setup_layers, np)
        tracer.dump(os.path.join(WORK, "results", f"spans-{args.workload}-seed{args.seed}.json"))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": statistics.median(costs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**details, "result": result}, fh, indent=2)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
