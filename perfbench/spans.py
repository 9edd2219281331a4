"""Span tracing of looprc from outside the package.

The traced run replaces public functions at each module boundary with
wrappers that record a span (name, start, end, parent, operation id) and
work counts taken from the call's arguments or result.  Nothing under
``src/`` is edited: a function imported by name into another module is
patched in every ``looprc`` module namespace that holds it, and methods are
patched on their class.  ``uninstall`` restores the originals, so untraced
operations run the pristine code.

Spans stay in memory while the run lasts and are written out at its end.
"""

import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "pipeline", "synthrf", "transforms", "topology", "reservoir",
          "classifier", "ioformats", "hyperopt")


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    parent: int | None
    op_id: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    Children that ran in parallel (worker threads) may overlap; the part
    of the parent's interval that any child covers is counted once.
    Returns ``{span_id: seconds}``.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.span_id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.span_id] = (s.end - s.start) - covered
    return out


def busy_time(spans):
    """Wall time during which at least one of the spans was open."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted((s.start, s.end) for s in spans):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Records spans for the operation currently marked by ``op_id``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``count(args, kwargs, result)`` returns the span's work counts. A
        span opened on a worker thread with no open span of its own takes
        the main thread's innermost open span as its parent, which is the
        span that handed the work out.
        """
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            with tracer._lock:
                span = Span(tracer._next_id, name, layer, parent, tracer.op_id, 0.0)
                tracer._next_id += 1
            stack.append(span.span_id)
            done = False
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if count is not None and done:
                    span.counts = count(args, kwargs, result)
                with tracer._lock:
                    tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks):
        """Patch every hook: ``(owner, attribute, span name, count)``.

        A module-level function is replaced in every loaded ``looprc``
        module that refers to it; a method is replaced on its class.
        """
        modules = [m for n, m in sys.modules.items() if n == "looprc" or n.startswith("looprc.")]
        for owner, attr, name, count in hooks:
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                self._patch(owner, attr, self.wrap(original, name, count))
                continue
            wrapped = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_totals(spans, op_ids):
    """Per-layer self seconds and summed counts over the given operations."""
    keep = [s for s in spans if s.op_id in op_ids]
    selfs = self_times(keep)
    seconds = {layer: 0.0 for layer in LAYERS}
    counts = {}
    by_name = {}
    for s in keep:
        seconds[s.layer] += selfs[s.span_id]
        by_name[s.name] = by_name.get(s.name, 0.0) + selfs[s.span_id]
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    return seconds, counts, by_name


def looprc_hooks(looprc):
    """The public functions of each looprc module, with their work counts."""
    cli, pipeline, synthrf = looprc.cli, looprc.pipeline, looprc.synthrf
    transforms, topology, reservoir = looprc.transforms, looprc.topology, looprc.reservoir
    classifier, ioformats, hyperopt = looprc.classifier, looprc.ioformats, looprc.hyperopt

    def size(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    def iq_bytes(path):
        return size(path) + size(str(path) + ".json")

    def chips(args, kwargs, result):
        return {"reservoir.chips": len(args[0]) * args[1].n_nodes, "reservoir.calls": 1}

    def ridge(args, kwargs, result):
        data = args[0] if args else kwargs["data"]
        return {
            "classifier.solves": 1,
            "classifier.gram_n": data.n_features,
            "classifier.macs": classifier.training_macs(data.n_rows, data.n_features, data.class_count),
        }

    def searched(args, kwargs, result):
        log = result[1]
        return {"hyperopt.trials": len(log), "hyperopt.failed_trials": sum(r.failed for r in log)}

    def one(key):
        return lambda args, kwargs, result: {key: 1}

    # One burst is one row, whatever the number of transforms applied to it.
    def rows(key):
        return lambda args, kwargs, result: {key: len(args[0])}

    def bursts(key):
        return lambda args, kwargs, result: {key: len(result.bursts)}

    # load_iq_file reads its sidecar through read_iq_sidecar, which
    # counts the sidecar's bytes in its own span.
    def read_file(args, kwargs, result):
        return {"ioformats.bytes_read": size(args[0])}

    def read_sidecar(args, kwargs, result):
        return {"ioformats.bytes_read": size(str(args[0]) + ".json")}

    def wrote_iq(args, kwargs, result):
        return {"ioformats.bytes_written": iq_bytes(args[0])}

    def wrote_file(args, kwargs, result):
        return {"ioformats.bytes_written": size(args[0])}

    hooks = [
        (cli, "main", "cli.main", None),
        (pipeline, "run_training", "pipeline.run_training", one("pipeline.trials")),
        (pipeline, "run_sweep", "pipeline.run_sweep", None),
        (pipeline, "run_hyperopt", "pipeline.run_hyperopt", None),
        (pipeline, "run_inference", "pipeline.run_inference", None),
        (pipeline, "validate_config", "pipeline.validate_config", None),
        (pipeline, "build_topology", "pipeline.build_topology", None),
        (pipeline, "apply_hyperparams", "pipeline.apply_hyperparams", None),
        (pipeline, "build_search_space", "pipeline.build_search_space", None),
        (pipeline, "load_dataset", "pipeline.load_dataset", None),
        (pipeline, "dataset_to_iq_file", "pipeline.dataset_to_iq_file", None),
        (pipeline, "dataset_from_iq_file", "pipeline.dataset_from_iq_file", None),
        (pipeline, "transform_rows", "pipeline.transform_rows", rows("transforms.bursts")),
        (pipeline, "compute_states", "pipeline.compute_states", None),
        (pipeline.ModelArtifact, "save", "pipeline.ModelArtifact.save", None),
        (pipeline.ModelArtifact, "states_for", "pipeline.ModelArtifact.states_for", None),
        (pipeline.ModelArtifact, "predict_bursts", "pipeline.ModelArtifact.predict_bursts", None),
        (synthrf, "make_sei_dataset", "synthrf.make_sei_dataset", bursts("synthrf.bursts")),
        (synthrf, "make_wiprec_dataset", "synthrf.make_wiprec_dataset", bursts("synthrf.bursts")),
        (synthrf, "stratified_split", "synthrf.stratified_split", None),
        (transforms.TransformSpec, "apply", "transforms.TransformSpec.apply", None),
        (transforms, "compute_mean_amplitude", "transforms.compute_mean_amplitude", None),
        (topology, "run_topology", "topology.run_topology", one("topology.datapoints")),
        (reservoir, "run_loop", "reservoir.run_loop", chips),
        (classifier, "train_ridge", "classifier.train_ridge", ridge),
        (classifier, "evaluate", "classifier.evaluate", None),
        (classifier, "predict_indices", "classifier.predict_indices", None),
        (ioformats, "load_iq_file", "ioformats.load_iq_file", read_file),
        (ioformats, "read_iq_sidecar", "ioformats.read_iq_sidecar", read_sidecar),
        (ioformats, "read_container", "ioformats.read_container", read_file),
        (ioformats, "write_iq_file", "ioformats.write_iq_file", wrote_iq),
        (ioformats, "write_container", "ioformats.write_container", wrote_file),
        (hyperopt, "bayes_opt", "hyperopt.bayes_opt", searched),
        (hyperopt, "grid_search", "hyperopt.grid_search", searched),
        (hyperopt, "write_trial_log", "hyperopt.write_trial_log", None),
    ]
    return hooks

