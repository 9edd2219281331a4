"""Composition of delay loops into split banks and layered trees.

A bank holds k parallel loops, each assigned one contiguous slice of the
incoming datapoint.  Banks stack into layers: the state vectors of layer r
are concatenated and re-sliced to feed layer r+1.  The final layer's k
state vectors merge into the joint state vector through one of three
combiners:

- ``sum``: elementwise sum (requires equal loop sizes),
- ``normalized_product``: elementwise product, L2-normalized (a scalar
  product of k vectors taken elementwise so the output keeps length N_j),
- ``concat``: concatenation (preserves all split information at the cost
  of a k-fold larger classifier input).

Loops are never trained; everything here is a fixed function of the
topology description, whose banks hold their loops' masks.
"""

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .reservoir import LoopSpec, Mask, mask_for, run_loop

COMBINERS = ("sum", "normalized_product", "concat")


def combine(states: Sequence[np.ndarray], mode: str) -> np.ndarray:
    """Merge k batches of state vectors into the joint state vectors.

    Each entry of ``states`` is a (B, N_j) array holding one loop's states
    for B datapoints.  ``sum`` and ``normalized_product`` require equal
    N_j and keep it; ``concat`` yields (B, sum of N_j).  A zero product
    vector stays zero under normalization (documented, not an error).
    """
    if mode not in COMBINERS:
        raise ValueError(f"unknown combiner {mode!r}")
    values = [np.asarray(s, dtype=np.float64) for s in states]
    if len(values) == 0:
        raise ValueError("need at least one state vector")
    if any(v.ndim != 2 or len(v) != len(values[0]) for v in values):
        raise ValueError("states must be (B, N_j) arrays over the same B datapoints")
    if mode == "concat":
        return np.concatenate(values, axis=1)
    widths = {v.shape[1] for v in values}
    if len(widths) != 1:
        raise ValueError(f"{mode} requires equal state lengths, got {sorted(widths)}")
    if mode == "sum":
        return np.sum(values, axis=0)
    out = values[0].copy()
    for v in values[1:]:
        out *= v
    # One norm per row, computed as for a lone vector: the axis=1 reduction
    # sums in another order and can differ in the last bit.
    norm = np.array([np.linalg.norm(row) for row in out])
    nonzero = norm > 0
    out[nonzero] /= norm[nonzero, None]
    return out


@dataclass(frozen=True)
class LoopBank:
    """k parallel loops, the slice of the input each one processes, and
    each loop's mask.

    ``slices`` are (start, stop) bounds, 0-based half-open, that must be
    ordered, non-overlapping, and cover [0, input_length) exactly.  Loop
    sizes may be heterogeneous (mixed-transform routing relies on that).
    Without ``masks``, each loop's mask is generated from its seed; given
    masks (a stored model's) must hold one mask of ``n_nodes`` values per
    loop.
    """

    loops: tuple[LoopSpec, ...]
    slices: tuple[tuple[int, int], ...]
    masks: Optional[tuple[Mask, ...]] = None
    #: Derived, not compared: the loop indices in maximal runs of
    #: consecutive loops that differ at most in mask seed and read slices
    #: of one length, each with its loops' masks stacked; one run_loop call
    #: clocks a run.  Only consecutive loops are fused, so a datapoint
    #: still meets its failing loops in loop order.
    runs: tuple[tuple[tuple[int, ...], np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loops = tuple(self.loops)
        slices = tuple((int(a), int(b)) for a, b in self.slices)
        if len(loops) == 0:
            raise ValueError("bank must hold at least one loop")
        if len(loops) != len(slices):
            raise ValueError("one slice per loop required")
        pos = 0
        for start, stop in slices:
            if start != pos or stop <= start:
                raise ValueError(f"slices must be contiguous and cover the input; bad ({start}, {stop})")
            pos = stop
        masks = tuple(map(mask_for, loops)) if self.masks is None else tuple(self.masks)
        if len(masks) != len(loops):
            raise ValueError(f"{len(masks)} masks for {len(loops)} loops")
        for i, (spec, mask) in enumerate(zip(loops, masks)):
            if len(mask) != spec.n_nodes:
                raise ValueError(f"loop {i} has {spec.n_nodes} nodes but a mask of {len(mask)} values")
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "masks", masks)

        def key(i: int):
            start, stop = slices[i]
            return replace(loops[i], mask_seed=0), stop - start

        runs = []
        for _, run in groupby(range(len(loops)), key=key):
            run = tuple(run)
            stacked = np.stack([masks[i].values for i in run])
            stacked.setflags(write=False)
            runs.append((run, stacked))
        object.__setattr__(self, "runs", tuple(runs))

    @property
    def k(self) -> int:
        return len(self.loops)

    @property
    def input_length(self) -> int:
        return self.slices[-1][1]

    @property
    def output_lengths(self) -> tuple[int, ...]:
        return tuple(spec.n_nodes for spec in self.loops)


@dataclass(frozen=True)
class TopologySpec:
    """Layered loop banks plus the final combiner.

    Between layers, the upstream state vectors are concatenated and
    re-sliced per the next bank's bounds, so trees compose with the same
    semantics as the first layer.
    """

    layers: tuple[LoopBank, ...]
    combiner: str = "sum"

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) == 0:
            raise ValueError("topology needs at least one layer")
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.combiner in ("sum", "normalized_product"):
            sizes = set(layers[-1].output_lengths)
            if len(sizes) != 1:
                raise ValueError(f"{self.combiner} requires equal loop sizes in the final layer")
        for upstream, downstream in zip(layers, layers[1:]):
            produced = sum(upstream.output_lengths)
            if downstream.input_length != produced:
                raise ValueError(
                    f"layer expects input of length {downstream.input_length}, "
                    f"upstream produces {produced}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_length(self) -> int:
        return self.layers[0].input_length

    @property
    def output_length(self) -> int:
        final = self.layers[-1]
        if self.combiner == "concat":
            return sum(final.output_lengths)
        return final.output_lengths[0]

    def masks(self) -> list[list[Mask]]:
        """Per-layer, per-loop masks."""
        return [list(bank.masks) for bank in self.layers]


def _loop_noise_seed(base: int, layer: int, index: int) -> int:
    seq = np.random.SeedSequence([int(base), layer, index])
    return int(seq.generate_state(1)[0])


def run_topology(
    rows: np.ndarray,
    topo: TopologySpec,
    noise_seeds: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Run a (B, L) batch of datapoints through every layer and combine.

    Returns the (B, ``topo.output_length``) joint states.  The loops of a
    bank share no state (they are parallel in the hardware picture), so
    each run of equal loops is stacked into one ``run_loop`` call of
    k·B rows.  ``noise_seeds`` holds one seed per datapoint, from which a
    distinct child seed per (datapoint, layer, loop) is derived, so a
    noisy topology is reproducible end to end.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != topo.input_length:
        raise ValueError(f"rows must be a (B, {topo.input_length}) matrix, got shape {x.shape}")
    if noise_seeds is not None and len(noise_seeds) != len(x):
        raise ValueError(f"{len(noise_seeds)} noise seeds for {len(x)} datapoints")

    current = x
    for li, bank in enumerate(topo.layers):
        states = [None] * bank.k
        for run, run_masks in bank.runs:
            spec, width = bank.loops[run[0]], len(run)
            # Row b * width + j is loop run[j] of datapoint b.
            pieces = np.stack([current[:, slice(*bank.slices[i])] for i in run], axis=1)
            loop_masks = np.tile(run_masks, (len(x), 1))
            seeds = None
            if noise_seeds is not None and spec.noise_std > 0:
                seeds = [_loop_noise_seed(seed, li, i) for seed in noise_seeds for i in run]
            out = run_loop(pieces.reshape(len(x) * width, pieces.shape[2]), spec, loop_masks, seeds)
            for j, i in enumerate(run):
                states[i] = out[j::width]
        current = np.concatenate(states, axis=1)
    return combine(states, topo.combiner)
