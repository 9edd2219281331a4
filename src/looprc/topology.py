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
from itertools import accumulate, groupby
from typing import Optional, Sequence

import numpy as np

from .errors import at_least
from .reservoir import LoopSpec, Mask, mask_for, noise_seed, run_loop

COMBINERS = ("sum", "normalized_product", "concat")
#: The range of each loop's input length in a :class:`LoopBank`; configs
#: and model headers share it.
INPUT_LENGTH = at_least(1)


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
    """k parallel loops, the number of input values each one reads, and
    each loop's mask.

    Loop i reads the ``input_lengths[i]`` values that follow those the
    loops before it read, so the bank reads an input of their sum.  Each
    length is an ``int`` >= 1; nothing is coerced.  Loop sizes may be
    heterogeneous (mixed-transform routing relies on that).  Without
    ``masks``, each loop's mask is generated from its seed; given masks (a
    stored model's) must hold one mask of ``n_nodes`` values per loop.
    """

    loops: tuple[LoopSpec, ...]
    input_lengths: tuple[int, ...]
    masks: Optional[tuple[Mask, ...]] = None
    #: Derived, not compared: each loop's (start, stop) bounds in the
    #: input, 0-based half-open.
    slices: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    #: Derived, not compared: the loop indices in maximal runs of
    #: consecutive loops that differ at most in mask seed and read inputs
    #: of one length, each with its loops' masks stacked; one run_loop call
    #: clocks a run.  Only consecutive loops are fused, so a datapoint
    #: still meets its failing loops in loop order.
    runs: tuple[tuple[tuple[int, ...], np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loops, lengths = tuple(self.loops), tuple(self.input_lengths)
        if len(loops) == 0:
            raise ValueError("bank must hold at least one loop")
        if len(loops) != len(lengths):
            raise ValueError("one input length per loop required")
        what, ok = INPUT_LENGTH
        if not all(map(ok, lengths)):
            raise ValueError(f"input lengths must each be {what}, got {lengths!r}")
        masks = tuple(map(mask_for, loops)) if self.masks is None else tuple(self.masks)
        if len(masks) != len(loops):
            raise ValueError(f"{len(masks)} masks for {len(loops)} loops")
        for i, (spec, mask) in enumerate(zip(loops, masks)):
            if len(mask) != spec.n_nodes:
                raise ValueError(f"loop {i} has {spec.n_nodes} nodes but a mask of {len(mask)} values")
        bounds = tuple(accumulate(lengths, initial=0))
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "input_lengths", lengths)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "slices", tuple(zip(bounds, bounds[1:])))

        runs = []
        for _, run in groupby(range(len(loops)), key=lambda i: (replace(loops[i], mask_seed=0), lengths[i])):
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
        return sum(self.input_lengths)

    @property
    def output_lengths(self) -> tuple[int, ...]:
        return tuple(spec.n_nodes for spec in self.loops)


@dataclass(frozen=True)
class TopologySpec:
    """Layered loop banks plus the final combiner.

    Between layers, the upstream state vectors are concatenated and
    re-sliced per the next bank's input lengths, so trees compose with the same
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


def run_topology(
    rows: np.ndarray,
    topo: TopologySpec,
    noise_seeds: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Run a (B, L) batch of datapoints through every layer and combine.

    Returns the (B, ``topo.output_length``) joint states.  The loops of a
    bank share no state (they are parallel in the hardware picture), so
    each run of equal loops is stacked into one ``run_loop`` call of
    k·B rows.  ``noise_seeds``, required when a loop is noisy, holds one
    integer seed per datapoint; loop i of layer li of a datapoint seeded
    s draws from ``noise_seed(s, li, i)``, the cached link of
    :func:`looprc.reservoir.noise_seed`, so a noisy topology is
    reproducible end to end.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != topo.input_length:
        raise ValueError(f"rows must be a (B, {topo.input_length}) matrix, got shape {x.shape}")
    if noise_seeds is not None and len(noise_seeds) != len(x):
        raise ValueError(f"{len(noise_seeds)} noise seeds for {len(x)} datapoints")

    for li, bank in enumerate(topo.layers):
        current = np.concatenate(states, axis=1) if li else x
        states = [None] * bank.k
        for run, run_masks in bank.runs:
            spec, width = bank.loops[run[0]], len(run)
            # Row b * width + j is loop run[j] of datapoint b: a run's slices are
            # consecutive and of one length, so a reshape (a view of a whole row).
            lo, hi = bank.slices[run[0]][0], bank.slices[run[-1]][1]
            pieces = current[:, lo:hi].reshape(len(x) * width, bank.input_lengths[run[0]])
            loop_masks = np.tile(run_masks, (len(x), 1))
            seeds = None
            if noise_seeds is not None and spec.noise_std > 0:
                seeds = [noise_seed(seed, li, i) for seed in noise_seeds for i in run]
            out = run_loop(pieces, spec, loop_masks, seeds)
            for j, i in enumerate(run):
                states[i] = out[j::width]
    return combine(states, topo.combiner)
