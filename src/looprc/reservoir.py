"""Single-neuron, time-multiplexed delay loop.

A delay loop realizes N virtual reservoir nodes by clocking each input
sample through one nonlinearity N times.  A fixed random mask spreads every
input sample into N chips (sample-and-hold upsampling); the loop output at
chip time t feeds back after a delay of N chips, so the N chip positions
behave like the recurrently connected neurons of a spatial reservoir.

The chip-time recurrence implemented by :func:`run_loop` is

    X(t) = sum_u h(u) * f( eta * X(t - N + u) + nu * J(t - u) ) + eps(t)

for u in {0, 1}, where J is the masked chip stream, ``h`` is a two-tap
filter modeling the nonlinearity's temporal response (pure delay ``(1, 0)``
by default), and ``eps`` is optional i.i.d. Gaussian in-loop noise.  The
state vector is the last N chip values after the final input sample has
been clocked in.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericOverflowError

MASK_DISTRIBUTIONS = ("binary", "uniform")

#: Upper bound on the in-loop noise values :func:`run_loop` draws ahead
#: over all rows (8 MB of float64).
NOISE_BLOCK_VALUES = 2**20

#: "identity" is a test hook for linear-system oracles.  It is accepted by
#: LoopSpec so oracle tests can drive full topologies, but experiment
#: configs (:func:`looprc.pipeline.validate_config`) reject it.  Each is a
#: ufunc, so the kernel can write its result in place.
NONLINEARITIES: dict[str, np.ufunc] = {
    "sine": np.sin,
    "tanh": np.tanh,
    "identity": np.positive,
}


@dataclass(frozen=True, eq=False)
class Mask:
    """Fixed per-chip spreading weights of one loop.

    The mask plays the role of random input weights: it is generated once
    per loop and reused for every datapoint, in training and inference.
    Masks compare and hash by value.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("mask must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("mask values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Mask) and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))


@dataclass(frozen=True)
class LoopSpec:
    """Full description of one delay loop.

    Parameters
    ----------
    n_nodes : int
        Number of virtual nodes N; also the mask length in chips.
    loop_gain : float
        Feedback gain applied to the delayed state tap.
    input_gain : float
        Gain applied to the masked input chips.  Together with
        ``loop_gain`` it must be calibrated per application to put the
        loop in a useful dynamic regime; there is no universal default.
    nonlinearity : str
        One of ``"sine"`` (default), ``"tanh"``, or the test-only
        ``"identity"``.
    filter_taps : (float, float)
        Two-tap temporal response h(0), h(1) of the nonlinearity.
        ``(1, 0)`` is a pure delay and matches a digital loop.
    noise_std : float
        Std-dev of additive per-chip Gaussian in-loop noise; 0 disables
        noise exactly (digital mode).
    mask_seed : int
        Seed for the loop's spreading mask.
    mask_distribution : str
        ``"binary"`` (+/-1, default) or ``"uniform"`` (on (-1, 1)).
    """

    n_nodes: int
    loop_gain: float
    input_gain: float
    nonlinearity: str = "sine"
    filter_taps: tuple[float, float] = (1.0, 0.0)
    noise_std: float = 0.0
    mask_seed: int = 0
    mask_distribution: str = "binary"

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        object.__setattr__(self, "filter_taps", tuple(self.filter_taps))
        h0, h1 = self.filter_taps
        if h0 == 0.0 and h1 == 0.0:
            raise ValueError("filter taps must not both be zero")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.mask_distribution not in MASK_DISTRIBUTIONS:
            raise ValueError(f"unknown mask distribution {self.mask_distribution!r}")
        if not all(np.isfinite(v) for v in (self.loop_gain, self.input_gain, h0, h1)):
            raise ValueError("loop parameters must be finite")


def generate_mask(n_nodes: int, seed: int, distribution: str = "binary") -> Mask:
    """Draw the fixed spreading mask for a loop.

    Deterministic for a fixed ``(seed, n_nodes, distribution)`` triple;
    regenerating from the same seed reproduces identical values bit-exactly.

    Parameters
    ----------
    n_nodes : int
        Mask length in chips (= loop size N).
    seed : int
        RNG seed.
    distribution : str
        ``"binary"`` draws i.i.d. +/-1; ``"uniform"`` draws i.i.d. from
        the open interval (-1, 1).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if distribution not in MASK_DISTRIBUTIONS:
        raise ValueError(f"unknown mask distribution {distribution!r}")
    rng = np.random.default_rng(seed)
    if distribution == "binary":
        values = rng.integers(0, 2, size=n_nodes).astype(np.float64) * 2.0 - 1.0
    else:
        values = rng.uniform(-1.0, 1.0, size=n_nodes)
    return Mask(values=values)


def mask_for(spec: LoopSpec) -> Mask:
    """Generate the mask described by a loop spec."""
    return generate_mask(spec.n_nodes, spec.mask_seed, spec.mask_distribution)


def run_loop(
    rows: np.ndarray,
    spec: LoopSpec,
    masks: np.ndarray,
    noise_seeds: Optional[Sequence[Optional[int]]] = None,
) -> np.ndarray:
    """Clock a batch of real-valued inputs through copies of one delay loop.

    Row r of ``rows`` drives its own loop, spread by mask row ``masks[r]``;
    the rows share every other loop parameter but no state.  Every input
    sample s(n) is spread into N chips ``mask[j] * s(n)``; the chips drive
    the recurrence in the module docstring with zero initial state.  After
    the last sample the final N chip values of each row are returned as
    its state vector (entry k = chip position k).

    Output row r is a pure function of ``(rows[r], spec, masks[r],
    noise_seeds[r])``, whatever the other rows hold: bit-identical for
    identical arguments, with noise drawn only when ``spec.noise_std > 0``.

    Per-step work: every (R, N) buffer (state and next state, taken in
    turn, ``eta * state``, the drive and the two nonlinearity arguments)
    is allocated once and written in place, and the per-row input terms
    are computed for all steps up front, so each step is a fixed short
    list of ufunc calls on contiguous arrays.  With ``h(1) != 0`` the
    u=1 argument of every chip is one shifted add over the flat rows,
    ``eta * state[j+1] + drive[j-1]``; only two chips are then set
    apart: chip 0, whose drive terms keep the association of the
    per-row recurrence, and chip N-1, whose tap is chip 0 of the same
    pass.  Extra memory is three (L, R) input-term arrays, a few (R, N)
    buffers and the noise block.

    Parameters
    ----------
    rows : array_like, shape (R, L)
        Real inputs of length L >= 1, finite entries.
    spec : LoopSpec
        Loop parameters shared by all rows (``mask_seed`` is not used).
    masks : array_like, shape (R, N)
        One spreading mask per row; N must equal ``spec.n_nodes``.
    noise_seeds : sequence of R ints, optional
        Per-row seeds for in-loop noise; required only for
        reproducibility when ``spec.noise_std > 0``.

    Returns
    -------
    ndarray, shape (R, N)

    Raises
    ------
    ValueError
        Mask or seed count mismatch, empty or non-finite input.
    NumericOverflowError
        A state became non-finite (possible only for pathological gains
        with an unbounded nonlinearity).  The chip index is that of the
        lowest such row, as if that row had been run on its own.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("rows must be an (R, L) matrix with L >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("row entries must be finite")
    r_count, n = x.shape[0], spec.n_nodes
    m = np.asarray(masks, dtype=np.float64)
    if m.shape != (r_count, n):
        raise ValueError(f"masks of shape {m.shape} != (rows, n_nodes) = {(r_count, n)}")
    if noise_seeds is not None and len(noise_seeds) != r_count:
        raise ValueError(f"{len(noise_seeds)} noise seeds for {r_count} rows")
    h0, h1 = float(spec.filter_taps[0]), float(spec.filter_taps[1])
    if n == 1 and h1 != 0.0:
        # h(1) couples chip t to chip t - N + 1 = t: self-referential.
        raise ValueError("filter_taps[1] != 0 requires n_nodes >= 2")

    f = NONLINEARITIES[spec.nonlinearity]
    eta = float(spec.loop_gain)
    nu = float(spec.input_gain)
    sigma = float(spec.noise_std)
    length = x.shape[1]
    seeds = [None] * r_count if noise_seeds is None else noise_seeds
    rngs = [np.random.default_rng(seed) for seed in seeds] if sigma > 0.0 else []
    # Each row's noise is drawn a block of steps at a time; one (t, N) draw
    # is the same stream as t draws of N.  The block holds at most 2**20
    # values over all rows, stored step-major so each step's add is
    # contiguous.
    block = max(1, min(length, NOISE_BLOCK_VALUES // max(1, r_count * n)))
    noise = np.empty((block, r_count, n)) if rngs else None

    state, new = np.zeros((r_count, n)), np.empty((r_count, n))
    scaled = np.empty((r_count, n))
    arg0, arg1 = np.empty((r_count, n)), np.empty((r_count, n))
    # The drive sits one element into ``lagged``, so flat element k of
    # ``lagged`` is the drive of the chip before flat chip k.
    lagged = np.zeros(r_count * n + 1)
    drive = lagged[1:].reshape(r_count, n)
    # Rows from ``failed`` on are no longer checked: the lowest failing row
    # is reported, and a row above the first to fail may still fail later.
    failed, chip = r_count, 0
    # Overflow shows up as inf/nan in the state and is reported explicitly
    # below; keep numpy quiet about the intermediate arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per-step input terms, one contiguous row per step.  Chips j >= 1
        # are driven by (nu * s) * m[j]; chip 0 keeps its own association,
        # (nu * m[0]) * s for h(0) and (nu * m[N-1]) * s_prev for h(1),
        # where s_prev = 0 before the first sample (a signed zero).
        xt = x.T
        nu_x = np.multiply(xt, nu, order="C")[:, :, None]
        if h1 != 0.0:
            head = np.multiply(xt, nu * m[:, 0], order="C")
            prev_tail = np.empty((length, r_count))
            np.multiply(nu * m[:, n - 1], 0.0, out=prev_tail[0])
            np.multiply(xt[:-1], nu * m[:, n - 1], out=prev_tail[1:])
            first = np.empty(r_count)
            scaled_next, lagged_prev = scaled.reshape(-1)[1:], lagged[:-2]
            arg1_body = arg1.reshape(-1)[:-1]
            scaled_0, scaled_1, drive_tail = scaled[:, 0], scaled[:, 1], drive[:, n - 2]
            arg0_0, arg1_0, arg1_tail = arg0[:, 0], arg1[:, 0], arg1[:, n - 1]

        for i in range(length):
            np.multiply(state, eta, out=scaled)
            np.multiply(nu_x[i], m, out=drive)
            np.add(scaled, drive, out=arg0)
            if h1 == 0.0:
                f(arg0, out=arg0)
                np.multiply(arg0, h0, out=new)
            else:
                # Chip j's u=1 argument is eta * state[j+1] plus the drive
                # of chip j-1: one shifted add over the flat rows, wrong
                # only at chip 0 (set here) and chip N-1, whose tap is
                # chip 0 of the current pass (set once chip 0 is known).
                np.add(scaled_0, head[i], out=arg0_0)
                np.add(scaled_next, lagged_prev, out=arg1_body)
                np.add(scaled_1, prev_tail[i], out=arg1_0)
                f(arg0, out=arg0)
                np.multiply(arg0, h0, out=arg0)
                f(arg1, out=arg1)
                np.multiply(arg1, h1, out=arg1)
                np.add(arg0_0, arg1_0, out=first)
                np.multiply(first, eta, out=first)
                np.add(first, drive_tail, out=first)
                f(first, out=first)
                np.multiply(first, h1, out=arg1_tail)
                np.add(arg0, arg1, out=new)
            if noise is not None:
                if i % block == 0:
                    steps = min(block, length - i)
                    for r, rng in enumerate(rngs):
                        noise[:steps, r] = rng.normal(0.0, sigma, size=(steps, n))
                new += noise[i % block]
            if not np.isfinite(new[:failed]).all():
                bad = ~np.isfinite(new[:failed])
                failed = int(np.flatnonzero(bad.any(axis=1))[0])
                chip = i * n + int(np.flatnonzero(bad[failed])[0]) + 1
                if failed == 0:
                    break
            state, new = new, state
    if failed < r_count:
        raise NumericOverflowError(chip_index=chip)
    return state
