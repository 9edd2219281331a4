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

import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import INTEGER, NUMBER, NumericOverflowError, at_least, check_fields, frozen_array, one_of

MASK_DISTRIBUTIONS = ("binary", "uniform")

#: Upper bound on the in-loop noise values :func:`run_loop` draws ahead
#: over all rows (8 MiB of float64), and on those its memo holds.
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

#: Each :class:`LoopSpec` field's range; configs and model headers share it.
LOOP_FIELDS = {
    "n_nodes": at_least(1),
    "mask_seed": INTEGER,
    **dict.fromkeys(("loop_gain", "input_gain"), NUMBER),
    "noise_std": at_least(0, NUMBER),
    "nonlinearity": one_of(NONLINEARITIES),
    "filter_taps": ("a list of two finite numbers",
                    lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(NUMBER[1], v))),
    "mask_distribution": one_of(MASK_DISTRIBUTIONS),
}


@dataclass(frozen=True, eq=False)
class Mask:
    """Fixed per-chip spreading weights of one loop.

    The mask plays the role of random input weights: it is generated once
    per loop and reused for every datapoint, in training and inference.
    Masks compare and hash by value.  ``values`` is a read-only float64
    view of the given vector (see :func:`~looprc.errors.frozen_array`).
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, "mask", "values", "N"))

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Mask) and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))


@dataclass(frozen=True)
class LoopSpec:
    """Full description of one delay loop.

    A field outside its :data:`LOOP_FIELDS` range raises ``ValueError``;
    nothing is coerced, so ``n_nodes=2.0`` is an error.

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
        ``(1, 0)`` is a pure delay and matches a digital loop; a nonzero
        h(1) needs ``n_nodes`` >= 2.
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
        check_fields(asdict(self), LOOP_FIELDS, ValueError, "loop")
        object.__setattr__(self, "filter_taps", tuple(self.filter_taps))
        h0, h1 = self.filter_taps
        if h0 == 0.0 and h1 == 0.0:
            raise ValueError("filter taps must not both be zero")
        if self.n_nodes == 1 and h1 != 0.0:
            # h(1) couples chip t to chip t - N + 1 = t: self-referential.
            raise ValueError("filter_taps[1] != 0 requires n_nodes >= 2")


def generate_mask(n_nodes: int, seed: int, distribution: str = "binary") -> Mask:
    """Draw the fixed spreading mask for a loop.

    Deterministic for a fixed ``(seed, n_nodes, distribution)`` triple;
    regenerating from the same seed reproduces identical values bit-exactly.
    An argument outside its :data:`LOOP_FIELDS` range raises ``ValueError``.

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
    fields = {"n_nodes": n_nodes, "mask_seed": seed, "mask_distribution": distribution}
    check_fields(fields, LOOP_FIELDS, ValueError, "mask")
    rng = np.random.default_rng(seed)
    if distribution == "binary":
        values = rng.integers(0, 2, size=n_nodes).astype(np.float64) * 2.0 - 1.0
    else:
        values = rng.uniform(-1.0, 1.0, size=n_nodes)
    return Mask(values=values)


def mask_for(spec: LoopSpec) -> Mask:
    """Generate the mask described by a loop spec."""
    return generate_mask(spec.n_nodes, spec.mask_seed, spec.mask_distribution)


@lru_cache(maxsize=1024)
def noise_seed(parent: int, a: int, b: int) -> int:
    """The first word of ``SeedSequence([parent, a, b])``: the one link of
    the noise-seed chain, run seed -> datapoint (929, index) -> loop
    (layer, loop).  Cached, as streamed one-burst calls derive the same few
    seeds again; 1024 entries (0.2 MB) far exceed a one-datapoint call's.
    """
    return int(np.random.SeedSequence([int(parent), a, b]).generate_state(1)[0])


@lru_cache(maxsize=1)
def _noise_block(seeds: tuple[int, ...], sigma: float, length: int, n: int) -> np.ndarray:
    """The read-only step-major (L, R, N) noise of R rows seeded ``seeds``.

    Row r holds the (L, N) block a generator seeded ``seeds[r]`` draws
    first, the noise :func:`run_loop` adds to that row.  The one entry
    kept is the last key's block, so repeated calls with the same seeds,
    such as one-datapoint inference calls, build no generator.
    """
    noise = np.empty((length, len(seeds), n))
    for r, seed in enumerate(seeds):
        noise[:, r] = np.random.default_rng(seed).normal(0.0, sigma, size=(length, n))
    noise.setflags(write=False)
    return noise


def run_loop(
    rows: np.ndarray,
    spec: LoopSpec,
    masks: np.ndarray,
    noise_seeds: Optional[Sequence[int]] = None,
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
    turn, ``eta * state``, the drive, and the two nonlinearity arguments,
    which share one (2, R, N) buffer) is allocated once and written in
    place, and the per-row input terms are computed for all steps up
    front, so each step is a fixed short list of ufunc calls on
    contiguous arrays.  With ``h(1) != 0`` the u=1 argument of every chip
    is one shifted add over the flat rows, ``eta * state[j+1] +
    drive[j-1]``, and one call of the nonlinearity and one multiply by
    the (2, 1, 1) taps serve both arguments; only two chips are then set
    apart: chip 0, whose drive terms keep the association of the per-row
    recurrence, and chip N-1, whose tap is chip 0 of the same pass and
    which takes its own short chain.  Extra memory is three (L, R)
    input-term arrays, a few (R, N) buffers and the noise block.

    Finiteness is checked once per call, on the final state.  A chip that
    turns non-finite stays so: its next u=0 argument holds ``eta`` times
    it, sine maps ±inf and NaN to NaN, identity keeps both, and tanh keeps
    NaN.  Only tanh maps ±inf to a finite value (±1), and a tanh state is
    at most ``|h0| + |h1|`` plus its noise, so a noise-free tanh loop with
    a finite tap sum never holds ±inf.  A call that ends finite therefore
    never failed; only one that ends non-finite is clocked again from the
    start, checked at every step, to find the chip to report.  A tanh
    loop with noise or an overflowing tap sum is checked at every step
    from the start.

    Noise: a call whose R·L·N noise values fit :data:`NOISE_BLOCK_VALUES`
    reads them from a one-entry memo keyed by (seeds, ``noise_std``, L,
    N); a repeated key builds no generator and draws nothing.  The memo
    keeps that call's read-only (L, R, N) block, at most 8 MiB, until a
    call with another key replaces it.  A larger call draws afresh, a
    block of at most as many values at a time.  A row's noise is a pure
    function of its seed, so neither path changes a byte.

    Parameters
    ----------
    rows : array_like, shape (R, L)
        Real inputs of length L >= 1, finite entries.
    spec : LoopSpec
        Loop parameters shared by all rows (``mask_seed`` is not used).
    masks : array_like, shape (R, N)
        One spreading mask per row; N must equal ``spec.n_nodes``.
    noise_seeds : sequence of R ints, optional
        Per-row seeds for in-loop noise; required when
        ``spec.noise_std > 0`` and ignored otherwise.  Topologies derive
        them through :func:`noise_seed`.

    Returns
    -------
    ndarray, shape (R, N)

    Raises
    ------
    ValueError
        Mask or seed count mismatch, empty or non-finite input, or a
        noisy loop without one non-negative integer seed per row (a bool
        is not one).
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

    f = NONLINEARITIES[spec.nonlinearity]
    nu = float(spec.input_gain)
    sigma = float(spec.noise_std)
    length = x.shape[1]
    # A larger call draws each row's noise a block of steps at a time; one
    # (t, N) draw is the same stream as t draws of N.  Either block is
    # stored step-major so each step's add is contiguous.
    block, drawn, noise = length, False, None
    if sigma > 0.0:
        if noise_seeds is None or not all(
            isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 0 for s in noise_seeds
        ):
            raise ValueError("a noisy loop needs one non-negative integer noise seed per row")
        if r_count * length * n <= NOISE_BLOCK_VALUES:
            noise = _noise_block(tuple(map(int, noise_seeds)), sigma, length, n)
        else:
            block, drawn = max(1, NOISE_BLOCK_VALUES // (r_count * n)), True
            noise = np.empty((block, r_count, n))

    # A tanh state may turn finite again (see the docstring).
    recovers = spec.nonlinearity == "tanh" and (sigma > 0.0 or not np.isfinite(abs(h0) + abs(h1)))
    # 0-d arrays, which a ufunc takes with less dispatch work than floats.
    eta, tap0, tap1 = np.array(float(spec.loop_gain)), np.array(h0), np.array(h1)
    taps = np.array([h0, h1]).reshape(2, 1, 1)
    scaled = np.empty((r_count, n))
    # Both nonlinearity arguments share one buffer, so each step makes one
    # call of f and one multiply by the taps for both.
    args = np.empty((2, r_count, n))
    arg0, arg1 = args
    # The drive sits one element into ``lagged``, so flat element k of
    # ``lagged`` is the drive of the chip before flat chip k.
    lagged = np.zeros(r_count * n + 1)
    drive = lagged[1:].reshape(r_count, n)
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

        # An unchecked pass, then a checked one if it ends non-finite; a
        # tanh loop whose state may turn finite again is checked throughout.
        for checked in (True,) if recovers else (False, True):
            state, new = np.zeros((r_count, n)), np.empty((r_count, n))
            rngs = [np.random.default_rng(seed) for seed in noise_seeds] if drawn else []
            # Rows from ``failed`` on are no longer checked: the lowest
            # failing row is reported, and a row above the first to fail
            # may still fail later.
            failed, chip = r_count, 0
            for i in range(length):
                np.multiply(state, eta, scaled)
                np.multiply(nu_x[i], m, drive)
                np.add(scaled, drive, arg0)
                if h1 == 0.0:
                    f(arg0, arg0)
                    np.multiply(arg0, tap0, new)
                else:
                    # Chip j's u=1 argument is eta * state[j+1] plus the
                    # drive of chip j-1: one shifted add over the flat rows,
                    # wrong only at chip 0 (set here) and chip N-1, whose
                    # tap is chip 0 of the current pass (set once chip 0 is
                    # known).
                    np.add(scaled_0, head[i], arg0_0)
                    np.add(scaled_next, lagged_prev, arg1_body)
                    np.add(scaled_1, prev_tail[i], arg1_0)
                    f(args, args)
                    np.multiply(args, taps, args)
                    np.add(arg0_0, arg1_0, first)
                    np.multiply(first, eta, first)
                    np.add(first, drive_tail, first)
                    f(first, first)
                    np.multiply(first, tap1, arg1_tail)
                    np.add(arg0, arg1, new)
                if noise is not None:
                    if rngs and i % block == 0:
                        steps = min(block, length - i)
                        for r, rng in enumerate(rngs):
                            noise[:steps, r] = rng.normal(0.0, sigma, size=(steps, n))
                    np.add(new, noise[i % block], new)
                if checked and not np.isfinite(new[:failed]).all():
                    bad = ~np.isfinite(new[:failed])
                    failed = int(np.flatnonzero(bad.any(axis=1))[0])
                    chip = i * n + int(np.flatnonzero(bad[failed])[0]) + 1
                    if failed == 0:
                        break
                state, new = new, state
            if checked or np.isfinite(state).all():
                break
    if failed < r_count:
        raise NumericOverflowError(chip_index=chip)
    return state
