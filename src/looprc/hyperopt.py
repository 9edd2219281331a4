"""Black-box hyperparameter search over pipeline configurations.

The pipeline, viewed end to end, is an expensive function from
hyperparameters (gains, reservoir size, splits, regularization, transform
parameters) to validation accuracy.  Two searchers share one trial-log
format: :func:`grid_search` runs a hierarchical grid that refines around
the best point of each level, and :func:`bayes_opt` fits a Gaussian-process
surrogate with a squared-exponential kernel and picks points by expected
improvement.  Both are fully reproducible from their seed, never evaluate
a constraint-violating point, and return the best observed trial plus the
complete append-only log.
"""

import itertools
import json
import logging
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, at_least, check_fields, or_null
from .ioformats import write_output

logger = logging.getLogger(__name__)

Objective = Callable[[dict], float]

#: Each :func:`grid_search` and :func:`bayes_opt` setting's range; hyperopt config sections share them.
GRID_FIELDS = {"levels": at_least(1), "points_per_axis": at_least(1)}
BAYES_FIELDS = {"budget": at_least(1), "seed": at_least(0), "init_points": or_null(at_least(0))}


@dataclass(frozen=True)
class Real:
    """Continuous domain; ``log=True`` searches on a log scale."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self):
        if not (self.low < self.high):
            raise ValueError("need low < high")
        if self.log and self.low <= 0:
            raise ValueError("log domains need low > 0")

    def scale(self, v):
        """``v`` on the axis the search spaces evenly: log or identity."""
        return math.log(v) if self.log else v

    def unscale(self, s):
        return math.exp(s) if self.log else s


@dataclass(frozen=True)
class Categorical:
    """Finite domain: the search walks its options in the order given, and
    a Bayesian search relaxes them to evenly spaced points of [0, 1]."""

    options: tuple[Any, ...]

    def __post_init__(self):
        if len(self.options) == 0:
            raise ValueError("empty choice set")
        object.__setattr__(self, "options", tuple(self.options))


Domain = Union[Real, Categorical]


@dataclass
class SearchSpace:
    """Named parameter domains plus constraint hooks.

    Constraints are predicates over the full parameter dict (for cross-
    parameter rules like "the split count must divide the input length");
    they are checked before any objective call.
    """

    params: dict[str, Domain]
    constraints: Sequence[Callable[[dict], bool]] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.params:
            raise ValueError("search space has no parameters")
        self.constraints = tuple(self.constraints)

    @property
    def names(self) -> list[str]:
        return list(self.params)

    def is_valid(self, point: dict) -> bool:
        for name, dom in self.params.items():
            v = point[name]
            if not (dom.low <= v <= dom.high if isinstance(dom, Real) else v in dom.options):
                return False
        return all(c(point) for c in self.constraints)


@dataclass
class TrialRecord:
    """One objective evaluation: parameters, outcome, timing, seed, and a failed trial's exception."""

    trial: int
    params: dict
    accuracy: float
    wall_time: float
    seed: Optional[int] = None
    error: Optional[str] = None
    exception: Optional[Exception] = field(default=None, repr=False, compare=False)  # not in the JSON line

    @property
    def failed(self) -> bool:
        return self.error is not None or math.isnan(self.accuracy)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "trial": self.trial,
                "params": self.params,
                "accuracy": None if math.isnan(self.accuracy) else self.accuracy,
                "wall_time": self.wall_time,
                "seed": self.seed,
                "error": self.error,
            },
            sort_keys=True,
        )


def write_trial_log(path, log: Sequence[TrialRecord]) -> None:
    """Write one JSON record per line."""
    write_output(path, "".join(rec.to_json_line() + "\n" for rec in log), "trial log")


def _tie_key(rec: TrialRecord) -> tuple:
    # Prefer higher accuracy; break ties toward cheaper models.
    params = rec.params
    return (
        -rec.accuracy,
        params.get("n_nodes", 0),
        params.get("k", 0),
        rec.trial,
    )


def _best_of(log: Sequence[TrialRecord]) -> TrialRecord:
    """The best trial; RuntimeError from the first one's exception when all failed."""
    ok = [r for r in log if not r.failed]
    if not ok:
        raise RuntimeError("every trial failed") from log[0].exception
    return min(ok, key=_tie_key)


def _evaluate(
    objective: Objective, params: dict, trial: int, seed: Optional[int]
) -> TrialRecord:
    start = time.perf_counter()
    try:
        acc, exc = float(objective(params)), None
    except Exception as failure:  # a failed point is recorded, not fatal
        traceback.clear_frames(failure.__traceback__)  # the record keeps no trial's arrays alive
        acc, exc = math.nan, failure
    return TrialRecord(
        trial=trial,
        params=dict(params),
        accuracy=acc,
        wall_time=time.perf_counter() - start,
        seed=seed,
        error=None if exc is None else f"{type(exc).__name__}: {exc}",
        exception=exc,
    )


# ---------------------------------------------------------------------------
# hierarchical grid search
# ---------------------------------------------------------------------------


def _axis_grid(dom: Domain, window: Optional[tuple[float, float]], points: int) -> list:
    if isinstance(dom, Categorical):
        return list(dom.options)
    low, high = window if window is not None else (dom.low, dom.high)
    if dom.log:
        return np.geomspace(low, high, points).tolist()
    return np.linspace(low, high, points).tolist()


def grouped_order(keys: Sequence) -> list[int]:
    """Indices of ``keys`` with equal keys made adjacent: groups in the
    order of their first appearance, each in index order."""
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return sorted(range(len(keys)), key=lambda i: first[keys[i]])


def grid_search(
    space: SearchSpace,
    objective: Objective,
    levels: int = 2,
    points_per_axis: int = 5,
    group: Optional[Callable[[dict], Any]] = None,
) -> tuple[TrialRecord, list[TrialRecord]]:
    """Hierarchical grid search.

    Level 0 covers each continuous axis with ``points_per_axis`` evenly
    spaced points (geometrically for log axes) and enumerates finite axes
    exhaustively.  Each later level re-grids the continuous axes over a
    one-cell window centered on the best point so far.  Points violating
    the space constraints are skipped (ConfigError when all are); already-
    evaluated points are not re-run.  Ties break toward smaller ``n_nodes``
    then smaller ``k``.

    Trial numbers and the log follow the grid order.  With ``group``, a
    level's points that share ``group(point)`` are evaluated one after
    another, so an objective that caches work shared by such points can
    keep one entry; the first point of a level is still evaluated first.
    A setting outside its :data:`GRID_FIELDS` range raises ``ValueError``.
    """
    check_fields({"levels": levels, "points_per_axis": points_per_axis}, GRID_FIELDS, ValueError, "grid_search")
    names = space.names
    windows: dict[str, Optional[tuple[float, float]]] = {n: None for n in names}
    log: list[TrialRecord] = []
    seen: set[str] = set()

    for level in range(levels):
        axes = [_axis_grid(space.params[n], windows[n], points_per_axis) for n in names]
        points = []
        for combo in itertools.product(*axes):
            params = dict(zip(names, combo))
            if not space.is_valid(params):
                continue
            key = json.dumps(params, sort_keys=True, default=str)
            if key in seen:
                continue
            seen.add(key)
            points.append(params)
        order = grouped_order([group(p) for p in points]) if group else range(len(points))
        records = {i: _evaluate(objective, points[i], len(log) + i, seed=None) for i in order}
        log += [records[i] for i in range(len(points))]
        if not log:
            raise ConfigError("no point of the search space satisfies its constraints")
        best = _best_of(log)
        for n in names:
            dom = space.params[n]
            if not isinstance(dom, Real) or points_per_axis < 2:
                continue
            low, high = windows[n] if windows[n] is not None else (dom.low, dom.high)
            center = best.params[n]
            cell = (dom.scale(high) - dom.scale(low)) / (points_per_axis - 1)
            new_low = max(dom.low, dom.unscale(dom.scale(center) - cell))
            new_high = min(dom.high, dom.unscale(dom.scale(center) + cell))
            if new_low < new_high:
                windows[n] = (new_low, new_high)
    return _best_of(log), log


# ---------------------------------------------------------------------------
# Gaussian-process Bayesian optimization
# ---------------------------------------------------------------------------


def _to_unit(space: SearchSpace, params: dict) -> np.ndarray:
    z = np.empty(len(space.params))
    for i, (name, dom) in enumerate(space.params.items()):
        v = params[name]
        if isinstance(dom, Real):
            z[i] = (dom.scale(v) - dom.scale(dom.low)) / (dom.scale(dom.high) - dom.scale(dom.low))
        else:
            last = len(dom.options) - 1
            z[i] = dom.options.index(v) / last if last else 0.5
    return z


def _from_unit(space: SearchSpace, z: np.ndarray) -> dict:
    # Finite axes are relaxed to [0, 1] and rounded back.
    params = {}
    for i, (name, dom) in enumerate(space.params.items()):
        v = float(np.clip(z[i], 0.0, 1.0))
        if isinstance(dom, Real):
            low, high = dom.scale(dom.low), dom.scale(dom.high)
            params[name] = dom.unscale(low + v * (high - low))
        else:
            params[name] = dom.options[int(round(v * (len(dom.options) - 1)))]
    return params


def _sq_dists(a: np.ndarray, b: np.ndarray, scales: np.ndarray) -> np.ndarray:
    d = (a[:, None, :] - b[None, :, :]) / scales
    return np.sum(d * d, axis=2)


class _GP:
    """Minimal squared-exponential GP on the unit cube."""

    NOISE = 1e-8

    def __init__(self, x: np.ndarray, y: np.ndarray, scales: np.ndarray):
        self.x = x
        self.scales = scales
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y))
        self.y = (y - self.y_mean) / self.y_std
        k = np.exp(-0.5 * _sq_dists(x, x, scales)) + self.NOISE * np.eye(len(x))
        self.chol = np.linalg.cholesky(k)
        self.alpha = np.linalg.solve(
            self.chol.T, np.linalg.solve(self.chol, self.y)
        )

    def log_marginal(self) -> float:
        return float(
            -0.5 * self.y @ self.alpha
            - np.sum(np.log(np.diag(self.chol)))
            - 0.5 * len(self.y) * math.log(2 * math.pi)
        )

    def posterior(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = np.exp(-0.5 * _sq_dists(cand, self.x, self.scales))
        mean = ks @ self.alpha
        v = np.linalg.solve(self.chol, ks.T)
        var = np.maximum(1.0 - np.sum(v * v, axis=0), 1e-12)
        return (
            mean * self.y_std + self.y_mean,
            np.sqrt(var) * self.y_std,
        )


def _fit_gp(x: np.ndarray, y: np.ndarray) -> _GP:
    # Per-dimension length scales by marginal-likelihood maximization on a
    # small grid, coordinate-wise (two sweeps).
    grid = (0.1, 0.25, 0.5, 1.0, 2.0)
    dims = x.shape[1]
    scales = np.full(dims, 0.5)
    best = _GP(x, y, scales)
    for _ in range(2):
        for d in range(dims):
            for s in grid:
                trial = scales.copy()
                trial[d] = s
                gp = _GP(x, y, trial)
                if gp.log_marginal() > best.log_marginal():
                    best, scales = gp, trial
    return best


def _expected_improvement(mean, std, best_y):
    from scipy.special import ndtr  # imported here: only a Bayesian search needs scipy

    z = (mean - best_y) / std
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return (mean - best_y) * ndtr(z) + std * pdf


def _latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """``n`` points of [0, 1)^dims, one in each of ``n`` equal strata per axis:
    the draws of scipy's ``qmc.LatinHypercube(dims, seed=rng).random(n)``."""
    lhs = rng.spawn(1)[0]
    offsets = lhs.uniform(size=(n, dims))
    strata = np.tile(np.arange(1, n + 1), (dims, 1))
    for axis in strata:
        lhs.shuffle(axis)
    return (strata.T - offsets) / n


def _random_valid(space: SearchSpace, rng: np.random.Generator, count: int) -> list[dict]:
    out: list[dict] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        params = _from_unit(space, rng.uniform(size=len(space.params)))
        attempts += 1
        if space.is_valid(params):
            out.append(params)
    if len(out) < count:
        raise ConfigError("could not sample enough constraint-satisfying points")
    return out


def bayes_opt(
    space: SearchSpace,
    objective: Objective,
    budget: int,
    seed: int = 0,
    init_points: Optional[int] = None,
) -> tuple[TrialRecord, list[TrialRecord]]:
    """Gaussian-process Bayesian optimization.

    Starts from a Latin-hypercube design (``init_points``, default
    ``max(4, 2 * n_params)`` capped at the budget), then repeats: fit the
    surrogate on all successful trials, maximize expected improvement over
    a random multi-start candidate set, evaluate the winner.  Returns the
    best *observed* point.  If every observation is identical, the
    surrogate is degenerate and the remaining budget falls back to random
    sampling (logged).  A setting outside its :data:`BAYES_FIELDS` range
    raises ``ValueError``.
    """
    check_fields({"budget": budget, "seed": seed, "init_points": init_points}, BAYES_FIELDS, ValueError, "bayes_opt")
    dims = len(space.params)
    if init_points is None:
        init_points = max(4, 2 * dims)
    init_points = min(init_points, budget)
    rng = np.random.default_rng(seed)
    log: list[TrialRecord] = []

    for row in _latin_hypercube(rng, init_points, dims):
        params = _from_unit(space, row)
        if not space.is_valid(params):
            params = _random_valid(space, rng, 1)[0]
        log.append(_evaluate(objective, params, len(log), seed=seed))

    degenerate = False
    while len(log) < budget:
        ok = [r for r in log if not r.failed]
        y = np.array([r.accuracy for r in ok])
        if len(ok) >= 2 and not degenerate and np.std(y) == 0.0:
            logger.warning("all %d observations identical; falling back to random sampling", len(y))
            degenerate = True
        if len(ok) < 2 or degenerate:
            params = _random_valid(space, rng, 1)[0]
        else:
            gp = _fit_gp(np.stack([_to_unit(space, r.params) for r in ok]), y)
            # Random multi-start: uniform candidates plus jitter around the
            # incumbent, filtered through the constraints.
            cands = _random_valid(space, rng, 192)
            incumbent = _to_unit(space, _best_of(log).params)
            jittered = (_from_unit(space, incumbent + rng.normal(0, 0.05, size=dims)) for _ in range(64))
            cands += [p for p in jittered if space.is_valid(p)]
            mean, std = gp.posterior(np.stack([_to_unit(space, p) for p in cands]))
            params = cands[int(np.argmax(_expected_improvement(mean, std, float(np.max(y)))))]
        log.append(_evaluate(objective, params, len(log), seed=seed))

    return _best_of(log), log
