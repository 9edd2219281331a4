import dataclasses
import gc
import hashlib
import inspect
import json
import math
import weakref

import numpy as np
import pytest
from scipy.stats import qmc

from looprc.hyperopt import (
    BAYES_FIELDS,
    GRID_FIELDS,
    Categorical,
    Real,
    SearchSpace,
    TrialRecord,
    _from_unit,
    bayes_opt,
    grid_search,
    write_trial_log,
)


# --- domains and search space ---


def test_domain_validation():
    with pytest.raises(ValueError):
        Real(low=1.0, high=1.0)
    with pytest.raises(ValueError):
        Real(low=0.0, high=1.0, log=True)
    with pytest.raises(ValueError):
        Categorical(options=())
    with pytest.raises(ValueError):
        SearchSpace(params={})


def test_is_valid_checks_domains_and_constraints():
    space = SearchSpace(
        params={"x": Real(0, 1), "k": Categorical((1, 2, 4))},
        constraints=(lambda p: p["x"] * p["k"] <= 2,),
    )
    assert space.is_valid({"x": 0.5, "k": 4})
    assert not space.is_valid({"x": 0.9, "k": 4})  # constraint
    assert not space.is_valid({"x": 1.5, "k": 1})  # domain
    assert not space.is_valid({"x": 0.5, "k": 3})  # not in set


# --- grid search ---


def test_single_point_grid_returns_it():
    space = SearchSpace(params={"n_nodes": Categorical((300,))})
    best, log = grid_search(space, lambda p: 0.75, levels=1)
    assert best.params == {"n_nodes": 300}
    assert best.accuracy == 0.75
    assert len(log) == 1


def test_grid_argmax_matches_exhaustive_oracle():
    def objective(p):
        return -((p["nu"] - 0.6) ** 2) - (p["eta"] - 0.4) ** 2

    space = SearchSpace(params={"nu": Real(0, 1), "eta": Real(0, 1)})
    best, log = grid_search(space, objective, levels=1, points_per_axis=5)

    axis = np.linspace(0, 1, 5)
    oracle = max(
        ({"nu": nu, "eta": eta} for nu in axis for eta in axis),
        key=objective,
    )
    assert best.params == pytest.approx(oracle)
    assert len(log) == 25


def test_grid_refinement_never_regresses():
    def objective(p):
        return -((p["x"] - 0.37) ** 2)

    space = SearchSpace(params={"x": Real(0, 1)})
    best1, _ = grid_search(space, objective, levels=1, points_per_axis=5)
    best3, log3 = grid_search(space, objective, levels=3, points_per_axis=5)
    assert best3.accuracy >= best1.accuracy
    assert abs(best3.params["x"] - 0.37) < abs(best1.params["x"] - 0.37) + 1e-12


def test_grid_skips_constraint_violations():
    calls = []

    def objective(p):
        calls.append(dict(p))
        assert p["k"] * p["d"] <= 8, "constraint leaked into the objective"
        return 0.5

    space = SearchSpace(
        params={"k": Categorical((1, 2, 4)), "d": Categorical((2, 4, 8))},
        constraints=(lambda p: p["k"] * p["d"] <= 8,),
    )
    _, log = grid_search(space, objective, levels=1)
    assert len(calls) == len(log) == 6  # 9 combos, 3 violate


def test_grid_records_failures_and_continues():
    def objective(p):
        if p["k"] == 2:
            raise RuntimeError("boom")
        return float(p["k"])

    space = SearchSpace(params={"k": Categorical((1, 2, 4))})
    best, log = grid_search(space, objective, levels=1)
    assert best.params["k"] == 4
    failed = [r for r in log if r.failed]
    assert len(failed) == 1 and "boom" in failed[0].error


def test_a_search_whose_every_trial_fails_chains_the_first_trials_exception():
    def objective(p):
        raise KeyError(f"no point {p['k']}")

    space = SearchSpace(params={"k": Categorical((1, 2))})
    with pytest.raises(RuntimeError, match="every trial failed") as info:
        grid_search(space, objective, levels=1)
    assert isinstance(info.value.__cause__, KeyError) and info.value.__cause__.args == ("no point 1",)
    with pytest.raises(RuntimeError, match="every trial failed") as info:
        bayes_opt(space, objective, budget=3)
    assert isinstance(info.value.__cause__, KeyError)


def test_grid_tie_breaks_toward_cheaper_models():
    space = SearchSpace(
        params={"n_nodes": Categorical((150, 300, 600)), "k": Categorical((2, 4))}
    )
    best, _ = grid_search(space, lambda p: 0.9, levels=1)
    assert best.params == {"n_nodes": 150, "k": 2}


# --- bayesian optimization ---


def test_bayes_finds_analytic_optimum():
    """1 - (x - 0.3)^2 on [0, 1]: every seed must land within 0.05."""

    def objective(p):
        return 1.0 - (p["x"] - 0.3) ** 2

    space = SearchSpace(params={"x": Real(0, 1)})
    for seed in range(5):
        best, log = bayes_opt(space, objective, budget=20, seed=seed)
        assert len(log) == 20
        assert abs(best.params["x"] - 0.3) < 0.05


def test_bayes_replay_is_identical():
    def objective(p):
        return 1.0 - (p["x"] - 0.7) ** 2 - 0.1 * (p["y"] - 0.2) ** 2

    space = SearchSpace(params={"x": Real(0, 1), "y": Real(0, 1)})
    _, log_a = bayes_opt(space, objective, budget=15, seed=42)
    _, log_b = bayes_opt(space, objective, budget=15, seed=42)
    assert [r.params for r in log_a] == [r.params for r in log_b]
    assert [r.accuracy for r in log_a] == [r.accuracy for r in log_b]


@pytest.mark.parametrize("seed, n, d", [(7, 6, 2), (0, 1, 1), (3, 2, 3), (11, 7, 5), (5, 10, 8)])
def test_bayes_budget_equal_to_design_is_pure_lhs(seed, n, d):
    space = SearchSpace(params={f"x{i}": Real(i, i + 2) for i in range(d)})
    _, log = bayes_opt(space, lambda p: 0.0, budget=n, seed=seed, init_points=n)

    rng = np.random.default_rng(seed)
    design = qmc.LatinHypercube(d=d, seed=rng).random(n)
    expected = [_from_unit(space, row) for row in design]
    assert [r.params for r in log] == expected


def test_bayes_constraint_safety():
    def objective(p):
        assert p["x"] + p["y"] <= 1.2, "constraint leaked into the objective"
        return p["x"]

    space = SearchSpace(
        params={"x": Real(0, 1), "y": Real(0, 1)},
        constraints=(lambda p: p["x"] + p["y"] <= 1.2,),
    )
    best, log = bayes_opt(space, objective, budget=18, seed=3)
    assert all(r.params["x"] + r.params["y"] <= 1.2 for r in log)
    assert not best.failed


def test_bayes_degenerate_observations_fall_back_to_random():
    # constant objective: GP variance is zero, remaining budget must still
    # be spent (randomly) rather than crashing
    space = SearchSpace(params={"x": Real(0, 1)})
    best, log = bayes_opt(space, lambda p: 0.5, budget=10, seed=1)
    assert len(log) == 10
    assert best.accuracy == 0.5


def test_bayes_integer_and_categorical_axes():
    def objective(p):
        return (p["k"] == 4) + 0.5 * (p["combiner"] == "sum")

    space = SearchSpace(
        params={
            "k": Categorical((1, 2, 4, 8)),
            "combiner": Categorical(("sum", "concat")),
        }
    )
    best, _ = bayes_opt(space, objective, budget=25, seed=0)
    assert best.params == {"k": 4, "combiner": "sum"}


def _flaky(p):
    if p["x"] < 0.75:
        raise ValueError(f"no fit at x={p['x']:.3f}")
    return p["x"]


_MIXED = SearchSpace(params={"x": Real(0, 1), "k": Categorical((1, 2, 4))})
# Each case drives one branch of a search step; the digests pin the whole
# trial sequence (parameters, outcomes, trial numbers, errors).
_BAYES_CASES = {
    # two or more distinct observations from the start: every step a GP pick
    "gp_pick": (
        _MIXED,
        lambda p: 1.0 - (p["x"] - 0.3) ** 2 - 0.1 * (p["k"] - 2) ** 2,
        dict(budget=9, seed=5),
        "4354d05ab65b917caafa8e683710f774691c6f5c7e6c5ae400e2e396acfe170a",
    ),
    # one design point succeeds: random steps until a second success
    "fewer_than_two_successes": (
        SearchSpace(params={"x": Real(0, 1)}),
        _flaky,
        dict(budget=8, seed=2),
        "d532295e49741492b6b50dab11b109e563dd00cf876ec3f26ff190b28f7ed2c1",
    ),
    "identical_observations": (
        _MIXED,
        lambda p: 0.5,
        dict(budget=8, seed=3),
        "bf17ea320dfece4e3b693d05d67cf80f62cf60b30b8aeaaa7ebd8fdfb6bf67c4",
    ),
    # design points outside x + y <= 0.8 are replaced by random valid ones
    "design_point_fails_constraint": (
        SearchSpace(params={"x": Real(0, 1), "y": Real(0, 1)}, constraints=(lambda p: p["x"] + p["y"] <= 0.8,)),
        lambda p: p["x"] - p["y"],
        dict(budget=7, seed=4),
        "0ff22d4c2d9bd3d1d3f007e00905181195c0baf575b6c4f60d7c5fc2220b23e6",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAYES_CASES))
def test_bayes_trial_sequence_is_pinned(case):
    space, objective, kwargs, digest = _BAYES_CASES[case]
    _, log = bayes_opt(space, objective, **kwargs)
    text = "".join(dataclasses.replace(r, wall_time=0.0).to_json_line() + "\n" for r in log)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bayes_rejects_zero_budget():
    space = SearchSpace(params={"x": Real(0, 1)})
    with pytest.raises(ValueError):
        bayes_opt(space, lambda p: 0.0, budget=0)


def test_each_searchers_table_names_its_settings():
    for search, table in ((grid_search, GRID_FIELDS), (bayes_opt, BAYES_FIELDS)):
        assert set(table) == set(inspect.signature(search).parameters) - {"space", "objective", "group"}


@pytest.mark.parametrize(
    "search, settings, field",
    [
        (grid_search, {"levels": 0}, "levels"),
        (grid_search, {"levels": 2.0}, "levels"),
        (grid_search, {"levels": True}, "levels"),
        (grid_search, {"points_per_axis": 0}, "points_per_axis"),
        (grid_search, {"points_per_axis": True}, "points_per_axis"),
        (bayes_opt, {"budget": 2.0}, "budget"),
        (bayes_opt, {"budget": None}, "budget"),
        (bayes_opt, {"budget": 3, "init_points": -1}, "init_points"),
        (bayes_opt, {"budget": 3, "init_points": 2.0}, "init_points"),
        (bayes_opt, {"budget": 3, "seed": -1}, "seed"),
        (bayes_opt, {"budget": 3, "seed": 1.0}, "seed"),
    ],
)
def test_a_searcher_setting_of_the_wrong_type_or_range_is_a_value_error_naming_it(search, settings, field):
    calls = []
    space = SearchSpace(params={"x": Real(0, 1)})
    with pytest.raises(ValueError, match=rf"^{search.__name__}\.{field} must be an integer >= "):
        search(space, lambda p: calls.append(p) or 0.0, **settings)
    assert calls == []


# --- shared log behaviour ---


def test_running_best_is_monotone_and_final():
    def objective(p):
        return math.sin(7 * p["x"]) * p["x"]

    space = SearchSpace(params={"x": Real(0, 1)})
    for best, log in (
        grid_search(space, objective, levels=2, points_per_axis=5),
        bayes_opt(space, objective, budget=16, seed=9),
    ):
        assert [r.trial for r in log] == list(range(len(log)))
        ok = [r.accuracy for r in log if not r.failed]
        running = np.maximum.accumulate(ok)
        assert np.all(np.diff(running) >= 0)
        assert best.accuracy == running[-1]


def test_nan_accuracy_counts_as_failure():
    def objective(p):
        return math.nan if p["k"] == 1 else 0.3

    space = SearchSpace(params={"k": Categorical((1, 2))})
    best, log = grid_search(space, objective, levels=1)
    assert best.params["k"] == 2
    assert [r.failed for r in log] == [True, False]


def test_trial_log_round_trips_as_json_lines(tmp_path):
    records = [
        TrialRecord(trial=0, params={"x": 0.5}, accuracy=0.9, wall_time=0.01, seed=1),
        TrialRecord(
            trial=1,
            params={"x": 0.1},
            accuracy=math.nan,
            wall_time=0.02,
            error="RuntimeError: boom",
        ),
    ]
    path = tmp_path / "trials.jsonl"
    write_trial_log(path, records)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(s) for s in lines)
    assert first["params"] == {"x": 0.5} and first["accuracy"] == 0.9
    assert second["accuracy"] is None and "boom" in second["error"]


def test_a_failed_trial_keeps_its_exception_but_not_its_arrays_out_of_its_json_line():
    arrays = []

    def objective(p):
        states = np.ones(1000)  # stands for the data a failing trial holds
        arrays.append(weakref.ref(states))
        return p["k"] / (p["k"] - 1)

    _, log = grid_search(SearchSpace(params={"k": Categorical((1, 2))}), objective, levels=1)
    assert isinstance(log[0].exception, ZeroDivisionError) and log[1].exception is None
    gc.collect()
    assert arrays[0]() is None  # the kept traceback holds no frame's locals
    assert set(json.loads(log[0].to_json_line())) == {"trial", "params", "accuracy", "wall_time", "seed", "error"}
