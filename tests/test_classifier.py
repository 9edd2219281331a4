import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import per_row_oracle as oracle
from looprc.classifier import (
    DesignMatrix,
    Metrics,
    NormalEquations,
    RidgeModel,
    evaluate,
    predict_indices,
    scores,
    train_ridge,
    trainable_params,
    training_macs,
)
from looprc.errors import SingularMatrixError


def gd_ridge_oracle(x, y, lam, tol=1e-13, max_iter=200_000):
    """Gradient descent on ||XW - Y||^2 + lam ||W||^2.

    Written as an iterative solver on the objective itself so the
    closed-form normal-equation path is checked against a genuinely
    different computation. Fixed step 1/(sigma_max^2 + lam) guarantees
    contraction; iterates until the gradient is numerically zero.
    """
    smax = np.linalg.norm(x, 2)
    step = 1.0 / (smax * smax + lam)
    w = np.zeros((x.shape[1], y.shape[1]))
    for _ in range(max_iter):
        grad = x.T @ (x @ w - y) + lam * w
        w_next = w - step * grad
        if np.max(np.abs(w_next - w)) < tol:
            return w_next
        w = w_next
    return w


def random_design(rng, b=50, n=20, c=4):
    rows = rng.normal(size=(b, n))
    labels = rng.integers(0, c, size=b)
    labels[:c] = np.arange(c)  # every class present
    return DesignMatrix(rows=rows, labels=labels, class_count=c)


# --- closed form vs iterative oracle ---


def test_closed_form_matches_gradient_descent_oracle():
    rng = np.random.default_rng(17)
    for i in range(50):
        lam = [1e-2, 1e-1, 1.0][i % 3]
        data = random_design(rng)
        model = train_ridge(data, lam=lam)
        oracle = gd_ridge_oracle(data.rows, data.one_hot(), lam)
        assert np.max(np.abs(model.weights - oracle)) <= 1e-6


def test_orthonormal_rows_fit_exactly_at_lambda_zero():
    data = DesignMatrix(rows=np.eye(2), labels=[0, 1], class_count=2)
    model = train_ridge(data, lam=0.0)
    assert np.allclose(data.rows @ model.weights, data.one_hot(), atol=1e-12)


def test_weight_norm_shrinks_with_lambda():
    rng = np.random.default_rng(3)
    data = random_design(rng)
    norms = [
        np.linalg.norm(train_ridge(data, lam=lam).weights) for lam in (1e-3, 1.0, 1e3)
    ]
    assert norms[0] > norms[1] > norms[2]


def test_singular_system_at_lambda_zero_raises():
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    data = DesignMatrix(rows=rows, labels=[0, 1], class_count=2)
    with pytest.raises(SingularMatrixError):
        train_ridge(data, lam=0.0)
    train_ridge(data, lam=1e-3)  # regularized solve goes through


def test_normal_equations_that_overflow_raise():
    # Finite states whose squares sum past the float64 range.
    data = DesignMatrix(rows=np.full((4, 3), 1e160), labels=[0, 1, 0, 1], class_count=2)
    with pytest.raises(SingularMatrixError, match="overflow"):
        train_ridge(data)


# --- shared normal equations vs the per-λ oracle ---


def oracle_design(b, n, columns, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(b, n))
    if columns != "plain":
        rows[:, 2] = -np.abs(rows[:, 2])
    if columns == "zero_and_negative":
        rows[:, 1] = 0.0
    labels = np.arange(b) % 3
    return DesignMatrix(rows=rows, labels=labels, class_count=3)


def oracle_or_none(data, lam):
    """The oracle's weights, or None where the system is singular."""
    try:
        expect = oracle.ridge_oracle(data, lam)
    except scipy.linalg.LinAlgError:
        return None
    return expect if np.all(np.isfinite(expect)) else None


@pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-3, 0.5, 100.0])
@pytest.mark.parametrize("columns", ["plain", "negative", "zero_and_negative"])
@pytest.mark.parametrize("b, n", [(40, 12), (12, 40), (300, 200), (90, 260)])
def test_weights_are_byte_equal_to_the_per_lambda_oracle(b, n, columns, lam):
    data = oracle_design(b, n, columns)
    expect = oracle_or_none(data, lam)
    if expect is None:
        assert lam == 0.0 and (n > b or columns == "zero_and_negative")
        with pytest.raises(SingularMatrixError):
            train_ridge(data, lam=lam)
        return
    assert train_ridge(data, lam=lam).weights.tobytes() == expect.tobytes()


@pytest.mark.parametrize("b, n, columns", [(12, 40, "zero_and_negative"), (120, 64, "negative")])
def test_every_lambda_solves_from_the_same_untouched_normal_equations(b, n, columns):
    data = oracle_design(b, n, columns, seed=3)
    eqs = data.normal_equations
    lower = np.tril_indices(n, -1)
    lower_bytes = eqs.gram[lower].tobytes()
    diag_bytes, rhs_bytes = eqs.diag.tobytes(), eqs.rhs.tobytes()
    assert eqs.gram.flags.c_contiguous
    assert lower_bytes == (data.rows.T @ data.rows)[lower].tobytes()
    lams = [0.0, 1e-6, 1e-3, 0.5, 100.0] * 2
    np.random.default_rng(b).shuffle(lams)
    for lam in lams:
        expect = oracle_or_none(data, lam)
        if expect is None:
            assert lam == 0.0 and columns == "zero_and_negative"
            with pytest.raises(SingularMatrixError):
                train_ridge(data, lam=lam)
        else:
            assert train_ridge(data, lam=lam).weights.tobytes() == expect.tobytes()
    assert data.normal_equations is eqs
    assert eqs.gram[lower].tobytes() == lower_bytes
    assert eqs.diag.tobytes() == diag_bytes and eqs.rhs.tobytes() == rhs_bytes
    assert not eqs.diag.flags.writeable and not eqs.rhs.flags.writeable


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_restore_writes_the_lower_triangle_of_the_per_lambda_oracle(lam):
    # -0.0 sits in an off-diagonal strip and in a diagonal tile; the upper
    # triangle is workspace, so NaN there must not leak into the result.
    n = 150
    gram = np.random.default_rng(1).normal(size=(n, n))
    gram[100, 3] = gram[70, 65] = gram[149, 140] = -0.0
    gram[np.triu_indices(n, 1)] = np.nan
    eqs = NormalEquations(gram=gram.copy(), diag=gram.diagonal().copy(), rhs=np.zeros((n, 2)))
    expect = gram + lam * np.eye(n) if lam > 0 else gram
    got = eqs.restore(lam)
    assert got.flags.f_contiguous and np.shares_memory(got, eqs.gram)
    assert np.tril(got).tobytes() == np.tril(expect).tobytes()
    assert np.tril(eqs.gram, -1).tobytes() == np.tril(gram, -1).tobytes()


def test_a_solve_allocates_no_n_by_n_array():
    # The Gram build holds one N x N product; a later solve reuses its buffer.
    n = 512
    data = oracle_design(2 * n, n, "plain")
    nn_bytes = 8 * n * n
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data.normal_equations
        build = tracemalloc.get_traced_memory()[1] - start
        train_ridge(data, lam=1e-3)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        train_ridge(data, lam=0.5)
        solve = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert build < 1.5 * nn_bytes
    assert solve < nn_bytes / 4


def test_concurrent_solves_on_one_design_each_get_their_own_weights():
    data = oracle_design(300, 256, "negative")
    lams = (1e-3, 10.0)
    expect = {lam: oracle.ridge_oracle(data, lam).tobytes() for lam in lams}
    data.normal_equations
    start = threading.Barrier(len(lams))
    got = {lam: [] for lam in lams}

    def solve(lam):
        start.wait()
        for _ in range(20):
            got[lam].append(train_ridge(data, lam=lam).weights.tobytes())

    threads = [threading.Thread(target=solve, args=(lam,)) for lam in lams]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for lam in lams:
        assert got[lam] == [expect[lam]] * 20


def test_failed_lambda_zero_solve_leaves_the_normal_equations_intact():
    data = oracle_design(12, 40, "zero_and_negative")
    with pytest.raises(SingularMatrixError):
        train_ridge(data, lam=0.0)
    assert train_ridge(data, lam=0.5).weights.tobytes() == oracle.ridge_oracle(data, 0.5).tobytes()


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    data = random_design(rng)
    a = train_ridge(data, lam=0.5).weights
    b = train_ridge(data, lam=0.5).weights
    assert np.array_equal(a, b)


def test_negative_lambda_rejected():
    data = DesignMatrix(rows=np.eye(2), labels=[0, 1], class_count=2)
    with pytest.raises(ValueError):
        train_ridge(data, lam=-1.0)


def test_scale_equivariance_of_decisions():
    rng = np.random.default_rng(11)
    data = random_design(rng, b=60, n=10, c=3)
    test_rows = rng.normal(size=(40, 10))
    c = 7.3
    base = train_ridge(data, lam=0.2)
    scaled_data = DesignMatrix(
        rows=c * data.rows, labels=data.labels, class_count=data.class_count
    )
    scaled = train_ridge(scaled_data, lam=0.2 * c * c)
    assert np.array_equal(
        predict_indices(base, test_rows), predict_indices(scaled, c * test_rows)
    )


# --- prediction ---


def test_predict_recovers_fitted_training_row():
    data = DesignMatrix(rows=np.eye(3), labels=[0, 1, 2], class_count=3)
    model = train_ridge(data, lam=0.0, label_map=("a", "b", "c"))
    (idx,) = predict_indices(model, data.rows[1:2])
    assert model.label_map[idx] == "b"
    assert predict_indices(model, data.rows).tolist() == [0, 1, 2]


def test_tie_breaks_toward_lowest_class_index():
    w = np.array([[1.0, 1.0, 0.0]])  # classes 0 and 1 score identically
    model = RidgeModel(weights=w, lam=0.0, label_map=("x", "y", "z"))
    rows = np.array([[2.0]])
    scores = (rows @ model.weights)[0]
    assert scores[0] == scores[1] > scores[2]
    assert model.label_map[predict_indices(model, rows)[0]] == "x"


def test_batch_prediction_matches_single_path():
    rng = np.random.default_rng(13)
    data = random_design(rng)
    model = train_ridge(data, lam=0.1)
    rows = rng.normal(size=(25, 20))
    batch = predict_indices(model, rows)
    single = [int(np.argmax(model.weights.T @ r)) for r in rows]
    assert batch.tolist() == single


def test_predict_dimension_checks():
    model = RidgeModel(weights=np.ones((4, 2)), lam=0.0, label_map=("a", "b"))
    with pytest.raises(ValueError):
        predict_indices(model, np.ones(4))  # a lone vector is not a batch
    with pytest.raises(ValueError):
        predict_indices(model, np.ones((3, 5)))


def test_scores_are_the_readout_product_and_prediction_takes_their_argmax():
    rng = np.random.default_rng(13)
    model = train_ridge(random_design(rng), lam=0.1)
    rows = rng.normal(size=(25, 20))
    got = scores(model, rows)
    assert got.tobytes() == (rows @ model.weights).tobytes()
    assert predict_indices(model, rows).tolist() == np.argmax(got, axis=1).tolist()
    for bad in (np.ones(20), np.ones((3, 5))):
        with pytest.raises(ValueError):
            scores(model, bad)


# --- evaluation ---


def test_perfect_model_evaluates_clean():
    data = DesignMatrix(rows=np.eye(4), labels=[0, 1, 2, 3], class_count=4)
    model = train_ridge(data, lam=0.0)
    m = evaluate(model, data)
    assert m.accuracy == 1.0
    assert np.array_equal(m.confusion, np.eye(4, dtype=np.int64))
    assert np.allclose(m.per_class_accuracy, 1.0)


def test_random_weights_score_near_chance():
    rng = np.random.default_rng(29)
    c = 4
    rows = rng.normal(size=(2000, 16))
    labels = np.tile(np.arange(c), 500)
    test = DesignMatrix(rows=rows, labels=labels, class_count=c)
    model = RidgeModel(
        weights=rng.normal(size=(16, c)), lam=0.0, label_map=tuple("abcd")
    )
    assert abs(evaluate(model, test).accuracy - 1.0 / c) < 0.05


def test_absent_class_gets_nan_per_class_accuracy():
    test = DesignMatrix(rows=np.eye(3), labels=[0, 1, 1], class_count=3)
    model = train_ridge(
        DesignMatrix(rows=np.eye(3), labels=[0, 1, 2], class_count=3), lam=0.0
    )
    m = evaluate(model, test)
    assert np.isnan(m.per_class_accuracy[2])
    assert m.confusion.sum() == 3


def test_evaluate_rejects_mismatched_sets():
    data = DesignMatrix(rows=np.eye(3), labels=[0, 1, 2], class_count=3)
    model = train_ridge(data, lam=0.0)
    with pytest.raises(ValueError):
        evaluate(model, DesignMatrix(rows=np.eye(4), labels=[0, 1, 2, 0], class_count=3))
    with pytest.raises(ValueError):
        evaluate(model, DesignMatrix(rows=np.eye(3), labels=[0, 1, 1], class_count=2))


# --- design matrix validation ---


def test_design_matrix_contracts():
    # B < C: a test set may be that small, a training set may not.
    small = DesignMatrix(rows=np.ones((1, 3)), labels=[0], class_count=2)
    with pytest.raises(ValueError, match="per class"):
        train_ridge(small)
    with pytest.raises(ValueError):
        DesignMatrix(rows=np.ones((2, 3)), labels=[0, 2], class_count=2)
    with pytest.raises(ValueError):
        DesignMatrix(rows=np.array([[1.0], [np.nan]]), labels=[0, 1], class_count=2)
    with pytest.raises(ValueError):
        DesignMatrix(rows=np.ones((2, 2)), labels=[0], class_count=2)


# --- FOM accounting ---


def test_trainable_params_golden():
    assert trainable_params(600, 20) == 12_000
    assert trainable_params(1, 1) == 1
    with pytest.raises(ValueError):
        trainable_params(0, 4)


def test_training_macs_golden():
    # 100*16 + 64//3 + 100*4*2 + 16*2
    assert training_macs(100, 4, 2) == 2453
    with pytest.raises(ValueError):
        training_macs(0, 4, 2)


@pytest.mark.parametrize("n", [256, 600, 1024])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_split_mac_ratio_is_nearly_k_squared(n, k):
    """Splitting an N-node readout into k loops of N/k nodes must cut the
    Gram-dominated training cost by at least 0.8 k^2.

    Gram domination needs C << N/k; with many classes the B*N*C term is
    linear in N and drags the ratio toward k, so C is pinned at the
    4-class protocol task here.
    """
    b, c = 640, 4
    ratio = training_macs(b, n, c) / training_macs(b, n // k, c)
    assert ratio >= 0.8 * k * k
