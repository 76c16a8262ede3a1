import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from mvipkg.data import (Dataset, MixtureTarget2D, SplitPlan, cauchy_curve,
                         generate_cauchy_task, load_csv_dataset,
                         load_split_indices, make_splits, standardize)
from mvipkg.errors import DataError

from makers import finite_difference_gradient, finite_difference_jacobian


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def test_dataset_row_mismatch():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(4), "regression")


def test_dataset_unknown_kind():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(3), "ranking")


def test_dataset_target_coding():
    d = Dataset(np.zeros((3, 1)), [1.0, 0.0, 1.0], "binary")
    assert d.y.dtype.kind == "i"
    m = Dataset(np.zeros((2, 1)), [[1, 0], [0, 1]], "multiclass")
    assert m.y.shape == (2, 2)
    assert m.n == 2 and m.n_features == 1


# ---------------------------------------------------------------------------
# synthetic regression task
# ---------------------------------------------------------------------------

def test_curve_closed_form_values():
    assert cauchy_curve(0.0) == 0.0
    assert cauchy_curve(10.0) == pytest.approx(3.0 * math.sin(7.0) - 3.0)
    assert cauchy_curve(-10.0) == pytest.approx(3.0 * math.sin(7.0) - 3.0)


def test_generated_task_shapes_and_noise_bounds():
    train, test = generate_cauchy_task(seed=0, n_train=50, n_test=1000)
    assert train.X.shape == (50, 1) and test.X.shape == (1000, 1)
    assert train.kind == "regression"
    assert np.all(train.X >= -10) and np.all(train.X <= 10)
    resid = train.y - cauchy_curve(train.X[:, 0])
    assert np.all(np.abs(resid) <= 0.5)
    resid_test = test.y - cauchy_curve(test.X[:, 0])
    assert np.all(np.abs(resid_test) <= 0.5)


def test_generated_task_seeded():
    a_train, a_test = generate_cauchy_task(seed=3, n_train=10, n_test=20)
    b_train, b_test = generate_cauchy_task(seed=3, n_train=10, n_test=20)
    np.testing.assert_array_equal(a_train.X, b_train.X)
    np.testing.assert_array_equal(a_test.y, b_test.y)
    c_train, _ = generate_cauchy_task(seed=4, n_train=10, n_test=20)
    assert not np.array_equal(a_train.X, c_train.X)


# ---------------------------------------------------------------------------
# 2-D mixture target
# ---------------------------------------------------------------------------

def test_mixture_normalized():
    target = MixtureTarget2D()
    xs = np.linspace(-10, 10, 501)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mass = np.exp(target.log_density(pts)).sum() * (xs[1] - xs[0]) ** 2
    assert 0.99 <= mass <= 1.01


def test_mixture_log_density_matches_scipy():
    target = MixtureTarget2D()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-4, 4, size=(20, 2))
    dens = sum(w * multivariate_normal(mean=m, cov=c).pdf(pts)
               for w, m, c in zip(target.weights, target.means, target.covs))
    np.testing.assert_allclose(target.log_density(pts), np.log(dens),
                               rtol=1.0e-10)


def test_mixture_gradient_matches_finite_differences():
    target = MixtureTarget2D()
    rng = np.random.default_rng(2)
    for _ in range(4):
        w = rng.uniform(-3, 3, size=2)
        fd = finite_difference_gradient(target.value, w)
        np.testing.assert_allclose(target.grad(w), fd, rtol=1.0e-6,
                                   atol=1.0e-9)


def test_mixture_hessian_matches_finite_differences():
    target = MixtureTarget2D()
    rng = np.random.default_rng(3)
    for _ in range(4):
        w = rng.uniform(-3, 3, size=2)
        fd = finite_difference_jacobian(target.grad, w)
        np.testing.assert_allclose(target.hessian(w), 0.5 * (fd + fd.T),
                                   rtol=5.0e-5, atol=1.0e-7)


def test_mixture_model_protocol():
    target = MixtureTarget2D()
    assert target.P == 2
    assert target.theta.size == 0
    assert target.with_theta(np.zeros(0)) is target
    W = np.zeros((3, 2))
    assert target.theta_grads(W).shape == (3, 0)
    np.testing.assert_allclose(target.values(W),
                               np.full(3, target.value(np.zeros(2))))


def test_mixture_dominant_mode_near_origin():
    target = MixtureTarget2D()
    # the 2/3-weight component is the round one at the origin
    assert target.value(np.zeros(2)) > target.value(np.array([-1.0, -2.0]))


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_csv_regression_with_header(tmp_path):
    p = _write(tmp_path, "x1,x2,y\n1,2,3.5\n4,5,6.5\n")
    d = load_csv_dataset(p)
    assert d.kind == "regression"
    np.testing.assert_array_equal(d.X, [[1, 2], [4, 5]])
    np.testing.assert_array_equal(d.y, [3.5, 6.5])
    assert d.name == "d"


def test_csv_binary_inference_and_pm1_mapping(tmp_path):
    p = _write(tmp_path, "1,0,-1\n2,1,1\n3,0,-1\n")
    d = load_csv_dataset(p)
    assert d.kind == "binary"
    np.testing.assert_array_equal(d.y, [0, 1, 0])


def test_csv_multiclass_one_hot(tmp_path):
    p = _write(tmp_path, "0.5,2\n1.5,0\n2.5,1\n3.5,2\n")
    d = load_csv_dataset(p, task="multiclass")
    assert d.y.shape == (4, 3)
    np.testing.assert_array_equal(d.y.argmax(axis=1), [2, 0, 1, 2])
    np.testing.assert_array_equal(d.y.sum(axis=1), 1.0)


def test_csv_errors_cite_line_numbers(tmp_path):
    ragged = _write(tmp_path, "1,2,3\n4,5\n", name="r.csv")
    with pytest.raises(DataError, match="r.csv:2"):
        load_csv_dataset(ragged)
    textual = _write(tmp_path, "1,2,3\n4,x,6\n", name="t.csv")
    with pytest.raises(DataError, match="t.csv:2"):
        load_csv_dataset(textual)


def test_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv_dataset("/nonexistent/path.csv")
    with pytest.raises(DataError, match="not found"):   # a directory
        load_csv_dataset(tmp_path)


def test_csv_empty_and_single_column(tmp_path):
    empty = _write(tmp_path, "a,b\n", name="e.csv")
    with pytest.raises(DataError, match="no data"):
        load_csv_dataset(empty)
    narrow = _write(tmp_path, "1\n2\n", name="n.csv")
    with pytest.raises(DataError, match="at least one feature"):
        load_csv_dataset(narrow)


def test_csv_bad_binary_labels(tmp_path):
    p = _write(tmp_path, "1,5\n2,7\n")
    with pytest.raises(DataError, match="binary"):
        load_csv_dataset(p, task="binary")


def test_csv_blank_lines_skipped(tmp_path):
    p = _write(tmp_path, "1,2\n\n3,4\n\n")
    d = load_csv_dataset(p, task="regression")
    assert d.n == 2


# ---------------------------------------------------------------------------
# splits and standardisation
# ---------------------------------------------------------------------------

def test_split_index_file_round_trip(tmp_path):
    p = tmp_path / "splits.txt"
    p.write_text("1 2 3\n2 4 5\n")
    splits = load_split_indices(p, n_rows=5)
    assert len(splits) == 2
    np.testing.assert_array_equal(splits[0], [0, 1, 2])
    np.testing.assert_array_equal(splits[1], [1, 3, 4])


def test_split_index_file_validation(tmp_path):
    bad = tmp_path / "s.txt"
    bad.write_text("0 1\n")
    with pytest.raises(DataError, match="1..4"):
        load_split_indices(bad, n_rows=4)
    bad.write_text("1 2 9\n")
    with pytest.raises(DataError, match="1..4"):
        load_split_indices(bad, n_rows=4)
    bad.write_text("1 2 2\n")
    with pytest.raises(DataError, match="duplicate"):
        load_split_indices(bad, n_rows=4)
    bad.write_text("1 2 3 4\n")
    with pytest.raises(DataError, match="no test rows"):
        load_split_indices(bad, n_rows=4)
    bad.write_text("1 two\n")
    with pytest.raises(DataError, match="non-integer"):
        load_split_indices(bad, n_rows=4)
    bad.write_text("\n\n")
    with pytest.raises(DataError, match="no splits"):
        load_split_indices(bad, n_rows=4)
    with pytest.raises(DataError, match="not found"):   # a directory
        load_split_indices(tmp_path, n_rows=4)


def test_standardize_uses_training_statistics_only():
    rng = np.random.default_rng(4)
    train = Dataset(rng.normal(5, 2, size=(40, 3)), rng.standard_normal(40),
                    "regression")
    test = Dataset(rng.normal(5, 2, size=(10, 3)), rng.standard_normal(10),
                   "regression")
    tr, te = standardize(train, test)
    np.testing.assert_allclose(tr.X.mean(axis=0), 0.0, atol=1.0e-12)
    np.testing.assert_allclose(tr.X.std(axis=0), 1.0, atol=1.0e-12)
    # test set transformed by train statistics, not its own
    np.testing.assert_allclose(te.X, (test.X - tr.mean) / tr.sd, atol=1.0e-12)
    assert not np.allclose(te.X.mean(axis=0), 0.0, atol=1.0e-3)


def test_standardize_constant_column_left_unscaled():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    train = Dataset(X, np.zeros(5), "regression")
    tr, _ = standardize(train, train)
    np.testing.assert_array_equal(tr.X[:, 0], 0.0)
    assert tr.sd[0] == 1.0


def test_make_splits_shuffle_protocol():
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((20, 2)), rng.standard_normal(20),
                   "regression")
    plan = SplitPlan(n_splits=3, train_fraction=0.7, seed=10)
    splits = make_splits(data, plan)
    assert len(splits) == 3
    assert [s[2] for s in splits] == [10, 11, 12]
    for tr, te, _ in splits:
        assert tr.n == 14 and te.n == 6
    # the documented protocol: seeded permutation, first block trains
    perm = np.random.default_rng(10).permutation(20)
    raw_train = data.X[perm[:14]]
    tr0 = splits[0][0]
    np.testing.assert_allclose(tr0.X * tr0.sd + tr0.mean, raw_train,
                               atol=1.0e-12)


def test_make_splits_deterministic():
    rng = np.random.default_rng(6)
    data = Dataset(rng.standard_normal((15, 2)), rng.standard_normal(15),
                   "regression")
    plan = SplitPlan(n_splits=2, train_fraction=0.6, seed=3)
    a = make_splits(data, plan)
    b = make_splits(data, plan)
    for (tr_a, te_a, _), (tr_b, te_b, _) in zip(a, b):
        np.testing.assert_array_equal(tr_a.X, tr_b.X)
        np.testing.assert_array_equal(te_a.y, te_b.y)


def test_make_splits_from_index_file(tmp_path):
    p = tmp_path / "splits.txt"
    p.write_text("1 2 3 4\n5 6 7 8\n")
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8),
                   "regression")
    plan = SplitPlan(seed=100, indices_path=str(p))
    splits = make_splits(data, plan)
    assert len(splits) == 2
    tr, te, seed0 = splits[0]
    assert seed0 == 100
    assert tr.n == 4 and te.n == 4
    np.testing.assert_allclose(te.X * te.sd + te.mean, data.X[4:],
                               atol=1.0e-12)


def test_make_splits_degenerate_fraction():
    data = Dataset(np.zeros((5, 1)), np.zeros(5), "regression")
    with pytest.raises(DataError, match="fraction"):
        make_splits(data, SplitPlan(n_splits=1, train_fraction=1.0))
    with pytest.raises(DataError, match="fraction"):
        make_splits(data, SplitPlan(n_splits=1, train_fraction=0.0))
