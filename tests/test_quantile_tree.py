"""Tests for the quantile decision tree (the paper's Algorithms 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile_tree import QuantileDecisionTree, TreeConfig


def _piecewise_dataset(n=3000, seed=0):
    """Runtime depends on feature 0 (strongly) and feature 1 (weakly)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = 10.0 * np.floor(X[:, 0]) + 2.0 * (X[:, 1] > 5) + rng.normal(0, 0.3, n)
    return X, y


class TestFitting:
    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            QuantileDecisionTree().fit(np.empty((0, 2)), np.empty(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            QuantileDecisionTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(leaf_buffer_capacity=0)

    def test_constant_target_yields_single_leaf(self):
        X = np.random.default_rng(1).uniform(size=(500, 4))
        tree = QuantileDecisionTree().fit(X, np.full(500, 7.0))
        assert tree.num_leaves == 1
        assert tree.predict_wcet(X[0]) == 7.0

    def test_splits_reduce_leaf_variance(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree(TreeConfig(max_depth=8,
                                               min_samples_leaf=30)).fit(X, y)
        assert tree.num_leaves > 4
        leaves = tree.leaf_indices(X)
        total_var = y.var()
        within = sum(
            y[leaves == leaf].var() * (leaves == leaf).sum()
            for leaf in range(tree.num_leaves)
        ) / len(y)
        assert within < 0.15 * total_var

    def test_max_depth_bounds_leaves(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree(TreeConfig(max_depth=2)).fit(X, y)
        assert tree.num_leaves <= 4

    def test_min_samples_leaf_respected(self):
        X, y = _piecewise_dataset(n=1000)
        min_leaf = 50
        tree = QuantileDecisionTree(
            TreeConfig(min_samples_leaf=min_leaf)
        ).fit(X, y)
        leaves = tree.leaf_indices(X)
        for leaf in range(tree.num_leaves):
            assert (leaves == leaf).sum() >= min_leaf


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            QuantileDecisionTree().leaf_index(np.zeros(3))

    def test_wcet_is_leaf_maximum(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        leaves = tree.leaf_indices(X)
        x = X[0]
        leaf = tree.leaf_index(x)
        # The fitted buffers hold the (trailing window of) offline
        # samples in that leaf; the WCET is their maximum.
        expected = tree.leaves[leaf].max()
        assert tree.predict_wcet(x) == expected
        assert expected >= np.median(y[leaves == leaf])

    def test_wcet_covers_most_runtimes(self):
        X, y = _piecewise_dataset(seed=3)
        tree = QuantileDecisionTree().fit(X, y)
        predictions = np.array([tree.predict_wcet(x) for x in X[:500]])
        assert (predictions >= y[:500]).mean() > 0.97

    def test_predict_quantile_monotone(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        x = X[10]
        assert tree.predict_quantile(x, 0.5) <= tree.predict_quantile(x, 0.99)


class TestOnlinePhase:
    def test_observe_updates_leaf(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        x = X[0]
        before = tree.predict_wcet(x)
        tree.observe(x, before + 100.0)
        assert tree.predict_wcet(x) == before + 100.0

    def test_observe_only_affects_routed_leaf(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        assert tree.num_leaves >= 2
        x0 = X[0]
        leaf0 = tree.leaf_index(x0)
        other = next(x for x in X if tree.leaf_index(x) != leaf0)
        before_other = tree.predict_wcet(other)
        tree.observe(x0, 1e6)
        assert tree.predict_wcet(other) == before_other

    def test_online_samples_displace_offline(self):
        """The paper replaces offline leaf samples with online ones."""
        X, y = _piecewise_dataset(n=600)
        config = TreeConfig(leaf_buffer_capacity=8, min_samples_leaf=50)
        tree = QuantileDecisionTree(config).fit(X, y)
        x = X[0]
        for _ in range(8):
            tree.observe(x, 1.0)
        assert tree.predict_wcet(x) == 1.0

    def test_reset_online_empties_buffers(self):
        X, y = _piecewise_dataset(n=600)
        tree = QuantileDecisionTree().fit(X, y)
        tree.reset_online()
        with pytest.raises(ValueError):
            tree.predict_wcet(X[0])
        tree.observe(X[0], 42.0)
        assert tree.predict_wcet(X[0]) == 42.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_partition_property(seed):
    """Every input routes to exactly one leaf and routing is stable."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(400, 3))
    y = X[:, 0] ** 2 + rng.normal(0, 0.1, 400)
    tree = QuantileDecisionTree(TreeConfig(min_samples_leaf=20)).fit(X, y)
    probes = rng.uniform(-10, 10, size=(50, 3))
    first = [tree.leaf_index(p) for p in probes]
    second = [tree.leaf_index(p) for p in probes]
    assert first == second
    assert all(0 <= leaf < tree.num_leaves for leaf in first)


def _reference_leaf(tree, x, feature=None):
    """Route ``x`` over NumPy copies of the routing tables, one scalar
    index per node: the walk the list tables replaced."""
    feature = np.asarray(tree._feature if feature is None else feature,
                         dtype=np.int32)
    threshold = np.asarray(tree._threshold, dtype=np.float64)
    left = np.asarray(tree._left, dtype=np.int32)
    right = np.asarray(tree._right, dtype=np.int32)
    leaf_id = np.asarray(tree._leaf_id, dtype=np.int32)
    node = 0
    while leaf_id[node] < 0:
        node = left[node] if x[feature[node]] <= threshold[node] \
            else right[node]
    return int(leaf_id[node])


def _on_threshold_rows(tree, X):
    """Rows of ``X`` with one split feature set exactly to its threshold
    and to the neighbouring doubles on either side."""
    rows = []
    for node, f in enumerate(tree._feature):
        if f < 0:
            continue
        t = tree._threshold[node]
        for value in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
            row = X[node % len(X)].copy()
            row[f] = value
            rows.append(row)
    return np.array(rows).reshape(-1, X.shape[1])


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([5, 20, 60]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_list_walk_matches_array_reference(seed, d, depth, min_leaf,
                                           discrete):
    """The list walk, the level-synchronous batch walk and a remapped
    walk over a wider row all agree with the NumPy reference walk, also
    on rows that land exactly on a split threshold."""
    rng = np.random.default_rng(seed)
    n = 400
    X = rng.uniform(-5, 5, size=(n, d))
    if discrete:
        X = np.round(X)
    y = np.sin(X).sum(axis=1) * 10 + rng.normal(0, 0.5, n)
    tree = QuantileDecisionTree(
        TreeConfig(max_depth=depth, min_samples_leaf=min_leaf)).fit(X, y)
    probes = np.vstack([X[:100], rng.uniform(-8, 8, size=(50, d)),
                        _on_threshold_rows(tree, X)])
    expected = [_reference_leaf(tree, row) for row in probes]
    assert [tree.leaf_index(row) for row in probes] == expected
    batch = tree.leaf_indices(probes)
    assert batch.dtype == np.int64
    assert batch.tolist() == expected
    # The fitted columns scattered into a wider row, routed in place.
    width = d + 3
    columns = rng.permutation(width)[:d].tolist()
    remapped = tree.remap_features(columns)
    wide = rng.uniform(-8, 8, size=(len(probes), width))
    wide[:, columns] = probes
    assert [tree.leaf_index(row, remapped) for row in wide] == expected
    assert [_reference_leaf(tree, row, remapped) for row in wide] == expected


def test_leaf_indices_of_no_rows():
    X, y = _piecewise_dataset(n=300)
    tree = QuantileDecisionTree().fit(X, y)
    assert tree.leaf_indices(np.empty((0, 3))).tolist() == []
    with pytest.raises(RuntimeError):
        QuantileDecisionTree().leaf_indices(X)
