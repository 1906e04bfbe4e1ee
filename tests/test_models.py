import functools
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi import models
from dualmsi.core import Label
from dualmsi.errors import ValidationError
from dualmsi.features import DataMatrix
from dualmsi.models import (
    DecisionTree,
    Granularity,
    KNearestNeighbors,
    LinearSVM,
    LogisticRegressionGD,
    RandomForest,
    evaluate,
    model_from_json,
    split_matrix,
    stratified_split,
)
from dualmsi.synth import stream

from test_features import matrix_from


def two_cluster_fixture(rng, n_per=20, spread=0.3):
    a = rng.normal(size=(n_per, 2)) * spread + np.array([0.0, 0.0])
    b = rng.normal(size=(n_per, 2)) * spread + np.array([3.0, 3.0])
    x = np.vstack([a, b])
    y = np.array([0.0] * n_per + [1.0] * n_per)
    return x, y


class TestStratifiedSplit:
    def make_matrix(self, labels_per_sample, rows_per_sample=4):
        rows, meta = [], []
        rng = np.random.default_rng(0)
        for i, label in enumerate(labels_per_sample):
            for _ in range(rows_per_sample):
                rows.append(rng.random(3))
                meta.append((f"s{i:03d}", Label.adulteration(float(label))))
        return DataMatrix(values=np.array(rows), col_labels=("a", "b", "c"), row_meta=tuple(meta))

    def test_nine_by_eight_gives_six_two(self):
        labels = [lv for lv in range(0, 45, 5) for _ in range(8)]
        matrix = self.make_matrix(labels)
        split = stratified_split(matrix, 0.75, seed=1)
        assert len(split.train_ids) == 54 and len(split.test_ids) == 18
        train, test = split_matrix(matrix, split)
        for lv in range(0, 45, 5):
            assert (train.label_keys() == lv).sum() == 6 * 4
            assert (test.label_keys() == lv).sum() == 2 * 4

    def test_deterministic(self):
        labels = [lv for lv in range(0, 45, 5) for _ in range(8)]
        matrix = self.make_matrix(labels)
        assert stratified_split(matrix, seed=7) == stratified_split(matrix, seed=7)
        assert stratified_split(matrix, seed=7) != stratified_split(matrix, seed=8)

    def test_sample_level_keeps_rows_together(self):
        labels = [0, 0, 0, 5, 5, 5]
        matrix = self.make_matrix(labels)
        split = stratified_split(matrix, 0.75, seed=3)
        train, test = split_matrix(matrix, split)
        train_ids = {sid for sid, _ in train.row_meta}
        test_ids = {sid for sid, _ in test.row_meta}
        assert not train_ids & test_ids

    def test_row_level_straddles_with_warning(self):
        labels = [0, 5]  # one sample per class
        matrix = self.make_matrix(labels, rows_per_sample=8)
        with pytest.warns(UserWarning, match="leakage"):
            split = stratified_split(matrix, 0.75, seed=3, granularity=Granularity.ROW)
        train, test = split_matrix(matrix, split)
        train_ids = {sid for sid, _ in train.row_meta}
        test_ids = {sid for sid, _ in test.row_meta}
        assert train_ids & test_ids  # rows of one sample on both sides

    def test_small_class_rejected(self):
        matrix = self.make_matrix([0, 5, 5])
        with pytest.raises(ValidationError):
            stratified_split(matrix, 0.75, seed=0)

    def test_fraction_bounds(self):
        matrix = self.make_matrix([0, 0, 5, 5])
        with pytest.raises(ValidationError):
            stratified_split(matrix, 1.0, seed=0)


class TestKnn:
    def test_exact_training_row(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = KNearestNeighbors(k=1).fit(x, y)
        assert model.predict(np.array([[1.0, 1.0]]))[0] == 20.0

    def test_two_cluster_fixture(self):
        rng = np.random.default_rng(42)
        x, y = two_cluster_fixture(rng)
        hold_x, hold_y = two_cluster_fixture(np.random.default_rng(43), n_per=4)
        model = KNearestNeighbors(k=3).fit(x, y)
        assert np.all(model.predict(hold_x) == hold_y)

    def test_matches_bruteforce_on_30_points(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30).astype(float)
        queries = rng.normal(size=(12, 4))
        k = 5
        model = KNearestNeighbors(k=k).fit(x, y)
        got = model.predict(queries)
        for qi, q in enumerate(queries):
            dists = np.array([((q - row) ** 2).sum() for row in x])
            nearest = np.argsort(dists, kind="stable")[:k]
            votes = y[nearest]
            labels, counts = np.unique(votes, return_counts=True)
            tied = labels[counts == counts.max()]
            sums = np.array([dists[nearest][votes == l].sum() for l in tied])
            assert got[qi] == tied[np.argmin(sums)]

    def test_k_exceeds_train(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            KNearestNeighbors(k=4).fit(x, np.zeros(3))

    def test_tie_breaks_toward_smaller_summed_distance(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([1.0, 2.0])
        model = KNearestNeighbors(k=2).fit(x, y)
        # query nearer to label 1: counts tie, label 1 has smaller distance
        assert model.predict(np.array([[0.5]]))[0] == 1.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(45)
        x, y = two_cluster_fixture(rng, n_per=5)
        model = KNearestNeighbors(k=3).fit(x, y)
        again = model_from_json(model.to_json())
        queries = rng.normal(size=(6, 2))
        assert np.array_equal(model.predict(queries), again.predict(queries))


class TestDecisionTree:
    def test_separable_one_dim(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = DecisionTree().fit(x, y)
        assert np.all(model.predict(x) == y)
        assert "feature" in model.root and "leaf" in model.root["left"]

    def test_pure_node_is_leaf(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        y = np.full(10, 7.0)
        model = DecisionTree().fit(x, y)
        assert model.root == {"leaf": 0}

    def test_xor_needs_depth_two(self):
        # no single axis split reduces impurity, but the greedy tree must
        # still split and reach purity at depth 2 (verified by enumerating
        # all axis splits: every root gain is zero)
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        for f in range(2):
            for thr in (0.5,):
                left, right = y[x[:, f] <= thr], y[x[:, f] > thr]
                gini = lambda v: 1 - sum((np.mean(v == c)) ** 2 for c in np.unique(y))
                gain = gini(y) - (len(left) * gini(left) + len(right) * gini(right)) / 4
                assert gain == pytest.approx(0.0)
        model = DecisionTree().fit(x, y)
        assert np.all(model.predict(x) == y)

    def test_max_depth_limits(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        stump = DecisionTree(max_depth=1).fit(x, y)
        assert (stump.predict(x) == y).mean() == 0.5

    def test_threshold_is_midpoint(self):
        x = np.array([[1.0], [3.0]])
        y = np.array([0.0, 1.0])
        model = DecisionTree().fit(x, y)
        assert model.root["threshold"] == pytest.approx(2.0)

    @pytest.mark.parametrize("top", [1.5e308, np.inf])
    def test_overflowing_midpoint_is_validation_error(self, top):
        with pytest.raises(ValidationError), np.errstate(over="ignore"):
            DecisionTree().fit(np.array([[1e308], [top]]), np.array([0.0, 1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, 60).astype(float)
        a = DecisionTree().fit(x, y)
        b = DecisionTree().fit(x, y)
        assert a.root == b.root

    def test_json_round_trip(self):
        rng = np.random.default_rng(47)
        x, y = two_cluster_fixture(rng)
        model = DecisionTree().fit(x, y)
        again = model_from_json(model.to_json())
        queries = rng.normal(size=(10, 2)) * 2
        assert np.array_equal(model.predict(queries), again.predict(queries))


class TestRandomForest:
    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(48)
        x, y = two_cluster_fixture(rng)
        tree = DecisionTree().fit(x, y)
        forest = RandomForest(n_trees=1, mtry=2, bootstrap=False, seed=0).fit(x, y)
        queries = rng.normal(size=(20, 2)) * 2
        assert np.array_equal(tree.predict(queries), forest.predict(queries))

    def test_same_seed_same_predictions(self):
        rng = np.random.default_rng(49)
        x, y = two_cluster_fixture(rng)
        queries = rng.normal(size=(10, 2)) * 2
        a = RandomForest(n_trees=7, seed=5).fit(x, y).predict(queries)
        b = RandomForest(n_trees=7, seed=5).fit(x, y).predict(queries)
        assert np.array_equal(a, b)

    def test_at_least_as_good_as_tree_on_fixture(self):
        rng = np.random.default_rng(50)
        x, y = two_cluster_fixture(rng, n_per=40, spread=1.2)
        test_x, test_y = two_cluster_fixture(np.random.default_rng(51), n_per=40, spread=1.2)
        tree_acc = (DecisionTree().fit(x, y).predict(test_x) == test_y).mean()
        forest_acc = (
            RandomForest(n_trees=25, seed=2).fit(x, y).predict(test_x) == test_y
        ).mean()
        assert forest_acc >= tree_acc

    def test_json_round_trip(self):
        rng = np.random.default_rng(52)
        x, y = two_cluster_fixture(rng, n_per=10)
        model = RandomForest(n_trees=5, seed=1).fit(x, y)
        again = model_from_json(model.to_json())
        queries = rng.normal(size=(8, 2)) * 2
        assert np.array_equal(model.predict(queries), again.predict(queries))


class TestLogistic:
    def test_gradient_matches_central_differences(self):
        # finite-difference oracle on a random 5x3 batch, epsilon 1e-5
        rng = np.random.default_rng(53)
        x = rng.normal(size=(5, 3))
        y = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        model = LogisticRegressionGD(l2=1e-4)
        classes = np.unique(y)
        onehot = (y[:, None] == classes[None, :]).astype(float)
        weights = rng.normal(size=(3, 3)) * 0.5
        bias = rng.normal(size=3) * 0.5
        _, grad_w, grad_b = model.loss_and_grads(x, onehot, weights, bias)
        eps = 1e-5
        for target, grad in ((weights, grad_w), (bias, grad_b)):
            numeric = np.zeros_like(target)
            it = np.nditer(target, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + eps
                up, *_ = model.loss_and_grads(x, onehot, weights, bias)
                target[idx] = orig - eps
                down, *_ = model.loss_and_grads(x, onehot, weights, bias)
                target[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
                it.iternext()
            rel = np.abs(numeric - grad) / np.maximum(np.abs(numeric) + np.abs(grad), 1e-8)
            assert rel.max() < 1e-4

    def test_separable_one_dim(self):
        x = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = LogisticRegressionGD(epochs=500, lr=1.0).fit(x, y)
        assert np.all(model.predict(x) == y)

    def test_identical_classes_symmetric(self):
        x = np.tile(np.array([[1.0, 2.0]]), (10, 1))
        y = np.array([0.0, 1.0] * 5)
        model = LogisticRegressionGD(epochs=200).fit(x, y)
        assert np.abs(model.weights).max() < 1e-6
        # prior tie: argmax picks the first (smallest) class
        assert model.predict(np.array([[1.0, 2.0]]))[0] == 0.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(54)
        x, y = two_cluster_fixture(rng, n_per=10)
        model = LogisticRegressionGD(epochs=300).fit(x, y)
        again = model_from_json(model.to_json())
        queries = rng.normal(size=(8, 2)) * 2
        assert np.array_equal(model.predict(queries), again.predict(queries))


class TestLinearSvm:
    def test_separable_one_dim_boundary(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = LinearSVM(epochs=500).fit(x, y)
        assert np.all(model.predict(x) == y)
        scores = lambda v: (np.array([[v]]) @ model.weights.T + model.bias)[0]
        crossing_low = np.argmax(scores(-0.999)) == 0
        crossing_high = np.argmax(scores(0.999)) == 1
        assert crossing_low and crossing_high  # boundary strictly inside (-1, 1)

    def test_argmax_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(55)
        x, y = two_cluster_fixture(rng, n_per=10)
        model = LinearSVM(epochs=300).fit(x, y)
        queries = rng.normal(size=(10, 2)) * 2
        base = model.predict(queries)
        model.weights = model.weights * 3.7
        model.bias = model.bias * 3.7
        assert np.array_equal(model.predict(queries), base)

    def test_close_to_logistic_on_blobs(self):
        rng = np.random.default_rng(56)
        x, y = two_cluster_fixture(rng, n_per=60, spread=1.4)
        tx, ty = two_cluster_fixture(np.random.default_rng(57), n_per=60, spread=1.4)
        svm_acc = (LinearSVM(epochs=800).fit(x, y).predict(tx) == ty).mean()
        log_acc = (LogisticRegressionGD(epochs=800).fit(x, y).predict(tx) == ty).mean()
        assert abs(svm_acc - log_acc) <= 0.02

    def test_json_round_trip(self):
        rng = np.random.default_rng(58)
        x, y = two_cluster_fixture(rng, n_per=10)
        model = LinearSVM(epochs=200).fit(x, y)
        again = model_from_json(model.to_json())
        queries = rng.normal(size=(8, 2)) * 2
        assert np.array_equal(model.predict(queries), again.predict(queries))

    def test_json_names_the_multiclass_loss_and_rejects_others(self):
        obj = LinearSVM(epochs=10).fit(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0])).to_json()
        assert obj["loss"] == "multiclass"
        with pytest.raises(ValidationError):
            model_from_json({**obj, "loss": "ovr"})


class TestEvaluate:
    def test_perfect_predictions_diagonal(self):
        matrix = matrix_from([[0.0], [1.0], [2.0]], labels=[0, 1, 2])

        class Echo:
            def predict(self, x):
                return x[:, 0]

        cm = evaluate(Echo(), matrix)
        assert cm.accuracy == 1.0
        assert np.array_equal(cm.counts, np.eye(3, dtype=int))

    def test_constant_predictor_on_balanced_classes(self):
        labels = [float(lv) for lv in range(9) for _ in range(4)]
        matrix = matrix_from(np.zeros((36, 1)), labels=labels)

        class AlwaysZero:
            def predict(self, x):
                return np.zeros(x.shape[0])

        cm = evaluate(AlwaysZero(), matrix)
        assert cm.accuracy == pytest.approx(1 / 9)

    def test_counts_conserved(self):
        rng = np.random.default_rng(59)
        labels = rng.integers(0, 4, 40).astype(float)
        matrix = matrix_from(rng.normal(size=(40, 2)), labels=labels)

        class Noisy:
            def predict(self, x):
                return rng.integers(0, 4, x.shape[0]).astype(float)

        cm = evaluate(Noisy(), matrix)
        assert cm.total == 40
        for i, label in enumerate(cm.labels):
            assert cm.counts[i].sum() == (labels == label).sum()

    def test_recall_per_class(self):
        matrix = matrix_from([[0.0], [0.0], [1.0]], labels=[0, 0, 1])

        class Echo:
            def predict(self, x):
                return x[:, 0]

        recall = evaluate(Echo(), matrix).per_class_recall()
        assert recall == {0.0: 1.0, 1.0: 1.0}


# --------------------------------------------------------------------------
# Reference implementations: the recursive grower that re-sorts every
# candidate feature at every node, the nested-dict walk, and the per-row
# KNN vote.  The vectorized models must reproduce them exactly.
# --------------------------------------------------------------------------


def oracle_gini(counts, total):
    p = counts / total
    return float(1.0 - (p * p).sum())


def oracle_best_split(x, y_idx, n_classes, features, min_leaf):
    n = x.shape[0]
    total_counts = np.bincount(y_idx, minlength=n_classes)
    parent = oracle_gini(total_counts, n)
    best = None
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_idx[order]] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[boundaries]
        n_left = boundaries + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        right_counts = total_counts - left_counts
        gini_left = 1.0 - (left_counts**2).sum(axis=1) / n_left**2
        gini_right = 1.0 - (right_counts**2).sum(axis=1) / n_right**2
        gain = parent - (n_left * gini_left + n_right * gini_right) / n
        gain[~valid] = -np.inf
        pick = int(np.argmax(gain))
        if gain[pick] == -np.inf:
            continue
        threshold = (xs[boundaries[pick]] + xs[boundaries[pick] + 1]) / 2.0
        if best is None or gain[pick] > best[0]:
            best = (float(gain[pick]), int(f), float(threshold))
    return best


def oracle_grow(x, y_idx, n_classes, depth, max_depth, min_leaf, pick):
    counts = np.bincount(y_idx, minlength=n_classes)
    majority = int(np.argmax(counts))
    if counts.max() == y_idx.size:
        return {"leaf": majority}
    if max_depth is not None and depth >= max_depth:
        return {"leaf": majority}
    if y_idx.size < 2 * min_leaf:
        return {"leaf": majority}
    features = np.arange(x.shape[1]) if pick is None else pick(x.shape[1])
    found = oracle_best_split(x, y_idx, n_classes, features, min_leaf)
    if found is None:
        return {"leaf": majority}
    _, feature, threshold = found
    mask = x[:, feature] <= threshold
    grow = lambda m: oracle_grow(x[m], y_idx[m], n_classes, depth + 1, max_depth, min_leaf, pick)
    return {"feature": feature, "threshold": threshold, "left": grow(mask), "right": grow(~mask)}


def oracle_tree_json(x, y, max_depth=None, min_leaf=1, pick=None):
    classes = np.unique(y)
    root = oracle_grow(x, np.searchsorted(classes, y), classes.size, 0, max_depth, min_leaf, pick)
    return {
        "kind": "decision_tree",
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "classes": classes.tolist(),
        "root": root,
    }


def oracle_forest_json(x, y, n_trees, mtry, bootstrap, seed, max_depth, min_leaf):
    n, d = x.shape
    m = min(mtry if mtry is not None else math.ceil(math.sqrt(d)), d)
    trees = []
    for t in range(n_trees):
        rng = stream(seed, "forest", t)
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        pick = (lambda dim: np.sort(rng.choice(dim, size=m, replace=False))) if m < d else None
        trees.append(oracle_tree_json(x[idx], y[idx], max_depth, min_leaf, pick))
    return {
        "kind": "random_forest",
        "n_trees": n_trees,
        "mtry": mtry,
        "bootstrap": bootstrap,
        "seed": seed,
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "classes": np.unique(y).tolist(),
        "trees": trees,
    }


def oracle_tree_predict(tree_json, x):
    out = []
    for row in x:
        node = tree_json["root"]
        while "leaf" not in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        out.append(tree_json["classes"][node["leaf"]])
    return np.array(out)


def oracle_forest_predict(forest_json, x):
    votes = np.stack([oracle_tree_predict(t, x) for t in forest_json["trees"]])
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        labels, counts = np.unique(votes[:, i], return_counts=True)
        out[i] = labels[counts == counts.max()].min()
    return out


def oracle_knn_predict(train_x, train_y, k, x):
    """Criterion 08's rule: exact squared distances summed over features in
    column order, the k nearest in stable (distance, training row) order, and
    vote ties to the smallest sum of their distances added nearest first,
    then to the smallest label."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        dists = np.zeros(train_x.shape[0])
        for j in range(train_x.shape[1]):
            dists += (row[j] - train_x[:, j]) ** 2
        nearest = np.argsort(dists, kind="stable")[:k]
        votes = train_y[nearest]
        labels = np.unique(votes)
        counts = np.array([(votes == l).sum() for l in labels])
        sums = np.array([functools.reduce(operator.add, dists[nearest][votes == l], 0.0)
                         for l in labels])
        best = counts == counts.max()
        out[i] = labels[best][np.argmin(sums[best])]
    return out


@st.composite
def labelled_matrices(draw, max_rows=24, max_cols=4):
    """Small matrices on a coarse grid (many tied values), sometimes with a
    constant column, and one to four classes."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    grid = draw(st.lists(st.integers(-4, 4), min_size=n * d, max_size=n * d))
    x = np.array(grid, dtype=np.float64).reshape(n, d) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    constant = draw(st.integers(-1, d - 1))
    if constant >= 0:
        x[:, constant] = 0.25
    n_classes = draw(st.integers(1, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))) * 5.0
    return x, y


def as_saved(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class TestEquivalenceWithReference:
    @settings(max_examples=150, deadline=None)
    @given(
        data=labelled_matrices(),
        min_leaf=st.integers(1, 4),
        max_depth=st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_tree_json_and_predictions(self, data, min_leaf, max_depth):
        x, y = data
        model = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(x, y)
        want = oracle_tree_json(x, y, max_depth, min_leaf)
        assert as_saved(model.to_json()) == as_saved(want)
        queries = np.vstack([x, x + 0.1, x - 0.3])
        assert np.array_equal(model.predict(queries), oracle_tree_predict(want, queries))

    @settings(max_examples=60, deadline=None)
    @given(
        data=labelled_matrices(),
        n_trees=st.integers(1, 3),
        mtry=st.one_of(st.none(), st.integers(1, 4)),
        bootstrap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        min_leaf=st.integers(1, 4),
        max_depth=st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_forest_json_and_predictions(
        self, data, n_trees, mtry, bootstrap, seed, min_leaf, max_depth
    ):
        x, y = data
        params = dict(n_trees=n_trees, mtry=mtry, bootstrap=bootstrap, seed=seed,
                      max_depth=max_depth, min_leaf=min_leaf)
        model = RandomForest(**params).fit(x, y)
        want = oracle_forest_json(x, y, **params)
        assert as_saved(model.to_json()) == as_saved(want)
        queries = np.vstack([x, x + 0.1])
        assert np.array_equal(model.predict(queries), oracle_forest_predict(want, queries))

    @settings(max_examples=150, deadline=None)
    @given(data=labelled_matrices(), queries=labelled_matrices(), k=st.integers(1, 24))
    def test_knn_predictions(self, data, queries, k):
        x, y = data
        q = queries[0][:, :1].repeat(x.shape[1], axis=1)  # grid points: exact-distance ties
        k = min(k, x.shape[0])
        got = KNearestNeighbors(k=k).fit(x, y).predict(q)
        assert np.array_equal(got, oracle_knn_predict(x, y, k, q))

    def test_knn_vote_sums_add_nearest_first(self):
        # 8 votes each: nearest first, class 1's squared distances sum 1 * 7
        # + 2**54 to 2**54 + 8 and class 2's to 2**54, where adding in
        # training-row order gives 2**54 for both and a tie
        x = np.array([2.0**27] + [1.0] * 7 + [-(2.0**27)] + [0.0] * 7)[:, None]
        y = np.array([1.0] * 8 + [2.0] * 8)
        q = np.zeros((1, 1))
        got = KNearestNeighbors(k=16).fit(x, y).predict(q)
        assert got[0] == oracle_knn_predict(x, y, 16, q)[0] == 2.0


def budget_for(block_rows, n_train):
    """A ``WORKING_MEMORY`` whose predict blocks hold ``block_rows`` rows."""
    return 2 * block_rows * models._knn_row_bytes(n_train)


# A diagonal query point is exactly as far from a training row near the
# diagonal as from its mirror; OpenBLAS rounds the products of this grid's
# mirrored pairs differently with one and with two threads.
THREADED_PREDICT = """
import numpy as np
from dualmsi.models import KNearestNeighbors
rng = np.random.default_rng(3)
n, d = 867, 8
x = (rng.integers(-4, 5, size=(n, 1)) + rng.integers(-1, 2, size=(n, d))) / 7.0
x, y = np.vstack([x, x[:, ::-1]]), np.repeat([0.0, 1.0], n)
q = np.repeat(rng.integers(-4, 5, size=(502, 1)) / 7.0, d, axis=1)
print(KNearestNeighbors(k=1).fit(x, y).predict(q).tobytes().hex())
"""


class TestBlockedKnn:
    """A label depends only on its test row and the training set: not on
    the other rows of the batch, their order, the block size or the BLAS
    thread count."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=labelled_matrices(max_rows=30, max_cols=12),
        k=st.integers(1, 40),
        n_test=st.integers(1, 40),
        block_rows=st.integers(1, 80),
        diagonal=st.booleans(),
        mirrored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_label_depends_on_the_row_alone(self, data, k, n_test, block_rows, diagonal,
                                            mirrored, seed):
        x, y = data
        if mirrored:
            # a diagonal query is equally far from a row and its reversal, so
            # the rounding of a product could decide between the two labels
            x, y = np.vstack([x, x[:, ::-1]]), np.concatenate([y, y + 1.0])
        k = min(k, x.shape[0])  # k == n_train votes with every training row
        # queries on the training grid, and the training rows: many exact ties
        rng = np.random.default_rng(seed)
        grid = rng.integers(-4, 5, size=(n_test, 1 if diagonal else x.shape[1]))
        q = np.broadcast_to(grid / rng.choice([1.0, 3.0, 7.0]), (n_test, x.shape[1]))
        q = np.vstack([q, x])
        model = KNearestNeighbors(k=k).fit(x, y)
        whole = model.predict(q)
        alone = np.concatenate([model.predict(row) for row in q])
        order = rng.permutation(q.shape[0])
        shuffled = np.empty_like(whole)
        shuffled[order] = model.predict(q[order])
        with mock.patch.object(models, "WORKING_MEMORY",
                               budget_for(block_rows, x.shape[0])):
            blocked = model.predict(q)
        assert alone.tobytes() == shuffled.tobytes() == blocked.tobytes() == whole.tobytes()
        assert np.array_equal(whole, oracle_knn_predict(x, y, k, q))

    def test_labels_do_not_depend_on_the_blas_thread_count(self):
        src = str(Path(models.__file__).parents[1])
        labels = [
            subprocess.run([sys.executable, "-c", THREADED_PREDICT], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
            .stdout
            for threads in ("1", "2")
        ]
        assert labels[0] and labels[0] == labels[1]

    def test_block_size_follows_the_budget(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(50, 3)), rng.integers(0, 3, 50) * 5.0
        model = KNearestNeighbors(k=4).fit(x, y)
        sizes = []
        real = KNearestNeighbors._vote

        def spy(self, rows, *args):
            sizes.append(rows.shape[0])
            return real(self, rows, *args)

        with mock.patch.object(KNearestNeighbors, "_vote", spy):
            for budget, want in [
                (budget_for(3, 50), [3, 3, 1]),
                (budget_for(3, 50) - 1, [2, 2, 2, 1]),
                (1, [1] * 7),  # a block is never smaller than one row
            ]:
                sizes.clear()
                with mock.patch.object(models, "WORKING_MEMORY", budget):
                    model.predict(rng.normal(size=(7, 3)))
                assert sizes == want

    def test_blocks_stay_within_the_working_memory_budget(self):
        rng = np.random.default_rng(4)
        n_train, n_test, k = 3000, 2000, 5
        y = rng.integers(0, 9, n_train) * 5.0
        # spread rows, and rows on two points where every one is a candidate
        tied = np.repeat(rng.integers(0, 2, size=(n_train, 1)), 8, axis=1).astype(float)
        for x, q in [(rng.normal(size=(n_train, 8)), rng.normal(size=(n_test, 8))),
                     (tied, np.full((n_test, 8), 0.5))]:
            model = KNearestNeighbors(k=k).fit(x, y)
            budget = budget_for(256, n_train)
            with mock.patch.object(models, "WORKING_MEMORY", budget):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    model.predict(q)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            # outside its blocks predict holds the labels, the training indices
            # and squared norms, the output, and np.unique's transient sort
            outside = 8 * (8 * n_train + n_test)
            assert peak - base <= budget + outside


def tree_bytes(tree: DecisionTree) -> list[bytes]:
    return [tree.classes_.tobytes(), *(column.tobytes() for column in tree.nodes)]


def one_feature_blocks():
    """A ``WORKING_MEMORY`` so small that every split block holds one feature."""
    return mock.patch.object(models, "WORKING_MEMORY", 1)


class TestBlockedSplit:
    """Scoring a node's candidate features in blocks must pick the split
    that one block over all of them picks, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(data=labelled_matrices(max_rows=40, max_cols=12), min_leaf=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_best_split_equals_one_block(self, data, min_leaf, seed):
        x, y = data
        classes = np.unique(y)
        y_idx = np.searchsorted(classes, y)
        rng = np.random.default_rng(seed)
        size = rng.integers(1, x.shape[1] + 1)
        features = np.sort(rng.choice(x.shape[1], size=size, replace=False))
        order = np.argsort(x, axis=0, kind="stable").T[features]
        xs, ys = x.T[features[:, None], order], y_idx[order]
        args = (xs, ys, np.bincount(y_idx, minlength=classes.size), min_leaf,
                np.arange(classes.size)[:, None])
        whole = models._best_split(*args)
        with one_feature_blocks():
            assert models._best_split(*args) == whole

    @settings(max_examples=100, deadline=None)
    @given(data=labelled_matrices(max_rows=40, max_cols=12), min_leaf=st.integers(1, 5),
           max_depth=st.one_of(st.none(), st.integers(1, 4)))
    def test_tree_equals_one_block(self, data, min_leaf, max_depth):
        x, y = data
        whole = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(x, y)
        with one_feature_blocks():
            blocked = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(x, y)
        assert tree_bytes(blocked) == tree_bytes(whole)

    @settings(max_examples=40, deadline=None)
    @given(data=labelled_matrices(max_rows=40, max_cols=12),
           mtry=st.one_of(st.none(), st.integers(1, 12)), bootstrap=st.booleans(),
           seed=st.integers(0, 2**32 - 1), min_leaf=st.integers(1, 5))
    def test_forest_equals_one_block(self, data, mtry, bootstrap, seed, min_leaf):
        x, y = data
        params = dict(n_trees=3, mtry=mtry, bootstrap=bootstrap, seed=seed, min_leaf=min_leaf)
        whole = RandomForest(**params).fit(x, y)
        with one_feature_blocks():
            blocked = RandomForest(**params).fit(x, y)
        assert [tree_bytes(t) for t in blocked.trees] == [tree_bytes(t) for t in whole.trees]

    def test_tall_fit_stays_within_the_working_memory_budget(self):
        # 4,000 rows of 26 features and 9 classes: one block of every root
        # candidate would hold about 3 x 26 x 9 x 4,000 x 8 bytes = 22 MB
        n, d = 4000, 26
        rng = np.random.default_rng(5)
        y = rng.integers(0, 9, n) * 5.0
        x = rng.normal(size=(n, d)) + y[:, None] / 40
        DecisionTree(max_depth=1).fit(x[:50], y[:50])  # first calls fill lazy caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            DecisionTree().fit(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # besides its split blocks a fit holds six (d, n) 8-byte arrays: the
        # transposed rows, their sorted order, a node's candidate order,
        # values and classes, and its children's orders
        assert peak - base <= models.WORKING_MEMORY + 6 * 8 * n * d

    @settings(max_examples=60, deadline=None)
    @given(data=labelled_matrices(max_rows=40, max_cols=6), labels=st.data(),
           class_step=st.integers(1, 5), min_leaf=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_class_blocks_equal_one_block(self, data, labels, class_step, min_leaf, seed):
        """Up to 12 classes, scored ``class_step`` classes a block at the root
        and more a block in smaller nodes."""
        x, _ = data
        y = np.array(labels.draw(st.lists(st.integers(0, 11), min_size=len(x), max_size=len(x))))
        y = y * 5.0
        classes = np.unique(y)
        y_idx = np.searchsorted(classes, y)
        order = np.argsort(x, axis=0, kind="stable").T
        root = (x.T[np.arange(x.shape[1])[:, None], order], y_idx[order],
                np.bincount(y_idx, minlength=classes.size), min_leaf, np.arange(classes.size)[:, None])

        def fit():
            return (models._best_split(*root),
                    tree_bytes(DecisionTree(min_leaf=min_leaf).fit(x, y)),
                    [tree_bytes(t) for t in RandomForest(n_trees=3, seed=seed, min_leaf=min_leaf)
                     .fit(x, y).trees])

        whole = fit()
        budget = models._split_feature_bytes(x.shape[0], class_step)
        with mock.patch.object(models, "WORKING_MEMORY", budget):
            assert fit() == whole

    def test_many_class_fit_stays_within_the_working_memory_budget(self):
        # 600 rows of 300 classes: one feature's split temporaries at the
        # root take 8 x 600 x (3 x 300 + 6) bytes = 4.3 MB, over a 1 MiB budget
        n, d, budget = 600, 4, 2**20
        x = np.random.default_rng(6).normal(size=(n, d))
        y = np.repeat(np.arange(300.0), 2)
        with mock.patch.object(models, "WORKING_MEMORY", budget):
            DecisionTree(max_depth=1).fit(x[:50], y[:50])  # first calls fill lazy caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                DecisionTree().fit(x, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # besides its split blocks a fit holds the six (d, n) arrays of the
        # tall fit above, and rows, class indices and side mask (n each),
        # labels, class ids, counts and their shares (300 each)
        assert peak - base <= budget + 6 * 8 * n * d + 8 * (3 * n + 4 * 300)


# Written by the recursive-grower release: the nested tree form must keep
# loading and predicting the same.
SEED_TREE_JSON = (
    '{"classes": [0.0, 5.0, 10.0], "kind": "decision_tree", "max_depth": null, "min_leaf": 1, '
    '"root": {"feature": 1, "left": {"leaf": 1}, "right": {"feature": 0, "left": {"leaf": 0}, '
    '"right": {"leaf": 2}, "threshold": 1.25}, "threshold": 0.75}}'
)
SEED_FOREST_JSON = (
    '{"bootstrap": true, "classes": [0.0, 5.0, 10.0], "kind": "random_forest", '
    '"max_depth": null, "min_leaf": 1, "mtry": 1, "n_trees": 2, "seed": 3, "trees": ['
    '{"classes": [0.0, 10.0], "kind": "decision_tree", "max_depth": null, "min_leaf": 1, '
    '"root": {"feature": 1, "left": {"leaf": 0}, "right": {"leaf": 1}, "threshold": 1.25}}, '
    + SEED_TREE_JSON
    + "]}"
)
SEED_TRAIN = (
    np.array([[0.0, 1.0], [0.5, 1.0], [1.0, 0.0], [1.5, 0.5],
              [2.0, 2.0], [2.5, 1.5], [3.0, 0.5], [3.5, 2.5]]),
    np.array([0.0, 0.0, 5.0, 5.0, 10.0, 10.0, 5.0, 10.0]),
)
SEED_QUERIES = np.array([[0.2, 0.3], [1.2, 2.0], [2.2, 0.1], [3.3, 3.0], [1.8, 1.0]])


class TestSeedModelJson:
    @pytest.mark.parametrize(
        "text, predicted",
        [
            (SEED_TREE_JSON, [5.0, 0.0, 5.0, 10.0, 10.0]),
            (SEED_FOREST_JSON, [0.0, 0.0, 0.0, 10.0, 0.0]),
        ],
    )
    def test_loads_predicts_and_saves_unchanged(self, text, predicted):
        model = model_from_json(json.loads(text))
        assert model.predict(SEED_QUERIES).tolist() == predicted
        assert json.dumps(model.to_json(), sort_keys=True) == text

    def test_refit_writes_the_same_json(self):
        x, y = SEED_TRAIN
        assert json.dumps(DecisionTree().fit(x, y).to_json(), sort_keys=True) == SEED_TREE_JSON
        forest = RandomForest(n_trees=2, mtry=1, seed=3).fit(x, y)
        assert json.dumps(forest.to_json(), sort_keys=True) == SEED_FOREST_JSON

    def test_forest_votes_over_its_trees_classes(self):
        obj = json.loads(SEED_FOREST_JSON)
        obj["classes"] = [10.0, 0.0]
        obj["trees"][0]["classes"] = [0.0, 7.0]
        got = model_from_json(obj).predict(SEED_QUERIES)
        assert np.array_equal(got, oracle_forest_predict(obj, SEED_QUERIES))


class TestMalformedModelJson:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("root"),
            lambda o: o["root"]["left"].pop("leaf"),
            lambda o: o["root"].pop("threshold"),
            lambda o: o["root"].pop("right"),
            lambda o: o["root"].update(feature=-1),
            lambda o: o["root"].update(feature="1"),
            lambda o: o["root"].update(threshold="x"),
            lambda o: o["root"]["left"].update(leaf=3),
            lambda o: o["root"]["left"].update(leaf=True),
            lambda o: o["root"].update(left=[1]),
            lambda o: o.update(classes="abc"),
        ],
        ids=["no-root", "no-leaf", "no-threshold", "no-right", "negative-feature",
             "string-feature", "string-threshold", "leaf-beyond-classes", "bool-leaf",
             "list-child", "string-classes"],
    )
    def test_tree_node_errors_are_validation_errors(self, mutate):
        obj = json.loads(SEED_TREE_JSON)
        mutate(obj)
        with pytest.raises(ValidationError):
            model_from_json(obj)

    def test_not_an_object(self):
        with pytest.raises(ValidationError):
            model_from_json([SEED_TREE_JSON])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o["trees"].append(o["trees"][0]),
            lambda o: o["trees"][1].update(kind="knn"),
            lambda o: o.update(trees=[]),
        ],
        ids=["more-trees-than-n-trees", "tree-of-another-kind", "no-trees"],
    )
    def test_forest_trees_must_match_its_header(self, mutate):
        obj = json.loads(SEED_FOREST_JSON)
        mutate(obj)
        with pytest.raises(ValidationError, match="random_forest"):
            model_from_json(obj)

    def test_tree_deeper_than_the_recursion_limit_converts_both_ways(self):
        # internal node 2i keeps leaf 2i + 1 on its left and the chain on its right
        columns = ([], [], [], [], [])  # feature, threshold, left, right, leaf
        for i in range(3 * sys.getrecursionlimit()):
            node, leaf = (0, float(i), 2 * i + 1, 2 * i + 2, -1), (-1, 0.0, -1, -1, i % 2)
            for column, values in zip(columns, zip(node, leaf)):
                column.extend(values)
        for column, value in zip(columns, (-1, 0.0, -1, -1, 0)):
            column.append(value)
        nodes = models.TreeNodes.from_columns(*columns)
        again = models.TreeNodes.from_nested(nodes.nested(), 2)
        assert all(np.array_equal(a, b) for a, b in zip(again, nodes))

    def test_feature_beyond_matrix_columns(self):
        model = model_from_json(json.loads(SEED_TREE_JSON))
        with pytest.raises(ValidationError):
            model.predict(np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "model",
        [KNearestNeighbors(k=1), LogisticRegressionGD(epochs=5), LinearSVM(epochs=5)],
        ids=["knn", "logistic", "linear_svm"],
    )
    def test_linear_and_knn_models_check_row_width(self, model):
        model.fit(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 5.0]))
        with pytest.raises(ValidationError):
            model.predict(np.zeros((2, 3)))


class TestParameterRanges:
    OUT_OF_RANGE = [
        (KNearestNeighbors, "k", 0),
        (DecisionTree, "max_depth", 0),
        (DecisionTree, "min_leaf", 0),
        (RandomForest, "n_trees", 0),
        (RandomForest, "mtry", -2),
        (RandomForest, "mtry", 0),
        (RandomForest, "max_depth", -1),
        (LogisticRegressionGD, "l2", -1e-9),
        (LogisticRegressionGD, "lr", 0.0),
        (LogisticRegressionGD, "lr_decay", -1.0),
        (LogisticRegressionGD, "epochs", 0),
        (LogisticRegressionGD, "tol", math.nan),
        (LinearSVM, "c", 0.0),
        (LinearSVM, "c", math.inf),
        (LinearSVM, "lr", -math.inf),
        (LinearSVM, "epochs", -1),
        (LinearSVM, "lr_decay", math.nan),
        (KNearestNeighbors, "k", 5.0),
        (DecisionTree, "max_depth", 2.5),
        (DecisionTree, "min_leaf", 1.5),
        (RandomForest, "n_trees", 2.0),
        (RandomForest, "mtry", 1.0),
        (LogisticRegressionGD, "epochs", 5.0),
        (LinearSVM, "epochs", 5.0),
    ]

    @pytest.mark.parametrize("cls, name, value", OUT_OF_RANGE)
    def test_constructor_names_the_parameter(self, cls, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            cls(**{name: value})

    @pytest.mark.parametrize("name", ["mtry", "max_depth"])
    def test_forest_takes_null_for_unbounded(self, name):
        assert getattr(RandomForest(**{name: None}), name) is None

    @pytest.mark.parametrize(
        "cls, name",
        [(KNearestNeighbors, "k"), (DecisionTree, "max_depth"), (DecisionTree, "min_leaf"),
         (RandomForest, "n_trees"), (RandomForest, "mtry"), (LogisticRegressionGD, "epochs"),
         (LinearSVM, "epochs")],
    )
    def test_numpy_integers_are_accepted(self, cls, name):
        assert getattr(cls(**{name: np.int64(2)}), name) == 2

    def test_saved_model_with_a_bad_parameter_is_validation_error(self):
        obj = json.loads(SEED_TREE_JSON)
        with pytest.raises(ValidationError, match="min_leaf"):
            model_from_json({**obj, "min_leaf": -1})

    # every saved hyperparameter of every kind, each with values of a wrong
    # JSON type: a float for an int, a string, a bool for a number
    MISTYPED = [
        (KNearestNeighbors(k=1), "k", [5.0, "5", True]),
        (DecisionTree(), "max_depth", [2.0, "2", True]),
        (DecisionTree(), "min_leaf", [1.0, "1", False]),
        (RandomForest(n_trees=2, seed=3), "n_trees", [2.0, "2", True]),
        (RandomForest(n_trees=2, seed=3), "mtry", [1.0, "1", True]),
        (RandomForest(n_trees=2, seed=3), "bootstrap", ["yes", 1, None]),
        (RandomForest(n_trees=2, seed=3), "seed", [1.5, "3", True]),
        (RandomForest(n_trees=2, seed=3), "max_depth", [2.0, "2", False]),
        (RandomForest(n_trees=2, seed=3), "min_leaf", [1.0, "1", True]),
        (LogisticRegressionGD(epochs=5), "l2", ["0.1", True, None]),
        (LinearSVM(epochs=5), "c", ["1", True, None]),
    ]

    def test_mistyped_cases_cover_every_saved_parameter(self):
        covered = {(model.KIND, name) for model, name, _ in self.MISTYPED}
        assert covered == {(cls.KIND, name) for cls in models.MODEL_KINDS.values() for name in cls.PARAMS}

    @pytest.mark.parametrize(
        "model, name, value",
        [(model, name, value) for model, name, values in MISTYPED for value in values],
        ids=[f"{model.KIND}-{name}-{value!r}" for model, name, values in MISTYPED for value in values],
    )
    def test_saved_model_with_a_mistyped_parameter_is_validation_error(self, model, name, value):
        obj = model.fit(*SEED_TRAIN).to_json()
        assert model_from_json(obj).to_json() == obj
        with pytest.raises(ValidationError, match=rf"^{model.KIND} model JSON\.{name} must be"):
            model_from_json({**obj, name: value})


# one model of each kind, small enough to fit in a few milliseconds
SMALL_MODELS = {
    "knn": lambda: KNearestNeighbors(k=1),
    "decision_tree": DecisionTree,
    "random_forest": lambda: RandomForest(n_trees=2),
    "logistic": lambda: LogisticRegressionGD(epochs=5),
    "linear_svm": lambda: LinearSVM(epochs=5),
}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def training_sets(draw):
    """A valid training set: 2-6 finite rows of 1-3 columns, a label each."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.floats(-10, 10), min_size=n * d, max_size=n * d))).reshape(n, d)
    return x, np.array(draw(st.lists(st.sampled_from([0.0, 5.0]), min_size=n, max_size=n)))


@st.composite
def malformed_training_sets(draw):
    """A training set that breaks exactly one rule of ``fit``'s input."""
    x, y = draw(training_sets())
    fault = draw(st.sampled_from(["no rows", "no columns", "vector", "short labels", "long labels",
                                  "non-finite feature", "non-finite label"]))
    if fault == "no rows":
        return x[:0], y[:0]
    if fault == "no columns":
        return x[:, :0], y
    if fault == "vector":
        return x.ravel(), np.resize(y, x.size)
    if fault.endswith("labels"):
        return x, y[:-1] if fault == "short labels" else np.append(y, 0.0)
    target = x if fault == "non-finite feature" else y
    target.flat[draw(st.integers(0, target.size - 1))] = draw(NON_FINITE)
    return x, y


class TestMalformedInput:
    """Every kind checks its ``fit`` and ``predict`` input the same way:
    a bad matrix raises ValidationError, never a raw numpy error, a
    divergence blamed on ``lr`` or a silent fit."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(SMALL_MODELS)), data=malformed_training_sets())
    def test_fit_refuses_a_malformed_training_set(self, kind, data):
        with pytest.raises(ValidationError, match="^fit needs"):
            SMALL_MODELS[kind]().fit(*data)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(SMALL_MODELS)), data=training_sets(),
           fault=st.sampled_from(["unfitted", "non-finite row", "3-d rows"]), bad=NON_FINITE)
    def test_predict_refuses_malformed_rows(self, kind, data, fault, bad):
        x, y = data
        model = SMALL_MODELS[kind]()
        if fault != "unfitted":
            model.fit(x, y)
        rows = x.copy()
        if fault == "non-finite row":
            rows[-1, 0] = bad
        elif fault == "3-d rows":
            rows = rows[None]
        with pytest.raises(ValidationError, match="^predict"):
            model.predict(rows)
