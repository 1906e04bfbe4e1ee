"""Train/test protocol, the five classifiers, and evaluation metrics.

All fits are deterministic given their seed and every predict is pure.
Tie-breaking rules are pinned everywhere so identical inputs give
identical models on any platform:

* KNN votes break ties by smallest summed distance, then smallest label.
* Tree splits maximize Gini decrease; equal gains keep the lowest feature
  index, then the lowest threshold (midpoints of adjacent sorted values).
* Forest/class votes break ties toward the smallest label.

Trees sort each feature once per fit and filter those sorted row lists at
every split (the attribute lists of SLIQ, Mehta, Agrawal & Rissanen 1996),
scoring all candidate features of a node in one vectorized pass.  Growth
stays depth-first in preorder: a forest's per-split feature picker draws
from each tree's random stream in that order, so growing level by level
would change every forest.  Fitted trees are held as flat node arrays and
predict by a vectorized descent; model JSON keeps the nested ``root`` form.

The default split granularity keeps all superpixel rows of a sample on
one side: rows of one sample are near-duplicates, and splitting them
across train/test inflates accuracy.  Row-level splitting stays available
to mimic pixel-level protocols, but it warns.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .features import DataMatrix
from .synth import stream


class Granularity(Enum):
    SAMPLE = "sample"
    ROW = "row"


@dataclass(frozen=True)
class Split:
    """Disjoint train/test unit ids (sample ids, or ``row:<i>`` for row level)."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    fraction: float
    seed: int
    granularity: Granularity

    def __post_init__(self):
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise ValidationError(f"split sides overlap: {sorted(overlap)[:5]}")

    def to_json(self) -> dict:
        return {
            "train_ids": list(self.train_ids),
            "test_ids": list(self.test_ids),
            "fraction": self.fraction,
            "seed": self.seed,
            "granularity": self.granularity.value,
        }


def stratified_split(
    matrix: DataMatrix,
    fraction: float = 0.75,
    seed: int = 0,
    granularity: Granularity = Granularity.SAMPLE,
) -> Split:
    """Per-label split sending ceil(fraction * n) units to the training side."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0, 1): {fraction}")

    if granularity is Granularity.SAMPLE:
        units: dict[str, float] = {}
        for sid, label in matrix.row_meta:
            key = label.key
            if sid in units and units[sid] != key:
                raise ValidationError(f"sample {sid} carries inconsistent labels")
            units.setdefault(sid, key)
        unit_ids = list(units)
        unit_labels = np.array([units[u] for u in unit_ids])
    else:
        warnings.warn(
            "row-level split lets rows of one sample straddle train/test (leakage)"
        )
        unit_ids = [f"row:{i}" for i in range(matrix.n_rows)]
        unit_labels = matrix.label_keys()

    train, test = [], []
    for label in np.unique(unit_labels):
        members = [u for u, l in zip(unit_ids, unit_labels) if l == label]
        if len(members) < 2:
            raise ValidationError(
                f"label {label} has {len(members)} unit(s); need at least 2 to split"
            )
        n_train = math.ceil(fraction * len(members))
        if n_train >= len(members):
            n_train = len(members) - 1
        order = stream(seed, "split", label).permutation(len(members))
        shuffled = [members[i] for i in order]
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    return Split(
        train_ids=tuple(train),
        test_ids=tuple(test),
        fraction=fraction,
        seed=seed,
        granularity=granularity,
    )


def split_matrix(matrix: DataMatrix, split: Split) -> tuple[DataMatrix, DataMatrix]:
    """Materialize the train and test row subsets of a matrix."""
    if split.granularity is Granularity.SAMPLE:
        train_set, test_set = set(split.train_ids), set(split.test_ids)
        train_idx = [i for i, (sid, _) in enumerate(matrix.row_meta) if sid in train_set]
        test_idx = [i for i, (sid, _) in enumerate(matrix.row_meta) if sid in test_set]
    else:
        train_idx = [int(u.split(":")[1]) for u in split.train_ids]
        test_idx = [int(u.split(":")[1]) for u in split.test_ids]
    return matrix.select_rows(train_idx), matrix.select_rows(test_idx)


# --------------------------------------------------------------------------
# Classifiers
# --------------------------------------------------------------------------


def _check_param(name: str, value, low: float, strict: bool = False, optional: bool = False) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is a finite
    number >= ``low`` (> ``low`` when ``strict``), or None when ``optional``."""
    if value is None and optional:
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        # an int is finite, and too large for math.isfinite when huge
        or not (isinstance(value, numbers.Integral) or math.isfinite(value))
        or (value <= low if strict else value < low)
    ):
        rule = f"{'null or ' if optional else ''}a finite number {'>' if strict else '>='} {low}"
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _classes(values) -> np.ndarray:
    """A saved model's class labels, which must be a non-empty list of numbers."""
    classes = np.array(values, dtype=np.float64)
    if classes.ndim != 1 or not classes.size:
        raise ValidationError("model classes must be a non-empty list of numbers")
    return classes


def _rows(x, width: int) -> np.ndarray:
    """``x`` as a float matrix of rows, which must have ``width`` columns."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != width:
        raise ValidationError(f"model expects {width} columns, rows have {x.shape[1]}")
    return x


# Bytes of working memory one block of KNearestNeighbors.predict may use.
KNN_WORKING_MEMORY = 8 * 2**20
# Rows per BLAS product in KNearestNeighbors.predict.  BLAS may round a row
# of a product differently with the number of rows in the call, so the
# products run over fixed chunks of the test rows and a block is a whole
# number of chunks: no distance depends on the block size, and up to this
# many test rows take one product, as before blocking.
KNN_PRODUCT_ROWS = 128


def _knn_row_bytes(n_train: int, k: int, n_labels: int) -> int:
    """Working memory of one test row in a predict block: its distance and
    partition-index rows, its k candidate votes and distances, and its
    per-label counts, sums and masks, 8 bytes each."""
    return 8 * (2 * n_train + 2 * k + 4 * n_labels)


class KNearestNeighbors:
    """Euclidean k-nearest-neighbor majority vote."""

    def __init__(self, k: int = 5):
        _check_param("k", k, 1)
        self.k = k
        self.train_x = None
        self.train_y = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNearestNeighbors":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.k < 1 or self.k > x.shape[0]:
            raise ValidationError(f"k={self.k} outside [1, n_train={x.shape[0]}]")
        self.train_x, self.train_y = x, y
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels of the rows of ``x``, computed in row blocks whose working
        memory stays within ``KNN_WORKING_MEMORY``.  A block is a whole
        number of ``KNN_PRODUCT_ROWS``-row chunks, at least one."""
        if self.train_x is None:
            raise ValidationError("predict before fit")
        x = _rows(x, self.train_x.shape[1])
        labels, train_idx = np.unique(self.train_y, return_inverse=True)
        train_sq = (self.train_x**2).sum(axis=1)
        chunk_bytes = _knn_row_bytes(train_sq.size, self.k, labels.size) * KNN_PRODUCT_ROWS
        step = max(1, KNN_WORKING_MEMORY // chunk_bytes) * KNN_PRODUCT_ROWS
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], step):
            block = slice(start, start + step)
            out[block] = labels[self._vote(x[block], train_sq, train_idx, labels.size)]
        return out

    def _squared_distances(self, x, train_sq) -> np.ndarray:
        """|x|^2 + |t|^2 - 2 x.t for every row pair, clipped at zero; the
        products run over the fixed ``KNN_PRODUCT_ROWS`` chunks of ``x``."""
        product = np.empty((x.shape[0], train_sq.size))
        for start in range(0, x.shape[0], KNN_PRODUCT_ROWS):
            chunk = slice(start, start + KNN_PRODUCT_ROWS)
            np.matmul(x[chunk], self.train_x.T, out=product[chunk])
        product *= 2.0
        d2 = (x**2).sum(axis=1)[:, None] + train_sq[None, :]
        d2 -= product
        return np.maximum(d2, 0.0, out=d2)

    def _vote(self, x, train_sq, train_idx, n_labels) -> np.ndarray:
        """Index into the sorted labels of each row's majority vote."""
        d2 = self._squared_distances(x, train_sq)
        if self.k < train_sq.size:
            candidates = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
        else:
            candidates = np.broadcast_to(np.arange(train_sq.size), d2.shape)
        votes = train_idx[candidates]
        dists = np.take_along_axis(d2, candidates, axis=1)
        rows = np.arange(x.shape[0])
        counts = np.zeros((x.shape[0], n_labels), dtype=np.int64)
        sums = np.zeros((x.shape[0], n_labels))
        # summed left to right in candidate order, as numpy sums under 8 terms
        for j in range(votes.shape[1]):
            counts[rows, votes[:, j]] += 1
            sums[rows, votes[:, j]] += dists[:, j]
        tied = counts == counts.max(axis=1, keepdims=True)
        # numpy sums 8 or more terms pairwise: redo such tied sums its way
        for i in np.nonzero((tied.sum(axis=1) > 1) & (counts.max(axis=1) >= 8))[0]:
            for c in np.nonzero(tied[i])[0]:
                sums[i, c] = dists[i][votes[i] == c].sum()
        # ties: smallest summed distance, then smallest label
        tied_sums = np.where(tied, sums, np.inf)
        best = tied & (tied_sums == tied_sums.min(axis=1, keepdims=True))
        return np.argmax(best, axis=1)

    def to_json(self) -> dict:
        return {
            "kind": "knn",
            "k": self.k,
            "train_x": self.train_x.tolist(),
            "train_y": self.train_y.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KNearestNeighbors":
        model = cls(k=obj["k"])
        x, y = np.array(obj["train_x"], dtype=np.float64), np.array(obj["train_y"], dtype=np.float64)
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ValidationError("knn model JSON needs train_x rows and one train_y label per row")
        return model.fit(x, y)


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(xs, ys, total_counts, min_leaf, class_ids):
    """Best (candidate, gap) position over the candidate features, or None.

    Row i of ``xs`` holds the node's values of candidate feature i sorted
    ascending, and the same row of ``ys`` the class index of each sorted
    value; ``class_ids`` is ``arange(n_classes)`` as a column.  Gap j lies
    between sorted positions j and j + 1.  All gaps of all candidates are
    scored at once; a gap between equal values, or one leaving fewer than
    ``min_leaf`` rows on a side, is no candidate.  The first maximum in
    feature-major order realizes the documented tie-break: lowest feature,
    then lowest threshold.
    """
    m, n = xs.shape
    edge = max(math.ceil(min_leaf), 1)  # fewest rows a side may keep
    lo, hi = edge - 1, n - edge  # the gaps that keep them: lo .. hi - 1
    if m == 0 or hi <= lo:
        return None
    parent = _gini(total_counts, n)
    left_counts = np.cumsum(ys[:, None, :hi] == class_ids, axis=2, dtype=np.float64)[:, :, lo:]
    right_counts = total_counts[:, None] - left_counts
    n_left = np.arange(edge, hi + 1)
    n_right = n - n_left
    # class counts are exact integers, so these sums do not depend on order
    gini_left = 1.0 - np.add.reduce(left_counts**2, axis=1) / n_left**2
    gini_right = 1.0 - np.add.reduce(right_counts**2, axis=1) / n_right**2
    gain = parent - (n_left * gini_left + n_right * gini_right) / n
    gain = np.where(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1], gain, -np.inf)
    pick = int(np.argmax(gain))
    if gain.flat[pick] == -np.inf:
        return None
    pos, gap = divmod(pick, hi - lo)
    return pos, gap + lo


class TreeNodes(NamedTuple):
    """A fitted tree as parallel arrays indexed by preorder node number.

    Node 0 is the root.  Internal node i sends a row to ``left[i]`` when
    ``row[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise.  A
    leaf has ``feature[i] == -1`` and predicts class index ``leaf[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray

    @classmethod
    def from_columns(cls, feature, threshold, left, right, leaf) -> "TreeNodes":
        return cls(
            np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            np.array(leaf, dtype=np.int64),
        )

    def nested(self) -> dict:
        """The nested-dict form that model JSON stores."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, leaf = self.left.tolist(), self.right.tolist(), self.leaf.tolist()

        def node(i):
            if feature[i] < 0:
                return {"leaf": leaf[i]}
            return {
                "feature": feature[i],
                "threshold": threshold[i],
                "left": node(left[i]),
                "right": node(right[i]),
            }

        return node(0)

    @classmethod
    def from_nested(cls, root, n_classes: int) -> "TreeNodes":
        """Flatten and validate the nested-dict form."""
        columns = ([], [], [], [], [])

        def is_index(value):
            return isinstance(value, int) and not isinstance(value, bool) and value >= 0

        def visit(node) -> int:
            i = len(columns[0])
            if not isinstance(node, dict):
                raise ValidationError(f"tree node {i} is not an object")
            if "leaf" in node:
                if not is_index(node["leaf"]) or node["leaf"] >= n_classes:
                    raise ValidationError(
                        f"tree node {i}: leaf {node['leaf']!r} is not a class index below {n_classes}"
                    )
                for column, value in zip(columns, (-1, 0.0, -1, -1, node["leaf"])):
                    column.append(value)
                return i
            missing = [key for key in ("feature", "threshold", "left", "right") if key not in node]
            if missing:
                raise ValidationError(f"tree node {i} has no 'leaf' and lacks {missing}")
            threshold = node["threshold"]
            if not is_index(node["feature"]):
                raise ValidationError(f"tree node {i}: feature {node['feature']!r} is not an index")
            if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
                raise ValidationError(f"tree node {i}: threshold {threshold!r} is not a number")
            for column, value in zip(columns, (node["feature"], float(threshold), -1, -1, -1)):
                column.append(value)
            columns[2][i] = visit(node["left"])
            columns[3][i] = visit(node["right"])
            return i

        visit(root)
        return cls.from_columns(*columns)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf class index of every row, descending all rows level by level."""
        if self.feature.max() >= x.shape[1]:
            raise ValidationError(
                f"tree splits on feature {self.feature.max()} but rows have {x.shape[1]} columns"
            )
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = np.arange(x.shape[0])[self.feature[node] >= 0]
        while active.size:
            at = node[active]
            goes_left = x[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(goes_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return self.leaf[node]


class DecisionTree:
    """CART-style binary tree with Gini impurity and pinned tie-breaks."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        _check_param("max_depth", max_depth, 1, optional=True)
        _check_param("min_leaf", min_leaf, 1)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.classes_ = None
        self.nodes: TreeNodes | None = None
        self._feature_picker = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.classes_ = np.unique(y)
        self.nodes = self._grow(x, np.searchsorted(self.classes_, y))
        return self

    def _pick_features(self, d: int):
        if self._feature_picker is None:
            return np.arange(d)
        return self._feature_picker(d)

    def _grow(self, x, y_idx) -> TreeNodes:
        """Grow depth-first, numbering nodes in preorder.

        Every feature is sorted once.  A node carries its rows and, per
        feature, those rows in sorted order; a split filters each sorted
        list with one mask, and a stable filter of a stable sort is the
        stable sort of the subset, so every node scores the same candidate
        thresholds a fresh sort of its own rows would give.
        """
        n, d = x.shape
        n_classes = self.classes_.size
        class_ids = np.arange(n_classes)[:, None]
        xt = np.ascontiguousarray(x.T)
        goes_left = np.zeros(n, dtype=bool)
        columns = ([], [], [], [], [])  # feature, threshold, left, right, leaf
        # (rows, sorted rows per feature, depth, parent of a right child or -1)
        stack = [(np.arange(n), np.argsort(x, axis=0, kind="stable").T, 0, -1)]
        while stack:
            rows, order, depth, parent = stack.pop()
            node = len(columns[0])
            if parent >= 0:
                columns[3][parent] = node
            counts = np.bincount(y_idx[rows], minlength=n_classes)
            found = None
            if (
                counts.max() < rows.size
                and (self.max_depth is None or depth < self.max_depth)
                and rows.size >= 2 * self.min_leaf
            ):
                features = self._pick_features(d)
                candidates = order[features]
                xs = xt[features[:, None], candidates]
                found = _best_split(xs, y_idx[candidates], counts, self.min_leaf, class_ids)
            if found is None:
                # argmax takes the smallest label on ties
                for column, value in zip(columns, (-1, 0.0, -1, -1, int(np.argmax(counts)))):
                    column.append(value)
                continue
            pos, gap = found
            feature = int(features[pos])
            threshold = float((xs[pos, gap] + xs[pos, gap + 1]) / 2.0)
            for column, value in zip(columns, (feature, threshold, node + 1, -1, -1)):
                column.append(value)
            side = x[rows, feature] <= threshold
            n_left = np.count_nonzero(side)
            if n_left in (0, rows.size):  # the midpoint overflowed to +-inf
                raise ValidationError(f"feature {feature} is too large to split at {threshold}")
            goes_left[rows] = side
            sel = goes_left[order]
            stack.append((rows[~side], order[~sel].reshape(d, rows.size - n_left), depth + 1, node))
            stack.append((rows[side], order[sel].reshape(d, n_left), depth + 1, -1))
        return TreeNodes.from_columns(*columns)

    @property
    def root(self) -> dict | None:
        """The fitted tree as nested dicts, the form model JSON stores."""
        return None if self.nodes is None else self.nodes.nested()

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.nodes is None:
            raise ValidationError("predict before fit")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self.classes_[self.nodes.apply(x)]

    def to_json(self) -> dict:
        return {
            "kind": "decision_tree",
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "classes": self.classes_.tolist(),
            "root": self.root,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecisionTree":
        model = cls(max_depth=obj["max_depth"], min_leaf=obj["min_leaf"])
        model.classes_ = _classes(obj["classes"])
        model.nodes = TreeNodes.from_nested(obj["root"], model.classes_.size)
        return model


class RandomForest:
    """Bagged trees with per-split feature subsampling and majority vote."""

    def __init__(
        self,
        n_trees: int = 100,
        mtry: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
        max_depth: int | None = None,
        min_leaf: int = 1,
    ):
        _check_param("n_trees", n_trees, 1)
        _check_param("mtry", mtry, 1, optional=True)
        _check_param("max_depth", max_depth, 1, optional=True)
        _check_param("min_leaf", min_leaf, 1)
        self.n_trees = n_trees
        self.mtry = mtry
        self.bootstrap = bootstrap
        self.seed = seed
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.trees: list[DecisionTree] = []
        self.classes_ = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = x.shape
        self.classes_ = np.unique(y)
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(d))
        mtry = min(mtry, d)
        self.trees = []
        for t in range(self.n_trees):
            rng = stream(self.seed, "forest", t)
            idx = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            tree = DecisionTree(max_depth=self.max_depth, min_leaf=self.min_leaf)
            if mtry < d:
                tree._feature_picker = lambda dim, r=rng, m=mtry: np.sort(
                    r.choice(dim, size=m, replace=False)
                )
            tree.fit(x[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValidationError("predict before fit")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        labels = np.unique(np.concatenate([tree.classes_ for tree in self.trees]))
        votes = np.searchsorted(labels, np.stack([tree.predict(x) for tree in self.trees]))
        cells = votes + np.arange(x.shape[0]) * labels.size
        counts = np.bincount(cells.ravel(), minlength=x.shape[0] * labels.size)
        # argmax takes the smallest label on ties
        return labels[np.argmax(counts.reshape(x.shape[0], labels.size), axis=1)]

    def to_json(self) -> dict:
        return {
            "kind": "random_forest",
            "n_trees": self.n_trees,
            "mtry": self.mtry,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "classes": self.classes_.tolist(),
            "trees": [t.to_json() for t in self.trees],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RandomForest":
        model = cls(
            n_trees=obj["n_trees"],
            mtry=obj["mtry"],
            bootstrap=obj["bootstrap"],
            seed=obj["seed"],
            max_depth=obj["max_depth"],
            min_leaf=obj["min_leaf"],
        )
        model.classes_ = _classes(obj["classes"])
        model.trees = [DecisionTree.from_json(t) for t in obj["trees"]]
        return model


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegressionGD:
    """Multinomial softmax regression by full-batch gradient descent."""

    def __init__(
        self,
        l2: float = 1e-4,
        lr: float = 1.0,
        lr_decay: float = 1e-3,
        epochs: int = 5000,
        tol: float = 1e-6,
    ):
        _check_param("l2", l2, 0.0)
        _check_param("lr", lr, 0.0, strict=True)
        _check_param("lr_decay", lr_decay, 0.0)
        _check_param("epochs", epochs, 1)
        _check_param("tol", tol, 0.0)
        self.l2 = l2
        self.lr = lr
        self.lr_decay = lr_decay
        self.epochs = epochs
        self.tol = tol
        self.classes_ = None
        self.weights = None
        self.bias = None

    def loss_and_grads(self, x, y_onehot, weights, bias):
        """Mean cross-entropy plus L2 on weights, with analytic gradients."""
        n = x.shape[0]
        probs = softmax(x @ weights.T + bias)
        eps = 1e-300
        data_loss = -np.log(np.maximum((probs * y_onehot).sum(axis=1), eps)).mean()
        loss = data_loss + 0.5 * self.l2 * (weights**2).sum()
        grad_w, grad_b = self._grads(x, y_onehot, probs, weights)
        return loss, grad_w, grad_b

    def _grads(self, x, y_onehot, probs, weights):
        n = x.shape[0]
        delta = (probs - y_onehot) / n
        grad_w = delta.T @ x + self.l2 * weights
        grad_b = delta.sum(axis=0)
        return grad_w, grad_b

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegressionGD":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.classes_ = np.unique(y)
        c, d = self.classes_.size, x.shape[1]
        onehot = (y[:, None] == self.classes_[None, :]).astype(np.float64)
        weights = np.zeros((c, d))
        bias = np.zeros(c)
        for epoch in range(self.epochs):
            probs = softmax(x @ weights.T + bias)
            grad_w, grad_b = self._grads(x, onehot, probs, weights)
            if max(np.abs(grad_w).max(), np.abs(grad_b).max()) < self.tol:
                break
            lr = self.lr / (1.0 + self.lr_decay * epoch)
            weights -= lr * grad_w
            bias -= lr * grad_b
        return _store_linear_fit(self, weights, bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ValidationError("predict before fit")
        scores = _rows(x, self.weights.shape[1]) @ self.weights.T + self.bias
        return self.classes_[np.argmax(scores, axis=1)]

    def to_json(self) -> dict:
        return {
            "kind": "logistic",
            "l2": self.l2,
            "classes": self.classes_.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LogisticRegressionGD":
        return _linear_from_json(cls(l2=obj["l2"]), obj)


class LinearSVM:
    """Linear SVM: per-class margins, argmax prediction, subgradient descent.

    The training objective is the multiclass (Crammer-Singer) hinge: each
    row pushes its true-class score at least one margin above the strongest
    rival.  A one-vs-rest hinge does not fit ordered adulteration levels:
    the middle classes are not one-vs-rest separable and their scores
    collapse.
    """

    def __init__(
        self,
        c: float = 1.0,
        lr: float = 10.0,
        lr_decay: float = 1e-2,
        epochs: int = 1500,
    ):
        _check_param("c", c, 0.0, strict=True)
        _check_param("lr", lr, 0.0, strict=True)
        _check_param("lr_decay", lr_decay, 0.0)
        _check_param("epochs", epochs, 1)
        self.c = c
        self.lr = lr
        self.lr_decay = lr_decay
        self.epochs = epochs
        self.classes_ = None
        self.weights = None
        self.bias = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.classes_ = np.unique(y)
        n, d = x.shape
        c_count = self.classes_.size
        y_idx = np.searchsorted(self.classes_, y)
        # flat indices into a C-ordered (n, c_count) array
        row_start = np.arange(n) * c_count
        true_at = row_start + y_idx
        weights = np.zeros((c_count, d))
        bias = np.zeros(c_count)
        push = np.empty((n, c_count))
        reg = 1.0 / (self.c * n)
        for epoch in range(self.epochs):
            # hinge subgradient: a row whose strongest rival scores within
            # one margin of its true class pushes the two apart
            scores = x @ weights.T
            scores += bias
            flat = scores.ravel()
            true_scores = flat[true_at]
            flat[true_at] = -np.inf
            rival_at = row_start + np.argmax(scores, axis=1)
            violating = 1.0 + flat[rival_at] - true_scores > 0.0
            push.fill(0.0)
            push.ravel()[rival_at[violating]] = 1.0
            push.ravel()[true_at[violating]] = -1.0
            grad_w = reg * weights + push.T @ x / n
            grad_b = push.sum(axis=0) / n
            lr = self.lr / (1.0 + self.lr_decay * epoch)
            weights -= lr * grad_w
            bias -= lr * grad_b
        return _store_linear_fit(self, weights, bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ValidationError("predict before fit")
        scores = _rows(x, self.weights.shape[1]) @ self.weights.T + self.bias
        return self.classes_[np.argmax(scores, axis=1)]

    def to_json(self) -> dict:
        return {
            "kind": "linear_svm",
            "c": self.c,
            "loss": "multiclass",
            "classes": self.classes_.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearSVM":
        if obj.get("loss", "multiclass") != "multiclass":
            raise ValidationError(f"unknown SVM loss {obj['loss']!r}")
        return _linear_from_json(cls(c=obj["c"]), obj)


def _store_linear_fit(model, weights: np.ndarray, bias: np.ndarray):
    """``model`` holding its fitted ``weights`` and ``bias``, which a too
    large learning rate drives to inf or NaN: that fit raises instead."""
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValidationError(f"the fit diverged to non-finite weights: lower lr (got {model.lr!r})")
    model.weights, model.bias = weights, bias
    return model


def _linear_from_json(model, obj: dict):
    """``model`` with the classes, weights and bias of its saved JSON."""
    model.classes_ = _classes(obj["classes"])
    model.weights = np.array(obj["weights"], dtype=np.float64)
    model.bias = np.array(obj["bias"], dtype=np.float64)
    if model.weights.ndim != 2 or model.weights.shape[0] != model.classes_.size or (
        model.bias.shape != model.classes_.shape
    ):
        raise ValidationError("model weights and bias need one row per class")
    return model


MODEL_KINDS = {
    "knn": KNearestNeighbors,
    "decision_tree": DecisionTree,
    "random_forest": RandomForest,
    "logistic": LogisticRegressionGD,
    "linear_svm": LinearSVM,
}


def model_from_json(obj: dict):
    """The model that ``obj``, a ``to_json`` object, describes; a missing
    key, a wrong shape or type, or a number too large for a float raises
    ValidationError.  ``core.read_json`` refuses non-finite numbers before
    a saved model gets here."""
    if not isinstance(obj, dict):
        raise ValidationError("model JSON must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    try:
        return MODEL_KINDS[kind].from_json(obj)
    except KeyError as exc:
        raise ValidationError(f"{kind} model JSON lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} model JSON: {exc}") from None


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[i, j] = rows with true label i predicted as label j."""

    labels: tuple[float, ...]
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.labels), len(self.labels)):
            raise ValidationError("confusion matrix must be C x C")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.counts) / total) if total else 0.0

    def per_class_recall(self) -> dict[float, float]:
        out = {}
        for i, label in enumerate(self.labels):
            row = self.counts[i].sum()
            out[label] = float(self.counts[i, i] / row) if row else 0.0
        return out

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "confusion": self.counts.tolist(),
            "accuracy": self.accuracy,
            "per_class_recall": {str(k): v for k, v in self.per_class_recall().items()},
        }


def evaluate(model, test: DataMatrix) -> ConfusionMatrix:
    """Confusion matrix of a fitted model over the test matrix rows."""
    truth = test.label_keys()
    predicted = model.predict(test.values)
    labels = tuple(sorted(set(truth.tolist()) | set(np.asarray(predicted).tolist())))
    keys = np.array(labels)
    cells = np.searchsorted(keys, truth) * len(labels) + np.searchsorted(keys, predicted)
    counts = np.bincount(cells, minlength=len(labels) ** 2).reshape(len(labels), len(labels))
    return ConfusionMatrix(labels=labels, counts=counts)
