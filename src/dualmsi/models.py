"""Train/test protocol, the five classifiers, and evaluation metrics.

All fits are deterministic given their seed and every predict is pure.
Tie-breaking rules are pinned everywhere so identical inputs give
identical models on any platform:

* KNN ranks by exact distance, then training row; votes break ties by
  smallest summed distance (added nearest first), then smallest label.
* Tree splits maximize Gini decrease; equal gains keep the lowest feature
  index, then the lowest threshold (midpoints of adjacent sorted values).
* Forest/class votes break ties toward the smallest label.

Trees sort each feature once per fit and filter those sorted row lists at
every split (the attribute lists of SLIQ, Mehta, Agrawal & Rissanen 1996),
scoring all candidate features of a node in one vectorized pass.  Growth
stays depth-first in preorder: a forest's per-split feature picker draws
from each tree's random stream in that order, so growing level by level
would change every forest.  Fitted trees are held as flat node arrays and
predict by a vectorized descent; model JSON keeps the nested ``root`` form,
converted both ways without recursion.

Every model is saved in one layout, ``{"kind", <saved hyperparameters>,
<fitted state>}`` (``_Model.to_json``), and read back by one reader,
:func:`model_from_json`: the saved hyperparameters are constructor keywords
typed by ``jsonio.json_call``, exactly as ``train`` reads its ``params``.

The default split granularity keeps all superpixel rows of a sample on
one side: rows of one sample are near-duplicates, and splitting them
across train/test inflates accuracy.  Row-level splitting stays available
to mimic pixel-level protocols, but it warns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import WORKING_MEMORY
from .errors import ValidationError, check_number
from .features import DataMatrix, LabelKind
from .jsonio import json_call, read_json, write_json
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
    check_number("fraction", fraction, 0, math.nextafter(1.0, 0.0), strict=True)  # in (0, 1)

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


def _classes(values) -> np.ndarray:
    """A saved model's class labels, which must be a non-empty list of numbers."""
    classes = np.array(values, dtype=np.float64)
    if classes.ndim != 1 or not classes.size:
        raise ValidationError("model classes must be a non-empty list of numbers")
    return classes


class _Model:
    """The model JSON layout, ``{"kind": KIND, <PARAMS>, <fitted state>}``,
    and the input checks of every ``fit`` and ``predict``.

    ``PARAMS`` names the saved hyperparameters, constructor keywords that
    :func:`model_from_json` reads back with ``jsonio.json_call``, typed as
    ``train`` reads its ``params``; ``_state`` and ``_restore`` write and
    read the fitted state.
    """

    KIND: str
    PARAMS: tuple[str, ...]

    @staticmethod
    def _training_set(x, y) -> tuple[np.ndarray, np.ndarray]:
        """``x`` and ``y`` as float arrays, which must be a non-empty matrix
        of finite rows and one finite label per row."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or not x.size:
            raise ValidationError(f"fit needs a non-empty matrix of rows, got shape {x.shape}")
        if y.shape != x.shape[:1]:
            raise ValidationError(f"fit needs one label per row: {x.shape[0]} rows, labels {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("fit needs finite features and labels")
        return x, y

    @staticmethod
    def _rows(x, fitted: bool, matrix: np.ndarray | None = None) -> np.ndarray:
        """``x`` as a float matrix of finite rows (a vector is one row) for
        a ``fitted`` model to predict, as wide as its fitted ``matrix``
        (training rows or class weights) when given."""
        if not fitted:
            raise ValidationError("predict before fit")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2:
            raise ValidationError(f"predict needs a matrix of rows, got shape {x.shape}")
        if matrix is not None and x.shape[1] != matrix.shape[1]:
            raise ValidationError(f"model expects {matrix.shape[1]} columns, rows have {x.shape[1]}")
        if not np.isfinite(x).all():
            raise ValidationError("predict needs finite features")
        return x

    def to_json(self) -> dict:
        return {"kind": self.KIND, **{p: getattr(self, p) for p in self.PARAMS}, **self._state()}


def _knn_row_bytes(n_train: int) -> int:
    """Working memory of one test row in a predict block's ranking pass,
    8 bytes an entry: its BLAS distance to every training row and their
    partitioned copy, and four per-row values (squared norm, k-th
    distance, rounding bound, cut)."""
    return 8 * (2 * n_train + 4)


def _knn_refine_bytes(n_candidates: np.ndarray, k: int, n_labels: int) -> np.ndarray:
    """Working memory of refining each test row with ``n_candidates``
    candidates, 8 bytes an entry: each candidate's flat, row and column
    index, exact distance, two temporaries and its sort order, and per
    row its k nearest (index, vote, distance) and per-label counts, sums
    and masks."""
    return 8 * (7 * n_candidates + 3 * k + 4 * n_labels)


class KNearestNeighbors(_Model):
    """Euclidean k-nearest-neighbor majority vote."""

    KIND, PARAMS = "knn", ("k",)

    def __init__(self, k: int = 5):
        self.k = check_number("k", k, 1, integer=True)
        self.train_x = None
        self.train_y = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNearestNeighbors":
        x, y = self._training_set(x, y)
        check_number("k", self.k, 1, x.shape[0], integer=True)
        self.train_x, self.train_y = x, y
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels of the rows of ``x``, ranked in row blocks whose BLAS
        distances fit half of ``WORKING_MEMORY``, at least one row each;
        the candidates they leave are refined in the other half."""
        x = self._rows(x, self.train_x is not None, self.train_x)
        labels, train_idx = np.unique(self.train_y, return_inverse=True)
        train_sq = (self.train_x**2).sum(axis=1)
        step = max(1, WORKING_MEMORY // 2 // _knn_row_bytes(train_sq.size))
        # every block's distances and their partitioned copy, allocated once:
        # fresh blocks of this size would fault their pages in again
        buffers = np.empty((2, min(step, x.shape[0]), train_sq.size))
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], step):
            block = slice(start, start + step)
            out[block] = labels[self._vote(x[block], train_sq, train_idx, labels.size, buffers)]
        return out

    def _candidates(self, x, train_sq, buffers) -> np.ndarray:
        """Mask of the (test row, training row) pairs that hold every
        training row whose exact distance is at most the row's k-th.
        BLAS and the exact sum each round within 2 gamma_{d+2} (|x|^2 + |t|^2)
        of the true distance (Higham, Accuracy and Stability of Numerical
        Algorithms, 3.1), so no row whose BLAS distance exceeds the k-th one's
        by 2 delta, delta = 4 gamma_{d+2} (|x|^2 + max |t|^2), is nearer."""
        x_sq = (x**2).sum(axis=1)
        d2, ranked = buffers[:, : x.shape[0]]
        np.matmul(x, self.train_x.T, out=d2)
        d2 *= -2.0
        d2 += x_sq[:, None]
        d2 += train_sq
        n_rounding = (x.shape[1] + 2) * np.finfo(np.float64).eps / 2
        delta = 4 * n_rounding / (1 - n_rounding) * (x_sq + train_sq.max())
        ranked[...] = d2
        ranked.partition(self.k - 1, axis=1)
        cut = ranked[:, self.k - 1] + 2 * delta
        far = d2 > cut[:, None]  # a NaN distance or bound is kept
        return np.invert(far, out=far)

    def _vote(self, x, train_sq, train_idx, n_labels, buffers) -> np.ndarray:
        """Index into the sorted labels of each row's majority vote.  The
        candidates are refined in runs of rows whose refine fits the
        ``WORKING_MEMORY`` left beside the ranking buffers and the candidate
        mask, at least one row each."""
        keep = self._candidates(x, train_sq, buffers)
        spent = np.cumsum(_knn_refine_bytes(np.count_nonzero(keep, axis=1), self.k, n_labels))
        budget = WORKING_MEMORY - buffers.nbytes - keep.nbytes
        out = np.empty(x.shape[0], dtype=np.intp)
        start = 0
        while start < x.shape[0]:
            before = spent[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(spent, before + budget, side="right")))
            out[start:stop] = self._refine(x[start:stop], keep[start:stop], train_idx, n_labels)
            start = stop
        return out

    def _refine(self, x, keep, train_idx, n_labels) -> np.ndarray:
        """:meth:`_vote` of the rows of ``x`` from their candidate mask."""
        rows, cols = np.divmod(np.flatnonzero(keep), keep.shape[1])
        exact = np.zeros(rows.size)
        for j in range(x.shape[1]):
            diff = x[:, j].take(rows)
            diff -= self.train_x[:, j].take(cols)
            diff *= diff
            exact += diff
        order = np.lexsort((cols, exact, rows))  # rows stay grouped, as sorted
        starts = np.searchsorted(rows, np.arange(x.shape[0]))
        nearest = order[starts[:, None] + np.arange(self.k)]
        votes = train_idx[cols[nearest]]
        dists = exact[nearest]
        block_rows = np.arange(x.shape[0])
        counts = np.zeros((x.shape[0], n_labels), dtype=np.int64)
        sums = np.zeros((x.shape[0], n_labels))
        for j in range(self.k):  # nearest first
            counts[block_rows, votes[:, j]] += 1
            sums[block_rows, votes[:, j]] += dists[:, j]
        # ties: smallest summed distance, then smallest label
        tied = counts == counts.max(axis=1, keepdims=True)
        tied_sums = np.where(tied, sums, np.inf)
        best = tied & (tied_sums == tied_sums.min(axis=1, keepdims=True))
        return np.argmax(best, axis=1)

    def _state(self) -> dict:
        return {"train_x": self.train_x.tolist(), "train_y": self.train_y.tolist()}

    def _restore(self, obj: dict) -> None:
        x, y = np.array(obj["train_x"], dtype=np.float64), np.array(obj["train_y"], dtype=np.float64)
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ValidationError("knn model JSON needs train_x rows and one train_y label per row")
        self.fit(x, y)


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - (p * p).sum())


def _split_feature_bytes(n_rows: int, n_classes: int) -> int:
    """Working memory of one candidate feature in a :func:`_best_split`
    block: its left and right class counts and a squared copy of either,
    (n_classes, n_rows) each, and up to six rows of n_rows (ginis, gains,
    the gap mask, the block's side sizes), 8 bytes each."""
    return 8 * n_rows * (3 * n_classes + 6)


def _best_split(xs, ys, total_counts, min_leaf, class_ids):
    """Best (candidate, gap) position over the candidate features, or None.

    Row i of ``xs`` holds the node's values of candidate feature i sorted
    ascending, and the same row of ``ys`` the class index of each sorted
    value; ``class_ids`` is ``arange(n_classes)`` as a column.  Gap j lies
    between sorted positions j and j + 1.  A gap between equal values, or
    one leaving fewer than ``min_leaf`` rows on a side, is no candidate.
    The candidates are scored in blocks of features, and their class
    counts in blocks of classes, whose temporaries fit ``WORKING_MEMORY``
    beside numpy's iteration buffers (one block of each for every node of
    a small matrix).  A block's
    maximum replaces the running one only when strictly greater: the first
    maximum in feature-major order realizes the documented tie-break,
    lowest feature, then lowest threshold.
    """
    m, n = xs.shape
    lo, hi = min_leaf - 1, n - min_leaf  # the gaps that keep min_leaf rows a side: lo .. hi - 1
    if m == 0 or hi <= lo:
        return None
    parent = _gini(total_counts, n)
    # an iteration buffer of getbufsize() elements for each operand of the
    # class comparison in _squared_count_sums
    budget = WORKING_MEMORY - 2 * 8 * np.getbufsize()
    # the most classes one feature's temporaries can hold, at least one
    class_step = max(1, (budget // (8 * n) - 6) // 3)
    step = max(1, budget // _split_feature_bytes(n, min(class_ids.shape[0], class_step)))
    best, found = -np.inf, None
    for start in range(0, m, step):
        block = slice(start, start + step)
        gain = _gap_gains(xs[block], ys[block], total_counts, parent, lo, hi, class_ids, class_step)
        pick = int(np.argmax(gain))
        if gain.flat[pick] > best:
            best = gain.flat[pick]
            pos, gap = divmod(pick, hi - lo)
            found = start + pos, gap + lo
    return found


def _gap_gains(xs, ys, total_counts, parent, lo, hi, class_ids, class_step):
    """Gini gain of gaps ``lo .. hi - 1`` of each feature row of ``xs``,
    -inf at a gap between equal values, counting ``class_step`` classes at
    a time."""
    n = xs.shape[1]
    # class counts are exact integers, so these sums do not depend on order
    # or on the class blocks
    blocks = (slice(c, c + class_step) for c in range(0, class_ids.shape[0], class_step))
    sums = (_squared_count_sums(ys, total_counts[b], lo, hi, class_ids[b]) for b in blocks)
    left_sq, right_sq = next(sums)
    for left, right in sums:
        left_sq += left
        right_sq += right
    n_left = np.arange(lo + 1, hi + 1)
    n_right = n - n_left
    gini_left = 1.0 - left_sq / n_left**2
    gini_right = 1.0 - right_sq / n_right**2
    gain = parent - (n_left * gini_left + n_right * gini_right) / n
    return np.where(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1], gain, -np.inf)


def _squared_count_sums(ys, total_counts, lo, hi, class_ids):
    """Sums over the classes ``class_ids`` of the squared left and right
    class counts at gaps ``lo .. hi - 1`` of each feature row of ``ys``."""
    left_counts = np.cumsum(ys[:, None, :hi] == class_ids, axis=2, dtype=np.float64)[:, :, lo:]
    right_counts = total_counts[:, None] - left_counts
    return np.add.reduce(left_counts**2, axis=1), np.add.reduce(right_counts**2, axis=1)


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
        """The nested-dict form that model JSON stores, linked without
        recursion, so a tree of any depth converts."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        nodes = [
            {"leaf": leaf} if f < 0 else {"feature": f, "threshold": t}
            for f, t, leaf in zip(feature, threshold, self.leaf.tolist())
        ]
        for node, left, right in zip(nodes, self.left.tolist(), self.right.tolist()):
            if "feature" in node:
                node["left"], node["right"] = nodes[left], nodes[right]
        return nodes[0]

    @classmethod
    def from_nested(cls, root, n_classes: int) -> "TreeNodes":
        """Flatten and validate the nested-dict form, walking it in preorder
        without recursion."""
        columns = ([], [], [], [], [])

        def is_index(value):
            return isinstance(value, int) and not isinstance(value, bool) and value >= 0

        stack = [(root, -1)]  # (node, parent of a right child or -1)
        while stack:
            node, parent = stack.pop()
            i = len(columns[0])
            if parent >= 0:
                columns[3][parent] = i
            if not isinstance(node, dict):
                raise ValidationError(f"tree node {i} is not an object")
            if "leaf" in node:
                if not is_index(node["leaf"]) or node["leaf"] >= n_classes:
                    raise ValidationError(
                        f"tree node {i}: leaf {node['leaf']!r} is not a class index below {n_classes}"
                    )
                for column, value in zip(columns, (-1, 0.0, -1, -1, node["leaf"])):
                    column.append(value)
                continue
            missing = [key for key in ("feature", "threshold", "left", "right") if key not in node]
            if missing:
                raise ValidationError(f"tree node {i} has no 'leaf' and lacks {missing}")
            threshold = node["threshold"]
            if not is_index(node["feature"]):
                raise ValidationError(f"tree node {i}: feature {node['feature']!r} is not an index")
            if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
                raise ValidationError(f"tree node {i}: threshold {threshold!r} is not a number")
            for column, value in zip(columns, (node["feature"], float(threshold), i + 1, -1, -1)):
                column.append(value)
            stack.append((node["right"], i))
            stack.append((node["left"], -1))
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


class DecisionTree(_Model):
    """CART-style binary tree with Gini impurity and pinned tie-breaks."""

    KIND, PARAMS = "decision_tree", ("max_depth", "min_leaf")

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        self.max_depth = check_number("max_depth", max_depth, 1, optional=True, integer=True)
        self.min_leaf = check_number("min_leaf", min_leaf, 1, integer=True)
        self.classes_ = None
        self.nodes: TreeNodes | None = None
        self._feature_picker = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x, y = self._training_set(x, y)
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
        x = self._rows(x, self.nodes is not None)
        return self.classes_[self.nodes.apply(x)]

    def _state(self) -> dict:
        return {"classes": self.classes_.tolist(), "root": self.root}

    def _restore(self, obj: dict) -> None:
        self.classes_ = _classes(obj["classes"])
        self.nodes = TreeNodes.from_nested(obj["root"], self.classes_.size)


class RandomForest(_Model):
    """Bagged trees with per-split feature subsampling and majority vote."""

    KIND = "random_forest"
    PARAMS = ("n_trees", "mtry", "bootstrap", "seed", "max_depth", "min_leaf")

    def __init__(
        self,
        n_trees: int = 100,
        mtry: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
        max_depth: int | None = None,
        min_leaf: int = 1,
    ):
        self.n_trees = check_number("n_trees", n_trees, 1, integer=True)
        self.mtry = check_number("mtry", mtry, 1, optional=True, integer=True)
        self.bootstrap = bootstrap
        self.seed = seed
        self.max_depth = check_number("max_depth", max_depth, 1, optional=True, integer=True)
        self.min_leaf = check_number("min_leaf", min_leaf, 1, integer=True)
        self.trees: list[DecisionTree] = []
        self.classes_ = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x, y = self._training_set(x, y)
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
        x = self._rows(x, bool(self.trees))
        labels = np.unique(np.concatenate([tree.classes_ for tree in self.trees]))
        votes = np.searchsorted(labels, np.stack([tree.predict(x) for tree in self.trees]))
        cells = votes + np.arange(x.shape[0]) * labels.size
        counts = np.bincount(cells.ravel(), minlength=x.shape[0] * labels.size)
        # argmax takes the smallest label on ties
        return labels[np.argmax(counts.reshape(x.shape[0], labels.size), axis=1)]

    def _state(self) -> dict:
        return {"classes": self.classes_.tolist(), "trees": [t.to_json() for t in self.trees]}

    def _restore(self, obj: dict) -> None:
        self.classes_ = _classes(obj["classes"])
        trees = obj["trees"]
        if not isinstance(trees, list) or len(trees) != self.n_trees or any(
            not isinstance(tree, dict) or tree.get("kind") != DecisionTree.KIND for tree in trees
        ):
            raise ValidationError(
                f"random_forest model JSON needs a list of n_trees ({self.n_trees}) "
                f"{DecisionTree.KIND!r} trees"
            )
        self.trees = [_load(DecisionTree, tree) for tree in trees]


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _Linear(_Model):
    """Fitted state of a linear model: the sorted class labels, one row of
    ``weights`` and one ``bias`` per class, all None before fit."""

    classes_ = weights = bias = None

    def _fitted(self, weights: np.ndarray, bias: np.ndarray):
        """``self`` holding its fitted ``weights`` and ``bias``, which a too
        large learning rate drives to inf or NaN: that fit raises instead."""
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValidationError(f"the fit diverged to non-finite weights: lower lr (got {self.lr!r})")
        self.weights, self.bias = weights, bias
        return self

    def _state(self) -> dict:
        return {
            "classes": self.classes_.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    def _restore(self, obj: dict) -> None:
        self.classes_ = _classes(obj["classes"])
        self.weights = np.array(obj["weights"], dtype=np.float64)
        self.bias = np.array(obj["bias"], dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.classes_.size or (
            self.bias.shape != self.classes_.shape
        ):
            raise ValidationError("model weights and bias need one row per class")


class LogisticRegressionGD(_Linear):
    """Multinomial softmax regression by full-batch gradient descent."""

    KIND, PARAMS = "logistic", ("l2",)

    def __init__(
        self,
        l2: float = 1e-4,
        lr: float = 1.0,
        lr_decay: float = 1e-3,
        epochs: int = 5000,
        tol: float = 1e-6,
    ):
        self.l2 = check_number("l2", l2, 0.0)
        self.lr = check_number("lr", lr, 0.0, strict=True)
        self.lr_decay = check_number("lr_decay", lr_decay, 0.0)
        self.epochs = check_number("epochs", epochs, 1, integer=True)
        self.tol = check_number("tol", tol, 0.0)

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
        x, y = self._training_set(x, y)
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
        return self._fitted(weights, bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._rows(x, self.weights is not None, self.weights)
        scores = x @ self.weights.T + self.bias
        return self.classes_[np.argmax(scores, axis=1)]


class LinearSVM(_Linear):
    """Linear SVM: per-class margins, argmax prediction, subgradient descent.

    The training objective is the multiclass (Crammer-Singer) hinge: each
    row pushes its true-class score at least one margin above the strongest
    rival.  A one-vs-rest hinge does not fit ordered adulteration levels:
    the middle classes are not one-vs-rest separable and their scores
    collapse.
    """

    KIND, PARAMS = "linear_svm", ("c",)

    def __init__(
        self,
        c: float = 1.0,
        lr: float = 10.0,
        lr_decay: float = 1e-2,
        epochs: int = 1500,
    ):
        self.c = check_number("c", c, 0.0, strict=True)
        self.lr = check_number("lr", lr, 0.0, strict=True)
        self.lr_decay = check_number("lr_decay", lr_decay, 0.0)
        self.epochs = check_number("epochs", epochs, 1, integer=True)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        x, y = self._training_set(x, y)
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
        return self._fitted(weights, bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._rows(x, self.weights is not None, self.weights)
        scores = x @ self.weights.T + self.bias
        return self.classes_[np.argmax(scores, axis=1)]

    def _state(self) -> dict:
        return {**super()._state(), "loss": "multiclass"}

    def _restore(self, obj: dict) -> None:
        if obj.get("loss", "multiclass") != "multiclass":
            raise ValidationError(f"unknown SVM loss {obj['loss']!r}")
        super()._restore(obj)


MODEL_KINDS = {
    cls.KIND: cls
    for cls in (KNearestNeighbors, DecisionTree, RandomForest, LogisticRegressionGD, LinearSVM)
}


def _load(cls, obj: dict):
    """A ``cls`` model built from the saved hyperparameters of ``obj`` and
    holding the fitted state ``obj`` describes."""
    model = json_call(cls, {p: obj[p] for p in cls.PARAMS}, f"{cls.KIND} model JSON")
    model._restore(obj)
    return model


def model_from_json(obj: dict):
    """The model that ``obj``, a ``to_json`` object, describes; a missing
    key, a wrong shape or type, or a number too large for a float raises
    ValidationError.  ``jsonio.read_json`` refuses non-finite numbers before
    a saved model gets here."""
    if not isinstance(obj, dict):
        raise ValidationError("model JSON must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    try:
        return _load(MODEL_KINDS[kind], obj)
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


# --------------------------------------------------------------------------
# Command handlers (``dualmsi train``, ``dualmsi eval``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_train(
    args, out: Path, matrix: str, model: str = "decision_tree", params: dict | None = None,
    fraction: float = 0.75, granularity: Granularity = Granularity.SAMPLE,
    label_kind: LabelKind = LabelKind.ADULTERATION,
) -> None:
    """Split a matrix CSV, train one classifier, save model + split."""
    data = DataMatrix.from_csv(matrix, label_kind)
    if model not in MODEL_KINDS:
        raise ValidationError(f"unknown model {model!r} (choose from {sorted(MODEL_KINDS)})")
    classifier = json_call(MODEL_KINDS[model], params or {}, f"{model} params")
    split = stratified_split(data, fraction, args.seed, granularity)
    train, test = split_matrix(data, split)
    classifier.fit(train.values, train.label_keys())
    write_json(classifier.to_json(), out / "model.json")
    write_json(split.to_json(), out / "split.json")
    cm = evaluate(classifier, test)
    write_json(cm.to_json(), out / "train_eval.json")
    print(f"{model}: test accuracy {cm.accuracy:.4f} ({len(split.test_ids)} test units)")


def cmd_eval(
    args, out: Path, model: str, matrix: str, label_kind: LabelKind = LabelKind.ADULTERATION
) -> None:
    """Evaluate a saved model against a matrix CSV."""
    classifier = model_from_json(read_json(model, "model JSON"))
    cm = evaluate(classifier, DataMatrix.from_csv(matrix, label_kind))
    write_json(cm.to_json(), out / "eval.json")
    print(f"accuracy {cm.accuracy:.4f} over {cm.total} rows")
