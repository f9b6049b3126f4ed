"""Weighted tree ensembles over mixed feature types.

An ensemble is a weighted set of classification trees; each tree maps a
point to a leaf holding a score vector in [0, 1]^C, and the ensemble
predicts the argmax of the weighted score sum (ties broken toward the
smallest class index).

The feature space is partitioned into axis-aligned cells: one threshold
interval per continuous feature, one bit per binary feature, one level
per categorical feature.  Every tree routes all points of a cell to the
same leaf, so the ensemble's prediction function is piecewise constant
on cells.  ``cells_of`` (and ``cell_of`` for one point) validates points
and maps them to cells; ``cell_center`` maps a cell back to a point.

``Tree``/``Leaf``/``Split`` are the file and validation form only: model
files are read into it and written from it, and ``Ensemble`` checks it.
Each ``Ensemble`` derives, once, a flat array form of all its trees
(``FlatTrees``): per node its split feature, integer cut, categorical
flag, children, leaf scores, node id and tree, concatenated over trees.
Routing, scoring and the separation oracle read that form.  ``leaves_of``
is the one router: it advances every tree of every cell one level per
step.  All predictions -- points, cells, batches, certification -- are
``cells_of`` and/or ``leaves_of`` followed by a lookup in the leaf score
rows.

Split conventions (fixed across the package):
  continuous  - route left iff x_j <= t (closed-left intervals),
  binary      - route left iff x_j == 0,
  categorical - route right iff x_j == z for the node's level z.
On cells, interval index k means x in (t_{k-1}, t_k], so x <= t_r holds
iff k <= r; a binary split is the cut r = 0 on the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError, ModelFormatError

# A cell signature: one integer per feature (interval index / bit / level).
CellSignature = tuple[int, ...]

# A point: one value per feature (real / 0-1 / level index).
Point = tuple[float, ...]


@dataclass(frozen=True)
class ContinuousFeature:
    """Continuous feature with the sorted thresholds split on anywhere
    in the ensemble.  An empty tuple means no tree splits on it."""

    thresholds: tuple[float, ...] = ()

    kind = "continuous"

    def __post_init__(self):
        ts = self.thresholds
        if any(not np.isfinite(t) for t in ts):
            raise ModelFormatError("continuous thresholds must be finite")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ModelFormatError(
                f"thresholds must be strictly increasing, got {ts}")

    @property
    def num_cells(self) -> int:
        return len(self.thresholds) + 1


@dataclass(frozen=True)
class BinaryFeature:
    kind = "binary"

    @property
    def num_cells(self) -> int:
        return 2


@dataclass(frozen=True)
class CategoricalFeature:
    num_levels: int

    kind = "categorical"

    def __post_init__(self):
        if self.num_levels < 2:
            raise ModelFormatError(
                f"categorical feature needs >= 2 levels, got {self.num_levels}")

    @property
    def num_cells(self) -> int:
        return self.num_levels


FeatureKind = Union[ContinuousFeature, BinaryFeature, CategoricalFeature]


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptions shared by all trees of an ensemble."""

    features: tuple[FeatureKind, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.names:
            object.__setattr__(
                self, "names",
                tuple(f"f{i}" for i in range(len(self.features))))
        if len(self.names) != len(self.features):
            raise ModelFormatError("feature names do not match feature count")

    @property
    def num_features(self) -> int:
        return len(self.features)

    def num_cells(self) -> int:
        """Total cell count of the induced partition (exact integer)."""
        total = 1
        for kind in self.features:
            total *= kind.num_cells
        return total


@dataclass(frozen=True)
class Leaf:
    scores: tuple[float, ...]


@dataclass(frozen=True)
class Split:
    feature: int
    left: int
    right: int
    threshold_index: int | None = None
    category: int | None = None


@dataclass(frozen=True)
class Tree:
    """A binary decision tree; ``nodes`` maps node id to Leaf or Split.
    Construction checks that every node is reachable from the root
    exactly once and records the largest depth.  Instances are immutable.
    """

    root: int
    nodes: dict[int, Leaf | Split]
    max_depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        depth: dict[int, int] = {}
        stack = [(self.root, 0)]
        while stack:
            node_id, d = stack.pop()
            if node_id not in self.nodes:
                raise ModelFormatError(f"dangling node id {node_id}")
            if node_id in depth:
                raise ModelFormatError(
                    f"node {node_id} reachable more than once")
            depth[node_id] = d
            node = self.nodes[node_id]
            if not isinstance(node, Leaf):
                stack.append((node.right, d + 1))
                stack.append((node.left, d + 1))
        if len(depth) != len(self.nodes):
            unreachable = sorted(set(self.nodes) - set(depth))
            raise ModelFormatError(f"unreachable nodes {unreachable}")
        object.__setattr__(self, "max_depth", max(depth.values()))


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """All trees of an ensemble as flat node arrays, tree after tree, each
    tree's nodes in ascending id order.  Leaves point to themselves, so a
    router may step past a shallow tree's leaf without moving."""

    feature: np.ndarray      # (N,) split feature; 0 at leaves
    cut: np.ndarray          # (N,) threshold index, category, or 0 (binary)
    categorical: np.ndarray  # (N,) bool: left iff cell != cut, else <= cut
    left: np.ndarray         # (N,) flat index of the left child
    right: np.ndarray        # (N,) flat index of the right child
    scores: np.ndarray       # (N, C) leaf score rows; zero at splits
    node_id: np.ndarray      # (N,) the node's id within its tree
    tree: np.ndarray         # (N,) the index of its tree
    roots: np.ndarray        # (M,) flat index of each root
    depth: int               # largest tree depth

    @classmethod
    def of(cls, trees: Sequence[Tree], num_classes: int) -> "FlatTrees":
        keys = [(m, v) for m, tree in enumerate(trees)
                for v in sorted(tree.nodes)]
        index = {key: i for i, key in enumerate(keys)}
        n = len(keys)
        feature, cut = np.zeros(n, np.int64), np.zeros(n, np.int64)
        categorical = np.zeros(n, bool)
        left, right = np.arange(n), np.arange(n)
        scores = np.zeros((n, num_classes))
        for i, (m, v) in enumerate(keys):
            node = trees[m].nodes[v]
            if isinstance(node, Leaf):
                scores[i] = node.scores
                continue
            feature[i] = node.feature
            categorical[i] = node.category is not None
            cut[i] = (node.category if categorical[i]
                      else node.threshold_index or 0)
            left[i], right[i] = index[m, node.left], index[m, node.right]
        return cls(feature=feature, cut=cut, categorical=categorical,
                   left=left, right=right, scores=scores,
                   node_id=np.array([v for _, v in keys], dtype=np.int64),
                   tree=np.array([m for m, _ in keys], dtype=np.int64),
                   roots=np.array([index[m, t.root]
                                   for m, t in enumerate(trees)]),
                   depth=max(t.max_depth for t in trees))


@dataclass(frozen=True)
class Ensemble:
    """Weighted set of trees over a shared schema.

    ``alpha`` holds the original non-negative tree weights.  Pruned
    weight vectors are passed separately to the prediction functions so
    one ensemble can be evaluated under many reweightings.  ``flat`` is
    the derived array form every router call reads.
    """

    schema: FeatureSchema
    trees: tuple[Tree, ...]
    alpha: tuple[float, ...]
    num_classes: int
    flat: FlatTrees = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ModelFormatError("num_classes must be >= 2")
        if not self.trees:
            raise ModelFormatError("ensemble needs at least one tree")
        if len(self.alpha) != len(self.trees):
            raise ModelFormatError("weights length does not match tree count")
        if any(a < 0 or not np.isfinite(a) for a in self.alpha):
            raise ModelFormatError("tree weights must be finite and >= 0")
        if not any(a > 0 for a in self.alpha):
            raise ModelFormatError("at least one tree weight must be positive")
        used = [set() for _ in self.schema.features]
        for ti, tree in enumerate(self.trees):
            self._validate_tree(ti, tree, used)
        for j, kind in enumerate(self.schema.features):
            if isinstance(kind, ContinuousFeature):
                if used[j] != set(range(len(kind.thresholds))):
                    raise ModelFormatError(
                        f"schema thresholds of feature {j} must equal the "
                        "union of split thresholds used by the trees")
        object.__setattr__(self, "flat",
                           FlatTrees.of(self.trees, self.num_classes))

    def _validate_tree(self, ti: int, tree: Tree, used: list[set]) -> None:
        for node_id, node in tree.nodes.items():
            if isinstance(node, Leaf):
                if len(node.scores) != self.num_classes:
                    raise ModelFormatError(
                        f"tree {ti} leaf {node_id}: score vector length "
                        f"{len(node.scores)} != num_classes {self.num_classes}")
                for s in node.scores:
                    if not (np.isfinite(s) and 0.0 <= s <= 1.0):
                        raise ModelFormatError(
                            f"tree {ti} leaf {node_id}: score {s} outside [0, 1]")
                continue
            if not 0 <= node.feature < self.schema.num_features:
                raise ModelFormatError(
                    f"tree {ti} node {node_id}: unknown feature {node.feature}")
            kind = self.schema.features[node.feature]
            if isinstance(kind, ContinuousFeature):
                r = node.threshold_index
                if r is None or not 0 <= r < len(kind.thresholds):
                    raise ModelFormatError(
                        f"tree {ti} node {node_id}: bad threshold index {r}")
                used[node.feature].add(r)
            elif isinstance(kind, CategoricalFeature):
                z = node.category
                if z is None or not 0 <= z < kind.num_levels:
                    raise ModelFormatError(
                        f"tree {ti} node {node_id}: bad category {z}")
            else:
                if node.threshold_index is not None or node.category is not None:
                    raise ModelFormatError(
                        f"tree {ti} node {node_id}: binary split must not "
                        "carry a threshold or category")

    @property
    def num_trees(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# Points, cells and prediction


# Cells are routed in blocks of this many rows, so scoring stays within
# O(block * trees * classes) memory at any cell count.
_ROUTE_BLOCK = 1024


def _check_weights(ensemble: Ensemble, weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (ensemble.num_trees,):
        raise InputError(
            f"weight vector length {w.shape} does not match "
            f"{ensemble.num_trees} trees")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InputError("weights must be finite and >= 0")
    return w


def cells_of(schema: FeatureSchema, X) -> np.ndarray:
    """Cell signatures (n, p) of the points in the rows of ``X``: interval
    index k_j = #{r : x_j > t_r} for continuous features, the value itself
    for binary and categorical ones.  Raises ``InputError`` on rows that
    are not numbers of one length, a wrong arity, a NaN or infinite
    value, a binary value other than 0/1 and a categorical value that is
    not one of the feature's levels."""
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points must be rows of numbers: {exc}") from None
    if X.ndim != 2 or X.shape[1] != schema.num_features:
        raise InputError(
            f"expected points of arity {schema.num_features}, "
            f"got array of shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError("point values must be finite, got NaN or infinity")
    cells = np.empty(X.shape, dtype=np.int64)
    for j, kind in enumerate(schema.features):
        col = X[:, j]
        if isinstance(kind, ContinuousFeature):
            cells[:, j] = np.searchsorted(kind.thresholds, col, side="left")
            continue
        bad = (col != np.floor(col)) | (col < 0) | (col >= kind.num_cells)
        if bad.any():
            raise InputError(f"feature {j} is {kind.kind} with values "
                             f"0..{kind.num_cells - 1}, got {col[bad][0]}")
        cells[:, j] = col.astype(np.int64)
    return cells


def cell_of(schema: FeatureSchema, x: Sequence[float]) -> CellSignature:
    """Cell signature of the single point ``x`` (see ``cells_of``)."""
    return tuple(int(k) for k in cells_of(schema, [x])[0])


def leaves_of(ensemble: Ensemble, cells) -> np.ndarray:
    """The router: flat index (into ``ensemble.flat``) of the leaf every
    tree reaches, (n, M), for the integer cell rows (n, p) of ``cells``.
    All trees advance together, one level per step."""
    flat = ensemble.flat
    cells = np.asarray(cells, dtype=np.int64)
    node = np.tile(flat.roots, (cells.shape[0], 1))
    rows = np.arange(cells.shape[0])[:, None]
    for _ in range(flat.depth):
        entry = cells[rows, flat.feature[node]]
        cut = flat.cut[node]
        go_left = np.where(flat.categorical[node], entry != cut, entry <= cut)
        node = np.where(go_left, flat.left[node], flat.right[node])
    return node


def cell_score_matrix(ensemble: Ensemble, cell: CellSignature) -> np.ndarray:
    """Per-tree score matrix on a cell: entry (m, c) is tree m's score
    for class c at the leaf the cell routes to."""
    return ensemble.flat.scores[leaves_of(ensemble, [cell])[0]]


def cell_scores(ensemble: Ensemble, weights: Sequence[float],
                cell: CellSignature) -> np.ndarray:
    """Weighted class-score vector on a cell."""
    return _check_weights(ensemble, weights) @ cell_score_matrix(ensemble, cell)


def cell_class(ensemble: Ensemble, weights: Sequence[float],
               cell: CellSignature) -> int:
    return int(np.argmax(cell_scores(ensemble, weights, cell)))


def cell_scores_batch(ensemble: Ensemble, weights: Sequence[float],
                      cells: np.ndarray) -> np.ndarray:
    """Weighted class scores (n, C) of the cell rows (n, p) of ``cells``."""
    w = _check_weights(ensemble, weights)
    out = np.empty((len(cells), ensemble.num_classes))
    for start in range(0, len(cells), _ROUTE_BLOCK):
        block = slice(start, start + _ROUTE_BLOCK)
        leaves = leaves_of(ensemble, cells[block])
        out[block] = w @ ensemble.flat.scores[leaves]
    return out


def tree_scores(ensemble: Ensemble, x: Sequence[float]) -> np.ndarray:
    """Per-tree score matrix at ``x``: entry (m, c) is tree m's score for
    class c at the leaf x routes to."""
    return cell_score_matrix(ensemble, cell_of(ensemble.schema, x))


def predict_scores(ensemble: Ensemble, weights: Sequence[float],
                   x: Sequence[float]) -> np.ndarray:
    """Weighted class-score vector sum_m w_m * h_m(x)."""
    return cell_scores(ensemble, weights, cell_of(ensemble.schema, x))


def predict_class(ensemble: Ensemble, weights: Sequence[float],
                  x: Sequence[float]) -> int:
    """Predicted class: argmax of the weighted scores, ties broken toward
    the smallest class index."""
    return int(np.argmax(predict_scores(ensemble, weights, x)))


def predict_scores_batch(ensemble: Ensemble, weights: Sequence[float],
                         X: np.ndarray) -> np.ndarray:
    """Weighted score matrix (n, C) for a batch of points (rows of X)."""
    return cell_scores_batch(ensemble, weights, cells_of(ensemble.schema, X))


def predict_classes_batch(ensemble: Ensemble, weights: Sequence[float],
                          X: np.ndarray) -> np.ndarray:
    return np.argmax(predict_scores_batch(ensemble, weights, X), axis=1)


def check_cell(schema: FeatureSchema, cell: CellSignature) -> None:
    if len(cell) != schema.num_features:
        raise InputError(
            f"cell has {len(cell)} entries, schema has "
            f"{schema.num_features} features")
    for j, kind in enumerate(schema.features):
        if not 0 <= cell[j] < kind.num_cells:
            raise InputError(f"cell entry {cell[j]} out of range for feature {j}")


def cell_center(schema: FeatureSchema, cell: CellSignature) -> Point:
    """A representative point of ``cell``; ``cell_of`` maps it back.

    Interior intervals use the midpoint; the unbounded end intervals pad
    by 1.0 beyond the extreme threshold.
    """
    check_cell(schema, cell)
    out: list[float] = []
    for j, kind in enumerate(schema.features):
        k = cell[j]
        if isinstance(kind, ContinuousFeature):
            ts = kind.thresholds
            if not ts:
                out.append(0.0)
            elif k == 0:
                out.append(ts[0] - 1.0)
            elif k == len(ts):
                out.append(ts[-1] + 1.0)
            else:
                mid = 0.5 * (ts[k - 1] + ts[k])
                # Adjacent representable thresholds can round the midpoint
                # onto the open boundary; the closed end is always inside.
                out.append(ts[k] if mid <= ts[k - 1] else mid)
        else:
            out.append(float(k))
    return tuple(out)


# ---------------------------------------------------------------------------
# Construction from raw split thresholds


def feature_dicts(schema: FeatureSchema) -> list[dict]:
    """The schema as the {"name", "kind", "levels"?} entries that
    ``build_ensemble`` reads and model and schema files store."""
    out = []
    for name, kind in zip(schema.names, schema.features):
        entry = {"name": name, "kind": kind.kind}
        if isinstance(kind, CategoricalFeature):
            entry["levels"] = kind.num_levels
        out.append(entry)
    return out


def build_ensemble(num_classes: int,
                   features: Iterable[dict],
                   weights: Sequence[float],
                   raw_trees: Iterable[dict],
                   ) -> Ensemble:
    """Build an Ensemble from trees whose continuous splits carry raw
    threshold values.

    ``features`` is a list of {"name", "kind", "levels"?} entries;
    ``raw_trees`` a list of {"root", "nodes": [...]} entries where each
    node is {"id", "kind": "split", "feature", "threshold"? , "category"?,
    "left", "right"} or {"id", "kind": "leaf", "scores"}.  The schema's
    per-feature threshold lists are the sorted union of the raw split
    thresholds, and split nodes are rewritten to reference them by index.
    """
    feats = list(features)
    kinds: list[str] = []
    names: list[str] = []
    levels: list[int | None] = []
    for j, entry in enumerate(feats):
        kind = entry.get("kind")
        if kind not in ("continuous", "binary", "categorical"):
            raise ModelFormatError(f"feature {j}: unknown kind {kind!r}")
        if kind == "categorical" and "levels" not in entry:
            raise ModelFormatError(f"feature {j}: categorical needs 'levels'")
        kinds.append(kind)
        names.append(str(entry.get("name", f"f{j}")))
        levels.append(int(entry["levels"]) if kind == "categorical" else None)

    raw_trees = list(raw_trees)
    thresholds: list[set[float]] = [set() for _ in feats]
    for ti, raw in enumerate(raw_trees):
        for node in raw.get("nodes", []):
            if node.get("kind") != "split":
                continue
            j = node.get("feature")
            if not isinstance(j, int) or not 0 <= j < len(feats):
                raise ModelFormatError(
                    f"tree {ti} node {node.get('id')}: unknown feature {j}")
            if kinds[j] == "continuous":
                if "threshold" not in node:
                    raise ModelFormatError(
                        f"tree {ti} node {node.get('id')}: continuous split "
                        "needs a threshold")
                t = float(node["threshold"])
                if not np.isfinite(t):
                    raise ModelFormatError(
                        f"tree {ti} node {node.get('id')}: non-finite threshold")
                thresholds[j].add(t)

    schema_features: list[FeatureKind] = []
    index_of: list[dict[float, int]] = []
    for j, kind in enumerate(kinds):
        if kind == "continuous":
            ts = tuple(sorted(thresholds[j]))
            schema_features.append(ContinuousFeature(ts))
            index_of.append({t: r for r, t in enumerate(ts)})
        elif kind == "binary":
            schema_features.append(BinaryFeature())
            index_of.append({})
        else:
            schema_features.append(CategoricalFeature(levels[j]))
            index_of.append({})
    schema = FeatureSchema(tuple(schema_features), tuple(names))

    trees: list[Tree] = []
    for ti, raw in enumerate(raw_trees):
        nodes: dict[int, Leaf | Split] = {}
        for node in raw.get("nodes", []):
            node_id = node.get("id")
            if not isinstance(node_id, int):
                raise ModelFormatError(f"tree {ti}: node without integer id")
            if node_id in nodes:
                raise ModelFormatError(f"tree {ti}: duplicate node id {node_id}")
            if node.get("kind") == "leaf":
                nodes[node_id] = Leaf(tuple(float(s) for s in node["scores"]))
            elif node.get("kind") == "split":
                j = node["feature"]
                thr_idx = None
                cat = None
                if kinds[j] == "continuous":
                    thr_idx = index_of[j][float(node["threshold"])]
                    if "category" in node:
                        raise ModelFormatError(
                            f"tree {ti} node {node_id}: continuous split must "
                            "not carry a category")
                elif kinds[j] == "categorical":
                    if "category" not in node:
                        raise ModelFormatError(
                            f"tree {ti} node {node_id}: categorical split "
                            "needs a category")
                    cat = int(node["category"])
                else:
                    if "threshold" in node or "category" in node:
                        raise ModelFormatError(
                            f"tree {ti} node {node_id}: binary split must not "
                            "carry a threshold or category")
                nodes[node_id] = Split(feature=j, left=node["left"],
                                       right=node["right"],
                                       threshold_index=thr_idx, category=cat)
            else:
                raise ModelFormatError(
                    f"tree {ti} node {node_id}: kind must be 'split' or 'leaf'")
        if "root" not in raw:
            raise ModelFormatError(f"tree {ti}: missing root")
        trees.append(Tree(root=raw["root"], nodes=nodes))

    return Ensemble(schema=schema, trees=tuple(trees),
                    alpha=tuple(float(a) for a in weights),
                    num_classes=num_classes)
