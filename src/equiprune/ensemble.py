"""Weighted tree ensembles over mixed feature types.

An ensemble is a weighted set of classification trees; each tree maps a
point to a leaf holding a score vector in [0, 1]^C, and the ensemble
predicts the argmax of the weighted score sum (ties broken toward the
smallest class index).

The feature space is partitioned into axis-aligned cells: one threshold
interval per continuous feature, one bit per binary feature, one level
per categorical feature.  Every tree routes all points of a cell to the
same leaf, so the ensemble's prediction function is piecewise constant
on cells.  ``cells_of`` validates points and maps them to cells;
``cell_center`` maps a cell back to a point.

An ensemble's trees have one form, ``FlatTrees``: per node its split
feature, integer cut, categorical flag, children, leaf scores, node id
and tree, concatenated over trees.  ``build_ensemble`` is the one reader
of trees from outside the program: it checks every node of a model
document once and fills those arrays directly.  Routing, scoring, the
separation oracle and ``model_to_dict`` read them.  ``leaves_of`` is the
one router: it advances every tree of every cell one level per step.
All predictions are of batches: ``cell_scores_batch`` scores cell rows
by ``leaves_of`` and a lookup in the leaf score rows, and
``predict_scores_batch`` scores points as the cells ``cells_of`` gives.

Split conventions (fixed across the package):
  continuous  - route left iff x_j <= t (closed-left intervals),
  binary      - route left iff x_j == 0,
  categorical - route right iff x_j == z for the node's level z.
On cells, interval index k means x in (t_{k-1}, t_k], so x <= t_r holds
iff k <= r; a binary split is the cut r = 0 on the bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Sequence, Union

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

    def __eq__(self, other):
        return isinstance(other, FlatTrees) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))


@dataclass(frozen=True)
class Ensemble:
    """Weighted set of trees over a shared schema.

    ``alpha`` holds the original non-negative tree weights.  Pruned
    weight vectors are passed separately to the prediction functions so
    one ensemble can be evaluated under many reweightings; reweight the
    ensemble itself with ``dataclasses.replace(ensemble, alpha=...)``.
    """

    schema: FeatureSchema
    flat: FlatTrees
    alpha: tuple[float, ...]
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ModelFormatError("num_classes must be >= 2")
        if len(self.alpha) != self.num_trees:
            raise ModelFormatError(
                f"{len(self.alpha)} weights for {self.num_trees} trees")
        if any(a < 0 or not np.isfinite(a) for a in self.alpha):
            raise ModelFormatError("tree weights must be finite and >= 0")
        if not any(a > 0 for a in self.alpha):
            raise ModelFormatError("at least one tree weight must be positive")

    @property
    def num_trees(self) -> int:
        return len(self.flat.roots)


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
    if X.shape == (0,):             # an empty list of points
        X = X.reshape(0, schema.num_features)
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


def cell_scores_batch(ensemble: Ensemble, weights: Sequence[float],
                      cells) -> np.ndarray:
    """Weighted class scores (n, C) of the n cell signatures in
    ``cells``, an (n, p) array or a list of them (which may be empty)."""
    w = _check_weights(ensemble, weights)
    cells = np.asarray(cells, dtype=np.int64).reshape(
        len(cells), ensemble.schema.num_features)
    out = np.empty((len(cells), ensemble.num_classes))
    for start in range(0, len(cells), _ROUTE_BLOCK):
        block = slice(start, start + _ROUTE_BLOCK)
        leaves = leaves_of(ensemble, cells[block])
        out[block] = w @ ensemble.flat.scores[leaves]
    return out


def predict_scores_batch(ensemble: Ensemble, weights: Sequence[float],
                         X: np.ndarray) -> np.ndarray:
    """Weighted score matrix (n, C) for a batch of points (rows of X)."""
    return cell_scores_batch(ensemble, weights, cells_of(ensemble.schema, X))


def predict_classes_batch(ensemble: Ensemble, weights: Sequence[float],
                          X: np.ndarray) -> np.ndarray:
    """Predicted classes (n,): argmax of the weighted scores, ties broken
    toward the smallest class index."""
    return np.argmax(predict_scores_batch(ensemble, weights, X), axis=1)


def check_cell(schema: FeatureSchema, cell: CellSignature) -> None:
    if len(cell) != schema.num_features:
        raise InputError(
            f"cell has {len(cell)} entries, schema has "
            f"{schema.num_features} features")
    for j, kind in enumerate(schema.features):
        k = _integer(cell[j], f"cell entry for feature {j}", InputError)
        if not 0 <= k < kind.num_cells:
            raise InputError(f"cell entry {k} out of range for feature {j}")


def _above(threshold: float) -> float:
    """threshold + 1.0, or the next float up where 1.0 is lost to
    rounding (thresholds of magnitude 2^53 and beyond): a point in the
    cell above ``threshold``."""
    return float(max(threshold + 1.0, np.nextafter(threshold, np.inf)))


def cell_center(schema: FeatureSchema, cell: CellSignature) -> Point:
    """A representative point of ``cell``; ``cells_of`` maps it back.

    Interior intervals use the midpoint; the unbounded end intervals pad
    by 1.0 beyond the extreme threshold, the top one by at least one ulp
    (``_above``), since it is open at its threshold.
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
                out.append(_above(ts[-1]))
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


def _integer(value, what: str, error: type = ModelFormatError) -> int:
    """``value`` if it is a Python or numpy integer within int64;
    anything else, a bool or a float included, raises ``error``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not -2**63 <= value < 2**63):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float; a bool, a non-number or an integer beyond
    the float range is a ModelFormatError."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ModelFormatError(f"{what} must be a number, got {value!r}")


def _array(value, what: str) -> list | tuple:
    return _of_type(value, (list, tuple), f"{what} must be an array")


def _object(value, what: str) -> dict:
    return _of_type(value, dict, f"{what} must be an object")


def _of_type(value, types, message: str):
    if not isinstance(value, types):
        raise ModelFormatError(f"{message}, got {type(value).__name__}")
    return value


def read_features(entries: Sequence[dict]) -> FeatureSchema:
    """The schema that {"name"?, "kind", "levels"?} entries describe (as
    ``feature_dicts`` writes them), continuous features without
    thresholds; any violation raises ModelFormatError."""
    kinds, names = [], []
    for j, entry in enumerate(_array(entries, "features")):
        kind = _object(entry, f"feature {j}").get("kind")
        names.append(_of_type(entry.get("name", f"f{j}"), str,
                              f"feature {j}: name must be a string"))
        if kind == "categorical":
            kinds.append(CategoricalFeature(
                _integer(entry.get("levels"), f"feature {j}: levels")))
        elif kind in ("continuous", "binary"):
            kinds.append(ContinuousFeature() if kind == "continuous"
                         else BinaryFeature())
        else:
            raise ModelFormatError(f"feature {j}: unknown kind {kind!r}")
    return FeatureSchema(tuple(kinds), tuple(names))


def build_ensemble(num_classes: int,
                   features: Sequence[dict],
                   weights: Sequence[float],
                   raw_trees: Sequence[dict],
                   ) -> Ensemble:
    """Check the parts of a model document and build its Ensemble; any
    violation raises ModelFormatError.

    ``features`` is a list of entries for ``read_features``;
    ``raw_trees`` a list of {"root", "nodes": [...]} entries where each
    node is {"id", "kind": "split", "feature", "threshold"?, "category"?,
    "left", "right"} or {"id", "kind": "leaf", "scores"}.  Node ids,
    ``num_classes``, ``levels`` and ``category`` are integers (a bool is
    not), and every node of a tree is reachable from its root exactly
    once.  A continuous feature's thresholds are the sorted union of the
    raw thresholds its splits carry; a split's cut is its index there.
    """
    num_classes = _integer(num_classes, "num_classes")
    read = read_features(features)   # continuous: thresholds to come
    kinds = read.features

    raw_trees = _array(raw_trees, "trees")
    if not raw_trees:
        raise ModelFormatError("ensemble needs at least one tree")
    thresholds: list[set[float]] = [set() for _ in kinds]
    rows, roots, depth = [], [], 0
    for m, raw in enumerate(raw_trees):
        nodes: dict[int, tuple] = {}
        for node in _array(_object(raw, f"tree {m}").get("nodes"),
                           f"tree {m}: nodes"):
            node_id, row = _read_node(m, node, kinds, num_classes, thresholds)
            if node_id in nodes:
                raise ModelFormatError(f"tree {m}: duplicate node id {node_id}")
            nodes[node_id] = row
        if "root" not in raw:
            raise ModelFormatError(f"tree {m}: missing root")
        root = _integer(raw["root"], f"tree {m}: root")
        depth = max(depth, _tree_depth(m, root, nodes))
        index = {v: len(rows) + k for k, v in enumerate(sorted(nodes))}
        roots.append(index[root])
        zeros = [0.0] * num_classes   # as long as this tree's leaf rows
        for v, i in index.items():
            j, cut, cat, left, right, scores = nodes[v]
            rows.append((j, cut, cat, index.get(left, i), index.get(right, i),
                         zeros if scores is None else scores, v, m))

    schema = FeatureSchema(
        tuple(ContinuousFeature(tuple(sorted(ts))) if ts else kind
              for kind, ts in zip(kinds, thresholds)), read.names)
    columns = [list(column) for column in zip(*rows)]   # FlatTrees' order
    feature, cut, _, left = columns[:4]
    for i, j in enumerate(feature):
        if thresholds[j] and left[i] != i:   # raw threshold -> its index
            cut[i] = bisect_left(schema.features[j].thresholds, cut[i])
    flat = FlatTrees(*map(np.array, columns), roots=np.array(roots),
                     depth=depth)
    alpha = tuple(_number(a, "tree weight") for a in _array(weights, "weights"))
    return Ensemble(schema=schema, flat=flat, alpha=alpha,
                    num_classes=num_classes)


def _read_node(m: int, node, kinds: tuple, num_classes: int,
               thresholds: list[set[float]]) -> tuple[int, tuple]:
    """Id and row (feature, cut, categorical, left id, right id, scores)
    of a node of tree ``m``.  A leaf's child ids and a split's scores are
    None; a continuous split's cut is its raw threshold, which joins its
    feature's set."""
    node_id = _integer(_object(node, f"tree {m}: node").get("id"),
                       f"tree {m}: node id")
    where = f"tree {m} node {node_id}"
    if node.get("kind") == "leaf":
        scores = [_number(s, f"{where}: score")
                  for s in _array(node.get("scores"), f"{where}: scores")]
        if len(scores) != num_classes:
            raise ModelFormatError(
                f"tree {m} leaf {node_id}: score vector length "
                f"{len(scores)} != num_classes {num_classes}")
        for s in scores:
            if not 0.0 <= s <= 1.0:
                raise ModelFormatError(
                    f"tree {m} leaf {node_id}: score {s} outside [0, 1]")
        return node_id, (0, 0, False, None, None, scores)
    if node.get("kind") != "split":
        raise ModelFormatError(f"{where}: kind must be 'split' or 'leaf'")
    j = node.get("feature")
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < len(kinds):
        raise ModelFormatError(f"{where}: unknown feature {j!r}")
    kind, cut = kinds[j], 0
    if isinstance(kind, ContinuousFeature):
        if "threshold" not in node:
            raise ModelFormatError(
                f"{where}: continuous split needs a threshold")
        if "category" in node:
            raise ModelFormatError(
                f"{where}: continuous split must not carry a category")
        cut = _number(node["threshold"], f"{where}: threshold")
        if not np.isfinite(cut):
            raise ModelFormatError(f"{where}: non-finite threshold")
        thresholds[j].add(cut)
    elif isinstance(kind, CategoricalFeature):
        if "category" not in node:
            raise ModelFormatError(f"{where}: categorical split needs a category")
        cut = _integer(node["category"], f"{where}: category")
        if not 0 <= cut < kind.num_levels:
            raise ModelFormatError(f"{where}: bad category {cut}")
    elif "threshold" in node or "category" in node:
        raise ModelFormatError(f"{where}: binary split must not carry a "
                               "threshold or category")
    left, right = (_integer(node.get(side), f"{where}: {side}")
                   for side in ("left", "right"))
    return node_id, (j, cut, isinstance(kind, CategoricalFeature), left, right,
                     None)


def _tree_depth(m: int, root: int, nodes: dict[int, tuple]) -> int:
    """Largest depth of tree ``m``; checks that every node is reachable
    from ``root`` exactly once."""
    depth, seen, stack = 0, set(), [(root, 0)]
    while stack:
        v, d = stack.pop()
        if v not in nodes:
            raise ModelFormatError(f"tree {m}: dangling node id {v}")
        if v in seen:
            raise ModelFormatError(
                f"tree {m}: node {v} reachable more than once")
        seen.add(v)
        depth = max(depth, d)
        left, right = nodes[v][3:5]
        if left is not None:
            stack += [(right, d + 1), (left, d + 1)]
    if len(seen) != len(nodes):
        raise ModelFormatError(
            f"tree {m}: unreachable nodes {sorted(set(nodes) - seen)}")
    return depth
