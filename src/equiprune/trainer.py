"""Self-contained training of test ensembles and synthetic datasets.

Provides discrete multi-class boosting (stage weights
ln((1-err)/err) + ln(C-1) over greedy weighted-Gini trees) and a
plain bootstrap random forest (uniform weights, random feature subset
of ceil(sqrt(p)) per split).  Leaves are one-hot at the weighted
majority class, so every trained model is a hard-voting ensemble.
Continuous and binary features only; categorical splits enter the test
suite through hand-authored model files instead.

Dataset files are CSV with a header row, one column per schema feature
and a final integer ``label`` column; the feature kinds live in a
small companion JSON document.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .ensemble import (BinaryFeature, CategoricalFeature, ContinuousFeature,
                       Ensemble, FeatureSchema, _integer, build_ensemble,
                       cells_of, feature_dicts, read_features)
from .errors import DatasetFormatError, InputError, ModelFormatError

SCHEMA_FORMAT_VERSION = 1
ERR_CLAMP = 1e-10  # stage errors are clamped into [ERR_CLAMP, 1-ERR_CLAMP]


@dataclass
class Dataset:
    """Labeled points matching a (threshold-free) feature schema."""

    schema: FeatureSchema
    X: np.ndarray            # (n, p) float
    y: np.ndarray            # (n,) int, in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if y.size and not np.issubdtype(y.dtype, np.integer):
            raise DatasetFormatError(f"labels must be integers, got {y.dtype}")
        self.y = y.astype(np.int64)
        n, p = self.X.shape
        if p != self.schema.num_features:
            raise DatasetFormatError(
                f"{p} feature columns but schema has "
                f"{self.schema.num_features} features")
        if self.y.shape != (n,):
            raise DatasetFormatError("one label per row required")
        if _integer(self.num_classes, "num_classes", DatasetFormatError) < 2:
            raise DatasetFormatError("num_classes must be >= 2")
        if n and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise DatasetFormatError(
                f"labels must lie in [0, {self.num_classes})")
        try:
            cells_of(self.schema, self.X)
        except InputError as exc:
            raise DatasetFormatError(str(exc)) from None

    @property
    def num_rows(self) -> int:
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# Greedy weighted-Gini trees


def _gini(weight_per_class: np.ndarray) -> float:
    total = weight_per_class.sum()
    if total <= 0:
        return 0.0
    frac = weight_per_class / total
    return float(1.0 - np.sum(frac * frac))


def _class_weights(y: np.ndarray, w: np.ndarray, C: int) -> np.ndarray:
    return np.bincount(y, weights=w, minlength=C)


def _best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray, C: int,
                features: np.ndarray, kinds) -> tuple[int, float | None, float] | None:
    """Best (feature, threshold, score) over the candidate features;
    None when nothing improves on a leaf.  Continuous candidates are the
    midpoints between consecutive distinct sorted values; binary
    features have the single 0/1 split.  Ties keep the first candidate
    in (feature order, ascending threshold) for determinism."""
    parent = _gini(_class_weights(y, w, C))
    total = w.sum()
    best = None
    # accept zero-gain splits on impure nodes (parity-style patterns such
    # as xor have no first split with positive gain)
    best_score = parent + 1e-12
    for j in features:
        col = X[:, j]
        if isinstance(kinds[j], BinaryFeature):
            candidates = [None]
        else:
            values = np.unique(col)
            if values.size < 2:
                continue
            candidates = 0.5 * (values[:-1] + values[1:])
        for thr in candidates:
            left = col == 0.0 if thr is None else col <= thr
            wl = w[left].sum()
            if wl <= 0 or wl >= total:
                continue
            score = (wl * _gini(_class_weights(y[left], w[left], C))
                     + (total - wl) * _gini(_class_weights(y[~left], w[~left], C))
                     ) / total
            if score < best_score:
                best_score = score
                best = (int(j), None if thr is None else float(thr), score)
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, w: np.ndarray, C: int,
               max_depth: int, kinds, rng: np.random.Generator | None,
               subset_size: int | None) -> tuple[dict, np.ndarray]:
    """Raw tree dict (nodes carry raw thresholds) and the class of the
    leaf each row of X lands in.  ``subset_size`` draws that many
    candidate features per split (forest mode); None considers all
    features (boosting mode)."""
    nodes: list[dict] = []
    p = X.shape[1]
    pred = np.empty(X.shape[0], dtype=np.int64)

    def leaf(idx: np.ndarray) -> int:
        majority = int(np.argmax(_class_weights(y[idx], w[idx], C)))
        pred[idx] = majority
        scores = [0.0] * C
        scores[majority] = 1.0
        nodes.append({"id": len(nodes), "kind": "leaf", "scores": scores})
        return len(nodes) - 1

    def grow(idx: np.ndarray, depth: int) -> int:
        if depth >= max_depth or np.unique(y[idx]).size < 2:
            return leaf(idx)
        if subset_size is None:
            features = np.arange(p)
        else:
            features = np.sort(rng.choice(p, size=min(subset_size, p),
                                          replace=False))
        split = _best_split(X[idx], y[idx], w[idx], C, features, kinds)
        if split is None:
            return leaf(idx)
        j, thr, _score = split
        node_id = len(nodes)
        nodes.append({})  # reserve the slot so ids stay preorder
        col = X[idx, j]
        left_mask = col == 0.0 if thr is None else col <= thr
        left = grow(idx[left_mask], depth + 1)
        right = grow(idx[~left_mask], depth + 1)
        entry = {"id": node_id, "kind": "split", "feature": int(j),
                 "left": left, "right": right}
        if thr is not None:
            entry["threshold"] = thr
        nodes[node_id] = entry
        return node_id

    root = grow(np.arange(X.shape[0]), 0)
    return {"root": root, "nodes": nodes}, pred


def _count(value, what: str, least: int) -> None:
    """Refuse a count that is no integer (a bool or float) or below least."""
    if _integer(value, what, InputError) < least:
        raise InputError(f"need {what} >= {least}, got {value}")


def _check_trainable(dataset: Dataset) -> None:
    if any(isinstance(k, CategoricalFeature) for k in dataset.schema.features):
        raise InputError(
            "training handles continuous and binary features only")
    if np.unique(dataset.y).size < 2:
        raise InputError("training needs at least two classes in the data")


def boost_weight(err: float, num_classes: int) -> float:
    """Stage weight ln((1-err)/err) + ln(C-1), with err clamped away
    from 0 and 1."""
    err = min(max(err, ERR_CLAMP), 1.0 - ERR_CLAMP)
    return math.log((1.0 - err) / err) + math.log(num_classes - 1)


def train_adaboost(dataset: Dataset, num_trees: int,
                   max_depth: int = 1) -> Ensemble:
    """Discrete multi-class boosting over greedy weighted-Gini trees.

    Weighted-majority leaves keep every stage error at or below
    1 - 1/C, so stage weights are never negative.  The procedure is
    deterministic."""
    _check_trainable(dataset)
    _count(num_trees, "num_trees", 1)
    _count(max_depth, "max_depth", 0)
    X, y, C = dataset.X, dataset.y, dataset.num_classes
    n = dataset.num_rows
    sample_w = np.full(n, 1.0 / n)
    raw_trees = []
    alphas = []
    for _ in range(num_trees):
        raw, pred = _grow_tree(X, y, sample_w, C, max_depth,
                               dataset.schema.features, rng=None,
                               subset_size=None)
        incorrect = pred != y
        err = float(sample_w[incorrect].sum())
        # majority leaves bound err by 1 - 1/C, so the stage weight is
        # nonnegative up to roundoff; clamp the roundoff away
        alpha = max(0.0, boost_weight(err, C))
        raw_trees.append(raw)
        alphas.append(alpha)
        sample_w = sample_w * np.exp(alpha * incorrect)
        sample_w /= sample_w.sum()
    if not any(a > 0 for a in alphas):
        raise InputError(
            "boosting produced no informative tree (every stage weight "
            "is zero); the data may be unlearnable at this depth")
    return build_ensemble(num_classes=C,
                          features=feature_dicts(dataset.schema),
                          weights=alphas, raw_trees=raw_trees)


def train_random_forest(dataset: Dataset, num_trees: int, max_depth: int = 3,
                        seed: int = 0) -> Ensemble:
    """Bootstrap forest of greedy Gini trees with ceil(sqrt(p)) random
    candidate features per split; every tree weighs 1."""
    _check_trainable(dataset)
    _count(num_trees, "num_trees", 1)
    _count(max_depth, "max_depth", 0)
    rng = np.random.default_rng(seed)
    X, y, C = dataset.X, dataset.y, dataset.num_classes
    n = dataset.num_rows
    subset = math.ceil(math.sqrt(dataset.schema.num_features))
    raw_trees = []
    for _ in range(num_trees):
        rows = rng.integers(0, n, size=n)
        raw, _ = _grow_tree(X[rows], y[rows], np.full(n, 1.0 / n), C,
                            max_depth, dataset.schema.features,
                            rng=rng, subset_size=subset)
        raw_trees.append(raw)
    return build_ensemble(num_classes=C,
                          features=feature_dicts(dataset.schema),
                          weights=[1.0] * num_trees, raw_trees=raw_trees)


# ---------------------------------------------------------------------------
# Synthetic datasets


def make_synthetic(kind: str, n: int = 64, seed: int = 0,
                   num_features: int = 8) -> Dataset:
    """Deterministic toy datasets.

    blobs      two overlapping Gaussian clusters in the plane (labels =
               cluster), coordinates rounded to one decimal so trees
               share split positions;
    xor        the four binary corners labeled x0 XOR x1, repeated
               cyclically up to n rows;
    separable  two bands split by x0 with a 0.2-wide empty margin — a
               single stump can reach accuracy 1;
    linear     ``num_features`` standard normal features rounded to one
               decimal, labeled by the sign of a random linear function
               plus noise of standard deviation 0.5: the many-cell
               regime of the paper.
    """
    _count(n, "n", 4)
    rng = np.random.default_rng(seed)
    if kind == "linear":
        _count(num_features, "num_features", 1)
        schema = FeatureSchema(
            tuple(ContinuousFeature() for _ in range(num_features)),
            tuple(f"x{j}" for j in range(num_features)))
        X = np.round(rng.normal(size=(n, num_features)), 1)
        w = rng.normal(size=num_features)
        y = (X @ w + 0.5 * rng.normal(size=n) > 0).astype(int)
        return Dataset(schema, X, y, num_classes=2)
    if kind == "blobs":
        schema = FeatureSchema(
            (ContinuousFeature(), ContinuousFeature()), ("x0", "x1"))
        half = n // 2
        a = rng.normal(loc=(0.0, 0.0), scale=1.0, size=(half, 2))
        bpts = rng.normal(loc=(1.5, 1.5), scale=1.0, size=(n - half, 2))
        X = np.round(np.vstack([a, bpts]), 1)
        y = np.concatenate([np.zeros(half, dtype=int),
                            np.ones(n - half, dtype=int)])
        order = rng.permutation(n)
        return Dataset(schema, X[order], y[order], num_classes=2)
    if kind == "xor":
        schema = FeatureSchema((BinaryFeature(), BinaryFeature()),
                               ("b0", "b1"))
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = corners[np.arange(n) % 4]
        y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
        return Dataset(schema, X, y, num_classes=2)
    if kind == "separable":
        schema = FeatureSchema(
            (ContinuousFeature(), ContinuousFeature()), ("x0", "x1"))
        half = n // 2
        x0 = np.concatenate([rng.uniform(-1.0, -0.1, size=half),
                             rng.uniform(0.1, 1.0, size=n - half)])
        x1 = rng.uniform(-1.0, 1.0, size=n)
        X = np.round(np.column_stack([x0, x1]), 2)
        y = (X[:, 0] > 0).astype(int)
        order = rng.permutation(n)
        return Dataset(schema, X[order], y[order], num_classes=2)
    raise InputError(f"unknown synthetic kind {kind!r}; "
                     "expected blobs, xor, separable or linear")


# ---------------------------------------------------------------------------
# Dataset and schema files


def save_schema(schema: FeatureSchema, path: Union[str, Path]) -> None:
    doc = {"format_version": SCHEMA_FORMAT_VERSION,
           "features": feature_dicts(schema)}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_schema(path: Union[str, Path]) -> FeatureSchema:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise DatasetFormatError(f"cannot read schema file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "features" not in doc:
        raise DatasetFormatError(f"{path}: schema document needs 'features'")
    try:
        if (_integer(doc.get("format_version"), "format_version")
                != SCHEMA_FORMAT_VERSION):
            raise ModelFormatError(
                f"unsupported format_version {doc['format_version']!r}")
        return read_features(doc["features"])
    except ModelFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.names) + ["label"])
        for x, label in zip(dataset.X, dataset.y):
            writer.writerow([_format_value(v) for v in x] + [int(label)])


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def load_dataset(path: Union[str, Path], schema: FeatureSchema,
                 num_classes: int | None = None) -> Dataset:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetFormatError(f"{path} is empty") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DatasetFormatError(f"cannot read dataset {path}: {exc}") from exc
    expected = list(schema.names) + ["label"]
    if header != expected:
        raise DatasetFormatError(
            f"{path}: header {header} does not match schema columns {expected}")
    if not rows:
        raise DatasetFormatError(f"{path} has no data rows")
    X = np.empty((len(rows), schema.num_features))
    y = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != len(expected):
            raise DatasetFormatError(
                f"{path} row {i + 2}: expected {len(expected)} columns, "
                f"got {len(row)}")
        try:
            X[i] = [float(v) for v in row[:-1]]
            y[i] = int(row[-1])
        except ValueError as exc:
            raise DatasetFormatError(f"{path} row {i + 2}: {exc}") from exc
    if num_classes is None:
        num_classes = max(int(y.max()) + 1, 2)
    return Dataset(schema, X, y, num_classes=num_classes)
