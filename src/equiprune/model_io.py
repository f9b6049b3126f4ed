"""Reading and writing ensembles as JSON documents.

The on-disk document stores raw threshold values on the split nodes;
the loader derives each continuous feature's sorted threshold list from
the union of the splits and rewrites nodes to reference them by index.
Saving inverts that mapping, so load/save round-trips exactly (JSON
serializes floats with repr, which is value-preserving).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .ensemble import (CategoricalFeature, ContinuousFeature, Ensemble, Leaf,
                       build_ensemble, feature_dicts)
from .errors import ModelFormatError

FORMAT_VERSION = 1

_TOP_LEVEL_KEYS = ("format_version", "num_classes", "features", "weights",
                   "trees")


def model_to_dict(ensemble: Ensemble) -> dict:
    """Plain-dict form of the ensemble (the JSON document layout)."""
    trees = []
    for tree in ensemble.trees:
        nodes = []
        for node_id in sorted(tree.nodes):
            node = tree.nodes[node_id]
            if isinstance(node, Leaf):
                nodes.append({"id": node_id, "kind": "leaf",
                              "scores": list(node.scores)})
                continue
            entry = {"id": node_id, "kind": "split", "feature": node.feature,
                     "left": node.left, "right": node.right}
            kind = ensemble.schema.features[node.feature]
            if isinstance(kind, ContinuousFeature):
                entry["threshold"] = kind.thresholds[node.threshold_index]
            elif isinstance(kind, CategoricalFeature):
                entry["category"] = node.category
            nodes.append(entry)
        trees.append({"root": tree.root, "nodes": nodes})

    return {"format_version": FORMAT_VERSION,
            "num_classes": ensemble.num_classes,
            "features": feature_dicts(ensemble.schema),
            "weights": list(ensemble.alpha),
            "trees": trees}


def model_from_dict(doc: dict) -> Ensemble:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = [k for k in _TOP_LEVEL_KEYS if k not in doc]
    if missing:
        raise ModelFormatError(f"model document missing keys: {missing}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {doc['format_version']!r}, "
            f"expected {FORMAT_VERSION}")
    if not isinstance(doc["features"], list) or not isinstance(doc["trees"], list):
        raise ModelFormatError("'features' and 'trees' must be arrays")
    if len(doc["weights"]) != len(doc["trees"]):
        raise ModelFormatError(
            f"{len(doc['weights'])} weights for {len(doc['trees'])} trees")
    try:
        return build_ensemble(num_classes=int(doc["num_classes"]),
                              features=doc["features"],
                              weights=doc["weights"],
                              raw_trees=doc["trees"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def load_model(path: Union[str, Path]) -> Ensemble:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return model_from_dict(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def save_model(ensemble: Ensemble, path: Union[str, Path]) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(model_to_dict(ensemble), fh, indent=2)
        fh.write("\n")
