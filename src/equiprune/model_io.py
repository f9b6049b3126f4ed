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

from .ensemble import (CategoricalFeature, ContinuousFeature, Ensemble,
                       _integer, build_ensemble, feature_dicts)
from .errors import ModelFormatError

FORMAT_VERSION = 1

_TOP_LEVEL_KEYS = ("format_version", "num_classes", "features", "weights",
                   "trees")


def model_to_dict(ensemble: Ensemble) -> dict:
    """Plain-dict form of the ensemble (the JSON document layout), each
    tree's nodes in ascending id order."""
    flat, features = ensemble.flat, ensemble.schema.features
    ids = flat.node_id.tolist()
    trees = [{"root": ids[i], "nodes": []} for i in flat.roots.tolist()]
    for i, (m, j, cut, left, right) in enumerate(zip(
            flat.tree.tolist(), flat.feature.tolist(), flat.cut.tolist(),
            flat.left.tolist(), flat.right.tolist())):
        if left == i:
            entry = {"id": ids[i], "kind": "leaf",
                     "scores": flat.scores[i].tolist()}
        else:
            entry = {"id": ids[i], "kind": "split", "feature": j,
                     "left": ids[left], "right": ids[right]}
            if isinstance(features[j], ContinuousFeature):
                entry["threshold"] = features[j].thresholds[cut]
            elif isinstance(features[j], CategoricalFeature):
                entry["category"] = cut
        trees[m]["nodes"].append(entry)

    return {"format_version": FORMAT_VERSION,
            "num_classes": ensemble.num_classes,
            "features": feature_dicts(ensemble.schema),
            "weights": list(ensemble.alpha),
            "trees": trees}


def model_from_dict(doc: dict) -> Ensemble:
    """The Ensemble a model document describes (see ``build_ensemble``)."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = [k for k in _TOP_LEVEL_KEYS if k not in doc]
    if missing:
        raise ModelFormatError(f"model document missing keys: {missing}")
    if _integer(doc["format_version"], "format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {doc['format_version']!r}, "
            f"expected {FORMAT_VERSION}")
    return build_ensemble(num_classes=doc["num_classes"],
                          features=doc["features"], weights=doc["weights"],
                          raw_trees=doc["trees"])


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
