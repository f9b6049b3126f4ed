"""JSON model documents: round-trips and rejection diagnostics."""

import json
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equiprune import (ModelFormatError, load_model, model_from_dict,
                       model_to_dict, save_model)
from conftest import DATA_DIR, make_stump, stump_ensembles
from test_ensemble import random_mixed_ensemble


def doc_of(ensemble):
    return model_to_dict(ensemble)


def valid_doc():
    return {
        "format_version": 1,
        "num_classes": 2,
        "features": [{"name": "x1", "kind": "continuous"}],
        "weights": [1.0],
        "trees": [make_stump(0, 0.5, (1.0, 0.0), (0.0, 1.0))],
    }


def test_dict_round_trip_is_identity():
    doc = valid_doc()
    assert model_to_dict(model_from_dict(doc)) == doc


def test_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    ens = model_from_dict(valid_doc())
    save_model(ens, path)
    again = load_model(path)
    assert again == ens
    # and the re-serialized bytes match (key order is fixed by the writer)
    path2 = tmp_path / "m2.json"
    save_model(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_random_ensembles_round_trip(tmp_path, data_dir):
    rng = np.random.default_rng(8)
    ensembles = [ens for _, ens in stump_ensembles(400, 10)]
    ensembles += [random_mixed_ensemble(rng) for _ in range(40)]
    for i, ens in enumerate(ensembles):
        path = tmp_path / f"m{i}.json"
        save_model(ens, path)
        assert load_model(path) == ens
    # categorical and binary splits, and a root that is not its tree's
    # smallest id: the writer's document is the file's, nodes by id
    doc = json.loads((data_dir / "mixed_model.json").read_text())
    for tree in doc["trees"]:
        tree["nodes"].sort(key=lambda node: node["id"])
    assert model_to_dict(load_model(data_dir / "mixed_model.json")) == doc


def test_leaf_score_out_of_range_rejected():
    doc = valid_doc()
    doc["trees"][0]["nodes"][1]["scores"] = [1.5, 0.0]
    with pytest.raises(ModelFormatError, match=r"outside \[0, 1\]"):
        model_from_dict(doc)


def test_missing_key_rejected():
    doc = valid_doc()
    del doc["weights"]
    with pytest.raises(ModelFormatError, match="missing keys"):
        model_from_dict(doc)


def test_weight_count_mismatch_rejected():
    doc = valid_doc()
    doc["weights"] = [1.0, 2.0]
    with pytest.raises(ModelFormatError, match="weights for"):
        model_from_dict(doc)


def test_unknown_format_version_rejected():
    doc = valid_doc()
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError, match="format_version"):
        model_from_dict(doc)


def test_unknown_feature_kind_rejected():
    doc = valid_doc()
    doc["features"][0]["kind"] = "ordinal"
    with pytest.raises(ModelFormatError, match="unknown kind"):
        model_from_dict(doc)


def test_split_without_threshold_rejected():
    doc = valid_doc()
    del doc["trees"][0]["nodes"][0]["threshold"]
    with pytest.raises(ModelFormatError, match="needs a threshold"):
        model_from_dict(doc)


def test_dangling_child_rejected():
    doc = valid_doc()
    doc["trees"][0]["nodes"][0]["right"] = 9
    with pytest.raises(ModelFormatError, match="dangling"):
        model_from_dict(doc)


def test_not_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_bundled_fixture_loads(data_dir):
    ens = load_model(data_dir / "three_stumps.json")
    assert ens.num_trees == 3
    assert ens.num_classes == 2
    doc = json.loads((data_dir / "three_stumps.json").read_text())
    assert doc["format_version"] == 1


DELETE = object()

# (bundled model, path to one field, its new value or DELETE, message);
# dangling children, unreachable nodes and scores outside [0, 1] are
# checked by the tests above and in test_ensemble.
MALFORMED = [
    ("three_stumps", ("trees", 0, "nodes", 0, "right"), 1,
     "node 1 reachable more than once"),
    ("three_stumps", ("trees", 0, "nodes", 2, "id"), 1, "duplicate node id 1"),
    ("three_stumps", ("trees", 0, "nodes", 1, "id"), True,
     "node id must be an integer"),
    ("three_stumps", ("trees", 0, "root"), DELETE, "missing root"),
    ("three_stumps", ("trees", 0, "root"), "0", "root must be an integer"),
    ("three_stumps", ("trees", 0, "nodes"), DELETE, "nodes must be an array"),
    ("three_stumps", ("trees",), [], "at least one tree"),
    ("three_stumps", ("trees", 0), [1, 2], "tree 0 must be an object"),
    ("three_stumps", ("trees", 0, "nodes", 0), "node", "must be an object"),
    ("three_stumps", ("trees", 0, "nodes", 1, "scores"), [1.0],
     "score vector length 1 != num_classes 2"),
    ("three_stumps", ("trees", 0, "nodes", 1, "scores", 0), "1",
     "score must be a number"),
    ("three_stumps", ("trees", 0, "nodes", 0, "kind"), "branch",
     "kind must be 'split' or 'leaf'"),
    ("three_stumps", ("trees", 0, "nodes", 0, "feature"), 1,
     "unknown feature 1"),
    ("three_stumps", ("trees", 0, "nodes", 0, "category"), 0,
     "continuous split must not carry a category"),
    ("three_stumps", ("trees", 0, "nodes", 0, "threshold"), float("inf"),
     "non-finite threshold"),
    ("three_stumps", ("features", 0), "x0", "feature 0 must be an object"),
    ("three_stumps", ("features", 0, "name"), 0, "name must be a string"),
    ("three_stumps", ("weights",), 5, "weights must be an array"),
    ("three_stumps", ("weights", 0), None, "tree weight must be a number"),
    ("three_stumps", ("num_classes",), 2.5, "num_classes must be an integer"),
    ("three_stumps", ("num_classes",), True, "num_classes must be an integer"),
    ("mixed_model", ("features", 2, "levels"), 2.9,
     "levels must be an integer"),
    ("mixed_model", ("trees", 0, "nodes", 2, "category"), 1.5,
     "category must be an integer"),
    ("mixed_model", ("trees", 0, "nodes", 2, "category"), 3, "bad category 3"),
    ("mixed_model", ("trees", 0, "nodes", 2, "category"), DELETE,
     "categorical split needs a category"),
    ("mixed_model", ("trees", 0, "nodes", 1, "threshold"), 0.5,
     "binary split must not carry a threshold or category"),
    ("mixed_model", ("trees", 0, "nodes", 1, "category"), 0,
     "binary split must not carry a threshold or category"),
    ("three_stumps", ("format_version",), True,
     "format_version must be an integer"),
    ("three_stumps", ("format_version",), 1.0,
     "format_version must be an integer"),
]


def with_field(doc, path, value):
    """``doc`` with the field at ``path`` set to ``value`` (or deleted)."""
    *parents, last = path
    target = reduce(operator.getitem, parents, doc)
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def malformed(model, path, value):
    """A ``MALFORMED`` entry's document."""
    doc = json.loads((DATA_DIR / f"{model}.json").read_text())
    return with_field(doc, path, value)


@pytest.mark.parametrize("model, path, value, message", MALFORMED)
def test_malformed_document_rejected(model, path, value, message):
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(malformed(model, path, value))


@st.composite
def mixed_documents(draw):
    """Model documents over 1-3 features of any kind, 2-4 classes and
    1-4 trees of depth <= 3, with scattered ids and shuffled nodes."""
    num_classes = draw(st.integers(2, 4))
    features = []
    for j, kind in enumerate(draw(st.lists(
            st.sampled_from(["continuous", "binary", "categorical"]),
            min_size=1, max_size=3))):
        features.append({"name": f"f{j}", "kind": kind})
        if kind == "categorical":
            features[-1]["levels"] = draw(st.integers(2, 4))

    def grow(nodes, depth):
        node = {"id": len(nodes)}
        nodes.append(node)
        if depth == 0 or draw(st.booleans()):
            node.update(kind="leaf", scores=draw(st.lists(
                st.floats(0, 1), min_size=num_classes, max_size=num_classes)))
            return node["id"]
        j = draw(st.integers(0, len(features) - 1))
        node.update(kind="split", feature=j)
        if features[j]["kind"] == "continuous":
            node["threshold"] = draw(st.floats(-1e6, 1e6))
        elif features[j]["kind"] == "categorical":
            node["category"] = draw(
                st.integers(0, features[j]["levels"] - 1))
        node["left"] = grow(nodes, depth - 1)
        node["right"] = grow(nodes, depth - 1)
        return node["id"]

    trees = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = []
        grow(nodes, draw(st.integers(0, 3)))
        ids = draw(st.permutations(range(3 * len(nodes))))
        for node in nodes:
            for key in ("id", "left", "right"):
                if key in node:
                    node[key] = ids[node[key]]
        trees.append({"root": nodes[0]["id"],
                      "nodes": draw(st.permutations(nodes))})
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(trees),
                            max_size=len(trees)))
    return {"format_version": 1, "num_classes": num_classes,
            "features": features, "weights": weights, "trees": trees}


@settings(max_examples=150, deadline=None)
@given(mixed_documents())
def test_document_round_trip_property(doc):
    ens = model_from_dict(doc)
    assert model_from_dict(model_to_dict(ens)) == ens


def fields_of(doc, path=()):
    """Paths to every value below the top of a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from fields_of(value, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_retyped_field_loads_or_is_a_format_error(data):
    doc = data.draw(mixed_documents())
    path = data.draw(st.sampled_from(list(fields_of(doc))))
    old = type(reduce(operator.getitem, path, doc))
    value = data.draw(JSON_VALUES.filter(lambda v: type(v) is not old))
    try:
        model_from_dict(with_field(doc, path, value))
    except ModelFormatError:
        pass
