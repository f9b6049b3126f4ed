"""Prediction, cell geometry, and construction-time validation."""

import numpy as np
import pytest

from equiprune import (BinaryFeature, CategoricalFeature, ContinuousFeature,
                       FeatureSchema, InputError, ModelFormatError, accuracy,
                       build_ensemble, cell_center, cell_scores_batch,
                       cells_of, enumerate_cells, fidelity, model_to_dict,
                       predict_classes_batch, predict_scores_batch,
                       sample_uniform_points)
from equiprune.ensemble import leaves_of
from conftest import make_stump, one_hot, stump_ensembles


def two_class(features, weights, trees):
    return build_ensemble(num_classes=2, features=features, weights=weights,
                          raw_trees=trees)


def test_single_stump_routes_left():
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1.0],
                    [make_stump(0, 0.5, (1, 0), (0, 1))])
    assert predict_scores_batch(ens, (1.0,), [(0.3,)]).tolist() == [[1.0, 0.0]]


def test_zero_weights_give_zero_scores():
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1.0],
                    [make_stump(0, 0.5, (1, 0), (0, 1))])
    assert predict_scores_batch(ens, (0.0,), [(0.3,)]).tolist() == [[0.0, 0.0]]


def test_three_stump_vote_tally():
    trees = [make_stump(0, 0.5, (1, 0), (1, 0)),
             make_stump(0, 0.5, (0, 1), (0, 1)),
             make_stump(0, 0.5, (0, 1), (0, 1))]
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1, 1, 1], trees)
    assert predict_scores_batch(ens, ens.alpha, [(0.3,)]).tolist() == \
        [[1.0, 2.0]]
    assert predict_classes_batch(ens, ens.alpha, [(0.3,)]).tolist() == [1]


def test_tie_broken_toward_smaller_class():
    trees = [make_stump(0, 0.5, (1, 0), (1, 0)),
             make_stump(0, 0.5, (0, 1), (0, 1))]
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1, 1], trees)
    assert predict_classes_batch(ens, ens.alpha, [(0.3,)]).tolist() == [0]
    # all-zero weights tie every class at 0
    assert predict_classes_batch(ens, (0.0, 0.0), [(0.3,)]).tolist() == [0]


def test_tree_scores_matrix():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             make_stump(0, 0.5, (0, 1), (1, 0))]
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1, 1], trees)
    leaves = leaves_of(ens, cells_of(ens.schema, [(0.2,), (0.7,)]))
    assert ens.flat.scores[leaves].tolist() == [[[1, 0], [0, 1]],
                                                [[0, 1], [1, 0]]]


def test_cell_of_single_threshold():
    schema = FeatureSchema((ContinuousFeature((0.5,)),))
    assert cells_of(schema, [(0.2,)]).tolist() == [[0]]


def test_cell_of_boundary_is_closed_left():
    schema = FeatureSchema((ContinuousFeature((0.2, 0.8)),))
    assert cells_of(schema, [(0.2,), (0.9,)]).tolist() == [[0], [2]]


def test_cell_center_interior_midpoint():
    schema = FeatureSchema((ContinuousFeature((0.2, 0.8)),))
    assert cell_center(schema, (1,)) == (0.5,)


def test_cell_center_pads_unbounded_intervals():
    schema = FeatureSchema((ContinuousFeature((0.5,)),))
    assert cell_center(schema, (0,)) == (-0.5,)
    assert cell_center(schema, (1,)) == (1.5,)


def test_cell_centers_round_trip_above_two_to_the_53():
    # 1.0 is lost to rounding at these magnitudes: the top cell's center
    # lies one ulp above the last threshold, and a uniform sample over
    # one threshold, whose range is then [t, t + ulp], reaches it
    for t in (1e17, 1.7e18):
        schema = FeatureSchema((ContinuousFeature((t,)),
                                ContinuousFeature((-t, t))))
        cells = list(enumerate_cells(schema))
        centers = [cell_center(schema, cell) for cell in cells]
        assert cells_of(schema, centers).tolist() == [list(c) for c in cells]
        single = FeatureSchema((ContinuousFeature((t,)),))
        drawn = cells_of(single, sample_uniform_points(single, 50, 0))
        assert set(drawn[:, 0].tolist()) == {0, 1}


def test_cell_of_center_identity_on_small_schemas():
    rng = np.random.default_rng(11)
    for _ in range(20):
        features = []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(0, 3)
            if kind == 0:
                ts = tuple(np.sort(rng.normal(size=int(rng.integers(0, 4)))))
                features.append(ContinuousFeature(ts))
            elif kind == 1:
                features.append(BinaryFeature())
            else:
                features.append(CategoricalFeature(int(rng.integers(2, 5))))
        schema = FeatureSchema(tuple(features))
        cells = list(enumerate_cells(schema))
        centers = [cell_center(schema, cell) for cell in cells]
        assert list(map(tuple, cells_of(schema, centers).tolist())) == cells


def test_routing_is_constant_within_a_cell():
    rng = np.random.default_rng(3)
    for seed, ens in stump_ensembles(100, 10):
        for _ in range(20):
            x = tuple(rng.normal(size=ens.schema.num_features))
            cell = cells_of(ens.schema, [x])
            y = cell_center(ens.schema, tuple(cell[0].tolist()))
            at_x = leaves_of(ens, cell)
            at_y = leaves_of(ens, cells_of(ens.schema, [y]))
            assert np.array_equal(at_x, at_y)


def test_argmax_is_scale_invariant():
    rng = np.random.default_rng(4)
    for seed, ens in stump_ensembles(200, 10):
        w = rng.uniform(0.1, 2.0, size=ens.num_trees)
        for lam in (0.001, 1.0, 517.3):
            X = rng.normal(size=(10, ens.schema.num_features))
            assert np.array_equal(predict_classes_batch(ens, lam * w, X),
                                  predict_classes_batch(ens, w, X))


def test_point_arity_mismatch_rejected():
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1.0],
                    [make_stump(0, 0.5, (1, 0), (0, 1))])
    with pytest.raises(InputError):
        predict_scores_batch(ens, (1.0,), [(0.3, 0.4)])


def test_an_empty_list_of_points_has_no_cells():
    ens = two_class([{"name": "x1", "kind": "continuous"},
                     {"name": "x2", "kind": "binary"}], [1.0],
                    [make_stump(0, 0.5, (1, 0), (0, 1))])
    for empty in ([], (), np.zeros((0, 2))):
        assert cells_of(ens.schema, empty).shape == (0, 2)
        assert predict_classes_batch(ens, (1.0,), empty).shape == (0,)


def test_negative_weight_rejected():
    ens = two_class([{"name": "x1", "kind": "continuous"}], [1.0],
                    [make_stump(0, 0.5, (1, 0), (0, 1))])
    with pytest.raises(InputError):
        predict_classes_batch(ens, (-1.0,), [(0.3,)])


def test_non_monotone_thresholds_rejected():
    with pytest.raises(ModelFormatError):
        ContinuousFeature((0.8, 0.2))


def test_leaf_score_out_of_range_rejected():
    with pytest.raises(ModelFormatError, match="outside"):
        two_class([{"name": "x1", "kind": "continuous"}], [1.0],
                  [make_stump(0, 0.5, (1.5, 0), (0, 1))])


def test_dangling_node_rejected():
    stump = make_stump(0, 0.5, (1, 0), (0, 1))
    del stump["nodes"][2]
    with pytest.raises(ModelFormatError, match="dangling node id 2"):
        two_class([{"name": "x1", "kind": "continuous"}], [1.0], [stump])


def test_unreachable_node_rejected():
    tree = {"root": 0, "nodes": [{"id": 0, "kind": "leaf", "scores": [1, 0]},
                                 {"id": 7, "kind": "leaf", "scores": [0, 1]}]}
    with pytest.raises(ModelFormatError, match=r"unreachable nodes \[7\]"):
        two_class([{"name": "x1", "kind": "continuous"}], [1.0], [tree])


def test_all_zero_alpha_rejected():
    with pytest.raises(ModelFormatError, match="positive"):
        two_class([{"name": "x1", "kind": "continuous"}], [0.0],
                  [make_stump(0, 0.5, (1, 0), (0, 1))])


def mixed_ensemble():
    """A continuous, a binary and a 3-level categorical stump."""
    leaves = [{"id": 1, "kind": "leaf", "scores": [1, 0]},
              {"id": 2, "kind": "leaf", "scores": [0, 1]}]
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)),
             {"root": 0, "nodes": [{"id": 0, "kind": "split", "feature": 1,
                                    "left": 1, "right": 2}] + leaves},
             {"root": 0, "nodes": [{"id": 0, "kind": "split", "feature": 2,
                                    "category": 2, "left": 1, "right": 2}]
              + leaves}]
    return build_ensemble(
        num_classes=2, weights=[1.0, 1.0, 1.0], raw_trees=trees,
        features=[{"name": "x", "kind": "continuous"},
                  {"name": "b", "kind": "binary"},
                  {"name": "z", "kind": "categorical", "levels": 3}])


@pytest.mark.parametrize("bad", [
    (0.0, 0.5, 0.0), (0.0, 2.0, 0.0),            # binary not 0/1
    (0.0, 0.0, 7.0), (0.0, 0.0, 1.5), (0.0, 0.0, -1.0),  # not a level
    (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (0.0, -np.inf, 0.0),
    (0.0, 0.0, np.nan)])
def test_invalid_points_rejected_on_point_and_batch_paths(bad):
    ens = mixed_ensemble()
    with pytest.raises(InputError):
        cells_of(ens.schema, [bad])
    X = np.array([(0.0, 1.0, 2.0), bad])
    with pytest.raises(InputError):
        predict_scores_batch(ens, ens.alpha, X)
    with pytest.raises(InputError):
        fidelity(ens, ens.alpha, X)
    with pytest.raises(InputError):
        accuracy(ens, ens.alpha, X, [0, 0])


def random_mixed_ensemble(rng):
    """Random trees of depth <= 3 over continuous, binary and categorical
    features, 2-4 classes, with scattered (non-contiguous) node ids."""
    C = int(rng.integers(2, 5))
    features, pools = [], []
    for j in range(int(rng.integers(1, 4))):
        kind = ("continuous", "binary", "categorical")[rng.integers(0, 3)]
        entry = {"name": f"f{j}", "kind": kind}
        if kind == "categorical":
            entry["levels"] = int(rng.integers(2, 5))
        features.append(entry)
        pools.append(np.round(rng.normal(size=3), 2).tolist())

    def grow(nodes, depth):
        node = {"id": len(nodes)}
        nodes.append(node)
        if depth == 0 or rng.random() < 0.2:
            node.update(kind="leaf",
                        scores=rng.uniform(size=C).round(3).tolist())
            return node["id"]
        j = int(rng.integers(0, len(features)))
        node.update(kind="split", feature=j)
        if features[j]["kind"] == "continuous":
            node["threshold"] = float(rng.choice(pools[j]))
        elif features[j]["kind"] == "categorical":
            node["category"] = int(rng.integers(0, features[j]["levels"]))
        node["left"] = grow(nodes, depth - 1)
        node["right"] = grow(nodes, depth - 1)
        return node["id"]

    trees = []
    for _ in range(int(rng.integers(1, 6))):
        nodes = []
        grow(nodes, int(rng.integers(0, 4)))
        ids = rng.permutation(10 * len(nodes))[:len(nodes)].tolist()
        for node in nodes:
            for key in ("id", "left", "right"):
                if key in node:
                    node[key] = ids[node[key]]
        trees.append({"root": ids[0], "nodes": nodes})
    return build_ensemble(num_classes=C, features=features,
                          weights=rng.uniform(0.1, 2.0, len(trees)).tolist(),
                          raw_trees=trees)


def reference_leaf(doc, tree, x):
    """Leaf id of ``x`` by a recursive walk over the model document, with
    raw thresholds and the split conventions of the ensemble module."""
    nodes = {node["id"]: node for node in tree["nodes"]}

    def walk(node):
        if node["kind"] == "leaf":
            return node["id"]
        kind = doc["features"][node["feature"]]["kind"]
        value = x[node["feature"]]
        if kind == "continuous":
            go_left = value <= node["threshold"]
        elif kind == "binary":
            go_left = value == 0
        else:
            go_left = value != node["category"]
        return walk(nodes[node["left"] if go_left else node["right"]])

    return walk(nodes[tree["root"]])


def test_router_matches_reference_walker():
    rng = np.random.default_rng(21)
    for _ in range(60):
        ens = random_mixed_ensemble(rng)
        schema, doc = ens.schema, model_to_dict(ens)
        cells = list(enumerate_cells(schema))
        points = [sample_uniform_points(schema, 40, rng)]
        points.append([cell_center(schema, c) for c in cells])
        for j, kind in enumerate(schema.features):
            for t in getattr(kind, "thresholds", ()):
                on_threshold = sample_uniform_points(schema, 3, rng)
                on_threshold[:, j] = t
                points.append(on_threshold)
        X = np.vstack(points)
        leaves = ens.flat.node_id[leaves_of(ens, cells_of(schema, X))]
        expected = np.array([[reference_leaf(doc, tree, x)
                              for tree in doc["trees"]] for x in X])
        assert np.array_equal(leaves, expected)
        by_id = [{n["id"]: n for n in tree["nodes"]} for tree in doc["trees"]]
        scores = np.array([[by_id[m][v]["scores"] for m, v in enumerate(row)]
                           for row in expected])
        # the batch scores of the points, and of every cell, against the
        # walk's leaves under weights with some zeros
        w = rng.uniform(0.0, 2.0, ens.num_trees)
        w[rng.random(ens.num_trees) < 0.3] = 0.0
        walked = np.einsum("m,nmc->nc", w, scores)
        assert np.allclose(predict_scores_batch(ens, w, X), walked)
        assert np.allclose(cell_scores_batch(ens, w, cells),
                           walked[40:40 + len(cells)])
    assert cell_scores_batch(ens, w, []).shape == (0, ens.num_classes)

