"""Boosting/forest training, synthetic data, and dataset files."""

import json
import math

import numpy as np
import pytest

from equiprune import (BinaryFeature, ContinuousFeature, Dataset,
                       DatasetFormatError, FeatureSchema, InputError,
                       load_dataset, load_schema, make_synthetic,
                       predict_classes_batch, save_dataset, save_schema,
                       train_adaboost, train_random_forest)
from equiprune.trainer import boost_weight
from conftest import DATA_DIR
from test_model_io import with_field


def test_boost_weight_chance_is_zero():
    assert boost_weight(0.5, 2) == pytest.approx(0.0)


def test_boost_weight_quarter_error():
    assert boost_weight(0.25, 2) == pytest.approx(math.log(3.0))


def test_boost_weight_multiclass_offset():
    assert boost_weight(0.5, 3) == pytest.approx(math.log(2.0))


def test_separable_data_boosts_to_perfect_accuracy():
    data = make_synthetic("separable", n=80, seed=3)
    ens = train_adaboost(data, num_trees=10, max_depth=1)
    pred = predict_classes_batch(ens, ens.alpha, data.X)
    assert np.array_equal(pred, data.y)


def test_forest_weights_are_all_ones():
    data = make_synthetic("blobs", n=40, seed=1)
    ens = train_random_forest(data, num_trees=7, max_depth=3, seed=2)
    assert ens.alpha == (1.0,) * 7
    assert ens.num_trees == 7


def test_forest_single_tree():
    data = make_synthetic("blobs", n=40, seed=1)
    ens = train_random_forest(data, num_trees=1, max_depth=3, seed=2)
    assert ens.num_trees == 1
    assert ens.alpha == (1.0,)


def test_forest_seeds_disagree_somewhere():
    data = make_synthetic("blobs", n=60, seed=5)
    a = train_random_forest(data, num_trees=3, max_depth=2, seed=0)
    b = train_random_forest(data, num_trees=3, max_depth=2, seed=1)
    grid = np.column_stack([np.repeat(np.linspace(-3, 4, 40), 40),
                            np.tile(np.linspace(-3, 4, 40), 40)])
    pa = predict_classes_batch(a, a.alpha, grid)
    pb = predict_classes_batch(b, b.alpha, grid)
    assert np.any(pa != pb)


def test_training_is_deterministic():
    data = make_synthetic("blobs", n=48, seed=2)
    a = train_adaboost(data, num_trees=8, max_depth=1)
    b = train_adaboost(data, num_trees=8, max_depth=1)
    assert a == b
    ra = train_random_forest(data, num_trees=5, max_depth=3, seed=4)
    rb = train_random_forest(data, num_trees=5, max_depth=3, seed=4)
    assert ra == rb


def test_xor_four_rows_are_the_corners():
    data = make_synthetic("xor", n=4, seed=0)
    assert sorted(map(tuple, data.X)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert data.y.tolist() == [int(a) ^ int(b) for a, b in data.X]


def test_blobs_reproducible():
    a = make_synthetic("blobs", n=32, seed=9)
    b = make_synthetic("blobs", n=32, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_linear_follows_its_recipe():
    # normal features rounded to one decimal, labels from the sign of a
    # random linear function plus noise, all from one generator
    data = make_synthetic("linear", n=120, seed=0, num_features=8)
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(120, 8)), 1)
    w = rng.normal(size=8)
    y = X @ w + 0.5 * rng.normal(size=120) > 0
    assert np.array_equal(data.X, X) and np.array_equal(data.y, y)
    assert data.schema.names == tuple(f"x{j}" for j in range(8))
    assert make_synthetic("linear", n=4, num_features=3).X.shape == (4, 3)
    with pytest.raises(InputError, match="num_features"):
        make_synthetic("linear", num_features=0)


def test_synthetic_needs_four_rows():
    with pytest.raises(InputError, match="n >= 4"):
        make_synthetic("blobs", n=3)
    # a count is a Python or numpy integer, never a float or a bool
    for n in (24.5, True, 24.0):
        with pytest.raises(InputError, match="n must be an integer"):
            make_synthetic("blobs", n=n)
    with pytest.raises(InputError, match="num_features must be an integer"):
        make_synthetic("linear", num_features=2.0)
    assert make_synthetic("blobs", n=np.int64(24)).num_rows == 24


def test_tree_counts_must_be_integers():
    data = make_synthetic("blobs", n=24, seed=7)
    for train in (train_adaboost, train_random_forest):
        for count in (2.5, True, 2.0, 0):
            with pytest.raises(InputError, match="num_trees"):
                train(data, count)
        with pytest.raises(InputError, match="max_depth"):
            train(data, 2, max_depth=1.5)
        assert train(data, np.int64(2), max_depth=np.int64(1)).num_trees == 2


def test_unknown_synthetic_kind():
    with pytest.raises(InputError, match="unknown synthetic kind"):
        make_synthetic("moons")


def test_single_class_dataset_rejected():
    schema = FeatureSchema((ContinuousFeature(),))
    data = Dataset(schema, np.array([[0.1], [0.2], [0.7]]),
                   np.zeros(3, dtype=int), num_classes=2)
    with pytest.raises(InputError, match="two classes"):
        train_adaboost(data, num_trees=3)


def test_categorical_features_not_trainable():
    from equiprune import CategoricalFeature
    schema = FeatureSchema((CategoricalFeature(3),))
    data = Dataset(schema, np.array([[0.0], [1.0], [2.0], [1.0]]),
                   np.array([0, 1, 0, 1]), num_classes=2)
    with pytest.raises(InputError, match="continuous and binary"):
        train_random_forest(data, num_trees=2)


def test_schema_round_trip(tmp_path):
    data = make_synthetic("xor", n=8, seed=0)
    path = tmp_path / "schema.json"
    save_schema(data.schema, path)
    assert load_schema(path) == data.schema


# (path to one field of the bundled mixed schema, its new value, message):
# the schema reader checks feature entries as the model reader does
MALFORMED_SCHEMAS = [
    (("features", 2, "levels"), 2.9, "levels must be an integer"),
    (("features", 2, "levels"), 1, "needs >= 2 levels"),
    (("features", 0), "x0", "feature 0 must be an object"),
    (("features", 0, "kind"), "ordinal", "unknown kind"),
    (("features",), {}, "features must be an array"),
    (("format_version",), True, "format_version must be an integer"),
    (("format_version",), 1.0, "format_version must be an integer"),
    (("format_version",), 2, "unsupported format_version 2"),
]


def malformed_schema(tmp_path, path, value):
    """The bundled mixed schema with one field replaced, as a file."""
    doc = json.loads((DATA_DIR / "mixed_schema.json").read_text())
    with_field(doc, path, value)
    out = tmp_path / "schema.json"
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("path, value, message", MALFORMED_SCHEMAS)
def test_malformed_schema_rejected(tmp_path, path, value, message):
    out = malformed_schema(tmp_path, path, value)
    with pytest.raises(DatasetFormatError, match=message) as exc:
        load_schema(out)
    assert str(out) in str(exc.value)


def test_dataset_round_trip(tmp_path):
    data = make_synthetic("separable", n=24, seed=4)
    path = tmp_path / "data.csv"
    save_dataset(data, path)
    again = load_dataset(path, data.schema, num_classes=2)
    assert np.array_equal(again.X, data.X)
    assert np.array_equal(again.y, data.y)


def test_dataset_header_is_schema_order(tmp_path):
    data = make_synthetic("separable", n=8, seed=4)
    path = tmp_path / "data.csv"
    save_dataset(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,label"


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    schema = make_synthetic("xor", n=4).schema
    with pytest.raises(DatasetFormatError, match="empty"):
        load_dataset(path, schema)


def test_wrong_column_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("b0,b1,label\n0,1\n")
    schema = make_synthetic("xor", n=4).schema
    with pytest.raises(DatasetFormatError):
        load_dataset(path, schema)


def test_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("b0,b1,label\n0,huh,1\n")
    schema = make_synthetic("xor", n=4).schema
    with pytest.raises(DatasetFormatError):
        load_dataset(path, schema)


@pytest.mark.parametrize("row", ["nan,1", "0,0.5", "inf,0"])
def test_invalid_feature_values_rejected(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"b0,b1,label\n0,1,0\n{row},1\n")
    schema = FeatureSchema((ContinuousFeature(), BinaryFeature()),
                           ("b0", "b1"))
    with pytest.raises(DatasetFormatError):
        load_dataset(path, schema)


def test_label_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("b0,b1,label\n0,1,5\n")
    schema = make_synthetic("xor", n=4).schema
    with pytest.raises(DatasetFormatError):
        load_dataset(path, schema, num_classes=2)
    # labels and the class count are integers, never floats or bools
    X = np.zeros((2, 2))
    for labels in ([0.5, 1.0], [0.0, 1.0], [False, True]):
        with pytest.raises(DatasetFormatError, match="labels must be"):
            Dataset(schema, X, labels, 2)
    for count in (2.0, True):
        with pytest.raises(DatasetFormatError, match="num_classes"):
            Dataset(schema, X, [0, 1], count)
    assert Dataset(schema, X, np.array([0, 1], dtype=np.int8),
                   np.int64(2)).y.tolist() == [0, 1]


def test_trained_stumps_satisfy_core_invariants():
    data = make_synthetic("blobs", n=40, seed=7)
    ens = train_adaboost(data, num_trees=12, max_depth=1)
    assert all(a >= 0.0 for a in ens.alpha)
    for kind in ens.schema.features:
        ts = kind.thresholds
        assert all(a < b for a, b in zip(ts, ts[1:]))
    flat = ens.flat
    for scores in flat.scores[flat.left == np.arange(len(flat.left))]:
        assert sorted(scores) == [0.0, 1.0]  # one-hot
