"""Shared fixtures: the bundled models/datasets and seeded random
instance generators used across the suite."""

from pathlib import Path

import numpy as np
import pytest

from equiprune import (ContinuousFeature, Dataset, FeatureSchema,
                       build_ensemble, load_model, solver, train_adaboost)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def cold_calls(monkeypatch):
    """Counts the solves from the slack basis made from here on,
    fallbacks included: each calls ``_Columns.slack_start`` once."""
    calls = []
    slack_start = solver._Columns.slack_start

    def counted(cols):
        calls.append(cols)
        return slack_start(cols)

    monkeypatch.setattr(solver._Columns, "slack_start", counted)
    return calls


@pytest.fixture
def three_stumps():
    """Bundled 3-stump majority vote that collapses to its middle tree."""
    return load_model(DATA_DIR / "three_stumps.json")


def mixed_model():
    """Bundled 3-class model over a continuous, a binary and a
    categorical feature, every kind split on in some tree."""
    return load_model(DATA_DIR / "mixed_model.json")


def opposed_stumps(first_weight: float):
    """Two opposite stumps on one feature, weighted (first_weight, 1):
    on either cell the original margin is first_weight - 1, and the
    weights (0, 1) flip both cells."""
    return build_ensemble(
        num_classes=2, features=[{"name": "x0", "kind": "continuous"}],
        weights=[first_weight, 1.0],
        raw_trees=[make_stump(0, 0.5, (1, 0), (0, 1)),
                   make_stump(0, 0.5, (0, 1), (1, 0))])


def make_stump(feature: int, threshold: float, left_scores, right_scores):
    return {"root": 0, "nodes": [
        {"id": 0, "kind": "split", "feature": feature, "threshold": threshold,
         "left": 1, "right": 2},
        {"id": 1, "kind": "leaf", "scores": list(left_scores)},
        {"id": 2, "kind": "leaf", "scores": list(right_scores)},
    ]}


def three_voter_majority():
    """Three unit-weight stumps on three features voting for one of two
    classes.  Its cells make the uncapped l0 master's root relaxation
    fractional (``prune_l0``'s capped master needs no branching there),
    and every oracle pair needs branch-and-bound nodes."""
    return build_ensemble(
        num_classes=2,
        features=[{"name": f"x{j}", "kind": "continuous"} for j in range(3)],
        weights=[1.0, 1.0, 1.0],
        raw_trees=[make_stump(j, 0.5, (1, 0), (0, 1)) for j in range(3)])


def one_hot(c: int, num_classes: int) -> list[float]:
    scores = [0.0] * num_classes
    scores[c] = 1.0
    return scores


def random_stump_ensemble(seed: int, max_trees: int = 8,
                          max_features: int = 2, max_classes: int = 3):
    """Random one-hot stump ensemble, or None when the draw does not use
    every threshold it generated (the schema invariant requires the
    union of split thresholds to equal the schema lists)."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, max_features + 1))
    C = int(rng.integers(2, max_classes + 1))
    M = int(rng.integers(2, max_trees + 1))
    thresholds = [np.sort(rng.normal(size=int(rng.integers(1, 4)))).tolist()
                  for _ in range(p)]
    trees = []
    for _ in range(M):
        j = int(rng.integers(0, p))
        t = float(rng.choice(thresholds[j]))
        trees.append(make_stump(j, t,
                                one_hot(int(rng.integers(0, C)), C),
                                one_hot(int(rng.integers(0, C)), C)))
    used = {(tr["nodes"][0]["feature"], tr["nodes"][0]["threshold"])
            for tr in trees}
    for j in range(p):
        for t in thresholds[j]:
            if (j, float(t)) not in used:
                return None
    weights = rng.uniform(0.5, 2.0, size=M).round(3).tolist()
    return build_ensemble(
        num_classes=C,
        features=[{"name": f"f{j}", "kind": "continuous"} for j in range(p)],
        weights=weights, raw_trees=trees)


def stump_ensembles(start_seed: int, count: int, **kwargs):
    """First ``count`` non-None draws from random_stump_ensemble."""
    out = []
    seed = start_seed
    while len(out) < count:
        ens = random_stump_ensemble(seed, **kwargs)
        if ens is not None:
            out.append((seed, ens))
        seed += 1
    return out


def random_boosted_instance(seed: int):
    """Random small dataset (few distinct values per feature, so few
    stump thresholds) plus a boosted stump ensemble trained on it, or
    None when the label draw is single-class."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    C = int(rng.integers(2, 4))
    n = int(rng.integers(12, 30))
    M = int(rng.integers(3, 21))
    cols = []
    for _ in range(p):
        levels = np.sort(rng.normal(size=int(rng.integers(2, 5))))
        cols.append(rng.choice(levels, size=n))
    X = np.column_stack(cols)
    y = rng.integers(0, C, size=n)
    if len(set(y.tolist())) < 2:
        return None
    schema = FeatureSchema(tuple(ContinuousFeature(thresholds=())
                                 for _ in range(p)))
    dataset = Dataset(schema=schema, X=X, y=y, num_classes=C)
    return train_adaboost(dataset, num_trees=M, max_depth=1), dataset


# The acceptance tests append one verdict line each; the summary hook
# reprints them in a block of their own so the verdicts survive in the
# terminal output even under -q.
ACCEPTANCE_LINES: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for line in ACCEPTANCE_LINES:
        terminalreporter.line(line)
