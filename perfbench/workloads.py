"""Inputs of the certified-pruning benchmark.

Each workload is a list of instances: a trained ensemble, the seed points
of the working set and the prune options.  Set-up generates the data,
trains the models and round-trips them through ``save_model`` /
``load_model``.

The ``--seed`` argument draws one power-of-two scale per feature and
applies it to the generated data before training.  Scaling by a power of
two is exact in floating point and keeps the order of every feature, so
the trainers choose the same splits at scaled thresholds, every cell keeps
its index, and the certified-pruning problem is the same on every seed:
the separation and pruning programs do not contain thresholds at all.
Different seeds therefore give different inputs with the same amount of
work, so the run-to-run spread measures the machine, and the reference
kept counts below hold on every seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from equiprune import (ContinuousFeature, Dataset, Ensemble, FeatureSchema,
                       PruneOptions, load_model, make_synthetic, save_model,
                       train_adaboost, train_random_forest)

MAX_SCALE_EXPONENT = 4  # per-feature scale drawn from 2**-4 .. 2**4


@dataclass
class Instance:
    ensemble: Ensemble
    points: list[list[float]]
    options: PruneOptions
    reference_kept: int      # trees kept at seed code, on every seed


@dataclass
class Recipe:
    """One instance before set-up: its data, how to train on it, which
    rows seed the working set and what the seed code kept."""

    dataset: Callable[[], Dataset]
    train: Callable[[Dataset], Ensemble]
    norm: str
    seed_rows: int | None    # first rows used as seed points; None = all
    reference_kept: int


@dataclass
class SetUp:
    instances: list[Instance]
    seconds: float           # whole set-up
    train_s: float
    roundtrip_s: float


def three_gaussians(n: int = 40, seed: int = 1) -> Dataset:
    """Three unit Gaussian clusters at (0, 0), (3, 0) and (0, 3), labels
    cycling over the rows, coordinates rounded to one decimal."""
    rng = np.random.default_rng(seed)
    centers = np.array([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    y = np.arange(n) % 3
    X = np.round(centers[y] + rng.normal(size=(n, 2)), 1)
    order = rng.permutation(n)
    schema = FeatureSchema((ContinuousFeature(), ContinuousFeature()),
                           ("x0", "x1"))
    return Dataset(schema, X[order], y[order], num_classes=3)


def boosted_draw(seed: int) -> tuple[Dataset, int] | None:
    """Data half of the test suite's ``random_boosted_instance``: few
    distinct values per feature, 1-4 features, 2-3 classes, 12-29 rows,
    and the number of stumps to boost.  None when the labels come out
    single-class."""
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
    return Dataset(schema=schema, X=X, y=y, num_classes=C), M


def _stumps_l1() -> list[Recipe]:
    return [Recipe(dataset=lambda: make_synthetic("blobs", n=24, seed=7),
                   train=lambda ds: train_adaboost(ds, num_trees=30,
                                                   max_depth=1),
                   norm="l1", seed_rows=None, reference_kept=5)]


def _forest3_l0() -> list[Recipe]:
    return [Recipe(dataset=three_gaussians,
                   train=lambda ds: train_random_forest(ds, num_trees=4,
                                                        max_depth=3, seed=0),
                   norm="l0", seed_rows=4, reference_kept=3)]


SMALL_BATCH_KEPT = (4, 5, 5, 4, 4, 3, 4, 1, 1, 3, 1, 5)
SMALL_BATCH_MAX_TREES = 12   # larger draws take seconds each in B&B


def _small_l0_batch() -> list[Recipe]:
    recipes = []
    draw = 0
    while len(recipes) < len(SMALL_BATCH_KEPT):
        got = boosted_draw(draw)
        draw += 1
        if got is None or got[1] > SMALL_BATCH_MAX_TREES:
            continue
        dataset, num_trees = got
        recipes.append(Recipe(
            dataset=lambda ds=dataset: ds,
            train=lambda ds, m=num_trees: train_adaboost(ds, num_trees=m,
                                                         max_depth=1),
            norm="l0", seed_rows=None,
            reference_kept=SMALL_BATCH_KEPT[len(recipes)]))
    return recipes


WORKLOADS: dict[str, Callable[[], list[Recipe]]] = {
    "stumps-l1": _stumps_l1,
    "forest3-l0": _forest3_l0,
    "small-l0-batch": _small_l0_batch,
}


def scaled(dataset: Dataset, seed: int) -> Dataset:
    """The dataset with each feature multiplied by its seeded power of
    two (exact in floating point, order-preserving)."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(-MAX_SCALE_EXPONENT, MAX_SCALE_EXPONENT + 1,
                        size=dataset.X.shape[1])
    return Dataset(dataset.schema, np.ldexp(dataset.X, exps), dataset.y,
                   num_classes=dataset.num_classes)


def set_up(workload: str, seed: int, scratch: Path) -> SetUp:
    """Generate, scale, train and round-trip every instance of a
    workload; ``scratch`` holds the model file while it round-trips."""
    t_start = time.perf_counter()
    train_s = roundtrip_s = 0.0
    instances = []
    path = scratch / "roundtrip-model.json"
    for recipe in WORKLOADS[workload]():
        dataset = scaled(recipe.dataset(), seed)
        t0 = time.perf_counter()
        ensemble = recipe.train(dataset)
        t1 = time.perf_counter()
        save_model(ensemble, path)
        ensemble = load_model(path)
        t2 = time.perf_counter()
        train_s += t1 - t0
        roundtrip_s += t2 - t1
        rows = dataset.X if recipe.seed_rows is None \
            else dataset.X[:recipe.seed_rows]
        instances.append(Instance(ensemble=ensemble, points=rows.tolist(),
                                  options=PruneOptions(norm=recipe.norm),
                                  reference_kept=recipe.reference_kept))
    path.unlink()
    return SetUp(instances=instances, seconds=time.perf_counter() - t_start,
                 train_s=train_s, roundtrip_s=roundtrip_s)
