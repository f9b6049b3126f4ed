"""Brute-force ground truth: cell enumeration, certification, subset
search."""

import numpy as np
import pytest

from equiprune import (BinaryFeature, CategoricalFeature, ContinuousFeature,
                       EnumerationCapError, FeatureSchema, InputError,
                       Oracle, PruneSet, brute_force_min_support,
                       build_ensemble, certify, enumerate_cells,
                       maximize_separation, separate)
from conftest import make_stump, opposed_stumps, stump_ensembles


def test_continuous_cell_count():
    schema = FeatureSchema((ContinuousFeature((0.1, 0.2)),
                            ContinuousFeature((0.3, 0.4, 0.5))))
    cells = list(enumerate_cells(schema))
    assert len(cells) == 12
    assert len(set(cells)) == 12
    assert all(len(c) == 2 for c in cells)


def test_mixed_cell_count():
    schema = FeatureSchema((BinaryFeature(), CategoricalFeature(3)))
    cells = list(enumerate_cells(schema))
    assert sorted(cells) == [(b, z) for b in (0, 1) for z in (0, 1, 2)]


def test_cap_refusal_is_not_truncation():
    schema = FeatureSchema((ContinuousFeature((0.1, 0.2)),
                            ContinuousFeature((0.3, 0.4, 0.5))))
    with pytest.raises(EnumerationCapError, match="12"):
        list(enumerate_cells(schema, max_cells=10))


def test_self_certification(three_stumps):
    report = certify(three_stumps, three_stumps.alpha, epsilon=1e-6)
    assert report.identical
    assert report.disagreement_cells == []
    assert report.sub_epsilon_cells == []
    assert report.cells_checked == 4


def test_constructed_disagreement_is_listed():
    trees = [make_stump(0, 0.3, (1, 0), (0, 1)),
             make_stump(0, 0.7, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[2.0, 1.0], raw_trees=trees)
    # keep only tree 1: flips the outer cells, keeps the middle one
    report = certify(ens, (0.0, 1.0), epsilon=1e-6)
    assert not report.identical
    assert set(report.disagreement_cells) == {(0,), (2,)}
    assert report.sub_epsilon_cells == []


def test_sub_epsilon_cells_reported_separately():
    # opposite equal-weight stumps tie the original scores on the middle
    # cell, so a flip there is outside any epsilon certificate
    trees = [make_stump(0, 0.3, (1, 0), (0, 1)),
             make_stump(0, 0.7, (0, 1), (1, 0))]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0, 1.0], raw_trees=trees)
    # original scores: cell 0 -> (1,1) tie -> class 0; w=(0,2) -> class 1
    report = certify(ens, (0.0, 2.0), epsilon=1e-6)
    assert not report.identical
    assert (0,) in report.sub_epsilon_cells


def test_a_flip_at_margin_epsilon_is_a_disagreement():
    # exact binary fractions: a flip at original margin exactly epsilon is
    # inside the certificate's reach, one 2**-30 under it is not
    at = certify(opposed_stumps(1.25), (0.0, 1.0), epsilon=0.25)
    assert at.disagreement_cells == [(0,), (1,)]
    assert at.sub_epsilon_cells == []
    under = certify(opposed_stumps(1.25 - 2**-30), (0.0, 1.0), epsilon=0.25)
    assert under.disagreement_cells == []
    assert under.sub_epsilon_cells == [(0,), (1,)]


def test_certify_agrees_with_oracle():
    rng = np.random.default_rng(31)
    for seed, ens in stump_ensembles(1500, 20):
        w = np.array(ens.alpha) * rng.uniform(0.0, 1.5, size=ens.num_trees)
        w[rng.random(ens.num_trees) < 0.4] = 0.0
        if not w.any():
            w = np.array(ens.alpha)
        report = certify(ens, w, epsilon=1e-6)
        result = separate(Oracle(ens, 1e-6), w)
        strict = [c for c in report.disagreement_cells]
        if not strict:
            assert result.is_empty
        else:
            assert not result.is_empty
            assert set(result.cells) <= set(strict)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0, -1.0])
def test_bad_epsilon_is_refused(three_stumps, epsilon):
    # a nan margin test would empty both flip partitions and pass silently
    with pytest.raises(InputError, match="epsilon"):
        certify(three_stumps, (0, 0, 1), epsilon=epsilon)
    with pytest.raises(InputError, match="epsilon"):
        maximize_separation(three_stumps, (0, 0, 1), 1, 0, epsilon)


def test_min_support_fixture(three_stumps):
    ps = PruneSet(three_stumps)
    ps.add_cells(list(enumerate_cells(three_stumps.schema)))
    assert brute_force_min_support(ps) == 1


def test_min_support_identical_trees():
    trees = [make_stump(0, 0.5, (1, 0), (0, 1)) for _ in range(5)]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0] * 5, raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_cells(list(enumerate_cells(ens.schema)))
    assert brute_force_min_support(ps) == 1


def test_min_support_refuses_large_ensembles():
    trees = [make_stump(0, 0.1 * (m + 1), (1, 0), (0, 1)) for m in range(9)]
    ens = build_ensemble(num_classes=2,
                         features=[{"name": "x1", "kind": "continuous"}],
                         weights=[1.0] * 9, raw_trees=trees)
    ps = PruneSet(ens)
    ps.add_points([(0.05,)])
    with pytest.raises(InputError, match="9"):
        brute_force_min_support(ps, max_trees=8)
