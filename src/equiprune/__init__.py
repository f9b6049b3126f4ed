"""Lossless pruning of weighted tree ensembles.

Given an additive hard-voting ensemble, find a small reweighted subset
of its trees whose predicted class provably matches the original on the
entire feature space: alternately prune on a finite working set and ask
a MIP separation oracle for a counterexample cell anywhere in space,
until none exists.
"""

from .driver import (IterationRecord, PruneOptions, PruneOutcome, accuracy,
                     certified_prune, fidelity)
from .ensemble import (BinaryFeature, CategoricalFeature, CellSignature,
                       ContinuousFeature, Ensemble, FeatureSchema, Point,
                       build_ensemble, cell_center, cell_scores_batch,
                       cells_of, predict_classes_batch, predict_scores_batch)
from .errors import (DatasetFormatError, EnumerationCapError, EquipruneError,
                     InfeasiblePruneError, InputError, IterationLimitError,
                     ModelFormatError, ProblemTooLargeError, PruneCycleError,
                     SolverFailureError, TiedPredictionError)
from .model_io import load_model, model_from_dict, model_to_dict, save_model
from .oracle import (DEFAULT_EPSILON, Oracle, PairOutcome, SeparationResult,
                     build_separation, extract_cell, separate)
from .pruner import (PruneResult, PruneSet, build_margins, compute_big_w,
                     prune_l0, prune_l1, support_of)
from .solver import (MilpProblem, ProblemBuilder, Solution, SolveStatus,
                     dump_lp, lp_format_text, solve_lp, solve_milp)
from .trainer import (Dataset, load_dataset, load_schema, make_synthetic,
                      save_dataset, save_schema, train_adaboost,
                      train_random_forest)
from .verifier import (CertificationReport, brute_force_min_support, certify,
                       enumerate_cells, maximize_separation,
                       sample_uniform_points)

__version__ = "0.1.0"

__all__ = [
    "BinaryFeature", "CategoricalFeature", "CellSignature",
    "CertificationReport", "ContinuousFeature", "Dataset", "DEFAULT_EPSILON",
    "DatasetFormatError", "Ensemble", "EnumerationCapError", "EquipruneError",
    "FeatureSchema", "InfeasiblePruneError", "InputError", "IterationLimitError",
    "IterationRecord", "MilpProblem", "ModelFormatError", "Oracle",
    "PairOutcome", "Point", "ProblemBuilder", "ProblemTooLargeError",
    "PruneCycleError", "PruneOptions", "PruneOutcome", "PruneResult",
    "PruneSet", "SeparationResult", "Solution", "SolveStatus",
    "SolverFailureError", "TiedPredictionError", "accuracy",
    "brute_force_min_support", "build_ensemble", "build_margins",
    "build_separation", "cell_center", "cell_scores_batch", "cells_of",
    "certified_prune", "certify", "compute_big_w", "dump_lp",
    "enumerate_cells", "extract_cell", "fidelity", "load_dataset",
    "load_model", "load_schema", "lp_format_text", "make_synthetic",
    "maximize_separation", "model_from_dict", "model_to_dict",
    "predict_classes_batch", "predict_scores_batch", "prune_l0", "prune_l1",
    "sample_uniform_points", "save_dataset", "save_model", "save_schema",
    "separate", "solve_lp", "solve_milp", "support_of", "train_adaboost",
    "train_random_forest",
]
