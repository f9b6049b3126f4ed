"""Exception hierarchy shared across the package.

``InputError`` and its subclasses mark problems with user-supplied data
(bad files, arity mismatches, out-of-range labels, enumeration caps); the
remaining classes mark conditions arising from the optimization itself.
"""


class EquipruneError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EquipruneError):
    """User-supplied data is malformed or inconsistent."""


class ModelFormatError(InputError):
    """A model file violates the model JSON schema or an invariant."""


class DatasetFormatError(InputError):
    """A dataset CSV or feature-schema file is malformed."""


class EnumerationCapError(InputError):
    """A brute-force enumeration would exceed its configured cap.

    Raised instead of silently truncating, so a passing certificate is
    never partial.
    """


class ProblemTooLargeError(InputError):
    """An optimization problem is too large for the solver's dense
    arrays; raised before they are allocated."""


class TiedPredictionError(EquipruneError):
    """The original ensemble's prediction is tied on a pruning point."""


class InfeasiblePruneError(EquipruneError):
    """No faithful reweighting exists on the given point set."""


class PruneCycleError(EquipruneError):
    """The separation step returned a point whose cell is already in the
    pruning set; numerically impossible under correct solves."""


class IterationLimitError(EquipruneError):
    """The prune/separate loop exceeded its iteration budget."""


class SolverFailureError(EquipruneError):
    """The LP/MIP solver failed where an optimum was required."""
