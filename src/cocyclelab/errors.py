"""Exception types shared across the package.

Every class maps to one failure mode of the numerical contracts; the CLI
translates them into exit codes (2 config, 3 numeric failure, 4 invariant
violation).
"""


class CocycleLabError(Exception):
    """Base class for all package errors."""


# -- configuration / input schema ------------------------------------------

class ConfigInvalid(CocycleLabError):
    """Experiment configuration failed schema validation."""


# -- matrix geometry ---------------------------------------------------------

class NonFinite(CocycleLabError):
    """A matrix has NaN or infinite entries."""


class NotSymmetric(CocycleLabError):
    """Symmetry defect of a matrix exceeds tolerance."""


class NotPositiveDefinite(CocycleLabError):
    """A matrix required to be positive definite has a nonpositive eigenvalue."""


class DimensionMismatch(CocycleLabError):
    """Operands live in different dimensions (or outside the supported range)."""


class SingularMatrix(CocycleLabError):
    """A matrix required to be invertible is numerically singular."""


class NotUnitDeterminant(CocycleLabError):
    """A det-1 (conformal-class) value drifted away from determinant one."""


class NotOrthogonal(CocycleLabError):
    """Linear part of an isometry fails the orthogonality tolerance."""


# -- centers -----------------------------------------------------------------

class EmptySet(CocycleLabError):
    """Center or radius of an empty point set was requested."""


class NoConvergence(CocycleLabError):
    """Iterative center search hit its cap while still improving."""


class NotIsometry(CocycleLabError):
    """A map claimed to be an isometry distorts sampled distances."""


class PreconditionViolated(CocycleLabError):
    """Quantitative hypothesis of a lemma check does not hold for the inputs."""


class SamplingFailure(CocycleLabError):
    """Rejection sampling produced no admissible point."""


# -- dynamics / cells --------------------------------------------------------

class EmptyCell(CocycleLabError):
    """A base cell received no orbit samples; increase the orbit length."""


# -- solvers -----------------------------------------------------------------

class SmallDivisor(CocycleLabError):
    """Fourier modes whose twist divisor falls below the floor.

    ``modes`` lists the offending frequencies.
    """

    def __init__(self, modes, floor):
        self.modes = list(modes)
        self.floor = floor
        super().__init__(
            f"divisor below floor {floor:g} at modes {self.modes}"
        )


class MeanObstruction(CocycleLabError):
    """Untwisted equation with nonzero mean has no bounded solution."""


class NotASolution(CocycleLabError):
    """A section fails the residual tolerance of the equation it should solve."""


class ScaleTooFine(CocycleLabError):
    """Requested oscillation scale is below the sampling resolution."""


class TruncationTooSmall(CocycleLabError):
    """Shift truncation level is smaller than the data's support."""
