"""Exception types shared across the toolkit."""


class GaugekitError(Exception):
    """Base class for all toolkit errors."""


class NonzeroMean(GaugekitError):
    """Antiderivative requested for a profile whose mean is not zero."""


class OriginSingularity(GaugekitError):
    """Evaluation point too close to the origin for a homogeneous field."""


class NotTransversal(GaugekitError):
    """Field fails x . A(x) = 0 beyond tolerance."""


class DimensionMismatch(GaugekitError):
    """Operands declare different ambient dimensions."""


class CircleInsideObstacle(GaugekitError):
    """Flux circle does not enclose the obstacle strictly."""


class RegionTouchesObstacle(GaugekitError):
    """A curl's circulation loop reaches into the obstacle."""


class NonConvergent(GaugekitError):
    """Extrapolation residual exceeds tolerance."""


class LineHitsObstacle(GaugekitError):
    """Integration line meets the obstacle ball."""


class TailNotBounded(GaugekitError):
    """No decay envelope available to bound the truncation tail."""


class BranchAmbiguous(GaugekitError):
    """Phase continuation cannot pick a branch (jump >= pi or half-integer limit)."""


class InsufficientCoverage(GaugekitError):
    """Line family too sparse or too narrow for reconstruction."""


class NotCurlFree(GaugekitError):
    """Curl exceeds tolerance on the verification region."""


class ResidualFlux(GaugekitError):
    """Loop integral of a supposedly exact field is nonzero."""


class PlaneHitsObstacle(GaugekitError):
    """Restriction patch meets the obstacle ball."""


class RemainderBoundViolated(GaugekitError):
    """Smooth kernel remainder exceeds its declared off-diagonal bound."""


class GridMismatch(GaugekitError):
    """Kernels sampled on incompatible grids or at different energies."""


class SingularPartMissing(GaugekitError):
    """Kernel carries no singular support to anchor the prefactor ratio."""
