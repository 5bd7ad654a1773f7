"""Exception hierarchy.  Numerical-failure classes are distinct from
input/contract violations so the CLI can map them to exit codes."""


class NeumannDomainError(Exception):
    """Base class for all toolkit errors."""


# -- field / critical point stage -------------------------------------------

class NotMorse(NeumannDomainError):
    """A located critical point has a (near-)singular Hessian."""


class SeedGridTooCoarse(NeumannDomainError):
    """Critical point census changed when the seed grid was refined."""


# -- flow stage --------------------------------------------------------------

class NoConvergence(NeumannDomainError):
    """A flow trajectory exceeded the arclength budget without capture."""


class SteppedOutOfTolerance(NeumannDomainError):
    """The adaptive integrator could not satisfy its error control."""


# -- complex stage ------------------------------------------------------------

class LineCrossing(NeumannDomainError):
    """Two traced lines intersect away from critical points."""


class EulerMismatch(NeumannDomainError):
    """The census or the assembled complex breaks the torus Euler relation.

    #min - #saddles + #max != 0 for the critical points, or V - E + F != 0,
    a face walking clockwise or a face without one maximum and one minimum
    for the complex.
    """


class UnknownCriticalPoint(NeumannDomainError):
    """Critical point is not part of the complex."""


class DegreeTooSmall(NeumannDomainError):
    """Angle query at a critical point with fewer than two incident lines."""


class ProportionalHessian(NeumannDomainError):
    """Cusp exponent undefined: Hessian proportional to the metric."""


# -- meshing / truncation -----------------------------------------------------

class ExceptionalLevel(NeumannDomainError):
    """Truncation level line passes through a saddle point."""


class MeshQualityFailure(NeumannDomainError):
    """Triangle quality violated outside cusp neighbourhoods."""


class SelfIntersectingBoundary(NeumannDomainError):
    """Domain boundary polygon self-intersects."""


# -- spectral stage -----------------------------------------------------------

class SolverBreakdown(NeumannDomainError):
    """Eigensolver failed to converge."""


class NonSPDMass(NeumannDomainError):
    """Mass matrix is not symmetric positive definite."""


class SpectrumTooShort(NeumannDomainError):
    """Computed spectrum does not extend beyond the query eigenvalue."""


class AmbiguousCluster(NeumannDomainError):
    """Counting threshold falls inside a numerically unresolved cluster."""


class NotAnEigenfunctionField(NeumannDomainError):
    """Operation requires a Laplacian eigenfunction field."""


# -- crack construction -------------------------------------------------------

class PatchContainsCriticalPoint(NeumannDomainError):
    """Perturbation patch must be free of critical points."""


class AmplitudeTooSmall(NeumannDomainError):
    """Bump amplitude never crosses the local gradient slope."""


class PatchTooLarge(NeumannDomainError):
    """Base field is too far from linear over the perturbation patch."""


class ConstructionFailed(NeumannDomainError):
    """A cracked-domain construction assertion did not hold."""
