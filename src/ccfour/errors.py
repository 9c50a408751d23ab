"""Exception types shared across the package."""


class CCFourError(Exception):
    """Base class for all package errors."""


class DomainError(CCFourError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotConvex(CCFourError):
    """The four points are not in convex position with 1,2 opposite."""


class Degenerate(CCFourError):
    """A sub-triangle of the configuration has (numerically) zero area."""


class NotPlanar(CCFourError):
    """The six squared distances do not embed in the plane."""


class NotRealizable(CCFourError):
    """The six squared distances violate a triangle inequality."""


class CollisionError(CCFourError, ValueError):
    """Two bodies coincide (or nearly so)."""


class NoConvergence(CCFourError):
    """The iteration budget was exhausted without meeting the tolerance."""


class LeftConvexRegion(CCFourError):
    """The Newton iterate left the convex region and backtracking failed."""


class SingularJacobian(CCFourError):
    """The Newton correction could not be computed."""
