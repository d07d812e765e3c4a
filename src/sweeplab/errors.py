"""Exception types shared across the package."""


class SweepLabError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleSetError(SweepLabError):
    """The constraint system has no feasible point (or no vertex: empty or unbounded)."""


class EnumerationCapError(SweepLabError):
    """A combinatorial enumeration would exceed the configured cap."""


class LicqError(SweepLabError):
    """Active constraint normals are linearly dependent where independence is required."""


class NormalConeError(SweepLabError):
    """A vector is not contained in the normal cone it was claimed to belong to."""


class MembershipError(SweepLabError):
    """A point violates set membership beyond the working tolerance."""


class InadmissibleStateError(SweepLabError):
    """An initial state is not admissible for the problem at the start time."""


class DegenerateGaitError(SweepLabError):
    """A gait's uniqueness margin vanishes at some time of its period."""


class PatternSearchError(SweepLabError):
    """No slip pattern satisfies the incremental-step optimality conditions."""


class GridAlignmentError(SweepLabError):
    """Signal breakpoints do not lie on the integration grid."""


class ConfigError(SweepLabError):
    """A run configuration is malformed or inconsistent."""
