"""Exception and warning types shared across the package."""


class GdnlsError(Exception):
    """Base class for all errors raised by this package."""


class NotAdmissible(GdnlsError):
    """(omega, c) lies outside the solitary-wave existence region."""


class BadExponents(GdnlsError):
    """(alpha, beta) violates the sign conditions required of a virial pair."""


class SigmaUnsupported(GdnlsError, ValueError):
    """Operation only available for specific nonlinearity powers."""


class NoBracket(GdnlsError):
    """Root scan found no sign change on the search interval."""


class ZeroField(GdnlsError):
    """Operation undefined for the identically-zero field."""


class NotProjectable(GdnlsError):
    """Field cannot be scaled onto the constraint set (wrong-sign split)."""


class IncompatibleModulation(GdnlsError):
    """Requested plane-wave factor is not periodic on the grid."""


class Inapplicable(GdnlsError):
    """Preconditions of a closed-form bound do not hold for this data."""


class BoundaryProximity(UserWarning):
    """Field carries non-negligible mass at the box edge."""
