"""Exception hierarchy for envlab.

Every operation raises a subclass of :class:`EnvLabError` so callers can
distinguish library failures from programming errors.
"""


class EnvLabError(Exception):
    """Base class for all envlab errors."""


# --- layout / state construction ---

class LabelCollision(EnvLabError):
    """A subsystem label appears more than once."""


class SpaceTooLarge(EnvLabError):
    """Total Hilbert-space dimension exceeds the configured guard."""


class UnknownLabel(EnvLabError):
    """A referenced subsystem label is not in the layout."""


class NotNormalized(EnvLabError):
    """State vector norm differs from 1 beyond tolerance."""


class InvalidDensity(EnvLabError):
    """Not a Hermitian / positive / trace-one matrix, or not a spectrum."""


class NotUnitary(EnvLabError):
    """Matrix fails the unitarity check."""


class LayoutMismatch(EnvLabError):
    """Two states, or a state and its decomposition, differ in layout."""


# --- tensor-core operations ---

class EmptyKeepSet(EnvLabError):
    """partial_trace called with nothing to keep."""


class InvalidBipartition(EnvLabError):
    """Schmidt bipartition is empty on one side."""


class BadBasis(EnvLabError):
    """Supplied vectors are not a complete orthonormal basis."""


# --- information measures ---

class OverlappingSplit(EnvLabError):
    """System and fragment label sets overlap."""


class UndefinedRatio(EnvLabError):
    """Redundancy ratio requested for a zero-entropy system."""


# --- measurement models ---

class ApparatusNotReady(EnvLabError):
    """Record-holding subsystem is not in its ready (index-0) state."""


class DimensionMismatch(EnvLabError):
    """Record subsystem too small for the pointer it should copy."""


class BadOverlap(EnvLabError):
    """Record overlap parameter outside [0, 1]."""


class LengthMismatch(EnvLabError):
    """Paired label lists (or phase vectors) differ in length."""


# --- envariance ---

class SideViolation(EnvLabError):
    """Unitary overlaps the environment side it must not touch."""


class BadIndex(EnvLabError):
    """Schmidt term index out of range."""


class NotEqualAmplitude(EnvLabError):
    """Equal-amplitude counting requested for unequal coefficients."""


class PlanMismatch(EnvLabError):
    """Fine-graining counts incompatible with the state's spectrum."""


class UseBoundsInstead(EnvLabError):
    """No rational approximation within the denominator cap."""


class MTooSmall(EnvLabError):
    """Bounding denominator smaller than the number of outcomes."""
