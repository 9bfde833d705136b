"""Exception types shared across the package."""


class GridFloerError(Exception):
    """Base class for all package errors."""


# -- grid construction -------------------------------------------------------

class NonPermutation(GridFloerError):
    """A marking sequence, or a state of an n x n grid, is not a
    permutation of 0..n-1."""


class MarkingCollision(GridFloerError):
    """A cell holds both an O and an X marking."""


class SizeTooSmall(GridFloerError):
    """Grid size below the minimum of 2."""


class InvalidSite(GridFloerError):
    """A switch site that does not exist on, or cannot be applied to, a grid."""


# -- algebra ------------------------------------------------------------------

class NotAComplex(GridFloerError):
    """The boundary does not square to zero."""


class NotHomogeneous(GridFloerError):
    """A boundary entry violates the grading constraint."""


class NotChainMap(GridFloerError):
    """A map does not commute with the boundaries."""


class CapExceeded(GridFloerError):
    """Requested state enumeration exceeds the configured cap."""


class BrokenInvariant(GridFloerError):
    """An internal invariant of a computation failed: a defect in the
    package, not in its input."""


# -- cobordism ----------------------------------------------------------------

class ChainMapViolation(GridFloerError):
    """A constructed move map failed the chain-map assertion."""


class MoveSequenceInvalid(GridFloerError):
    """A movie move's precondition fails against the running state."""


class AnchorMismatch(MoveSequenceInvalid):
    """A quasi-stabilization anchor that is not a marking of the base grid,
    or a de-stabilization whose anchor is neither the stabilization anchor
    nor adjacent to it, or whose complex has no quasi-stabilization on top."""


class BadPermutation(MoveSequenceInvalid):
    """Marking renumbering is not a permutation of the running marking set."""


class SitesNotDisjoint(GridFloerError):
    """Two switch sites share a row or a column."""


# -- cli ----------------------------------------------------------------------

class ParseError(GridFloerError):
    """Malformed grid or movie file; message carries a line number."""


class UnknownSuite(GridFloerError):
    """verify was asked for a suite that does not exist."""
