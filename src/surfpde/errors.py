"""Exception types shared across the package."""


class SurfPDEError(Exception):
    """Base class for all package errors."""


class BracketingError(SurfPDEError):
    """Root bracketing failed: the segment does not straddle the surface."""


class DegenerateGradientError(SurfPDEError):
    """|grad phi| fell below the surface's stored lower bound c0."""


class GridError(SurfPDEError):
    """Grid does not strictly contain the surface, or is otherwise unusable."""


class EmptySurfaceError(SurfPDEError):
    """No sign change found on any grid interval."""


class StencilError(SurfPDEError):
    """A required chart neighbor is missing (interpolation or operator stencil)."""


class SingularMatrixError(SurfPDEError):
    """Sparse factorization hit an exactly singular matrix."""


class SolverAbortError(SurfPDEError):
    """A time integration stopped: a state left the finite range, or an
    implicit step's iterative solve missed its residual bound."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class UsageError(SurfPDEError):
    """Bad command-line arguments (reported with exit status 1)."""


class FormatError(SurfPDEError):
    """A serialized discretization file is malformed or truncated."""


class VersionError(FormatError):
    """A serialized discretization file has an unsupported format version."""
