"""Exception types shared across the package."""

from __future__ import annotations


class GraphSepError(Exception):
    """Base class for every error this package raises on purpose; line is
    the 1-based graph-file line at fault, or None when there is none."""

    def __init__(self, message: str = "", line: int | None = None):
        super().__init__(message)
        self.line = line


class OutOfRangeError(GraphSepError):
    """A vertex coordinate lies outside the declared p-by-q grid."""


class OnlyLoopsError(GraphSepError):
    """Every edge is a loop, so no density matrix exists."""


class EmptyEdgeSetError(GraphSepError):
    """The edge set is empty."""


class DimMismatchError(GraphSepError):
    """Matrix or vector sizes do not match the declared dimensions."""


class NotSymmetricError(GraphSepError):
    """A matrix that must be symmetric is not."""


class NotEntangledEdgeError(GraphSepError):
    """The edge does not differ in both coordinates."""


class BadParamsError(GraphSepError):
    """Generator or command parameters are invalid."""


class WrongDimsError(GraphSepError):
    """The operation requires a specific subsystem dimension."""


class BadDimsError(GraphSepError):
    """The dimensions are invalid for the requested operation or suite."""


class BadTrialCountError(GraphSepError):
    """The trial count must be at least 1."""


class NoConvergenceError(GraphSepError):
    """The eigenvalue sweep hit its cap before converging."""


class GraphFileError(GraphSepError):
    """A graph file violates the line-oriented format."""
