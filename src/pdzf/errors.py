"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "PdzfError",
    "GraphError",
    "EdgeListError",
    "GuardExceededError",
    "InfeasibleError",
    "InconsistentTraceError",
    "NotATreeError",
    "BoundHypothesisError",
    "CertificationError",
]


class PdzfError(Exception):
    """Base class for every error this package raises on purpose."""


class GraphError(PdzfError, ValueError):
    """Invalid graph construction or vertex argument."""


class EdgeListError(PdzfError, ValueError):
    """Malformed edge-list input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class GuardExceededError(PdzfError):
    """An instance exceeds the guard of an exponential computation."""


def check_guard(route: str, limit: int, size: int, where: str = "graph") -> None:
    """Raise GuardExceededError when ``size`` vertices exceed ``route``'s guard."""
    if size > limit:
        raise GuardExceededError(f"{route} guard is {limit}, {where} has {size} vertices")


class InfeasibleError(PdzfError):
    """The requested certificate does not exist."""


class InconsistentTraceError(PdzfError):
    """A propagation trace violates the color change rule."""


class NotATreeError(PdzfError, ValueError):
    """A tree-only operation was given a graph that is not a tree."""


class BoundHypothesisError(PdzfError, ValueError):
    """The hypotheses of a bound are not satisfied by the given objects."""


class CertificationError(PdzfError):
    """A computed answer failed its check: a bug, never bad input."""
