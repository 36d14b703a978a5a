"""Exception types shared across the package."""

from __future__ import annotations


class StructuralError(ValueError):
    """Shape mismatch: wrong variable count, degree, or tuple length."""


class InvalidInputError(ValueError):
    """An argument lies outside the operation's domain (zero line, equal pair, ...)."""


class DegenerateNodesError(InvalidInputError):
    """Nodes that must be distinct repeat, or binary points are zero or proportional."""


class NotDoubleLineError(ValueError):
    """The quartic is not divisible by the squared line.

    ``remainder`` is the exact residue left after subtracting the largest
    multiple of the squared line.
    """

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__("quartic is not divisible by the squared line")


class PreconditionError(ValueError):
    """A stated hypothesis of the operation failed; the message names it."""


class TheoremViolationError(AssertionError):
    """An internally certified identity failed.

    This error firing on valid inputs indicates an implementation bug, not a
    property of the input.
    """


class GenerationFailureError(RuntimeError):
    """Bounded random search for instance parameters was exhausted."""
