"""Exceptions shared across the package."""


class ForgeError(Exception):
    """Base class for all errors raised by opforge."""


class NotATail(ForgeError):
    pass


class NotAnEdge(ForgeError):
    pass


class NotConnected(ForgeError):
    pass


class MissingDecoration(ForgeError):
    pass


class MissingVertexType(ForgeError):
    pass


class DegenerateForm(ForgeError):
    pass


class UnsupportedKind(ForgeError):
    pass


class FlavorMismatch(ForgeError):
    pass


class KindMismatch(ForgeError):
    pass


class TruncationExceeded(ForgeError):
    pass


class NotAssociativeMultiplication(ForgeError):
    pass


class NonInvertibleTwist(ForgeError):
    pass


class DegreeError(ForgeError):
    pass


class InputError(ForgeError):
    """Malformed file or argument handed to the CLI."""
