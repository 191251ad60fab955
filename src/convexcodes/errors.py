"""Exception types shared across the package."""


class ConvexCodesError(Exception):
    """Base class for all errors raised by this package."""


class LabelOutOfRange(ConvexCodesError):
    """A vertex label falls outside 1..n, or n exceeds the 64-bit limit."""


class NotAFace(ConvexCodesError):
    """A face argument does not belong to the complex."""


class VertexInUse(ConvexCodesError):
    """The apex label handed to cone() is not fresh."""


class EmptyInput(ConvexCodesError):
    """An operation that needs at least one nonempty item got none."""


class VoidComplex(ConvexCodesError):
    """The operation is undefined on the void complex (no faces at all)."""


class DimensionOutOfRange(ConvexCodesError):
    """A chain-group index k lies outside 0..dim."""


class IllegalStep(ConvexCodesError):
    """A collapse step violates its legality condition."""


class EmptyRegion(ConvexCodesError):
    """No codeword contains the requested face, so its region is empty."""


class TooLarge(ConvexCodesError):
    """An input is beyond a size limit: cells, faces, order complexes or instances."""


class InternalInconsistency(ConvexCodesError):
    """Two verdicts that must agree came out contradictory."""


class ParseError(ConvexCodesError):
    """A code or complex file could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class MixedNotation(ParseError):
    """Binary-string words and integer words appear in the same file."""
