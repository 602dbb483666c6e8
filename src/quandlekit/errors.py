"""Exception types shared across the package."""

from __future__ import annotations


class QuandleKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QuandleKitError):
    """A .qdl file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidQuandleError(QuandleKitError):
    """A table failed axiom validation.  Carries the ValidationResult."""

    def __init__(self, result):
        self.result = result
        super().__init__(str(result))


class IndexOutOfRange(QuandleKitError, IndexError):
    """An element label lies outside 1..n."""


class FixedPointMissing(QuandleKitError):
    """A translation does not fix its own index (i * i != i)."""

    def __init__(self, i: int):
        self.witness = (i,)
        super().__init__(f"translation {i} does not fix {i}")


class ConjugationViolation(QuandleKitError):
    """Translations fail the conjugation condition R_(j*i) = R_i R_j R_i^-1."""

    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"conjugation condition fails at (i, j) = ({i}, {j})")


class ProfileInconsistency(QuandleKitError):
    """A connected table whose translations disagree on cycle structure.

    Kept for callers that catch it; profile no longer raises it, as it walks
    one translation per orbit (the translations of an orbit are conjugate)."""


class SizeLimitExceeded(QuandleKitError):
    """An order exceeds the configured cap for the requested operation."""


class NotRelabelable(QuandleKitError):
    """Canonical relabeling needs distinct cycle lengths in translation 1."""


class NotCanonicalForm(QuandleKitError):
    """An operation expected a table already in canonical block form."""


class NotAPartition(QuandleKitError):
    """Fixed-point blocks failed to partition the underlying set."""


class ParamOutOfRange(QuandleKitError, ValueError):
    """A numeric parameter violates its documented range."""


class NotSHQShape(QuandleKitError, ValueError):
    """A length list is not strictly increasing from 1 with a divisor chain."""


class NotOddPrime(QuandleKitError, ValueError):
    """A parameter that must be an odd prime is not."""


class MultiplierNotInvertible(QuandleKitError, ValueError):
    """An affine multiplier is not a unit in the chosen ring."""


class DegenerateMultiplier(QuandleKitError, ValueError):
    """An affine multiplier of 0 or 1 produces a degenerate table."""


class RepeatedLengthsUnsupported(QuandleKitError, ValueError):
    """Profile search requires pairwise distinct cycle lengths."""
