"""Exception hierarchy shared across the package."""


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(FusionError):
    """Two elements or matrices belong to different fusion data."""


class NotFusionError(FusionError):
    """An operation that needs a simple unit was called on strictly
    multifusion data."""


class NonTransitiveError(FusionError):
    """Frobenius-Perron machinery refused non-transitive data, which no
    structurally valid fusion ring is."""


class NoRealRootError(FusionError):
    """Root isolation was asked for a polynomial without real roots."""


class SchemaError(FusionError):
    """A fusion file violates the JSON schema (maps to CLI exit code 2)."""


class InsufficientDataError(FusionError):
    """A Galois computation needs data that was not supplied."""


class InconsistentAnnotationError(FusionError):
    """A Galois annotation contradicts the fusion data it decorates."""


class InconsistentDataError(FusionError):
    """Two exact computations that must agree on valid fusion data
    disagree, so the data violates an axiom the caller did not check."""


class ResourceLimitError(FusionError):
    """A brute-force search would exceed its configured candidate budget."""


class UnrepresentableError(FusionError):
    """An exact result would need number-field arithmetic outside the
    supported constructions: rational scaling, and products and reciprocals
    of positive values only."""
