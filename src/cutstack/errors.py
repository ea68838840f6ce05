"""Exception types shared across the package."""


class CutstackError(Exception):
    """Base class for all package errors."""


class SchemaError(CutstackError):
    """A family descriptor or parameter rule is malformed or violated at some stage."""

    def __init__(self, message: str, stage: int | None = None):
        self.stage = stage
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)


class PrefixExhausted(CutstackError):
    """An explicit enumeration prefix is too short for the requested operation."""


class LiftError(CutstackError):
    """A level set cannot be re-expressed at a stage where the requested shift is valid."""


class UnsupportedRule(CutstackError):
    """A closed-form analysis was requested for a rule shape it does not cover."""


class CertificateError(CutstackError):
    """A recorded certificate fact failed to re-check against the family it describes."""
