"""Exception hierarchy; exit_code drives the CLI process exit status."""
from __future__ import annotations


class QcatError(Exception):
    """Base class; exit_code 4 means numeric inconsistency."""

    exit_code = 4


class ParseError(QcatError):
    exit_code = 2


class SchemaError(ParseError):
    pass


class UnknownFixtureError(ParseError):
    pass


class SchemaMismatch(ParseError):
    pass


class AxiomError(QcatError):
    exit_code = 3


class DataError(AxiomError):
    pass


class UnknownLabelError(AxiomError):
    pass


class ShapeError(AxiomError):
    pass


class MismatchError(ShapeError):
    pass


class CategoryMismatchError(MismatchError):
    pass


class ConjugacyError(AxiomError):
    pass


class NotFrobeniusError(AxiomError):
    pass


class NonStandardizableError(AxiomError):
    pass


class NotProjectionError(AxiomError):
    pass


class NormalizationError(AxiomError):
    pass


class ConditionError(AxiomError):
    pass


class NotSimpleError(AxiomError):
    pass


class NotModularError(AxiomError):
    pass


class RoundingError(QcatError):
    pass


class ConsistencyError(QcatError):
    pass
