"""Exception types shared across the package. The class alone sets the CLI's exit code:
2 for a ParseError, DuplicateId, ContractViolation or missing file, 1 for any other."""


class QADBError(Exception):
    """Base class for all package errors."""


class EmptyDocument(QADBError):
    """Document body is empty after whitespace normalization."""


class DuplicateId(QADBError):
    """A passage id occurred more than once during ingestion."""


class ParseError(QADBError):
    """A line-delimited input record could not be parsed."""


class BackendUnavailable(QADBError):
    """The remote generation backend could not be reached after retries."""


class ProtocolError(QADBError):
    """The backend reply (or prompt) violated the generation protocol."""


class FormatVersionError(ParseError):
    """A persisted file declares a format version newer than this code."""


class CorruptDatabase(ParseError):
    """A persisted database file is truncated or internally inconsistent."""


class ModeUnavailable(QADBError):
    """The requested retrieval mode is not supported by this index."""


class ContractViolation(QADBError):
    """An operation was called with arguments outside its contract."""


class EmbeddingDimMismatch(ContractViolation):
    """Vectors of one index, or a query's, disagree in count or dimensionality."""


class NonFiniteVectors(ContractViolation, ValueError):
    """Vectors given to an index hold NaN or an infinity."""
