"""Pattern-based query language for JSON-style documents.

The public surface: parse documents and queries, register documents with an
`Engine`, run or explain queries, and serialize the results.
"""

from .engine import Engine, Plan
from .errors import (
    ConstructionError,
    DataError,
    DuplicateKeyError,
    InvalidCompositionError,
    InvalidConstructionError,
    JpqError,
    JsonSyntaxError,
    QueryError,
    SearchBoundExceededError,
    ShapeMismatchError,
    SyntaxError_,
    UnboundVariableError,
    UnknownDocumentError,
)
from .model import DocRegistry, Value, parse_document, serialize
from .parser import parse_condition, parse_construction, parse_pattern, parse_query
from .ast import unparse_query

__all__ = [
    "ConstructionError",
    "DataError",
    "DocRegistry",
    "DuplicateKeyError",
    "Engine",
    "InvalidCompositionError",
    "InvalidConstructionError",
    "JpqError",
    "JsonSyntaxError",
    "Plan",
    "QueryError",
    "SearchBoundExceededError",
    "ShapeMismatchError",
    "SyntaxError_",
    "UnboundVariableError",
    "UnknownDocumentError",
    "Value",
    "parse_condition",
    "parse_construction",
    "parse_document",
    "parse_pattern",
    "parse_query",
    "serialize",
    "unparse_query",
]

__version__ = "0.1.0"
