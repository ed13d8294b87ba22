"""Exception hierarchy for the jpq package.

Errors are grouped by which stage of the pipeline raises them; the CLI
maps them onto exit codes (query errors -> 1, data errors -> 2, others -> 3).
"""


class JpqError(Exception):
    """Base class for all jpq errors."""


class DataError(JpqError):
    """A problem with input documents (loading, malformed JSON, bad keys)."""


class JsonSyntaxError(DataError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class DuplicateKeyError(DataError):
    def __init__(self, key: str, path: str):
        super().__init__(f"duplicate key {key!r} in object at {path or '<root>'}")
        self.key = key
        self.path = path


class UnknownDocumentError(DataError):
    def __init__(self, name: str):
        super().__init__(f"document {name!r} is not registered")
        self.name = name


class QueryError(JpqError):
    """A problem with the query itself (syntax or validation)."""


class SyntaxError_(QueryError):
    """Query text failed to parse.  Carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class UnboundVariableError(QueryError):
    def __init__(self, name: str):
        super().__init__(f"variable ${name} is not bound by any extraction pattern")
        self.name = name


class ReboundVariableError(QueryError):
    def __init__(self, name: str):
        super().__init__(f"variable ${name} is bound more than once in the extraction patterns")
        self.name = name


class RuleInapplicableError(QueryError):
    """A restructuring rule was applied where its side condition fails."""


class InvalidConstructionError(QueryError):
    """No restructuring route exists from the extraction term to the backbone."""


class SearchBoundExceededError(QueryError):
    """Route search gave up before exhausting the space; result inconclusive."""


class InvalidCompositionError(QueryError):
    """`and`/`or` would merge variables that live in different option branches."""


class ShapeMismatchError(JpqError):
    """A result lacks the shape its plan promised: an internal error, wherever found."""


class TypeError_(QueryError):
    """A builtin predicate or function applied off its signature."""


class ConstructionError(QueryError):
    """A construct clause that cannot be built: duplicate output keys, a
    ^[...] of constants only or a bad ordering (rejected before any data is
    read), or at build time an ordering variable an element leaves unbound."""
