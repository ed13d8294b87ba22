"""Lexer and recursive-descent parser for query programs and patterns.

Concrete syntax notes (the abstract syntax leaves these open):
  - Variables are `$` + identifier.
  - String predicates are double-quoted; `?` is a multi-character wildcard,
    matching anchored at both ends.  A string without `?` is an exact key or
    an equality test.
  - Juxtaposition `$r"?president?"` (optionally parenthesized) denotes a
    var-and-predicate key.
  - Value predicates: a bare literal means equality; comparisons are written
    `(= lit)`, `(< lit)`, etc.
  - `|` binds looser than `:` and tighter than `,` inside `{}`/`<>`;
    parentheses override.  After `|`, a branch that looks like `key : ...`
    continues a key-value option, anything else a value option.
  - `#` starts a line comment.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from typing import NoReturn, Optional

from . import ast as A
from .errors import QueryError, SyntaxError_
from .model import COMPARISONS, Value
from .terms import ArrayT, DistinctT, Term, TupleT, Var

_KEYWORDS = {
    "from", "construct", "where", "doc", "groupby", "asc", "desc",
    "foreach", "forsome", "in", "and", "or", "not", "par", "with",
    "true", "false", "null",
}

# one alternative per token kind.  A string holds only valid escapes, so a
# quote that starts no string starts either a bad escape (the longest valid
# prefix, which the lookahead takes without backtracking, then a backslash)
# or an unterminated string.
_CHARS = r'(?:[^"\\\n]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*'
_TOKEN = re.compile(
    r"""
    (?P<NEWLINE>\n) | [ \t\r]+ | \#.*
  | (?P<STRING>"CHARS")
  | (?P<BAD_ESCAPE>"(?=(?P<prefix>CHARS))(?P=prefix)\\[\s\S])
  | \$(?P<VAR>\w*)
  | (?P<NUMBER>-?\d(?:[\deE]|\.(?=\d)|(?<=[eE])[+-])*)
  | (?P<WORD>[^\W\d]\w*)
  | (?P<PUNCT>//|!=|<=|>=|[{}\[\]<>():,|/*%^=;.])
  | (?P<ERROR>.)
    """.replace("CHARS", _CHARS),
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(?:u(.{4})|(.))")
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def _unescape(m: re.Match) -> str:
    return chr(int(m[1], 16)) if m[1] else _ESCAPES[m[2]]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks and comments
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        value, col = m[kind], m.start() - line_start + 1
        if kind == "STRING":
            value = _ESCAPE.sub(_unescape, value[1:-1])
        elif kind == "VAR" and not value:
            raise SyntaxError_("expected identifier after '$'", line, col)
        elif kind == "NUMBER":
            try:
                value = Decimal(value)
            except InvalidOperation:
                raise SyntaxError_(f"bad number {value!r}", line, col) from None
        elif kind == "WORD":
            kind = value.upper() if value in _KEYWORDS else "IDENT"
        elif kind == "PUNCT":
            kind = value
        elif kind == "BAD_ESCAPE":
            raise SyntaxError_(f"bad escape \\{value[-1]}", line, col)
        elif kind == "ERROR":
            if value == '"':
                raise SyntaxError_("unterminated string", line, col)
            raise SyntaxError_(f"unexpected character {value!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


_LITERALS = ("STRING", "NUMBER", "TRUE", "FALSE", "NULL")  # the token kinds of a literal


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- primitives --------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        if not self.at(kind):
            self.error(f"expected {kind!r}, found {self._describe()}")
        return self.next()

    def _describe(self) -> str:
        tok = self.peek()
        return "end of input" if tok.kind == "EOF" else repr(tok.value)

    def error(self, message: str) -> NoReturn:
        tok = self.peek()
        raise SyntaxError_(message, tok.line, tok.col)

    def many(self, item, sep: str) -> list:
        """`item (sep item)*`: the items parsed."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    # -- literals ----------------------------------------------------------

    def at_literal(self) -> bool:
        return self.at(*_LITERALS)

    def literal(self) -> Value:
        tok = self.next()
        if tok.kind == "STRING" or tok.kind == "NUMBER":
            return tok.value
        if tok.kind == "TRUE":
            return True
        if tok.kind == "FALSE":
            return False
        if tok.kind == "NULL":
            return None
        raise SyntaxError_(f"expected a literal, found {tok.value!r}", tok.line, tok.col)

    # -- extraction patterns ----------------------------------------------

    def value_pattern(self) -> A.ValuePattern:
        branches = self.many(self.value_pattern_atom, "|")
        return branches[0] if len(branches) == 1 else A.POption(tuple(branches))

    def value_pattern_atom(self) -> A.ValuePattern:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return A.PVar(tok.value)
        if tok.kind == "*":
            self.next()
            return A.PWild()
        if tok.kind == "STRING":
            self.next()
            return A.PPred(A.StringPredicate(tok.value))
        if self.at_literal():
            return A.PPred(A.ComparePredicate("=", self.literal()))
        if tok.kind == "{":
            self.next()
            members = self.many(self.keyvalue_pattern, ",")
            self.expect("}")
            return A.PObject(tuple(members))
        if tok.kind == "[":
            self.next()
            elem = self.value_pattern()
            self.expect("]")
            return A.PArray(elem)
        if tok.kind == "<":
            self.next()
            items = self.many(self.value_pattern, ",")
            self.expect(">")
            if len(items) < 2:
                self.error("conjunctive pattern needs at least two components")
            return A.PConj(tuple(items))
        if tok.kind == "//":
            self.next()
            return A.PDescend(self.value_pattern_atom())
        if tok.kind == "/":
            self.next()
            return A.PChildren(self.keyvalue_pattern())
        if tok.kind == "(":
            self.next()
            if self.peek().kind in COMPARISONS and self.peek(1).kind in _LITERALS:
                op = self.next().kind
                lit = self.literal()
                self.expect(")")
                return A.PPred(A.ComparePredicate(op, lit))
            inner = self.value_pattern()
            self.expect(")")
            return inner
        self.error(f"expected a value pattern, found {self._describe()}")

    def _try_key_part(self) -> Optional[tuple[Optional[str], Optional[A.StringPredicate]]]:
        """Parse a key part followed by ':' or report None (restoring)."""
        mark = self.pos
        key: Optional[tuple[Optional[str], Optional[A.StringPredicate]]] = None
        if self.at("*"):
            self.next()
            key = (None, None)
        elif self.at("VAR"):
            var = self.next().value
            pred = None
            if self.at("STRING"):
                pred = A.StringPredicate(self.next().value)
            key = (var, pred)
        elif self.at("STRING"):
            key = (None, A.StringPredicate(self.next().value))
        elif self.at("("):
            self.next()
            if self.at("VAR"):
                var = self.next().value
                if self.at("STRING"):
                    pred = A.StringPredicate(self.next().value)
                    if self.accept(")"):
                        key = (var, pred)
        if key is not None and self.accept(":"):
            return key
        self.pos = mark
        return None

    def keyvalue_single(self) -> A.KVPattern:
        key = self._try_key_part()
        if key is None:
            self.error(f"expected a key-value pattern, found {self._describe()}")
        var, pred = key
        return A.KVPattern(var, pred, self._kv_value())

    def _kv_value(self) -> A.ValuePattern:
        """Value side of a key-value pattern: option branches stop where a new
        `key:` begins, so `\"a\":$x|\"b\":$y` splits at the key-value level."""
        branches = [self.value_pattern_atom()]
        while self.at("|") and not self._looks_like_key_part(1):
            self.next()
            branches.append(self.value_pattern_atom())
        return branches[0] if len(branches) == 1 else A.POption(tuple(branches))

    def _looks_like_key_part(self, ahead: int = 0) -> bool:
        """Whether a key part followed by ':' starts `ahead` tokens on."""
        mark = self.pos
        self.pos += ahead
        found = self._try_key_part() is not None
        self.pos = mark
        return found

    def keyvalue_pattern(self) -> A.KeyValuePattern:
        branches: list[A.KeyValuePattern] = [self.keyvalue_single()]
        while self.at("|") and self._looks_like_key_part(1):
            self.next()
            branches.append(self.keyvalue_single())
        return branches[0] if len(branches) == 1 else A.KVOption(tuple(branches))

    # -- term expressions (groupby / distinct references) -------------------

    def term_expr(self) -> Term:
        t = self._term_atom()
        while self.accept("%"):
            t = DistinctT(t)
        return t

    def _term_atom(self) -> Term:
        if self.at("VAR"):
            return Var(self.next().value)
        if self.accept("^"):
            self.expect("[")
            inner = self.term_expr()
            self.expect("]")
            return ArrayT(inner, None, flat=True)
        if self.accept("["):
            inner = self.term_expr()
            self.expect("]")
            return ArrayT(inner, None)
        if self.accept("("):
            items = self.many(self.term_expr, ",")
            self.expect(")")
            return items[0] if len(items) == 1 else TupleT(tuple(items))
        self.error(f"expected a term expression, found {self._describe()}")

    # -- construction patterns ---------------------------------------------

    def construction(self) -> A.ConstructionPattern:
        branches = self.many(self.construction_atom, "|")
        return branches[0] if len(branches) == 1 else A.COption(tuple(branches))

    def construction_atom(self) -> A.ConstructionPattern:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            if self.accept("%"):
                return A.CDistinctRef(DistinctT(Var(tok.value)))
            return A.CVarRef(tok.value)
        if self.at_literal():
            return A.CLit(self.literal())
        if tok.kind == "{":
            self.next()
            members = self.many(self._construction_member, ",")
            self.expect("}")
            return A.CObject(tuple(members))
        if tok.kind == "^":
            self.next()
            self.expect("[")
            elem = self.construction()
            self.expect("]")
            if self.accept("%"):
                return A.CDistinctRef(DistinctT(ArrayT(self._cp_term(elem), None, flat=True)))
            return A.CFlatArray(elem)
        if tok.kind == "[":
            self.next()
            elem = self.construction()
            self.expect("]")
            if self.accept("%"):
                return A.CDistinctRef(DistinctT(ArrayT(self._cp_term(elem), None)))
            groupby = None
            order = None
            if self.accept("GROUPBY"):
                groupby = self.term_expr()
            if self.at("ASC", "DESC"):
                order = self.next().kind.lower()
            return A.CArray(elem, groupby, order)
        if tok.kind == "IDENT":
            name = self.next().value
            self.expect("(")
            args = self.many(self.construction, ",")
            self.expect(")")
            return A.CFun(name, tuple(args))
        if tok.kind == "(":
            self.next()
            items = self.many(self.construction, ",")
            self.expect(")")
            if len(items) > 1:
                self.expect("%")
                return A.CDistinctRef(DistinctT(TupleT(tuple(self._cp_term(i) for i in items))))
            if self.accept("%"):
                return A.CDistinctRef(DistinctT(self._cp_term(items[0])))
            return items[0]
        self.error(f"expected a construction pattern, found {self._describe()}")

    def _construction_member(self) -> tuple[str, A.ConstructionPattern]:
        key = self.expect("STRING").value
        self.expect(":")
        return key, self.construction()

    def _cp_term(self, cp: A.ConstructionPattern) -> Term:
        """Reinterpret a construction fragment as a term expression (for
        distinct references like `^[$id]%`)."""
        if isinstance(cp, A.CVarRef):
            return Var(cp.name)
        if isinstance(cp, A.CArray) and cp.groupby is None and cp.order is None:
            return ArrayT(self._cp_term(cp.elem), None)
        if isinstance(cp, A.CFlatArray):
            return ArrayT(self._cp_term(cp.elem), None, flat=True)
        if isinstance(cp, A.CDistinctRef):
            return cp.term
        self.error("a distinct reference must be built from variables, arrays and tuples")

    # -- conditions ---------------------------------------------------------

    def condition(self) -> A.Condition:
        left = self._cond_par()
        while self.accept("WITH"):
            left = A.CCompound("with", left, self._cond_par())
        return left

    def _cond_par(self) -> A.Condition:
        left = self._cond_or()
        while self.accept("PAR"):
            left = A.CCompound("par", left, self._cond_or())
        return left

    def _cond_or(self) -> A.Condition:
        subs = self.many(self._cond_and, "OR")
        return subs[0] if len(subs) == 1 else A.CBool("or", tuple(subs))

    def _cond_and(self) -> A.Condition:
        subs = self.many(self._cond_not, "AND")
        return subs[0] if len(subs) == 1 else A.CBool("and", tuple(subs))

    def _cond_not(self) -> A.Condition:
        if self.accept("NOT"):
            return A.CBool("not", (self._cond_not(),))
        return self._cond_primary()

    def _cond_primary(self) -> A.Condition:
        if self.at("FOREACH", "FORSOME"):
            return self._quantified()
        if self.at("("):
            self.next()
            inner = self.condition()
            self.expect(")")
            return inner
        if self.at("IDENT") and self.peek().value != "count" and self.peek(1).kind == "(":
            name = self.next().value
            self.expect("(")
            args = self.many(self.cond_expr, ",")
            self.expect(")")
            return A.CCall(name, tuple(args))
        lhs = self.cond_expr()
        if self.peek().kind in COMPARISONS:
            op = self.next().kind
            rhs = self.cond_expr()
            return A.CCompare(op, lhs, rhs)
        self.error("expected a comparison operator")

    def _quantified(self) -> A.Condition:
        kind = self.next().kind.lower()
        var = self.expect("VAR").value
        if self.accept("IN"):
            self.expect("[")
            inner = self.expect("VAR").value
            if inner != var:
                self.error(f"quantifier range [${inner}] does not match bound ${var}")
            self.expect("]")
        self.expect(";")
        body = self.condition()
        return A.CQuant(kind, var, body)

    def cond_expr(self) -> A.CondExpr:
        if self.at("IDENT") and self.peek().value == "count":
            self.next()
            parens = bool(self.accept("("))
            self.expect("[")
            braced = bool(self.accept("{"))
            var = self.expect("VAR").value
            if braced:
                self.expect("}")
            self.expect("]")
            if parens:
                self.expect(")")
            return A.ECount(var)
        if self.at("VAR"):
            var = self.next().value
            keys = []
            while self.accept("."):
                keys.append(self.expect("STRING").value)
            if keys:
                return A.EField(var, tuple(keys))
            return A.EVar(var)
        if self.at_literal():
            return A.ELit(self.literal())
        self.error(f"expected an expression, found {self._describe()}")

    # -- whole programs ------------------------------------------------------

    def query(self) -> A.QueryAst:
        self.expect("FROM")
        sources = [self._source()]
        while self.at(",") and self.peek(1).kind == "DOC":
            self.next()
            sources.append(self._source())
        self.expect("CONSTRUCT")
        construct = self._construct_top()
        where = None
        if self.accept("WHERE"):
            where = self.condition()
        self.expect("EOF")
        return A.QueryAst(tuple(sources), construct, where)

    def _source(self) -> tuple[str, A.ValuePattern]:
        self.expect("DOC")
        self.expect("(")
        name = self.expect("STRING").value
        self.expect(")")
        return name, self.value_pattern()

    def _construct_top(self) -> A.ConstructionPattern:
        # allow the `"result":[...]` sugar for a one-member object
        if self.at("STRING") and self.peek(1).kind == ":":
            key = self.next().value
            self.next()
            return A.CObject(((key, self.construction()),))
        return self.construction()


def _parse(text: str, rule, what: str):
    """Run one parser rule over the whole text; too deep a nesting is a QueryError."""
    try:
        parser = Parser(text)
        result = rule(parser)
        parser.expect("EOF")
        return result
    except RecursionError:
        raise QueryError(f"{what} nests too deeply to parse") from None


def parse_pattern(text: str):
    """Parse an extraction pattern.  Standalone `key : value` text yields a
    KeyValuePattern (matched against pairs), anything else a ValuePattern."""
    return _parse(
        text,
        lambda p: p.keyvalue_pattern() if p._looks_like_key_part() else p.value_pattern(),
        "pattern",
    )


def parse_condition(text: str) -> A.Condition:
    return _parse(text, Parser.condition, "condition")


def parse_construction(text: str) -> A.ConstructionPattern:
    return _parse(text, Parser._construct_top, "construction")


def parse_query(text: str) -> A.QueryAst:
    return _parse(text, Parser.query, "query")  # a QueryAst validates itself
