"""A small trace query language.

    query  := ("count" | "cases") ["where" filter {"and" filter}]
    filter := "has" "activity" STRING
            | ("case" | "event") "." IDENT op literal
            | "start_hour" "in" "[" TIME "," TIME ")"
            | "on" STRING ":" IDENT op literal
    op     := "=" | "!=" | "<" | "<=" | ">" | ">="

STRING is double-quoted, TIME is HH:MM, literals are strings, numbers or
true/false; numbers and times take ASCII digits only. Filters select whole
traces: `has activity` asks for at least one event with that activity,
`event.` for at least one event whose attribute satisfies the comparison,
`on` for the same restricted to events of one activity, and `case.`
compares a trace attribute. `start_hour` checks the time of day of the
trace's first event against a half-open interval that may wrap past
midnight. A type-mismatched comparison excludes the trace and reports an
error instead of failing the whole query; the event-scoped filters compare
every candidate event, so one mismatching event excludes the trace even
when another event matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import time, timezone

from .xes import AttrValue, Log, Trace

OPS = ("=", "!=", "<", "<=", ">", ">=")
Literal = str | int | float | bool


class QueryParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class _TypeMismatch(Exception):
    pass


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class HasActivity:
    activity: str

    def matches(self, trace: Trace) -> bool:
        return any(ev.activity == self.activity for ev in trace.events)


def _compare(value: AttrValue, op: str, literal: Literal) -> bool:
    value_is_bool = type(value) is bool
    literal_is_bool = type(literal) is bool
    if value_is_bool or literal_is_bool:
        if not (value_is_bool and literal_is_bool) or op not in ("=", "!="):
            raise _TypeMismatch(f"cannot compare {value!r} {op} {literal!r}")
        return value == literal if op == "=" else value != literal
    if isinstance(value, str) != isinstance(literal, str):
        raise _TypeMismatch(f"cannot compare {value!r} {op} {literal!r}")
    if not isinstance(value, (str, int, float)):
        raise _TypeMismatch(f"cannot compare {value!r} {op} {literal!r}")
    if op == "=":
        return value == literal
    if op == "!=":
        return value != literal
    if op == "<":
        return value < literal
    if op == "<=":
        return value <= literal
    if op == ">":
        return value > literal
    return value >= literal


def _any_event_compares(events, key: str, op: str, literal: Literal) -> bool:
    """Whether some event's value of key satisfies the comparison.

    Every event carrying the key is compared, so a type mismatch on any of
    them raises even when another already matched: the answer does not
    depend on event order.
    """
    hits = [_compare(value, op, literal) for e in events if (value := e.get(key)) is not None]
    return any(hits)


@dataclass(frozen=True)
class AttributeCompare:
    scope: str  # "case" | "event"
    key: str
    op: str
    literal: Literal

    def matches(self, trace: Trace) -> bool:
        if self.scope == "case":
            value = trace.get(self.key)
            if value is None:
                return False
            return _compare(value, self.op, self.literal)
        return _any_event_compares(trace.events, self.key, self.op, self.literal)


@dataclass(frozen=True)
class OnActivityCompare:
    activity: str
    key: str
    op: str
    literal: Literal

    def matches(self, trace: Trace) -> bool:
        events = (event for event in trace.events if event.activity == self.activity)
        return _any_event_compares(events, self.key, self.op, self.literal)


@dataclass(frozen=True)
class StartTimeOfDayIn:
    """First event's UTC time of day inside the half-open window [start, end).

    A window whose start is after its end wraps past midnight. When both
    endpoints coincide, a wrapping window covers the whole day and a
    non-wrapping one is empty; the query syntax always builds wrapping
    windows, the flag exists for direct construction.
    """

    start: time
    end: time
    allow_wrap: bool = True

    def matches(self, trace: Trace) -> bool:
        if not trace.events:
            return False
        first = trace.events[0].timestamp.astimezone(timezone.utc).time()
        if self.start == self.end:
            return self.allow_wrap
        if self.start < self.end:
            return self.start <= first < self.end
        if not self.allow_wrap:
            return False
        return first >= self.start or first < self.end


Filter = HasActivity | AttributeCompare | OnActivityCompare | StartTimeOfDayIn


@dataclass(frozen=True)
class Query:
    mode: str  # "count" | "cases"
    filters: tuple[Filter, ...] = ()

    @property
    def keys(self) -> frozenset[str]:
        """The attribute keys the filters read (`case.k`, `event.k`, `on "A": k`).

        Besides these, a query reads only case ids, activities and
        timestamps, so `parse_xes(document, keep=query.keys)` builds all it needs.
        """
        return frozenset(
            f.key for f in self.filters if isinstance(f, (AttributeCompare, OnActivityCompare))
        )


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<time>[0-9]{1,2}:[0-9]{2})
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[.,\[\):])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryParseError(f"expected {expected} at end of query", len(self.text) + 1)
        self.pos += 1
        return token

    def _expect_word(self, *words: str) -> _Token:
        token = self._next(" or ".join(repr(w) for w in words))
        if token.kind != "word" or token.text not in words:
            expected = " or ".join(repr(w) for w in words)
            raise QueryParseError(f"expected {expected}, got {token.text!r}", token.column)
        return token

    def _expect_punct(self, symbol: str) -> _Token:
        token = self._next(repr(symbol))
        if token.kind != "punct" or token.text != symbol:
            raise QueryParseError(f"expected {symbol!r}, got {token.text!r}", token.column)
        return token

    def _string(self) -> str:
        token = self._next("a quoted string")
        if token.kind != "string":
            raise QueryParseError(f"expected a quoted string, got {token.text!r}", token.column)
        return _unquote(token.text)

    def _ident(self) -> str:
        token = self._next("an attribute name")
        if token.kind != "word":
            raise QueryParseError(
                f"expected an attribute name, got {token.text!r}", token.column
            )
        return token.text

    def _op(self) -> str:
        token = self._next("a comparison operator")
        if token.kind != "op":
            raise QueryParseError(
                f"expected one of {', '.join(OPS)}, got {token.text!r}", token.column
            )
        return token.text

    def _literal(self) -> Literal:
        token = self._next("a literal")
        if token.kind == "string":
            return _unquote(token.text)
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "word" and token.text in ("true", "false"):
            return token.text == "true"
        raise QueryParseError(f"expected a literal, got {token.text!r}", token.column)

    def _time(self) -> time:
        token = self._next("a time (HH:MM)")
        if token.kind != "time":
            raise QueryParseError(f"expected a time (HH:MM), got {token.text!r}", token.column)
        hours, minutes = token.text.split(":")
        if int(hours) > 23 or int(minutes) > 59:
            raise QueryParseError(f"invalid time {token.text!r}", token.column)
        return time(int(hours), int(minutes))

    def _filter(self) -> Filter:
        token = self._next("a filter")
        if token.kind != "word":
            raise QueryParseError(f"expected a filter, got {token.text!r}", token.column)
        if token.text == "has":
            self._expect_word("activity")
            return HasActivity(self._string())
        if token.text in ("case", "event"):
            self._expect_punct(".")
            return AttributeCompare(token.text, self._ident(), self._op(), self._literal())
        if token.text == "start_hour":
            self._expect_word("in")
            self._expect_punct("[")
            start = self._time()
            self._expect_punct(",")
            end = self._time()
            self._expect_punct(")")
            return StartTimeOfDayIn(start, end)
        if token.text == "on":
            activity = self._string()
            self._expect_punct(":")
            return OnActivityCompare(activity, self._ident(), self._op(), self._literal())
        raise QueryParseError(f"unknown filter {token.text!r}", token.column)

    def parse(self) -> Query:
        mode = self._expect_word("count", "cases").text
        filters: list[Filter] = []
        token = self._peek()
        if token is not None:
            self._expect_word("where")
            filters.append(self._filter())
            while (token := self._peek()) is not None:
                self._expect_word("and")
                filters.append(self._filter())
        return Query(mode, tuple(filters))


def parse_query(text: str) -> Query:
    if not text.strip():
        raise QueryParseError("empty query", 1)
    return _Parser(text).parse()


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryIssue:
    case_id: str
    message: str


@dataclass(frozen=True)
class QueryResult:
    mode: str
    case_ids: tuple[str, ...]
    errors: tuple[QueryIssue, ...] = ()

    @property
    def count(self) -> int:
        return len(self.case_ids)

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "count": self.count}
        if self.mode == "cases":
            out["case_ids"] = list(self.case_ids)
        if self.errors:
            out["errors"] = [{"case_id": e.case_id, "message": e.message} for e in self.errors]
        return out


def run_query(log: Log, query: Query | str) -> QueryResult:
    """Evaluate a query; traces hitting a type mismatch are excluded and reported."""
    if isinstance(query, str):
        query = parse_query(query)
    matched: list[str] = []
    errors: list[QueryIssue] = []
    for trace in log.traces:
        try:
            if all(f.matches(trace) for f in query.filters):
                matched.append(trace.case_id)
        except _TypeMismatch as exc:
            errors.append(QueryIssue(trace.case_id, str(exc)))
    return QueryResult(query.mode, tuple(matched), tuple(errors))
