"""Commonsense axioms as disjunctions of conjunctive premises.

Grammar (whitespace-insensitive):

    AXIOM  := CLAUSE (" OR " CLAUSE)*
    CLAUSE := PREM (" AND " PREM)*
    PREM   := name "(" ref ")" [op literal]

AND binds tighter than OR. Names and entity refs are ``[A-Za-z0-9_]+``
(underscores stand for spaces); operators are ``= != < <= > >=`` (unicode
``≠ ≤ ≥`` accepted on input); literals are numbers, double-quoted strings,
or entity refs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Union

from .kg import parse_number

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}


class AxiomSyntaxError(ValueError):
    """Axiom text that does not follow the grammar; carries the position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


Comparand = Union[Decimal, str]


@dataclass(frozen=True)
class Premise:
    """A single atomic premise: predicate(ref) or function(ref) op literal."""

    kind: str  # "predicate" | "function"
    name: str
    subject: str  # raw entity ref (underscored); resolved lazily at grounding
    op: Optional[str] = None
    comparand_kind: Optional[str] = None  # "number" | "string" | "entity"
    comparand: Optional[Comparand] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("premise name must be non-empty")
        if self.kind == "predicate" and (self.op or self.comparand is not None):
            raise ValueError("predicate premise cannot carry op/comparand")
        if self.kind == "function" and (not self.op or self.comparand is None):
            raise ValueError("function premise requires op and comparand")
        if self.op and self.op not in OPERATORS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Axiom:
    """Disjunction of conjunctive clauses; a satisfied clause implies the answer."""

    clauses: tuple[tuple[Premise, ...], ...]
    natural_text: str = ""

    def __post_init__(self):
        if not self.clauses or any(not c for c in self.clauses):
            raise ValueError("axiom needs at least one clause, each non-empty")

    def premises(self) -> list[tuple[int, int, Premise]]:
        """All premises with their (clause, premise) indices."""
        return [
            (ci, pi, p)
            for ci, clause in enumerate(self.clauses)
            for pi, p in enumerate(clause)
        ]


# -- parsing --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r'\s*(?:(?P<string>"[^"\n]*")'
    r"|(?P<op><=|>=|!=|≠|≤|≥|<|>|=)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<number>[+-]?\d+(?:\.\d+)?(?![A-Za-z_]))"
    r"|(?P<atom>[A-Za-z0-9_]+))"
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise AxiomSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "op":
            value = _UNICODE_OPS.get(value, value)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expected: str):
        tok = self._peek()
        if tok is None:
            raise AxiomSyntaxError(f"expected {expected}, got end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> Axiom:
        clauses = [self._clause()]
        while self._at_keyword("OR"):
            self.i += 1
            clauses.append(self._clause())
        tok = self._peek()
        if tok is not None:
            raise AxiomSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return Axiom(clauses=tuple(clauses))

    def _at_keyword(self, kw: str) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] in ("atom", "number") and tok[1] == kw

    def _clause(self) -> tuple[Premise, ...]:
        premises = [self._premise()]
        while self._at_keyword("AND"):
            self.i += 1
            premises.append(self._premise())
        return tuple(premises)

    def _premise(self) -> Premise:
        kind, name, pos = self._next("premise name")
        if kind not in ("atom", "number") or not _NAME_RE.match(name):
            raise AxiomSyntaxError(f"expected premise name, got {name!r}", pos)
        if name in ("AND", "OR"):
            raise AxiomSyntaxError("empty clause: expected a premise", pos)
        kind, _, pos = self._next("'('")
        if kind != "lparen":
            raise AxiomSyntaxError("expected '(' after premise name", pos)
        kind, subject, pos = self._next("entity reference")
        if kind not in ("atom", "number") or not _NAME_RE.match(subject):
            raise AxiomSyntaxError(f"expected entity reference, got {subject!r}", pos)
        kind, _, pos = self._next("')'")
        if kind != "rparen":
            raise AxiomSyntaxError("expected ')' after entity reference", pos)
        tok = self._peek()
        if tok is None or tok[0] != "op":
            return Premise(kind="predicate", name=name, subject=subject)
        op = tok[1]
        self.i += 1
        kind, lit, pos = self._next("comparand")
        if kind == "string":
            return Premise("function", name, subject, op, "string", lit[1:-1])
        if kind == "number":
            return Premise("function", name, subject, op, "number", Decimal(lit))
        if kind == "atom":
            num = parse_number(lit)
            if num is not None:
                return Premise("function", name, subject, op, "number", num)
            return Premise("function", name, subject, op, "entity", lit)
        raise AxiomSyntaxError(f"expected comparand, got {lit!r}", pos)


def parse_axiom(text: str, natural_text: str = "") -> Axiom:
    """Parse grammar text into an Axiom; raises AxiomSyntaxError with position."""
    axiom = _Parser(text).parse()
    if natural_text:
        axiom = Axiom(clauses=axiom.clauses, natural_text=natural_text)
    return axiom


# -- serialization ---------------------------------------------------------


def serialize_premise(p: Premise) -> str:
    base = f"{p.name}({p.subject})"
    if p.kind == "predicate":
        return base
    lit = f'"{p.comparand}"' if p.comparand_kind == "string" else str(p.comparand)
    return f"{base} {p.op} {lit}"


def serialize_axiom(axiom: Axiom) -> str:
    """Canonical grammar text; parse_axiom(serialize_axiom(a)) equals a."""
    return " OR ".join(
        " AND ".join(serialize_premise(p) for p in clause)
        for clause in axiom.clauses
    )
