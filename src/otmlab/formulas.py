"""Bounded-quantifier formulas and prenex statements: AST, parser, printer.

Grammar (`.fml` files, UTF-8, `#` line comments):

    atom        u in v | u = v
    connectives !p, p & q, p | q, p -> q (right associative)
    quantifiers all u in v (p), ex u in v (p)    -- bounded only
    prenex      ALL x1 EX y1 ... ALL xn EX yn (matrix)

Precedence: ! > & > | > ->.  Quantifier bodies are always parenthesized.
A lowercase quantifier without an `in`-bound is rejected (NotDelta0); prenex
matrices may not mention variables outside the prefix (UnboundVariable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple, Union

from .errors import NotDelta0, UnboundVariable
from .syntax import TokenCursor, parse_nested, scan

__all__ = [
    "Member",
    "Equal",
    "Not",
    "And",
    "Or",
    "Implies",
    "BoundedAll",
    "BoundedEx",
    "Node",
    "Delta0Formula",
    "PrenexStatement",
    "free_variables",
    "parse_formula",
    "parse_delta0",
    "format_formula",
]


@dataclass(frozen=True)
class Member:
    left: str
    right: str


@dataclass(frozen=True)
class Equal:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    body: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class BoundedAll:
    var: str
    bound: str
    body: "Node"


@dataclass(frozen=True)
class BoundedEx:
    var: str
    bound: str
    body: "Node"


Node = Union[Member, Equal, Not, And, Or, Implies, BoundedAll, BoundedEx]


def free_variables(node: Node, bound: FrozenSet[str] = frozenset()) -> FrozenSet[str]:
    if isinstance(node, (Member, Equal)):
        return frozenset(v for v in (node.left, node.right) if v not in bound)
    if isinstance(node, Not):
        return free_variables(node.body, bound)
    if isinstance(node, (And, Or, Implies)):
        return free_variables(node.left, bound) | free_variables(node.right, bound)
    if isinstance(node, (BoundedAll, BoundedEx)):
        outer = frozenset() if node.bound in bound else frozenset((node.bound,))
        return outer | free_variables(node.body, bound | {node.var})
    raise TypeError(f"not a formula node: {node!r}")


@dataclass(frozen=True)
class Delta0Formula:
    """A bounded-quantifier formula together with its free-variable list."""

    root: Node
    free: Tuple[str, ...]

    @staticmethod
    def of(root: Node) -> "Delta0Formula":
        return Delta0Formula(root=root, free=tuple(sorted(free_variables(root))))


@dataclass(frozen=True)
class PrenexStatement:
    """Strictly alternating ALL/EX prefix over a bounded matrix."""

    blocks: Tuple[Tuple[str, str], ...]  # (forall var, exists var) per block
    matrix: Delta0Formula


# -- parser ---------------------------------------------------------------------

_PUNCT = ("->", "!", "&", "|", "=", "(", ")")
_KEYWORDS = ("all", "ex", "in", "ALL", "EX")
_VAR = "a variable name"


class _Parser(TokenCursor):
    # precedence-climbing over -> | & !
    def parse_delta0(self) -> Node:
        return self.parse_implies()

    def parse_implies(self) -> Node:
        left = self.parse_or()
        if self.accept("->"):
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.accept("|"):
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_unary()
        while self.accept("&"):
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.accept("!"):
            return Not(self.parse_unary())
        if self.accept("("):
            inner = self.parse_delta0()
            self.expect(")")
            return inner
        tok = self.peek()
        if tok.text in ("all", "ex"):
            return self.parse_quantifier()
        if tok.text in ("ALL", "EX"):
            raise NotDelta0(
                f"{tok.span.line}:{tok.span.column}: unbounded quantifier "
                f"{tok.text} inside a bounded formula",
                tok.span,
            )
        if tok.kind == "ident":
            return self.parse_atom()
        self.error("a formula")

    def parse_quantifier(self) -> Node:
        kw = self.next()
        var = self.expect_ident(_VAR)
        tok = self.peek()
        if not self.accept("in"):
            raise NotDelta0(
                f"{tok.span.line}:{tok.span.column}: quantifier '{kw.text} "
                f"{var.text}' has no bound; bounded form is "
                f"'{kw.text} {var.text} in v (...)'",
                tok.span,
            )
        bound = self.expect_ident(_VAR)
        self.expect("(")
        body = self.parse_delta0()
        self.expect(")")
        cls = BoundedAll if kw.text == "all" else BoundedEx
        return cls(var.text, bound.text, body)

    def parse_atom(self) -> Node:
        left = self.expect_ident(_VAR).text
        if self.accept("in"):
            return Member(left, self.expect_ident(_VAR).text)
        if self.accept("="):
            return Equal(left, self.expect_ident(_VAR).text)
        self.error("'in' or '='")

    def parse_file(self) -> Union[Delta0Formula, PrenexStatement]:
        first = self.peek().text
        if first == "EX":
            self.error("'ALL' (prenex prefixes alternate ALL/EX)")
        if first == "ALL":
            result = self.parse_prenex()
        else:
            result = Delta0Formula.of(self.parse_delta0())
        self.expect_end("end of formula")
        return result

    def parse_prenex(self) -> PrenexStatement:
        blocks: List[Tuple[str, str]] = []
        while self.accept("ALL"):
            avar = self.expect_ident(_VAR)
            self.expect("EX")
            evar = self.expect_ident(_VAR)
            blocks.append((avar.text, evar.text))
        self.expect("(")
        matrix_root = self.parse_delta0()
        self.expect(")")
        matrix = Delta0Formula.of(matrix_root)
        prefix = set()
        for a, e in blocks:
            prefix.update((a, e))
        for v in matrix.free:
            if v not in prefix:
                raise UnboundVariable(v)
        return PrenexStatement(blocks=tuple(blocks), matrix=matrix)


def parse_formula(text: str) -> Union[Delta0Formula, PrenexStatement]:
    """Parse a formula file: a prenex statement if it starts with ALL/EX,
    otherwise a bounded formula (free variables allowed)."""
    parser = _Parser(scan(text, _PUNCT, "a formula token", _KEYWORDS))
    return parse_nested(parser, parser.parse_file)


def parse_delta0(text: str) -> Delta0Formula:
    result = parse_formula(text)
    if not isinstance(result, Delta0Formula):
        raise NotDelta0("expected a bounded formula, found a prenex statement")
    return result


# -- printer ---------------------------------------------------------------------

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_ATOM, _PREC_UNARY = 10, 20, 30, 35, 40


def _fmt(node: Node, parent_prec: int) -> str:
    if isinstance(node, (Member, Equal)):
        op = "in" if isinstance(node, Member) else "="
        s = f"{node.left} {op} {node.right}"
        # atoms need parens only under '!'
        return f"({s})" if _PREC_ATOM < parent_prec else s
    if isinstance(node, Not):
        s = f"!{_fmt(node.body, _PREC_UNARY)}"
        prec = _PREC_UNARY
    elif isinstance(node, And):
        s = f"{_fmt(node.left, _PREC_AND)} & {_fmt(node.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(node, Or):
        s = f"{_fmt(node.left, _PREC_OR)} | {_fmt(node.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif isinstance(node, Implies):
        s = f"{_fmt(node.left, _PREC_IMPLIES + 1)} -> {_fmt(node.right, _PREC_IMPLIES)}"
        prec = _PREC_IMPLIES
    elif isinstance(node, (BoundedAll, BoundedEx)):
        kw = "all" if isinstance(node, BoundedAll) else "ex"
        s = f"{kw} {node.var} in {node.bound} ({_fmt(node.body, 0)})"
        prec = _PREC_UNARY
    else:
        raise TypeError(f"not a formula node: {node!r}")
    if prec < parent_prec:
        return f"({s})"
    return s


def format_formula(obj: Union[Delta0Formula, PrenexStatement]) -> str:
    if isinstance(obj, PrenexStatement):
        prefix = " ".join(f"ALL {a} EX {e}" for a, e in obj.blocks)
        return f"{prefix} ({_fmt(obj.matrix.root, 0)})"
    return _fmt(obj.root, 0)
