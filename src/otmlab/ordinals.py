"""Cantor-normal-form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with ordinal exponents
e1 > e2 > ... > ek and positive integer coefficients.  The representation is
unique, so structural equality is ordinal equality.  Instances are interned:
equal ordinals are the same object, so `==` is the default identity test.
The hash stays the value hash `hash(terms)`, not the identity hash: the
iteration order of sets of ordinals (the pairs of a set code, which decoding
walks and reports the first bad pair of) must not depend on memory addresses.
The order is an order key: each instance carries `_key`, the tuple of its
terms with every exponent replaced by that exponent's key.  Python's
lexicographic tuple order is CNF order (the first differing (exponent,
coefficient) term decides; a proper prefix is smaller), and interning makes
the key injective, so comparing two ordinals is one native tuple comparison.
Each instance also caches its successor: `succ(a)` computes a + 1 once per
interned ordinal, so the successor steps of a run (its time, each rightward
move, each written cell's end) build it only the first time.  `add` absorbs
at once, after one key comparison, every a whose leading exponent lies below
b's (n + w = w).

Also provides the Goedel pairing (the order isomorphism of pairs ordered by
(max, left, right) onto the ordinals) and the text syntax used everywhere
else (`0`, `5`, `w`, `w^2*3+w*2+7`, `w^(w+1)`).
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import RepresentationOverflow
from .syntax import DIGITS, CharCursor, parse_nested

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "from_int",
    "omega_power",
    "compare",
    "add",
    "succ",
    "mul",
    "sub_left",
    "godel_pair",
    "godel_unpair",
    "pair_rank",
    "parse_ordinal",
    "format_ordinal",
]


class Ordinal:
    """Immutable CNF ordinal.  Use from_int/omega_power/parse_ordinal to build."""

    __slots__ = ("terms", "_hash", "_key", "_succ", "_text")

    _intern: dict = {}

    def __new__(cls, terms: Tuple[Tuple["Ordinal", int], ...] = ()):
        cached = cls._intern.get(terms)
        if cached is not None:
            return cached
        prev = None
        for exp, coef in terms:
            if not isinstance(exp, Ordinal) or not isinstance(coef, int) or coef < 1:
                raise ValueError(f"bad CNF term ({exp!r}, {coef!r})")
            if prev is not None and prev._key <= exp._key:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(terms))
        object.__setattr__(self, "_key", tuple((e._key, c) for e, c in terms))
        object.__setattr__(self, "_succ", None)
        object.__setattr__(self, "_text", None)
        cls._intern[terms] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_natural(self) -> bool:
        """True for 0, 1, 2, ... (at most one term, exponent 0)."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def lead_exponent(self) -> "Ordinal":
        """Exponent of the leading term; 0 for finite ordinals."""
        return self.terms[0][0] if self.terms else ZERO

    def to_int(self) -> int:
        if not self.is_natural:
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor ordinal")
        exp, coef = self.terms[-1]
        if coef > 1:
            return Ordinal(self.terms[:-1] + ((exp, coef - 1),))
        return Ordinal(self.terms[:-1])

    # -- comparisons --------------------------------------------------------

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key

    def __repr__(self):
        return format_ordinal(self)


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


def omega_power(exp: Ordinal) -> Ordinal:
    """w**exp in CNF (w**0 = 1)."""
    return Ordinal(((exp, 1),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0, or 1: the order of the two ordinals' keys."""
    return 0 if a is b else (-1 if a._key < b._key else 1)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition (non-commutative: 1 + w = w)."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    eb = b.terms[0][0]
    if eb._key > a.terms[0][0]._key:
        return b  # every term of a lies below b's leading term
    kept = []
    merged = None
    for exp, coef in a.terms:
        c = compare(exp, eb)
        if c > 0:
            kept.append((exp, coef))
        elif c == 0:
            merged = coef
            break
        else:
            break
    if merged is None:
        return Ordinal(tuple(kept) + b.terms)
    head = (eb, merged + b.terms[0][1])
    return Ordinal(tuple(kept) + (head,) + b.terms[1:])


def succ(a: Ordinal) -> Ordinal:
    """a + 1, computed once per interned ordinal and cached on it."""
    s = a._succ
    if s is None:
        s = add(a, ONE)
        object.__setattr__(a, "_succ", s)
    return s


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication (non-commutative: 2 * w = w)."""
    if a.is_zero or b.is_zero:
        return ZERO
    e1 = a.terms[0][0]
    out = []
    for exp, coef in b.terms:
        if exp.is_zero:
            # a * n scales the leading coefficient and keeps the tail.
            out.append((e1, a.terms[0][1] * coef))
            out.extend(a.terms[1:])
        else:
            out.append((add(e1, exp), coef))
    return Ordinal(tuple(out))


def sub_left(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique r with b + r = a; requires b <= a."""
    k = 0
    ta, tb = a.terms, b.terms
    while k < len(ta) and k < len(tb) and ta[k] == tb[k]:
        k += 1
    if k == len(tb):
        return Ordinal(ta[k:])
    if k == len(ta):
        raise ValueError(f"cannot subtract: {b} > {a}")
    (ea, ca), (eb, cb) = ta[k], tb[k]
    c = compare(ea, eb)
    if c < 0 or (c == 0 and ca < cb):
        raise ValueError(f"cannot subtract: {b} > {a}")
    if c > 0:
        return Ordinal(ta[k:])
    # ea is eb, so ca > cb: equal terms would have advanced k
    return Ordinal(((ea, ca - cb),) + ta[k + 1 :])


ZERO = Ordinal()
ONE = from_int(1)
TWO = from_int(2)
OMEGA = omega_power(ONE)


# -- Goedel pairing ----------------------------------------------------------
#
# Pairs are well-ordered by (max(a,b), a, b).  pair_rank(alpha) is the order
# type of the set of pairs whose maximum is below alpha; the pairing adds the
# offset of a pair inside its max-shell.  pair_rank is computed term by term
# from the CNF; the shell-block order types are single omega-powers whose
# exponents come from _psi below (derived from the recursion
# rank(shells of w^e blocks) = sup over finite stacks).

_PAIR_RANK_CACHE: dict = {}


def _psi(x: Ordinal, e: Ordinal) -> Ordinal:
    """Exponent of the order type of a block of w^e shells following a prefix
    with leading exponent x (e >= 1)."""
    if compare(x, e) >= 0:
        return add(x, e)
    if e.is_successor:
        return add(mul(e.predecessor(), TWO), ONE)
    # e limit: drop one unit of its last term
    last_exp, last_coef = e.terms[-1]
    if last_coef > 1:
        trimmed = Ordinal(e.terms[:-1] + ((last_exp, last_coef - 1),))
    else:
        trimmed = Ordinal(e.terms[:-1])
    return add(mul(trimmed, TWO), omega_power(last_exp))


def pair_rank(alpha: Ordinal) -> Ordinal:
    """Order type of {(x, y) : max(x, y) < alpha} under the pairing order."""
    cached = _PAIR_RANK_CACHE.get(alpha)
    if cached is not None:
        return cached
    if alpha.is_zero:
        return ZERO
    if alpha.is_natural:
        n = alpha.to_int()
        result = from_int(n * n)
        _PAIR_RANK_CACHE[alpha] = result
        return result
    e1 = alpha.terms[0][0]
    total = ZERO
    for i, (exp, coef) in enumerate(alpha.terms):
        if exp.is_zero:
            # finite tail after an infinite prefix gamma: sum over n shells of
            # gamma*2 + k + 1, which telescopes to gamma*(2n) + n
            gamma = Ordinal(alpha.terms[:-1])
            total = add(total, add(mul(gamma, from_int(2 * coef)), from_int(coef)))
        else:
            x_first = ZERO if i == 0 else e1
            total = add(total, omega_power(_psi(x_first, exp)))
            if coef > 1:
                block = omega_power(_psi(e1, exp))
                total = add(total, mul(block, from_int(coef - 1)))
    _PAIR_RANK_CACHE[alpha] = total
    return total


def godel_pair(a: Ordinal, b: Ordinal) -> Ordinal:
    """Position of (a, b) in the (max, a, b)-lexicographic well-order of pairs."""
    if compare(a, b) < 0:
        return add(pair_rank(b), a)
    return add(add(pair_rank(a), a), b)


def godel_unpair(c: Ordinal) -> Tuple[Ordinal, Ordinal]:
    """Inverse of godel_pair.  Supported for c below w^w (all desk uses)."""
    if c.is_natural:
        n = c.to_int()
        k = math.isqrt(n)
        r = n - k * k
        if r < k:
            return from_int(r), from_int(k)
        return from_int(k), from_int(r - k)
    if not c.lead_exponent.is_natural:
        raise RepresentationOverflow(
            f"godel_unpair above w^w is not supported (got {c})"
        )
    # mu = max(a, b) is the largest ordinal with pair_rank(mu) <= c.  Below
    # w^w, pair_rank(w^n*k + ... + w^t*k_t + ... + m) is w^(2n-1) for k = 1 or
    # w^(2n)*(k-1) for k > 1, then w^(n+t)*k_t for each 0 < t < n, then
    # gamma*(2m) + m for the infinite part gamma; the pair's offset inside
    # mu's shell is at most gamma*2 + m.  So each coefficient is read off c.
    top = c.lead_exponent.to_int()
    n = (top + 1) // 2
    k = c.terms[0][1] + 1 if top == 2 * n else 1
    lead = Ordinal(((from_int(n), k),))
    middle = {e.to_int(): k_t for e, k_t in sub_left(c, pair_rank(lead)).terms}
    gamma = Ordinal(lead.terms + tuple(
        (from_int(t), middle[n + t]) for t in range(n - 1, 0, -1) if n + t in middle
    ))
    rest = sub_left(c, pair_rank(gamma))
    # rest's coefficient at w^n is 2*k*m plus up to 2*k from the offset
    m = rest.terms[0][1] // (2 * k) if rest.lead_exponent is from_int(n) else 0
    if m and compare(pair_rank(add(gamma, from_int(m))), c) > 0:
        m -= 1
    mu = add(gamma, from_int(m))
    offset = sub_left(c, pair_rank(mu))
    if compare(offset, mu) < 0:
        return offset, mu
    right = sub_left(offset, mu)
    if compare(right, mu) > 0:
        raise AssertionError(f"unpair overflow at {c}")
    return mu, right


# -- text syntax --------------------------------------------------------------


def format_ordinal(o: Ordinal) -> str:
    """The text of o, built on first use and cached on the interned ordinal:
    records that keep the text of the same ordinals, such as the limit
    events of many runs, share one string."""
    text = o._text
    if text is None:
        parts = []
        for exp, coef in o.terms:
            if exp.is_zero:
                parts.append(str(coef))
                continue
            if exp == ONE:
                s = "w"
            elif exp.is_natural:
                s = f"w^{exp.to_int()}"
            elif exp == OMEGA:
                s = "w^w"
            else:
                s = f"w^({format_ordinal(exp)})"
            if coef > 1:
                s += f"*{coef}"
            parts.append(s)
        text = "+".join(parts) or "0"
        object.__setattr__(o, "_text", text)
    return text


class _OrdinalScanner(CharCursor):
    def parse_expr(self) -> Ordinal:
        total = self.parse_term()
        self.skip_ws()
        while self.accept("+"):
            self.skip_ws()
            total = add(total, self.parse_term())
            self.skip_ws()
        return total

    def parse_term(self) -> Ordinal:
        self.skip_ws()
        if self.peek() in DIGITS:
            return from_int(self.take_nat())
        if not self.accept("w"):
            self.error("'w' or a number")
        exp = self.parse_exponent() if self.accept("^") else ONE
        coef = 1
        if self.accept("*"):
            coef = self.take_nat()
            if coef < 1:
                self.error("a positive coefficient")
        return mul(omega_power(exp), from_int(coef))

    def parse_exponent(self) -> Ordinal:
        if self.peek() in DIGITS:
            return from_int(self.take_nat())
        if self.accept("w"):
            return OMEGA
        if self.accept("("):
            inner = self.parse_expr()
            self.skip_ws()
            self.take(")")
            return inner
        self.error("an exponent (number, 'w', or parenthesized ordinal)")


def parse_ordinal(text: str) -> Ordinal:
    scanner = _OrdinalScanner(text, " \t")
    scanner.skip_ws()
    value = parse_nested(scanner, scanner.parse_expr)
    scanner.expect_end("end of ordinal")
    return value
