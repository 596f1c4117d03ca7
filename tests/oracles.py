"""Independent oracles the test suite checks the package against.

Everything here is deliberately written on different data structures and by
different derivations than the package code: ordinals as fixed-length
coefficient tuples, the CNF order by recursion instead of by order key, tapes
as dicts and as scanned lists of interval pairs, sets as nested frozensets,
set and ordinal text from frozensets and plain CNF tuples, machines as
dict-tape simulators, the successor step as one that writes every tape and
moves every head, single-use verdicts by walking every (canonification,
instance) case, OTM choice trees by recursion, and Kuratowski pairs, strict
orders, maximal elements and chains and choice functions by the properties
that define them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from otmlab import formulas as F
from otmlab.ordinals import ONE, ZERO, add, compare
from otmlab.programs import Configuration

# -- ordinals below w^5 as coefficient tuples (c4, c3, c2, c1, c0) ----------------

DEG = 5

TupleOrd = Tuple[int, int, int, int, int]

T_ZERO: TupleOrd = (0, 0, 0, 0, 0)


def t_from_coeffs(c2=0, c1=0, c0=0) -> TupleOrd:
    return (0, 0, c2, c1, c0)


def t_compare(a: TupleOrd, b: TupleOrd) -> int:
    return (a > b) - (a < b)  # tuple lex order IS the ordinal order


def _lead(a: TupleOrd) -> int:
    """Position of the leading power (4..0); -1 for zero."""
    for i, c in enumerate(a):
        if c:
            return DEG - 1 - i
    return -1


def t_add(a: TupleOrd, b: TupleOrd) -> TupleOrd:
    p = _lead(b)
    if p < 0:
        return a
    j = DEG - 1 - p
    return a[:j] + (a[j] + b[j],) + b[j + 1 :]


def _t_dec(b: TupleOrd) -> TupleOrd:
    """b - 1 for successor b."""
    assert b[-1] > 0
    return b[:-1] + (b[-1] - 1,)


def _t_strip_last_unit(b: TupleOrd) -> Tuple[TupleOrd, int]:
    """(b minus one copy of its last term's power, that power) for limit b."""
    for j in range(DEG - 1, -1, -1):
        if b[j]:
            stripped = list(b)
            stripped[j] -= 1
            return tuple(stripped), DEG - 1 - j
    raise ValueError("zero has no last term")


def _t_sup_of_multiples(t: TupleOrd) -> TupleOrd:
    """sup over k of t*k for t != 0: one power above t's leading term."""
    p = _lead(t)
    out = [0] * DEG
    out[DEG - 1 - (p + 1)] = 1
    return tuple(out)


_MUL_MEMO: Dict[Tuple[TupleOrd, TupleOrd], TupleOrd] = {}


def t_mul(a: TupleOrd, b: TupleOrd) -> TupleOrd:
    """Multiplication from first principles: peel successors off b one at a
    time and resolve each limit power as the supremum of finite multiples."""
    if a == T_ZERO or b == T_ZERO:
        return T_ZERO
    key = (a, b)
    if key in _MUL_MEMO:
        return _MUL_MEMO[key]
    if b[-1] > 0:
        result = t_add(t_mul(a, _t_dec(b)), a)
    else:
        stripped, power = _t_strip_last_unit(b)
        # a * w^power = sup_k (a * w^(power-1) * k)
        unit = [0] * DEG
        unit[DEG - 1 - (power - 1)] = 1
        block = _t_sup_of_multiples(t_mul(a, tuple(unit)))
        result = t_add(t_mul(a, stripped), block)
    _MUL_MEMO[key] = result
    return result


def all_tuple_ordinals_below_w3(max_coeff: int = 3) -> List[TupleOrd]:
    out = []
    for c2 in range(max_coeff + 1):
        for c1 in range(max_coeff + 1):
            for c0 in range(max_coeff + 1):
                out.append(t_from_coeffs(c2, c1, c0))
    return out


# -- ordinals below w^(w^2) as nested tuples ---------------------------------------
#
# An ordinal is a tuple of terms ((a, b), c), exponents w*a+b strictly
# decreasing, coefficients c >= 1.  Exponents are pairs of naturals, so the
# order needs no recursion: Python's lexicographic tuple order on the term
# sequence is the ordinal order (a larger first differing term wins; a proper
# prefix is smaller).

NestedOrd = Tuple[Tuple[Tuple[int, int], int], ...]


def n_compare(a: NestedOrd, b: NestedOrd) -> int:
    return (a > b) - (a < b)


def n_add(a: NestedOrd, b: NestedOrd) -> NestedOrd:
    """Terms of a below b's leading exponent are absorbed; a term of a at that
    exponent adds its coefficient to b's."""
    if not b:
        return a
    lead = b[0][0]
    terms = {e: c for e, c in a if e >= lead}
    for e, c in b:
        terms[e] = terms.get(e, 0) + c
    return tuple(sorted(terms.items(), reverse=True))


def n_random(rng, max_terms: int = 4) -> NestedOrd:
    exponents = rng.sample(
        [(x, y) for x in range(3) for y in range(4)], rng.randint(0, max_terms)
    )
    return tuple((e, rng.randint(1, 3)) for e in sorted(exponents, reverse=True))


def n_random_pair(rng) -> Tuple[NestedOrd, NestedOrd]:
    """Two ordinals that are unrelated, equal, share a prefix, or differ only
    in one coefficient."""
    a = n_random(rng)
    kind = rng.randrange(4)
    if kind == 0 or not a:
        return a, n_random(rng)
    if kind == 1:
        return a, a
    k = rng.randrange(len(a))
    if kind == 2:
        # same first k terms, then a tail below the last of them
        floor = a[k - 1][0] if k else (3, 0)
        tail = tuple((e, c) for e, c in n_random(rng) if e < floor)
        return a, a[:k] + tail
    (e, c) = a[k]
    other = rng.choice([x for x in range(1, 5) if x != c])
    return a, a[:k] + ((e, other),) + a[k + 1 :]


# -- CNF order by recursion on the exponents -----------------------------------------
#
# The package orders ordinals by a precomputed key; this is the recursive
# comparison it replaced, kept as the reference for ordinals of any height.


def cnf_compare(a, b) -> int:
    """-1, 0 or 1: lexicographic comparison of two package ordinals' CNF term
    sequences, recursing into the exponents (a larger first differing term
    wins; a proper prefix is smaller)."""
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        # equal exponents are one interned object: skip the recursive call
        if ea is not eb:
            c = cnf_compare(ea, eb)
            if c != 0:
                return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


# -- CNF text from plain term tuples ---------------------------------------------------
#
# The package prints an ordinal by looking at the structure of each exponent;
# this prints the exponent first and chooses the bracket from its text.


def to_cnf(a) -> tuple:
    """Package ordinal -> CNF as nested tuples ((exponent, coefficient), ...)."""
    return tuple((to_cnf(e), c) for e, c in a.terms)


def cnf_text(terms: tuple) -> str:
    """`0`, `5`, `w`, `w^2*3+w*2+7`, `w^(w+1)` for nested CNF term tuples:
    a bare w for exponent 1, no brackets around a number or a lone w."""
    if not terms:
        return "0"
    parts = []
    for exp, coef in terms:
        if not exp:
            parts.append(str(coef))
            continue
        e = cnf_text(exp)
        power = "w" if e == "1" else f"w^{e}" if e.isdigit() or e == "w" else f"w^({e})"
        parts.append(power if coef == 1 else f"{power}*{coef}")
    return "+".join(parts)


# -- pairing oracle ----------------------------------------------------------------


def natural_pair_index(a: int, b: int) -> int:
    """Enumerate pairs of naturals in (max, a, b)-lexicographic order."""
    pairs = []
    top = max(a, b) + 1
    for m in range(top):
        for x in range(m):
            pairs.append((x, m))
        for y in range(m + 1):
            pairs.append((m, y))
    return pairs.index((a, b))


# -- classical multi-tape simulator --------------------------------------------------


class ClassicalTM:
    """Dict-tape, int-head simulator with the clamp-at-zero convention."""

    def __init__(self, program, input_cells=()):
        self.program = program
        self.state = program.start_state
        self.heads = [0] * program.n_tapes
        self.tapes: List[Dict[int, int]] = [dict() for _ in range(program.n_tapes)]
        in_idx = program.tape_index("in")
        for cell in input_cells:
            self.tapes[in_idx][cell] = 1
        self.time = 0

    def halted(self) -> bool:
        return self.state in self.program.halt_states

    def step(self):
        reads = tuple(
            self.tapes[i].get(self.heads[i], 0) for i in range(len(self.heads))
        )
        tr = self.program.transitions[(self.state, reads)]
        for i, w in enumerate(tr.writes):
            if w:
                self.tapes[i][self.heads[i]] = 1
            else:
                self.tapes[i].pop(self.heads[i], None)
        for i, m in enumerate(tr.moves):
            if m == "R":
                self.heads[i] += 1
            elif m == "L" and self.heads[i] > 0:
                self.heads[i] -= 1
        self.state = tr.next_state
        self.time += 1

    def ones(self, i: int):
        return {c for c, v in self.tapes[i].items() if v}


# -- tapes as lists of interval pairs -------------------------------------------------
#
# The package stores a tape as one sorted boundary tuple read by bisect; this is
# the tuple of (lo, hi) pairs it replaced, scanned linearly, kept as the
# reference for read, write, fill, constant_on and intersect.


def _pair_normalize(intervals):
    """Sort, drop empties, merge overlapping and adjacent intervals."""
    pending = [(lo, hi) for lo, hi in intervals if compare(lo, hi) < 0]
    pending.sort(key=lambda p: p[0]._key)
    out = []
    for lo, hi in pending:
        if out and compare(lo, out[-1][1]) <= 0:
            if compare(hi, out[-1][1]) > 0:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


class PairTape:
    """Immutable sparse 0/1 tape; `ones` is the normalized interval list."""

    __slots__ = ("ones", "_hash")

    def __init__(self, intervals=()):
        object.__setattr__(self, "ones", _pair_normalize(intervals))
        object.__setattr__(self, "_hash", hash(self.ones))

    def __setattr__(self, name, value):
        raise AttributeError("PairTape is immutable")

    def __eq__(self, other):
        return isinstance(other, PairTape) and self.ones == other.ones

    def __hash__(self):
        return self._hash

    def read(self, cell):
        for lo, hi in self.ones:
            if compare(cell, lo) < 0:
                return 0
            if compare(cell, hi) < 0:
                return 1
        return 0

    def write(self, cell, bit):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self.read(cell) == bit:
            return self
        nxt = add(cell, ONE)
        if bit == 1:
            return PairTape(self.ones + ((cell, nxt),))
        out = []
        for lo, hi in self.ones:
            if compare(cell, lo) >= 0 and compare(cell, hi) < 0:
                out.append((lo, cell))
                out.append((nxt, hi))
            else:
                out.append((lo, hi))
        return PairTape(out)

    def fill(self, lo, hi, bit):
        """Set every cell in [lo, hi) to bit."""
        if compare(lo, hi) >= 0:
            return self
        if bit == 1:
            return PairTape(self.ones + ((lo, hi),))
        out = []
        for a, b in self.ones:
            if compare(b, lo) <= 0 or compare(hi, a) <= 0:
                out.append((a, b))
                continue
            if compare(a, lo) < 0:
                out.append((a, lo))
            if compare(hi, b) < 0:
                out.append((hi, b))
        return PairTape(out)

    def constant_on(self, lo, hi):
        """The single bit covering [lo, hi), or None if the span is mixed."""
        if compare(lo, hi) >= 0:
            return None
        for a, b in self.ones:
            if compare(b, lo) <= 0:
                continue
            if compare(hi, a) <= 0:
                break
            # overlapping interval: constant 1 only if it covers the span
            if compare(a, lo) <= 0 and compare(hi, b) <= 0:
                return 1
            return None
        return 0

    def intersect(self, other):
        out = []
        for a, b in self.ones:
            for c, d in other.ones:
                lo = a if compare(a, c) >= 0 else c
                hi = b if compare(b, d) <= 0 else d
                if compare(lo, hi) < 0:
                    out.append((lo, hi))
        return PairTape(out)


# -- naive set-theoretic truth over frozensets ----------------------------------------


def to_frozen(x) -> frozenset:
    """HfSet -> nested frozensets (an entirely separate representation)."""
    return frozenset(to_frozen(e) for e in x.elements)


def frozen_index(x: frozenset) -> int:
    """Ackermann index of a nested frozenset: the sum of 2**index(e)."""
    return sum(1 << frozen_index(e) for e in x)


def frozen_text(x: frozenset) -> str:
    """`{}`, `{{},{{}}}`: the elements' texts by ascending Ackermann index."""
    return "{" + ",".join(frozen_text(e) for e in sorted(x, key=frozen_index)) + "}"


def naive_eval(node, env: Dict[str, frozenset]) -> bool:
    if isinstance(node, F.Delta0Formula):
        return naive_eval(node.root, env)
    if isinstance(node, F.Member):
        return env[node.left] in env[node.right]
    if isinstance(node, F.Equal):
        return env[node.left] == env[node.right]
    if isinstance(node, F.Not):
        return not naive_eval(node.body, env)
    if isinstance(node, F.And):
        return naive_eval(node.left, env) and naive_eval(node.right, env)
    if isinstance(node, F.Or):
        return naive_eval(node.left, env) or naive_eval(node.right, env)
    if isinstance(node, F.Implies):
        return (not naive_eval(node.left, env)) or naive_eval(node.right, env)
    if isinstance(node, F.BoundedAll):
        return all(
            naive_eval(node.body, {**env, node.var: w}) for w in env[node.bound]
        )
    if isinstance(node, F.BoundedEx):
        return any(
            naive_eval(node.body, {**env, node.var: w}) for w in env[node.bound]
        )
    raise TypeError(node)


def naive_prenex(statement, carrier: List[frozenset], env=None) -> bool:
    env = dict(env or {})

    def go(blocks):
        if not blocks:
            return naive_eval(statement.matrix, env)
        avar, evar = blocks[0]
        for a in carrier:
            hit = False
            for e in carrier:
                env[avar], env[evar] = a, e
                if go(blocks[1:]):
                    hit = True
                    break
            if not hit:
                env.pop(avar, None)
                env.pop(evar, None)
                return False
        return True

    return go(list(statement.blocks))


def naive_check_t(statement, functions, carrier_sets) -> bool:
    """Direct transcription of the canonification condition for functions
    F_1..F_k on the first k blocks over a carrier (k = n: the thorough
    condition), evaluated with the frozenset machinery (carrier_sets: HfSets)."""
    carrier_frozen = [to_frozen(c) for c in carrier_sets]
    frozen_of = {to_frozen(c): c for c in carrier_sets}
    blocks = list(statement.blocks)
    for depth in range(1, len(functions) + 1):
        for prefix in itertools.product(carrier_sets, repeat=depth):
            env = {}
            ok_prefix = True
            for j in range(depth):
                avar, evar = blocks[j]
                value = functions[j](*prefix[: j + 1])
                if to_frozen(value) not in frozen_of:
                    return False
                env[avar] = to_frozen(prefix[j])
                env[evar] = to_frozen(value)
            rest = statement.__class__(
                blocks=tuple(blocks[depth:]), matrix=statement.matrix
            )
            if not naive_prenex(rest, carrier_frozen, env):
                return False
    return True


# -- strict orders by their definitions ----------------------------------------------


def is_strict_partial_order(field, pairs) -> bool:
    """pairs relates elements of field, is irreflexive and is transitive
    (asymmetry follows from the two)."""
    pairs = set(pairs)
    return (all(a in field and b in field for a, b in pairs)
            and all((a, a) not in pairs for a in field)
            and all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c))


def is_strict_linear_order(field, pairs) -> bool:
    """A strict partial order in which any two distinct elements are related."""
    pairs = set(pairs)
    return is_strict_partial_order(field, pairs) and all(
        (a, b) in pairs or (b, a) in pairs for a in field for b in field if a != b)


# -- pairs, posets and choice functions by their definitions -------------------------


def frozen_pair(p: frozenset):
    """(a, b) with p = {{a}, {a, b}}, tried for every a and b in the union of
    p; None if there are none."""
    union = frozenset().union(*p)
    for a in union:
        for b in union:
            if p == frozenset({frozenset({a}), frozenset({a, b})}):
                return a, b
    return None


def poset_maximal(field, pairs) -> set:
    """The elements of field that lie below no element of field."""
    return {e for e in field if not any((e, d) in pairs for d in field)}


def poset_maximal_chains(field, pairs) -> set:
    """The subsets of field whose elements are pairwise related and that no
    larger such subset contains."""
    field = list(field)
    chains = [
        frozenset(s)
        for n in range(len(field) + 1)
        for s in itertools.combinations(field, n)
        if all((a, b) in pairs or (b, a) in pairs for a, b in itertools.combinations(s, 2))
    ]
    return {c for c in chains if not any(c < d for d in chains)}


def is_choice_function(x: frozenset, y: frozenset) -> bool:
    """Every member of y is a pair (z, e) with z in x and e in z, and every z
    in x is the first entry of exactly one of them."""
    pairs = [frozen_pair(p) for p in y]
    if None in pairs:
        return False
    return all(z in x and e in z for z, e in pairs) and all(
        sum(1 for z2, _ in pairs if z2 == z) == 1 for z in x)


def relations_to_check():
    """(n, pairs) over the field range(n): every relation for n <= 3, every
    asymmetric one for n = 4 and every tournament for n = 5."""
    for n in range(4):
        square = list(itertools.product(range(n), repeat=2))
        for bits in itertools.product((False, True), repeat=len(square)):
            yield n, [p for p, on in zip(square, bits) if on]
    # each pair a < b of elements: unrelated (None), a before b, or b before a
    for n, ways in ((4, (None, False, True)), (5, (False, True))):
        edges = list(itertools.combinations(range(n), 2))
        for flips in itertools.product(ways, repeat=len(edges)):
            yield n, [(b, a) if flip else (a, b)
                      for (a, b), flip in zip(edges, flips) if flip is not None]


def strict_partial_orders(elements):
    """(field, pairs) for every strict partial order whose field is a subset
    of at most 4 of the elements, the field a tuple in the elements' order
    (on a field of n elements there are 1, 1, 3, 19 and 219 such orders)."""
    for n, rel in relations_to_check():
        if n <= 4 and is_strict_partial_order(range(n), rel):
            for field in itertools.combinations(elements, n):
                yield field, {(field[a], field[b]) for a, b in rel}


# -- formula generator ----------------------------------------------------------------


def generate_formulas(max_size: int, variables=("x", "y")):
    """All bounded formulas up to the given AST node count, over the free
    variables plus one reusable bound variable 'z'."""
    def atoms(scope):
        out = []
        for u in scope:
            for v in scope:
                out.append(F.Member(u, v))
                out.append(F.Equal(u, v))
        return out

    memo = {}

    def of_size(size, scope):
        key = (size, scope)
        if key in memo:
            return memo[key]
        out = []
        if size == 1:
            out = atoms(scope)
        else:
            for sub in of_size(size - 1, scope):
                out.append(F.Not(sub))
            for ls in range(1, size - 1):
                rs = size - 1 - ls
                for left in of_size(ls, scope):
                    for right in of_size(rs, scope):
                        out.append(F.And(left, right))
                        out.append(F.Or(left, right))
                        out.append(F.Implies(left, right))
            if "z" not in scope:
                inner_scope = scope + ("z",)
                for bound in scope:
                    for body in of_size(size - 1, inner_scope):
                        out.append(F.BoundedAll("z", bound, body))
                        out.append(F.BoundedEx("z", bound, body))
        memo[key] = out
        return out

    result = []
    for s in range(1, max_size + 1):
        result.extend(of_size(s, tuple(variables)))
    return result


def random_formula(rng, size, scope=("x", "y"), depth=0):
    if size <= 1:
        u, v = rng.choice(scope), rng.choice(scope)
        return rng.choice([F.Member(u, v), F.Equal(u, v)])
    kind = rng.choice(["not", "and", "or", "implies", "all", "ex"])
    if kind == "not":
        return F.Not(random_formula(rng, size - 1, scope, depth))
    if kind in ("and", "or", "implies"):
        ls = rng.randint(1, size - 2) if size > 2 else 1
        left = random_formula(rng, ls, scope, depth)
        right = random_formula(rng, size - 1 - ls, scope, depth)
        cls = {"and": F.And, "or": F.Or, "implies": F.Implies}[kind]
        return cls(left, right)
    var = f"z{depth}"
    bound = rng.choice(scope)
    body = random_formula(rng, size - 1, scope + (var,), depth + 1)
    cls = F.BoundedAll if kind == "all" else F.BoundedEx
    return cls(var, bound, body)


# -- single-use sweep over the whole canonification product --------------------------
#
# The package decides a single-use sweep pointwise, one verdict per (instance,
# answer), and walks the product only to list counterexamples; this is the
# loop it shortcuts, kept as the reference report.


def product_sweep(witness, universe, cap, seed=0, budget=None,
                  sample_size=None):
    """The VerificationReport of an oW/soW witness from one unmemoized
    apply_oW per (canonification, instance) case."""
    from otmlab.errors import EmptyWitnessSet
    from otmlab.machine import RunBudget
    from otmlab.reductions import (
        DEFAULT_SAMPLES,
        CaseFailure,
        VerificationReport,
        _StageRunner,
        apply_oW,
    )
    from otmlab.relations import PRINCIPLES, enumerate_canonifications

    budget = budget or RunBudget()
    sample_size = DEFAULT_SAMPLES if sample_size is None else sample_size
    source, target = PRINCIPLES[witness.source], PRINCIPLES[witness.target]
    instances = [x for x in universe if source.domain(x)]
    report = VerificationReport(
        witness=witness.name, kind=witness.kind, source=source.name,
        target=target.name, universe_size=len(universe),
        instance_count=len(instances), mode="exhaustive",
        canonification_count=0, product_size=0, cases=0,
    )
    live, targets = [], []
    for x in instances:
        try:
            q = _StageRunner(budget).apply(witness.pre, x)
        except Exception as exc:
            report.failures.append(CaseFailure(x, "-", f"pre stage failed: {exc}"))
            continue
        live.append(x)
        if q not in targets:
            targets.append(q)
    try:
        mode, canons, product = enumerate_canonifications(
            target, targets, cap, seed, sample_size
        )
    except EmptyWitnessSet as exc:
        report.mode = "aborted"
        report.failures.append(
            CaseFailure(exc.instance, "-", "target instance has no witness")
        )
        return report
    report.mode, report.canonification_count = mode, len(canons)
    report.product_size = product
    for canon in canons:
        for x in live:
            report.cases += 1
            try:
                y = apply_oW(witness, canon, x, budget)
            except Exception as exc:
                report.failures.append(CaseFailure(x, canon.label, str(exc)))
                continue
            if not source.holds(x, y):
                report.failures.append(
                    CaseFailure(x, canon.label, f"result {y} fails {source.name}")
                )
    return report


# -- exhaustive OTM sweep by recursion on answer assignments -------------------------
#
# The package walks an OTM witness's choice tree with one explicit stack shared
# with its choice-rule fallback; this enumerates the same leaves by recursion,
# restarting the run whenever it asks an oracle instance the assignment lacks.


def otm_tree_sweep(witness, universe):
    """(leaves, cases, failing (instance, reason) pairs) of the exhaustive
    sweep of an OTM witness.  Each run answers from a partial assignment; at
    the first in-domain oracle instance it lacks the run is abandoned and the
    assignment extended there by each witness in turn.  An instance without
    witnesses ends its branch as a leaf that is no case; a query off the
    target's domain fails its run, since a realizer may answer anything there."""
    from otmlab.errors import OracleDomainError
    from otmlab.reductions import run_with_miracle
    from otmlab.relations import PRINCIPLES

    source, target = PRINCIPLES[witness.source], PRINCIPLES[witness.target]
    tally = {"leaves": 0, "cases": 0}
    failures = set()

    def explore(x, assignment):
        missing = []

        def oracle(s):
            if not target.domain(s):
                raise OracleDomainError(
                    f"oracle instance {s} is outside the domain of {target.name}")
            if s not in assignment:
                missing.append(s)
                raise LookupError(f"no answer assigned at {s}")
            return assignment[s]

        try:
            y, _ = run_with_miracle(witness, oracle, x)
        except Exception as exc:
            if missing:
                s = missing[0]
                solutions = target.witness_set(s)
                for answer in solutions:
                    explore(x, {**assignment, s: answer})
                if not solutions:
                    tally["leaves"] += 1
                    failures.add((x, f"no witness for oracle instance {s}"))
                return
            tally["leaves"] += 1
            tally["cases"] += 1
            failures.add((x, str(exc)))
            return
        tally["leaves"] += 1
        tally["cases"] += 1
        if not source.holds(x, y):
            failures.add((x, f"result {y} fails {source.name}"))

    for x in universe:
        if source.domain(x):
            explore(x, {})
    return tally["leaves"], tally["cases"], failures


# -- loop detection by an unfiltered scan ---------------------------------------------
#
# The executor tries only sweep bases in the end's state and rejects most of
# them before it builds a segment summary; this is the scan it shortcuts,
# where every period goes through the resolvers with a summary of its own.


def reference_detect(history, index, sweep_max_period):
    """The first loop a recorded run certifies, as (kind, certificate, limit,
    tail): an exact recurrence first, then every period 1..sweep_max_period
    in increasing order, each through _strides, a fresh _Summary and
    _resolve_loop."""
    from otmlab import machine
    from otmlab.errors import MalformedCertificate

    end = history[-1]
    i = index.get(end.key())
    periods = range(1, min(sweep_max_period, len(history) - 1) + 1)
    for period in periods if i is None else [len(history) - 1 - i]:
        base = history[-1 - period]
        strides = machine._strides(base, end)
        if strides is None:
            continue
        unit = machine._Summary.of(history[-1 - period :])
        try:
            limit, tail = machine._resolve_loop(base, end, strides, unit)
        except MalformedCertificate:
            continue
        kind = "sweep" if i is None else "cycle"
        return kind, machine.LoopCertificate(base, period, strides), limit, tail
    return None


# -- the successor step that writes every tape and moves every head -------------------
#
# The executor's step calls Tape.write only for a bit that differs from the one
# read, leaves S heads alone and reads cached successors; this is the step it
# shortcuts, which writes and moves on every tape and adds 1 afresh.


def _reference_move_head(head, direction):
    if direction == "S":
        return head
    if direction == "R":
        return add(head, ONE)
    if head.is_zero:
        return head
    if head.is_limit:
        return ZERO  # leftward off a limit cell resets to the tape start
    return head.predecessor()


def reference_step(program, config):
    """One successor step.  The state must not be a halt state."""
    if config.state in program.halt_states:
        raise ValueError(f"cannot step from halt state {config.state}")
    reads = tuple(t.read(h) for t, h in zip(config.tapes, config.heads))
    tr = program.transitions[(config.state, reads)]
    tapes = tuple(
        t.write(h, w) for t, h, w in zip(config.tapes, config.heads, tr.writes)
    )
    heads = tuple(_reference_move_head(h, m) for h, m in zip(config.heads, tr.moves))
    return Configuration(tr.next_state, heads, tapes, add(config.time, ONE))


def choice_functions(x: frozenset) -> set:
    """Every choice function on the family x, as a set of pairs
    {{z}, {z, e}} with e in z, by recursion on x: each choice e in one member
    z joins each choice function on the other members."""
    if not x:
        return {frozenset()}
    z = next(iter(x))
    rest = choice_functions(x - {z})
    return {f | {frozenset({frozenset({z}), frozenset({z, e})})} for e in z for f in rest}
