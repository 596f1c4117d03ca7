"""Binary relations on sets: the choice-principle catalog and canonifications.

Relations are kept in implication form: an instance outside the stated domain
is satisfied by any value, so a canonification only has real obligations on
the domain.  A canonification is undefined at every instance its mapping
lacks.

Structured instances are plain sets built from Kuratowski pairs, and one
reader, hfsets.pairs_of, turns any set of pairs into its (a, b) list.  An AC'
answer is a set of pairs (z, e), a strict order a set of pairs (a, b), read
"a comes before b", and a poset the pair (field, strict order).  One strict
pair reader checks that every pair joins field elements and that no pair
holds both ways.  On top of it decode_poset checks transitivity and returns a
Poset, the one place that says which elements are maximal and which two are
comparable; decode_linear_order counts each element's predecessors: counts
of 0, 1, ..., n-1 prove such a relation total and transitive.

Each relation states its solutions once, in `holds`, and lists candidates
that include every solution; its witness set (the finite range a
verification sweep quantifies canonifications over) is the candidates that
`holds` accepts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import EmptyWitnessSet, OracleDomainError
from .formulas import Delta0Formula, parse_delta0
from .hfsets import (
    EMPTY,
    HfSet,
    ack_enumerate,
    ack_sorted,
    hf,
    kpair,
    kpair_parts,
    pairs_of,
    set_union,
)
from .logic import eval_delta0

__all__ = [
    "Relation",
    "Canonification",
    "check_canonification",
    "choice_rules",
    "enumerate_canonifications",
    "relation_from_formula",
    "PRINCIPLES",
    "Poset",
    "encode_poset",
    "decode_poset",
    "encode_order",
    "decode_linear_order",
    "ack_order_on",
]


@dataclass(frozen=True)
class Relation:
    name: str
    domain: Callable[[HfSet], bool]
    holds: Callable[[HfSet, HfSet], bool]
    candidates: Callable[[HfSet], Iterable[HfSet]]
    matrix: Optional[Delta0Formula] = None
    note: str = ""

    def witness_set(self, x: HfSet) -> List[HfSet]:
        """The solutions of a domain instance: the candidates `holds` accepts.

        Exact as long as `candidates(x)` includes every y with holds(x, y).
        """
        return [y for y in self.candidates(x) if self.holds(x, y)]

    def answers(self, x: HfSet) -> List[HfSet]:
        """The witness set of x in ascending Ackermann order: the answers a
        sweep quantifies over.  Raises EmptyWitnessSet when there are none."""
        ws = ack_sorted(self.witness_set(x))
        if not ws:
            raise EmptyWitnessSet(x)
        return ws

    def satisfied(self, x: HfSet, y: HfSet) -> bool:
        """Implication form: off-domain instances accept anything."""
        return (not self.domain(x)) or self.holds(x, y)

    def __repr__(self):
        return f"Relation({self.name})"


@dataclass(frozen=True)
class Canonification:
    """A finite choice of witnesses over a stated instance universe."""

    mapping: Dict[HfSet, HfSet]
    label: str = ""

    def __call__(self, x: HfSet) -> HfSet:
        try:
            return self.mapping[x]
        except KeyError:
            raise OracleDomainError(f"canonification undefined at {x}") from None

    def defined_at(self, x: HfSet) -> bool:
        return x in self.mapping

    def __repr__(self):
        return f"Canonification({self.label or len(self.mapping)})"


def check_canonification(
    canon: Canonification, relation: Relation, universe: Sequence[HfSet]
) -> Tuple[bool, Optional[HfSet]]:
    """(True, None) iff the canonification defines every domain instance in
    the universe and maps each to a real witness; otherwise (False, the first
    domain instance where it does not)."""
    for x in universe:
        if relation.domain(x) and not (
            canon.defined_at(x) and relation.holds(x, canon(x))
        ):
            return False, x
    return True, None


def choice_rules(
    samples: int, seed: int
) -> List[Tuple[str, Callable[[List[HfSet]], HfSet]]]:
    """The rules a sampled sweep picks answers by, as (label, choose) pairs,
    where choose maps an answer list to one answer: the Ackermann-least and
    -greatest answer, then `samples` random ones.  The samples all draw from
    one random.Random(seed), so they depend on the order of the calls.
    """
    rng = random.Random(seed)
    extremal = [("extremal-min", lambda ws: ws[0]), ("extremal-max", lambda ws: ws[-1])]
    return extremal + [(f"sample[{i}]", rng.choice) for i in range(samples)]


def enumerate_canonifications(
    relation: Relation,
    instances: Sequence[HfSet],
    cap: int,
    seed: int,
    sample_size: int,
) -> Tuple[str, List[Canonification], int]:
    """Canonifications of the relation over the given instances.

    Returns (mode, canonifications, product_size): the full product of
    answer choices when it fits in `cap`, otherwise one canonification per
    choice rule (`choice_rules(sample_size, seed)`), applied rule by rule in
    instance order.  product_size is the full product when exhaustive; when
    sampled it is the first partial product past `cap`, multiplying the
    answer counts in instance order, not the product.
    """
    domain_instances = [x for x in instances if relation.domain(x)]
    answer_lists = [relation.answers(x) for x in domain_instances]

    product_size = 1
    for ws in answer_lists:
        product_size *= len(ws)
        if product_size > cap:
            break

    def build(choice: Sequence[HfSet], label: str) -> Canonification:
        return Canonification(
            mapping=dict(zip(domain_instances, choice)), label=label
        )

    if product_size <= cap:
        canons = [
            build(choice, f"product[{i}]")
            for i, choice in enumerate(itertools.product(*answer_lists))
        ]
        return "exhaustive", canons, product_size

    canons = [
        build([choose(ws) for ws in answer_lists], label)
        for label, choose in choice_rules(sample_size, seed)
    ]
    return "sampled", canons, product_size


def relation_from_formula(name: str, psi: Delta0Formula) -> Relation:
    """The relation {(x, y) : psi(x, y)}, whose candidate witnesses are the
    first 256 sets in Ackermann order."""

    def holds(x, y):
        return eval_delta0(psi, {"x": x, "y": y})

    return Relation(
        name=name,
        domain=lambda x: True,
        holds=holds,
        candidates=lambda x: (ack_enumerate(k) for k in range(256)),
        matrix=psi,
    )


# -- structured instances --------------------------------------------------------


def encode_poset(f: HfSet, order: Iterable[Tuple[HfSet, HfSet]]) -> HfSet:
    """Kuratowski pair (field, strict-order pair set)."""
    return kpair(f, hf(kpair(a, b) for a, b in order))


def _strict_pairs(r: HfSet, f: HfSet) -> Optional[FrozenSet[Tuple[HfSet, HfSet]]]:
    """The pairs of r, or None unless r is a set of Kuratowski pairs of
    elements of f that holds no pair both ways (so no (a, a) either)."""
    pairs = pairs_of(r)
    if pairs is None or not all(a in f and b in f for a, b in pairs):
        return None
    rel = frozenset(pairs)
    return None if any((b, a) in rel for a, b in rel) else rel


class Poset(NamedTuple):
    """A decoded poset: its field and its strict order as a set of pairs
    (a, b), read "a lies below b"."""

    field: HfSet
    pairs: FrozenSet[Tuple[HfSet, HfSet]]

    def maximal(self) -> List[HfSet]:
        """The field elements that lie below no other, in field order."""
        below = {a for a, _ in self.pairs}
        return [e for e in self.field.elements if e not in below]

    def comparable(self, a: HfSet, b: HfSet) -> bool:
        return (a, b) in self.pairs or (b, a) in self.pairs


def decode_poset(c: HfSet) -> Optional[Poset]:
    """The poset c encodes, or None if c is not a valid encoded poset."""
    parts = kpair_parts(c)
    if parts is None:
        return None
    f, r = parts
    rel = _strict_pairs(r, f)
    if rel is None:
        return None
    for a, b in rel:
        for c2, d in rel:
            if b is c2 and (a, d) not in rel:
                return None  # transitive
    return Poset(f, rel)


def encode_order(elements: Sequence[HfSet]) -> HfSet:
    """Strict linear order pairs for the listed ordering (as a bare pair set)."""
    pairs = []
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            pairs.append(kpair(a, b))
    return hf(pairs)


def decode_linear_order(y: HfSet, f: HfSet) -> Optional[List[HfSet]]:
    """Elements of f in the order given by the strict total order y, least
    first, or None.

    An asymmetric y whose n elements have the predecessor counts 0, ..., n-1
    is such an order, so no transitivity check is needed.  The counts add up
    to n(n-1)/2 pairs, one per pair of distinct elements, and asymmetry
    allows at most one each: y is a tournament.  The element with n-1
    predecessors lies above every other, and is the predecessor of none;
    without it the rest have the counts 0, ..., n-2, and so on down.
    """
    rel = _strict_pairs(y, f)
    if rel is None:
        return None
    below = {e: 0 for e in f.elements}
    for _, b in rel:
        below[b] += 1
    if sorted(below.values()) != list(range(len(below))):
        return None
    return sorted(f.elements, key=below.get)


def ack_order_on(x: HfSet) -> HfSet:
    """The canonical well-order of x: order-by-Ackermann-index, encoded."""
    return encode_order(list(x.elements))


# -- the catalog -----------------------------------------------------------------


def _nonempty(x: HfSet) -> bool:
    return len(x) > 0


def _pairwise_disjoint_nonempty(x: HfSet) -> bool:
    members = x.elements
    if any(len(m) == 0 for m in members):
        return False
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if any(e in b for e in a.elements):
                return False
    return True


def _subsets(x: HfSet) -> List[HfSet]:
    out = []
    for r in range(len(x) + 1):
        for combo in itertools.combinations(x.elements, r):
            out.append(hf(combo))
    return out


def _members(x: HfSet) -> Tuple[HfSet, ...]:
    return x.elements


def _poset_field(c: HfSet) -> HfSet:
    poset = decode_poset(c)
    return poset.field if poset is not None else EMPTY


def _pp_holds(x, y):
    return y in x


def _mpp_holds(x, y):
    return len(y) > 0 and all(e in x for e in y.elements)


def _within_union(x, y):
    union = set_union(x)
    return all(e in union for e in y.elements)


def _muc_holds(x, y):
    return _within_union(x, y) and all(
        any(e in y for e in z.elements) for z in x.elements
    )


def _ac_holds(x, y):
    if not _within_union(x, y):
        return False
    for z in x.elements:
        if sum(1 for e in y.elements if e in z) != 1:
            return False
    return True


def _ac_candidates(x):
    picks = [list(z.elements) for z in x.elements]
    return [hf(choice) for choice in itertools.product(*picks)]


def _acp_holds(x, y):
    """y is a function on x with y(z) in z."""
    pairs = pairs_of(y)
    return (
        pairs is not None
        and len(dict(pairs)) == len(pairs) == len(x)
        and all(z in x and e in z for z, e in pairs)
    )


def _acp_candidates(x):
    members = list(x.elements)
    picks = [list(z.elements) for z in members]
    return [
        hf(kpair(z, e) for z, e in zip(members, choice))
        for choice in itertools.product(*picks)
    ]


def _wo_holds(x, y):
    return decode_linear_order(y, x) is not None


def _wo_candidates(x):
    return [
        encode_order(list(perm)) for perm in itertools.permutations(x.elements)
    ]


def _zl_domain(c):
    return len(_poset_field(c)) > 0


def _zl_holds(c, y):
    poset = decode_poset(c)
    return poset is not None and y in poset.maximal()


def _hmp_domain(c):
    return decode_poset(c) is not None


def _hmp_holds(c, y):
    """y is a subset of the field, pairwise comparable, and no other field
    element is comparable with all of y."""
    poset = decode_poset(c)
    if poset is None or not all(e in poset.field for e in y.elements):
        return False
    els = y.elements
    if not all(poset.comparable(a, b) for i, a in enumerate(els) for b in els[i + 1 :]):
        return False
    return not any(
        all(poset.comparable(e, d) for d in els) for e in poset.field.elements if e not in y
    )


_PP_MATRIX = parse_delta0("(ex u in x (u = u)) -> y in x")

PRINCIPLES: Dict[str, Relation] = {
    "ZERO": Relation(
        name="ZERO",
        domain=lambda x: True,
        holds=lambda x, y: y is EMPTY,
        candidates=lambda x: [EMPTY],
        note="the trivially effective bottom relation V x {0}",
    ),
    "PP": Relation(
        name="PP",
        domain=_nonempty,
        holds=_pp_holds,
        candidates=_members,
        matrix=_PP_MATRIX,
        note="every nonempty set contains an element",
    ),
    "PP2": Relation(
        name="PP2",
        domain=lambda x: len(x) == 2,
        holds=_pp_holds,
        candidates=_members,
        note="every 2-element set contains an element",
    ),
    "PPfin": Relation(
        name="PPfin",
        domain=_nonempty,
        holds=_pp_holds,
        candidates=_members,
        note="every nonempty finite set contains an element; on the "
        "hereditarily finite universe the domain coincides with PP",
    ),
    "MPP": Relation(
        name="MPP",
        domain=_nonempty,
        holds=_mpp_holds,
        candidates=_subsets,
        note="every nonempty set has a nonempty finite subset",
    ),
    "MuC": Relation(
        name="MuC",
        domain=_pairwise_disjoint_nonempty,
        holds=_muc_holds,
        candidates=lambda x: _subsets(set_union(x)),
        note="multiple choice: a subset of the union meeting every member; "
        "degenerate on hereditarily finite sets, where every intersection "
        "is finite",
    ),
    "AC": Relation(
        name="AC",
        domain=_pairwise_disjoint_nonempty,
        holds=_ac_holds,
        candidates=_ac_candidates,
        note="transversals for disjoint families",
    ),
    "ACprime": Relation(
        name="ACprime",
        domain=lambda x: all(len(z) > 0 for z in x.elements),
        holds=_acp_holds,
        candidates=_acp_candidates,
        note="choice functions for families of nonempty sets",
    ),
    "WO": Relation(
        name="WO",
        domain=lambda x: True,
        holds=_wo_holds,
        candidates=_wo_candidates,
        note="strict well-orders (finite: linear orders) of the instance",
    ),
    "ZL": Relation(
        name="ZL",
        domain=_zl_domain,
        holds=_zl_holds,
        candidates=lambda c: _poset_field(c).elements,
        note="maximal elements of encoded nonempty posets",
    ),
    "HMP": Relation(
        name="HMP",
        domain=_hmp_domain,
        holds=_hmp_holds,
        candidates=lambda c: _subsets(_poset_field(c)),
        note="maximal chains of encoded posets",
    ),
}
