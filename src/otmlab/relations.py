"""Binary relations on sets: the choice-principle catalog and canonifications.

Relations are kept in implication form: an instance outside the stated domain
is satisfied by any value, so a canonification only has real obligations on
the domain.  A canonification is undefined at every instance its mapping
lacks.  Structured instances (orders, posets) are plain sets built from
Kuratowski pairs.

Each relation states its solutions once, in `holds`, and lists candidates
that include every solution; its witness set (the finite range a
verification sweep quantifies canonifications over) is the candidates that
`holds` accepts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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
    "encode_poset",
    "decode_poset",
    "encode_order",
    "decode_linear_order",
    "ack_order_on",
    "maximal_elements",
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
    instance order.
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


def decode_poset(c: HfSet) -> Optional[Tuple[HfSet, FrozenSet[Tuple[HfSet, HfSet]]]]:
    """(field, strict partial order as a frozenset of pairs), or None if c is
    not a valid encoded poset."""
    parts = kpair_parts(c)
    if parts is None:
        return None
    f, r = parts
    pairs = []
    for p in r.elements:
        ab = kpair_parts(p)
        if ab is None:
            return None
        a, b = ab
        if a not in f or b not in f:
            return None
        pairs.append((a, b))
    rel = frozenset(pairs)
    for a, b in pairs:
        if a is b:
            return None  # irreflexive
        if (b, a) in rel:
            return None  # asymmetric
    for a, b in pairs:
        for c2, d in pairs:
            if b is c2 and (a, d) not in rel:
                return None  # transitive
    return f, rel


def encode_order(elements: Sequence[HfSet]) -> HfSet:
    """Strict linear order pairs for the listed ordering (as a bare pair set)."""
    pairs = []
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            pairs.append(kpair(a, b))
    return hf(pairs)


def decode_linear_order(y: HfSet, f: HfSet) -> Optional[List[HfSet]]:
    """Elements of f in the order given by the strict total order y, or None."""
    pairs = []
    for p in y.elements:
        ab = kpair_parts(p)
        if ab is None:
            return None
        a, b = ab
        if a not in f or b not in f or a is b:
            return None
        pairs.append((a, b))
    rel = set(pairs)
    if any((b, a) in rel for a, b in pairs):
        return None
    elements = list(f.elements)
    n = len(elements)
    # totality and transitivity for finite strict orders: sort by predecessor count
    below = {e: 0 for e in elements}
    for a, b in pairs:
        below[b] += 1
    if sorted(below.values()) != list(range(n)):
        return None
    ordered = sorted(elements, key=below.get)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if (a, b) not in rel:
                return None
    return ordered


def ack_order_on(x: HfSet) -> HfSet:
    """The canonical well-order of x: order-by-Ackermann-index, encoded."""
    return encode_order(list(x.elements))


def maximal_elements(f: HfSet, order: FrozenSet[Tuple[HfSet, HfSet]]) -> List[HfSet]:
    non_maximal = {a for a, _ in order}
    return [e for e in f.elements if e not in non_maximal]


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
    decoded = decode_poset(c)
    return decoded[0] if decoded is not None else EMPTY


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
    entries = {}
    for p in y.elements:
        ab = kpair_parts(p)
        if ab is None:
            return False
        z, e = ab
        if z not in x or e not in z or z in entries:
            return False
        entries[z] = e
    return len(entries) == len(x)


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
    decoded = decode_poset(c)
    return decoded is not None and len(decoded[0]) > 0


def _zl_holds(c, y):
    decoded = decode_poset(c)
    if decoded is None:
        return False
    return y in maximal_elements(*decoded)


def _hmp_domain(c):
    return decode_poset(c) is not None


def _hmp_holds(c, y):
    decoded = decode_poset(c)
    if decoded is None:
        return False
    f, order = decoded
    if not all(e in f for e in y.elements):
        return False
    els = y.elements
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if (a, b) not in order and (b, a) not in order:
                return False
    for e in f.elements:
        if e in y:
            continue
        if all((e, c2) in order or (c2, e) in order for c2 in els):
            return False
    return True


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
