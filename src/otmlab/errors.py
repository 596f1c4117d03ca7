"""Exception types shared across the package."""

from dataclasses import dataclass


class OtmLabError(Exception):
    """Base class for all otmlab errors."""


class RepresentationOverflow(OtmLabError):
    """A value left the representable desk-scale universe (ordinal cap,
    Ackermann index size guard, or the set rank cap that a decoded set and an
    oracle image must keep, hfsets.RANK_CAP)."""


class MalformedCertificate(OtmLabError):
    """The period a loop certificate covers contradicts the certified behaviour."""


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Position of a token inside a source text (1-based line/column)."""

    line: int
    column: int
    length: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


class ParseError(OtmLabError):
    """Syntax error with a span, what was expected and what was found."""

    def __init__(self, span, expected, found):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(
            f"{span.line}:{span.column}: expected {expected}, found {found!r}"
        )


class TotalityError(OtmLabError):
    """A program transition table does not cover every (state, read-vector)."""

    def __init__(self, missing):
        self.missing = list(missing)
        pretty = "; ".join(f"{s},({','.join(map(str, rv))})" for s, rv in self.missing)
        super().__init__(f"transition table incomplete: {pretty}")


class ConflictingRules(OtmLabError):
    """Two assembly rules cover the same (state, read-vector)."""


class UnboundVariable(OtmLabError):
    """A formula variable has no value (or prenex matrix escapes its prefix)."""

    def __init__(self, name, span=None):
        self.name = name
        self.span = span
        super().__init__(f"unbound variable {name!r}")


class NotDelta0(OtmLabError):
    """An unbounded quantifier appeared where a bounded one is required."""

    def __init__(self, message, span=None):
        self.span = span
        super().__init__(message)


class InvalidCode(OtmLabError):
    """A set of ordinals fails to be a valid membership code.

    reason is one of: not-extensional, ill-founded, pair-out-of-bound,
    no-unique-top, non-finite-bound.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"invalid code ({reason})" + (f": {detail}" if detail else ""))


class EmptyWitnessSet(OtmLabError):
    """A relation instance has no witness inside the range universe."""

    def __init__(self, instance):
        self.instance = instance
        super().__init__(f"no witness for instance {instance}")


class RangeEscape(OtmLabError):
    """A canonification value left the carrier it must map into."""

    def __init__(self, argument, value=None):
        self.argument = argument
        self.value = value
        super().__init__(f"canonification leaves the carrier at {argument}")


class OracleDomainError(OtmLabError):
    """The supplied canonification is undefined at a queried instance."""


class WitnessExecutionError(OtmLabError):
    """A witness program failed to produce a usable result."""


class Exhausted(OtmLabError):
    """A bounded search ran out of budget without an answer."""

    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"search exhausted after {budget} candidates")
