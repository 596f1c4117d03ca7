"""The parse-error contract of the four text syntaxes.

Each malformed input below must raise exactly this exception type, message
and span.  The table was recorded from the parsers before they shared one
scanner, so it pins every diagnostic a user can see, not only that a span
lies inside the input.
"""

import pytest

from otmlab.asm import parse_program
from otmlab.errors import (
    ConflictingRules,
    NotDelta0,
    ParseError,
    TotalityError,
    UnboundVariable,
)
from otmlab.formulas import parse_delta0, parse_formula
from otmlab.hfsets import parse_set_literal
from otmlab.ordinals import parse_ordinal

PARSERS = {
    "formula": parse_formula,
    "delta0": parse_delta0,
    "program": parse_program,
    "ordinal": parse_ordinal,
    "set": parse_set_literal,
}

# (syntax, text, exception type, message, (line, column, length) or None)
CONTRACT = [
    # formula
    ('formula', '', ParseError, "1:1: expected a formula, found 'end of input'", (1, 1, 1)),
    ('formula', 'x ?', ParseError, "1:3: expected a formula token, found '?'", (1, 3, 1)),
    ('formula', 'x in', ParseError, "1:5: expected a variable name, found 'end of input'", (1, 5, 1)),
    ('formula', '(x in y', ParseError, "1:8: expected ')', found 'end of input'", (1, 8, 1)),
    ('formula', 'x y', ParseError, "1:3: expected 'in' or '=', found 'y'", (1, 3, 1)),
    ('formula', 'all z in (z)', ParseError, "1:10: expected a variable name, found '('", (1, 10, 1)),
    ('formula', 'all z (z in x)', NotDelta0, "1:7: quantifier 'all z' has no bound; bounded form is 'all z in v (...)'", (1, 7, 1)),
    ('formula', 'x in y & ALL z', NotDelta0, '1:10: unbounded quantifier ALL inside a bounded formula', (1, 10, 3)),
    ('formula', 'EX y ALL x (x in y)', ParseError, "1:1: expected 'ALL' (prenex prefixes alternate ALL/EX), found 'EX'", (1, 1, 2)),
    ('formula', 'ALL x ALL y (x in y)', ParseError, "1:7: expected 'EX', found 'ALL'", (1, 7, 3)),
    ('formula', 'x in y )', ParseError, "1:8: expected end of formula, found ')'", (1, 8, 1)),
    ('formula', 'ALL x EX y (x in y) z', ParseError, "1:21: expected end of formula, found 'z'", (1, 21, 1)),
    ('formula', 'ALL x EX y (x in z)', UnboundVariable, "unbound variable 'z'", None),
    ('formula', 'x in y &\n  # comment\n  ?', ParseError, "3:3: expected a formula token, found '?'", (3, 3, 1)),
    ('formula', 'x in 1y', ParseError, "1:6: expected a formula token, found '1'", (1, 6, 1)),
    ('formula', 'x ->', ParseError, "1:3: expected 'in' or '=', found '->'", (1, 3, 2)),
    ('formula', 'all in x (y)', ParseError, "1:5: expected a variable name, found 'in'", (1, 5, 2)),
    ('formula', 'x in y\t&\r ?', ParseError, "1:11: expected a formula token, found '?'", (1, 11, 1)),
    ('formula', '!', ParseError, "1:2: expected a formula, found 'end of input'", (1, 2, 1)),
    ('formula', 'x = = y', ParseError, "1:5: expected a variable name, found '='", (1, 5, 1)),
    ('formula', 'ALL x EX y x in y', ParseError, "1:12: expected '(', found 'x'", (1, 12, 1)),
    ('formula', 'x in y -> -', ParseError, "1:11: expected a formula token, found '-'", (1, 11, 1)),
    ('formula', 'ex y in x (y in x', ParseError, "1:18: expected ')', found 'end of input'", (1, 18, 1)),
    ('formula', '(x in y) & (y', ParseError, "1:14: expected 'in' or '=', found 'end of input'", (1, 14, 1)),
    ('formula', 'x_1 in y2 & 9', ParseError, "1:13: expected a formula token, found '9'", (1, 13, 1)),
    # delta0
    ('delta0', 'ALL x EX y (x in y)', NotDelta0, 'expected a bounded formula, found a prenex statement', None),
    ('delta0', 'x in', ParseError, "1:5: expected a variable name, found 'end of input'", (1, 5, 1)),
    ('delta0', 'x in y | EX', NotDelta0, '1:10: unbounded quantifier EX inside a bounded formula', (1, 10, 2)),
    # program
    ('program', '', ParseError, "1:1: expected a 'tapes' declaration, found 'end of input'", (1, 1, 1)),
    ('program', 'foo', ParseError, "1:1: expected 'tapes', 'state', or 'rule', found 'foo'", (1, 1, 3)),
    ('program', 'tapes in work out; state q0; $', ParseError, "1:30: expected a token, found '$'", (1, 30, 1)),
    ('program', 'tapes in work; state q0;', ParseError, "1:14: expected tape role 'out', found ';'", (1, 14, 1)),
    ('program', 'state q0;', ParseError, "1:1: expected a 'tapes' declaration, found 'end of input'", (1, 1, 1)),
    ('program', 'tapes in work out;', ParseError, "1:1: expected a 'state' declaration, found 'end of input'", (1, 1, 1)),
    ('program', 'tapes in work out; rule q0;', ParseError, "1:25: expected a declared state, found 'q0'", (1, 25, 2)),
    ('program', 'tapes in work out; tapes in work out;', ParseError, "1:20: expected a single 'tapes' declaration, found 'tapes'", (1, 20, 5)),
    ('program', 'tapes in work foo;', ParseError, "1:15: expected a tape role (one of in, work, out, miracle, oracle), found 'foo'", (1, 15, 3)),
    ('program', 'tapes in in work out;', ParseError, "1:10: expected a role not declared twice, found 'in'", (1, 10, 2)),
    ('program', 'tapes in work out; state q0; state q0;', ParseError, "1:36: expected a fresh state name, found 'q0'", (1, 36, 2)),
    ('program', 'tapes in work out; state q0; state q1 blah;', ParseError, "1:39: expected 'halt' or 'miracle', found 'blah'", (1, 39, 4)),
    ('program', 'tapes in work out; state q0 miracle; state q1 miracle;', ParseError, "1:47: expected a single miracle state, found 'miracle'", (1, 47, 7)),
    ('program', 'tapes in work out; state q0 halt; rule q0 -> goto q0;', ParseError, "1:40: expected a non-halt state (halt states have no rules), found 'q0'", (1, 40, 2)),
    ('program', 'tapes in work out; state q0; rule q0 work=2 -> goto q0;', ParseError, "1:43: expected bit 0 or 1, found '2'", (1, 43, 1)),
    ('program', 'tapes in work out; state q0; rule q0 work=01 -> goto q0;', ParseError, "1:43: expected bit 0 or 1, found '01'", (1, 43, 2)),
    ('program', 'tapes in work out; state q0; rule q0 -> move work=X goto q0;', ParseError, "1:51: expected a move L, R, or S, found 'X'", (1, 51, 1)),
    ('program', 'tapes in work out; state q0; rule q0 work=0, work=1 -> goto q0;', ParseError, "1:46: expected each role at most once, found 'work'", (1, 46, 4)),
    ('program', 'tapes in work out; state q0; rule q0 miracle=0 -> goto q0;', ParseError, "1:38: expected a declared tape role, found 'miracle'", (1, 38, 7)),
    ('program', 'tapes in work out; state q0; rule q0 -> goto q1;', ParseError, "1:46: expected a declared state, found 'q1'", (1, 46, 2)),
    ('program', 'tapes in work out; state q0; rule q0 -> goto q0', ParseError, "1:48: expected ';', found 'end of input'", (1, 48, 1)),
    ('program', 'tapes in work out; state q0; rule q0 -> stay q0;', ParseError, "1:41: expected 'goto', found 'stay'", (1, 41, 4)),
    ('program', 'tapes in work out; state 5;', ParseError, "1:26: expected a state name, found '5'", (1, 26, 1)),
    ('program', 'tapes in work out; state q0; rule q0 work 0 -> goto q0;', ParseError, "1:43: expected '=', found '0'", (1, 43, 1)),
    ('program', 'tapes 1;', ParseError, "1:7: expected a tape role, found '1'", (1, 7, 1)),
    ('program', 'tapes in work out\n# c\nstate q0;\n  rule', ParseError, "3:1: expected a tape role (one of in, work, out, miracle, oracle), found 'state'", (3, 1, 5)),
    ('program', 'tapes in work out; state q0; rule q0 -> write -> goto q0;', ParseError, "1:47: expected a tape role, found '->'", (1, 47, 2)),
    ('program', 'tapes in work out; state q0; rule q0 work=0, -> goto q0;', ParseError, "1:46: expected a tape role, found '->'", (1, 46, 2)),
    ('program', 'tapes in work out; state q0; rule q0 -> goto q0;\nrule q0 work=1 -> goto q0;', ConflictingRules, '2:1: rule overlaps the rule at 1:30 on state q0, reads (0, 1, 0)', None),
    ('program', 'tapes in work out; state q0; rule q0 work=0 -> goto q0;', TotalityError, 'transition table incomplete: q0,(0,1,0); q0,(0,1,1); q0,(1,1,0); q0,(1,1,1)', None),
    ('program', 'tapes in work out; state q0 halt; state q1; rule q1 in=1 -> goto q0;', TotalityError, 'transition table incomplete: q1,(0,0,0); q1,(0,0,1); q1,(0,1,0); q1,(0,1,1)', None),
    ('program', 'tapes in work out;\tstate q0 ;\r\n rule q0 -> goto q0 ; @', ParseError, "2:23: expected a token, found '@'", (2, 23, 1)),
    # ordinal
    ('ordinal', '', ParseError, "1:1: expected 'w' or a number, found 'end of input'", (1, 1, 1)),
    ('ordinal', 'w^', ParseError, "1:3: expected an exponent (number, 'w', or parenthesized ordinal), found 'end of input'", (1, 3, 1)),
    ('ordinal', '3+', ParseError, "1:3: expected 'w' or a number, found 'end of input'", (1, 3, 1)),
    ('ordinal', 'w*0', ParseError, "1:4: expected a positive coefficient, found 'end of input'", (1, 4, 1)),
    ('ordinal', '(w', ParseError, "1:1: expected 'w' or a number, found '(w'", (1, 1, 1)),
    ('ordinal', 'w^()', ParseError, "1:4: expected 'w' or a number, found ')'", (1, 4, 1)),
    ('ordinal', '5w', ParseError, "1:2: expected end of ordinal, found 'w'", (1, 2, 1)),
    ('ordinal', 'w + ', ParseError, "1:5: expected 'w' or a number, found 'end of input'", (1, 5, 1)),
    ('ordinal', 'w*', ParseError, "1:3: expected a number, found 'end of input'", (1, 3, 1)),
    ('ordinal', 'w^(w', ParseError, "1:5: expected ')', found 'end of input'", (1, 5, 1)),
    ('ordinal', 'x', ParseError, "1:1: expected 'w' or a number, found 'x'", (1, 1, 1)),
    ('ordinal', ' w ^2', ParseError, "1:4: expected end of ordinal, found '^2'", (1, 4, 1)),
    ('ordinal', 'w\n', ParseError, "1:2: expected end of ordinal, found '\\n'", (1, 2, 1)),
    ('ordinal', 'w+123456789abc', ParseError, "1:12: expected end of ordinal, found 'abc'", (1, 12, 1)),
    ('ordinal', 'w^(1 +)', ParseError, "1:7: expected 'w' or a number, found ')'", (1, 7, 1)),
    ('ordinal', 'w^w^2', ParseError, "1:4: expected end of ordinal, found '^2'", (1, 4, 1)),
    ('ordinal', 'w^(w))', ParseError, "1:6: expected end of ordinal, found ')'", (1, 6, 1)),
    ('ordinal', '+', ParseError, "1:1: expected 'w' or a number, found '+'", (1, 1, 1)),
    ('ordinal', 'w^-1', ParseError, "1:3: expected an exponent (number, 'w', or parenthesized ordinal), found '-1'", (1, 3, 1)),
    ('ordinal', '\tw+\t', ParseError, "1:5: expected 'w' or a number, found 'end of input'", (1, 5, 1)),
    ('ordinal', 'w*01x', ParseError, "1:5: expected end of ordinal, found 'x'", (1, 5, 1)),
    ('ordinal', 'w^(  )', ParseError, "1:6: expected 'w' or a number, found ')'", (1, 6, 1)),
    # set
    ('set', '', ParseError, "1:1: expected '{', found 'end of input'", (1, 1, 1)),
    ('set', '{', ParseError, "1:2: expected '{', found 'end of input'", (1, 2, 1)),
    ('set', '{}}', ParseError, "1:3: expected end of set literal, found '}'", (1, 3, 1)),
    ('set', '{,}', ParseError, "1:2: expected '{', found ',}'", (1, 2, 1)),
    ('set', '{{}', ParseError, "1:4: expected ',' or '}', found 'end of input'", (1, 4, 1)),
    ('set', 'x', ParseError, "1:1: expected '{', found 'x'", (1, 1, 1)),
    ('set', '{} {}', ParseError, "1:4: expected end of set literal, found '{}'", (1, 4, 1)),
    ('set', '{\n{},\n x}', ParseError, "1:8: expected '{', found 'x}'", (1, 8, 1)),
    ('set', '{{}}{', ParseError, "1:5: expected end of set literal, found '{'", (1, 5, 1)),
    ('set', '{{},}', ParseError, "1:5: expected '{', found '}'", (1, 5, 1)),
    ('set', '  ', ParseError, "1:3: expected '{', found 'end of input'", (1, 3, 1)),
    ('set', '{ { } , { { } }  ', ParseError, "1:18: expected ',' or '}', found 'end of input'", (1, 18, 1)),
    ('set', '{}x123456789', ParseError, "1:3: expected end of set literal, found 'x1234567'", (1, 3, 1)),
    ('set', '{{}{}}', ParseError, "1:4: expected ',' or '}', found '{}}'", (1, 4, 1)),
    # numbers are ASCII digits only; `str.isdigit` also holds for '²', which
    # `int` rejects (these rows come last so every id above stays the same)
    ('ordinal', '²', ParseError, "1:1: expected 'w' or a number, found '²'", (1, 1, 1)),
    ('ordinal', 'w*²', ParseError, "1:3: expected a number, found '²'", (1, 3, 1)),
    ('ordinal', 'w^²', ParseError, "1:3: expected an exponent (number, 'w', or parenthesized ordinal), found '²'", (1, 3, 1)),
    ('ordinal', '3٣', ParseError, "1:2: expected end of ordinal, found '٣'", (1, 2, 1)),
    ('program', 'tapes in work out; state q0; rule q0 work=² -> goto q0;', ParseError, "1:43: expected a token, found '²'", (1, 43, 1)),
]


@pytest.mark.parametrize(
    "syntax, text, exc_type, message, span",
    CONTRACT,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(CONTRACT)],
)
def test_malformed_input_raises_the_recorded_error(syntax, text, exc_type, message, span):
    with pytest.raises(exc_type) as err:
        PARSERS[syntax](text)
    assert type(err.value) is exc_type
    assert str(err.value) == message
    got = getattr(err.value, "span", None)
    assert (None if got is None else (got.line, got.column, got.length)) == span


DEEP = {
    "set": ("set", "{" * 3000 + "}" * 3000),
    "formula-negations": ("formula", "!" * 3000 + "x in y"),
    "formula-parentheses": ("formula", "(" * 3000 + "x in y" + ")" * 3000),
    "ordinal": ("ordinal", "w^(" * 2000 + "1" + ")" * 2000),
}


@pytest.mark.parametrize("syntax, text", DEEP.values(), ids=DEEP.keys())
def test_nesting_past_the_recursion_limit_is_a_parse_error(syntax, text):
    with pytest.raises(ParseError) as err:
        PARSERS[syntax](text)
    assert err.value.expected == "less nesting"
    assert err.value.found == "input nested too deeply"
    assert err.value.span.line == 1 and 1 < err.value.span.column < len(text)
