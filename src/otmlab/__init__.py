"""otmlab: a virtual machine for ordinal Turing machines and a workbench for
effectivity and reducibility between set-theoretic choice principles on
hereditarily finite universes.

The package re-exports the names that the demos and tests import from it;
everything else is imported from its module (otmlab.machine, ...)."""

from .ordinals import (
    OMEGA,
    ZERO,
    add,
    format_ordinal,
    from_int,
    godel_pair,
    godel_unpair,
    mul,
    parse_ordinal,
)
from .hfsets import (
    EMPTY,
    ack_enumerate,
    ack_index,
    format_set,
    hf,
    parse_set_literal,
    singleton,
    tc,
    universe_rank_le,
)
from .codes import code_to_json, code_to_tape, decode, encode, tape_to_code
from .formulas import parse_delta0, parse_formula
from .logic import Carrier, eval_delta0, eval_prenex, search_witness
from .machine import RunBudget, run
from .asm import parse_program
from .relations import PRINCIPLES, Canonification, check_canonification
from .reductions import (
    builtin_witnesses,
    load_witness_manifest,
    run_with_miracle,
    verify_reduction,
    witness_path,
)

__version__ = "0.1.0"
