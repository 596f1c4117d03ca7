"""otmlab: a virtual machine for ordinal Turing machines and a workbench for
effectivity and reducibility between set-theoretic choice principles on
hereditarily finite universes.

Importing a layer loads that layer and the layers below it, nothing else:
`import otmlab.machine` loads errors, syntax, ordinals, tapes, programs and
machine, not the verifier.  The names in `__all__`, the ones the demos and tests take from
the package, are re-exported lazily: `from otmlab import run` imports
`otmlab.machine` at that moment (PEP 562).  Everything else is imported
from its module (otmlab.machine, ...)."""

import importlib

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("OMEGA", "ZERO", "add", "format_ordinal", "from_int", "godel_pair",
         "godel_unpair", "mul", "parse_ordinal"),
        "ordinals",
    ),
    **dict.fromkeys(
        ("EMPTY", "ack_enumerate", "ack_index", "format_set", "hf",
         "parse_set_literal", "singleton", "tc", "universe_rank_le"),
        "hfsets",
    ),
    **dict.fromkeys(
        ("code_to_json", "code_to_tape", "decode", "encode", "tape_to_code"), "codes"
    ),
    "parse_formula": "formulas",
    **dict.fromkeys(("Carrier", "eval_delta0", "eval_prenex", "search_witness"), "logic"),
    **dict.fromkeys(("RunBudget", "run"), "machine"),
    "parse_program": "asm",
    **dict.fromkeys(("PRINCIPLES", "Canonification", "check_canonification"), "relations"),
    **dict.fromkeys(
        ("builtin_witnesses", "load_witness_manifest", "run_with_miracle",
         "verify_reduction", "witness_path"),
        "reductions",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # not cached in the package namespace, so the package always hands out
    # what the defining module holds now
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
