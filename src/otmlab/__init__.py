"""otmlab: a virtual machine for ordinal Turing machines and a workbench for
effectivity and reducibility between set-theoretic choice principles on
hereditarily finite universes."""

from .errors import (
    ConflictingRules,
    EmptyWitnessSet,
    Exhausted,
    InvalidCode,
    MalformedCertificate,
    MiracleRangeEscape,
    NotDelta0,
    OracleDomainError,
    OtmLabError,
    ParseError,
    RangeEscape,
    RepresentationOverflow,
    SourceSpan,
    TotalityError,
    UnboundVariable,
    WitnessExecutionError,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    format_ordinal,
    from_int,
    godel_pair,
    godel_unpair,
    mul,
    omega_power,
    parse_ordinal,
    sub_left,
)
from .tapes import EMPTY_TAPE, Tape
from .hfsets import (
    EMPTY,
    HfSet,
    ack_compare,
    ack_enumerate,
    ack_index,
    format_set,
    hf,
    kpair,
    kpair_parts,
    parse_set_literal,
    rank,
    singleton,
    tc,
    universe_rank_le,
)
from .codes import (
    SetCode,
    code_from_json,
    code_to_json,
    code_to_tape,
    decode,
    encode,
    encode_with_order,
    is_valid,
    tape_to_code,
)
from .formulas import (
    Delta0Formula,
    PrenexStatement,
    format_formula,
    parse_delta0,
    parse_formula,
)
from .logic import (
    Carrier,
    check_s_canonification,
    check_t_canonification,
    eval_delta0,
    eval_prenex,
    search_witness,
)
from .programs import Configuration, Program, Transition
from .machine import (
    Diverges,
    ExactLoopCertificate,
    Halted,
    RunBudget,
    SweepLoopCertificate,
    Unresolved,
    resolve_limit,
    run,
    step,
)
from .asm import format_program, load_program, parse_program
from .relations import (
    PRINCIPLES,
    Canonification,
    Relation,
    check_canonification,
    enumerate_canonifications,
)
from .reductions import (
    NATIVE_REGISTRY,
    ReductionWitness,
    VerificationReport,
    apply_oW,
    builtin_witnesses,
    load_witness_manifest,
    run_with_miracle,
    verify_reduction,
    witness_path,
)

__version__ = "0.1.0"
