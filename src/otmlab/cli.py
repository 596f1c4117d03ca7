"""Command-line front end.

Subcommands: run, check, encode, decode, eval, canon, list-universe.
Exit codes: 0 success, 1 verification counterexample, 2 usage/parse error,
3 execution error, 141 standard output closed by its reader (128 + SIGPIPE;
nothing is printed).  OTMLAB_RANK_CAP overrides the default rank cap (6).

Importing this module loads only what argument parsing needs (errors,
hfsets, machine and the layers below them); each subcommand imports the
layers it runs when it runs, so `otmlab run` never loads the verifier.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import hfsets, machine
from .errors import (
    ConflictingRules,
    NotDelta0,
    OtmLabError,
    ParseError,
    TotalityError,
    UnboundVariable,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_EXECUTION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# the default --budget: machine.RunBudget() written as STEPS,JUMPS
_DEFAULT_BUDGET = "{0.max_successor_steps},{0.max_limit_jumps}".format(machine.RunBudget())

_USAGE_ERRORS = (ParseError, TotalityError, ConflictingRules, NotDelta0, UnboundVariable)


def _read_arg_text(value: str) -> str:
    """Literal text, or the contents of a file when prefixed with '@'."""
    if value.startswith("@"):
        return Path(value[1:]).read_text(encoding="utf-8")
    return value


def _budget(spec: str) -> machine.RunBudget:
    """The RunBudget of a `STEPS,JUMPS` spec of ASCII digits."""
    parts = spec.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"budget must be STEPS,JUMPS; got {spec!r}")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(
            f"budget must be STEPS,JUMPS in ASCII digits only; got {spec!r}"
        )
    try:
        return machine.RunBudget(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(spec: str) -> int:
    """A non-negative integer written in ASCII digits."""
    if not (spec.isascii() and spec.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer in ASCII digits; got {spec!r}"
        )
    return int(spec)


def _seed(spec: str) -> int:
    """An integer written in ASCII digits, with an optional leading '-'."""
    digits = spec.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be an integer in ASCII digits; got {spec!r}"
        )
    return int(spec)


def _universe_rank(spec: str) -> int:
    """The N of a `rank:N` universe spec, for the ranks that can be enumerated."""
    top = len(hfsets.RANK_LAYER_BOUNDS) - 1
    kind, _, digits = spec.partition(":")
    ascii_nat = digits.isascii() and digits.isdigit()
    if kind != "rank" or not ascii_nat or int(digits) > top:
        raise argparse.ArgumentTypeError(
            f"universe must be rank:N with 0 <= N <= {top}, got {spec!r}"
        )
    return int(digits)


def _principle(name: str):
    """The relation of relations.PRINCIPLES that name names."""
    from .relations import PRINCIPLES

    if name not in PRINCIPLES:
        names = ", ".join(map(repr, sorted(PRINCIPLES)))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {names})")
    return PRINCIPLES[name]


def _emit(data, as_json: bool, human: str):
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(human)


# -- subcommands --------------------------------------------------------------------


def cmd_run(args) -> int:
    from . import codes
    from .asm import load_program
    from .ordinals import format_ordinal
    from .tapes import Tape

    program = load_program(args.program)
    if args.input is not None:
        value = hfsets.parse_set_literal(_read_arg_text(args.input))
        input_tape = codes.code_to_tape(codes.encode(value))
    elif args.input_code is not None:
        code = codes.code_from_json(_read_arg_text(args.input_code))
        input_tape = codes.code_to_tape(code)
    else:
        input_tape = Tape()
    trace_fh = None
    trace_cb = None
    if args.trace:
        trace_fh = open(args.trace, "w", encoding="utf-8")

        def trace_cb(record):
            trace_fh.write(json.dumps(record) + "\n")

    try:
        outcome = machine.run(
            program,
            input_tape,
            args.budget,
            trace=trace_cb,
            trace_steps=args.trace_steps,
        )
    finally:
        if trace_fh:
            trace_fh.close()

    def tape_lines(config):
        return {
            role: list(t.interval_strings())
            for role, t in zip(program.tape_roles, config.tapes)
        }

    if outcome.kind == "halted":
        cfg = outcome.final
        data = {
            "outcome": "halted",
            "time": format_ordinal(cfg.time),
            "state": program.state_name(cfg.state),
            "heads": [format_ordinal(h) for h in cfg.heads],
            "tapes": tape_lines(cfg),
        }
        human = f"HALTED time={data['time']}"
        for role, ivs in data["tapes"].items():
            human += f"\n  {role}: {' '.join(ivs) if ivs else '(all 0)'}"
        _emit(data, args.json, human)
        return EXIT_OK
    if outcome.kind == "diverges":
        cfg = outcome.limit_behavior
        data = {
            "outcome": "diverges",
            "time": format_ordinal(cfg.time),
            "state": program.state_name(cfg.state),
            "tapes": tape_lines(cfg),
        }
        _emit(data, args.json, f"DIVERGES (provable loop) at time={data['time']}")
        return EXIT_OK
    data = {
        "outcome": "unresolved",
        "reason": outcome.reason,
        "time": format_ordinal(outcome.last.time),
    }
    _emit(data, args.json, f"UNRESOLVED ({outcome.reason}) at time={data['time']}")
    return EXIT_EXECUTION


def _load_witness(spec: str):
    from . import reductions

    builtin = reductions.builtin_witnesses()
    if spec in builtin:
        return builtin[spec]
    path = Path(spec)
    if path.exists():
        return reductions.load_witness_manifest(path)
    shipped = reductions.witness_path(spec)
    if shipped.exists():
        return reductions.load_witness_manifest(shipped)
    raise ValueError(
        f"unknown witness {spec!r}: not a builtin name, file, or shipped manifest"
    )


def cmd_check(args) -> int:
    from . import reductions
    from .programs import Program

    if args.all == (args.witness is not None):
        print("check: provide a witness (name or manifest) or --all, not both",
              file=sys.stderr)
        return EXIT_USAGE
    names = sorted(reductions.builtin_witnesses()) if args.all else [args.witness]
    universe = hfsets.universe_rank_le(args.universe)
    checked = []
    for name in names:
        witness = _load_witness(name)
        report = reductions.verify_reduction(
            witness,
            universe,
            cap=reductions.DEFAULT_CAP if args.cap is None else args.cap,
            seed=args.seed if args.seed is not None else 0,
            budget=args.budget,
            sample_size=reductions.DEFAULT_SAMPLES if args.samples is None else args.samples,
        )
        if report.mode == "sampled" and args.seed is None:
            print(
                f"check: {witness.name} needs sampling (product {report.product_size}); "
                "pass --seed for reproducibility",
                file=sys.stderr,
            )
            return EXIT_USAGE
        checked.append((witness, report))
    if args.json:
        print(json.dumps([r.to_json() for _, r in checked], sort_keys=True))
    else:
        for witness, r in checked:
            print(r.summary())
            for f in r.failures[:10]:
                print(f"  counterexample: x={hfsets.format_set(f.instance)} "
                      f"F'={f.canonification}: {f.reason}")
            if any(isinstance(s, Program) for s in (witness.pre, witness.post, witness.otm)):
                print("  note: .otm stages ran on the canonical code of each input only")
    return EXIT_OK if all(r.ok for _, r in checked) else EXIT_COUNTEREXAMPLE


def cmd_encode(args) -> int:
    from . import codes

    value = hfsets.parse_set_literal(_read_arg_text(args.set))
    code = codes.encode(value)
    print(codes.code_to_json(code))
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import codes

    code = codes.code_from_json(_read_arg_text(args.code))
    value = codes.decode(code)
    _emit(
        {"set": hfsets.format_set(value)}, args.json, hfsets.format_set(value)
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import logic
    from .formulas import PrenexStatement, parse_formula

    formula = parse_formula(_read_arg_text(args.formula))
    if isinstance(formula, PrenexStatement):
        if args.env:
            print("eval: prenex statements bind every variable; drop --env",
                  file=sys.stderr)
            return EXIT_USAGE
        if not args.carrier:
            print("eval: prenex statements need --carrier", file=sys.stderr)
            return EXIT_USAGE
        members = [
            hfsets.parse_set_literal(part.strip())
            for part in _read_arg_text(args.carrier).split(";")
            if part.strip()
        ]
        result = logic.eval_prenex(formula, logic.Carrier(tuple(members)))
    else:
        if args.carrier is not None:
            print("eval: --carrier is for prenex statements only", file=sys.stderr)
            return EXIT_USAGE
        env = {}
        for binding in args.env or ():
            name, sep, literal = binding.partition("=")
            name = name.strip()
            if not sep:
                print(f"eval: bad --env {binding!r} (want VAR=SET)", file=sys.stderr)
                return EXIT_USAGE
            if name in env:
                print(f"eval: --env names variable {name} twice", file=sys.stderr)
                return EXIT_USAGE
            env[name] = hfsets.parse_set_literal(literal.strip())
        result = logic.eval_delta0(formula, env)
    _emit({"value": result}, args.json, "true" if result else "false")
    return EXIT_OK


def _canonification_from_args(args, relation, universe):
    from . import relations

    if args.map:
        entries = json.loads(_read_arg_text(args.map))
        if not isinstance(entries, list):
            raise ValueError(f"--map must be a JSON list, got {json.dumps(entries)}")
        mapping = {}
        for entry in entries:
            pair = isinstance(entry, list) and len(entry) == 2
            if not (pair and all(isinstance(s, str) for s in entry)):
                raise ValueError(
                    f"--map entries must be [instance, value] pairs of set "
                    f"literals, got {json.dumps(entry)}"
                )
            x, y = (hfsets.parse_set_literal(s) for s in entry)
            if x in mapping:
                raise ValueError(f"--map names instance {hfsets.format_set(x)} twice")
            mapping[x] = y
        return relations.Canonification(mapping, label="map-file")
    rule = args.rule or "ack-min"
    end = 0 if rule == "ack-min" else -1
    mapping = {x: relation.answers(x)[end] for x in universe if relation.domain(x)}
    return relations.Canonification(mapping, label=f"rule:{rule}")


def cmd_canon(args) -> int:
    from . import relations

    relation = args.relation
    universe = hfsets.universe_rank_le(args.universe)
    canon = _canonification_from_args(args, relation, universe)
    ok, counterexample = relations.check_canonification(canon, relation, universe)
    data = {
        "relation": relation.name,
        "ok": ok,
        "counterexample": None if ok else hfsets.format_set(counterexample),
    }
    human = (
        f"OK: canonification of {relation.name} over {len(universe)} instances"
        if ok
        else f"FAIL at x={data['counterexample']}"
    )
    _emit(data, args.json, human)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_list_universe(args) -> int:
    for x in hfsets.universe_rank_le(args.universe):
        print(hfsets.format_set(x))
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmlab",
        description="Ordinal Turing Machine lab: run transfinite programs, "
        "code sets, evaluate bounded truth, verify choice-principle reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="assemble and execute a program")
    p_run.add_argument("program", help=".otm program file")
    p_input = p_run.add_mutually_exclusive_group()
    p_input.add_argument("--input", help="input as a set literal (encoded onto the input tape)")
    p_input.add_argument("--input-code", help="input as SetCode JSON (text or @file)")
    p_run.add_argument("--budget", type=_budget, default=_DEFAULT_BUDGET,
                       help="STEPS,JUMPS (default %(default)s)")
    p_run.add_argument("--trace", help="write a JSONL trace to this path")
    p_run.add_argument("--trace-steps", action="store_true",
                       help="trace every successor step, not just limit events")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify a reduction witness")
    p_check.add_argument("witness", nargs="?",
                         help="builtin witness name, manifest path, or shipped manifest")
    p_check.add_argument("--all", action="store_true", help="verify every builtin witness")
    p_check.add_argument("--universe", type=_universe_rank, default="rank:3",
                         help="rank:N, N <= 4 (default rank:3)")
    p_check.add_argument("--cap", type=_count,
                         help="full canonification product up to this size "
                         "(default reductions.DEFAULT_CAP)")
    p_check.add_argument("--samples", type=_count,
                         help="sample count past the cap (default reductions.DEFAULT_SAMPLES)")
    p_check.add_argument("--seed", type=_seed, default=None,
                         help="sampling seed (required when sampling occurs)")
    p_check.add_argument("--budget", type=_budget, default=_DEFAULT_BUDGET,
                         help="STEPS,JUMPS (default %(default)s)")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_enc = sub.add_parser("encode", help="encode a set literal as a membership code")
    p_enc.add_argument("set", help="set literal, e.g. {{},{{}}} (or @file)")
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a membership code")
    p_dec.add_argument("code", help="SetCode JSON (text or @file)")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decode)

    p_eval = sub.add_parser("eval", help="evaluate a formula")
    p_eval.add_argument("formula", help="formula text (or @file)")
    p_eval.add_argument("--env", action="append", help="VAR=SET-LITERAL (repeatable)")
    p_eval.add_argument("--carrier", help="semicolon-separated set literals (prenex)")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_canon = sub.add_parser("canon", help="check a canonification against a relation")
    p_canon.add_argument("relation", type=_principle,
                         help="a principle of the catalog, e.g. PP (an unknown name lists them)")
    p_canonification = p_canon.add_mutually_exclusive_group()
    p_canonification.add_argument(
        "--map", help="JSON list of [instance, value] set-literal pairs, each "
        "instance once; a domain instance it leaves out fails")
    p_canonification.add_argument(
        "--rule", choices=("ack-min", "ack-max"),
        help="use the Ackermann-least/-greatest witness everywhere")
    p_canon.add_argument("--universe", type=_universe_rank, default="rank:3",
                         help="rank:N, N <= 4 (default rank:3)")
    p_canon.add_argument("--json", action="store_true")
    p_canon.set_defaults(func=cmd_canon)

    p_list = sub.add_parser("list-universe", help="list the sets of a bounded-rank universe")
    p_list.add_argument("universe", type=_universe_rank, help="rank:N, N <= 4")
    p_list.set_defaults(func=cmd_list_universe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        status = args.func(args)
        # a closed reader shows up here rather than at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: send what is left
        # of the output to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _USAGE_ERRORS as exc:
        print(f"otmlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OtmLabError, OSError, ValueError, KeyError) as exc:
        print(f"otmlab: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":
    sys.exit(main())
