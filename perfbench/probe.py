"""Child-process entry points, each run in a fresh interpreter.

  python3 perfbench/probe.py setup [--trace | --speed]
      import otmlab.cli, assemble the shipped .otm programs, build rank:3;
      print "<programs> <universe size>".
  python3 perfbench/probe.py cli (--trace | --speed) ARGS...
      run `otmlab ARGS...` in process; print the command's output.

With --trace the tracer is installed and the child prints one JSON line of
per-layer totals last.  With --speed a common.SpeedSampler runs from the
start of the child to its end and the child prints, last, one JSON line
{"chunks": [seconds, ...]} with the time of each reference chunk it ran.
`setup --speed` is what setup_s times.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from common import WITNESSES, SpeedSampler, use_checkout_source

STAGE_PROGRAMS = (
    "pp_le_zl_pre.otm",
    "pp_le_zl_post.otm",
    "zero_le_pp2_pre.otm",
    "zero_le_pp2_post.otm",
)


def setup(traced: bool) -> int:
    import otmlab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from otmlab import asm, hfsets

    tracer = _tracer() if traced else None
    programs = [asm.load_program(WITNESSES / name) for name in STAGE_PROGRAMS]
    universe = hfsets.universe_rank_le(3)
    if tracer is not None:
        tracer.restore()
    print(len(programs), len(universe))
    if tracer is not None:
        print(json.dumps(tracer.snapshot()))
    return 0


def traced_cli(argv) -> int:
    from otmlab import cli

    tracer = _tracer()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    tracer.restore()
    text = captured.getvalue()
    tracer.counters["cli.output_bytes"] += len(text.encode("utf-8"))
    sys.stdout.write(text)
    print(json.dumps(tracer.snapshot()))
    return code


def cli_main(argv) -> int:
    from otmlab import cli

    return cli.main(argv)


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def sampled(fn, *args) -> int:
    """Run fn under a SpeedSampler with its output kept in memory, so that no
    timer signal interrupts a write to the pipe; then print the output and
    the chunk times."""
    captured = io.StringIO()
    with SpeedSampler() as sampler, contextlib.redirect_stdout(captured):
        code = fn(*args)
    sys.stdout.write(captured.getvalue())
    print(json.dumps({"chunks": [seconds for _, seconds in sampler.chunks]}))
    return code


def main(argv) -> int:
    use_checkout_source()
    if argv[:2] == ["setup", "--speed"]:
        return sampled(setup, False)
    if argv[:1] == ["setup"]:
        return setup("--trace" in argv[1:])
    if argv[:2] == ["cli", "--speed"]:
        return sampled(cli_main, argv[2:])
    if argv[:2] == ["cli", "--trace"]:
        return traced_cli(argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
