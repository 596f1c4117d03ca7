"""Paths, statistics, digests and child processes shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WITNESSES = SRC / "otmlab" / "witnesses"
EXPECTED = BENCH / "expected.json"
CHILD_TIMEOUT_S = 170


def use_checkout_source():
    """Import otmlab from this checkout's sources, never from an installed copy."""
    if not (SRC / "otmlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no otmlab sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a fresh interpreter from the checkout root.

    Returns (wall seconds, completed process); stdout and stderr are text.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable] + list(argv),
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, proc


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values)


# The bounded times are given at a fixed reference speed of the machine.  On
# a shared virtual machine the CPU runs the same Python code at speeds that
# differ by up to 2x, switching within a fraction of a second and staying for
# up to minutes, so raw wall times of the same work spread past any useful
# bound.  While an operation runs, a timer signal runs a small fixed
# computation that does not touch otmlab (`reference_chunk`) every
# SAMPLE_EVERY_S in the same process; the operation's time, without the
# chunks, is multiplied by the mean of REF_CHUNK_S / chunk time over them.
REF_ITERATIONS = 1000
SAMPLE_EVERY_S = 0.02
# The reference speed: one chunk in REF_CHUNK_S, about what a chunk takes
# between otmlab's work on the recording machine, so times at the reference
# speed come out close to wall times there.
REF_CHUNK_S = 0.0007


def reference_chunk() -> int:
    table = {}
    for i in range(REF_ITERATIONS):
        key = (i, i >> 1, str(i & 7))
        table[key] = table.get(key[1:], 0) + 1
    return len(table)


def chunk_time() -> float:
    start = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - start


class SpeedSampler:
    """While active, a timer signal runs one reference chunk every
    SAMPLE_EVERY_S of wall time; `chunks` holds (start, seconds) of each.
    A disabled sampler (for traced passes, whose self times the chunks would
    inflate) records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.chunks = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_chunk()
        self.chunks.append((start, time.perf_counter() - start))

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def during(self, start: float, end: float) -> list:
        """Times of the chunks run between two perf_counter readings."""
        return [seconds for at, seconds in self.chunks if start <= at <= end]


class RefClock:
    """Operation times of one pass, with the chunks run during each."""

    def __init__(self):
        self.times = []  # wall time of each operation, without its chunks
        self.chunks = []

    def record(self, seconds: float, chunks) -> None:
        self.times.append(seconds - sum(chunks))
        self.chunks.append(list(chunks))

    def wall_s(self) -> float:
        return sum(self.times)

    def scaled(self) -> list:
        """Each operation's time at the reference speed.  An operation too
        short to have a chunk takes the mean over the whole pass."""
        every = [c for chunks in self.chunks for c in chunks] or [chunk_time()]
        overall = statistics.fmean(REF_CHUNK_S / c for c in every)
        return [t * (statistics.fmean(REF_CHUNK_S / c for c in chunks) if chunks else overall)
                for t, chunks in zip(self.times, self.chunks)]

    def ref_s(self) -> float:
        return sum(self.scaled())


def percentile(values, pct: int):
    """The pct-th percentile as statistics.quantiles gives it (n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def digest(value) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def outcome_summary(program, outcome) -> dict:
    """A run's outcome and final (or last, or limit) configuration as text."""
    from otmlab.ordinals import format_ordinal

    if outcome.kind == "halted":
        config = outcome.final
    elif outcome.kind == "diverges":
        config = outcome.limit_behavior
    else:
        config = outcome.last
    return {
        "kind": outcome.kind,
        "reason": getattr(outcome, "reason", None),
        "time": format_ordinal(config.time),
        "state": program.state_name(config.state),
        "heads": [format_ordinal(h) for h in config.heads],
        "tapes": {role: list(t.interval_strings())
                  for role, t in zip(program.tape_roles, config.tapes)},
    }


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Operations attempted and failed, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, operation: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{operation}: {'; '.join(problems)}")
