import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from otmlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import catalog  # noqa: E402
from common import digest  # noqa: E402

RECORDED = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
PROGRAM_NOTE = "  note: .otm stages ran on the canonical code of each input only"

HALT_NOW = "tapes in work out;\nstate q0 halt;\n"

# 900 nested braces, far past the rank cap and near the recursion limit
DEEP_LITERAL = "{" * 900 + "}" * 900
# node i+1 is the one element of node i: p(i+1, i) = i*i + 4*i + 2, and the
# top, node 0, has rank 1,500
DEEP_CHAIN_CODE = json.dumps(
    {"bound": "1501", "pairs": [str(i * i + 4 * i + 2) for i in range(1500)]})


@pytest.fixture
def sweep_path():
    return str(ROOT / "demos" / "right_sweep.otm")


class TestRun:
    def test_halt_immediately(self, tmp_path, capsys):
        p = tmp_path / "halt.otm"
        p.write_text(HALT_NOW)
        assert main(["run", str(p)]) == 0
        out = capsys.readouterr().out
        assert "HALTED time=0" in out

    def test_right_sweep_reports_transfinite_time(self, sweep_path, capsys):
        assert main(["run", sweep_path, "--budget", "2000,2"]) == 0
        out = capsys.readouterr().out
        assert "HALTED time=w+2" in out
        assert "[0,w)" in out

    def test_readme_transfinite_example(self, monkeypatch, capsys):
        # the README's example block: a `$ otmlab ...` line, then its output
        readme = (ROOT / "README.md").read_text()
        block = readme.split("A run over the transfinite looks like this:")[1]
        block = block.split("```")[1].strip("\n").splitlines()
        command = block[0].split()
        assert command[:2] == ["$", "otmlab"]
        monkeypatch.chdir(ROOT)
        assert main(command[2:]) == 0
        assert capsys.readouterr().out.splitlines() == block[1:]

    def test_budget_exhaustion_exits_3(self, sweep_path, capsys):
        assert main(["run", sweep_path, "--budget", "3,1"]) == 3
        assert "UNRESOLVED" in capsys.readouterr().out

    def test_trace_is_jsonl_with_limit_record(self, sweep_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["run", sweep_path, "--budget", "2000,2", "--trace", str(trace),
              "--trace-steps"])
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["event"] == "limit" and r["time"] == "w" for r in records)
        assert any(r["event"] == "step" for r in records)

    def test_input_and_input_code_together_are_a_usage_error(self, sweep_path, capsys):
        """run reads one input: given both a set and a code it refuses,
        rather than silently running on the set alone."""
        code = json.dumps({"bound": "1", "pairs": []})
        assert main(["run", sweep_path, "--input", "{}", "--input-code", code]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --input" in captured.err

    def test_input_code_from_file(self, sweep_path, tmp_path, capsys):
        assert main(["encode", "{{}}"]) == 0
        code = tmp_path / "code.json"
        code.write_text(capsys.readouterr().out)
        assert main(["run", sweep_path, "--input-code", f"@{code}"]) == 0
        assert capsys.readouterr().out.startswith("HALTED time=w+2\n")

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    def test_provable_loop_diverges_and_exits_0(self, tmp_path, as_json, capsys):
        p = tmp_path / "loop.otm"
        p.write_text("tapes in work out; state q0; rule q0 -> goto q0;\n")
        assert main(["run", str(p)] + ["--json"] * as_json) == 0
        out = capsys.readouterr().out
        if not as_json:
            assert out == "DIVERGES (provable loop) at time=w\n"
            return
        assert json.loads(out) == {
            "outcome": "diverges", "state": "q0", "time": "w", "heads": ["0", "0", "0"],
            "tapes": {"in": [], "work": [], "out": []},
        }

    # (program, budget, status, the configuration run --json reports)
    FINAL_RECORDS = {
        "halted": ("demos/right_sweep.otm", "2000,2", 0, {
            "time": "w+2", "state": "done", "heads": ["0", "w", "0"],
            "tapes": {"in": [], "work": ["[0,w)"], "out": []}}),
        # writes one 1, then idles in q1: the limit w repeats time 1's configuration
        "diverges": (
            "tapes in work out; state q0; state q1;\n"
            "rule q0 -> write work=1 move work=R goto q1;\nrule q1 -> goto q1;\n",
            "2000,2", 0, {
                "time": "w", "state": "q1", "heads": ["0", "1", "0"],
                "tapes": {"in": [], "work": ["[0,1)"], "out": []}}),
        "unresolved": ("demos/right_sweep.otm", "5,1", 3, {
            "time": "w+1", "state": "qd", "heads": ["0", "w", "0"],
            "tapes": {"in": [], "work": ["[0,w)"], "out": []},
            "reason": "successor step budget exhausted"}),
    }

    @pytest.mark.parametrize("kind", sorted(FINAL_RECORDS))
    def test_json_and_trace_report_where_the_run_stopped(self, kind, tmp_path,
                                                         monkeypatch, capsys):
        """run --json gives the time, state, heads and tapes the run stopped
        in, and the trace's last record (halt, the limit that repeats its
        loop, or unresolved with the reason) gives the same ones."""
        program, budget, status, expected = self.FINAL_RECORDS[kind]
        if not program.endswith(".otm"):
            (tmp_path / "p.otm").write_text(program)
            program = str(tmp_path / "p.otm")
        monkeypatch.chdir(ROOT)
        trace = tmp_path / "trace.jsonl"
        argv = ["run", program, "--budget", budget, "--json", "--trace", str(trace)]
        assert main(argv) == status
        assert json.loads(capsys.readouterr().out) == {"outcome": kind, **expected}
        last = json.loads(trace.read_text().splitlines()[-1])
        event = {"halted": {"event": "halt"},
                 "diverges": {"event": "limit", "kind": "diverges"},
                 "unresolved": {"event": "unresolved"}}[kind]
        assert last == {**event, **expected}

    # (program, budget, extra options, the exact lines of the --trace file)
    TRACE_LINES = {
        "steps": ("demos/right_sweep.otm", "100000,64", ["--trace-steps"], [
            '{"event": "step", "time": "1", "state": "qa", "heads": ["0", "0", "0"], '
            '"writes": [["in", "0", 1]]}',
            '{"event": "step", "time": "2", "state": "qb", "heads": ["0", "0", "0"], '
            '"writes": []}',
            '{"event": "step", "time": "3", "state": "qc", "heads": ["0", "0", "0"], '
            '"writes": [["in", "0", 0]]}',
            '{"event": "step", "time": "4", "state": "qa", "heads": ["0", "1", "0"], '
            '"writes": [["in", "0", 1], ["work", "0", 1]]}',
            '{"event": "limit", "kind": "sweep", "time": "w", "state": "qa", '
            '"heads": ["0", "w", "0"], "tapes": {"in": [], "work": ["[0,w)"], "out": []}}',
            '{"event": "step", "time": "w+1", "state": "qd", "heads": ["0", "w", "0"], '
            '"writes": []}',
            '{"event": "step", "time": "w+2", "state": "done", "heads": ["0", "w", "0"], '
            '"writes": []}',
            '{"event": "halt", "time": "w+2", "state": "done", "heads": ["0", "w", "0"], '
            '"tapes": {"in": [], "work": ["[0,w)"], "out": []}}',
        ]),
        "step-budget-after-a-limit": ("demos/right_sweep.otm", "5,1", [], [
            '{"event": "limit", "kind": "sweep", "time": "w", "state": "qa", '
            '"heads": ["0", "w", "0"], "tapes": {"in": [], "work": ["[0,w)"], "out": []}}',
            '{"event": "unresolved", "time": "w+1", "state": "qd", "heads": ["0", "w", "0"], '
            '"tapes": {"in": [], "work": ["[0,w)"], "out": []}, '
            '"reason": "successor step budget exhausted"}',
        ]),
        "step-budget": ("demos/right_sweep.otm", "2,1", [], [
            '{"event": "unresolved", "time": "2", "state": "qb", "heads": ["0", "0", "0"], '
            '"tapes": {"in": ["[0,1)"], "work": [], "out": []}, '
            '"reason": "successor step budget exhausted"}',
        ]),
        "diverges": (FINAL_RECORDS["diverges"][0], "2000,2", [], [
            '{"event": "limit", "kind": "diverges", "time": "w", "state": "q1", '
            '"heads": ["0", "1", "0"], "tapes": {"in": [], "work": ["[0,1)"], "out": []}}',
        ]),
        "tower": ("tapes in work out; state q0;\n"
                  "rule q0 -> write work=1 move work=R goto q0;\n", "1000,5", [], [
            '{"event": "limit", "kind": "sweep", "time": "w", "state": "q0", '
            '"heads": ["0", "w", "0"], "tapes": {"in": [], "work": ["[0,w)"], "out": []}}',
            '{"event": "limit", "kind": "sweep", "time": "w*2", "state": "q0", '
            '"heads": ["0", "w*2", "0"], '
            '"tapes": {"in": [], "work": ["[0,w*2)"], "out": []}}',
            '{"event": "limit", "kind": "limit-sweep", "time": "w^2", "state": "q0", '
            '"heads": ["0", "w^2", "0"], '
            '"tapes": {"in": [], "work": ["[0,w^2)"], "out": []}}',
            '{"event": "limit", "kind": "limit-sweep", "time": "w^3", "state": "q0", '
            '"heads": ["0", "w^3", "0"], '
            '"tapes": {"in": [], "work": ["[0,w^3)"], "out": []}}',
            '{"event": "limit", "kind": "limit-sweep", "time": "w^4", "state": "q0", '
            '"heads": ["0", "w^4", "0"], '
            '"tapes": {"in": [], "work": ["[0,w^4)"], "out": []}}',
            '{"event": "unresolved", "time": "w^4", "state": "q0", '
            '"heads": ["0", "w^4", "0"], '
            '"tapes": {"in": [], "work": ["[0,w^4)"], "out": []}, '
            '"reason": "limit jump budget exhausted"}',
        ]),
        "jump-budget": ("tapes in work out; state q0;\n"
                        "rule q0 -> write work=1 move work=R goto q0;\n", "1000,1", [], [
            '{"event": "limit", "kind": "sweep", "time": "w", "state": "q0", '
            '"heads": ["0", "w", "0"], "tapes": {"in": [], "work": ["[0,w)"], "out": []}}',
            '{"event": "unresolved", "time": "w+1", "state": "q0", '
            '"heads": ["0", "w+1", "0"], '
            '"tapes": {"in": [], "work": ["[0,w+1)"], "out": []}, '
            '"reason": "limit jump budget exhausted"}',
        ]),
    }

    @pytest.mark.parametrize("kind", list(TRACE_LINES))
    def test_trace_lines_are_pinned_byte_for_byte(self, kind, tmp_path, monkeypatch,
                                                  capsys):
        """The --trace file is JSON without sorted keys, so its field order is
        part of what it says: event, a limit's kind, time, state, heads,
        tapes, an unresolved run's reason; a step's writes come last."""
        program, budget, extra, lines = self.TRACE_LINES[kind]
        if not program.endswith(".otm"):
            (tmp_path / "p.otm").write_text(program)
            program = str(tmp_path / "p.otm")
        monkeypatch.chdir(ROOT)
        trace = tmp_path / "trace.jsonl"
        main(["run", program, "--budget", budget, "--trace", str(trace), *extra])
        assert trace.read_bytes() == "".join(f"{line}\n" for line in lines).encode()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.otm"
        p.write_text("tapes in work out; state q0;\nrule q0 work=0 -> goto q0;\n")
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            f"otmlab: {p}: transition table incomplete: ")

    def test_json_output_stable(self, sweep_path, capsys):
        assert main(["run", sweep_path, "--budget", "2000,2", "--json"]) == 0
        first = capsys.readouterr().out
        data = json.loads(first)
        assert json.dumps(data, sort_keys=True) == first.strip()
        main(["run", sweep_path, "--budget", "2000,2", "--json"])
        assert capsys.readouterr().out == first


class TestCheck:
    def test_builtin_witness_ok(self, capsys):
        assert main(["check", "pp_le_zl", "--universe", "rank:3"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "exhaustive" in out

    def test_python_dash_m_runs_the_command(self, capsys):
        argv = ["check", "zl_le_pp", "--universe", "rank:2"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-m", "otmlab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert main(argv) == 0
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)

    def test_shipped_assembly_manifest(self, capsys):
        assert main(["check", "pp_le_zl.json", "--universe", "rank:3"]) == 0
        assert "pp_le_zl_otm" in capsys.readouterr().out

    def test_program_stages_carry_a_note_in_human_output_only(self, capsys):
        assert main(["check", "pp_le_zl.json", "--universe", "rank:2"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [PROGRAM_NOTE]
        assert main(["check", "pp_le_zl", "--universe", "rank:2"]) == 0
        assert "note:" not in capsys.readouterr().out
        assert main(["check", "pp_le_zl.json", "--universe", "rank:2", "--json"]) == 0
        assert "note" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["check"], ["check", "pp_le_zl", "--all"]],
                             ids=["neither", "both"])
    def test_witness_xor_all_else_usage_error(self, argv, capsys):
        assert main(argv + ["--universe", "rank:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "check: provide a witness (name or manifest) or --all, not both\n"
        )

    @pytest.mark.parametrize("witness,cap_args,exceeded", [
        ("pp_le_wo", ["--cap", "10"], "the canonification product exceeds --cap 10"),
        ("pp_otm_wo", ["--cap", "1"],
         "an instance's oracle choice tree exceeds --cap 1"),
    ], ids=["single-use", "OTM"])
    def test_sampling_requires_seed(self, witness, cap_args, exceeded, capsys):
        """The refusal names what exceeded the cap: a sampled report's
        product_size is not the size of the product."""
        assert main(["check", witness, "--universe", "rank:3", *cap_args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"check: {witness} needs sampling ({exceeded}); "
            "pass --seed for reproducibility\n"
        )

    def test_sampling_with_seed(self, capsys):
        code = main(["check", "pp_le_wo", "--universe", "rank:3", "--cap", "10",
                     "--seed", "4", "--samples", "20"])
        assert code == 0

    def test_broken_witness_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text(json.dumps({
            "name": "broken",
            "kind": "soW",
            "source_relation": "PP",
            "target_relation": "ZL",
            "pre": "native:discrete-poset",
            "post": "native:const-empty",
        }))
        assert main(["check", str(manifest), "--universe", "rank:3"]) == 1
        assert "counterexample" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "manifest, problem",
        [
            ([1], "a witness manifest must be a JSON object"),
            ({"kind": "soW"}, "witness manifest has no 'source_relation' field"),
            ({"kind": "soW", "source_relation": "PPX", "target_relation": "ZL"},
             "source_relation 'PPX' is not a known relation"),
            ({"kind": "soW", "source_relation": "PP", "target_relation": ["ZL"]},
             "target_relation ['ZL'] is not a known relation"),
            ({"kind": "soW", "source_relation": "PP", "target_relation": "ZL",
              "pre": 5, "post": "native:const-empty"}, "pre 5 is not a string"),
            ("{", "not JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
            ({"kind": "soW", "source_relation": "PP", "target_relation": "ZL",
              "pre": "native:discrete-poset", "psot": "native:identity"},
             "witness manifest has unknown key 'psot'"),
            ({"kind": "soW", "source_relation": "PP", "target_relation": "ZL",
              "pre": "native:nope", "post": "native:identity"},
             "unknown native procedure 'nope'"),
            ({"kind": "soW", "source_relation": "PP", "target_relation": "ZL",
              "pre": "native:discrete-poset", "post": "identity"},
             "stage spec must be native:NAME or file:PATH, got 'identity'"),
        ],
        ids=["not-an-object", "missing-field", "unknown-relation", "unhashable-relation",
             "non-string-stage", "not-json", "unknown-key", "unknown-native",
             "bad-stage-spec"],
    )
    def test_malformed_manifest_is_an_execution_error(self, tmp_path, manifest,
                                                      problem, capsys):
        path = tmp_path / "m.json"
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert (captured.out, captured.err) == ("", f"otmlab: {path}: {problem}\n")

    def test_stage_the_kind_never_runs_is_an_execution_error(self, tmp_path, capsys):
        """A soW manifest with an otm stage is refused, not verified without it."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "kind": "soW", "source_relation": "PP", "target_relation": "ZL",
            "pre": "native:discrete-poset", "post": "native:identity",
            "otm": "native:pp-from-wo-otm",
        }))
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"otmlab: {path}: soW witnesses take no stage 'otm'\n")

    @pytest.mark.parametrize("kind, stages, problem", [
        ("soW", {"pre": "native:discrete-poset", "post": "native:pp-from-wo-otm"},
         "stage 'post' (pp-from-wo-otm) takes the oracle, which only an OTM stage may"),
        ("oW", {"pre": "native:wo-from-pp-iterative", "post": "native:identity"},
         "stage 'pre' (wo-from-pp-iterative) takes the oracle, which only an OTM "
         "stage may"),
        ("soW", {"pre": "file:miracle.otm", "post": "native:identity"},
         "stage 'pre' (a program with a miracle state) takes the oracle, which only "
         "an OTM stage may"),
        ("OTM", {"otm": "native:pp-from-wo"},
         "stage 'otm' (pp-from-wo) takes no oracle; a native OTM stage is "
         "func(x, oracle)"),
    ], ids=["native-post", "native-pre", "program-pre", "unary-otm"])
    def test_a_stage_that_breaks_the_oracle_rule_is_an_execution_error(
            self, tmp_path, kind, stages, problem, capsys):
        """Only an OTM stage may take the oracle: a manifest that breaks the
        rule is refused before any case runs, not failed once per case."""
        (tmp_path / "miracle.otm").write_text(
            "tapes in work out miracle;\nstate q0;\nstate qm miracle;\n"
            "state done halt;\nrule q0 -> goto done;\nrule qm -> goto done;\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "kind": kind, "source_relation": "PP", "target_relation": "WO", **stages,
        }))
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr() == ("", f"otmlab: {path}: {problem}\n")

    def test_stage_file_parse_error_stays_a_usage_error(self, tmp_path, capsys):
        """A malformed .otm stage keeps its parse error and exit status 2,
        and the error names the file."""
        (tmp_path / "post.otm").write_text("tapes in work out;\nrule q9 -> goto q9;\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "kind": "soW", "source_relation": "PP", "target_relation": "ZL",
            "pre": "native:discrete-poset", "post": "file:post.otm",
        }))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"otmlab: {tmp_path / 'post.otm'}: 2:6: ")

    @pytest.mark.parametrize(
        "broken, problem",
        [
            ("tapes in work out;\nrule q9 -> goto q9;\n", "2:6: expected a declared state"),
            ("tapes in work out; state q0;\nrule q0 -> goto q0;\nrule q0 -> goto q0;\n",
             "3:1: rule overlaps the rule at 2:1"),
            ("tapes in work out; state q0;\nrule q0 work=0 -> goto q0;\n",
             "transition table incomplete: "),
        ],
        ids=["parse", "conflict", "totality"],
    )
    def test_broken_second_stage_file_is_named(self, tmp_path, broken, problem, capsys):
        """Of two .otm stages only the second is broken: the error names it."""
        (tmp_path / "pre.otm").write_text(HALT_NOW)
        (tmp_path / "post.otm").write_text(broken)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "kind": "soW", "source_relation": "PP", "target_relation": "ZL",
            "pre": "file:pre.otm", "post": "file:post.otm",
        }))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"otmlab: {tmp_path / 'post.otm'}: {problem}")

    def test_rank0_universe_trivially_ok(self, capsys):
        assert main(["check", "pp_le_zl", "--universe", "rank:0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "pp_le_ac", "--universe", "rank:-1"],
            ["check", "pp_le_ac", "--universe", "rank:5"],
            ["check", "pp_le_ac", "--universe", "rank:x"],
            ["check", "pp_le_ac", "--universe", "rank:"],
            ["check", "pp_le_ac", "--universe", "3"],
            ["canon", "PP", "--universe", "rank:-1"],
            ["canon", "PP", "--universe", "rank:9"],
            ["list-universe", "rank:-1"],
            ["list-universe", "ranks:2"],
            ["list-universe", "rank:²"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_universe_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "universe must be rank:N" in captured.err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "budget, reason",
    [
        ("abc", "budget must be STEPS,JUMPS; got 'abc'"),
        ("1,2,3", "budget must be STEPS,JUMPS; got '1,2,3'"),
        ("0,1", "budgets must be positive"),
        *(
            (spec, f"budget must be STEPS,JUMPS in ASCII digits only; got {spec!r}")
            for spec in (
                "\u0662\u0660\u0660\u0660,\u0662",  # Arabic-Indic digits
                " 2000 , +2",
                "2000,+2",
                "2000,2\n",
                "2000,-2",
                "2_000,2",
                "2000,",
            )
        ),
    ],
)
def test_bad_budget_is_a_usage_error(command, budget, reason, capsys):
    target = str(ROOT / "demos" / "right_sweep.otm") if command == "run" else "pp_le_zl"
    assert main([command, target, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: {reason}" in captured.err


@pytest.mark.parametrize("option", ["--cap", "--samples"])
@pytest.mark.parametrize("value", ["-3", "-0", "+3", " 3", "3.0", "1_0", "\u0663", ""])
def test_bad_count_is_a_usage_error(option, value, capsys):
    argv = ["check", "pp_le_wo", "--universe", "rank:3", "--seed", "1", option, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"must be a non-negative integer in ASCII digits; got {value!r}"
    assert f"argument {option}: {reason}" in captured.err


@pytest.mark.parametrize("option", ["--cap", "--samples"])
def test_zero_count_is_accepted(option, capsys):
    argv = ["check", "pp_le_wo", "--universe", "rank:2", "--seed", "1", option, "0"]
    assert main(argv) == 0
    assert "pp_le_wo: OK" in capsys.readouterr().out


@pytest.mark.parametrize("value", [" 3", "+3", "3.0", "1_0", "\u0663", "-\u0663", "-", ""])
def test_bad_seed_is_a_usage_error(value, capsys):
    argv = ["check", "pp_le_wo", "--universe", "rank:2", "--cap", "0", "--seed", value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"must be an integer in ASCII digits; got {value!r}"
    assert f"argument --seed: {reason}" in captured.err


@pytest.mark.parametrize("value", ["3", "-3", "0"])
def test_signed_seed_is_accepted(value, capsys):
    argv = ["check", "pp_le_wo", "--universe", "rank:2", "--cap", "0", "--seed", value]
    assert main(argv) == 0
    assert "pp_le_wo: OK sampled" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, argv",
    [
        ("all", ["check", "--all", "--universe", "rank:3", "--seed", "1", "--json"]),
        ("pp_le_zl.json", ["check", "pp_le_zl.json", "--universe", "rank:3", "--json"]),
        ("zero_le_pp2.json",
         ["check", "zero_le_pp2.json", "--universe", "rank:3", "--json"]),
    ],
)
def test_catalog_reports_match_the_recorded_digests(key, argv, capsys):
    """The benchmark's accept commands still print the reports it recorded:
    the digest is perfbench/common.digest of the JSON report list."""
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    assert digest(reports) == RECORDED["catalog"]["accept"][key]["digest"]


@pytest.mark.parametrize(
    "name",
    ["broken_ac_le_wo", "broken_mpp_le_muc", "broken_pp_le_ac", "broken_pp_otm_wo",
     "broken_zl_le_pp"],
)
def test_catalog_reject_reports_match_the_recorded_digests(name, monkeypatch, capsys):
    """The benchmark's sub-second reject commands still print the reports it
    recorded: the digest is of perfbench/catalog.reject_summary, the report's
    parts that do not depend on the sampling seed."""
    monkeypatch.chdir(ROOT)
    status = main(catalog.reject_commands(seed=1, tiny=False)[name])
    (report,) = json.loads(capsys.readouterr().out)
    summary = catalog.reject_summary(status, report)
    assert digest(summary) == RECORDED["catalog"]["reject"][name]


def test_sampled_single_use_report_is_pinned(monkeypatch, capsys):
    """The full report of a sampled single-use sweep, with the labels and
    answers of its 1,293 failures, which the reject digest leaves out: a
    change in the stream of the seeded sampler changes it."""
    monkeypatch.chdir(ROOT)
    assert main(catalog.reject_commands(seed=1, tiny=False)["broken_mpp_le_muc"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "616eac81eff4d7f1f89e251a1355ddd5fcdf11371e39a38a04f6d701ffa47814"
    )


class TestSetCommands:
    def test_encode_empty(self, capsys):
        assert main(["encode", "{}"]) == 0
        assert json.loads(capsys.readouterr().out) == {"bound": "1", "pairs": []}

    def test_encode_decode_roundtrip(self, capsys):
        main(["encode", "{{},{{}}}"])
        code_json = capsys.readouterr().out.strip()
        assert main(["decode", code_json]) == 0
        assert capsys.readouterr().out.strip() == "{{},{{}}}"

    def test_decode_invalid_exits_3(self, capsys):
        bad = json.dumps({"bound": "2", "pairs": []})
        assert main(["decode", bad]) == 3

    def test_decode_of_a_deep_chain_exits_3_on_its_rank(self, capsys):
        assert main(["decode", DEEP_CHAIN_CODE]) == 3
        assert capsys.readouterr().err == "otmlab: decoded set has rank 1500 > cap 6\n"

    def test_decode_unparsable_ordinal_exits_2(self, capsys):
        for bound in ("x", "²"):
            bad = json.dumps({"bound": bound, "pairs": []}, ensure_ascii=False)
            assert main(["decode", bad]) == 2
            assert "expected 'w' or a number" in capsys.readouterr().err

    def test_eval_delta0(self, capsys):
        code = main(["eval", "all z in x (z in y)",
                     "--env", "x={{}}", "--env", "y={{},{{}}}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    @pytest.mark.parametrize(
        "formula, name",
        [
            ("x = x | y in y", "y"),
            ("y in y | x = x", "y"),
            ("x in x -> y in y", "y"),
            ("all z in x (z in q)", "q"),
            ("all z in x (q in z)", "q"),
            ("ex z in x (z = q) & x = x", "q"),
        ],
    )
    def test_eval_unbound_variable_is_a_usage_error(self, formula, name, capsys):
        """Every free variable needs an --env value, whether or not evaluation
        would read it: here a disjunct that is never reached or a quantifier
        over the empty set."""
        assert main(["eval", formula, "--env", "x={}"]) == 2
        assert capsys.readouterr() == ("", f"otmlab: unbound variable {name!r}\n")

    def test_eval_env_naming_a_variable_twice_is_a_usage_error(self, capsys):
        """A second binding of x is not read as replacing the first."""
        argv = ["eval", "x in y", "--env", "x={}", "--env", " x ={{}}",
                "--env", "y={{}}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--env names variable x twice" in captured.err

    @pytest.mark.parametrize(
        "carrier, problem",
        [
            (" ; ", "--carrier names no member"),
            ("{};{}", "--carrier names member {} twice"),
            ("{{}} ; {} ; { {} }", "--carrier names member {{}} twice"),
        ],
        ids=["no-member", "repeated-member", "repeated-member-spelled-apart"],
    )
    def test_eval_carrier_of_no_or_repeated_members_is_a_usage_error(self, carrier,
                                                                    problem, capsys):
        """A carrier is a set: it names at least one member, each once."""
        assert main(["eval", "ALL x EX y (x in y)", "--carrier", carrier]) == 2
        assert capsys.readouterr() == ("", f"eval: {problem}\n")

    def test_eval_prenex_needs_carrier(self, capsys):
        assert main(["eval", "ALL x EX y (x in y)"]) == 2
        assert main(
            ["eval", "ALL x EX y (x in y)", "--carrier", "{} ; {{}}"]
        ) == 0
        assert capsys.readouterr().out.strip().endswith("false")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["canon", "PP", "--map", '[["{{}}","{}"]]', "--rule", "ack-max"],
             "otmlab canon: error: argument --rule: not allowed with argument --map"),
            (["eval", "x in y", "--env", "x={}", "--env", "y={{}}", "--carrier", "{}"],
             "eval: --carrier is for prenex statements only"),
            (["eval", "ALL x EX y (x in y)", "--carrier", "{} ; {{}}", "--env", "x={}"],
             "eval: prenex statements bind every variable; drop --env"),
            (["run", "demos/right_sweep.otm", "--trace-steps"],
             "run: --trace-steps needs --trace"),
            (["run", "demos/right_sweep.otm", "--trace", ""],
             "run: --trace needs a file path"),
            (["run", "demos/right_sweep.otm", "--trace", "", "--trace-steps"],
             "run: --trace needs a file path"),
        ],
        ids=["canon-map-and-rule", "eval-delta0-carrier", "eval-prenex-env",
             "run-trace-steps-without-trace", "run-empty-trace-path",
             "run-empty-trace-path-with-steps"],
    )
    def test_an_option_the_command_would_ignore_is_a_usage_error(self, argv, message,
                                                                monkeypatch, capsys):
        """The last line of stderr names the option and why it is refused."""
        monkeypatch.chdir(ROOT)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message

    def test_canon_ok_and_fail(self, capsys):
        assert main(["canon", "PP", "--rule", "ack-min", "--universe", "rank:3"]) == 0
        assert main(["canon", "WO", "--rule", "ack-min", "--universe", "rank:2"]) == 0
        bad = json.dumps([["{{}}", "{}"], ["{{{}}}", "{}"]])
        assert main(["canon", "PP", "--map", bad, "--universe", "rank:2"]) == 1

    @pytest.mark.parametrize("entries", ["[]", '[["{{{}}}", "{}"]]'])
    def test_canon_map_must_define_every_domain_instance(self, entries, capsys):
        """A map that leaves a domain instance of the universe out (here the
        only one of rank:1, {{}}) fails there; it is not read as {}."""
        capsys.readouterr()
        assert main(["canon", "PP", "--map", entries, "--universe", "rank:1"]) == 1
        assert capsys.readouterr().out == "FAIL at x={{}}\n"

    def test_eval_formula_file(self, tmp_path, capsys):
        fml = tmp_path / "subset.fml"
        fml.write_text("# z ranges over x\nall z in x (z in y)\n")
        code = main(["eval", f"@{fml}", "--env", "x={{}}", "--env", "y={{},{{}}}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_run_with_set_input_through_the_copier(self, capsys):
        from otmlab.reductions import witness_path

        copier = str(witness_path("pp_le_zl_post.otm"))
        assert main(["run", copier, "--input", "{{},{{}}}", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "halted"
        assert data["time"] == "w+2"
        # the w-copier reproduces the input code (cells 1, 4, 5) on the output
        assert data["tapes"]["out"] == ["[1,2)", "[4,6)"]

    def test_list_universe(self, capsys):
        assert main(["list-universe", "rank:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["{}", "{{}}", "{{{}}}", "{{},{{}}}"]

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["run", "--frobnicate"]) == 2

    def test_rank_cap(self, capsys):
        """A code decodes to a set of rank at most 6, the fixed cap."""
        for rank in (6, 7):
            literal = "{" * (rank + 1) + "}" * (rank + 1)
            assert main(["encode", literal]) == 0
            code_json = capsys.readouterr().out.strip()
            assert main(["decode", code_json]) == (0 if rank == 6 else 3)
            assert capsys.readouterr() == (
                (literal + "\n", "") if rank == 6
                else ("", "otmlab: decoded set has rank 7 > cap 6\n"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "{" * 3000 + "}" * 3000],
            ["eval", "!" * 3000 + "x in y", "--env", "x={}", "--env", "y={}"],
            ["eval", "(" * 3000 + "x in y" + ")" * 3000],
            ["decode", json.dumps({"bound": "w^(" * 2000 + "1" + ")" * 2000, "pairs": []})],
        ],
        ids=["set", "formula-negations", "formula-parentheses", "ordinal"],
    )
    def test_deep_nesting_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "found 'input nested too deeply'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["decode", "{"], "code: not JSON: Expecting property name enclosed in "
                          "double quotes: line 1 column 2 (char 1)"),
        (["canon", "PP", "--map", "["], "--map: not JSON: Expecting value: line 1 "
                                        "column 2 (char 1)"),
        (["decode", "[1]"], "code must be a JSON object, got [1]"),
        (["decode", "{}"], "code has no 'bound'"),
        (["decode", '{"bound": "2"}'], "code has no 'pairs'"),
        (["decode", '{"bound": 2, "pairs": []}'], "code ordinals must be strings, got 2"),
        (["decode", '{"bound": "2", "pairs": 5}'], "code 'pairs' must be a list, got 5"),
        (["decode", '{"bound": "2", "pairs": ["1", [1]]}'],
         "code ordinals must be strings, got [1]"),
        (["run", str(ROOT / "demos" / "right_sweep.otm"), "--input-code", "[1]"],
         "code must be a JSON object, got [1]"),
        (["canon", "PP", "--map", '{"a": 1}'], '--map must be a JSON list, got {"a": 1}'),
        *(
            (["canon", "PP", "--map", entries],
             f"--map entries must be [instance, value] pairs of set literals, got {bad}")
            for entries, bad in [
                ("[1]", "1"),
                ("[[1, 2]]", "[1, 2]"),
                ('[["{}"]]', '["{}"]'),
                ('[["{}", "{}", "{}"]]', '["{}", "{}", "{}"]'),
                ('[["{{}}", "{}"], ["{}", null]]', '["{}", null]'),
            ]
        ),
        (["canon", "PP", "--map", '[["{{}}", "{{}}"], ["{ {} }", "{}"]]'],
         "--map names instance {{}} twice"),
    ],
)
def test_malformed_json_argument_is_an_execution_error(argv, problem, capsys):
    """A code or --map of the wrong JSON shape is reported by name, not as a
    traceback, and exits 3 like any other malformed input."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (captured.out, captured.err) == ("", f"otmlab: {problem}\n")


@pytest.mark.parametrize("command", ["decode", "run", "canon", "check"])
def test_json_nested_too_deeply_is_an_execution_error(command, tmp_path, capsys):
    """JSON nested past Python's recursion limit exits 3 with one line that
    names the input, as other malformed JSON does, not with a traceback."""
    path = tmp_path / "deep.json"
    path.write_text('{"bound": ' + "[" * 5000 + "]" * 5000 + "}")
    argv, name = {
        "decode": (["decode", f"@{path}"], "code"),
        "run": (["run", str(ROOT / "demos" / "right_sweep.otm"), "--input-code",
                 f"@{path}"], "code"),
        "canon": (["canon", "PP", "--map", f"@{path}"], "--map"),
        "check": (["check", str(path)], str(path)),
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"otmlab: {name}: JSON nested too deeply\n")


@pytest.mark.parametrize(
    "argv, status, err",
    [
        (["encode", DEEP_LITERAL], 0, ""),
        (["run", str(ROOT / "demos" / "right_sweep.otm"), "--input", DEEP_LITERAL], 0, ""),
        (["eval", "x in x", "--env", "x=" + DEEP_LITERAL], 0, ""),
        (["canon", "PP", "--map", json.dumps([[DEEP_LITERAL, "{}"]] * 2)], 3,
         f"otmlab: --map names instance {DEEP_LITERAL} twice\n"),
        (["decode", DEEP_CHAIN_CODE], 3, "otmlab: decoded set has rank 1500 > cap 6\n"),
    ],
    ids=["encode", "run", "eval", "canon", "decode"],
)
def test_every_command_takes_sets_deeper_than_the_cap(argv, status, err):
    """A set nested deeper than the rank cap, in a fresh interpreter, ends with
    its command's own status and message, not with a traceback: only a decoded
    set is held to the cap."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "otmlab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (status, err)


def test_decode_names_the_least_bad_pair_in_every_process():
    """A set of ordinals iterates in an order that depends on memory
    addresses, so decoding reads a code's pairs in increasing order: two
    fresh interpreters name the same, least transfinite pair."""
    code = '{"bound":"3","pairs":["w","w*2","w+1","w^2","w^3"]}'
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(2):
        done = subprocess.run([sys.executable, "-m", "otmlab", "decode", code],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "otmlab: invalid code (pair-out-of-bound): pair w is transfinite\n"
        )


def test_a_deep_singleton_chain_encodes_quickly(capsys):
    """A set's order key starts with its rank, so sorting the closure of a
    chain of 400 singletons does not compare the chains level by level (about
    50 s without the rank; well under a second with it)."""
    start = time.perf_counter()
    assert main(["encode", "{" * 400 + "}" * 400]) == 0
    assert time.perf_counter() - start < 10
    assert json.loads(capsys.readouterr().out)["bound"] == "400"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_not_an_execution_error(unbuffered):
    """A reader that closes standard output before the command writes (as
    `| head` does) ends the command quietly with status 141, 128 + SIGPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "otmlab", "run", str(ROOT / "demos" / "right_sweep.otm"),
             "--budget", "2000,2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def readme_commands():
    """The argument lists of the README's "Command line" block, except the
    `run PROGRAM.otm` template."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("otmlab ") and not line.startswith("otmlab run PROGRAM")]


def test_readme_lists_nine_commands():
    assert len(readme_commands()) == 9


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv):
    """Each README command exits 0 from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "otmlab", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
