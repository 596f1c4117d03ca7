import hashlib
import json
import os
import shlex
import subprocess
import sys
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
            "outcome": "diverges", "state": "q0", "time": "w",
            "tapes": {"in": [], "work": [], "out": []},
        }

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

    def test_sampling_requires_seed(self, capsys):
        code = main(["check", "pp_le_wo", "--universe", "rank:3", "--cap", "10"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

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

    def test_eval_env_naming_a_variable_twice_is_a_usage_error(self, capsys):
        """A second binding of x is not read as replacing the first."""
        argv = ["eval", "x in y", "--env", "x={}", "--env", " x ={{}}",
                "--env", "y={{}}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--env names variable x twice" in captured.err

    def test_eval_prenex_needs_carrier(self, capsys):
        assert main(["eval", "ALL x EX y (x in y)"]) == 2
        assert main(
            ["eval", "ALL x EX y (x in y)", "--carrier", "{} ; {{}}"]
        ) == 0
        assert capsys.readouterr().out.strip().endswith("false")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["canon", "PP", "--map", '[["{{}}","{}"]]', "--rule", "ack-max"], "--rule"),
            (["eval", "x in y", "--env", "x={}", "--env", "y={{}}", "--carrier", "{}"],
             "--carrier"),
            (["eval", "ALL x EX y (x in y)", "--carrier", "{} ; {{}}", "--env", "x={}"],
             "--env"),
        ],
        ids=["canon-map-and-rule", "eval-delta0-carrier", "eval-prenex-env"],
    )
    def test_an_option_the_command_would_ignore_is_a_usage_error(self, argv, option,
                                                                capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

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

    def test_rank_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OTMLAB_RANK_CAP", "2")
        deep = "{{{{}}}}"  # rank 3
        code_json = None
        monkeypatch.delenv("OTMLAB_RANK_CAP")
        main(["encode", deep])
        code_json = capsys.readouterr().out.strip()
        monkeypatch.setenv("OTMLAB_RANK_CAP", "2")
        assert main(["decode", code_json]) == 3
        monkeypatch.delenv("OTMLAB_RANK_CAP")
        assert main(["decode", code_json]) == 0

    @pytest.mark.parametrize("value", ["\u0666", " 6", "6 ", "-1", "+6", "6.0", "", "\u00b2"])
    def test_rank_cap_env_takes_ascii_digits_only(self, value, capsys, monkeypatch):
        monkeypatch.setenv("OTMLAB_RANK_CAP", value)
        assert main(["decode", '{"bound": "2", "pairs": ["1"]}']) == 3
        err = capsys.readouterr().err
        assert f"OTMLAB_RANK_CAP must be a non-negative integer in ASCII digits, got {value!r}" in err

    @pytest.mark.parametrize("value, status", [("0", 3), ("1", 0), ("06", 0)])
    def test_rank_cap_env_of_ascii_digits(self, value, status, capsys, monkeypatch):
        monkeypatch.setenv("OTMLAB_RANK_CAP", value)
        assert main(["decode", '{"bound": "2", "pairs": ["1"]}']) == status
        out, err = capsys.readouterr()
        assert (out, err) == (("{{}}\n", "") if status == 0 else ("", "otmlab: decoded set has rank 1 > cap 0\n"))

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
