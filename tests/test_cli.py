import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ratpark
from ratpark import enumerate_words, serialize
from ratpark.cli import _build_parser, main
from ratpark.reference import PARKING_WORDS_4_3
from ratpark.verify import format_report, run_verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "4", "--n", "3")
    assert code == 0
    assert set(out.split()) == set(PARKING_WORDS_4_3)


def test_enumerate_streams_the_listed_output(capsys):
    for m, n, kind in ((3, 4, "parking"), (2, 3, "all"), (3, 5, "dyck")):
        words = list(enumerate_words(m, n, kind))
        text = "".join(f"{w}\n" for w in words)
        as_json = json.dumps([serialize.word_to_json(w) for w in words]) + "\n"
        args = ("enumerate", "--m", str(m), "--n", str(n), "--kind", kind)
        assert run(capsys, *args) == (0, text, "")
        assert run(capsys, *args, "--json") == (0, as_json, "")


def test_dyck_commands_take_words_longer_than_the_recursion_limit(capsys):
    args = ("--m", "2", "--n", "1001")
    code, out, err = run(capsys, "enumerate", *args, "--kind", "dyck")
    assert (code, len(out.split()), err) == (0, 501, "")
    args += ("--over", "dyck", "--format", "json")
    code, out, err = run(capsys, "qt-table", *args)
    assert (code, err) == (0, "")
    assert sum(map(sum, json.loads(out)["counts"])) == 501


def test_enumerate_refuses_sizes_below_one(capsys):
    for kind in ("all", "parking", "dyck"):
        for m, n in (("0", "3"), ("3", "-1")):
            for extra in ((), ("--json",)):
                args = ("enumerate", "--m", m, "--n", n, "--kind", kind, *extra)
                code, out, err = run(capsys, *args)
                assert (code, out) == (2, ""), args
                assert err == f"error: need m,n >= 1, got m={m} n={n}\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--m", "3", "--n", "3", "--word", "000")
    assert code == 0
    assert out.strip() == "infinitely-many-fixed-points"


def test_fixed_point_text_and_json(capsys):
    code, out, _ = run(
        capsys, "fixed-point", "--m", "3", "--n", "5", "--word", "10011"
    )
    assert code == 0
    assert out.strip() == "fixed -1,3,4"
    code, out, _ = run(
        capsys, "fixed-point", "--m", "3", "--n", "5", "--word", "10011", "--json"
    )
    payload = json.loads(out)
    assert payload["outcome"] == "fixed"
    assert payload["point"]["coords"] == [-1, 3, 4]


def test_fixed_point_divergence(capsys):
    code, out, _ = run(
        capsys, "fixed-point", "--m", "4", "--n", "3", "--word", "022", "--json"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "diverged"


def test_zeta_round_trip(capsys):
    code, out, _ = run(capsys, "zeta", "--m", "4", "--n", "3", "--word", "012")
    assert code == 0 and out.strip() == "000"
    code, out, _ = run(capsys, "zeta-inv", "--m", "4", "--n", "3", "--word", "000")
    assert code == 0 and out.strip() == "012"


def test_zeta_inverse_has_no_oracle_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta-inv", "--m", "4", "--n", "3", "--word", "000", "--oracle"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err


def test_readme_cli_block_names_only_real_flags():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    (sub,) = (
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    lines = [line.split() for line in block.splitlines() if line.startswith("ratpark")]
    assert len(lines) == len(sub.choices)
    for _, command, *rest in lines:
        known = sub.choices[command]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", " ".join(rest)):
            assert flag in known, (command, flag)


def test_stats(capsys):
    code, out, _ = run(capsys, "stats", "--m", "3", "--n", "5", "--word", "10001")
    assert code == 0
    assert out.strip() == "area 2 dinv 1"


def test_qt_table_csv(capsys):
    code, out, _ = run(capsys, "qt-table", "--m", "5", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "area\\dinv,0,1,2,3,4"
    assert lines[1] == "0,0,1,2,2,1"


def test_qt_table_json(capsys):
    code, out, _ = run(
        capsys, "qt-table", "--m", "4", "--n", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["counts"][0] == [1, 2, 2, 1]


def test_sweep_and_inverse(capsys):
    # build the (4,7) fixture paths from the library to avoid hand errors
    from ratpark import Filter, dyck_filter_to_path

    steps, _ = dyck_filter_to_path(Filter(4, 7, (0, 6, 7, 9)))
    code, out, _ = run(capsys, "sweep", "--m", "4", "--n", "7", "--path", steps)
    assert code == 0
    assert out.strip().split("\n")[-1] == "row minima 0,5,7,14"
    swept_steps, _ = dyck_filter_to_path(Filter(4, 7, (0, 5, 7, 14)))
    code, out, _ = run(
        capsys, "sweep-inv", "--m", "4", "--n", "7", "--path", swept_steps
    )
    assert code == 0
    assert out.strip().split("\n")[-1] == "row minima 0,6,7,9"


def test_affine_subcommands(capsys):
    code, out, _ = run(
        capsys, "affine", "--window", "3,-1,2,5,6", "--m", "3", "--pak-stanley"
    )
    assert code == 0 and out.strip() == "10011"
    code, out, _ = run(
        capsys, "affine", "--window", "3,-1,2,5,6", "--m", "3", "--anderson"
    )
    assert code == 0 and out.strip() == "10001"
    code, out, _ = run(
        capsys, "affine", "--window", "3,-1,2,5,6", "--m", "3", "--sommers-check"
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(
        capsys, "affine", "--window=-1,2,3,5,6", "--m", "3", "--swap"
    )
    assert code == 0 and out.strip() == "-1,3,4"


def test_affine_refuses_sizes_below_one(capsys):
    # each window is valid at m = 3 (see test_affine_subcommands)
    for mode, window in (
        ("--pak-stanley", "3,-1,2,5,6"),
        ("--anderson", "3,-1,2,5,6"),
        ("--sommers-check", "3,-1,2,5,6"),
        ("--swap", "-1,2,3,5,6"),
    ):
        for m in ("0", "-3"):
            for extra in ((), ("--json",)):
                args = ("affine", f"--window={window}", "--m", m, mode, *extra)
                code, out, err = run(capsys, *args)
                assert (code, out) == (2, ""), args
                assert err == f"error: need m,n >= 1, got m={m} n=5\n"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "zeta", "--m", "4", "--n", "3", "--word", "022")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "classify", "--m", "4", "--n", "3", "--word", "09")
    assert code == 2


def test_non_ascii_digit_words_are_usage_errors(capsys):
    # '²' is a str.isdigit character that int() rejects, and Arabic-Indic
    # digits are ones it reads: both are refused as bad digit strings
    for text in ("²", "1²", "١٢"):
        code, out, err = run(capsys, "classify", "--m", "3", "--n", "2", "--word", text)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: word: bad digit string"), text


def test_non_ascii_integer_entries_are_usage_errors(capsys):
    # each of these was read by int() and exited 0
    for text in ("١,٢", "1_0,0", "+1, 0"):
        args = ("classify", "--m", "12", "--n", "2", "--word", text)
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: word: bad letter list"), text
    args = ("affine", "--window=٣,-1,2,5,6", "--m", "3", "--sommers-check")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: affine.window: bad window")
    args = ("affine", "--window=3,-1,2,5,6", "--m", "3", "--sommers-check")
    assert run(capsys, *args)[:2] == (0, "yes\n")


def test_integer_options_are_ascii_only(capsys):
    # --m, --n, --max-iter and --seed take an optional - and ASCII digits,
    # as the text readers do; int() read each of these, and classify and
    # fixed-point exited 0
    fixed_point = ("fixed-point", "--m", "3", "--n", "5", "--word", "10011")
    refused = [
        (("classify", "--m", "٣", "--n", "2", "--word", "00"), "--m", "٣"),
        (("classify", "--m", "3", "--n", "+2", "--word", "00"), "--n", "+2"),
        (("classify", "--m", "1_0", "--n", "2", "--word", "00"), "--m", "1_0"),
        (("classify", "--m", " 3", "--n", "2", "--word", "00"), "--m", " 3"),
        ((*fixed_point, "--max-iter", "1_0"), "--max-iter", "1_0"),
        ((*fixed_point, "--max-iter", "١٠"), "--max-iter", "١٠"),
        (("verify", "--paper", "--seed", "+1"), "--seed", "+1"),
        (("enumerate", "--m", "2", "--n=--3"), "--n", "--3"),
        (("enumerate", "--m", "2", "--n=-"), "--n", "-"),
    ]
    for argv, option, value in refused:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, ""), argv
        assert f"argument {option}: not an ASCII integer: {value!r}" in captured.err
    assert run(capsys, *fixed_point, "--max-iter", "20")[:2] == (0, "fixed -1,3,4\n")
    code, out, err = run(capsys, "enumerate", "--m", "3", "--n", "-1")
    assert (code, out, err) == (2, "", "error: need m,n >= 1, got m=3 n=-1\n")


def test_verify_reference_only(capsys):
    code, out, _ = run(capsys, "verify", "--paper")
    assert code == 0
    assert "OK" in out
    assert all(line.startswith(("PASS", "OK")) for line in out.strip().split("\n"))


def _fresh_env():
    """The environment with this ratpark first on the interpreter's path."""
    src = Path(ratpark.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(*argv):
    """Run the interpreter on ``argv`` with this ratpark first on its path.

    In-process tests cannot see what a cold start loads: other tests have
    imported ``verify`` already.
    """
    return subprocess.run(
        [sys.executable, *argv], env=_fresh_env(), capture_output=True, text=True
    )


def test_cli_import_loads_no_verify_suites():
    probe = (
        "import sys, ratpark.cli; "
        "print(sorted({'ratpark.verify', 'ratpark.reference'} & set(sys.modules)))"
    )
    proc = _fresh_python("-c", probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_orbit_trace_script_reaches_the_fixed_point():
    script = Path(__file__).resolve().parents[1] / "scripts" / "orbit_trace.py"
    proc = _fresh_python(str(script), "--m", "3", "--n", "5", "--word", "10011")
    assert (proc.returncode, proc.stderr) == (0, "")
    last = proc.stdout.splitlines()[-1]
    assert "(-1, 3, 4)" in last and last.endswith("<- fixed")


def test_verify_paper_from_a_cold_start():
    proc = _fresh_python("-m", "ratpark.cli", "verify", "--paper")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == format_report(run_verify(reference_only=True)) + "\n"


def test_verify_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--n", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_at_m_one_lists_no_empty_suite(capsys):
    code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3", "--json")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert [s["name"] for s in suites if s["passed"] == 0] == []
    names = {s["name"] for s in suites}
    assert not names & {"lipschitz (1,3)", "divergence (1,3)"}


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "--m", "3", "--n", "4", "--json")
    _, second, _ = run(capsys, "verify", "--m", "3", "--n", "4", "--json")
    assert first == second


def test_internal_inconsistency_exit_code(capsys, monkeypatch):
    from ratpark import InternalInconsistency
    from ratpark import cli as cli_module

    def boom(*args, **kwargs):
        raise InternalInconsistency("synthetic cycle")

    monkeypatch.setattr(cli_module, "find_fixed_point", boom)
    code, _, err = run(
        capsys, "fixed-point", "--m", "3", "--n", "5", "--word", "10011"
    )
    assert code == 3
    assert "inconsistency" in err


def test_other_exceptions_exit_4_not_1(capsys, monkeypatch):
    from ratpark import cli as cli_module
    from ratpark import reference

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(cli_module, "zeta", boom)
    code, out, err = run(capsys, "zeta", "--m", "4", "--n", "3", "--word", "012")
    assert (code, out, err) == (4, "", "internal error: RuntimeError: synthetic bug\n")
    # 1 stays the code of a failed suite
    monkeypatch.setattr(reference, "PARKING_WORDS_4_3", ("000",))
    code, out, _ = run(capsys, "verify", "--paper")
    assert code == 1
    assert "first failure: parking words (4,3): got {" in out


def test_closed_pipe_exits_141_quietly():
    # ``ratpark enumerate ... | head -2``: 823,543 lines overrun any pipe
    # buffer, so the writer meets the closed pipe mid-stream
    argv = ("enumerate", "--m", "7", "--n", "8", "--kind", "parking")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratpark.cli", *argv],
        env=_fresh_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    lines = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert lines == [b"00000000\n", b"00000001\n"]
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_env_var_budget(capsys, monkeypatch):
    monkeypatch.setenv("RATPARK_MAX_ITER", "1")
    code, _, err = run(
        capsys, "fixed-point", "--m", "4", "--n", "3", "--word", "022"
    )
    assert code == 2
    assert "within 1" in err


def test_fixed_point_json_reports_applications(capsys):
    code, out, _ = run(
        capsys, "fixed-point", "--m", "4", "--n", "3", "--word", "022", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["iterations"] == payload["step"]
    assert 1 <= payload["applications"] <= payload["iterations"]


def test_bad_budgets_are_usage_errors(capsys, monkeypatch):
    fixed_point = ("fixed-point", "--m", "3", "--n", "5", "--word", "10011")
    for bad in ("0", "-5"):
        code, out, err = run(capsys, *fixed_point, "--max-iter", bad)
        assert (code, out) == (2, "")
        assert "positive integer" in err
    with pytest.raises(SystemExit) as exc:
        main([*fixed_point, "--max-iter", "abc"])
    assert exc.value.code == 2
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("RATPARK_MAX_ITER", bad)
        code, out, err = run(capsys, *fixed_point)
        assert (code, out) == (2, "")
        assert "RATPARK_MAX_ITER" in err


def test_non_coprime_input_is_a_usage_error(capsys):
    for argv in (
        ("qt-table", "--m", "4", "--n", "6"),
        ("stats", "--m", "3", "--n", "3", "--word", "012"),
        ("stats", "--m", "4", "--n", "6", "--word", "000000"),
        ("zeta", "--m", "3", "--n", "3", "--word", "012"),
        ("zeta-inv", "--m", "3", "--n", "3", "--word", "012"),
        ("sweep", "--m", "3", "--n", "3", "--path", "NNNWWW"),
        ("sweep-inv", "--m", "3", "--n", "3", "--path", "NNNWWW"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "coprime" in err and "inconsistency" not in err


def test_sweep_refuses_sizes_below_one(capsys):
    for command in ("sweep", "sweep-inv"):
        for m, n, path in (("0", "1", "W"), ("-1", "1", "W"), ("1", "0", "N")):
            code, out, err = run(capsys, command, "--m", m, "--n", n, "--path", path)
            assert (code, out) == (2, ""), (command, m, n)
            assert err.startswith("error: path needs")


def test_verify_refuses_non_coprime_pair(capsys):
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "4")
    assert (code, out) == (2, "")
    assert "(2, 4)" in err
