"""CLI surface tests.

Most cases drive ``main`` in-process for speed; two subprocess tests pin down
the things a harness actually relies on: the module entry point and
byte-identical reruns.
"""

import hashlib
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gibbslab import cli, funcmodel
from gibbslab.catalog import resolve_bank, resolve_pair
from gibbslab.cli import main
from gibbslab.funcmodel import RefinableFunction, bspline
from gibbslab.gibbs import overshoot, overshoot_curve
from gibbslab.quasiproj import GridSpec, QuasiProjectionPair, Sgn, accuracy_order, apply
from gibbslab.sequences import MatrixSeq


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gibbs_point_haar_origin(capsys):
    code, out, err = run_cli(capsys, "gibbs-point", "--pair", "haar", "--x0", "0/1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "no-gibbs"
    assert payload["R_x0"] == pytest.approx(1.0, abs=1e-9)
    assert payload["cluster_set"] == ["0"]


def test_gibbs_point_daubechies_third(capsys):
    code, out, _ = run_cli(
        capsys, "gibbs-point", "--pair", "daubechies:3", "--x0", "1/3", "--level", "11"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "gibbs"
    assert payload["R_x0"] > 1.01


def test_construct_dual_flat_pair(capsys):
    code, out, _ = run_cli(capsys, "construct-dual", "--phi", "bspline:2", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 1
    assert payload["c"] == [0.5]
    assert payload["knots"] == [1.0, 2.0]
    pt = payload["phi_tilde"]
    assert pt["kind"] == "piecewise_poly"
    assert pt["breakpoints"] == [0.0, 1.0, 2.0]
    assert pt["coeffs"] == [[[0.5]], [[0.5]]]
    assert payload["verification"]["gibbs_free"] is True


def test_construct_dual_custom_knots(capsys):
    code, out, _ = run_cli(
        capsys, "construct-dual", "--phi", "bspline:3", "--order", "3", "--knots", "2,2.5,3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["knots"] == [2.0, 2.5, 3.0]


def test_construct_dual_rejects_signed_primal(capsys):
    code, out, err = run_cli(capsys, "construct-dual", "--phi", "daubechies:3", "--order", "2")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_check_oep_builtin(capsys):
    code, out, _ = run_cli(capsys, "check-oep", "haar")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["residual0"] < 1e-13
    assert payload["residual_pi"] < 1e-13


def test_check_oep_bank_file(tmp_path, capsys):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(resolve_bank("mixed13").to_json_dict()))
    code, out, _ = run_cli(capsys, "check-oep", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_oep_garbage_file(tmp_path, capsys):
    path = tmp_path / "bank.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "check-oep", str(path))
    assert code == 2
    assert out == ""


def test_analyze_pair_reports_identity(capsys):
    code, out, _ = run_cli(capsys, "analyze-pair", "--pair", "bspline:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["accuracy_order"] == 2
    assert payload["identity_lhs"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert payload["identity_rhs"][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["identity_gap"] < 1e-6
    assert payload["bracket"] == pytest.approx(-1.0 / 3.0, abs=1e-8)


def test_analyze_pair_from_phi_flags(capsys):
    code, out, _ = run_cli(
        capsys, "analyze-pair", "--phi", "bspline:1", "--phi-tilde", "bspline:1"
    )
    assert code == 0
    assert json.loads(out)["accuracy_order"] == 1


def test_daubechies3_reads_accuracy_3_at_every_level(capsys):
    """The exact order does not depend on the level the pair carries; the
    grid route read 2 at levels 8 and 10."""
    for level in range(8, 17):
        assert accuracy_order(resolve_pair("daubechies:3", level)) == 3, level
    code, out, _ = run_cli(capsys, "analyze-pair", "--pair", "daubechies:3", "--level", "10")
    assert code == 0
    assert json.loads(out)["accuracy_order"] == 3


def test_high_order_bspline_self_pairs_read_accuracy_2(capsys):
    """B_6 against itself reproduces exactly the linears, so the bracket's
    hypotheses hold; the table's rows agree for every m from 2 on."""
    code, out, _ = run_cli(capsys, "analyze-pair", "--pair", "bspline:6")
    assert code == 0
    payload = json.loads(out)
    assert payload["accuracy_order"] == 2 and payload["bracket_hypotheses_met"] is True
    code, out, _ = run_cli(capsys, "bspline-table", "--max-order", "6")
    assert code == 0
    assert [row["accuracy_order"] for row in json.loads(out)["rows"]] == [1, 2, 2, 2, 2, 2]


def test_bspline_table_reads_R0_at_its_level(capsys):
    """Each row's R0 is the overshoot at ``--level``: at level 6, B_6 reads
    1.0 where level 12 reads 1 + 2^-52."""
    code, out, _ = run_cli(capsys, "bspline-table", "--max-order", "6", "--level", "6")
    assert code == 0
    rows = json.loads(out)["rows"]
    pairs = [QuasiProjectionPair(bspline(m), bspline(m)) for m in range(1, 7)]
    assert [row["R0"] for row in rows] == [overshoot(pair, 0.0, "right", 6) for pair in pairs]
    assert rows[5]["R0"] == 1.0 != overshoot(pairs[5], 0.0, "right", 12)


def test_phi_flags_naming_one_spec_build_one_function(capsys, monkeypatch):
    """``--phi X --phi-tilde X`` resolves X once: one cascade, and the bytes
    of ``--pair X``."""
    calls = []
    real = funcmodel.cascade
    monkeypatch.setattr(funcmodel, "cascade", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run_cli(capsys, "analyze-pair", "--phi", "daubechies:3", "--phi-tilde", "daubechies:3")
    assert code == 0 and len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == "0d4b1f731b1f97c9e1fe7d45d8a8065612fa6dc81098d3e308f10bb7e6b6fa3d"


def test_a_dual_whose_cumulative_integral_diverges_exits_1(tmp_path, capsys):
    """The CDF (4, 2) dual of ``bspline:4`` is refused, as a divergent primal is."""
    mask = MatrixSeq.scalar(-1, np.array([3.0, -12.0, 5.0, 40.0, 5.0, -12.0, 3.0]) / 32)
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(RefinableFunction(mask).to_json_dict()))
    code, out, err = run_cli(capsys, "gibbs-point", "--phi", "bspline:4", "--phi-tilde", str(path), "--x0", "1/3")
    assert code == 1 and out == ""
    assert "does not converge" in err


# -- error paths --------------------------------------------------------------------


def test_malformed_rational_exits_2(capsys):
    code, out, err = run_cli(capsys, "gibbs-point", "--pair", "haar", "--x0", "3/x")
    assert code == 2 and out == ""
    assert "malformed" in err


@pytest.mark.parametrize(
    "extra,match",
    [
        (["--x0", "0", "--tol", "nan"], "tol"),
        (["--x0", "0", "--tol", "-0.001"], "tol"),
        (["--x0", "1/5", "--level", "1"], "irrational"),
    ],
)
def test_bad_sweep_settings_exit_2(capsys, extra, match):
    code, out, err = run_cli(capsys, "gibbs-point", "--pair", "daubechies:3", *extra)
    assert code == 2 and out == ""
    assert match in err


@pytest.mark.parametrize("num_t", ["0", "-3"])
def test_empty_overshoot_curve_exits_2(capsys, num_t):
    code, out, err = run_cli(capsys, "overshoot-curve", "--pair", "bspline:2", "--num-t", num_t)
    assert code == 2 and out == ""
    assert "num_t" in err


def test_unknown_builtin_exits_2(capsys):
    code, out, err = run_cli(capsys, "gibbs-point", "--pair", "nosuch", "--x0", "0/1")
    assert code == 2 and out == ""
    assert "unknown builtin" in err


def test_level_out_of_range_exits_2(capsys, tmp_path):
    # every subcommand takes --level, including construct-dual on a function
    # file, where nothing downstream would ever read the level
    phi_file = tmp_path / "phi.json"
    phi_file.write_text(json.dumps(bspline(3).to_json_dict()))
    commands = [
        ["analyze-pair", "--pair", "haar"],
        ["gibbs-point", "--pair", "haar", "--x0", "0/1"],
        ["construct-dual", "--phi", "bspline:2", "--order", "2"],
        ["construct-dual", "--phi", str(phi_file), "--order", "2"],
        ["check-oep", "haar"],
        ["expand", "--pair", "haar"],
        ["overshoot-curve", "--pair", "haar", "--num-t", "2"],
        ["bspline-table", "--max-order", "1"],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--level", "20")
        assert code == 2, argv
        assert out == ""
        assert "level" in err


_BASE_ARGV = {
    "analyze-pair": ["--pair", "haar"],
    "gibbs-point": ["--pair", "haar", "--x0", "0/1"],
    "construct-dual": ["--phi", "bspline:2", "--order", "2"],
    "check-oep": ["haar"],
    "expand": ["--pair", "haar"],
    "overshoot-curve": ["--pair", "haar", "--num-t", "2"],
    "bspline-table": ["--max-order", "1"],
}
_FLAG_VALUES = {"--level": "8", "--window": "-3,3", "--tol": "0.5", "--out": "f.csv"}
_KEPT_FLAGS = {
    "analyze-pair": ("--level",),
    "gibbs-point": ("--level", "--tol"),
    "construct-dual": ("--level",),
    "check-oep": ("--level", "--tol"),
    "expand": ("--level", "--window", "--out"),
    "overshoot-curve": ("--level", "--out"),
    "bspline-table": ("--level",),
}
_REMOVED_SLOTS = [(cmd, flag) for cmd in _BASE_ARGV for flag in _FLAG_VALUES if flag not in _KEPT_FLAGS[cmd]]


def test_removed_flag_slots_are_sixteen():
    assert len(_REMOVED_SLOTS) == 16


@pytest.mark.parametrize("command,flag", _REMOVED_SLOTS)
def test_flag_a_subcommand_never_reads_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    """A flag the handler would ignore is refused by argparse, not accepted
    silently."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *_BASE_ARGV[command], flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in _KEPT_FLAGS.items() for f in flags])
def test_kept_flags_parse(command, flag):
    args = cli._build_parser().parse_args([command, *_BASE_ARGV[command], f"{flag}={_FLAG_VALUES[flag]}"])
    assert str(getattr(args, flag[2:])) == _FLAG_VALUES[flag]


def test_missing_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze-pair")
    assert code == 2
    assert "--pair" in err


def test_bad_window_exits_2(capsys):
    for window in ("1;2", "nan,1", "0,inf", "-inf,1"):
        code, out, err = run_cli(capsys, "expand", "--pair", "haar", f"--window={window}", "--level", "8")
        assert code == 2 and out == "", window
        assert "window" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ("expand --pair haar --window 1", "--window must be 'lo,hi', got '1'"),
        ("expand --pair haar --window a,b", "--window must be 'lo,hi', got 'a,b'"),
        ("construct-dual --phi bspline:3 --order 3 --knots a", "--knots must be 'a,b,...', got 'a'"),
        ("expand --pair haar --f monomial:x", "malformed monomial degree in 'monomial:x'"),
        ("expand --pair haar --f monomial:+1", "malformed monomial degree in 'monomial:+1'"),
        ("expand --pair haar --x0 abc", "malformed rational point 'abc'"),
        ("gibbs-point --pair haar --x0 abc", "malformed rational point 'abc'"),
    ],
)
def test_malformed_flag_text_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    expected = f"FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}"
    assert run_cli(capsys, "expand", "--pair", "haar", "--out", str(missing)) == (
        2, "", f"error: cannot write {missing}: {expected}\n"
    )
    expected = f"IsADirectoryError: [Errno 21] Is a directory: {str(tmp_path)!r}"
    assert run_cli(capsys, "expand", "--pair", "haar", "--out", str(tmp_path)) == (
        2, "", f"error: cannot write {tmp_path}: {expected}\n"
    )


@pytest.mark.parametrize("flag", ["--window=-1e308,1e308", "--n=1024"])
def test_a_window_or_level_that_overflows_exits_2(capsys, flag):
    """Both raised OverflowError inside ``apply`` and exited 1 with "internal
    error"; both are refused before any output."""
    code, out, err = run_cli(capsys, "expand", "--pair", "bspline:2", flag)
    assert (code, out, err) == (2, "", "error: window reaches 2^41, beyond exact grid points\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_exit_2(tmp_path, capsys, bad):
    """A sampled function file holding NaN or Infinity is refused on reading."""
    phi_file = tmp_path / "phi.json"
    values = [[0.0], [0.25], [bad], [0.25], [0.0]]
    phi_file.write_text(json.dumps({"kind": "sampled", "level": 2, "start": 0, "values": values}))
    code, out, err = run_cli(capsys, "construct-dual", "--phi", str(phi_file), "--order", "2")
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "breakpoints,coeffs",
    [([0.0, math.nan, 2.0], [[[1.0]], [[1.0]]]), ([0.0, 1.0, 2.0], [[[1.0]], [[math.inf]]])],
    ids=["NaN breakpoint", "Infinity coefficient"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--phi", "bspline:2", "--phi-tilde", "{file}", "--n", "1", "--out", "{out}"],
        ["construct-dual", "--phi", "{file}", "--order", "2"],
    ],
    ids=["expand", "construct-dual"],
)
def test_non_finite_piecewise_files_exit_2(tmp_path, capsys, breakpoints, coeffs, argv):
    """A piecewise_poly file with a NaN breakpoint or an Infinity coefficient
    is refused on reading: ``expand`` exited 0 with ``"max_value": NaN``, and
    ``construct-dual`` exited 1 with "internal error"."""
    pp_file = tmp_path / "pp.json"
    pp_file.write_text(json.dumps({"kind": "piecewise_poly", "breakpoints": breakpoints, "coeffs": coeffs}))
    argv = [a.format(file=pp_file, out=tmp_path / "o.csv") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err and "internal error" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("values", [[[0.0], [0.5, 1.0], [0.0]], "abc", {}])
def test_malformed_sample_values_exit_2(tmp_path, capsys, values):
    """Ragged or non-numeric ``values`` in a sampled function file are refused
    on reading, not reported as an internal error."""
    phi_file = tmp_path / "phi.json"
    phi_file.write_text(json.dumps({"kind": "sampled", "level": 2, "start": 0, "values": values}))
    code, out, err = run_cli(capsys, "construct-dual", "--phi", str(phi_file), "--order", "2")
    assert code == 2 and out == ""
    assert "array of numbers" in err and "internal error" not in err


def test_bank_file_without_functions_exits_2(tmp_path, capsys):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(resolve_bank("haar").to_json_dict()))
    code, _, err = run_cli(capsys, "expand", "--bank", str(path), "--f", "gauss")
    assert code == 2
    assert "--phi" in err


@pytest.mark.parametrize(
    "argv",
    [
        "analyze-pair --pair adir",
        "analyze-pair --pair list.json",
        "analyze-pair --pair three.json",
        "check-oep list.json",
        "analyze-pair --phi list.json --phi-tilde list.json",
    ],
)
def test_a_malformed_spec_file_exits_2(tmp_path, capsys, monkeypatch, argv):
    """A directory, or a JSON document of the wrong shape, is refused on
    reading; each raised IsADirectoryError, TypeError or AttributeError and
    exited 1 with "internal error"."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "three.json").write_text('{"phi": 3, "phi_tilde": 3}')
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and "internal error" not in err


def test_a_failure_after_a_bank_file_is_read_exits_1(tmp_path, capsys, monkeypatch):
    """Wavelets are derived after the bank file is read, so a fault there is
    still an internal error."""
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(resolve_bank("haar").to_json_dict()))

    def broken(*args):
        raise TypeError("broken")

    monkeypatch.setattr(cli, "derive_wavelets", broken)
    code, out, err = run_cli(capsys, "expand", "--bank", str(path), "--phi", "haar", "--phi-tilde", "haar")
    assert (code, out, err) == (1, "", "internal error: TypeError: broken\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze-pair"], "a pair is required: pass --pair SPEC, or both --phi and --phi-tilde"),
        (["gibbs-point", "--phi", "haar", "--x0", "0"], "a pair is required: pass --pair SPEC, or both --phi and --phi-tilde"),
        (["expand", "--bank", "BANK", "--phi", "haar"], "bank files need --phi and --phi-tilde to attach functions"),
        (["expand", "--bank", "BANK", "--phi-tilde", "haar"], "bank files need --phi and --phi-tilde to attach functions"),
    ],
)
def test_missing_function_flags_are_named(tmp_path, capsys, argv, message):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(resolve_bank("haar").to_json_dict()))
    code, out, err = run_cli(capsys, *[str(path) if a == "BANK" else a for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("files", [False, True])
def test_a_bank_file_with_one_phi_spec_runs_one_cascade(tmp_path, capsys, monkeypatch, files):
    """``expand --bank FILE --phi X --phi-tilde X`` builds X once, as the
    builtin bank does, and prints the builtin bank's bytes."""
    argv = ["expand", "--bank", "daubechies:3", "--n", "1"]
    if files:
        path = tmp_path / "d3bank.json"
        path.write_text(json.dumps(resolve_bank("daubechies:3").to_json_dict()))
        argv[2:3] = [str(path), "--phi", "daubechies:3", "--phi-tilde", "daubechies:3"]
    calls = []
    real = funcmodel.cascade
    monkeypatch.setattr(funcmodel, "cascade", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == "d04b028de1b4d2ba81327c1a1241832fdca69b8001df83e3907a8909756d4c2f"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_usage_error_leaves_the_parser_reusable(capsys):
    """The parser is built once per process; a usage error on it does not
    change what the next call prints."""
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["gibbs-point"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, "check-oep", "haar")
    assert code == 0 and err == ""
    first = _run_subprocess(["check-oep", "haar"])  # a fresh process's first call
    assert first.returncode == 0
    assert out.encode() == first.stdout


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gibbslab ")]


def test_readme_commands_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("expand --bank haar --n 2", "8629265971f84de8f7138d3fee4ea4a0b9e575f0d12a397a602e1df1cba42dd5"),
        ("expand --bank bspline2-tight --n 2", "09b954a938ab93dacb574e10e098afb6d75139d0b084885a4d457eb5db0d717e"),
        ("expand --bank mixed13 --n 2", "684cec8fed5fd00076fea754c49f81e843d87ed93ccb7c7d0482aa2ea27182d2"),
        ("gibbs-point --pair bspline:3 --x0 5/13", "957d6c0a604aefd0231c63a5309585e1468aae394e30345c09959944af7141d6"),
        ("gibbs-point --pair daubechies:3 --x0 2/7", "613e01d171ae9e4f09703987267c632dae45addd190f16995a1ea9ba987d17e4"),
        ("overshoot-curve --pair bspline:2 --num-t 12", "8333de05d622401e9bb7b3560d9d30507f11e41aaa3ac2cbd605b7192d1b3593"),
        ("analyze-pair --pair daubechies:3", "0d4b1f731b1f97c9e1fe7d45d8a8065612fa6dc81098d3e308f10bb7e6b6fa3d"),
        ("bspline-table --max-order 4", "48f70dd2b95168fec29c8c10393aa1961ecf59cb35bc44959c9254a6402a72fa"),
        ("expand --bank daubechies:3 --n 3", "9dc344a1d9dbbb69be13d796d381d50d8b74c15ea86b523df1e64b20d0b408e2"),
        ("analyze-pair --pair daubechies:2", "68231e5c27395f55167cbc7d48937f94f302ef53578d6d8e6210ca3225b3d264"),
        ("analyze-pair --pair bspline:3", "5771aa76934cbf6b3f9ff03f31c937922d1c4a9b049fbd702cd4ed7da5d69884"),
    ],
)
def test_stdout_keeps_its_bytes(capsys, argv, digest):
    """sha256 of stdout, recorded before piecewise polynomials were evaluated
    piece by piece and before the JSON writer formatted each distinct float
    once (numpy 2.4 on x86-64); the off-grid ``2/7`` entry was recorded once
    off-grid shifts were summed from a phi table at their phase, and the last
    three before ``accuracy_order`` stopped at its first failing degree and
    the writer formatted arrays without ``tolist()``; the two ``analyze-pair``
    entries after them before each function model owned its ``fourier``."""
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- sampled outputs -------------------------------------------------------------


def test_expand_csv_columns(tmp_path, capsys):
    out_path = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        "expand", "--pair", "haar", "--f", "sgn", "--n", "2", "--level", "8",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) - 1 == summary["rows"]
    x0, v0 = lines[1].split(",")
    float(x0), float(v0)  # parses as plain floats


def test_expand_linear_reproduction(capsys):
    code, out, _ = run_cli(
        capsys,
        "expand", "--pair", "bspline:2", "--f", "monomial:1", "--level", "6",
        "--window=-1,1",
    )
    assert code == 0
    payload = json.loads(out)
    xs = (payload["start"] + np.arange(len(payload["values"]))) * 2.0 ** -payload["level"]
    vals = np.array(payload["values"])[:, 0]
    assert np.max(np.abs(vals - xs)) < 1e-10


def test_expand_bank_summary_includes_verdict(tmp_path, capsys):
    out_path = tmp_path / "layers.csv"
    code, out, _ = run_cli(
        capsys,
        "expand", "--bank", "haar", "--f", "gauss", "--n", "3", "--level", "8",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["verdict"]["verdict"] == "no-gibbs-at-origin"
    assert out_path.exists()


def test_overshoot_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "overshoot-curve", "--pair", "bspline:2", "--num-t", "8", "--level", "9",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,R,L"
    assert len(lines) == 1 + 8
    assert summary["max_R"] == pytest.approx(1.0, abs=1e-9)
    assert summary["min_L"] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("chunk,level", [(5, 8), (cli._CHUNK, 12)])
def test_csv_outputs_match_the_per_row_reference(tmp_path, capsys, monkeypatch, chunk, level):
    """Both CSV files hold the bytes of one f-string per row, with chunk
    boundaries every row or two and at the real chunk size (106,497 rows of
    ``expand`` at level 12: four chunks)."""
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    pair = resolve_pair("daubechies:3", level)
    sf = apply(pair, Sgn(0.0), 0, 0.0, GridSpec(level))
    want = "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(sf.xs().tolist(), sf.values[:, 0].tolist()))
    path = tmp_path / "expand.csv"
    assert run_cli(capsys, "expand", "--pair", "daubechies:3", "--level", str(level), "--out", str(path))[0] == 0
    assert path.read_bytes() == want.encode()
    ts, R, L = overshoot_curve(pair, num_t=12, level=level)
    want = "t,R,L\n" + "".join(f"{t!r},{r!r},{l!r}\n" for t, r, l in zip(ts.tolist(), R.tolist(), L.tolist()))
    path = tmp_path / "curve.csv"
    args = ("overshoot-curve", "--pair", "daubechies:3", "--num-t", "12", "--level", str(level), "--out", str(path))
    assert run_cli(capsys, *args)[0] == 0
    assert path.read_bytes() == want.encode()


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_expand_streams_in_bounded_pieces(monkeypatch):
    """A level-14 expansion (425,985 values, seven chunks) reaches stdout in
    writes of at most one chunk's text that concatenate to the whole
    document, and a refused command writes nothing."""
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["expand", "--pair", "daubechies:3", "--level", "14"]) == 0
    # a row of an (n, 1) column: a repr of at most 24 characters, 20 of brackets and indentation
    assert len(out.writes) > 1 and max(map(len, out.writes)) <= cli._CHUNK * 44
    sf = apply(resolve_pair("daubechies:3", 14), Sgn(0.0), 0, 0.0, GridSpec(14))
    assert sf.values.shape == (425985, 1)
    assert "".join(out.writes) == "".join(cli._pieces(sf._json_dict(sf.values))) + "\n"
    out.writes.clear()
    assert main(["expand", "--pair", "daubechies:3", "--window", "nan,1"]) == 2
    assert out.writes == []


def test_bspline_table(capsys):
    code, out, _ = run_cli(capsys, "bspline-table", "--max-order", "2", "--level", "9")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == [1, 2]
    assert rows[1]["accuracy_order"] == 2
    assert rows[1]["R0"] == pytest.approx(1.0, abs=1e-9)


# -- determinism across processes ------------------------------------------------


def _run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "gibbslab.cli", *args],
        capture_output=True,
        check=False,
    )


def test_entry_point_runs():
    proc = _run_subprocess(["gibbs-point", "--pair", "haar", "--x0", "0/1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "no-gibbs"


def test_reruns_are_byte_identical(tmp_path):
    args = [
        "overshoot-curve", "--pair", "daubechies:2", "--num-t", "6", "--level", "9",
    ]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_a_closed_stdout_exits_141_quietly():
    """A reader that stops early ends the command as SIGPIPE would, with the
    exit code 141 a shell shows for it and nothing on stderr.  The curve's
    155,761 bytes overfill a 64 KiB pipe buffer, so a write meets the closed pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gibbslab.cli", "overshoot-curve", "--pair", "haar", "--num-t", "4096"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


# -- JSON writer ------------------------------------------------------------------

_any_float = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-5, 1e16]) | st.floats()
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | _any_float
    | st.text(max_size=4)
    | st.complex_numbers(allow_nan=False)
    | _any_float.map(np.float64)
    | st.integers(-(2**62), 2**62).map(np.int64)
)
_rows = st.integers(1, 3).flatmap(
    lambda r: st.lists(st.lists(_any_float, min_size=r, max_size=r), min_size=1, max_size=6)
)
_arrays = _rows.map(np.array) | st.lists(_any_float, min_size=1, max_size=6).map(np.array)
_shapes = st.sampled_from([(0,), (0, 1), (0, 3), (3, 0)]) | st.integers(1, 6).flatmap(
    lambda n: st.sampled_from([(n,), (n, 1), (n, 3)])
)
_ndarrays = hnp.arrays(np.float64, _shapes, elements=_any_float) | hnp.arrays(
    st.sampled_from([np.int64, np.bool_, np.float32, np.complex128]), _shapes
)
_json_like = st.recursive(
    _leaves | _rows | _arrays | _ndarrays | st.lists(_any_float, max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-9, 9), inner, max_size=3),
    max_leaves=24,
)


_N = cli._CHUNK


@settings(max_examples=200, deadline=None)
@given(_json_like)
@example(  # chunk boundaries inside a run of equal values, between -0.0 and 0.0, and inside a row of three
    {
        "run": np.r_[np.arange(_N - 2) / 7, np.full(5, 0.5)],
        "signs": np.r_[np.full(_N, -0.0), 0.0, -0.0],
        "column": np.r_[np.full(_N, -0.0), 0.0, -0.0][:, None],
        "rows": (np.arange(3 * (_N // 3 + 2)) / 7).reshape(-1, 3),
        "list": (np.arange(_N + 3) % 5 * 0.25).tolist(),
    }
)
@example({"array": np.r_[np.ones(_N), math.nan], "list": [0.5] * _N + [math.nan]})  # NaN past the first chunk
@example({"a": [math.nan, 1.0], "b": [[math.inf], [-0.0]], "c": np.array([[1.0, -math.inf]]), "d": [1, 1.0]})
@example({"a": [0.0, -0.0, 0.5, 0.0, 0.5, -0.0], "b": np.array([[0.0, -0.0], [-0.0, 0.0], [0.1, 0.1]])})
@example({"a": np.array([[-0.0], [0.1], [-0.0]]), "b": np.array([1.0, math.nan]), "c": np.array([[math.inf], [0.5]])})
@example({"a": np.array([-0.0, 0.0, 2.5]), "b": np.array([[0.5, 0.0, -0.0], [-math.inf, 1.0, 2.0]])})
@example([np.empty(0), np.empty((0, 3)), np.empty((3, 0)), np.array(1.5)])
@example(
    {
        "i": np.array([[1], [-2]], dtype=np.int64),
        "b": np.array([True, False]),
        "f": np.array([0.1, -0.0, np.inf], dtype=np.float32),
        "c": np.array([[1 + 2j, -0.0j, 3j]]),
    }
)
def test_json_writer_matches_json_dumps(obj):
    """The row-aware writer gives the bytes of the stock encoder: NaN,
    Infinity, -0.0, int against float, numpy scalars and arrays (float64 of
    shape (n,), (n, 1) and (n, 3), empty ones, int64, bool, float32 and
    complex), complex leaves, nested sorted keys and arrays longer than one
    chunk included."""
    assert "".join(cli._pieces(obj)) == json.dumps(obj, sort_keys=True, indent=2, default=cli._json_leaf)
