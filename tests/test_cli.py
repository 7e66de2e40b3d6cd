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

from gibbslab import cli
from gibbslab.catalog import resolve_bank
from gibbslab.cli import main
from gibbslab.funcmodel import bspline


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


def test_missing_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze-pair")
    assert code == 2
    assert "--pair" in err


def test_bad_window_exits_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--pair", "haar", "--window", "1;2")
    assert code == 2
    assert "window" in err


def test_bank_file_without_functions_exits_2(tmp_path, capsys):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(resolve_bank("haar").to_json_dict()))
    code, _, err = run_cli(capsys, "expand", "--bank", str(path), "--f", "gauss")
    assert code == 2
    assert "--phi" in err


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
    ],
)
def test_stdout_keeps_its_bytes(capsys, argv, digest):
    """sha256 of stdout, recorded before piecewise polynomials were evaluated
    piece by piece and before the JSON writer formatted each distinct float
    once (numpy 2.4 on x86-64); the off-grid ``2/7`` entry was recorded once
    off-grid shifts were summed from a phi table at their phase."""
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
_json_like = st.recursive(
    _leaves | _rows | _arrays | st.lists(_any_float, max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-9, 9), inner, max_size=3),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_json_like)
@example({"a": [math.nan, 1.0], "b": [[math.inf], [-0.0]], "c": np.array([[1.0, -math.inf]]), "d": [1, 1.0]})
@example({"a": [0.0, -0.0, 0.5, 0.0, 0.5, -0.0], "b": np.array([[0.0, -0.0], [-0.0, 0.0], [0.1, 0.1]])})
def test_json_writer_matches_json_dumps(obj):
    """The row-aware writer gives the bytes of the stock encoder: NaN,
    Infinity, -0.0, int against float, numpy scalars and arrays, complex
    leaves and nested sorted keys included."""
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, default=cli._json_leaf)
