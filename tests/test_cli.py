"""CLI surface tests.

Most cases drive ``main`` in-process for speed; two subprocess tests pin down
the things a harness actually relies on: the module entry point and
byte-identical reruns.
"""

import json
import math
import subprocess
import sys

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
def test_json_writer_matches_json_dumps(obj):
    """The row-aware writer gives the bytes of the stock encoder: NaN,
    Infinity, -0.0, int against float, numpy scalars and arrays, complex
    leaves and nested sorted keys included."""
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, default=cli._json_leaf)
