"""Command-line front end.

Verdicts are printed to stdout as JSON with sorted keys (identical invocations
produce byte-identical output); sampled data goes to ``--out`` as CSV with
fixed columns, ``x,value`` for functions and ``t,R,L`` for overshoot curves.
The long parts, the JSON's top-level float arrays (``expand``'s ``values``,
``overshoot-curve``'s ``t``, ``R`` and ``L``) and the CSV rows, are written
in chunks of at most ``2^16`` values' text, so a long expansion never exists
as one string; every other JSON value is one ``json.dumps`` call.  Every
refusal happens before the first byte, so a refused command prints nothing
to stdout.

Exit codes: 0 success, 2 a failure the input causes (an unwritable ``--out``
too), 1 any other failure, ``ConvergenceError`` included, and 141, with
nothing on stderr, when the reader closes stdout early.  Function and pair
specifiers are either builtin names (``haar``, ``bspline:m``,
``daubechies:k``) or paths to JSON files in the schemas the library itself
writes; a specifier naming an existing file is read as a file.

Each subcommand takes ``--level`` (default 12) and only the flags it reads;
``--level`` and the pair flags (``--pair``, ``--phi``, ``--phi-tilde``) are
declared once, in parent parsers.  Any other flag is a usage error (exit 2):

- ``analyze-pair``: ``--pair`` or ``--phi`` with ``--phi-tilde``
- ``gibbs-point``: the pair flags, ``--x0``, ``--tol``
- ``construct-dual``: ``--phi``, ``--order``, ``--knots``
- ``check-oep``: the bank, ``--tol``
- ``expand``: the pair flags or ``--bank``, ``--f``, ``--x0``, ``--n``,
  ``--window``, ``--out``
- ``overshoot-curve``: the pair flags, ``--num-t``, ``--out``
- ``bspline-table``: ``--max-order``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from functools import cache

import numpy as np

from .catalog import (
    _spec_integer,
    bank_names,
    resolve_bank,
    resolve_framelet,
    resolve_function,
    resolve_pair,
)
from .construct import build_dual, optimality_witness, verify_gibbs_free
from .errors import DimensionMismatchError, PreconditionError
from .framelet import (
    FilterBank,
    derive_wavelets,
    framelet_gibbs_verdict,
    oep_check,
    symbol_deviation_slope,
    truncated_expansion,
)
from .funcmodel import bspline, check_level, function_from_json_dict
from .gibbs import (
    _rational,
    bracket_second_deriv,
    gibbs_at_point,
    identity_lhs,
    identity_rhs,
    overshoot,
    overshoot_curve,
)
from .quasiproj import (
    GridSpec,
    Monomial,
    QuasiProjectionPair,
    Sgn,
    accuracy_order,
    apply,
    check_qp1,
)

__all__ = ["main"]


def _json_leaf(obj):
    """Turn the numpy arrays and scalars and the complex numbers that json
    cannot write into lists and plain scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_CHUNK = 2**16  # values formatted per piece: no string the writer holds is longer than their text


def _text_chunks(columns, open_: str, cell_sep: str, close: str, row_sep: str):
    """The text of the float64 ``columns`` (1-D or 2-D, equal length, read
    side by side), up to :data:`_CHUNK` values per piece: each row is
    ``open_``, its cells joined by ``cell_sep``, then ``close``, and rows are
    joined by ``row_sep``.  ``float.__repr__`` runs once per distinct bit
    pattern in a piece (so 0.0 and -0.0 stay apart), and a one-cell row's
    text is built once per distinct value."""
    n = len(columns[0])
    step = max(1, _CHUNK // sum(c.shape[1] if c.ndim == 2 else 1 for c in columns))
    for lo in range(0, n, step):
        if lo:
            yield row_sep
        block = np.column_stack([c[lo : lo + step] for c in columns])
        bits, inverse = np.unique(block.ravel().view(np.int64), return_inverse=True)
        reprs = map(float.__repr__, bits.view(np.float64).tolist())
        if block.shape[1] == 1:
            rows = np.array([open_ + r + close for r in reprs], dtype=object)[inverse].tolist()
        else:
            cells = np.array(list(reprs), dtype=object)[inverse].reshape(block.shape).tolist()
            rows = [open_ + cell_sep.join(row) + close for row in cells]
        yield row_sep.join(rows)


def _pieces(obj):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2,
    default=_json_leaf)``, byte for byte, in pieces.  Only a nonempty dict
    with string keys is split, one value at a time in key order: a value
    that is a nonempty, finite float64 array of one or two dimensions
    (``expand``'s ``values``, ``overshoot-curve``'s ``t``, ``R`` and ``L``)
    goes through :func:`_text_chunks` straight from the ndarray, at most one
    chunk's text per piece, instead of the pure-Python encoder that
    ``indent`` forces.  Every other value, and every other document, is one
    ``json.dumps`` call."""
    if not (type(obj) is dict and obj and all(type(k) is str for k in obj)):
        yield json.dumps(obj, sort_keys=True, indent=2, default=_json_leaf)
        return
    sep = "{\n  "
    for k in sorted(obj):
        yield sep + json.dumps(k) + ": "
        sep = ",\n  "
        v = obj[k]
        if isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim in (1, 2) and v.size and np.isfinite(v).all():
            yield "[\n    "
            if v.ndim == 1:
                yield from _text_chunks((v,), "", "", "", ",\n    ")
            else:
                yield from _text_chunks((v,), "[\n      ", ",\n      ", "\n    ]", ",\n    ")
            yield "\n  ]"
        else:
            # json strings hold no raw newline, so each one starts an indented line
            yield json.dumps(v, sort_keys=True, indent=2, default=_json_leaf).replace("\n", "\n  ")
    yield "\n}"


def _emit(obj) -> None:
    """Write ``obj`` and a newline to stdout piece by piece; a handler calls
    this only once its answer is complete, so a refused command writes
    nothing."""
    write = sys.stdout.write
    for piece in _pieces(obj):
        write(piece)
    write("\n")


def _from_spec(spec: str, from_json, builtin):
    """``from_json`` of the JSON document in the file ``spec`` names, or
    ``builtin(spec)`` when no such file exists.  A file that cannot be opened,
    or whose document ``from_json`` cannot read, is a ``PreconditionError``."""
    if not os.path.exists(spec):
        return builtin(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            return from_json(json.load(fh))
    except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
        raise PreconditionError(f"cannot read {spec}: {type(exc).__name__}: {exc}") from None


def _function_from_spec(spec: str, level: int):
    return _from_spec(spec, function_from_json_dict, lambda name: resolve_function(name, level))


def _phis_from_args(args, missing: str):
    """(phi, phi_tilde) from ``--phi`` and ``--phi-tilde``: one object when
    both name one spec, so one cascade; ``missing`` is the refusal when either
    flag is absent."""
    if not (args.phi and args.phi_tilde):
        raise PreconditionError(missing)
    phi = _function_from_spec(args.phi, args.level)
    return phi, phi if args.phi_tilde == args.phi else _function_from_spec(args.phi_tilde, args.level)


def _pair_from_args(args) -> QuasiProjectionPair:
    if args.pair:
        return _from_spec(args.pair, QuasiProjectionPair.from_json_dict, lambda name: resolve_pair(name, args.level))
    missing = "a pair is required: pass --pair SPEC, or both --phi and --phi-tilde"
    return QuasiProjectionPair(*_phis_from_args(args, missing))


def _numbers(flag: str, form: str, text: str) -> list[float]:
    """The numbers of ``text``, the comma list given to ``flag``: one per
    field of ``form`` ('lo,hi'), or any count when ``form`` ends in '...'
    ('a,b,...').  Anything else is refused, naming ``form``."""
    parts = text.split(",")
    with suppress(ValueError):
        if form.endswith("...") or len(parts) == len(form.split(",")):
            return [float(v) for v in parts]
    raise PreconditionError(f"{flag} must be {form!r}, got {text!r}")


def _signal_from_args(args):
    spec = args.f
    if spec == "sgn":
        return Sgn(float(_rational(args.x0)))
    if spec == "gauss":
        return lambda x: np.exp(-np.asarray(x) ** 2)
    if spec.startswith("monomial:"):
        return Monomial(_spec_integer(spec, "monomial degree"))
    raise PreconditionError(f"unknown signal {spec!r} (have sgn, gauss, monomial:j)")


def _write_csv(path: str, header: str, columns) -> None:
    """``header`` and one line per row of the float64 ``columns``, each value
    as its ``float.__repr__``.  A path that cannot be written is a
    ``PreconditionError``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(_text_chunks(columns, "", ",", "\n", ""))
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {type(exc).__name__}: {exc}") from None


# -- command handlers ----------------------------------------------------------


def _cmd_analyze_pair(args) -> None:
    pair = _pair_from_args(args)
    qp1 = check_qp1(pair)
    rhs = identity_rhs(pair)  # raises if the pair fails the basic conditions
    lhs = identity_lhs(pair, level=args.level)
    br = bracket_second_deriv(pair)
    _emit(
        {
            "support_bound": pair.support_bound,
            "ncomponents": pair.ncomponents,
            "qp1": qp1,
            "identity_lhs": lhs,
            "identity_rhs": rhs,
            "identity_gap": abs(lhs - rhs),
            "bracket": br.value,
            "bracket_hypotheses_met": br.hypotheses_met,
            "accuracy_order": accuracy_order(pair),
            "symbol_slope": symbol_deviation_slope(pair),
        }
    )


def _cmd_gibbs_point(args) -> None:
    pair = _pair_from_args(args)
    report = gibbs_at_point(pair, args.x0, tol=args.tol, level=args.level)
    _emit(report.to_json_dict())


def _cmd_construct_dual(args) -> None:
    phi = _function_from_spec(args.phi, args.level)
    knots = np.array(_numbers("--knots", "a,b,...", args.knots)) if args.knots else None
    construction = build_dual(phi, args.order, knot_rule=None if knots is None else lambda N, m: knots)
    out = construction.to_json_dict()
    out["verification"] = verify_gibbs_free(construction, phi)
    out["witness"] = optimality_witness(construction)
    _emit(out)


def _cmd_check_oep(args) -> None:
    _emit(oep_check(_from_spec(args.bank, FilterBank.from_json_dict, resolve_bank), tol=args.tol))


def _framelet_from_args(args):
    got = _from_spec(args.bank, FilterBank.from_json_dict, lambda name: resolve_framelet(name, args.level))
    if isinstance(got, FilterBank):  # a bank file: the functions come from --phi and --phi-tilde
        return derive_wavelets(got, *_phis_from_args(args, "bank files need --phi and --phi-tilde to attach functions"))
    return got


def _cmd_expand(args) -> None:
    lo, hi = _numbers("--window", "lo,hi", args.window) if args.window else (None, None)
    grid = GridSpec(args.level, lo, hi)
    f = _signal_from_args(args)
    if args.bank:
        df = _framelet_from_args(args)
        sf = truncated_expansion(df, f, args.n, grid)
        verdict = framelet_gibbs_verdict(df)
    else:
        pair = _pair_from_args(args)
        sf = apply(pair, f, args.n, 0.0, grid)
        verdict = None
    if args.out:
        _write_csv(args.out, "x,value", (sf.xs(), sf.values[:, 0]))
        payload = {
            "out": args.out,
            "rows": int(sf.values.shape[0]),
            "level": sf.level,
            "max_value": float(np.max(sf.values)),
            "min_value": float(np.min(sf.values)),
        }
    else:
        payload = sf._json_dict(sf.values)  # the array itself: the writer formats it
    if verdict is not None:
        payload["verdict"] = verdict
    _emit(payload)


def _cmd_overshoot_curve(args) -> None:
    pair = _pair_from_args(args)
    ts, R, L = overshoot_curve(pair, num_t=args.num_t, level=args.level)
    summary = {
        "num_t": int(args.num_t),
        "max_R": float(np.max(R)),
        "min_L": float(np.min(L)),
        "argmax_t": float(ts[int(np.argmax(R))]),
    }
    if args.out:
        _write_csv(args.out, "t,R,L", (ts, R, L))
        summary["out"] = args.out
    else:
        summary.update(t=ts, R=R, L=L)
    _emit(summary)


def _cmd_bspline_table(args) -> None:
    rows = []
    for m in range(1, args.max_order + 1):
        b = bspline(m)
        pair = QuasiProjectionPair(b, b)
        construction = build_dual(b, m)
        rows.append(
            {
                "m": m,
                "identity_lhs": identity_lhs(pair, level=args.level),
                "identity_rhs": identity_rhs(pair),
                "bracket": bracket_second_deriv(pair).value,
                "accuracy_order": accuracy_order(pair),
                "R0": overshoot(pair, 0.0, "right", args.level),
                "dual_shift": construction.N,
                "dual_knots": construction.knots,
            }
        )
    _emit({"rows": rows})


# -- parser ---------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", type=int, default=12, help="dyadic grid level (1..16)")
    pair = argparse.ArgumentParser(add_help=False, parents=[level])
    pair.add_argument("--pair", help="builtin name or pair JSON file")
    pair.add_argument("--phi", help="builtin name or function JSON file")
    pair.add_argument("--phi-tilde", dest="phi_tilde", help="builtin name or function JSON file")

    p = argparse.ArgumentParser(
        prog="gibbslab",
        description="Quasi-projection expansions, overshoot analysis, dual construction.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze-pair", parents=[pair], help="first-moment identity, bracket, accuracy order")

    sp = sub.add_parser("gibbs-point", parents=[pair], help="overshoot verdict at a jump location")
    sp.add_argument("--x0", required=True, help="exact rational 'p/q', or 'irrational': a point whose doubling orbit is dense")
    sp.add_argument("--tol", type=float, default=1e-3, help="R above 1 + tol or L below -1 - tol is Gibbs")

    sp = sub.add_parser("construct-dual", parents=[level], help="build a nonnegative dual of prescribed order")
    sp.add_argument("--phi", required=True, help="builtin name or function JSON file")
    sp.add_argument("--order", type=int, required=True, help="accuracy order to match")
    sp.add_argument("--knots", help="explicit knots 'a,b,...' (default equally spaced)")

    sp = sub.add_parser("check-oep", parents=[level], help="verify the two filter-bank identities")
    sp.add_argument("bank", help=f"bank JSON file or builtin ({', '.join(bank_names())})")
    sp.add_argument("--tol", type=float, default=1e-12, help="largest residual that passes")

    sp = sub.add_parser("expand", parents=[pair], help="sample a truncated expansion or quasi-projection")
    sp.add_argument("--window", help="evaluation window 'lo,hi'")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--bank", help="bank JSON file or builtin name")
    sp.add_argument("--f", default="sgn", help="signal: sgn | gauss | monomial:j")
    sp.add_argument("--x0", default="0/1", help="jump location for sgn (exact rational)")
    sp.add_argument("--n", type=int, default=0, help="expansion level")

    sp = sub.add_parser("overshoot-curve", parents=[pair], help="R(t), L(t) over one period of shifts")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--num-t", dest="num_t", type=int, default=64)

    sp = sub.add_parser("bspline-table", parents=[level], help="identity/overshoot/dual table for B-splines")
    sp.add_argument("--max-order", dest="max_order", type=int, default=4)

    return p


_HANDLERS = {
    "analyze-pair": _cmd_analyze_pair,
    "gibbs-point": _cmd_gibbs_point,
    "construct-dual": _cmd_construct_dual,
    "check-oep": _cmd_check_oep,
    "expand": _cmd_expand,
    "overshoot-curve": _cmd_overshoot_curve,
    "bspline-table": _cmd_bspline_table,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        check_level(args.level)
        _HANDLERS[args.command](args)
    except BrokenPipeError:  # the reader closed stdout: end quietly, as a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit writes nowhere
        return 141
    except (PreconditionError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never crashes
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
