"""Tests for the builtin catalogue: the names it accepts, the ones it
refuses, and the bytes of everything it builds.

The digest pins the JSON and the values on a 1/64 grid of every builtin
function, bank and derived wavelet, so a rewrite of the tables that changes
one filter tap or one sample (even the sign of a zero) fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from gibbslab.catalog import bank_names, resolve_bank, resolve_framelet, resolve_function
from gibbslab.errors import PreconditionError

FUNCTION_SPECS = ["haar"] + [f"bspline:{m}" for m in range(1, 10)] + [f"daubechies:{k}" for k in range(1, 4)]


def test_builtins_keep_their_bytes():
    """sha256 over each bank's JSON, then the JSON and the values at
    ``arange(-512, 513) / 64`` of its phi, phi_tilde, psi and psi_tilde, then
    the same for each function spec; recorded before the builtin names moved
    into one table per kind."""
    xs = np.arange(-512, 513) / 64
    h = hashlib.sha256()

    def add(f):
        h.update(json.dumps(f.to_json_dict(), sort_keys=True).encode())
        h.update(f.evaluate(xs).tobytes())

    for name in bank_names():
        h.update(json.dumps(resolve_bank(name).to_json_dict(), sort_keys=True).encode())
        df = resolve_framelet(name)
        for f in (df.phi, df.phi_tilde, df.psi, df.psi_tilde):
            add(f)
    for spec in FUNCTION_SPECS:
        add(resolve_function(spec))
    assert h.hexdigest() == "0507450b4b9a7c1b44fa984fae8af1b74f0ce4695965ff18dccb256edf300c30"


@pytest.mark.parametrize("name,same", [("haar", True), ("bspline2-tight", True), ("daubechies:3", True), ("mixed13", False)])
def test_a_bank_whose_sides_are_one_function_holds_one_object(name, same):
    df = resolve_framelet(name)
    assert (df.phi is df.phi_tilde) is same
    assert (df.psi is df.psi_tilde) is same


@pytest.mark.parametrize(
    "spec,message",
    [
        ("foo:3", "unknown builtin 'foo:3'"),
        ("daubechies", "unknown builtin 'daubechies'"),
        ("bspline", "unknown builtin 'bspline'"),
        ("bspline:x", "malformed order in 'bspline:x'"),
        ("daubechies:2.5", "malformed order in 'daubechies:2.5'"),
        ("daubechies:", "malformed order in 'daubechies:'"),
        ("daubechies:4", "no stored mask for daubechies:4"),
        ("bspline:0", "1 <= m <= 9, got 0"),
        ("bspline:10", "1 <= m <= 9, got 10"),
        ("bspline: +3", "malformed order in 'bspline: +3'"),
        ("daubechies:0_3", "malformed order in 'daubechies:0_3'"),
        ("bspline:03", "malformed order in 'bspline:03'"),
        ("bspline:\u0663", "malformed order in 'bspline:\u0663'"),
        ("daubechies:-3", "malformed order in 'daubechies:-3'"),
    ],
)
def test_refused_function_specs(spec, message):
    with pytest.raises(PreconditionError) as exc:
        resolve_function(spec)
    assert message in str(exc.value)


@pytest.mark.parametrize("spec", ["bspline:2", "Haar"])
def test_refused_bank_specs_name_the_banks(spec):
    with pytest.raises(PreconditionError) as exc:
        resolve_framelet(spec)
    assert str(exc.value) == f"unknown bank {spec!r} (have haar, bspline2-tight, daubechies:3, mixed13)"
