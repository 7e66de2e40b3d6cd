"""Shared test plumbing.

The acceptance tests (test_acceptance.py) register one line per criterion via
the ``acceptance`` fixture; ``pytest_terminal_summary`` reprints the collected
block after the run so the pass/fail table is visible without ``-s``.
The ``order_pairs`` and ``grid_route_pairs`` fixtures are the pairs on which
the accuracy order is checked against the level-12 grid scan; the second
holds the pairs past the mask sum rules' reach.
"""

import numpy as np
import pytest

from gibbslab.catalog import bank_names, bspline_mask, pair_fleet, resolve_framelet, resolve_pair
from gibbslab.construct import build_dual
from gibbslab.funcmodel import PiecewisePoly, RefinableFunction, bspline, cascade
from gibbslab.quasiproj import QuasiProjectionPair
from gibbslab.sequences import MatrixSeq

_LINES: list[str] = []


def _record(num: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    _LINES.append(line)
    print(line)
    return ok


@pytest.fixture
def acceptance():
    """Callable (num, ok, detail) -> ok that records one summary line."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def order_pairs():
    """(name, pair) for the checks of the accuracy order against the grid
    scan: the fleet, every builtin B-spline b1-b9, d2, d3, the ten
    ``build_dual`` pairs b{2,3,4}+dual{2,3,4} and b5+dual5, a custom knot
    rule, the four banks' mathring
    pairs, two pairs shifted off the integer knots, a box on [0, 1/3) whose
    translates cover a third of each period, and each of these swapped."""
    pairs = pair_fleet(12)
    pairs += [(spec, resolve_pair(spec)) for spec in ["haar"] + [f"bspline:{m}" for m in range(2, 10)] + ["daubechies:2", "daubechies:3"]]
    for m, order in [(m, order) for m in (2, 3, 4) for order in (2, 3, 4)] + [(5, 5)]:
        pairs.append((f"b{m}+dual{order}", QuasiProjectionPair(bspline(m), build_dual(bspline(m), order).phi_tilde)))
    rule = lambda N, m: N + (np.arange(m) / (m - 1)) ** 2
    pairs.append(("b3+knot-rule", QuasiProjectionPair(bspline(3), build_dual(bspline(3), 3, knot_rule=rule).phi_tilde)))
    pairs += [(f"mathring:{bank}", resolve_framelet(bank).mathring_pair) for bank in bank_names()]
    named = dict(pairs)
    pairs += [(f"{name} shifted by 1/3", named[name].shifted(1.0 / 3.0)) for name in ("bspline:2", "b3+dual3")]
    pairs.append(("box [0, 1/3)", QuasiProjectionPair(PiecewisePoly([0.0, 1.0 / 3.0], [[3.0]]), bspline(1))))
    return pairs + [(f"{name} swapped", pair.swapped()) for name, pair in pairs]


@pytest.fixture(scope="session")
def grid_route_pairs():
    """(name, pair) for pairs past the mask sum rules' reach: a refinable phi
    with mask (1 + z) (1 + z^2)^2 / 8, which breaks the mask's second sum
    rule while its shifts reproduce quadratics (the symbol vanishes at i and
    -i), against itself and against the box, and the hat against the hat's
    level-12 samples; and each of these swapped."""
    stretched = RefinableFunction(MatrixSeq.scalar(0, np.convolve([0.5, 0.5], [0.25, 0.0, 0.5, 0.0, 0.25])))
    pairs = {
        "box*stretched hat": QuasiProjectionPair(stretched, stretched),
        "box*stretched hat+box": QuasiProjectionPair(stretched, bspline(1)),
        "hat+sampled hat": QuasiProjectionPair(bspline(2), cascade(bspline_mask(2), level=12)),
    }
    return list(pairs.items()) + [(f"{name} swapped", pair.swapped()) for name, pair in pairs.items()]
