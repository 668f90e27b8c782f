"""The four benchmark workloads: seeded inputs, the call, and its check.

Each workload yields an endless stream of inputs from a seeded
``random.Random``; the package receives only those inputs.  The run uses
the first input for set-up and warm-up only.  The next ``census`` calls
are the ones the result line's ``attempted`` and ``failed`` count; every
run makes them all.  ``latency_tail_ms`` is taken in windows of ``window``
calls, so its percentile does not change with the run's length.  ``call``
makes one public call through an ``Api`` (plain or traced functions), and
``check`` compares a returned output with the benchmark's own reference
values (``refs.py``), returning the correct digits and, when the output
breaks the correctness gate, a description of the problem.

Generator parameters, the reason for each workload and the layer-to-metric
predictions are listed in README.md next to this file.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

DIGITS_CAP = 12.0
ORACLE_TOL = 1e-9        # oracle value vs reference, relative
# An expansion value is wrong, not merely truncated, if it is off by half
# its size: over this domain the order-0 error stays below about 0.1.
EXPANSION_GROSS = 0.5


@dataclass
class Api:
    """The public entry points a workload calls; swapped for traced ones."""

    asymptotic: Callable
    quadrature: Callable
    cli_main: Callable
    real_axis: Any  # QuadratureConfig(strategy=REAL_AXIS)


@dataclass
class Verdict:
    digits: float | None = None
    problem: str | None = None


def digits_of(rel_err: float) -> float:
    """-log10(relative error), capped at DIGITS_CAP and floored at 0."""
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, -math.log10(rel_err))


def rel_err(value: complex, reference: complex) -> float:
    return abs(value - reference) / abs(reference)


def is_finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def _lattice(k: int, dim: int) -> float:
    """Coordinate ``dim`` of the k-th point of a Kronecker sequence in [0, 1)."""
    step = math.sqrt((2, 3, 5, 7, 11, 13)[dim]) % 1.0
    return (0.5 + k * step) % 1.0


def _jitter(rng, width: float) -> float:
    return rng.uniform(-width, width)


def _oracle_check(value: complex, reference: complex) -> Verdict:
    err = rel_err(value, reference)
    problem = None
    if not err <= ORACLE_TOL:
        problem = f"oracle value {value!r} is {err:.3g} from reference {reference!r}"
    return Verdict(digits_of(err), problem)


class ExpansionGrid:
    """pearcey_asymptotic(x, y, order) over a fixed lattice of 50 cells.

    Cell k has order k mod 25 and a lattice point in (|y|, arg y, sign of
    Re y, Re x, Im x); each call draws a fresh point in a narrow box
    around its cell, so x never repeats while the per-cell work and
    truncation error stay the same from seed to seed.
    """

    name = "expansion-grid"
    cycle = 50
    census = 50
    window = 20 * cycle
    max_order = 24
    check_count = 50

    def cell_centre(self, k: int):
        y_mod = 8.0 * 7.5 ** _lattice(k, 0)
        theta = -math.pi / 2 + math.pi * _lattice(k, 1)
        sign = 1.0 if _lattice(k, 2) < 0.5 else -1.0
        return (k % (self.max_order + 1), y_mod, theta, sign,
                -3.0 + 6.0 * _lattice(k, 3), -1.0 + 2.0 * _lattice(k, 4))

    def inputs(self, rng) -> Iterator[tuple]:
        k = 0
        while True:
            order, y_mod, theta, sign, xr, xi = self.cell_centre(k % self.cycle)
            y_mod = min(60.0, max(8.0, y_mod * math.exp(_jitter(rng, 0.01))))
            theta = min(math.pi / 2, max(-math.pi / 2, theta + _jitter(rng, 0.01)))
            x = complex(min(3.0, max(-3.0, xr + _jitter(rng, 0.02))),
                        min(1.0, max(-1.0, xi + _jitter(rng, 0.01))))
            yield x, sign * y_mod * cmath.exp(1j * theta), order
            k += 1

    def call(self, api: Api, item):
        x, y, order = item
        return api.asymptotic(x, y, order)

    def value(self, result) -> complex:
        return result.value

    def check(self, item, result, refs) -> Verdict:
        x, y, order = item
        reference = refs.get(x, y)
        err = rel_err(result.value, reference)
        problem = None
        if not err <= EXPANSION_GROSS:
            problem = (f"expansion at x={x!r}, y={y!r}, order {order} is "
                       f"{err:.3g} from reference")
        return Verdict(digits_of(err), problem)

    def probe(self, item) -> str:
        x, y, order = item
        return f"import pearcey\npearcey.pearcey_asymptotic({x!r}, {y!r}, {order!r})\n"


class OracleContour:
    """Default contour pearcey_quadrature(x, y) over the whole domain.

    The first ``census`` calls are the first 300 points of a Kronecker
    lattice over the domain, the same for every seed; after them every
    call draws a fresh uniform point from the seed, so points never
    repeat.  Whether a call near the failing region converges can turn on
    the last bit of its input, so only exact, seed-independent inputs give
    a failure count that repeats from run to run: the census is what the
    result line's ``attempted`` and ``failed`` count.

    The domain keeps the region where the x-blind contour raises
    ConvergenceError on purpose: do not narrow it or pick seeds to hide it.
    """

    name = "oracle-contour"
    cycle = 50  # calls per step of the run's end; the points never repeat
    census = 300
    window = 20 * cycle
    check_count = census

    def census_point(self, k: int):
        x_im = -5.0 + 10.0 * _lattice(k, 1) if k % 2 else 0.0
        x = complex(-30.0 + 60.0 * _lattice(k, 0), x_im)
        y_mod = 50.0 * (1.0 - _lattice(k, 2))
        return x, y_mod * cmath.exp(1j * (-math.pi + 2.0 * math.pi * _lattice(k, 3)))

    def inputs(self, rng) -> Iterator[tuple]:
        fresh = self._fresh(rng)
        yield next(fresh)  # the warm-up call
        for k in range(self.census):
            yield self.census_point(k)
        yield from fresh

    def _fresh(self, rng) -> Iterator[tuple]:
        k = 0
        while True:
            x_im = rng.uniform(-5.0, 5.0) if k % 2 else 0.0
            x = complex(rng.uniform(-30.0, 30.0), x_im)
            y = 50.0 * (1.0 - rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            yield x, y
            k += 1

    def call(self, api: Api, item):
        return api.quadrature(*item)

    def value(self, result) -> complex:
        return result

    def check(self, item, result, refs) -> Verdict:
        return _oracle_check(result, refs.get(*item))

    def probe(self, item) -> str:
        x, y = item
        return ("import pearcey\ntry:\n"
                f"    pearcey.pearcey_quadrature({x!r}, {y!r})\n"
                "except pearcey.ConvergenceError:\n    pass\n")


class OracleRealAxis:
    """pearcey_quadrature with the REAL_AXIS strategy over 8 fixed cells.

    Six cells lie near the real y axis with |y| from 1 to 25, two on the
    tables' complex rays pi/4 and -3pi/8 at |y| = 5; x stays near the
    table values.  A call costs 0.4 to 3 s, so calls walk
    the cells in order and a run ends on a whole cycle: every run meets
    the same mix.  Every run makes at least three cycles, and the tail
    is taken over the first three: with eight cost levels, a percentile
    taken over a varying number of calls would jump between cells.
    """

    name = "oracle-real-axis"
    cycle = 8
    census = 3 * cycle
    window = census
    check_count = 10 ** 9  # every call
    _cells = ((1.0, 0.0), (8.0, 0.0), (5.0, 0.25), (2.0, 0.0),
              (25.0, 0.0), (4.0, 0.0), (5.0, -0.375), (14.0, 0.0))

    def inputs(self, rng) -> Iterator[tuple]:
        k = 0
        while True:
            y_mod, arg_pi = self._cells[k % self.cycle]
            x = complex(-3.0 + 6.0 * _lattice(k % self.cycle, 3) + _jitter(rng, 0.05),
                        _jitter(rng, 0.1))
            y_mod *= math.exp(_jitter(rng, 0.02))
            arg_pi += _jitter(rng, 0.005)
            yield x, y_mod * cmath.exp(1j * math.pi * arg_pi)
            k += 1

    def call(self, api: Api, item):
        return api.quadrature(*item, api.real_axis)

    def value(self, result) -> complex:
        return result

    def check(self, item, result, refs) -> Verdict:
        return _oracle_check(result, refs.get(*item))

    def probe(self, item) -> str:
        x, y = item
        return ("import pearcey\n"
                "config = pearcey.QuadratureConfig(strategy=pearcey.REAL_AXIS)\n"
                f"pearcey.pearcey_quadrature({x!r}, {y!r}, config)\n")


# The paper's grids: rows (label, |y|, arg y / pi) and the frozen relative
# errors of the order-0..5 expansion against the oracle, as in the
# acceptance gate (tests/test_acceptance.py).
PAPER_ROWS = {
    1: (1.0, (("5", 5.0, 0.0), ("10", 10.0, 0.0),
              ("20e^{i*pi/4}", 20.0, 0.25), ("20e^{-3i*pi/8}", 20.0, -0.375),
              ("30", 30.0, 0.0), ("40", 40.0, 0.0), ("50", 50.0, 0.0))),
    2: (-2.0, (("5", 5.0, 0.0), ("10", 10.0, 0.0),
               ("20e^{i*pi/8}", 20.0, 0.125), ("30e^{i*pi/4}", 30.0, 0.25),
               ("30e^{-3i*pi/8}", 30.0, -0.375), ("40", 40.0, 0.0),
               ("50", 50.0, 0.0))),
}

FROZEN = {
    1: {
        "5": [0.222317, 0.101075, 0.0000918203, 0.00372178, 0.000876593, 0.00302324],
        "10": [0.0316421, 0.00261898, 0.00112219, 0.000403251, 0.0000783942, 0.0000639694],
        "20e^{i*pi/4}": [0.0292638, 0.00517274, 0.000228056, 0.0000486543,
                         0.0000154281, 4.73317e-6],
        "20e^{-3i*pi/8}": [0.0296318, 0.00517473, 0.000223576, 0.0000434364,
                           0.0000166979, 5.11767e-6],
        "30": [0.00299077, 0.00224863, 0.0000906066, 8.36063e-6, 2.84074e-6, 5.29933e-7],
        "40": [0.0413675, 0.00287761, 0.0000658777, 0.0000213951, 1.41449e-6, 3.58447e-7],
        "50": [0.0291708, 0.00152467, 0.0000388369, 0.0000100058, 4.79637e-7, 1.23074e-7],
    },
    2: {
        "5": [0.137947, 0.0410408, 0.0115823, 0.00357474, 0.0159012, 0.00749881],
        "10": [0.0443761, 0.0102376, 0.00254929, 0.000330121, 0.00115553, 0.000371235],
        "20e^{i*pi/8}": [0.0312556, 0.00192754, 0.00045748, 0.000173494,
                         0.00006291, 0.0000168014],
        "30e^{i*pi/4}": [0.0237833, 0.00108374, 0.000209653, 0.0000599538,
                         0.0000165985, 3.36842e-6],
        "30e^{-3i*pi/8}": [0.023678, 0.00109324, 0.000206658, 0.0000588055,
                           0.0000164115, 3.3194e-6],
        "40": [0.023888, 7.5983e-6, 0.000110305, 0.0000383009, 2.30021e-6, 1.02546e-6],
        "50": [0.00206123, 0.000599664, 0.0000920699, 6.27624e-7, 3.52299e-6, 5.09017e-7],
    },
}


def frozen_cell_problem(table: int, label: str, order: int, err: float) -> str | None:
    """The acceptance gate's rule: 5% at or above 1e-6, a factor 2 below."""
    expected = FROZEN[table][label][order]
    if expected >= 1e-6:
        ok = abs(err - expected) <= 0.05 * expected
    else:
        ok = 0.5 <= err / expected <= 2.0
    if ok:
        return None
    return (f"table {table} cell (y={label}, n={order}): {err:.6g} "
            f"against frozen {expected:.6g}")


def _paper_y(y_mod: float, arg_pi: float) -> complex:
    # the same arithmetic as the CLI's --y-mod/--y-arg-pi
    return y_mod * cmath.exp(1j * math.pi * arg_pi)


class PaperTables:
    """pearcey.cli.main in process: both paper tables and eval --json per row.

    One pass is ``table --paper-table 1``, ``table --paper-table 2`` and
    ``eval --json --order n`` at each of the 14 rows.  The seed sets the
    order at each row; it advances by one per pass, so six passes visit
    every (row, order) cell.  At |y| = 5 ``--method auto`` takes the
    contour oracle, elsewhere the expansion.
    """

    name = "paper-tables"
    cycle = 16
    census = 6 * cycle
    window = 20 * cycle
    check_count = census

    def inputs(self, rng) -> Iterator[tuple]:
        shift = rng.randrange(6)
        passes = 0
        while True:
            for table in (1, 2):
                yield ("table", table, None, None), ["table", "--paper-table", str(table)]
            for table, (x, rows) in PAPER_ROWS.items():
                for i, (label, y_mod, arg_pi) in enumerate(rows):
                    order = (shift + passes + i) % 6
                    argv = ["eval", "--json", "--x", repr(x), "--y-mod", repr(y_mod),
                            "--y-arg-pi", repr(arg_pi), "--order", str(order)]
                    yield ("eval", table, label, order), argv
            passes += 1

    def call(self, api: Api, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli_main(item[1])
        return code, out.getvalue()

    def value(self, result) -> complex:
        code, text = result
        if code != 0:
            return complex(math.nan)
        if text.startswith("{"):
            fields = json.loads(text)["value"]
            return complex(fields["re"], fields["im"])
        return complex(0)  # a table has no single value; check() reads its cells

    def check(self, item, result, refs) -> Verdict:
        (kind, table, label, order), _ = item
        code, text = result
        x, rows = PAPER_ROWS[table]
        if kind == "table":
            return Verdict(None, self._check_table(table, text))
        fields = json.loads(text)
        y_mod, arg_pi = next((m, a) for lab, m, a in rows if lab == label)
        reference = refs.get(x, _paper_y(y_mod, arg_pi))
        value = complex(fields["value"]["re"], fields["value"]["im"])
        if fields["method"] == "quadrature":
            return _oracle_check(value, reference)
        err = rel_err(value, reference)
        return Verdict(digits_of(err), frozen_cell_problem(table, label, order, err))

    def _check_table(self, table: int, text: str) -> str | None:
        lines = text.strip().splitlines()
        if lines[0] != "y_label,n,rel_error":
            return f"table {table}: unexpected header {lines[0]!r}"
        seen = set()
        for line in lines[1:]:
            label, order, err = line.rsplit(",", 2)
            problem = frozen_cell_problem(table, label, int(order), float(err))
            if problem:
                return problem
            seen.add((label, int(order)))
        if seen != {(label, n) for label in FROZEN[table] for n in range(6)}:
            return f"table {table}: cells missing or extra"
        return None

    def probe(self, item) -> str:
        return ("import contextlib, io\nimport pearcey.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    pearcey.cli.main({item[1]!r})\n")


WORKLOADS = {w.name: w for w in (ExpansionGrid(), PaperTables(),
                                 OracleContour(), OracleRealAxis())}
