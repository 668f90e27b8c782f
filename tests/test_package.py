"""Package-level tests: the public surface and the benchmark's hook points.

The top-level namespace was cut to the names below on purpose; a new
export has to be added here as well.  The benchmark's tracer
(``bench/spans.py``) wraps module globals by name, so renaming one of
them should fail here, not only in the benchmark's own smoke run.
"""

import collections
import importlib
import pathlib
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import pearcey
import pearcey.asymptotics
import pearcey.cli
import pearcey.quadrature
import pearcey.tables
from pearcey.coefficients import MAX_ORDER

PUBLIC_NAMES = sorted([
    "CONTOUR", "REAL_AXIS", "ConvergenceError", "Dominance",
    "ExpansionResult", "PRESETS", "QuadratureConfig", "Region",
    "build_table", "classify_region", "moment_coeff", "moment_coeff_closed",
    "normalize", "pearcey_asymptotic", "pearcey_bar", "pearcey_quadrature",
    "phase", "relative_error", "saddle_points", "series_coeff",
    "stokes_classification", "table_rows", "tail_decay_rate",
])

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_public_surface():
    assert sorted(pearcey.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(pearcey, name), name


def test_benchmark_hooks_install_and_restore(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    hooked = [(pearcey.asymptotics, "build_table"),
              (pearcey.asymptotics, "prefactor"),
              (pearcey.quadrature, "quad"),
              (mpmath, "quad"),
              (pearcey.cli, "table_rows")]
    for module in (pearcey.tables, pearcey.cli):
        hooked += [(module, "pearcey_asymptotic"), (module, "pearcey_quadrature")]
    originals = [getattr(module, attr) for module, attr in hooked]

    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(hooked, originals):
            assert getattr(module, attr) is not original, f"{attr} not hooked"
        # the traced layer metrics count these spans: one table, and one
        # expansion and one oracle call per row
        assert pearcey.cli.main(["table", "--paper-table", "1"]) == 0
        names = collections.Counter(span.name for span in tracer.spans)
        assert names["tables.table_rows"] == 1
        assert names["asymptotics.pearcey_asymptotic"] == 7
        assert names["quadrature.contour"] == 7
        # every real-axis layer metric is a number: the layer reaches its
        # backend through the hooked mpmath.quad, so none reads null
        start = time.perf_counter_ns()
        assert pearcey.cli.main(["eval", "--x", "1", "--y", "10",
                                 "--method", "quadrature",
                                 "--strategy", "real-axis"]) == 0
        metrics = tracer.layer_metrics(time.perf_counter_ns() - start)
        real_axis = {name: value for name, (value, _) in metrics.items()
                     if name.startswith("quadrature.real_axis.")}
        assert real_axis and all(isinstance(value, (int, float))
                                 for value in real_axis.values()), real_axis
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(hooked, originals):
        assert getattr(module, attr) is original, f"{attr} not restored"


def _table_rows(order):
    spec = pearcey.tables.TableSpec(
        x=1.0, rows=(pearcey.tables.TableRow(10.0, Fraction(0)),),
        orders=(order,))
    return list(pearcey.table_rows(spec))


# Every public function that takes an expansion order or coefficient
# index, called at x = 1 and y = 10, and its cap.  The expansion and the
# table read one coefficient beyond the order; moments run to index 3n.
ORDER_TAKERS = {
    "build_table": (lambda n: pearcey.build_table(1.0, n), MAX_ORDER),
    "series_coeff": (lambda n: pearcey.series_coeff(n, 1.0), MAX_ORDER),
    "moment_coeff": (lambda n: pearcey.moment_coeff(n, 1.0), 3 * MAX_ORDER),
    "moment_coeff_closed": (lambda n: pearcey.moment_coeff_closed(n, 1.0),
                            3 * MAX_ORDER),
    "pearcey_asymptotic": (lambda n: pearcey.pearcey_asymptotic(1.0, 10.0, n),
                           MAX_ORDER - 1),
    "pearcey_branch": (
        lambda n: pearcey.asymptotics.pearcey_branch(1, 1.0, 10.0, n),
        MAX_ORDER),
    "table_rows": (_table_rows, MAX_ORDER - 1),
}


@pytest.mark.parametrize("name", ORDER_TAKERS)
class TestOrderRule:
    """One order rule everywhere: an int, not a bool, from 0 to the cap."""

    @pytest.mark.parametrize("order", [True, False, 2.0, "2", None, -1],
                             ids=repr)
    def test_refused(self, name, order):
        call, _ = ORDER_TAKERS[name]
        with pytest.raises(ValueError, match="order"):
            call(order)

    def test_above_cap_refused(self, name):
        call, cap = ORDER_TAKERS[name]
        with pytest.raises(ValueError, match=f"cap {cap}"):
            call(cap + 1)

    def test_numpy_integer_accepted(self, name):
        call, _ = ORDER_TAKERS[name]
        assert call(np.int64(3)) == call(3)
