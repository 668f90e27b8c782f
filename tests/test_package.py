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

import mpmath

import pearcey
import pearcey.asymptotics
import pearcey.cli
import pearcey.quadrature
import pearcey.tables

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
