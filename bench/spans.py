"""Spans and counters around the package's layers, installed from outside.

``Tracer.install`` replaces each function where its callers look it up
(a module global), so calls cannot go around the wrapper:

    pearcey.asymptotics.build_table          -> coefficients.build_table
    pearcey.asymptotics.prefactor            -> asymptotics.prefactor
    pearcey.{tables,cli}.pearcey_asymptotic  -> asymptotics.pearcey_asymptotic
    pearcey.{tables,cli}.pearcey_quadrature  -> quadrature.contour / .real_axis
    pearcey.cli.table_rows                   -> tables.table_rows

The benchmark's own call sites (``Tracer.api``) add the top-level spans,
including ``cli.main``.  Backend counters wrap ``pearcey.quadrature.quad``
(scipy) and ``mpmath.quad``: they count calls and integrand evaluations
and charge them to the innermost open quadrature span.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from time import perf_counter_ns

from workloads import is_finite

_QUADRATURE = ("quadrature.contour", "quadrature.real_axis")

# Per-layer metrics: (metric name, unit, better).
PER_LAYER = [
    ("coefficients.build_table.calls", "count", "higher"),
    ("coefficients.build_table.self_ms", "ms/call", "lower"),
    ("coefficients.build_table.share", "fraction", "lower"),
    ("coefficients.build_table.repeat_frac", "fraction", "higher"),
    ("asymptotics.prefactor.calls", "count", "higher"),
    ("asymptotics.prefactor.self_ms", "ms/call", "lower"),
    ("asymptotics.pearcey_asymptotic.calls", "count", "higher"),
    ("asymptotics.pearcey_asymptotic.self_ms", "ms/call", "lower"),
    ("asymptotics.pearcey_asymptotic.share", "fraction", "lower"),
    ("quadrature.contour.calls", "count", "higher"),
    ("quadrature.contour.self_ms", "ms/call", "lower"),
    ("quadrature.contour.integrand_evals", "1/call", "lower"),
    ("quadrature.contour.backend_calls", "1/call", "lower"),
    ("quadrature.contour.fail_frac", "fraction", "lower"),
    ("quadrature.real_axis.calls", "count", "higher"),
    ("quadrature.real_axis.self_ms", "ms/call", "lower"),
    ("quadrature.real_axis.integrand_evals", "1/call", "lower"),
    ("quadrature.real_axis.refinements", "1/call", "lower"),
    ("quadrature.real_axis.fail_frac", "fraction", "lower"),
    ("tables.table_rows.self_ms", "ms/call", "lower"),
    ("cli.main.self_ms", "ms/call", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


@dataclass
class Span:
    name: str
    parent: int | None
    start: int = 0
    end: int = 0
    failed: bool = False
    key: object = None
    counters: dict = field(default_factory=dict)


def _quadrature_layer(args, kwargs) -> str:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    if config is not None and config.strategy == "real-axis":
        return "quadrature.real_axis"
    return "quadrature.contour"


def _failed(result) -> bool:
    value = getattr(result, "value", result)
    return isinstance(value, complex) and not is_finite(value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str, key=None) -> int:
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None, key=key)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, key=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self._open(label, key(args) if key else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index].failed = True
                raise
            finally:
                self._close(index)
            self.spans[index].failed = _failed(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose span runs from first item to exhaustion."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def count(self, counter: str, fn):
        """``fn`` counting its calls and the evaluations of its integrand."""

        @functools.wraps(fn)
        def counted(integrand, *args, **kwargs):
            span = next((self.spans[i] for i in reversed(self._stack)
                         if self.spans[i].name in _QUADRATURE), None)
            if span is None:
                return fn(integrand, *args, **kwargs)
            counters = span.counters
            counters[counter + ".calls"] = counters.get(counter + ".calls", 0) + 1
            evals = counter + ".evals"
            counters.setdefault(evals, 0)

            def counted_integrand(*a, **k):
                counters[evals] += 1
                return integrand(*a, **k)

            return fn(counted_integrand, *args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import mpmath
        import pearcey.asymptotics
        import pearcey.cli
        import pearcey.quadrature
        import pearcey.tables

        asym, tables, cli = pearcey.asymptotics, pearcey.tables, pearcey.cli
        self._patch(asym, "build_table",
                    self.wrap("coefficients.build_table", asym.build_table,
                              key=lambda a: (complex(a[0]), a[1])))
        self._patch(asym, "prefactor", self.wrap("asymptotics.prefactor", asym.prefactor))
        for module in (tables, cli):
            self._patch(module, "pearcey_asymptotic",
                        self.wrap("asymptotics.pearcey_asymptotic",
                                  module.pearcey_asymptotic))
            self._patch(module, "pearcey_quadrature",
                        self.wrap(_quadrature_layer, module.pearcey_quadrature))
        self._patch(cli, "table_rows", self.wrap_generator("tables.table_rows", cli.table_rows))
        self._patch(pearcey.quadrature, "quad", self.count("scipy", pearcey.quadrature.quad))
        self._patch(mpmath, "quad", self.count("mpmath", mpmath.quad))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def api(self, api):
        """The benchmark's own call sites, wrapped in top-level spans."""
        return type(api)(
            asymptotic=self.wrap("asymptotics.pearcey_asymptotic", api.asymptotic),
            quadrature=self.wrap(_quadrature_layer, api.quadrature),
            cli_main=self.wrap("cli.main", api.cli_main),
            real_axis=api.real_axis)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[int]:
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def layer_metrics(self, wall_ns: int) -> dict:
        """Per-layer metrics over every span recorded, as ``PER_LAYER`` names."""
        own = self.self_times()
        layers: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, own):
            layer = layers.setdefault(span.name, {"calls": 0, "self_ns": 0, "failed": 0,
                                                  "keys": set(), "repeats": 0,
                                                  "counters": {}})
            layer["calls"] += 1
            layer["self_ns"] += self_ns
            layer["failed"] += span.failed
            if span.key is not None:
                layer["repeats"] += span.key in layer["keys"]
                layer["keys"].add(span.key)
            for counter, value in span.counters.items():
                layer["counters"][counter] = layer["counters"].get(counter, 0) + value

        def stat(layer_name: str, metric: str):
            layer = layers.get(layer_name)
            calls = layer["calls"] if layer else 0
            if metric == "calls":
                return calls
            if not calls:
                return 0.0
            if metric == "self_ms":
                return layer["self_ns"] / calls / 1e6
            if metric == "share":
                return layer["self_ns"] / wall_ns
            if metric == "repeat_frac":
                return layer["repeats"] / calls
            if metric == "fail_frac":
                return layer["failed"] / calls
            backend = "scipy" if layer_name == "quadrature.contour" else "mpmath"
            backend_calls = layer["counters"].get(backend + ".calls")
            if backend_calls is None:
                return None  # the layer ran without touching its backend
            if metric == "backend_calls":
                return backend_calls / calls
            if metric == "refinements":
                return (backend_calls - calls) / calls
            return layer["counters"][backend + ".evals"] / calls  # integrand_evals

        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            layer_name, metric = name.rsplit(".", 1)
            metrics[name] = (stat(layer_name, metric), unit)
        return metrics

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": span.name,
                                         "start_ns": span.start, "end_ns": span.end,
                                         "parent": span.parent, "failed": span.failed,
                                         "counters": span.counters}) + "\n")
