"""Outside-in span tracer for chernquad.

The program has no tracing of its own, so the tracer replaces functions
at the import sites their callers look them up in (``HOOKS``) with
timing wrappers, and restores them afterwards.  A span is named after
the function's home module (``curvature.curvature_report_grid``) however
many import sites lead to it.  Spans nest through a stack; a span's self
time is its duration minus the time its child spans cover.  Statistics
stay in memory until the run ends.  A hook point that no longer exists
is reported as absent instead of raising, so a refactor that removes one
does not break the benchmark.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np


def _grid_nodes(args, kwargs, result) -> int:
    # f(field, us, vs): points evaluated
    us = kwargs.get("us", args[1] if len(args) > 1 else None)
    vs = kwargs.get("vs", args[2] if len(args) > 2 else None)
    return int(np.broadcast(np.asarray(us), np.asarray(vs)).size)


def _connection_nodes(args, kwargs, result) -> int:
    # connection_difference(field, field_prime, n_u, n_v)
    n_u = kwargs.get("n_u", args[2] if len(args) > 2 else 0)
    n_v = kwargs.get("n_v", args[3] if len(args) > 3 else 0)
    return int(n_u) * int(n_v)


def _result_nodes(args, kwargs, result) -> int:
    # build_nodes / grid_rows return (us, vs, ...) arrays
    return int(np.size(result[0]))


def _value_nodes(args, kwargs, result) -> int:
    # reduce_sum(values)
    return int(np.size(kwargs.get("values", args[0] if args else ())))


_P = "chernquad."

# (module whose attribute callers look up, attribute, node counter).
# An attribute holding a tuple of functions (verify.CHECKS) has each
# element wrapped.
HOOKS = (
    (_P + "cli", "main", None),
    (_P + "cli", "load_config", None),
    (_P + "experiment", "run", None),  # cli and verify call experiment.run
    (_P + "experiment", "grid_rows", _result_nodes),
    (_P + "experiment", "make_surface", None),
    (_P + "experiment", "custom_surface", None),
    (_P + "experiment", "conformal_surface", None),
    (_P + "experiment", "perturbed_surface", None),
    (_P + "experiment", "twisted_surface", None),
    (_P + "experiment", "octagon_vertices", None),
    (_P + "experiment", "chern_number", None),
    (_P + "experiment", "stokes_residual", None),
    (_P + "experiment", "connection_difference", _connection_nodes),
    (_P + "experiment", "curvature_report_grid", _grid_nodes),
    (_P + "experiment", "build_nodes", _result_nodes),
    # zoo globals, looked up by make_surface, poincare_octagon and the
    # function-level imports in verify
    (_P + "zoo", "sphere", None),
    (_P + "zoo", "torus_revolution", None),
    (_P + "zoo", "flat_torus", None),
    (_P + "zoo", "poincare_octagon", None),
    (_P + "zoo", "octagon_vertices", None),
    (_P + "zoo", "conformal_surface", None),
    (_P + "zoo", "perturbed_surface", None),
    (_P + "zoo", "twisted_surface", None),
    (_P + "chern", "curvature_report_grid", _grid_nodes),
    (_P + "chern", "build_nodes", _result_nodes),
    (_P + "chern", "reduce_sum", _value_nodes),
    (_P + "curvature", "eval_metric_grid", _grid_nodes),
    (_P + "curvature", "eval_metric_jet", None),
    (_P + "metric", "eval_metric_grid", _grid_nodes),  # perturb_metric's SPD probe
    (_P + "metric", "parse", None),
    (_P + "metric", "eval_jet", None),
    (_P + "expressions", "eval_jet", None),  # verify imports it per call
    (_P + "quadrature", "build_nodes", _result_nodes),  # integrate_scalar
    (_P + "quadrature", "reduce_sum", _value_nodes),
    (_P + "verify", "CHECKS", None),
    (_P + "verify", "sphere", None),
    (_P + "verify", "torus_revolution", None),
    (_P + "verify", "flat_torus", None),
    (_P + "verify", "poincare_octagon", None),
    (_P + "verify", "chern_number", None),
    (_P + "verify", "stokes_residual", None),
    (_P + "verify", "curvature_report_grid", _grid_nodes),
    (_P + "verify", "connection_difference", _connection_nodes),
    (_P + "verify", "gauss_curvature_brioschi", None),
    (_P + "verify", "eval_metric_jet", None),
    (_P + "verify", "parse", None),
    (_P + "verify", "build_nodes", _result_nodes),
    (_P + "verify", "reduce_sum", _value_nodes),
    (_P + "verify", "complex_structure", None),
    (_P + "verify", "area_form", None),
    (_P + "verify", "metric_inner", None),
    (_P + "verify", "parallelogram_residual", None),
    (_P + "verify", "bundle_isomorphism", None),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nodes: int = 0


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; ``stats``
    maps span name to accumulated :class:`SpanStats`."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats: dict[str, SpanStats] = {}
        self.absent: set[str] = set()
        self.counts_nodes: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, nodes in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if not hasattr(module, attr):
                self.absent.add(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            if isinstance(original, tuple):
                wrapped = tuple(self._wrap(fn, nodes) for fn in original)
            else:
                wrapped = self._wrap(original, nodes)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._stack.clear()

    def _wrap(self, fn, nodes):
        name = span_name(fn)
        stats = self.stats.setdefault(name, SpanStats())
        if nodes is not None:
            self.counts_nodes.add(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
            if nodes is not None:
                stats.nodes += nodes(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__module__ = fn.__module__
        traced.__wrapped__ = fn
        return traced
