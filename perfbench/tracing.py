"""Spans around the program's public functions, recorded from outside.

The tracer replaces a public name in the module namespace where its caller
looks it up (``planaratom.numerov.effective_potential`` is the binding the
solver calls, ``planaratom.model.bessel_k0_array`` the one the potential
calls) with a wrapper that records a span: name, start, end, thread CPU
time, parent span and request id. Nothing inside the program is edited and
``uninstall`` puts every original back. Spans stay in memory until
``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import planaratom
import planaratom.cli
import planaratom.model
import planaratom.numerov
import planaratom.observables


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: int | None
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, out):
    result = out[0]
    nodes = args[1] if len(args) > 1 else kwargs.get("node_target", 0)
    return {
        "state": repr((args[0], nodes)),
        "iterations": result.iterations,
        "n_points": result.grid.n_points,
    }


def _k0_attrs(args, kwargs, out):
    return {"points": int(getattr(out, "size", 1))}


# (module, attribute, span name, attribute extractor). Every binding through
# which a layer is entered is listed, so each layer's time is seen whichever
# caller reaches it.
BINDINGS = (
    (planaratom.cli, "main", "cli.main", None),
    (planaratom, "solve_state", "numerov.solve_state", _solve_attrs),
    (planaratom.cli, "solve_state", "numerov.solve_state", _solve_attrs),
    (planaratom, "mean_radius", "observables.mean_radius", None),
    (planaratom.cli, "mean_radius", "observables.mean_radius", None),
    (planaratom.numerov, "effective_potential", "model.effective_potential", None),
    (planaratom.observables, "effective_potential", "model.effective_potential", None),
    (planaratom.model, "bessel_k0_array", "specfun.bessel_k0_array", _k0_attrs),
    (planaratom.numerov, "count_nodes", "numerov.count_nodes", None),
    (planaratom.numerov, "small_rho_solution", "numerov.small_rho_solution", None),
    (planaratom.observables, "small_rho_solution", "numerov.small_rho_solution", None),
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._saved = []

    def set_request(self, request_id: int | None) -> None:
        self._local.request_id = request_id

    def _wrap(self, fn, name, attrs_of):
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(
                next(self._ids),
                stack[-1].span_id if stack else None,
                getattr(local, "request_id", None),
                name,
                time.perf_counter(),
            )
            cpu0 = time.thread_time()
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                with self._lock:
                    self._spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, attrs_of in BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], overhead_s: float, scale: dict) -> dict:
    """Per-layer figures, each time and count given per solved state.

    ``scale`` maps a request id to the host-speed factor of the step that
    ran it (see ``hostspeed``); every span time is multiplied by it.
    """

    def dur(s):
        return (s.end - s.start) * scale.get(s.request_id, 1.0)

    children: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            # children of one span run one after another on its thread
            children[s.parent_id] = children.get(s.parent_id, 0.0) + dur(s)

    def total(name):
        return sum(dur(s) for s in spans if s.name == name)

    def self_time(name):
        return sum(dur(s) - children.get(s.span_id, 0.0) for s in spans if s.name == name)

    solves = [s for s in spans if s.name == "numerov.solve_state"]
    n = max(len(solves), 1)
    ms = 1e3 / n

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "numerov.solve_state_ms": metric(total("numerov.solve_state") * ms, "ms"),
        "numerov.self_ms": metric(self_time("numerov.solve_state") * ms, "ms"),
        "numerov.solve_wait_ms": metric(
            sum(dur(s) - s.cpu * scale.get(s.request_id, 1.0) for s in solves) * ms, "ms"
        ),
        "numerov.bisections_per_state": metric(
            sum(s.attrs.get("iterations", 0) for s in solves) / n, "count"
        ),
        "numerov.grid_points_per_state": metric(
            sum(s.attrs.get("n_points", 0) for s in solves) / n, "count"
        ),
        "numerov.count_nodes_ms": metric(total("numerov.count_nodes") * ms, "ms"),
        "numerov.small_rho_solution_calls": metric(
            sum(1 for s in spans if s.name == "numerov.small_rho_solution") / n, "count"
        ),
        "specfun.bessel_k0_array_ms": metric(total("specfun.bessel_k0_array") * ms, "ms"),
        "specfun.k0_points": metric(
            sum(
                s.attrs.get("points", 0) for s in spans if s.name == "specfun.bessel_k0_array"
            ) / n,
            "count",
        ),
        "model.effective_potential_ms": metric(
            total("model.effective_potential") * ms, "ms"
        ),
        "model.self_ms": metric(self_time("model.effective_potential") * ms, "ms"),
        "observables.mean_radius_ms": metric(total("observables.mean_radius") * ms, "ms"),
        "observables.self_ms": metric(self_time("observables.mean_radius") * ms, "ms"),
        "cli.self_ms": metric(self_time("cli.main") * ms, "ms"),
        "cli.distinct_state_ratio": metric(
            len({s.attrs.get("state") for s in solves}) / n, "ratio"
        ),
        "trace.overhead_s": metric(overhead_s, "s"),
    }
