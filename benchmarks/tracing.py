"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` wraps a fixed list of public functions.  ``from .x
import y`` binds a second name for ``y`` in the importing module, so the
wrapper replaces the function under every name that refers to it in any
loaded ``robusttolls`` module, and :meth:`Tracer.restore` puts every one
of them back.  A name that no longer exists is skipped, not an error.

Each call records one span: function name, start, end, parent span, the
benchmark op it ran under, whether it raised, and an optional count
taken from its result.  Spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

PACKAGE = "robusttolls"
# Public functions traced, as "<module>.<function>" under the package.
TARGETS = (
    "network.load_network", "network.validate_network", "network.incidence",
    "equilibrium.kkt_blocks", "equilibrium.nash_flow_potential",
    "equilibrium.nash_flow_closed_form", "equilibrium.equilibrium_latency_g",
    "uncertainty.load_samples", "uncertainty.estimate_nominal",
    "uncertainty.sample_uniform_ball",
    "design.epsilon_max", "design.solve_dro_tolls",
    "optim.solve_lp", "optim.active_set_qp", "optim.solve_composite", "optim.phase_one_point",
    "harness.load_scenario", "harness.run_experiment",
    "cli.main",
)

MODULES = ("network", "equilibrium", "uncertainty", "design", "optim", "harness", "cli")


def _pinned(solution) -> int:
    return int((solution.flow <= 0.0).sum())


# Counts read off a traced function's result at its boundary.
COUNTERS: dict[str, Callable[[object], int]] = {
    "design.solve_dro_tolls": lambda result: int(result.iterations),
    "equilibrium.nash_flow_potential": _pinned,
    "uncertainty.sample_uniform_ball": lambda draws: int(draws.shape[0]),
    "uncertainty.load_samples": lambda samples: int(samples.num_records),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    ok: bool = True
    count: int | None = None


class Tracer:
    """Installs span-recording wrappers into the ``robusttolls`` modules."""

    def __init__(self, targets: tuple[str, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = -1

    def _wrap(self, name: str, func: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target under each name bound to it; skip missing ones."""
        self.skipped = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target in self.targets:
            mod_name, func_name = target.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            func = getattr(home, func_name, None) if home is not None else None
            if func is None:
                self.skipped.append(target)
                continue
            wrapper = self._wrap(target, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, func))

    def restore(self) -> None:
        """Put every replaced name back to the original function."""
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextlib.contextmanager
    def op(self, op_id: int, label: str) -> Iterator[Span]:
        """One benchmark op: a root span named ``op.<label>`` that its calls share."""
        span = Span(f"op.{label}", time.perf_counter(), 0.0, -1, op_id)
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "op": s.op, "ok": s.ok,
                                         "count": s.count}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span], ops: set[int] | None = None) -> dict[str, dict[str, float]]:
    """Per-function calls, busy and self seconds, failures and summed counts.

    With ``ops`` given, only spans recorded under those op ids count.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        if ops is not None and s.op not in ops:
            continue
        row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0, "count": 0})
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += own
        row["fail"] += 0 if s.ok else 1
        row["count"] += s.count or 0
    return out


def calls_under(spans: list[Span], child: str, ancestor: str) -> int:
    """How many ``child`` spans have an ``ancestor`` span somewhere above them."""
    total = 0
    for s in spans:
        if s.name != child:
            continue
        walk = s.parent
        while walk >= 0:
            if spans[walk].name == ancestor:
                total += 1
                break
            walk = spans[walk].parent
    return total
