"""Spans around the calls the benchmark makes into each module, and their
reduction to per-layer metrics.

The engine looks up ``forward``, ``harvest``, ``build_constraint``,
``schedule_pop`` and ``SolverRequest`` as module globals at call time, and
the influence and ACDP code do the same for ``shap_matrix`` and
``concrete_forward``, so a traced run swaps those globals for timing wrappers
and puts them back afterwards.  Nothing under ``src/`` is changed.  Spans stay
in memory; the runner writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from unittest import mock

import numpy as np

from attnconcolic import acdp, engine, influence, solver

# Every per-layer metric a traced run reports, with its unit.  BENCHMARK.json
# lists the ones in_result_line keeps; the self-test keeps the two in step.
PER_LAYER_UNITS = {
    "semantics.forward.calls": "count",
    "semantics.forward.s": "s",
    "semantics.forward.ms_p50": "ms",
    "semantics.forward.events_mean": "count",
    "engine.confirm.s": "s",
    "symexpr.item_nodes_mean": "count",
    "symexpr.item_nodes_max": "count",
    "engine.iterations": "count",
    "engine.harvest.s": "s",
    "engine.harvest.items": "count",
    "engine.pop.s": "s",
    "engine.queue_len_max": "count",
    "engine.build.s": "s",
    "engine.build.skipped": "count",
    "engine.s": "s",
    "engine.self_s": "s",
    "solver.request.s": "s",
    "solver.check.calls": "count",
    "solver.check.s": "s",
    "solver.check.self_s": "s",
    "solver.check.ms_p50": "ms",
    "solver.check.ms_p99": "ms",
    "solver.sat": "count",
    "solver.unsat": "count",
    "solver.unknown": "count",
    "solver.timeout": "count",
    "solver.solver_error": "count",
    "solver.sat_ratio": "ratio",
    "solver.conjuncts_mean": "count",
    "solver.conjuncts_max": "count",
    "solver.emit.s": "s",
    "solver.script_bytes_mean": "bytes",
    "solver.script_bytes_max": "bytes",
    "refsolver.spawn_s": "s",
    "refsolver.wait_s": "s",
    "refsolver.child_cpu_s": "s",
    "influence.build.s": "s",
    "influence.build.self_s": "s",
    "influence.shap.s": "s",
    "influence.shap.self_s": "s",
    "influence.coalition_rows": "count",
    "influence.forward.s": "s",
    "acdp.relevance.s": "s",
    "acdp.relevance.self_s": "s",
    "acdp.shap.s": "s",
    "acdp.abstract_path.s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
# Depths with their own influence.shap.d<k>.s time and d<k>.share of all
# influence.shap time; the deepest model in the workloads (deep-1px) scores
# four grids.
SHAP_DEPTHS = 4
for _depth in range(SHAP_DEPTHS):
    PER_LAYER_UNITS[f"influence.shap.d{_depth}.s"] = "s"
    PER_LAYER_UNITS[f"influence.shap.d{_depth}.share"] = "ratio"
# Each span's self time as a share of all traced time, so the split of an
# operation over the layers reads directly.
SPAN_SHARES = {
    "semantics.forward": "semantics.forward.self_share",
    "engine.confirm": "engine.confirm.self_share",
    "engine.harvest": "engine.harvest.self_share",
    "engine.pop": "engine.pop.self_share",
    "engine.build": "engine.build.self_share",
    "engine.run_attack": "engine.self_share",
    "solver.request": "solver.request.self_share",
    "solver.check": "solver.check.self_share",
    "solver.emit": "solver.emit.self_share",
    "influence.build": "influence.build.self_share",
    "influence.shap": "influence.shap.self_share",
    "influence.forward": "influence.forward.self_share",
    "acdp.relevance": "acdp.relevance.self_share",
    "acdp.shap": "acdp.shap.self_share",
    "acdp.abstract_path": "acdp.abstract_path.self_share",
}
PER_LAYER_UNITS.update({share: "ratio" for share in SPAN_SHARES.values()})
TIME_UNITS = ("s", "ms")


def in_result_line(name: str) -> bool:
    """Whether the traced run's JSON result line carries a metric: every
    count, ratio and size does, no time does.  Each workload leaves some
    layers idle (no attack in shapley-8x8, no solver process outside
    smt-1px), and their times would read exactly 0.0 on every run.  The
    times stay in the layer lines; in the result line the self shares and
    depth shares give the split."""
    return PER_LAYER_UNITS[name] not in TIME_UNITS

# span record fields
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent index,
    operation id, note]``; the note holds the counts taken at that boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` inside a span; ``pre(args, kwargs)`` or ``post(args, kwargs,
        result)`` supplies the span's note."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, pre(args, kwargs) if pre else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if post is not None:
                span[NOTE] = post(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, backend):
        """Swap the traced module globals (and ``backend.check``) for spans."""
        symbolic = self.wrap("semantics.forward", engine.forward,
                             post=lambda a, k, out: len(out.events))
        confirm = self.wrap("engine.confirm", engine.forward)

        def forward(model, x, ctx=None):
            # the engine confirms a flip by calling forward on a plain array
            if isinstance(x, np.ndarray):
                return confirm(model, x, ctx)
            return symbolic(model, x, ctx)

        def depth(a, k):
            return k["seed"][1]

        targets = [
            (engine, "run_attack", self.wrap("engine.run_attack", engine.run_attack)),
            (engine, "forward", forward),
            (engine, "harvest", self.wrap(
                "engine.harvest", engine.harvest,
                post=lambda a, k, out: [item.node_count for item in out])),
            (engine, "schedule_pop", self.wrap(
                "engine.pop", engine.schedule_pop, pre=lambda a, k: len(a[0]))),
            (engine, "build_constraint", self.wrap(
                "engine.build", engine.build_constraint,
                post=lambda a, k, out: out is None)),
            (engine, "SolverRequest", self.wrap("solver.request", engine.SolverRequest)),
            (solver, "emit_smtlib", self.wrap(
                "solver.emit", solver.emit_smtlib, post=lambda a, k, out: len(out))),
            (influence, "build_influence_map", self.wrap(
                "influence.build", influence.build_influence_map)),
            (influence, "shap_matrix", self.wrap(
                "influence.shap", influence.shap_matrix, pre=depth)),
            (influence, "concrete_forward", self.wrap(
                "influence.forward", influence.concrete_forward,
                pre=lambda a, k: len(a[1]))),
            (acdp, "relevance", self.wrap("acdp.relevance", acdp.relevance)),
            (acdp, "shap_matrix", self.wrap("acdp.shap", acdp.shap_matrix, pre=depth)),
            (acdp, "abstract_path", self.wrap("acdp.abstract_path", acdp.abstract_path)),
        ]
        if backend is not None:
            targets.append((backend, "check", self.wrap(
                "solver.check", backend.check,
                post=lambda a, k, out: (out.status, len(a[0].assertion)))))
        with patched(targets):
            yield

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "op": op, "note": note}) + "\n")


def patched(targets) -> contextlib.ExitStack:
    """Context that sets each ``(object, attribute, value)`` and restores it."""
    stack = contextlib.ExitStack()
    for obj, attr, value in targets:
        stack.enter_context(mock.patch.object(obj, attr, value))
    return stack


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_layer(spans: list[list], iterations: int, spawn_s: float,
              child_cpu_s: float, external: bool, overhead_ratio: float) -> dict:
    """Reduce spans to the PER_LAYER_UNITS metrics.  Self time is a span's
    duration minus the durations of its direct children."""
    durations: dict[str, list[float]] = {}
    notes: dict[str, list] = {}
    self_s: dict[str, float] = {}
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    shap_by_depth = [0.0] * SHAP_DEPTHS
    coalition_rows = 0
    influence_forward_s = 0.0
    for i, (name, start, end, parent, _, note) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        notes.setdefault(name, []).append(note)
        self_s[name] = self_s.get(name, 0.0) + dur - children[i]
        if name == "influence.shap" and note < SHAP_DEPTHS:
            shap_by_depth[note] += dur
        elif name == "influence.forward" and parent >= 0 \
                and spans[parent][NAME] == "influence.shap":
            coalition_rows += note
            influence_forward_s += dur

    def total(name):
        return sum(durations.get(name, ()))

    forward_ms = [d * 1e3 for d in durations.get("semantics.forward", ())]
    events = notes.get("semantics.forward", [])
    item_nodes = [n for batch in notes.get("engine.harvest", ()) for n in batch]
    checks = notes.get("solver.check", [])
    check_ms = [d * 1e3 for d in durations.get("solver.check", ())]
    statuses = [status for status, _ in checks]
    conjuncts = [count for _, count in checks]
    # emissions inside checks; the pre-flight's own checks are not traced
    emits = [(span[END] - span[START], span[NOTE]) for span in spans
             if span[NAME] == "solver.emit" and span[PARENT] >= 0
             and spans[span[PARENT]][NAME] == "solver.check"]
    emit_s = sum(d for d, _ in emits)
    script_bytes = [n for _, n in emits]
    sat = statuses.count(solver.SAT)
    values = {
        "semantics.forward.calls": len(forward_ms),
        "semantics.forward.s": total("semantics.forward"),
        "semantics.forward.ms_p50": _quantile(forward_ms, 0.5),
        "semantics.forward.events_mean": _mean(events),
        "engine.confirm.s": total("engine.confirm"),
        "symexpr.item_nodes_mean": _mean(item_nodes),
        "symexpr.item_nodes_max": max(item_nodes, default=0),
        "engine.iterations": iterations,
        "engine.harvest.s": total("engine.harvest"),
        "engine.harvest.items": len(item_nodes),
        "engine.pop.s": total("engine.pop"),
        "engine.queue_len_max": max(notes.get("engine.pop", ()), default=0),
        "engine.build.s": total("engine.build"),
        "engine.build.skipped": sum(1 for skipped in notes.get("engine.build", ()) if skipped),
        "engine.s": total("engine.run_attack"),
        "engine.self_s": self_s.get("engine.run_attack", 0.0),
        "solver.request.s": total("solver.request"),
        "solver.check.calls": len(checks),
        "solver.check.s": total("solver.check"),
        "solver.check.self_s": self_s.get("solver.check", 0.0),
        "solver.check.ms_p50": _quantile(check_ms, 0.5),
        "solver.check.ms_p99": _quantile(check_ms, 0.99),
        "solver.sat": sat,
        "solver.unsat": statuses.count(solver.UNSAT),
        "solver.unknown": statuses.count(solver.UNKNOWN),
        "solver.timeout": statuses.count(solver.TIMEOUT),
        "solver.solver_error": statuses.count(solver.SOLVER_ERROR),
        "solver.sat_ratio": sat / len(checks) if checks else 0.0,
        "solver.conjuncts_mean": _mean(conjuncts),
        "solver.conjuncts_max": max(conjuncts, default=0),
        "solver.emit.s": emit_s,
        "solver.script_bytes_mean": _mean(script_bytes),
        "solver.script_bytes_max": max(script_bytes, default=0),
        "refsolver.spawn_s": spawn_s,
        "refsolver.wait_s": total("solver.check") - emit_s if external else 0.0,
        "refsolver.child_cpu_s": child_cpu_s,
        "influence.build.s": total("influence.build"),
        "influence.build.self_s": self_s.get("influence.build", 0.0),
        "influence.shap.s": total("influence.shap"),
        "influence.shap.self_s": self_s.get("influence.shap", 0.0),
        "influence.coalition_rows": coalition_rows,
        "influence.forward.s": influence_forward_s,
        "acdp.relevance.s": total("acdp.relevance"),
        "acdp.relevance.self_s": self_s.get("acdp.relevance", 0.0),
        "acdp.shap.s": total("acdp.shap"),
        "acdp.abstract_path.s": total("acdp.abstract_path"),
        "trace.spans": len(spans),
        "trace.overhead_ratio": overhead_ratio,
    }
    shap_s = sum(shap_by_depth)
    for depth in range(SHAP_DEPTHS):
        values[f"influence.shap.d{depth}.s"] = shap_by_depth[depth]
        values[f"influence.shap.d{depth}.share"] = shap_by_depth[depth] / shap_s if shap_s else 0.0
    traced_s = sum(self_s.values())
    for span, share in SPAN_SHARES.items():
        values[share] = self_s.get(span, 0.0) / traced_s if traced_s else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
