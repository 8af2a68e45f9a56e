"""Influence-guided concolic search for label flips.

The loop alternates a concolic forward pass with SMT solving: bypassed
branches become work items (path prefix conjoined with the negated branch),
a scheduler picks the next item, a SAT solution is adopted as the next
concrete input, and any claimed flip is validated by a plain concrete
re-execution before being reported.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .influence import InfluenceMap, branch_influence
from .semantics import ConcolicArray, ModelSpec, concrete_label, forward
from .solver import (
    SAT,
    SOLVER_ERROR,
    UNKNOWN,
    UNSAT,
    Backend,
    TIMEOUT as SOLVER_TIMEOUT,
    SolverError,
    SolverRequest,
    assignment_satisfies,
)
from .symexpr import BranchEvent, Comparison, ExecutionContext

__all__ = [
    "AttackResult",
    "PathTree",
    "RunStats",
    "Scheduler",
    "WorkItem",
    "attack_result_to_json",
    "build_constraint",
    "check_pixels",
    "harvest",
    "make_symbolic_input",
    "normalize_domains",
    "run_attack",
    "schedule_pop",
]

SUCCESS = "success"
EXHAUSTED = "exhausted"
TIMEOUT = "timeout"

# each verdict status names the RunStats field that counts it
_VERDICTS = (SAT, UNSAT, UNKNOWN, SOLVER_TIMEOUT, SOLVER_ERROR)

_log = logging.getLogger("attnconcolic")


@dataclass(frozen=True)
class Scheduler:
    """Queue discipline: FIFO, influence-priority, layer-then-influence, or
    influence-priority with a per-constraint build-time cap.  Each policy
    has a constructor of its name."""

    POLICIES: ClassVar[tuple[str, ...]] = ("fifo", "pq", "pq_layers", "pq_capped")
    policy: str
    build_cap_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policy not in self.POLICIES:
            raise ValueError(f"unknown scheduling policy {self.policy!r}")

    @classmethod
    def fifo(cls) -> "Scheduler":
        return cls("fifo")

    @classmethod
    def pq(cls) -> "Scheduler":
        return cls("pq")

    @classmethod
    def pq_layers(cls) -> "Scheduler":
        return cls("pq_layers")

    @classmethod
    def pq_capped(cls, cap_s: float = 30.0) -> "Scheduler":
        return cls("pq_capped", build_cap_s=cap_s)


@dataclass(frozen=True)
class WorkItem:
    """One bypassed branch: the path prefix in taken polarity conjoined with
    the negated guard, each the event's ``p relop 0``, plus scheduling
    metadata.  ``node_count`` is the number of literals: a forward's guard
    ``p`` is one polynomial leaf, one expression node per literal."""

    constraint: tuple[Comparison, ...]
    influence: float
    layer_index: int
    node_count: int
    ordinal: int


@dataclass
class RunStats:
    iterations: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    timeout: int = 0
    solver_error: int = 0
    generated_constraints: int = 0
    solved_constraints: int = 0
    skipped_builds: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    outcome: str = ""


@dataclass
class AttackResult:
    seed: np.ndarray
    pixel_indices: tuple[int, ...]
    domains: tuple[tuple[float, float], ...]
    original_label: int
    flipped_label: Optional[int]
    adversarial: Optional[np.ndarray]
    stats: RunStats
    pop_trace: tuple[tuple[int, float], ...] = ()
    paths: tuple[tuple, ...] = ()


class PathTree:
    """Tree of guard outcomes across all executed paths and enqueued
    branches, rooted at node 0.

    Edges are keyed by (guard key, outcome).  A branch gets its edge when a
    run takes it or when it is enqueued, so no (prefix node, predicate) pair
    is enqueued twice, and a run that takes an enqueued branch reaches the
    node its enqueuing made.
    """

    def __init__(self) -> None:
        self.children: list[dict[tuple, int]] = [{}]
        self.next_ordinal: int = 0

    def child(self, node: int, edge: tuple) -> int:
        nxt = self.children[node].get(edge)
        if nxt is None:
            nxt = len(self.children)
            self.children.append({})
            self.children[node][edge] = nxt
        return nxt


def harvest(events: Sequence[BranchEvent], influence_map: InfluenceMap,
            tree: PathTree) -> list[WorkItem]:
    """Turn one run's bypassed branches into deduplicated work items.

    Walks the events in order, extending the path tree along the taken
    outcomes; each bypassed branch without an edge yet gets one and yields an
    item whose constraint conjoins all ancestor literals with the bypassed
    predicate and whose influence is frozen from the seed-input influence map.
    """
    items: list[WorkItem] = []
    node = 0
    prefix: list[Comparison] = []
    for event in events:
        guard_key = event.guard.key()
        bypass_edge = (guard_key, not event.taken)
        if bypass_edge not in tree.children[node]:
            tree.child(node, bypass_edge)
            items.append(WorkItem(
                constraint=(*prefix, event.bypassed_predicate),
                influence=branch_influence(event, influence_map),
                layer_index=event.layer_index,
                node_count=len(prefix) + 1,
                ordinal=tree.next_ordinal,
            ))
            tree.next_ordinal += 1
        node = tree.child(node, (guard_key, event.taken))
        prefix.append(event.taken_literal())
    return items


def build_constraint(item: WorkItem, cap_seconds: Optional[float] = None
                     ) -> Optional[tuple[Comparison, ...]]:
    """The item's conjunction, whose conjuncts arrive normalized to ``p relop
    0`` from the events; returns None (skipped) if sizing its operand graph
    exceeds the cap."""
    if cap_seconds is None:
        return item.constraint
    deadline = time.monotonic() + cap_seconds
    # size the conjunction, checking the clock as we walk
    seen: set[int] = set()
    stack = [cmp.p for cmp in item.constraint]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.args)
        if len(seen) % 2048 == 0 and time.monotonic() >= deadline:
            return None
    return None if time.monotonic() >= deadline else item.constraint


def _pop_key(item: WorkItem, policy: str):
    if policy == "fifo":
        return (item.ordinal,)
    if policy == "pq_layers":
        return (item.layer_index, -item.influence, item.ordinal)
    return (-item.influence, item.ordinal)  # pq and pq_capped


def schedule_pop(queue: list[WorkItem], scheduler: Scheduler) -> WorkItem:
    """Remove and return the next item under the scheduler's policy."""
    if not queue:
        raise ValueError("schedule_pop on an empty queue")
    best = min(range(len(queue)), key=lambda i: _pop_key(queue[i], scheduler.policy))
    return queue.pop(best)


def make_symbolic_input(x: np.ndarray, pixel_indices: Sequence[int],
                        ctx: ExecutionContext) -> ConcolicArray:
    """Concolic input array: the chosen flat pixels become symbolic variables
    seeded at their current concrete values."""
    value = np.asarray(x, dtype=float)
    names = tuple(f"p{idx}" for idx in pixel_indices)
    coef = np.concatenate([value.reshape(-1, 1), np.zeros((value.size, len(names)))], axis=1)
    for a, idx in enumerate(pixel_indices):
        ctx.symvar(names[a], coef[idx, 0])
        coef[idx, [0, 1 + a]] = 0.0, 1.0
    return ConcolicArray(value, coef.reshape(value.shape + (-1,)), names)


def check_pixels(pixels: Sequence[int], size: int) -> tuple[int, ...]:
    """The flat indices of the pixels to perturb in an input of ``size``
    pixels; ValueError unless there is at least one, none repeats and each is
    an integer in ``0..size-1``."""
    try:
        pixels = tuple(map(operator.index, pixels))
    except TypeError:
        raise ValueError(f"{pixels!r} holds a pixel index that is not an integer") from None
    if not pixels:
        raise ValueError("at least one pixel to perturb is required")
    if len(set(pixels)) != len(pixels) or any(not 0 <= p < size for p in pixels):
        raise ValueError(f"{list(pixels)} repeats an index or leaves 0..{size - 1}")
    return pixels


def normalize_domains(domain, n_pixels: int) -> tuple[tuple[float, float], ...]:
    """One ``(lo, hi)`` pair per pixel, from a single pair of numbers for all
    (any sequence of two) or one per pixel; ValueError for any other shape,
    or unless each is finite with ``lo <= hi``."""
    pairs = np.asarray(domain, dtype=float)
    if pairs.shape == (2,):
        pairs = np.tile(pairs, (n_pixels, 1))
    if pairs.shape != (n_pixels, 2):
        raise ValueError("one (lo, hi) pair per perturbed pixel required")
    domains = tuple(map(tuple, pairs.tolist()))
    for lo, hi in domains:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError(f"[{lo}, {hi}] is not a finite interval")
    return domains


def run_attack(model: ModelSpec, influence_map: InfluenceMap, seed,
               pixels: Sequence[int], domain=(0.0, 1.0),
               scheduler: Optional[Scheduler] = None,
               wall_budget_s: Optional[float] = None, *,
               backend: Backend, solver_timeout_s: float = 60.0) -> AttackResult:
    """Search for a label flip by perturbing the chosen pixels within bounds.

    The original label is ``concrete_label`` of the seed.  Each iteration runs
    the concolic forward at the current input and checks for a flip, harvests
    the bypassed branches, then pops and solves them per scheduler until a
    SAT model is adopted as the next input.  The attack stops, in this order
    of checks: ``success`` on a flip that ``concrete_label`` confirms;
    ``timeout`` on a budget spent at the end of an iteration, also right
    after an adoption; on a queue drained without an adoption,
    ``solver_error`` if any check came back ``solver_error`` (the queue was
    not searched), else ``exhausted``.
    ``wall_budget_s`` (None for no budget) and ``solver_timeout_s`` are
    seconds above 0, inf allowed; anything else, NaN included, is a ValueError.
    """
    if wall_budget_s is not None and not wall_budget_s > 0.0:
        raise ValueError(f"wall budget {wall_budget_s!r} is not a positive number of seconds")
    if not solver_timeout_s > 0.0:
        raise ValueError(f"solver timeout {solver_timeout_s!r} is not a positive number of seconds")
    scheduler = scheduler if scheduler is not None else Scheduler.pq()
    seed_arr = np.asarray(seed, dtype=float)
    if seed_arr.shape != model.shapes[0]:
        raise ValueError(
            f"seed shape {seed_arr.shape} does not match model input {model.shapes[0]}")
    if not np.isfinite(seed_arr).all():
        raise ValueError("seed entries must be finite numbers")
    pixels = check_pixels(pixels, seed_arr.size)
    domains = normalize_domains(domain, len(pixels))
    var_names = [f"p{p}" for p in pixels]
    variables = tuple((name, lo, hi)
                      for name, (lo, hi) in zip(var_names, domains))

    stats = RunStats()
    tree = PathTree()
    queue: list[WorkItem] = []
    pop_trace: list[tuple[int, float]] = []
    paths: list[tuple] = []
    x_cur = seed_arr.copy()
    flipped: Optional[int] = None
    adversarial: Optional[np.ndarray] = None
    start_wall = time.monotonic()
    start_cpu = time.process_time()
    y0 = concrete_label(model, seed_arr)

    def remaining() -> float:  # seconds left of the wall budget
        return math.inf if wall_budget_s is None else \
            wall_budget_s - (time.monotonic() - start_wall)

    while True:
        stats.iterations += 1
        ctx = ExecutionContext()
        result = forward(model, make_symbolic_input(x_cur, pixels, ctx), ctx)
        # control-path signature: guard sites execute in a fixed order, so the
        # outcome sequence identifies the concrete path (guard formulas differ
        # across inputs once softmax constants are baked in)
        paths.append(tuple((e.layer_index, e.taken) for e in result.events))
        # the instrumented label screens; the reference semantics decides
        if result.label != y0 and (confirm := concrete_label(model, x_cur)) != y0:
            adversarial, flipped, outcome = x_cur.copy(), confirm, SUCCESS
            break

        new_items = harvest(result.events, influence_map, tree)
        stats.generated_constraints += len(new_items)
        queue.extend(new_items)

        candidate = None
        while candidate is None and queue and remaining() > 0.0:
            item = schedule_pop(queue, scheduler)
            pop_trace.append((item.layer_index, item.influence))
            built = build_constraint(item, scheduler.build_cap_s)
            if built is None:
                stats.skipped_builds += 1
                continue
            # a solver call may not outlast the budget
            request = SolverRequest(variables, built,
                                    min(solver_timeout_s, max(0.0, remaining())))
            verdict = backend.check(request)
            stats.solved_constraints += 1
            if verdict.status not in _VERDICTS:
                raise SolverError(f"backend answered an unknown status {verdict.status!r}")
            setattr(stats, verdict.status, getattr(stats, verdict.status) + 1)
            if verdict.status == SOLVER_ERROR:
                _log.warning("solver error on a %d-conjunct check; transcript (first "
                             "2048 characters):\n%s", len(built), verdict.transcript[:2048])
            elif verdict.status == SAT:
                candidate = _adopt(verdict.assignment, request)
        if remaining() <= 0.0:  # also when the budget cut the last check short
            outcome = TIMEOUT
            break
        if candidate is None:
            outcome = SOLVER_ERROR if stats.solver_error else EXHAUSTED
            break
        x_cur = x_cur.copy()
        x_cur.flat[list(pixels)] = [candidate[name] for name in var_names]

    stats.outcome = outcome
    stats.wall_seconds = time.monotonic() - start_wall
    stats.cpu_seconds = time.process_time() - start_cpu
    return AttackResult(
        seed=seed_arr, pixel_indices=pixels, domains=domains,
        original_label=y0, flipped_label=flipped, adversarial=adversarial,
        stats=stats, pop_trace=tuple(pop_trace), paths=tuple(paths))


def _adopt(assignment, request: SolverRequest) -> Optional[dict[str, float]]:
    """Clamp a solver model into bounds and re-verify it; None if unusable."""
    if assignment is None:
        return None
    clamped: dict[str, float] = {}
    for name, lo, hi in request.variables:
        value = assignment.get(name)
        if value is None or value < lo - 1e-9 or value > hi + 1e-9:
            return None
        clamped[name] = min(max(value, lo), hi)
    if not assignment_satisfies(request, clamped):
        return None
    return clamped


def attack_result_to_json(result: AttackResult, seed_ref: str = "") -> dict:
    """Flat export: seed reference, pixels, labels, adversarial pixel values,
    and the run statistics under their reporting names."""
    adversarial_values = None
    if result.adversarial is not None:
        flat = result.adversarial.reshape(-1)
        adversarial_values = {f"p{p}": float(flat[p]) for p in result.pixel_indices}
    stats = result.stats
    return {
        "seed": seed_ref or [float(v) for v in result.seed.reshape(-1)],
        "pixel_indices": list(result.pixel_indices),
        "domain": [[lo, hi] for lo, hi in result.domains],
        "original_label": result.original_label,
        "flipped_label": result.flipped_label,
        "adversarial_values": adversarial_values,
        "iterations": stats.iterations,
        "sat": stats.sat,
        "unsat": stats.unsat,
        "unknown": stats.unknown,
        "timeout": stats.timeout,
        "solver_error": stats.solver_error,
        "gen_constraints": stats.generated_constraints,
        "sol_constraints": stats.solved_constraints,
        "wall_s": stats.wall_seconds,
        "cpu_s": stats.cpu_seconds,
        "outcome": stats.outcome,
        "pop_trace": [[layer, influence] for layer, influence in result.pop_trace],
        "skipped_builds": stats.skipped_builds,
    }
