"""The benchmark's workloads: input generation from the workload seed, the
timed operations, the check of every output, and per-operation fingerprints.

Every model, seed input and background is drawn from the workload seed:
weights from U(-1.5, 1.5), inputs from U(0, 1).  Operations run one at a time
in this process, with no worker pool.

An operation's record keeps its deterministic fields (``work``) apart from
its timing fields (``timing``).  The fingerprint hashes only ``work``, so two
runs of the same code, traced or not, give the same fingerprint, and a change
that alters the search shows as a changed fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from attnconcolic import acdp, engine, influence
from attnconcolic.cli import _default_pixels
from attnconcolic.influence import BackgroundSet, depth_activations
from attnconcolic.semantics import (
    Dense,
    Flatten,
    ModelSpec,
    MultiHeadAttention,
    concrete_forward,
    concrete_label,
    forward,
)
from attnconcolic.solver import SAT, SOLVER_ERROR, ExternalSolver, GridOracle, SolverRequest
from tracing import patched

DOMAIN = (0.0, 1.0)
BACKGROUND_SIZE = 8
# Hang guard on every attack.  No attack comes near it at the seed commit;
# reaching it counts as a failed operation.
WALL_BUDGET_S = 60.0
SOLVER_TIMEOUT_S = 20.0
# ACDP thresholds of the shapley-8x8 suite (the CLI defaults).
ALPHA, BETA = 0.2, 0.5


class PreflightError(RuntimeError):
    """The solver command did not answer sat on the empty request."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def random_model(rng: np.random.Generator, input_shape: tuple[int, int],
                 attention_layers: int, heads: int, key_dim: int, classes: int,
                 relu: bool) -> ModelSpec:
    """Attention layers, then a flatten and a dense layer to the classes."""
    seq_len, d_model = input_shape

    def w(*shape):
        return rng.uniform(-1.5, 1.5, size=shape).tolist()

    layers: list = []
    for _ in range(attention_layers):
        layers.append(MultiHeadAttention(
            num_heads=heads, key_dim=key_dim,
            w_q=w(d_model, heads, key_dim), b_q=w(heads, key_dim),
            w_k=w(d_model, heads, key_dim), b_k=w(heads, key_dim),
            w_v=w(d_model, heads, key_dim), b_v=w(heads, key_dim),
            w_o=w(heads, key_dim, d_model), b_o=w(d_model)))
    layers.append(Flatten())
    layers.append(Dense(weights=w(seq_len * d_model, classes), bias=w(classes),
                        activation="relu" if relu else "none"))
    return ModelSpec(input_shape, tuple(layers))


@dataclass
class Record:
    """One operation: deterministic fields, timing fields, output-check
    problems, and why it failed (empty when it did not)."""

    op: int
    work: dict
    timing: dict
    problems: list
    failure: str = ""


# ---------------------------------------------------------------------------
# Attack workloads
# ---------------------------------------------------------------------------


# the engine's own functions, taken before anything wraps them
_HARVEST, _SCHEDULE_POP = engine.harvest, engine.schedule_pop


class AttackGuard:
    """The backend handed to ``run_attack``, plus the iteration cap of
    deep-1px.

    It counts verdicts by status, so ``timeout`` and ``solver_error`` stay
    apart from ``unknown`` (``RunStats`` folds them together).  With a cap it
    also stands in for the engine's ``harvest`` and ``schedule_pop``: past
    ``max_iterations`` it enqueues nothing more and drains the queue at the
    next pop, so the attack ends on the engine's own "queue empty" exit with
    its statistics intact.
    """

    def __init__(self, backend, max_iterations: Optional[int]) -> None:
        self.backend = backend
        self.max_iterations = max_iterations
        self.reset()

    def reset(self) -> None:
        self.iterations = 0
        self.capped = False
        self.verdicts: Counter = Counter()

    def check(self, request: SolverRequest):
        verdict = self.backend.check(request)
        self.verdicts[verdict.status] += 1
        return verdict

    def harvest(self, events, influence_map, tree):
        self.iterations += 1
        if self.iterations > self.max_iterations:
            self.capped = True
            return []
        return _HARVEST(events, influence_map, tree)

    def schedule_pop(self, queue, scheduler):
        item = _SCHEDULE_POP(queue, scheduler)
        if self.capped:
            queue.clear()
        return item

    def installed(self):
        if self.max_iterations is None:
            return patched([])
        return patched([(engine, "harvest", self.harvest),
                        (engine, "schedule_pop", self.schedule_pop)])


@dataclass
class AttackCase:
    model: ModelSpec
    seed: np.ndarray
    influence_map: influence.InfluenceMap
    pixels: list


def check_attack(case: AttackCase, result: engine.AttackResult) -> list[str]:
    """Re-execute a reported flip under the numpy reference and the
    instrumented forward, and check that only the chosen pixels changed,
    each within its domain."""
    if result.stats.outcome != engine.SUCCESS:
        return ["adversarial input without a success"] if result.adversarial is not None else []
    adv, flipped = result.adversarial, result.flipped_label
    if adv is None or flipped is None:
        return ["success without an adversarial input"]
    problems = []
    if flipped == result.original_label:
        problems.append(f"flipped label {flipped} equals the original label")
    reference = concrete_label(case.model, adv)
    if reference != flipped:
        problems.append(f"numpy reference labels the input {reference}, attack says {flipped}")
    instrumented = forward(case.model, adv).label
    if instrumented != flipped:
        problems.append(f"forward labels the input {instrumented}, attack says {flipped}")
    chosen = dict(zip(case.pixels, result.domains))
    for p in np.flatnonzero(adv.reshape(-1) != case.seed.reshape(-1)):
        value = float(adv.reshape(-1)[p])
        if int(p) not in chosen:
            problems.append(f"pixel {p} changed but was not chosen")
        elif not chosen[int(p)][0] <= value <= chosen[int(p)][1]:
            problems.append(f"pixel {p} = {value!r} lies outside {chosen[int(p)]}")
    return problems


@dataclass(frozen=True)
class AttackWorkload:
    name: str
    input_shape: tuple[int, int]
    attention_layers: int
    key_dim: int
    classes: int
    relu: bool
    pixels: int
    grid_resolution: Optional[int]  # None: the bundled refsolver process
    # a run makes round(seconds * ops_per_s) attacks, however long they
    # take; at the seed commit a run takes about `seconds`, except grid-2px,
    # which takes about 1.6 times that so that its median is over more
    # attacks (their per-check cost differs with the model)
    ops_per_s: float
    # Work cap, counted in concolic iterations so that where an attack stops
    # does not depend on speed.  Only deep-1px needs one: some of its
    # searches keep re-adopting inputs on a few control paths (one ran 2,698
    # iterations over 7 paths in 119 s), because the path tree keys guards by
    # DAG node and each adopted input bakes new softmax constants into the
    # guards.  Those attacks stop with outcome "capped".
    max_iterations: Optional[int] = None
    # the host probe unit_norm divides by (run.PROBES): "spawn" where solver
    # processes take most of the time, "loop" elsewhere
    probe: str = "loop"

    def make_backend(self):
        if self.grid_resolution is None:
            return ExternalSolver([sys.executable, "-m", "attnconcolic.refsolver"])
        return GridOracle(self.grid_resolution)

    def setup(self, seed: int, count: int) -> dict:
        """Draw ``count`` attacks and build each seed's influence map; for the
        external solver, run the pre-flight.  Everything here is set-up time."""
        backend = self.make_backend()
        spawn_s = preflight(backend) if isinstance(backend, ExternalSolver) else 0.0
        cases = []
        for index in range(count):
            rng = np.random.default_rng([seed, index])
            model = random_model(rng, self.input_shape, self.attention_layers,
                                 1, self.key_dim, self.classes, self.relu)
            x = rng.uniform(0.0, 1.0, size=self.input_shape)
            background = BackgroundSet(
                rng.uniform(0.0, 1.0, size=(BACKGROUND_SIZE,) + self.input_shape))
            imap = influence.build_influence_map(model, background, x)
            cases.append(AttackCase(model, x, imap, _default_pixels(imap, model, self.pixels)))
        return {"cases": cases, "guard": AttackGuard(backend, self.max_iterations),
                "spawn_s": spawn_s, "external": isinstance(backend, ExternalSolver)}

    def run_op(self, state: dict, index: int) -> Record:
        case, guard = state["cases"][index], state["guard"]
        guard.reset()
        start = time.perf_counter()
        try:
            result = engine.run_attack(
                case.model, case.influence_map, case.seed, case.pixels, domain=DOMAIN,
                scheduler=engine.Scheduler.pq(), wall_budget_s=WALL_BUDGET_S,
                backend=guard, solver_timeout_s=SOLVER_TIMEOUT_S)
        except Exception as exc:  # one broken attack must not end the run
            return Record(index, {"outcome": "error", "error": repr(exc)},
                          {"wall_s": time.perf_counter() - start}, [], f"exception: {exc!r}")
        wall = time.perf_counter() - start
        stats = result.stats
        outcome = stats.outcome
        if guard.capped and outcome == engine.EXHAUSTED:
            outcome = "capped"
        adversarial = None
        if result.adversarial is not None:
            flat = result.adversarial.reshape(-1)
            adversarial = [float(flat[p]) for p in result.pixel_indices]
        work = {
            "pixels": list(result.pixel_indices),
            "outcome": outcome,
            "iterations": stats.iterations,
            "gen_constraints": stats.generated_constraints,
            "sol_constraints": stats.solved_constraints,
            "verdicts": dict(sorted(guard.verdicts.items())),
            "original_label": result.original_label,
            "flipped_label": result.flipped_label,
            "adversarial": adversarial,
        }
        failure = ""
        problems = check_attack(case, result)
        if problems:
            failure = "output check"
        elif outcome == engine.TIMEOUT:
            failure = f"wall budget of {WALL_BUDGET_S} s reached"
        elif guard.verdicts[SOLVER_ERROR]:
            failure = f"{guard.verdicts[SOLVER_ERROR]} solver errors"
        return Record(index, work, {"wall_s": wall, "cpu_s": stats.cpu_seconds},
                      problems, failure)

    def finish(self, state: dict) -> Optional[Record]:
        return None

    def unit_s(self, record: Record) -> Optional[float]:
        """The attack's wall time per solver check, or None for an attack
        that made no check.  Whole-attack time depends mostly on the model
        and seed input drawn; per-check time much less."""
        checks = record.work.get("sol_constraints")
        return record.timing["wall_s"] / checks if checks else None

    def report(self, records: list[Record]) -> dict:
        """End-to-end figures for the report: name -> (value, unit, samples)."""
        done = [r for r in records if r.work["outcome"] not in ("error", "not started")]
        walls = [r.timing["wall_s"] for r in done]
        flips = [r.timing["wall_s"] for r in done
                 if r.work["outcome"] == engine.SUCCESS and not r.problems]
        n = len(records)
        out = {
            "attack_s_p50": (median0(walls), "s", len(walls)),
            "attacks_per_min": (60.0 * len(done) / sum(walls) if walls else 0.0,
                                "1/min", len(done)),
            "flip_rate": (len(flips) / n if n else 0.0, "ratio", n),
            "flip_s_p50": (median0(flips) if flips else None, "s", len(flips)),
            "capped_ratio": (sum(r.work["outcome"] == "capped" for r in records) / n
                             if n else 0.0, "ratio", n),
        }
        tail = _tail_percentile(walls)
        if tail:
            out[f"attack_s_p{tail[0]}"] = (tail[1], "s", len(walls))
        return out


def preflight(backend: ExternalSolver, repeats: int = 3) -> float:
    """Require ``sat`` on the empty request; return the median check time,
    which is the solver process floor."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        verdict = backend.check(SolverRequest(variables=(), assertion=(), timeout_s=10.0))
        times.append(time.perf_counter() - start)
        if verdict.status != SAT:
            raise PreflightError(
                f"solver command {backend.argv()!r} answered {verdict.status!r} on the "
                f"empty request: {verdict.transcript[:500]!r}")
    return median0(times)


# ---------------------------------------------------------------------------
# Shapley workload
# ---------------------------------------------------------------------------


def check_relevance(model: ModelSpec, background: BackgroundSet, x: np.ndarray,
                    matrix: acdp.RelevanceMatrix) -> list[str]:
    """Efficiency: at every depth the attributions toward the predicted class
    sum to f(x) - f(baseline) of the submodel after that depth.  Permutation
    sampling telescopes, so this holds up to rounding."""
    problems = []
    predicted = concrete_label(model, x)
    if matrix.predicted_class != predicted:
        problems.append(f"relevance class {matrix.predicted_class}, numpy reference {predicted}")
    for depth, x_l, bg_l in depth_activations(model, background, x):
        if depth == model.output_depth:
            break
        tail = model.tail(depth)
        gap = (concrete_forward(tail, x_l[0]) - concrete_forward(tail, bg_l.mean(axis=0))
               )[matrix.predicted_class]
        total = sum(val for _, val in matrix.layer_items(depth))
        if not math.isclose(total, gap, rel_tol=1e-6, abs_tol=1e-6):
            problems.append(f"depth {depth}: relevance sums to {total!r}, expected {gap!r}")
    return problems


def check_influence(model: ModelSpec, imap: influence.InfluenceMap) -> list[str]:
    expected = sum(int(np.prod(shape)) for shape in model.shapes)
    if len(imap) != expected:
        return [f"influence map has {len(imap)} neurons, model has {expected}"]
    bad = [nid.key() for nid, val in imap.items() if not (math.isfinite(val) and val >= 0.0)]
    return [f"negative or non-finite influence at {bad[:3]}"] if bad else []


@dataclass(frozen=True)
class ShapleyWorkload:
    name: str = "shapley-8x8"
    # 8x8 rather than 16x16: a 16x16 influence map takes 3-4 s, too long for
    # the host probe taken before and after an operation to stand for the
    # host's speed during it (see unit_norm in run.py); an 8x8 one takes
    # 0.2-0.4 s
    input_shape: tuple[int, int] = (8, 8)
    heads: int = 2
    key_dim: int = 8
    classes: int = 10
    background_size: int = 16
    perturbed_pixels: int = 2
    # operations per measured second at the seed commit
    ops_per_s: float = 1.8
    probe: str = "loop"

    def setup(self, seed: int, count: int) -> dict:
        rng = np.random.default_rng([seed])
        model = random_model(rng, self.input_shape, 1, self.heads, self.key_dim,
                             self.classes, True)
        background = BackgroundSet(
            rng.uniform(0.0, 1.0, size=(self.background_size,) + self.input_shape))
        size = int(np.prod(self.input_shape))
        inputs = []
        for _ in range(count):
            x = rng.uniform(0.0, 1.0, size=self.input_shape)
            perturbed = x.copy().reshape(-1)
            pixels = rng.choice(size, self.perturbed_pixels, replace=False)
            perturbed[pixels] = rng.uniform(0.0, 1.0, size=self.perturbed_pixels)
            inputs.append((x, perturbed.reshape(self.input_shape)))
        return {"model": model, "background": background, "inputs": inputs,
                "suite": {}, "spawn_s": 0.0, "external": False, "guard": None}

    def run_op(self, state: dict, index: int) -> Record:
        model, background = state["model"], state["background"]
        x, perturbed = state["inputs"][index]
        try:
            start = time.perf_counter()
            imap = influence.build_influence_map(model, background, x)
            mid = time.perf_counter()
            matrix = acdp.relevance(model, background, perturbed)
            end = time.perf_counter()
        except Exception as exc:  # one broken operation must not end the run
            return Record(index, {"error": repr(exc)}, {}, [], f"exception: {exc!r}")
        problems = check_influence(model, imap) + check_relevance(model, background,
                                                                  perturbed, matrix)
        state["suite"][index] = (perturbed, matrix, concrete_label(model, x))
        work = {"influence": digest(imap.to_json()),
                "relevance": digest(sorted((nid.key(), val) for nid, val in matrix.values.items())),
                "predicted_class": matrix.predicted_class}
        return Record(index, work, {"influence_s": mid - start, "relevance_s": end - mid},
                      problems, "output check" if problems else "")

    def finish(self, state: dict) -> Optional[Record]:
        """One abstract_path over the suite of perturbed inputs, labelled
        (class at the seed, class after the perturbation)."""
        suite = [state["suite"][index] for index in sorted(state["suite"])]
        if not suite:
            return None
        try:
            start = time.perf_counter()
            report = acdp.abstract_path([(x, m) for x, m, _ in suite], ALPHA, BETA,
                                        [(y0, m.predicted_class) for _, m, y0 in suite])
            wall = time.perf_counter() - start
        except Exception as exc:
            return Record(-1, {"error": repr(exc)}, {}, [], f"exception: {exc!r}")
        problems = []
        if report.suite_size != len(suite):
            problems.append(f"suite size {report.suite_size}, expected {len(suite)}")
        if any(not 0.0 <= w <= 1.0 for w in report.weights.values()):
            problems.append("criticality weight outside [0, 1]")
        work = {"members": sorted(nid.key() for nid in report.members),
                "entropy_bits": report.entropy_bits}
        return Record(-1, work, {"abstract_path_s": wall}, problems,
                      "output check" if problems else "")

    def unit_s(self, record: Record) -> Optional[float]:
        """Mean time of the operation's two Shapley calls (a
        build_influence_map and a relevance, which do the same work)."""
        if "influence_s" not in record.timing:
            return None
        return (record.timing["influence_s"] + record.timing["relevance_s"]) / 2

    def report(self, records: list[Record]) -> dict:
        ops = [r for r in records if "influence_s" in r.timing]
        final = [r.timing["abstract_path_s"] for r in records if "abstract_path_s" in r.timing]
        return {
            "influence_s_p50": (median0([r.timing["influence_s"] for r in ops]), "s", len(ops)),
            "relevance_s_p50": (median0([r.timing["relevance_s"] for r in ops]), "s", len(ops)),
            "abstract_path_s": (final[0] if final else None, "s", len(final)),
        }


def median0(values) -> float:
    """The median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def _tail_percentile(values) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 20:  # the percentile would be the median itself
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


WORKLOADS = {w.name: w for w in (
    AttackWorkload(
        name="grid-2px",
        input_shape=(3, 2), attention_layers=1, key_dim=2, classes=2, relu=True,
        pixels=2, grid_resolution=256, ops_per_s=0.75),
    AttackWorkload(
        name="deep-1px",
        input_shape=(4, 4), attention_layers=2, key_dim=4, classes=3, relu=True,
        pixels=1, grid_resolution=1024, ops_per_s=0.6,
        max_iterations=24),
    AttackWorkload(
        name="smt-1px",
        input_shape=(2, 1), attention_layers=1, key_dim=2, classes=2, relu=False,
        pixels=1, grid_resolution=None, ops_per_s=0.55, probe="spawn"),
    ShapleyWorkload(),
)}
