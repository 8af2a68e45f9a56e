from __future__ import annotations

import gc
import logging
import math
import time
import weakref

import numpy as np
import pytest

from attnconcolic.engine import (
    PathTree,
    attack_result_to_json,
    Scheduler,
    WorkItem,
    build_constraint,
    check_pixels,
    harvest,
    make_symbolic_input,
    normalize_domains,
    run_attack,
    schedule_pop,
)
from attnconcolic.influence import BackgroundSet, InfluenceMap, build_influence_map
from attnconcolic.semantics import (
    Dense,
    Flatten,
    ModelSpec,
    MultiHeadAttention,
    concrete_label,
    forward,
)
from attnconcolic.solver import ExternalSolver, GridOracle, SolverError, SolverVerdict
from attnconcolic.symexpr import (
    Comparison,
    ExecutionContext,
    Rel,
    add,
    const,
    var,
)

from conftest import GOLDEN_SEED, REFSOLVER_CMD, random_toy_model, symbolic_forward


def flip_at_half_model() -> ModelSpec:
    # logits = [v - 0.5, 0.5 - v]: label 1 below 0.5, label 0 at or above
    return ModelSpec((1, 1), (Flatten(),
                              Dense(weights=[[1.0, -1.0]], bias=[-0.5, 0.5]),))


def toy_map(model: ModelSpec, seed: np.ndarray, rng_seed: int = 0) -> InfluenceMap:
    rng = np.random.default_rng(rng_seed)
    bg = BackgroundSet(rng.uniform(0, 1, (4,) + model.shapes[0]), seed=rng_seed)
    return build_influence_map(model, bg, seed)


# ---------------------------------------------------------------------------
# harvest
# ---------------------------------------------------------------------------


def test_harvest_of_worked_run_yields_rowmax_and_argmax_items(
        golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    res, _ = symbolic_forward(golden_model, GOLDEN_SEED, [0])
    tree = PathTree()
    items = harvest(res.events, imap, tree)
    assert len(items) == 3  # two rowmax sites plus the argmax ladder
    assert [i.layer_index for i in items] == [0, 0, 1]
    # prefixes conjoin all ancestors: 1, 2, 3 comparisons respectively
    assert [len(i.constraint) for i in items] == [1, 2, 3]
    assert [i.ordinal for i in items] == [0, 1, 2]
    assert all(i.node_count > 0 for i in items)


def test_finished_forward_frees_its_expressions(golden_model):
    res, ctx = symbolic_forward(golden_model, GOLDEN_SEED, [0])
    guard = weakref.ref(res.events[0].guard.p)
    del res, ctx
    gc.collect()
    assert guard() is None


def test_harvest_empty_events_is_empty():
    assert harvest([], InfluenceMap({}), PathTree()) == []


def test_harvest_same_input_twice_adds_nothing(golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    tree = PathTree()
    res1, _ = symbolic_forward(golden_model, GOLDEN_SEED, [0])
    first = harvest(res1.events, imap, tree)
    res2, _ = symbolic_forward(golden_model, GOLDEN_SEED, [0])
    second = harvest(res2.events, imap, tree)
    assert len(first) == 3 and second == []


# ---------------------------------------------------------------------------
# build_constraint
# ---------------------------------------------------------------------------


def test_build_constraint_returns_the_item_constraint(golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    res, _ = symbolic_forward(golden_model, GOLDEN_SEED, [0])
    items = harvest(res.events, imap, PathTree())
    for item in items:
        assert build_constraint(item) is item.constraint
        assert build_constraint(item, cap_seconds=60.0) is item.constraint
        # each conjunct keeps its event's guard polynomial
        assert all(cmp.p is event.guard.p for cmp, event in zip(item.constraint, res.events))
    # siblings share the prefix's recorded literals
    assert items[1].constraint[0] is items[2].constraint[0]


def test_build_constraint_zero_cap_skips_everything():
    item = WorkItem(constraint=(Comparison(Rel.GT, var("v"), const(0.0)),),
                    influence=0.0, layer_index=0, node_count=3, ordinal=0)
    assert build_constraint(item, cap_seconds=0.0) is None


def test_build_constraint_without_cap_never_skips():
    expr = var("v")
    for i in range(2000):
        expr = add(expr, const(float(i % 13) + 0.5))
    item = WorkItem(constraint=(Comparison(Rel.GT, expr, const(0.0)),),
                    influence=0.0, layer_index=0, node_count=2001, ordinal=0)
    assert build_constraint(item, cap_seconds=None) is not None


# ---------------------------------------------------------------------------
# schedule_pop
# ---------------------------------------------------------------------------


def item(influence=0.0, layer=0, ordinal=0) -> WorkItem:
    return WorkItem(constraint=(Comparison(Rel.GT, var("v"), const(0.0)),),
                    influence=influence, layer_index=layer, node_count=3,
                    ordinal=ordinal)


def test_pq_pops_by_descending_influence():
    queue = [item(0.1, ordinal=0), item(0.9, ordinal=1), item(0.5, ordinal=2)]
    scheduler = Scheduler.pq()
    got = [schedule_pop(queue, scheduler).influence for _ in range(3)]
    assert got == [0.9, 0.5, 0.1]


def test_fifo_pops_by_ordinal():
    queue = [item(0.1, ordinal=2), item(0.9, ordinal=0), item(0.5, ordinal=1)]
    got = [schedule_pop(queue, Scheduler.fifo()).ordinal for _ in range(3)]
    assert got == [0, 1, 2]


def test_pq_layers_pops_earlier_layers_first():
    queue = [item(0.9, layer=2, ordinal=0), item(0.1, layer=0, ordinal=1)]
    first = schedule_pop(queue, Scheduler.pq_layers())
    assert first.layer_index == 0


def test_pq_equal_influence_ties_break_by_ordinal():
    queue = [item(0.5, ordinal=1), item(0.5, ordinal=0)]
    assert schedule_pop(queue, Scheduler.pq()).ordinal == 0


def test_single_item_pops_under_every_policy():
    for scheduler in (Scheduler.fifo(), Scheduler.pq(), Scheduler.pq_layers(),
                      Scheduler.pq_capped(1.0)):
        queue = [item(0.3, layer=1, ordinal=7)]
        assert schedule_pop(queue, scheduler).ordinal == 7
        assert queue == []


def test_pop_from_empty_queue_is_a_contract_violation():
    with pytest.raises(ValueError):
        schedule_pop([], Scheduler.fifo())


# ---------------------------------------------------------------------------
# run_attack
# ---------------------------------------------------------------------------


def test_attack_finds_flip_and_validates_it():
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    # grid oracle over v in [0,1] certifies a flip region exists
    labels = [int(np.argmax([v - 0.5, 0.5 - v])) for v in np.linspace(0, 1, 257)]
    assert len(set(labels)) == 2
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        backend=GridOracle(1024))
    assert result.stats.outcome == "success"
    assert 0.5 <= float(result.adversarial.reshape(-1)[0]) <= 1.0
    assert forward(model, result.adversarial).label != result.original_label
    assert result.flipped_label is not None
    assert result.original_label == concrete_label(model, seed)


def test_attack_on_flip_proof_model_exhausts_without_false_positives():
    # the chosen pixel is disconnected from the logits
    model = ModelSpec((2,), (Dense(weights=[[0.0, 0.0], [1.0, -1.0]],
                                   bias=[0.0, 0.1]),))
    seed = np.array([0.3, 0.4])
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        backend=GridOracle(256))
    assert result.stats.outcome == "exhausted"
    assert result.adversarial is None and result.flipped_label is None


def test_capped_scheduler_below_every_build_time_skips_every_item():
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        scheduler=Scheduler.pq_capped(0.0), backend=GridOracle(256))
    stats = result.stats
    assert stats.outcome == "exhausted" and stats.iterations == 1
    assert stats.skipped_builds == stats.generated_constraints > 0
    assert stats.solved_constraints == 0
    assert attack_result_to_json(result)["skipped_builds"] == stats.skipped_builds


def test_solver_calls_are_clamped_to_the_wall_budget():
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        wall_budget_s=0.5, backend=ExternalSolver(["sleep", "5"]),
                        solver_timeout_s=60.0)
    assert result.stats.outcome == "timeout"
    assert result.stats.wall_seconds <= 0.5 + 0.3


class SlowBackend:
    """Sleeps ``seconds`` before each check, then answers as ``backend``."""

    def __init__(self, backend, seconds: float) -> None:
        self.backend, self.seconds = backend, seconds

    def check(self, request):
        time.sleep(self.seconds)
        return self.backend.check(request)


def test_budget_spent_by_an_adopted_check_ends_timeout_without_another_forward(monkeypatch):
    # the adopted input would flip at the next forward; the budget comes first
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    calls = []
    monkeypatch.setattr("attnconcolic.engine.forward",
                        lambda *args: calls.append(args) or forward(*args))
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0], wall_budget_s=0.05,
                        backend=SlowBackend(GridOracle(256), 0.1))
    stats = result.stats
    assert (stats.outcome, stats.iterations, len(calls)) == ("timeout", 1, 1)
    assert stats.solved_constraints == stats.sat == 1
    assert result.adversarial is None and result.flipped_label is None


def test_attack_stats_are_consistent(golden_model, golden_background):
    model = ModelSpec((2, 1), (golden_model.layers[0], Flatten(),
                               Dense(weights=[[1.0, -1.0], [-1.0, 1.0]],
                                     bias=[0.0, 0.05]),))
    seed = np.array([[0.3], [0.6]])
    imap = toy_map(model, seed)
    result = run_attack(model, imap, seed, pixels=[0], backend=GridOracle(512))
    stats = result.stats
    assert stats.solved_constraints == stats.sat + stats.unsat + stats.unknown
    assert stats.iterations >= 1
    assert stats.generated_constraints >= stats.solved_constraints - stats.unknown
    assert stats.outcome in ("success", "exhausted", "timeout")


class StubBackend:
    """Answers each check with the next of ``statuses``, then unsat; a sat
    answer puts every variable at its lower bound."""

    def __init__(self, statuses) -> None:
        self.statuses = list(statuses)

    def check(self, request):
        status = self.statuses.pop(0) if self.statuses else "unsat"
        assignment = {name: lo for name, lo, _ in request.variables} \
            if status == "sat" else None
        return SolverVerdict(status, assignment)


def test_every_verdict_status_is_counted_apart():
    model = no_flip_model()
    seed = np.array([[0.4], [0.7], [0.1]])
    statuses = ["sat", "unsat", "unknown", "timeout", "solver_error"]
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        scheduler=Scheduler.fifo(), backend=StubBackend(statuses))
    stats = result.stats
    assert (stats.sat, stats.unknown, stats.timeout, stats.solver_error) == (1, 1, 1, 1)
    assert stats.unsat >= 1
    doc = attack_result_to_json(result)
    fields = [doc[status] for status in statuses]
    assert fields == [stats.sat, stats.unsat, stats.unknown, stats.timeout,
                      stats.solver_error]
    assert sum(fields) == doc["sol_constraints"] == stats.solved_constraints


def test_a_verdict_status_outside_the_five_is_a_solver_error():
    model = no_flip_model()
    seed = np.array([[0.4], [0.7], [0.1]])
    with pytest.raises(SolverError, match="'maybe'"):
        run_attack(model, toy_map(model, seed), seed, pixels=[0],
                   backend=StubBackend(["maybe"]))


class UnsatAsUnknown:
    """Reports each unsat verdict of ``backend`` as unknown."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def check(self, request):
        verdict = self.backend.check(request)
        return SolverVerdict("unknown") if verdict.status == "unsat" else verdict


@pytest.mark.parametrize("pixels", [(0, 3), (0,)], ids=["2px-grid", "1px-refsolver"])
def test_unsat_verdicts_leave_the_search_unchanged(pixels, refsolver_backend):
    # the engine adopts only on sat, so an unsat where the grid said unknown
    # moves nothing but the verdict counts
    unsat = 0
    for index in range(6):
        rng = np.random.default_rng(index)
        if len(pixels) == 2:
            model, backend = random_toy_model(rng, seq_len=3, d_model=2, relu=True), GridOracle(256)
        else:
            model, backend = random_toy_model(rng), refsolver_backend
        seed = rng.uniform(0.0, 1.0, model.shapes[0])
        imap = toy_map(model, seed)
        clipped, unclipped = (run_attack(model, imap, seed, pixels, backend=b)
                              for b in (backend, UnsatAsUnknown(backend)))
        for field in ("iterations", "sat", "outcome", "generated_constraints",
                      "solved_constraints"):
            assert getattr(clipped.stats, field) == getattr(unclipped.stats, field)
        assert clipped.paths == unclipped.paths
        assert clipped.pop_trace == unclipped.pop_trace
        assert (clipped.original_label, clipped.flipped_label) == \
            (unclipped.original_label, unclipped.flipped_label)
        if clipped.adversarial is None:
            assert unclipped.adversarial is None
        else:
            assert np.array_equal(clipped.adversarial, unclipped.adversarial)
        assert unclipped.stats.unsat == 0
        assert clipped.stats.unsat + clipped.stats.unknown == unclipped.stats.unknown
        unsat += clipped.stats.unsat
    assert unsat >= 10


class FailingBackend:
    """Answers every check with a solver error and a long transcript."""

    transcript = '(error "line 1: unsupported")\n' + "x" * 5000

    def check(self, request):
        return SolverVerdict("solver_error", transcript=self.transcript)


def test_solver_errors_are_logged_with_a_cut_transcript(caplog):
    model = no_flip_model()
    seed = np.array([[0.4], [0.7], [0.1]])
    with caplog.at_level(logging.WARNING, logger="attnconcolic"):
        result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                            scheduler=Scheduler.fifo(), backend=FailingBackend())
    records = [r for r in caplog.records if r.name == "attnconcolic"]
    assert result.stats.solver_error >= 1
    assert len(records) == result.stats.solver_error
    for record in records:
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert '(error "line 1: unsupported")' in message
        assert FailingBackend.transcript[:2048] in message
        assert FailingBackend.transcript[:2049] not in message
    assert "transcript" not in attack_result_to_json(result)


def test_an_attack_whose_checks_errored_does_not_end_exhausted():
    # its queue drained, but the solver searched none of it
    model = no_flip_model()
    seed = np.array([[0.4], [0.7], [0.1]])
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        scheduler=Scheduler.fifo(), backend=FailingBackend())
    assert result.stats.solver_error >= 1
    assert result.stats.outcome == "solver_error"
    assert attack_result_to_json(result)["outcome"] == "solver_error"


def test_attack_wall_budget_is_respected(refsolver_backend):
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    budget = 0.05
    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        wall_budget_s=budget, backend=refsolver_backend)
    if result.stats.outcome == "timeout":
        # one solver call of grace beyond the budget
        assert result.stats.wall_seconds <= budget + 10.0
    else:
        assert result.stats.outcome in ("success", "exhausted")


def test_attack_rejects_bad_pixel_choices():
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    imap = toy_map(model, seed)
    with pytest.raises(ValueError):
        run_attack(model, imap, seed, pixels=[], backend=GridOracle(64))
    with pytest.raises(ValueError):
        run_attack(model, imap, seed, pixels=[0, 0], backend=GridOracle(64))
    with pytest.raises(ValueError):
        run_attack(model, imap, seed, pixels=[5], backend=GridOracle(64))
    with pytest.raises(ValueError):
        run_attack(model, imap, seed, pixels=[0], domain=(1.0, 0.0),
                   backend=GridOracle(64))


@pytest.mark.parametrize("budget,timeout", [
    (float("nan"), 60.0), (0.0, 60.0), (-1.0, 60.0), (-math.inf, 60.0),
    (None, float("nan")), (None, 0.0), (None, -5.0)])
def test_a_wall_budget_or_solver_timeout_that_is_not_above_zero_is_rejected(budget, timeout):
    # a NaN budget compares false both ways: the attack stopped `exhausted`
    # after one iteration and no check, with its queue never searched
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    with pytest.raises(ValueError, match="not a positive number of seconds"):
        run_attack(model, toy_map(model, seed), seed, pixels=[0], wall_budget_s=budget,
                   backend=GridOracle(64), solver_timeout_s=timeout)


def test_an_infinite_wall_budget_and_solver_timeout_run_as_no_budget():
    # the refsolver's child is waited on without a timeout: select.poll
    # takes none longer than about 24.8 days
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    for backend in (GridOracle(64), ExternalSolver(REFSOLVER_CMD)):
        runs = [run_attack(model, toy_map(model, seed), seed, pixels=[0], backend=backend,
                           wall_budget_s=budget, solver_timeout_s=timeout)
                for budget, timeout in ((None, 60.0), (math.inf, math.inf))]
        assert [attack_result_to_json(r)["outcome"] for r in runs] == ["success"] * 2
        assert runs[0].stats.iterations == runs[1].stats.iterations
        assert runs[0].adversarial.tolist() == runs[1].adversarial.tolist()


def test_a_fractional_pixel_index_is_rejected_not_truncated():
    assert check_pixels([np.int64(1), 0], 6) == (1, 0)
    with pytest.raises(ValueError, match="not an integer"):
        check_pixels([1.5], 6)
    model = flip_at_half_model()
    seed = np.array([[0.2]])
    with pytest.raises(ValueError, match="not an integer"):
        run_attack(model, toy_map(model, seed), seed, pixels=[0.5], backend=GridOracle(64))


def test_a_pair_of_numbers_of_any_sequence_type_is_every_pixels_domain():
    assert normalize_domains(np.array([0.0, 1.0]), 2) == ((0.0, 1.0), (0.0, 1.0))
    assert normalize_domains(np.array([[0.0, 1.0], [0.5, 2.0]]), 2) == ((0.0, 1.0), (0.5, 2.0))
    for domain in ([0.0, 1.0, 2.0], np.zeros((2, 3)), np.zeros((1, 2, 2)), [[0.0, 1.0], [0.5]]):
        with pytest.raises(ValueError):
            normalize_domains(domain, 2)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_attack_rejects_a_non_finite_seed_before_any_forward(entry, monkeypatch):
    model = flip_at_half_model()
    imap = toy_map(model, np.array([[0.2]]))
    calls = []
    monkeypatch.setattr("attnconcolic.engine.forward", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="finite"):
        run_attack(model, imap, np.array([[entry]]), pixels=[0], backend=GridOracle(64))
    assert calls == []


def test_make_symbolic_input_marks_only_chosen_pixels():
    ctx = ExecutionContext()
    grid = make_symbolic_input(np.array([[0.1, 0.2], [0.3, 0.4]]), [2], ctx)
    assert grid[0][0].sym is None and grid[0][1].sym is None
    assert grid[1][0].sym == var("p2") and grid[1][0].concrete == 0.3
    assert grid[1][1].sym is None
    assert ctx.variables == {"p2": 0.3}


# ---------------------------------------------------------------------------
# exhaustive path coverage on a flip-free instance
# ---------------------------------------------------------------------------


def no_flip_model() -> ModelSpec:
    # both logits share the same v-dependence; the +10 bias gap never closes
    mha = MultiHeadAttention(
        num_heads=1, key_dim=1,
        w_q=[[[1.4]]], b_q=[[0.1]],
        w_k=[[[-1.1]]], b_k=[[0.6]],
        w_v=[[[0.9]]], b_v=[[0.2]],
        w_o=[[[1.0]]], b_o=[0.0],
    )
    dense = Dense(weights=[[0.7, 0.7], [-0.4, -0.4], [0.3, 0.3]], bias=[10.0, 0.0])
    return ModelSpec((3, 1), (mha, Flatten(), dense))


def test_fifo_visits_exactly_the_grid_reachable_paths():
    model = no_flip_model()
    seed = np.array([[0.4], [0.7], [0.1]])

    grid_paths = set()
    for k in range(1025):
        x = seed.copy()
        x[0, 0] = k / 1024
        res, _ = symbolic_forward(model, x, [0])
        grid_paths.add(tuple((e.layer_index, e.taken) for e in res.events))
    assert 1 < len(grid_paths) <= 32  # small instance precondition

    result = run_attack(model, toy_map(model, seed), seed, pixels=[0],
                        scheduler=Scheduler.fifo(), backend=GridOracle(1024))
    assert result.stats.outcome == "exhausted"
    assert set(result.paths) == grid_paths
