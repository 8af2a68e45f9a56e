"""The bundled refsolver against a reference built from the request.

The reference narrows each variable's box by the conjuncts ``±x + c relop
0``, answers unsat for up to two variables where the exact rule
``closure_is_empty`` of ``test_grid_oracle`` finds no point of the
narrowed box, and runs the staged ``reference_grid_oracle`` over the whole
grid (a 16-per-axis mesh past two variables).  Then, for one variable, it
takes the midpoint of each interval of the clip, clamped to the box, with no
random draws; from two variables on, it draws the seeded random samples.  It
evaluates the assertion on those points as arrays.  The refsolver reads the
emitted script and must give the same status and the same witness, though
for one variable it tries only the grid points in the clip, in plain Python.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import select
import shlex
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from attnconcolic import refsolver, smt, solver, symexpr
from attnconcolic.smt import _forms, _render_decimal, read_model
from attnconcolic.solver import (ExternalSolver, GridOracle, SolverError, SolverRequest,
                                 SolverVerdict, assignment_satisfies, emit_smtlib, grid_oracle)
from attnconcolic.symexpr import (
    _REL_APPLY,
    Comparison,
    ConcolicArithmeticError,
    ConcolicScalar,
    Rel,
    add,
    arith,
    const,
    div,
    evaluate,
    mul,
    neg,
    polynomial,
    sub,
    var,
)

from conftest import REFSOLVER_CMD
from test_grid_oracle import (closure_is_empty, concolic_path, generational_items,
                              holds_at_scan, random_comparison, random_constant,
                              reference_grid_oracle)
from test_grid_oracle import random_box as grid_box

STAGES = {1: (256, 1024, 4096), 2: (256, 1024), 3: (16,)}
FLIPPED = {Rel.LT: Rel.GT, Rel.LE: Rel.GE, Rel.GT: Rel.LT, Rel.GE: Rel.LE,
           Rel.EQ: Rel.EQ, Rel.NE: Rel.NE}


def variable_bound(cmp):
    """``(name, rel, value)`` when ``cmp`` is ``s * x + c relop 0`` with ``s =
    ±1``, that is ``x rel value``; otherwise None."""
    terms = dict(zip(cmp.p.monomials, cmp.p.coeffs))
    c = terms.pop((), 0.0)
    if len(terms) != 1:
        return None
    ((monomial, s),) = terms.items()
    if len(monomial) != 1 or s not in (1.0, -1.0):
        return None
    return monomial[0], cmp.rel if s > 0 else FLIPPED[cmp.rel], -c if s > 0 else c


def reference_solve(request: SolverRequest):
    # the script asserts each variable's bounds, and the refsolver checks them
    assertion = tuple(cmp for name, lo, hi in request.variables
                      for cmp in (Comparison(Rel.GE, var(name), const(lo)),
                                  Comparison(Rel.LE, var(name), const(hi))))
    assertion += request.assertion
    box = {name: [-1e9, 1e9] for name, _, _ in request.variables}
    for bound in filter(None, map(variable_bound, assertion)):
        name, rel, value = bound
        if rel in (Rel.LE, Rel.LT):
            box[name][1] = min(box[name][1], value)
        if rel in (Rel.GE, Rel.GT):
            box[name][0] = max(box[name][0], value)
    if any(lo > hi for lo, hi in box.values()):
        return ("unsat", None)
    narrowed = SolverRequest(tuple((name, lo, hi) for name, (lo, hi) in box.items()),
                             assertion)
    if len(box) <= 2 and closure_is_empty(narrowed):
        return ("unsat", None)
    for resolution in STAGES[len(box)]:
        verdict = reference_grid_oracle(narrowed, resolution)
        if verdict.status == "sat":
            return ("sat", verdict.assignment)
    # the request the refsolver searches: the narrowed box, the non-strict
    # bounds out of the assertion, in the script's order
    kept = tuple(cmp for cmp in assertion
                 if (variable_bound(cmp) or (None, None))[1] not in (Rel.LE, Rel.GE))
    searched = SolverRequest(tuple((name, lo, hi) for name, (lo, hi) in box.items()), kept)
    if len(box) == 1:
        # the midpoints of the clip the refsolver reads
        (name, (lo, hi)), = box.items()
        clip = solver._clip(searched)
        points = {name: np.clip([(a + b) / 2 for a, b in clip], lo, hi)}
    else:
        # the samples are seeded from that request as emit_smtlib writes it
        digest = hashlib.sha256(emit_smtlib(searched).encode()).digest()
        seed = int.from_bytes(digest[:8], "big")
        lows, highs = np.array(list(box.values())).T
        samples = np.random.default_rng(seed).uniform(lows, highs, size=(65536, len(box)))
        points = {name: samples[:, k] for k, name in enumerate(box)}
    ok = np.ones(len(next(iter(points.values()))), dtype=bool)
    with np.errstate(all="ignore"):
        for cmp in assertion:
            ok &= _REL_APPLY[cmp.rel](evaluate(cmp.p, points), 0.0)
    if not ok.any():
        return ("unknown", None)
    hit = int(np.argmax(ok))
    return ("sat", {name: float(values[hit]) for name, values in points.items()})


def random_box(rng: np.random.Generator, negative: bool) -> tuple[float, float]:
    lo = abs(random_constant(rng))
    if negative:
        lo = -lo - 0.125
    return lo, lo + abs(random_constant(rng)) + 0.125


@pytest.mark.parametrize("negative", [False, True], ids=["nonneg", "negative"])
@pytest.mark.parametrize("n_vars,count", [(1, 40), (2, 16), (3, 24)])
def test_matches_reference(n_vars, count, negative):
    rng = np.random.default_rng(100 * n_vars + negative)
    names = ["a", "b", "c"][:n_vars]
    requests = []
    for _ in range(count):
        variables = tuple((name, *random_box(rng, negative)) for name in names)
        assertion = tuple(random_comparison(rng, names)
                          for _ in range(rng.integers(1, 4)))
        if rng.random() < 0.2:  # a bound inside the assertion narrows the box
            assertion += (Comparison(Rel.LT, var(names[0]),
                                     const(variables[0][1] + 0.25)),)
        requests.append(SolverRequest(variables, assertion))
    # 0 < a - b < 1e-4 over a square box: two points of one grid differ by 0
    # or by at least a step, here above 1e-4, so only a sample can land there
    slab = (Comparison(Rel.GT, sub(var("a"), var("b")), const(0.0)),
            Comparison(Rel.LT, sub(var("a"), var("b")), const(1e-4)))
    sides = [random_box(rng, negative) for _ in range(4)] if n_vars == 2 else []
    requests += [SolverRequest((("a", *side), ("b", *side)), slab) for side in sides]
    # (a - c)(a - c - w) <= 0 with w below the 4,096-step grid's spacing:
    # past the grid stages, only a clip interval's midpoint lands in it
    for lo, hi in [random_box(rng, negative) for _ in range(4)] if n_vars == 1 else []:
        c, w = float(rng.uniform(lo, hi)), (hi - lo) * 1e-5
        window = mul(sub(var("a"), const(c)), sub(var("a"), const(c + w)))
        requests.append(SolverRequest((("a", lo, hi),), (Comparison(Rel.LE, window),)))
    statuses = []
    for request in requests:
        verdict = refsolver.solve_script(emit_smtlib(request))
        if verdict.status == "sat":
            assert list(verdict.assignment) == names
        assert (verdict.status, verdict.assignment) == reference_solve(request)
        statuses.append(verdict.status)
    assert "sat" in statuses[:count]
    if n_vars <= 2:  # a sat slab case takes its witness from the seeded
        # samples, a sat window case from a midpoint
        assert "sat" in statuses[count:]


# ---------------------------------------------------------------------------
# through the process
# ---------------------------------------------------------------------------


def test_the_solver_process_loads_no_attack_module():
    # a fresh interpreter, as a solver child starts: only solver and symexpr
    # come with the refsolver, never the attack stack
    attack = [f"attnconcolic.{name}" for name in ("engine", "influence", "acdp", "semantics",
                                                   "cli")]
    code = ("import sys, attnconcolic.refsolver; "
            f"print([m for m in {attack!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_a_session_of_one_variable_loads_neither_numpy_nor_the_solver_module():
    # the pre-flight's empty request, then one-variable sat, unsat and a
    # sliver's unknown: all answered in plain Python from smt
    checks = ["", DECLARE + "(assert (> v 0.5))\n",
              DECLARE + "(assert (> (* 2.0 v) 3.0))\n",
              DECLARE + "(assert (> (* 3.0 v) 1.0))\n(assert (< (* 3.0 v) 1.0))\n"]
    session = "".join(f"(reset)\n{check}(check-sat)\n(get-model)\n" for check in checks)
    code = ("import sys\n"
            "from attnconcolic import refsolver\n"
            "assert refsolver.main() == 0\n"
            "print([m for m in ('numpy', 'attnconcolic.solver', 'hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], input=session, capture_output=True,
                          text=True, timeout=60, check=True)
    *answers, loaded = proc.stdout.splitlines(keepends=True)
    statuses = [form for _, forms in _forms(answers) for form in forms if isinstance(form, str)]
    assert statuses == ["sat", "sat", "unsat", "unknown"]
    assert loaded.strip() == "[]"


def test_negative_bound_is_honoured(refsolver_backend):
    v = var("v")
    request = SolverRequest((("v", -1.0, 0.0),), (Comparison(Rel.LT, v, const(-0.5)),))
    verdict = refsolver_backend.check(request)
    assert verdict.status == "sat"
    assert verdict.assignment == {"v": -1.0}


@pytest.mark.parametrize("rel,bound", [(Rel.LT, 0.5), (Rel.GT, 2.0)])
def test_negative_zero_bound_agrees_with_grid_oracle(rel, bound, refsolver_backend):
    # the bound -0.0 is written 0.0: "-0.0" would read as an undeclared symbol
    request = SolverRequest((("v", -0.0, 1.0),), (Comparison(rel, var("v"), const(bound)),))
    want = grid_oracle(request, 256)
    verdict = refsolver_backend.check(request)
    assert (verdict.status, verdict.assignment) == (want.status, want.assignment)


def test_negative_two_variable_box_agrees_with_grid_oracle(refsolver_backend):
    a, b = var("a"), var("b")
    request = SolverRequest((("a", -1.0, 0.0), ("b", -1.0, 0.0)),
                            (Comparison(Rel.GT, mul(a, b), const(0.3)),
                             Comparison(Rel.GT, add(a, mul(b, const(0.5))), const(-1.1))))
    want = grid_oracle(request, 256)
    assert want.status == "sat"
    verdict = refsolver_backend.check(request)
    assert (verdict.status, verdict.assignment) == ("sat", want.assignment)


def test_ground_request_is_checked(refsolver_backend):
    false = SolverRequest((), (Comparison(Rel.LT, const(1.0), const(0.0)),))
    true = SolverRequest((), (Comparison(Rel.GT, const(1.0), const(0.0)),))
    empty = SolverRequest((), ())
    assert grid_oracle(false).status == "unknown"
    assert grid_oracle(true).status == "sat"
    assert grid_oracle(empty).status == "sat"
    assert refsolver_backend.check(false).status == "unknown"
    assert refsolver_backend.check(empty).status == "sat"


def test_doubling_chain_is_one_monomial():
    v = var("v")
    expr = v
    for _ in range(16):  # 2**16 leaves as a tree, one monomial as a polynomial
        expr = add(expr, expr)
    request = SolverRequest((("v", 0.0, 1.0),), (Comparison(Rel.GT, expr, const(1000.0)),))
    script = emit_smtlib(request)
    assert len(script) < 4096
    assert "(assert (> (+ (- 1000.0) (* v 65536.0)) 0.0))" in script
    want = grid_oracle(request, 256)
    assert want.status == "sat"
    verdict = refsolver.solve_script(script)
    assert (verdict.status, verdict.assignment) == (want.status, want.assignment)


@pytest.mark.parametrize("rel", list(Rel))
def test_two_sided_comparison_is_its_difference_against_zero(rel, refsolver_backend):
    v = var("v")
    two_sided = Comparison(rel, mul(v, const(2.0)), add(v, const(0.25)))
    difference = polynomial([((), -0.25), (("v",), 1.0)])  # v - 0.25, built apart
    one_sided = Comparison(rel, difference)
    assert [f.name for f in fields(Comparison)] == ["rel", "p"]
    assert two_sided == one_sided == Comparison(rel, difference, const(0.0))
    assert two_sided.key() == one_sided.key()
    requests = [SolverRequest((("v", 0.0, 1.0),), (cmp,)) for cmp in (two_sided, one_sided)]
    assert emit_smtlib(requests[0]) == emit_smtlib(requests[1])
    for backend in (GridOracle(256), refsolver_backend):
        first, second = (backend.check(request) for request in requests)
        assert first.status == "sat"
        assert (first.status, first.assignment) == (second.status, second.assignment)
        assert assignment_satisfies(requests[0], first.assignment)


def test_box_is_narrowed_by_unit_variable_conjuncts():
    v, w = var("v"), var("w")
    request = SolverRequest(
        (("v", -1e9, 1e9), ("w", -1e9, 1e9)),
        (Comparison(Rel.LE, v, const(0.75)),  # x relop c
         Comparison(Rel.LT, const(-0.5), v),  # c relop x
         Comparison(Rel.GE, add(neg(w), const(0.3))),  # -x + c relop 0
         Comparison(Rel.LE, const(0.1), w),
         Comparison(Rel.GT, mul(v, const(2.0)), const(-0.75)),  # not a unit coefficient
         Comparison(Rel.EQ, w, const(0.2))))  # not an order
    narrowed = refsolver._narrowed(request)
    assert narrowed.variables == (("v", -0.5, 0.75), ("w", 0.1, 0.3))
    # the box holds the non-strict bounds; the strict one and the rest stay
    assert narrowed.assertion == tuple(request.assertion[k] for k in (1, 4, 5))
    # a bound past the declared box, as a script writes it: v - 2.0 >= 0
    beyond = SolverRequest((("v", 0.0, 1.0),), (Comparison(Rel.GE, v, const(2.0)),))
    assert refsolver.solve_script(emit_smtlib(beyond)).status == "unsat"


def test_empty_box_is_unsat_on_both_backends(refsolver_backend):
    request = SolverRequest((("v", 1.0, 0.0),), (Comparison(Rel.GT, var("v"), const(0.5)),))
    assert grid_oracle(request, 256).status == "unsat"
    assert GridOracle(256).check(request).status == "unsat"
    assert refsolver_backend.check(request).status == "unsat"
    # the backend answers without its child; the child proves it on its own
    assert refsolver.solve_script(emit_smtlib(request)) == SolverVerdict("unsat")


def test_affine_unsat_ends_the_search_before_any_grid_stage(monkeypatch):
    monkeypatch.setattr(smt, "_first_satisfying", lambda *args: pytest.fail("point tried"))
    monkeypatch.setattr(refsolver, "_first_hit", lambda *args: pytest.fail("samples drawn"))
    # 2v > 3: no point of [0, 1], and no unit coefficient to narrow the box by
    assert refsolver.solve_script(DECLARE + "(assert (> (* 2.0 v) 3.0))\n(check-sat)\n") == \
        SolverVerdict("unsat")


# ---------------------------------------------------------------------------
# one variable: no grid stage outside the clip's intervals, then their
# midpoints, and no random samples
# ---------------------------------------------------------------------------


def line_request(rng: np.random.Generator) -> SolverRequest:
    """A request in ``v`` on a random box: a quadratic window ``(v - c) *
    (v - c - width) <= 0``, from as wide as the box to narrower than the
    4,096-step grid's spacing, so that the first, a later or no grid stage
    meets it; or a touching pair, an affine form at least zero and its
    product with a form positive on the box at most zero.  Half of them get
    one more random conjunct."""
    lo, hi = random_box(rng, bool(rng.random() < 0.5))
    v = var("v")
    if rng.random() < 0.75:
        width = (hi - lo) * 10.0 ** -rng.uniform(0.0, 4.5)
        c = float(rng.uniform(lo - 0.1 * width, hi))
        assertion = (Comparison(Rel.LE, mul(sub(v, const(c)), sub(v, const(c + width)))),)
    else:
        slope = random_constant(rng) or 0.3
        f = add(mul(v, const(slope)), const(-slope * float(rng.uniform(lo, hi))))
        positive = mul(sub(v, const(2 * lo - hi)), const(slope))
        assertion = (Comparison(Rel.GE, f), Comparison(Rel.LE, mul(f, positive)))
    if rng.random() < 0.5:
        assertion += (random_comparison(rng, ["v"]),)
    return SolverRequest((("v", lo, hi),), assertion)


def test_one_variable_search_skips_only_points_that_cannot_satisfy(monkeypatch):
    # against every point of each grid stage, scanned in turn, then the
    # clip's midpoints; no kernel pass and no sample
    monkeypatch.setattr(solver, "_holds", lambda *args: pytest.fail("kernel pass"))
    monkeypatch.setattr(refsolver, "_samples", lambda *args: pytest.fail("samples drawn"))
    rng = np.random.default_rng(19)
    found = Counter()
    for _ in range(240):
        request = line_request(rng)
        got = refsolver._search(request, {})
        verdicts = {resolution: holds_at_scan(request, resolution) for resolution in STAGES[1]}
        if got.status == "unsat":  # the clip's proof: no grid stage finds a point either
            assert all(verdict.status == "unknown" for verdict in verdicts.values()), request
            found["unsat"] += 1
            continue
        (_, lo, hi), = request.variables
        want, kind = ("unknown", None), "midpoint"
        for resolution, verdict in verdicts.items():
            if verdict.status == "sat":
                want, kind = ("sat", verdict.assignment), resolution
                break
        else:
            for a, b in solver._clip(request):
                point = {"v": min(max((a + b) / 2, lo), hi)}
                if all(cmp.holds_at(point) for cmp in request.assertion):
                    want = ("sat", point)
                    break
        assert (got.status, got.assignment) == want, request
        if want[0] == "sat":
            assert assignment_satisfies(request, want[1])
            found[kind] += 1
        elif sum(b - a for a, b in solver._clip(request)) < 1e-9:
            found["sliver"] += 1  # a touching pair
    assert min(found[kind] for kind in (256, 1024, 4096, "midpoint", "unsat", "sliver")) >= 5, \
        found


def test_a_window_between_grid_points_is_found_at_its_midpoint(monkeypatch):
    # (v - c)(v - c - 1e-7) <= 0 holds on [c, c + 1e-7]: narrower than the
    # 4,096-step grid's spacing and clear of its points, so no grid stage
    # meets it.  The clip keeps it as one interval, whose midpoint satisfies
    # the request
    monkeypatch.setattr(refsolver, "_samples", lambda *args: pytest.fail("samples drawn"))
    v, c = var("v"), 0.3
    request = SolverRequest((("v", 0.0, 1.0),),
                            (Comparison(Rel.LE, mul(sub(v, const(c)), sub(v, const(c + 1e-7)))),))
    assert all(grid_oracle(request, resolution).status == "unknown" for resolution in STAGES[1])
    verdict = refsolver.solve_script(emit_smtlib(request))
    ((lo, hi),) = solver._clip(request)
    witness = verdict.assignment
    assert (verdict.status, witness) == ("sat", {"v": (lo + hi) / 2})
    assert c < witness["v"] < c + 1e-7
    assert witness["v"] == pytest.approx(c + 5e-8, abs=1e-15)
    assert assignment_satisfies(request, witness)


def test_a_one_variable_unknown_draws_no_samples(monkeypatch):
    # 3v > 1 and 3v < 1 leave no point, but the clip reads the strict
    # relations as non-strict ones and keeps a sliver around v = 1/3, which
    # holds no grid point: only its midpoint is tried, and fails
    monkeypatch.setattr(refsolver, "_samples", lambda *args: pytest.fail("samples drawn"))
    first_satisfying, tried = smt._first_satisfying, []

    def recorded(request, points):
        points = list(points)
        tried.extend(points)
        return first_satisfying(request, points)

    monkeypatch.setattr(smt, "_first_satisfying", recorded)
    script = DECLARE + "(assert (> (* 3.0 v) 1.0))\n(assert (< (* 3.0 v) 1.0))\n(check-sat)\n"
    assert refsolver.solve_script(script) == SolverVerdict("unknown")
    ((midpoint,),) = tried
    assert midpoint == pytest.approx(1 / 3)


def test_a_band_between_grid_points_is_answered_by_the_samples():
    # 0.2999 < v - w < 0.3001 holds at no point of the 256- or 1,024-step
    # grid: the seed read off the narrowed request's emitted script, the
    # draws, the clip's bounding box and the first hit fix the model
    script = ("(declare-const v Real)\n(declare-const w Real)\n(assert (>= v 0.0))\n"
              "(assert (<= v 1.0))\n(assert (>= w 0.0))\n(assert (<= w 1.0))\n"
              "(assert (> (- v w) 0.2999))\n(assert (< (- v w) 0.3001))\n(check-sat)\n")
    v, w = var("v"), var("w")
    request = SolverRequest((("v", 0.0, 1.0), ("w", 0.0, 1.0)),
                            (Comparison(Rel.GT, sub(v, w), const(0.2999)),
                             Comparison(Rel.LT, sub(v, w), const(0.3001))))
    for resolution in refsolver.GRID_STAGES[2]:
        assert grid_oracle(request, resolution).status == "unknown"
    assert refsolver.solve_script(script) == SolverVerdict(
        "sat", {"v": 0.3980319519319522, "w": 0.09805119018400676})


BAND = ("(declare-const v Real)\n(declare-const w Real)\n(assert (>= v 0.0))\n"
        "(assert (<= v 1.0))\n(assert (>= w 0.0))\n(assert (<= w 1.0))\n"
        "(assert (> (- v w) 0.29999))\n(assert (< (- v w) 0.300003))\n(check-sat)\n")


def test_a_problem_answers_alike_however_its_script_is_written(monkeypatch, capsys):
    # a band 1.3e-5 wide holds no grid point: the answer comes from the
    # samples, whose seed is the problem's, not its script's
    variants = [BAND, *("; a comment\n" * k + BAND for k in (1, 2, 5, 11)),
                BAND.replace("\n", "\n\n"), BAND.replace("\n", "  \t\n"),
                "(set-logic QF_NRA)\n" + BAND,
                BAND.replace("(>= v 0.0)", "(<= 0.0 v)"),
                BAND.replace(" 0.0)", " (- 0.0))"),
                "; a comment\n(set-logic QF_NRA)\n" + BAND.replace("(>= w 0.0)", "(<= 0.0 w)")]
    v, w = var("v"), var("w")
    band = SolverRequest((("v", 0.0, 1.0), ("w", 0.0, 1.0)),
                         (Comparison(Rel.GT, sub(v, w), const(0.29999)),
                          Comparison(Rel.LT, sub(v, w), const(0.300003))))
    assert all(grid_oracle(band, resolution).status == "unknown"
               for resolution in refsolver.GRID_STAGES[2])
    verdicts = [refsolver.solve_script(script) for script in variants]
    assert verdicts == verdicts[:1] * len(variants)
    session = "".join(f"(reset)\n{script}(get-model)\n" for script in variants)
    assert session_output(session, monkeypatch, capsys) == \
        answered_alone(BAND + "(get-model)\n") * len(variants)


# ---------------------------------------------------------------------------
# two variables: samples only in the clip polygon's bounding box
# ---------------------------------------------------------------------------


def sliver_request(rng: np.random.Generator) -> SolverRequest:
    """A request in ``a`` and ``b`` over a random square: ``0 < a - b < w``,
    with ``w`` below a grid step, so only a sample can land in it, and a
    random half-plane ``a + b <= t`` through the square; half of them get
    one more random conjunct."""
    side = random_box(rng, bool(rng.random() < 0.5))
    lo, hi = side
    a, b = var("a"), var("b")
    width = 10.0 ** -rng.uniform(3.5, 5.5)
    assertion = (Comparison(Rel.GT, sub(a, b), const(0.0)),
                 Comparison(Rel.LT, sub(a, b), const(width)),
                 Comparison(Rel.LE, add(a, b), const(float(rng.uniform(2 * lo, 2 * hi)))))
    if rng.random() < 0.5:
        assertion += (random_comparison(rng, ["a", "b"]),)
    return SolverRequest((("a", *side), ("b", *side)), assertion)


def test_two_variable_samples_outside_the_clip_cannot_change_the_answer(monkeypatch):
    first_hit, drawn = refsolver._first_hit, []

    def counted(request, chunks):
        chunks = list(chunks)
        drawn.append(sum(map(len, chunks)))
        return first_hit(request, chunks)

    monkeypatch.setattr(refsolver, "_first_hit", counted)
    rng = np.random.default_rng(29)
    statuses = Counter()
    for _ in range(48):
        request = sliver_request(rng)
        drawn.clear()
        verdict = refsolver.solve_script(emit_smtlib(request))
        assert (verdict.status, verdict.assignment) == reference_solve(request), request
        statuses[verdict.status] += 1
        assert all(n <= refsolver.RANDOM_SAMPLES for n in drawn)
        if drawn and drawn[0] < refsolver.RANDOM_SAMPLES // 2:
            statuses["cut"] += 1
    assert min(statuses[kind] for kind in ("sat", "unknown", "cut")) >= 5, statuses


# ---------------------------------------------------------------------------
# past two variables
# ---------------------------------------------------------------------------


def box_script(n_vars: int, assertion: str) -> str:
    lines = []
    for k in range(n_vars):
        lines += [f"(declare-const x{k} Real)", f"(assert (>= x{k} 0.0))",
                  f"(assert (<= x{k} 1.0))"]
    return "\n".join(lines + [f"(assert {assertion})", "(check-sat)"]) + "\n"


def test_mesh_is_scanned_in_row_major_order():
    script = box_script(3, "(> (+ x0 (* x1 x2)) 1.2)")
    assert refsolver.solve_script(script) == SolverVerdict("sat", {"x0": 0.25, "x1": 1.0,
                                                                  "x2": 1.0})


def test_a_sample_rounded_past_the_box_is_no_witness(monkeypatch):
    # lo + u * (hi - lo) can round past hi: such a point satisfies 2 x0 > 2,
    # but not the bound x0 <= 1, which the box holds and the assertion no more
    samples = refsolver._samples

    def past(request):
        points = samples(request)
        points[0] = np.nextafter(1.0, 2.0)
        return points

    monkeypatch.setattr(refsolver, "_samples", past)
    assert refsolver.solve_script(box_script(3, "(> (* 2.0 x0) 2.0)")) == SolverVerdict("unknown")


def test_mesh_is_streamed_in_chunks():
    script = box_script(5, "(> (+ x0 x1) 3.0)")  # 17**5 mesh points, none satisfies
    tracemalloc.start()
    try:
        status = refsolver.solve_script(script).status
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "unknown"
    assert peak < 16 * 2**20


def test_mesh_is_capped_past_five_variables():
    assert [refsolver._mesh_points_per_axis(k) for k in (3, 5, 6, 7, 20, 21)] == \
        [17, 17, 10, 7, 2, 1]
    script = box_script(7, "(> (+ x0 x1) 3.0)")  # unsat; 17**7 points uncapped
    start = time.monotonic()
    assert refsolver.solve_script(script).status == "unknown"
    assert time.monotonic() - start < 2.0


# ---------------------------------------------------------------------------
# rejected scripts
# ---------------------------------------------------------------------------

DECLARE = "(declare-const v Real)\n(assert (>= v 0.0))\n(assert (<= v 1.0))\n"
REJECTED = {
    "disjunction": DECLARE + "(assert (or (< v 0.5) (> v 0.75)))\n(check-sat)\n",
    "symbolic divisor": DECLARE + "(assert (> (/ v v) 0.5))\n(check-sat)\n",
    "undeclared symbol": DECLARE + "(assert (> (+ v w) 0.5))\n(check-sat)\n",
    "define-fun": DECLARE + "(define-fun s () Real (* v v))\n(assert (> s 0.5))\n(check-sat)\n",
    "deep nesting": DECLARE + "(assert (> " + "(+ 0.5 " * 1500 + "v" + ")" * 1500
    + " 0.5))\n(check-sat)\n",
    "list-headed term": DECLARE + "(assert (> ((+ v 1.0) v) 0.0))\n(check-sat)\n",
    "list-headed assertion": DECLARE + "(assert ((> v 1.0) v 0.0))\n(check-sat)\n",
    # a numeral, or a fold, past the largest double: no request's script
    "numeral past the doubles": DECLARE + "(assert (< v 1" + "0" * 400 + ".0))\n(check-sat)\n",
    "fold past the doubles": DECLARE + "(assert (> (* v 1" + "0" * 200 + ".0 1" + "0" * 200
    + ".0) 0.5))\n(check-sat)\n",
}


def run_script(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(REFSOLVER_CMD, input=script, capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_script_exits_2(name, tmp_path):
    with pytest.raises(SolverError):
        refsolver.solve_script(REJECTED[name])
    proc = run_script(REJECTED[name])
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("(error ")
    path = tmp_path / "script.smt2"
    path.write_text(REJECTED[name])
    command = f"{shlex.join(REFSOLVER_CMD)} < {shlex.quote(str(path))}"
    unit = SolverRequest((("v", 0.0, 1.0),), ())
    assert ExternalSolver(["sh", "-c", command]).check(unit).status == "solver_error"


def test_symbolic_divisor_cannot_reach_a_request():
    v = var("v")
    with pytest.raises(ConcolicArithmeticError):
        div(v, add(v, const(1.0)))


MONOMIALS = ((), ("x",), ("x", "x"), ("x", "y"))


def random_finite(rng) -> float:
    """A float of uniformly random bits, redrawn until finite."""
    value = math.inf
    while not math.isfinite(value):
        value = float(rng.integers(1 << 64, dtype=np.uint64).view(np.float64))
    return value


@pytest.mark.parametrize("op, name", [("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div")])
def test_one_operator_table_computes_folds_and_reads(op, name):
    # symexpr._OPS gives arith's concrete part and the constant fold, and
    # names the heads the refsolver reads into the builders' polynomials;
    # a quotient of two numerals, SMT-LIB's rational constant, is read exactly
    rng = np.random.default_rng(ord(op))
    builder = getattr(symexpr, name)
    for _ in range(200):
        a, b = random_finite(rng), random_finite(rng)
        want = symexpr._OPS[op](a, b)
        assert arith(name, a, b).concrete == want
        assert arith(name, ConcolicScalar(a, var("x")), b).concrete == want
        folded = builder(const(a), const(b))
        assert folded.kind == "const" and folded == const(want)
    for _ in range(50):
        p, q = (polynomial((m, random_constant(rng)) for m in MONOMIALS
                           if rng.random() < 0.7) for _ in range(2))
        if op == "/":
            q = const(random_constant(rng) or 0.5)
        text = f"({op} {smt._render_poly(p)} {smt._render_poly(q)})\n"
        (form,) = [form for _, forms in _forms([text]) for form in forms]
        assert smt._term(form) == builder(p, q)
    if op == "/":
        with pytest.raises(ConcolicArithmeticError, match="zero constant"):
            builder(var("x"), const(0.0))
        with pytest.raises(ConcolicArithmeticError, match="zero constant"):
            builder(const(1.0), const(0.0))
        for text in ("(/ x 0.0)\n", "(/ 1.0 0.0)\n"):
            (form,) = [form for _, forms in _forms([text]) for form in forms]
            with pytest.raises(refsolver.ScriptError, match="zero constant"):
                smt._term(form)
        # the double nearest 1/3, where the builder divides the doubles of 0.1 and 0.3
        (form,) = [form for _, forms in _forms(["(/ 0.1 0.3)\n"]) for form in forms]
        assert smt._term(form) == const(1 / 3) != div(const(0.1), const(0.3))


def test_comment_lines_are_ignored():
    script = ("; a comment with ( unbalanced parentheses\n" + DECLARE
              + "(assert (> v 0.5)) ; trailing ) comment\n(check-sat)\n(get-model)\n")
    proc = run_script(script)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "sat"
    assert refsolver.solve_script(script) == SolverVerdict("sat", {"v": 257 / 512})


# ---------------------------------------------------------------------------
# the session protocol
# ---------------------------------------------------------------------------


def test_session_answers_each_request_as_solve_script_does():
    names = ["a", "b", "c"]
    total = add(add(var("a"), var("b")), var("c"))
    # the sum's window holds no 17-per-axis mesh point: the seeded samples find it
    sampled = SolverRequest(tuple((name, 0.0, 1.0) for name in names),
                            (Comparison(Rel.GT, total, const(1.01)),
                             Comparison(Rel.LT, total, const(1.05))))
    empty_box = SolverRequest((("v", 0.0, 1.0),), (Comparison(Rel.GT, var("v"), const(2.0)),))
    requests = [sampled, empty_box, sampled]
    scripts = [emit_smtlib(request) for request in requests]
    # a (get-model) after each check: the refsolver prints nothing after unsat
    proc = subprocess.run(REFSOLVER_CMD,
                          input="".join(f"(reset)\n{s}(get-model)\n" for s in scripts),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = []
    for request, script in zip(requests, scripts):
        # a check solves the text since the (reset), up to its (check-sat) line
        verdict = refsolver.solve_script(script)
        want.append(verdict.status)
        if verdict.status == "sat":
            assert list(verdict.assignment) == [name for name, _, _ in request.variables]
            want.append([["define-fun", name, [], "Real", _render_decimal(value)]
                         for name, value in verdict.assignment.items()])
    assert want[:1] + want[2:3] == ["sat", "unsat"]
    assert [form for _, forms in _forms(proc.stdout.splitlines(keepends=True))
            for form in forms] == want


def test_a_session_keeps_prefix_masks_across_resets(monkeypatch, capsys):
    # concolic paths in one and two variables: each prefix with its next
    # literal negated, then the whole path, all in one session
    rng = np.random.default_rng(26)
    requests = []
    for n_vars in (1, 2, 1, 2):
        variables, point = grid_box(rng, n_vars)
        path = concolic_path(rng, point, 6)
        requests += generational_items(variables, path) + [SolverRequest(variables, path)]
    scripts = [emit_smtlib(request) for request in requests]
    session = "".join(f"(reset)\n{script}(get-model)\n" for script in scripts)
    passes = [0]
    holds = solver._holds

    def counted(*args):
        passes[0] += 1
        return holds(*args)

    monkeypatch.setattr(solver, "_holds", counted)
    want = []
    for request, script in zip(requests, scripts):  # each alone, from empty tries
        before = passes[0]
        verdict = refsolver.solve_script(script)
        want += [verdict.status] if verdict.assignment is None else [verdict.status,
                                                                     verdict.assignment]
        if len(request.variables) == 1:  # the grid points in the clip, in plain Python
            assert passes[0] == before
    assert {"sat", "unsat", "unknown"} <= {answer for answer in want if isinstance(answer, str)}
    proc = subprocess.run(REFSOLVER_CMD, input=session, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # a status, or a model as {name: value}
    got = [form if isinstance(form, str) else read_model(form, [name for _, name, *_ in form])
           for _, forms in _forms(proc.stdout.splitlines(keepends=True)) for form in forms]
    assert got == want
    # the same session in process: its two-variable checks read masks that
    # earlier checks stored and evict some, and it answers as the live one does
    alone, passes[0] = passes[0], 0
    evict, evicted = solver._PrefixTrie._evict, [0]

    def counted_evict(self, leaf):
        evicted[0] += 1
        evict(self, leaf)

    monkeypatch.setattr(solver._PrefixTrie, "_evict", counted_evict)
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    assert refsolver.main() == 0
    assert capsys.readouterr().out == proc.stdout
    assert evicted[0] > 0 and passes[0] < alone


def session_output(session: str, monkeypatch, capsys) -> str:
    """What ``refsolver.main`` prints for the lines of ``session``, in process."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    assert refsolver.main() == 0
    return capsys.readouterr().out


def answered_alone(script: str) -> str:
    """What a session prints for ``script`` and a ``(get-model)`` after it,
    from :func:`refsolver.solve_script` of the script alone."""
    verdict = refsolver.solve_script(script)
    return f"{verdict.status}\n" + ("" if verdict.assignment is None
                                    else smt.render_model(verdict.assignment))


def test_repeated_assertion_lines_are_answered_as_each_script_alone(monkeypatch, capsys):
    # one-variable concolic paths, each prefix with its next literal negated,
    # then the whole path: after each (reset) most assertion lines repeat an
    # earlier one, and each is read into its comparison once
    rng = np.random.default_rng(38)
    requests = []
    for _ in range(4):
        variables, point = grid_box(rng, 1)
        path = concolic_path(rng, point, 8)
        requests += generational_items(variables, path) + [SolverRequest(variables, path)]
    scripts = [emit_smtlib(request) for request in requests]
    asserted = [line for script in scripts for line in script.splitlines()
                if line.startswith("(assert")]
    assert len(set(asserted)) < len(asserted) / 2
    want = "".join(answered_alone(script) for script in scripts)
    assert {"sat", "unsat", "unknown"} <= set(want.splitlines())
    reads = Counter()
    comparison = refsolver._comparison

    def counted(form):
        reads[repr(form)] += 1
        return comparison(form)

    monkeypatch.setattr(refsolver, "_comparison", counted)
    session = "".join(f"(reset)\n{script}(get-model)\n" for script in scripts)
    assert session_output(session, monkeypatch, capsys) == want
    assert len(reads) == len(set(asserted)) and set(reads.values()) == {1}


def test_solve_script_obeys_reset_as_a_session_does(monkeypatch, capsys):
    # v is declared again after (reset), and v > 0.5 no longer holds: the
    # answer is the last one a session prints, whatever follows it
    first = DECLARE + "(assert (> v 0.5))\n(check-sat)\n"
    second = DECLARE + "(assert (< v 0.25))\n(check-sat)\n(get-model)\n"
    for text in (first + "(reset)\n" + second, first + "(reset)\n" + second + "(reset)\n"):
        verdict = refsolver.solve_script(text)
        witness = verdict.assignment
        assert verdict.status == "sat" and witness["v"] < 0.25 and list(witness) == ["v"]
        assert session_output(text, monkeypatch, capsys) == \
            "sat\n" + f"{verdict.status}\n" + smt.render_model(witness)


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_each_backend_clips_each_request_once(count, monkeypatch, refsolver_backend):
    # a request the clip leaves a point of, one whose conjunct it cuts away
    # (past two variables it reads none), and one whose box is empty
    clip, calls = smt._clip, []

    def counted(request):
        calls.append(request)
        return clip(request)

    for module in (smt, solver, refsolver):
        monkeypatch.setattr(module, "_clip", counted)
    names = "abc"[:count]
    variables = tuple((name, 0.0, 1.0) for name in names)
    total = functools.reduce(add, map(var, names), const(0.0))
    requests = [SolverRequest(variables, (Comparison(Rel.GT, total, const(bound)),))
                for bound in (count / 2 - 0.25, count + 1.0)]
    if count:
        requests.append(SolverRequest((("a", 1.0, 0.0),) + variables[1:], ()))
    backends = [refsolver_backend.check, lambda request: refsolver._search(request, {})]
    if count <= 2:
        backends.append(GridOracle(64).check)
    for request in requests:
        for check in backends:
            calls.clear()
            check(request)
            assert calls == [request], (request, check)


@pytest.mark.parametrize("opener, closer", [('(set-logic "\n', '")\n'),
                                            ("(set-logic |\n", "|)\n"),
                                            ("(set-logic QF_NRA\n", ")\n")],
                         ids=["string literal", "quoted symbol", "open form"])
def test_a_repeated_line_inside_a_literal_or_a_form_is_not_read_alone(opener, closer,
                                                                      monkeypatch, capsys):
    # the second script repeats the first one's assertion line inside the
    # arguments of its (set-logic ...), which the refsolver ignores: read
    # alone it would assert v > 0.5 against v < 0.25, and leave an excess ")"
    line = "(assert (> v 0.5))\n"
    first = DECLARE + line + "(check-sat)\n"
    second = opener + line + closer + DECLARE + "(assert (< v 0.25))\n(check-sat)\n(get-model)\n"
    verdict = refsolver.solve_script(second)
    assert verdict.status == "sat" and verdict.assignment["v"] < 0.25
    lines = (first + "(reset)\n" + second).splitlines(keepends=True)
    memo: dict = {}
    assert list(_forms(lines, memo)) == list(_forms(lines))
    assert memo[line] == [["assert", [">", "v", "0.5"]]]
    assert opener not in memo and closer not in memo
    want = refsolver.solve_script(first).status + "\n" + answered_alone(second)
    assert session_output("".join(lines), monkeypatch, capsys) == want


def test_a_two_variable_check_caches_its_path_at_the_finest_stage(monkeypatch, capsys):
    # a disc too small for any grid point or sample: both stages scan the
    # whole path.  The box's bounds are not in the assertion, so at 1024 the
    # trie holds the path's conjuncts, not four whole-grid bound masks
    a, b = var("a"), var("b")
    disc = add(mul(sub(a, const(0.30001)), sub(a, const(0.30001))),
               mul(sub(b, const(0.60001)), sub(b, const(0.60001))))
    path = (Comparison(Rel.GE, add(a, b), const(0.2)), Comparison(Rel.LT, disc, const(1e-12)))
    request = SolverRequest((("a", 0.0, 1.0), ("b", 0.0, 1.0)), path)
    search, sessions = refsolver._search, []

    def recorded(request, tries):
        sessions.append(tries)
        return search(request, tries)

    def keys(node):
        for key, child in node.children.items():
            yield key
            yield from keys(child)

    monkeypatch.setattr(refsolver, "_search", recorded)
    monkeypatch.setattr(sys, "stdin", io.StringIO(emit_smtlib(request)))
    assert refsolver.main() == 0
    assert capsys.readouterr().out == "unknown\n"
    for resolution in refsolver.GRID_STAGES[2]:
        assert {cmp.key() for cmp in path} <= set(keys(sessions[0][resolution]._top))


def test_solve_script_of_an_emitted_script_answers_as_a_session_check(refsolver_backend):
    names = ["a", "b", "c"]
    total = add(add(var("a"), var("b")), var("c"))
    # the seeded samples find the witness, so it shows the seed: the whole
    # emitted script, which ends with (check-sat), sent by the session after (reset)
    request = SolverRequest(tuple((name, 0.0, 1.0) for name in names),
                            (Comparison(Rel.GT, total, const(1.01)),
                             Comparison(Rel.LT, total, const(1.05))))
    verdict = refsolver_backend.check(request)
    assert verdict.status == "sat"
    assert refsolver.solve_script(emit_smtlib(request)) == SolverVerdict("sat", verdict.assignment)
    assert list(verdict.assignment) == names


def test_check_sat_is_answered_while_stdin_is_open():
    proc = subprocess.Popen(REFSOLVER_CMD, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        proc.stdin.write(DECLARE + "(assert (> v 0.5))\n(check-sat)\n")
        proc.stdin.flush()
        poller = select.poll()
        poller.register(proc.stdout, select.POLLIN)
        assert poller.poll(30_000), "no answer before end of input"
        assert proc.stdout.readline() == "sat\n"
        proc.stdin.write("(get-model)\n")
        proc.stdin.flush()
        assert proc.stdout.readline() == "(\n"
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert proc.returncode == 0


def test_excess_close_paren_exits_2():
    proc = run_script(DECLARE + "(assert (> v 0.5)))\n(check-sat)\n")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("(error ")


# ---------------------------------------------------------------------------
# framing, with stdin held open
# ---------------------------------------------------------------------------


def held_open(script: str) -> subprocess.Popen:
    """A refsolver that has read ``script``; its stdin stays open."""
    proc = subprocess.Popen(REFSOLVER_CMD, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdin.write(script)
    proc.stdin.flush()
    return proc


def close(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait(timeout=30)
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        pipe.close()


@pytest.mark.parametrize("script,stdout", [
    ('(set-info :source "x(y")\n', ""),
    (DECLARE + '(check-sat)\n(echo "hi")\n', "sat\n"),
], ids=["parenthesis in a string", "after the last check"])
def test_command_outside_the_subset_exits_2_before_end_of_input(script, stdout):
    proc = held_open(script)
    try:
        assert proc.wait(timeout=30) == 2
        assert proc.stdout.read() == stdout
        lines = proc.stderr.read().splitlines()
        assert len(lines) == 1 and lines[0].startswith("(error ")
    finally:
        close(proc)


def test_parenthesis_in_a_quoted_symbol_does_not_count():
    proc = held_open("(declare-const |a(| Real)\n(check-sat)\n")
    try:
        poller = select.poll()
        poller.register(proc.stdout, select.POLLIN)
        assert poller.poll(30_000), "no answer before end of input"
        assert proc.stdout.readline() == "sat\n"
    finally:
        close(proc)
