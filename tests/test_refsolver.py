"""The bundled refsolver against a reference built from the request.

The reference narrows each variable's box by the variable-vs-constant
conjuncts, runs the staged ``reference_grid_oracle`` of
``test_grid_oracle`` (a 16-per-axis mesh past two variables), then draws the
seeded random samples and evaluates the assertion on them as arrays.  The
refsolver reads the emitted script and must give the same status and the
same witness.
"""

from __future__ import annotations

import hashlib
import select
import shlex
import subprocess
import time
import tracemalloc

import numpy as np
import pytest

from attnconcolic import refsolver
from attnconcolic.solver import (ExternalSolver, SolverRequest, _parse_sexprs, _render_decimal,
                                 _tokenize, emit_smtlib, grid_oracle)
from attnconcolic.symexpr import (
    _REL_APPLY,
    Comparison,
    ConcolicArithmeticError,
    Rel,
    add,
    const,
    div,
    evaluate,
    mul,
    var,
)

from conftest import REFSOLVER_CMD
from test_grid_oracle import random_comparison, random_constant, reference_grid_oracle

STAGES = {1: (256, 1024, 4096), 2: (256, 1024), 3: (16,)}
FLIPPED = {Rel.LT: Rel.GT, Rel.LE: Rel.GE, Rel.GT: Rel.LT, Rel.GE: Rel.LE,
           Rel.EQ: Rel.EQ, Rel.NE: Rel.NE}


def bare_variable(expr):
    """The name of the variable ``expr`` is, or None."""
    if len(expr.monomials) == 1 and len(expr.monomials[0]) == 1 and expr.coeffs == (1.0,):
        return expr.monomials[0][0]
    return None


def constant(expr):
    """The value of a constant ``expr``, or None."""
    return sum(expr.coeffs) if expr.monomials in ((), ((),)) else None


def reference_solve(request: SolverRequest, script: str):
    # the script asserts each variable's bounds, and the refsolver checks them
    assertion = tuple(cmp for name, lo, hi in request.variables
                      for cmp in (Comparison(Rel.GE, var(name), const(lo)),
                                  Comparison(Rel.LE, var(name), const(hi))))
    assertion += request.assertion
    box = {name: [-1e9, 1e9] for name, _, _ in request.variables}
    for cmp in assertion:
        for side, other, rel in ((cmp.lhs, cmp.rhs, cmp.rel),
                                 (cmp.rhs, cmp.lhs, FLIPPED[cmp.rel])):
            name, value = bare_variable(side), constant(other)
            if name is not None and value is not None and rel in (Rel.LE, Rel.LT):
                box[name][1] = min(box[name][1], value)
            if name is not None and value is not None and rel in (Rel.GE, Rel.GT):
                box[name][0] = max(box[name][0], value)
    if any(lo > hi for lo, hi in box.values()):
        return ("unsat", None)
    narrowed = SolverRequest(tuple((name, lo, hi) for name, (lo, hi) in box.items()),
                             assertion)
    for resolution in STAGES[len(box)]:
        verdict = reference_grid_oracle(narrowed, resolution)
        if verdict.status == "sat":
            return ("sat", verdict.assignment)
    seed = int.from_bytes(hashlib.sha256(script.encode()).digest()[:8], "big")
    lows, highs = np.array(list(box.values())).T
    samples = np.random.default_rng(seed).uniform(lows, highs, size=(65536, len(box)))
    points = {name: samples[:, k] for k, name in enumerate(box)}
    ok = np.ones(len(samples), dtype=bool)
    with np.errstate(all="ignore"):
        for cmp in assertion:
            ok &= _REL_APPLY[cmp.rel](evaluate(cmp.lhs, points), evaluate(cmp.rhs, points))
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
    statuses = []
    for _ in range(count):
        variables = tuple((name, *random_box(rng, negative)) for name in names)
        assertion = tuple(random_comparison(rng, names)
                          for _ in range(rng.integers(1, 4)))
        if rng.random() < 0.2:  # a bound inside the assertion narrows the box
            assertion += (Comparison(Rel.LT, var(names[0]),
                                     const(variables[0][1] + 0.25)),)
        request = SolverRequest(variables, assertion)
        script = emit_smtlib(request)
        status, witness, declared = refsolver.solve_script(script)
        assert declared == names
        assert (status, witness) == reference_solve(request, script)
        statuses.append(status)
    assert "sat" in statuses


# ---------------------------------------------------------------------------
# through the process
# ---------------------------------------------------------------------------


def test_negative_bound_is_honoured(refsolver_backend):
    v = var("v")
    request = SolverRequest((("v", -1.0, 0.0),), (Comparison(Rel.LT, v, const(-0.5)),))
    verdict = refsolver_backend.check(request)
    assert verdict.status == "sat"
    assert verdict.assignment == {"v": -1.0}


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
    assert "(assert (> (* v 65536.0) 1000.0))" in script
    want = grid_oracle(request, 256)
    assert want.status == "sat"
    status, witness, _ = refsolver.solve_script(script)
    assert (status, witness) == (want.status, want.assignment)


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
    assert refsolver.solve_script(script)[:2] == ("sat", {"x0": 0.25, "x1": 1.0, "x2": 1.0})


def test_mesh_is_streamed_in_chunks():
    script = box_script(5, "(> (+ x0 x1) 3.0)")  # 17**5 mesh points, none satisfies
    tracemalloc.start()
    try:
        status = refsolver.solve_script(script)[0]
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
    assert refsolver.solve_script(script)[0] == "unknown"
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
}


def run_script(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(REFSOLVER_CMD, input=script, capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_script_exits_2(name, tmp_path):
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


def test_comment_lines_are_ignored():
    script = ("; a comment with ( unbalanced parentheses\n" + DECLARE
              + "(assert (> v 0.5)) ; trailing ) comment\n(check-sat)\n(get-model)\n")
    proc = run_script(script)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "sat"
    assert refsolver.solve_script(script)[:2] == ("sat", {"v": 257 / 512})


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
    proc = subprocess.run(REFSOLVER_CMD, input="".join("(reset)\n" + s for s in scripts),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = []
    for script in scripts:
        # a check solves the text since the (reset), up to its (check-sat) line
        status, witness, declared = refsolver.solve_script(
            script[:script.index("(get-model)")])
        want.append(status)
        if witness is not None:
            want.append([["define-fun", name, [], "Real", _render_decimal(witness[name])]
                         for name in declared])
    assert want[:1] + want[2:3] == ["sat", "unsat"]
    assert _parse_sexprs(_tokenize(proc.stdout)) == want


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
