from __future__ import annotations

import gc
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from attnconcolic import refsolver, smt, solver
from attnconcolic.smt import _forms, _tokenize, read_model, render_model
from attnconcolic.solver import (
    ExternalSolver,
    GridOracle,
    SolverError,
    SolverRequest,
    SolverVerdict,
    assignment_satisfies,
    emit_smtlib,
    grid_oracle,
)
from attnconcolic.symexpr import Comparison, Rel, add, const, div, mul, polynomial, var


def unit_request(*comparisons, timeout=30.0) -> SolverRequest:
    return SolverRequest(variables=(("v", 0.0, 1.0),), assertion=tuple(comparisons),
                         timeout_s=timeout)


V = var("v")
V_SQUARED_LT_1 = Comparison(Rel.LT, mul(V, V), const(1.0))


def parsed(text: str) -> list:
    """The forms of ``text``, framed as both ends of the pipe frame them."""
    return [form for _, forms in _forms(text.splitlines(keepends=True)) for form in forms]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_contains_declaration_bounds_and_assertion():
    text = emit_smtlib(unit_request(V_SQUARED_LT_1))
    assert "(set-logic QF_NRA)" in text
    assert "(declare-const v Real)" in text
    assert "(assert (>= v 0.0))" in text and "(assert (<= v 1.0))" in text
    assert "(assert (< (+ (- 1.0) (* v v)) 0.0))" in text
    assert text.endswith(" 0.0))\n(check-sat)\n")


def test_emit_is_byte_deterministic():
    req = unit_request(V_SQUARED_LT_1, Comparison(Rel.GT, V, const(0.25)))
    assert emit_smtlib(req) == emit_smtlib(req)


def test_equal_comparisons_built_apart_render_one_line():
    # a built expression and a leaf with the same relation and polynomial
    # render the same script, whatever built them
    built = Comparison(Rel.GT, add(mul(V, V), mul(const(0.5), V)), const(0.25))
    leaf = Comparison(Rel.GT, polynomial([((), -0.25), (("v",), 0.5), (("v", "v"), 1.0)]))
    assert built == leaf and built.p.kind != leaf.p.kind
    text = emit_smtlib(unit_request(built))
    assert "(assert (> (+ (- 0.25) (* v 0.5) (* v v)) 0.0))" in text
    assert emit_smtlib(unit_request(leaf)) == text
    assert "(assert (not (= (+ (- 0.25) (* v 0.5) (* v v)) 0.0)))" in \
        emit_smtlib(unit_request(Comparison(Rel.NE, leaf.p)))


def test_a_line_memo_stays_bounded():
    # more distinct whole-command lines than a memo holds, each twice: the
    # memo starts over when full, and every line frames as without it
    lines = [f"(assert (> v {k / 8192!r}))\n" for k in range(smt._MEMO_ENTRIES + 10)] * 2
    memo: dict = {}
    framed = []
    for text, forms in _forms(lines, memo):
        framed.append((text, forms))
        assert len(memo) <= smt._MEMO_ENTRIES
    assert framed == list(_forms(lines))
    assert lines[-1] in memo


def test_the_emit_patch_point_sees_every_script(monkeypatch, refsolver_backend):
    # the bench wraps solver.emit_smtlib: every check sent to the child
    # calls it through solver's globals
    seen = []

    def wrapped(request):
        seen.append(smt.emit_smtlib(request))
        return seen[-1]

    monkeypatch.setattr(solver, "emit_smtlib", wrapped)
    half, three_quarters = Comparison(Rel.GT, V, const(0.5)), Comparison(Rel.LT, V, const(0.75))
    requests = [unit_request(half), unit_request(half), unit_request(half, three_quarters),
                unit_request(three_quarters, half)]
    verdicts = [refsolver_backend.check(request) for request in requests]
    assert [verdict.status for verdict in verdicts] == ["sat"] * 4
    assert seen == [smt.emit_smtlib(request) for request in requests]


def test_a_session_makes_one_poller_per_pipe(monkeypatch, refsolver_backend):
    made = []
    poll = solver.select.poll

    def counted():
        made.append(poll())
        return made[-1]

    monkeypatch.setattr(solver.select, "poll", counted)
    for bound in (0.25, 0.5, 0.75):  # a sat, its (get-model), and the next check
        assert refsolver_backend.check(unit_request(Comparison(Rel.GT, V, const(bound)))).status \
            == "sat"
    assert len(made) == 2


def test_emit_decimals_round_trip_and_negatives():
    req = unit_request(Comparison(Rel.GE, V, const(0.5)),
                       Comparison(Rel.LT, V, const(-1e-20)))
    text = emit_smtlib(req)
    assert "(assert (>= (+ (- 0.5) v) 0.0))" in text
    assert "0.00000000000000000001" in text  # no scientific notation
    assert "e-" not in text.lower().replace("declare-const", "")


def test_emit_rewrites_exact_reciprocal_division():
    text = emit_smtlib(unit_request(Comparison(Rel.GT, div(V, const(2.0)), const(0.0))))
    assert "(* v 0.5)" in text
    # the coefficient 1/3 is written so that it reads back as the same float
    text = emit_smtlib(unit_request(Comparison(Rel.GT, div(V, const(3.0)), const(0.0))))
    assertion = parsed(text)[-2]
    assert assertion == ["assert", [">", ["*", "v", "0.3333333333333333"], "0.0"]]
    assert float(assertion[1][1][2]) == 1.0 / 3.0


def test_emit_writes_a_zero_of_either_sign_as_a_numeral():
    # repr(-0.0) is "-0.0", which SMT-LIB reads as a symbol
    text = emit_smtlib(SolverRequest((("v", -0.0, 1.0),), (Comparison(Rel.LT, V, const(0.5)),)))
    assert "(assert (>= v 0.0))" in text
    assert "-0.0" not in text


def test_emit_not_equal_uses_negated_equality():
    text = emit_smtlib(unit_request(Comparison(Rel.NE, V, const(0.5))))
    assert "(assert (not (= (+ (- 0.5) v) 0.0)))" in text


def test_request_rejects_undeclared_variables():
    with pytest.raises(SolverError):
        SolverRequest(variables=(("v", 0.0, 1.0),),
                      assertion=(Comparison(Rel.GT, var("w"), const(0.0)),))


def test_request_construction_walks_shared_subterms_once():
    expr = V
    for _ in range(24):  # a 25-node DAG that unfolds to a 2**24-leaf tree
        expr = add(expr, expr)
    start = time.monotonic()
    SolverRequest(variables=(("v", 0.0, 1.0),),
                  assertion=(Comparison(Rel.GT, expr, const(0.0)),))
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# model value parsing: the shared term reader
# ---------------------------------------------------------------------------


def model_value(text: str) -> float:
    """The value of ``v`` in a one-variable model whose value is ``text``."""
    return read_model(parsed(f"((define-fun v () Real {text}))")[0], ["v"])["v"]


@pytest.mark.parametrize("text,value", [
    ("0.5", 0.5),
    ("3", 3.0),
    ("(/ 1 2)", 0.5),
    ("(- 0.25)", -0.25),
    ("(- (/ 3 4))", -0.75),
    ("(/ 1.5 0.5)", 3.0),
    ("(/ 3602879701896397 36028797018963968)", 0.1),
])
def test_parse_model_value_forms(text, value):
    assert model_value(text) == value


def test_parse_model_value_rejects_garbage():
    with pytest.raises(SolverError):
        model_value("banana")
    with pytest.raises(SolverError):
        model_value("(^ 1 2)")


@pytest.mark.parametrize("p, q", [(2**53 + 1, 3), (2**53 + 1, 7), (123456789012345678901, 10)])
def test_a_rational_model_value_folds_exactly(p, q):
    # p is no double: dividing the nearest doubles would round twice
    want = float(Fraction(p, q))
    assert float(p) / q != want
    assert model_value(f"(/ {p} {q})") == want
    assert model_value(f"(/ {p}.0 {q}.0)") == want  # as z3 writes it
    assert model_value(f"(- (/ {p} {q}))") == -want  # as z3 and cvc5 write a negative one


@pytest.mark.parametrize("text", ["w", "(+ w 1.0)", "(/ 1.0 0.0)", "1e400", "(* 1e300 1e300)",
                                  pytest.param(f"(/ 1 0.{'0' * 400}1)", id="quotient-past-max")])
def test_a_model_value_that_is_not_a_finite_constant_is_an_error(text):
    with pytest.raises(SolverError):
        model_value(text)


def test_a_model_reads_each_wanted_name_at_any_depth():
    (reply,) = parsed("(model (define-fun u () Real 1.0) (define-fun w () Real q)\n"
                      "  ((define-fun v () Real (- 2.5)) (define-fun u () Real 3.0)))")
    # w is not read, and the last value of u is
    assert read_model(reply, ["u", "v"]) == {"u": 3.0, "v": -2.5}
    with pytest.raises(SolverError, match="omits"):
        read_model(reply, ["u", "x"])


def test_every_rendered_model_reads_back_bit_identical():
    rng = np.random.default_rng(37)
    names = ["a", "b", "c"]
    for _ in range(2000):
        witness = {name: float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
                   for name in names}
        (reply,) = parsed(render_model(witness, names))
        assert read_model(reply, names) == witness  # no zero: == is bit-identity


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def test_grid_oracle_finds_boundary_point():
    verdict = grid_oracle(unit_request(V_SQUARED_LT_1), resolution=1024)
    assert verdict.status == "sat"
    assert verdict.assignment == {"v": 0.0}


def test_grid_oracle_reports_unknown_when_nothing_satisfies():
    verdict = grid_oracle(unit_request(Comparison(Rel.GT, V, const(1.0))))
    assert verdict.status == "unknown"


def test_grid_oracle_solution_set_matches_worked_predicate():
    # bypassed row-0 predicate is equivalent to v^2 < 1 on [0, 1]
    r = 1.0 / math.sqrt(2)
    lhs = mul(add(mul(V, const(6.0)), const(6.0)), const(r))
    rhs = mul(add(add(mul(mul(V, V), const(3.0)), mul(V, const(6.0))), const(3.0)),
              const(r))
    request = unit_request(Comparison(Rel.GT, lhs, rhs))
    for k in (0, 100, 1023):
        point = {"v": k / 1024}
        want = point["v"] ** 2 < 1.0
        assert assignment_satisfies(request, point) == want
    verdict = grid_oracle(request, resolution=1024)
    assert verdict.status == "sat" and 0.0 <= verdict.assignment["v"] < 1.0


def test_grid_oracle_rejects_three_variables():
    req = SolverRequest(variables=(("a", 0, 1), ("b", 0, 1), ("c", 0, 1)),
                        assertion=())
    with pytest.raises(SolverError):
        grid_oracle(req)


@pytest.mark.parametrize("resolution", [2.5, -1])
def test_grid_oracle_resolution_not_an_integer_at_least_0_is_an_error(resolution):
    # v * w > 1.05 has no point in [0, 1]^2, but an axis of arange(3.5) / 2.5
    # runs to 1.2 and is sat there, and at -1 numpy took the max of no points
    request = SolverRequest((("v", 0.0, 1.0), ("w", 0.0, 1.0)),
                            (Comparison(Rel.GT, mul(V, var("w")), const(1.05)),))
    with pytest.raises(SolverError, match="resolution"):
        GridOracle(resolution).check(request)
    assert GridOracle(np.int64(2)).check(request).status == "unknown"


def test_empty_assertion_is_sat_for_both_backends(refsolver_backend):
    req = SolverRequest(variables=(("a", 0.0, 1.0), ("b", 0.0, 1.0)), assertion=())
    assert grid_oracle(req).status == "sat"
    assert refsolver_backend.check(req).status == "sat"


# ---------------------------------------------------------------------------
# external backend
# ---------------------------------------------------------------------------


def test_external_unsat_on_conflicting_bounds(refsolver_backend):
    request = unit_request(Comparison(Rel.GE, V, const(2.0)))
    verdict = refsolver_backend.check(request)
    assert verdict.status == "unsat"
    # the backend answers without its child; the child proves it on its own
    assert refsolver.solve_script(emit_smtlib(request)) == ("unsat", None, ["v"])


def test_external_sat_with_substitution_check(refsolver_backend):
    request = unit_request(V_SQUARED_LT_1, Comparison(Rel.GT, V, const(0.3)))
    verdict = refsolver_backend.check(request)
    assert verdict.status == "sat"
    assert 0.3 < verdict.assignment["v"] < 1.0
    assert assignment_satisfies(request, verdict.assignment)


def test_external_timeout_is_reaped():
    slow = ExternalSolver(["sleep", "5"])
    verdict = slow.check(unit_request(V_SQUARED_LT_1, timeout=0.05))
    assert verdict.status == "timeout"


def test_external_nonzero_exit_is_solver_error():
    verdict = ExternalSolver(["false"]).check(unit_request(V_SQUARED_LT_1))
    assert verdict.status == "solver_error"


def test_external_unparseable_output_is_solver_error():
    verdict = ExternalSolver(["echo", "sat ((("]).check(unit_request(V_SQUARED_LT_1))
    assert verdict.status == "solver_error"
    assert "sat" in verdict.transcript


def test_external_model_is_read_after_the_answer_line():
    stub = ("import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            "        print('(set-info :status unsatisfiable)'); print('sat', flush=True)\n"
            "    elif line.strip() == '(get-model)':\n"
            "        print('(model (define-fun v () Real 0.25))', flush=True)\n")
    verdict = ExternalSolver([sys.executable, "-c", stub]).check(
        unit_request(V_SQUARED_LT_1))
    assert verdict.status == "sat"
    assert verdict.assignment == {"v": 0.25}


def test_read_to_eof_solver_times_out():
    # a solver must answer each (check-sat) as it arrives; stdin stays open
    stub = "import sys; sys.stdin.read(); print('sat'); print('()')"
    verdict = ExternalSolver([sys.executable, "-c", stub]).check(
        unit_request(V_SQUARED_LT_1, timeout=0.5))
    assert verdict.status == "timeout"


def test_external_missing_command_raises():
    with pytest.raises(SolverError):
        ExternalSolver(["definitely-not-a-solver-binary"]).check(
            unit_request(V_SQUARED_LT_1))


SQUARE = (("a", 0.0, 1.0), ("b", 0.0, 1.0))


@pytest.mark.parametrize("clipped", [
    unit_request(Comparison(Rel.GE, V, const(2.0))),
    unit_request(Comparison(Rel.GT, mul(V, V), const(2.0))),
    SolverRequest((("v", 1.0, 0.0),), ()),
    SolverRequest(SQUARE, (Comparison(Rel.GT, add(var("a"), var("b")), const(2.5)),)),
    SolverRequest((("a", 0.0, 1.0), ("b", 1.0, 0.0)), ()),
    SolverRequest(SQUARE + (("c", 1.0, 0.0),), ()),
], ids=["affine", "quadratic", "empty box", "two variables", "two variables, empty box",
        "three variables, empty box"])
def test_clip_empty_request_is_unsat_without_the_solver(clipped):
    backend = ExternalSolver(["definitely-not-a-solver-binary"])
    assert backend.check(clipped) == SolverVerdict("unsat")
    assert not backend._sessions  # nothing was started
    # what the clip does not decide still goes to the solver: a request it
    # leaves a point of, one without variables (the CLI's pre-flight), and
    # one past two variables whose box is not empty, as the clip reads no
    # conjunct of it
    for request in (unit_request(V_SQUARED_LT_1), SolverRequest((), ()),
                    SolverRequest(SQUARE + (("c", 0.0, 1.0),),
                                  (Comparison(Rel.GT, var("c"), const(2.0)),))):
        with pytest.raises(SolverError, match="cannot run solver command"):
            backend.check(request)


@pytest.mark.parametrize("command", [" ", "", [], "'x", 'z3 "-in'])
def test_command_naming_no_program_or_not_splitting_raises(command):
    backend = ExternalSolver(command)
    with pytest.raises(SolverError, match="names no program|cannot split"):
        backend.argv()
    with pytest.raises(SolverError):
        backend.check(unit_request(V_SQUARED_LT_1))


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------

# An interactive stub: logs its pid, answers sat with v = 0.25, and on its
# second (check-sat) hangs or exits with a message on stderr.
SESSION_STUB = """
import os, sys, time
log, second = sys.argv[1], sys.argv[2]
with open(log, "a") as fh:
    fh.write(f"{os.getpid()}\\n")
checks = 0
for line in sys.stdin:
    if line.strip() == "(check-sat)":
        checks += 1
        if checks == 2 and second == "hang":
            time.sleep(60)
        if checks == 2 and second == "exit":
            print("stub: giving up", file=sys.stderr)
            sys.exit(1)
        print("sat", flush=True)
    elif line.strip() == "(get-model)":
        print("((define-fun v () Real 0.25))", flush=True)
"""


def session_stub(tmp_path, second="answer"):
    log = tmp_path / "pids.txt"
    backend = ExternalSolver([sys.executable, "-c", SESSION_STUB, str(log), second])
    return backend, lambda: [int(pid) for pid in log.read_text().split()]


def is_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sequential_checks_share_one_process(tmp_path):
    backend, pids = session_stub(tmp_path)
    verdicts = [backend.check(unit_request(V_SQUARED_LT_1)) for _ in range(10)]
    assert [v.assignment for v in verdicts] == [{"v": 0.25}] * 10
    assert len(pids()) == 1


def test_check_after_a_timeout_starts_a_fresh_process(tmp_path):
    backend, pids = session_stub(tmp_path, "hang")
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    assert backend.check(unit_request(V_SQUARED_LT_1, timeout=0.5)).status == "timeout"
    assert not is_running(pids()[0])  # the hung child was killed
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    assert len(pids()) == 2


def test_child_exit_mid_session_is_solver_error_then_recovers(tmp_path):
    backend, pids = session_stub(tmp_path, "exit")
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    verdict = backend.check(unit_request(V_SQUARED_LT_1))
    assert verdict.status == "solver_error"
    assert "stub: giving up" in verdict.transcript
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    assert len(pids()) == 2


def test_interrupted_check_discards_its_process(tmp_path):
    backend, pids = session_stub(tmp_path, "hang")
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            backend.check(unit_request(V_SQUARED_LT_1))  # the stub hangs
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not is_running(pids()[0])
    # a fresh process answers; the hung one would answer this request late
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    assert len(pids()) == 2


def test_no_get_model_follows_unsat_or_unknown(tmp_path):
    # SMT-LIB 2.6 allows (get-model) only after sat or unknown: this stub
    # exits if one follows unsat or unknown
    log = tmp_path / "pids.txt"
    stub = ("import os, sys\n"
            "with open(sys.argv[1], 'a') as fh:\n"
            "    fh.write(f'{os.getpid()}\\n')\n"
            "answers = iter(['unsat', 'unknown', 'sat'])\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            "        answer = next(answers)\n"
            "        print(answer, flush=True)\n"
            "    elif line.strip() == '(get-model)' and answer != 'sat':\n"
            "        sys.exit(1)\n"
            "    elif line.strip() == '(get-model)':\n"
            "        print('((define-fun v () Real 0.25))', flush=True)\n")
    backend = ExternalSolver([sys.executable, "-c", stub, str(log)])
    verdicts = [backend.check(unit_request(V_SQUARED_LT_1)) for _ in range(3)]
    assert [(v.status, v.assignment) for v in verdicts] == \
        [("unsat", None), ("unknown", None), ("sat", {"v": 0.25})]
    assert len(log.read_text().split()) == 1


def test_transcript_holds_only_the_replies_of_its_own_check():
    # z3 answers (get-model) after unsat with an (error ...) line; none is
    # asked for, so none reaches the next check's transcript
    stub = ("import sys\n"
            "answers = iter(['unsat', '(error \"boom\")'])\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            "        answer = next(answers)\n"
            "        print(answer, flush=True)\n"
            "    elif line.strip() == '(get-model)':\n"
            "        print('(error \"model is not available\")', flush=True)\n")
    backend = ExternalSolver([sys.executable, "-c", stub])
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "unsat"
    verdict = backend.check(unit_request(V_SQUARED_LT_1))
    assert verdict.status == "solver_error"
    assert "boom" in verdict.transcript
    assert "model is not available" not in verdict.transcript


@pytest.mark.parametrize("error", ['(error "expected ( here")',
                                   '(error "line 1: ""("" expected")',
                                   '(error |bad ( symbol|)'])
def test_parenthesis_in_an_error_string_is_solver_error_at_once(error):
    # a "(" inside a string literal or quoted symbol opens no s-expression
    stub = ("import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            f"        print({error!r}, flush=True)\n")
    backend = ExternalSolver([sys.executable, "-c", stub])
    start = time.monotonic()
    verdict = backend.check(unit_request(V_SQUARED_LT_1, timeout=20.0))
    assert verdict.status == "solver_error"
    assert error in verdict.transcript
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("reply", ["sat )", ") (sat"])
def test_reply_with_an_excess_close_paren_is_solver_error_at_once(reply):
    stub = ("import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            f"        print({reply!r}, flush=True)\n")
    backend = ExternalSolver([sys.executable, "-c", stub])
    start = time.monotonic()
    verdict = backend.check(unit_request(V_SQUARED_LT_1, timeout=2.0))
    assert verdict.status == "solver_error"
    assert reply in verdict.transcript
    assert time.monotonic() - start < 1.0


def test_forms_are_framed_where_a_line_closes_every_paren():
    lines = ['(echo "a (\n', 'b") x\n', "; a ( comment\n", "(y\n", " |z )|)\n"]
    assert list(_forms(lines)) == [('(echo "a (\nb") x\n', [["echo", '"a (\nb"'], "x"]),
                                   ("; a ( comment\n", []),
                                   ("(y\n |z )|)\n", [["y", "|z )|"]])]


@pytest.mark.parametrize("lines", [["(a))\n"], [") (\n"], ["(a\n"], ['(a "b\n']])
def test_forms_reject_an_excess_close_paren_at_once_and_an_open_form_at_the_end(lines):
    def read():
        yield from lines
        if ")" in lines[0]:
            raise AssertionError("read past the excess )")

    with pytest.raises(SolverError, match="unbalanced"):
        list(_forms(read()))


def test_tokenize_keeps_literals_whole():
    text = '(echo "a ( b ""c"" ; d") ; a ( comment\n(|x ) y| 1.5)'
    assert _tokenize(text) == ["(", "echo", '"a ( b ""c"" ; d"', ")",
                               "(", "|x ) y|", "1.5", ")"]


def test_one_process_per_thread_and_dropping_the_backend_reaps_them(tmp_path):
    backend, pids = session_stub(tmp_path)
    barrier = threading.Barrier(4)  # every worker thread checks at least once

    def check(index):
        if index < 4:
            barrier.wait(timeout=30)
        return threading.get_ident(), backend.check(unit_request(V_SQUARED_LT_1)).assignment

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(check, range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [assignment for _, assignment in results] == [{"v": 0.25}] * 24
    assert len(pids()) == len({thread for thread, _ in results}) == 4
    assert all(map(is_running, pids()))
    del backend
    gc.collect()
    assert not any(map(is_running, pids()))


def test_a_new_session_closes_those_of_ended_threads(tmp_path):
    backend, pids = session_stub(tmp_path)
    barrier = threading.Barrier(4)  # four threads, four children

    def check(_):
        barrier.wait(timeout=30)
        return backend.check(unit_request(V_SQUARED_LT_1)).status

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(check, range(4), timeout=120)) == ["sat"] * 4
    assert sum(map(is_running, pids())) == 4  # the pool's threads have ended
    assert backend.check(unit_request(V_SQUARED_LT_1)).status == "sat"
    assert [is_running(pid) for pid in pids()] == [False] * 4 + [True]


# ---------------------------------------------------------------------------
# randomized round trip / backend agreement
# ---------------------------------------------------------------------------


def random_polynomial(rng: np.random.Generator, names):
    terms = [const(float(rng.uniform(-2, 2)))]
    for name in names:
        v = var(name)
        terms.append(mul(v, const(float(rng.uniform(-2, 2)))))
        if rng.random() < 0.5:
            other = var(str(rng.choice(names)))
            terms.append(mul(mul(v, other), const(float(rng.uniform(-1, 1)))))
    expr = terms[0]
    for term in terms[1:]:
        expr = add(expr, term)
    return expr


def test_round_trip_and_backend_agreement(refsolver_backend):
    rng = np.random.default_rng(12)
    rels = [Rel.LT, Rel.LE, Rel.GT, Rel.GE]
    agreements = 0
    for trial in range(40):
        names = ["a"] if trial % 2 else ["a", "b"]
        variables = tuple((n, 0.0, 1.0) for n in names)
        comparisons = tuple(
            Comparison(rels[rng.integers(len(rels))],
                       random_polynomial(rng, names),
                       const(float(rng.uniform(-1, 1))))
            for _ in range(rng.integers(1, 3)))
        request = SolverRequest(variables, comparisons, timeout_s=30.0)
        grid = grid_oracle(request, resolution=256)
        external = refsolver_backend.check(request)
        context = (f"trial {trial}: {external.status}\nscript:\n{emit_smtlib(request)}"
                   f"transcript:\n{external.transcript}")
        if grid.status == "sat":
            assert assignment_satisfies(request, grid.assignment)
            assert external.status == "sat", f"external solver contradicted grid sat; {context}"
            agreements += 1
        if external.status == "sat":
            assert assignment_satisfies(request, external.assignment), context
    assert agreements > 5  # fixture produced a healthy mix
