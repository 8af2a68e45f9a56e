from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from attnconcolic.solver import (
    ExternalSolver,
    GridOracle,
    SolverError,
    SolverRequest,
    assignment_satisfies,
    check,
    emit_smtlib,
    grid_oracle,
    parse_model_value,
    _parse_sexprs,
    _tokenize,
)
from attnconcolic.symexpr import Comparison, Rel, add, const, div, mul, var


def unit_request(*comparisons, timeout=None) -> SolverRequest:
    return SolverRequest(variables=(("v", 0.0, 1.0),), assertion=tuple(comparisons),
                         timeout_s=timeout)


V = var("v")
V_SQUARED_LT_1 = Comparison(Rel.LT, mul(V, V), const(1.0))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_contains_declaration_bounds_and_assertion():
    text = emit_smtlib(unit_request(V_SQUARED_LT_1))
    assert "(set-logic QF_NRA)" in text
    assert "(declare-const v Real)" in text
    assert "(assert (>= v 0.0))" in text and "(assert (<= v 1.0))" in text
    assert "(assert (< (* v v) 1.0))" in text
    assert text.index("(check-sat)") < text.index("(get-model)")


def test_emit_is_byte_deterministic():
    req = unit_request(V_SQUARED_LT_1, Comparison(Rel.GT, V, const(0.25)))
    assert emit_smtlib(req) == emit_smtlib(req)


def test_emit_decimals_round_trip_and_negatives():
    req = unit_request(Comparison(Rel.GE, V, const(-0.5)),
                       Comparison(Rel.LT, V, const(1e-20)))
    text = emit_smtlib(req)
    assert "(- 0.5)" in text
    assert "0.00000000000000000001" in text  # no scientific notation
    assert "e-" not in text.lower().replace("declare-const", "")


def test_emit_rewrites_exact_reciprocal_division():
    text = emit_smtlib(unit_request(Comparison(Rel.GT, div(V, const(2.0)), const(0.0))))
    assert "(* v 0.5)" in text
    # the coefficient 1/3 is written so that it reads back as the same float
    text = emit_smtlib(unit_request(Comparison(Rel.GT, div(V, const(3.0)), const(0.0))))
    assertion = _parse_sexprs(_tokenize(text))[-3]
    assert assertion == ["assert", [">", ["*", "v", "0.3333333333333333"], "0.0"]]
    assert float(assertion[1][1][2]) == 1.0 / 3.0


def test_emit_not_equal_uses_negated_equality():
    text = emit_smtlib(unit_request(Comparison(Rel.NE, V, const(0.5))))
    assert "(assert (not (= v 0.5)))" in text


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
# model value parsing
# ---------------------------------------------------------------------------


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
    forms = _parse_sexprs(_tokenize(text))
    assert parse_model_value(forms[0]) == value


def test_parse_model_value_rejects_garbage():
    with pytest.raises(SolverError):
        parse_model_value("banana")
    with pytest.raises(SolverError):
        parse_model_value(["^", "1", "2"])


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


def test_empty_assertion_is_sat_for_both_backends(refsolver_backend):
    req = SolverRequest(variables=(("a", 0.0, 1.0), ("b", 0.0, 1.0)), assertion=())
    assert grid_oracle(req).status == "sat"
    assert refsolver_backend.check(req).status == "sat"


# ---------------------------------------------------------------------------
# external backend
# ---------------------------------------------------------------------------


def test_external_unsat_on_conflicting_bounds(refsolver_backend):
    verdict = refsolver_backend.check(unit_request(Comparison(Rel.GE, V, const(2.0))))
    assert verdict.status == "unsat"


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
    stub = ("import sys; sys.stdin.read(); "
            "print('(set-info :status unsatisfiable)'); print('sat'); "
            "print('(model (define-fun v () Real 0.25))')")
    verdict = ExternalSolver([sys.executable, "-c", stub]).check(
        unit_request(V_SQUARED_LT_1))
    assert verdict.status == "sat"
    assert verdict.assignment == {"v": 0.25}


def test_external_missing_command_raises():
    with pytest.raises(SolverError):
        ExternalSolver(["definitely-not-a-solver-binary"]).check(
            unit_request(V_SQUARED_LT_1))


def test_check_dispatches_to_both_backend_kinds(refsolver_backend):
    req = unit_request(V_SQUARED_LT_1)
    assert check(GridOracle(64), req).status == "sat"
    assert check(refsolver_backend, req).status == "sat"


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
        if grid.status == "sat":
            assert assignment_satisfies(request, grid.assignment)
            assert external.status == "sat", "external solver contradicted grid sat"
            agreements += 1
        if external.status == "sat":
            assert assignment_satisfies(request, external.assignment)
    assert agreements > 5  # fixture produced a healthy mix
