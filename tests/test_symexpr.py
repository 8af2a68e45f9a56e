from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnconcolic.semantics import stable_softmax
from attnconcolic.symexpr import (
    AssociationScopeError,
    Comparison,
    ConcolicArithmeticError,
    DeclarationError,
    ExecutionContext,
    NeuronId,
    Rel,
    arith,
    as_scalar,
    const,
    evaluate,
    mul,
    add,
    sub,
    div,
    neg,
    polynomial,
    to_infix,
    var,
)

SCOPE = ((NeuronId(1, (0, 0)),), 0)


HOLDS = {Rel.LT: operator.lt, Rel.LE: operator.le, Rel.GT: operator.gt,
         Rel.GE: operator.ge, Rel.EQ: operator.eq, Rel.NE: operator.ne}


def record(ctx: ExecutionContext, rel: Rel, a, b) -> bool:
    """Record ``a rel b`` of two concolic scalars in ``SCOPE`` as the guard
    ``Comparison(rel, a, b)``, its truth from the concrete parts; return it."""
    a, b = as_scalar(a), as_scalar(b)
    taken = HOLDS[rel](a.concrete, b.concrete)
    ctx.record(rel, Comparison(rel, a.expr(), b.expr()).p, taken, SCOPE)
    return taken


# ---------------------------------------------------------------------------
# symvar
# ---------------------------------------------------------------------------


def test_symvar_returns_seeded_variable():
    ctx = ExecutionContext()
    s = ctx.symvar("v", 2)
    assert s.concrete == 2.0
    assert s.sym == var("v")
    assert ctx.variables == {"v": 2.0}


def test_symvar_zero_seed():
    ctx = ExecutionContext()
    s = ctx.symvar("p0", 0)
    assert s.concrete == 0.0 and s.sym == var("p0")


def test_variable_leaf_evaluation():
    assert evaluate(var("v"), {"v": 2}) == 2


def test_symvar_duplicate_name_rejected():
    ctx = ExecutionContext()
    ctx.symvar("v", 1)
    with pytest.raises(DeclarationError):
        ctx.symvar("v", 2)


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------


def test_linear_propagation_matches_worked_example():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    out = arith("add", arith("mul", v, as_scalar(1)), as_scalar(1))
    assert out.concrete == 3.0
    assert to_infix(out.sym) == "(v + 1.0)"


def test_multiplication_by_zero_folds_to_constant():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    out = arith("mul", v, as_scalar(0))
    assert out.concrete == 0.0
    assert out.sym == const(0.0)


def test_product_matches_real_arithmetic_oracle():
    # (v+1)*(2v+2) at v=2 -> 18, via both the concrete part and symbolic eval
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    product = (v + 1) * (v * 2 + 2)
    assert product.concrete == (2 + 1) * (2 * 2 + 2) == 18
    assert evaluate(product.sym, {"v": 2.0}) == 18.0


def test_plain_scalars_stay_plain():
    out = as_scalar(5) * as_scalar(3) + as_scalar(1)
    assert out.concrete == 16.0 and out.sym is None


def test_division_by_concrete_zero_raises_with_expression():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 1)
    with pytest.raises(ConcolicArithmeticError) as err:
        arith("div", v, as_scalar(0.0))
    assert err.value.expression is not None


def test_negation_operator():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 3)
    out = -(v + 1)
    assert out.concrete == -4.0
    assert evaluate(out.sym, {"v": 3.0}) == -4.0
    assert neg(neg(var("v"))) == var("v")


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------


def test_compare_emits_event_with_bypassed_guard():
    # scaled attention scores of the worked example, row 0: 18/sqrt(2) vs 27/sqrt(2)
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    r = 1 / math.sqrt(2)
    s01 = (v * 6 + 6) * r
    s00 = (v * v * 3 + v * 6 + 3) * r
    assert record(ctx, Rel.GT, s01, s00) is False
    assert len(ctx.events) == 1
    event = ctx.events[0]
    assert event.taken is False
    # branch not entered is the guard itself: s01 > s00
    assert event.bypassed_predicate == event.guard
    assert event.guard.rel is Rel.GT
    assert (event.assoc_neurons, event.layer_index) == SCOPE


def test_compare_records_the_guard_as_relop_zero():
    # the worked example's row-0 sides, normalized once when recorded
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    r = 1 / math.sqrt(2)
    a, b = (v * 6 + 6) * r, (v * v * 3 + v * 6 + 3) * r
    record(ctx, Rel.GT, a, b)
    (event,) = ctx.events
    assert event.guard.p == sub(a.sym, b.sym)
    assert event.bypassed_predicate.p is event.taken_literal().p is event.guard.p
    # algebraically equivalent to v^2 < 1 on 100 sample points
    for k in range(100):
        point = {"v": -1.5 + 3.0 * k / 99}
        holds = evaluate(event.guard.p, point) > 0.0
        assert holds == (point["v"] ** 2 < 1.0)


def test_max_scan_on_half_symbolic_row_emits_one_event():
    ctx = ExecutionContext()
    stable_softmax([ctx.symvar("v", 1), as_scalar(1)], ctx)
    assert len(ctx.events) == 1


def test_symbolic_compare_requires_scope():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 1)
    with pytest.raises(AssociationScopeError):
        ctx.record(Rel.GT, v.sym, True, ((), 0))
    assert ctx.events == []


def test_event_negation_holds_exactly_one_side():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 0.7)
    record(ctx, Rel.GT, v * v, as_scalar(0.3))
    record(ctx, Rel.LE, v + 1, v * 2)
    assignment = dict(ctx.variables)
    for event in ctx.events:
        assert event.guard.holds_at(assignment) is event.taken
        # the path satisfies the taken literal and falsifies the bypassed one
        taken_lit = event.taken_literal().holds_at(assignment)
        bypassed = event.bypassed_predicate.holds_at(assignment)
        assert taken_lit and not bypassed


def test_taken_and_bypassed_literals_hold_on_complementary_points():
    ctx = ExecutionContext()
    v, w = ctx.symvar("v", 0.75), ctx.symvar("w", 0.25)
    for rel in Rel:  # each relation, as a guard that holds and one that does not
        record(ctx, rel, v, w)
        record(ctx, rel, v * v, as_scalar(0.25))
    assert {event.taken for event in ctx.events} == {True, False}
    # a grid with ties v == w and v * v == 0.25 on it
    points = [{"v": i / 8, "w": j / 8} for i in range(-8, 9) for j in range(-8, 9)]
    for event in ctx.events:
        assert event.taken_literal().holds_at(ctx.variables)
        for point in points:
            assert event.taken_literal().holds_at(point) != \
                event.bypassed_predicate.holds_at(point)


def test_exp_pipeline_matches_real_exp_oracle():
    # the softmax concretizes its exponent arguments through the values
    ctx = ExecutionContext()
    v = ctx.symvar("v", -9 / math.sqrt(2))
    probs = stable_softmax([as_scalar(0.0), v], ctx)
    assert probs[1].sym is None
    got = probs[1].concrete / probs[0].concrete
    assert got == pytest.approx(math.exp(-9 / math.sqrt(2)), rel=1e-12)
    assert got == pytest.approx(0.00172253, rel=1e-5)


# ---------------------------------------------------------------------------
# comparison algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rel,negated", [
    (Rel.LT, Rel.GE), (Rel.LE, Rel.GT), (Rel.GT, Rel.LE),
    (Rel.GE, Rel.LT), (Rel.EQ, Rel.NE), (Rel.NE, Rel.EQ),
])
def test_negation_is_an_involution(rel, negated):
    cmp = Comparison(rel, var("x"), const(1.0))
    assert cmp.negate().rel is negated
    assert cmp.negate().negate() == cmp


# ---------------------------------------------------------------------------
# polynomials and structure
# ---------------------------------------------------------------------------


def test_identical_subexpressions_are_shared():
    x = var("x")
    a = add(mul(x, x), const(1.0))
    b = add(mul(x, x), const(1.0))
    assert a == b and hash(a) == hash(b)
    assert a.monomials == ((), ("x", "x")) and a.coeffs == (1.0, 1.0)


def test_equality_goes_by_the_polynomial():
    a, b, k = var("a"), var("b"), const(0.3)
    regrouped = (mul(add(a, b), k), add(mul(b, k), mul(a, k)))  # (a + b)k, bk + ak
    assert regrouped[0] == regrouped[1]
    guards = [Comparison(Rel.GT, side, const(0.0)) for side in regrouped]
    assert guards[0].key() == guards[1].key()
    assert to_infix(regrouped[0]) != to_infix(regrouped[1])  # the operands differ
    cancelled = sub(mul(a, const(2.0)), add(a, a))
    assert cancelled == const(0.0) and cancelled.monomials == ()
    assert mul(a, b) == mul(b, a) and mul(a, b) != mul(a, a)


def test_symbolic_divisor_is_rejected_at_construction():
    x = var("x")
    with pytest.raises(ConcolicArithmeticError):
        div(const(1.0), add(x, const(1.0)))
    with pytest.raises(ConcolicArithmeticError):
        div(x, sub(x, x))  # a divisor whose polynomial is zero
    assert div(x, add(const(4.0), sub(x, x))) == mul(x, const(0.25))


def test_normalization_invariants():
    x = var("x")
    assert add(const(2.0), const(3.0)) == const(5.0)
    assert sub(x, const(0.0)) is x
    assert add(const(0.0), x) is x
    assert mul(x, const(1.0)) is x
    assert div(x, const(1.0)) is x
    with pytest.raises(ConcolicArithmeticError):
        div(x, const(0.0))


def test_infix_serialization():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    expr = ((v + 1) * (v * 2 + 2)).sym
    assert to_infix(expr) == "((v + 1.0) * ((v * 2.0) + 2.0))"
    assert to_infix(const(0.5)) == "0.5"


def test_polynomial_leaf_infix_is_its_sum_of_monomials():
    leaf = polynomial([((), 1.5), (("p1",), -2.0), (("p0", "p1"), 0.25), (("p1",), 0.5)])
    assert leaf.kind == "poly" and leaf.args == ()
    assert to_infix(leaf) == "(1.5 + 0.25 * p0 * p1 + -1.5 * p1)"
    assert to_infix(polynomial([((), 2.0), (("p0",), 0.0)])) == "(2.0)"
    assert to_infix(polynomial([(("p0",), -0.0)])) == "(0.0)"
    assert to_infix(sub(polynomial([(("v",), 3.0)]), const(1.0))) == "((3.0 * v) - 1.0)"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


_LEAF_CONST = st.floats(min_value=-3.0, max_value=3.0,
                        allow_nan=False, allow_infinity=False)


@st.composite
def expr_with_reference(draw, depth=3):
    """A random concolic build plus an unfolded reference evaluator."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            c = draw(_LEAF_CONST)
            return const(c), (lambda env, c=c: c)
        name = draw(st.sampled_from(["a", "b"]))
        return var(name), (lambda env, n=name: env[n])
    op = draw(st.sampled_from(["+", "-", "*", "neg", "divc"]))
    left, left_ref = draw(expr_with_reference(depth=depth - 1))
    if op == "neg":
        return neg(left), (lambda env, f=left_ref: -f(env))
    if op == "divc":
        denom = draw(st.sampled_from([0.5, -1.25, 2.0, 3.0]))
        return div(left, const(denom)), (lambda env, f=left_ref, d=denom: f(env) / d)
    right, right_ref = draw(expr_with_reference(depth=depth - 1))
    builder = {"+": add, "-": sub, "*": mul}[op]
    pyop = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b}[op]
    return builder(left, right), (lambda env, f=left_ref, g=right_ref, o=pyop:
                                  o(f(env), g(env)))


@settings(max_examples=200, deadline=None)
@given(expr_with_reference(), _LEAF_CONST, _LEAF_CONST)
def test_fold_soundness(expr_ref, a, b):
    expr, ref = expr_ref
    env = {"a": a, "b": b}
    assert evaluate(expr, env) == pytest.approx(ref(env), rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["add", "sub", "mul"]), min_size=1, max_size=8),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_concrete_symbolic_coherence(ops, seed, operand):
    ctx = ExecutionContext()
    acc = ctx.symvar("v", seed)
    other = as_scalar(operand)
    for op in ops:
        acc = arith(op, acc, other)
        assert evaluate(acc.sym, ctx.variables) == pytest.approx(
            acc.concrete, rel=1e-9, abs=1e-12)
