"""The polynomial grid oracle against an array oracle.

``reference_grid_oracle`` evaluates each conjunct with ``evaluate`` as one
array over the full meshgrid.  The grid oracle's kernel, tie band and
re-check must give the same verdict and the same witness on every request it
accepts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from attnconcolic.solver import SolverRequest, SolverVerdict, _dense, grid_oracle
from attnconcolic.symexpr import (
    Comparison,
    ConcolicArithmeticError,
    Rel,
    add,
    const,
    div,
    evaluate,
    mul,
    neg,
    sub,
    var,
)

UNIT_ROUNDOFF = 2.0 ** -53


def reference_grid_oracle(request: SolverRequest, resolution: int = 1024) -> SolverVerdict:
    """Every conjunct evaluated as one array over the whole grid."""
    if not request.variables:
        return SolverVerdict("sat", assignment={})
    axes = []
    for _, lo, hi in request.variables:
        steps = np.arange(resolution + 1, dtype=float) / resolution
        axes.append(lo + (hi - lo) * steps)
    grids = np.meshgrid(*axes, indexing="ij")
    assignment_arrays = {name: grid.reshape(-1)
                         for (name, _, _), grid in zip(request.variables, grids)}
    ok = np.ones(grids[0].size, dtype=bool)
    ufuncs = {Rel.LT: np.less, Rel.LE: np.less_equal, Rel.GT: np.greater,
              Rel.GE: np.greater_equal, Rel.EQ: np.equal, Rel.NE: np.not_equal}
    with np.errstate(all="ignore"):
        for cmp in request.assertion:
            lhs = evaluate(cmp.lhs, assignment_arrays)
            rhs = evaluate(cmp.rhs, assignment_arrays)
            ok &= ufuncs[cmp.rel](lhs, rhs)
            if not ok.any():
                return SolverVerdict("unknown")
    hit = int(np.argmax(ok))
    return SolverVerdict("sat", assignment={name: float(vals[hit])
                                            for name, vals in assignment_arrays.items()})


# ---------------------------------------------------------------------------
# random degree <= 2 requests
# ---------------------------------------------------------------------------

RELS = list(Rel)


def random_constant(rng: np.random.Generator) -> float:
    """Uniform floats, dyadic values and one-decimal values: the last two
    put solution boundaries on grid points, where rounding decides ties."""
    kind = rng.integers(3)
    if kind == 0:
        return float(rng.uniform(-2, 2))
    if kind == 1:
        return float(rng.integers(-16, 17)) / 8
    return round(float(rng.uniform(-2, 2)), 1)


def random_affine(rng: np.random.Generator, names):
    expr = const(random_constant(rng))
    for name in names:
        if rng.random() < 0.8:
            expr = add(expr, mul(var(name), const(random_constant(rng))))
    return expr


def random_form(rng: np.random.Generator, names):
    """An affine form or a product of two, the shapes ``forward`` builds."""
    expr = random_affine(rng, names)
    if rng.random() < 0.5:
        expr = mul(expr, random_affine(rng, names))
        if rng.random() < 0.5:
            expr = add(expr, random_affine(rng, names))
    if rng.random() < 0.2:
        expr = div(expr, const(random_constant(rng) or 3.0))
    if rng.random() < 0.2:
        expr = neg(expr)
    return expr


def random_comparison(rng: np.random.Generator, names) -> Comparison:
    rel = RELS[rng.integers(len(RELS))]
    lhs = random_form(rng, names)
    roll = rng.random()
    if roll < 0.4:
        rhs = const(random_constant(rng))
    elif roll < 0.8:
        rhs = random_form(rng, names)
    else:  # (f + k) * s against f * s + k * s: equal in exact arithmetic only
        f = lhs
        k, s = const(random_constant(rng)), const(random_constant(rng))
        lhs, rhs = mul(add(f, k), s), add(mul(f, s), mul(k, s))
    return Comparison(rel, lhs, rhs)


def random_request(rng: np.random.Generator, n_vars: int) -> SolverRequest:
    names = ["a", "b"][:n_vars]
    variables = []
    for name in names:
        lo = random_constant(rng)
        variables.append((name, lo, lo + abs(random_constant(rng)) + 0.125))
    assertion = tuple(random_comparison(rng, names)
                      for _ in range(rng.integers(1, 5)))
    return SolverRequest(tuple(variables), assertion)


@pytest.mark.parametrize("resolution,count", [(256, 150), (1024, 16)])
@pytest.mark.parametrize("n_vars", [1, 2])
def test_matches_reference_oracle(resolution, count, n_vars):
    rng = np.random.default_rng(1000 * n_vars + resolution)
    statuses = []
    for _ in range(count):
        request = random_request(rng, n_vars)
        want = reference_grid_oracle(request, resolution)
        assert grid_oracle(request, resolution) == want
        statuses.append(want.status)
    assert "sat" in statuses and "unknown" in statuses


# ---------------------------------------------------------------------------
# node coefficients and the tie band
# ---------------------------------------------------------------------------


def operand_value(expr, env) -> float:
    """``expr`` evaluated node by node on how it was built."""
    if expr.kind == "const":
        return expr.value
    if expr.kind == "var":
        return env[expr.name]
    values = [operand_value(arg, env) for arg in expr.args]
    if expr.kind == "neg":
        return -values[0]
    a, b = values
    if expr.op == "/":
        return a / b
    return {"+": a + b, "-": a - b, "*": a * b}[expr.op]


def test_node_coefficients_and_band():
    rng = np.random.default_rng(7)
    names = ["a", "b"]
    for _ in range(200):
        lhs = random_form(rng, names)
        if rng.random() < 0.3:  # a cubic, beyond what forward builds
            lhs = mul(lhs, random_affine(rng, names))
        cmp = Comparison(Rel.GT, lhs, random_form(rng, names))
        coeffs, bound, terms = _dense(cmp, names, [2.0, 2.0])
        rounds = terms + 3 * sum(coeffs.shape)
        for a, b in rng.uniform(-2, 2, size=(5, 2)):
            env = {"a": float(a), "b": float(b)}
            for side in (cmp.lhs, cmp.rhs):
                assert math.isclose(evaluate(side, env), operand_value(side, env),
                                    rel_tol=1e-9, abs_tol=1e-9)
            # the error bound the oracle decides ties with
            kernel = np.polynomial.polynomial.polyval2d(a, b, coeffs)
            difference = evaluate(cmp.lhs, env) - evaluate(cmp.rhs, env)
            assert abs(kernel - difference) <= 2 * rounds * UNIT_ROUNDOFF * bound


def test_symbolic_divisor_is_rejected():
    a = var("a")
    with pytest.raises(ConcolicArithmeticError):
        div(const(1.0), add(a, const(1.0)))


# ---------------------------------------------------------------------------
# mathematically zero guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rel", RELS)
@pytest.mark.parametrize("n_vars", [1, 2])
def test_zero_guard_witnesses_hold_exactly(rel, n_vars):
    # (a + c) * k and a * k + c * k carry one polynomial, so the sides tie
    # everywhere: only the non-strict relations and equality hold
    names = ["a", "b"][:n_vars]
    variables = tuple((name, 0.0, 1.0) for name in names)
    found = 0
    for k in (0.1, 0.3, 1.0 / 3.0, 0.7):
        for c_value in (0.1, 0.2, 0.3):
            a, c = var("a"), const(c_value)
            if n_vars == 2:
                a = add(a, mul(var("b"), const(0.3)))
            lhs = mul(add(a, c), const(k))  # (a + c) * k
            rhs = add(mul(a, const(k)), mul(c, const(k)))  # a * k + c * k
            assert lhs == rhs
            request = SolverRequest(variables, (Comparison(rel, lhs, rhs),))
            verdict = grid_oracle(request, 256)
            assert verdict == reference_grid_oracle(request, 256)
            if verdict.status == "sat":
                found += 1
                assert all(cmp.holds_at(verdict.assignment) for cmp in request.assertion)
    assert found == (0 if rel in (Rel.LT, Rel.GT, Rel.NE) else 12)


def test_identical_sides_are_never_strictly_ordered():
    a, b = var("a"), var("b")
    side = sub(mul(a, b), mul(a, const(0.1)))
    request = SolverRequest((("a", 0.0, 1.0), ("b", 0.0, 1.0)),
                            (Comparison(Rel.GT, side, side),))
    assert grid_oracle(request, 256).status == "unknown"
