"""The polynomial grid oracle against an array oracle.

``reference_grid_oracle`` answers unsat where ``closure_is_empty``,
an exact rational rule, finds no point of the box that satisfies the
conjuncts the clip reads (degree at most 2 for one variable, affine for
two), and otherwise evaluates each conjunct with ``evaluate`` as one
array over the full meshgrid.  The grid oracle's clip, kernel, tie band and
re-check must give the same verdict and the same witness on every request it
accepts, and its clip must never be empty where a grid point or a sample
satisfies the request.  A ``GridOracle`` reading prefix masks from its trie
must give the uncached oracle's, and a check confined to the window of a
prefix's points must find the witness of ``holds_at_scan``, which walks the
whole grid point by point.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from attnconcolic import refsolver, smt, solver
from attnconcolic.solver import (
    _PREFIX_BYTES,
    GridOracle,
    SolverRequest,
    SolverVerdict,
    _dense,
    _PrefixTrie,
    emit_smtlib,
    grid_oracle,
)
from attnconcolic.symexpr import (
    _REL_APPLY,
    Comparison,
    ConcolicArithmeticError,
    Rel,
    SymExpr,
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


def sign(value) -> int:
    return (value > 0) - (value < 0)


def sign_at(c: Fraction, b: Fraction, a: Fraction, point) -> int:
    """The sign of ``c + b*x + a*x*x`` at ``x = u + w*sqrt(d)``, for ``point =
    (u, w, d)`` with ``d >= 0``, exactly: the value is ``alpha + beta *
    sqrt(d)``, and where the two terms' signs differ, their squares say which
    one is larger."""
    u, w, d = point
    alpha = c + b * u + a * (u * u + w * w * d)
    beta = (b + 2 * a * u) * w
    if sign(alpha) * sign(beta) >= 0 or not d:
        return sign(alpha) or (sign(beta) if d else 0)
    return sign(alpha) * sign(alpha * alpha - beta * beta * d)


def line_closure_is_empty(request: SolverRequest) -> bool:
    """Whether no point of the box of a 1-variable request satisfies its
    conjuncts of degree at most 2, each closed, exactly.

    The closed set is a finite union of closed intervals, and the left end
    of each is a box end or a root of some conjunct.  So it is empty exactly
    when no box end and no real root satisfies every conjunct; a root is
    ``u ± w*sqrt(d)`` in rationals, and :func:`sign_at` decides each sign
    there."""
    ((name, lo, hi),) = request.variables
    one, zero = Fraction(1), Fraction(0)
    rows = [(-Fraction(lo), one, zero, Rel.GE), (-Fraction(hi), one, zero, Rel.LE)]  # c, b, a
    for cmp in request.assertion:
        terms = dict(zip(cmp.p.monomials, cmp.p.coeffs))
        if cmp.rel is not Rel.NE and all(len(monomial) <= 2 for monomial in terms):
            rows.append((*(Fraction(terms.get(monomial, 0.0)) for monomial in
                           [(), (name,), (name, name)]), cmp.rel))
    points = []
    for c, b, a, _ in rows:
        if a and (d := b * b - 4 * a * c) >= 0:
            points += [(-b / (2 * a), w / (2 * a), d) for w in (one, -one)]
        elif b and not a:
            points.append((-c / b, zero, zero))
    allowed = {Rel.GT: (1, 0), Rel.GE: (1, 0), Rel.LT: (-1, 0), Rel.LE: (-1, 0), Rel.EQ: (0,)}
    return not any(all(sign_at(c, b, a, point) in allowed[rel] for c, b, a, rel in rows)
                   for point in points)


def closure_is_empty(request: SolverRequest) -> bool:
    """Whether no point of the box satisfies the conjuncts the clip reads, each
    closed (strict relations as non-strict ones, ``!=`` left out), in exact
    rational arithmetic: those of degree at most 2 for one variable
    (:func:`line_closure_is_empty`), the affine ones for two.

    For two variables the closed set is a bounded convex polygon, so it is
    empty exactly when it has no vertex: no point where two of its boundary
    lines meet satisfies every conjunct."""
    names = [name for name, _, _ in request.variables]
    if len(names) == 1:
        return line_closure_is_empty(request)
    rows = []  # (c, a, b, rel): c + a * x + b * y relop 0
    for name, lo, hi in request.variables:
        unit = (Fraction(1), Fraction(0)) if name == names[0] else (Fraction(0), Fraction(1))
        rows += [(-Fraction(lo), *unit, Rel.GE), (-Fraction(hi), *unit, Rel.LE)]
    for cmp in request.assertion:
        terms = dict(zip(cmp.p.monomials, cmp.p.coeffs))
        if cmp.rel is not Rel.NE and all(len(monomial) <= 1 for monomial in terms):
            rows.append((Fraction(terms.get((), 0.0)),
                         *(Fraction(terms.get((name,), 0.0)) for name in names), cmp.rel))

    def feasible(x: Fraction, y: Fraction) -> bool:
        for c, a, b, rel in rows:
            value = c + a * x + b * y
            if (value < 0 and rel in (Rel.GT, Rel.GE, Rel.EQ)) or \
                    (value > 0 and rel in (Rel.LT, Rel.LE, Rel.EQ)):
                return False
        return True

    lines = [(c, a, b) for c, a, b, _ in rows if a or b]
    points = [((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)
              for (c1, a1, b1), (c2, a2, b2) in itertools.combinations(lines, 2)
              if (det := a1 * b2 - a2 * b1)]
    return not any(feasible(x, y) for x, y in points)


def grid_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    """``resolution + 1`` evenly spaced points from ``lo`` to ``hi``, each
    clamped to ``hi``: where ``lo != 0`` the last can round one ulp above."""
    steps = np.arange(resolution + 1, dtype=float) / resolution
    return np.minimum(lo + (hi - lo) * steps, hi)


def reference_grid_oracle(request: SolverRequest, resolution: int = 1024) -> SolverVerdict:
    """Every conjunct evaluated as one array over the whole grid, after the
    exact emptiness rule of the conjuncts the clip reads."""
    if not request.variables:
        return SolverVerdict("sat", assignment={})
    if len(request.variables) <= 2 and closure_is_empty(request):
        return SolverVerdict("unsat")
    axes = [grid_axis(lo, hi, resolution) for _, lo, hi in request.variables]
    grids = np.meshgrid(*axes, indexing="ij")
    assignment_arrays = {name: grid.reshape(-1)
                         for (name, _, _), grid in zip(request.variables, grids)}
    ok = np.ones(grids[0].size, dtype=bool)
    ufuncs = {Rel.LT: np.less, Rel.LE: np.less_equal, Rel.GT: np.greater,
              Rel.GE: np.greater_equal, Rel.EQ: np.equal, Rel.NE: np.not_equal}
    with np.errstate(all="ignore"):
        for cmp in request.assertion:
            ok &= ufuncs[cmp.rel](evaluate(cmp.p, assignment_arrays), 0.0)
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
    """``expr`` evaluated node by node on how it was built: a constant's
    value and a variable's name read off its polynomial, an operator off
    ``kind``."""
    if expr.kind == "const":
        return expr.coeffs[0] if expr.coeffs else 0.0
    if expr.kind == "var":
        return env[expr.monomials[0][0]]
    values = [operand_value(arg, env) for arg in expr.args]
    if expr.kind == "neg":
        return -values[0]
    a, b = values
    if expr.kind == "/":
        return a / b
    return {"+": a + b, "-": a - b, "*": a * b}[expr.kind]


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
            assert math.isclose(evaluate(cmp.p, env), operand_value(cmp.p, env),
                                rel_tol=1e-9, abs_tol=1e-9)
            # the error bound the oracle decides ties with
            kernel = np.polynomial.polynomial.polyval2d(a, b, coeffs)
            assert abs(kernel - evaluate(cmp.p, env)) <= 2 * rounds * UNIT_ROUNDOFF * bound


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


def test_a_cubic_conjunct_keeps_its_verdict_and_witness():
    # degree 3 in x needs a fourth power column, beyond what forward builds
    x, y = var("x"), var("y")
    request = SolverRequest((("x", 0.0, 1.0), ("y", 0.0, 1.0)),
                            (Comparison(Rel.GT, mul(mul(mul(x, x), x), y), const(0.5)),))
    for resolution, witness in [(256, {"x": 0.796875, "y": 0.98828125}),
                                (1024, {"x": 0.7939453125, "y": 1.0})]:
        want = SolverVerdict("sat", assignment=witness)
        assert grid_oracle(request, resolution) == want
        assert GridOracle(resolution).check(request) == want
    assert refsolver.solve_script(emit_smtlib(request)) == SolverVerdict(
        "sat", {"x": 0.796875, "y": 0.98828125})


def test_grid_points_stay_in_the_box():
    # lo + (hi - lo) * 1.0 rounds to one ulp above hi here
    lo, hi = -1.9907001027432838, 0.515690120220412
    top = 0.5156901202204123
    assert top > hi and lo + (hi - lo) * 1.0 == top
    request = SolverRequest((("x", lo, hi),), (Comparison(Rel.GE, var("x"), const(top)),))
    assert refsolver.solve_script(emit_smtlib(request)).status == "unsat"
    assert grid_oracle(request, 256).status == "unknown"
    boxes = np.sort(np.random.default_rng(0).uniform(-3.0, 3.0, (2000, 2)), axis=1)
    for lo, hi in boxes:
        points = solver._grid_axis(lo, hi, 256).points
        assert lo <= points.min() and points.max() <= hi


@pytest.mark.parametrize("resolution", [0, 1, 256, 1024, 4096])
def test_grid_points_have_one_definition(resolution):
    # the kernel's axes and the one-variable search read the same points:
    # those of the grid's numpy formula, bit for bit
    rng = np.random.default_rng(resolution)
    boxes = [(0.0, 1.0), (-1.9907001027432838, 0.515690120220412), (-3.0, -0.5),
             (0.25, 0.25), (-1e9, 1e9)]
    for lo, hi in boxes:
        points = np.array([smt._grid_point(lo, hi, resolution, k)
                           for k in range(resolution + 1)])
        assert points.tobytes() == solver._grid_axis(lo, hi, resolution).points.tobytes()
        steps = np.arange(resolution + 1, dtype=float) / max(resolution, 1)
        assert points.tobytes() == np.minimum(lo + (hi - lo) * steps, hi).tobytes()
        # the points in sorted disjoint intervals, found by bisection: those
        # of the whole grid that lie in them, in order
        ends = np.sort(rng.uniform(lo - 0.1 * (hi - lo) - 1e-3, hi + 0.1 * (hi - lo) + 1e-3, 8))
        clip = [(float(a), float(b)) for a, b in zip(ends[::2], ends[1::2])]
        if lo == hi:  # every point of the grid, all equal, in the middle interval
            clip = [(lo - 1.0, lo - 0.5), (lo, hi), (hi + 0.5, hi + 1.0)]
        want = [x for x in points.tolist() if any(a <= x <= b for a, b in clip)]
        assert list(smt._line_points(lo, hi, clip, [resolution])) == want


def bisected_line_points(lo, hi, clip, resolutions):
    """The reference of ``smt._line_points``: each interval's grid points
    found by bisecting the whole grid, with the grid point as the key."""
    for resolution in resolutions:
        grid = range(resolution + 1)
        point = functools.partial(smt._grid_point, lo, hi, resolution)
        for a, b in clip:
            yield from map(point, grid[bisect.bisect_left(grid, a, key=point):
                                       bisect.bisect_right(grid, b, key=point)])


def test_line_points_are_those_bisection_finds():
    # the index guess, stepped by exact comparisons, lands where bisection
    # does: on random boxes, at resolution 0, on boxes of zero or subnormal
    # width (or too narrow for their magnitude to hold distinct points), for
    # intervals past either end of the box, and with ends on grid points
    rng = np.random.default_rng(38)
    tiny = 5e-324
    boxes = [(0.0, 1.0), (-3.0, -0.5), (0.25, 0.25), (-1e9, 1e9), (0.0, tiny),
             (-2 * tiny, 3 * tiny), (1e9, 1e9 + 1e-6), (0.3, math.nextafter(0.3, 1.0))]
    boxes += [(lo, lo + abs(random_constant(rng)) * float(rng.choice([1.0, 1e-12])))
              for lo in (random_constant(rng) for _ in range(40))]
    for lo, hi in boxes:
        width = hi - lo
        for resolution in (0, 1, 3, 256, 1024, 4096):
            ends = np.sort(np.concatenate([
                rng.uniform(lo - width - 1e-3, hi + width + 1e-3, 4),
                [smt._grid_point(lo, hi, resolution, int(k))
                 for k in rng.integers(resolution + 1, size=2)]]))
            clip = [(float(a), float(b)) for a, b in zip(ends[::2], ends[1::2])]
            clip += [(hi + 1.0, hi + 2.0)]  # past the box: no point
            want = list(bisected_line_points(lo, hi, clip, [resolution]))
            assert list(smt._line_points(lo, hi, clip, [resolution])) == want
    # every resolution in turn, as the refsolver's stages ask
    clip = [(0.1, 0.2), (0.5, 0.5), (0.75, 1.5)]
    want = list(bisected_line_points(0.0, 1.0, clip, (256, 1024, 4096)))
    assert list(smt._line_points(0.0, 1.0, clip, (256, 1024, 4096))) == want
    assert 0.5 in want


# ---------------------------------------------------------------------------
# windows: each conjunct is evaluated on the bounding box of the points the
# ones before it left
# ---------------------------------------------------------------------------


def holds_at_scan(request: SolverRequest, resolution: int) -> SolverVerdict:
    """The whole grid scanned point by point in row-major order with
    ``holds_at``; the first hit is the witness."""
    names = [name for name, _, _ in request.variables]
    axes = [grid_axis(lo, hi, resolution) for _, lo, hi in request.variables]
    for point in itertools.product(*axes):
        assignment = dict(zip(names, map(float, point)))
        if all(cmp.holds_at(assignment) for cmp in request.assertion):
            return SolverVerdict("sat", assignment=assignment)
    return SolverVerdict("unknown")


A, B = var("a"), var("b")
UNIT_SQUARE = (("a", 0.0, 1.0), ("b", 0.0, 1.0))


def at_least(expr, value):
    return Comparison(Rel.GE, expr, const(value))


def at_most(expr, value):
    return Comparison(Rel.LE, expr, const(value))


# (variables, assertion, the last window (row, col, height, width) at 32 steps;
# None for one variable, which stores none)
SURVIVORS = {
    "corner (0, 0)": (UNIT_SQUARE, (at_most(add(A, B), 0.5),
                                    at_most(add(mul(A, A), mul(B, B)), 0.0)), (0, 0, 1, 1)),
    "corner (0, 1)": (UNIT_SQUARE, (at_least(sub(B, A), 0.5), at_least(sub(B, A), 1.0)),
                      (0, 32, 1, 1)),
    "corner (1, 0)": (UNIT_SQUARE, (at_least(sub(A, B), 0.5), at_least(sub(A, B), 1.0)),
                      (32, 0, 1, 1)),
    "corner (1, 1)": (UNIT_SQUARE, (at_least(add(A, B), 1.5), at_least(mul(A, B), 1.0)),
                      (32, 32, 1, 1)),
    "one row": (UNIT_SQUARE, (at_least(A, 0.5), at_most(A, 0.5)), (16, 0, 1, 33)),
    "one column": (UNIT_SQUARE, (at_least(B, 0.125),
                                 Comparison(Rel.EQ, mul(B, const(4.0)), const(1.0))),
                   (0, 8, 33, 1)),
    # the ties a * b == 1/4 are re-checked inside a window offset on both axes
    "ties in a window": (UNIT_SQUARE, (at_least(A, 0.25), at_least(B, 0.125),
                                       Comparison(Rel.EQ, mul(A, B), const(0.25))),
                         (8, 8, 25, 25)),
    "one variable": ((("a", -1.0, 1.0),), (at_most(mul(A, A), 0.24),
                                           Comparison(Rel.GT, A, const(0.1))), None),
}


@pytest.mark.parametrize("case", sorted(SURVIVORS))
def test_windows_match_a_holds_at_scan(case):
    variables, assertion, last_window = SURVIVORS[case]
    want = holds_at_scan(SolverRequest(variables, assertion), 32)
    assert want.status == "sat"
    trie = _PrefixTrie()
    for depth in range(1, len(assertion) + 1):  # each check reads the window before it
        request = SolverRequest(variables, assertion[:depth])
        verdict = holds_at_scan(request, 32)
        assert grid_oracle(request, 32) == verdict
        assert grid_oracle(request, 32, trie) == verdict
    assert grid_oracle(SolverRequest(variables, assertion), 32, trie) == want
    if last_window is None:  # the grid points in the clip, with no window or mask
        assert trie.nbytes == 0
        return
    path = trie.walk((variables, 32), [cmp.key() for cmp in assertion])
    assert len(path) == len(assertion) + 1
    assert path[-1].window == last_window


def test_an_emptied_window_answers_unknown():
    # a * a <= 1/16 is quadratic, so the affine clip leaves it to the grid
    request = SolverRequest(UNIT_SQUARE, (at_least(A, 0.5), at_most(mul(A, A), 0.0625)))
    trie = _PrefixTrie()
    assert grid_oracle(request, 32, trie) == holds_at_scan(request, 32) == SolverVerdict("unknown")
    path = trie.walk((UNIT_SQUARE, 32), [cmp.key() for cmp in request.assertion])
    assert path[-1].window is None and path[-1].mask.size == 0


# ---------------------------------------------------------------------------
# the prefix trie of GridOracle
# ---------------------------------------------------------------------------


def random_box(rng: np.random.Generator, n_vars: int):
    """Variables over random boxes, and a point of the 256-step grid (so also
    of the 1024-step one) inside them."""
    variables, point = [], {}
    for name in ["a", "b"][:n_vars]:
        lo = random_constant(rng)
        hi = lo + abs(random_constant(rng)) + 0.125
        variables.append((name, lo, hi))
        point[name] = lo + (hi - lo) * (int(rng.integers(257)) / 256)
    return tuple(variables), point


def concolic_path(rng: np.random.Generator, point, length: int):
    """``length`` random guards, each oriented to hold at ``point``, as the
    literals of one concrete run."""
    names = sorted(point)
    path = []
    for _ in range(length):
        cmp = random_comparison(rng, names)
        path.append(cmp if cmp.holds_at(point) else cmp.negate())
    return tuple(path)


def generational_items(variables, path):
    """What a run yields: each prefix plus its next literal negated."""
    return [SolverRequest(variables, path[:k] + (path[k].negate(),))
            for k in range(len(path))]


@pytest.fixture
def kernel_passes(monkeypatch):
    """Counts the conjuncts the grid oracle evaluates on the grid."""
    passes = [0]
    holds = solver._holds

    def counted(*args):
        passes[0] += 1
        return holds(*args)

    monkeypatch.setattr(solver, "_holds", counted)
    return passes


@pytest.mark.parametrize("resolution,paths,length", [(256, 10, 8), (1024, 2, 5)])
@pytest.mark.parametrize("n_vars", [1, 2])
def test_prefix_trie_matches_uncached_oracle(resolution, paths, length, n_vars,
                                             kernel_passes):
    rng = np.random.default_rng(7000 * n_vars + resolution)
    requests = []
    for _ in range(paths):
        variables, point = random_box(rng, n_vars)
        path = concolic_path(rng, point, length)
        for item in generational_items(variables, path):
            requests.append(item)
            if rng.random() < 0.3:  # an item adopted and run again
                requests.append(SolverRequest(variables, item.assertion + path[:2]))
        requests.append(SolverRequest(variables, path))
    # work items are popped by influence, not in the order they were made,
    # and some are made again verbatim
    requests = [requests[i] for i in rng.permutation(len(requests))]
    requests += [requests[i] for i in rng.choice(len(requests), 8)]
    want = [grid_oracle(request, resolution) for request in requests]
    uncached, kernel_passes[0] = kernel_passes[0], 0
    oracle = GridOracle(resolution)
    for request, verdict in zip(requests, want):
        assert oracle.check(request) == verdict
    if n_vars == 1:  # the grid points in the clip: no kernel pass, no mask stored
        assert kernel_passes[0] == uncached == 0 and oracle._prefixes.nbytes == 0
    else:
        assert kernel_passes[0] < uncached  # some prefixes were read from the trie
    assert {"sat", "unknown"} <= {verdict.status for verdict in want}

    # a prefix whose mask empties answers unknown from the trie; the
    # impossible conjunct is cubic, so the clip leaves it to the grid
    variables, point = random_box(rng, n_vars)
    path = concolic_path(rng, point, 3)
    name, lo, hi = variables[0]
    cube = mul(mul(var(name), var(name)), var(name))
    impossible = Comparison(Rel.GT, cube, const(max(abs(lo), abs(hi)) ** 3 + 1.0))
    emptied = SolverRequest(variables, path[:2] + (impossible,))
    assert oracle.check(emptied) == grid_oracle(emptied, resolution) == SolverVerdict("unknown")
    extended = SolverRequest(variables, emptied.assertion + path[2:])
    before = kernel_passes[0]
    assert oracle.check(extended) == SolverVerdict("unknown")
    assert kernel_passes[0] == before


def test_prefix_masks_are_keyed_by_bounds_variable_order_and_resolution():
    a_high = Comparison(Rel.GT, var("a"), const(0.5))
    b_low = Comparison(Rel.LT, var("b"), const(0.75))
    box = (("a", 0.0, 1.0), ("b", 0.0, 1.0))
    variants = [
        (box, 256),
        ((("a", 0.0, 2.0), ("b", 0.0, 1.0)), 256),  # other bounds
        ((("b", 0.0, 1.0), ("a", 0.0, 1.0)), 256),  # other variable order
        (box, 1024),  # other resolution
    ]
    for assertion in [(a_high,), (a_high, b_low)]:
        trie = _PrefixTrie()  # one trie, as if one oracle saw them all
        for first in range(len(variants)):
            for variables, resolution in variants[first:] + variants[:first]:
                request = SolverRequest(variables, assertion)
                want = grid_oracle(request, resolution)
                assert want.status == "sat"
                assert grid_oracle(request, resolution, trie) == want


def test_a_pickled_oracle_starts_with_an_empty_trie():
    oracle = GridOracle(256)  # two variables: one stores no mask
    request = SolverRequest(UNIT_SQUARE, (Comparison(Rel.GT, var("a"), const(0.5)),))
    verdict = oracle.check(request)
    copy = pickle.loads(pickle.dumps(oracle))
    assert copy == oracle and copy._prefixes.nbytes == 0 < oracle._prefixes.nbytes
    assert copy.check(request) == verdict


def test_nested_prefixes_cost_at_most_two_kernel_passes_per_request(kernel_passes):
    rng = np.random.default_rng(40)
    variables, point = random_box(rng, 2)
    requests = generational_items(variables, concolic_path(rng, point, 40))
    oracle = GridOracle(256)
    verdicts = [oracle.check(request) for request in requests]
    assert kernel_passes[0] <= 2 * len(requests)
    kernel_passes[0] = 0
    assert verdicts == [grid_oracle(request, 256) for request in requests]
    # uncached, every prefix again, but for the requests the affine clip decides
    clipped = [len(request.assertion) for request, verdict in zip(requests, verdicts)
               if verdict.status == "unsat"]
    assert 0 < len(clipped) < len(requests)
    assert kernel_passes[0] == sum(range(1, 41)) - sum(clipped)


def test_a_path_that_fills_the_cap_keeps_its_first_conjuncts(kernel_passes):
    rng = np.random.default_rng(30)
    variables, point = random_box(rng, 2)
    request = SolverRequest(variables, concolic_path(rng, point, 30))
    keys = [cmp.key() for cmp in request.assertion]
    uncapped = _PrefixTrie(cap=1 << 30)
    grid_oracle(request, 256, uncapped)
    stored = uncapped.walk((variables, 256), keys)
    assert len(stored) == 31  # the root and one node per conjunct
    # room for the root and the first 9 masks of this path, not for a 10th
    trie = _PrefixTrie(cap=sum(node.nbytes() for node in stored[:10]))
    want = grid_oracle(request, 256)
    kernel_passes[0] = 0
    assert grid_oracle(request, 256, trie) == want
    assert kernel_passes[0] == 30 and trie.nbytes <= trie.cap
    kernel_passes[0] = 0
    assert grid_oracle(request, 256, trie) == want
    assert kernel_passes[0] == 30 - 9  # the root and 9 masks fit


def test_prefix_trie_bytes_stay_under_the_cap():
    rng = np.random.default_rng(1000)
    oracle = GridOracle(256)
    trie = oracle._prefixes
    requests = set()
    # 8 requests per shared prefix, until 1,000 distinct ones were checked (a
    # path may repeat a comparison: two sides with equal differences)
    while len(requests) < 1000:
        variables, point = random_box(rng, 2)
        path = concolic_path(rng, point, 16)
        for last in path[8:]:
            request = SolverRequest(variables, path[:8] + (last,))
            requests.add(request)
            oracle.check(request)
            assert trie.nbytes <= _PREFIX_BYTES
    assert trie.nbytes > _PREFIX_BYTES // 2  # the cap was reached


def test_threads_sharing_one_oracle_get_the_uncached_verdicts():
    # c8's request shapes: degree-2 guards on the unit box, one or two
    # variables, here grown into paths that share prefixes
    rng = np.random.default_rng(8)
    rels = [Rel.LT, Rel.LE, Rel.GT, Rel.GE]
    requests = []
    for trial in range(40):
        names = ["a"] if trial % 2 else ["a", "b"]
        variables = tuple((name, 0.0, 1.0) for name in names)
        path = []
        for _ in range(5):
            expr = const(float(rng.uniform(-1, 1)))
            for name in names:
                expr = add(expr, mul(var(name), const(float(rng.uniform(-2, 2)))))
                partner = var(str(rng.choice(names)))
                expr = add(expr, mul(mul(var(name), partner), const(float(rng.uniform(-1, 1)))))
            path.append(Comparison(rels[int(rng.integers(4))], expr,
                                   const(float(rng.uniform(-1, 1)))))
            requests.append(SolverRequest(variables, tuple(path)))
    requests = [requests[i] for i in rng.permutation(len(requests))] * 2
    want = [grid_oracle(request, 256) for request in requests]
    oracle = GridOracle(256)  # about 55 masks fit, not all 200: evictions race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(oracle.check, requests, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert sum(verdict.status == "sat" for verdict in want) >= 20


# ---------------------------------------------------------------------------
# the affine clip: an empty clip is a proof
# ---------------------------------------------------------------------------

SAMPLES = 65536


def satisfied_somewhere(request: SolverRequest, monkeypatch) -> bool:
    """Whether ``grid_oracle`` at 1,024 without the clip finds a point, or
    one of 65,536 seeded samples of the box satisfies every conjunct as
    ``holds_at`` evaluates it."""
    with monkeypatch.context() as patch:
        # the whole box: for one variable, every grid point is a candidate
        for module in (solver, smt):
            patch.setattr(module, "_clip", lambda request: [
                (lo, hi) for _, lo, hi in request.variables])
        if grid_oracle(request, 1024).status == "sat":
            return True
    lows, highs = np.array([(lo, hi) for _, lo, hi in request.variables]).T
    samples = np.random.default_rng(0).uniform(lows, highs, (SAMPLES, len(lows)))
    points = {name: samples[:, k] for k, (name, _, _) in enumerate(request.variables)}
    ok = np.ones(SAMPLES, dtype=bool)
    with np.errstate(all="ignore"):
        for cmp in request.assertion:
            ok &= np.asarray(_REL_APPLY[cmp.rel](evaluate(cmp.p, points), 0.0))
    return bool(ok.any())


def affine_through(rng: np.random.Generator, names, point) -> SymExpr:
    """A random affine form whose zero line passes through ``point``, up to
    the rounding of its constant."""
    coeffs = {name: random_constant(rng) or 1.0 for name in names}
    expr = const(-sum(coeffs[name] * point[name] for name in names))
    for name in names:
        expr = add(expr, mul(var(name), const(coeffs[name])))
    return expr


def line_quadratics(rng: np.random.Generator, box, corner, inside) -> list[Comparison]:
    """Quadratic conjuncts in the one variable ``a`` that the clip decides:
    a double root on the grid point ``corner``; the affine form through it
    and a product through the same root, as the touching guards of a
    1-pixel attack are; a concave product with its roots just outside the
    box; a near-affine form, ``|a| <= 1e-12 * |b|``."""
    lo, hi = box
    rel = RELS[rng.integers(len(RELS))]
    f = affine_through(rng, ["a"], corner)
    kind = rng.integers(4)
    if kind == 0:
        return [Comparison(rel, mul(f, mul(f, const(random_constant(rng) or 0.3))))]
    if kind == 1:
        twin = mul(f, const(random_constant(rng) or 0.3))
        product = mul(twin, affine_through(rng, ["a"], inside))
        return [Comparison(Rel.GE, f), Comparison(rel, product)]
    if kind == 2:
        gap = (hi - lo) * 10.0 ** -rng.uniform(4.0, 16.0)
        return [Comparison(rel, mul(sub(A, const(lo - gap)), sub(const(hi + gap), A)))]
    b = f.coeffs[f.monomials.index(("a",))]
    return [Comparison(rel, add(f, mul(mul(A, A), const(b * 1e-12 * rng.uniform(-1.0, 1.0)))))]


def clip_case(rng: np.random.Generator, n_vars: int) -> SolverRequest:
    """Affine conjuncts through one point of the 1,024-step grid, so that
    they touch there, and through random points of the box, mixed with
    products of two, and for one variable with :func:`line_quadratics`; on
    boxes of magnitude up to 1e9, some far from zero and some negative."""
    names = ["a", "b"][:n_vars]
    scale = 10.0 ** int(rng.choice([0, 0, 3, 9]))
    offset = scale * float(rng.choice([0.0, 0.0, 40.0, -40.0]))
    variables, corner, inside = [], {}, {}
    for name in names:
        lo = offset + scale * random_constant(rng)
        hi = lo + scale * (abs(random_constant(rng)) + 0.125)
        variables.append((name, lo, hi))
        corner[name] = lo + (hi - lo) * (int(rng.integers(1025)) / 1024)
        inside[name] = float(rng.uniform(lo, hi))
    assertion = []
    for _ in range(int(rng.integers(1, 3 + 2 * n_vars))):
        if n_vars == 1 and rng.random() < 0.4:
            assertion += line_quadratics(rng, variables[0][1:], corner, inside)
            continue
        roll = rng.random()
        if roll < 0.2:  # one line twice, scaled apart, each side facing the other
            expr = affine_through(rng, names, corner)
            twin = mul(expr, const(random_constant(rng) or 0.3))
            assertion += [Comparison(Rel.GE, expr), Comparison(Rel.GE, neg(twin))]
            continue
        if roll < 0.5:
            expr = affine_through(rng, names, corner)
        elif roll < 0.8:
            expr = affine_through(rng, names, inside)
        else:  # a product of two affine forms: for two variables, the clip leaves it out
            expr = mul(affine_through(rng, names, inside), affine_through(rng, names, corner))
        assertion.append(Comparison(RELS[rng.integers(len(RELS))], expr))
    return SolverRequest(tuple(variables), tuple(assertion))


@pytest.mark.parametrize("n_vars,count", [(1, 400), (2, 120)])
def test_clip_is_never_empty_where_a_point_satisfies(n_vars, count, monkeypatch):
    rng = np.random.default_rng(18 + n_vars)
    empty = found = rounded_in = quadratic = 0
    for _ in range(count):
        request = clip_case(rng, n_vars)
        hit = satisfied_somewhere(request, monkeypatch)
        exactly_empty = closure_is_empty(request)
        if not solver._clip(request):
            empty += 1
            assert not hit, request
            assert exactly_empty, request
            affine = tuple(cmp for cmp in request.assertion
                           if all(len(monomial) <= 1 for monomial in cmp.p.monomials))
            quadratic += bool(solver._clip(SolverRequest(request.variables, affine)))
        found += hit
        # a point satisfies as evaluate rounds, though the exact closed set is
        # empty: only the widening keeps it
        rounded_in += hit and exactly_empty
    assert empty >= count // 8 and found >= count // 4 and rounded_in >= 2
    # for one variable, quadratic conjuncts empty clips the affine ones leave
    assert quadratic >= (count // 10 if n_vars == 1 else 0)


UNIT_LINE = (("a", 0.0, 1.0),)

# (variables, assertion, whether the clip is empty, whether a point satisfies)
CLIP_EDGES = {
    "touching non-strict pair": (UNIT_LINE, (Comparison(Rel.GE, mul(A, const(3.0)), const(1.0)),
                                             Comparison(Rel.LE, mul(A, const(3.0)), const(1.0))),
                                 False, False),
    "touching strict pair": (UNIT_LINE, (Comparison(Rel.GT, mul(A, const(3.0)), const(1.0)),
                                         Comparison(Rel.LT, mul(A, const(3.0)), const(1.0))),
                             False, False),
    "strict at the box edge": (UNIT_LINE, (Comparison(Rel.GT, A, const(1.0)),), False, False),
    "non-unit coefficient": (UNIT_LINE, (Comparison(Rel.GT, mul(A, const(2.0)), const(3.0)),),
                             True, False),
    "affine equality": (UNIT_SQUARE, (Comparison(Rel.EQ, add(A, B), const(0.5)),), False, True),
    "affine equality off the box": (UNIT_SQUARE, (Comparison(Rel.EQ, add(A, B), const(2.5)),),
                                    True, False),
    "line through a grid corner": (UNIT_SQUARE, (Comparison(Rel.LE, add(A, B), const(0.0)),),
                                   False, True),
    "slanted line through a corner": (
        UNIT_SQUARE, (Comparison(Rel.GE, sub(mul(A, const(2.0)), B), const(2.0)),), False, True),
    "just past a corner": (UNIT_SQUARE, (Comparison(Rel.LT, add(A, B), const(-1e-9)),),
                           True, False),
    "ground conjunct": (UNIT_SQUARE, (Comparison(Rel.GT, const(-0.5)),), True, False),
    "quadratic past the box": (UNIT_LINE, (Comparison(Rel.GT, mul(A, A), const(2.0)),),
                               True, False),
    "double root": (UNIT_LINE, (Comparison(Rel.LE, mul(sub(A, const(0.5)), sub(A, const(0.5)))),),
                    False, True),
    "strict double root": (UNIT_LINE,
                           (Comparison(Rel.LT, mul(sub(A, const(0.5)), sub(A, const(0.5)))),),
                           False, False),
    "quadratic left out": (UNIT_SQUARE, (Comparison(Rel.GT, mul(A, B), const(2.0)),),
                           False, False),
    "not equal left out": (UNIT_LINE, (Comparison(Rel.NE, A, A),), False, False),
    "negative box, touching": ((("a", -2.0, -1.0),),
                               (Comparison(Rel.LE, mul(A, const(-3.0)), const(3.0)),), False, True),
    "negative box, past": ((("a", -2.0, -1.0),),
                           (Comparison(Rel.LT, mul(A, const(-3.0)), const(2.9)),), True, False),
    "large magnitude, touching": ((("a", 1e9 - 1.0, 1e9),), (Comparison(Rel.GE, A, const(1e9)),),
                                  False, True),
    "large magnitude, past": ((("a", 1e9 - 1.0, 1e9),),
                              (Comparison(Rel.GE, A, const(1e9 + 1.0)),), True, False),
}


@pytest.mark.parametrize("case", sorted(CLIP_EDGES))
def test_clip_edge_cases(case, monkeypatch):
    variables, assertion, empty, satisfied = CLIP_EDGES[case]
    request = SolverRequest(variables, assertion)
    assert (not solver._clip(request)) == empty
    assert satisfied_somewhere(request, monkeypatch) == satisfied
    assert closure_is_empty(request) or not empty


ONE_ULP_BELOW_HALF = 0.49999999999999994


@pytest.mark.parametrize("variables", [
    (("a", 0.5, ONE_ULP_BELOW_HALF),),
    (("a", 1.0, 0.0),),
    (("a", 0.0, 1.0), ("b", 0.5, ONE_ULP_BELOW_HALF)),
    (("a", 1.0, 0.0), ("b", 0.0, 1.0)),
], ids=["one variable, one ulp", "one variable", "two variables, one ulp", "two variables"])
def test_clip_of_an_empty_box_is_empty(variables):
    # the box is empty before it is widened, whatever the conjuncts
    assert solver._clip(SolverRequest(variables, ())) == []
    assert solver._clip(SolverRequest(variables, (Comparison(Rel.GT, const(1.0)),))) == []


@pytest.mark.parametrize("assertion", [(), (Comparison(Rel.GT, const(1.0)),),
                                       (Comparison(Rel.LT, const(1.0)),)],
                         ids=["none", "true", "false"])
def test_clip_without_variables_is_the_one_point_of_its_box(assertion):
    # the conjuncts are ground: the clip reads none of them, true or false
    assert solver._clip(SolverRequest((), assertion)) == [()]


@pytest.mark.parametrize("variables,p", [
    (UNIT_LINE, add(mul(A, mul(A, A)), A)),
    (UNIT_SQUARE, add(mul(A, B), A)),
    (UNIT_SQUARE, add(mul(A, A), B)),
], ids=["cube of one variable", "product of two", "square of one of two"])
def test_clip_leaves_out_a_conjunct_of_a_degree_it_does_not_read(variables, p):
    # no point of the box has p > 2, but read without its top term, as a > 2
    # or b > 2, the conjunct would empty the clip: it must be left out whole
    request = SolverRequest(variables, (Comparison(Rel.GT, p, const(2.0)),))
    always = SolverRequest(variables, (Comparison(Rel.GT, const(1.0)),))
    assert solver._clip(request) == solver._clip(always) != []


def test_affine_infeasible_request_is_unsat_before_any_kernel_pass(kernel_passes,
                                                                   refsolver_backend):
    # 2v > 3 has no point in [0, 1]; its coefficient is not a unit, so the
    # refsolver's narrowed box does not show it
    request = SolverRequest(UNIT_LINE, (Comparison(Rel.GT, mul(A, const(2.0)), const(3.0)),))
    oracle = GridOracle(256)
    assert grid_oracle(request, 1024) == oracle.check(request) == SolverVerdict("unsat")
    assert kernel_passes[0] == 0 and oracle._prefixes.nbytes == 0
    assert refsolver_backend.check(request).status == "unsat"
    # the backend answers without its child; the child proves it on its own
    assert refsolver.solve_script(emit_smtlib(request)) == SolverVerdict("unsat")
    two = SolverRequest(UNIT_SQUARE, (Comparison(Rel.GT, add(A, B), const(2.5)),
                                      Comparison(Rel.GT, mul(A, B), const(0.1))))
    assert grid_oracle(two, 256).status == refsolver_backend.check(two).status == "unsat"
    assert refsolver.solve_script(emit_smtlib(two)) == SolverVerdict("unsat")
    assert kernel_passes[0] == 0


def test_quadratic_infeasible_request_is_unsat_before_any_kernel_pass(kernel_passes,
                                                                      refsolver_backend):
    # v * v > 2 has no point in [0, 1]: for one variable the clip reads degree 2
    request = SolverRequest(UNIT_LINE, (Comparison(Rel.GT, mul(A, A), const(2.0)),))
    oracle = GridOracle(256)
    assert grid_oracle(request, 1024) == oracle.check(request) == SolverVerdict("unsat")
    assert kernel_passes[0] == 0 and oracle._prefixes.nbytes == 0
    assert refsolver_backend.check(request).status == "unsat"
    assert refsolver.solve_script(emit_smtlib(request)) == SolverVerdict("unsat")
    assert kernel_passes[0] == 0
    # (v - 0.5)**2 <= 0 holds at its double root alone
    square = mul(sub(A, const(0.5)), sub(A, const(0.5)))
    touching = SolverRequest(UNIT_LINE, (Comparison(Rel.LE, square),))
    want = SolverVerdict("sat", assignment={"a": 0.5})
    assert grid_oracle(touching, 1024) == GridOracle(256).check(touching) == want
    verdict = refsolver_backend.check(touching)
    assert (verdict.status, verdict.assignment) == ("sat", {"a": 0.5})


@pytest.mark.parametrize("resolution", [32, 256, 1024])
def test_one_variable_needs_no_kernel_pass_or_trie(resolution, monkeypatch):
    # with the kernel gone, the answers are those of the clip and then the
    # whole grid scanned point by point, and the oracle stores no prefix
    monkeypatch.setattr(solver, "_holds", lambda *args: pytest.fail("kernel pass"))
    rng = np.random.default_rng(resolution)
    oracle = GridOracle(resolution)
    statuses = Counter()
    for _ in range(80):
        request = random_request(rng, 1) if rng.random() < 0.5 else clip_case(rng, 1)
        want = SolverVerdict("unsat") if not solver._clip(request) \
            else holds_at_scan(request, resolution)
        assert grid_oracle(request, resolution) == oracle.check(request) == want, request
        statuses[want.status] += 1
    assert oracle._prefixes.nbytes == 0 and not oracle._prefixes._top.children
    assert min(statuses[status] for status in ("sat", "unsat", "unknown")) >= 5, statuses
