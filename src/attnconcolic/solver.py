"""Constraint lowering to SMT-LIB2, solver subprocess management, model
parsing, and a grid oracle over polynomial constraints.

The engine never links a solver library: the external backend writes an
SMT-LIB2 script over quantifier-free nonlinear reals to a configurable child
process and parses sat/unsat/unknown plus a model from its standard output.
The grid oracle is an in-process fallback used for testing and small-instance
verification; its "no point found" answer is reported as unknown, never as a
proof of unsatisfiability.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .symexpr import _REL_APPLY, Comparison, Rel, SymExpr, evaluate

__all__ = [
    "ExternalSolver",
    "GridOracle",
    "SolverError",
    "SolverRequest",
    "SolverVerdict",
    "assignment_satisfies",
    "check",
    "emit_smtlib",
    "grid_oracle",
    "parse_model_value",
]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
TIMEOUT = "timeout"
SOLVER_ERROR = "solver_error"


class SolverError(RuntimeError):
    """Misconfigured solver command or unusable solver output."""


@dataclass(frozen=True)
class SolverRequest:
    """Bounded variables plus a conjunction of normalized comparisons."""

    variables: tuple[tuple[str, float, float], ...]
    assertion: tuple[Comparison, ...]
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        declared = {name for name, _, _ in self.variables}
        free = _free_variables(side for cmp in self.assertion
                               for side in (cmp.lhs, cmp.rhs))
        missing = free - declared
        if missing:
            raise SolverError(f"assertion uses undeclared variables: {sorted(missing)}")


@dataclass(frozen=True)
class SolverVerdict:
    status: str
    assignment: Optional[dict[str, float]] = None
    transcript: str = ""


def _free_variables(exprs) -> set[str]:
    names: set[str] = set()
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if node.serial in seen:
            continue
        seen.add(node.serial)
        if node.kind == "var":
            names.add(node.name)
        stack.extend(node.args)
    return names


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _render_decimal(value: float) -> str:
    """Shortest round-trip decimal with a trailing .0 for integers; negatives
    wrapped as (- x) per SMT-LIB syntax."""
    if value != value or value in (float("inf"), float("-inf")):
        raise SolverError(f"cannot emit non-finite constant {value!r}")
    if value < 0:
        return f"(- {_render_decimal(-value)})"
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    if "." not in text:
        text += ".0"
    return text


def _reciprocal_exact(value: float) -> Optional[float]:
    """The float 1/value when it is exactly the real reciprocal, else None."""
    if value == 0.0:
        return None
    recip = 1.0 / value
    if Fraction(recip) == 1 / Fraction(value):
        return recip
    return None


def _shared_nodes(roots: Sequence[SymExpr]) -> set[int]:
    """Serials of the interior nodes referenced twice or more under ``roots``;
    each root occurrence counts as a reference."""
    refs: dict[int, int] = {}
    stack = [root for root in roots if root.args]
    while stack:
        node = stack.pop()
        refs[node.serial] = refs.get(node.serial, 0) + 1
        if refs[node.serial] == 1:
            stack.extend(child for child in node.args if child.args)
    return {serial for serial, count in refs.items() if count >= 2}


def _render_expr(expr: SymExpr, memo: dict[int, str], shared: set[int],
                 defines: list[str], prefix: str) -> str:
    """Text of ``expr``.  A node in ``shared`` is appended to ``defines`` in
    post-order as ``(define-fun <prefix><k> () Real ...)`` and is referred to
    by that name."""
    stack: list[tuple[SymExpr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if node.serial in memo:
            continue
        if node.kind == "const":
            text = _render_decimal(node.value)
        elif node.kind == "var":
            text = node.name
        elif not ready:
            stack.append((node, True))
            for child in node.args:
                stack.append((child, False))
            continue
        elif node.kind == "neg":
            text = f"(- {memo[node.args[0].serial]})"
        else:
            a, b = node.args
            recip = _reciprocal_exact(b.value) if node.op == "/" and b.is_const else None
            if recip is not None:
                text = f"(* {memo[a.serial]} {_render_decimal(recip)})"
            else:
                text = f"({node.op} {memo[a.serial]} {memo[b.serial]})"
        if node.serial in shared:
            name = f"{prefix}{len(defines)}"
            defines.append(f"(define-fun {name} () Real {text})")
            text = name
        memo[node.serial] = text
    return memo[expr.serial]


def emit_smtlib(request: SolverRequest) -> str:
    """Deterministic SMT-LIB2 text over quantifier-free nonlinear reals.

    Every interior node referenced twice or more is defined once with
    ``define-fun`` under a name no declared variable starts with."""
    lines = ["(set-logic QF_NRA)"]
    for name, lo, hi in request.variables:
        lines.append(f"(declare-const {name} Real)")
        lines.append(f"(assert (>= {name} {_render_decimal(lo)}))")
        lines.append(f"(assert (<= {name} {_render_decimal(hi)}))")
    prefix = "_s"
    while any(name.startswith(prefix) for name, _, _ in request.variables):
        prefix = "_" + prefix
    shared = _shared_nodes([side for cmp in request.assertion for side in (cmp.lhs, cmp.rhs)])
    memo: dict[int, str] = {}
    defines: list[str] = []
    asserts = []
    for cmp in request.assertion:
        lhs, rhs = (_render_expr(side, memo, shared, defines, prefix)
                    for side in (cmp.lhs, cmp.rhs))
        if cmp.rel is Rel.NE:
            asserts.append(f"(assert (not (= {lhs} {rhs})))")
        else:
            asserts.append(f"(assert ({cmp.rel.value} {lhs} {rhs}))")
    lines.extend(defines)
    lines.extend(asserts)
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    """SMT-LIB tokens; a ``;`` comment runs to the end of its line."""
    out: list[str] = []
    for line in text.splitlines():
        out.extend(line.split(";", 1)[0].replace("(", " ( ").replace(")", " ) ").split())
    return out


def _parse_sexprs(tokens: list[str]):
    forms = []
    stack: list[list] = []
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise SolverError("unbalanced parentheses")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append(done)
        elif stack:
            stack[-1].append(token)
        else:
            forms.append(token)
    if stack:
        raise SolverError("unbalanced parentheses")
    return forms


def parse_model_value(form) -> float:
    """Parse one model value: plain decimals, rationals (/ a b), and negation
    (- x), nested arbitrarily; rationals are evaluated exactly."""

    def as_fraction(node) -> Fraction:
        if isinstance(node, str):
            try:
                return Fraction(node)
            except ValueError as exc:
                raise SolverError(f"unparseable model value {node!r}") from exc
        if not node:
            raise SolverError("empty model value")
        head, *args = node
        if head == "-" and len(args) == 1:
            return -as_fraction(args[0])
        if head == "/" and len(args) == 2:
            denom = as_fraction(args[1])
            if denom == 0:
                raise SolverError("division by zero in model value")
            return as_fraction(args[0]) / denom
        raise SolverError(f"unparseable model value {node!r}")

    return float(as_fraction(form))


def _extract_assignment(forms, variables: Sequence[str]) -> dict[str, float]:
    wanted = set(variables)
    assignment: dict[str, float] = {}

    def walk(node) -> None:
        if not isinstance(node, list):
            return
        if len(node) >= 2 and node[0] == "define-fun" and isinstance(node[1], str):
            name = node[1]
            if name in wanted:
                assignment[name] = parse_model_value(node[-1])
            return
        for child in node:
            walk(child)

    for form in forms:
        walk(form)
    missing = wanted - assignment.keys()
    if missing:
        raise SolverError(f"model omits variables: {sorted(missing)}")
    return assignment


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalSolver:
    """An SMT-LIB2 solver run as a child process per check call.

    ``command`` is the executable plus arguments (string or argv list); the
    script goes to the child's stdin, the answer comes from stdout.
    """

    command: Union[str, Sequence[str]]
    default_timeout_s: float = 60.0

    def argv(self) -> list[str]:
        if isinstance(self.command, str):
            return shlex.split(self.command)
        return list(self.command)

    def check(self, request: SolverRequest) -> SolverVerdict:
        script = emit_smtlib(request)
        timeout = request.timeout_s if request.timeout_s is not None else self.default_timeout_s
        try:
            proc = subprocess.run(
                self.argv(), input=script, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolverVerdict(TIMEOUT)
        except OSError as exc:
            raise SolverError(f"cannot run solver command {self.argv()!r}: {exc}") from exc
        transcript = proc.stdout + (("\n" + proc.stderr) if proc.stderr else "")
        if proc.returncode != 0:
            return SolverVerdict(SOLVER_ERROR, transcript=transcript)
        answer = None
        lines = proc.stdout.splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if line in (SAT, UNSAT, UNKNOWN):
                answer = line
                break
        if answer == UNSAT:
            return SolverVerdict(UNSAT, transcript=transcript)
        if answer == UNKNOWN:
            return SolverVerdict(UNKNOWN, transcript=transcript)
        if answer == SAT:
            rest = "\n".join(lines[index + 1:])  # the model follows the answer line
            try:
                forms = _parse_sexprs(_tokenize(rest))
                names = [name for name, _, _ in request.variables]
                assignment = _extract_assignment(forms, names)
            except SolverError:
                return SolverVerdict(SOLVER_ERROR, transcript=transcript)
            return SolverVerdict(SAT, assignment=assignment, transcript=transcript)
        return SolverVerdict(SOLVER_ERROR, transcript=transcript)


_UNIT_ROUNDOFF = 2.0 ** -53

def _lower(roots, names: Sequence[str], magnitudes: Sequence[float]) -> dict:
    """Map every node under ``roots`` to ``(C, bound, rounds)``.

    ``C[i, j]`` is the coefficient of ``a**i * b**j`` for the (at most two)
    variables ``names``; the lowering is exact up to float rounding.
    ``bound`` bounds every intermediate magnitude of the node's DAG over
    ``|a| <= magnitudes[0]``, ``|b| <= magnitudes[1]`` (each constant and
    operation taken as non-negative), and ``rounds`` counts the roundings on
    any path from a leaf, in the DAG and in its coefficients.  Together they
    bound how far a float evaluation strays from the exact polynomial.
    Raises :class:`SolverError` for a symbolic divisor.
    """
    memo: dict[int, tuple[np.ndarray, float, int]] = {}
    stack: list[tuple[SymExpr, bool]] = [(root, False) for root in roots]
    while stack:
        node, ready = stack.pop()
        if node.serial in memo:
            continue
        if node.kind == "const":
            memo[node.serial] = (np.array([[node.value]]), abs(node.value), 0)
        elif node.kind == "var":
            k = names.index(node.name)
            coeffs = np.zeros((2, 1) if k == 0 else (1, 2))
            coeffs[-1, -1] = 1.0
            memo[node.serial] = (coeffs, magnitudes[k], 0)
        elif not ready:
            stack.append((node, True))
            for child in node.args:
                stack.append((child, False))
        elif node.kind == "neg":
            coeffs, bound, rounds = memo[node.args[0].serial]
            memo[node.serial] = (-coeffs, bound, rounds)
        else:
            a, b = node.args
            ca, ma, ra = memo[a.serial]
            cb, mb, rb = memo[b.serial]
            if node.op in ("+", "-"):
                if node.op == "-":
                    cb = -cb
                if ca.shape == cb.shape:
                    coeffs = ca + cb
                else:
                    coeffs = _padded(ca, cb.shape)
                    coeffs[:cb.shape[0], :cb.shape[1]] += cb
                memo[node.serial] = (coeffs, ma + mb, max(ra, rb) + 1)
            elif node.op == "*":
                if ca.size > cb.size:
                    ca, cb = cb, ca
                coeffs = np.zeros((ca.shape[0] + cb.shape[0] - 1,
                                   ca.shape[1] + cb.shape[1] - 1))
                for i, j in zip(*np.nonzero(ca)):
                    coeffs[i:i + cb.shape[0], j:j + cb.shape[1]] += ca[i, j] * cb
                # an output coefficient sums at most ca.size rounded products
                memo[node.serial] = (coeffs, ma * mb, max(ra, rb) + ca.size)
            elif b.kind == "const":
                memo[node.serial] = (ca / b.value, ma / abs(b.value), ra + 1)
            else:
                raise SolverError("grid oracle cannot divide by a symbolic expression")
    return memo


def _padded(coeffs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A copy of ``coeffs`` grown with zeros to cover ``shape``."""
    out = np.zeros((max(coeffs.shape[0], shape[0]), max(coeffs.shape[1], shape[1])))
    out[:coeffs.shape[0], :coeffs.shape[1]] = coeffs
    return out


def _grid_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    """``resolution + 1`` evenly spaced points from ``lo`` to about ``hi``."""
    return lo + (hi - lo) * (np.arange(resolution + 1, dtype=float) / resolution)


def grid_oracle(request: SolverRequest, resolution: int = 1024) -> SolverVerdict:
    """Evaluate the assertion on a uniform grid over the variable bounds.

    Returns sat with the first satisfying grid point (lexicographic scan), or
    unknown when no grid point satisfies: absence at a finite resolution is
    not an unsatisfiability proof.  A request without variables is sat when
    its ground conjuncts hold and unknown otherwise.

    Each conjunct is lowered once to polynomial coefficients and evaluated on
    the whole grid as ``V_a @ C @ V_b.T``.  Where that value lies within the
    float error bound of a tie, the conjunct is re-evaluated on the DAG, so
    the satisfying set is exactly the DAG's, and a sat point is checked once
    more with the scalar DAG semantics before it is returned.
    """
    if len(request.variables) > 2:
        raise SolverError("grid oracle supports at most 2 variables")
    if not request.variables:
        if all(cmp.holds_at({}) for cmp in request.assertion):
            return SolverVerdict(SAT, assignment={})
        return SolverVerdict(UNKNOWN)
    names = [name for name, _, _ in request.variables]
    axes = [_grid_axis(lo, hi, resolution) for _, lo, hi in request.variables]
    if len(axes) == 1:
        axes.append(np.zeros(1))  # a one-point second axis: C has one column
    forms = _lower([side for cmp in request.assertion for side in (cmp.lhs, cmp.rhs)],
                   names, [float(np.abs(axis).max()) for axis in axes])
    shape = (axes[0].size, axes[1].size)
    ok = np.ones(shape, dtype=bool)
    diff = np.empty(shape)
    with np.errstate(all="ignore"):
        for cmp in request.assertion:
            cl, ml, rl = forms[cmp.lhs.serial]
            cr, mr, rr = forms[cmp.rhs.serial]
            coeffs = _padded(cl, cr.shape)
            coeffs[:cr.shape[0], :cr.shape[1]] -= cr
            np.matmul(np.vander(axes[0], coeffs.shape[0], increasing=True) @ coeffs,
                      np.vander(axes[1], coeffs.shape[1], increasing=True).T, out=diff)
            # In normal-range floats, |diff - (lhs - rhs)| plus both sides'
            # DAG errors stay under 2 * gamma(rounds) * (ml + mr): the
            # subtraction, the powers and the two products add at most
            # 1 + 2 * (rows + cols) roundings.  The factor 3 covers the
            # rounding of the bounds themselves.
            rounds = max(rl, rr) + 1 + 2 * sum(coeffs.shape)
            gamma = rounds * _UNIT_ROUNDOFF / (1.0 - rounds * _UNIT_ROUNDOFF)
            tol = 3.0 * gamma * (ml + mr)
            relation = _REL_APPLY[cmp.rel]
            holds = relation(diff, 0.0)
            np.abs(diff, out=diff)
            if not diff.min() > tol:  # some point is within tol of a tie, or NaN
                rows, cols = np.nonzero(~(diff > tol) & ok)
                points = dict(zip(names, (axes[0][rows], axes[1][cols])))
                memo: dict[int, object] = {}
                holds[rows, cols] = relation(evaluate(cmp.lhs, points, memo),
                                             evaluate(cmp.rhs, points, memo))
            ok &= holds
            if not ok.any():
                return SolverVerdict(UNKNOWN)
    for hit in np.flatnonzero(ok):
        row, col = divmod(int(hit), shape[1])
        assignment = dict(zip(names, (float(axes[0][row]), float(axes[1][col]))))
        if all(cmp.holds_at(assignment) for cmp in request.assertion):
            return SolverVerdict(SAT, assignment=assignment)
    return SolverVerdict(UNKNOWN)


@dataclass(frozen=True)
class GridOracle:
    """Backend wrapper so the grid oracle can stand in for a solver."""

    resolution: int = 1024

    def check(self, request: SolverRequest) -> SolverVerdict:
        return grid_oracle(request, self.resolution)


Backend = Union[ExternalSolver, GridOracle]


def check(backend: Backend, request: SolverRequest) -> SolverVerdict:
    """Dispatch a request to the configured backend."""
    return backend.check(request)


# ---------------------------------------------------------------------------
# Verification of returned assignments
# ---------------------------------------------------------------------------


def assignment_satisfies(request: SolverRequest, assignment: dict[str, float],
                         slack: float = 1e-9) -> bool:
    """Direct evaluation of the original assertion at the assignment: strict
    relations exactly, non-strict within ``slack``."""
    for name, lo, hi in request.variables:
        value = assignment.get(name)
        if value is None or not (lo - slack <= value <= hi + slack):
            return False
    memo: dict[int, object] = {}
    for cmp in request.assertion:
        lhs = evaluate(cmp.lhs, assignment, memo)
        rhs = evaluate(cmp.rhs, assignment, memo)
        if cmp.rel is Rel.LT:
            ok = lhs < rhs
        elif cmp.rel is Rel.GT:
            ok = lhs > rhs
        elif cmp.rel is Rel.NE:
            ok = lhs != rhs
        elif cmp.rel is Rel.LE:
            ok = lhs <= rhs + slack
        elif cmp.rel is Rel.GE:
            ok = lhs >= rhs - slack
        else:
            ok = abs(lhs - rhs) <= slack
        if not ok:
            return False
    return True
