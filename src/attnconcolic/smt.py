"""What both ends of the solver pipe share, in plain Python: requests, their
statuses and verdicts, the SMT-LIB subset they speak, the clip, and the
search of a request of no or one variable.  This is the one module that
writes the subset (:func:`emit_smtlib`, :func:`render_model`) and reads it:
one term reader, :func:`_term`, reads assertions and model values alike.

:mod:`~attnconcolic.solver` and the :mod:`~attnconcolic.refsolver` child
both import this module, and it imports neither numpy nor ``solver``, so a
refsolver that answers only checks of no or one variable (the CLI's
pre-flight and its default of one pixel) never loads them.  Every backend
calls :func:`_clip`, the one in-process proof of unsat, once, first, and
hands it to its search.  For one variable the clip is exact up to a float
widening for every conjunct of degree at most 2, which covers every guard
the forward builds, so :func:`_line_search` takes its candidates from the
clip alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .symexpr import (_OPS, Comparison, ConcolicArithmeticError, Rel, SymExpr, _bin, const, neg,
                      var)

__all__ = ["ScriptError", "SolverError", "SolverRequest", "SolverVerdict", "emit_smtlib",
           "read_model", "render_model"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
TIMEOUT = "timeout"
SOLVER_ERROR = "solver_error"


class SolverError(RuntimeError):
    """Misconfigured solver command or unusable solver output."""


@dataclass(frozen=True)
class SolverVerdict:
    """A check's status, the witness of a sat one, a solver's transcript."""

    status: str
    assignment: Optional[dict[str, float]] = None
    transcript: str = ""


@dataclass(frozen=True)
class SolverRequest:
    """Bounded variables plus a conjunction of comparisons ``p relop 0``."""

    variables: tuple[tuple[str, float, float], ...]
    assertion: tuple[Comparison, ...]
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        declared = {name for name, _, _ in self.variables}
        free = {name for cmp in self.assertion for monomial in cmp.p.monomials
                for name in monomial}
        missing = free - declared
        if missing:
            raise SolverError(f"assertion uses undeclared variables: {sorted(missing)}")


# ---------------------------------------------------------------------------
# SMT-LIB numerals and framing
# ---------------------------------------------------------------------------


def _render_decimal(value: float) -> str:
    """Shortest round-trip decimal with a trailing .0 for integers; negatives
    wrapped as (- x) per SMT-LIB syntax, and a zero of either sign is 0.0."""
    if value != value or value in (float("inf"), float("-inf")):
        raise SolverError(f"cannot emit non-finite constant {value!r}")
    if not value:  # repr(-0.0) is no SMT-LIB numeral
        return "0.0"
    if value < 0:
        return f"(- {_render_decimal(-value)})"
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    if "." not in text:
        text += ".0"
    return text


# a ; comment, or a string literal ("" escapes a quote) or |quoted symbol|,
# which runs to the end of the text if left open
_LITERAL = re.compile(r'(;[^\n]*|"(?:[^"]|"")*"?|\|[^|]*\|?)')
_CLOSED_LITERAL = re.compile(r'"(?:[^"]|"")*"|\|[^|]*\|')


def _tokenize(text: str) -> list[str]:
    """SMT-LIB tokens.  A string literal or a quoted symbol is one token, and
    a ``;`` comment outside them runs to the end of its line."""
    tokens: list[str] = []
    for i, part in enumerate(_LITERAL.split(text)):
        if i % 2 == 0:
            tokens += part.replace("(", " ( ").replace(")", " ) ").split()
        elif part[0] != ";":
            tokens.append(part)
    return tokens


_MEMO_ENTRIES = 1024  # past this many entries a line memo starts over


def _remember(memo: dict, key, value):
    """``value``, stored in ``memo`` under ``key``; a full memo is emptied
    first, so it holds at most ``_MEMO_ENTRIES``."""
    if len(memo) >= _MEMO_ENTRIES:
        memo.clear()
    memo[key] = value
    return value


def _forms(lines: Iterable[str], memo: Optional[dict] = None) -> Iterator[tuple[str, list]]:
    """Yield ``(text, forms)`` each time the lines read so far close every
    ``(`` outside literals: their text and the forms they complete (none for
    blank and comment lines), reading no line further.  Each line is
    tokenized once, with the literal left open at the end of the one before.
    SolverError at an excess ``)``, and at the end within a form.

    With a ``memo`` (a dict the caller keeps across calls), a line read when
    no form or literal is left open, and that closes every form it opens,
    is framed once: its forms are stored under its text, bounded by
    :func:`_remember`, and a repeat of the line yields the stored forms,
    which the caller must not change.  Lines inside a form or after an
    unclosed literal are framed as without one."""
    text: list[str] = []
    forms: list = []
    stack: list[list] = []
    carry = ""  # a literal left open
    for line in lines:
        if memo is not None and not text:  # nothing left open
            framed = memo.get(line)
            if framed is not None:
                yield line, framed
                continue
        text.append(line)
        tokens = _tokenize(carry + line)
        carry = ""
        if tokens and tokens[-1][0] in '"|' and not _CLOSED_LITERAL.fullmatch(tokens[-1]):
            carry = tokens.pop()
        for token in tokens:
            if token == "(":
                stack.append([])
                continue
            if token == ")":
                if not stack:
                    raise SolverError("unbalanced parentheses")
                token = stack.pop()
            (stack[-1] if stack else forms).append(token)
        if not stack and not carry:
            if memo is not None and len(text) == 1:
                _remember(memo, line, forms)
            yield "".join(text), forms
            text, forms = [], []
    if stack or carry:
        raise SolverError("unbalanced parentheses")


# ---------------------------------------------------------------------------
# SMT-LIB assertions and models
# ---------------------------------------------------------------------------

_RELATIONS = {rel.value: rel for rel in (Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ)}


class ScriptError(SolverError):
    """A script outside the accepted subset."""


def _render_poly(expr: SymExpr) -> str:
    """The polynomial as a sum of monomials, each written before its
    coefficient; a coefficient of 1.0 is omitted and a constant is a bare
    decimal."""
    terms = []
    for monomial, coeff in zip(expr.monomials, expr.coeffs):
        factors = list(monomial)
        if coeff != 1.0 or not factors:
            factors.append(_render_decimal(coeff))
        terms.append(factors[0] if len(factors) == 1 else f"(* {' '.join(factors)})")
    if not terms:
        return "0.0"
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


def emit_smtlib(request: SolverRequest) -> str:
    """Deterministic SMT-LIB2 text over quantifier-free nonlinear reals: the
    variables with their bounds, then each comparison as its polynomial
    against ``0.0``, ``(not (= p 0.0))`` for ``!=``, and last ``(check-sat)``."""
    lines = ["(set-logic QF_NRA)"]
    for name, lo, hi in request.variables:
        lines.append(f"(declare-const {name} Real)")
        lines.append(f"(assert (>= {name} {_render_decimal(lo)}))")
        lines.append(f"(assert (<= {name} {_render_decimal(hi)}))")
    for cmp in request.assertion:
        p = _render_poly(cmp.p)
        if cmp.rel is Rel.NE:
            lines.append(f"(assert (not (= {p} 0.0)))")
        else:
            lines.append(f"(assert ({cmp.rel.value} {p} 0.0))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _term(form) -> SymExpr:
    """The expression of one term; a symbol is a variable (the request checks
    that it was declared).  ``(/ p q)`` of two numerals is how SMT-LIB writes
    a rational constant, so it folds to the double nearest ``p / q``."""
    if isinstance(form, str):
        if not form[0].isdigit():
            return var(form)
        try:
            return const(float(form))
        except ValueError:
            raise ScriptError(f"bad numeral {form!r}") from None
    head, *args = form if form and isinstance(form[0], str) else [None]
    if head not in _OPS or not (len(args) == 2 or (len(args) == 1 and head == "-")
                                or (len(args) > 2 and head in ("+", "*"))):
        raise ScriptError(f"unsupported term {form!r}")
    terms = [_term(arg) for arg in args]
    if len(terms) == 1:
        return neg(terms[0])
    if head == "/" and terms[1].coeffs and all(isinstance(arg, str) and arg[0].isdigit()
                                               for arg in args):
        try:
            return const(float(Fraction(args[0]) / Fraction(args[1])))
        except (ValueError, OverflowError):
            raise ScriptError(f"unsupported term {form!r}") from None
    try:
        return functools.reduce(functools.partial(_bin, head), terms)
    except ConcolicArithmeticError as exc:  # a zero or symbolic divisor
        raise ScriptError(str(exc)) from None


def _comparison(form) -> Comparison:
    """``(relop a b)`` as ``a - b relop 0``, or ``(not (= a b))``."""
    if isinstance(form, list) and len(form) == 2 and form[0] == "not":
        inner = _comparison(form[1])
        if inner.rel is Rel.EQ:
            return Comparison(Rel.NE, inner.p)
    elif isinstance(form, list) and len(form) == 3 and isinstance(form[0], str) \
            and form[0] in _RELATIONS:
        return Comparison(_RELATIONS[form[0]], _term(form[1]), _term(form[2]))
    raise ScriptError(f"unsupported assertion {form!r}")


def render_model(witness: dict[str, float], declared: Sequence[str]) -> str:
    """The ``(get-model)`` reply: a decimal ``define-fun`` per declared name."""
    return "".join(["(\n", *(f"  (define-fun {name} () Real {_render_decimal(witness[name])})\n"
                             for name in declared), ")\n"])


def read_model(reply, names: Sequence[str]) -> dict[str, float]:
    """The value of each of ``names`` in the form ``reply`` to ``(get-model)``:
    that of its last ``(define-fun name ... value)`` at any depth, read by
    :func:`_term`.  SolverError for a value that does not fold to a finite
    constant, and for a name without one."""
    assignment: dict[str, float] = {}
    stack = [reply]
    while stack:
        node = stack.pop()
        if not isinstance(node, list):
            continue
        if node[:1] != ["define-fun"] or len(node) < 3 or node[1] not in names:
            stack.extend(reversed(node))  # popped in reading order
            continue
        try:
            value = _term(node[-1])
        except RecursionError:
            raise SolverError("model value nested too deeply") from None
        number = value.coeffs[0] if value.coeffs else 0.0
        if value.kind != "const" or not math.isfinite(number):
            raise SolverError(f"model value {node[-1]!r} is not a finite constant")
        assignment[node[1]] = number
    missing = set(names) - assignment.keys()
    if missing:
        raise SolverError(f"model omits variables: {sorted(missing)}")
    return assignment


# ---------------------------------------------------------------------------
# The clip
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0 ** -53


def _tie_band(bound: float, terms: int, rows: int, cols: int) -> float:
    """The float error bound of a conjunct with ``terms`` monomials whose
    coefficient matrix is ``rows`` by ``cols``, at points whose magnitudes
    give ``bound``.  In normal-range floats, evaluate rounds at most degree +
    terms times, and the kernel at most 2 * (rows + cols) times (powers, the
    two products); each error stays under gamma(rounds) * bound.  The factor
    3 covers both errors and the rounding of the bound itself."""
    rounds = terms + 3 * (rows + cols)
    gamma = rounds * _UNIT_ROUNDOFF / (1.0 - rounds * _UNIT_ROUNDOFF)
    return 3.0 * gamma * bound


# The half-planes each relation keeps, as signs of p: both sides for =, none for !=
_SIDES = {Rel.GT: (1.0,), Rel.GE: (1.0,), Rel.LT: (-1.0,), Rel.LE: (-1.0,),
          Rel.EQ: (1.0, -1.0), Rel.NE: ()}
_HUGE = 1e300  # past this bound a sign test could overflow


def _cut(polygon: list, c: float, b: float, a: float) -> list:
    """Sutherland–Hodgman: the vertices ``(x, y)`` of ``polygon`` at which
    ``c + b*x + a*y`` is at least zero, and in their order a point on each
    edge whose ends' values straddle zero."""
    values = [c + b * x + a * y for x, y in polygon]
    kept = []
    prev, before = polygon[-1], values[-1]
    for vertex, value in zip(polygon, values):
        if (value >= 0.0) != (before >= 0.0):
            t = before / (before - value)
            kept.append((prev[0] + t * (vertex[0] - prev[0]),
                         prev[1] + t * (vertex[1] - prev[1])))
        if value >= 0.0:
            kept.append(vertex)
        prev, before = vertex, value
    return kept


def _roots(a: float, b: float, c: float) -> list[float]:
    """The real roots of ``a*x*x + b*x + c`` in floats, none for a constant:
    the quadratic formula in the form that cancels no digits (Numerical
    Recipes, 5.6)."""
    if not a:
        return [-c / b] if b else []
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q else [0.0]


def _cut_line(intervals: list, a: float, b: float, c: float, magnitude: float,
              slack: float) -> list:
    """The parts of the sorted disjoint ``intervals`` that keep every point at
    which ``q(x) = a*x*x + b*x + c`` reaches ``slack``, for points of
    ``magnitude`` at most.

    Each interval is split at the float roots of ``q`` inside it.  A piece
    is dropped only when ``q`` is certified below ``slack`` on all of it: at
    both ends and, for a concave ``q``, at its float vertex clamped to the
    piece, each evaluated by Horner's rule, whose error stays under
    ``gamma(4) * B`` for ``B = |a|*m*m + |b|*m + |c|`` at ``m = magnitude``
    (Higham, 5.1);
    ``16 * u * B`` also covers the rounding of ``B`` and the vertex's
    error.  Between the points tested, convexity bounds ``q`` by them.  So
    the roots' own errors cost no soundness, only a piece kept."""
    limit = slack - 16.0 * _UNIT_ROUNDOFF * (abs(a) * magnitude * magnitude
                                             + abs(b) * magnitude + abs(c))
    roots = sorted(_roots(a, b, c))
    vertex = -b / (2.0 * a) if a < 0.0 else None
    kept: list = []
    for lo, hi in intervals:
        cuts = [lo, *(t for t in roots if lo < t < hi), hi]
        for left, right in zip(cuts, cuts[1:]):
            tested = [left, right]
            if vertex is not None:  # where a concave q peaks on the piece
                tested.append(min(max(vertex, left), right))
            if all(c + x * (b + a * x) < limit for x in tested):
                continue
            if kept and kept[-1][1] == left:
                kept[-1] = (kept[-1][0], right)
            else:
                kept.append((left, right))
    return kept


def _clip(request: SolverRequest) -> list[tuple[float, ...]]:
    """The box of a request clipped by the conjuncts of its assertion, in
    one pass: for one variable, the sorted disjoint closed intervals left by
    the conjuncts of degree at most 2; for two, the vertices ``(x, y)`` of
    the convex polygon left by the affine ones; past two, the box's two
    corners ``(lo, ...)`` and ``(hi, ...)``, the conjuncts unread.  None is
    left when the box is empty (some ``lo > hi``), or, for one or two
    variables, no point of it satisfies them, which proves the request
    unsat.  So a backend calls it on every request.

    Each conjunct ``p relop 0`` is read once, as a dict of its monomials
    from which ``p = c + b*x + a*z`` is popped, with ``z = x*x`` for one
    variable and ``y`` for two; a term left over is of a degree the clip
    does not read, and the conjunct is left out.  The rest is one side ``s
    * p >= 0`` with ``s = ±1``, two for ``=`` and none for ``!=``.  So that an
    empty result is a proof, each side is widened by :func:`_tie_band`, so
    that it keeps every point at which evaluate satisfies the conjunct, and
    by ``64 * (n + 1)`` unit roundoffs of the conjunct's bound for ``n``
    conjuncts (``2 * n + 2`` times 32: at most two sides each); the box by
    as many roundoffs of its magnitudes.  Only the bound and the cut depend
    on the variable count.  Two variables: each side is a half-plane, cut by
    Sutherland–Hodgman (1974).  One variable: each side cuts the intervals
    at its roots, and a piece goes only where :func:`_cut_line` certifies
    the side below half its roundoff widening.  That covers the clip's own
    rounding, in normal-range floats: a cut places each vertex it makes a
    few roundoffs of the box's magnitudes off the exact edge, and a sign
    test errs by a few roundoffs of the bound.  It also covers sample
    points rounded past ``hi``.  So strict relations are clipped as
    non-strict ones, and a sliver within that widening is not decided here.
    With no variables, the clip is the box's one point, ``[()]``.
    """
    if not request.variables:
        return [()]
    if any(lo > hi for _, lo, hi in request.variables):
        return []
    if len(request.variables) > 2:  # the lows and the highs
        return list(zip(*request.variables))[1:]
    widen = 64 * (len(request.assertion) + 1) * _UNIT_ROUNDOFF
    boxes = [(lo - widen * max(-lo, hi), hi + widen * max(-lo, hi))
             for _, lo, hi in request.variables]
    one = len(boxes) == 1
    (x0, x1), (y0, y1) = boxes[0], boxes[-1]  # for one variable, y is x
    clip = boxes if one else [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    mx, my = max(-x0, x1), max(-y0, y1)
    if not max(mx, my) < _HUGE:
        return clip
    x, y = request.variables[0][0], request.variables[-1][0]
    linear, top = (x,), ((x, x) if one else (y,))
    for cmp in request.assertion:
        terms = dict(zip(cmp.p.monomials, cmp.p.coeffs))
        c, b, a = terms.pop((), 0.0), terms.pop(linear, 0.0), terms.pop(top, 0.0)
        if terms:
            continue
        bound = abs(c) + abs(b) * mx + (abs(a) * mx * mx if one else abs(a) * my)
        if not bound < _HUGE:
            continue
        margin = _tie_band(bound, len(cmp.p.coeffs), 2, 2) + widen * bound
        for sign in _SIDES[cmp.rel]:
            if one:
                clip = _cut_line(clip, sign * a, sign * b, sign * c + margin, mx,
                                 0.5 * widen * bound)
            else:
                clip = _cut(clip, sign * c + margin, sign * b, sign * a)
            if not clip:
                return clip
    return clip


# ---------------------------------------------------------------------------
# The search of no or one variable
# ---------------------------------------------------------------------------


def _grid_point(lo: float, hi: float, resolution: int, k: int) -> float:
    """Point ``k`` of the grid of ``resolution + 1`` evenly spaced points from
    ``lo`` to ``hi``, clamped to ``hi``, which the last can round past;
    resolution 0 is the point ``lo``.  The points rise with ``k``."""
    return min(lo + (hi - lo) * (k / max(resolution, 1)), hi)


def _grid_index(lo: float, hi: float, resolution: int, x: float, strict: bool) -> int:
    """The first ``k`` of ``0 .. resolution + 1`` whose grid point is past
    ``x``: at least ``x``, or above it when ``strict``, as ``bisect_left`` and
    ``bisect_right`` over the grid find it.  ``x``'s place on ``[lo, hi]``
    scaled by ``resolution`` gives a first guess, and exact
    :func:`_grid_point` comparisons step it to the answer: a step or two,
    one per repeat of a point where the box is too narrow for its
    magnitude to hold distinct ones."""
    guess = (x - lo) / (hi - lo) * max(resolution, 1) if hi > lo else 0.0
    k = int(min(max(guess, 0.0), resolution + 1.0)) if guess == guess else 0

    def before(k: int) -> bool:  # whether point k is short of x, as bisect asks
        point = _grid_point(lo, hi, resolution, k)
        return not x < point if strict else point < x

    while k > 0 and not before(k - 1):
        k -= 1
    while k <= resolution and before(k):
        k += 1
    return k


def _line_points(lo: float, hi: float, clip: Sequence[tuple[float, float]],
                 resolutions: Iterable[int]) -> Iterator[float]:
    """The points of the grid over ``[lo, hi]`` of each of ``resolutions``
    in turn that lie in the sorted disjoint closed intervals of ``clip``,
    ascending; each interval's first and last are found by
    :func:`_grid_index`, the points that bisection over the whole grid
    finds."""
    for resolution in resolutions:
        for a, b in clip:
            for k in range(_grid_index(lo, hi, resolution, a, False),
                           _grid_index(lo, hi, resolution, b, True)):
                yield _grid_point(lo, hi, resolution, k)


def _first_satisfying(request: SolverRequest,
                      points: Iterable[tuple[float, ...]]) -> SolverVerdict:
    """Sat, with the first of ``points`` (a value per variable, in the
    request's order; a repeat is checked again) at which every conjunct
    holds under :meth:`Comparison.holds_at` as the witness; else unknown."""
    names = [name for name, _, _ in request.variables]
    for point in points:
        assignment = dict(zip(names, point))
        if all(cmp.holds_at(assignment) for cmp in request.assertion):
            return SolverVerdict(SAT, assignment)
    return SolverVerdict(UNKNOWN)


def _line_search(request: SolverRequest, clip: Sequence[tuple[float, ...]],
                 resolutions: Iterable[int], midpoints: bool = False) -> SolverVerdict:
    """The verdict of a request of no or one variable whose :func:`_clip`,
    which the caller ran, is ``clip``, not empty.

    With no variables, the clip's one point is the empty assignment.  With
    one, the candidates are the points of :func:`_line_points`, then, with
    ``midpoints``, the midpoint of each interval, clamped to the box; the
    answer is :func:`_first_satisfying`'s.  The clip keeps every point at
    which the conjuncts hold, so at each resolution the witness is the first
    satisfying point of the whole grid."""
    if not request.variables:
        return _first_satisfying(request, clip)
    ((_, lo, hi),) = request.variables
    points = _line_points(lo, hi, clip, resolutions)
    if midpoints:
        points = itertools.chain(points, (min(max(0.5 * (a + b), lo), hi) for a, b in clip))
    return _first_satisfying(request, ((x,) for x in points))
