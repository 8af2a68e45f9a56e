"""A numerical stand-in for an SMT solver, speaking SMT-LIB2 on stdin/stdout.

Run as ``python -m attnconcolic.refsolver``.  It speaks the SMT-LIB 2.6
interactive protocol: it reads each command from stdin once, as it arrives,
framed by the client's rule (:func:`~attnconcolic.solver._forms`: a command
ends with the line that closes every ``(``; those in a string literal or a
``|quoted symbol|`` do not count).  It answers each ``(check-sat)`` at once,
prints the model of a ``sat`` answer on ``(get-model)`` (nothing after any
other answer), and starts a new problem on ``(reset)``.  A check solves what
was declared and asserted since the last ``(reset)``, its random samples
seeded from the text since the ``(reset)`` line, through the ``(check-sat)``
line; :func:`solve_script` solves a whole script the same way.  Scripts must
stay in exactly the subset :func:`~attnconcolic.solver.emit_smtlib` writes:
declared Real constants, and comparisons between terms over ``+`` and ``*``
(any number of arguments), unary and binary ``-``, and ``/`` by a constant.
Every command outside it, wherever it stands, ``define-fun``, an excess ``)``
and terms nested too deeply included, prints one ``(error ...)`` line on
stderr and exits 2.  It shares the grid oracle's parser and kernel: the box
comes from the variable-vs-constant conjuncts (negative bounds included), is
scanned by :func:`~attnconcolic.solver.grid_oracle` at staged resolutions (a
mesh of at most 17**5 points, streamed in chunks, past two variables), then
seeded samples.

Answers are honest about their strength: ``sat`` comes with a model that is a
verified witness, printed in decimals; ``unsat`` is emitted only when the
bound assertions already make the box empty, and everything else is
``unknown``.  This keeps a fully working out-of-the-box pipeline on machines
without z3/cvc5 installed; point a real solver at the engine for completeness.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import replace

import numpy as np

from .solver import (SAT, UNKNOWN, UNSAT, SolverError, SolverRequest, _forms, _grid_axis,
                     _parse_sexprs, _render_decimal, _tokenize, grid_oracle)
from .symexpr import (_REL_APPLY, Comparison, ConcolicArithmeticError, Rel, add, const,
                      div, evaluate, mul, neg, sub, var)

GRID_STAGES = {0: (1,), 1: (256, 1024, 4096), 2: (256, 1024)}  # by variable count
MESH_RESOLUTION = 16  # dense meshes blow up past two variables
MESH_POINTS = (MESH_RESOLUTION + 1) ** 5  # mesh cap: past five variables, fewer per axis
RANDOM_SAMPLES = 65536
DEFAULT_BOX = (-1e9, 1e9)
_CHUNK = 2048  # rows per evaluate: fastest of 512 to 65536

_BUILDERS = {"+": add, "-": sub, "*": mul, "/": div}
_RELATIONS = {rel.value: rel for rel in (Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ)}
_IGNORED = ("set-logic", "get-model")


class ScriptError(SolverError):
    """A script outside the accepted subset."""


def _term(form):
    """The expression of one term; a symbol is a variable (the request checks
    that it was declared)."""
    if isinstance(form, str):
        if not form[0].isdigit():
            return var(form)
        try:
            return const(float(form))
        except ValueError:
            raise ScriptError(f"bad numeral {form!r}") from None
    head, *args = form or [None]
    if head not in _BUILDERS or not (len(args) == 2 or (len(args) == 1 and head == "-")
                                     or (len(args) > 2 and head in ("+", "*"))):
        raise ScriptError(f"unsupported term {form!r}")
    terms = [_term(arg) for arg in args]
    if len(terms) == 1:
        return neg(terms[0])
    try:
        return functools.reduce(_BUILDERS[head], terms)
    except ConcolicArithmeticError as exc:  # a zero or symbolic divisor
        raise ScriptError(str(exc)) from None


def _comparison(form) -> Comparison:
    if isinstance(form, list) and len(form) == 2 and form[0] == "not":
        inner = _comparison(form[1])
        if inner.rel is Rel.EQ:
            return Comparison(Rel.NE, inner.lhs, inner.rhs)
    elif isinstance(form, list) and len(form) == 3 and form[0] in _RELATIONS:
        return Comparison(_RELATIONS[form[0]], _term(form[1]), _term(form[2]))
    raise ScriptError(f"unsupported assertion {form!r}")


def _narrowed(request: SolverRequest) -> SolverRequest:
    """``request`` with each variable's box narrowed by the conjuncts that
    compare the variable with a constant."""
    boxes = {name: [lo, hi] for name, lo, hi in request.variables}
    for cmp in request.assertion:
        if cmp.rel in (Rel.EQ, Rel.NE):
            continue
        for side, other, upper in ((cmp.lhs, cmp.rhs, cmp.rel in (Rel.LT, Rel.LE)),
                                   (cmp.rhs, cmp.lhs, cmp.rel in (Rel.GT, Rel.GE))):
            if len(side.monomials) == 1 and len(side.monomials[0]) == 1 \
                    and side.coeffs == (1.0,) and other.monomials in ((), ((),)):
                name, value = side.monomials[0][0], sum(other.coeffs)
                lo, hi = boxes[name]
                boxes[name] = [lo, min(hi, value)] if upper else [max(lo, value), hi]
    return replace(request, variables=tuple((name, lo, hi) for name, (lo, hi) in boxes.items()))


def _first_hit(assertion, names: list[str], chunks):
    """The first row of the ``chunks`` of points (one column per variable) at
    which every conjunct holds, as an assignment, or None."""
    for chunk in chunks:
        env = dict(zip(names, chunk.T))
        ok = np.ones(len(chunk), dtype=bool)
        with np.errstate(all="ignore"):
            for cmp in assertion:
                ok &= _REL_APPLY[cmp.rel](evaluate(cmp.lhs, env), evaluate(cmp.rhs, env))
                if not ok.any():
                    break
        if ok.any():
            return dict(zip(names, map(float, chunk[int(np.argmax(ok))])))
    return None


def _mesh_chunks(axes):
    """The mesh over ``axes`` in row-major order, ``_CHUNK`` rows at a time."""
    shape = tuple(axis.size for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
        yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


def _mesh_points_per_axis(n_vars: int) -> int:
    """The most points per axis, up to ``MESH_RESOLUTION + 1``, within ``MESH_POINTS``."""
    return max(n for n in range(1, MESH_RESOLUTION + 2) if n ** n_vars <= MESH_POINTS)


def _search(request: SolverRequest, seed: int):
    """Staged grid scan, then random sampling; a witness dict or None."""
    names = [name for name, _, _ in request.variables]
    if len(names) <= 2:
        for resolution in GRID_STAGES[len(names)]:
            verdict = grid_oracle(request, resolution)
            if verdict.status == SAT:
                return verdict.assignment
        if not names:
            return None
    elif (per_axis := _mesh_points_per_axis(len(names))) >= 2:
        axes = [_grid_axis(lo, hi, per_axis - 1).points for _, lo, hi in request.variables]
        witness = _first_hit(request.assertion, names, _mesh_chunks(axes))
        if witness is not None:
            return witness
    lows, highs = np.array([(lo, hi) for _, lo, hi in request.variables]).T
    samples = np.random.default_rng(seed).uniform(lows, highs,
                                                  size=(RANDOM_SAMPLES, len(names)))
    chunks = (samples[start:start + _CHUNK] for start in range(0, RANDOM_SAMPLES, _CHUNK))
    return _first_hit(request.assertion, names, chunks)


def _read(form, declared: list[str], assertion: list[Comparison]) -> bool:
    """Add one command's declaration or assertion; whether it asks for a
    check.  ScriptError for a command outside the subset, ``(reset)``
    included."""
    try:
        if not isinstance(form, list) or not form:
            raise ScriptError(f"unsupported command {form!r}")
        head, *args = form
        name = args[0] if args and isinstance(args[0], str) else None
        if head in _IGNORED:
            return False
        if form == ["check-sat"]:
            return True
        if head == "assert" and len(args) == 1:
            assertion.append(_comparison(args[0]))
        elif name in declared:
            raise ScriptError(f"symbol {name!r} declared twice")
        elif form in (["declare-const", name, "Real"], ["declare-fun", name, [], "Real"]):
            declared.append(name)
        else:
            raise ScriptError(f"unsupported command {form!r}")
    except RecursionError:  # reading or printing a deep form
        raise ScriptError("term nested too deeply") from None
    return False


def _solve(declared: list[str], assertion: list[Comparison], text: str):
    """(status, witness, declared variable order) of a check, its random
    samples seeded from ``text``."""
    request = _narrowed(SolverRequest(tuple((name, *DEFAULT_BOX) for name in declared),
                                      tuple(assertion)))
    if any(lo > hi for _, lo, hi in request.variables):
        return (UNSAT, None, list(declared))
    seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
    witness = _search(request, seed)
    return (UNKNOWN if witness is None else SAT, witness, list(declared))


def solve_script(text: str) -> tuple[str, dict[str, float] | None, list[str]]:
    """Returns (status, witness, declared variable order); unknown if the
    script asks for no check.  Raises SolverError on a script it cannot read
    (ScriptError for a form outside the subset)."""
    declared: list[str] = []
    assertion: list[Comparison] = []
    checks = [_read(form, declared, assertion) for form in _parse_sexprs(_tokenize(text))]
    return _solve(declared, assertion, text) if any(checks) else (UNKNOWN, None, declared)


def _print_model(witness: dict[str, float], declared: list[str]) -> None:
    print("(")
    for name in declared:
        print(f"  (define-fun {name} () Real {_render_decimal(witness[name])})")
    print(")", flush=True)


def main() -> int:
    declared: list[str] = []  # read since the last (reset)
    assertion: list[Comparison] = []
    text = ""  # the lines received since the (reset) line
    answer = None  # (status, witness, declared) of the last (check-sat)
    try:
        for lines, forms in _forms(sys.stdin):
            text += lines
            for form in forms:
                if form == ["reset"]:
                    declared, assertion, text, answer = [], [], "", None
                elif _read(form, declared, assertion):
                    # the text up to and including the (check-sat) line
                    answer = _solve(declared, assertion, text.strip() + "\n")
                    print(answer[0], flush=True)
                elif form == ["get-model"] and answer and answer[0] == SAT:
                    _print_model(*answer[1:])
    except SolverError as exc:
        print(f"(error \"{exc}\")", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
