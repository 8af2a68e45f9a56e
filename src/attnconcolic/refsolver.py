"""A numerical stand-in for an SMT solver, speaking SMT-LIB2 on stdin/stdout.

Run as ``python -m attnconcolic.refsolver``.  It speaks the SMT-LIB 2.6
interactive protocol: it reads each command from stdin once, as it arrives,
framed by the client's rule (:func:`~attnconcolic.smt._forms`: a command
ends with the line that closes every ``(``; those in a string literal or a
``|quoted symbol|`` do not count).  It answers each ``(check-sat)`` at once,
prints the model of a ``sat`` answer on ``(get-model)`` (nothing after any
other answer), and starts a new problem on ``(reset)``.  A check solves what
was declared and asserted since the last ``(reset)``; where it draws random
samples (two or more variables), they are seeded from the text since the
``(reset)`` line through the ``(check-sat)`` line, stripped of the white
space around it.  :func:`solve_script` answers a script's last
``(check-sat)`` the same way, whatever follows.  Scripts must stay in
the SMT-LIB subset that :mod:`~attnconcolic.smt` writes and reads, models
included: declared Real constants, and comparisons between two terms over
``+`` and ``*`` (any number of arguments), unary and binary ``-``, and
``/`` by a constant, each read as the polynomial ``a - b`` against zero.
Every command outside it, wherever it stands, ``define-fun``, an excess
``)`` and terms nested too deeply included, prints one ``(error ...)`` line
on stderr and exits 2.  It shares the grid oracle's clip and searches: the
box comes from the conjuncts ``±1.0 * x + c relop 0`` (negative bounds
included), and the non-strict ones leave the assertion, so an emitted
script's bounds are read once; the box is clipped by
:func:`~attnconcolic.smt._clip` for one or two variables.  The clip holds
every point that can satisfy the request.

A session frames each line that is one whole command, read when no form or
literal is left open, once: :func:`~attnconcolic.smt._forms` keeps its
forms in a memo, and an assertion line's comparison is kept in another, so
a repeat, after ``(reset)`` too, is neither tokenized nor read again.  Both
memos live as long as the process, each bounded by
:func:`~attnconcolic.smt._remember`.  A line inside an open form or after
an unclosed literal is framed with the text around it, ``(reset)`` is
obeyed as it arrives, and the text that seeds the samples is the text
received, so every answer is the one the script gets alone.

For one variable, :func:`~attnconcolic.smt._line_search` tries, in plain
Python, the points of the 256-, 1,024- and 4,096-step grids that lie in the
clip's intervals, grid by grid and each in ascending order, each interval's
first and last found by index arithmetic, then the midpoint of each
interval, clamped to the box: no kernel, no prefix trie and no random
draws.  For two variables, the grid oracle's kernel scans the
256- and 1,024-step grids, and past two a mesh of at most 17**5 points,
streamed in chunks; then come seeded ``Generator.uniform`` samples inside the
box, and for two only those in the clip polygon's bounding box.  A session
keeps one :class:`~attnconcolic.solver._PrefixTrie` per two-variable grid
resolution, each under the grid oracle's byte cap, for the life of the
process, across ``(reset)``, as a :class:`~attnconcolic.solver.GridOracle`
keeps its own: a check that extends a prefix checked before, under the same
box, evaluates only the conjuncts after it, with the same verdict and
witness.

The engine's :class:`~attnconcolic.solver.ExternalSolver` answers the
requests that the clip proves unsat without asking its child, so a session
sees only those the clip does not decide.  The refsolver keeps its own clip
for scripts from anywhere else.  At start it imports only ``smt`` and
``symexpr``, which load neither numpy nor the attack stack; ``solver``,
numpy and ``hashlib`` (for the sample seed) load at the first check of two
or more variables.  So a session of checks of no or one variable, such as
the CLI's pre-flight and its default of one pixel, never loads numpy.

Answers are honest about their strength: ``sat`` comes with a model that is a
verified witness, printed in decimals.  ``unsat`` is emitted only with a
proof: the bound assertions make the box empty, or, for one or two
variables, the clip of the box by the conjuncts it reads (degree at most 2
for one variable, affine for two) leaves nothing, and then no grid stage,
midpoint or sample runs.  Everything else is ``unknown``.  This keeps a fully
working out-of-the-box pipeline on machines without z3/cvc5 installed; point
a real solver at the engine for completeness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from .smt import (SAT, UNKNOWN, UNSAT, ScriptError, SolverError, SolverRequest, _clip,
                  _comparison, _forms, _line_search, _remember, render_model)
from .smt import _term  # noqa: F401  (the term reader, importable from here too)
from .symexpr import _REL_APPLY, Comparison, Rel, evaluate

# numpy and solver load at the first check of two or more variables: the
# functions of that search import them where they run

GRID_STAGES = {1: (256, 1024, 4096), 2: (256, 1024)}  # by variable count
MESH_RESOLUTION = 16  # dense meshes blow up past two variables
MESH_POINTS = (MESH_RESOLUTION + 1) ** 5  # mesh cap: past five variables, fewer per axis
RANDOM_SAMPLES = 65536
DEFAULT_BOX = (-1e9, 1e9)
_CHUNK = 2048  # rows per evaluate: fastest of 512 to 65536

_IGNORED = ("set-logic", "get-model")


def _narrowed(request: SolverRequest) -> SolverRequest:
    """``request`` with each variable's box narrowed by the order conjuncts
    ``s * x + c relop 0`` with ``s = ±1.0``: each bounds ``x`` by ``-s * c``,
    with the relation flipped when ``s = -1.0``.  The non-strict ones leave
    the assertion, as every point of the box satisfies them; a strict one
    stays, as the closed box cannot exclude its bound."""
    boxes = {name: [lo, hi] for name, lo, hi in request.variables}
    kept = []
    for cmp in request.assertion:
        terms = dict(zip(cmp.p.monomials, cmp.p.coeffs))
        c = terms.pop((), 0.0)
        monomial, s = next(iter(terms.items())) if len(terms) == 1 else ((), 0.0)
        if cmp.rel not in (Rel.EQ, Rel.NE) and len(monomial) == 1 and s in (1.0, -1.0):
            lo, hi = boxes[monomial[0]]
            bound = -s * c
            upper = (cmp.rel in (Rel.LT, Rel.LE)) == (s > 0)
            boxes[monomial[0]] = [lo, min(hi, bound)] if upper else [max(lo, bound), hi]
            if cmp.rel in (Rel.LE, Rel.GE):
                continue
        kept.append(cmp)
    return replace(request, assertion=tuple(kept),
                   variables=tuple((name, lo, hi) for name, (lo, hi) in boxes.items()))


def _first_hit(assertion, names: list[str], chunks):
    """The first row of the ``chunks`` of points (one column per variable) at
    which every conjunct holds, as an assignment, or None."""
    import numpy as np

    for chunk in chunks:
        env = dict(zip(names, chunk.T))
        ok = np.ones(len(chunk), dtype=bool)
        with np.errstate(all="ignore"):
            for cmp in assertion:
                ok &= _REL_APPLY[cmp.rel](evaluate(cmp.p, env), 0.0)
                if not ok.any():
                    break
        if ok.any():
            return dict(zip(names, map(float, chunk[int(np.argmax(ok))])))
    return None


def _mesh_chunks(axes):
    """The mesh over ``axes`` in row-major order, ``_CHUNK`` rows at a time."""
    import numpy as np

    shape = tuple(axis.size for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
        yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


def _mesh_points_per_axis(n_vars: int) -> int:
    """The most points per axis, up to ``MESH_RESOLUTION + 1``, within ``MESH_POINTS``."""
    return max(n for n in range(1, MESH_RESOLUTION + 2) if n ** n_vars <= MESH_POINTS)


def _samples(request: SolverRequest, seed: int):
    """``RANDOM_SAMPLES`` points of the box drawn by numpy's generator seeded
    with ``seed``, one row each."""
    import numpy as np

    lows, highs = np.array([(lo, hi) for _, lo, hi in request.variables]).T
    return np.random.default_rng(seed).uniform(lows, highs, (RANDOM_SAMPLES, lows.size))


def _search(request: SolverRequest, seed, tries: dict):
    """Staged grid scan, then further candidates: ``(status, witness)``.

    No or one variable: the grid stages, then the clip's interval midpoints,
    by :func:`~attnconcolic.smt._line_search`; ``seed`` and ``tries`` go
    unread.  Two variables: :func:`~attnconcolic.smt._clip` runs first and
    answers unsat when it leaves no point of the box, and each grid stage
    reads and stores prefix masks in ``tries[resolution]``, a
    :class:`~attnconcolic.solver._PrefixTrie` made at its first use.  Past
    two: a mesh.  From two on, seeded random samples (``seed``, an integer)
    follow; for two variables only those in the clip polygon's bounding box
    are evaluated, which changes no verdict or witness.  Samples are kept
    inside the box by an explicit test, as the box's non-strict bounds are
    not in the assertion."""
    names = [name for name, _, _ in request.variables]
    if len(names) <= 1:
        return _line_search(request, GRID_STAGES[1], midpoints=True)
    import numpy as np

    from .solver import _grid_axis, _PrefixTrie, _scan

    if len(names) == 2:
        clip = _clip(request)
        if not clip:
            return UNSAT, None
        for resolution in GRID_STAGES[2]:
            trie = tries.get(resolution)
            if trie is None:
                trie = tries[resolution] = _PrefixTrie()
            verdict = _scan(request, resolution, trie)
            if verdict.status == SAT:
                return SAT, verdict.assignment
    elif (per_axis := _mesh_points_per_axis(len(names))) >= 2:
        axes = [_grid_axis(lo, hi, per_axis - 1).points for _, lo, hi in request.variables]
        witness = _first_hit(request.assertion, names, _mesh_chunks(axes))
        if witness is not None:
            return SAT, witness
    # only points of the box, which lo + u * (hi - lo) can round past, and
    # for two variables of the clip polygon's bounding box
    lows, highs = np.array([(lo, hi) for _, lo, hi in request.variables]).T
    if len(names) == 2:
        lows = np.maximum(lows, np.min(clip, axis=0))
        highs = np.minimum(highs, np.max(clip, axis=0))
    points = _samples(request, seed)
    points = points[((lows <= points) & (points <= highs)).all(axis=1)]
    chunks = (points[start:start + _CHUNK] for start in range(0, len(points), _CHUNK))
    witness = _first_hit(request.assertion, names, chunks)
    return (UNKNOWN if witness is None else SAT), witness


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


def _solve(declared: list[str], assertion: list[Comparison], text: str, tries: dict):
    """(status, witness, declared variable order) of a check, its random
    samples (two or more variables) seeded from ``text`` stripped of the
    white space around it, its two-variable grid stages reading and storing
    the prefix masks of ``tries``."""
    request = _narrowed(SolverRequest(tuple((name, *DEFAULT_BOX) for name in declared),
                                      tuple(assertion)))
    if any(lo > hi for _, lo, hi in request.variables):
        return (UNSAT, None, list(declared))
    seed = None
    if len(declared) >= 2:  # only such checks draw samples
        import hashlib

        seed = int.from_bytes(hashlib.sha256((text.strip() + "\n").encode()).digest()[:8],
                              "big")
    return (*_search(request, seed, tries), list(declared))


def solve_script(text: str) -> tuple[str, dict[str, float] | None, list[str]]:
    """(status, witness, declared variable order) of the script's last
    ``(check-sat)``, as a session answers it; unknown if it asks for none.
    Its grid stages start from empty prefix tries.  SolverError on a script
    it cannot read (ScriptError for a form outside the subset, ``(reset)``
    included)."""
    declared: list[str] = []
    assertion: list[Comparison] = []
    read, check = "", None  # the text so far; the last check's arguments
    for lines, forms in _forms(text.splitlines(keepends=True)):
        read += lines
        for form in forms:
            if _read(form, declared, assertion):
                check = (list(declared), list(assertion), read)
    return _solve(*check, {}) if check else (UNKNOWN, None, declared)


def main() -> int:
    declared: list[str] = []  # read since the last (reset)
    assertion: list[Comparison] = []
    text = ""  # the lines received since the (reset) line
    answer = None  # (status, witness, declared) of the last (check-sat)
    # a prefix trie per two-variable grid resolution, for the life of the
    # process: (reset) keeps them, as their keys are exact
    tries: dict = {}
    # for the life of the process too, each bounded by smt._remember: the
    # forms of each line that is one whole command, and the comparison of
    # each such line that asserts
    framed: dict = {}
    asserted: dict = {}
    try:
        for lines, forms in _forms(sys.stdin, framed):
            text += lines
            if lines in asserted:
                assertion.append(asserted[lines])
                continue
            for form in forms:
                if form == ["reset"]:
                    declared, assertion, text, answer = [], [], "", None
                elif _read(form, declared, assertion):
                    # the text up to and including the (check-sat) line
                    answer = _solve(declared, assertion, text, tries)
                    print(answer[0], flush=True)
                elif form == ["get-model"] and answer and answer[0] == SAT:
                    print(render_model(*answer[1:]), end="", flush=True)
            if len(forms) == 1 and forms[0][0] == "assert" and lines in framed:
                _remember(asserted, lines, assertion[-1])
    except SolverError as exc:
        print(f"(error \"{exc}\")", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
