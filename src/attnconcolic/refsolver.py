"""A numerical stand-in for an SMT solver, speaking SMT-LIB2 on stdin/stdout.

Run as ``python -m attnconcolic.refsolver``.  It speaks the SMT-LIB 2.6
interactive protocol: it reads each command from stdin once, as it arrives,
framed by the client's rule (:func:`~attnconcolic.smt._forms`: a command
ends with the line that closes every ``(``; those in a string literal or a
``|quoted symbol|`` do not count).  It answers each ``(check-sat)`` at once,
prints the model of a ``sat`` answer on ``(get-model)`` (nothing after any
other answer), and starts a new problem on ``(reset)``.  A check solves what
was declared and asserted since the last ``(reset)``; its random samples
(two or more variables) are seeded from the text since the ``(reset)`` line
through the ``(check-sat)`` line, stripped of the white space around it.
:func:`solve_script` is a fresh session's answer to a script's last
``(check-sat)``: one loop, :func:`_session`, serves both.  Scripts must stay
in the SMT-LIB subset that :mod:`~attnconcolic.smt` writes and reads, models
included: declared Real constants, and comparisons between two terms over
``+`` and ``*`` (any number of arguments), unary and binary ``-``, and
``/`` by a constant, each read as the polynomial ``a - b`` against zero.
Every command outside it, wherever it stands, ``define-fun``, an excess
``)`` and terms nested too deeply included, prints one ``(error ...)`` line
on stderr and exits 2.

A session frames each line that is one whole command once, and reads an
assertion line's comparison once: both are kept in memos bounded by
:func:`~attnconcolic.smt._remember`, for the life of the session, so a
repeat, after ``(reset)`` too, is neither tokenized nor read again.  A line
inside an open form or after an unclosed literal is framed with the text
around it, so every answer is the one the script gets alone.

A check narrows the box by the conjuncts ``±1.0 * x + c relop 0``, and the
non-strict ones leave the assertion, so an emitted script's bounds are read
once.  Then :func:`~attnconcolic.smt._clip` runs once, and the search goes
by variable count.  One variable: :func:`~attnconcolic.smt._line_search`
tries, in plain Python, the points of the 256-, 1,024- and 4,096-step grids
in the clip's intervals, ascending, then each interval's midpoint: no
kernel, no trie and no random draws.  Two: the grid oracle's kernel scans
the 256- and 1,024-step grids, with one
:class:`~attnconcolic.solver._PrefixTrie` per resolution kept for the
session, across ``(reset)``, as a :class:`~attnconcolic.solver.GridOracle`
keeps its own.  Past two: a mesh of at most 17**5 points, in chunks.  From
two on, seeded ``Generator.uniform`` samples in the clip's bounding box
follow.  At start the refsolver imports only ``smt`` and ``symexpr``;
``solver``, numpy and ``hashlib`` load at the first check of two or more
variables, so the CLI's pre-flight and its default of one pixel never load
numpy.

Answers are honest about their strength: ``sat`` comes with a verified
witness, printed in decimals, and ``unsat`` only with the clip's proof (an
empty box, or, for one or two variables, nothing of it left by the
conjuncts the clip reads), before any grid stage, midpoint or sample runs.
Everything else is ``unknown``.  The engine's
:class:`~attnconcolic.solver.ExternalSolver` runs the same clip before it
asks, so its child sees only what the clip does not decide; the refsolver
keeps its own for scripts from elsewhere.  This keeps a working pipeline
on machines without z3/cvc5; point a real solver at the engine for
completeness.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import replace
from typing import Iterable

from .smt import (SAT, UNKNOWN, UNSAT, ScriptError, SolverError, SolverRequest, SolverVerdict,
                  _clip, _comparison, _forms, _line_search, _remember, render_model)
from .smt import _term  # noqa: F401  (the term reader, importable from here too)
from .symexpr import _REL_APPLY, Comparison, Rel, evaluate

# numpy and solver load at the first check of two or more variables, in
# the functions of that search

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


def _search(request: SolverRequest, seed, tries: dict) -> SolverVerdict:
    """Staged grid scan, then further candidates.

    :func:`~attnconcolic.smt._clip` runs first and answers unsat when it
    leaves no point of the box.  No or one variable: the grid stages, then
    the clip's interval midpoints, by
    :func:`~attnconcolic.smt._line_search`; ``seed`` and ``tries`` go
    unread.  Two variables: each grid stage reads and stores prefix masks
    in ``tries[resolution]``, a :class:`~attnconcolic.solver._PrefixTrie`
    made at its first use.  Past two: a mesh.  From two on, seeded random
    samples (``seed``, an integer) follow, and only those in the clip's
    bounding box are evaluated (the box itself past two variables), which
    changes no verdict or witness.  Samples are kept inside the box by an
    explicit test, as the box's non-strict bounds are not in the
    assertion."""
    clip = _clip(request)
    if not clip:
        return SolverVerdict(UNSAT)
    names = [name for name, _, _ in request.variables]
    if len(names) <= 1:
        return _line_search(request, clip, GRID_STAGES[1], midpoints=True)
    import numpy as np

    from .solver import _grid_axis, _PrefixTrie, _scan

    if len(names) == 2:
        for resolution in GRID_STAGES[2]:
            trie = tries.get(resolution)
            if trie is None:
                trie = tries[resolution] = _PrefixTrie()
            verdict = _scan(request, resolution, trie)
            if verdict.status == SAT:
                return verdict
    elif (per_axis := _mesh_points_per_axis(len(names))) >= 2:
        axes = [_grid_axis(lo, hi, per_axis - 1).points for _, lo, hi in request.variables]
        witness = _first_hit(request.assertion, names, _mesh_chunks(axes))
        if witness is not None:
            return SolverVerdict(SAT, witness)
    # only points of the box, which lo + u * (hi - lo) can round past, and
    # of the clip's bounding box
    lows, highs = np.array([(lo, hi) for _, lo, hi in request.variables]).T
    lows = np.maximum(lows, np.min(clip, axis=0))
    highs = np.minimum(highs, np.max(clip, axis=0))
    points = _samples(request, seed)
    points = points[((lows <= points) & (points <= highs)).all(axis=1)]
    chunks = (points[start:start + _CHUNK] for start in range(0, len(points), _CHUNK))
    witness = _first_hit(request.assertion, names, chunks)
    return SolverVerdict(UNKNOWN if witness is None else SAT, witness)


def _read(form, declared: list[str], assertion: list[Comparison]) -> bool:
    """Add one command's declaration or assertion; whether it asks for a
    check.  ScriptError for a command outside the subset; the session
    obeys ``(reset)`` before it gets here."""
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
    seed = None
    if len(declared) >= 2:  # only such checks draw samples
        import hashlib

        seed = int.from_bytes(hashlib.sha256((text.strip() + "\n").encode()).digest()[:8],
                              "big")
    verdict = _search(request, seed, tries)
    return verdict.status, verdict.assignment, list(declared)


def _session(stream: Iterable[str], out) -> tuple[str, dict[str, float] | None, list[str]]:
    """Answer the commands in the lines of ``stream`` on ``out``, each as it
    arrives; (status, witness, declared variable order) of the last
    ``(check-sat)``, else unknown.  SolverError on a command it cannot read
    (ScriptError for a form outside the subset)."""
    declared: list[str] = []  # read since the last (reset)
    assertion: list[Comparison] = []
    text = ""  # the lines received since the (reset) line
    answer = last = None  # (status, witness, declared) of the last (check-sat)
    # since the (reset), and in the session.  Kept across (reset): a prefix
    # trie per two-variable grid resolution, whose keys are exact; the forms
    # and the comparison of each line that is one whole command, bounded by
    # smt._remember
    tries: dict = {}
    framed: dict = {}
    asserted: dict = {}
    for lines, forms in _forms(stream, framed):
        text += lines
        if lines in asserted:
            assertion.append(asserted[lines])
            continue
        for form in forms:
            if form == ["reset"]:
                declared, assertion, text, answer = [], [], "", None
            elif _read(form, declared, assertion):
                # the text up to and including the (check-sat) line
                answer = last = _solve(declared, assertion, text, tries)
                print(answer[0], file=out, flush=True)
            elif form == ["get-model"] and answer and answer[0] == SAT:
                print(render_model(*answer[1:]), end="", file=out, flush=True)
        if len(forms) == 1 and forms[0][0] == "assert" and lines in framed:
            _remember(asserted, lines, assertion[-1])
    return last or (UNKNOWN, None, declared)


def solve_script(text: str) -> tuple[str, dict[str, float] | None, list[str]]:
    """(status, witness, declared variable order) of the script's last
    ``(check-sat)``, as a fresh session answers it; unknown if it asks for
    none.  SolverError on a script it cannot read, as :func:`_session`."""
    return _session(text.splitlines(keepends=True), io.StringIO())


def main() -> int:
    try:
        _session(sys.stdin, sys.stdout)
    except SolverError as exc:
        print(f"(error \"{exc}\")", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
