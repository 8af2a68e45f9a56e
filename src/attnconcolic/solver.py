"""Solver backends: subprocess management for an external SMT-LIB2 solver,
and a grid oracle over polynomial constraints.

The engine never links a solver library: the external backend keeps one
live child process per thread running a configurable solver command, writes
each request that the clip does not decide to it as an SMT-LIB2 script over
quantifier-free nonlinear reals, and reads sat/unsat/unknown, then after
sat the model it asks for, from its standard output.  Both backends read
each comparison ``p relop 0`` off its one polynomial.  The grid oracle is an
in-process fallback used for testing and small-instance verification; its
"no point found" answer is reported as unknown, never as a proof of
unsatisfiability.  Both answer unsat in process only with the proof of
:func:`~attnconcolic.smt._clip`, run once at the top of every check: an
empty box, or, for one or two variables, a box that the conjuncts, each
widened by a float error bound, clip to nothing: those of degree at most 2
for one variable, whose roots cut the line into intervals, and the affine
ones for two, which cut a polygon.

What the refsolver child shares with it, numpy-free, is in
:mod:`~attnconcolic.smt`: requests, statuses and verdicts (re-exported
here), the SMT-LIB subset both ends speak (:func:`emit_smtlib` writes the
scripts, re-exported here, and :func:`~attnconcolic.smt.read_model` reads
the models), the clip, and the plain-Python search of no or one variable.  This
module holds the backends and what needs numpy, the two-variable kernel,
its prefix trie and :class:`GridOracle`, so a refsolver loads it only at
its first check of two or more variables.
"""

from __future__ import annotations

import functools
import os
import select
import shlex
import subprocess
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .smt import (SAT, SOLVER_ERROR, TIMEOUT, UNKNOWN, UNSAT, SolverError, SolverRequest,
                  SolverVerdict, _clip, _first_satisfying, _forms, _grid_point, _line_search,
                  _tie_band, emit_smtlib, read_model)
from .symexpr import _REL_APPLY, Comparison, Rel, evaluate

__all__ = [
    "ExternalSolver",
    "GridOracle",
    "SolverError",
    "SolverRequest",
    "SolverVerdict",
    "assignment_satisfies",
    "emit_smtlib",
    "grid_oracle",
]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _wait(poller, deadline: float) -> None:
    """Block until the one pipe registered with ``poller`` is ready for the
    event it was registered for; TimeoutError at ``deadline``.  One further
    off than poll's longest timeout, 2**31 - 1 ms (about 24.8 days), or
    ``math.inf``, is waited for without a timeout."""
    timeout = max(0.0, deadline - time.monotonic()) * 1e3
    if not poller.poll(timeout if timeout <= 2 ** 31 - 1 else None):
        raise TimeoutError


def _poller(fd: int, event: int):
    """A ``select.poll`` object watching ``fd`` for ``event``."""
    poller = select.poll()
    poller.register(fd, event)
    return poller


class _Session:
    """One live solver child.  Commands go to its stdin and their replies
    are read from its stdout by a deadline, each before the next check; its
    stderr collects in a file for the transcript.  It makes one poller per
    pipe, kept across checks, each watching for the one event that pipe
    waits on."""

    def __init__(self, argv: list[str]) -> None:
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=self.stderr)
        except OSError:
            self.stderr.close()
            raise
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.writable = _poller(self.proc.stdin.fileno(), select.POLLOUT)
        self.readable = _poller(self.proc.stdout.fileno(), select.POLLIN)
        self.buffer = b""
        self.lines: list[str] = []  # stdout lines read for the current request

    def send(self, text: str, deadline: float) -> None:
        data = memoryview(text.encode())
        fd = self.proc.stdin.fileno()
        while data:
            _wait(self.writable, deadline)
            data = data[os.write(fd, data):]

    def readline(self, deadline: float) -> Optional[str]:
        """The next stdout line without its newline, or None at end of file."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            _wait(self.readable, deadline)
            chunk = os.read(fd, 65536)
            if not chunk:  # end of file, perhaps after a line without its newline
                if not self.buffer:
                    return None
                chunk = b"\n"
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        self.lines.append(line.decode(errors="replace"))
        return self.lines[-1]

    def forms(self, deadline: float) -> Iterator:
        """The forms of the replies to come, each once its lines are framed
        by :func:`_forms`, read by ``deadline``."""
        lines = iter(lambda: self.readline(deadline), None)
        return (form for _, forms in _forms(line + "\n" for line in lines) for form in forms)

    def close(self) -> str:
        """Kill the child; its transcript: the stdout lines of the current
        request, the unread ones included, then its stderr."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        try:  # what the child wrote before it ended
            while self.readline(time.monotonic()) is not None:
                pass
        except TimeoutError:  # a grandchild still holds the pipe open
            pass
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.stderr.seek(0)
        stderr = self.stderr.read().decode(errors="replace")
        self.stderr.close()
        return "\n".join(self.lines) + (("\n" + stderr) if stderr else "")


def _close_sessions(sessions: dict, keep=frozenset()) -> None:
    """Close this process's sessions but those of the threads in ``keep``; a
    forked copy leaves its parent's children alone."""
    for pid, thread in list(sessions):
        if pid == os.getpid() and thread not in keep:
            session = sessions.pop((pid, thread), None)
            if session is not None:  # another thread may have taken it first
                session.close()


@dataclass(frozen=True)
class ExternalSolver:
    """An SMT-LIB2 solver run as one live child process per thread.

    ``command`` is the executable plus arguments (string or argv list).  The
    solver must speak the SMT-LIB 2.6 interactive protocol on stdin/stdout
    and answer each ``(check-sat)`` as the command arrives, as ``z3 -in``,
    ``cvc5 --incremental`` and the refsolver do; one that reads stdin to EOF
    before it answers times out.  A request that :func:`_clip`, run first on
    every check, clips to nothing is unsat without a child.  Any other
    check is one exchange by the request's deadline: it sends ``(reset)``
    and the script of :func:`emit_smtlib`, which ends with ``(check-sat)``,
    and reads forms framed by :func:`_forms` up to the answer; only after
    ``sat`` does it send ``(get-model)`` and read the next form as the
    model, by :func:`~attnconcolic.smt.read_model`.  A timeout kills the
    child, and so does a ``solver_error`` (end of output before an answer,
    an ``(error ...)`` reply, a broken pipe, a reply that does not parse, a
    model that omits a variable or holds a value that does not fold to a
    finite constant); the next check starts a fresh one, with its own
    :class:`_Session` and pollers.  Starting a child closes those
    of threads that have ended; the others end when the backend is
    garbage-collected or the interpreter exits.  A pickled copy starts with
    no child.
    """

    command: Union[str, Sequence[str]]
    # (pid, thread ident) -> _Session; a thread writes only its own key and
    # removes only those of ended threads
    _sessions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        weakref.finalize(self, _close_sessions, self._sessions)

    def __reduce__(self):
        return ExternalSolver, (self.command,)

    def argv(self) -> list[str]:
        """The command as an argv list; SolverError if it does not split
        (an unclosed quote) or names no program."""
        try:
            argv = shlex.split(self.command) if isinstance(self.command, str) \
                else list(self.command)
        except ValueError as exc:
            raise SolverError(f"cannot split solver command {self.command!r}: {exc}") from None
        if not argv:
            raise SolverError(f"solver command {self.command!r} names no program")
        return argv

    def check(self, request: SolverRequest) -> SolverVerdict:
        # the pre-flight's request, with no variables, clips to one point
        if not _clip(request):
            return SolverVerdict(UNSAT)
        script = emit_smtlib(request)
        deadline = time.monotonic() + request.timeout_s
        key = (os.getpid(), threading.get_ident())
        if key not in self._sessions:
            # the children of threads that have ended would idle until the
            # backend is dropped
            _close_sessions(self._sessions, {t.ident for t in threading.enumerate()})
            argv = self.argv()
            try:
                self._sessions[key] = _Session(argv)
            except OSError as exc:
                raise SolverError(f"cannot run solver command {argv!r}: {exc}") from exc
        session = self._sessions[key]
        session.lines = []
        answer = assignment = None
        try:
            session.send("(reset)\n" + script, deadline)
            replies = session.forms(deadline)
            for form in replies:
                if isinstance(form, list) and form[:1] == ["error"]:
                    break
                if form in (SAT, UNSAT, UNKNOWN):  # other output is skipped
                    answer = form
                    break
            if answer == SAT:
                session.send("(get-model)\n", deadline)
                if (model := next(replies, None)) is not None:
                    assignment = read_model(model, [name for name, _, _ in request.variables])
        except TimeoutError:
            self._sessions.pop(key).close()
            return SolverVerdict(TIMEOUT)
        except (OSError, SolverError):  # the child no longer reads its stdin, or
            pass  # its reply does not parse
        except BaseException:  # an interrupt leaves the child's replies out of step
            self._sessions.pop(key).close()
            raise
        if answer in (UNSAT, UNKNOWN) or assignment is not None:
            return SolverVerdict(answer, assignment, "\n".join(session.lines))
        return SolverVerdict(SOLVER_ERROR, transcript=self._sessions.pop(key).close())


# The bytes a GridOracle's prefix trie may hold.  A mask covers only the
# bounding window of its prefix's points: 8 kB at most for two variables at
# resolution 256 (131 kB at 1024), a median of about 0.85 kB over grid-2px's
# prefixes.  So about 280 median masks fit with their node costs, against 55
# whole-grid ones.
_PREFIX_BYTES = 1 << 19
# What a trie node costs besides its mask bits: the node, its key and the
# polynomials the key keeps alive, the mask's array header, its dict entries
# (tracemalloc reads about 800 for a quadratic 2-variable conjunct).  Charged
# so that nodes with empty masks are bounded too.
_NODE_BYTES = 1024
_EMPTY = np.zeros(0, dtype=np.uint8)  # the packed mask with no point left


class _Node:
    __slots__ = ("parent", "key", "window", "mask", "children")

    def __init__(self, parent: Optional["_Node"], key, window: Optional[tuple],
                 mask: Optional[np.ndarray]) -> None:
        self.parent = parent  # None once evicted
        self.key = key
        self.window = window  # (row, col, height, width) bounding the points left
        self.mask = mask  # np.packbits of the window's points left, _EMPTY, or None for all
        self.children: dict = {}

    def nbytes(self) -> int:
        return _NODE_BYTES + (0 if self.mask is None else self.mask.nbytes)


class _PrefixTrie:
    """Grid masks of assertion prefixes, one trie edge per conjunct.

    The first level is keyed by a request's variables (names, order and
    bounds) and the resolution, each level below by one conjunct's
    :meth:`Comparison.key`.  A node holds the bounding window of the grid
    points that satisfy the conjuncts on its path and the bit-packed mask of
    those points within that window.  The stored bytes stay
    under ``cap``: the least recently used node goes first.  A walk marks
    each node used before its ancestors, so that node is a leaf, unless one
    path alone fills the cap; then the path stops growing.  The methods hold
    the lock; computing and packing masks is the caller's.  A copy starts
    empty.
    """

    def __init__(self, cap: int = _PREFIX_BYTES) -> None:
        self.cap = cap
        self.nbytes = 0
        self._top = _Node(None, None, None, None)
        self._used: OrderedDict[_Node, None] = OrderedDict()  # least recent first
        self._lock = threading.Lock()

    def __reduce__(self):
        return _PrefixTrie, (self.cap,)

    def walk(self, root, keys) -> list[_Node]:
        """The path to the longest cached prefix of ``keys`` under ``root``:
        the root's node, then one node per cached conjunct, ending early at
        an empty mask."""
        with self._lock:
            node = self._top.children.get(root)
            if node is None:
                node = self._add(self._top, root, None, None)
            path = [node]
            for key in keys:
                node = node.children.get(key)
                if node is None:
                    break
                path.append(node)
                if node.mask is _EMPTY:
                    break
            self._touch(path)
            return path

    def extend(self, path: list[_Node], key, window: Optional[tuple],
               mask: np.ndarray) -> None:
        """Store ``window`` and ``mask`` under ``path[-1]`` along ``key`` and
        append their node to ``path``; nothing is stored below a node evicted
        meanwhile."""
        with self._lock:
            parent = path[-1]
            if parent.parent is None:
                return
            node = parent.children.get(key)
            path.append(node if node is not None else self._add(parent, key, window, mask))

    def touch(self, path: list[_Node]) -> None:
        with self._lock:
            self._touch(path)

    def _touch(self, path: list[_Node]) -> None:
        for node in reversed(path):  # ancestors end up more recent
            if node.parent is not None:
                self._used.move_to_end(node)

    def _add(self, parent: _Node, key, window: Optional[tuple],
             mask: Optional[np.ndarray]) -> _Node:
        node = _Node(parent, key, window, mask)
        parent.children[key] = node
        self._used[node] = None
        self.nbytes += node.nbytes()
        while self.nbytes > self.cap:
            oldest = next(iter(self._used))
            # the oldest node has children only while it lies on a path
            # being extended: keep that path's prefix, drop the new node
            self._evict(node if oldest.children else oldest)
        return node

    def _evict(self, leaf: _Node) -> None:
        del leaf.parent.children[leaf.key]
        leaf.parent = None
        del self._used[leaf]
        self.nbytes -= leaf.nbytes()


def _dense(cmp: Comparison, names: Sequence[str], magnitudes: Sequence[float]):
    """``(C, bound, terms)`` for one conjunct over two variables.

    ``C[i, j]`` is the coefficient of ``a**i * b**j`` in ``p`` for ``names =
    (a, b)``; ``bound`` is the sum of ``|c| * |a|**i * |b|**j`` over its
    monomials at ``magnitudes``, and ``terms`` counts them.
    """
    degrees = [(m.count(names[0]), len(m) - m.count(names[0])) for m in cmp.p.monomials]
    coeffs = np.zeros((1 + max((i for i, _ in degrees), default=0),
                       1 + max((j for _, j in degrees), default=0)))
    bound = 0.0
    for (i, j), coeff in zip(degrees, cmp.p.coeffs):
        coeffs[i, j] = coeff
        bound += abs(coeff) * magnitudes[0] ** i * magnitudes[1] ** j
    return coeffs, bound, len(degrees)


class _Axis:
    """The points of one grid axis, their largest magnitude and their powers
    up to degree 2 (what forward builds), fixed when it is made and read-only."""

    __slots__ = ("points", "magnitude", "columns", "rows")

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.magnitude = float(np.abs(points).max())
        self.columns = np.vander(points, 3, increasing=True)
        self.rows = np.ascontiguousarray(self.columns.T)
        for array in (points, self.columns, self.rows):
            array.flags.writeable = False

    def powers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(V, W)`` with ``V[:, k] = W[k] = points ** k`` for ``k < count``;
        ``W`` is C-contiguous.  Past degree 2 they are computed per call."""
        if count > 3:
            columns = np.vander(self.points, count, increasing=True)
            return columns, np.ascontiguousarray(columns.T)
        return self.columns[:, :count], self.rows[:count]


@functools.lru_cache(maxsize=32)
def _grid_axis(lo: float, hi: float, resolution: int) -> _Axis:
    """The ``resolution + 1`` points of :func:`~attnconcolic.smt._grid_point`."""
    return _Axis(np.array([_grid_point(lo, hi, resolution, k) for k in range(resolution + 1)]))


def _holds(cmp: Comparison, names: Sequence[str], axes: Sequence[_Axis],
           window: tuple) -> np.ndarray:
    """Where ``cmp`` holds on the ``window`` ``(row, col, height, width)`` of
    the grid: one kernel pass, its points near a tie re-checked by evaluate."""
    # the magnitudes of the whole axes bound those of any window
    coeffs, bound, terms = _dense(cmp, names, [axis.magnitude for axis in axes])
    rows, cols = coeffs.shape
    r0, c0, height, width = window
    diff = ((axes[0].powers(rows)[0][r0:r0 + height] @ coeffs)
            @ axes[1].powers(cols)[1][:, c0:c0 + width])
    tol = _tie_band(bound, terms, rows, cols)
    relation = _REL_APPLY[cmp.rel]
    holds = relation(diff, 0.0)
    np.abs(diff, out=diff)
    if not diff.min() > tol:  # some point is within tol of a tie, or NaN
        near_rows, near_cols = np.nonzero(~(diff > tol))
        points = dict(zip(names, (axes[0].points[r0 + near_rows],
                                  axes[1].points[c0 + near_cols])))
        holds[near_rows, near_cols] = relation(evaluate(cmp.p, points), 0.0)
    return holds


def _bounded(window: tuple, ok: np.ndarray):
    """``(window, ok)`` cut to the bounding box of the points left in ``ok``,
    or ``(None, None)`` when none is."""
    rows = np.flatnonzero(ok.any(axis=1))
    if not rows.size:
        return None, None
    top, bottom = int(rows[0]), int(rows[-1]) + 1
    ok = ok[top:bottom]
    cols = np.flatnonzero(ok.any(axis=0))
    left, right = int(cols[0]), int(cols[-1]) + 1
    return (window[0] + top, window[1] + left, bottom - top, right - left), ok[:, left:right]


def _check_resolution(resolution) -> None:
    """SolverError unless ``resolution`` is an integer >= 0."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise SolverError(f"grid resolution {resolution!r} is not an integer >= 0")


def grid_oracle(request: SolverRequest, resolution: int = 1024,
                prefixes: Optional[_PrefixTrie] = None) -> SolverVerdict:
    """Evaluate the assertion on a uniform grid over the variable bounds.

    Returns sat with the first satisfying grid point (lexicographic scan), or
    unknown when no grid point satisfies: absence at a finite resolution is
    not an unsatisfiability proof.  A request that :func:`_clip`, run first,
    clips to nothing (an empty box, or none of it left by the conjuncts of
    degree at most 2 for one variable, by the affine ones for two) is unsat,
    before any prefix is looked up or any grid point evaluated.  A request
    without variables is sat when its ground conjuncts hold and unknown
    otherwise.

    One variable runs no kernel and reads no trie: the clip's intervals hold
    every point that can satisfy the request, and
    :func:`~attnconcolic.smt._line_search` tries the grid points in them,
    ascending, in plain Python.

    For two, each conjunct's coefficients are read off its polynomial and
    evaluated as ``(V_a @ C) @ V_b.T`` on the window of the grid that bounds
    the points the conjuncts before it left: the whole grid for the first,
    then after each conjunct the bounding box of its survivors.  The axes'
    power columns are cached per ``(lo, hi, resolution)``.  Where the value
    lies within the float error bound of a tie, the conjunct is re-evaluated
    with :func:`~attnconcolic.symexpr.evaluate`, so the satisfying set is
    exactly evaluate's.  The points left in the window go, in row-major
    order, the grid's own, to :func:`~attnconcolic.smt._first_satisfying`,
    which checks each once more with :meth:`Comparison.holds_at`, so the
    witness is the whole grid's first.

    The window and mask of the longest prefix of the assertion checked
    before under the same variables and resolution are read from the trie
    ``prefixes`` (a :class:`GridOracle`'s own, else a fresh one), only the
    remaining conjuncts are evaluated, and the window and mask after each
    are stored.  The final mask is the intersection of the conjuncts'
    satisfying sets, so the verdict and the witness do not depend on what
    the trie held.  SolverError unless ``resolution`` is an integer >= 0.
    """
    _check_resolution(resolution)
    if len(request.variables) > 2:
        raise SolverError("grid oracle supports at most 2 variables")
    clip = _clip(request)
    if not clip:
        return SolverVerdict(UNSAT)
    if len(request.variables) <= 1:
        return _line_search(request, clip, (resolution,))
    return _scan(request, resolution, _PrefixTrie() if prefixes is None else prefixes)


def _scan(request: SolverRequest, resolution: int, prefixes: _PrefixTrie) -> SolverVerdict:
    """The grid part of :func:`grid_oracle`, for a request with two
    variables and a box that is not empty: sat or unknown, reading and
    storing prefix masks in ``prefixes``."""
    names = [name for name, _, _ in request.variables]
    axes = [_grid_axis(lo, hi, resolution) for _, lo, hi in request.variables]
    path = prefixes.walk((request.variables, resolution),
                         (cmp.key() for cmp in request.assertion))
    cached = path[-1]
    if cached.mask is _EMPTY:
        return SolverVerdict(UNKNOWN)
    window = (0, 0, axes[0].points.size, axes[1].points.size)
    ok = None  # the points left in the window; None for all of them
    if cached.mask is not None:
        window = cached.window
        ok = np.unpackbits(cached.mask, count=window[2] * window[3]).view(bool)
        ok = ok.reshape(window[2:])
    with np.errstate(all="ignore"):
        for cmp in request.assertion[len(path) - 1:]:
            holds = _holds(cmp, names, axes, window)
            window, ok = _bounded(window, holds if ok is None else holds & ok)
            prefixes.extend(path, cmp.key(), window,
                            _EMPTY if window is None else np.packbits(ok))
            if window is None:
                break
    prefixes.touch(path)
    if window is None:
        return SolverVerdict(UNKNOWN)
    r0, c0, _, width = window
    hits = range(window[2] * width) if ok is None else np.flatnonzero(ok)
    return _first_satisfying(request, (
        (float(axes[0].points[r0 + hit // width]), float(axes[1].points[c0 + hit % width]))
        for hit in map(int, hits)))


@dataclass(frozen=True)
class GridOracle:
    """Backend wrapper so the grid oracle can stand in for a solver.

    For two variables it keeps the windows and masks of the assertion
    prefixes it has checked in a trie whose stored bytes stay under
    ``_PREFIX_BYTES`` (512 kB), so a request that extends a checked prefix
    evaluates only its new conjuncts, each on the window its prefix left;
    verdicts and witnesses are those of a check from an empty trie.  A
    request of one variable stores nothing: it tries the grid points in its
    clip.  Any number of threads may share one oracle.  SolverError at
    construction unless ``resolution`` is an integer >= 0.
    """

    resolution: int = 1024
    _prefixes: _PrefixTrie = field(default_factory=_PrefixTrie, init=False,
                                   compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)

    def check(self, request: SolverRequest) -> SolverVerdict:
        return grid_oracle(request, self.resolution, self._prefixes)


Backend = Union[ExternalSolver, GridOracle]


# ---------------------------------------------------------------------------
# Verification of returned assignments
# ---------------------------------------------------------------------------


def assignment_satisfies(request: SolverRequest, assignment: dict[str, float],
                         slack: float = 1e-9) -> bool:
    """Direct evaluation of the original assertion at the assignment: strict
    relations exactly, non-strict ones also where ``|p| <= slack``."""
    for name, lo, hi in request.variables:
        value = assignment.get(name)
        if value is None or not (lo - slack <= value <= hi + slack):
            return False
    for cmp in request.assertion:
        value = evaluate(cmp.p, assignment)
        if not (_REL_APPLY[cmp.rel](value, 0.0)
                or (cmp.rel in (Rel.LE, Rel.GE, Rel.EQ) and abs(value) <= slack)):
            return False
    return True
