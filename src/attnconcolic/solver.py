"""SMT-LIB2 emission, solver subprocess management, model parsing, and a
grid oracle over polynomial constraints.

The engine never links a solver library: the external backend keeps one
live child process per thread running a configurable solver command, writes
each request to it as an SMT-LIB2 script over quantifier-free nonlinear
reals, and parses sat/unsat/unknown plus a model from its standard output.
Both backends read each comparison off the polynomials its sides carry.  The
grid oracle is an in-process fallback used for testing and small-instance
verification; its "no point found" answer is reported as unknown, never as a
proof of unsatisfiability.
"""

from __future__ import annotations

import functools
import os
import re
import select
import shlex
import subprocess
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .symexpr import _REL_APPLY, Comparison, Rel, SymExpr, evaluate

__all__ = [
    "ExternalSolver",
    "GridOracle",
    "SolverError",
    "SolverRequest",
    "SolverVerdict",
    "assignment_satisfies",
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
        free = {name for cmp in self.assertion for side in (cmp.lhs, cmp.rhs)
                for monomial in side.monomials for name in monomial}
        missing = free - declared
        if missing:
            raise SolverError(f"assertion uses undeclared variables: {sorted(missing)}")


@dataclass(frozen=True)
class SolverVerdict:
    status: str
    assignment: Optional[dict[str, float]] = None
    transcript: str = ""


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


def _render_side(expr: SymExpr) -> str:
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
    variables with their bounds, then each comparison between its sides'
    polynomials."""
    lines = ["(set-logic QF_NRA)"]
    for name, lo, hi in request.variables:
        lines.append(f"(declare-const {name} Real)")
        lines.append(f"(assert (>= {name} {_render_decimal(lo)}))")
        lines.append(f"(assert (<= {name} {_render_decimal(hi)}))")
    for cmp in request.assertion:
        lhs, rhs = _render_side(cmp.lhs), _render_side(cmp.rhs)
        if cmp.rel is Rel.NE:
            lines.append(f"(assert (not (= {lhs} {rhs})))")
        else:
            lines.append(f"(assert ({cmp.rel.value} {lhs} {rhs}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


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


def _parse_into(tokens: list[str], stack: list[list], forms: list) -> None:
    """Parse ``tokens`` onto the forms open in ``stack``, appending those
    they complete to ``forms``; SolverError at an excess ``)``."""
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise SolverError("unbalanced parentheses")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            (stack[-1] if stack else forms).append(token)


def _parse_sexprs(tokens: list[str]):
    forms: list = []
    stack: list[list] = []
    _parse_into(tokens, stack, forms)
    if stack:
        raise SolverError("unbalanced parentheses")
    return forms


def _forms(lines: Iterable[str]) -> Iterator[tuple[str, list]]:
    """Yield ``(text, forms)`` each time the lines read so far close every
    ``(`` outside literals: their text and the forms they complete (none for
    blank and comment lines), reading no line further.  Each line is
    tokenized once, with the literal left open at the end of the one before.
    SolverError at an excess ``)``, and at the end within a form."""
    text: list[str] = []
    forms: list = []
    stack: list[list] = []
    carry = ""  # a literal left open
    for line in lines:
        text.append(line)
        tokens = _tokenize(carry + line)
        carry = ""
        if tokens and tokens[-1][0] in '"|' and not _CLOSED_LITERAL.fullmatch(tokens[-1]):
            carry = tokens.pop()
        _parse_into(tokens, stack, forms)
        if not stack and not carry:
            yield "".join(text), forms
            text, forms = [], []
    if stack or carry:
        raise SolverError("unbalanced parentheses")


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


def _wait(fd: int, event: int, deadline: float) -> None:
    """Block until ``fd`` is ready for ``event``; TimeoutError at ``deadline``."""
    poller = select.poll()
    poller.register(fd, event)
    if not poller.poll(max(0.0, deadline - time.monotonic()) * 1e3):
        raise TimeoutError


class _Session:
    """One live solver child.  Requests go to its stdin, replies are read
    from its stdout by a deadline, and its stderr collects in a file for the
    transcript."""

    def __init__(self, argv: list[str]) -> None:
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=self.stderr)
        except OSError:
            self.stderr.close()
            raise
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.buffer = b""
        self.lines: list[str] = []  # stdout lines read for the current request
        # after unsat or unknown, a solver may reply to the (get-model) that
        # followed, before the next answer: z3 prints an error, the refsolver
        # nothing
        self.owes_reply = False

    def send(self, text: str, deadline: float) -> None:
        data = memoryview(text.encode())
        fd = self.proc.stdin.fileno()
        while data:
            _wait(fd, select.POLLOUT, deadline)
            data = data[os.write(fd, data):]

    def readline(self, deadline: float) -> Optional[str]:
        """The next stdout line without its newline, or None at end of file."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            _wait(fd, select.POLLIN, deadline)
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
    before it answers times out.  Each request is sent as ``(reset)``
    followed by :func:`emit_smtlib`, and the answer, then after ``sat`` the
    model, is read as forms framed by :func:`_forms` by the request's
    deadline.  A timeout kills the child, and so does a ``solver_error``
    (end of output before an answer, an ``(error ...)`` reply, a broken
    pipe, a reply that does not parse, an unusable model); the next check
    starts a fresh one.  Starting a child closes those of threads that have
    ended; the others end when the backend is garbage-collected or the
    interpreter exits.  A pickled copy starts with no child.
    """

    command: Union[str, Sequence[str]]
    default_timeout_s: float = 60.0
    # (pid, thread ident) -> _Session; a thread writes only its own key and
    # removes only those of ended threads
    _sessions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        weakref.finalize(self, _close_sessions, self._sessions)

    def __reduce__(self):
        return ExternalSolver, (self.command, self.default_timeout_s)

    def argv(self) -> list[str]:
        if isinstance(self.command, str):
            return shlex.split(self.command)
        return list(self.command)

    def check(self, request: SolverRequest) -> SolverVerdict:
        script = emit_smtlib(request)
        timeout = request.timeout_s if request.timeout_s is not None else self.default_timeout_s
        deadline = time.monotonic() + timeout
        key = (os.getpid(), threading.get_ident())
        if key not in self._sessions:
            # the children of threads that have ended would idle until the
            # backend is dropped
            _close_sessions(self._sessions, {t.ident for t in threading.enumerate()})
            try:
                self._sessions[key] = _Session(self.argv())
            except OSError as exc:
                raise SolverError(f"cannot run solver command {self.argv()!r}: {exc}") from exc
        session = self._sessions[key]
        session.lines = []
        answer = assignment = None
        try:
            session.send("(reset)\n" + script, deadline)
            stale = session.owes_reply
            replies = session.forms(deadline)
            for form in replies:
                if isinstance(form, list) and form[:1] == ["error"] and not stale:
                    break
                if form in (SAT, UNSAT, UNKNOWN):  # other output is skipped
                    answer = form
                    break
                stale = False
            if answer == SAT and (model := next(replies, None)) is not None:
                names = [name for name, _, _ in request.variables]
                assignment = _extract_assignment([model], names)
        except TimeoutError:
            del self._sessions[key]
            session.close()
            return SolverVerdict(TIMEOUT)
        except (OSError, SolverError):  # the child no longer reads its stdin, or
            pass  # its reply does not parse
        except BaseException:  # an interrupt leaves the child's replies out of step
            del self._sessions[key]
            session.close()
            raise
        transcript = "\n".join(session.lines)
        session.owes_reply = answer in (UNSAT, UNKNOWN)
        if session.owes_reply:
            return SolverVerdict(answer, transcript=transcript)
        if assignment is not None:
            return SolverVerdict(SAT, assignment, transcript)
        del self._sessions[key]
        return SolverVerdict(SOLVER_ERROR, transcript=session.close())


_UNIT_ROUNDOFF = 2.0 ** -53

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
    """``(C, bound, terms)`` for one conjunct over at most two variables.

    ``C[i, j]`` is the coefficient of ``a**i * b**j`` in ``lhs - rhs`` for
    ``names = (a, b)``; ``bound`` is the sum of ``|c| * |a|**i * |b|**j`` over
    both sides' monomials at ``magnitudes``, and ``terms`` counts them.
    """
    cells = []
    bound = 0.0
    for side, sign in ((cmp.lhs, 1.0), (cmp.rhs, -1.0)):
        for monomial, coeff in zip(side.monomials, side.coeffs):
            i = monomial.count(names[0])
            j = len(monomial) - i
            cells.append((i, j, sign * coeff))
            bound += abs(coeff) * magnitudes[0] ** i * magnitudes[1] ** j
    coeffs = np.zeros((1 + max((i for i, _, _ in cells), default=0),
                       1 + max((j for _, j, _ in cells), default=0)))
    for i, j, coeff in cells:
        coeffs[i, j] += coeff
    return coeffs, bound, len(cells)


class _Axis:
    """The points of one grid axis, their largest magnitude and their powers,
    all read-only."""

    __slots__ = ("points", "magnitude", "_powers")

    def __init__(self, points: np.ndarray) -> None:
        points.flags.writeable = False
        self.points = points
        self.magnitude = float(np.abs(points).max())
        self._powers = (np.empty((points.size, 0)), np.empty((0, points.size)))

    def powers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(V, W)`` with ``V[:, k] = W[k] = points ** k`` for ``k < count``;
        ``W`` is C-contiguous.  The columns grow to the highest count asked
        for, at least 3: degree 2 covers what forward builds."""
        powers = self._powers
        if powers[0].shape[1] < count:  # a racing thread may store fewer; each slices its own
            columns = np.vander(self.points, max(count, 3), increasing=True)
            powers = self._powers = (columns, np.ascontiguousarray(columns.T))
            for array in powers:
                array.flags.writeable = False
        return powers[0][:, :count], powers[1][:count]


@functools.lru_cache(maxsize=32)
def _grid_axis(lo: float, hi: float, resolution: int) -> _Axis:
    """``resolution + 1`` evenly spaced points from ``lo`` to about ``hi``;
    resolution 0 is the one point ``lo``."""
    steps = np.arange(resolution + 1, dtype=float) / max(resolution, 1)
    return _Axis(lo + (hi - lo) * steps)


def _holds(cmp: Comparison, names: Sequence[str], axes: Sequence[_Axis],
           window: tuple, ok: Optional[np.ndarray]) -> np.ndarray:
    """Where ``cmp`` holds on the ``window`` ``(row, col, height, width)`` of
    the grid: one kernel pass, with the points of ``ok`` (None for all of
    the window) near a tie re-checked by evaluate."""
    # the magnitudes of the whole axes bound those of any window
    coeffs, bound, terms = _dense(cmp, names, [axis.magnitude for axis in axes])
    rows, cols = coeffs.shape
    r0, c0, height, width = window
    diff = ((axes[0].powers(rows)[0][r0:r0 + height] @ coeffs)
            @ axes[1].powers(cols)[1][:, c0:c0 + width])
    # In normal-range floats, evaluate rounds each side at most degree +
    # terms times, and the kernel at most 2 * (rows + cols) times (powers,
    # the coefficient difference, the two products); each error stays under
    # gamma(rounds) * bound.  The factor 3 covers both errors and the
    # rounding of the bound itself.
    rounds = terms + 3 * (rows + cols)
    gamma = rounds * _UNIT_ROUNDOFF / (1.0 - rounds * _UNIT_ROUNDOFF)
    tol = 3.0 * gamma * bound
    relation = _REL_APPLY[cmp.rel]
    holds = relation(diff, 0.0)
    np.abs(diff, out=diff)
    if not diff.min() > tol:  # some point is within tol of a tie, or NaN
        near = ~(diff > tol)
        if ok is not None:
            near &= ok
        near_rows, near_cols = np.nonzero(near)
        points = dict(zip(names, (axes[0].points[r0 + near_rows],
                                  axes[1].points[c0 + near_cols])))
        holds[near_rows, near_cols] = relation(evaluate(cmp.lhs, points),
                                               evaluate(cmp.rhs, points))
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


def grid_oracle(request: SolverRequest, resolution: int = 1024,
                prefixes: Optional[_PrefixTrie] = None) -> SolverVerdict:
    """Evaluate the assertion on a uniform grid over the variable bounds.

    Returns sat with the first satisfying grid point (lexicographic scan), or
    unknown when no grid point satisfies: absence at a finite resolution is
    not an unsatisfiability proof.  A request without variables is sat when
    its ground conjuncts hold and unknown otherwise.

    Each conjunct's coefficients are read off its sides' polynomials and
    evaluated as ``(V_a @ C) @ V_b.T`` on the window of the grid that bounds
    the points the conjuncts before it left: the whole grid for the first,
    then after each conjunct the bounding box of its survivors.  The axes'
    power columns are cached per ``(lo, hi, resolution)``.  Where the value
    lies within the float error bound of a tie, the conjunct is re-evaluated
    with :func:`~attnconcolic.symexpr.evaluate`, so the satisfying set is
    exactly evaluate's, and a sat point is checked once more with
    :meth:`Comparison.holds_at` before it is returned.  The window is scanned
    in row-major order, the grid's own, so the witness is the whole grid's
    first.

    With ``prefixes`` (a :class:`GridOracle` passes its own), the window and
    mask of the longest prefix of the assertion checked before under the same
    variables and resolution are read from that trie, only the remaining
    conjuncts are evaluated, and the window and mask after each of them are
    stored.  Either way the final mask is the intersection of the conjuncts'
    satisfying sets, so the verdict and the witness are those of an uncached
    check.
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
        axes.append(_grid_axis(0.0, 0.0, 0))  # a one-point second axis: C has one column
    window = (0, 0, axes[0].points.size, axes[1].points.size)
    ok = None  # the points left in the window; None for all of them
    path, depth = None, 0
    if prefixes is not None:
        path = prefixes.walk((request.variables, resolution),
                             (cmp.key() for cmp in request.assertion))
        depth, cached = len(path) - 1, path[-1]
        if cached.mask is _EMPTY:
            return SolverVerdict(UNKNOWN)
        if cached.mask is not None:
            window = cached.window
            ok = np.unpackbits(cached.mask, count=window[2] * window[3]).view(bool)
            ok = ok.reshape(window[2:])
    with np.errstate(all="ignore"):
        for cmp in request.assertion[depth:]:
            holds = _holds(cmp, names, axes, window, ok)
            window, ok = _bounded(window, holds if ok is None else holds & ok)
            if path is not None:
                prefixes.extend(path, cmp.key(), window,
                                _EMPTY if window is None else np.packbits(ok))
            if window is None:
                break
    if path is not None:
        prefixes.touch(path)
    if window is None:
        return SolverVerdict(UNKNOWN)
    r0, c0, _, width = window
    for hit in (range(window[2] * width) if ok is None else np.flatnonzero(ok)):
        row, col = divmod(int(hit), width)
        assignment = dict(zip(names, (float(axes[0].points[r0 + row]),
                                      float(axes[1].points[c0 + col]))))
        if all(cmp.holds_at(assignment) for cmp in request.assertion):
            return SolverVerdict(SAT, assignment=assignment)
    return SolverVerdict(UNKNOWN)


@dataclass(frozen=True)
class GridOracle:
    """Backend wrapper so the grid oracle can stand in for a solver.

    It keeps the windows and masks of the assertion prefixes it has checked
    in a trie whose stored bytes stay under ``_PREFIX_BYTES`` (512 kB), so a
    request that extends a checked prefix evaluates only its new conjuncts,
    each on the window its prefix left; verdicts and witnesses are those of
    :func:`grid_oracle` without the trie.  Any number of threads may share
    one oracle.
    """

    resolution: int = 1024
    _prefixes: _PrefixTrie = field(default_factory=_PrefixTrie, init=False,
                                   compare=False, repr=False)

    def check(self, request: SolverRequest) -> SolverVerdict:
        return grid_oracle(request, self.resolution, self._prefixes)


Backend = Union[ExternalSolver, GridOracle]


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
    for cmp in request.assertion:
        lhs = evaluate(cmp.lhs, assignment)
        rhs = evaluate(cmp.rhs, assignment)
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
