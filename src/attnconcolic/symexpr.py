"""Symbolic expressions as exact polynomials, concolic scalars, and
branch-event recording.

A cell of an instrumented model reads out as a :class:`ConcolicScalar`:
a concrete float paired with an optional symbolic expression over declared
input variables.  An expression is immutable and constant-folded at
construction, and it carries its polynomial: float coefficients per monomial,
of any degree and over any number of variables.  The polynomial is the
expression's meaning; equality, hashing and :func:`evaluate` go by it.  A
node made by the arithmetic builders also keeps its operator and operands, for
:func:`to_infix`; a forward's guards are polynomial leaves, each recorded as
``p relop 0`` with the output neurons it affects.

``_OPS`` is the one table of the four operators, by their SMT-LIB symbols
``+ - * /``: it folds two constants, computes :func:`arith`'s concrete
parts, and names the heads the refsolver reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Union

Number = Union[int, float]

__all__ = [
    "AssociationScopeError",
    "BranchEvent",
    "Comparison",
    "ConcolicArithmeticError",
    "ConcolicScalar",
    "DeclarationError",
    "ExecutionContext",
    "NeuronId",
    "Rel",
    "SymExpr",
    "arith",
    "as_scalar",
    "const",
    "evaluate",
    "neg",
    "polynomial",
    "to_infix",
    "var",
]


class DeclarationError(ValueError):
    """An input variable name was declared twice in one execution context."""


class ConcolicArithmeticError(ArithmeticError):
    """Invalid arithmetic (division by zero or by a symbolic expression),
    with the offending term."""

    def __init__(self, message: str, expression: Optional["SymExpr"] = None) -> None:
        super().__init__(message)
        self.expression = expression


class AssociationScopeError(RuntimeError):
    """A guard was recorded with no associated output neuron."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

Monomial = tuple[str, ...]  # variable names in sorted order, repeated by power

_CONSTANT_TERM: tuple[Monomial, ...] = ((),)


class SymExpr:
    """One expression node and its polynomial.

    ``monomials`` holds the monomials with a non-zero coefficient in sorted
    (canonical) order and ``coeffs`` their coefficients; the zero polynomial
    has none.  ``kind`` is one of ``"const"``, ``"var"``, ``"poly"`` (the
    leaves), ``"neg"`` or an operator of :data:`_OPS`, and ``args`` holds the
    operands; a constant's value and a variable's name are read off the
    polynomial.  Leaves are made by :func:`const`, :func:`var`,
    :func:`polynomial` and ``_leaf`` (the forward's guards), inner nodes by
    the binary builders and :func:`neg`.
    """

    __slots__ = ("kind", "args", "monomials", "coeffs", "__weakref__")

    kind: str
    args: tuple["SymExpr", ...]
    monomials: tuple[Monomial, ...]
    coeffs: tuple[float, ...]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymExpr({to_infix(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self.monomials == other.monomials and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.monomials, self.coeffs))


def _make(kind: str, args: tuple[SymExpr, ...], monomials: tuple[Monomial, ...],
          coeffs: tuple[float, ...]) -> SymExpr:
    node = SymExpr.__new__(SymExpr)
    node.kind = kind
    node.args = args
    node.monomials = monomials
    node.coeffs = coeffs
    return node


def _canonical(terms: dict[Monomial, float]) -> tuple[tuple[Monomial, ...], tuple[float, ...]]:
    """The sorted monomials with a non-zero coefficient, and those coefficients."""
    monomials = sorted(terms)
    coeffs = [terms[m] for m in monomials]
    if 0.0 in coeffs:
        monomials = [m for m in monomials if terms[m] != 0.0]
        coeffs = [c for c in coeffs if c != 0.0]
    return tuple(monomials), tuple(coeffs)


def _scaled(e: SymExpr, k: float):
    coeffs = [c * k for c in e.coeffs]
    if 0.0 in coeffs:  # underflow
        return _canonical(dict(zip(e.monomials, coeffs)))
    return e.monomials, tuple(coeffs)


def _plus(a: SymExpr, b: SymExpr, sign: float):
    """The polynomial of ``a + sign * b``."""
    terms = dict(zip(a.monomials, a.coeffs))
    for m, c in zip(b.monomials, b.coeffs):
        terms[m] = terms.get(m, 0.0) + sign * c
    return _canonical(terms)


def _times(a: SymExpr, b: SymExpr):
    if b.monomials == _CONSTANT_TERM:
        return _scaled(a, b.coeffs[0])
    if a.monomials == _CONSTANT_TERM:
        return _scaled(b, a.coeffs[0])
    terms: dict[Monomial, float] = {}
    for ma, ca in zip(a.monomials, a.coeffs):
        for mb, cb in zip(b.monomials, b.coeffs):
            m = tuple(sorted(ma + mb))
            terms[m] = terms.get(m, 0.0) + ca * cb
    return _canonical(terms)


def const(value: Number) -> SymExpr:
    v = float(value)
    if v == 0.0:
        return _make("const", (), (), ())  # -0.0 collapses to 0.0
    return _make("const", (), _CONSTANT_TERM, (v,))


def var(name: str) -> SymExpr:
    return _make("var", (), ((name,),), (1.0,))


def polynomial(terms: Iterable[tuple[Monomial, float]]) -> SymExpr:
    """A leaf holding the sum of ``coeff * monomial`` over ``(monomial,
    coeff)`` pairs; a repeated monomial's coefficients add up, in order, and
    zero coefficients drop out."""
    acc: dict[Monomial, float] = {}
    for monomial, coeff in terms:
        if coeff:
            acc[monomial] = acc.get(monomial, 0.0) + coeff
    return _leaf(*_canonical(acc))


def _leaf(monomials: tuple[Monomial, ...], coeffs: tuple[float, ...]) -> SymExpr:
    """The leaf of sorted distinct monomials with non-zero coefficients."""
    return _make("poly", (), monomials, coeffs)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _bin(op: str, a: SymExpr, b: SymExpr) -> SymExpr:
    """The node ``a op b`` for an ``op`` of :data:`_OPS`, folded to a constant
    when both sides are constants."""
    a_value = (a.coeffs or (0.0,))[0] if a.kind == "const" else None
    b_value = (b.coeffs or (0.0,))[0] if b.kind == "const" else None
    if a_value is not None and b_value is not None:
        if op == "/" and b_value == 0.0:
            raise ConcolicArithmeticError("division by zero constant", b)
        return const(_OPS[op](a_value, b_value))
    if op == "+":
        if a_value == 0.0:
            return b
        if b_value == 0.0:
            return a
        monomials, coeffs = _plus(a, b, 1.0)
    elif op == "-":
        if b_value == 0.0:
            return a
        monomials, coeffs = _plus(a, b, -1.0)
    elif op == "*":
        if a_value == 0.0 or b_value == 0.0:
            return const(0.0)
        if a_value == 1.0:
            return b
        if b_value == 1.0:
            return a
        monomials, coeffs = _times(a, b)
    else:
        if b.monomials not in ((), _CONSTANT_TERM):
            raise ConcolicArithmeticError("division by a symbolic expression", b)
        if not b.coeffs:
            raise ConcolicArithmeticError("division by zero constant", a)
        if b_value == 1.0:
            return a
        divisor = b.coeffs[0]
        monomials, coeffs = _canonical({m: c / divisor
                                        for m, c in zip(a.monomials, a.coeffs)})
    return _make(op, (a, b), monomials, coeffs)


def add(a: SymExpr, b: SymExpr) -> SymExpr:
    return _bin("+", a, b)


def sub(a: SymExpr, b: SymExpr) -> SymExpr:
    return _bin("-", a, b)


def mul(a: SymExpr, b: SymExpr) -> SymExpr:
    return _bin("*", a, b)


def div(a: SymExpr, b: SymExpr) -> SymExpr:
    """``a / b`` for a divisor whose polynomial is a non-zero constant; any
    other divisor raises :class:`ConcolicArithmeticError`."""
    return _bin("/", a, b)


def neg(a: SymExpr) -> SymExpr:
    if a.kind == "const":
        return const(-a.coeffs[0]) if a.coeffs else a
    return _make("neg", (a,), a.monomials, tuple([-c for c in a.coeffs]))


def evaluate(expr: SymExpr, assignment: Mapping[str, object]):
    """The sum of the polynomial's monomials at an assignment of the input
    variables, in canonical order.  Values may be floats or numpy arrays."""
    total = 0.0
    for monomial, coeff in zip(expr.monomials, expr.coeffs):
        term = coeff
        for name in monomial:
            try:
                term = term * assignment[name]
            except KeyError:
                raise KeyError(f"no value for input variable {name!r}") from None
        total = total + term
    return total


def to_infix(expr: SymExpr) -> str:
    """Parenthesized infix text of how ``expr`` was built: variables by name,
    constants in shortest round-trip decimal, a polynomial leaf as the sum of
    its monomials.  Intended for logs and golden tests."""
    memo: dict[int, str] = {}
    stack: list[tuple[SymExpr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if node.kind == "const":
            memo[id(node)] = repr(node.coeffs[0] if node.coeffs else 0.0)
        elif node.kind == "var":
            memo[id(node)] = node.monomials[0][0]
        elif node.kind == "poly":
            terms = [" * ".join([repr(c), *m]) for m, c in zip(node.monomials, node.coeffs)]
            memo[id(node)] = f"({' + '.join(terms or ['0.0'])})"
        elif not ready:
            stack.append((node, True))
            for child in node.args:
                stack.append((child, False))
        elif node.kind == "neg":
            memo[id(node)] = f"(-{memo[id(node.args[0])]})"
        else:
            a = memo[id(node.args[0])]
            b = memo[id(node.args[1])]
            memo[id(node)] = f"({a} {node.kind} {b})"
    return memo[id(expr)]


# ---------------------------------------------------------------------------
# Concolic scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcolicScalar:
    """A concrete float with an optional symbolic expression.

    An absent symbolic part means the value is a plain real; it behaves
    identically to a float under all operations.
    """

    concrete: float
    sym: Optional[SymExpr] = None

    def expr(self) -> SymExpr:
        """The symbolic part, substituting the concrete value when absent."""
        return self.sym if self.sym is not None else const(self.concrete)

    def __add__(self, other):
        return arith("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return arith("sub", self, other)

    def __rsub__(self, other):
        return arith("sub", as_scalar(other), self)

    def __mul__(self, other):
        return arith("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return arith("div", self, other)

    def __rtruediv__(self, other):
        return arith("div", as_scalar(other), self)

    def __neg__(self):
        return arith("neg", self)


def as_scalar(x: Union[ConcolicScalar, Number]) -> ConcolicScalar:
    if isinstance(x, ConcolicScalar):
        return x
    return ConcolicScalar(float(x))


_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def arith(op: str, a: Union[ConcolicScalar, Number],
          b: Union[ConcolicScalar, Number, None] = None) -> ConcolicScalar:
    """Concolic arithmetic for ``op`` in ``add``, ``sub``, ``mul``, ``div``
    (binary) and ``neg`` (unary): the operator of :data:`_OPS` on the
    concrete parts, the folded node of :func:`_bin` on the symbolic parts.
    Results of two plain scalars stay plain."""
    a = as_scalar(a)
    if op == "neg":
        sym = neg(a.sym) if a.sym is not None else None
        return ConcolicScalar(-a.concrete, sym)
    b = as_scalar(b)
    if op == "div" and b.concrete == 0.0:
        raise ConcolicArithmeticError(
            "division by concrete zero", b.sym if b.sym is not None else const(0.0))
    symbol = _SYMBOLS[op]
    value = _OPS[symbol](a.concrete, b.concrete)
    if a.sym is None and b.sym is None:
        return ConcolicScalar(value)
    return ConcolicScalar(value, _bin(symbol, a.expr(), b.expr()))


# ---------------------------------------------------------------------------
# Comparisons and branch events
# ---------------------------------------------------------------------------


class Rel(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="


_NEGATION = {
    Rel.LT: Rel.GE,
    Rel.GE: Rel.LT,
    Rel.LE: Rel.GT,
    Rel.GT: Rel.LE,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
}

_REL_APPLY = {
    Rel.LT: lambda a, b: a < b,
    Rel.LE: lambda a, b: a <= b,
    Rel.GT: lambda a, b: a > b,
    Rel.GE: lambda a, b: a >= b,
    Rel.EQ: lambda a, b: a == b,
    Rel.NE: lambda a, b: a != b,
}


class NeuronId(NamedTuple):
    """A neuron addressed by depth and multi-index.

    Depth 0 is the model input grid; depth ``i + 1`` is the output grid of the
    i-th layer.  ``index`` is the multi-index within that grid's shape.
    """

    layer: int
    index: tuple[int, ...]

    def key(self) -> str:
        return ".".join([str(self.layer), *map(str, self.index)])

    @classmethod
    def from_key(cls, key: str) -> "NeuronId":
        parts = key.split(".")
        return cls(int(parts[0]), tuple(int(p) for p in parts[1:]))


@dataclass(frozen=True, init=False)
class Comparison:
    """A guard ``p relop 0``: one polynomial compared with zero.

    ``Comparison(rel, lhs, rhs)`` stores ``p = lhs - rhs`` (``lhs`` itself
    when ``rhs`` is omitted or the zero constant), so two comparisons whose
    sides differ by the same polynomial are equal.
    """

    rel: Rel
    p: SymExpr

    def __init__(self, rel: Rel, lhs: SymExpr, rhs: Optional[SymExpr] = None) -> None:
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "p", lhs if rhs is None else sub(lhs, rhs))

    def negate(self) -> "Comparison":
        return Comparison(_NEGATION[self.rel], self.p)

    def holds_at(self, assignment: Mapping[str, object]) -> bool:
        return bool(_REL_APPLY[self.rel](evaluate(self.p, assignment), 0.0))

    def key(self) -> tuple:
        """The relation and the polynomial, in canonical order."""
        return (self.rel.value, self.p.monomials, self.p.coeffs)

    def to_infix(self) -> str:
        return f"{to_infix(self.p)} {self.rel.value} 0.0"


@dataclass(frozen=True)
class BranchEvent:
    """One guard ``p relop 0`` observed on the concrete path, with the
    output neurons it affects and its layer."""

    guard: Comparison
    taken: bool
    assoc_neurons: tuple[NeuronId, ...]
    layer_index: int

    def taken_literal(self) -> Comparison:
        """The literal that held on the concrete path."""
        return self.guard if self.taken else self.guard.negate()

    @property
    def bypassed_predicate(self) -> Comparison:
        """The condition of the branch that was *not* entered: the negated
        guard when the guard held, the guard itself when it did not."""
        return self.guard.negate() if self.taken else self.guard


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------


class ExecutionContext:
    """Per-execution state: declared inputs and the branch-event log.
    Single-writer; one concolic execution owns one context."""

    def __init__(self, audit: bool = False) -> None:
        self.variables: dict[str, float] = {}
        self.events: list[BranchEvent] = []
        self.audit = audit

    def symvar(self, name: str, c0: Number) -> ConcolicScalar:
        """Declare an input variable with concrete seed ``c0``."""
        if name in self.variables:
            raise DeclarationError(f"input variable {name!r} already declared")
        self.variables[name] = float(c0)
        return ConcolicScalar(float(c0), var(name))

    def record(self, rel: Rel, p: SymExpr, taken: bool,
               scope: tuple[tuple[NeuronId, ...], int]) -> None:
        """Log the guard ``p relop 0``, whose truth on the concrete path was
        ``taken``, as a branch event of ``scope``: the associated output
        neurons, at least one, and the layer index."""
        neurons, layer_index = scope
        if not neurons:
            raise AssociationScopeError("a guard needs at least one associated neuron")
        self.events.append(BranchEvent(Comparison(rel, p), taken, neurons, layer_index))
