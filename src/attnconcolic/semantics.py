"""Forward semantics: the numpy reference (:func:`concrete_forward`), and the
instrumented :func:`forward` with its stages (``tas``, ``attention_scores``,
``stable_softmax``, ``dpa``, ``concat``, ``dense_forward``).  These run the
same numpy code over a batch of one, so the logits match the reference bit for
bit, and carry each cell's exact polynomial in the symbolic pixels
(:class:`ConcolicArray`).  Exponent arguments are concretized.  Guards read
their truth off the values; one is a branch event when a side is symbolic,
i.e. has a non-constant term (pixel terms that cancel to zero leave a
constant, as no pixel value could flip it).  A comparison stage (a softmax's
rows, a layer's ReLUs, the argmax ladder) takes its guards' polynomials from
the coefficient arrays in one subtraction, each one leaf, with no per-cell
scalar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import compress, islice
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .symexpr import (ConcolicScalar, ExecutionContext, Monomial, NeuronId, Rel, _leaf,
                      as_scalar, polynomial)

__all__ = [
    "ConcolicArray",
    "Dense",
    "Flatten",
    "ForwardResult",
    "LayerSpec",
    "ModelConfigError",
    "ModelSpec",
    "MultiHeadAttention",
    "Reshape",
    "apply_layer_concrete",
    "attention_scores",
    "concat",
    "concrete_forward",
    "concrete_label",
    "dense_forward",
    "dpa",
    "forward",
    "stable_softmax",
    "tas",
]


class ModelConfigError(ValueError):
    """A layer or weight tensor does not fit the declared shapes."""


# ---------------------------------------------------------------------------
# Layer specifications
# ---------------------------------------------------------------------------


def _frozen(tensor) -> np.ndarray:
    """A nested list of numbers as a read-only float array, insisting on
    rectangularity and finite entries."""
    try:
        array = np.array(tensor, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelConfigError(f"weights are not a rectangular array of numbers: {exc}") from None
    if not np.isfinite(array).all():
        raise ModelConfigError("weights must be finite numbers")
    array.setflags(write=False)
    return array


def _whole(value) -> int:
    """An int from a whole number; ModelConfigError for a string, a fraction, inf or nan."""
    if isinstance(value, str) or value % 1 != 0:
        raise ModelConfigError(f"{value!r} is not a whole number")
    return int(value)


def _grid(shape: tuple[int, ...], where: str) -> tuple[int, ...]:
    """``shape``; ModelConfigError naming ``where`` for a dimension below 1."""
    if min(shape, default=1) < 1:
        raise ModelConfigError(f"{where} {shape} has a dimension below 1")
    return shape


def _without_arrays(layer) -> dict:
    """A layer's pickled state: its fields, not its cached ``arrays``, which
    the copy converts again, read-only, on first use."""
    return {key: value for key, value in vars(layer).items() if key != "arrays"}


@dataclass(frozen=True)
class MultiHeadAttention:
    """Multi-head self-attention with per-head projections and output merge.

    Weight shapes: ``w_q/w_k/w_v``: d_model x heads x d_k, ``b_q/b_k/b_v``:
    heads x d_k, ``w_o``: heads x d_k x d_model, ``b_o``: d_model.
    """

    num_heads: int
    key_dim: int
    w_q: tuple
    b_q: tuple
    w_k: tuple
    b_k: tuple
    w_v: tuple
    b_v: tuple
    w_o: tuple
    b_o: tuple

    __getstate__ = _without_arrays

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o)`` as read-only float
        arrays, converted once."""
        return tuple(_frozen(w) for w in (self.w_q, self.b_q, self.w_k, self.b_k,
                                          self.w_v, self.b_v, self.w_o, self.b_o))

    def validate(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 2:
            raise ModelConfigError(
                f"attention expects a (seq_len, model_dim) input, got {in_shape}")
        seq_len, d_model = in_shape
        h, d_k = self.num_heads, self.key_dim
        wq, bq, wk, bk, wv, bv, wo, bo = self.arrays
        for name, w in (("w_q", wq), ("w_k", wk), ("w_v", wv)):
            if w.shape != (d_model, h, d_k):
                raise ModelConfigError(
                    f"{name} must have shape ({d_model}, {h}, {d_k}), got {w.shape}")
        for name, b in (("b_q", bq), ("b_k", bk), ("b_v", bv)):
            if b.shape != (h, d_k):
                raise ModelConfigError(
                    f"{name} must have shape ({h}, {d_k}), got {b.shape}")
        if wo.shape != (h, d_k, d_model):
            raise ModelConfigError(
                f"w_o must have shape ({h}, {d_k}, {d_model}), got {wo.shape}")
        if bo.shape != (d_model,):
            raise ModelConfigError(f"b_o must have shape ({d_model},)")
        return (seq_len, d_model)


@dataclass(frozen=True)
class Dense:
    """Affine map on a flat vector with an optional ReLU."""

    weights: tuple  # in_width x out_width
    bias: tuple
    activation: str = "none"

    __getstate__ = _without_arrays

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(weights, bias)`` as read-only float arrays, converted once."""
        return _frozen(self.weights), _frozen(self.bias)

    def validate(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 1:
            raise ModelConfigError(f"dense expects a flat input, got {in_shape}")
        w, b = self.arrays
        shape = w.shape
        if len(shape) != 2 or shape[0] != in_shape[0]:
            raise ModelConfigError(
                f"dense weights must have {in_shape[0]} rows, got {shape}")
        if b.shape != (shape[1],):
            raise ModelConfigError(f"dense bias must have shape ({shape[1]},)")
        if self.activation not in ("none", "relu"):
            raise ModelConfigError(f"unknown activation {self.activation!r}")
        return (shape[1],)

    def activate(self, pre: np.ndarray) -> np.ndarray:
        """The activation of a batch of pre-activations."""
        return np.where(pre > 0.0, pre, 0.0) if self.activation == "relu" else pre


@dataclass(frozen=True)
class Flatten:
    def validate(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (math.prod(in_shape),)


@dataclass(frozen=True)
class Reshape:
    target_shape: tuple[int, ...]

    def validate(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        try:
            target = tuple(_whole(d) for d in self.target_shape)
        except (TypeError, ValueError):
            raise ModelConfigError(f"target_shape {self.target_shape!r} is not a shape") from None
        if math.prod(in_shape) != math.prod(target):
            raise ModelConfigError(
                f"cannot reshape {in_shape} into {target}")
        return target


LayerSpec = Union[MultiHeadAttention, Dense, Flatten, Reshape]

# A model document's layer holds its "type", a key here, then the fields of
# that key's class in declaration order; from_json converts those named in
# _FIELD_TYPES.
_LAYER_TYPES = {"mha": MultiHeadAttention, "dense": Dense, "flatten": Flatten,
                "reshape": Reshape}
_FIELD_TYPES = {"num_heads": _whole, "key_dim": _whole, "target_shape": tuple}


@dataclass(frozen=True)
class ModelSpec:
    """An ordered layer list with composed shapes.

    ``shapes[d]`` is the neuron grid at depth ``d``: depth 0 is the input,
    depth ``i + 1`` the output of ``layers[i]``.  The final grid holds the
    logits; ``class_count`` is its flat size.  Every dimension of every grid
    is at least 1.
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    shapes: tuple[tuple[int, ...], ...] = field(init=False)
    class_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelConfigError("a model needs at least one layer")
        shapes = [_grid(tuple(_whole(d) for d in self.input_shape), "input_shape")]
        for i, layer in enumerate(self.layers):
            shapes.append(_grid(layer.validate(shapes[-1]), f"layer {i}: output shape"))
        object.__setattr__(self, "shapes", tuple(shapes))
        object.__setattr__(self, "class_count", math.prod(shapes[-1]))

    @property
    def output_depth(self) -> int:
        return len(self.layers)

    def neuron_ids(self, depth: int) -> list[NeuronId]:
        shape = self.shapes[depth]
        return [NeuronId(depth, idx) for idx in np.ndindex(*shape)]

    def tail(self, depth: int) -> "ModelSpec":
        """Submodel starting strictly after depth ``depth``'s grid."""
        if not 0 <= depth < len(self.layers):
            raise ModelConfigError(f"no submodel starts at depth {depth}")
        return ModelSpec(self.shapes[depth], self.layers[depth:])

    def to_json(self) -> dict:
        kinds = {layer_cls: kind for kind, layer_cls in _LAYER_TYPES.items()}
        layers = []
        for layer in self.layers:
            doc = {"type": kinds[type(layer)]}
            for f in fields(layer):  # a tuple, such as target_shape, as a list
                value = getattr(layer, f.name)
                doc[f.name] = list(value) if isinstance(value, tuple) else value
            layers.append(doc)
        return {"input_shape": list(self.input_shape), "layers": layers}

    @classmethod
    def from_json(cls, doc: dict) -> "ModelSpec":
        """The model of ``{"input_shape": [...], "layers": [...]}``, each layer
        ``{"type": <key of _LAYER_TYPES>, <field>: ...}`` with its class's
        fields, a missing one taking its default; ModelConfigError for a
        document of any other shape."""
        where = "model document"
        try:
            input_shape = tuple(_whole(d) for d in doc["input_shape"])
            layers = []
            for i, spec in enumerate(doc["layers"]):
                where = f"layer {i}"
                kind = spec.get("type")
                if kind not in _LAYER_TYPES:
                    raise ValueError(f"unknown type {kind!r}")
                layer_cls = _LAYER_TYPES[kind]
                layers.append(layer_cls(**{
                    f.name: _FIELD_TYPES.get(f.name, lambda v: v)(spec[f.name])
                    for f in fields(layer_cls) if f.name in spec or f.default is MISSING}))
        except KeyError as exc:
            raise ModelConfigError(f"{where}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ModelConfigError(f"{where}: {exc}") from None
        return cls(input_shape, tuple(layers))


# ---------------------------------------------------------------------------
# Instrumented semantics over concolic arrays
# ---------------------------------------------------------------------------


class ConcolicArray:
    """Concrete values and their exact polynomials in the input variables
    ``names``.  ``coef`` has one more axis: column ``a`` holds the coefficient
    of ``m[a]``, where ``m = (1, *names)``; a quadratic array (attention
    scores) holds that of ``m[a] * m[b]`` at ``a * len(m) + b``.  Indexing a
    cell gives a ConcolicScalar whose ``sym`` is one polynomial leaf, or None
    for a constant."""

    __slots__ = ("value", "coef", "names")

    def __init__(self, value: np.ndarray, coef: np.ndarray, names: tuple[str, ...] = ()) -> None:
        self.value, self.coef, self.names = value, coef, names

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, index):
        value, coef = self.value[index], self.coef[index]
        if isinstance(value, np.ndarray):
            return ConcolicArray(value, coef, self.names)
        coef = coef.tolist()
        if not any(coef[1:]):
            return ConcolicScalar(float(value))
        monomials = _monomials(self.names, len(coef) > 1 + len(self.names))
        return ConcolicScalar(float(value), polynomial(zip(monomials, coef)))

    def reshape(self, shape: tuple[int, ...]) -> "ConcolicArray":
        return ConcolicArray(self.value.reshape(shape),
                             self.coef.reshape(tuple(shape) + self.coef.shape[-1:]), self.names)

    def symbolic(self) -> np.ndarray:
        """Which cells' polynomials have a non-constant term."""
        return self.coef[..., 1:].any(axis=-1)


@functools.lru_cache(maxsize=64)
def _monomials(names: tuple[str, ...], quadratic: bool) -> tuple[Monomial, ...]:
    """The monomial of each coefficient column over ``names``."""
    m = ((),) + tuple((name,) for name in names)
    return tuple(tuple(sorted(a + b)) for a in m for b in m) if quadratic else m


def _as_array(x) -> ConcolicArray:
    """``x`` as a ConcolicArray: as is, or from an array or nested sequences
    of numbers and ConcolicScalars of degree at most two."""
    if isinstance(x, ConcolicArray):
        return x
    cells = np.array(x, dtype=object)
    scalars = [as_scalar(cell) for cell in cells.reshape(-1)]
    value = np.array([s.concrete for s in scalars], dtype=float).reshape(cells.shape)
    if all(s.sym is None for s in scalars):
        return ConcolicArray(value, value[..., None], ())
    polys = [dict(zip(s.sym.monomials, s.sym.coeffs)) if s.sym else {(): s.concrete}
             for s in scalars]
    if any(len(m) > 2 for p in polys for m in p):
        raise ModelConfigError("concolic inputs of degree above two are not supported")
    names = tuple(sorted({n for p in polys for m in p for n in m}))
    monomials = _monomials(names, any(len(m) == 2 for p in polys for m in p))
    column = {m: i for i, m in enumerate(monomials)}  # a product's last column
    coef = np.zeros((len(scalars), len(monomials)))
    for i, p in enumerate(polys):
        coef[i, [column[m] for m in p]] = list(p.values())
    return ConcolicArray(value, coef.reshape(cells.shape + (-1,)), names)


@functools.lru_cache(maxsize=64)
def _basis(names: tuple[str, ...], quadratic: bool):
    """The sorted distinct monomials of the columns over ``names``, the columns
    grouped by monomial (a product's two in order), and where each group starts."""
    columns = _monomials(names, quadratic)
    basis = tuple(sorted(set(columns)))
    order = sorted(range(len(columns)), key=lambda j: basis.index(columns[j]))
    return basis, order, [[columns[j] for j in order].index(m) for m in basis]


def _max_scans(rows: ConcolicArray, ctx: ExecutionContext,
               scope: Callable[[int], tuple[tuple[NeuronId, ...], int]]) -> list[int]:
    """Each row's first-maximum index by a strict ``>`` scan from the left,
    for the rows of a 2-D array.  A comparison with a symbolic side, ``row[u]
    > row[best]``, is a branch event of ``scope(r)``, its truth from the
    values and its ``p`` from one subtraction for all rows: the two cells'
    polynomials as indexing makes them (a constant cell's is its value),
    over the sorted distinct monomials, zero coefficients dropped."""
    symbolic, width = rows.symbolic(), rows.value.shape[-1]
    cells, rivals, taken, counts, winners = [], [], [], [], []
    for r, (values, sym) in enumerate(zip(rows.value.tolist(), symbolic.tolist())):
        best, start = 0, len(taken)
        for u in range(1, width):
            wins = values[u] > values[best]
            if sym[u] or sym[best]:
                cells.append(r * width + u)
                rivals.append(r * width + best)
                taken.append(wins)
            best = u if wins else best
        counts.append(len(taken) - start)
        winners.append(best)
    if taken:
        basis, order, starts = _basis(rows.names, rows.coef.shape[-1] > 1 + len(rows.names))
        folded = np.add.reduceat(rows.coef.take(order, -1), starts, axis=-1)
        folded[..., 0] = np.where(symbolic, folded[..., 0], rows.value)
        folded = folded.reshape(-1, len(basis))
        guards = zip((folded.take(cells, 0) - folded.take(rivals, 0)).tolist(), taken)
        for r, count in enumerate(counts):
            assoc = scope(r) if count else None
            for p, truth in islice(guards, count):
                ctx.record(Rel.GT, _leaf(basis, tuple(p)) if all(p) else _leaf(
                    tuple(compress(basis, p)), tuple(c for c in p if c)), truth, assoc)
    return winners


@functools.lru_cache(maxsize=1024)
def _row_neurons(depth: int, row: tuple[int, ...], width: int) -> tuple[NeuronId, ...]:
    """The neurons ``(*row, c)`` for ``c < width`` at ``depth``."""
    return tuple(NeuronId(depth, (*row, c)) for c in range(width))


def tas(vectors, weights, bias) -> ConcolicArray:
    """Transform-and-split: per-head linear projection of the token matrix.

    out[i][t][j] = sum_k vectors[t][k] * weights[k][i][j] + bias[i][j]
    """
    x = _as_array(vectors)
    w, b = np.asarray(weights, dtype=float), np.asarray(bias, dtype=float)
    coef = np.einsum("...tkc,kij->...itjc", x.coef, w)
    coef[..., 0] += b[:, None, :]
    return ConcolicArray(_project(x.value[None], w, b)[0], coef, x.names)


def attention_scores(q_head, k_head) -> ConcolicArray:
    """Unscaled score matrix S[t][u] = sum_j Q[t][j] * K[u][j] (per head for
    head-major inputs): quadratic in the input variables."""
    q, k = _as_array(q_head), _as_array(k_head)
    if q.names != k.names or {q.coef.shape[-1], k.coef.shape[-1]} != {1 + len(q.names)}:
        raise ModelConfigError("attention scores need affine Q and K over the same variables")
    coef = np.einsum("...tja,...ujb->...tuab", q.coef, k.coef)
    coef = coef.reshape(coef.shape[:-2] + (-1,))
    return ConcolicArray(_scores(q.value[None], k.value[None])[0], coef, q.names)


def stable_softmax(x, ctx: Optional[ExecutionContext] = None,
                   row_assoc: Optional[Callable[[int], Sequence[NeuronId]]] = None,
                   layer_index: int = 0) -> ConcolicArray:
    """Row-wise stable softmax with concretized exponent arguments.

    Each row (last axis) with a symbolic cell is max-scanned, emitting branch
    events (:func:`_max_scans`); the probabilities are the reference softmax
    of the values, constants.  Row ``t`` of a matrix (each head's, for
    head-major scores) associates its guards with ``row_assoc(t)``, or else
    with its own cells ``(t, u)`` at depth ``layer_index``; a 1-D input is
    one row, ``t = 0``, whose own cells are ``(u,)``.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    x = _as_array(x)
    if x.names:
        *lead, width = x.value.shape
        height = lead[-1] if lead else 1
        _max_scans(x.reshape((-1, width)), ctx, lambda r: (
            tuple(row_assoc(r % height)) if row_assoc else
            _row_neurons(layer_index, (r % height,)[:len(lead)], width), layer_index))
    probs = _softmax(x.value[None].copy())[0]
    return ConcolicArray(probs, probs[..., None])


def dpa(Q, K, V, ctx: Optional[ExecutionContext] = None,
        out_width: Optional[int] = None, depth: int = 0,
        layer_index: int = 0) -> ConcolicArray:
    """Scaled dot-product attention per head: softmax(Q K^T / sqrt(d_k)) V.

    ``out_width`` is the attention layer's model dimension; the max scans in
    softmax associate row ``t`` with the output-row neurons ``(t, 0..out_width)``
    at ``depth``.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    q, v = _as_array(Q), _as_array(V)
    width = q.value.shape[-1] if out_width is None else out_width
    scale = 1.0 / math.sqrt(q.value.shape[-1])
    scores = attention_scores(q, K)
    scaled = ConcolicArray(scores.value * scale, scores.coef * scale, scores.names)
    probs = stable_softmax(scaled, ctx, lambda t: _row_neurons(depth, (t,), width),
                           layer_index).value
    return ConcolicArray(_attend(probs[None], v.value[None])[0],
                         np.einsum("...tu,...ujc->...tjc", probs, v.coef), v.names)


def concat(attentions, weights, bias) -> ConcolicArray:
    """Concatenate head outputs and project: Y[t][l] = sum_i sum_j A[i][t][j] * W_O[i][j][l] + B_O[l]."""
    a = _as_array(attentions)
    w, b = np.asarray(weights, dtype=float), np.asarray(bias, dtype=float)
    coef = np.einsum("...itjc,ijl->...tlc", a.coef, w)
    coef[..., 0] += b
    return ConcolicArray(_merge(a.value[None], w, b)[0], coef, a.names)


def dense_forward(x, weights, bias, activation: str = "none",
                  ctx: Optional[ExecutionContext] = None, depth: int = 0,
                  layer_index: int = 0) -> ConcolicArray:
    """Affine map with optional ReLU.

    Each ReLU guard on a symbolic pre-activation is ``pre > 0``, a max scan
    of ``[0, pre]``, with the single affected output neuron as its
    association; the negative branch yields a plain concrete zero.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    x = _as_array(x)
    w, b = np.asarray(weights, dtype=float), np.asarray(bias, dtype=float)
    coef = w.T @ x.coef
    coef[:, 0] += b
    out = ConcolicArray((x.value[None] @ w + b)[0], coef, x.names)
    if activation != "relu":
        return out
    pairs = ConcolicArray(np.zeros((len(coef), 2)), np.zeros((len(coef), 2, coef.shape[-1])),
                          x.names)
    pairs.value[:, 1], pairs.coef[:, 1] = out.value, coef
    _max_scans(pairs, ctx, lambda j: ((NeuronId(depth, (j,)),), layer_index))
    positive = out.value > 0.0
    return ConcolicArray(np.where(positive, out.value, 0.0),
                         np.where(positive[:, None], coef, 0.0), x.names)


def _audit(x: ConcolicArray, seeds: Mapping[str, float]) -> None:
    """Each cell's polynomial at the declared seeds must reproduce its
    concrete value within relative tolerance 1e-9."""
    m = np.array([1.0] + [seeds[name] for name in x.names])
    got = x.coef @ (m if x.coef.shape[-1] == len(m) else np.outer(m, m).ravel())
    bad = np.argwhere(~np.isclose(got, x.value, rtol=1e-9, atol=1e-12)).tolist()
    if bad:
        cell = tuple(bad[0])
        raise AssertionError(f"concolic coherence violated at cell {cell}: concrete="
                             f"{float(x.value[cell])!r} symbolic={float(got[cell])!r}")


@dataclass(frozen=True)
class ForwardResult:
    logits: ConcolicArray
    events: tuple
    label: int


def forward(model: ModelSpec, x, ctx: Optional[ExecutionContext] = None) -> ForwardResult:
    """Run the instrumented model: all layers in order, then an argmax ladder
    over the flattened logits (associated with every output neuron).

    Returns the logits, the branch events in occurrence order, and the label.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    start = len(ctx.events)
    vals = _as_array(x)
    if vals.value.shape != model.shapes[0]:
        raise ModelConfigError(f"input shape {vals.value.shape} is not {model.shapes[0]}")
    for j, layer in enumerate(model.layers):
        depth = j + 1
        if isinstance(layer, MultiHeadAttention):
            wq, bq, wk, bk, wv, bv, wo, bo = layer.arrays
            A = dpa(tas(vals, wq, bq), tas(vals, wk, bk), tas(vals, wv, bv), ctx,
                    out_width=model.shapes[depth][1], depth=depth, layer_index=j)
            vals = concat(A, wo, bo)
        elif isinstance(layer, Dense):
            vals = dense_forward(vals, *layer.arrays, layer.activation,
                                 ctx, depth=depth, layer_index=j)
        else:  # flatten / reshape
            vals = vals.reshape(model.shapes[depth])
        if ctx.audit:
            _audit(vals, ctx.variables)

    logits = vals.reshape((model.class_count,))
    (label,) = _max_scans(logits.reshape((1, -1)), ctx, lambda r: (
        tuple(model.neuron_ids(model.output_depth)), len(model.layers)))
    return ForwardResult(logits, tuple(ctx.events[start:]), label)


# ---------------------------------------------------------------------------
# Concrete (numpy) reference path
# ---------------------------------------------------------------------------

# The value kernels of the attention layer.  Each is a matrix product over a
# batch (the instrumented stages pass a batch of one), so forward and
# concrete_forward run the same arithmetic and agree bit for bit.  A row's
# bits may depend on the batch it sits in, as BLAS blocks a product by size.


def _project(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-head projection of each token: (n, t, k) -> (n, h, t, j)."""
    k, h, j = w.shape
    out = x.reshape(-1, k) @ w.reshape(k, h * j)
    out += b.reshape(-1)
    return out.reshape(x.shape[:-1] + (h, j)).swapaxes(-3, -2)


def _scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Unscaled scores Q K^T per head: (n, h, t, j), (n, h, u, j) -> (n, h, t, u)."""
    return q @ k.swapaxes(-1, -2)


def _attend(probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Probabilities times values per head: (n, h, t, u), (n, h, u, j) -> (n, h, t, j)."""
    return probs @ v


def _merge(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate the heads and project: (n, h, t, j) -> (n, t, l)."""
    h, j, l = w.shape
    out = a.swapaxes(-3, -2).reshape(-1, h * j) @ w.reshape(h * j, l)
    out += b
    return out.reshape(a.shape[:-3] + (a.shape[-2], l))


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a C-contiguous array, written over it.
    It runs on the transposed rows, so that each row's max and sum are
    reduces over the leading axis (numpy runs a short last axis row by row):
    the sum adds each row's entries left to right.  A lone row is one
    contiguous run, which numpy would sum pairwise, so it takes the last of
    its running sums, which add left to right too.  Writing over ``scores``,
    not into a third chunk-sized array, keeps the heap under glibc's trim
    threshold: a 28x28 map whose chunks crossed it faulted its pages in
    again on every chunk."""
    rows = scores.reshape(-1, scores.shape[-1])
    cols = rows.T.copy()
    cols -= cols.max(axis=0)
    np.exp(cols, out=cols)
    cols /= cols.sum(axis=0) if cols.shape[1] > 1 else cols.cumsum(axis=0)[-1]
    rows[...] = cols.T
    return scores


def apply_layer_concrete(layer: LayerSpec, batch: np.ndarray,
                         out_shape: tuple[int, ...]) -> np.ndarray:
    """Vectorized concrete semantics of one layer over a batch."""
    if isinstance(layer, MultiHeadAttention):
        wq, bq, wk, bk, wv, bv, wo, bo = layer.arrays
        scale = 1.0 / math.sqrt(layer.key_dim)
        scores = _scores(_project(batch, wq, bq), _project(batch, wk, bk))
        scores *= scale
        probs = _softmax(scores)
        return _merge(_attend(probs, _project(batch, wv, bv)), wo, bo)
    if isinstance(layer, Dense):
        w, b = layer.arrays
        return layer.activate(batch @ w + b)
    # flatten / reshape
    return batch.reshape((batch.shape[0],) + out_shape)


def concrete_forward(model: ModelSpec, batch: np.ndarray,
                     upto_depth: Optional[int] = None) -> np.ndarray:
    """Concrete activations of a batch at ``upto_depth`` (default: the logits,
    flattened to (n, class_count))."""
    batch = np.asarray(batch, dtype=float)
    single = batch.shape == model.shapes[0]
    if single:
        batch = batch[None, ...]
    if batch.shape[1:] != model.shapes[0]:
        raise ModelConfigError(
            f"batch shape {batch.shape[1:]} does not match input {model.shapes[0]}")
    stop = len(model.layers) if upto_depth is None else upto_depth
    out = batch
    for j in range(stop):
        out = apply_layer_concrete(model.layers[j], out, model.shapes[j + 1])
    if upto_depth is None:
        out = out.reshape(out.shape[0], -1)
    return out[0] if single else out


def concrete_label(model: ModelSpec, x: np.ndarray) -> int:
    """Predicted class by the concrete reference path (first max wins)."""
    logits = concrete_forward(model, np.asarray(x, dtype=float))
    return int(np.argmax(logits))
