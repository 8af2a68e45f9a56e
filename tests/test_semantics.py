from __future__ import annotations

import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnconcolic import semantics
from attnconcolic.engine import make_symbolic_input
from attnconcolic.semantics import (
    ConcolicArray,
    Dense,
    Flatten,
    ModelConfigError,
    ModelSpec,
    MultiHeadAttention,
    Reshape,
    apply_layer_concrete,
    attention_scores,
    concat,
    concrete_forward,
    concrete_label,
    dense_forward,
    dpa,
    forward,
    stable_softmax,
    tas,
)
from attnconcolic.symexpr import (Comparison, ExecutionContext, NeuronId, Rel, add, as_scalar,
                                  const, mul, var)

from conftest import golden_mha, linear_coeffs, quad_coeffs, random_toy_model, symbolic_forward


def golden_input(ctx: ExecutionContext):
    return [[ctx.symvar("v", 2)], [as_scalar(1)]]


def golden_qkv(ctx: ExecutionContext):
    layer = golden_mha()
    x = golden_input(ctx)
    return (tas(x, layer.w_q, layer.b_q),
            tas(x, layer.w_k, layer.b_k),
            tas(x, layer.w_v, layer.b_v))


# ---------------------------------------------------------------------------
# cells of a concolic array
# ---------------------------------------------------------------------------


def builder_cell(coef: np.ndarray, names: tuple[str, ...]):
    """Reference: a cell's expression summed column by column through the
    binary builders, or None when no non-constant column is non-zero."""
    if len(coef) == 1 or not coef[1:].any():
        return None
    m = (const(1.0),) + tuple(var(name) for name in names)
    columns = tuple(mul(a, b) for a in m for b in m) if len(coef) > len(m) else m
    expr = const(0.0)
    for c, column in zip(coef.tolist(), columns):
        expr = add(expr, mul(const(c), column))
    return expr


@st.composite
def coefficient_rows(draw):
    """Names in no particular order, and an affine or quadratic coefficient
    row with zero and -0.0 columns and symmetric pairs that cancel."""
    names = tuple(draw(st.lists(st.sampled_from(["p0", "p1", "p2", "p10"]),
                                min_size=1, max_size=3, unique=True)))
    k = 1 + len(names)
    quadratic = draw(st.booleans())
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(allow_nan=False))
    coef = draw(st.lists(entry, min_size=k * k if quadratic else k,
                         max_size=k * k if quadratic else k))
    for a in range(k) if quadratic else ():
        for b in range(a + 1, k):
            if draw(st.booleans()):
                coef[b * k + a] = -coef[a * k + b]
    return names, np.array(coef)


@settings(max_examples=300, deadline=None)
@given(coefficient_rows())
@example((("p0",), np.array([-0.0, 0.5, -0.5, 0.0])))  # pairs cancel to a constant
@example((("p10", "p2"), np.array([0.0, -0.0, 3.0])))
def test_cell_is_one_leaf_with_the_builder_chains_polynomial(row):
    names, coef = row
    cell = ConcolicArray(np.array([0.25]), coef[None], names)[0]
    reference = builder_cell(coef, names)
    assert (cell.sym is None) == (reference is None)
    if reference is not None:
        assert cell.sym.kind == "poly" and cell.sym.args == ()
        assert cell.sym.monomials == reference.monomials
        assert [c.hex() for c in cell.sym.coeffs] == [c.hex() for c in reference.coeffs]


# ---------------------------------------------------------------------------
# tas
# ---------------------------------------------------------------------------


def test_tas_reproduces_worked_q_matrix():
    ctx = ExecutionContext()
    Q, K, V = golden_qkv(ctx)
    # Q = [[v+1, v+1], [2, 2]]
    for j in range(2):
        assert linear_coeffs(Q[0][0][j]) == (1.0, 1.0)
        assert Q[0][0][j].concrete == 3.0
        assert Q[0][1][j].concrete == 2.0 and Q[0][1][j].sym is None
    # K = [[2v+2, v+1], [4, 2]]
    assert linear_coeffs(K[0][0][0]) == (2.0, 2.0)
    assert linear_coeffs(K[0][0][1]) == (1.0, 1.0)
    assert (K[0][1][0].concrete, K[0][1][1].concrete) == (4.0, 2.0)
    # V = [[v+1, 2v+2], [2, 4]]
    assert linear_coeffs(V[0][0][0]) == (1.0, 1.0)
    assert linear_coeffs(V[0][0][1]) == (2.0, 2.0)
    assert (V[0][1][0].concrete, V[0][1][1].concrete) == (2.0, 4.0)


def test_tas_zero_weights_gives_zero_outputs():
    ctx = ExecutionContext()
    x = golden_input(ctx)
    out = tas(x, [[[0.0, 0.0]]], [[0.0, 0.0]])
    for head in out:
        for row in head:
            for entry in row:
                assert entry.concrete == 0.0


def test_tas_matches_nested_loop_oracle():
    rng = np.random.default_rng(11)
    seq_len, d_model, heads, d_k = 3, 2, 2, 2
    x = rng.uniform(-1, 1, size=(seq_len, d_model))
    w = rng.uniform(-1, 1, size=(d_model, heads, d_k)).tolist()
    b = rng.uniform(-1, 1, size=(heads, d_k)).tolist()
    got = tas([[as_scalar(v) for v in row] for row in x], w, b)
    for i in range(heads):
        for t in range(seq_len):
            for j in range(d_k):
                want = b[i][j]
                for k in range(d_model):
                    want += x[t][k] * w[k][i][j]
                assert got[i][t][j].concrete == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# dpa / scores
# ---------------------------------------------------------------------------


def test_unscaled_scores_match_worked_example_exactly():
    ctx = ExecutionContext()
    Q, K, _ = golden_qkv(ctx)
    S = attention_scores(Q[0], K[0])
    assert quad_coeffs(S[0][0]) == (3.0, 6.0, 3.0)       # 3v^2 + 6v + 3
    assert linear_coeffs(S[0][1]) == (6.0, 6.0)          # 6v + 6
    assert linear_coeffs(S[1][0]) == (6.0, 6.0)
    assert S[1][1].concrete == 12.0 and S[1][1].sym is None
    assert (S[0][0].concrete, S[0][1].concrete) == (27.0, 18.0)


def test_dpa_attention_coefficients_within_tolerance():
    ctx = ExecutionContext()
    Q, K, V = golden_qkv(ctx)
    A = dpa(Q, K, V, ctx, out_width=1, depth=1, layer_index=0)
    expected = [[(0.998, 1.002), (1.996, 2.004)],
                [(0.986, 1.014), (1.972, 2.028)]]
    for t in range(2):
        for j in range(2):
            slope, intercept = linear_coeffs(A[0][t][j])
            want_slope, want_intercept = expected[t][j]
            assert slope == pytest.approx(want_slope, abs=1e-3)
            assert intercept == pytest.approx(want_intercept, abs=1e-3)


def test_dpa_constant_inputs_give_uniform_rows_and_column_means():
    # equal scores per row -> uniform softmax -> output = column means of V
    c = as_scalar(1.0)
    Q = [[[c, c], [c, c]]]
    K = [[[c, c], [c, c]]]
    V = [[[as_scalar(1.0), as_scalar(5.0)], [as_scalar(3.0), as_scalar(7.0)]]]
    A = dpa(Q, K, V)
    for t in range(2):
        assert A[0][t][0].concrete == pytest.approx(2.0, rel=1e-12)
        assert A[0][t][1].concrete == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stable_softmax
# ---------------------------------------------------------------------------


def test_softmax_matches_worked_example():
    ctx = ExecutionContext()
    Q, K, _ = golden_qkv(ctx)
    S = attention_scores(Q[0], K[0])
    r = 1 / math.sqrt(2)
    scaled = [[entry * r for entry in row] for row in S]
    probs = stable_softmax(scaled, ctx, row_assoc=lambda t: [NeuronId(1, (t, 0))])
    want = [[0.998, 0.002], [0.986, 0.014]]
    for t in range(2):
        for u in range(2):
            assert probs[t][u].concrete == pytest.approx(want[t][u], abs=1e-3)
            assert probs[t][u].sym is None  # exp arguments were concretized


def test_softmax_constant_row_is_uniform():
    row = [as_scalar(4.2)] * 3
    out = stable_softmax([row])
    for entry in out[0]:
        assert entry.concrete == pytest.approx(1 / 3, rel=1e-12)


def test_softmax_two_entry_row_matches_scalar_exp_oracle():
    delta = -9 / math.sqrt(2)
    out = stable_softmax([[as_scalar(0.0), as_scalar(delta)]])
    denom = 1 + math.exp(delta)
    assert out[0][0].concrete == pytest.approx(1 / denom, rel=1e-12)
    assert out[0][1].concrete == pytest.approx(math.exp(delta) / denom, rel=1e-12)


def test_softmax_rows_are_stochastic():
    rng = np.random.default_rng(5)
    ctx = ExecutionContext()
    v = ctx.symvar("v", 0.25)
    for width in (2, 3, 5):
        rows = [[v * float(c) + float(rng.uniform(-4, 4)) for c in
                 rng.uniform(-2, 2, size=width)]]
        out = stable_softmax(rows, ctx, row_assoc=lambda t: [NeuronId(0, (0,))])
        total = sum(e.concrete for e in out[0])
        assert all(e.concrete >= 0.0 for e in out[0])
        assert total == pytest.approx(1.0, abs=1e-9)


def reference_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with the per-row max of ``max(axis=-1)``
    and each row's entries added left to right."""
    probs = scores - scores.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    total = probs[..., 0].copy()
    for column in range(1, probs.shape[-1]):
        total += probs[..., column]
    probs /= total[..., None]
    return probs


@pytest.mark.parametrize("batch", [1, 1024])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8, 9, 16, 28, 129, 300])
def test_softmax_matches_the_per_row_max_bit_for_bit(width, batch):
    rng = np.random.default_rng([width, batch])
    shape = (batch, 2, width)
    rows = [
        rng.normal(size=shape),
        rng.integers(-1, 2, size=shape).astype(float),  # ties
        rng.choice([-0.0, 0.0, -1.0], size=shape),  # signed zeros, ties at the max
        rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape[:-1] + (1,)),
        rng.normal(size=shape) * 1e300,
    ]
    scores = np.stack(rows, axis=-2)  # (batch, heads, rows, width)
    got, want = semantics._softmax(scores.copy()), reference_softmax(scores.copy())
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width", [7, 8, 16, 300])
def test_softmax_of_one_row_matches_the_row_in_a_matrix_bit_for_bit(width):
    """A lone row is summed in the order of a row among others."""
    rng = np.random.default_rng(width)
    for _ in range(20):
        row, other = rng.normal(size=(2, width)) * 10.0 ** rng.integers(-2, 3)
        alone = stable_softmax(row).value
        within = stable_softmax(np.stack([row, other])).value[0]
        assert alone.view(np.uint64).tolist() == within.view(np.uint64).tolist()


@pytest.mark.parametrize("tokens", [8, 9, 16, 28])
def test_forward_matches_the_reference_past_eight_tokens(tokens):
    """Rows of 8 or more probabilities, summed by both forwards' softmax."""
    rng = np.random.default_rng(tokens)
    for heads, relu in [(1, False), (2, True)]:
        model = random_toy_model(rng, seq_len=tokens, d_model=2, heads=heads,
                                 key_dim=2, classes=3, relu=relu)
        x = rng.uniform(0.0, 1.0, size=(tokens, 2))
        pixels = rng.choice(2 * tokens, size=2, replace=False).tolist()
        result, _ = symbolic_forward(model, x, pixels)
        reference = concrete_forward(model, x)
        assert [cell.concrete for cell in result.logits] == reference.tolist()
        assert result.label == concrete_label(model, x)


# ---------------------------------------------------------------------------
# the max scan of a softmax row
# ---------------------------------------------------------------------------


def test_rowmax_emits_one_event_per_worked_row():
    ctx = ExecutionContext()
    Q, K, _ = golden_qkv(ctx)
    S = attention_scores(Q[0], K[0])
    r = 1 / math.sqrt(2)
    row0 = [entry * r for entry in S[0]]
    stable_softmax(row0, ctx, lambda t: [NeuronId(1, (0, 0))])
    assert len(ctx.events) == 1
    event = ctx.events[0]
    # bypassed branch: entry1 > entry0 (the guard that did not hold)
    assert event.taken is False
    assert event.bypassed_predicate == event.guard
    assert event.assoc_neurons == (NeuronId(1, (0, 0)),)


def test_rowmax_all_concrete_row_emits_nothing():
    ctx = ExecutionContext()
    stable_softmax([as_scalar(1), as_scalar(5), as_scalar(3)], ctx)
    assert ctx.events == []


def test_rowmax_five_symbolic_entries_emit_four_events():
    ctx = ExecutionContext()
    entries = [ctx.symvar(f"x{i}", float(i % 3)) for i in range(5)]
    stable_softmax(entries, ctx, lambda t: [NeuronId(0, (0,))])
    assert len(ctx.events) == 4


def test_softmax_of_a_one_dimensional_row_is_one_row():
    for row_assoc, want in ((None, (NeuronId(2, (0,)), NeuronId(2, (1,)))),
                            (lambda t: [NeuronId(5, (t, 7))], (NeuronId(5, (0, 7)),))):
        ctx = ExecutionContext()
        out = stable_softmax([ctx.symvar("v", 0.3), as_scalar(0.5)], ctx, row_assoc, 2)
        assert out.value.shape == (2,)
        assert out.value.tolist() == stable_softmax([0.3, 0.5]).value.tolist()
        (event,) = ctx.events
        assert event.taken is True and event.assoc_neurons == want and event.layer_index == 2
        assert event.guard.key() == (">", ((), ("v",)), (0.5, -1.0))  # 0.5 - v > 0


# ---------------------------------------------------------------------------
# guards from coefficient rows, against the per-cell path
# ---------------------------------------------------------------------------


def reference_guard(ctx: ExecutionContext, a, b, scope) -> bool:
    """The guard ``a > b`` of two indexed cells, ``Comparison(Rel.GT, a, b)``
    with its truth from the concrete parts, recorded in ``scope``."""
    taken = a.concrete > b.concrete
    ctx.record(Rel.GT, Comparison(Rel.GT, a.expr(), b.expr()).p, taken, scope)
    return taken


def reference_scan(row: ConcolicArray, ctx: ExecutionContext, scope) -> None:
    """The per-cell max scan: each comparison with a symbolic side is
    recorded by :func:`reference_guard` on the two indexed cells."""
    values, symbolic = row.value.tolist(), row.symbolic().tolist()
    best = 0
    for u in range(1, len(values)):
        if symbolic[u] or symbolic[best]:
            taken = reference_guard(ctx, row[u], row[best], scope)
        else:
            taken = values[u] > values[best]
        best = u if taken else best


def event_keys(ctx: ExecutionContext) -> list:
    return [(e.guard.rel, e.guard.p.monomials, [c.hex() for c in e.guard.p.coeffs], e.taken,
             e.assoc_neurons, e.layer_index) for e in ctx.events]


def random_concolic(rng: np.random.Generator, shape: tuple[int, ...],
                    quadratic: bool) -> ConcolicArray:
    """Values with ties and signed zeros; coefficients with zero and -0.0
    entries, product pairs that cancel, repeated cells whose guards cancel to
    exact zero, and constant cells whose constant column is not their value."""
    names = tuple(rng.permutation(["p3", "p10", "p2"])[:rng.integers(1, 4)].tolist())
    k = 1 + len(names)
    value = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=shape)
    coef = rng.normal(size=shape + (k * k if quadratic else k,))
    coef[rng.random(coef.shape) < 0.3] = 0.0
    coef[rng.random(coef.shape) < 0.2] = -0.0
    for a, b in itertools.combinations(range(k), 2) if quadratic else ():
        cancel = rng.random(shape) < 0.5
        coef[..., b * k + a] = np.where(cancel, -coef[..., a * k + b], coef[..., b * k + a])
    flat_value, flat_coef = value.reshape(-1), coef.reshape(-1, coef.shape[-1])
    for i in rng.choice(len(flat_value), size=len(flat_value) // 3).tolist():
        flat_value[i], flat_coef[i] = flat_value[i - 1], flat_coef[i - 1]
    constant = rng.random(shape) < 0.3
    coef[..., 1:][constant] = rng.choice([0.0, -0.0],
                                         size=(int(constant.sum()), coef.shape[-1] - 1))
    return ConcolicArray(value, coef, names)


@pytest.mark.parametrize("quadratic", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_stage_guards_match_the_per_cell_path(seed, quadratic):
    rng = np.random.default_rng([seed, quadratic])
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 6)))
    x = random_concolic(rng, shape, quadratic)
    row_assoc = (lambda t: [NeuronId(1, (t, 0)), NeuronId(1, (t, 1))]) if seed % 2 else None
    stage, reference = ExecutionContext(), ExecutionContext()
    stable_softmax(x, stage, row_assoc, layer_index=4)
    for index in np.ndindex(*shape[:-1]):
        t = index[-1]
        assoc = row_assoc(t) if row_assoc else [NeuronId(4, (t, u)) for u in range(shape[-1])]
        if x.symbolic()[index].any():
            reference_scan(x[index], reference, (tuple(assoc), 4))
    assert event_keys(stage) == event_keys(reference)

    row = x.reshape((-1,))
    stage, reference = ExecutionContext(), ExecutionContext()
    stable_softmax(row, stage, lambda t: [NeuronId(0, (0,))], 2)
    reference_scan(row, reference, ((NeuronId(0, (0,)),), 2))
    assert event_keys(stage) == event_keys(reference)

    if not quadratic:  # ReLU guards read an affine pre-activation
        identity = np.eye(row.value.size)
        out = dense_forward(row, identity, np.zeros(row.value.size))
        stage, reference = ExecutionContext(), ExecutionContext()
        dense_forward(row, identity, np.zeros(row.value.size), "relu", stage, 3, 1)
        for j in np.flatnonzero(out.symbolic()).tolist():
            reference_guard(reference, out[j], as_scalar(0.0), ((NeuronId(3, (j,)),), 1))
        assert event_keys(stage) == event_keys(reference)


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------


def test_concat_matches_worked_example():
    ctx = ExecutionContext()
    Q, K, V = golden_qkv(ctx)
    A = dpa(Q, K, V, ctx, out_width=1, depth=1, layer_index=0)
    Y = concat(A, [[[1], [1]]], [1])
    expected = [(2.994, 4.006), (2.958, 4.042)]
    for t in range(2):
        slope, intercept = linear_coeffs(Y[t][0])
        assert slope == pytest.approx(expected[t][0], abs=1e-3)
        assert intercept == pytest.approx(expected[t][1], abs=1e-3)


def test_concat_zero_weights_leaves_bias():
    A = [[[as_scalar(3.0), as_scalar(4.0)]]]
    Y = concat(A, [[[0.0], [0.0]]], [5.0])
    assert Y[0][0].concrete == 5.0


def test_concat_two_heads_matches_flattened_dense_oracle():
    rng = np.random.default_rng(3)
    heads, seq_len, d_k, d_model = 2, 2, 2, 3
    A = rng.uniform(-1, 1, size=(heads, seq_len, d_k))
    w_o = rng.uniform(-1, 1, size=(heads, d_k, d_model))
    b_o = rng.uniform(-1, 1, size=d_model)
    got = concat([[[as_scalar(v) for v in row] for row in head] for head in A],
                 w_o.tolist(), b_o.tolist())
    # oracle: reshape heads-first to (seq_len, heads*d_k) and matrix-multiply
    flat = A.transpose(1, 0, 2).reshape(seq_len, heads * d_k)
    want = flat @ w_o.reshape(heads * d_k, d_model) + b_o
    for t in range(seq_len):
        for ell in range(d_model):
            assert got[t][ell].concrete == pytest.approx(want[t][ell], rel=1e-9)


# ---------------------------------------------------------------------------
# dense_forward
# ---------------------------------------------------------------------------


def test_dense_relu_negative_branch_forces_zero_and_event():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 2)
    x = [v - 3]  # <-1, v-3>
    out = dense_forward(x, [[1.0]], [0.0], "relu", ctx, depth=1, layer_index=0)
    assert out[0].concrete == 0.0 and out[0].sym is None
    assert len(ctx.events) == 1
    event = ctx.events[0]
    assert event.taken is False
    assert event.bypassed_predicate == event.guard  # v - 3 > 0
    assert event.assoc_neurons == (NeuronId(1, (0,)),)


def test_dense_identity_passthrough():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 0.5)
    out = dense_forward([v, as_scalar(2.0)],
                        [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], "none", ctx)
    assert out[0] == v  # same concrete value and same polynomial
    assert out[1].concrete == 2.0


def test_dense_matches_matvec_oracle():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=4)
    w = rng.uniform(-1, 1, size=(4, 3))
    b = rng.uniform(-1, 1, size=3)
    got = dense_forward([as_scalar(v) for v in x], w.tolist(), b.tolist())
    want = x @ w + b
    for j in range(3):
        assert got[j].concrete == pytest.approx(want[j], rel=1e-9)


def test_dense_relu_tie_takes_zero_branch():
    ctx = ExecutionContext()
    v = ctx.symvar("v", 1.0)
    out = dense_forward([v - 1], [[1.0]], [0.0], "relu", ctx, depth=1)
    assert out[0].concrete == 0.0 and out[0].sym is None


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_golden_model_events_and_label(golden_model):
    ctx = ExecutionContext()
    res = forward(golden_model, golden_input(ctx), ctx)
    rowmax_events = [e for e in res.events if e.layer_index == 0]
    argmax_events = [e for e in res.events if e.layer_index == 1]
    assert len(rowmax_events) == 2
    assert rowmax_events[0].assoc_neurons == (NeuronId(1, (0, 0)),)
    assert rowmax_events[1].assoc_neurons == (NeuronId(1, (1, 0)),)
    assert len(argmax_events) == 1
    assert set(argmax_events[0].assoc_neurons) == {NeuronId(1, (0, 0)),
                                                   NeuronId(1, (1, 0))}
    assert res.label == 0  # 9.99 vs 9.96 at v=2


def test_forward_flatten_only_concrete_input_has_no_events():
    model = ModelSpec((2, 2), (Flatten(),))
    res = forward(model, [[1.0, 2.0], [3.0, 4.0]])
    assert [s.concrete for s in res.logits] == [1.0, 2.0, 3.0, 4.0]
    assert res.events == ()
    assert res.label == 3


def test_forward_two_class_dense_emits_exactly_one_argmax_event():
    rng = np.random.default_rng(21)
    model = ModelSpec((3,), (Dense(weights=rng.uniform(-1, 1, (3, 2)).tolist(),
                                   bias=[0.0, 0.0]),))
    ctx = ExecutionContext()
    x = [ctx.symvar("p0", 0.4), as_scalar(0.5), as_scalar(0.6)]
    res = forward(model, x, ctx)
    assert len(res.events) == 1
    assert res.events[0].layer_index == 1
    assert len(res.events[0].assoc_neurons) == 2


def test_forward_concrete_mode_matches_numpy_reference():
    rng = np.random.default_rng(2)
    for trial in range(8):
        model = random_toy_model(rng, seq_len=3, d_model=2, heads=2, key_dim=2,
                                 classes=3, relu=bool(trial % 2))
        x = rng.uniform(0, 1, size=(3, 2))
        res = forward(model, x.tolist())
        ref = concrete_forward(model, x)
        got = np.array([s.concrete for s in res.logits])
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
        assert res.events == ()  # fully concrete runs emit nothing


def test_forward_event_sequence_is_deterministic(golden_model):
    def run():
        ctx = ExecutionContext()
        res = forward(golden_model, golden_input(ctx), ctx)
        return [(e.guard.key(), e.taken, e.assoc_neurons) for e in res.events]

    assert run() == run()


def test_forward_audit_mode_checks_coherence(golden_model):
    ctx = ExecutionContext(audit=True)
    forward(golden_model, golden_input(ctx), ctx)  # must not raise


# ---------------------------------------------------------------------------
# model spec plumbing
# ---------------------------------------------------------------------------


def test_model_shape_inference_and_class_count():
    model = ModelSpec((2, 2), (golden_mha_2x2(), Flatten(),
                               Dense(weights=[[1, 0]] * 4, bias=[0, 0]),
                               Reshape((2, 1))))
    assert model.shapes == ((2, 2), (2, 2), (4,), (2,), (2, 1))
    assert model.class_count == 2


def golden_mha_2x2() -> MultiHeadAttention:
    return MultiHeadAttention(
        num_heads=1, key_dim=1,
        w_q=[[[1.0]], [[0.5]]], b_q=[[0.0]],
        w_k=[[[1.0]], [[0.5]]], b_k=[[0.0]],
        w_v=[[[1.0]], [[0.5]]], b_v=[[0.0]],
        w_o=[[[1.0, 0.5]]], b_o=[0.0, 0.0],
    )


def test_model_rejects_mismatched_weights():
    with pytest.raises(ModelConfigError):
        ModelSpec((2, 1), (Dense(weights=[[1.0]], bias=[0.0]),))  # needs flatten
    with pytest.raises(ModelConfigError):
        ModelSpec((3,), (Dense(weights=[[1.0], [1.0]], bias=[0.0]),))
    with pytest.raises(ModelConfigError):
        ModelSpec((2, 1), (Reshape((3, 1)),))
    with pytest.raises(ModelConfigError):
        ModelSpec((2, 2), (MultiHeadAttention(
            num_heads=1, key_dim=1,
            w_q=[[[1.0]]], b_q=[[0.0]], w_k=[[[1.0]], [[1.0]]], b_k=[[0.0]],
            w_v=[[[1.0]], [[1.0]]], b_v=[[0.0]],
            w_o=[[[1.0, 1.0]]], b_o=[0.0, 0.0]),))


def test_model_json_round_trip(golden_model, tmp_path):
    doc = golden_model.to_json()
    clone = ModelSpec.from_json(json.loads(json.dumps(doc)))
    assert clone.shapes == golden_model.shapes
    x = np.array([[0.3], [0.6]])
    assert np.allclose(concrete_forward(clone, x), concrete_forward(golden_model, x))


def test_layer_weights_are_converted_once_read_only():
    model = random_toy_model(np.random.default_rng(3), seq_len=2, d_model=2, relu=True)
    attention, dense = model.layers[0], model.layers[-1]
    for layer, fields in ((attention, ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o")),
                          (dense, ("weights", "bias"))):
        assert layer.arrays is layer.arrays
        for name, array in zip(fields, layer.arrays):
            assert array.dtype == float and not array.flags.writeable
            assert array.tolist() == np.asarray(getattr(layer, name), dtype=float).tolist()
        copy = pickle.loads(pickle.dumps(layer))
        assert "arrays" not in vars(copy) and copy == layer
        assert not any(array.flags.writeable for array in copy.arrays)
    doc = json.dumps(model.to_json())
    assert json.dumps(ModelSpec.from_json(json.loads(doc)).to_json()) == doc


def readme_model_document() -> str:
    """The example model document of the README's "Model and data files"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Model and data files", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_model_round_trips_and_both_forward_paths_agree():
    text = readme_model_document()
    model = ModelSpec.from_json(json.loads(text))
    assert [type(layer) for layer in model.layers] == [MultiHeadAttention, Flatten, Dense,
                                                       Reshape]
    assert model.shapes == ((2, 1), (2, 1), (2,), (2,), (2, 1))
    assert json.dumps(model.to_json()) == json.dumps(json.loads(text))
    for x in (np.array([[0.3], [0.6]]), np.array([[0.9], [0.1]])):
        ctx = ExecutionContext()
        symbolic = make_symbolic_input(x, [0, 1], ctx)
        result = forward(model, symbolic, ctx)
        reference = concrete_forward(model, x)
        assert np.array([s.concrete for s in result.logits]).tolist() == reference.tolist()
        assert result.label == int(np.argmax(reference))


@pytest.mark.parametrize("doc", [
    [1, 2], None, {"layers": []}, {"input_shape": 2, "layers": []},
    {"input_shape": [1], "layers": 5}, {"input_shape": [1], "layers": [1]},
    {"input_shape": [1], "layers": [{"type": "conv"}]},
    {"input_shape": [1], "layers": [{"type": ["dense"]}]},
    {"input_shape": [1], "layers": [{"type": "dense", "weights": [[1.0]]}]},
    {"input_shape": [2], "layers": [{"type": "reshape", "target_shape": 5}]},
    {"input_shape": [2], "layers": [{"type": "reshape", "target_shape": ["a"]}]},
    {"input_shape": [1], "layers": [{"type": "mha", "num_heads": "one", "key_dim": 1,
                                     "w_q": 0, "b_q": 0, "w_k": 0, "b_k": 0,
                                     "w_v": 0, "b_v": 0, "w_o": 0, "b_o": 0}]},
])
def test_model_document_of_another_shape_is_a_config_error(doc):
    with pytest.raises(ModelConfigError):
        ModelSpec.from_json(doc)


def one_head(num_heads, key_dim) -> dict:
    """An attention layer document over one-wide tokens, with a single head
    of key dim 1 and these two entries."""
    w, b = [[[0.5]]], [[0.0]]
    return {"type": "mha", "num_heads": num_heads, "key_dim": key_dim, "w_q": w, "b_q": b,
            "w_k": w, "b_k": b, "w_v": w, "b_v": b, "w_o": w, "b_o": [0.0]}


@pytest.mark.parametrize("doc", [
    {"input_shape": [2.9], "layers": [{"type": "flatten"}]},
    {"input_shape": [2, 1.5], "layers": [{"type": "flatten"}]},
    {"input_shape": [math.inf], "layers": [{"type": "flatten"}]},
    {"input_shape": [2], "layers": [{"type": "reshape", "target_shape": [2.7]}]},
    {"input_shape": [2], "layers": [{"type": "reshape", "target_shape": [2, 1.2]}]},
    {"input_shape": [2, 1], "layers": [one_head(1.9, 1)]},
    {"input_shape": [2, 1], "layers": [one_head(1, 1.5)]},
])
def test_fractional_shape_entry_is_a_config_error(doc):
    # int() would truncate each of these to a shape that loads
    with pytest.raises(ModelConfigError, match="not a"):
        ModelSpec.from_json(doc)


@pytest.mark.parametrize("word", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("doc", [
    {"input_shape": [2], "layers": [{"type": "dense", "weights": [[1.0, 0.5], [12345.5, 0.25]],
                                     "bias": [0.0, 0.1]}]},
    {"input_shape": [2], "layers": [{"type": "dense", "weights": [[1.0, 0.5], [0.5, 0.25]],
                                     "bias": [0.0, 12345.5]}]},
    {"input_shape": [2, 1], "layers": [{**one_head(1, 1), "w_k": [[[12345.5]]]}]},
    {"input_shape": [2, 1], "layers": [{**one_head(1, 1), "b_o": [12345.5]}]},
], ids=["dense-weights", "dense-bias", "mha-w_k", "mha-b_o"])
def test_non_finite_weight_is_a_config_error(doc, word):
    # json reads these words as floats; a NaN weight made NaN logits
    text = json.dumps(doc).replace("12345.5", word)
    assert word in text
    with pytest.raises(ModelConfigError, match="finite"):
        ModelSpec.from_json(json.loads(text))


def test_whole_float_shape_entries_load_as_ints():
    model = ModelSpec.from_json({"input_shape": [2.0, 1], "layers": [
        one_head(1.0, 1.0), {"type": "reshape", "target_shape": [1.0, 2]}]})
    assert model.shapes == ((2, 1), (2, 1), (1, 2))
    assert (model.layers[0].num_heads, model.layers[0].key_dim) == (1, 1)
    with pytest.raises(ModelConfigError, match="not a whole number"):
        ModelSpec((2.5,), (Flatten(),))


@pytest.mark.parametrize("doc", [
    {"input_shape": [4], "layers": [
        {"type": "reshape", "target_shape": [-2, -2]}, {"type": "flatten"},
        {"type": "dense", "weights": [[1.0, -1.0]] * 4, "bias": [0.0, 0.1]}]},
    {"input_shape": [0], "layers": [{"type": "reshape", "target_shape": [0, 4]}]},
    {"input_shape": [2], "layers": [{"type": "dense", "weights": [[], []], "bias": []}]},
    {"input_shape": [2, -3], "layers": [{"type": "flatten"}]},
], ids=["reshape-to-negatives", "empty-input", "dense-of-width-0", "negative-input"])
def test_a_dimension_below_one_is_a_config_error(doc):
    # each loaded: a forward died in numpy's reshape or on a division by
    # zero, and [2, -3] loaded with a class_count of -6
    with pytest.raises(ModelConfigError, match="has a dimension below 1"):
        ModelSpec.from_json(doc)


def test_a_constructed_model_with_a_dimension_below_one_is_a_config_error():
    # the two -1s multiply to the input's size, so the reshape loaded
    with pytest.raises(ModelConfigError, match=r"layer 0: output shape \(-1, -1\) "):
        ModelSpec((1,), (Reshape((-1, -1)),))
    with pytest.raises(ModelConfigError, match=r"input_shape \(3, 0\) "):
        ModelSpec((3, 0), (Flatten(),))
    assert ModelSpec((1, 1), (Flatten(),)).class_count == 1


def reference_attention(layer: MultiHeadAttention, batch: np.ndarray) -> np.ndarray:
    """The attention layer as einsums over the batch, as the kernels' oracle."""
    wq, bq, wk, bk, wv, bv, wo, bo = (np.asarray(w, dtype=float) for w in (
        layer.w_q, layer.b_q, layer.w_k, layer.b_k, layer.w_v, layer.b_v, layer.w_o, layer.b_o))
    q = np.einsum("...tk,kij->...itj", batch, wq) + bq[:, None, :]
    k = np.einsum("...tk,kij->...itj", batch, wk) + bk[:, None, :]
    v = np.einsum("...tk,kij->...itj", batch, wv) + bv[:, None, :]
    scores = np.einsum("...tj,...uj->...tu", q, k) * (1.0 / math.sqrt(layer.key_dim))
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.einsum("...itj,ijl->...tl", np.einsum("...tu,...uj->...tj", probs, v), wo) + bo


@pytest.mark.parametrize("rows", [1, 7, 1024])
def test_attention_kernels_match_the_einsum_reference(rows):
    # relative to each output's largest value, as a sum of products that
    # cancels to near zero carries an absolute, not a relative, rounding error
    rng = np.random.default_rng(rows)
    for heads, seq_len, d_model, key_dim in itertools.product(
            range(1, 4), range(1, 6), range(1, 5), range(1, 4)):
        layer = random_toy_model(rng, seq_len, d_model, heads, key_dim).layers[0]
        batch = rng.uniform(0.0, 1.0, size=(rows, seq_len, d_model))
        got = apply_layer_concrete(layer, batch, (seq_len, d_model))
        want = reference_attention(layer, batch)
        assert got.shape == want.shape == (rows, seq_len, d_model)
        np.testing.assert_allclose(
            got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
            err_msg=f"heads={heads} seq_len={seq_len} d_model={d_model} key_dim={key_dim}")


def test_association_rules_cover_all_event_kinds():
    rng = np.random.default_rng(7)
    model = random_toy_model(rng, seq_len=2, d_model=1, relu=True)
    ctx = ExecutionContext()
    x = [[ctx.symvar("p0", 0.3)], [as_scalar(0.8)]]
    res = forward(model, x, ctx)
    for event in res.events:
        if event.layer_index == 0:       # attention rowmax: one output row
            (nid,) = event.assoc_neurons
            assert nid.layer == 1 and len(nid.index) == 2
        elif event.layer_index == 2:     # dense relu: single neuron
            assert len(event.assoc_neurons) == 1
            assert event.assoc_neurons[0].layer == 3
        else:                            # argmax ladder: all output neurons
            assert event.layer_index == 3
            assert len(event.assoc_neurons) == model.class_count
