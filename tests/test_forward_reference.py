"""The instrumented forward against the numpy reference.

Its concrete logits must equal ``concrete_forward``'s bit for bit and its
label ``concrete_label``'s, on random attention models and on inputs built to
sit exactly on a tie: two equal logits, or a ReLU pre-activation of exactly
zero.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attnconcolic.engine import make_symbolic_input
from attnconcolic.semantics import (
    Dense,
    Flatten,
    ModelSpec,
    MultiHeadAttention,
    concrete_forward,
    concrete_label,
    forward,
)
from attnconcolic.symexpr import ExecutionContext


def attention_model(rng, seq_len, d_model, heads, key_dim, layers, dense):
    def w(*shape):
        return rng.uniform(-1.5, 1.5, size=shape).tolist()

    attention = tuple(MultiHeadAttention(
        num_heads=heads, key_dim=key_dim,
        w_q=w(d_model, heads, key_dim), b_q=w(heads, key_dim),
        w_k=w(d_model, heads, key_dim), b_k=w(heads, key_dim),
        w_v=w(d_model, heads, key_dim), b_v=w(heads, key_dim),
        w_o=w(heads, key_dim, d_model), b_o=w(d_model)) for _ in range(layers))
    return ModelSpec((seq_len, d_model), attention + (Flatten(), dense))


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq_len, d_model = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    heads, key_dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    layers, classes = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    tie = draw(st.sampled_from(["none", "logits", "relu"]))
    relu = tie == "relu" or draw(st.booleans())
    width = seq_len * d_model
    weights = rng.uniform(-1.5, 1.5, size=(width, classes))
    bias = rng.uniform(-1.5, 1.5, size=classes)
    x = rng.uniform(0.0, 1.0, size=(seq_len, d_model))
    pixels = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2, unique=True))
    state = rng.bit_generator.state
    model = attention_model(rng, seq_len, d_model, heads, key_dim, layers,
                            Dense(weights.tolist(), bias.tolist()))
    if tie == "logits":  # logit 1 repeats logit 0 exactly
        weights[:, 1], bias[1] = weights[:, 0], bias[0]
    elif tie == "relu":  # pre-activation 0 reads one feature and subtracts it
        features = concrete_forward(model, x, upto_depth=layers + 1)
        i = draw(st.integers(0, width - 1))
        weights[:, 0] = 0.0
        weights[i, 0] = 1.0
        bias[0] = -features[i]
    rng.bit_generator.state = state  # the same attention weights again
    model = attention_model(rng, seq_len, d_model, heads, key_dim, layers,
                            Dense(weights.tolist(), bias.tolist(),
                                  "relu" if relu else "none"))
    return model, x, pixels, tie


@settings(max_examples=300, deadline=None)
@given(cases())
def test_forward_matches_reference_bit_for_bit(case):
    model, x, pixels, tie = case
    ctx = ExecutionContext(audit=True)
    result = forward(model, make_symbolic_input(x, pixels, ctx), ctx)
    reference = concrete_forward(model, x)
    assert [cell.concrete for cell in result.logits] == reference.tolist()
    assert result.label == concrete_label(model, x)
    if tie == "logits":
        assert result.logits[1].concrete == result.logits[0].concrete
        assert result.label != 1
    elif tie == "relu":
        assert result.logits[0].concrete == 0.0 and result.logits[0].sym is None
