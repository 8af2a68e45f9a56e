"""Walk a tiny single-head attention layer under concolic semantics.

The input holds one symbolic pixel v (seeded at 2); every stage below prints
the concrete value next to the symbolic expression that travels with it, and
the branch events recorded where the softmax max-scan compared symbolic
scores.
"""

import math

from attnconcolic.semantics import (ModelSpec, MultiHeadAttention, attention_scores, concat, dpa,
                                    forward, stable_softmax, tas)
from attnconcolic.symexpr import ExecutionContext, as_scalar, to_infix

layer = MultiHeadAttention(
    num_heads=1, key_dim=2,
    w_q=[[[1, 1]]], b_q=[[1, 1]],
    w_k=[[[2, 1]]], b_k=[[2, 1]],
    w_v=[[[1, 2]]], b_v=[[1, 2]],
    w_o=[[[1], [1]]], b_o=[1],
)


def show(title, matrix):
    print(f"\n{title}")
    for row in matrix:
        cells = []
        for cell in row:
            sym = to_infix(cell.sym) if cell.sym is not None else "-"
            cells.append(f"<{cell.concrete:.6g}, {sym}>")
        print("  [" + ", ".join(cells) + "]")


ctx = ExecutionContext()
x = [[ctx.symvar("v", 2)], [as_scalar(1)]]
print("input:", [[f"<2, v>"], ["1"]])

Q = tas(x, layer.w_q, layer.b_q)
K = tas(x, layer.w_k, layer.b_k)
V = tas(x, layer.w_v, layer.b_v)
show("Q = tas(x, W_Q, B_Q)", Q[0])
show("K = tas(x, W_K, B_K)", K[0])
show("V = tas(x, W_V, B_V)", V[0])

S = attention_scores(Q[0], K[0])
show("unscaled scores Q K^T", S)

r = 1 / math.sqrt(layer.key_dim)
scaled = [[entry * r for entry in row] for row in S]
probs = stable_softmax([list(row) for row in scaled], ctx)
show("softmax (exp arguments concretized, rows now plain numbers)", probs)

A = dpa(Q, K, V, ExecutionContext(), out_width=1, depth=1, layer_index=0)
show("attention = softmax(S / sqrt(d_k)) V", A[0])

Y = concat(A, layer.w_o, layer.b_o)
show("concat + output projection", Y)

print("\nbranch events recorded by the max-scan:")
for event in ctx.events:
    arrow = "taken" if event.taken else "not taken"
    print(f"  guard [{event.guard.to_infix()}] {arrow}; "
          f"bypassed branch pushes [{event.bypassed_predicate.to_infix()}]")

model = ModelSpec((2, 1), (layer,))
result = forward(model, [[2.0], [1.0]])
print(f"\nconcrete forward at the seed picks class {result.label} "
      f"(logits {[round(s.concrete, 4) for s in result.logits]})")
