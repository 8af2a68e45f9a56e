"""Rank every neuron of a small classifier by Shapley influence.

The influence of a neuron is the mean absolute Shapley value of that neuron
toward all output logits, computed on the submodel that starts right after it.
Along the way we check the two sanity properties that make the ranking
trustworthy: efficiency (values sum to v(all) - v(empty)) and the dummy rule
(disconnected neurons score zero).
"""

import numpy as np

from attnconcolic.influence import BackgroundSet, build_influence_map, shap_matrix
from attnconcolic.semantics import Dense, Flatten, ModelSpec, MultiHeadAttention, concrete_forward

rng = np.random.default_rng(7)


def rand(*shape):
    return rng.uniform(-1.2, 1.2, size=shape).tolist()


model = ModelSpec((3, 1), (
    MultiHeadAttention(num_heads=1, key_dim=2,
                       w_q=rand(1, 1, 2), b_q=rand(1, 2),
                       w_k=rand(1, 1, 2), b_k=rand(1, 2),
                       w_v=rand(1, 1, 2), b_v=rand(1, 2),
                       w_o=rand(1, 2, 1), b_o=rand(1)),
    Flatten(),
    Dense(weights=rand(3, 3), bias=rand(3)),
))

seed = rng.uniform(0, 1, size=(3, 1))
background = BackgroundSet(rng.uniform(0, 1, size=(8, 3, 1)), seed=0)

matrix = shap_matrix(model, background.inputs, seed, method="exact")
v_all = concrete_forward(model, seed)
v_none = concrete_forward(model, background.inputs.mean(axis=0))
print("efficiency check: sum of attributions vs v(all) - v(empty)")
print("   ", np.round(matrix.sum(axis=0), 6), "vs", np.round(v_all - v_none, 6))

influence = build_influence_map(model, background, seed)
print("\nper-layer summary (count / min / max / mean):")
for layer, (count, lo, hi, mean) in influence.layer_summary().items():
    print(f"  depth {layer}: {count:3d} neurons   "
          f"{lo:.5f} / {hi:.5f} / {mean:.5f}")

ranked = sorted(influence.items(), key=lambda kv: -kv[1])
print("\nten most influential neurons (depth 0 = input pixels):")
for nid, value in ranked[:10]:
    print(f"  {nid.key():<8} influence {value:.5f}")
print("\nthe most influential input pixel is what the attack perturbs first.")
