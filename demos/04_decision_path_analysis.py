"""Aggregate a batch of adversarial inputs into an abstract critical decision
path.

For every adversarial input we compute the signed relevance of each non-output
neuron toward the class the model predicts, keep the top alpha-fraction of
positively relevant neurons per layer, and then look for neurons that stay
critical across more than a beta-fraction of the whole suite.  The class-pair
histogram and its entropy summarize how scattered the attacks are.
"""

import numpy as np

from attnconcolic.acdp import abstract_path, relevance
from attnconcolic.engine import run_attack
from attnconcolic.influence import BackgroundSet, build_influence_map
from attnconcolic.semantics import Dense, Flatten, ModelSpec, MultiHeadAttention
from attnconcolic.solver import GridOracle

rng = np.random.default_rng(11)


def rand(*shape):
    return rng.uniform(-1.6, 1.6, size=shape).tolist()


def fresh_model() -> ModelSpec:
    return ModelSpec((2, 1), (
        MultiHeadAttention(num_heads=1, key_dim=2,
                           w_q=rand(1, 1, 2), b_q=rand(1, 2),
                           w_k=rand(1, 1, 2), b_k=rand(1, 2),
                           w_v=rand(1, 1, 2), b_v=rand(1, 2),
                           w_o=rand(1, 2, 1), b_o=rand(1)),
        Flatten(),
        Dense(weights=rand(2, 3), bias=rand(3)),
    ))


print("attacking random seeds until one model yields a suite of flips...")
model = fresh_model()
background = BackgroundSet(rng.uniform(0, 1, size=(8, 2, 1)), seed=0)
suite = []
pairs = []
attempts = 0
while len(suite) < 6 and attempts < 200:
    attempts += 1
    if attempts % 25 == 0 and not suite:  # dud model, draw another
        model = fresh_model()
    seed = rng.uniform(0, 1, size=(2, 1))
    influence = build_influence_map(model, background, seed)
    best_pixel = max((nid for nid, _ in influence.items() if nid.layer == 0),
                     key=lambda nid: influence[nid])
    pixel = int(np.ravel_multi_index(best_pixel.index, model.shapes[0]))
    result = run_attack(model, influence, seed, [pixel], wall_budget_s=3.0,
                        backend=GridOracle(1024))
    if result.stats.outcome != "success":
        continue
    matrix = relevance(model, background, result.adversarial)
    suite.append((result.adversarial, matrix))
    pairs.append((result.original_label, result.flipped_label))
    print(f"  flip #{len(suite)}: class {result.original_label} -> "
          f"{result.flipped_label} after {result.stats.iterations} iterations")

if not suite:
    raise SystemExit("no flips found; re-run with a different rng seed")

for beta in (0.2, 0.5):
    report = abstract_path(suite, alpha=0.6, beta=beta, label_pairs=pairs)
    members = ", ".join(sorted(nid.key() for nid in report.members)) or "(none)"
    print(f"\nalpha=0.6 beta={beta}: {len(report.members)} neurons critical for "
          f"more than {int(beta * 100)}% of {report.suite_size} inputs")
    print(f"  members: {members}")

report = abstract_path(suite, alpha=0.6, beta=0.5, label_pairs=pairs)
print("\nclass-pair histogram:", {f"{a}->{b}": c
                                  for (a, b), c in report.pair_histogram.items()})
print(f"pair entropy: {report.entropy_bits:.3f} bits "
      f"(upper bound for {len(report.pair_histogram)} distinct pairs: "
      f"{np.log2(max(len(report.pair_histogram), 1)):.3f})")
print("\nhigh-weight neurons are shared decision logic: candidates for "
      "repair, regularization, or search bias in future attacks.")
