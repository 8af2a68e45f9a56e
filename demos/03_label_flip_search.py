"""Search for one-pixel label flips, comparing queue disciplines.

Each run alternates a concolic forward pass with constraint solving: bypassed
branches become work items, the scheduler picks the next one, SAT solutions
become the next concrete input, and any flip is re-executed concretely before
being reported.  The in-process grid backend keeps the demo self-contained; in
production point the engine at a real SMT solver process.
"""

import numpy as np

from attnconcolic.engine import Scheduler, run_attack
from attnconcolic.influence import BackgroundSet, build_influence_map
from attnconcolic.semantics import Dense, Flatten, ModelSpec, MultiHeadAttention, forward
from attnconcolic.solver import GridOracle

rng = np.random.default_rng(3)


def rand(*shape):
    return rng.uniform(-1.5, 1.5, size=shape).tolist()


def fresh_model():
    return ModelSpec((2, 1), (
        MultiHeadAttention(num_heads=1, key_dim=2,
                           w_q=rand(1, 1, 2), b_q=rand(1, 2),
                           w_k=rand(1, 1, 2), b_k=rand(1, 2),
                           w_v=rand(1, 1, 2), b_v=rand(1, 2),
                           w_o=rand(1, 2, 1), b_o=rand(1)),
        Flatten(),
        Dense(weights=rand(2, 2), bias=rand(2)),
    ))


print(f"{'strategy':<10} {'outcome':<10} {'iter':>4} {'sat':>4} {'unsat':>6} "
      f"{'gen':>4} {'sol':>4}  adversarial pixel")
backend = GridOracle(resolution=1024)
schedulers = {"fifo": Scheduler.fifo(), "pq": Scheduler.pq(),
              "pq-layers": Scheduler.pq_layers()}

found = 0
for trial in range(12):
    model = fresh_model()
    seed = rng.uniform(0, 1, size=(2, 1))
    background = BackgroundSet(rng.uniform(0, 1, size=(6, 2, 1)), seed=trial)
    influence = build_influence_map(model, background, seed)
    best_pixel = max((nid for nid, _ in influence.items() if nid.layer == 0),
                     key=lambda nid: influence[nid])
    pixel = int(np.ravel_multi_index(best_pixel.index, model.shapes[0]))
    for name, scheduler in schedulers.items():
        result = run_attack(model, influence, seed, [pixel],
                            scheduler=scheduler, wall_budget_s=5.0,
                            backend=backend)
        stats = result.stats
        adv = ""
        if result.adversarial is not None:
            value = result.adversarial.reshape(-1)[pixel]
            adv = (f"p{pixel}: {seed.reshape(-1)[pixel]:.3f} -> {value:.3f} "
                   f"(class {result.original_label} -> {result.flipped_label})")
            # the engine already re-executed; check once more for the skeptical
            assert forward(model, result.adversarial).label != result.original_label
            found += 1
        print(f"{name:<10} {stats.outcome:<10} {stats.iterations:>4} "
              f"{stats.sat:>4} {stats.unsat:>6} {stats.generated_constraints:>4} "
              f"{stats.solved_constraints:>4}  {adv}")

print(f"\n{found} validated flips across the sweep; "
      "every success above was confirmed by concrete re-execution.")
