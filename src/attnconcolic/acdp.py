"""Critical-decision-path analysis over suites of adversarial inputs.

Relevance is the signed Shapley attribution of each non-output neuron toward
the class the model actually predicts for an input.  Per layer, the top
alpha-fraction of positively relevant neurons are "critical"; neurons critical
for more than a beta-fraction of a suite form its abstract critical decision
path.  A class-pair histogram with Shannon entropy summarizes how the attacks
spread over (original, attacked) label pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .influence import BackgroundSet, depth_activations, shap_matrix
from .semantics import ModelSpec, concrete_forward
from .symexpr import NeuronId

__all__ = [
    "ACDPReport",
    "RelevanceMatrix",
    "abstract_path",
    "critical_neurons",
    "critical_path",
    "pair_entropy",
    "relevance",
]

# absorbs binary float error in alpha * layer_size before flooring
_CAP_EPS = 1e-9


@dataclass
class RelevanceMatrix:
    """Signed per-neuron relevance toward the predicted class of one input."""

    values: dict[NeuronId, float]
    predicted_class: int

    def __getitem__(self, neuron: NeuronId) -> float:
        return self.values[neuron]

    def layers(self) -> list[int]:
        return sorted({nid.layer for nid in self.values})

    def layer_items(self, layer: int) -> list[tuple[NeuronId, float]]:
        return sorted(((nid, val) for nid, val in self.values.items()
                       if nid.layer == layer), key=lambda kv: kv[0].index)


def relevance(model: ModelSpec, background: BackgroundSet, x,
              *, n_permutations: int = 128) -> RelevanceMatrix:
    """Signed Shapley attribution of every non-output neuron toward the class
    the model predicts at ``x``."""
    logits = concrete_forward(model, np.asarray(x, dtype=float))
    predicted = int(np.argmax(logits))
    values: dict[NeuronId, float] = {}
    out_depth = model.output_depth
    for depth, x_l, bg_l in depth_activations(model, background, x):
        if depth == out_depth:
            break
        subnet = model.tail(depth)
        matrix = shap_matrix(subnet, bg_l, x_l[0], n_permutations=n_permutations,
                             seed=(background.seed, depth))
        for flat, nid in enumerate(model.neuron_ids(depth)):
            values[nid] = float(matrix[flat, predicted])
    return RelevanceMatrix(values, predicted)


def _layer_cap(alpha: float, layer_size: int) -> int:
    return int(math.floor(alpha * layer_size + _CAP_EPS))


def critical_neurons(matrix: RelevanceMatrix, layer: int, alpha: float) -> set[NeuronId]:
    """The at-most floor(alpha * |layer|) neurons of highest positive
    relevance; ties at the cutoff go to the lower neuron index."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    entries = matrix.layer_items(layer)
    cap = _layer_cap(alpha, len(entries))
    ranked = sorted(entries, key=lambda kv: (-kv[1], kv[0].index))
    return {nid for nid, val in ranked[:cap] if val > 0.0}


def critical_path(matrix: RelevanceMatrix, alpha: float) -> set[NeuronId]:
    """Union of the critical neurons over all non-output layers."""
    path: set[NeuronId] = set()
    for layer in matrix.layers():
        path |= critical_neurons(matrix, layer, alpha)
    return path


def pair_entropy(histogram: Mapping[tuple[int, int], int]) -> float:
    """Shannon entropy (bits) of the normalized class-pair histogram."""
    total = sum(histogram.values())
    if total <= 0:
        raise ValueError("histogram must have positive total count")
    entropy = 0.0
    for count in histogram.values():
        if count > 0:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


@dataclass
class ACDPReport:
    """Aggregated critical-decision-path summary for a suite of inputs."""

    alpha: float
    beta: float
    suite_size: int
    weights: dict[NeuronId, float]
    members: set[NeuronId]
    per_layer_counts: dict[int, int]
    pair_histogram: dict[tuple[int, int], int] = field(default_factory=dict)
    entropy_bits: Optional[float] = None

    def to_json(self, weights_csv_path: str = "") -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "suite_size": self.suite_size,
            "members": sorted(nid.key() for nid in self.members),
            "per_layer_counts": {str(k): v for k, v in sorted(self.per_layer_counts.items())},
            "weights": weights_csv_path,
            "pair_histogram": {f"{a}->{b}": c
                               for (a, b), c in sorted(self.pair_histogram.items())},
            "entropy_bits": self.entropy_bits,
        }


def abstract_path(suite: Sequence[tuple[object, RelevanceMatrix]], alpha: float,
                  beta: float,
                  label_pairs: Optional[Sequence[tuple[int, int]]] = None) -> ACDPReport:
    """Neurons critical for more than a beta-fraction of the suite.

    ``w(n) = |{x : n in cdp(x | alpha)}| / |suite|``; membership is strict
    ``w(n) > beta``.  When (original, attacked) label pairs accompany the
    suite, the report carries their histogram and its entropy in bits.
    """
    if not suite:
        raise ValueError("suite must be non-empty")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    counts: dict[NeuronId, int] = {}
    universe: set[NeuronId] = set()
    for _, matrix in suite:
        universe.update(matrix.values.keys())
        for nid in critical_path(matrix, alpha):
            counts[nid] = counts.get(nid, 0) + 1
    n = len(suite)
    weights = {nid: counts.get(nid, 0) / n for nid in universe}
    members = {nid for nid, w in weights.items() if w > beta}
    per_layer: dict[int, int] = {}
    for nid in members:
        per_layer[nid.layer] = per_layer.get(nid.layer, 0) + 1

    histogram: dict[tuple[int, int], int] = {}
    entropy: Optional[float] = None
    if label_pairs is not None:
        if len(label_pairs) != n:
            raise ValueError("one (original, attacked) pair per suite entry required")
        for pair in label_pairs:
            key = (int(pair[0]), int(pair[1]))
            histogram[key] = histogram.get(key, 0) + 1
        entropy = pair_entropy(histogram)
    return ACDPReport(
        alpha=alpha, beta=beta, suite_size=n, weights=weights, members=members,
        per_layer_counts=per_layer, pair_histogram=histogram, entropy_bits=entropy)
