"""Critical-decision-path analysis over suites of adversarial inputs.

Relevance is the signed Shapley attribution of each non-output neuron toward
the class the model actually predicts for an input, held as one float64 array
per depth, shaped like its neuron grid.  Per layer, the top
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

# shap_matrix stays a name of this module: bench/tracing.py patches it
from .influence import DEFAULT_PERMUTATIONS, BackgroundSet, depth_shap, shap_matrix  # noqa: F401
from .semantics import ModelSpec, concrete_label
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


def _frozen(values, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 copy of ``values`` in C order, shaped ``shape``."""
    grid = np.array(np.reshape(values, shape), dtype=float)
    grid.flags.writeable = False
    return grid


class RelevanceMatrix:
    """Signed per-neuron relevance toward the predicted class of one input:
    ``grids[depth]`` is a read-only float64 array shaped like that depth's
    neuron grid, 8 bytes a neuron.

    ``RelevanceMatrix(values, predicted_class)`` builds it from a dict of
    :class:`NeuronId` to relevance; each depth's indices must fill a C-order
    grid of at least one axis, else ValueError naming the depth.
    """

    __slots__ = ("grids", "predicted_class")

    def __init__(self, values: Mapping[NeuronId, float], predicted_class: int) -> None:
        by_depth: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for nid, val in values.items():
            by_depth.setdefault(nid.layer, []).append((nid.index, val))
        grids = {}
        for depth, entries in sorted(by_depth.items()):
            indices, vals = zip(*sorted(entries))  # indices are distinct: values never compared
            shape = tuple(max(axis) + 1 for axis in zip(*indices))
            if not shape or list(indices) != list(np.ndindex(*shape)):
                raise ValueError(f"relevance of depth {depth} does not fill a C-order grid")
            grids[depth] = _frozen(vals, shape)
        self.grids = grids
        self.predicted_class = predicted_class

    @property
    def values(self) -> dict[NeuronId, float]:
        """Every neuron's relevance, by depth and then index (built on each call)."""
        return {nid: val for layer in self.grids for nid, val in self.layer_items(layer)}

    def __getitem__(self, neuron: NeuronId) -> float:
        grid = self.grids.get(neuron.layer)
        if grid is None or len(neuron.index) != grid.ndim or \
                not all(0 <= i < n for i, n in zip(neuron.index, grid.shape)):
            raise KeyError(neuron)
        return float(grid[neuron.index])

    def layers(self) -> list[int]:
        return sorted(self.grids)

    def layer_items(self, layer: int) -> list[tuple[NeuronId, float]]:
        grid = self.grids.get(layer)
        if grid is None:
            return []
        return [(NeuronId(layer, index), val)
                for index, val in zip(np.ndindex(*grid.shape), grid.ravel().tolist())]


def relevance(model: ModelSpec, background: BackgroundSet, x,
              *, n_permutations: int = DEFAULT_PERMUTATIONS) -> RelevanceMatrix:
    """Signed Shapley attribution of every non-output neuron toward the class
    the model predicts at ``x``: per depth, a copy of the predicted-class
    column of its Shapley matrix, shaped like its neuron grid."""
    matrix = RelevanceMatrix({}, concrete_label(model, x))
    for depth, shap in depth_shap(model, background, x, n_permutations=n_permutations):
        if depth < model.output_depth:
            matrix.grids[depth] = _frozen(shap[:, matrix.predicted_class], model.shapes[depth])
    return matrix


def _layer_cap(alpha: float, layer_size: int) -> int:
    return int(math.floor(alpha * layer_size + _CAP_EPS))


def critical_neurons(matrix: RelevanceMatrix, layer: int, alpha: float) -> set[NeuronId]:
    """The at-most floor(alpha * |layer|) neurons of highest positive
    relevance; ties at the cutoff go to the lower neuron index."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    grid = matrix.grids.get(layer)
    if grid is None:
        return set()
    flat = grid.ravel()
    ranked = np.argsort(-flat, kind="stable")[:_layer_cap(alpha, flat.size)]
    chosen = np.unravel_index(ranked[flat[ranked] > 0.0], grid.shape)
    return {NeuronId(layer, index) for index in zip(*(axis.tolist() for axis in chosen))}


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
    shapes: set[tuple[int, tuple[int, ...]]] = set()
    for _, matrix in suite:
        shapes.update((depth, grid.shape) for depth, grid in matrix.grids.items())
        for nid in critical_path(matrix, alpha):
            counts[nid] = counts.get(nid, 0) + 1
    n = len(suite)
    universe = {NeuronId(depth, index) for depth, shape in shapes for index in np.ndindex(*shape)}
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
