"""Relevance matrices as one array per depth, and the rankings read off them."""

from __future__ import annotations

import math

import numpy as np
import pytest

from attnconcolic.acdp import (
    RelevanceMatrix,
    abstract_path,
    critical_neurons,
    critical_path,
    relevance,
)
from attnconcolic.influence import BackgroundSet
from attnconcolic.symexpr import NeuronId

from conftest import random_toy_model


def test_relevance_depth_arrays_own_their_data():
    # 4 tokens of width 3: the input and attention grids are 2-D, the flatten 1-D
    rng = np.random.default_rng(4)
    model = random_toy_model(rng, seq_len=4, d_model=3, heads=2, classes=5, relu=True)
    background = BackgroundSet(rng.uniform(0, 1, (6, 4, 3)))
    matrix = relevance(model, background, rng.uniform(0, 1, (4, 3)))
    assert matrix.layers() == list(range(model.output_depth))
    for depth, grid in matrix.grids.items():
        assert grid.shape == model.shapes[depth]
        assert grid.dtype == np.float64 and grid.nbytes == 8 * grid.size
        assert grid.base is None and grid.flags.owndata and grid.flags.c_contiguous
        assert not grid.flags.writeable


# ---------------------------------------------------------------------------
# rankings against the rule on a dict
# ---------------------------------------------------------------------------


def _reference_critical(values: dict, layer: int, alpha: float) -> set[NeuronId]:
    entries = [(nid, val) for nid, val in values.items() if nid.layer == layer]
    cap = int(math.floor(alpha * len(entries) + 1e-9))
    ranked = sorted(entries, key=lambda kv: (-kv[1], kv[0].index))
    return {nid for nid, val in ranked[:cap] if val > 0.0}


def _reference_path(values: dict, alpha: float) -> set[NeuronId]:
    path: set[NeuronId] = set()
    for layer in {nid.layer for nid in values}:
        path |= _reference_critical(values, layer, alpha)
    return path


def _random_values(rng: np.random.Generator) -> dict[NeuronId, float]:
    """1 to 3 depths of 1-D or 2-D grids, their values drawn from a few ties,
    exact zeros of both signs and uniform draws, in shuffled key order."""
    pool = [0.5, 0.25, 0.0, -0.0, -0.25]
    values = {}
    for layer in rng.permutation(int(rng.integers(1, 4))).tolist():
        shape = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 3))))
        indices = list(np.ndindex(*shape))
        for k in rng.permutation(len(indices)).tolist():
            draw = rng.uniform(-1, 1) if rng.random() < 0.4 else pool[rng.integers(len(pool))]
            values[NeuronId(layer, indices[k])] = float(draw)
    return values


@pytest.mark.parametrize("seed", range(4))
def test_rankings_match_the_rule_on_a_dict(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        suite = [_random_values(rng) for _ in range(int(rng.integers(1, 6)))]
        matrices = [RelevanceMatrix(values, 0) for values in suite]
        alpha = float(rng.choice([0.1, 0.25, 1 / 3, 0.5, 1.0, rng.uniform(0.05, 1.0)]))
        beta = float(rng.choice([0.0, 0.2, 0.5, rng.uniform(0.0, 0.99)]))
        for values, matrix in zip(suite, matrices):
            for layer in {nid.layer for nid in values} | {7}:
                assert critical_neurons(matrix, layer, alpha) == \
                    _reference_critical(values, layer, alpha)
            assert critical_path(matrix, alpha) == _reference_path(values, alpha)
        report = abstract_path([("x", m) for m in matrices], alpha, beta)
        universe = set().union(*suite)
        counts = {nid: sum(nid in _reference_path(values, alpha) for values in suite)
                  for nid in universe}
        assert report.weights == {nid: c / len(suite) for nid, c in counts.items()}
        assert report.members == {nid for nid, c in counts.items() if c / len(suite) > beta}
        per_layer: dict[int, int] = {}
        for nid in report.members:
            per_layer[nid.layer] = per_layer.get(nid.layer, 0) + 1
        assert report.per_layer_counts == per_layer


def test_negative_zero_is_not_positive_and_ties_go_to_the_lower_index():
    matrix = RelevanceMatrix({NeuronId(0, (i, j)): val for (i, j), val in zip(
        np.ndindex(2, 3), [-0.0, 0.5, 0.0, 0.5, -0.0, 0.5])}, 1)
    assert critical_neurons(matrix, 0, 1 / 3) == {NeuronId(0, (0, 1)), NeuronId(0, (1, 0))}
    assert critical_neurons(matrix, 0, 1.0) == \
        {NeuronId(0, (0, 1)), NeuronId(0, (1, 0)), NeuronId(0, (1, 2))}
    assert math.copysign(1.0, matrix[NeuronId(0, (0, 0))]) == -1.0


# ---------------------------------------------------------------------------
# building from a dict
# ---------------------------------------------------------------------------


def test_a_complete_mapping_round_trips_through_values():
    rng = np.random.default_rng(21)
    for _ in range(20):
        values = _random_values(rng)
        matrix = RelevanceMatrix(values, 3)
        assert matrix.predicted_class == 3
        assert matrix.values == values
        assert list(matrix.values) == sorted(values)  # by depth, then C order
        assert all(type(val) is float for val in matrix.values.values())
        for layer in matrix.layers():
            assert matrix.layer_items(layer) == sorted(
                (kv for kv in values.items() if kv[0].layer == layer), key=lambda kv: kv[0])
        for nid, val in values.items():
            assert matrix[nid] == val and type(matrix[nid]) is float


@pytest.mark.parametrize("keys", [
    [(0, (0,)), (1, (0,)), (1, (2,))],            # a hole in a 1-D grid
    [(0, (0,)), (1, (0, 0)), (1, (0, 1)), (1, (1, 0))],  # a 2-D grid short a corner
    [(0, (0,)), (1, (-1,)), (1, (0,))],           # a negative index
    [(0, (0,)), (1, (0,)), (1, (0, 1))],          # indices of two lengths
    [(0, (0,)), (1, ())],                         # no axis
])
def test_an_incomplete_mapping_is_a_value_error_naming_the_depth(keys):
    values = {NeuronId(layer, index): 0.5 for layer, index in keys}
    with pytest.raises(ValueError, match="depth 1 "):
        RelevanceMatrix(values, 0)


@pytest.mark.parametrize("neuron", [
    NeuronId(0, (2,)), NeuronId(0, (-1,)), NeuronId(0, (0, 0)), NeuronId(0, ()),
    NeuronId(1, (0,)),
])
def test_a_neuron_outside_the_grids_is_a_key_error(neuron):
    matrix = RelevanceMatrix({NeuronId(0, (0,)): 0.25, NeuronId(0, (1,)): 0.75}, 0)
    with pytest.raises(KeyError):
        matrix[neuron]
    assert matrix.layer_items(1) == [] and critical_neurons(matrix, 1, 1.0) == set()
