"""Shapley-value attribution of neurons and branch-influence aggregation.

The value function of a coalition is the submodel's logit vector at a blended
input: coalition members keep the probe input's values, everyone else is set
to the background-set mean.  Small inputs are scored by exact enumeration over
all coalitions; larger ones by seeded permutation sampling.
"""

from __future__ import annotations

import json
import logging
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .semantics import ModelSpec, apply_layer_concrete, concrete_forward
from .symexpr import BranchEvent, NeuronId

__all__ = [
    "BackgroundSet",
    "ConfigurationError",
    "InfluenceMap",
    "MissingInfluenceError",
    "branch_influence",
    "build_influence_map",
    "shap_matrix",
    "shapley",
]

EXACT_FEATURE_LIMIT = 12
DEFAULT_PERMUTATIONS = 128
# Coalitions per forward pass.  The estimators evaluate their coalitions in
# chunks of whole permutations (or of single coalitions, for exact
# enumeration) up to this many rows, so a map's peak memory does not grow
# with n_permutations x features.
_COALITION_ROWS = 1024

_log = logging.getLogger("attnconcolic")


class ConfigurationError(ValueError):
    """Ill-formed attribution inputs (empty background, bad feature index)."""


class MissingInfluenceError(KeyError):
    """A branch event references a neuron absent from the influence map."""


@dataclass(frozen=True)
class BackgroundSet:
    """Reference inputs defining the absent-feature baseline, plus the RNG
    seed used by the sampling estimator."""

    inputs: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.inputs, dtype=float)
        if arr.ndim < 1 or arr.shape[0] == 0:
            raise ConfigurationError("background set must be non-empty")
        object.__setattr__(self, "inputs", arr)

    def conforming(self, input_shape: tuple[int, ...]) -> np.ndarray:
        if self.inputs.shape[1:] != input_shape:
            raise ConfigurationError(
                f"background inputs have shape {self.inputs.shape[1:]}, "
                f"model expects {input_shape}")
        return self.inputs


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _coalition_logits(subnet: ModelSpec, x_flat: np.ndarray, baseline_flat: np.ndarray,
                      masks: np.ndarray) -> np.ndarray:
    blended = np.where(masks, x_flat, baseline_flat)
    batch = blended.reshape((-1,) + subnet.shapes[0])
    return concrete_forward(subnet, batch)


def _chunked_logits(subnet: ModelSpec, x_flat: np.ndarray, baseline_flat: np.ndarray,
                    units: np.ndarray, unit_rows: int, masks_of):
    """Yield ``(chunk, logits)`` over consecutive chunks of ``units``, where
    ``masks_of(chunk)`` gives ``unit_rows`` coalition masks per unit.  A chunk
    holds as many whole units as fit in ``_COALITION_ROWS`` rows, and at least
    one, so memory stays bounded whatever the feature count."""
    step = max(1, _COALITION_ROWS // unit_rows)
    for start in range(0, len(units), step):
        chunk = units[start:start + step]
        yield chunk, _coalition_logits(subnet, x_flat, baseline_flat, masks_of(chunk))


def _permutation_masks(perms: np.ndarray) -> np.ndarray:
    """The (permutations x (d+1) x d) coalitions along each permutation: row
    ``j`` holds the permutation's first ``j`` features, so a feature is in
    it when its rank in the permutation is below ``j``."""
    ranks = np.argsort(perms, axis=1)
    return ranks[:, None, :] < np.arange(perms.shape[1] + 1)[:, None]


def _exact_matrix(subnet: ModelSpec, x_flat, baseline_flat) -> np.ndarray:
    d = x_flat.size
    bits = np.arange(1 << d, dtype=np.int64)
    shifts = np.arange(d)
    values = np.concatenate([logits for _, logits in _chunked_logits(
        subnet, x_flat, baseline_flat, bits, 1,
        lambda chunk: ((chunk[:, None] >> shifts) & 1) == 1)])
    popcount = np.zeros(bits.size, dtype=np.int64)
    for i in range(d):
        popcount += (bits >> i) & 1
    fact = [math.factorial(s) for s in range(d + 1)]
    weights = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    phi = np.zeros((d, subnet.class_count))
    for i in range(d):
        without = bits[((bits >> i) & 1) == 0]
        gains = values[without | (1 << i)] - values[without]
        phi[i] = (weights[popcount[without], None] * gains).sum(axis=0)
    return phi


def _permutation_matrix(subnet: ModelSpec, x_flat, baseline_flat,
                        n_permutations: int, rng: np.random.Generator) -> np.ndarray:
    d = x_flat.size
    perms = np.array([rng.permutation(d) for _ in range(n_permutations)])
    phi = np.zeros((d, subnet.class_count))
    for chunk, logits in _chunked_logits(
            subnet, x_flat, baseline_flat, perms, d + 1,
            lambda chunk: _permutation_masks(chunk).reshape(-1, d)):
        values = logits.reshape(len(chunk), d + 1, subnet.class_count)
        gains = values[:, 1:] - values[:, :-1]
        for perm, gain in zip(chunk, gains):
            phi[perm] += gain
    return phi / n_permutations


def shap_matrix(subnet: ModelSpec, background_inputs: np.ndarray, x: np.ndarray,
                *, method: str = "auto", n_permutations: int = DEFAULT_PERMUTATIONS,
                seed: Union[int, tuple[int, ...]] = 0) -> np.ndarray:
    """Shapley values of every flat input feature for every output logit.

    Returns a (features x outputs) array.  ``method`` is ``"exact"``,
    ``"permutation"``, or ``"auto"`` (exact up to 12 features).
    """
    x_flat = np.asarray(x, dtype=float).reshape(-1)
    bg = np.asarray(background_inputs, dtype=float).reshape(len(background_inputs), -1)
    if bg.shape[0] == 0:
        raise ConfigurationError("background set must be non-empty")
    if bg.shape[1] != x_flat.size:
        raise ConfigurationError(
            f"background feature width {bg.shape[1]} does not match input {x_flat.size}")
    baseline = bg.mean(axis=0)
    if method == "auto":
        method = "exact" if x_flat.size <= EXACT_FEATURE_LIMIT else "permutation"
    if method == "exact":
        if x_flat.size > 30:
            raise ConfigurationError("exact enumeration is limited to 30 features")
        return _exact_matrix(subnet, x_flat, baseline)
    if method == "permutation":
        if n_permutations < 1:
            raise ConfigurationError(f"n_permutations must be at least 1, got {n_permutations}")
        rng = np.random.default_rng(seed)
        return _permutation_matrix(subnet, x_flat, baseline, n_permutations, rng)
    raise ConfigurationError(f"unknown estimator {method!r}")


def _feature_flat_index(feature, input_shape: tuple[int, ...]) -> int:
    if isinstance(feature, NeuronId):
        feature = feature.index
    if isinstance(feature, (tuple, list)):
        return int(np.ravel_multi_index(tuple(feature), input_shape))
    return int(feature)


def shapley(subnet: ModelSpec, background: BackgroundSet, input, feature,
            output: int, *, method: str = "auto",
            n_permutations: int = DEFAULT_PERMUTATIONS) -> float:
    """Shapley value of one input feature of ``subnet`` for one output logit.

    ``feature`` may be a flat index, a multi-index, or a :class:`NeuronId`
    whose index addresses the subnet's input grid.
    """
    if not 0 <= output < subnet.class_count:
        raise ConfigurationError(f"output {output} out of range")
    inputs = background.conforming(subnet.shapes[0])
    matrix = shap_matrix(subnet, inputs, input, method=method,
                         n_permutations=n_permutations, seed=background.seed)
    return float(matrix[_feature_flat_index(feature, subnet.shapes[0]), output])


# ---------------------------------------------------------------------------
# Influence maps
# ---------------------------------------------------------------------------


@dataclass
class InfluenceMap:
    """Per-neuron influence: the average absolute Shapley value over all
    output logits, keyed by (depth, multi-index)."""

    values: dict[NeuronId, float] = field(default_factory=dict)

    def __getitem__(self, neuron: NeuronId) -> float:
        return self.values[neuron]

    def __contains__(self, neuron: NeuronId) -> bool:
        return neuron in self.values

    def __len__(self) -> int:
        return len(self.values)

    def items(self):
        return self.values.items()

    def layer_summary(self) -> dict[int, tuple[int, float, float, float]]:
        """Per-depth (count, min, max, mean) of influence values."""
        by_layer: dict[int, list[float]] = {}
        for nid, val in self.values.items():
            by_layer.setdefault(nid.layer, []).append(val)
        return {layer: (len(vals), min(vals), max(vals), sum(vals) / len(vals))
                for layer, vals in sorted(by_layer.items())}

    def to_json(self) -> dict[str, float]:
        return {nid.key(): val for nid, val in
                sorted(self.values.items(), key=lambda kv: kv[0])}

    @classmethod
    def from_json(cls, doc: Mapping[str, float]) -> "InfluenceMap":
        return cls({NeuronId.from_key(key): float(val) for key, val in doc.items()})

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "InfluenceMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def depth_activations(model: ModelSpec, background: BackgroundSet,
                      seed_input: np.ndarray):
    """Yield (depth, probe activations, background activations) for every
    neuron grid from the input up to and including the logits."""
    x_l = np.asarray(seed_input, dtype=float)[None, ...]
    if x_l.shape[1:] != model.shapes[0]:
        raise ConfigurationError(
            f"seed input shape {x_l.shape[1:]} does not match model {model.shapes[0]}")
    bg_l = background.conforming(model.shapes[0])
    for depth in range(len(model.layers) + 1):
        yield depth, x_l, bg_l
        if depth < len(model.layers):
            layer = model.layers[depth]
            out_shape = model.shapes[depth + 1]
            x_l = apply_layer_concrete(layer, x_l, out_shape)
            bg_l = apply_layer_concrete(layer, bg_l, out_shape)


def depth_shap(model: ModelSpec, background: BackgroundSet, seed_input,
               *, n_permutations: int = DEFAULT_PERMUTATIONS):
    """Yield (depth, Shapley matrix) for every neuron grid: the attribution
    of each neuron, as an input of the submodel after its grid, to every
    logit, by :func:`shap_matrix` seeded with ``(background.seed, depth)``.
    The logit grid's submodel is the identity, with the closed-form matrix
    diag(activation - background mean)."""
    for depth, x_l, bg_l in depth_activations(model, background, seed_input):
        if depth == model.output_depth:
            yield depth, np.diag(x_l.reshape(-1) - bg_l.reshape(len(bg_l), -1).mean(axis=0))
        else:
            yield depth, shap_matrix(model.tail(depth), bg_l, x_l[0],
                                     n_permutations=n_permutations,
                                     seed=(background.seed, depth))


def build_influence_map(model: ModelSpec, background: BackgroundSet, seed_input,
                        *, n_permutations: int = DEFAULT_PERMUTATIONS) -> InfluenceMap:
    """Layer-by-layer influence of every neuron, computed once per seed: its
    mean absolute :func:`depth_shap` attribution over all output logits,
    |activation - background mean| / class_count on the logit grid, so every
    neuron that can appear in a branch event has an influence, the final
    argmax included.  Logs one INFO line per depth scored by sampling or
    enumeration, with the seconds since the depth before."""
    values: dict[NeuronId, float] = {}
    start = time.perf_counter()
    for depth, matrix in depth_shap(model, background, seed_input,
                                    n_permutations=n_permutations):
        neuron_ids = model.neuron_ids(depth)
        features = len(neuron_ids)
        if depth < model.output_depth:
            rows = 1 << features if features <= EXACT_FEATURE_LIMIT \
                else n_permutations * (features + 1)
            _log.info("influence depth %d: %d features, %d coalition rows, %.3f s, "
                      "peak RSS %.1f MB", depth, features, rows, time.perf_counter() - start,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values.update(zip(neuron_ids, np.abs(matrix).mean(axis=1).tolist()))
        start = time.perf_counter()
    return InfluenceMap(values)


def branch_influence(event: BranchEvent, influence_map: InfluenceMap) -> float:
    """Arithmetic mean of the map's values over the event's associated neurons."""
    total = 0.0
    for neuron in event.assoc_neurons:
        if neuron not in influence_map:
            raise MissingInfluenceError(
                f"neuron {neuron} missing from influence map "
                "(association/registration bug)")
        total += influence_map[neuron]
    return total / len(event.assoc_neurons)
