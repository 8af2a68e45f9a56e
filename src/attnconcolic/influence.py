"""Shapley-value attribution of neurons and branch-influence aggregation.

The value function of a coalition is the submodel's logit vector at a blended
input: coalition members keep the probe input's values, everyone else is set
to the background-set mean.  Small inputs are scored by exact enumeration over
all coalitions; larger ones by seeded permutation sampling, which adds each
permutation's gains as its rows come out of the chunk loop, so a sampled depth
holds one chunk of logits, its result and its 16-bit permutations, never the
table of every coalition's logits.  An :class:`InfluenceMap` is a dict from
:class:`NeuronId` to influence, which :func:`branch_influence` averages.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import resource
import time
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .semantics import Dense, ModelSpec, MultiHeadAttention, apply_layer_concrete, concrete_forward
from .symexpr import BranchEvent, NeuronId

__all__ = [
    "BackgroundSet",
    "ConfigurationError",
    "InfluenceMap",
    "MissingInfluenceError",
    "branch_influence",
    "build_influence_map",
    "depth_activations",
    "depth_shap",
    "shap_matrix",
]

EXACT_FEATURE_LIMIT = 12
DEFAULT_PERMUTATIONS = 128
# The estimators evaluate their coalitions as one sequence of rows, in chunks
# that keep the subnet's widest activation under this many bytes (or of one
# row), so memory does not grow with n_permutations x features and a chunk's
# arrays are reused from the heap, not mapped and faulted in afresh.
_CHUNK_BYTES = 1 << 17

_log = logging.getLogger("attnconcolic")


class ConfigurationError(ValueError):
    """Ill-formed attribution inputs (empty background, bad seed or estimator)."""


class MissingInfluenceError(KeyError):
    """A branch event references a neuron absent from the influence map."""


def _check_seed(seed) -> None:
    """ConfigurationError unless ``seed`` is an integer >= 0."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"random seed {seed!r} is not a non-negative integer")


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
        if not np.isfinite(arr).all():
            raise ConfigurationError("background inputs must be finite")
        _check_seed(self.seed)
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


def _row_bytes(subnet: ModelSpec, start: int = 0) -> int:
    """Bytes per row of the widest neuron grid or attention projections or
    scores from depth ``start`` of the subnet on."""
    widths = [math.prod(shape) for shape in subnet.shapes[start:]]
    widths += [layer.num_heads * shape[0] * max(shape[0], layer.key_dim)
               for layer, shape in zip(subnet.layers[start:], subnet.shapes[start:])
               if isinstance(layer, MultiHeadAttention)]
    return 8 * max(widths)


def _coalition_values(subnet: ModelSpec, x_flat: np.ndarray, baseline_flat: np.ndarray,
                      total_rows: int, masks_of_rows):
    """Yield (first row, rows x classes logits) for coalitions ``0 ..
    total_rows - 1``, by chunks of rows; ``masks_of_rows(rows)`` gives the
    masks of row numbers."""
    step = max(1, _CHUNK_BYTES // _row_bytes(subnet))
    for start in range(0, total_rows, step):
        rows = np.arange(start, min(start + step, total_rows))
        yield start, _coalition_logits(subnet, x_flat, baseline_flat, masks_of_rows(rows))


@functools.lru_cache(maxsize=None)
def _coalition_table(d: int):
    """The masks of all coalitions of ``d`` features (row r holds the bits of
    r); per feature, the coalitions without it in increasing order and the
    same with it; and the weight |S|!(d-|S|-1)!/d! of the k-th, |S| = popcount(k)."""
    rows = np.arange(1 << d)
    masks = ((rows[:, None] >> np.arange(d)) & 1) == 1
    without = np.array([rows[~mask] for mask in masks.T]).astype(np.int16 if d < 16 else np.int32)
    fact = [math.factorial(s) for s in range(d + 1)]
    weights = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    table = (masks, without, without | (1 << np.arange(d, dtype=without.dtype))[:, None],
             weights[masks[:len(rows) // 2].sum(axis=1), None])
    for array in table:  # shared by every call
        array.flags.writeable = False
    return table


def _exact_matrix(subnet: ModelSpec, x_flat, baseline_flat) -> np.ndarray:
    """Shapley values from all 2^d coalitions in one pass: each feature's gains
    from :func:`_coalition_table` (kept up to ``EXACT_FEATURE_LIMIT`` features),
    weighted and summed over the coalitions in increasing order, by blocks of
    features whose two gathers stay under ``_CHUNK_BYTES``, or of one feature."""
    d = x_flat.size
    table = _coalition_table if d <= EXACT_FEATURE_LIMIT else _coalition_table.__wrapped__
    masks, without, with_, weights = table(d)
    values = np.empty((len(masks), subnet.class_count))
    for start, logits in _coalition_values(subnet, x_flat, baseline_flat, len(masks),
                                           masks.__getitem__):
        values[start:start + len(logits)] = logits
    block = max(1, _CHUNK_BYTES // values.nbytes)
    phi = np.empty((d, subnet.class_count))
    for i in range(0, d, block):
        gains = values.take(with_[i:i + block], axis=0)
        gains -= values.take(without[i:i + block], axis=0)
        gains *= weights
        gains.sum(axis=1, out=phi[i:i + block])
    return phi


def _first_dense(subnet: ModelSpec):
    """The index of the subnet's first weighted layer if it is Dense, else None."""
    for index, layer in enumerate(subnet.layers):
        if isinstance(layer, (Dense, MultiHeadAttention)):
            return index if isinstance(layer, Dense) else None
    return None


def _dense_logits(subnet: ModelSpec, first: int, pre: np.ndarray) -> np.ndarray:
    """The logits of a chunk of pre-activation rows of ``subnet.layers[first]``."""
    out = subnet.layers[first].activate(pre)
    for layer, shape in zip(subnet.layers[first + 1:], subnet.shapes[first + 2:]):
        out = apply_layer_concrete(layer, out, shape)
    return out.reshape(len(out), -1)


def _dense_values(subnet: ModelSpec, first: int, x_flat, baseline_flat, perms: np.ndarray):
    """Yield (first row, rows x classes logits) of the permutation rows of a subnet whose
    first weighted layer, ``subnet.layers[first]``, is Dense (the layers
    before it only reshape the flat input).  Along a permutation each
    coalition adds one feature f, so its pre-activations are the row before
    plus the rank-1 step (x - baseline)[f] * W[f], from ``baseline @ W + b``
    at rank 0.  The running sums are taken by blocks of whole permutations
    under the byte budget, or of consecutive ranks of one permutation, each
    carrying the row before it, so a row's bits do not depend on the block."""
    n, d = perms.shape
    w, b = subnet.layers[first].arrays
    # every permutation first "adds" row d of steps, baseline @ W + b, times 1
    steps = np.vstack([w, baseline_flat @ w + b])
    scales = np.append(x_flat - baseline_flat, 1.0)
    added = np.hstack([np.full((n, 1), d, dtype=perms.dtype), perms])
    step = max(1, _CHUNK_BYTES // _row_bytes(subnet, first + 1))
    if step > d:  # blocks of whole permutations p0 .. p1 - 1
        per = step // (d + 1)
        blocks = ((p, min(p + per, n), 0, d + 1) for p in range(0, n, per))
    else:  # blocks of ranks k0 .. k1 - 1 of one permutation
        blocks = ((p, p + 1, k, min(k + step, d + 1))
                  for p in range(n) for k in range(0, d + 1, step))
    for p0, p1, k0, k1 in blocks:
        features = added[p0:p1, k0:k1]
        pre = steps[features]
        pre *= scales[features][..., None]
        if k0:
            pre[0, 0] += carry
        np.cumsum(pre, axis=1, out=pre)
        carry = pre[0, -1]
        yield p0 * (d + 1) + k0, _dense_logits(subnet, first, pre.reshape(features.size, -1))


def _permutation_matrix(subnet: ModelSpec, x_flat, baseline_flat,
                        n_permutations: int, rng: np.random.Generator) -> np.ndarray:
    """Each permutation's gains ``along[1:] - along[:-1]``, added into phi in
    permutation order as soon as its d + 1 rows are out of the chunk loop,
    so no (rows x classes) table is filled; the rows of a permutation that a
    chunk splits are gathered in one reused (d + 1) x classes buffer."""
    d = x_flat.size
    index = np.int16 if d < 1 << 15 else np.int32
    perms = rng.permuted(np.tile(np.arange(d, dtype=index), (n_permutations, 1)), axis=1)
    first = _first_dense(subnet)
    if first is not None:
        chunks = _dense_values(subnet, first, x_flat, baseline_flat, perms)
    else:
        # row r holds the features ranked below r % (d+1) in permutation r // (d+1)
        ranks = np.argsort(perms, axis=1).astype(index)
        chunks = _coalition_values(subnet, x_flat, baseline_flat, n_permutations * (d + 1),
                                   lambda rows: ranks[rows // (d + 1)] < (rows % (d + 1))[:, None])
    phi = np.zeros((d, subnet.class_count))
    split = np.empty((d + 1, subnet.class_count))
    for start, logits in chunks:
        p, k = divmod(start, d + 1)
        # the permutations this chunk completes, as intp once, not per gather and scatter
        done = perms[p:p + (k + len(logits)) // (d + 1)].astype(np.intp)
        if k:  # the rest of permutation p, which the chunk before split
            n = min(d + 1 - k, len(logits))
            split[k:k + n] = logits[:n]
            logits = logits[n:]
            if k + n == d + 1:
                phi[done[0]] += split[1:] - split[:-1]
                done = done[1:]
        whole = len(done)
        for perm, along in zip(done, logits[:whole * (d + 1)].reshape(whole, d + 1, phi.shape[1])):
            phi[perm] += along[1:] - along[:-1]
        rest = logits[whole * (d + 1):]
        split[:len(rest)] = rest
    return phi / n_permutations


def shap_matrix(subnet: ModelSpec, background_inputs: np.ndarray, x: np.ndarray,
                *, method: str = "auto", n_permutations: int = DEFAULT_PERMUTATIONS,
                seed: Union[int, tuple[int, ...]] = 0) -> np.ndarray:
    """Shapley values of every flat input feature for every output logit.

    Returns a (features x outputs) array.  ``method`` is ``"exact"``,
    ``"permutation"``, or ``"auto"`` (exact up to 12 features).  ``seed`` is
    an integer >= 0, or a tuple of them, and ``n_permutations`` (for
    sampling) an integer >= 1; else ConfigurationError.

    Exact enumeration holds about 2^d x (5d + 16 x classes) bytes at d
    features, doubling with each feature and linear in the classes (about
    260 MiB at 20 and 10), so past 20 features it is refused up front.
    """
    if method == "exact" and np.size(x) > 20:
        raise ConfigurationError("exact enumeration is limited to 20 features")
    for entry in seed if isinstance(seed, tuple) else (seed,):
        _check_seed(entry)
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
        return _exact_matrix(subnet, x_flat, baseline)
    if method == "permutation":
        if not isinstance(n_permutations, (int, np.integer)) or n_permutations < 1:
            raise ConfigurationError(
                f"n_permutations must be at least 1 and an integer, got {n_permutations!r}")
        rng = np.random.default_rng(seed)
        return _permutation_matrix(subnet, x_flat, baseline, n_permutations, rng)
    raise ConfigurationError(f"unknown estimator {method!r}")


# ---------------------------------------------------------------------------
# Influence maps
# ---------------------------------------------------------------------------


class InfluenceMap(dict):
    """A dict from :class:`NeuronId` to the neuron's average absolute Shapley
    value over all output logits, plus its JSON form (whose values
    ``from_json`` checks) and a per-depth summary."""

    def layer_summary(self) -> dict[int, tuple[int, float, float, float]]:
        """Per-depth (count, min, max, mean) of influence values."""
        by_layer: dict[int, list[float]] = {}
        for nid, val in self.items():
            by_layer.setdefault(nid.layer, []).append(val)
        return {layer: (len(vals), min(vals), max(vals), sum(vals) / len(vals))
                for layer, vals in sorted(by_layer.items())}

    def to_json(self) -> dict[str, float]:
        return {nid.key(): self[nid] for nid in sorted(self)}

    @classmethod
    def from_json(cls, doc: Mapping[str, float]) -> "InfluenceMap":
        imap = cls({NeuronId.from_key(key): float(val) for key, val in doc.items()})
        for nid, val in imap.items():
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{nid.key()}: {val} is not a finite influence >= 0")
        return imap

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    imap = InfluenceMap()
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
        imap.update(zip(neuron_ids, np.abs(matrix).mean(axis=1).tolist()))
        start = time.perf_counter()
    return imap


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
