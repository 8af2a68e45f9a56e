from __future__ import annotations

import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from attnconcolic import influence, semantics
from attnconcolic.acdp import relevance
from attnconcolic.engine import make_symbolic_input
from attnconcolic.influence import (
    BackgroundSet,
    ConfigurationError,
    InfluenceMap,
    MissingInfluenceError,
    branch_influence,
    build_influence_map,
    shap_matrix,
)
from attnconcolic.semantics import (
    Dense,
    Flatten,
    ModelSpec,
    MultiHeadAttention,
    concrete_forward,
    forward,
)
from attnconcolic.symexpr import BranchEvent, Comparison, ExecutionContext, NeuronId, Rel, const, var

from conftest import GOLDEN_SEED


def linear_model(weights, bias=None) -> ModelSpec:
    w = np.asarray(weights, dtype=float)
    b = [0.0] * w.shape[1] if bias is None else bias
    return ModelSpec((w.shape[0],), (Dense(weights=w.tolist(), bias=b),))


# ---------------------------------------------------------------------------
# shap_matrix
# ---------------------------------------------------------------------------


def test_linear_model_matches_closed_form():
    w = [[0.5, -1.0], [2.0, 0.0], [0.0, 3.0]]
    model = linear_model(w)
    bg = np.array([[0.1, 0.2, 0.3], [0.3, 0.0, 0.1]])
    x = np.array([1.0, 0.5, 0.25])
    mean = bg.mean(axis=0)
    phi = shap_matrix(model, bg, x, seed=4)
    for i in range(3):
        for o in range(2):
            assert phi[i, o] == pytest.approx(w[i][o] * (x[i] - mean[i]), abs=1e-9)


def test_zero_weight_feature_is_a_dummy():
    model = linear_model([[0.0], [1.0]])
    bg = np.array([[0.2, 0.4], [0.8, 0.6]])
    assert shap_matrix(model, bg, np.array([0.9, 0.1]))[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_symmetry_and_efficiency_on_additive_pair():
    model = linear_model([[1.0], [1.0]])
    phi = shap_matrix(model, np.zeros((2, 2)), np.array([1.0, 1.0]))
    assert phi[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi[1, 0] == pytest.approx(1.0, abs=1e-9)


def test_exact_estimator_axioms_on_random_nonlinear_model():
    rng = np.random.default_rng(17)
    d = 6
    model = ModelSpec((d,), (
        Dense(weights=rng.uniform(-1, 1, (d, 4)).tolist(),
              bias=rng.uniform(-1, 1, 4).tolist(), activation="relu"),
        Dense(weights=rng.uniform(-1, 1, (4, 3)).tolist(),
              bias=rng.uniform(-1, 1, 3).tolist()),
    ))
    bg = BackgroundSet(rng.uniform(0, 1, (5, d)), seed=1)
    x = rng.uniform(0, 1, d)
    matrix = shap_matrix(model, bg.inputs, x, method="exact")
    v_all = concrete_forward(model, x)
    v_none = concrete_forward(model, bg.inputs.mean(axis=0))
    # efficiency
    assert np.allclose(matrix.sum(axis=0), v_all - v_none, atol=1e-6)
    # dummy: clone with a disconnected extra feature
    w1 = np.vstack([np.asarray(model.layers[0].weights), np.zeros(4)])
    bigger = ModelSpec((d + 1,), (
        Dense(weights=w1.tolist(), bias=model.layers[0].bias, activation="relu"),
        model.layers[1]))
    bg2 = BackgroundSet(np.hstack([bg.inputs, rng.uniform(0, 1, (5, 1))]), seed=1)
    x2 = np.append(x, 0.5)
    matrix2 = shap_matrix(bigger, bg2.inputs, x2, method="exact")
    assert np.allclose(matrix2[d], 0.0, atol=1e-6)


def test_exact_estimator_symmetry_axiom():
    # two features with identical roles and identical values
    model = linear_model([[2.0, -1.0], [2.0, -1.0], [0.5, 0.5]])
    bg = BackgroundSet(np.array([[0.0, 0.0, 0.2], [0.4, 0.4, 0.8]]))
    x = np.array([0.9, 0.9, 0.3])
    matrix = shap_matrix(model, bg.inputs, x, method="exact")
    assert np.allclose(matrix[0], matrix[1], atol=1e-6)


def test_sampling_estimator_is_seed_deterministic():
    rng = np.random.default_rng(23)
    model = ModelSpec((8,), (
        Dense(weights=rng.uniform(-1, 1, (8, 3)).tolist(),
              bias=[0.0, 0.0, 0.0], activation="relu"),))
    bg = rng.uniform(0, 1, (4, 8))
    x = rng.uniform(0, 1, 8)
    a = shap_matrix(model, bg, x, method="permutation", n_permutations=64, seed=9)
    b = shap_matrix(model, bg, x, method="permutation", n_permutations=64, seed=9)
    assert (a == b).all()


def test_sampling_error_shrinks_with_more_permutations():
    rng = np.random.default_rng(31)
    worse, better = [], []
    for trial in range(20):
        model = ModelSpec((8,), (
            Dense(weights=rng.uniform(-1, 1, (8, 4)).tolist(),
                  bias=rng.uniform(-0.5, 0.5, 4).tolist(), activation="relu"),
            Dense(weights=rng.uniform(-1, 1, (4, 2)).tolist(), bias=[0.0, 0.0]),
        ))
        bg = rng.uniform(0, 1, (4, 8))
        x = rng.uniform(0, 1, 8)
        exact = shap_matrix(model, bg, x, method="exact")
        coarse = shap_matrix(model, bg, x, method="permutation",
                             n_permutations=64, seed=trial)
        fine = shap_matrix(model, bg, x, method="permutation",
                           n_permutations=1024, seed=trial)
        worse.append(np.abs(coarse - exact).mean())
        better.append(np.abs(fine - exact).mean())
    assert np.mean(better) < np.mean(worse)


@pytest.mark.parametrize("n_permutations", [0, -2, 2.5, np.float64(3.0), "3"])
def test_sampling_without_permutations_is_a_configuration_error(n_permutations):
    model = linear_model([[1.0, -1.0]] * 3)
    with pytest.raises(ConfigurationError, match="n_permutations"):
        shap_matrix(model, np.zeros((1, 3)), np.ones(3), method="permutation",
                    n_permutations=n_permutations)


@pytest.mark.parametrize("d", [1, 6, 13, 64, 784])
def test_a_depths_permutations_are_those_of_one_draw_per_permutation(d, monkeypatch):
    # the one Generator.permuted call gives the permutations of 128
    # rng.permutation(d) calls, in order, and leaves the generator in their
    # state: a numpy that changes either would move every sampled map
    drawn = []
    dense_values = influence._dense_values

    def record(subnet, first, x_flat, baseline_flat, perms):
        drawn.append(perms)
        return dense_values(subnet, first, x_flat, baseline_flat, perms)

    monkeypatch.setattr(influence, "_dense_values", record)
    rng, reference = np.random.default_rng(d), np.random.default_rng(d)
    influence._permutation_matrix(linear_model(np.ones((d, 2))), np.ones(d), np.zeros(d),
                                  128, rng)
    assert np.array_equal(drawn[0], [reference.permutation(d) for _ in range(128)])
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_built_masks_match_the_prefix_loop(seed, monkeypatch):
    # the masks of an attention-first tail's rows, in chunks of 4 rows that
    # split the 10-row permutations, are each permutation's prefixes in order
    rng = np.random.default_rng(seed)
    d = 9
    perms = np.array([rng.permutation(d) for _ in range(5)])
    expected = np.zeros((len(perms), d + 1, d), dtype=bool)
    for p, perm in enumerate(perms):  # row j+1 is row j plus the j-th feature
        row = expected[p]
        for j, feature in enumerate(perm):
            row[j + 1] = row[j]
            row[j + 1, feature] = True
    model = _attention_model(rng, 3)
    chunks = []

    def record(subnet, x_flat, baseline_flat, masks):
        chunks.append(masks)
        return np.zeros((len(masks), subnet.class_count))

    monkeypatch.setattr(influence, "_coalition_logits", record)
    monkeypatch.setattr(influence, "_CHUNK_BYTES", 4 * influence._row_bytes(model))
    shap_matrix(model, np.zeros((1, 3, 3)), np.ones((3, 3)), method="permutation",
                n_permutations=len(perms), seed=seed)
    assert [len(chunk) for chunk in chunks] == [4] * 12 + [2]
    masks = np.concatenate(chunks).reshape(expected.shape)
    assert masks.dtype == bool and np.array_equal(masks, expected)


def _relu_model(rng, d: int) -> ModelSpec:
    return ModelSpec((d,), (
        Dense(weights=rng.uniform(-1, 1, (d, 5)).tolist(),
              bias=rng.uniform(-0.5, 0.5, 5).tolist(), activation="relu"),
        Dense(weights=rng.uniform(-1, 1, (5, 3)).tolist(), bias=[0.0, 0.1, -0.1]),
    ))


@pytest.mark.parametrize("rows", [1, 7, 30])
@pytest.mark.parametrize("method", ["permutation", "exact"])
def test_chunked_coalitions_match_one_chunk(method, rows, monkeypatch):
    # at d = 12 a permutation has 13 coalitions: budgets of 1 and 7 rows split
    # every permutation, 30 rows hold two and part of a third, and the 429
    # rows of 33 permutations (4,096 exact coalitions) leave a short last chunk
    rng = np.random.default_rng(43)
    d = 12
    model = _relu_model(rng, d)
    bg = rng.uniform(0, 1, (4, d))
    x = rng.uniform(0, 1, d)
    monkeypatch.setattr(influence, "_CHUNK_BYTES", 1 << 30)
    whole = shap_matrix(model, bg, x, method=method, n_permutations=33, seed=6)
    monkeypatch.setattr(influence, "_CHUNK_BYTES", rows * influence._row_bytes(model))
    chunked = shap_matrix(model, bg, x, method=method, n_permutations=33, seed=6)
    np.testing.assert_allclose(chunked, whole, rtol=1e-12)
    gap = concrete_forward(model, x) - concrete_forward(model, bg.mean(axis=0))
    np.testing.assert_allclose(chunked.sum(axis=0), gap, atol=1e-9)  # efficiency


def _feature_loop_reference(subnet: ModelSpec, x_flat, baseline_flat) -> np.ndarray:
    """The exact estimator as one loop over the features: each feature's
    coalitions without it, by bit tests, their gains and weights by
    popcount, summed over the coalitions in increasing order."""
    d = x_flat.size
    bits = np.arange(1 << d, dtype=np.int64)
    shifts = np.arange(d)
    values = np.concatenate([logits for _, logits in influence._coalition_values(
        subnet, x_flat, baseline_flat, bits.size,
        lambda rows: ((rows[:, None] >> shifts) & 1) == 1)])
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


def _exact_case(kind: str, d: int, classes: int, seed: int):
    """A dense-first (ReLU then linear) or attention-first (one head over d
    tokens of width 1, flatten, dense) tail of d features, a probe and a
    baseline."""
    rng = np.random.default_rng([seed, d, classes])

    def w(*shape):
        return rng.uniform(-1.5, 1.5, size=shape).tolist()

    if kind == "dense":
        model = ModelSpec((d,), (Dense(weights=w(d, 5), bias=w(5), activation="relu"),
                                 Dense(weights=w(5, classes), bias=w(classes))))
    else:
        model = ModelSpec((d, 1), (
            MultiHeadAttention(num_heads=1, key_dim=2, w_q=w(1, 1, 2), b_q=w(1, 2),
                               w_k=w(1, 1, 2), b_k=w(1, 2), w_v=w(1, 1, 2), b_v=w(1, 2),
                               w_o=w(1, 2, 1), b_o=w(1)),
            Flatten(), Dense(weights=w(d, classes), bias=w(classes))))
    return model, rng.uniform(0, 1, d), rng.uniform(0, 1, d)


def _hex(matrix: np.ndarray) -> list[str]:
    return [float(v).hex() for v in matrix.ravel()]


@pytest.mark.parametrize("kind", ["dense", "attention"])
@pytest.mark.parametrize("classes", [1, 2, 10])
def test_coalition_table_matches_the_feature_loop_bit_for_bit(kind, classes):
    # every depth that "auto" enumerates, and two that only an explicit
    # method="exact" does; their tables are built per call, not kept
    for d in range(1, influence.EXACT_FEATURE_LIMIT + 3):
        model, x, baseline = _exact_case(kind, d, classes, 29)
        got = shap_matrix(model, baseline[None], x.reshape(model.shapes[0]), method="exact")
        assert _hex(got) == _hex(_feature_loop_reference(model, x, baseline)), d
    # one table kept per feature count up to the limit, none past it
    assert influence._coalition_table.cache_info().currsize == influence.EXACT_FEATURE_LIMIT


@pytest.mark.parametrize("budget", [1, 600, 1 << 30])
def test_feature_blocks_under_any_budget_match_the_feature_loop(budget, monkeypatch):
    # one feature per block, blocks of a few features and one block of all
    monkeypatch.setattr(influence, "_CHUNK_BYTES", budget)
    model, x, baseline = _exact_case("dense", 9, 2, 31)
    assert _hex(influence._exact_matrix(model, x, baseline)) == \
        _hex(_feature_loop_reference(model, x, baseline))


def test_coalition_table_is_small_and_a_warm_call_peaks_below_the_loop():
    d = influence.EXACT_FEATURE_LIMIT
    model, x, baseline = _exact_case("dense", d, 10, 37)
    assert sum(array.nbytes for array in influence._coalition_table(d)) <= 256 << 10
    peaks = []
    for estimator in (_feature_loop_reference, influence._exact_matrix):
        estimator(model, x, baseline)  # warm: the table is built
        tracemalloc.start()
        try:
            estimator(model, x, baseline)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


def test_exact_past_20_features_is_refused_before_any_coalition_table(monkeypatch):
    # a 21-feature table would hold about 2^21 x (5 x 21 + 16 x classes) bytes
    def no_table(d):
        raise AssertionError(f"a coalition table of {d} features was built")

    no_table.__wrapped__ = no_table
    monkeypatch.setattr(influence, "_coalition_table", no_table)
    model, x, baseline = _exact_case("dense", 21, 10, 41)
    with pytest.raises(ConfigurationError, match="limited to 20 features"):
        shap_matrix(model, baseline[None], x, method="exact")


def _blended_reference(model: ModelSpec, bg, x, n_permutations: int, seed) -> np.ndarray:
    """The permutation estimate from each permutation's prefix masks, blended
    and run through concrete_forward one permutation at a time."""
    rng = np.random.default_rng(seed)
    d = x.size
    perms = [rng.permutation(d) for _ in range(n_permutations)]
    x_flat, baseline = x.reshape(-1), bg.reshape(len(bg), -1).mean(axis=0)
    phi = np.zeros((d, model.class_count))
    for perm in perms:
        masks = np.zeros((d + 1, d), dtype=bool)
        for j, feature in enumerate(perm):
            masks[j + 1] = masks[j]
            masks[j + 1, feature] = True
        blended = np.where(masks, x_flat, baseline).reshape((d + 1,) + model.shapes[0])
        along = concrete_forward(model, blended)
        phi[perm] += along[1:] - along[:-1]
    return phi / n_permutations


def _dense_tail(kind: str, rng) -> ModelSpec:
    def w(*shape):
        return rng.uniform(-1, 1, size=shape).tolist()

    if kind == "flatten-relu":
        return ModelSpec((4, 4), (Flatten(), Dense(weights=w(16, 6), bias=w(6),
                                                   activation="relu")))
    if kind == "linear":
        return ModelSpec((16,), (Dense(weights=w(16, 3), bias=w(3)),))
    return ModelSpec((16,), (Dense(weights=w(16, 7), bias=w(7), activation="relu"),
                             Dense(weights=w(7, 3), bias=w(3))))


@pytest.mark.parametrize("rows", [None, 1, 5, 40])
@pytest.mark.parametrize("kind", ["flatten-relu", "linear", "dense-dense"])
def test_dense_tails_match_blended_masks(kind, rows, monkeypatch):
    # a Dense-first tail's rows are running sums of rank-1 steps; in chunks
    # under the default budget, of one rank, of 5-rank pieces of the 17-row
    # permutations and of two permutations, they score as blended masks do
    rng = np.random.default_rng(61)
    model = _dense_tail(kind, rng)
    bg = rng.uniform(0, 1, (5,) + model.shapes[0])
    x = rng.uniform(0, 1, model.shapes[0])
    if rows is not None:
        first = 1 if kind == "flatten-relu" else 0
        monkeypatch.setattr(influence, "_CHUNK_BYTES",
                            rows * influence._row_bytes(model, first + 1))
    got = shap_matrix(model, bg, x, method="permutation", n_permutations=24, seed=5)
    want = _blended_reference(model, bg, x, 24, 5)
    # both round each row once per feature: a value near zero may differ in
    # its last bits relative to itself, not to the largest value of the matrix
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    gap = concrete_forward(model, x) - concrete_forward(model, bg.mean(axis=0))
    np.testing.assert_allclose(got.sum(axis=0), gap, atol=1e-9)  # efficiency


def _attention_model(rng, side: int) -> ModelSpec:
    """The shapley-8x8 bench model's layout: one two-head attention layer
    (key dim 8), a flatten and a ReLU dense layer to 10 classes."""
    def w(*shape):
        return rng.uniform(-1.5, 1.5, size=shape).tolist()

    heads, key_dim = 2, 8
    return ModelSpec((side, side), (
        MultiHeadAttention(num_heads=heads, key_dim=key_dim,
                           w_q=w(side, heads, key_dim), b_q=w(heads, key_dim),
                           w_k=w(side, heads, key_dim), b_k=w(heads, key_dim),
                           w_v=w(side, heads, key_dim), b_v=w(heads, key_dim),
                           w_o=w(heads, key_dim, side), b_o=w(side)),
        Flatten(),
        Dense(weights=w(side * side, 10), bias=w(10), activation="relu"),
    ))


@pytest.mark.parametrize("budget", [None, 16 << 10])
def test_chunks_stay_within_the_byte_budget(budget, monkeypatch):
    # the default budget, and one under which each 65-row permutation of the
    # 8x8 map's depth 0 (1 KB of scores per row) spans several chunks
    rng = np.random.default_rng(8)
    model = _attention_model(rng, 8)
    background = BackgroundSet(rng.uniform(0, 1, (16, 8, 8)))
    if budget is not None:
        monkeypatch.setattr(influence, "_CHUNK_BYTES", budget)
    budget = influence._CHUNK_BYTES
    seen, chunks = [], []  # bytes of the current chunk's arrays; (rows, widest) per chunk

    def track(array):
        seen.append(array.nbytes)
        return array

    def logits(subnet, x_flat, baseline_flat, masks):
        seen.clear()
        out = coalition_logits(subnet, x_flat, baseline_flat, track(masks))
        chunks.append((len(masks), max(seen)))
        return out

    def dense(subnet, first, pre):  # depths 1 and 2: a Dense-first tail's rows
        seen.clear()
        out = track(dense_logits(subnet, first, track(pre)))
        chunks.append((len(pre), max(seen)))
        return out

    coalition_logits, layer = influence._coalition_logits, semantics.apply_layer_concrete
    project, softmax = semantics._project, semantics._softmax
    dense_logits = influence._dense_logits
    monkeypatch.setattr(influence, "_coalition_logits", logits)
    monkeypatch.setattr(influence, "_dense_logits", dense)
    monkeypatch.setattr(semantics, "apply_layer_concrete",
                        lambda spec, batch, shape: track(layer(spec, track(batch), shape)))
    monkeypatch.setattr(semantics, "_project", lambda *args: track(project(*args)))
    monkeypatch.setattr(semantics, "_softmax", lambda scores: softmax(track(scores)))
    build_influence_map(model, background, rng.uniform(0, 1, (8, 8)))
    rows = [n for n, _ in chunks]
    assert sum(rows) == 3 * 128 * 65  # three scored depths of 64 features
    assert all(widest <= budget for _, widest in chunks), max(chunks, key=lambda c: c[1])
    assert max(widest for _, widest in chunks) > budget // 2  # no needlessly small chunks
    if budget < 65 << 10:
        assert rows[0] < 65


def test_8x8_map_peak_memory_is_bounded():
    # all 128 x 65 coalitions of a depth in one forward pass peak near 57 MB
    rng = np.random.default_rng(8)
    model = _attention_model(rng, 8)
    background = BackgroundSet(rng.uniform(0, 1, (16, 8, 8)))
    x = rng.uniform(0, 1, (8, 8))
    tracemalloc.start()
    try:
        build_influence_map(model, background, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_empty_background_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        BackgroundSet(np.zeros((0, 3)))


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_non_finite_background_is_a_configuration_error(entry):
    inputs = np.full((2, 4, 4), 0.5)
    inputs[1, 2, 3] = entry
    with pytest.raises(ConfigurationError, match="finite"):
        BackgroundSet(inputs)


@pytest.mark.parametrize("seed", [-1, 0.5, "3", (0, 1)])  # a tuple only in shap_matrix
def test_random_seed_not_a_non_negative_integer_is_a_configuration_error(seed):
    # numpy's default_rng rejects a negative seed, but only once a depth is
    # sampled, past EXACT_FEATURE_LIMIT features
    with pytest.raises(ConfigurationError, match="random seed"):
        BackgroundSet(np.zeros((2, 3)), seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5, (-1, 0), (0, -2), (0, 0.5)])
def test_shap_matrix_seed_not_a_non_negative_integer_is_a_configuration_error(seed):
    # 13 features: past EXACT_FEATURE_LIMIT, so the seed reaches numpy's default_rng
    model = linear_model([[0.1 * i, -0.2] for i in range(13)])
    with pytest.raises(ConfigurationError, match="random seed"):
        shap_matrix(model, np.zeros((2, 13)), np.full(13, 0.5), seed=seed)


# ---------------------------------------------------------------------------
# build_influence_map
# ---------------------------------------------------------------------------


def test_two_layer_linear_map_matches_hand_derivation():
    # layer 1: y = x @ W1, layer 2: z = y @ W2; all exact via coalition oracle
    w1 = np.array([[1.0, -2.0], [0.5, 0.0]])
    w2 = np.array([[3.0], [-1.0]])
    model = ModelSpec((2,), (Dense(weights=w1.tolist(), bias=[0.0, 0.0]),
                             Dense(weights=w2.tolist(), bias=[0.0]),))
    bg = BackgroundSet(np.array([[0.0, 0.0], [0.4, 0.2]]), seed=2)
    x = np.array([1.0, 0.8])
    imap = build_influence_map(model, bg, x)
    mean = bg.inputs.mean(axis=0)
    # depth 0: feature i influences the single logit by (W1 @ W2)[i] * (x_i - mean_i)
    combined = (w1 @ w2).reshape(-1)
    for i in range(2):
        want = abs(combined[i] * (x[i] - mean[i]))
        assert imap[NeuronId(0, (i,))] == pytest.approx(want, abs=1e-9)
    # depth 1: hidden unit j influences by W2[j] * (y_j - mean_y_j)
    y = x @ w1
    mean_y = (bg.inputs @ w1).mean(axis=0)
    for j in range(2):
        want = abs(w2[j, 0] * (y[j] - mean_y[j]))
        assert imap[NeuronId(1, (j,))] == pytest.approx(want, abs=1e-9)


def test_ignored_neuron_has_zero_influence():
    w1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    w2 = np.array([[2.0], [0.0]])  # second hidden unit ignored downstream
    model = ModelSpec((2,), (Dense(weights=w1.tolist(), bias=[0.0, 0.0]),
                             Dense(weights=w2.tolist(), bias=[0.0]),))
    bg = BackgroundSet(np.array([[0.1, 0.3], [0.7, 0.2]]))
    imap = build_influence_map(model, bg, np.array([0.9, 0.4]))
    assert imap[NeuronId(1, (1,))] == pytest.approx(0.0, abs=1e-9)


def test_constant_value_function_gives_all_zero_influence():
    model = linear_model([[1.0, -1.0], [2.0, 0.5]])
    x = np.array([0.3, 0.6])
    bg = BackgroundSet(np.array([x.tolist(), x.tolist()]))  # background == seed
    imap = build_influence_map(model, bg, x)
    for nid in model.neuron_ids(0):
        assert imap[nid] == pytest.approx(0.0, abs=1e-9)


def test_map_is_total_and_non_negative(golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    expected = set()
    for depth in range(golden_model.output_depth + 1):
        expected.update(golden_model.neuron_ids(depth))
    assert set(dict(imap.items()).keys()) == expected
    assert all(np.isfinite(v) and v >= 0.0 for _, v in imap.items())


def test_map_logs_one_line_per_scored_depth(caplog):
    rng = np.random.default_rng(9)
    model = _attention_model(rng, 4)
    background = BackgroundSet(rng.uniform(0, 1, (3, 4, 4)))
    with caplog.at_level(logging.INFO, logger="attnconcolic"):
        build_influence_map(model, background, rng.uniform(0, 1, (4, 4)))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("influence")]
    # depths 0-2 are scored (16, 16 and 16 features); the logits are not
    assert [line.split(":")[0] for line in lines] == \
        [f"influence depth {depth}" for depth in range(model.output_depth)]
    assert all(": 16 features, 2176 coalition rows, " in line and "peak RSS" in line
               for line in lines)


def test_map_json_round_trip(tmp_path, golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    path = tmp_path / "map.json"
    imap.save(str(path))
    clone = InfluenceMap.from_json(json.loads(path.read_text()))
    assert type(clone) is InfluenceMap and clone == imap


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
def test_map_json_rejects_a_value_no_influence_takes(value, golden_model, golden_background):
    # an influence is a mean absolute Shapley value: finite and >= 0
    doc = build_influence_map(golden_model, golden_background, GOLDEN_SEED).to_json()
    doc[next(iter(doc))] = value
    with pytest.raises(ValueError, match="finite influence"):
        InfluenceMap.from_json(doc)


# ---------------------------------------------------------------------------
# branch_influence
# ---------------------------------------------------------------------------


def _event(neurons) -> BranchEvent:
    guard = Comparison(Rel.GT, var("v"), const(0.0))
    return BranchEvent(guard=guard, taken=True, assoc_neurons=tuple(neurons), layer_index=0)


def test_branch_influence_singleton_average():
    imap = InfluenceMap({NeuronId(1, (0,)): 0.7})
    assert branch_influence(_event([NeuronId(1, (0,))]), imap) == pytest.approx(0.7)


def test_branch_influence_mean_and_permutation_invariance():
    a, b = NeuronId(1, (0,)), NeuronId(1, (1,))
    imap = InfluenceMap({a: 0.2, b: 0.8})
    assert branch_influence(_event([a, b]), imap) == pytest.approx(0.5)
    assert branch_influence(_event([b, a]), imap) == pytest.approx(0.5)


def test_branch_influence_missing_neuron_is_integrity_error():
    imap = InfluenceMap({NeuronId(1, (0,)): 0.2})
    with pytest.raises(MissingInfluenceError):
        branch_influence(_event([NeuronId(5, (9,))]), imap)


def test_worked_rowmax_event_influence_is_row_average(golden_model, golden_background):
    imap = build_influence_map(golden_model, golden_background, GOLDEN_SEED)
    ctx = ExecutionContext()
    res = forward(golden_model, make_symbolic_input(GOLDEN_SEED, [0], ctx), ctx)
    row0_event = [e for e in res.events if e.layer_index == 0][0]
    want = imap[NeuronId(1, (0, 0))]  # single-neuron output row 0
    assert branch_influence(row0_event, imap) == pytest.approx(want)


@pytest.mark.parametrize("depth", [0, 1])
def test_a_sampled_depth_peaks_below_its_coalition_table(depth):
    # 512 permutations of the 8x8 bench layout's 64 features: an
    # attention-first tail at depth 0 and a flatten -> dense one at depth 1,
    # whose 512 x 65 rows of 10 logits (2.5 MiB) are never held at once
    rng = np.random.default_rng(8)
    model = _attention_model(rng, 8)
    background = BackgroundSet(rng.uniform(0, 1, (16, 8, 8)))
    _, x_l, bg_l = list(influence.depth_activations(model, background,
                                                    rng.uniform(0, 1, (8, 8))))[depth]
    tail = model.tail(depth)
    assert (influence._first_dense(tail) is None) == (depth == 0)
    table = 512 * 65 * tail.class_count * 8
    assert table > influence._CHUNK_BYTES
    tracemalloc.start()
    try:
        shap_matrix(tail, bg_l, x_l[0], n_permutations=512, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table, f"peak {peak} bytes, table {table}"


def _full_table_permutation_matrix(subnet: ModelSpec, x_flat, baseline_flat,
                                   n_permutations: int, rng) -> np.ndarray:
    """The permutation estimator that fills the table of every row's logits,
    then adds each permutation's gains into phi in order."""
    d = x_flat.size
    perms = rng.permuted(np.tile(np.arange(d), (n_permutations, 1)), axis=1)
    first = influence._first_dense(subnet)
    if first is not None:
        chunks = influence._dense_values(subnet, first, x_flat, baseline_flat, perms)
    else:
        ranks = np.argsort(perms, axis=1)
        chunks = influence._coalition_values(
            subnet, x_flat, baseline_flat, n_permutations * (d + 1),
            lambda rows: ranks[rows // (d + 1)] < (rows % (d + 1))[:, None])
    values = np.empty((n_permutations * (d + 1), subnet.class_count))
    for start, logits in chunks:
        values[start:start + len(logits)] = logits
    phi = np.zeros((d, subnet.class_count))
    for perm, along in zip(perms, values.reshape(n_permutations, d + 1, -1)):
        phi[perm] += along[1:] - along[:-1]
    return phi / n_permutations


def _flat_4x4_case():
    """The 4x4 flatten -> dense ReLU model of the CLI smoke test (16
    features, 17 rows per permutation), its background and seed input."""
    model = ModelSpec((4, 4), (Flatten(), Dense(
        weights=[[(i % 5 - 2) / 4, (i % 3 - 1) / 2] for i in range(16)],
        bias=[0.1, -0.1], activation="relu")))
    background = BackgroundSet(np.array([[[(3 * k + 7 * i + j) % 10 / 10 for j in range(4)]
                                          for i in range(4)] for k in range(3)]))
    return model, background, np.arange(1, 17).reshape(4, 4) % 9 / 10


@pytest.mark.parametrize("case, rows", [
    ("8x8", None),          # 128-row chunks split the 65-row permutations
    ("flat-4x4", None),     # blocks of whole 17-row permutations
    ("flat-4x4", 5),        # blocks of ranks that split each permutation
    ("attention-4x4", 7),   # 7-row chunks, not a multiple of 17
    ("attention-4x4", 1),
])
def test_streamed_gains_match_the_full_table_bit_for_bit(case, rows, monkeypatch):
    rng = np.random.default_rng(12)
    if case == "flat-4x4":
        model, background, x = _flat_4x4_case()
    else:
        side = 8 if case == "8x8" else 4
        model = _attention_model(rng, side)
        background = BackgroundSet(rng.uniform(0, 1, (16, side, side)), seed=3)
        x = rng.uniform(0, 1, (side, side))
    if rows is not None:  # rows of the depth-0 tail's widest activation, or logits
        start = 2 if case == "flat-4x4" else 0
        monkeypatch.setattr(influence, "_CHUNK_BYTES", rows * influence._row_bytes(model, start))
    streamed = (build_influence_map(model, background, x), relevance(model, background, x).values)
    monkeypatch.setattr(influence, "_permutation_matrix", _full_table_permutation_matrix)
    table = (build_influence_map(model, background, x), relevance(model, background, x).values)
    for got, want in zip(streamed, table):
        assert [(nid, float(v).hex()) for nid, v in got.items()] == \
            [(nid, float(v).hex()) for nid, v in want.items()]
