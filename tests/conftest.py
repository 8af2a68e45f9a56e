from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from attnconcolic.engine import make_symbolic_input
from attnconcolic.influence import BackgroundSet
from attnconcolic.semantics import (
    Dense,
    Flatten,
    ModelSpec,
    MultiHeadAttention,
    forward,
)
from attnconcolic.solver import ExternalSolver
from attnconcolic.symexpr import ExecutionContext, evaluate

# pytest puts src on sys.path (pyproject.toml); solver children and demos
# started by the tests find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

REFSOLVER_CMD = [sys.executable, "-m", "attnconcolic.refsolver"]


def golden_mha() -> MultiHeadAttention:
    """The worked single-head example: 1 head, key dim 2, seq len 2, model dim 1."""
    return MultiHeadAttention(
        num_heads=1, key_dim=2,
        w_q=[[[1, 1]]], b_q=[[1, 1]],
        w_k=[[[2, 1]]], b_k=[[2, 1]],
        w_v=[[[1, 2]]], b_v=[[1, 2]],
        w_o=[[[1], [1]]], b_o=[1],
    )


@pytest.fixture
def golden_model() -> ModelSpec:
    return ModelSpec(input_shape=(2, 1), layers=(golden_mha(),))


@pytest.fixture
def golden_background() -> BackgroundSet:
    return BackgroundSet(np.array([[[0.0], [0.0]], [[1.0], [1.0]], [[2.0], [0.5]]]),
                         seed=0)


GOLDEN_SEED = np.array([[2.0], [1.0]])


@pytest.fixture
def refsolver_backend() -> ExternalSolver:
    return ExternalSolver(REFSOLVER_CMD)


def linear_coeffs(scalar, name: str = "v") -> tuple[float, float]:
    """(slope, intercept) of a scalar's symbolic part, exact for linear terms."""
    assert scalar.sym is not None, "expected a symbolic scalar"
    at0 = evaluate(scalar.sym, {name: 0.0})
    at1 = evaluate(scalar.sym, {name: 1.0})
    return at1 - at0, at0


def quad_coeffs(scalar, name: str = "v") -> tuple[float, float, float]:
    """(a, b, c) with value = a*x^2 + b*x + c, exact for quadratic terms."""
    assert scalar.sym is not None
    f0 = evaluate(scalar.sym, {name: 0.0})
    f1 = evaluate(scalar.sym, {name: 1.0})
    f2 = evaluate(scalar.sym, {name: 2.0})
    a = (f2 - 2 * f1 + f0) / 2
    return a, f1 - f0 - a, f0


def random_toy_model(rng: np.random.Generator, seq_len: int = 2, d_model: int = 1,
                     heads: int = 1, key_dim: int = 2, classes: int = 2,
                     relu: bool = False) -> ModelSpec:
    """A small attention classifier with random weights in a tame range."""
    def w(*shape):
        return rng.uniform(-1.5, 1.5, size=shape).tolist()

    mha = MultiHeadAttention(
        num_heads=heads, key_dim=key_dim,
        w_q=w(d_model, heads, key_dim), b_q=w(heads, key_dim),
        w_k=w(d_model, heads, key_dim), b_k=w(heads, key_dim),
        w_v=w(d_model, heads, key_dim), b_v=w(heads, key_dim),
        w_o=w(heads, key_dim, d_model), b_o=w(d_model),
    )
    dense = Dense(weights=w(seq_len * d_model, classes), bias=w(classes),
                  activation="relu" if relu else "none")
    return ModelSpec((seq_len, d_model), (mha, Flatten(), dense))


def symbolic_forward(model: ModelSpec, x: np.ndarray, pixels):
    """Forward at ``x`` with the given flat pixels symbolic; returns (result, ctx)."""
    ctx = ExecutionContext()
    res = forward(model, make_symbolic_input(np.asarray(x, float), pixels, ctx), ctx)
    return res, ctx
