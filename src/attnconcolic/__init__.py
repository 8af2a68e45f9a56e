"""Influence-guided concolic testing of compact attention-based classifiers.

The library executes a declaratively specified model under dual
concrete/symbolic semantics, ranks bypassed branch predicates by
Shapley-based influence, solves path constraints through an SMT-LIB2 solver
process to synthesize label-flipping inputs under small pixel budgets, and
aggregates successful attacks into abstract critical decision paths.
"""

from .acdp import (
    ACDPReport,
    RelevanceMatrix,
    abstract_path,
    critical_neurons,
    critical_path,
    pair_entropy,
    relevance,
)
from .engine import (
    AttackResult,
    PathTree,
    RunStats,
    Scheduler,
    WorkItem,
    build_constraint,
    harvest,
    make_symbolic_input,
    run_attack,
    schedule_pop,
)
from .influence import (
    BackgroundSet,
    InfluenceMap,
    branch_influence,
    build_influence_map,
    shap_matrix,
    shapley,
)
from .semantics import (
    Dense,
    Flatten,
    ForwardResult,
    ModelSpec,
    MultiHeadAttention,
    Reshape,
    attention_scores,
    concat,
    concrete_forward,
    concrete_label,
    dense_forward,
    dpa,
    forward,
    load_model,
    rowmax,
    stable_softmax,
    tas,
)
from .solver import (
    ExternalSolver,
    GridOracle,
    SolverRequest,
    SolverVerdict,
    assignment_satisfies,
    emit_smtlib,
    grid_oracle,
)
from .symexpr import (
    BranchEvent,
    Comparison,
    ConcolicScalar,
    ExecutionContext,
    NeuronId,
    Rel,
    SymExpr,
    arith,
    concretize,
    const,
    evaluate,
    to_infix,
    var,
)

__version__ = "0.1.0"
