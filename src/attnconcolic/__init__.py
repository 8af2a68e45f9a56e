"""Influence-guided concolic testing of compact attention-based classifiers.

Import each name from its module; this root imports nothing, so a solver
process loads only the solver.  ``semantics`` runs a model under dual
concrete/symbolic semantics over ``symexpr`` expressions, ``influence`` ranks
neurons by Shapley values, ``engine`` searches for label flips by solving path
constraints through ``solver`` (an SMT-LIB2 process, ``refsolver`` by default),
``acdp`` aggregates flips into critical decision paths; ``cli`` is the command.
"""

__version__ = "0.1.0"
