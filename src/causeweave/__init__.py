"""Constraint-based causal structure learning toolkit.

Two-step neighborhood discovery (forward candidate enumeration + minimax
selection), orientation by prior knowledge, colliders, a directed-path rule
and Meek's R1 (no R3 or R4), an order-independent PC-style baseline,
decomposable-criterion scoring, and a Monte-Carlo benchmark harness.

The root exports the library API that README lists; the search's own
steps stay importable from their modules.
"""

from .citest import (
    CIEngine,
    CITestResult,
    FisherZBackend,
    GTestBackend,
    InjectedBackend,
    OracleBackend,
    OracleGraph,
    make_backend,
)
from .dataset import (
    Dataset,
    VariableSchema,
    cap_levels,
    filter_dominant,
    load_csv,
    load_schema,
)
from .experiments import (
    CategoricalSimConfig,
    ContinuousSimConfig,
    run_categorical_experiment,
    run_continuous_experiment,
)
from .pcstable import pc_stable
from .score import FitReport, bic_of_graph
from .simgen import (
    LinearSemSpec,
    SimReport,
    evaluate_recovery,
    gen_linear_sem,
    make_discrete_net,
)
from .skeleton_orient import Cpdag, PriorKnowledge, cpdag_from_dot, learn_structure

__version__ = "0.1.0"
