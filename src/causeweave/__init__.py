"""Constraint-based causal structure learning toolkit.

Two-step neighborhood discovery (forward candidate enumeration + minimax
selection), orientation by prior knowledge, colliders, a directed-path rule
and Meek's R1 (no R3 or R4), an order-independent PC-style baseline,
decomposable-criterion scoring, and a Monte-Carlo benchmark harness.
"""

from .citest import (
    CICache,
    CIEngine,
    CITestResult,
    FisherZBackend,
    GTestBackend,
    InjectedBackend,
    OracleBackend,
    OracleGraph,
    d_sep,
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
from .forward import NeighborhoodFamily, forward_step
from .maximize import NeighborSelection, SepComputer, maximization_step, q_value
from .pcstable import pc_stable, pc_stable_skeleton
from .score import FitReport, bic_of_graph, dag_extension, fit_local
from .simgen import (
    LinearSemSpec,
    SimReport,
    evaluate_recovery,
    gen_linear_sem,
    make_discrete_net,
)
from .skeleton_orient import (
    Cpdag,
    PriorKnowledge,
    SeparationRecord,
    build_skeleton,
    compute_sepsets,
    cpdag_from_dot,
    edge_significance,
    learn_structure,
    orient,
)

__version__ = "0.1.0"
