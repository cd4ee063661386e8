"""Root inference in random growing trees.

Samplers for uniform/preferential/alpha attachment, per-vertex root
estimators with confidence-set selection, exact enumeration oracles for
the underlying counting identities, and a reproducible Monte Carlo
experiment harness.
"""

from .errors import (
    BadSizeError,
    BadTError,
    CycleOrDisconnectedError,
    DuplicateEdgeError,
    NonIntegerResultError,
    RootfinderError,
    SelfLoopError,
    TooLargeError,
    UnsupportedModelError,
)
from .estimators import (
    ConfidenceSet,
    ScoreVector,
    phi_scores,
    psi_scores,
    root_posterior,
    score_tree,
    select_smallest,
    xi_scores,
    zeta_scores,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    parse_sweep_grid,
    results_csv,
    root_leaf_frequency,
    run_trials,
    sweep,
    wilson_interval,
)
from .generators import (
    ModelSpec,
    chain_probability,
    parse_model,
    sample_alpha_attachment,
    sample_preferential_attachment,
    sample_uniform_attachment,
)
from .isomorphism import aut_log, canonical_code, log_factorials, orbit_counts
from .oracle import (
    PartitionVector,
    PlaneGrowthTree,
    TailCheckResult,
    embedding_count,
    embedding_count_plane,
    enumerate_plane_recursive,
    enumerate_recursive,
    enumeration_posterior,
    exact_posterior,
    gamma_tail_check,
    hardy_ramanujan_bound,
    partition_count,
    product_tail_check,
)
from .rng import DEFAULT_SEED, RngStream, as_generator
from .trees import (
    GrowthTree,
    ShapeTree,
    build_shape,
    forget_labels,
    read_edge_list,
    read_growth,
    shape_of_growth,
    subtree_sizes,
    write_edge_list,
    write_growth,
)

__version__ = "0.1.0"
