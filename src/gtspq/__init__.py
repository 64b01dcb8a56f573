"""Desk-scale workbench for clustered-tour (GTSP) optimization.

Pipeline: GTSPLIB parsing -> instance reduction -> one-hot QUBO -> sampling
(exhaustive scan, simulated annealing, one-hot-subspace alternating-operator
simulator, external adapter) -> feasibility / approximation-ratio reports
against an exact baseline.
"""

from .baseline import ExactResult, exact_solve, random_tours
from .bench import (
    ExperimentGroup,
    InstanceReport,
    approximation_ratio,
    build_report,
    emit,
)
from .instance import (
    GtspInstance,
    GtsplibError,
    is_feasible_tour,
    parse_gtsplib,
    serialize_gtsplib,
    tour_cost,
    tour_costs,
)
from .preprocess import ReductionRecord, cluster_subsample, nn2c_reduce
from .qaoa import (
    PartitionLayout,
    QaoaParams,
    apply_ring,
    cost_diagonal,
    cost_phase,
    grid_search,
    initial_state,
    run_qaoa,
    sample_shots,
    xy_ring_matrix,
)
from .qubo import (
    QuboModel,
    build_qubo,
    decode,
    decode_rows,
    encode_rows,
    energies,
    energy,
    from_terms,
    penalty_weight,
)
from .sampler import (
    AnnealSchedule,
    Backend,
    Failure,
    SampleSet,
    default_schedule,
    exhaustive_ground_state,
    external_sampler_submit,
    http_transport,
    sa_sample,
)

__version__ = "0.1.0"
