"""envlab: exact multi-partite pure-state simulation of environmental
record redundancy and the envariance route to outcome probabilities."""

from .errors import EnvLabError
from .tensor_core import (
    BranchState,
    DensityOperator,
    PureState,
    SchmidtDecomposition,
    SpaceLayout,
    SubsystemUnitary,
    apply_unitary,
    attach_ready,
    basis_state,
    branch_density,
    branch_outcomes,
    controlled_shift,
    partial_trace,
    reduced_spectrum,
    relative_states,
    schmidt_decompose,
    tensor_product,
)
from .info_measures import (
    RedundancyReport,
    basis_conditioned_mutual_information,
    mutual_information,
    redundancy_report,
    trace_distance,
    von_neumann_entropy,
)
from .measurement_models import (
    branch_records,
    broadcast_environment,
    build_branch_state,
    cascade_environment,
)
from .envariance import (
    EnvarianceVerdict,
    born_probabilities,
    envariant_swap,
    equal_amplitude_probabilities,
    fine_grain,
    is_envariant,
    rational_bounds,
    schmidt_phase_unitary,
    schmidt_swap_unitary,
)

__version__ = "0.1.0"
