"""The public names ``envlab`` exports.  Removing or adding one is an API
change, so it edits this list in the same change."""
import types

import envlab

EXPORTS = [
    "BranchState", "DensityOperator", "EnvLabError", "EnvarianceVerdict",
    "PureState", "RedundancyReport", "SchmidtDecomposition", "SpaceLayout",
    "SubsystemUnitary", "apply_unitary", "attach_ready",
    "basis_conditioned_mutual_information", "basis_state",
    "born_probabilities", "branch_density", "branch_outcomes",
    "branch_records", "broadcast_environment", "build_branch_state",
    "cascade_environment", "controlled_shift", "envariant_swap",
    "equal_amplitude_probabilities", "fine_grain", "is_envariant",
    "mutual_information", "partial_trace", "rational_bounds",
    "reduced_spectrum", "redundancy_report", "relative_states",
    "schmidt_decompose", "schmidt_phase_unitary", "schmidt_swap_unitary",
    "tensor_product", "trace_distance", "von_neumann_entropy",
]


def test_public_exports_are_pinned():
    # modules aside, as the CI summary lists them
    names = sorted(n for n, v in vars(envlab).items()
                   if not n.startswith("_")
                   and not isinstance(v, types.ModuleType))
    assert names == EXPORTS
