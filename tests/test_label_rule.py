"""One rule for label-set arguments: a bare string is one label.

Every entry point that takes a set of labels gives the same result for
a bare multi-character label as for a one-element list holding it.
"""
import numpy as np
import pytest

from envlab import errors
from envlab.envariance import (
    FineGrainingPlan,
    born_probabilities,
    fine_grain,
    is_envariant,
    rational_bounds,
    schmidt_probabilities,
)
from envlab.info_measures import (
    FragmentSpec,
    basis_conditioned_mutual_information,
    mutual_information,
    redundancy_report,
)
from envlab.measurement_models import (
    BranchSpec,
    branch_records,
    broadcast_environment,
    build_branch_state,
    cascade_environment,
)
from envlab.tensor_core import (
    PureState,
    SpaceLayout,
    SubsystemUnitary,
    apply_unitary,
    attach_ready,
    branch_density,
    branch_outcomes,
    controlled_shift,
    matricize,
    partial_trace,
    reduced_spectrum,
    relative_states,
    schmidt_decompose,
)

from oracles import single_state

SPEC = BranchSpec("Sys", 2, [0.6, 0.8], 0.3)
DENSE = build_branch_state(SPEC, "App", ["E1", "E2"])
BRANCH = branch_records(SPEC, "App", ["E1", "E2"])
# Schmidt spectrum (2/3, 1/3) across (Sys, E1), room for M = 3 records
COUNTED = PureState(SpaceLayout([("Sys", 3), ("E1", 2)]),
                    np.sqrt([2 / 3, 0, 0, 1 / 3, 0, 0]))
X = np.array([[0, 1], [1, 0]])
FOURIER = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _verdict(v):
    return (v.envariant, v.residual, v.witness_trace_distance,
            v.undo.targets, v.undo.matrix)


def _report(r):
    return (r.per_fragment_mi, r.mi_sum, r.system_entropy, r.ratio)


# each case takes ``w``, which passes a label either bare or in a list
CASES = {
    "ordered": lambda w: DENSE.layout.ordered(w("E1")),
    "complement": lambda w: DENSE.layout.complement(w("E1")),
    "split": lambda w: DENSE.layout.split(w("E1")),
    "subdim": lambda w: DENSE.layout.subdim(w("E1")),
    "restrict": lambda w: DENSE.layout.restrict(w("E1")).subsystems,
    "matricize": lambda w: matricize(DENSE, w("E1")),
    "SubsystemUnitary": lambda w: apply_unitary(
        DENSE, SubsystemUnitary(w("E1"), X)).amplitudes,
    "controlled_shift": lambda w: controlled_shift(
        DENSE, w("E1"), "Sys").amplitudes,
    "partial_trace": lambda w: partial_trace(DENSE, w("E1")).matrix,
    "schmidt_decompose": lambda w: (lambda sd: (
        sd.left_labels, sd.coefficients, sd.left_basis))(
        schmidt_decompose(DENSE, w("E1"))),
    "relative_states": lambda w: [(c, p.amplitudes) for c, p in
                                  relative_states(DENSE, w("E1"), FOURIER)],
    "is_envariant": lambda w: _verdict(is_envariant(
        COUNTED, SubsystemUnitary("Sys", np.diag([1, -1, 1j])), w("E1"))),
    "born_probabilities": lambda w: born_probabilities(COUNTED, w("E1")),
    "schmidt_probabilities": lambda w: schmidt_probabilities(COUNTED, w("E1")),
    "rational_bounds": lambda w: (lambda b: (b.lower, b.upper))(
        rational_bounds(COUNTED, w("E1"), 10)),
    "FineGrainingPlan": lambda w: fine_grain(
        COUNTED, FineGrainingPlan((2, 1), w("E1"), "Anc")).amplitudes,
    "FragmentSpec": lambda w: (lambda s: (s.system_labels, s.fragment_labels))(
        FragmentSpec(w("Sys"), w("E1"))),
    "mutual_information dense": lambda w: mutual_information(
        DENSE, FragmentSpec(w("Sys"), w("E1"))),
    "mutual_information branch": lambda w: mutual_information(
        BRANCH, FragmentSpec(w("Sys"), w("E1"))),
    "basis_conditioned dense": lambda w: basis_conditioned_mutual_information(
        DENSE, FragmentSpec(w("Sys"), w("E1")), FOURIER),
    "basis_conditioned branch": lambda w: basis_conditioned_mutual_information(
        BRANCH, FragmentSpec(w("Sys"), w("E1")), FOURIER),
    "redundancy_report": lambda w: _report(redundancy_report(
        BRANCH, w("Sys"), [w("E1"), w("E2")])),
    "branch_density": lambda w: branch_density(BRANCH, w("Sys")),
    "reduced_spectrum": lambda w: reduced_spectrum(BRANCH, w("E1")),
    "branch_outcomes": lambda w: branch_outcomes(
        BRANCH, w("Sys"), w("E1"), FOURIER),
    "branch_records": lambda w: (lambda b: (b.layout.subsystems, b.kets))(
        branch_records(SPEC, "App", w("E1"))),
    "build_branch_state": lambda w: (lambda s: (
        s.layout.subsystems, s.amplitudes))(
        build_branch_state(SPEC, "App", w("E1"))),
    "broadcast_environment": lambda w: broadcast_environment(
        attach_ready(single_state("Sys", [0.6, 0.8]), "E1", 2), "Sys",
        w("E1"), 0.3).amplitudes,
    "cascade_environment": lambda w: cascade_environment(
        attach_ready(build_branch_state(BranchSpec("Sys", 2, [0.6, 0.8]),
                                        None, ["E1"]), "F1", 2),
        w("E1"), w("F1")).amplitudes,
}


def _assert_same(a, b):
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", list(CASES))
def test_bare_label_is_one_label(name):
    _assert_same(CASES[name](lambda l: l), CASES[name](lambda l: [l]))


def test_bare_environment_is_one_subsystem():
    assert branch_records(SPEC, "App", "E1").layout.labels == (
        "Sys", "App", "E1")
    assert DENSE.layout.complement("E1") == ("Sys", "App", "E2")


def test_first_unknown_label_is_named():
    # the same label in every process, whatever the string hash seed;
    # complement raised nothing and returned every label
    layout = DENSE.layout
    for resolve in (layout.ordered, layout.complement, layout.split):
        with pytest.raises(errors.UnknownLabel, match="'X1'"):
            resolve(["Sys", "X1", "X2", "X3", "X4", "X5", "X6"])


def test_index_of_unknown_label():
    # UnknownLabel, not the KeyError of the label->position dict
    with pytest.raises(errors.UnknownLabel, match="'X1'"):
        DENSE.layout.index("X1")


def fresh_branch():
    """``BRANCH`` without the results earlier tests made it keep: a kept
    result is looked up without resolving any label set."""
    return branch_records(SPEC, "App", ["E1", "E2"])


@pytest.mark.parametrize("call, label_sets", [
    # the branch kernels count the labels they are given by position and
    # never split the layout: their keys and products need no N-long tuple
    pytest.param(lambda: reduced_spectrum(fresh_branch(), ["Sys", "App"]), 0,
                 id="reduced_spectrum"),
    # the other side reduced
    pytest.param(lambda: reduced_spectrum(fresh_branch(), "E1"), 0,
                 id="reduced_spectrum_other_side"),
    pytest.param(lambda: branch_density(fresh_branch(), ["Sys", "E2"]), 0,
                 id="branch_density"),
    pytest.param(lambda: branch_outcomes(fresh_branch(), "Sys", ["E1", "E2"],
                                         np.kron(FOURIER, FOURIER)), 0,
                 id="branch_outcomes"),
    pytest.param(lambda: partial_trace(DENSE, ["Sys", "E1"]), 1,
                 id="partial_trace"),
    pytest.param(lambda: schmidt_decompose(DENSE, "Sys"), 1,
                 id="schmidt_decompose"),
    pytest.param(lambda: relative_states(DENSE, "E1", np.eye(2)), 1,
                 id="relative_states"),
    # H(S), then the fragment in layout order
    pytest.param(lambda: basis_conditioned_mutual_information(
        DENSE, FragmentSpec("Sys", ["E2", "E1"]), np.eye(4)), 2,
        id="basis_conditioned_dense"),
])
def test_branch_kernels_resolve_each_label_set_once(monkeypatch, call,
                                                    label_sets):
    calls, real = [], SpaceLayout.split

    def counting(layout, labels):
        calls.append(labels)
        return real(layout, labels)

    monkeypatch.setattr(SpaceLayout, "split", counting)
    call()
    assert len(calls) == label_sets
