import numpy as np
import pytest

from envlab import errors
from envlab.measurement_models import (
    branch_records,
    broadcast_environment,
    build_branch_state,
    cascade_environment,
    record_states,
)
from envlab.tensor_core import (
    KERNEL_TOL,
    PureState,
    SpaceLayout,
    basis_state,
    partial_trace,
    relative_states,
    schmidt_decompose,
    tensor_product,
)

from oracles import (
    conditional_probability,
    dense_basis_conditioned_mutual_information,
    dense_mutual_information,
    dense_redundancy_report,
    entangle_environment,
    observer_record,
    premeasure,
    single_state,
)


def ready(label, dim=2):
    return basis_state(SpaceLayout([(label, dim)]), [0])


class TestPremeasure:
    def test_qubit_copy(self):
        st = tensor_product(single_state("S", [0.6, 0.8]), ready("A"))
        out = premeasure(st, "S", "A")
        np.testing.assert_allclose(out.amplitudes, [0.6, 0, 0, 0.8],
                                   atol=1e-15)

    def test_qutrit_schmidt_spectrum(self):
        st = tensor_product(single_state("S", [0.6, 0, 0.8]), ready("A", 3))
        out = premeasure(st, "S", "A")
        sd = schmidt_decompose(out, ["S"])
        np.testing.assert_allclose(sd.coefficients[:2], [0.8, 0.6],
                                   atol=1e-12)
        assert sd.rank == 2

    def test_apparatus_must_be_ready(self):
        st = tensor_product(single_state("S", [0.6, 0.8]),
                            single_state("A", [0, 1]))
        with pytest.raises(errors.ApparatusNotReady):
            premeasure(st, "S", "A")

    def test_apparatus_too_small(self):
        st = tensor_product(single_state("S", [0.6, 0, 0.8]), ready("A", 2))
        with pytest.raises(errors.DimensionMismatch):
            premeasure(st, "S", "A")


class TestEnvironmentEntanglement:
    def test_off_diagonals_vanish(self):
        st = tensor_product(
            premeasure(tensor_product(single_state("S", [0.6, 0.8]),
                                      ready("A")), "S", "A"),
            ready("E"))
        out = entangle_environment(st, "A", "E")
        rho_sa = partial_trace(out, ["S", "A"]).matrix
        off = rho_sa - np.diag(np.diag(rho_sa))
        assert np.max(np.abs(off)) < 1e-12
        np.testing.assert_allclose(np.diag(rho_sa).real[[0, 3]],
                                   [0.36, 0.64], atol=1e-12)

    def test_system_apparatus_correlations_kept(self):
        st = tensor_product(
            premeasure(tensor_product(single_state("S", [0.6, 0.8]),
                                      ready("A")), "S", "A"),
            ready("E"))
        before = partial_trace(st, ["S"]).matrix
        after = partial_trace(entangle_environment(st, "A", "E"),
                              ["S"]).matrix
        np.testing.assert_allclose(np.diag(after), np.diag(before),
                                   atol=1e-12)


class TestRecordStates:
    def test_zero_overlap_is_basis(self):
        recs = record_states(3, 3, 0.0)
        np.testing.assert_allclose(recs, np.eye(3), atol=1e-15)

    def test_adjacent_overlap_exact(self):
        for c in (0.3, 1 / np.sqrt(2), 0.9):
            recs = record_states(4, 4, c)
            for k in range(3):
                assert abs(np.dot(recs[k], recs[k + 1]) - c) < 1e-12
            for k in range(4):
                assert abs(np.linalg.norm(recs[k]) - 1) < 1e-12

    def test_bad_overlap(self):
        with pytest.raises(errors.BadOverlap):
            record_states(2, 2, 1.5)

    def test_too_small(self):
        with pytest.raises(errors.DimensionMismatch):
            record_states(3, 2, 0.0)


class TestBroadcast:
    def test_no_environments_identity(self):
        st = build_branch_state("S", (0.6, 0.8), "A")
        out = broadcast_environment(st, "A", [])
        np.testing.assert_allclose(out.amplitudes, st.amplitudes)

    def test_eight_perfect_records(self):
        st = build_branch_state("S", (1 / np.sqrt(2), 1 / np.sqrt(2)), "A",
                                [f"E{i}" for i in range(8)])
        rep = dense_redundancy_report(st, ["S"],
                                      [[f"E{i}"] for i in range(8)])
        assert abs(rep.ratio - 8.0) < 1e-9

    def test_partial_overlap_intermediate_information(self):
        st = build_branch_state("S", (1 / np.sqrt(2), 1 / np.sqrt(2)), "A",
                                ["E0"], np.cos(np.pi / 4))
        mi = dense_mutual_information(st, ["S"], ["E0"])
        assert 1e-3 < mi < 1.0 - 1e-3

    def test_overlap_one_no_information(self):
        st = build_branch_state("S", (0.6, 0.8), "A", ["E0"], 1.0)
        mi = dense_mutual_information(st, ["S"], ["E0"])
        assert mi < 1e-10

    def test_unitarity(self):
        st = build_branch_state("S", (0.5, 0.5, 1 / np.sqrt(2)), "A",
                                ["E0", "E1"], 0.4)
        assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12


class TestCascade:
    def _seed(self, n):
        st = build_branch_state("S", (1 / np.sqrt(2), 1 / np.sqrt(2)),
                                environments=[f"E{i}" for i in range(n)])
        for i in range(n):
            st = tensor_product(st, ready(f"F{i}"))
        return st

    def test_distant_records_match_pointer(self):
        st = cascade_environment(self._seed(3), [f"E{i}" for i in range(3)],
                                 [f"F{i}" for i in range(3)])
        for i in range(3):
            mi = dense_basis_conditioned_mutual_information(
                st, ["S"], [f"F{i}"], list(np.eye(2)))
            assert abs(mi - 1.0) < 1e-10

    def test_conjugate_basis_learns_nothing(self):
        st = cascade_environment(self._seed(3), [f"E{i}" for i in range(3)],
                                 [f"F{i}" for i in range(3)])
        had = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
        for i in range(3):
            mi = dense_basis_conditioned_mutual_information(
                st, ["S"], [f"F{i}"], had)
            assert mi < 1e-10

    def test_system_state_untouched(self):
        st = self._seed(2)
        before = partial_trace(st, ["S"]).matrix
        after = partial_trace(
            cascade_environment(st, ["E0", "E1"], ["F0", "F1"]),
            ["S"]).matrix
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            cascade_environment(self._seed(2), ["E0", "E1"], ["F0"])


class TestObserver:
    def test_record_then_conditionals_identity(self):
        st = build_branch_state("S", (0.6, 0.8))
        st = tensor_product(st, ready("M"))
        st = observer_record(st, "S", "M")
        table = conditional_probability(st, "M", "S")
        np.testing.assert_allclose(table.conditional, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(table.prior, [0.36, 0.64], atol=1e-12)
        assert table.defined.all()

    def test_unused_memory_rows_fall_back_to_prior(self):
        st = tensor_product(build_branch_state("S", (0.6, 0.8)),
                            ready("M", 3))
        st = observer_record(st, "S", "M")
        table = conditional_probability(st, "M", "S")
        assert not table.defined[2]
        np.testing.assert_allclose(table.conditional[2], table.prior,
                                   atol=1e-12)

    def test_memory_must_be_ready(self):
        st = tensor_product(single_state("S", [0.6, 0.8]),
                            single_state("M", [1, 1] / np.sqrt(2)))
        with pytest.raises(errors.ApparatusNotReady):
            observer_record(st, "S", "M")

    def test_equal_branches_half_half(self):
        st = tensor_product(
            build_branch_state("S", (1 / np.sqrt(2), 1 / np.sqrt(2))),
            ready("M"))
        table = conditional_probability(st, "M", "S")
        # memory never interacted: every defined row repeats the prior
        np.testing.assert_allclose(table.conditional[0], [0.5, 0.5],
                                   atol=1e-12)


def relative_state_conditionals(state, memory, system):
    """The conditional table composed from relative states: per memory
    basis outcome, the diagonal of the partner's reduced system operator."""
    prior = np.real(np.diag(partial_trace(state, [system]).matrix))
    dm = state.layout.dim(memory)
    rows, defined = [], []
    for coeff, partner in relative_states(state, [memory], np.eye(dm)):
        if abs(coeff) ** 2 < KERNEL_TOL or partner is None:
            rows.append(prior)
            defined.append(False)
            continue
        row = np.real(np.diag(partial_trace(partner, [system]).matrix))
        row = np.clip(row, 0.0, None)
        rows.append(row / row.sum())
        defined.append(True)
    return prior, np.array(rows), np.array(defined)


@pytest.mark.parametrize("layout, seed", [
    ([("M", 3), ("S", 2)], 40),
    ([("S", 3), ("X", 2), ("M", 3)], 41),
    ([("X", 2), ("M", 4), ("Y", 3), ("S", 2)], 42),
    ([("Y", 2), ("S", 4), ("M", 3), ("X", 2)], 43),
])
def test_conditionals_match_relative_states(layout, seed):
    # random complex amplitudes over extra labels; memory outcome 1 never
    # occurs, so its row falls back to the prior
    rng = np.random.default_rng(seed)
    dims = [d for _, d in layout]
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    m_axis = [l for l, _ in layout].index("M")
    np.moveaxis(amps, m_axis, 0)[1] = 0.0
    st = PureState(SpaceLayout(layout), amps.ravel() / np.linalg.norm(amps))
    table = conditional_probability(st, "M", "S")
    prior, conditional, defined = relative_state_conditionals(st, "M", "S")
    assert not table.defined[1]
    np.testing.assert_array_equal(table.defined, defined)
    np.testing.assert_allclose(table.prior, prior, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.conditional, conditional, rtol=0,
                               atol=1e-12)


def test_memory_and_system_must_differ():
    st = tensor_product(single_state("S", [0.6, 0.8]), ready("M"))
    with pytest.raises(errors.InvalidBipartition):
        conditional_probability(st, "S", "S")


class TestReadiness:
    """A target is ready when the part of the state off its |0> slice has
    norm at most STATE_TOL."""

    @staticmethod
    def _state(amps):
        return PureState(SpaceLayout([("S", 2), ("A", 2)]), amps)

    def _off_ready(self, eps=1e-8):
        # target leaves |0> only in a branch orthogonal on S as well
        return self._state([np.sqrt(1 - eps ** 2), 0, 0, eps])

    def test_small_orthogonal_off_ready_part_rejected(self):
        with pytest.raises(errors.ApparatusNotReady):
            premeasure(self._off_ready(), "S", "A")
        with pytest.raises(errors.ApparatusNotReady):
            broadcast_environment(self._off_ready(), "S", ["A"], overlap=0.3)

    def test_ready_target_accepted_at_norm_edge(self):
        st = self._state((1 + 8e-11) * np.array([0.6, 0, 0.8, 0]))
        out = premeasure(st, "S", "A")
        np.testing.assert_allclose(out.amplitudes,
                                   (1 + 8e-11) * np.array([0.6, 0, 0, 0.8]),
                                   rtol=0, atol=1e-15)
        broadcast_environment(st, "S", ["A"], overlap=0.3)


class TestBranchRecords:
    def test_validation(self):
        with pytest.raises(errors.NotNormalized):
            branch_records("S", (1.0, 1.0))
        with pytest.raises(errors.DimensionMismatch):
            branch_records("S", (1.0,))
        with pytest.raises(errors.BadOverlap):
            branch_records("S", (0.6, 0.8), overlap=-0.1)
