import numpy as np
import pytest

from envlab import errors
from envlab.info_measures import (
    basis_conditioned_mutual_information,
    mutual_information,
    redundancy_report,
    trace_distance,
    von_neumann_entropy,
)
from envlab.measurement_models import (
    branch_records,
    build_branch_state,
)
from envlab.tensor_core import (
    DensityOperator,
    PureState,
    SpaceLayout,
    basis_state,
    controlled_shift,
    partial_trace,
    tensor_product,
)

from oracles import (
    dense_basis_conditioned_mutual_information,
    dense_mutual_information,
    dense_redundancy_report,
    entropy_oracle,
    mutual_information_oracle,
    single_state,
)


def chain_state(amplitudes, n_env, overlap=0.0):
    return build_branch_state("S", amplitudes, "A",
                              [f"E{i}" for i in range(n_env)], overlap)


def random_state(rng, dims, labels=None):
    labels = labels or [f"Q{i}" for i in range(len(dims))]
    v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return PureState(SpaceLayout(list(zip(labels, dims))), v / np.linalg.norm(v))


class TestEntropy:
    def test_pure_and_mixed_values(self):
        pure = basis_state(SpaceLayout([("S", 2), ("E", 2)]), [0, 0])
        assert von_neumann_entropy(partial_trace(pure, ["S"])) < 1e-12

        bell = PureState(SpaceLayout([("S", 2), ("E", 2)]),
                         np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert abs(von_neumann_entropy(partial_trace(bell, ["S"])) - 1.0) < 1e-12

        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(0.8), np.sqrt(0.2)
        skew = PureState(SpaceLayout([("S", 2), ("E", 2)]), amps)
        assert abs(von_neumann_entropy(partial_trace(skew, ["S"]))
                   - 0.7219281) < 1e-6

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            st = random_state(rng, [3, 4])
            rho = partial_trace(st, ["Q0"])
            assert abs(von_neumann_entropy(rho)
                       - entropy_oracle(rho.matrix)) < 1e-10

    def test_invalid_density(self):
        with pytest.raises(errors.InvalidDensity):
            DensityOperator(SpaceLayout([("S", 2)]),
                            np.array([[1.5, 0], [0, -0.5]]))


class TestMutualInformation:
    def test_product_state_zero(self):
        st = tensor_product(single_state("S", [0.6, 0.8]),
                            single_state("F", [1, 0]))
        assert dense_mutual_information(st, ["S"], ["F"]) < 1e-12

    def test_perfect_record_one_bit(self):
        st = chain_state([1 / np.sqrt(2), 1 / np.sqrt(2)], 1)
        mi = dense_mutual_information(st, ["S"], ["E0"])
        assert abs(mi - 1.0) < 1e-10

    def test_skewed_record(self):
        st = chain_state([np.sqrt(0.8), np.sqrt(0.2)], 1)
        mi = dense_mutual_information(st, ["S"], ["E0"])
        assert abs(mi - 0.7219281) < 1e-6

    def test_against_oracle_and_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            st = random_state(rng, [2, 3, 2])
            split = ["Q0"], ["Q2"]
            mi = dense_mutual_information(st, *split)
            want = mutual_information_oracle(st.amplitudes, [2, 3, 2],
                                             [0], [2])
            assert abs(mi - want) < 1e-10
            hs = von_neumann_entropy(partial_trace(st, ["Q0"]))
            hf = von_neumann_entropy(partial_trace(st, ["Q2"]))
            assert -1e-12 <= mi <= 2 * min(hs, hf) + 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        st = random_state(rng, [2, 2, 3])
        a = dense_mutual_information(st, ["Q0"], ["Q2"])
        b = dense_mutual_information(st, ["Q2"], ["Q0"])
        assert abs(a - b) < 1e-12

    def test_overlapping_split(self):
        st = chain_state([0.6, 0.8], 1)
        with pytest.raises(errors.OverlappingSplit):
            dense_mutual_information(st, ["S"], ["S", "E0"])


class TestRedundancy:
    @pytest.mark.parametrize("n_env", range(1, 11))
    def test_ratio_equals_environment_count(self, n_env):
        st = chain_state([1 / np.sqrt(2), 1 / np.sqrt(2)], n_env)
        rep = dense_redundancy_report(st, ["S"],
                                      [[f"E{i}"] for i in range(n_env)])
        assert abs(rep.ratio - n_env) < 1e-9
        for mi in rep.per_fragment_mi:
            assert abs(mi - 1.0) < 1e-10

    def test_uncorrelated_fragment(self):
        st = tensor_product(chain_state([0.6, 0.8], 1),
                            basis_state(SpaceLayout([("F", 2)]), [0]))
        rep = dense_redundancy_report(st, ["S"], [["E0"], ["F"]])
        assert rep.per_fragment_mi[1] < 1e-12

    def test_zero_entropy_ratio_undefined(self):
        st = tensor_product(single_state("S", [1, 0]),
                            basis_state(SpaceLayout([("E", 2)]), [0]))
        with pytest.raises(errors.UndefinedRatio):
            dense_redundancy_report(st, ["S"], [["E"]])


class TestBasisConditionedMI:
    def test_pointer_basis_full_bit(self):
        st = chain_state([1 / np.sqrt(2), 1 / np.sqrt(2)], 1)
        got = dense_basis_conditioned_mutual_information(
            st, ["S"], ["E0"], list(np.eye(2)))
        assert abs(got - 1.0) < 1e-10

    def test_conjugate_basis_nothing(self):
        st = chain_state([1 / np.sqrt(2), 1 / np.sqrt(2)], 1)
        had = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
        got = dense_basis_conditioned_mutual_information(
            st, ["S"], ["E0"], had)
        assert got < 1e-10

    def test_product_state_zero(self):
        st = tensor_product(single_state("S", [0.6, 0.8]),
                            single_state("F", [0.8, 0.6]))
        got = dense_basis_conditioned_mutual_information(
            st, ["S"], ["F"], list(np.eye(2)))
        assert got < 1e-12

    def test_never_exceeds_quantum_mi(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            st = random_state(rng, [2, 2, 2])
            split = ["Q0"], ["Q2"]
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            basis = list(np.linalg.qr(g)[0].T)
            bc = dense_basis_conditioned_mutual_information(st, *split, basis)
            assert bc <= dense_mutual_information(st, *split) + 1e-10


# each measure given the fragment (E0, E1) after labels it overlaps: the
# system in the first three, an earlier fragment in the last; ``mi``,
# ``bc`` and ``rr`` are the mutual information, basis-conditioned and
# redundancy measures
OVERLAPS = {
    "mutual_information": lambda st, mi, bc, rr: mi(
        st, ["S", "E1"], ["E0", "E1"]),
    "basis_conditioned": lambda st, mi, bc, rr: bc(
        st, ["S", "E1"], ["E0", "E1"], np.eye(4)),
    "redundancy_report": lambda st, mi, bc, rr: rr(
        st, ["S", "E1"], [["E0", "E1"]]),
    "redundancy_report earlier fragment": lambda st, mi, bc, rr: rr(
        st, ["S"], [["E1"], ["E0", "E1"]]),
}


# the library's measures take a branch state, the oracle's a dense one
@pytest.mark.parametrize("build, measures", [
    (build_branch_state, (dense_mutual_information,
                          dense_basis_conditioned_mutual_information,
                          dense_redundancy_report)),
    (branch_records, (mutual_information,
                      basis_conditioned_mutual_information,
                      redundancy_report)),
], ids=["dense", "branch"])
@pytest.mark.parametrize("name", list(OVERLAPS))
def test_one_overlap_rule(name, build, measures):
    st = build("S", [0.6, 0.8], "A", ["E0", "E1"], 0.3)
    with pytest.raises(errors.OverlappingSplit,
                       match=r"^fragment \('E0', 'E1'\) overlaps earlier "
                             r"labels$"):
        OVERLAPS[name](st, *measures)


@pytest.mark.parametrize("measure", [
    lambda st: mutual_information(st, "S", "E0"),
    lambda st: basis_conditioned_mutual_information(st, "S", "E0",
                                                    np.eye(2)),
    lambda st: redundancy_report(st, "S", ["E0", "E1"]),
], ids=["mutual_information", "basis_conditioned", "redundancy_report"])
def test_measures_take_a_branch_state_only(measure):
    dense = branch_records("S", [0.6, 0.8], "A", ["E0", "E1"], 0.3).dense()
    with pytest.raises(TypeError, match=r"^not a BranchState: PureState$"):
        measure(dense)


class TestTraceDistance:
    def test_values(self):
        rho0 = partial_trace(
            basis_state(SpaceLayout([("S", 2), ("E", 2)]), [0, 0]), ["S"])
        rho1 = partial_trace(
            basis_state(SpaceLayout([("S", 2), ("E", 2)]), [1, 0]), ["S"])
        assert abs(trace_distance(rho0, rho1) - 1.0) < 1e-12
        assert trace_distance(rho0, rho0) < 1e-15

    @pytest.mark.parametrize("other", [["S", "A"], "A"])
    def test_operators_on_different_layouts_are_rejected(self, other):
        # ["S", "A"] has another shape; "A" has S's shape on another label
        psi = branch_records("S", [0.6, 0.8], "A", ["E1", "E2"],
                             0.3).dense()
        with pytest.raises(errors.LayoutMismatch):
            trace_distance(partial_trace(psi, "S"), partial_trace(psi, other))
