import math
import tracemalloc

import numpy as np
import pytest

from envlab import errors
from envlab.envariance import _pointer_order, fine_grain
from envlab.tensor_core import (
    KERNEL_TOL,
    BranchState,
    DensityOperator,
    PureState,
    SpaceLayout,
    SubsystemUnitary,
    _check_dimension,
    apply_unitary,
    basis_state,
    controlled_shift,
    global_phase_distance,
    matricize,
    partial_trace,
    relative_states,
    schmidt_decompose,
    tensor_product,
)

from oracles import (
    kron_embed_oracle,
    load_state,
    outer_product_oracle,
    partial_trace_oracle,
    pointer_order_oracle,
    relative_phase_oracle,
    save_state,
    schmidt_convention_oracle,
    schmidt_reconstruct,
    schmidt_state,
    single_state,
    states_equal_up_to_global_phase,
)


def random_state(rng, dims, labels=None):
    labels = labels or [f"Q{i}" for i in range(len(dims))]
    v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return PureState(SpaceLayout(list(zip(labels, dims))), v / np.linalg.norm(v))


def bell_state():
    return PureState(SpaceLayout([("S", 2), ("E", 2)]),
                     np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestLayoutAndState:
    def test_duplicate_label_rejected(self):
        with pytest.raises(errors.LabelCollision):
            SpaceLayout([("S", 2), ("S", 3)])

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setenv("ENVLAB_DIM_GUARD", "16")
        with pytest.raises(errors.SpaceTooLarge):
            SpaceLayout([("A", 4), ("B", 5)])
        SpaceLayout([("A", 4), ("B", 4)])

    def test_dimension_guard_past_float_range(self, monkeypatch):
        # 1^m is 1 at any m; 2^m with m past float range is refused
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        _check_dimension([(1, 10 ** 400), (2, 3)])
        with pytest.raises(errors.SpaceTooLarge) as caught:
            _check_dimension([(1, 10 ** 400), (2, 10 ** 400)])
        assert str(caught.value) == (
            f"total dimension about 10^(10^399.48) exceeds guard {2 ** 20}")

    def test_norm_enforced(self):
        with pytest.raises(errors.NotNormalized):
            PureState(SpaceLayout([("S", 2)]), [1.0, 1.0])

    def test_index_convention_leftmost_slowest(self):
        st = basis_state(SpaceLayout([("S", 2), ("A", 3)]), [1, 2])
        assert st.amplitudes[1 * 3 + 2] == 1.0

    def test_schmidt_state_pairs_and_pads(self):
        st = schmidt_state([0.6, 0.8j], 3)
        assert st.layout.subsystems == (("S", 2), ("E", 3))
        np.testing.assert_array_equal(st.amplitudes,
                                      [0.6, 0, 0, 0, 0.8j, 0])
        with pytest.raises(errors.DimensionMismatch):
            schmidt_state([0.6, 0.8], 1)

    @pytest.mark.parametrize("amps, env_dim", [
        ([0.6, 0.8], 2), ([0.6, -0.8], 4), ([0.6, 0.8j], 3),
        ([0.5, -0.3 + 0.7j, -0.1j, -0.4], 5), ([0, -1], 2),
        ([0.6, 0, -0.8], 3), ([-1], 1), ([0, 0, -1j], 4),
    ])
    def test_schmidt_state_is_the_diagonal_embedding(self, amps, env_dim):
        amps = np.asarray(amps, dtype=complex) / np.linalg.norm(amps)
        d = amps.size
        mat = np.zeros((d, env_dim), dtype=complex)   # the embedding by hand
        mat[np.arange(d), np.arange(d)] = amps
        got = schmidt_state(amps, env_dim).amplitudes
        # bit for bit, except that a -0.0 part (as in -1j) is stored as 0.0
        assert got.tobytes() == (mat.ravel() + 0.0).tobytes()

    def test_schmidt_state_peak_memory_is_a_few_states(self):
        # dense() forms no n x D array over every label
        d = 256
        amps = np.full(d, d ** -0.5)
        schmidt_state(amps, d)
        tracemalloc.start()
        try:
            state = schmidt_state(amps, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * state.amplitudes.nbytes


@pytest.mark.parametrize("build, error, message", [
    (lambda: SpaceLayout([("", 2)]), errors.LabelCollision,
     "empty subsystem label"),
    (lambda: SpaceLayout([("S", 2), ("E", 0)]), ValueError,
     "dimension of 'E' must be >= 1"),
    (lambda: PureState(SpaceLayout([("S", 2), ("E", 2)]), [1, 0, 0]),
     ValueError, "amplitude length 3 != total dimension 4"),
    (lambda: SubsystemUnitary("S", np.eye(2, 3)), errors.NotUnitary,
     r"matrix shape \(2, 3\) is not square"),
    (lambda: apply_unitary(bell_state(), SubsystemUnitary("S", np.eye(3))),
     ValueError, "unitary dimension 3 != target dimension 2"),
    (lambda: DensityOperator(SpaceLayout([("S", 2)]), np.eye(3) / 3),
     ValueError, r"matrix shape \(3, 3\) != \(2, 2\)"),
    (lambda: DensityOperator(SpaceLayout([("S", 2)]), [[0.5, 0.5], [0, 0.5]]),
     errors.InvalidDensity, "matrix not Hermitian within tolerance"),
    (lambda: DensityOperator(SpaceLayout([("S", 2)]), np.eye(2)),
     errors.InvalidDensity, r"trace \(2\+0j\) differs from 1"),
    (lambda: basis_state(SpaceLayout([("S", 2), ("E", 2)]), [0]),
     ValueError, "one index per subsystem required"),
    (lambda: basis_state(SpaceLayout([("S", 2), ("E", 3)]), [0, 3]),
     ValueError, "index 3 out of range for dimension 3"),
    (lambda: controlled_shift(bell_state(), ["S", "E"], "E"),
     errors.LabelCollision, "target coincides with a control"),
    (lambda: relative_states(bell_state(), ["E", "S"], np.eye(4)),
     errors.InvalidBipartition, "left side covers the whole layout"),
    (lambda: fine_grain(bell_state(), (1, 1), ["S"], "E"),
     errors.PlanMismatch, "ancilla label 'E' already used"),
], ids=["empty_label", "zero_dimension", "amplitude_length",
        "non_square_unitary", "unitary_dimension", "density_shape",
        "density_not_hermitian", "density_trace", "basis_index_count",
        "basis_index_range", "shift_target_is_control",
        "relative_states_whole_layout", "fine_grain_ancilla_used"])
def test_malformed_input_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestTensorProduct:
    def test_basis_product(self):
        a = basis_state(SpaceLayout([("S", 2)]), [0])
        b = basis_state(SpaceLayout([("A", 2)]), [0])
        np.testing.assert_allclose(tensor_product(a, b).amplitudes,
                                   [1, 0, 0, 0])

    def test_superposition_expansion(self):
        a = single_state("S", [1 / np.sqrt(2), 1 / np.sqrt(2)])
        b = basis_state(SpaceLayout([("A", 2)]), [1])
        np.testing.assert_allclose(
            tensor_product(a, b).amplitudes,
            [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = random_state(rng, [2], ["S"])
        b = random_state(rng, [3], ["E"])
        want = outer_product_oracle(a.amplitudes, b.amplitudes)
        np.testing.assert_allclose(tensor_product(a, b).amplitudes, want,
                                   atol=1e-12)

    def test_label_collision(self):
        a = basis_state(SpaceLayout([("S", 2)]), [0])
        with pytest.raises(errors.LabelCollision):
            tensor_product(a, a)


class TestApplyUnitary:
    def test_bit_flip(self):
        st = basis_state(SpaceLayout([("S", 2), ("A", 2)]), [0, 0])
        x = SubsystemUnitary(("S",), np.array([[0, 1], [1, 0]]))
        out = apply_unitary(st, x)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_premeasurement_controlled_shift(self):
        alpha, beta = 0.6, 0.8
        st = tensor_product(single_state("S", [alpha, beta]),
                            basis_state(SpaceLayout([("A", 2)]), [0]))
        out = controlled_shift(st, "S", "A")
        np.testing.assert_allclose(out.amplitudes, [alpha, 0, 0, beta],
                                   atol=1e-15)

    def test_middle_subsystem_against_kron_oracle(self):
        rng = np.random.default_rng(5)
        st = random_state(rng, [2, 3, 2], ["A", "B", "C"])
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(g)[0]
        out = apply_unitary(st, SubsystemUnitary(("B",), u))
        full = kron_embed_oracle([2, 3, 2], [1], u)
        np.testing.assert_allclose(out.amplitudes, full @ st.amplitudes,
                                   atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            st = random_state(rng, [2, 2, 3])
            g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            u = SubsystemUnitary(("Q0", "Q2"), np.linalg.qr(g)[0])
            out = apply_unitary(st, u)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_unknown_label(self):
        st = basis_state(SpaceLayout([("S", 2)]), [0])
        u = SubsystemUnitary(("X",), np.eye(2))
        with pytest.raises(errors.UnknownLabel):
            apply_unitary(st, u)

    def test_not_unitary(self):
        with pytest.raises(errors.NotUnitary):
            SubsystemUnitary(("S",), np.array([[1, 1], [0, 1]]))


class TestPartialTrace:
    def test_bell_maximally_mixed(self):
        rho = partial_trace(bell_state(), ["S"])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_branch_state_diagonal_form(self):
        # state of the entangled S-A-E chain with orthonormal records
        a = np.array([0.6, 0.8])
        st = tensor_product(
            tensor_product(single_state("S", a),
                           basis_state(SpaceLayout([("A", 2)]), [0])),
            basis_state(SpaceLayout([("E", 2)]), [0]))
        st = controlled_shift(st, "S", "A")
        st = controlled_shift(st, "A", "E")
        rho = partial_trace(st, ["S", "A"])
        want = np.zeros((4, 4))
        want[0, 0], want[3, 3] = a[0] ** 2, a[1] ** 2
        np.testing.assert_allclose(rho.matrix, want, atol=1e-12)

    def test_random_states_against_index_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 5)
            dims = [int(rng.integers(2, 4)) for _ in range(n)]
            st = random_state(rng, dims)
            keep = sorted(rng.choice(n, size=rng.integers(1, n + 1),
                                     replace=False).tolist())
            rho = partial_trace(st, [f"Q{i}" for i in keep])
            want = partial_trace_oracle(st.amplitudes, dims, keep)
            np.testing.assert_allclose(rho.matrix, want, atol=1e-12)
            assert abs(np.trace(rho.matrix) - 1) < 1e-10
            assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10

    def test_pure_state_input_only(self):
        # the type is checked before the keep set, so an unknown label
        # cannot mask it
        layout = SpaceLayout([("S", 2), ("E", 2)])
        for state in (partial_trace(bell_state(), ["S", "E"]),
                      BranchState(layout, [0.6, 0.8], [np.eye(2)] * 2)):
            with pytest.raises(TypeError, match=type(state).__name__):
                partial_trace(state, ["X"])

    def test_empty_keep(self):
        with pytest.raises(errors.EmptyKeepSet):
            partial_trace(bell_state(), [])


class TestSchmidt:
    def test_product_state_single_coefficient(self):
        st = basis_state(SpaceLayout([("S", 2), ("E", 2)]), [0, 1])
        sd = schmidt_decompose(st, ["S"])
        assert sd.rank == 1
        assert abs(sd.coefficients[0] - 1.0) < 1e-12

    def test_bell_coefficients(self):
        sd = schmidt_decompose(bell_state(), ["S"])
        np.testing.assert_allclose(sd.coefficients, [1, 1] / np.sqrt(2),
                                   atol=1e-12)

    def test_unbalanced_coefficients(self):
        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(0.8), np.sqrt(0.2)
        st = PureState(SpaceLayout([("S", 2), ("E", 2)]), amps)
        sd = schmidt_decompose(st, ["S"])
        np.testing.assert_allclose(sd.coefficients, [0.8944272, 0.4472136],
                                   atol=1e-6)

    def test_round_trip_100_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dl, dr = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            st = random_state(rng, [dl, dr], ["L", "R"])
            sd = schmidt_decompose(st, ["L"])
            back = schmidt_reconstruct(sd, st.layout)
            assert global_phase_distance(back, st) < 1e-10
            assert np.all(np.diff(sd.coefficients) <= 1e-12)

    def test_phase_convention_left_basis(self):
        rng = np.random.default_rng(10)
        st = random_state(rng, [3, 4], ["L", "R"])
        sd = schmidt_decompose(st, ["L"])
        for k in range(sd.rank):
            col = sd.left_basis[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_phase_fix_on_complex_leading_entries(self):
        # left Schmidt vectors whose first significant entry is complex
        # and not always in row 0
        left = np.array([[0, np.exp(0.4j)],
                         [np.exp(2.1j), 0],
                         [np.exp(-1.3j), 0]]) / np.array([np.sqrt(2), 1])
        amps = (left * [np.sqrt(0.7), np.sqrt(0.3)]) @ np.eye(2, 3)
        st = PureState(SpaceLayout([("S", 3), ("E", 3)]), amps.ravel())
        sd = schmidt_decompose(st, ["S"])
        for k in range(sd.rank):
            col = sd.left_basis[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0
        assert global_phase_distance(schmidt_reconstruct(sd, st.layout),
                                     st) < 1e-12

    def test_degenerate_coefficients_ordered_by_leading_row(self):
        # coefficient sqrt(1/2) on |1>, a degenerate pair sqrt(1/4) on
        # |2> and |0>: the pair comes after, led by row 0 then row 2
        amps = np.zeros((3, 3))
        amps[1, 0] = np.sqrt(0.5)
        amps[2, 1] = amps[0, 2] = np.sqrt(0.25)
        st = PureState(SpaceLayout([("S", 3), ("E", 3)]), amps.ravel())
        sd = schmidt_decompose(st, ["S"])
        leading = [int(np.flatnonzero(np.abs(sd.left_basis[:, k]) > 1e-12)[0])
                   for k in range(3)]
        assert leading == [1, 0, 2]

    def test_nonzero_count_equals_rank(self):
        st = basis_state(SpaceLayout([("S", 3), ("E", 3)]), [0, 0])
        sd = schmidt_decompose(st, ["S"])
        rho = partial_trace(st, ["S"])
        rank = int(np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-12))
        assert sd.rank == rank

    def test_only_terms_above_kernel_tol(self):
        # rank-deficient states: the amplitudes (0.6, 0.8, 0) on a
        # 5-dimensional environment, then seeded ones with zero entries
        sd = schmidt_decompose(schmidt_state([0.6, 0.8, 0], 5), ["S"])
        np.testing.assert_allclose(sd.coefficients, [0.8, 0.6],
                                   rtol=0, atol=1e-12)
        assert (sd.left_basis.shape, sd.right_basis.shape) == ((3, 2), (5, 2))
        states = [schmidt_state([0.6, 0.8, 0], 5)]
        rng = np.random.default_rng(33)
        while len(states) < 100:
            dl, dr = (int(x) for x in rng.integers(2, 9, size=2))
            amps = rng.choice([0, 0.5, -0.5, 1, 2], size=(dl, dr))
            amps[rng.random(dl) < 0.4] = 0          # zero system rows
            if np.any(amps):
                states.append(PureState(SpaceLayout([("S", dl), ("E", dr)]),
                                        amps.ravel() / np.linalg.norm(amps)))
        deficient = 0
        for st in states:
            sd = schmidt_decompose(st, ["S"])
            deficient += sd.rank < min(st.layout.dims)
            assert sd.coefficients.min() > KERNEL_TOL
            assert sd.left_basis.shape[1] == sd.right_basis.shape[1] == sd.rank
            rebuilt = (sd.left_basis * sd.coefficients) @ sd.right_basis.T
            assert np.max(np.abs(rebuilt - matricize(st, ["S"]))) < 1e-12
        assert deficient > 50

    def test_convention_matches_loop_oracle(self):
        # 320 seeded states over three labels of dimension 1-4, split one
        # label against two in a random order: complex, rounded to small
        # integers, of lower rank than their sides, and monomial (one entry
        # per row and column, so degenerate coefficients with distinct
        # leading rows), at full and lower rank; the terms, the
        # relative-state phases and the pointer order have the bits of the
        # per-column loops
        rng = np.random.default_rng(34)
        degenerate = deficient = 0
        kinds = ("complex", "rounded", "low rank", "monomial",
                 "monomial low rank")
        for i in range(320):
            kind, labels = kinds[i % 5], ["A", "B", "C"]
            dims = dict(zip(labels, (int(d) for d in rng.integers(1, 5, 3))))
            left = [str(l) for l in rng.permutation(labels)[:1 + i % 2]]
            right = [l for l in labels if l not in left]
            dl, dr = math.prod(dims[l] for l in left), \
                math.prod(dims[l] for l in right)
            r = min(dl, dr)
            if "low rank" in kind:
                r = int(rng.integers(1, r)) if r > 1 else 1
            if "monomial" in kind:
                mat = np.zeros((dl, dr), dtype=complex)
                mat[rng.permutation(dl)[:r], rng.permutation(dr)[:r]] = \
                    rng.choice([1, -1, 1j, -1j, 2], size=r)
            else:
                a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                        for shape in ((dl, r), (r, dr)))
                mat = np.round(1.5 * a) @ np.round(1.5 * b) \
                    if kind == "rounded" else a @ b
            if not np.any(mat):
                mat[0, 0] = 1
            order = [str(l) for l in rng.permutation(labels)]
            arr = np.moveaxis(mat.reshape([dims[l] for l in left + right]),
                              range(3), [order.index(l) for l in left + right])
            st = PureState(SpaceLayout([(l, dims[l]) for l in order]),
                           arr.ravel() / np.linalg.norm(mat))
            sd = schmidt_decompose(st, left)
            rows = matricize(st, st.layout.split(left)[0])   # layout order
            want = schmidt_convention_oracle(*np.linalg.svd(
                rows, full_matrices=False))
            for got, ref in zip((sd.coefficients, sd.left_basis,
                                 sd.right_basis), want):
                assert got.shape == ref.shape and np.array_equal(got, ref)
            assert np.array_equal(_pointer_order(sd), pointer_order_oracle(sd))
            keys = np.round(sd.coefficients / KERNEL_TOL)
            degenerate += np.unique(keys).size < sd.rank
            deficient += sd.rank < min(dl, dr)
            gauss = rng.normal(size=(dl, dl)) + 1j * rng.normal(size=(dl, dl))
            basis = np.eye(dl) if kind in ("rounded", "monomial") \
                else np.linalg.qr(gauss)[0]
            for vec, (coeff, partner) in zip(
                    basis, relative_states(st, left, list(basis))):
                w = vec.conj() @ rows
                c = np.linalg.norm(w)
                if c < KERNEL_TOL:
                    assert coeff == 0 and partner is None
                    continue
                phase = relative_phase_oracle(w / c)
                assert coeff == c * phase
                assert np.array_equal(partner.amplitudes, w / c / phase)
        assert degenerate > 40 and deficient > 40

    def test_trivial_bipartition(self):
        st = single_state("S", [1, 0])
        with pytest.raises(errors.InvalidBipartition):
            schmidt_decompose(st, ["S"])


class TestRelativeStates:
    def test_bell_in_hadamard_basis(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        terms = relative_states(bell_state(), ["S"], [plus, minus])
        assert abs(abs(terms[0][0]) - 1 / np.sqrt(2)) < 1e-12
        np.testing.assert_allclose(terms[0][1].amplitudes, plus, atol=1e-12)
        np.testing.assert_allclose(terms[1][1].amplitudes, minus, atol=1e-12)

    def test_schmidt_basis_recovers_partners(self):
        rng = np.random.default_rng(12)
        st = random_state(rng, [3, 3], ["L", "R"])
        sd = schmidt_decompose(st, ["L"])
        basis = [sd.left_basis[:, k] for k in range(3)]
        terms = relative_states(st, ["L"], basis)
        for k, (coeff, partner) in enumerate(terms):
            if sd.coefficients[k] < 1e-12:
                assert partner is None
                continue
            assert abs(abs(coeff) - sd.coefficients[k]) < 1e-10
        # Schmidt partners are pairwise orthogonal
        kept = [p for _, p in terms if p is not None]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert abs(np.vdot(kept[i].amplitudes,
                                   kept[j].amplitudes)) < 1e-10

    def test_premeasured_state_coefficients(self):
        a = np.array([0.6, 0.8j])
        st = tensor_product(single_state("S", a),
                            basis_state(SpaceLayout([("A", 2)]), [0]))
        st = controlled_shift(st, "S", "A")
        terms = relative_states(st, ["S"], [np.eye(2)[0], np.eye(2)[1]])
        np.testing.assert_allclose([t[0] for t in terms], a, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        st = random_state(rng, [2, 2, 2])
        basis = np.linalg.qr(rng.normal(size=(4, 4))
                             + 1j * rng.normal(size=(4, 4)))[0].T
        terms = relative_states(st, ["Q0", "Q2"], list(basis))
        # rebuild sum_k b_k |basis_k>|partner_k> and compare
        acc = np.zeros_like(st.tensor())
        for b, (c, partner) in zip(basis, terms):
            if partner is None:
                continue
            joint = np.einsum("i,j->ij", b, c * partner.amplitudes)
            acc += joint.reshape(2, 2, 2).transpose(0, 2, 1)
        np.testing.assert_allclose(acc.ravel(), st.amplitudes, atol=1e-10)

    def test_bad_basis(self):
        with pytest.raises(errors.BadBasis):
            relative_states(bell_state(), ["S"],
                            [np.array([1, 0]), np.array([1, 0])])


class TestPhaseEquality:
    def test_identity_and_global_phase(self):
        st = bell_state()
        assert states_equal_up_to_global_phase(st, st, 1e-12)
        flipped = PureState(st.layout, -st.amplitudes)
        assert states_equal_up_to_global_phase(st, flipped, 1e-12)

    def test_orthogonal_states(self):
        a = basis_state(SpaceLayout([("S", 2), ("E", 2)]), [0, 0])
        assert not states_equal_up_to_global_phase(a, bell_state(), 1e-10)

    def test_layout_mismatch(self):
        a = basis_state(SpaceLayout([("S", 2)]), [0])
        b = basis_state(SpaceLayout([("X", 2)]), [0])
        with pytest.raises(errors.LayoutMismatch):
            states_equal_up_to_global_phase(a, b)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        st = random_state(rng, [2, 3], ["S", "E"])
        path = tmp_path / "state.json"
        save_state(st, path)
        back = load_state(path)
        assert back.layout == st.layout
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) <= 1e-15
