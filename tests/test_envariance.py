import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab import errors
from envlab.envariance import (
    _SCAN_BLOCK,
    DEFAULT_M_CAP,
    born_probabilities,
    bound_spectrum,
    count_spectrum,
    envariant_swap,
    equal_amplitude_probabilities,
    find_commensurate_denominator,
    fine_grain,
    is_envariant,
    present_outcomes,
    rational_bounds,
    schmidt_phase_unitary,
    schmidt_probabilities,
    schmidt_swap_unitary,
)
from envlab.tensor_core import (
    KERNEL_TOL,
    PureState,
    SchmidtDecomposition,
    SpaceLayout,
    SubsystemUnitary,
    apply_unitary,
    partial_trace,
    schmidt_decompose,
)

from oracles import (
    dense_born_probabilities,
    endpoint_counts,
    enumerate_equal_terms,
    phase_sensitivity_witness,
    scalar_commensurate_denominator,
    schmidt_phase_oracle,
    schmidt_state,
    single_state,
    states_equal_up_to_global_phase,
    subset_probability,
    swap_matrix_oracle,
)


def bipartite(amps_2d, labels=("S", "E")):
    amps = np.asarray(amps_2d, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    layout = SpaceLayout([(labels[0], amps.shape[0]),
                          (labels[1], amps.shape[1])])
    return PureState(layout, amps.ravel())


def bell():
    return bipartite([[1, 0], [0, 1]])


def two_thirds_state():
    # sqrt(2/3)|0>|u> + sqrt(1/3)|2>|2> with u uniform over {0,1}
    amps = np.zeros((3, 3))
    amps[0, 0] = amps[0, 1] = 1.0
    amps[2, 2] = 1.0
    return bipartite(amps)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(g)[0]


class TestSchmidtPhaseUnitary:
    def test_phases_are_envariant(self):
        rng = np.random.default_rng(31)
        st = bipartite(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
        sd = schmidt_decompose(st, ["S"])
        u = schmidt_phase_unitary(sd, [0.3, -1.1, 2.0])
        verdict = is_envariant(st, SubsystemUnitary(("S",), u.matrix), sd)
        assert verdict.envariant
        assert verdict.residual < 1e-10

    def test_zero_phases_identity(self):
        sd = schmidt_decompose(bell(), ["S"])
        u = schmidt_phase_unitary(sd, [0.0, 0.0])
        np.testing.assert_allclose(u.matrix, np.eye(2), atol=1e-12)

    def test_sign_flip_on_bell(self):
        sd = schmidt_decompose(bell(), ["S"])
        u = schmidt_phase_unitary(sd, [0.0, np.pi])
        flipped = apply_unitary(bell(), SubsystemUnitary(("S",), u.matrix))
        verdict = is_envariant(bell(), SubsystemUnitary(("S",), u.matrix),
                               sd)
        assert verdict.envariant
        undone = apply_unitary(flipped, verdict.undo)
        assert states_equal_up_to_global_phase(undone, bell(), 1e-10)

    def test_length_mismatch(self):
        sd = schmidt_decompose(bell(), ["S"])
        with pytest.raises(errors.LengthMismatch):
            schmidt_phase_unitary(sd, [0.1])


class TestIsEnvariant:
    def test_soundness_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            dl, dr = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            st = bipartite(rng.normal(size=(dl, dr))
                           + 1j * rng.normal(size=(dl, dr)))
            sd = schmidt_decompose(st, ["S"])
            u = schmidt_phase_unitary(sd, rng.uniform(-np.pi, np.pi, sd.rank))
            verdict = is_envariant(st, SubsystemUnitary(("S",), u.matrix),
                                   sd)
            assert verdict.envariant and verdict.residual < 1e-10
            moved = apply_unitary(st, SubsystemUnitary(("S",), u.matrix))
            restored = apply_unitary(moved, verdict.undo)
            assert states_equal_up_to_global_phase(restored, st, 1e-10)

    def test_necessity_sweep(self):
        rng = np.random.default_rng(33)
        hits = 0
        for _ in range(30):
            st = bipartite(rng.normal(size=(3, 3))
                           + 1j * rng.normal(size=(3, 3)))
            u = random_unitary(rng, 3)
            verdict = is_envariant(st, SubsystemUnitary(("S",), u),
                                   schmidt_decompose(st, ["S"]))
            if not verdict.envariant:
                hits += 1
                assert verdict.witness_trace_distance > 1e-10
                assert verdict.undo is None
        assert hits > 25  # random unitaries are almost never envariant

    def test_degenerate_spectrum_any_unitary(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            u = random_unitary(rng, 2)
            verdict = is_envariant(bell(), SubsystemUnitary(("S",), u),
                                   schmidt_decompose(bell(), ["S"]))
            assert verdict.envariant and verdict.residual < 1e-10

    def test_environment_unitary_rejected(self):
        with pytest.raises(errors.SideViolation):
            is_envariant(bell(), SubsystemUnitary(("E",), np.eye(2)),
                         schmidt_decompose(bell(), ["S"]))

    @pytest.mark.parametrize("state_layout, sd_layout, error", [
        ([("S", 3), ("E", 4)], [("S", 3), ("E", 5)], errors.LayoutMismatch),
        ([("S", 3), ("E", 4)], [("S", 2), ("E", 4)], errors.LayoutMismatch),
        ([("S", 3), ("E", 4), ("F", 1)], [("S", 3), ("E", 4)],
         errors.LayoutMismatch),
        ([("S", 3), ("E", 4)], [("S", 3), ("X", 4)], errors.UnknownLabel),
    ], ids=["environment_dimension", "system_dimension", "uncovered_label",
            "unknown_label"])
    def test_decomposition_of_another_layout_rejected(self, state_layout,
                                                      sd_layout, error):
        # an F of dimension 1 leaves every matrix shape intact: only the
        # label check sees that the decomposition omits it
        rng = np.random.default_rng(39)

        def random_state(subsystems):
            layout = SpaceLayout(subsystems)
            v = rng.normal(size=layout.total_dimension)
            return PureState(layout, v / np.linalg.norm(v))

        st = random_state(state_layout)
        sd = schmidt_decompose(random_state(sd_layout), ["S"])
        u = SubsystemUnitary("S", np.eye(3))
        with pytest.raises(error):
            is_envariant(st, u, sd)

    def test_another_states_decomposition_gives_no_undo(self):
        # U is envariant for the state, but the undo built from another
        # state's Schmidt partners fails its verification
        rng = np.random.default_rng(37)
        st, other = (bipartite(rng.normal(size=(3, 4))
                               + 1j * rng.normal(size=(3, 4)))
                     for _ in range(2))
        sd = schmidt_decompose(st, ["S"])
        u = schmidt_phase_unitary(sd, [0.3, 1.2, -0.7])
        assert is_envariant(st, u, sd).envariant
        verdict = is_envariant(st, u, schmidt_decompose(other, ["S"]))
        assert not verdict.envariant and verdict.undo is None
        assert verdict.reason == "undo construction failed to restore the state"
        assert verdict.residual > 0.1


def schmidt_form_state(coeffs, d_s, d_e, rng):
    """sum_k c_k |a_k>|b_k> over (S, E) with random complex frames; the
    frames are returned so unitaries can act on the Schmidt vectors."""
    a, b = random_unitary(rng, d_s), random_unitary(rng, d_e)
    c = np.asarray(coeffs, dtype=float)
    c = c / np.linalg.norm(c)
    r = c.size
    st = PureState(SpaceLayout([("S", d_s), ("E", d_e)]),
                   ((a[:, :r] * c) @ b[:, :r].T).ravel())
    return st, a


def assert_undone(st, u):
    verdict = is_envariant(st, u, schmidt_decompose(st, ["S"]))
    assert verdict.envariant, verdict.reason
    assert verdict.residual < 1e-10
    restored = apply_unitary(apply_unitary(st, u), verdict.undo)
    assert states_equal_up_to_global_phase(restored, st, 1e-10)


@st.composite
def envariant_inputs(draw):
    """A state of d_S, d_E <= 5 whose first ``block`` Schmidt coefficients
    are equal, and a system unitary the test expects to be envariant."""
    d_s, d_e = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rank = draw(st.integers(1, min(d_s, d_e)))
    block = draw(st.integers(1, rank))
    kind = draw(st.sampled_from(["schmidt_phase", "degenerate_block"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return d_s, d_e, rank, block, kind, seed


class TestVerifiedUndo:
    """The undo is the counter-rotation on the state's own Schmidt
    partners: applied to U|psi> it restores |psi>."""

    @settings(derandomize=True, max_examples=50, deadline=2000,
              database=None)
    @given(envariant_inputs())
    def test_undo_restores_the_state(self, inputs):
        d_s, d_e, rank, block, kind, seed = inputs
        rng = np.random.default_rng(seed)
        coeffs = np.concatenate([np.full(block, rng.uniform(0.1, 1.0)),
                                 rng.uniform(0.1, 1.0, rank - block)])
        st, frame = schmidt_form_state(coeffs, d_s, d_e, rng)
        if kind == "schmidt_phase":
            sd = schmidt_decompose(st, ["S"])
            u = schmidt_phase_unitary(sd, rng.uniform(-np.pi, np.pi, sd.rank))
        else:
            # any unitary inside the degenerate block, phases on the other
            # terms, any unitary on the system's unused dimensions
            w = np.zeros((d_s, d_s), dtype=complex)
            w[:block, :block] = random_unitary(rng, block)
            w[block:rank, block:rank] = np.diag(
                np.exp(1j * rng.uniform(-np.pi, np.pi, rank - block)))
            w[rank:, rank:] = random_unitary(rng, d_s - rank)
            u = SubsystemUnitary(("S",), frame @ w @ frame.conj().T)
        assert_undone(st, u)

    @pytest.mark.parametrize("smallest", [1e-6, 1e-9, 1e-11])
    def test_small_schmidt_coefficient(self, smallest):
        rng = np.random.default_rng(35)
        st, _ = schmidt_form_state([1.0, 0.7, smallest], 3, 4, rng)
        sd = schmidt_decompose(st, ["S"])
        assert sd.rank == 3
        assert_undone(st, schmidt_phase_unitary(sd, [0.4, -2.1, 1.3]))

    def test_one_state_size_decomposition(self, monkeypatch):
        # the caller decomposes the state once; the verdict decomposes
        # neither it nor U|psi>, and its one SVD is the r x r polar factor
        rng = np.random.default_rng(36)
        st, _ = schmidt_form_state([0.8, 0.5, 0.3], 3, 4, rng)
        sd = schmidt_decompose(st, ["S"])
        u = schmidt_phase_unitary(sd, [0.3, 1.2, -0.7])
        svd, shapes = np.linalg.svd, []

        def recorded_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        assert is_envariant(st, u, sd).envariant
        assert shapes == [(3, 3)]


class TestEnvariantSwap:
    def test_equal_coefficients_counterswap_restores(self):
        sd = schmidt_decompose(bell(), ["S"])
        swapped, counter = envariant_swap(bell(), 0, 1, sd)
        restored = apply_unitary(swapped, counter)
        assert states_equal_up_to_global_phase(restored, bell(), 1e-10)

    def test_unequal_coefficients_exchange(self):
        st = bipartite([[np.sqrt(0.8), 0], [0, np.sqrt(0.2)]])
        sd = schmidt_decompose(st, ["S"])
        swapped, _ = envariant_swap(st, 0, 1, sd)
        after = schmidt_probabilities(swapped, ["S"])
        np.testing.assert_allclose(sorted(after), [0.2, 0.8], atol=1e-12)
        # ... but the coefficient now attached to each system vector flips
        rho = partial_trace(swapped, ["S"]).matrix
        np.testing.assert_allclose(np.diag(rho).real, [0.2, 0.8], atol=1e-12)

    def test_self_swap_identity(self):
        st = bipartite([[np.sqrt(0.8), 0], [0, np.sqrt(0.2)]])
        sd = schmidt_decompose(st, ["S"])
        swapped, _ = envariant_swap(st, 1, 1, sd)
        assert states_equal_up_to_global_phase(swapped, st, 1e-12)

    def test_bad_index(self):
        sd = schmidt_decompose(bell(), ["S"])
        with pytest.raises(errors.BadIndex):
            envariant_swap(bell(), 0, 5, sd)

    def test_swap_unitary_undone_by_counterswap(self):
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0]))
        for st in (bell(), bipartite(np.diag(phases))):
            sd = schmidt_decompose(st, ["S"])
            for k, l in [(0, 1), (1, 0), (0, sd.rank - 1)]:
                swapped = apply_unitary(st, schmidt_swap_unitary(sd, k, l))
                _, counter = envariant_swap(st, k, l, sd)
                restored = apply_unitary(swapped, counter)
                assert states_equal_up_to_global_phase(restored, st, 1e-10)

    @pytest.mark.parametrize("k, l", [(0, 2), (-1, 0), (2, 2)])
    def test_swap_unitary_bad_index(self, k, l):
        sd = schmidt_decompose(bell(), ["S"])
        with pytest.raises(errors.BadIndex):
            schmidt_swap_unitary(sd, k, l)


class TestSchmidtUnitariesMatchOracle:
    """The phase unitary, the system swap and the environment counter-swap
    against their outer-product sums in ``oracles``."""

    def test_seeded_decompositions(self):
        rng = np.random.default_rng(38)
        for _ in range(60):
            d_s, d_e = (int(x) for x in rng.integers(2, 17, size=2))
            rank = int(rng.integers(1, min(d_s, d_e) + 1))
            st, _ = schmidt_form_state(rng.uniform(0.1, 1.0, rank), d_s, d_e,
                                       rng)
            sd = schmidt_decompose(st, ["S"])
            assert sd.rank == rank
            phases = rng.uniform(-np.pi, np.pi, rank)
            np.testing.assert_allclose(
                schmidt_phase_unitary(sd, phases).matrix,
                schmidt_phase_oracle(sd, phases), rtol=0, atol=1e-12)
            for k, l in rng.integers(0, rank, size=(3, 2)):
                np.testing.assert_allclose(
                    schmidt_swap_unitary(sd, k, l).matrix,
                    swap_matrix_oracle(sd.left_basis, k, l),
                    rtol=0, atol=1e-12)
                _, counter = envariant_swap(st, k, l, sd)
                np.testing.assert_allclose(
                    counter.matrix, swap_matrix_oracle(sd.right_basis, k, l),
                    rtol=0, atol=1e-12)

    def test_phase_unitary_at_the_guard_is_quick(self):
        # d = 1024 is the largest envariance input the default guard admits
        # (d^2 = 2^20); the basis is a QR of a seeded complex Gaussian
        d = 1024
        q = random_unitary(np.random.default_rng(20040971), d)
        sd = SchmidtDecomposition(("S",), ("E",), np.full(d, d ** -0.5), q,
                                  q.conj())
        phases = np.pi * (1.0 + np.arange(d)) / d
        start = time.perf_counter()
        u = schmidt_phase_unitary(sd, phases)
        assert time.perf_counter() - start < 1.0
        np.testing.assert_allclose(u.matrix @ q, q * np.exp(1j * phases),
                                   rtol=0, atol=1e-10)


class TestEqualAmplitudes:
    def test_bell_half_half(self):
        np.testing.assert_allclose(
            equal_amplitude_probabilities(bell(), ["S"]), [0.5, 0.5])

    def test_four_outcomes(self):
        st = bipartite(np.eye(4))
        np.testing.assert_allclose(
            equal_amplitude_probabilities(st, ["S"]), np.full(4, 0.25))

    def test_product_state_single_term(self):
        st = bipartite([[1, 0], [0, 0]])
        np.testing.assert_allclose(
            equal_amplitude_probabilities(st, ["S"]), [1.0])

    def test_unequal_rejected(self):
        st = bipartite([[np.sqrt(0.8), 0], [0, np.sqrt(0.2)]])
        with pytest.raises(errors.NotEqualAmplitude):
            equal_amplitude_probabilities(st, ["S"])

    def test_subset_additivity(self):
        st = bipartite(np.eye(3))
        assert abs(subset_probability(st, ["S"], [0, 2]) - 2 / 3) < 1e-15
        with pytest.raises(errors.BadIndex):
            subset_probability(st, ["S"], [3])


class TestFineGrain:
    def test_two_one_split(self):
        st = two_thirds_state()
        fine = fine_grain(st, (2, 1), ["S"], "C")
        count, mags, mult = enumerate_equal_terms(fine.amplitudes, 3)
        assert count == 3
        assert np.max(np.abs(np.asarray(mags) - 1 / 3)) < 1e-10
        assert sorted(mult.values()) == [1, 2]

    def test_equal_counts_trivial(self):
        fine = fine_grain(bell(), (1, 1), ["S"], "C")
        probs = equal_amplitude_probabilities(fine, ["S"])
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_mixed_counts_term_enumeration(self):
        m = np.array([3, 1, 4])
        amps = np.zeros((3, 8))
        for k in range(3):
            amps[k, k] = np.sqrt(m[k] / 8)
        st = bipartite(amps)
        fine = fine_grain(st, (4, 3, 1), ["S"], "C")
        count, mags, mult = enumerate_equal_terms(fine.amplitudes, 3)
        assert count == 8
        assert np.max(np.abs(np.asarray(mags) - 1 / 8)) < 1e-10
        assert sorted(mult.values()) == [1, 3, 4]

    def test_system_reduced_operator_untouched(self):
        st = two_thirds_state()
        before = partial_trace(st, ["S"]).matrix
        fine = fine_grain(st, (2, 1), ["S"], "C")
        after = partial_trace(fine, ["S"]).matrix
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_plan_mismatch(self):
        with pytest.raises(errors.PlanMismatch):
            fine_grain(bell(), (1, 1, 1), ["S"], "C")
        # 2/3 and 1/3 against the spectrum (1/2, 1/2)
        with pytest.raises(errors.PlanMismatch, match="squared coefficients "
                           "do not match counts within tolerance"):
            fine_grain(bell(), (2, 1), ["S"], "C")

    def test_zero_count(self):
        with pytest.raises(errors.PlanMismatch,
                           match="all fine-graining counts must be >= 1"):
            fine_grain(bell(), (2, 0), ["S"], "C")
        # the labels are checked first
        with pytest.raises(errors.UnknownLabel):
            fine_grain(bell(), (2, 0), ["X"], "C")


class TestCommensurate:
    def test_simple_fractions(self):
        m, counts = find_commensurate_denominator([2 / 3, 1 / 3], 1e-10)
        assert (m, counts) == (3, (2, 1))
        m, counts = find_commensurate_denominator([0.375, 0.125, 0.5], 1e-10)
        assert (m, counts) == (8, (3, 1, 4))

    def test_irrational_raises(self):
        p = np.cos(1.0) ** 2
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator([p, 1 - p], 1e-12, m_cap=1000)

    def test_matches_scalar_scan_on_random_spectra(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                counts = rng.integers(1, 400, size=n)
                probs = counts / counts.sum()
            else:
                probs = rng.dirichlet(np.ones(n))
            tol = float(rng.choice([1e-10, 1e-6, 1e-3]))
            try:
                want = scalar_commensurate_denominator(probs, tol, 3000)
            except errors.UseBoundsInstead:
                with pytest.raises(errors.UseBoundsInstead):
                    find_commensurate_denominator(probs, tol, 3000)
                continue
            assert find_commensurate_denominator(probs, tol, 3000) == want

    def test_matches_scalar_scan_on_a_seeded_grid(self):
        # exact fractions, random spectra, and p_0 = 1/2 with the rest
        # random, which p_0 alone would fit at every even M
        def agree(probs, tol, cap):
            try:
                want = scalar_commensurate_denominator(probs, tol, cap)
            except errors.UseBoundsInstead:
                with pytest.raises(errors.UseBoundsInstead):
                    find_commensurate_denominator(probs, tol, cap)
                return
            assert find_commensurate_denominator(probs, tol, cap) == want

        rng = np.random.default_rng(28)
        for n in range(1, 7):
            for tol in (1e-10, 1e-6, 1e-3, 0.5):
                counts = rng.integers(1, 500, size=n)
                rest = rng.dirichlet(np.ones(n))
                for probs in (counts / counts.sum(), rest,
                              np.append(0.5, rest[1:] / (2 * rest[1:].sum()))):
                    agree(probs, tol, int(rng.choice([7, 1025, 6000])))
        # many equal outcomes and a few others: one distinct value, its
        # multiplicity in the count sums, then the others
        for n in range(1, 7):
            for tol in (1e-10, 1e-6, 1e-3, 0.5):
                equal = int(rng.integers(10, 60))
                counts = np.append(np.ones(equal), rng.integers(1, 50, size=n))
                for probs in (counts / counts.sum(),
                              np.append(np.full(equal, 0.6 / equal),
                                        0.4 * rng.dirichlet(np.ones(n)))):
                    agree(probs, tol, int(rng.choice([7, 1025, 6000])))

    @pytest.mark.parametrize("m", [_SCAN_BLOCK + 1, _SCAN_BLOCK + 2,
                                   3 * _SCAN_BLOCK + 7])
    def test_hit_at_and_past_block_boundary(self, m):
        # n = 2 scans from M = 2: M = BLOCK + 1 closes the first block
        probs = np.array([1, m - 1]) / m
        want = scalar_commensurate_denominator(probs, 1e-10, 10 ** 4)
        assert want == (m, (1, m - 1))
        assert find_commensurate_denominator(probs, 1e-10) == want

    def test_many_outcomes_scan_narrower_blocks(self):
        # 600 outcomes, two distinct values: the smaller (1/1500) leaves
        # M = 1500 alone of the first block, M = 600 ... 1623, and the
        # larger (901/1500) keeps it
        counts = np.ones(600, dtype=int)
        counts[0] = 901
        probs = counts / counts.sum()
        want = scalar_commensurate_denominator(probs, 1e-10, 10 ** 4)
        assert want == (1500, tuple(counts))
        assert find_commensurate_denominator(probs, 1e-10) == want

    def test_hit_in_a_later_pass_of_one_block(self):
        # 1000 outcomes, p_0 = 1/2: at tolerance 1e-4 the smaller value
        # (1/1998) fits 358 M of the first block (1000 ... 2023), and
        # M = 1998, the 333rd of them, is the first the whole rule fits
        counts = np.ones(1000, dtype=int)
        counts[0] = 999
        probs = counts / counts.sum()
        want = scalar_commensurate_denominator(probs, 1e-4, 10 ** 4)
        assert want == (1998, tuple(counts))
        assert find_commensurate_denominator(probs, 1e-4) == want

    @staticmethod
    def many_outcomes(kind):
        """10^5 outcomes (seed 7): amplitudes 1 + 10^-3 N(0, 1), or
        probabilities uniform on [0.5, 1.5]."""
        rng = np.random.default_rng(7)
        if kind == "near-equal":
            amps = 1 + 1e-3 * rng.normal(size=10 ** 5)
            return amps ** 2 / (amps ** 2).sum()
        probs = rng.uniform(0.5, 1.5, size=10 ** 5)
        return probs / probs.sum()

    @pytest.mark.parametrize("kind, tol, cap", [
        ("near-equal", 1e-10, 3 * 10 ** 6),
        ("near-equal", 1e-10, 10 ** 7),
        ("uniform", 1e-10, 3 * 10 ** 6),
    ])
    def test_many_outcomes_miss_quickly(self, kind, tol, cap):
        probs = self.many_outcomes(kind)
        start = time.perf_counter()
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator(probs, tol, cap)
        assert time.perf_counter() - start < 1.0

    def test_a_block_that_no_value_narrows(self):
        # at tolerance 1e-6 every M of the first block, 10^5 ... 101023,
        # fits every value: the smallest M, tested whole, is the answer
        probs = self.many_outcomes("near-equal")
        start = time.perf_counter()
        got = find_commensurate_denominator(probs, 1e-6, 10 ** 7)
        assert time.perf_counter() - start < 1.0
        assert got == (10 ** 5, (1,) * 10 ** 5)

    @pytest.mark.parametrize("kind", ["near-equal", "uniform"])
    def test_a_stalled_block_reads_few_values(self, monkeypatch, kind):
        # at tolerance x m_cap = 0.1, the loosest validate admits, the
        # first value leaves about 900 blocks whole; the smallest M of
        # each is fitted 64 values at a time and fails in the first chunk,
        # where fitting all 10^5 values at once passes 10^8 through rint
        probs = self.many_outcomes(kind)
        rint, elements = np.rint, []

        def counted_rint(x, *args, **kwargs):
            elements.append(np.size(x))
            return rint(x, *args, **kwargs)

        monkeypatch.setattr(np, "rint", counted_rint)
        start = time.perf_counter()
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator(probs, 1e-8, 10 ** 7)
        assert time.perf_counter() - start < 1.0
        assert sum(elements) < 3 * 10 ** 7

    def test_full_miss_at_large_cap(self):
        p = np.cos(1.0) ** 2
        with pytest.raises(errors.UseBoundsInstead):
            scalar_commensurate_denominator([p, 1 - p], 1e-10, 10 ** 5)
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator([p, 1 - p], 1e-10, m_cap=10 ** 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize("kernel", [
    lambda p: find_commensurate_denominator(p, 1e-10, 100),
    lambda p: count_spectrum(p, 1e-10, 100, 100),
    present_outcomes,
    lambda p: bound_spectrum(p, 10),
], ids=["find_commensurate_denominator", "count_spectrum",
        "present_outcomes", "bound_spectrum"])
def test_counting_kernels_reject_a_spectrum_that_is_not_one(kernel, bad):
    # refused before numpy computes with the entry: no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidDensity):
            kernel([0.5, bad])


class TestBornProbabilities:
    def test_two_thirds_one_third(self):
        probs = born_probabilities(two_thirds_state(), ["S"])
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_equal_four(self):
        probs = born_probabilities(bipartite(np.eye(4)), ["S"])
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)

    def test_eighths(self):
        amps = np.zeros((3, 8))
        amps[0, 0], amps[1, 1], amps[2, 2] = (np.sqrt(0.375),
                                              np.sqrt(0.125), np.sqrt(0.5))
        probs = born_probabilities(bipartite(amps), ["S"])
        np.testing.assert_allclose(probs, [0.375, 0.125, 0.5], atol=1e-12)

    def test_matches_amplitude_squared(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            counts = rng.integers(1, 9, size=3)
            m = counts.sum()
            amps = np.zeros((3, int(m)))
            for k in range(3):
                amps[k, k] = np.sqrt(counts[k] / m)
            st = bipartite(amps)
            got = born_probabilities(st, ["S"], m_cap=64)
            want = schmidt_probabilities(st, ["S"])
            assert np.max(np.abs(got - want)) < 1e-10

    def test_pointer_order_not_coefficient_order(self):
        # pointer states |0>,|1>,|2> carry p = 1/8, 1/2, 3/8, partnered
        # with environment states in yet another order
        amps = np.zeros((3, 8), dtype=complex)
        amps[0, 5] = np.sqrt(1 / 8) * 1j
        amps[1, 0] = -np.sqrt(1 / 2)
        amps[2, 3] = np.sqrt(3 / 8) * np.exp(0.7j)
        st = bipartite(amps)
        want = [1 / 8, 1 / 2, 3 / 8]
        np.testing.assert_allclose(born_probabilities(st, ["S"]), want,
                                   atol=1e-12)
        np.testing.assert_allclose(schmidt_probabilities(st, ["S"]), want,
                                   atol=1e-12)

    def test_incommensurable_raises(self):
        p = np.cos(1.0) ** 2
        amps = np.zeros((2, 2))
        amps[0, 0], amps[1, 1] = np.sqrt(p), np.sqrt(1 - p)
        with pytest.raises(errors.UseBoundsInstead):
            born_probabilities(bipartite(amps), ["S"], m_cap=200)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_dense_oracle(self, n):
        rng = np.random.default_rng(37 + n)
        for m in range(n, 65):
            cuts = np.sort(rng.choice(np.arange(1, m), n - 1, replace=False))
            counts = np.diff(np.concatenate([[0], cuts, [m]]))
            # pointer k partnered with a scrambled environment state
            amps = np.zeros((n, m), dtype=complex)
            amps[np.arange(n), rng.permutation(m)[:n]] = \
                np.sqrt(counts / m) * np.exp(2j * np.pi * rng.random(n))
            st = bipartite(amps)
            np.testing.assert_array_equal(
                born_probabilities(st, ["S"], m_cap=64),
                dense_born_probabilities(st, ["S"], m_cap=64))

    @pytest.mark.parametrize("probs, env_dim, tol, error", [
        # counts fit within the loose tolerance, coefficients differ
        ([1 / 3 + 1e-7, 2 / 3 - 1e-7], 3, 1e-6, errors.UseBoundsInstead),
        # M = 3 record states do not fit a 2-dimensional environment
        ([1 / 3, 2 / 3], 2, 1e-10, errors.PlanMismatch),
    ])
    def test_same_errors_as_dense_oracle(self, probs, env_dim, tol, error):
        amps = np.zeros((2, env_dim))
        amps[0, 0], amps[1, 1] = np.sqrt(probs)
        st = bipartite(amps)
        with pytest.raises(error):
            dense_born_probabilities(st, ["S"], tol)
        with pytest.raises(error):
            born_probabilities(st, ["S"], tol)


class TestRationalBounds:
    def _irrational_state(self):
        p = np.cos(1.0) ** 2
        amps = np.zeros((2, 2))
        amps[0, 0], amps[1, 1] = np.sqrt(p), np.sqrt(1 - p)
        return bipartite(amps), p

    @pytest.mark.parametrize("m", [100, 1000, 10000])
    def test_bracketing_and_width(self, m):
        st, p = self._irrational_state()
        lower, upper = rational_bounds(st, ["S"], m)
        probs = np.array([p, 1 - p])
        assert np.all(lower <= probs + 1e-12)
        assert np.all(probs <= upper + 1e-12)
        assert np.max(upper - lower) <= 2 / m + 1e-12

    def test_exact_rational_zero_width(self):
        st = two_thirds_state()
        lower, upper = rational_bounds(st, ["S"], 300)
        assert np.max(upper - lower) < 1e-12

    def test_m_too_small(self):
        with pytest.raises(errors.MTooSmall):
            rational_bounds(bipartite(np.eye(3)), ["S"], 2)

    @pytest.mark.parametrize("diag", [
        [1 + 5e-11, 0],
        [np.sqrt(1 + 1e-10 - 1e-13), np.sqrt(1e-13)],
    ])
    def test_norm_just_above_one_stays_in_unit_interval(self, diag):
        # unnormalized on purpose: PureState accepts a norm within STATE_TOL
        st = PureState(SpaceLayout([("S", 2), ("E", 2)]),
                       np.diag(diag).ravel())
        lower, upper = rational_bounds(st, ["S"], 10 ** 4)
        assert np.all(0 <= lower)
        assert np.all(lower <= upper)
        assert np.all(upper <= 1)

    def test_endpoints_realized_by_comparison_states(self):
        rng = np.random.default_rng(20030816)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            m = int(np.exp(rng.uniform(np.log(n), np.log(10 ** 4 + 1))))
            lower, upper = rational_bounds(
                bipartite(np.diag(np.sqrt(probs))), ["S"], m)
            assert np.all(lower <= probs + 1e-12)
            assert np.all(probs <= upper + 1e-12)
            assert np.max(upper - lower) <= 2 / m + 1e-12
            for k in range(n):
                for end in (lower[k], upper[k]):
                    pinned = int(round(end * m))
                    counts = endpoint_counts(pinned, k, probs, m)
                    assert counts[k] == pinned
                    assert counts.min() >= 0 and counts.sum() == m
                    comparison = schmidt_state(np.sqrt(counts / m), m)
                    sd = schmidt_decompose(comparison, ["S"])
                    nonzero = counts[counts > 0]
                    assert sd.rank == nonzero.size
                    np.testing.assert_allclose(
                        sd.coefficients ** 2, np.sort(nonzero / m)[::-1],
                        rtol=0, atol=KERNEL_TOL)


def scrambled_state(probs, env_dim, seed):
    """sum_k sqrt(p_k) e^{i phi_k} |k>_S |pi(k)>_E with random phases and
    a random injection pi into the environment basis; returns the state
    and its spectrum |a_k|^2 in pointer order."""
    rng = np.random.default_rng(seed)
    n = len(probs)
    amps = np.zeros((n, env_dim), dtype=complex)
    amps[np.arange(n), rng.permutation(env_dim)[:n]] = \
        np.sqrt(probs) * np.exp(2j * np.pi * rng.random(n))
    state = bipartite(amps)
    mat = state.amplitudes.reshape(n, env_dim)
    return state, np.sum(np.abs(mat) ** 2, axis=1)


@st.composite
def count_vectors(draw):
    """(counts, M): 2 to 5 counts, each >= 1, summing to M <= 2000."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, 2000))
    cuts = sorted(draw(st.lists(st.integers(1, m - 1), min_size=n - 1,
                                max_size=n - 1, unique=True)))
    return np.diff(np.concatenate([[0], cuts, [m]])), m


SEEDS = st.integers(0, 2 ** 32 - 1)


class TestSpectrumKernels:
    """The library wrappers decompose once and call the spectrum kernels
    the CLI calls on |a_k|^2; both must agree with the paper's identities
    (p_k = m_k/M from counting, bounds bracketing p with width <= 2/M)."""

    @settings(derandomize=True, max_examples=50, deadline=2000,
              database=None)
    @given(count_vectors(), SEEDS)
    def test_counting_equals_counts_over_m(self, drawn, seed):
        counts, m = drawn
        state, probs = scrambled_state(counts / m, m, seed)
        counted = born_probabilities(state, ["S"])
        np.testing.assert_array_equal(
            counted, count_spectrum(probs, 1e-10, DEFAULT_M_CAP, m))
        np.testing.assert_allclose(counted, counts / m, rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=50, deadline=2000,
              database=None)
    @given(st.integers(2, 5), st.integers(2, 10 ** 4), SEEDS)
    def test_bounds_bracket_with_width_at_most_two_over_m(self, n, m, seed):
        m = max(m, n)
        truth = np.random.default_rng(seed).dirichlet(np.ones(n))
        state, probs = scrambled_state(truth, n + 3, seed)
        lower, upper = rational_bounds(state, ["S"], m)
        want_lower, want_upper = bound_spectrum(probs, m)
        np.testing.assert_array_equal(lower, want_lower)
        np.testing.assert_array_equal(upper, want_upper)
        assert np.all(lower <= truth + 1e-12)
        assert np.all(truth <= upper + 1e-12)
        assert np.max(upper - lower) <= 2 / m + 1e-12

    @settings(derandomize=True, max_examples=50, deadline=10000,
              database=None)
    @given(st.integers(65, 200), SEEDS)
    def test_two_outcomes_equal_dense_oracle_beyond_grid(self, m, seed):
        m1 = int(np.random.default_rng(seed).integers(1, m))
        state, _ = scrambled_state(np.array([m1, m - m1]) / m, m, seed)
        np.testing.assert_array_equal(
            born_probabilities(state, ["S"], m_cap=200),
            dense_born_probabilities(state, ["S"], m_cap=200))

    def test_zero_outcome_bounded_at_zero_and_not_counted(self):
        # amplitudes 0 and 1e-13 have no Schmidt term, even at a huge M
        lower, upper = bound_spectrum([0.0, 0.36, 1e-26, 0.64], 2)
        np.testing.assert_array_equal(lower, [0, 0, 0, 0.5])
        np.testing.assert_array_equal(upper, [0, 0.5, 0, 1])
        _, upper = bound_spectrum([1e-26, 1.0], 10 ** 18)
        np.testing.assert_array_equal(upper, [0, 1])
        with pytest.raises(errors.MTooSmall):
            bound_spectrum([0.0, 0.36, 0.64], 1)

    def test_empty_spectrum_uses_bounds(self):
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator([], 1e-10, 10)
        with pytest.raises(errors.UseBoundsInstead):
            count_spectrum([], 1e-10, 10, 10)

    def test_zero_outcome_has_no_count(self):
        with pytest.raises(errors.UseBoundsInstead):
            count_spectrum([0.0, 0.36, 0.64], 1e-10, DEFAULT_M_CAP,
                           DEFAULT_M_CAP)


class TestPhaseWitness:
    def test_sign_flipped_superpositions_distinguishable(self):
        a = single_state("S", np.array([1, 1, -1]) / np.sqrt(3))
        b = single_state("S", np.array([-1, 1, 1]) / np.sqrt(3))
        interference, recorded = phase_sensitivity_witness(a, b)
        assert interference > 0.1
        assert recorded < 1e-12

    def test_global_phase_invisible(self):
        a = single_state("S", np.array([1, 1]) / np.sqrt(2))
        b = single_state("S", np.array([1, 1]) * np.exp(0.7j) / np.sqrt(2))
        interference, recorded = phase_sensitivity_witness(a, b)
        assert interference < 1e-12
        assert recorded < 1e-12
