import numpy as np
import pytest

from envlab import errors
from envlab.envariance import (
    _SCAN_BLOCK,
    FineGrainingPlan,
    born_probabilities,
    envariant_swap,
    equal_amplitude_probabilities,
    find_commensurate_denominator,
    fine_grain,
    is_envariant,
    phase_sensitivity_witness,
    rational_bounds,
    schmidt_phase_unitary,
    schmidt_probabilities,
    schmidt_swap_unitary,
    subset_probability,
)
from envlab.tensor_core import (
    KERNEL_TOL,
    PureState,
    SpaceLayout,
    SubsystemUnitary,
    apply_unitary,
    partial_trace,
    schmidt_decompose,
    schmidt_state,
    single_state,
    states_equal_up_to_global_phase,
)

from oracles import (
    dense_born_probabilities,
    endpoint_counts,
    enumerate_equal_terms,
    scalar_commensurate_denominator,
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
        verdict = is_envariant(st, SubsystemUnitary(("S",), u.matrix), ["E"])
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
                               ["E"])
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
                                   ["E"])
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
            verdict = is_envariant(st, SubsystemUnitary(("S",), u), ["E"])
            if not verdict.envariant:
                hits += 1
                assert verdict.witness_trace_distance > 1e-10
                assert verdict.undo is None
        assert hits > 25  # random unitaries are almost never envariant

    def test_degenerate_spectrum_any_unitary(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            u = random_unitary(rng, 2)
            verdict = is_envariant(bell(), SubsystemUnitary(("S",), u), ["E"])
            assert verdict.envariant and verdict.residual < 1e-10

    def test_environment_unitary_rejected(self):
        with pytest.raises(errors.SideViolation):
            is_envariant(bell(), SubsystemUnitary(("E",), np.eye(2)), ["E"])


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
        plan = FineGrainingPlan((2, 1), ["S"], "C")
        fine = fine_grain(st, plan)
        count, mags, mult = enumerate_equal_terms(fine.amplitudes, 3)
        assert count == 3
        assert np.max(np.abs(np.asarray(mags) - 1 / 3)) < 1e-10
        assert sorted(mult.values()) == [1, 2]

    def test_equal_counts_trivial(self):
        plan = FineGrainingPlan((1, 1), ["S"], "C")
        fine = fine_grain(bell(), plan)
        probs = equal_amplitude_probabilities(fine, ["S"])
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_mixed_counts_term_enumeration(self):
        m = np.array([3, 1, 4])
        amps = np.zeros((3, 8))
        for k in range(3):
            amps[k, k] = np.sqrt(m[k] / 8)
        st = bipartite(amps)
        plan = FineGrainingPlan((4, 3, 1), ["S"], "C")
        fine = fine_grain(st, plan)
        count, mags, mult = enumerate_equal_terms(fine.amplitudes, 3)
        assert count == 8
        assert np.max(np.abs(np.asarray(mags) - 1 / 8)) < 1e-10
        assert sorted(mult.values()) == [1, 3, 4]

    def test_system_reduced_operator_untouched(self):
        st = two_thirds_state()
        before = partial_trace(st, ["S"]).matrix
        fine = fine_grain(st, FineGrainingPlan((2, 1), ["S"], "C"))
        after = partial_trace(fine, ["S"]).matrix
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_plan_mismatch(self):
        plan = FineGrainingPlan((1, 1, 1), ["S"], "C")
        with pytest.raises(errors.PlanMismatch):
            fine_grain(bell(), plan)


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

    @pytest.mark.parametrize("m", [_SCAN_BLOCK + 1, _SCAN_BLOCK + 2,
                                   3 * _SCAN_BLOCK + 7])
    def test_hit_at_and_past_block_boundary(self, m):
        # n = 2 scans from M = 2: M = BLOCK + 1 closes the first block
        probs = np.array([1, m - 1]) / m
        want = scalar_commensurate_denominator(probs, 1e-10, 10 ** 4)
        assert want == (m, (1, m - 1))
        assert find_commensurate_denominator(probs, 1e-10) == want

    def test_full_miss_at_large_cap(self):
        p = np.cos(1.0) ** 2
        with pytest.raises(errors.UseBoundsInstead):
            scalar_commensurate_denominator([p, 1 - p], 1e-10, 10 ** 5)
        with pytest.raises(errors.UseBoundsInstead):
            find_commensurate_denominator([p, 1 - p], 1e-10, m_cap=10 ** 5)


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
        ([1 / 3 + 1e-7, 2 / 3 - 1e-7], 3, 1e-6, errors.NotEqualAmplitude),
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
        bound = rational_bounds(st, ["S"], m)
        probs = np.array([p, 1 - p])
        assert np.all(bound.lower <= probs + 1e-12)
        assert np.all(probs <= bound.upper + 1e-12)
        assert np.max(bound.widths) <= 2 / m + 1e-12

    def test_exact_rational_zero_width(self):
        st = two_thirds_state()
        bound = rational_bounds(st, ["S"], 300)
        assert np.max(bound.widths) < 1e-12

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
        bound = rational_bounds(st, ["S"], 10 ** 4)
        assert np.all(0 <= bound.lower)
        assert np.all(bound.lower <= bound.upper)
        assert np.all(bound.upper <= 1)

    def test_endpoints_realized_by_comparison_states(self):
        rng = np.random.default_rng(20030816)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            m = int(np.exp(rng.uniform(np.log(n), np.log(10 ** 4 + 1))))
            bound = rational_bounds(bipartite(np.diag(np.sqrt(probs))),
                                    ["S"], m)
            assert np.all(bound.lower <= probs + 1e-12)
            assert np.all(probs <= bound.upper + 1e-12)
            assert np.max(bound.widths) <= 2 / m + 1e-12
            for k in range(n):
                for end in (bound.lower[k], bound.upper[k]):
                    pinned = int(round(end * m))
                    counts = endpoint_counts(pinned, k, probs, m)
                    assert counts[k] == pinned
                    assert counts.min() >= 0 and counts.sum() == m
                    comparison = schmidt_state(np.sqrt(counts / m), m)
                    coeffs = schmidt_decompose(comparison, ["S"]).coefficients
                    np.testing.assert_allclose(
                        coeffs ** 2, np.sort(counts / m)[::-1],
                        rtol=0, atol=KERNEL_TOL)


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
