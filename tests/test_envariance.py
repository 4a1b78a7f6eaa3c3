import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab import errors
from envlab.envariance import (
    _SCAN_BLOCK,
    DEFAULT_M_CAP,
    FineGrainingPlan,
    born_probabilities,
    bound_spectrum,
    count_spectrum,
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
    verdict = is_envariant(st, u, ["E"])
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
        # the state is decomposed once; U|psi> is never decomposed
        rng = np.random.default_rng(36)
        st, _ = schmidt_form_state([0.8, 0.5, 0.3], 3, 4, rng)
        u = schmidt_phase_unitary(schmidt_decompose(st, ["S"]),
                                  [0.3, 1.2, -0.7])
        svd, shapes = np.linalg.svd, []

        def recorded_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        assert is_envariant(st, u, ["E"]).envariant
        assert shapes.count((3, 4)) == 1


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
        bound = rational_bounds(state, ["S"], m)
        want = bound_spectrum(probs, m)
        np.testing.assert_array_equal(bound.lower, want.lower)
        np.testing.assert_array_equal(bound.upper, want.upper)
        assert bound.m_used == want.m_used == m
        assert np.all(bound.lower <= truth + 1e-12)
        assert np.all(truth <= bound.upper + 1e-12)
        assert np.max(bound.widths) <= 2 / m + 1e-12

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
        bound = bound_spectrum([0.0, 0.36, 1e-26, 0.64], 2)
        np.testing.assert_array_equal(bound.lower, [0, 0, 0, 0.5])
        np.testing.assert_array_equal(bound.upper, [0, 0.5, 0, 1])
        bound = bound_spectrum([1e-26, 1.0], 10 ** 18)
        np.testing.assert_array_equal(bound.upper, [0, 1])
        with pytest.raises(errors.MTooSmall):
            bound_spectrum([0.0, 0.36, 0.64], 1)

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
