"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output) and asserts the same condition, so the suite doubles as
a human-readable certification report.
"""
import itertools

import numpy as np
import pytest

from envlab.envariance import (
    born_probabilities,
    equal_amplitude_probabilities,
    fine_grain,
    is_envariant,
    rational_bounds,
    schmidt_phase_unitary,
    schmidt_probabilities,
)
from envlab.info_measures import redundancy_report
from envlab.measurement_models import (
    branch_records,
    build_branch_state,
)
from envlab.tensor_core import (
    PureState,
    SpaceLayout,
    SubsystemUnitary,
    basis_state,
    partial_trace,
    schmidt_decompose,
    tensor_product,
)

from oracles import (
    conditional_probability,
    dense_mutual_information,
    dense_redundancy_report,
    entangle_environment,
    enumerate_equal_terms,
    mutual_information_oracle,
    observer_record,
    partial_trace_oracle,
    phase_sensitivity_witness,
    premeasure,
    single_state,
    states_equal_up_to_global_phase,
    subset_probability,
)


def report(number: int, label: str, ok: bool) -> None:
    print(f"CRITERION {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def bipartite(amps_2d, labels=("S", "E")):
    amps = np.asarray(amps_2d, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    layout = SpaceLayout([(labels[0], amps.shape[0]),
                          (labels[1], amps.shape[1])])
    return PureState(layout, amps.ravel())


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(g)[0]


def rational_spectrum_state(rng, n, m):
    """Bipartite state whose squared Schmidt coefficients are counts/m."""
    w = rng.uniform(0.2, 1.0, size=n)
    counts = np.maximum(1, np.floor(w / w.sum() * m).astype(int))
    while counts.sum() > m:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < m:
        counts[np.argmin(counts)] += 1
    amps = np.zeros((n, m))
    for k in range(n):
        amps[k, k] = np.sqrt(counts[k] / m)
    return bipartite(amps), counts


def test_criterion_1_worked_born_example():
    # sqrt(2/3)|0>(|0>+|1>)/sqrt2 + sqrt(1/3)|2>|2>
    amps = np.zeros((3, 3))
    amps[0, 0] = amps[0, 1] = 1.0
    amps[2, 2] = 1.0
    state = bipartite(amps)

    probs = born_probabilities(state, ["S"])
    probs_ok = np.max(np.abs(probs - [2 / 3, 1 / 3])) < 1e-12

    fine = fine_grain(state, (2, 1), ["S"], "C")
    want = np.zeros((3, 3, 3), dtype=complex)
    want[0, 0, 0] = want[0, 1, 1] = want[2, 2, 2] = 1 / np.sqrt(3)
    expected = PureState(fine.layout, want.ravel())
    fine_ok = states_equal_up_to_global_phase(fine, expected, 1e-10)

    report(1, "worked Born example 2/3 vs 1/3", probs_ok and fine_ok)


def test_criterion_2_redundancy_ratio_counts_records():
    ok = True
    for n in range(1, 11):
        envs = [f"E{i}" for i in range(n)]
        state = branch_records(
            "S", (1 / np.sqrt(2), 1 / np.sqrt(2)), "A", envs)
        for rep in (redundancy_report(state, ["S"], [[e] for e in envs]),
                    dense_redundancy_report(state.dense(), ["S"],
                                            [[e] for e in envs])):
            ok &= abs(rep.ratio - n) < 1e-9
    report(2, "redundancy ratio equals environment count", ok)


def test_criterion_3_decoherence_diagonal_form():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        a /= np.linalg.norm(a)
        st = tensor_product(single_state("S", a),
                            basis_state(SpaceLayout([("A", d)]), [0]))
        st = premeasure(st, "S", "A")
        st = tensor_product(st, basis_state(SpaceLayout([("E", d)]), [0]))
        st = entangle_environment(st, "A", "E")
        rho = partial_trace(st, ["S", "A"]).matrix
        off = rho - np.diag(np.diag(rho))
        ok &= np.max(np.abs(off)) < 1e-12
        diag = np.diag(rho).real.reshape(d, d)
        ok &= np.max(np.abs(np.diag(diag) - np.abs(a) ** 2)) < 1e-12
    report(3, "decohered rho_SA is diagonal in the pointer basis", ok)


def test_criterion_4_equal_amplitudes_and_subset_additivity():
    rng = np.random.default_rng(42)
    ok = True
    for n in range(2, 17):
        state = bipartite(np.eye(n))
        probs = equal_amplitude_probabilities(state, ["S"])
        ok &= np.max(np.abs(probs - 1.0 / n)) < 1e-12
        subsets = [range(k) for k in range(1, n + 1)]
        subsets += [sorted(rng.choice(n, size=rng.integers(1, n + 1),
                                      replace=False).tolist())
                    for _ in range(5)]
        for sub in subsets:
            sub = list(sub)
            ok &= subset_probability(state, ["S"], sub) == len(set(sub)) / n
    report(4, "equal-amplitude outcomes are 1/N with exact additivity", ok)


def test_criterion_5_envariance_soundness_and_necessity():
    rng = np.random.default_rng(43)
    ok = True
    for _ in range(200):
        dl, dr = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        st = bipartite(rng.normal(size=(dl, dr))
                       + 1j * rng.normal(size=(dl, dr)))
        sd = schmidt_decompose(st, ["S"])

        u_phase = schmidt_phase_unitary(
            sd, rng.uniform(-np.pi, np.pi, sd.rank))
        verdict = is_envariant(st, SubsystemUnitary(("S",), u_phase.matrix),
                               sd)
        ok &= verdict.envariant and verdict.residual < 1e-10

        verdict = is_envariant(
            st, SubsystemUnitary(("S",), random_unitary(rng, dl)), sd)
        if verdict.envariant:
            ok &= verdict.residual < 1e-10
        else:
            ok &= verdict.witness_trace_distance > 1e-10
    report(5, "every verdict certified by undo or witness", ok)


def test_criterion_6_born_consistency_random_rational_spectra():
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 513 // (1 if n <= 4 else n)))
        state, _ = rational_spectrum_state(rng, n, min(m, 512))
        counted = born_probabilities(state, ["S"], m_cap=512)
        squared = schmidt_probabilities(state, ["S"])
        ok &= np.max(np.abs(counted - squared)) < 1e-10
    report(6, "counting matches squared coefficients on rational spectra", ok)


def test_criterion_7_bounding_convergence():
    p = np.cos(1.0) ** 2
    amps = np.zeros((2, 2))
    amps[0, 0], amps[1, 1] = np.sqrt(p), np.sqrt(1 - p)
    state = bipartite(amps)
    truth = np.array([p, 1 - p])
    ok = True
    for m in (100, 1000, 10000):
        lower, upper = rational_bounds(state, ["S"], m)
        ok &= np.all(upper - lower <= 2 / m + 1e-15)
        ok &= np.all(lower <= truth + 1e-15)
        ok &= np.all(truth <= upper + 1e-15)
    report(7, "interval widths shrink as 2/M around cos^2(1)", ok)


def test_criterion_8_conditional_collapse():
    st = tensor_product(
        build_branch_state("S", (1 / np.sqrt(2), 1 / np.sqrt(2))),
        basis_state(SpaceLayout([("M", 2)]), [0]))

    before = conditional_probability(st, "M", "S")
    ok = np.max(np.abs(before.conditional
                       - np.tile(before.prior, (2, 1)))) < 1e-12

    after = conditional_probability(observer_record(st, "S", "M"), "M", "S")
    ok &= np.max(np.abs(after.conditional - np.eye(2))) < 1e-12
    report(8, "memory record collapses the conditional table", ok)


def test_criterion_9_no_envariance_without_entanglement():
    a = single_state("S", np.array([1, 1, -1]) / np.sqrt(3))
    b = single_state("S", np.array([-1, 1, 1]) / np.sqrt(3))
    interference, recorded = phase_sensitivity_witness(a, b)
    report(9, "phases observable before records, hidden after",
           interference > 0.1 and recorded < 1e-12)


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(45)
    ok = True

    # partial trace and mutual information vs brute-force index summation
    shape_sets = [[2, 2], [2, 3, 2], [4, 4, 4], [2, 2, 2, 2, 2, 2, 2],
                  [4, 8, 8], [16, 16], [3, 5, 4], [6, 6, 7]]
    for dims in shape_sets:
        total = int(np.prod(dims))
        assert total <= 256
        v = rng.normal(size=total) + 1j * rng.normal(size=total)
        labels = [f"Q{i}" for i in range(len(dims))]
        st = PureState(SpaceLayout(list(zip(labels, dims))),
                       v / np.linalg.norm(v))
        n = len(dims)
        keep = sorted(rng.choice(n, size=rng.integers(1, n),
                                 replace=False).tolist())
        got = partial_trace(st, [labels[i] for i in keep]).matrix
        want = partial_trace_oracle(st.amplitudes, dims, keep)
        ok &= np.max(np.abs(got - want)) < 1e-12
        if n >= 2:
            mi = dense_mutual_information(st, [labels[0]], [labels[-1]])
            want_mi = mutual_information_oracle(st.amplitudes, dims,
                                                [0], [n - 1])
            ok &= abs(mi - want_mi) < 1e-12

    # fine-graining vs term enumeration
    for counts in [(1, 1), (2, 1), (3, 1, 4), (5, 2, 1), (4, 4)]:
        m = sum(counts)
        n = len(counts)
        if n * m * m > 256:
            continue
        amps = np.zeros((n, m))
        for k in range(n):
            amps[k, k] = np.sqrt(counts[k] / m)
        st = bipartite(amps)
        fine = fine_grain(st, sorted(counts, reverse=True), ["S"], "C")
        n_terms, mags, mult = enumerate_equal_terms(fine.amplitudes, n)
        ok &= n_terms == m
        ok &= np.max(np.abs(np.asarray(mags) - 1 / m)) < 1e-12
        ok &= sorted(mult.values()) == sorted(
            c for c in counts)
    report(10, "library agrees with brute-force oracles", ok)
