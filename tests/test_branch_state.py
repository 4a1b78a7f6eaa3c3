"""The branch-structured path against the dense one it replaces.

``branch_records`` keeps the state that the gate-chain oracle
``oracles.build_branch_state`` builds as pointer amplitudes plus one
table of record kets per label; every entropy, mutual information,
redundancy ratio, rho_SA coherence and basis-conditioned information
read from it must match the dense state reduced by ``partial_trace``
(or measured on its amplitudes) within 1e-10.
"""
import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab import errors, measurement_models
from envlab.info_measures import (
    _entropy,
    basis_conditioned_mutual_information,
    mutual_information,
    redundancy_report,
)
from envlab.measurement_models import (
    branch_records,
    record_states,
)
from envlab.tensor_core import (
    BranchState,
    PureState,
    SpaceLayout,
    branch_density,
    partial_trace,
    reduced_spectrum,
)
from oracles import (
    build_branch_state,
    dense_basis_conditioned_mutual_information,
    dense_mutual_information,
    dense_redundancy_report,
)

TOL = 1e-10


def both_paths(amps, n_env, overlap):
    envs = [f"E{i + 1}" for i in range(n_env)]
    return (branch_records("S", amps, "A", envs, overlap),
            build_branch_state("S", amps, "A", envs, overlap), envs)


def dense_spectrum(state, labels):
    """Descending eigenvalues of rho on ``labels`` or on its complement,
    whichever is smaller (a pure state's sides share their spectrum)."""
    rest = state.layout.split(labels)[1]
    if not rest:
        return np.array([np.vdot(state.amplitudes, state.amplitudes).real])
    if state.layout.subdim(rest) < state.layout.subdim(labels):
        labels = rest
    return np.linalg.eigvalsh(partial_trace(state, labels).matrix)[::-1]


def assert_paths_agree(amps, n_env, overlap):
    branch, dense, envs = both_paths(amps, n_env, overlap)
    few = tuple(envs[:3])      # keeps the dense reductions small
    sides = [("S",), ("A",), (envs[0],), ("S", envs[0]), few, ("S",) + few,
             ("S", "A"), tuple(envs), ("S", "A") + tuple(envs)]
    for labels in sides:
        got = reduced_spectrum(branch, labels)[::-1]
        want = dense_spectrum(dense, labels)
        k = min(got.size, want.size)
        np.testing.assert_allclose(got[:k], want[:k], rtol=0, atol=TOL)
        assert np.all(np.abs(got[k:]) <= TOL)
        assert np.all(np.abs(want[k:]) <= TOL)
    for system, fragment in [(("S",), (envs[0],)), (("S",), few),
                             (("S", "A"), (envs[-1],)), (("A",), few)]:
        assert abs(mutual_information(branch, system, fragment)
                   - dense_mutual_information(dense, system, fragment)) <= TOL
    got = redundancy_report(branch, ("S",), [(e,) for e in envs])
    want = dense_redundancy_report(dense, ("S",), [(e,) for e in envs])
    np.testing.assert_allclose(got.per_fragment_mi, want.per_fragment_mi,
                               rtol=0, atol=TOL)
    for field in ("system_entropy", "ratio"):
        assert abs(getattr(got, field) - getattr(want, field)) <= TOL
    rho = partial_trace(dense, ["S", "A"]).matrix
    coherence = branch_density(branch, ["S", "A"])
    assert abs(np.max(np.abs(coherence - np.diag(np.diag(coherence))))
               - np.max(np.abs(rho - np.diag(np.diag(rho))))) <= TOL
    pair = tuple(envs[:2]) if len(envs) > 1 else ("A", envs[0])
    # a repeated system label counts once on both paths
    for split in [(("S",), (envs[0],)), (("S", "S"), (envs[0],)),
                  (("S",), pair)]:
        fragment = split[1]
        mi = mutual_information(branch, *split)
        for basis in fragment_bases(len(amps) ** len(fragment)):
            got = basis_conditioned_mutual_information(branch, *split, basis)
            want = dense_basis_conditioned_mutual_information(dense, *split,
                                                              basis)
            assert abs(got - want) <= TOL
            assert 0.0 <= got <= mi + TOL


def fragment_bases(dim):
    """Pointer, Fourier and a seeded random orthonormal basis (rows)."""
    r = np.arange(dim)
    gauss = np.random.default_rng(dim).normal(size=(dim, dim, 2)) @ [1, 1j]
    return [np.eye(dim), np.exp(2j * np.pi * np.outer(r, r) / dim)
            / np.sqrt(dim), np.linalg.qr(gauss)[0].T]


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


AMPLITUDES = {
    2: {"real": unit([0.6, -0.8]), "complex": unit([0.5, 0.3 - 0.7j])},
    3: {"real": unit([0.5, -0.6, 0.62]),
        "complex": unit([0.4j, 0.5 + 0.2j, -0.7])},
}


OVERLAPS = [0.0, 0.3, 0.9]
SIZES = [(2, 1), (2, 3), (2, 10), (3, 1), (3, 3), (3, 8)]


@pytest.mark.parametrize("overlap", OVERLAPS)
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d, n_env", SIZES)
def test_branch_path_matches_dense(d, n_env, kind, overlap):
    assert_paths_agree(AMPLITUDES[d][kind], n_env, overlap)


def test_oracle_builds_without_the_branch_path(monkeypatch):
    """The gate chain stays a second computation: with the branch path
    refused, it builds every state of the grid, and they equal the
    library's dense view."""
    grid = [("S", AMPLITUDES[d][kind], "A",
             [f"E{i + 1}" for i in range(n_env)], overlap)
            for d, n_env in SIZES for kind in AMPLITUDES[d]
            for overlap in OVERLAPS]
    want = [branch_records(*args).dense() for args in grid]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the branch path")

    monkeypatch.setattr(measurement_models, "branch_records", refuse)
    monkeypatch.setattr(BranchState, "dense", refuse)
    for args, dense in zip(grid, want):
        got = build_branch_state(*args)
        assert got.layout == dense.layout
        np.testing.assert_allclose(got.amplitudes, dense.amplitudes,
                                   rtol=0, atol=1e-15)


@st.composite
def branch_inputs(draw):
    d = draw(st.integers(2, 4))
    mags = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d,
                           max_size=d))
    amps = unit(np.array(mags) * np.exp(1j * np.array(phases)))
    return amps, draw(st.integers(1, 6)), draw(st.floats(0.0, 1.0))


@settings(derandomize=True, max_examples=25, deadline=2000, database=None)
@given(branch_inputs())
def test_branch_path_properties(inputs):
    amps, n_env, overlap = inputs
    assert_paths_agree(amps, n_env, overlap)
    branch, _, envs = both_paths(amps, n_env, overlap)
    for fragment in [(envs[0],), tuple(envs), ("A",) + tuple(envs)]:
        mi = mutual_information(branch, ("S",), fragment)
        bound = 2 * min(_entropy(branch, ("S",)), _entropy(branch, fragment))
        assert 0.0 <= mi <= bound + TOL


def test_kernel_edge_cases():
    branch, _, envs = both_paths(unit([1, 1]), 2, 0.3)
    # A holds a perfect record, so S alone is fully decohered
    np.testing.assert_allclose(branch_density(branch, "S"), np.eye(2) / 2,
                               rtol=0, atol=TOL)
    np.testing.assert_array_equal(
        reduced_spectrum(branch, ["S", "A"] + envs), [1.0])
    with pytest.raises(errors.EmptyKeepSet):
        reduced_spectrum(branch, [])
    with pytest.raises(errors.InvalidBipartition):
        branch_density(branch, envs)


def test_guard_names_the_nominal_dimension(monkeypatch):
    monkeypatch.setenv("ENVLAB_DIM_GUARD", "64")
    with pytest.raises(errors.SpaceTooLarge, match="total dimension 1024 "):
        branch_records("S", unit([1, 1]), "A", [f"E{i}" for i in range(8)],
                       0.3)


@pytest.mark.parametrize("amps, grams, error", [
    ([1, 1], [np.eye(2)] * 2, errors.NotNormalized),
    (unit([1, 1]), [np.ones((2, 2))] * 2, errors.InvalidDensity),
    (unit([1, 1]), [np.eye(2), 0.5 * np.eye(2)], errors.InvalidDensity),
    (unit([1, 1]), [np.eye(2), [[1, 0.5], [0.4, 1]]], errors.InvalidDensity),
    (unit([1, 1]), [np.eye(2), [[1, 2], [2, 1]]], errors.InvalidDensity),
    (unit([1, 1]), [np.eye(2)], ValueError),
])
def test_branch_state_rejects_non_records(amps, grams, error):
    layout = SpaceLayout([("S", 2), ("E", 2)])
    with pytest.raises(error):
        BranchState(layout, amps, grams)


def test_general_kets_match_the_dense_state():
    """Complex kets of any dimension: the branch kernels against the dense
    vector sum_k a_k (x)_j |e_j^k>."""
    rng = np.random.default_rng(7)
    layout = SpaceLayout([("S", 3), ("E1", 3), ("E2", 2), ("E3", 4)])
    amps = unit(rng.normal(size=3) + 1j * rng.normal(size=3))
    kets = [np.eye(3)]
    for d in layout.dims[1:]:
        r = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        kets.append(r / np.linalg.norm(r, axis=1, keepdims=True))
    branch = BranchState(layout, amps, kets)
    dense = PureState(layout, sum(a * reduce(np.kron, [r[k] for r in kets])
                                  for k, a in enumerate(amps)))
    assert branch.dense().layout == layout
    np.testing.assert_allclose(branch.dense().amplitudes, dense.amplitudes,
                               rtol=0, atol=1e-12)
    for labels in [("S",), ("E1",), ("E2", "E3"), ("S", "E2")]:
        want = dense_spectrum(dense, labels)
        got = reduced_spectrum(branch, labels)[::-1][:want.size]
        np.testing.assert_allclose(got, want[:got.size], rtol=0, atol=TOL)
    for fragment in [("E1",), ("E1", "E2"), ("E3", "E2")]:
        split = ("S",), fragment
        assert abs(mutual_information(branch, *split)
                   - dense_mutual_information(dense, *split)) <= TOL
        for basis in fragment_bases(layout.subdim(fragment)):
            assert abs(
                basis_conditioned_mutual_information(branch, *split, basis)
                - dense_basis_conditioned_mutual_information(dense, *split,
                                                             basis)
            ) <= TOL


def test_basis_conditioned_needs_the_pointer_label_in_the_system():
    branch, _, envs = both_paths(unit([0.6, 0.8]), 2, 0.3)
    for system, fragment in [(("A",), (envs[0],)), ((envs[0],), ("S",))]:
        with pytest.raises(errors.InvalidBipartition):
            basis_conditioned_mutual_information(
                branch, system, fragment, np.eye(2))


def label_grams(state):
    """Each label's Gram, read from its record class: the labels whose
    kets are one table object, numbered in order of first appearance."""
    firsts = list(dict.fromkeys(map(id, state.kets)))
    return state._class_grams[[firsts.index(id(r)) for r in state.kets]]


def test_grams_are_derived_from_the_kets():
    branch = branch_records("S", unit([1, 2, 3]), "A", ["E1", "E2"], 0.3)
    recs = record_states(3, 3, 0.3)
    env_gram = recs @ recs.T
    np.fill_diagonal(env_gram, 1.0)
    assert branch._class_grams.dtype == float
    np.testing.assert_array_equal(label_grams(branch),
                                  [np.eye(3), np.eye(3), env_gram, env_gram])
    np.testing.assert_array_equal(branch.kets[2], recs)
    # complex kets: a Hermitian Gram with an exactly unit diagonal
    kets = recs * np.exp(1j * np.array([[0.3], [1.1], [-2.0]]))
    state = BranchState(SpaceLayout([("S", 3), ("E", 3)]), unit([1, 1, 1]),
                        [np.eye(3), kets])
    gram = label_grams(state)[1]
    np.testing.assert_allclose(gram, kets @ kets.conj().T, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(np.diagonal(gram), 1.0)
    with pytest.raises(ValueError):         # kets of the wrong dimension
        BranchState(SpaceLayout([("S", 3), ("E", 4)]), unit([1, 1, 1]),
                    [np.eye(3), kets])


def test_a_table_passed_for_several_labels_is_copied_once():
    recs = record_states(2, 2, 0.3)
    state = branch_records("S", unit([3, 4]), "A", ["E1", "E2", "E3"], 0.3)
    assert state.kets[0] is state.kets[1]
    assert state.kets[2] is state.kets[3] is state.kets[4]
    assert not state.kets[2].flags.writeable
    np.testing.assert_array_equal(state.kets[2], recs)
    gram = recs @ recs.T
    np.fill_diagonal(gram, 1.0)
    np.testing.assert_array_equal(state._class_grams, [np.eye(2), gram])
    np.testing.assert_array_equal(label_grams(state),
                                  [np.eye(2)] * 2 + [gram] * 3)
    # tables made one at a time stay apart, each with its own Gram
    layout = SpaceLayout([("S", 2), ("E1", 2), ("E2", 2)])
    state = BranchState(layout, unit([3, 4]),
                        (record_states(2, 2, c) for c in (0.0, 0.3, 0.9)))
    for j, c in enumerate((0.0, 0.3, 0.9)):
        np.testing.assert_array_equal(state.kets[j], record_states(2, 2, c))
    assert len(state._class_grams) == 3
    assert label_grams(state)[1, 0, 1] != label_grams(state)[2, 0, 1]



def test_results_are_shared_only_within_a_record_class():
    """A state answers many label sets from the results it keeps per
    record class signature; each answer must equal the one a fresh state
    gives, so no two classes (c = 0.3 and 0.9, and tables of equal values
    made one at a time) are ever merged, nor two orders of them."""
    t3, t9 = record_states(3, 3, 0.3), record_states(3, 3, 0.9)
    perfect = np.eye(3)
    tables = [perfect, perfect, t9, t3, t9, t3, record_states(3, 3, 0.3),
              record_states(3, 3, 0.9)]
    labels = ["S", "A"] + [f"E{i + 1}" for i in range(6)]
    layout = SpaceLayout([(l, 3) for l in labels])
    amps = AMPLITUDES[3]["complex"]

    def fresh():
        return BranchState(layout, amps, tables)

    state, envs = fresh(), labels[2:]
    for size in range(1, len(labels) + 1):
        for subset in itertools.combinations(labels, size):
            assert np.array_equal(reduced_spectrum(state, subset),
                                  reduced_spectrum(fresh(), subset))

    def h(labels):
        return _entropy(fresh(), labels)

    for fragments in ([(e,) for e in envs],
                      [("E1", "E2"), ("E3", "E5"), ("E4", "E6")],
                      [("A", "E6"), ("E2", "E1"), ("E4", "E3")]):
        report = redundancy_report(state, "S", fragments)
        for f, mi in zip(fragments, report.per_fragment_mi):
            assert np.array_equal(mi, max(0.0, h("S") + h(f) - h(("S",) + f)))
    for system in [("S",), ("S", "A"), ("S", "E3")]:
        rest = [l for l in labels if l not in system]
        for fragment in itertools.chain(
                itertools.combinations(rest, 1),
                itertools.combinations(rest, 2)):
            split = system, fragment
            for basis in fragment_bases(3 ** len(fragment)):
                assert np.array_equal(
                    basis_conditioned_mutual_information(state, *split,
                                                         basis),
                    basis_conditioned_mutual_information(fresh(), *split,
                                                         basis))
    # A shares the pointer's table, but is not the pointer label
    with pytest.raises(errors.InvalidBipartition):
        basis_conditioned_mutual_information(
            state, "A", "E1", np.eye(3))


def test_conditioned_results_keep_the_traced_classes_apart():
    """Systems of one size that hold records of different classes leave
    different classes to trace out: (S, E1) traces E2 and E4, both at
    c = 0.9, where (S, E2) traces E1 at 0.3 and E4 at 0.9.  Each
    basis-conditioned MI must equal the one a fresh state gives."""
    t3, t9 = record_states(3, 3, 0.3), record_states(3, 3, 0.9)
    layout = SpaceLayout([(l, 3) for l in ("S", "E1", "E2", "E3", "E4")])
    amps = AMPLITUDES[3]["complex"]

    def fresh():
        return BranchState(layout, amps, [np.eye(3), t3, t9, t3, t9])

    state = fresh()
    for fragment in [("E3",), ("E4",), ("E3", "E4")]:
        values = []
        for system in [("S", "E1"), ("S", "E2")]:
            split = system, fragment
            for basis in fragment_bases(3 ** len(fragment)):
                got = basis_conditioned_mutual_information(state, *split,
                                                           basis)
                assert np.array_equal(
                    got, basis_conditioned_mutual_information(fresh(), *split,
                                                              basis))
                values.append(got)
        assert values[:3] != values[3:]


@pytest.mark.parametrize("basis, message", [
    ([[1, 0], [1, 0]], "not orthonormal"),
    # the bytes of the kept basis, in another shape
    (np.eye(2, dtype=complex).reshape(1, 4), "need 2 vectors of dimension 2"),
])
def test_a_basis_is_checked_after_a_kept_result(basis, message):
    """A kept basis-conditioned average is looked up before its basis is
    checked; a bad basis of the kept one's size still raises."""
    state = branch_records("S", (0.6, 0.8), "A", ["E1", "E2"], 0.3)
    split = "S", "E1"
    basis_conditioned_mutual_information(state, *split, np.eye(2))
    with pytest.raises(errors.BadBasis, match=message):
        basis_conditioned_mutual_information(state, *split, basis)


def test_a_miss_resolves_its_labels_once(monkeypatch):
    """Where each environment is its own record class, the key of a
    result is as long as N; a miss resolves the labels for it and hands
    the counts to the density, never resolving them again.  A
    basis-conditioned miss counts each label set it keys on, S for H(S)
    and S plus the fragment for the average, and no kernel builds an
    N-long tuple of the labels traced out."""
    monkeypatch.setenv("ENVLAB_DIM_GUARD", str(10 ** 400))
    n = 300
    layout = SpaceLayout([("S", 2)] + [(f"E{i}", 2) for i in range(n)])

    def fresh():
        return BranchState(layout, (0.6, 0.8), [np.eye(2)] + [
            record_states(2, 2, 0.3) for _ in range(n)])

    calls, splits = [], []
    real_counts, real_split = BranchState._traced_counts, SpaceLayout.split

    def counting(self, labels):
        calls.append(tuple(labels))
        return real_counts(self, labels)

    def splitting(self, labels):
        splits.append(labels)
        return real_split(self, labels)

    monkeypatch.setattr(BranchState, "_traced_counts", counting)
    monkeypatch.setattr(SpaceLayout, "split", splitting)
    reduced_spectrum(fresh(), ["S", "E0"])
    assert calls == [("S", "E0")]
    calls.clear()
    basis_conditioned_mutual_information(fresh(), "S", "E0",
                                         np.eye(2))
    assert calls == [("S",), ("S", "E0")]
    assert splits == []


def records_entropy(p0, p1, overlap, m):
    """h_m: the entropy in bits of (1 +- sqrt(1 - 4 p0 p1 (1 - c^2m))) / 2,
    the spectrum of m records at adjacent overlap c of a two-branch
    pointer with weights (p0, p1)."""
    root = np.sqrt(1 - 4 * p0 * p1 * (1 - overlap ** (2 * m)))
    lam = np.array([1 + root, 1 - root]) / 2
    return float(-(lam * np.log2(lam)).sum())


def test_redundancy_at_a_thousand_environments(monkeypatch):
    """Past the dense oracle's reach, the closed form for d = 2: A holds a
    perfect record, so H(S) = H(S, E_i) = H(p), each fragment E_i gives
    I(S:E_i) = h_1 and the ratio is N h_1 / H(p)."""
    monkeypatch.setenv("ENVLAB_DIM_GUARD", str(10 ** 400))
    n, (p0, p1) = 1000, (0.36, 0.64)
    envs = [f"E{i + 1}" for i in range(n)]
    state = branch_records("S", (0.6, 0.8), "A", envs, 0.3)
    report = redundancy_report(state, "S", envs)
    h1 = records_entropy(p0, p1, 0.3, 1)
    ratio = n * h1 / -(p0 * np.log2(p0) + p1 * np.log2(p1))
    assert len(report.per_fragment_mi) == n
    assert max(abs(mi - h1) for mi in report.per_fragment_mi) <= 1e-10
    assert abs(report.ratio - ratio) <= 1e-10 * ratio
