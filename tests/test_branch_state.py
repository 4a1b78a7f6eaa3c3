"""The branch-structured path against the dense one it replaces.

``branch_records`` keeps the state build_branch_state builds as pointer
amplitudes plus one record Gram matrix per label; every entropy, mutual
information, redundancy ratio and rho_SA coherence read from it must
match the dense state reduced by ``partial_trace`` within 1e-10.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab import errors
from envlab.info_measures import (
    FragmentSpec,
    _entropy,
    mutual_information,
    redundancy_report,
)
from envlab.measurement_models import (
    BranchSpec,
    branch_records,
    build_branch_state,
)
from envlab.tensor_core import (
    BranchState,
    SpaceLayout,
    branch_density,
    partial_trace,
    reduced_spectrum,
)

TOL = 1e-10


def both_paths(amps, n_env, overlap):
    spec = BranchSpec("S", len(amps), amps, overlap)
    envs = [f"E{i + 1}" for i in range(n_env)]
    return (branch_records(spec, "A", envs),
            build_branch_state(spec, "A", envs), envs)


def dense_spectrum(state, labels):
    """Descending eigenvalues of rho on ``labels`` or on its complement,
    whichever is smaller (a pure state's sides share their spectrum)."""
    rest = state.layout.complement(labels)
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
        split = FragmentSpec(system, fragment)
        assert abs(mutual_information(branch, split)
                   - mutual_information(dense, split)) <= TOL
    got = redundancy_report(branch, ("S",), [(e,) for e in envs])
    want = redundancy_report(dense, ("S",), [(e,) for e in envs])
    np.testing.assert_allclose(got.per_fragment_mi, want.per_fragment_mi,
                               rtol=0, atol=TOL)
    for field in ("mi_sum", "system_entropy", "ratio"):
        assert abs(getattr(got, field) - getattr(want, field)) <= TOL
    rho = partial_trace(dense, ["S", "A"]).matrix
    coherence = branch_density(branch, ["S", "A"])
    assert abs(np.max(np.abs(coherence - np.diag(np.diag(coherence))))
               - np.max(np.abs(rho - np.diag(np.diag(rho))))) <= TOL


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


AMPLITUDES = {
    2: {"real": unit([0.6, -0.8]), "complex": unit([0.5, 0.3 - 0.7j])},
    3: {"real": unit([0.5, -0.6, 0.62]),
        "complex": unit([0.4j, 0.5 + 0.2j, -0.7])},
}


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d, n_env", [(2, 1), (2, 3), (2, 10),
                                      (3, 1), (3, 3), (3, 8)])
def test_branch_path_matches_dense(d, n_env, kind, overlap):
    assert_paths_agree(AMPLITUDES[d][kind], n_env, overlap)


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
        mi = mutual_information(branch, FragmentSpec(("S",), fragment))
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
    spec = BranchSpec("S", 2, unit([1, 1]), 0.3)
    with pytest.raises(errors.SpaceTooLarge, match="total dimension 1024 "):
        branch_records(spec, "A", [f"E{i}" for i in range(8)])


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
