"""Envariance symmetry machinery and the counting route to outcome
probabilities: envariance testing with explicit undo construction,
envariant swaps, c-shift fine-graining, equal-amplitude counting, and
rational bounding for incommensurate amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndex,
    LayoutMismatch,
    LengthMismatch,
    MTooSmall,
    NotEqualAmplitude,
    PlanMismatch,
    SideViolation,
    UseBoundsInstead,
)
from .info_measures import trace_distance
from .tensor_core import (
    KERNEL_TOL,
    STATE_TOL,
    PureState,
    SchmidtDecomposition,
    SubsystemUnitary,
    _leading_index,
    apply_unitary,
    attach_ready,
    controlled_shift,
    global_phase_distance,
    matricize,
    partial_trace,
    schmidt_decompose,
)

DEFAULT_M_CAP = 10 ** 4
_SCAN_BLOCK = 1024       # denominator candidates tested per numpy pass


@dataclass(frozen=True, eq=False)
class EnvarianceVerdict:
    """Outcome of an envariance test.

    A true verdict carries a verified environment-side undo and the
    residual distance (modulo global phase) after restoration; a false
    verdict carries the trace-distance witness of the changed reduced
    system operator.
    """

    envariant: bool
    undo: SubsystemUnitary | None
    residual: float
    witness_trace_distance: float
    reason: str


@dataclass(frozen=True)
class FineGrainingPlan:
    """Counts m_k (Schmidt-descending order) with total M = sum m_k, plus
    the label of the dimension-M ancilla to attach.  ``system_labels``
    fixes the bipartition the counts refer to."""

    counts: tuple[int, ...]
    system_labels: tuple[str, ...]
    ancilla_label: str
    tolerance: float = 1e-9

    def __init__(self, counts, system_labels, ancilla_label, tolerance=1e-9):
        counts = tuple(int(c) for c in counts)
        if any(c < 1 for c in counts):
            raise PlanMismatch("all fine-graining counts must be >= 1")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "system_labels", tuple(system_labels))
        object.__setattr__(self, "ancilla_label", str(ancilla_label))
        object.__setattr__(self, "tolerance", float(tolerance))

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, eq=False)
class ProbabilityBound:
    """Elementwise interval [lower, upper] per outcome at denominator M."""

    lower: np.ndarray
    upper: np.ndarray
    m_used: int

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# envariance proper

def schmidt_phase_unitary(sd: SchmidtDecomposition,
                          phases) -> SubsystemUnitary:
    """U = sum_k e^{i phi_k} |s_k><s_k|, identity on the complement."""
    phases = np.asarray(phases, dtype=float).ravel()
    if phases.size != sd.rank:
        raise LengthMismatch(
            f"{phases.size} phases for {sd.rank} Schmidt terms"
        )
    d = sd.left_basis.shape[0]
    u = np.eye(d, dtype=complex)
    for k in range(sd.rank):
        v = sd.left_basis[:, k]
        u += (np.exp(1j * phases[k]) - 1.0) * np.outer(v, v.conj())
    return SubsystemUnitary(sd.left_labels, u)


def _swap_matrix(basis: np.ndarray, k: int, l: int) -> np.ndarray:
    """Exchange basis columns k and l; identity on their complement."""
    a, b = basis[:, k], basis[:, l]
    m = np.eye(basis.shape[0], dtype=complex)
    m += np.outer(a, b.conj()) + np.outer(b, a.conj())
    m -= np.outer(a, a.conj()) + np.outer(b, b.conj())
    return m


def schmidt_swap_unitary(sd: SchmidtDecomposition, k: int,
                         l: int) -> SubsystemUnitary:
    """U = |s_k><s_l| + |s_l><s_k| + identity elsewhere, on the system side."""
    if not (0 <= k < sd.rank and 0 <= l < sd.rank):
        raise BadIndex(f"indices ({k}, {l}) outside rank {sd.rank}")
    return SubsystemUnitary(sd.left_labels, _swap_matrix(sd.left_basis, k, l))


def _complement_basis(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns."""
    if cols.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    full = np.linalg.svd(cols, full_matrices=True)[0]
    return full[:, cols.shape[1]:]


def is_envariant(state: PureState, u: SubsystemUnitary,
                 environment_side) -> EnvarianceVerdict:
    """Decide envariance of ``u`` and construct a verified undo.

    Decision rule: if the reduced operator on the non-environment side
    changes beyond STATE_TOL entrywise, no environment action can restore the
    state (verdict false, trace-distance witness recorded).  Otherwise
    the undo is the counter-rotation on the state's own Schmidt partners,
    verified to restore the global state up to global phase.
    """
    env = set(environment_side if not isinstance(environment_side, str)
              else [environment_side])
    env_labels = state.layout.ordered(env)
    if set(u.targets) & env:
        raise SideViolation(
            f"unitary targets {u.targets} overlap environment side"
        )
    sys_labels = state.layout.complement(env)
    rho_before = partial_trace(state, sys_labels)
    after = apply_unitary(state, u)
    rho_after = partial_trace(after, sys_labels)
    entry_gap = float(np.max(np.abs(rho_before.matrix - rho_after.matrix)))
    witness = trace_distance(rho_before, rho_after)
    if entry_gap > STATE_TOL:
        return EnvarianceVerdict(
            False, None, global_phase_distance(state, after), witness,
            "reduced system operator changed",
        )
    # psi = A C R^T, and U A = A W with W commuting with C, so
    # A^+ M' R^* = W C: its unitary polar factor is W, found without
    # dividing by C, and X R = R W^* undoes U on the environment
    sd = schmidt_decompose(state, sys_labels)
    a, r = sd.left_basis[:, : sd.rank], sd.right_basis[:, : sd.rank]
    p, _, vh = np.linalg.svd(a.conj().T @ matricize(after, sys_labels)
                             @ r.conj())
    x = r @ (p @ vh).conj() @ r.conj().T
    undo = SubsystemUnitary(env_labels, x + np.eye(len(x)) - r @ r.conj().T)
    restored = apply_unitary(after, undo)
    residual = global_phase_distance(restored, state)
    if residual >= STATE_TOL:
        return EnvarianceVerdict(
            False, None, residual, witness,
            "undo construction failed to restore the state",
        )
    return EnvarianceVerdict(True, undo, residual, witness, "undone")


def envariant_swap(state: PureState, k: int, l: int,
                   sd: SchmidtDecomposition):
    """Swap Schmidt terms k and l on the system side; return the swapped
    state together with the environment-side counterswap."""
    s_swap = schmidt_swap_unitary(sd, k, l)
    counter = SubsystemUnitary(sd.right_labels,
                               _swap_matrix(sd.right_basis, k, l))
    return apply_unitary(state, s_swap), counter


# ---------------------------------------------------------------------------
# counting probabilities

def equal_amplitude_probabilities(state: PureState, system) -> np.ndarray:
    """p_k = 1/N per Schmidt term; requires all coefficients equal."""
    sd = schmidt_decompose(state, system)
    return _equal_weights(sd.coefficients[: sd.rank])


def _equal_weights(coeffs: np.ndarray) -> np.ndarray:
    """1/N per term of N nonzero coefficients, which must all be equal."""
    if coeffs.size == 0:
        raise NotEqualAmplitude("state has no Schmidt terms")
    if coeffs.max() - coeffs.min() > STATE_TOL:
        raise NotEqualAmplitude(
            f"coefficients range over [{coeffs.min()}, {coeffs.max()}]"
        )
    return np.full(coeffs.size, 1.0 / coeffs.size)


def subset_probability(state: PureState, system, indices) -> float:
    """Additive probability n/N of a subset of equal-amplitude outcomes."""
    p = equal_amplitude_probabilities(state, system)
    n = p.size
    chosen = set(int(i) for i in indices)
    if any(i < 0 or i >= n for i in chosen):
        raise BadIndex(f"subset {sorted(chosen)} outside range({n})")
    return len(chosen) / n


def _check_counts(counts, probs: np.ndarray, tolerance: float,
                  env_dim: int) -> None:
    """Counts fit the spectrum within tolerance and the environment has
    room for their total M of record states."""
    m = sum(counts)
    if len(counts) != probs.size:
        raise PlanMismatch(
            f"{len(counts)} counts for {probs.size} Schmidt terms"
        )
    target = np.asarray(counts, dtype=float) / m
    if np.max(np.abs(probs - target)) > tolerance:
        raise PlanMismatch(
            "squared coefficients do not match counts within tolerance"
        )
    if env_dim < m:
        raise PlanMismatch(f"environment dimension {env_dim} lacks room "
                           f"for M = {m} record states")


def fine_grain(state: PureState, plan: FineGrainingPlan) -> PureState:
    """c-shift fine-graining into M equal-amplitude triple-product terms.

    The environment factor is rotated so each Schmidt partner becomes the
    uniform superposition over a consecutive m_k-sized block of basis
    states (the Fourier-Hadamard frame), a fresh ancilla is attached in
    its ready state, and a c-shift copies the block index onto it.  Both
    steps act only on the environment side, so the reduced operator on
    the system is untouched.
    """
    sys_labels = state.layout.ordered(plan.system_labels)
    env_labels = state.layout.complement(sys_labels)
    if plan.ancilla_label in state.layout.labels:
        raise PlanMismatch(f"ancilla label {plan.ancilla_label!r} already used")
    sd = schmidt_decompose(state, sys_labels)
    probs = sd.coefficients[: sd.rank] ** 2
    de = state.layout.subdim(env_labels)
    _check_counts(plan.counts, probs, plan.tolerance, de)
    # block frame: Schmidt partner k -> uniform superposition over its block
    frame = np.zeros((de, probs.size), dtype=complex)
    offset = 0
    for k, mk in enumerate(plan.counts):
        frame[offset:offset + mk, k] = 1.0 / math.sqrt(mk)
        offset += mk
    eps = sd.right_basis[:, : sd.rank]
    w = frame @ eps.conj().T
    w += _complement_basis(frame, de) @ _complement_basis(eps, de).conj().T
    rotated = apply_unitary(state, SubsystemUnitary(env_labels, w))
    joined = attach_ready(rotated, plan.ancilla_label, plan.total)
    return controlled_shift(joined, list(env_labels), plan.ancilla_label)


def find_commensurate_denominator(probs, tolerance: float,
                                  m_cap: int = DEFAULT_M_CAP):
    """Smallest M <= m_cap with all probs within tolerance of m_k / M and
    each m_k >= 1; returns (M, counts) or raises UseBoundsInstead.  Each
    candidate in a block gets the float operations of a one-by-one scan."""
    probs = np.asarray(probs, dtype=float).ravel()
    n = probs.size
    for start in range(n, m_cap + 1, _SCAN_BLOCK):
        ms = np.arange(start, min(start + _SCAN_BLOCK, m_cap + 1))
        counts = np.rint(probs[:, np.newaxis] * ms).astype(int)
        gaps = np.max(np.abs(probs[:, np.newaxis] - counts / ms), axis=0)
        hits = np.flatnonzero((counts.min(axis=0) >= 1)
                              & (counts.sum(axis=0) == ms) & (gaps <= tolerance))
        if hits.size:
            return int(ms[hits[0]]), tuple(int(c) for c in counts[:, hits[0]])
    raise UseBoundsInstead(
        f"no denominator <= {m_cap} approximates the spectrum within "
        f"{tolerance}"
    )


def count_spectrum(probs, tolerance: float, m_cap: int,
                   env_dim: int) -> np.ndarray:
    """p_k = m_k / M for a spectrum, in its order, from one denominator
    scan.  What ``fine_grain`` would build is certified without building
    it: the counts fit and ``env_dim`` holds M records.  Its M
    coefficients sqrt(p_k / m_k) must be equal within STATE_TOL; a scan
    that accepts unequal ones raises UseBoundsInstead."""
    probs = np.asarray(probs, dtype=float).ravel()
    m, counts = find_commensurate_denominator(probs, tolerance, m_cap)
    _check_counts(counts, probs, tolerance + 0.5 / m, env_dim)
    terms = np.sqrt(probs / counts)
    if terms.max() - terms.min() > STATE_TOL:
        raise UseBoundsInstead(
            f"at M = {m} the terms range over [{terms.min()}, {terms.max()}]"
        )
    # sum the m_k equal counting weights 1/M of each original outcome
    return np.array([np.full(mk, 1.0 / m).sum() for mk in counts])


def bound_spectrum(probs, m: int) -> ProbabilityBound:
    """Intervals [floor(pM)/M, ceil(pM)/M] per outcome, in the spectrum's
    order, with counts clipped to [0, M] (a spectrum may sum to just above
    1).  Each endpoint is realized by a commensurate comparison state (the
    tests build them), so widths never exceed 2/M.  An outcome of
    amplitude at most KERNEL_TOL has no Schmidt term: it gets [0, 0] and
    does not count against M."""
    probs = np.asarray(probs, dtype=float).ravel()
    present = np.sqrt(probs) > KERNEL_TOL
    n = int(np.count_nonzero(present))
    if m < n:
        raise MTooSmall(f"M = {m} below the number of outcomes {n}")
    scaled = np.where(present, probs * m, 0.0)
    lower_counts = np.clip(np.floor(scaled + 1e-9).astype(int), 0, m)
    upper_counts = np.clip(np.ceil(scaled - 1e-9).astype(int), 0, m)
    return ProbabilityBound(lower=lower_counts / m, upper=upper_counts / m,
                            m_used=m)


def born_probabilities(state: PureState, system, tolerance: float = 1e-10,
                       m_cap: int = DEFAULT_M_CAP) -> np.ndarray:
    """Outcome probabilities by fine-graining and counting equal terms:
    ``count_spectrum`` of the squared Schmidt coefficients, in pointer
    order (see ``schmidt_probabilities``)."""
    sys_labels = state.layout.ordered(system)
    env_dim = state.layout.subdim(state.layout.complement(sys_labels))
    return count_spectrum(schmidt_probabilities(state, sys_labels),
                          tolerance, m_cap, env_dim)


def _pointer_order(sd: SchmidtDecomposition) -> np.ndarray:
    """Schmidt-term order keyed by the system vectors' leading basis index."""
    return np.argsort(_leading_index(sd.left_basis[:, : sd.rank]),
                      kind="stable")


def schmidt_probabilities(state: PureState, system) -> np.ndarray:
    """Squared Schmidt coefficients in pointer order: by each system
    Schmidt vector's leading basis index."""
    sd = schmidt_decompose(state, state.layout.ordered(system))
    probs = sd.coefficients[: sd.rank] ** 2
    return probs[_pointer_order(sd)]


def rational_bounds(state: PureState, system, m: int) -> ProbabilityBound:
    """``bound_spectrum`` of the squared Schmidt coefficients, in pointer
    order (see ``schmidt_probabilities``)."""
    return bound_spectrum(schmidt_probabilities(state, system), m)


# ---------------------------------------------------------------------------
# no envariance without entanglement

def phase_sensitivity_witness(psi: PureState, psi_prime: PureState):
    """(interference gap, post-entanglement reduced-operator gap).

    The first number is the largest expectation gap over the pairwise
    X/Y interference observables (Hadamard-type eigenbases); the second
    is the trace distance between the reduced operators after each state
    is entangled with a fresh record environment.
    """
    if psi.layout != psi_prime.layout:
        raise LayoutMismatch("states live on different layouts")
    if len(psi.layout.labels) != 1:
        raise LayoutMismatch("witness defined for single-subsystem states")
    label = psi.layout.labels[0]
    d = psi.layout.dims[0]
    a, b = psi.amplitudes, psi_prime.amplitudes
    gap = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            zx = np.conj(a[i]) * a[j] - np.conj(b[i]) * b[j]
            gap = max(gap, abs(2.0 * zx.real), abs(2.0 * zx.imag))

    rec = f"{label}_rec"

    def reduced(state):
        joined = attach_ready(state, rec, d)
        entangled = controlled_shift(joined, label, rec)
        return partial_trace(entangled, [label])

    post_gap = trace_distance(reduced(psi), reduced(psi_prime))
    return float(gap), float(post_gap)
