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
    InvalidDensity,
    LayoutMismatch,
    LengthMismatch,
    MTooSmall,
    NotEqualAmplitude,
    PlanMismatch,
    SideViolation,
    UseBoundsInstead,
)
from .tensor_core import (
    KERNEL_TOL,
    STATE_TOL,
    PureState,
    SchmidtDecomposition,
    SubsystemUnitary,
    _leading,
    apply_unitary,
    attach_ready,
    controlled_shift,
    global_phase_distance,
    matricize,
    schmidt_decompose,
)

DEFAULT_M_CAP = 10 ** 4
COUNT_TOL = 1e-10        # default counting tolerance |p_k - m_k / M|
ROUND_SLACK = 1e-9       # fine-graining counts and rational-bound rounding
_SCAN_BLOCK = 1024       # denominator candidates narrowed per step


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
    return SubsystemUnitary(sd.left_labels, _in_basis(
        sd.left_basis, np.diag(np.exp(1j * phases) - 1.0)))


def _in_basis(columns: np.ndarray, c: np.ndarray) -> np.ndarray:
    """I + V c V^H for orthonormal columns V: c changes their span and the
    operator is the identity on its complement."""
    return np.eye(len(columns), dtype=complex) + columns @ c @ columns.conj().T


def _swap_matrix(basis: np.ndarray, k: int, l: int) -> np.ndarray:
    """Exchange basis columns k and l; identity on their complement."""
    return _in_basis(basis[:, [k, l]], np.array([[-1.0, 1.0], [1.0, -1.0]]))


def schmidt_swap_unitary(sd: SchmidtDecomposition, k: int,
                         l: int) -> SubsystemUnitary:
    """U = |s_k><s_l| + |s_l><s_k| + identity elsewhere, on the system side."""
    if not (0 <= k < sd.rank and 0 <= l < sd.rank):
        raise BadIndex(f"indices ({k}, {l}) outside rank {sd.rank}")
    return SubsystemUnitary(sd.left_labels, _swap_matrix(sd.left_basis, k, l))


def _complement_basis(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns."""
    return np.linalg.svd(cols, full_matrices=True)[0][:, cols.shape[1]:]


def is_envariant(state: PureState, u: SubsystemUnitary,
                 sd: SchmidtDecomposition) -> EnvarianceVerdict:
    """Decide envariance of ``u`` and construct a verified undo; ``sd`` is
    the state's Schmidt decomposition, system left and environment right.

    If the reduced system operator changes beyond STATE_TOL entrywise, no
    environment action can restore the state (verdict false, trace-distance
    witness recorded).  Otherwise the undo is the counter-rotation on the
    Schmidt partners, verified to restore the state up to global phase.
    """
    layout = state.layout
    dims = layout.subdim(sd.left_labels), layout.subdim(sd.right_labels)
    held = len(sd.left_basis), len(sd.right_basis)
    if sorted(sd.left_labels + sd.right_labels) != sorted(layout.labels) \
            or held != dims:
        raise LayoutMismatch(
            f"decomposition over {sd.left_labels} | {sd.right_labels} of "
            f"dimensions {held} does not fit {layout.subsystems}")
    if set(u.targets) & set(sd.right_labels):
        raise SideViolation(
            f"unitary targets {u.targets} overlap environment side")
    after = apply_unitary(state, u)
    m_before = matricize(state, sd.left_labels)
    m_after = matricize(after, sd.left_labels)
    gap = m_before @ m_before.conj().T - m_after @ m_after.conj().T
    witness = float(0.5 * np.abs(np.linalg.eigvalsh(gap)).sum())
    if np.max(np.abs(gap)) > STATE_TOL:
        return EnvarianceVerdict(
            False, None, global_phase_distance(state, after), witness,
            "reduced system operator changed",
        )
    # psi = A C R^T, and U A = A W with W commuting with C, so
    # A^+ M' R^* = W C: its unitary polar factor is W, found without
    # dividing by C, and X R = R W^* undoes U on the environment
    a, r = sd.left_basis, sd.right_basis
    p, _, vh = np.linalg.svd(a.conj().T @ m_after @ r.conj())
    x = r @ (p @ vh).conj() @ r.conj().T
    undo = SubsystemUnitary(sd.right_labels,
                            x + np.eye(len(x)) - r @ r.conj().T)
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
    coeffs = schmidt_decompose(state, system).coefficients
    if coeffs.max() - coeffs.min() > STATE_TOL:
        raise NotEqualAmplitude(
            f"coefficients range over [{coeffs.min()}, {coeffs.max()}]"
        )
    return np.full(coeffs.size, 1.0 / coeffs.size)


def _check_counts(counts, probs: np.ndarray, tolerance: float,
                  env_dim: int) -> None:
    """Counts are at least 1, fit the spectrum within tolerance, and the
    environment has room for their total M of record states."""
    if any(c < 1 for c in counts):
        raise PlanMismatch("all fine-graining counts must be >= 1")
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


def fine_grain(state: PureState, counts, system, ancilla: str,
               tolerance: float = ROUND_SLACK) -> PureState:
    """c-shift fine-graining into M = sum m_k equal-amplitude
    triple-product terms; the counts m_k are in Schmidt-descending order
    across the ``system`` bipartition.

    The environment factor is rotated so each Schmidt partner becomes the
    uniform superposition over a consecutive m_k-sized block of basis
    states (the Fourier-Hadamard frame), a fresh dimension-M ``ancilla``
    is attached in its ready state, and a c-shift copies the block index
    onto it.  Both steps act only on the environment side, so the reduced
    operator on the system is untouched.
    """
    sys_labels, env_labels = state.layout.split(system)
    if ancilla in state.layout.labels:
        raise PlanMismatch(f"ancilla label {ancilla!r} already used")
    sd = schmidt_decompose(state, sys_labels)
    probs = sd.coefficients ** 2
    de = state.layout.subdim(env_labels)
    counts = tuple(int(c) for c in counts)
    _check_counts(counts, probs, tolerance, de)
    # block frame: Schmidt partner k -> uniform superposition over its block
    frame = np.zeros((de, probs.size), dtype=complex)
    offset = 0
    for k, mk in enumerate(counts):
        frame[offset:offset + mk, k] = 1.0 / math.sqrt(mk)
        offset += mk
    w = frame @ sd.right_basis.conj().T
    w += _complement_basis(frame) @ _complement_basis(sd.right_basis).conj().T
    rotated = apply_unitary(state, SubsystemUnitary(env_labels, w))
    joined = attach_ready(rotated, ancilla, sum(counts))
    return controlled_shift(joined, env_labels, ancilla)


def _spectrum(probs) -> np.ndarray:
    """Flat float probabilities, each finite and >= 0 (or InvalidDensity)."""
    probs = np.asarray(probs, dtype=float).ravel()
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise InvalidDensity("spectrum entries must be finite and >= 0")
    return probs


def find_commensurate_denominator(probs, tolerance: float,
                                  m_cap: int = DEFAULT_M_CAP):
    """Smallest M <= m_cap with all probs within tolerance of m_k / M and
    each m_k >= 1, as (M, counts), else UseBoundsInstead.  Each distinct
    value narrows a block of candidates M and adds to their count sums."""
    def fit(p, m):      # rint(p M), and where it is >= 1 and fits p
        counts = np.rint(p * m).astype(int)
        return counts, (counts >= 1) & (np.abs(p - counts / m) <= tolerance)
    if not (probs := _spectrum(probs)).size:
        raise UseBoundsInstead("an empty spectrum has no counting denominator")
    values, repeats = np.unique(probs, return_counts=True)
    # the smallest first, then far apart: neighbours' p M move together
    spread = np.argsort(np.arange(values.size) * 0.6180339887498949 % 1)
    values, repeats = values[spread], repeats[spread]
    for start in range(probs.size, m_cap + 1, _SCAN_BLOCK):
        ms = np.arange(start, min(start + _SCAN_BLOCK, m_cap + 1))
        sums, stalled = 0, False
        for p, r in zip(values, repeats):
            counts, keep = fit(p, ms)
            if not stalled and keep.all():      # test the smallest M whole,
                stalled = True                  # 64 values at a time
                if all(fit(values[i:i + 64], ms[0])[1].all()
                       for i in range(0, values.size, 64)) \
                        and repeats @ fit(values, ms[0])[0] == ms[0]:
                    ms = sums = ms[:1]
                    break
                keep[0] = False
            ms, sums = ms[keep], (sums + r * counts)[keep]
            if not ms.size:
                break
        hits = ms[sums == ms]
        if hits.size:
            return int(hits[0]), tuple(int(c) for c in fit(probs, hits[0])[0])
    raise UseBoundsInstead(f"no denominator <= {m_cap} approximates the "
                           f"spectrum within {tolerance}")


def count_spectrum(probs, tolerance: float, m_cap: int,
                   env_dim: int) -> np.ndarray:
    """p_k = m_k / M for a spectrum, in its order, from one denominator
    scan.  What ``fine_grain`` would build is certified without building
    it: the counts fit and ``env_dim`` holds M records.  Its M
    coefficients sqrt(p_k / m_k) must be equal within STATE_TOL; a scan
    that accepts unequal ones raises UseBoundsInstead."""
    probs = _spectrum(probs)
    m, counts = find_commensurate_denominator(probs, tolerance, m_cap)
    _check_counts(counts, probs, tolerance, env_dim)
    terms = np.sqrt(probs / counts)
    if terms.max() - terms.min() > STATE_TOL:
        raise UseBoundsInstead(
            f"at M = {m} the terms range over [{terms.min()}, {terms.max()}]"
        )
    # sum the m_k equal counting weights 1/M of each original outcome
    return np.array([np.full(mk, 1.0 / m).sum() for mk in counts])


def present_outcomes(probs) -> np.ndarray:
    """Mask of the outcomes with a Schmidt term, amplitude above
    KERNEL_TOL: those that count against a bounding M."""
    return np.sqrt(_spectrum(probs)) > KERNEL_TOL


def bound_spectrum(probs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): intervals [floor(pM)/M, ceil(pM)/M] per outcome, in
    the spectrum's order, with counts clipped to [0, M] (a spectrum may sum
    to just above 1).  Each endpoint is realized by a commensurate
    comparison state (the tests build them), so widths never exceed 2/M.
    An outcome of amplitude at most KERNEL_TOL has no Schmidt term: it
    gets [0, 0] and does not count against M."""
    probs = _spectrum(probs)
    present = present_outcomes(probs)
    n = int(np.count_nonzero(present))
    if m < n:
        raise MTooSmall(f"M = {m} below the number of outcomes {n}")
    scaled = np.where(present, probs * m, 0.0)
    lower_counts = np.clip(np.floor(scaled + ROUND_SLACK).astype(int), 0, m)
    upper_counts = np.clip(np.ceil(scaled - ROUND_SLACK).astype(int), 0, m)
    return lower_counts / m, upper_counts / m


def born_probabilities(state: PureState, system, tolerance: float = COUNT_TOL,
                       m_cap: int = DEFAULT_M_CAP) -> np.ndarray:
    """Outcome probabilities by fine-graining and counting equal terms:
    ``count_spectrum`` of the squared Schmidt coefficients, in pointer
    order (see ``schmidt_probabilities``)."""
    sys_labels, env_labels = state.layout.split(system)
    env_dim = state.layout.subdim(env_labels)
    return count_spectrum(schmidt_probabilities(state, sys_labels),
                          tolerance, m_cap, env_dim)


def _pointer_order(sd: SchmidtDecomposition) -> np.ndarray:
    """Schmidt-term order keyed by the system vectors' leading basis index."""
    return np.argsort(_leading(sd.left_basis)[0], kind="stable")


def schmidt_probabilities(state: PureState, system) -> np.ndarray:
    """Squared Schmidt coefficients in pointer order: by each system
    Schmidt vector's leading basis index."""
    sd = schmidt_decompose(state, system)
    return (sd.coefficients ** 2)[_pointer_order(sd)]


def rational_bounds(state: PureState, system,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """``bound_spectrum`` of the squared Schmidt coefficients, in pointer
    order (see ``schmidt_probabilities``)."""
    return bound_spectrum(schmidt_probabilities(state, system), m)
