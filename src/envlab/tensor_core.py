"""Multi-partite pure states, dense or branch-structured, and reduced
density operators.

Index convention: the leftmost label of a layout is the slowest-varying
index of the flat amplitude vector (row-major / C order), so a state over
labels (S, A) of dimensions (2, 3) stores amplitude ``a[i*3 + j]`` for the
basis ket ``|i>_S |j>_A``.  This convention is frozen; serialized states
rely on it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadBasis,
    DimensionMismatch,
    EmptyKeepSet,
    InvalidBipartition,
    InvalidDensity,
    LabelCollision,
    LayoutMismatch,
    NotNormalized,
    NotUnitary,
    SpaceTooLarge,
    UnknownLabel,
)

DEFAULT_DIM_GUARD = 2 ** 20

STATE_TOL = 1e-10     # state / operator level comparisons
KERNEL_TOL = 1e-12    # kernel-level algebra


def dimension_guard() -> int:
    """Total-dimension guard, overridable via ENVLAB_DIM_GUARD."""
    raw = os.environ.get("ENVLAB_DIM_GUARD")
    try:
        return int(raw) if raw else DEFAULT_DIM_GUARD
    except ValueError:
        raise ValueError(
            f"ENVLAB_DIM_GUARD must be an integer, got {raw!r}") from None


def _label_tuple(labels) -> tuple[str, ...]:
    """A label-set argument as a tuple: a bare string is one label, any
    other iterable holds the labels."""
    return (labels,) if isinstance(labels, str) else tuple(labels)


def _check_dimension(factors) -> None:
    """Raise SpaceTooLarge when the product of d**m over the (d, m) pairs
    exceeds the guard.  A product past 4301 digits exceeds any guard
    ``int`` reads, so it is not formed; the detail shows the exact product
    when it has at most 4300 digits, the most ``str`` prints."""
    guard, factors = dimension_guard(), list(factors)
    log10 = sum(m * math.log10(d) for d, m in factors)
    total = math.prod(d ** m for d, m in factors) if log10 < 4301 else None
    if total is None or total > guard:
        shown = total if total is not None and total < 10 ** 4300 \
            else f"about 10^{log10:.0f}"
        raise SpaceTooLarge(f"total dimension {shown} exceeds guard {guard}")


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered list of (label, dimension) pairs defining a tensor space."""

    subsystems: tuple[tuple[str, int], ...]

    def __init__(self, subsystems):
        object.__setattr__(
            self, "subsystems", tuple((str(l), int(d)) for l, d in subsystems)
        )
        seen = set()
        for label, dim in self.subsystems:
            if not label:
                raise LabelCollision("empty subsystem label")
            if label in seen:
                raise LabelCollision(f"duplicate label {label!r}")
            seen.add(label)
            if dim < 1:
                raise ValueError(f"dimension of {label!r} must be >= 1")
        _check_dimension((d, 1) for d in self.dims)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.subsystems)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)      # exact: int64 would wrap past 2^63

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {l: i for i, l in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownLabel(
                f"label {label!r} not in layout {self.labels}") from None

    def dim(self, label: str) -> int:
        return self.dims[self.index(label)]

    def split(self, labels) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The layout's labels inside ``labels`` and those outside it,
        each in layout order; the first unknown label in the order given
        raises."""
        inside = set(map(self.index, _label_tuple(labels)))
        return (tuple(l for i, l in enumerate(self.labels) if i in inside),
                tuple(l for i, l in enumerate(self.labels) if i not in inside))

    def ordered(self, labels) -> tuple[str, ...]:
        """The given labels in layout order."""
        return self.split(labels)[0]

    def restrict(self, labels) -> "SpaceLayout":
        """The layout over ``labels``, in the order given."""
        return SpaceLayout([(l, self.dim(l)) for l in _label_tuple(labels)])

    def subdim(self, labels) -> int:
        return math.prod(self.dim(l) for l in _label_tuple(labels))

    def complement(self, labels) -> tuple[str, ...]:
        """The layout's labels not in ``labels``, in layout order."""
        return self.split(labels)[1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over an ordered set of subsystems."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __init__(self, layout: SpaceLayout, amplitudes):
        amps = _freeze(np.asarray(amplitudes).ravel())
        if amps.size != layout.total_dimension:
            raise ValueError(
                f"amplitude length {amps.size} != total dimension "
                f"{layout.total_dimension}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > STATE_TOL:
            raise NotNormalized(f"norm {nrm} differs from 1 beyond {STATE_TOL}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (layout order)."""
        return self.amplitudes.reshape(self.layout.dims or (1,))


@dataclass(frozen=True, eq=False)
class BranchState:
    """Pure state sum_k a_k |k>_S (x)_j |e_j^k>, kept as its branch structure.

    The first label S carries the pointer basis; label j (S too) holds
    one ket per branch, |e_j^k> as row k of ``kets[j]`` (n x d_j): the
    identity for S and for a perfect record.  Labels given one table
    object form a record class, with one copy of the table and one Gram
    matrix ``G[k, l] = <e^k|e^l>`` (unit diagonal set exactly), formed
    when a kernel first needs it; ``grams`` stacks G_j in layout order.
    A result a kernel computes is kept for the life of the state, keyed on
    how many labels of each class it traces out, never on label names.
    ``layout`` is the nominal space, so building it applies the dimension
    guard, but no amplitude vector over it is ever formed.
    """

    layout: SpaceLayout
    amplitudes: np.ndarray   # a_k, one per branch
    kets: tuple              # per label in layout order, its (n, d_j) table

    def __init__(self, layout: SpaceLayout, amplitudes, kets):
        amps = _freeze(np.asarray(amplitudes).ravel())
        n = amps.size
        kets = tuple(kets)      # held, so each id names one table throughout
        firsts = {id(r): r for r in kets}
        position = {i: c for c, i in enumerate(firsts)}
        classes = [position[id(r)] for r in kets]
        # one copy (float unless complex) per class
        tables = tuple(np.asarray(r) * 1.0 for r in firsts.values())
        kets = tuple(tables[c] for c in classes)
        if [r.shape for r in kets] != [(n, d) for d in layout.dims]:
            raise ValueError(f"record ket tables {[r.shape for r in kets]}"
                             f" != ({n}, d_j) for dims {layout.dims}")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > STATE_TOL:
            raise NotNormalized(f"norm {nrm} differs from 1 beyond {STATE_TOL}")
        if np.max(np.abs(kets[0] - np.eye(*kets[0].shape))) > STATE_TOL:
            raise InvalidDensity("the pointer label's kets are not the identity")
        for r in tables:
            if np.max(np.abs((np.abs(r) ** 2).sum(axis=1) - 1.0)) > STATE_TOL:
                raise InvalidDensity("a record ket is not a unit vector")
            r.flags.writeable = False
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_totals", np.bincount(classes).tolist())
        object.__setattr__(self, "_results", {})

    @cached_property
    def _class_grams(self) -> np.ndarray:
        """(classes, n, n): each record class's Gram matrix."""
        g = np.array([r @ r.conj().T for r in self._tables])
        n = self.amplitudes.size
        g[:, np.arange(n), np.arange(n)] = 1.0
        g.flags.writeable = False
        return g

    @cached_property
    def grams(self) -> np.ndarray:
        g = self._class_grams[self._classes]
        g.flags.writeable = False
        return g

    def _traced_counts(self, labels) -> tuple[int, ...]:
        """Per record class, how many labels a reduction to ``labels``
        traces out: the others if ``labels`` hold the pointer label, else
        ``labels`` (the two sides of a pure state share a spectrum)."""
        positions = set(map(self.layout.index, _label_tuple(labels)))
        inside = [0] * len(self._totals)
        for i in positions:
            inside[self._classes[i]] += 1
        if 0 in positions:
            return tuple(t - c for t, c in zip(self._totals, inside))
        return tuple(inside)

    def _rows(self, positions) -> np.ndarray:
        """Row k: the Kronecker product of kets k of the labels at layout
        ``positions``, in the order given."""
        rows = np.ones((self.amplitudes.size, 1))
        for i in positions:
            rows = np.einsum("ki,kj->kij", rows,
                             self.kets[i]).reshape(len(rows), -1)
        return rows

    def dense(self) -> PureState:
        """The amplitude vector: the pointer kets are |k>, so block k is a_k
        times row k of the other labels' kets, and blocks past n are 0."""
        rows = self._rows(range(1, len(self.kets)))
        out = np.zeros((self.layout.dims[0], rows.shape[1]), dtype=complex)
        out[:len(rows)] = self.amplitudes[:, np.newaxis] * rows
        out += 0.0                      # a_k * 0 may be -0.0
        return PureState(self.layout, out)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one matrix over the retained subsystems."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __init__(self, layout: SpaceLayout, matrix):
        mat = _freeze(np.asarray(matrix))
        d = layout.total_dimension
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if np.max(np.abs(mat - mat.conj().T)) > STATE_TOL:
            raise InvalidDensity("matrix not Hermitian within tolerance")
        tr = np.trace(mat)
        if abs(tr - 1.0) > STATE_TOL:
            raise InvalidDensity(f"trace {tr} differs from 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -STATE_TOL:
            raise InvalidDensity("negative eigenvalue beyond tolerance")
        eigs.flags.writeable = False
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigenvalues", eigs)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, as computed by the PSD check."""
        return self._eigenvalues


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Coefficients and paired orthonormal bases for a bipartition.

    ``left_basis`` columns are phase-fixed so each vector's first
    significant amplitude is real positive; ``right_basis`` columns carry
    the compensating phases so that
    ``sum_k c_k left[:,k] x right[:,k]`` reconstructs the state exactly.
    """

    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]
    coefficients: np.ndarray     # non-negative, descending
    left_basis: np.ndarray       # columns = left Schmidt vectors
    right_basis: np.ndarray      # columns = right Schmidt vectors

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > KERNEL_TOL))


@dataclass(frozen=True, eq=False)
class SubsystemUnitary:
    """Unitary matrix acting on a named, ordered subset of subsystems."""

    targets: tuple[str, ...]
    matrix: np.ndarray

    def __init__(self, targets, matrix):
        mat = _freeze(np.asarray(matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotUnitary(f"matrix shape {mat.shape} is not square")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) > STATE_TOL:
            raise NotUnitary("U U+ differs from identity beyond tolerance")
        object.__setattr__(self, "targets", _label_tuple(targets))
        object.__setattr__(self, "matrix", mat)


# ---------------------------------------------------------------------------
# construction helpers

def basis_state(layout: SpaceLayout, indices) -> PureState:
    """Computational basis ket.  ``indices`` is one int per subsystem."""
    indices = [int(i) for i in np.atleast_1d(indices)]
    if len(indices) != len(layout.dims):
        raise ValueError("one index per subsystem required")
    flat = 0
    for i, d in zip(indices, layout.dims):
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for dimension {d}")
        flat = flat * d + i
    amps = np.zeros(layout.total_dimension, dtype=complex)
    amps[flat] = 1.0
    return PureState(layout, amps)


def schmidt_state(amplitudes, env_dim: int) -> PureState:
    """sum_k a_k |k>_S |k>_E over layout (S, E), with E of dimension
    ``env_dim`` (at least the number of amplitudes)."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    d = amps.size
    if env_dim < d:
        raise DimensionMismatch(f"environment dimension {env_dim} < {d}")
    return BranchState(SpaceLayout([("S", d), ("E", env_dim)]), amps,
                       [np.eye(d), np.eye(d, env_dim)]).dense()


# ---------------------------------------------------------------------------
# operations

def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two states on disjoint label sets."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise LabelCollision(f"labels {sorted(overlap)} appear on both sides")
    layout = SpaceLayout(list(a.layout.subsystems) + list(b.layout.subsystems))
    return PureState(layout, np.kron(a.amplitudes, b.amplitudes))


def attach_ready(state: PureState, label: str, dim: int) -> PureState:
    """state x |0>_label: a fresh subsystem in its ready (index-0) state."""
    ready = basis_state(SpaceLayout([(label, dim)]), [0])
    return tensor_product(state, ready)


def _grouped(state: PureState, *label_groups):
    """Amplitudes with one axis per label group, each group's labels in
    the order given, and a last axis over the other labels in layout
    order; with them, the map taking an array of that shape back to a
    PureState."""
    layout = state.layout
    front = [layout.index(l) for l in sum(map(_label_tuple, label_groups), ())]
    order = front + [i for i in range(len(layout.dims)) if i not in front]
    moved = state.tensor().transpose(order)
    shape = [layout.subdim(g) for g in label_groups] + [-1]

    def restore(arr: np.ndarray) -> PureState:
        arr = np.moveaxis(arr.reshape(moved.shape), range(len(order)), order)
        return PureState(layout, arr.ravel())

    return moved.reshape(shape), restore


def matricize(state: PureState, row_labels) -> np.ndarray:
    """Amplitudes as a matrix: rows index ``row_labels`` (in the given
    order), columns the remaining subsystems in layout order."""
    return _grouped(state, row_labels)[0]


def apply_unitary(state: PureState, u: SubsystemUnitary) -> PureState:
    """Apply ``u`` embedded on its target subsystems: (I x U x I)|psi>."""
    arr, restore = _grouped(state, u.targets)
    if u.matrix.shape[0] != len(arr):
        raise ValueError(f"unitary dimension {u.matrix.shape[0]} != "
                         f"target dimension {len(arr)}")
    return restore(u.matrix @ arr)


def controlled_shift(state: PureState, controls, target: str) -> PureState:
    """c-shift |k>|j> -> |k>|j + k mod d_target>.

    ``controls`` may be one label or an ordered list; the combined control
    index is read out in the usual row-major convention.  Implemented as an
    index permutation, so large control/target dimensions stay cheap.
    """
    controls = _label_tuple(controls)
    if target in controls:
        raise LabelCollision("target coincides with a control")
    arr, restore = _grouped(state, controls, target)
    work = arr.copy()
    for k in range(len(work)):
        work[k] = np.roll(work[k], k % arr.shape[1], axis=0)
    return restore(work)


def partial_trace(state, keep) -> DensityOperator:
    """Trace out everything except the ``keep`` labels."""
    layout = state.layout
    keep, traced = layout.split(keep)
    if not keep:
        raise EmptyKeepSet("keep set must be non-empty")
    if isinstance(state, PureState):
        mat = matricize(state, keep)
        return DensityOperator(layout.restrict(keep), mat @ mat.conj().T)
    if isinstance(state, DensityOperator):
        t = state.matrix.reshape(layout.dims + layout.dims)
        m = len(layout.dims)
        for i in map(layout.index, reversed(traced)):
            t = np.trace(t, axis1=i, axis2=i + m)
            m -= 1
        dk = layout.subdim(keep)
        return DensityOperator(layout.restrict(keep), t.reshape(dk, dk))
    raise TypeError(f"unsupported input type {type(state)!r}")


def _density(state: BranchState, counts) -> np.ndarray:
    """Entry (k, l) = a_k a_l* times the product of G_j[l, k] over the
    labels traced out, ``counts`` of each record class, left to right in
    record-class order: the reduced state over the branch kets of the
    side holding the pointer label, whose kets are orthonormal."""
    g = state._class_grams.repeat(counts, axis=0).prod(axis=0)
    a = state.amplitudes
    return np.outer(a, a.conj()) * g.T


def _kept(state: BranchState, system, fragment=()):
    """The per-class counts of the labels traced out when ``system``,
    which must hold the pointer label, and ``fragment`` are kept, and the
    fragment's positions in layout order."""
    system, fragment = _label_tuple(system), _label_tuple(fragment)
    counts = state._traced_counts(system + fragment)
    if state.layout.labels[0] not in system:
        raise InvalidBipartition(f"labels {system} lack the pointer label "
                                 f"{state.layout.labels[0]!r}")
    return counts, sorted(set(map(state.layout.index, fragment)))


def branch_density(state: BranchState, labels) -> np.ndarray:
    """Reduced state on ``labels``, which hold the pointer label, as the
    n x n matrix over its branch kets (x)_{j in labels} |e_j^k>."""
    return _density(state, _kept(state, labels)[0])


def _entropy_bits(eigs: np.ndarray) -> float:
    """-sum x log2 x over the eigenvalues above KERNEL_TOL, >= 0."""
    p = eigs[eigs > KERNEL_TOL]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def _average_entropy(outcomes) -> float:
    """sum_b p_b H(rho_b / p_b) over the unnormalized outcome states
    rho_b (trace p_b) whose p_b is at least ``KERNEL_TOL``."""
    avg = 0.0
    for rho in outcomes:
        p = np.trace(rho).real
        if p >= KERNEL_TOL:
            avg += p * _entropy_bits(np.linalg.eigvalsh(rho / p))
    return avg


def reduced_spectrum(state: BranchState, labels) -> np.ndarray:
    """Ascending eigenvalues of the reduced state on ``labels``.

    The two sides of a pure state share their nonzero spectrum, so the
    side holding the pointer label is the one reduced: its density has
    the spectrum of sqrt(p) (G_j1 * G_j2 * ...) sqrt(p), the Hadamard
    product running over the labels j of the other side.  The whole
    state is pure; its spectrum is the single eigenvalue 1.  Label sets
    that trace out as many labels of each record class share one
    (read-only) spectrum, computed once per state.
    """
    return _reduction(state, labels)[0]


def _reduction(state: BranchState, labels) -> tuple[np.ndarray, float]:
    """The ``reduced_spectrum`` on ``labels`` and its entropy in bits,
    kept under the per-class counts of the labels traced out."""
    labels = _label_tuple(labels)
    counts = state._traced_counts(labels)
    if not labels:
        raise EmptyKeepSet("keep set must be non-empty")
    if not any(counts):
        return np.ones(1), 0.0
    if counts not in state._results:
        eigs = np.linalg.eigvalsh(_density(state, counts))
        eigs.flags.writeable = False
        state._results[counts] = eigs, _entropy_bits(eigs)
    return state._results[counts]


def branch_outcomes(state: BranchState, system, fragment,
                    basis) -> np.ndarray:
    """Per vector B_b of a ``basis`` of ``fragment``, the unnormalized
    reduced state of ``system`` (which must hold the pointer label) after
    the outcome b: ``branch_density(state, system + fragment) * w w^H``
    with w = B_b^* R_F^T, row k of R_F being the Kronecker product of the
    fragment labels' kets k in layout order."""
    return _outcomes(state, *_kept(state, system, fragment), basis)


def _outcomes(state: BranchState, counts, positions, basis) -> np.ndarray:
    """``branch_outcomes`` given what ``_kept`` returns for it."""
    joint = _density(state, counts)
    frag = state._rows(positions)
    w = _basis_rows(basis, frag.shape[1]).conj() @ frag.T
    return joint * (w[:, :, np.newaxis] * w[:, np.newaxis, :].conj())


def _conditioned_entropy(state: BranchState, system, fragment,
                         basis) -> float:
    """``_average_entropy`` of the ``branch_outcomes``, kept under the
    traced counts, the fragment's record classes in layout order and the
    basis; the basis is checked only when the average is computed."""
    counts, positions = _kept(state, system, fragment)
    bmat = _basis_matrix(basis)
    key = ("conditioned", counts, tuple(state._classes[i] for i in positions),
           bmat.shape, bmat.tobytes())
    if key not in state._results:
        state._results[key] = _average_entropy(
            _outcomes(state, counts, positions, bmat))
    return state._results[key]


def _leading_index(columns: np.ndarray) -> np.ndarray:
    """Per column, the row of the first entry above KERNEL_TOL in
    magnitude; the row count for a column with no such entry."""
    firsts = np.full(columns.shape[1], columns.shape[0], dtype=int)
    for k in range(columns.shape[1]):
        nz = np.flatnonzero(np.abs(columns[:, k]) > KERNEL_TOL)
        if nz.size:
            firsts[k] = nz[0]
    return firsts


def _phase_fix(columns: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Per-column phases making the first significant entry real positive;
    ``firsts`` is ``_leading_index(columns)``."""
    phases = np.ones(columns.shape[1], dtype=complex)
    for k, i in enumerate(firsts):
        if i < columns.shape[0]:
            phases[k] = columns[i, k] / abs(columns[i, k])
    return phases


def schmidt_decompose(state: PureState, left) -> SchmidtDecomposition:
    """Schmidt decomposition across the (left, complement) bipartition."""
    left_ordered, right_ordered = state.layout.split(left)
    if not left_ordered or not right_ordered:
        raise InvalidBipartition("both sides of the bipartition must be non-empty")
    u, s, vh = np.linalg.svd(matricize(state, left_ordered),
                             full_matrices=False)
    # tie-break numerically degenerate coefficients deterministically
    firsts = _leading_index(u)
    order = _degenerate_order(s, firsts)
    u, s, vh = u[:, order], s[order], vh[order, :]
    phases = _phase_fix(u, firsts[order])
    u = u / phases[np.newaxis, :]
    right = vh.T * phases[np.newaxis, :]   # columns are right kets
    coeffs = np.asarray(s, dtype=float)
    coeffs.flags.writeable = False
    return SchmidtDecomposition(left_ordered, right_ordered,
                                coeffs, _freeze(u), _freeze(right))


def _degenerate_order(s: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Stable order: descending coefficient, ties by leading row."""
    keys = list(zip(-np.round(s / KERNEL_TOL) * KERNEL_TOL, firsts))
    return np.array(sorted(range(len(s)), key=lambda i: keys[i]), dtype=int)


def _basis_matrix(basis) -> np.ndarray:
    """The basis vectors, each flattened, as the rows of a matrix."""
    return np.asarray([np.asarray(b, dtype=complex).ravel() for b in basis])


def _basis_rows(basis, dim: int) -> np.ndarray:
    """``_basis_matrix(basis)``, checked to be ``dim`` orthonormal vectors
    of dimension ``dim``."""
    bmat = _basis_matrix(basis)
    if bmat.shape != (dim, dim):
        raise BadBasis(f"need {dim} vectors of dimension {dim}")
    if np.max(np.abs(bmat.conj() @ bmat.T - np.eye(dim))) > STATE_TOL:
        raise BadBasis("vectors are not orthonormal within tolerance")
    return bmat


def relative_states(state: PureState, left, basis):
    """Expand |psi> = sum_k b_k |basis_k>|partner_k> over a left basis.

    Returns a list of ``(coefficient, partner)`` pairs; the partner is a
    normalized PureState on the complement, or None when the coefficient
    magnitude falls below KERNEL_TOL (flagged zero rather than normalized).
    """
    left_ordered, right_ordered = state.layout.split(left)
    if not right_ordered:
        raise InvalidBipartition("left side covers the whole layout")
    bmat = _basis_rows(basis, state.layout.subdim(left_ordered))
    mat = matricize(state, left_ordered)
    right_layout = state.layout.restrict(right_ordered)
    out = []
    for b in bmat:
        w = b.conj() @ mat
        c = np.linalg.norm(w)
        if c < KERNEL_TOL:
            out.append((0j, None))
            continue
        unit = w[:, np.newaxis] / c
        ph = _phase_fix(unit, _leading_index(unit))[0]
        out.append((c * ph, PureState(right_layout, unit / ph)))
    return out


def global_phase_distance(a: PureState, b: PureState) -> float:
    """min over theta of ||a - e^{i theta} b||.

    The minimizing phase is that of <b|a>; the norm is then evaluated
    elementwise, which stays accurate near zero where the equivalent
    sqrt(2 - 2|<a|b>|) formula loses half the significant digits.
    """
    if a.layout != b.layout:
        raise LayoutMismatch(f"{a.layout.labels} vs {b.layout.labels}")
    ov = np.vdot(b.amplitudes, a.amplitudes)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))
