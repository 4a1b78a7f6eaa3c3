"""Brute-force oracles, independent of the library's vectorized kernels.

Everything here is written as explicit index loops or full Kronecker
builds so the production code paths are checked against a second,
structurally different computation.  The counting oracles keep the
one-candidate-at-a-time denominator scan and the dense fine-grained
state that the library's structured counting path replaces, and the
branch-state builder keeps the gate chain that ``BranchState.dense``
replaces.  The Schmidt-convention oracle keeps the per-column loops and
the Python ``sorted`` that the library's one array-wide leading-entry
helper and its ``lexsort`` replace.  The comparison-state builder
realizes the endpoints of the rational bounds.

The dense-state helpers that no scenario of the ``envlab`` command
reaches live here too, as the tests' reference: one-subsystem states,
the (S, E) Schmidt state, whose environment may be wider than S,
Schmidt reconstruction, the Schmidt phase unitary and the swap of two
basis columns as sums of outer products (the library builds both as
I + V c V^H), equality up to global phase, the gates that
pre-measure, entangle an environment and write an observer's record,
the observer's conditional outcome table, subset probabilities, the
phase-sensitivity witness, the state files, and the information
measures of a dense ``PureState``, reduced by ``partial_trace``, which
the library computes from a ``BranchState`` only.  ``save_state`` /
``load_state`` use a small JSON format::

    {
      "layout": [{"label": "S", "dim": 2}, {"label": "E", "dim": 2}],
      "amplitudes": [[0.7071067811865476, 0.0], [0.0, 0.0],
                     [0.0, 0.0], [0.7071067811865476, 0.0]]
    }

Amplitudes are ``[re, im]`` pairs in row-major order: the leftmost
layout entry is the slowest-varying index.
"""
import json
from dataclasses import dataclass

import numpy as np

from envlab import errors
from envlab.envariance import (
    _pointer_order,
    equal_amplitude_probabilities,
    fine_grain,
)
from envlab.errors import (
    BadIndex,
    DimensionMismatch,
    InvalidBipartition,
    LayoutMismatch,
    UndefinedRatio,
)
from envlab.info_measures import (
    RedundancyReport,
    _disjoint,
    trace_distance,
    von_neumann_entropy,
)
from envlab.measurement_models import _write_record, broadcast_environment
from envlab.tensor_core import (
    KERNEL_TOL,
    STATE_TOL,
    BranchState,
    PureState,
    SchmidtDecomposition,
    SpaceLayout,
    _average_entropy,
    _basis_rows,
    _grouped,
    _label_tuple,
    attach_ready,
    controlled_shift,
    global_phase_distance,
    partial_trace,
    schmidt_decompose,
)


# ---------------------------------------------------------------------------
# dense states and state files

def single_state(label: str, amplitudes) -> PureState:
    """One-subsystem state from a raw amplitude vector (normalized check)."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return PureState(SpaceLayout([(label, amps.size)]), amps)


def schmidt_state(amplitudes, env_dim: int) -> PureState:
    """sum_k a_k |k>_S |k>_E over layout (S, E), with E of dimension
    ``env_dim`` (at least the number of amplitudes)."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    d = amps.size
    if env_dim < d:
        raise DimensionMismatch(f"environment dimension {env_dim} < {d}")
    return BranchState(SpaceLayout([("S", d), ("E", env_dim)]), amps,
                       [np.eye(d), np.eye(d, env_dim)]).dense()


def schmidt_reconstruct(sd: SchmidtDecomposition,
                        layout: SpaceLayout) -> PureState:
    """Rebuild the state from a decomposition (for round-trip checks)."""
    mat = (sd.left_basis * sd.coefficients[np.newaxis, :]) @ sd.right_basis.T
    front = sd.left_labels + sd.right_labels
    arr = mat.reshape([layout.dim(l) for l in front])
    arr = np.moveaxis(arr, range(len(front)), [layout.index(l) for l in front])
    return PureState(layout, arr.ravel())


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


def _degenerate_order(s: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Terms above KERNEL_TOL: descending coefficient, ties by leading row."""
    keys = list(zip(-np.round(s / KERNEL_TOL) * KERNEL_TOL, firsts))
    return np.array(sorted(np.flatnonzero(s > KERNEL_TOL),
                           key=lambda i: keys[i]), dtype=int)


def schmidt_convention_oracle(u, s, vh):
    """(coefficients, left basis, right basis) of the Schmidt terms of the
    SVD ``(u, s, vh)`` of a matricized state, by per-column loops and a
    Python ``sorted``: the terms above KERNEL_TOL in descending
    coefficient, ties by leading row, each left column divided by the
    phase of its first significant entry and its right column multiplied
    by it."""
    firsts = _leading_index(u)
    order = _degenerate_order(s, firsts)
    u, s, vh = u[:, order], s[order], vh[order, :]
    phases = _phase_fix(u, firsts[order])
    return s, u / phases[np.newaxis, :], vh.T * phases[np.newaxis, :]


def relative_phase_oracle(unit: np.ndarray) -> complex:
    """The phase of a unit vector's first entry above KERNEL_TOL."""
    column = unit[:, np.newaxis]
    return _phase_fix(column, _leading_index(column))[0]


def pointer_order_oracle(sd: SchmidtDecomposition) -> np.ndarray:
    """The Schmidt terms in the order of their left vectors' leading rows,
    stable among equal rows."""
    return np.argsort(_leading_index(sd.left_basis), kind="stable")


def schmidt_phase_oracle(sd: SchmidtDecomposition, phases) -> np.ndarray:
    """U = sum_k e^{i phi_k} |s_k><s_k| + identity on the complement, one
    outer product per Schmidt term."""
    u = np.eye(sd.left_basis.shape[0], dtype=complex)
    for k in range(sd.rank):
        v = sd.left_basis[:, k]
        u += (np.exp(1j * phases[k]) - 1.0) * np.outer(v, v.conj())
    return u


def swap_matrix_oracle(basis: np.ndarray, k: int, l: int) -> np.ndarray:
    """|b_k><b_l| + |b_l><b_k| + identity on the complement of columns k
    and l, from four outer products."""
    a, b = basis[:, k], basis[:, l]
    m = np.eye(basis.shape[0], dtype=complex)
    m += np.outer(a, b.conj()) + np.outer(b, a.conj())
    m -= np.outer(a, a.conj()) + np.outer(b, b.conj())
    return m


def states_equal_up_to_global_phase(a: PureState, b: PureState,
                                    tol: float = STATE_TOL) -> bool:
    """True iff min_theta ||a - e^{i theta} b|| <= tol."""
    return global_phase_distance(a, b) <= tol


def state_to_dict(state: PureState) -> dict:
    return {
        "layout": [{"label": l, "dim": d} for l, d in state.layout.subsystems],
        "amplitudes": [[float(z.real), float(z.imag)]
                       for z in state.amplitudes],
    }


def state_from_dict(doc: dict) -> PureState:
    layout = SpaceLayout([(e["label"], e["dim"]) for e in doc["layout"]])
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return PureState(layout, amps)


def save_state(state: PureState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path) -> PureState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# gates and observer records

@dataclass(frozen=True)
class ObserverOutcomeTable:
    """Prior over pointer outcomes and p(s_l | mu_k) rows per memory
    outcome.  Rows whose memory probability is < KERNEL_TOL fall back to the
    prior and are flagged in ``defined``."""

    prior: np.ndarray
    conditional: np.ndarray
    defined: np.ndarray


def premeasure(state: PureState, system: str, apparatus: str) -> PureState:
    """Controlled shift |s_k>|A_0> -> |s_k>|A_k> (pre-measurement)."""
    return _write_record(state, system, apparatus, "apparatus")


def entangle_environment(state: PureState, pointer: str,
                         environment: str) -> PureState:
    """Controlled shift from the pointer onto a fresh environment."""
    return _write_record(state, pointer, environment, "environment")


def observer_record(state: PureState, system: str, memory: str) -> PureState:
    """Copy the system's pointer index onto the observer's memory."""
    return _write_record(state, system, memory, "memory")


def conditional_probability(state: PureState, memory: str,
                            system: str) -> ObserverOutcomeTable:
    """Prior over pointer outcomes and p(s_l | mu_k) per memory outcome,
    read from the joint distribution |psi|^2 over (memory, system)."""
    if memory == system:
        raise InvalidBipartition(f"memory and system are both {memory!r}")
    arr, _ = _grouped(state, memory, system)
    joint = np.sum(np.abs(arr) ** 2, axis=2)
    prior = joint.sum(axis=0)
    weight = joint.sum(axis=1)
    defined = weight >= KERNEL_TOL
    conditional = np.tile(prior, (len(joint), 1))
    conditional[defined] = joint[defined] / weight[defined, np.newaxis]
    return ObserverOutcomeTable(prior, conditional, defined)


# ---------------------------------------------------------------------------
# subset probabilities and the phase-sensitivity witness

def subset_probability(state: PureState, system, indices) -> float:
    """Additive probability n/N of a subset of equal-amplitude outcomes."""
    p = equal_amplitude_probabilities(state, system)
    n = p.size
    chosen = set(int(i) for i in indices)
    if any(i < 0 or i >= n for i in chosen):
        raise BadIndex(f"subset {sorted(chosen)} outside range({n})")
    return len(chosen) / n


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


# ---------------------------------------------------------------------------
# information measures of a dense state, under the library's label rules

def _dense_entropy(state: PureState, labels) -> float:
    """Entropy of the reduced state on ``labels``, in bits."""
    return von_neumann_entropy(partial_trace(state, labels))


def dense_mutual_information(state: PureState, system, fragment) -> float:
    """I(S:F) = H(S) + H(F) - H(S,F) in bits, clamped to >= 0."""
    system, (fragment,) = _disjoint(system, [fragment])
    return _dense_mutual_information(state, system, fragment,
                                     _dense_entropy(state, system))


def _dense_mutual_information(state, system, fragment, hs) -> float:
    """I(S:F) given H(S) = ``hs``, clamped to >= 0."""
    hf = _dense_entropy(state, fragment)
    hsf = _dense_entropy(state, system + fragment)
    return max(0.0, hs + hf - hsf)


def dense_redundancy_report(state: PureState, system,
                            fragments) -> RedundancyReport:
    """Each fragment's MI, H(S), and the redundancy ratio I_total / H(S)."""
    system, frag_sets = _disjoint(system, fragments)
    hs = _dense_entropy(state, system)
    if hs <= KERNEL_TOL:
        raise UndefinedRatio("system entropy is zero; ratio undefined")
    mis = tuple(_dense_mutual_information(state, system, f, hs)
                for f in frag_sets)
    return RedundancyReport(mis, hs, float(sum(mis)) / hs)


def dense_basis_conditioned_mutual_information(state: PureState, system,
                                               fragment,
                                               fragment_basis) -> float:
    """H(S) minus the average entropy of S after ``fragment``, its labels
    in layout order, is projected onto each vector of ``fragment_basis``;
    each conditional state of ``system`` is the remainder traced down to
    its labels, and outcomes below ``KERNEL_TOL`` are skipped."""
    system, (fragment,) = _disjoint(system, [fragment])
    hs = _dense_entropy(state, system)
    arr, _ = _grouped(state, system, state.layout.split(fragment)[0])
    rows = _basis_rows(fragment_basis, arr.shape[1]).conj()
    kept = np.einsum("bf,sfr->bsr", rows, arr)
    avg = _average_entropy(kept @ kept.conj().transpose(0, 2, 1))
    return max(0.0, hs - avg)


# ---------------------------------------------------------------------------
# oracles for the structured kernels

def build_branch_state(system, amplitudes, apparatus=None, environments=(),
                       overlap=0.0):
    """The branch state built gate by gate: the system in the state of
    ``amplitudes``, a ready apparatus pre-measuring it, then ready
    environments each written by the pointer's record map."""
    d = len(amplitudes)
    out = single_state(system, amplitudes)
    if apparatus is not None:
        out = attach_ready(out, apparatus, d)
        out = premeasure(out, system, apparatus)
    pointer = apparatus if apparatus is not None else system
    environments = _label_tuple(environments)
    for env in environments:
        out = attach_ready(out, env, d)
    return broadcast_environment(out, pointer, environments, overlap)


def outer_product_oracle(a, b):
    """Double-loop tensor product of two amplitude vectors."""
    out = np.zeros(len(a) * len(b), dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * len(b) + j] = ai * bj
    return out


def kron_embed_oracle(dims, target_positions, u):
    """Full-space matrix of a unitary on selected subsystem positions.

    Built entry by entry from the definition: matrix element between two
    full basis states is the u element on the target sub-indices times a
    delta on every spectator sub-index.
    """
    total = int(np.prod(dims))
    n = len(dims)

    def digits(flat):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return list(reversed(out))

    tdims = [dims[p] for p in target_positions]

    def tflat(dg):
        flat = 0
        for p, d in zip(target_positions, tdims):
            flat = flat * d + dg[p]
        return flat

    full = np.zeros((total, total), dtype=complex)
    for i in range(total):
        di = digits(i)
        for j in range(total):
            dj = digits(j)
            if any(di[p] != dj[p] for p in range(n)
                   if p not in target_positions):
                continue
            full[i, j] = u[tflat(di), tflat(dj)]
    return full


def partial_trace_oracle(amplitudes, dims, keep_positions):
    """Index-summation reduced density matrix of a pure state."""
    n = len(dims)
    drop = [p for p in range(n) if p not in keep_positions]
    kdims = [dims[p] for p in keep_positions]
    ddims = [dims[p] for p in drop]
    dk = int(np.prod(kdims)) if kdims else 1
    dd = int(np.prod(ddims)) if ddims else 1
    t = np.asarray(amplitudes).reshape(dims)
    rho = np.zeros((dk, dk), dtype=complex)
    for ki in range(dk):
        for kj in range(dk):
            acc = 0j
            for e in range(dd):
                idx_i = _compose(ki, kdims, e, ddims, keep_positions, drop, n)
                idx_j = _compose(kj, kdims, e, ddims, keep_positions, drop, n)
                acc += t[idx_i] * np.conj(t[idx_j])
            rho[ki, kj] = acc
    return rho


def _compose(kflat, kdims, dflat, ddims, keep, drop, n):
    idx = [0] * n
    for p, d in zip(reversed(keep), reversed(kdims)):
        idx[p] = kflat % d
        kflat //= d
    for p, d in zip(reversed(drop), reversed(ddims)):
        idx[p] = dflat % d
        dflat //= d
    return tuple(idx)


def entropy_oracle(matrix):
    """-sum p log2 p straight from the eigenvalues."""
    eigs = np.linalg.eigvalsh(matrix)
    h = 0.0
    for p in eigs:
        if p > 1e-12:
            h -= p * np.log2(p)
    return h


def mutual_information_oracle(amplitudes, dims, sys_pos, frag_pos):
    """H(S) + H(F) - H(SF) from partial-trace-oracle reductions."""
    hs = entropy_oracle(partial_trace_oracle(amplitudes, dims, sys_pos))
    hf = entropy_oracle(partial_trace_oracle(amplitudes, dims, frag_pos))
    hsf = entropy_oracle(
        partial_trace_oracle(amplitudes, dims, sorted(sys_pos + frag_pos))
    )
    return hs + hf - hsf


def enumerate_equal_terms(state, system_dim, tol=1e-9):
    """Enumerate nonzero product terms of a fine-grained state tensor.

    Returns (number of terms, common squared magnitude, multiplicity per
    distinct system factor).  The state tensor must be reshaped to
    (system_dim, -1) by the caller's layout convention beforehand.
    """
    mat = np.asarray(state).reshape(system_dim, -1)
    cols = [c for c in range(mat.shape[1])
            if np.linalg.norm(mat[:, c]) > tol]
    mags = [np.linalg.norm(mat[:, c]) ** 2 for c in cols]
    factors = []
    for c in cols:
        v = mat[:, c] / np.linalg.norm(mat[:, c])
        nz = np.flatnonzero(np.abs(v) > tol)[0]
        v = v / (v[nz] / abs(v[nz]))
        factors.append(v)
    multiplicity = {}
    for v in factors:
        key = None
        for seen in multiplicity:
            if np.linalg.norm(np.asarray(seen) - v) < 1e-8:
                key = seen
                break
        if key is None:
            key = tuple(np.round(v, 8))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return len(cols), mags, multiplicity


def scalar_commensurate_denominator(probs, tolerance, m_cap):
    """One-candidate-at-a-time scan for the smallest M <= m_cap with every
    p_k within tolerance of m_k / M and all m_k >= 1."""
    probs = np.asarray(probs, dtype=float).ravel()
    for m in range(probs.size, m_cap + 1):
        counts = np.rint(probs * m).astype(int)
        if counts.min() < 1 or counts.sum() != m:
            continue
        if np.max(np.abs(probs - counts / m)) <= tolerance:
            return m, tuple(int(c) for c in counts)
    raise errors.UseBoundsInstead(f"no denominator <= {m_cap}")


def dense_born_probabilities(state, system, tolerance=1e-10, m_cap=10 ** 4):
    """Counting probabilities from the explicit fine-grained state: build
    the n*M^2 state with ``fine_grain``, read its M equal Schmidt
    coefficients off a full SVD and sum the 1/M weights blockwise; unequal
    coefficients mean the scanned M does not count the state, so bounds
    are asked for instead."""
    sys_labels = state.layout.split(system)[0]
    sd = schmidt_decompose(state, sys_labels)
    probs = sd.coefficients ** 2
    m, counts = scalar_commensurate_denominator(probs, tolerance, m_cap)
    fine = fine_grain(state, counts, sys_labels, "_anc",
                      tolerance=tolerance + 0.5 / m)
    try:
        per_term = equal_amplitude_probabilities(fine, state.layout.labels)
    except errors.NotEqualAmplitude as exc:
        raise errors.UseBoundsInstead(f"unequal fine-grained terms: {exc}")
    if per_term.size != m:
        raise errors.PlanMismatch(f"{per_term.size} terms, expected {m}")
    agg = np.zeros(probs.size)
    offset = 0
    for k, mk in enumerate(counts):
        agg[k] = per_term[offset:offset + mk].sum()
        offset += mk
    if np.max(np.abs(agg - probs)) > tolerance + 1.0 / m:
        raise errors.PlanMismatch("counting probabilities deviate")
    return agg[_pointer_order(sd)]


def endpoint_counts(pinned, k, probs, m):
    """Count vector over M with outcome k pinned to ``pinned`` and the
    remaining M - pinned spread over the other outcomes by largest
    remainder (evenly when they all have zero weight)."""
    probs = np.asarray(probs, dtype=float)
    n = probs.size
    counts = np.zeros(n, dtype=int)
    counts[k] = pinned
    others = [i for i in range(n) if i != k]
    if not others:
        return counts
    rest = m - pinned
    weights = probs[others]
    total = weights.sum()
    shares = weights / total * rest if total > 0 else \
        np.full(len(others), rest / len(others))
    base = np.floor(shares).astype(int)
    by_remainder = np.argsort(-(shares - base), kind="stable")
    for i in range(int(rest - base.sum())):
        base[by_remainder[i % len(others)]] += 1
    counts[others] = base
    return counts
