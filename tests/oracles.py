"""Brute-force oracles, independent of the library's vectorized kernels.

Everything here is written as explicit index loops or full Kronecker
builds so the production code paths are checked against a second,
structurally different computation.  The counting oracles keep the
one-candidate-at-a-time denominator scan and the dense fine-grained
state that the library's structured counting path replaces.  The
comparison-state builder realizes the endpoints of the rational bounds.
"""
import numpy as np

from envlab import errors
from envlab.envariance import (
    FineGrainingPlan,
    _pointer_order,
    equal_amplitude_probabilities,
    fine_grain,
)
from envlab.tensor_core import schmidt_decompose


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
    sys_labels = state.layout.ordered(system)
    sd = schmidt_decompose(state, sys_labels)
    probs = sd.coefficients[: sd.rank] ** 2
    m, counts = scalar_commensurate_denominator(probs, tolerance, m_cap)
    plan = FineGrainingPlan(counts, sys_labels, "_anc",
                            tolerance=tolerance + 0.5 / m)
    fine = fine_grain(state, plan)
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
