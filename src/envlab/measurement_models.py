"""Circuit-level measurement chain: pre-measurement, environment
entanglement, N-fold broadcast, distant-environment cascade, and observer
records with conditional probabilities.

Conventions: "ready" states are the index-0 basis states, and the
controlled shift acts as |k>|j> -> |k>|j + k mod d>.  Imperfect records at
overlap c are built by the chain  e_0 = |0>,  e_k = c*e_{k-1} +
sqrt(1-c^2)|k>,  so adjacent records have real inner product c and c = 0
recovers orthonormal basis records.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ApparatusNotReady,
    BadOverlap,
    DimensionMismatch,
    LengthMismatch,
    NotNormalized,
)
from .tensor_core import (
    KERNEL_TOL,
    STATE_TOL,
    PureState,
    SubsystemUnitary,
    apply_unitary,
    attach_ready,
    controlled_shift,
    partial_trace,
    relative_states,
    single_state,
)


@dataclass(frozen=True)
class BranchSpec:
    """Recipe for a branch state: amplitudes over the pointer basis plus
    the record-overlap parameter (0 = perfect records)."""

    system_label: str
    pointer_dimension: int
    amplitudes: tuple[complex, ...]
    record_overlap: float = 0.0

    def __init__(self, system_label, pointer_dimension, amplitudes,
                 record_overlap=0.0):
        amps = tuple(complex(a) for a in amplitudes)
        if pointer_dimension < 2:
            raise DimensionMismatch("pointer dimension must be >= 2")
        if len(amps) != pointer_dimension:
            raise DimensionMismatch(
                f"{len(amps)} amplitudes for dimension {pointer_dimension}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > STATE_TOL:
            raise NotNormalized(f"branch amplitudes have norm {nrm}")
        if not 0.0 <= record_overlap <= 1.0:
            raise BadOverlap(f"overlap {record_overlap} outside [0, 1]")
        object.__setattr__(self, "system_label", system_label)
        object.__setattr__(self, "pointer_dimension", int(pointer_dimension))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "record_overlap", float(record_overlap))


@dataclass(frozen=True)
class ObserverOutcomeTable:
    """Prior over pointer outcomes and p(s_l | mu_k) rows per memory
    outcome.  Rows whose memory probability is < KERNEL_TOL fall back to the
    prior and are flagged in ``defined``."""

    prior: np.ndarray
    conditional: np.ndarray
    defined: np.ndarray


def _check_target(state: PureState, source: str, target: str,
                  what: str) -> None:
    """``target`` is at least as large as ``source`` and ready: with the
    amplitudes viewed as (before, d_target, after), the part off its |0>
    slice has norm at most STATE_TOL."""
    layout = state.layout
    ds, dt = layout.dim(source), layout.dim(target)
    if dt < ds:
        raise DimensionMismatch(
            f"target {target!r} (dim {dt}) smaller than source {source!r} "
            f"(dim {ds})"
        )
    before = layout.subdim(layout.labels[:layout.index(target)])
    view = state.amplitudes.reshape(before, dt, -1)
    if np.linalg.norm(view[:, 1:, :]) > STATE_TOL:
        raise ApparatusNotReady(f"{what} {target!r} is not in its ready state")


def _copy_record(state: PureState, source: str, target: str,
                 what: str) -> PureState:
    """Controlled shift of ``source`` onto a large-enough, ready ``target``."""
    _check_target(state, source, target, what)
    return controlled_shift(state, source, target)


def premeasure(state: PureState, system: str, apparatus: str) -> PureState:
    """Controlled shift |s_k>|A_0> -> |s_k>|A_k> (pre-measurement)."""
    return _copy_record(state, system, apparatus, "apparatus")


def entangle_environment(state: PureState, pointer: str,
                         environment: str) -> PureState:
    """Controlled shift from the pointer onto a fresh environment."""
    return _copy_record(state, pointer, environment, "environment")


def record_states(n_branches: int, env_dim: int, overlap: float) -> np.ndarray:
    """Record vectors e_k (rows) with adjacent inner product ``overlap``."""
    if not 0.0 <= overlap <= 1.0:
        raise BadOverlap(f"overlap {overlap} outside [0, 1]")
    if env_dim < n_branches:
        raise DimensionMismatch(
            f"environment dimension {env_dim} < {n_branches} branches"
        )
    recs = np.zeros((n_branches, env_dim))
    recs[0, 0] = 1.0
    s = np.sqrt(max(0.0, 1.0 - overlap ** 2))
    for k in range(1, n_branches):
        recs[k] = overlap * recs[k - 1]
        recs[k, k] += s
    return recs


def _preparation_unitary(vec: np.ndarray) -> np.ndarray:
    """Real Householder reflection mapping |0> to the given real vector."""
    d = vec.size
    e0 = np.zeros(d)
    e0[0] = 1.0
    v = e0 - vec
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(d)
    v = v / nv
    return np.eye(d) - 2.0 * np.outer(v, v)


def broadcast_environment(state: PureState, pointer: str, environments,
                          overlap: float = 0.0) -> PureState:
    """Imprint the pointer onto each environment subsystem.

    With overlap 0 each environment holds a perfect orthonormal record
    (plain controlled shift); otherwise records at the given adjacent
    overlap are prepared conditionally on the pointer value.
    """
    if not 0.0 <= overlap <= 1.0:
        raise BadOverlap(f"overlap {overlap} outside [0, 1]")
    environments = list(environments)
    out = state
    dp = state.layout.dim(pointer)
    for env in environments:
        if overlap == 0.0:
            out = _copy_record(out, pointer, env, "environment")
        else:
            _check_target(out, pointer, env, "environment")
            de = out.layout.dim(env)
            recs = record_states(dp, de, overlap)
            blocks = [_preparation_unitary(recs[k]) for k in range(dp)]
            u = np.zeros((dp * de, dp * de), dtype=complex)
            for k in range(dp):
                u[k * de:(k + 1) * de, k * de:(k + 1) * de] = blocks[k]
            out = apply_unitary(out, SubsystemUnitary((pointer, env), u))
    return out


def cascade_environment(state: PureState, immediate, distant) -> PureState:
    """Pairwise local controlled shifts from immediate onto distant
    environment subsystems."""
    immediate, distant = list(immediate), list(distant)
    if len(immediate) != len(distant):
        raise LengthMismatch(
            f"{len(immediate)} immediate vs {len(distant)} distant"
        )
    out = state
    for src, dst in zip(immediate, distant):
        out = _copy_record(out, src, dst, "distant environment")
    return out


def observer_record(state: PureState, system: str, memory: str) -> PureState:
    """Copy the system's pointer index onto the observer's memory."""
    return _copy_record(state, system, memory, "memory")


def conditional_probability(state: PureState, memory: str,
                            system: str) -> ObserverOutcomeTable:
    """Prior over pointer outcomes and p(s_l | mu_k) per memory outcome."""
    ds = state.layout.dim(system)
    dm = state.layout.dim(memory)
    prior = np.real(np.diag(partial_trace(state, [system]).matrix)).copy()
    basis = np.eye(dm)
    conditional = np.zeros((dm, ds))
    defined = np.zeros(dm, dtype=bool)
    for k, (coeff, partner) in enumerate(
        relative_states(state, [memory], basis)
    ):
        p = abs(coeff) ** 2
        if p < KERNEL_TOL or partner is None:
            conditional[k] = prior
            continue
        rho = partial_trace(partner, [system]).matrix
        row = np.real(np.diag(rho)).copy()
        row = np.clip(row, 0.0, None)
        conditional[k] = row / row.sum()
        defined[k] = True
    return ObserverOutcomeTable(prior, conditional, defined)


def build_branch_state(spec: BranchSpec, apparatus: str | None = None,
                       environments=()) -> PureState:
    """System branch state, optionally pre-measured by an apparatus and
    broadcast into environment subsystems."""
    d = spec.pointer_dimension
    out = single_state(spec.system_label, spec.amplitudes)
    if apparatus is not None:
        out = attach_ready(out, apparatus, d)
        out = premeasure(out, spec.system_label, apparatus)
    pointer = apparatus if apparatus is not None else spec.system_label
    environments = list(environments)
    for env in environments:
        out = attach_ready(out, env, d)
    if environments:
        out = broadcast_environment(out, pointer, environments,
                                    spec.record_overlap)
    return out
