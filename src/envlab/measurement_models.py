"""Circuit-level measurement chain: N-fold broadcast and
distant-environment cascade through one record writer, and the branch
state they build, kept as its records.

Conventions: "ready" states are the index-0 basis states, and every
record is written by one map, |k>|0> -> |k>|e_k>: a perfect record
(the controlled shift on a ready target) has e_k = |k>, and records at
overlap c are built by the chain  e_0 = |0>,  e_k = c*e_{k-1} +
sqrt(1-c^2)|k>,  so adjacent records have real inner product c and c = 0
recovers orthonormal basis records.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    ApparatusNotReady,
    BadOverlap,
    DimensionMismatch,
    LengthMismatch,
)
from .tensor_core import (
    STATE_TOL,
    BranchState,
    PureState,
    SpaceLayout,
    _label_tuple,
    _grouped,
)


def _write_record(state: PureState, source: str, target: str, what: str,
                  overlap: float = 0.0) -> PureState:
    """Branch k of ``source`` writes row k of ``record_states`` into a
    large-enough, ready ``target``: |k>|0> -> |k>|e_k>.

    At overlap 0 the rows are the basis kets, so this is the controlled
    shift |k>|0> -> |k>|k>.  Ready means that, with the amplitudes viewed
    as (source, target, rest), the part off the target's |0> slice has
    norm at most STATE_TOL.
    """
    view, restore = _grouped(state, source, target)
    recs = record_states(*view.shape[:2], overlap)   # checks that dt >= ds
    if np.linalg.norm(view[:, 1:, :]) > STATE_TOL:
        raise ApparatusNotReady(f"{what} {target!r} is not in its ready state")
    return restore(recs[:, :, np.newaxis] * view[:, :1, :])


def record_states(n_branches: int, env_dim: int, overlap: float) -> np.ndarray:
    """Record vectors e_k (rows) with adjacent inner product ``overlap``."""
    if not 0.0 <= overlap <= 1.0:
        raise BadOverlap(f"overlap {overlap} outside [0, 1]")
    if env_dim < n_branches:
        raise DimensionMismatch(
            f"record dimension {env_dim} < {n_branches} branches")
    recs = np.zeros((n_branches, env_dim))
    recs[0, 0] = 1.0
    s = np.sqrt(max(0.0, 1.0 - overlap ** 2))
    for k in range(1, n_branches):
        recs[k] = overlap * recs[k - 1]
        recs[k, k] += s
    return recs


def broadcast_environment(state: PureState, pointer: str, environments,
                          overlap: float = 0.0) -> PureState:
    """Imprint the pointer onto each environment subsystem: branch k
    writes the record e_k at the given adjacent overlap (0 = perfect
    orthonormal records, the plain controlled shift)."""
    out = state
    for env in _label_tuple(environments):
        out = _write_record(out, pointer, env, "environment", overlap)
    return out


def cascade_environment(state: PureState, immediate, distant) -> PureState:
    """Pairwise local controlled shifts from immediate onto distant
    environment subsystems."""
    immediate, distant = _label_tuple(immediate), _label_tuple(distant)
    if len(immediate) != len(distant):
        raise LengthMismatch(
            f"{len(immediate)} immediate vs {len(distant)} distant"
        )
    out = state
    for src, dst in zip(immediate, distant):
        out = _write_record(out, src, dst, "distant environment")
    return out


def build_branch_state(system: str, amplitudes, apparatus: str | None = None,
                       environments=(), overlap: float = 0.0) -> PureState:
    """System branch state, optionally pre-measured by an apparatus and
    broadcast into environment subsystems: ``branch_records``, dense."""
    return branch_records(system, amplitudes, apparatus, environments,
                          overlap).dense()


def branch_records(system: str, amplitudes, apparatus: str | None = None,
                   environments=(), overlap: float = 0.0) -> BranchState:
    """The branch state of the ``amplitudes`` over ``system``'s pointer
    basis (one per basis ket, at least two), pre-measured by an
    ``apparatus`` and broadcast into ``environments``.

    The system and the apparatus hold the pointer value itself (kets =
    identity); each environment holds the ``record_states`` kets at
    ``overlap`` (0 = perfect records).  The layout is the nominal space,
    so the dimension guard applies to its full dimension.
    """
    d = len(amplitudes)
    if d < 2:
        raise DimensionMismatch("pointer dimension must be >= 2")
    environments = _label_tuple(environments)
    perfect = (system,) + ((apparatus,) if apparatus is not None else ())
    layout = SpaceLayout([(l, d) for l in perfect + environments])
    recs = record_states(d, d, overlap)   # d x d, once the guard passed
    kets = [np.eye(d)] * len(perfect) + [recs] * len(environments)
    return BranchState(layout, amplitudes, kets)
