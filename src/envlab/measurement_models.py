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
    STATE_TOL,
    BranchState,
    PureState,
    SpaceLayout,
    _label_tuple,
    _grouped,
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
    if not 0.0 <= overlap <= 1.0:
        raise BadOverlap(f"overlap {overlap} outside [0, 1]")
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


def build_branch_state(spec: BranchSpec, apparatus: str | None = None,
                       environments=()) -> PureState:
    """System branch state, optionally pre-measured by an apparatus and
    broadcast into environment subsystems: ``branch_records``, dense."""
    return branch_records(spec, apparatus, environments).dense()


def branch_records(spec: BranchSpec, apparatus: str | None = None,
                   environments=()) -> BranchState:
    """The branch state: the ``spec``'s amplitudes, pre-measured by an
    ``apparatus`` and broadcast into ``environments``.

    The system and the apparatus hold the pointer value itself (kets =
    identity); each environment holds the ``record_states`` kets at the
    spec's overlap.  The layout is the nominal space, so the dimension
    guard applies to its full dimension.
    """
    d = spec.pointer_dimension
    environments = _label_tuple(environments)
    perfect = (spec.system_label,) + ((apparatus,) if apparatus is not None
                                      else ())
    layout = SpaceLayout([(l, d) for l in perfect + environments])
    recs = record_states(d, d, spec.record_overlap)
    kets = [np.eye(d)] * len(perfect) + [recs] * len(environments)
    return BranchState(layout, spec.amplitudes, kets)
