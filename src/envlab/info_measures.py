"""Entropies, mutual information, redundancy, and basis-conditioned
(locally accessible) information of a system and its fragments.

All entropies are von Neumann, base-2 logarithm, in bits.  Eigenvalues
at or below ``KERNEL_TOL`` are dropped when evaluating x*log2(x).
Mutual information, redundancy and basis-conditioned information take
a ``BranchState``, whose reduced states come from its record kets and
their Gram matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutMismatch, OverlappingSplit, UndefinedRatio
from .tensor_core import (
    KERNEL_TOL,
    BranchState,
    DensityOperator,
    _conditioned_entropy,
    _entropy_bits,
    _label_tuple,
    _reduction,
)


@dataclass(frozen=True)
class RedundancyReport:
    """Per-fragment mutual informations, H(S), and their sum over H(S)."""

    per_fragment_mi: tuple[float, ...]
    system_entropy: float
    ratio: float


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum p log2 p over the eigenvalues of rho, in bits."""
    return _entropy_bits(rho.eigenvalues())


def _entropy(state: BranchState, labels) -> float:
    """Entropy of the reduced state on ``labels``, in bits, kept next to
    the spectrum it sums over; each measure takes H(S) first, so this is
    where a state of another type is rejected."""
    if not isinstance(state, BranchState):
        raise TypeError(f"not a BranchState: {type(state).__name__}")
    return _reduction(state, labels)[1]


def _disjoint(system, fragments) -> tuple[tuple, list[tuple]]:
    """``system`` and each fragment as label tuples, a repeated label kept
    once where first seen; no label may appear in two of them."""
    system = tuple(dict.fromkeys(_label_tuple(system)))
    frag_sets = [tuple(dict.fromkeys(_label_tuple(f))) for f in fragments]
    claimed: set[str] = set(system)
    for f in frag_sets:
        if claimed & set(f):
            raise OverlappingSplit(f"fragment {f} overlaps earlier labels")
        claimed |= set(f)
    return system, frag_sets


def mutual_information(state: BranchState, system, fragment) -> float:
    """I(S:F) = H(S) + H(F) - H(S,F) in bits, clamped to >= 0."""
    system, (fragment,) = _disjoint(system, [fragment])
    return _mutual_information(state, system, fragment,
                               _entropy(state, system))


def _mutual_information(state: BranchState, system: tuple,
                        fragment: tuple, hs: float) -> float:
    """I(S:F) given H(S) = ``hs``, clamped to >= 0."""
    hf = _entropy(state, fragment)
    hsf = _entropy(state, system + fragment)
    return max(0.0, hs + hf - hsf)


def redundancy_report(state: BranchState, system,
                      fragments) -> RedundancyReport:
    """Each fragment's MI, H(S), and the redundancy ratio I_total / H(S)."""
    system, frag_sets = _disjoint(system, fragments)
    hs = _entropy(state, system)
    if hs <= KERNEL_TOL:
        raise UndefinedRatio("system entropy is zero; ratio undefined")
    mis = tuple(_mutual_information(state, system, f, hs) for f in frag_sets)
    return RedundancyReport(mis, hs, float(sum(mis)) / hs)


def basis_conditioned_mutual_information(
    state: BranchState, system, fragment, fragment_basis
) -> float:
    """H(S) minus the average post-measurement entropy of S.

    ``fragment``, its labels in layout order, is projected onto each
    vector of ``fragment_basis``; the conditional state of ``system`` is
    the remainder traced down to its labels, ``branch_outcomes``, so the
    system must hold the pointer label.  Outcomes with probability below
    ``KERNEL_TOL`` are skipped.  The state keeps the average it computes.
    """
    system, (fragment,) = _disjoint(system, [fragment])
    hs = _entropy(state, system)
    avg = _conditioned_entropy(state, system, fragment, fragment_basis)
    return max(0.0, hs - avg)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """0.5 * sum |eig(a - b)|, for two operators on one layout."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"{a.layout.labels} vs {b.layout.labels}")
    diff = a.matrix - b.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
