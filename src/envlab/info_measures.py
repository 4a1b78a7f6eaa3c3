"""Entropies, mutual information, redundancy, and basis-conditioned
(locally accessible) information over system/fragment splits.

All entropies are von Neumann, base-2 logarithm, in bits.  Eigenvalues
at or below ``KERNEL_TOL`` are dropped when evaluating x*log2(x).
Mutual information, redundancy and basis-conditioned information accept
a dense ``PureState`` or a ``BranchState``, whose reduced states come
from its record kets and their Gram matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutMismatch, OverlappingSplit, UndefinedRatio
from .tensor_core import (
    KERNEL_TOL,
    BranchState,
    DensityOperator,
    PureState,
    _average_entropy,
    _basis_rows,
    _conditioned_entropy,
    _entropy_bits,
    _grouped,
    _label_tuple,
    _reduction,
    partial_trace,
)


@dataclass(frozen=True)
class FragmentSpec:
    """A (system labels, fragment labels) split; the two sets are disjoint."""

    system_labels: tuple[str, ...]
    fragment_labels: tuple[str, ...]

    def __init__(self, system_labels, fragment_labels):
        sys_ = _label_tuple(system_labels)
        frag = _label_tuple(fragment_labels)
        if set(sys_) & set(frag):
            raise OverlappingSplit(
                f"system {sys_} and fragment {frag} overlap"
            )
        object.__setattr__(self, "system_labels", sys_)
        object.__setattr__(self, "fragment_labels", frag)


@dataclass(frozen=True)
class RedundancyReport:
    """Per-fragment mutual informations, their sum, and the ratio."""

    per_fragment_mi: tuple[float, ...]
    mi_sum: float
    system_entropy: float
    ratio: float

    def rows(self):
        """(fragment_index, mi_bits, cumulative_bits, ratio) per fragment."""
        cum = 0.0
        out = []
        for i, mi in enumerate(self.per_fragment_mi):
            cum += mi
            out.append((i, mi, cum, self.ratio))
        return out


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum p log2 p over the eigenvalues of rho, in bits."""
    return _entropy_bits(rho.eigenvalues())


def _entropy(state: PureState | BranchState, labels) -> float:
    """Entropy of the reduced state on ``labels``, in bits; a
    ``BranchState`` keeps it next to the spectrum it sums over."""
    if isinstance(state, BranchState):
        return _reduction(state, labels)[1]
    return von_neumann_entropy(partial_trace(state, labels))


def mutual_information(state: PureState | BranchState,
                       split: FragmentSpec) -> float:
    """I(S:F) = H(S) + H(F) - H(S,F) in bits, clamped to >= 0."""
    hs = _entropy(state, split.system_labels)
    return _mutual_information(state, split.system_labels,
                               split.fragment_labels, hs)


def _mutual_information(state: PureState | BranchState, system: tuple,
                        fragment: tuple, hs: float) -> float:
    """I(S:F) given H(S) = ``hs``, clamped to >= 0."""
    hf = _entropy(state, fragment)
    hsf = _entropy(state, system + fragment)
    return max(0.0, hs + hf - hsf)


def redundancy_report(state: PureState | BranchState, system,
                      fragments) -> RedundancyReport:
    """Summed fragment MI and the redundancy ratio I_total / H(S)."""
    system = _label_tuple(system)
    frag_sets = [_label_tuple(f) for f in fragments]
    claimed: set[str] = set(system)
    for f in frag_sets:
        if claimed & set(f):
            raise OverlappingSplit(f"fragment {f} overlaps earlier labels")
        claimed |= set(f)
    hs = _entropy(state, system)
    if hs <= KERNEL_TOL:
        raise UndefinedRatio("system entropy is zero; ratio undefined")
    mis = tuple(_mutual_information(state, system, f, hs) for f in frag_sets)
    total = float(sum(mis))
    return RedundancyReport(mis, total, hs, total / hs)


def basis_conditioned_mutual_information(
    state: PureState | BranchState, split: FragmentSpec, fragment_basis
) -> float:
    """H(S) minus the average post-measurement entropy of S.

    The fragment, its labels in layout order, is projected onto each
    basis vector; the conditional state of the system is the remainder
    traced down to the system labels (for a ``BranchState``,
    ``branch_outcomes``, so the system must hold the pointer label).
    Outcomes with probability below ``KERNEL_TOL`` are skipped.  A
    ``BranchState`` keeps the average it computes.
    """
    system, fragment = split.system_labels, split.fragment_labels
    hs = _entropy(state, system)
    if isinstance(state, BranchState):
        avg = _conditioned_entropy(state, system, fragment, fragment_basis)
    else:
        arr, _ = _grouped(state, system, state.layout.ordered(fragment))
        rows = _basis_rows(fragment_basis, arr.shape[1]).conj()
        kept = np.einsum("bf,sfr->bsr", rows, arr)
        avg = _average_entropy(kept @ kept.conj().transpose(0, 2, 1))
    return max(0.0, hs - avg)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """0.5 * sum |eig(a - b)|, for two operators on one layout."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"{a.layout.labels} vs {b.layout.labels}")
    diff = a.matrix - b.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
