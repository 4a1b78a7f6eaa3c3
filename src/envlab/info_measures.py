"""Entropies, mutual information, redundancy, and basis-conditioned
(locally accessible) information over system/fragment splits.

All entropies are von Neumann, base-2 logarithm, in bits.  Eigenvalues
at or below ``KERNEL_TOL`` are dropped when evaluating x*log2(x).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverlappingSplit, UndefinedRatio
from .tensor_core import (
    KERNEL_TOL,
    DensityOperator,
    PureState,
    partial_trace,
    relative_states,
)


@dataclass(frozen=True)
class FragmentSpec:
    """A (system labels, fragment labels) split; the two sets are disjoint."""

    system_labels: tuple[str, ...]
    fragment_labels: tuple[str, ...]

    def __init__(self, system_labels, fragment_labels):
        sys_ = tuple(system_labels)
        frag = tuple(fragment_labels)
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
    eigs = rho.eigenvalues()
    p = eigs[eigs > KERNEL_TOL]
    h = float(-(p * np.log2(p)).sum())
    return max(0.0, h)


def mutual_information(state: PureState, split: FragmentSpec) -> float:
    """I(S:F) = H(S) + H(F) - H(S,F) in bits, clamped to >= 0."""
    state.layout.check_labels(split.system_labels)
    state.layout.check_labels(split.fragment_labels)
    hs = von_neumann_entropy(partial_trace(state, split.system_labels))
    return _mutual_information(state, split.system_labels,
                               split.fragment_labels, hs)


def _mutual_information(state: PureState, system: tuple, fragment: tuple,
                        hs: float) -> float:
    """I(S:F) given H(S) = ``hs``, clamped to >= 0."""
    hf = von_neumann_entropy(partial_trace(state, fragment))
    hsf = von_neumann_entropy(partial_trace(state, system + fragment))
    return max(0.0, hs + hf - hsf)


def redundancy_report(state: PureState, system, fragments) -> RedundancyReport:
    """Summed fragment MI and the redundancy ratio I_total / H(S)."""
    system = tuple(system) if not isinstance(system, str) else (system,)
    frag_sets = [tuple(f) if not isinstance(f, str) else (f,)
                 for f in fragments]
    claimed: set[str] = set(system)
    for f in frag_sets:
        if claimed & set(f):
            raise OverlappingSplit(f"fragment {f} overlaps earlier labels")
        claimed |= set(f)
    hs = von_neumann_entropy(partial_trace(state, system))
    if hs <= KERNEL_TOL:
        raise UndefinedRatio("system entropy is zero; ratio undefined")
    mis = tuple(_mutual_information(state, system, f, hs) for f in frag_sets)
    total = float(sum(mis))
    return RedundancyReport(mis, total, hs, total / hs)


def basis_conditioned_mutual_information(
    state: PureState, split: FragmentSpec, fragment_basis
) -> float:
    """H(S) minus the average post-measurement entropy of S.

    The fragment is projected onto each basis vector; the conditional
    state of the system is the renormalized remainder traced down to the
    system labels.  Outcomes with probability below ``KERNEL_TOL`` are
    skipped.
    """
    state.layout.check_labels(split.system_labels)
    state.layout.check_labels(split.fragment_labels)
    hs = von_neumann_entropy(partial_trace(state, split.system_labels))
    avg = 0.0
    for coeff, partner in relative_states(state, split.fragment_labels,
                                          fragment_basis):
        p = abs(coeff) ** 2
        if p < KERNEL_TOL or partner is None:
            continue
        rho_cond = partial_trace(partner, split.system_labels)
        avg += p * von_neumann_entropy(rho_cond)
    return max(0.0, hs - avg)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """0.5 * sum |eig(a - b)|."""
    diff = a.matrix - b.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
