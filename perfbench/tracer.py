"""Span tracer that wraps envlab's public functions from outside.

Each wrapped call records a span (name, start, end, parent span, op id)
in memory; ``write`` saves them when the run ends.  Self time is a span's
duration minus the durations of its direct children.  A few wrappers also
count the work passing through them (amplitudes built, eigenproblem sizes,
denominator candidates, repeated reductions).

envlab modules bind callees at import (``from .tensor_core import
partial_trace``), so a wrapper replaces every envlab module's binding of
the original function object; otherwise kernel time would be charged to
the caller.
"""
from __future__ import annotations

import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "cli": ("main", "config_from_args", "run_scenario", "render_csv",
            "render_json", "emit_report"),
    "measurement_models": ("build_branch_state", "broadcast_environment",
                           "cascade_environment"),
    "tensor_core": ("tensor_product", "apply_unitary", "controlled_shift",
                    "partial_trace", "schmidt_decompose", "relative_states",
                    "global_phase_distance", "DensityOperator"),
    "info_measures": ("von_neumann_entropy", "mutual_information",
                      "redundancy_report",
                      "basis_conditioned_mutual_information",
                      "trace_distance"),
    "envariance": ("is_envariant", "envariant_swap", "fine_grain",
                   "find_commensurate_denominator", "born_probabilities",
                   "equal_amplitude_probabilities", "schmidt_probabilities",
                   "rational_bounds"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects spans and counters while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.spans = []          # (name, start, end, parent index, op id)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []         # [span index, child time] per open span
        self._seen = {}          # (kind, id(obj), labels) -> weakref, per op

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen.clear()

    # -- wrapping ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in TRACED across all modules of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for name in names:
                full = f"{mod_name}.{name}"
                orig = getattr(mod, name)
                if isinstance(orig, type):     # trace the constructor
                    orig.__init__ = self._wrap(full, orig.__init__)
                    continue
                wrapped = self._wrap(full, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        short = name.rsplit(".", 1)[1]
        count = getattr(self, f"_count_{short}", None)
        failed = getattr(self, f"_failed_{short}", None)
        spans, stack, self_s = self.spans, self._stack, self.self_s

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failed is not None:
                    failed(*args, **kwargs)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.op)
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _repeat(self, kind, obj, labels) -> None:
        key = (kind, id(obj), frozenset([labels] if isinstance(labels, str)
                                        else labels))
        ref = self._seen.get(key)
        if ref is not None and ref() is obj:
            self.counts[f"{kind}.repeats"] += 1
        else:
            self._seen[key] = weakref.ref(obj)

    def _count_tensor_product(self, result, *args, **kwargs):
        self.counts["tensor_core.amplitudes_out"] += result.amplitudes.size

    _count_apply_unitary = _count_tensor_product
    _count_controlled_shift = _count_tensor_product

    def _count_partial_trace(self, result, state, keep):
        self._repeat("tensor_core.partial_trace", state, keep)
        if len(result.layout.labels) == len(state.layout.labels):
            self.counts["tensor_core.partial_trace.full_keep_calls"] += 1

    def _count_schmidt_decompose(self, result, state, left):
        self._repeat("tensor_core.schmidt_decompose", state, left)

    def _count_von_neumann_entropy(self, result, rho):
        self.counts["info_measures.eig_d3_sum"] += rho.matrix.shape[0] ** 3

    # the search scans M = n, n+1, ... and stops at the first fit, or
    # raises after m_cap
    def _count_find_commensurate_denominator(self, result, probs, tolerance,
                                             m_cap=10 ** 4):
        self.counts["envariance.find_commensurate_denominator.found"] += 1
        self.counts["envariance.find_commensurate_denominator.candidates"] \
            += result[0] - len(probs) + 1

    def _failed_find_commensurate_denominator(self, probs, tolerance,
                                              m_cap=10 ** 4):
        self.counts["envariance.find_commensurate_denominator.candidates"] \
            += max(0, m_cap - len(probs) + 1)

    def _count_fine_grain(self, result, *args, **kwargs):
        self.counts["envariance.fine_grain.amplitudes_out"] += \
            result.amplitudes.size

    def _count_is_envariant(self, result, *args, **kwargs):
        self.counts["envariance.is_envariant.true"] += int(result.envariant)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric name -> value."""
        calls, busy = Counter(), defaultdict(float)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
        out = {}
        for mod_name, names in TRACED.items():
            for name in names:
                full = f"{mod_name}.{name}"
                out[f"{full}.calls"] = calls[full]
                out[f"{full}.busy_s"] = busy[full]
                out[f"{full}.self_s"] = self.self_s[full]
        c = self.counts
        search = "envariance.find_commensurate_denominator"
        out.update({
            "tensor_core.amplitudes_out": c["tensor_core.amplitudes_out"],
            "tensor_core.bytes_out": 16 * c["tensor_core.amplitudes_out"],
            "tensor_core.partial_trace.full_keep_calls":
                c["tensor_core.partial_trace.full_keep_calls"],
            "tensor_core.partial_trace.repeat_ratio": _ratio(
                c["tensor_core.partial_trace.repeats"],
                calls["tensor_core.partial_trace"]),
            "tensor_core.schmidt_decompose.repeat_ratio": _ratio(
                c["tensor_core.schmidt_decompose.repeats"],
                calls["tensor_core.schmidt_decompose"]),
            "info_measures.eig_d3_sum": c["info_measures.eig_d3_sum"],
            f"{search}.candidates": c[f"{search}.candidates"],
            f"{search}.useful_ratio": _ratio(c[f"{search}.found"],
                                            c[f"{search}.candidates"]),
            "envariance.fine_grain.amplitudes_out":
                c["envariance.fine_grain.amplitudes_out"],
            "envariance.is_envariant.true_ratio": _ratio(
                c["envariance.is_envariant.true"],
                calls["envariance.is_envariant"]),
        })
        return out

    def write(self, path) -> None:
        """Save the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
