"""Output checker: verifies each envlab result against the paper's
identities and classifies it as ``ok``, ``known_defect`` or ``failed``.

Tolerances are 1e-10 unless noted.  envlab prints numbers with 9
significant digits, so a printed value x is compared with the exact value
y as |x - y| <= 1e-10 + 5e-9 |y|; counting probabilities are compared
exactly, as the printed text of m_k/M.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from workloads import BOUNDS_M, Op

TOL = 1e-10
PRINT_REL = 5e-9       # half a unit in the 9th significant digit


class Mismatch(Exception):
    """An output that breaks an identity or the table layout."""


def parse_tables(text: str, fmt: str) -> dict:
    """{table name: (columns, rows of strings)} from csv or json output."""
    if fmt == "json":
        doc = json.loads(text)
        return {name: (t["columns"], t["rows"])
                for name, t in doc["tables"].items()}
    tables, name = {}, None
    for row in csv.reader(io.StringIO(text)):
        if len(row) == 2 and row[0] == "table":
            name = row[1]
            tables[name] = (None, [])
        elif tables[name][0] is None:
            tables[name] = (row, [])
        else:
            tables[name][1].append(row)
    return tables


def canonical(text: str, fmt: str) -> bytes:
    """Output bytes with the per-run ``duration_s`` field removed."""
    if fmt == "json":
        doc = json.loads(text)
        doc.pop("duration_s", None)
        return json.dumps(doc, sort_keys=True).encode()
    return text.encode()


def _close(printed: str, exact: float, what: str) -> float:
    x = float(printed)
    if not abs(x - exact) <= TOL + PRINT_REL * abs(exact):
        raise Mismatch(f"{what}: printed {printed}, expected {exact!r}")
    return x


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _table(tables: dict, name: str, columns: list[str]) -> list[list[str]]:
    _require(name in tables, f"table {name!r} missing")
    cols, rows = tables[name]
    _require(cols == columns, f"table {name!r} has columns {cols}")
    return rows


def entropy_bits(probs) -> float:
    return -sum(float(p) * math.log2(float(p)) for p in probs if p > 0)


def _index_column(rows, n: int, what: str) -> None:
    _require([r[0] for r in rows] == [str(k) for k in range(n)],
             f"{what}: rows {[r[0] for r in rows]}, expected 0..{n - 1}")


def _check_redundancy(op: Op, tables: dict) -> None:
    rows = _table(tables, "redundancy",
                  ["fragment_index", "mi_bits", "cumulative_bits", "ratio"])
    _index_column(rows, op.env_count, "redundancy")
    hs = entropy_bits(op.probs)
    for _, mi, _, ratio in rows:
        if op.overlap == 0.0:
            _close(mi, hs, "fragment MI vs H(S)")
            _close(ratio, op.env_count, "redundancy ratio vs N")
        else:
            _require(-TOL <= float(mi) <= hs + TOL + PRINT_REL * hs,
                     f"fragment MI {mi} outside [0, H(S)={hs}]")


def _check_einselect(op: Op, tables: dict) -> None:
    rows = _table(tables, "einselect", ["branch_index", "population",
                                        "offdiag_max", "mi_sae_bits"])
    _index_column(rows, len(op.amps), "einselect")
    for (_, pop, offdiag, _), p in zip(rows, op.probs):
        _close(pop, p, "population vs |a_k|^2")
        if op.overlap == 0.0:
            _require(float(offdiag) <= TOL, f"offdiag_max {offdiag} > 1e-10")


def _check_cascade(op: Op, tables: dict) -> None:
    rows = _table(tables, "cascade", ["fragment_index",
                                      "pointer_basis_mi_bits",
                                      "conjugate_basis_mi_bits"])
    _index_column(rows, op.env_count, "cascade")
    hs = entropy_bits(op.probs)
    for _, mi_ptr, _ in rows:
        _close(mi_ptr, hs, "pointer-basis MI vs H(p)")


def _check_envariance(op: Op, tables: dict) -> None:
    rows = _table(tables, "envariance", ["test", "envariant", "residual",
                                         "witness_trace_distance"])
    names = [r[0] for r in rows]
    _require(names == ["schmidt_phase", "system_swap_01",
                       "random_system_unitary"], f"envariance rows {names}")
    equal = len({abs(a) for a in op.amps}) == 1
    for name, flag, residual, witness in rows:
        _require(flag in ("0", "1"), f"{name}: verdict {flag}")
        if flag == "1":
            _require(float(residual) < TOL, f"{name}: residual {residual}")
        else:
            _require(float(witness) > TOL, f"{name}: witness {witness}")
        expect = equal or name == "schmidt_phase"
        _require((flag == "1") == expect,
                 f"{name}: envariant={flag} with equal amplitudes={equal}")


def _check_born_table(probs, tables: dict) -> None:
    rows = _table(tables, "born", ["outcome_index", "p_counting",
                                   "p_amplitude_squared", "abs_gap"])
    _index_column(rows, len(probs), "born")
    for (_, counted, squared, gap), p in zip(rows, probs):
        if isinstance(p, Fraction):
            # denominators up to 512 put distinct fractions with M <= m_cap
            # at least 2e-7 apart, so the counted m_k/M is p itself
            want = format(float(p), ".9g")
            _require(counted == want, f"p_counting {counted} != {want}")
        else:
            _close(counted, p, "p_counting vs |a_k|^2")
        _close(squared, float(p), "p_amplitude_squared vs |a_k|^2")
        _require(float(gap) <= TOL, f"abs_gap {gap} > 1e-10")


def _check_bounds(probs, tables: dict, bounds_m) -> None:
    rows = _table(tables, "bounds", ["m_used", "outcome_index", "lower",
                                     "upper", "width"])
    n = len(probs)
    _require([int(r[0]) for r in rows] == [m for m in bounds_m
                                           for _ in range(n)],
             f"bounds rows {[r[0] for r in rows]} for M = {bounds_m}")
    for i, (m, k, lower, upper, width) in enumerate(rows):
        p, m = float(probs[i % n]), int(m)
        _require(k == str(i % n), f"bounds outcome {k} at row {i}")
        lo, hi = float(lower), float(upper)
        _require(lo - TOL <= p <= hi + TOL, f"{p} outside [{lower}, {upper}]")
        _require(float(width) <= 2 / m + TOL, f"width {width} > 2/{m}")


def _check_born(op: Op, tables: dict) -> None:
    """A counting table is due when the spectrum is counts/M, bounds are
    due when there is no counting table; each table present is checked."""
    if "born" in tables or all(isinstance(p, Fraction) for p in op.probs):
        _check_born_table(op.probs, tables)
    if "bounds" in tables or "born" not in tables:
        _check_bounds(op.probs, tables, op.bounds_m or BOUNDS_M)


_CHECKS = {"redundancy": _check_redundancy, "einselect": _check_einselect,
           "cascade": _check_cascade, "envariance": _check_envariance,
           "born": _check_born}


def _known_defect(op: Op, rc: int, text: str | None, err: str) -> bool:
    """True if the output shows ``op.defect`` exactly as documented."""
    if op.defect == "dim_guard":
        return rc == 3 and json.loads(err).get("error") == "dimension_guard"
    if op.defect == "zero_amplitude" and rc == 0:
        # the zero outcome is missing; the rest must still be right
        kept = tuple(p for p in op.probs if p > 0)
        try:
            _check_born(Op("born", op.amps, probs=kept,
                           bounds_m=op.bounds_m),
                        parse_tables(text, op.fmt))
        except (Mismatch, KeyError, ValueError, TypeError):
            return False
        return True
    return False


def classify(op: Op, rc: int, text: str | None, err: str) -> tuple[str, str]:
    """("ok" | "known_defect" | "failed", reason) for one operation."""
    reason = f"exit {rc}: {err.strip()[:200]}"
    if rc == 0:
        try:
            _CHECKS[op.kind](op, parse_tables(text, op.fmt))
            return "ok", ""
        except (Mismatch, KeyError, ValueError, TypeError, IndexError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
    if op.defect:
        try:
            if _known_defect(op, rc, text, err):
                return "known_defect", op.defect
        except ValueError:
            pass
    return "failed", reason


def self_test(run_op) -> list[str]:
    """Corrupt known-good outputs and require the checker to flag each.

    ``run_op(op)`` runs one operation and returns (rc, text, err).
    Returns the list of problems found; empty means the checker works.
    """
    third = Op("born", (math.sqrt(1 / 3), math.sqrt(2 / 3)),
               probs=(Fraction(1, 3), Fraction(2, 3)))
    perfect = Op("redundancy", (0.6, 0.8), 3, probs=(0.36, 0.64))
    corruptions = [
        (third, lambda t: t.replace("0.333333333", "0.333333334", 1)),
        (third, lambda t: t.rsplit("\n", 2)[0] + "\n"),
        (perfect, lambda t: t.replace("\n1,0.9", "\n1,0.8", 1)),
        (perfect, lambda t: t.replace(",3\n", ",2\n", 1)),
    ]
    problems = []
    for op, corrupt in corruptions:
        rc, text, err = run_op(op)
        status, why = classify(op, rc, text, err)
        if status != "ok":
            problems.append(f"good {op.kind} output rejected: {why}")
            continue
        bad = corrupt(text)
        if bad == text or classify(op, 0, bad, "")[0] == "ok":
            problems.append(f"corrupted {op.kind} output not flagged")
    return problems
