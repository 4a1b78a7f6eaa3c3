"""Batch scenario runner: einselection demos, redundancy sweeps, counting
probability studies, and envariance certificates with deterministic
structured output.

Exit codes: 0 success, 2 validation failure, 3 dimension guard, 4 I/O.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .envariance import (
    DEFAULT_M_CAP,
    born_probabilities,
    find_commensurate_denominator,
    is_envariant,
    rational_bounds,
    schmidt_phase_unitary,
    schmidt_probabilities,
    schmidt_swap_unitary,
)
from .info_measures import (
    FragmentSpec,
    basis_conditioned_mutual_information,
    mutual_information,
    redundancy_report,
)
from .measurement_models import (
    BranchSpec,
    build_branch_state,
    cascade_environment,
)
from .tensor_core import (
    KERNEL_TOL,
    SubsystemUnitary,
    attach_ready,
    dimension_guard,
    partial_trace,
    schmidt_decompose,
    schmidt_state,
)

SCENARIOS = ("einselect", "redundancy", "born", "envariance", "cascade")

EXIT_VALIDATION = 2
EXIT_DIM_GUARD = 3
EXIT_IO = 4


class ValidationFailure(Exception):
    """Config rejected before any state vector is allocated."""

    def __init__(self, messages):
        self.messages = dict(messages)
        super().__init__("; ".join(f"{k}: {v}" for k, v in self.messages.items()))


@dataclass
class ScenarioConfig:
    kind: str
    amplitudes: list[float]
    env_count: int = 8
    overlap: float = 0.0
    m_cap: int = DEFAULT_M_CAP
    tolerance: float = 1e-10
    bounds_m: list[int] = field(default_factory=list)
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        bad = {}
        if self.kind not in SCENARIOS:
            bad["kind"] = f"unknown scenario {self.kind!r}"
        if len(self.amplitudes) < 1:
            bad["amplitudes"] = "at least one amplitude required"
        elif not np.all(np.isfinite(self.amplitudes)):
            bad["amplitudes"] = "amplitudes must be finite"
        elif np.linalg.norm(self.amplitudes) < KERNEL_TOL:
            bad["amplitudes"] = "amplitude vector is zero"
        if self.env_count < 0:
            bad["env_count"] = "environment count must be >= 0"
        if not 0.0 <= self.overlap <= 1.0:
            bad["overlap"] = f"overlap {self.overlap} outside [0, 1]"
        if self.m_cap < 1:
            bad["m_cap"] = "denominator cap must be >= 1"
        if not np.isfinite(self.tolerance):
            bad["tolerance"] = "tolerance must be finite"
        elif self.tolerance <= 0:
            bad["tolerance"] = "tolerance must be positive"
        if any(m < 1 for m in self.bounds_m):
            bad["bounds_m"] = "bounding denominators must be >= 1"
        if self.format not in ("csv", "json"):
            bad["format"] = f"unknown format {self.format!r}"
        if self.kind in ("einselect", "redundancy", "cascade", "envariance") \
                and len(self.amplitudes) < 2:
            bad["amplitudes"] = "scenario needs at least two amplitudes"
        try:
            dimension_guard()
        except ValueError as exc:
            bad["ENVLAB_DIM_GUARD"] = str(exc)
        if bad:
            raise ValidationFailure(bad)

    def unit_amplitudes(self) -> np.ndarray:
        a = np.asarray(self.amplitudes, dtype=complex)
        return a / np.linalg.norm(a)


@dataclass
class RunResult:
    config: ScenarioConfig
    tables: dict            # name -> {"columns": [...], "rows": [[...]]}
    residuals: dict         # invariant name -> max observed residual
    duration_s: float


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".9g")
    return str(x)


# ---------------------------------------------------------------------------
# scenario pipelines

def _run_einselect(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    d = amps.size
    spec = BranchSpec("S", d, amps, cfg.overlap)
    state = build_branch_state(spec, apparatus="A", environments=["E"])
    rho_sa = partial_trace(state, ["S", "A"])
    mat = rho_sa.matrix
    offdiag = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    mi = mutual_information(state, FragmentSpec(("S", "A"), ("E",)))
    rows = [[k, float(abs(amps[k]) ** 2), offdiag, mi] for k in range(d)]
    tables = {"einselect": {
        "columns": ["branch_index", "population", "offdiag_max",
                    "mi_sae_bits"],
        "rows": rows,
    }}
    norm_gap = float(abs(np.linalg.norm(state.amplitudes) - 1.0))
    return tables, {"global_norm_gap": norm_gap}


def _run_redundancy(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    d = amps.size
    spec = BranchSpec("S", d, amps, cfg.overlap)
    envs = [f"E{i + 1}" for i in range(cfg.env_count)]
    state = build_branch_state(spec, apparatus="A", environments=envs)
    report = redundancy_report(state, ("S",), [(e,) for e in envs])
    rows = [[i, mi, cum, ratio] for i, mi, cum, ratio in report.rows()]
    tables = {"redundancy": {
        "columns": ["fragment_index", "mi_bits", "cumulative_bits", "ratio"],
        "rows": rows,
    }}
    residuals = {
        "mi_sum_gap": abs(report.mi_sum - sum(report.per_fragment_mi)),
        "system_entropy_bits": report.system_entropy,
    }
    return tables, residuals


def _run_born(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    probs = np.abs(amps) ** 2
    tables = {}
    residuals = {}
    try:
        m, _counts = find_commensurate_denominator(
            probs, cfg.tolerance, cfg.m_cap
        )
    except errors.UseBoundsInstead:
        m = None
    if m is not None:
        state = schmidt_state(amps, m)
        counted = born_probabilities(state, ("S",), cfg.tolerance, cfg.m_cap)
        squared = schmidt_probabilities(state, ("S",))
        rows = [[k, counted[k], squared[k], abs(counted[k] - squared[k])]
                for k in range(counted.size)]
        tables["born"] = {
            "columns": ["outcome_index", "p_counting",
                        "p_amplitude_squared", "abs_gap"],
            "rows": rows,
        }
        residuals["max_abs_gap"] = float(np.max(np.abs(counted - squared)))
    bounds_m = cfg.bounds_m or ([] if m is not None else [100, 1000, 10000])
    if bounds_m:
        # zero-amplitude outcomes have no Schmidt term; they count 0 of M
        support = np.flatnonzero(np.abs(amps) > KERNEL_TOL)
        state = schmidt_state(amps[support], support.size)
        rows = []
        for bm in bounds_m:
            bound = rational_bounds(state, ("S",), bm)
            lower, upper = np.zeros(amps.size), np.zeros(amps.size)
            lower[support], upper[support] = bound.lower, bound.upper
            rows += [[bm, k, lower[k], upper[k], upper[k] - lower[k]]
                     for k in range(amps.size)]
        tables["bounds"] = {
            "columns": ["m_used", "outcome_index", "lower", "upper", "width"],
            "rows": rows,
        }
        residuals["max_bound_width"] = max(r[4] for r in rows)
    return tables, residuals


def _run_envariance(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    state = schmidt_state(amps, amps.size)
    sd = schmidt_decompose(state, ("S",))
    rng = np.random.default_rng(20040971)
    rows = []
    phases = np.pi * (1.0 + np.arange(sd.rank)) / sd.rank
    tests = [("schmidt_phase", schmidt_phase_unitary(sd, phases))]
    if sd.rank >= 2:
        tests.append(("system_swap_01", schmidt_swap_unitary(sd, 0, 1)))
    gauss = rng.normal(size=(amps.size, amps.size)) \
        + 1j * rng.normal(size=(amps.size, amps.size))
    tests.append(("random_system_unitary",
                  SubsystemUnitary(("S",), np.linalg.qr(gauss)[0])))
    for name, u in tests:
        verdict = is_envariant(state, u, ("E",))
        rows.append([name, int(verdict.envariant), verdict.residual,
                     verdict.witness_trace_distance])
    tables = {"envariance": {
        "columns": ["test", "envariant", "residual",
                    "witness_trace_distance"],
        "rows": rows,
    }}
    residuals = {"max_true_residual": max(
        (r[2] for r in rows if r[1]), default=0.0)}
    return tables, residuals


def _run_cascade(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    d = amps.size
    n = cfg.env_count
    spec = BranchSpec("S", d, amps, 0.0)
    immediate = [f"E{i + 1}" for i in range(n)]
    distant = [f"F{i + 1}" for i in range(n)]
    state = build_branch_state(spec, apparatus=None, environments=immediate)
    for lab in distant:
        state = attach_ready(state, lab, d)
    state = cascade_environment(state, immediate, distant)
    pointer_basis = np.eye(d)
    conjugate_basis = np.array(
        [[np.exp(2j * np.pi * i * j / d) / np.sqrt(d) for j in range(d)]
         for i in range(d)]
    )
    rows = []
    for i, lab in enumerate(distant):
        split = FragmentSpec(("S",), (lab,))
        mi_ptr = basis_conditioned_mutual_information(
            state, split, pointer_basis)
        mi_conj = basis_conditioned_mutual_information(
            state, split, conjugate_basis)
        rows.append([i, mi_ptr, mi_conj])
    tables = {"cascade": {
        "columns": ["fragment_index", "pointer_basis_mi_bits",
                    "conjugate_basis_mi_bits"],
        "rows": rows,
    }}
    residuals = {"max_conjugate_mi": max((r[2] for r in rows), default=0.0)}
    return tables, residuals


_PIPELINES = {
    "einselect": _run_einselect,
    "redundancy": _run_redundancy,
    "born": _run_born,
    "envariance": _run_envariance,
    "cascade": _run_cascade,
}


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    cfg.validate()
    start = time.perf_counter()
    tables, residuals = _PIPELINES[cfg.kind](cfg)
    return RunResult(cfg, tables, residuals, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# output

def render_csv(result: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for name, table in result.tables.items():
        writer.writerow(["table", name])
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def render_json(result: RunResult) -> str:
    doc = {
        "scenario": {
            "kind": result.config.kind,
            "amplitudes": [float(a) for a in result.config.amplitudes],
            "env_count": result.config.env_count,
            "overlap": result.config.overlap,
            "m_cap": result.config.m_cap,
            "tolerance": result.config.tolerance,
        },
        "tables": {
            name: {
                "columns": t["columns"],
                "rows": [[_fmt(x) for x in row] for row in t["rows"]],
            }
            for name, t in result.tables.items()
        },
        "residuals": {k: _fmt(v) for k, v in result.residuals.items()},
        "duration_s": result.duration_s,
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(result: RunResult, fmt: str, out: str | None) -> None:
    text = render_csv(result) if fmt == "csv" else render_json(result)
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    # unique per writer, in the target's directory so os.replace is atomic
    tmp = f"{out}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x")    # a failure here leaves nothing behind
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envlab",
        description="Deterministic decoherence / record-redundancy / "
                    "counting-probability experiment runner.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in SCENARIOS:
        p = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--amplitudes",
                       help="comma- or space-separated branch amplitudes")
        p.add_argument("--env-count")
        p.add_argument("--overlap")
        p.add_argument("--m-cap")
        p.add_argument("--tolerance")
        p.add_argument("--bounds-m", help="denominators for interval bounding")
        p.add_argument("--out", help="output path ('-' = stdout)")
        p.add_argument("--format", help="csv or json")
    return parser


# per field a flag or the config document may set: (item type, is a list);
# fields left unset take ScenarioConfig's defaults
_FIELDS = {"amplitudes": (float, True), "env_count": (int, False),
           "overlap": (float, False), "m_cap": (int, False),
           "tolerance": (float, False), "bounds_m": (int, True),
           "out": (str, False), "format": (str, False)}

# item type -> (JSON value types it accepts, description)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _convert(key: str, value, from_flag: bool):
    """Field value from flag text or from a JSON config value."""
    kind, is_list = _FIELDS[key]
    accepted, what = _JSON_TYPES[kind]

    def item(x):
        if from_flag:
            try:
                return kind(x)
            except ValueError:
                raise TypeError(f"must be {what}") from None
        if isinstance(x, bool) or not isinstance(x, accepted):
            raise TypeError(f"must be {what}")
        return kind(x)

    if not is_list:
        return item(value)
    if from_flag:
        value = value.replace(",", " ").split()
    elif not isinstance(value, list):
        raise TypeError("must be a list")
    return [item(x) for x in value]


def config_from_args(args) -> ScenarioConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValidationFailure({"config": f"cannot read: {exc}"})
        except json.JSONDecodeError as exc:
            raise ValidationFailure({"config": f"invalid JSON: {exc}"})
        if not isinstance(doc, dict):
            raise ValidationFailure({"config": "must be a JSON object"})
    fields, bad = {}, {}
    for key in _FIELDS:
        flag = getattr(args, key)
        value = flag if flag is not None else doc.get(key)
        if value is None:
            continue
        try:
            fields[key] = _convert(key, value, flag is not None)
        except (TypeError, OverflowError) as exc:
            bad[key] = f"{exc}, got {value!r}"
    if "amplitudes" not in fields and "amplitudes" not in bad:
        bad["amplitudes"] = "required (flag or config field)"
    if bad:
        raise ValidationFailure(bad)
    return ScenarioConfig(kind=args.kind, **fields)


def _fail(code: int, doc: dict) -> int:
    """Write the JSON error document to stderr; return the exit code."""
    json.dump(doc, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        result = run_scenario(cfg)
    except ValidationFailure as exc:
        return _fail(EXIT_VALIDATION,
                     {"error": "validation", "fields": exc.messages})
    except errors.SpaceTooLarge as exc:
        return _fail(EXIT_DIM_GUARD,
                     {"error": "dimension_guard", "detail": str(exc)})
    except errors.EnvLabError as exc:
        return _fail(EXIT_VALIDATION, {
            "error": "validation",
            "fields": {"scenario": f"{type(exc).__name__}: {exc}"}})
    try:
        emit_report(result, cfg.format, cfg.out)
    except OSError as exc:
        return _fail(EXIT_IO, {"error": "io", "detail": str(exc)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
