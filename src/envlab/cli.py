"""Batch scenario runner: einselection demos, redundancy sweeps, counting
probability studies, and envariance certificates with deterministic
structured output.

Exit codes: 0 success, 2 validation failure, 3 dimension guard, 4 I/O.
"""
from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .envariance import (
    COUNT_TOL,
    DEFAULT_M_CAP,
    bound_spectrum,
    count_spectrum,
    is_envariant,
    present_outcomes,
    schmidt_phase_unitary,
    schmidt_swap_unitary,
)
from .info_measures import (
    basis_conditioned_mutual_information,
    redundancy_report,
)
from .measurement_models import branch_records, build_branch_state
from .tensor_core import (
    KERNEL_TOL,
    SubsystemUnitary,
    _check_dimension,
    _entropy_bits,
    branch_density,
    dimension_guard,
    schmidt_decompose,
)

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
    tolerance: float = COUNT_TOL
    bounds_m: list[int] = field(default_factory=list)
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        bad = {}
        if self.kind not in _PIPELINES:
            bad["kind"] = f"unknown scenario {self.kind!r}"
        amps = np.asarray(self.amplitudes, dtype=complex)
        with np.errstate(over="ignore"):    # past float range it is inf
            norm = np.linalg.norm(amps)
        if len(self.amplitudes) < 1:
            bad["amplitudes"] = "at least one amplitude required"
        elif not np.all(np.isfinite(amps)):
            bad["amplitudes"] = "amplitudes must be finite"
        elif norm == np.inf:
            bad["amplitudes"] = "amplitude norm overflows a float"
        elif norm < KERNEL_TOL:
            bad["amplitudes"] = "amplitude vector is zero"
        if self.env_count < 0:
            bad["env_count"] = "environment count must be >= 0"
        if not 0.0 <= self.overlap <= 1.0:
            bad["overlap"] = f"overlap {self.overlap} outside [0, 1]"
        if self.m_cap < 1:
            bad["m_cap"] = "denominator cap must be >= 1"
        elif self.m_cap > 10 ** 7:
            bad["m_cap"] = "denominator cap must be <= 10^7"
        if not np.isfinite(self.tolerance):
            bad["tolerance"] = "tolerance must be finite"
        elif self.tolerance <= 0:
            bad["tolerance"] = "tolerance must be positive"
        elif self.tolerance * self.m_cap > 0.1:
            # each outcome keeps at most a fifth of the scanned M; past
            # M = 1/(2 tolerance) it keeps them all
            bad["tolerance"] = "tolerance x m_cap must be <= 0.1"
        if any(m < 1 for m in self.bounds_m):
            bad["bounds_m"] = "bounding denominators must be >= 1"
        elif max(self.bounds_m, default=0) > 2 ** 53:  # p*M and counts exact
            bad["bounds_m"] = "bounding denominators must be <= 2^53"
        elif self.bounds_m and self.kind == "born" and "amplitudes" not in bad:
            n = np.count_nonzero(present_outcomes(np.abs(amps / norm) ** 2))
            if min(self.bounds_m) < n:
                bad["bounds_m"] = ("bounding denominators must be >= the "
                                   f"number of outcomes {n}")
        if self.out == "":
            bad["out"] = "output path must not be empty ('-' = stdout)"
        if self.format not in ("csv", "json"):
            bad["format"] = f"unknown format {self.format!r}"
        if self.kind in _PIPELINES and self.kind != "born" \
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
    tables: dict            # name -> its columns, in _COLUMNS[name] order
    residuals: dict         # invariant name -> max observed residual
    duration_s: float


# ---------------------------------------------------------------------------
# scenario pipelines: each returns ({table name: columns}, residuals)

def _run_einselect(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    d = amps.size
    state = branch_records("S", amps, "A", "E", cfg.overlap)
    # rho_SA vanishes off the branch kets |k>_S|k>_A
    mat = branch_density(state, ["S", "A"])
    offdiag = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    mi = 2 * _entropy_bits(np.linalg.eigvalsh(mat))   # SAE pure: H(E)=H(SA)
    columns = [np.arange(d), np.abs(amps) ** 2, np.full(d, offdiag),
               np.full(d, mi)]
    norm_gap = float(abs(np.linalg.norm(state.amplitudes) - 1.0))
    return {"einselect": columns}, {"global_norm_gap": norm_gap}


def _run_redundancy(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    _check_dimension([(amps.size, cfg.env_count + 2)])  # before N labels
    envs = [f"E{i + 1}" for i in range(cfg.env_count)]
    state = branch_records("S", amps, "A", envs, cfg.overlap)
    try:
        report = redundancy_report(state, "S", envs)
    except errors.UndefinedRatio as exc:    # one outcome holds all weight
        raise ValidationFailure({"amplitudes": str(exc)}) from None
    mis = np.array(report.per_fragment_mi)
    columns = [np.arange(mis.size), mis, np.cumsum(mis),
               np.full(mis.size, report.ratio)]
    # A holds a perfect record, so rho_S = diag(|a_k|^2)
    residuals = {
        "system_entropy_gap": abs(report.system_entropy
                                  - _entropy_bits(np.abs(amps) ** 2)),
        "system_entropy_bits": report.system_entropy,
    }
    return {"redundancy": columns}, residuals


def _run_born(cfg: ScenarioConfig) -> tuple[dict, dict]:
    # the amplitudes are Schmidt coefficients in pointer order already; the
    # fine-graining environment needs room for M <= m_cap records
    probs = np.abs(cfg.unit_amplitudes()) ** 2
    tables, residuals, bounds_m = {}, {}, cfg.bounds_m
    try:
        counted = count_spectrum(probs, cfg.tolerance, cfg.m_cap, cfg.m_cap)
    except errors.UseBoundsInstead:
        # the user's bounds passed validate; the defaults must reach n
        n = np.count_nonzero(present_outcomes(probs))
        bounds_m = bounds_m or [m for m in (100, 1000, 10000) if m >= n]
        if not bounds_m:
            raise ValidationFailure({"bounds_m": "no default bounding "
                                     f"denominator reaches the {n} outcomes"})
    else:
        gaps = np.abs(counted - probs)
        tables["born"] = [np.arange(probs.size), counted, probs, gaps]
        residuals["max_abs_gap"] = float(np.max(gaps))
    if bounds_m:
        lower, upper = map(np.concatenate, zip(
            *(bound_spectrum(probs, bm) for bm in bounds_m)))
        tables["bounds"] = [np.repeat(bounds_m, probs.size),
                            np.tile(np.arange(probs.size), len(bounds_m)),
                            lower, upper, upper - lower]
        residuals["max_bound_width"] = tables["bounds"][-1].max()
    return tables, residuals


def _run_envariance(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    state = build_branch_state("S", amps, None, "E")
    sd = schmidt_decompose(state, "S")
    rng = np.random.default_rng(20040971)
    phases = np.pi * (1.0 + np.arange(sd.rank)) / sd.rank
    tests = [("schmidt_phase", schmidt_phase_unitary(sd, phases))]
    if sd.rank >= 2:
        tests.append(("system_swap_01", schmidt_swap_unitary(sd, 0, 1)))
    gauss = rng.normal(size=(amps.size, amps.size)) \
        + 1j * rng.normal(size=(amps.size, amps.size))
    tests.append(("random_system_unitary",
                  SubsystemUnitary("S", np.linalg.qr(gauss)[0])))
    verdicts = [is_envariant(state, u, sd) for _, u in tests]
    envariant = np.array([int(v.envariant) for v in verdicts])
    residual = np.array([v.residual for v in verdicts])
    columns = [[name for name, _ in tests], envariant, residual,
               np.array([v.witness_trace_distance for v in verdicts])]
    return {"envariance": columns}, {
        "max_true_residual": max(residual[envariant == 1], default=0.0)}


def _run_cascade(cfg: ScenarioConfig) -> tuple[dict, dict]:
    amps = cfg.unit_amplitudes()
    d = amps.size
    _check_dimension([(d, 2 * cfg.env_count + 1)])
    if cfg.env_count == 0:  # no fragment row: build no state
        return {"cascade": [np.arange(0)] * 3}, {"max_conjugate_mi": 0.0}
    immediate = [f"E{i + 1}" for i in range(cfg.env_count)]
    distant = [f"F{i + 1}" for i in range(cfg.env_count)]
    # perfect records: the c-shift from E_i copies its record onto F_i
    state = branch_records("S", amps, None, immediate + distant)
    pointer_basis = np.eye(d)
    conjugate_basis = np.array(
        [[np.exp(2j * np.pi * i * j / d) / np.sqrt(d) for j in range(d)]
         for i in range(d)]
    )
    mi = np.array([[basis_conditioned_mutual_information(state, "S", lab, basis)
                    for lab in distant]
                   for basis in (pointer_basis, conjugate_basis)])
    residuals = {"max_conjugate_mi": max(mi[1], default=0.0)}
    return {"cascade": [np.arange(cfg.env_count), *mi]}, residuals


# scenario -> (pipeline, fields it reads besides amplitudes, out and format)
_PIPELINES = {
    "einselect": (_run_einselect, ("overlap",)),
    "redundancy": (_run_redundancy, ("env_count", "overlap")),
    "born": (_run_born, ("m_cap", "tolerance", "bounds_m")),
    "envariance": (_run_envariance, ()),
    "cascade": (_run_cascade, ("env_count",)),
}
# the fields each scenario reads are its only flags and --config keys
_READS = {kind: ("amplitudes", *reads, "out", "format")
          for kind, (_, reads) in _PIPELINES.items()}

# each table's header, whichever scenario emits it
_COLUMNS = {
    "einselect": ("branch_index", "population", "offdiag_max", "mi_sae_bits"),
    "redundancy": ("fragment_index", "mi_bits", "cumulative_bits", "ratio"),
    "born": ("outcome_index", "p_counting", "p_amplitude_squared", "abs_gap"),
    "bounds": ("m_used", "outcome_index", "lower", "upper", "width"),
    "envariance": ("test", "envariant", "residual", "witness_trace_distance"),
    "cascade": ("fragment_index", "pointer_basis_mi_bits",
                "conjugate_basis_mi_bits"),
}


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    cfg.validate()
    start = time.perf_counter()
    tables, residuals = _PIPELINES[cfg.kind][0](cfg)
    return RunResult(cfg, tables, residuals, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# output

_FLOAT = "{:.9g}".format


def _cells(column) -> list[str]:
    """A column as text: floats with 9 significant digits, integers through
    ``str``, names as they are.  A long column formats each distinct value
    once, keyed by its bits, as -0.0 == 0.0."""
    if isinstance(column, list):
        return column
    fmt = _FLOAT if column.dtype.kind == "f" else str
    if column.size <= 64:       # np.unique would cost more than it saves
        return list(map(fmt, column.tolist()))
    keys, where = np.unique(column.view(np.int64), return_inverse=True)
    text = list(map(fmt, keys.view(column.dtype).tolist()))
    return np.array(text, dtype=object)[where].tolist()


def render_csv(result: RunResult) -> str:
    lines = []
    for name, columns in result.tables.items():
        lines += ["table," + name, ",".join(_COLUMNS[name])]
        lines += map(",".join, zip(*map(_cells, columns)))
    return "\n".join([*lines, ""])


def render_json(result: RunResult) -> str:
    doc = {
        "scenario": {
            "kind": result.config.kind,
            "amplitudes": list(map(float, result.config.amplitudes)),
            "env_count": result.config.env_count,
            "overlap": result.config.overlap,
            "m_cap": result.config.m_cap,
            "tolerance": result.config.tolerance,
        },
        "tables": {
            name: {"columns": list(_COLUMNS[name]),
                   "rows": list(zip(*map(_cells, columns)))}
            for name, columns in result.tables.items()
        },
        "residuals": {k: _FLOAT(v) for k, v in result.residuals.items()},
        "duration_s": result.duration_s,
    }
    return json.dumps(doc) + "\n"


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

class _Parser(argparse.ArgumentParser):
    """Command-line errors are validation failures, reported as the same
    field-level JSON as a bad flag value.  argparse words them as
    "argument NAME: DETAIL" or "the following arguments are required:
    NAME, ..."; the message falls under the field "arguments" when NAME
    is not a field the user sets (``-h/--help``), and for anything else."""

    def error(self, message):
        required = "the following arguments are required: "
        if message.startswith(required):
            names = message[len(required):].split(", ")
            raise ValidationFailure({_field(n): "required" for n in names})
        if message.startswith("argument ") and ": " in message:
            name, detail = message[len("argument "):].split(": ", 1)
            if _field(name) in (*_FIELDS, "config", "kind"):
                raise ValidationFailure({_field(name): detail})
        raise ValidationFailure({"arguments": message})


def _field(name: str) -> str:
    """Config field of an argparse argument name: --env-count -> env_count."""
    return name.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="envlab",
        description="Deterministic decoherence / record-redundancy / "
                    "counting-probability experiment runner.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, reads in _READS.items():
        p = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config document")
        for key in reads:
            p.add_argument("--" + key.replace("_", "-"), help=_FIELDS[key][2])
    return parser


# per field that a flag (--env-count for env_count) or the config may set:
# (item type, is a list, flag help); unset ones take ScenarioConfig's defaults
_FIELDS = {
    "amplitudes": (float, True, "comma- or space-separated branch amplitudes"),
    "env_count": (int, False, None),
    "overlap": (float, False, None),
    "m_cap": (int, False, None),
    "tolerance": (float, False, None),
    "bounds_m": (int, True, "denominators for interval bounding"),
    "out": (str, False, "output path ('-' = stdout)"),
    "format": (str, False, "csv or json"),
}

# item type -> (JSON value types it accepts, description)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _convert(key: str, value, from_flag: bool):
    """Field value from flag text or from a JSON config value."""
    kind, is_list, _ = _FIELDS[key]
    accepted, what = _JSON_TYPES[kind]
    if from_flag and not isinstance(value, str):    # --key=-- reads as []
        raise TypeError("expected one argument")

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
    elif set(map(type, value)) <= set(accepted):    # no bool: not a subclass
        return list(map(kind, value))
    return [item(x) for x in value]


def config_from_args(args) -> ScenarioConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:    # ValueError: NUL, encoding
            raise ValidationFailure({"config": f"cannot read: {exc}"})
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationFailure({"config": f"invalid JSON: {exc}"})
        if not isinstance(doc, dict):
            raise ValidationFailure({"config": "must be a JSON object"})
    fields, reads = {}, _READS[args.kind]
    bad = {key: "unknown config field" for key in doc if key not in reads}
    for key in reads:
        flag = getattr(args, key)
        if flag is None and key not in doc:
            continue
        value = flag if flag is not None else doc[key]
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
    sys.stderr.write(json.dumps(doc) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
