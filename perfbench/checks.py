"""Output checks behind the benchmark's failure count and accuracy metrics.

Every command must exit 0 and produce a parseable report with the
documented keys.  The accuracy gates are the acceptance-test bounds:

* cyclic reconstruction RMS < 1e-3 at k = 1 and < 1e-2 otherwise;
* Berry-phase |measured - predicted| < 1e-2;
* all helicity zeros on or outside the unit circle (``root_check_pass``);
* coefficient equality: max relative |A_n - B_n| < 1e-6;
* no FAIL line from ``verify``;
* dataset row count equals the reported grid size, every value finite.

Each dataset's SHA-256 is recorded as information, not as a gate: a change
that improves accuracy changes the bytes and must not fail.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RMS_BOUND_K1 = 1e-3
RMS_BOUND = 1e-2
BERRY_BOUND = 1e-2
COEFF_BOUND = 1e-6

RECIPROCITY_KEYS = frozenset({
    "g", "omega", "k", "n_harmonic", "cyclic", "grid_size", "method", "fejer",
    "rms_phase_error", "max_phase_error", "rms_logmod_error", "max_logmod_error",
    "coeff_max_discrepancy", "root_check_pass", "matched_peak_count",
    "max_peak_offset_cells", "median_peak_offset_cells", "oscillation_period",
    "gibbs_peak_positions", "notes"})
BERRY_KEYS = frozenset({"berry_predicted", "berry_measured"})
COEFFS_KEYS = frozenset({
    "g", "omega", "k", "n_harmonic", "cyclic", "grid_size", "n_max",
    "max_relative_discrepancy", "a0", "decay_exponent", "notes"})

RECIPROCITY_COLUMNS = ("s", "t", "log_modulus_direct", "log_modulus_reconstructed",
                       "phase_direct", "phase_reconstructed")
COEFFS_COLUMNS = ("n", "A_n", "B_n", "abs_diff")
SWEEP_COLUMNS = ("k", "g", "cyclic", "rms_phase_error", "rms_logmod_error",
                 "berry_predicted", "berry_measured", "root_check_pass")

_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (.*)  \((.*)\)$")
_VERIFY_BOUND = re.compile(r"(?:<|to) ([0-9.eE+-]+)$")
_BERRY_LINE = re.compile(r"^berry (predicted|measured) += (\S+) rad$", re.M)


@dataclass
class CheckResult:
    """What one command's output showed."""

    errors: list = field(default_factory=list)
    #: each gated error divided by its bound
    ratios: list = field(default_factory=list)
    phase_rms: list = field(default_factory=list)
    logmod_rms: list = field(default_factory=list)
    berry_err: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)

    def gate(self, what: str, value: float, bound: float) -> None:
        """Record value/bound; a value at or over the bound (or NaN) is an error."""
        value = float(value)
        if not value < bound:
            self.errors.append(f"{what} = {value:.3e} not below {bound:.0e}")
        self.ratios.append(value / bound if math.isfinite(value) else math.inf)


def rms_bound(k: float) -> float:
    return RMS_BOUND_K1 if abs(k - 1.0) < 1e-9 else RMS_BOUND


def _load_table(path: Path, fmt: str, columns: tuple, result: CheckResult):
    """Dataset values as an (n, len(columns)) array; hashes the file."""
    raw = path.read_bytes()
    result.hashes[path.name] = hashlib.sha256(raw).hexdigest()
    text = raw.decode("ascii")
    if fmt == "json":
        payload = json.loads(text)
        if tuple(payload["columns"]) != columns:
            raise ValueError(f"{path.name}: columns {payload['columns']}")
        return np.asarray(payload["rows"], dtype=float).reshape(-1, len(columns))
    header, _, body = text.partition("\n")
    if tuple(header.split(",")) != columns:
        raise ValueError(f"{path.name}: header {header!r}")
    cells = body.replace("\n", ",").rstrip(",").split(",") if body.strip() else []
    return np.asarray(cells, dtype=float).reshape(-1, len(columns))


def _check_table(values, rows: int, what: str, result: CheckResult) -> None:
    if len(values) != rows:
        result.errors.append(f"{what}: {len(values)} rows, expected {rows}")
    if not np.all(np.isfinite(values)):
        result.errors.append(f"{what}: non-finite values")


def _check_keys(report: dict, required: frozenset, result: CheckResult) -> None:
    missing = sorted(required - report.keys())
    if missing:
        result.errors.append(f"report lacks keys {missing}")


def _body(stdout: str) -> str:
    """Everything after the 'resolved configuration' line."""
    first, _, rest = stdout.partition("\n")
    if not first.startswith("resolved configuration: "):
        raise ValueError("output does not start with the resolved configuration")
    return rest


def _check_reciprocity(cmd, stdout, result):
    if cmd.out:
        report = json.loads(Path(cmd.out + ".report.json").read_text())
    else:
        report = json.loads(_body(stdout))
    required = RECIPROCITY_KEYS | (BERRY_KEYS if report.get("cyclic") else frozenset())
    _check_keys(report, required, result)
    if cmd.grid_size is not None and report["grid_size"] != cmd.grid_size:
        result.errors.append(f"grid_size {report['grid_size']} != {cmd.grid_size}")
    if report["cyclic"]:
        bound = rms_bound(report["k"])
        result.gate("rms_phase_error", report["rms_phase_error"], bound)
        result.gate("rms_logmod_error", report["rms_logmod_error"], bound)
        berry = abs(report["berry_measured"] - report["berry_predicted"])
        result.gate("berry |diff|", berry, BERRY_BOUND)
        result.gate("coeff_max_discrepancy", report["coeff_max_discrepancy"], COEFF_BOUND)
        if report["root_check_pass"] is not True:
            result.errors.append(f"root_check_pass = {report['root_check_pass']}")
        result.phase_rms.append(report["rms_phase_error"])
        result.logmod_rms.append(report["rms_logmod_error"])
        result.berry_err.append(berry)
    if cmd.out:
        path = Path(f"{cmd.out}.{cmd.fmt}")
        values = _load_table(path, cmd.fmt, RECIPROCITY_COLUMNS, result)
        _check_table(values, report["grid_size"], path.name, result)


def _check_coeffs(cmd, stdout, result):
    report = json.loads(Path(cmd.out + ".report.json").read_text())
    _check_keys(report, COEFFS_KEYS, result)
    result.gate("max_relative_discrepancy", report["max_relative_discrepancy"],
                COEFF_BOUND)
    path = Path(f"{cmd.out}.{cmd.fmt}")
    values = _load_table(path, cmd.fmt, COEFFS_COLUMNS, result)
    _check_table(values, cmd.n_max, path.name, result)


def _check_verify(cmd, stdout, result):
    config = json.loads(stdout.partition("\n")[0].split(": ", 1)[1])
    lines = [m for m in map(_VERIFY_LINE.match, stdout.splitlines()) if m]
    expected = 5 if config["cyclic"] else 3
    if len(lines) != expected:
        result.errors.append(f"{len(lines)} check lines, expected {expected}")
    for m in lines:
        status, name, detail = m.groups()
        if status == "FAIL":
            result.errors.append(f"verify FAIL: {name} ({detail})")
        bound = _VERIFY_BOUND.search(name)
        try:
            value = float(detail)
        except ValueError:
            continue
        if bound:
            result.ratios.append(value / float(bound.group(1)))


def _check_berry(cmd, stdout, result):
    found = dict(_BERRY_LINE.findall(stdout))
    if set(found) != {"predicted", "measured"}:
        raise ValueError("berry output lacks the predicted/measured lines")
    diff = abs(float(found["measured"]) - float(found["predicted"]))
    result.gate("berry |diff|", diff, BERRY_BOUND)
    result.berry_err.append(diff)


def _check_sweep(cmd, stdout, result):
    path = Path(cmd.out)
    values = _load_table(path, "csv", SWEEP_COLUMNS, result)
    _check_table(values, len(cmd.k_values), path.name, result)
    for row in values:
        r = dict(zip(SWEEP_COLUMNS, row))
        bound = rms_bound(r["k"])
        result.gate(f"k={r['k']:g} rms_phase_error", r["rms_phase_error"], bound)
        result.gate(f"k={r['k']:g} rms_logmod_error", r["rms_logmod_error"], bound)
        berry = abs(r["berry_measured"] - r["berry_predicted"])
        result.gate(f"k={r['k']:g} berry |diff|", berry, BERRY_BOUND)
        if r["root_check_pass"] != 1.0:
            result.errors.append(f"k={r['k']:g} root_check_pass = {r['root_check_pass']}")
        result.phase_rms.append(r["rms_phase_error"])
        result.logmod_rms.append(r["rms_logmod_error"])
        result.berry_err.append(berry)


_CHECKS = {"reciprocity": _check_reciprocity, "coeffs": _check_coeffs,
           "verify": _check_verify, "berry": _check_berry, "sweep": _check_sweep}


def check(cmd, exit_code, stdout: str) -> CheckResult:
    """Check one command's exit code and outputs against the acceptance bounds."""
    result = CheckResult()
    if exit_code != 0:
        result.errors.append(f"exit code {exit_code}")
        return result
    try:
        _CHECKS[cmd.kind](cmd, stdout, result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.errors.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return result
