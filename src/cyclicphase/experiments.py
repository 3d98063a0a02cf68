"""End-to-end reconstruction pipelines, Berry-phase measurement, file emission.

Three canonical demonstration presets:

    fig1  g = sqrt(3)     k = 1      cyclic, fast drive
    fig2  g = sqrt(1155)  k = 17     cyclic, near-adiabatic
    fig3  g = sqrt(1100)  k = 16.59  non-cyclic, near-adiabatic

Each reciprocity run feeds the directly computed log-modulus through the
phase reconstruction and the directly computed phase through the log-modulus
reconstruction, and reports zero-excluded error statistics.  The numeric
tolerances quoted in reports are properties of this artifact, chosen where
the underlying agreement is only qualitative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hilbert, model, trigpoly

#: default half-width (in s) of the error-exclusion windows around amplitude zeros
EXCLUSION_HALFWIDTH = 0.05

#: minimum peak prominence (rad) for oscillation-peak matching
PEAK_PROMINENCE = 0.1

PRESETS = {
    "fig1": {"g": np.sqrt(3.0), "grid_size": 32768},
    "fig2": {"g": np.sqrt(1155.0), "grid_size": 16384},
    "fig3": {"g": np.sqrt(1100.0), "grid_size": 16384},
}


@dataclass(frozen=True)
class Table:
    """Column-ordered numeric table for CSV/JSON emission."""

    columns: tuple
    data: dict

    def __post_init__(self):
        lengths = {len(self.data[c]) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError("table columns differ in length")

    @property
    def n_rows(self) -> int:
        return len(self.data[self.columns[0]]) if self.columns else 0


@dataclass(frozen=True)
class ReciprocityReport:
    g: float
    omega: float
    k: float
    n_harmonic: int | None
    cyclic: bool
    grid_size: int
    method: str
    fejer: bool
    rms_phase_error: float
    max_phase_error: float
    rms_logmod_error: float
    max_logmod_error: float
    berry_predicted: float | None
    berry_measured: float | None
    coeff_max_discrepancy: float | None
    root_check_pass: bool | None
    matched_peak_count: int | None
    max_peak_offset_cells: float | None
    median_peak_offset_cells: float | None
    oscillation_period: float | None
    gibbs_peak_positions: tuple | None
    notes: str


def _wrapped_distance(s: np.ndarray, loc: float) -> np.ndarray:
    d = np.abs(s - loc)
    return np.minimum(d, 2.0 * np.pi - d)


def exclusion_mask(s: np.ndarray, zeros, halfwidth: float) -> np.ndarray:
    """True where s is at least halfwidth away from every listed zero."""
    mask = np.ones_like(s, dtype=bool)
    for loc, _ in zeros:
        mask &= _wrapped_distance(s, loc) >= halfwidth
    return mask


def _masked_error_stats(delta: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    d = delta[mask]
    d = d - d.mean()  # curves are each defined up to the A_0 = 0 normalisation
    return float(np.sqrt(np.mean(d ** 2))), float(np.max(np.abs(d)))


def peak_positions(s: np.ndarray, y: np.ndarray, prominence: float = PEAK_PROMINENCE,
                   neighborhood: int = 120) -> np.ndarray:
    """Locations of local maxima, refined to sub-cell accuracy parabolically."""
    h = s[1] - s[0]
    idx = np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
    out = []
    for i in idx:
        lo = max(0, i - neighborhood)
        hi = min(len(y), i + neighborhood + 1)
        if y[i] - y[lo:hi].min() < prominence:
            continue
        curv = y[i - 1] - 2.0 * y[i] + y[i + 1]
        frac = 0.5 * (y[i - 1] - y[i + 1]) / curv if curv != 0.0 else 0.0
        out.append(s[i] + frac * h)
    return np.array(out)


def match_peaks(reference: np.ndarray, candidate: np.ndarray,
                max_distance: float):
    """Greedy nearest matching; returns (pairs, unmatched_ref, extra_candidate)."""
    used = np.zeros(len(candidate), dtype=bool)
    pairs, unmatched = [], []
    for p in reference:
        if len(candidate) == 0:
            unmatched.append(p)
            continue
        dist = np.abs(candidate - p)
        dist[used] = np.inf
        i = int(np.argmin(dist))
        if dist[i] <= max_distance:
            used[i] = True
            pairs.append((float(p), float(candidate[i])))
        else:
            unmatched.append(float(p))
    return pairs, unmatched, candidate[~used] if len(candidate) else candidate


def measure_berry_phase(signals: model.ModelSignals, epsilon: float = 0.05) -> float:
    """Smooth change of the physical phase over one Hamiltonian revolution.

    Evaluates D(e) = phase_physical(pi/2 - e) - phase_physical(-pi/2 + e),
    excluding the genuine jump at the revolution edge, and extrapolates
    e -> 0 linearly from the two innermost grid samples (e = h/2 and 3h/2).
    Near the adiabatic regime the connection is a boundary-layer step of
    width ~1/(4k) decorated with O(1) oscillations, so extrapolating from
    coarser offsets inside the oscillation zone would not converge; epsilon
    only bounds the jump-exclusion region and must exceed the two sampling
    offsets used.
    """
    if signals.chi is None:
        raise ValueError("Berry-phase measurement requires cyclic signals")
    grid = signals.grid
    m = len(grid)
    h = grid[1] - grid[0]
    if not (0.0 < epsilon < np.pi / 2):
        raise ValueError("epsilon must lie in (0, pi/2)")
    if epsilon < 2.0 * h:
        raise ValueError(f"epsilon = {epsilon:.2e} below the grid resolution 2h")
    # the offset grid contains pi/2 - h/2 exactly: indices 3m/4 - 1 and m/4
    jp, jm = 3 * m // 4 - 1, m // 4
    phys = signals.phase_physical
    d1 = phys[jp] - phys[jm]          # e = h/2
    d2 = phys[jp - 1] - phys[jm + 1]  # e = 3h/2
    return float(0.5 * (3.0 * d1 - d2))


def _detrended_phase(raw_angle: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    unwrapped = hilbert.unwrap(raw_angle).phase
    slope = (unwrapped[-1] - unwrapped[0]) / (s[-1] - s[0])
    out = unwrapped - slope * s
    return out - out.mean(), float(slope)


def run_reciprocity_case(params: model.ModelParams, grid_size: int,
                         method: str = "series", fejer: bool = False,
                         n_max: int = 50,
                         exclusion_halfwidth: float = EXCLUSION_HALFWIDTH):
    """Run both reconstruction directions and collect the comparison report.

    Returns (ReciprocityReport, Table).  The dataset columns are
    (s, t, log_modulus_direct, log_modulus_reconstructed, phase_direct,
    phase_reconstructed); phases are the physical ones (dynamic phase
    removed) for cyclic drives and the detrended window phases for non-cyclic
    ones.
    """
    signals = model.evaluate_model(params, grid_size)
    s = signals.grid
    h = s[1] - s[0]
    fejer_order = grid_size // 2 if fejer else None
    notes = [f"regime: {params.regime}",
             f"error statistics exclude |s - s_zero| < {exclusion_halfwidth} "
             f"and remove the masked mean (A_0 = 0 normalisation)",
             "tolerances are artifact-chosen (the underlying agreement is qualitative)"]

    berry_pred = berry_meas = coeff_max = None
    root_pass = None
    peak_fields = dict(matched_peak_count=None, max_peak_offset_cells=None,
                       median_peak_offset_cells=None, oscillation_period=None,
                       gibbs_peak_positions=None)

    if params.cyclic:
        n = params.n_harmonic
        lm_direct = signals.log_modulus
        ph_direct = signals.phase_chi
        pair = hilbert.PhaseModulusPair.from_samples(s, lm_direct, ph_direct)
        ph_rec = pair.reconstruct_phase(method, fejer_order)
        lm_rec = pair.reconstruct_modulus(method, fejer_order)
        zeros = signals.zeros
        phase_direct_out = signals.phase_physical
        phase_rec_out = ph_rec + (params.g - n) * s
        berry_pred = model.berry_phase_predicted(params)
        berry_meas = measure_berry_phase(signals, epsilon=exclusion_halfwidth)
        coeffs = hilbert.log_coefficients(signals.helicity, n_max, grid_size)
        coeff_max = hilbert.coefficient_equality_check(coeffs).max_relative
        root_pass = trigpoly.root_check(signals.helicity).passed
        notes.append(f"cyclic drive: N = {n}, c_0 = {signals.c0:.12g}")
    else:
        n_eff = 2 * int(round(params.k)) + 1
        chi = np.exp(1j * n_eff * s) * signals.phi1
        c0 = np.mean(chi)
        lm_direct = np.log(np.abs(chi / c0))
        ph_direct, slope = _detrended_phase(np.angle(chi / c0), s)
        pair = hilbert.PhaseModulusPair.from_samples(s, lm_direct, ph_direct)
        ph_rec = pair.reconstruct_phase(method, fejer_order)
        lm_rec = pair.reconstruct_modulus(method, fejer_order, trend_tolerance=None)
        zeros = model.DRIVE_ZEROS
        phase_direct_out = ph_direct
        phase_rec_out = ph_rec
        notes.append(
            f"theorem assumptions violated (non-cyclic drive, k = {params.k:.6f}): "
            f"forced harmonic shift N_eff = {n_eff}, phase trend "
            f"{slope:.6f} rad/rad removed before the log-modulus reconstruction")
        pk_direct = peak_positions(s, ph_direct)
        pk_rec = peak_positions(s, ph_rec)
        pairs, _, extra = match_peaks(pk_direct, pk_rec, max_distance=60 * h)
        offsets = np.array([b - a for a, b in pairs]) if pairs else np.array([])
        span = max((abs(a) for a, _ in pairs), default=0.0)
        gibbs = tuple(float(p) for p in np.sort(extra) if abs(p) > span)
        spacings = np.diff(pk_direct[np.abs(np.abs(pk_direct) - np.pi / 2) < 0.5])
        spacings = spacings[spacings < 0.5]
        peak_fields = dict(
            matched_peak_count=len(pairs),
            max_peak_offset_cells=float(np.max(np.abs(offsets)) / h) if len(offsets) else 0.0,
            median_peak_offset_cells=float(np.median(np.abs(offsets)) / h) if len(offsets) else 0.0,
            oscillation_period=float(np.median(spacings)) if len(spacings) else None,
            gibbs_peak_positions=gibbs,
        )
        if gibbs:
            notes.append(
                f"{len(gibbs)} reconstructed-only peaks outside the matched train "
                f"flagged as Gibbs artifacts (spurious edge oscillations)")

    mask = exclusion_mask(s, zeros, exclusion_halfwidth)
    rms_ph, max_ph = _masked_error_stats(ph_rec - ph_direct, mask)
    rms_lm, max_lm = _masked_error_stats(lm_rec - lm_direct, mask)

    report = ReciprocityReport(
        g=params.g, omega=params.omega, k=params.k,
        n_harmonic=params.n_harmonic, cyclic=params.cyclic,
        grid_size=grid_size, method=method, fejer=fejer,
        rms_phase_error=rms_ph, max_phase_error=max_ph,
        rms_logmod_error=rms_lm, max_logmod_error=max_lm,
        berry_predicted=berry_pred, berry_measured=berry_meas,
        coeff_max_discrepancy=coeff_max, root_check_pass=root_pass,
        notes="; ".join(notes), **peak_fields)
    dataset = Table(
        ("s", "t", "log_modulus_direct", "log_modulus_reconstructed",
         "phase_direct", "phase_reconstructed"),
        {
            "s": s,
            "t": 2.0 * s / params.omega,
            "log_modulus_direct": lm_direct,
            "log_modulus_reconstructed": lm_rec,
            "phase_direct": phase_direct_out,
            "phase_reconstructed": phase_rec_out,
        })
    return report, dataset


@dataclass(frozen=True)
class CoefficientCaseReport:
    g: float
    omega: float
    k: float
    n_harmonic: int | None
    cyclic: bool
    grid_size: int
    n_max: int
    max_relative_discrepancy: float
    a0: float
    decay_exponent: float | None
    notes: str


def _decay_exponent(n: np.ndarray, values: np.ndarray) -> float | None:
    """Log-log slope of |values| over the top decade of n (nonzero entries)."""
    sel = (n > n[-1] / 10) & (np.abs(values) > 1e-12)
    if np.count_nonzero(sel) < 3:
        return None
    return float(np.polyfit(np.log(n[sel]), np.log(np.abs(values[sel])), 1)[0])


def run_coefficient_case(params: model.ModelParams, n_max: int = 50,
                         grid_size: int = 16384):
    """Tabulate (n, A_n, B_n, |A_n - B_n|) for the cyclic model amplitude."""
    if not params.cyclic:
        raise ValueError("the coefficient-equality case requires a cyclic drive")
    signals = model.evaluate_model(params, max(grid_size, 4 * params.n_harmonic + 4))
    coeffs = hilbert.log_coefficients(signals.helicity, n_max, grid_size)
    eq = hilbert.coefficient_equality_check(coeffs)
    exponent = _decay_exponent(eq.n, eq.A)
    report = CoefficientCaseReport(
        g=params.g, omega=params.omega, k=params.k,
        n_harmonic=params.n_harmonic, cyclic=params.cyclic,
        grid_size=grid_size, n_max=n_max,
        max_relative_discrepancy=eq.max_relative, a0=eq.a0,
        decay_exponent=exponent,
        notes="algebraic |A_n| decay reflects the real-axis amplitude zeros")
    table = Table(("n", "A_n", "B_n", "abs_diff"),
                  {"n": eq.n.astype(float), "A_n": eq.A, "B_n": eq.B,
                   "abs_diff": eq.abs_diff})
    return report, table


def report_to_dict(report) -> dict:
    """Flat JSON-ready dict; Berry fields appear only for cyclic runs."""
    out = {}
    for key, value in vars(report).items():
        if key in ("berry_predicted", "berry_measured") and value is None:
            continue
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def write_csv(table: Table, path) -> None:
    """Write a header line, then one row per line with every cell as %.17g."""
    cols = [np.asarray(table.data[c], dtype=float).tolist() for c in table.columns]
    lines = [",".join(table.columns)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in zip(*cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def emit_outputs(report, dataset: Table, path_prefix, fmt: str = "csv") -> list[Path]:
    """Write the dataset ({prefix}.csv or .json) and the report ({prefix}.report.json).

    Byte output is deterministic for fixed inputs: full double precision,
    locale-independent decimal points, fixed key order, ``\\n`` newlines.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    prefix = Path(path_prefix)
    written = []
    try:
        if prefix.parent and not prefix.parent.exists():
            prefix.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            target = prefix.with_name(prefix.name + ".csv")
            write_csv(dataset, target)
        else:
            target = prefix.with_name(prefix.name + ".json")
            payload = {"columns": list(dataset.columns),
                       "rows": [[float(dataset.data[c][i]) for c in dataset.columns]
                                for i in range(dataset.n_rows)]}
            target.write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")
        written.append(target)
        report_path = prefix.with_name(prefix.name + ".report.json")
        report_path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n",
                               encoding="ascii")
        written.append(report_path)
    except OSError as exc:
        raise OSError(f"failed writing outputs with prefix {prefix}: {exc}") from exc
    return written
