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

import errno
import json
import os
import stat
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
        if not self.columns:
            raise ValueError("a table needs at least one column")
        lengths = {len(self.data[c]) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError("table columns differ in length")

    @property
    def n_rows(self) -> int:
        return len(self.data[self.columns[0]])


@dataclass(frozen=True, kw_only=True)
class ReciprocityReport:
    """One reciprocity run; the Berry, coefficient and root fields are a cyclic
    run's, the peak fields a non-cyclic run's, and None in the other regime."""

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
    berry_predicted: float | None = None
    berry_measured: float | None = None
    coeff_max_discrepancy: float | None = None
    root_check_pass: bool | None = None
    matched_peak_count: int | None = None
    max_peak_offset_cells: float | None = None
    median_peak_offset_cells: float | None = None
    oscillation_period: float | None = None
    gibbs_peak_positions: tuple | None = None
    notes: str


def _wrapped_distance(s: np.ndarray, loc: float) -> np.ndarray:
    d = np.abs(s - loc)
    return np.minimum(d, 2.0 * np.pi - d)


def kept_runs(s: np.ndarray, zeros, halfwidth: float) -> list[tuple[int, int]]:
    """Index runs [i, j), in order, of the samples of the ascending grid s that
    are at least halfwidth from every listed zero (a location in [-pi, pi]).

    A sample is kept where ``_wrapped_distance(s, loc) >= halfwidth`` for every
    zero, so a nan half-width keeps none.  That predicate changes value only
    where s crosses loc +- halfwidth or loc +- 2 pi -+ halfwidth, which
    ``searchsorted`` places to within a sample.  The predicate is evaluated on
    the two samples either side of each proposed end, on the sample after
    them and on the first; each of these probes stands for the samples up to
    the next, over which the predicate is constant.
    """
    m = len(s)
    centres = np.array([loc + shift for loc, _ in zeros
                        for shift in (-2.0 * np.pi, 0.0, 2.0 * np.pi)])
    ends = np.searchsorted(s, np.concatenate([centres - halfwidth, centres + halfwidth]))
    # a Python set, not np.unique, whose sort loops add ~1 MB to a run's resident code
    probes = np.array(sorted({0}.union(*(range(max(e - 2, 0), min(e + 3, m))
                                         for e in ends.tolist()))))
    keep = np.ones(len(probes), dtype=bool)
    for loc, _ in zeros:
        keep &= _wrapped_distance(s[probes], loc) >= halfwidth
    edges = np.flatnonzero(np.diff(np.concatenate(([False], keep, [False]))))
    bounds = np.append(probes, m)
    return list(zip(bounds[edges[0::2]].tolist(), bounds[edges[1::2]].tolist()))


def _masked_error_stats(reconstructed, direct,
                        runs: list[tuple[int, int]]) -> tuple[float, float]:
    """RMS and max |d| of d = reconstructed - direct on the kept runs, less its mean.

    The differences of the runs are written, in order, into one buffer of the
    kept length, and every step after it works in place on that buffer.  Two
    ``hilbert.HalfPeriod`` curves of one parity are subtracted on their heads
    and the buffer is read from that difference: (+-a) - (+-b) = +-(a - b)
    exactly, so the buffer holds the differences of the laid-out curves.
    """
    d = np.empty(sum(j - i for i, j in runs))
    at = 0
    if isinstance(direct, hilbert.HalfPeriod):
        difference = hilbert.HalfPeriod(reconstructed.head - direct.head, direct.parity,
                                        direct.m)
        for i, j in runs:
            difference.read(i, d[at:at + j - i])
            at += j - i
    else:
        for i, j in runs:
            np.subtract(reconstructed[i:j], direct[i:j], out=d[at:at + j - i])
            at += j - i
    d -= d.mean()  # curves are each defined up to the A_0 = 0 normalisation
    np.abs(d, out=d)
    largest = float(np.max(d))
    np.square(d, out=d)  # |d|^2 is d^2 bit for bit
    return float(np.sqrt(np.mean(d))), largest


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


def measure_berry_phase(signals: model.ModelSignals) -> float:
    """Smooth change of the physical phase over one Hamiltonian revolution.

    Evaluates D(e) = phase(pi/2 - e) - phase(-pi/2 + e) of the physical phase
    (phase_chi plus ``_physical_ramp``), excluding the genuine jump at the
    revolution edge, and extrapolates e -> 0 linearly from the two innermost
    grid samples (e = h/2 and 3h/2).  Near the adiabatic regime the connection
    is a boundary-layer step of width ~1/(4k) decorated with O(1) oscillations,
    so extrapolating from coarser offsets inside the oscillation zone would not
    converge.  The phase_chi of ``model.half_period_signals`` is a
    ``hilbert.HalfPeriod``, and the four samples are read from its head:
    index 3m/4 - 1 is head[m/4 - 1], for instance.
    """
    if not signals.params.cyclic:
        raise ValueError("Berry-phase measurement requires cyclic signals")
    m = len(signals.grid)
    # the offset grid contains pi/2 - h/2 exactly: indices 3m/4 - 1 and m/4
    jp, jm = 3 * m // 4 - 1, m // 4
    at = [jp, jm, jp - 1, jm + 1]
    p1, m1, p2, m2 = signals.phase_chi[at] + _physical_ramp(signals.params,
                                                            signals.grid[at])
    d1 = p1 - m1  # e = h/2
    d2 = p2 - m2  # e = 3h/2
    return float(0.5 * (3.0 * d1 - d2))


def _physical_ramp(params: model.ModelParams, s: np.ndarray) -> np.ndarray:
    """(g - N) s: added to phase_chi, it gives the phase of e^{igs} phi1, the
    physical phase with the dynamic phase removed."""
    return (params.g - params.n_harmonic) * s


def _detrended_phase(raw_angle: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    phase = hilbert.unwrap(raw_angle).phase
    slope = (phase[-1] - phase[0]) / (s[-1] - s[0])
    phase -= slope * s
    phase -= phase.mean()
    return phase, float(slope)


@dataclass(frozen=True)
class ReciprocityCurves:
    """The grid and the four curves of a reciprocity run, as its report step leaves them.

    A cyclic run's curves are ``hilbert.HalfPeriod`` values, its phases
    phase_chi and its reconstruction, without the (g - N) s ramp; a
    non-cyclic run's are arrays of m samples, as the dataset holds them.
    """

    s: np.ndarray
    log_modulus_direct: np.ndarray | hilbert.HalfPeriod
    log_modulus_reconstructed: np.ndarray | hilbert.HalfPeriod
    phase_direct: np.ndarray | hilbert.HalfPeriod
    phase_reconstructed: np.ndarray | hilbert.HalfPeriod


def run_reciprocity_case(params: model.ModelParams, grid_size: int,
                         method: str = "series", fejer: bool = False,
                         n_max: int = 50,
                         exclusion_halfwidth: float = EXCLUSION_HALFWIDTH):
    """Run both reconstruction directions and collect the comparison report.

    Returns (ReciprocityReport, Table): the report of ``reciprocity_report``
    and the dataset ``reciprocity_dataset`` lays out from its curves.  A
    caller that writes no dataset calls ``reciprocity_report`` alone.
    """
    report, *curves = reciprocity_report(params, grid_size, method, fejer, n_max,
                                         exclusion_halfwidth)
    # pop hands over the only reference to the curves, so that the dataset
    # step releases each half-period head once its column is laid out
    return report, reciprocity_dataset(params, curves.pop())


def reciprocity_report(params: model.ModelParams, grid_size: int,
                       method: str = "series", fejer: bool = False,
                       n_max: int = 50,
                       exclusion_halfwidth: float = EXCLUSION_HALFWIDTH):
    """The report of a reciprocity run, and the curves its dataset is laid out from.

    Returns (ReciprocityReport, ReciprocityCurves).  A non-cyclic
    log-modulus is log|phi1| minus its mean, the same A_0 = 0 normalisation
    the error statistics use, and a non-cyclic phase is the detrended window
    phase.

    A cyclic run is held on the first half-period of its curves
    (``model.half_period_signals``): both transforms take and return
    ``hilbert.HalfPeriod`` values, the Berry phase reads its four samples
    from the head, and no curve is laid out at full size: the grid and the
    kept-sample buffer of the error statistics are its only arrays of about
    m samples.  A non-cyclic run forms each curve once and updates it in
    place; phi1 is dropped as soon as the curves are read from it.  The
    error statistics are taken over the index runs of the samples at least
    exclusion_halfwidth from the amplitude zeros (``kept_runs``), with no
    full-size mask.
    """
    if params.cyclic:
        signals = model.half_period_signals(params, grid_size)
        s, lm_direct, ph_direct = signals.grid, signals.log_modulus, signals.phase_chi
        helicity, berry_measured = signals.helicity, measure_berry_phase(signals)
    else:
        s = trigpoly.offset_grid(grid_size)
        phi1 = model.phi1_values(params, s)
        n_eff = 2 * int(round(params.k)) + 1
        lm_direct = np.abs(phi1)
        np.log(lm_direct, out=lm_direct)
        lm_direct -= lm_direct.mean()
        # the n_eff s ramp demodulates arg phi1 (~2k h per sample) so unwrap cannot alias
        raw = np.angle(phi1)
        del phi1
        raw += n_eff * s
        ph_direct, slope = _detrended_phase(raw, s)
        del raw
    runs = kept_runs(s, model.DRIVE_ZEROS, exclusion_halfwidth)
    if not runs:
        raise ValueError(f"exclusion half-width {exclusion_halfwidth} around the "
                         f"amplitude zeros leaves no sample for the error statistics")
    h = s[1] - s[0]
    fejer_order = grid_size // 2 if fejer else None
    notes = [f"regime: {params.regime}",
             f"error statistics exclude |s - s_zero| < {exclusion_halfwidth} "
             f"and remove the masked mean (A_0 = 0 normalisation)",
             "tolerances are artifact-chosen (the underlying agreement is qualitative)"]
    ph_rec = hilbert.phase_from_modulus(lm_direct, method, fejer_order)
    lm_rec = hilbert.modulus_from_phase(ph_direct, method, fejer_order)
    rms_ph, max_ph = _masked_error_stats(ph_rec, ph_direct, runs)
    rms_lm, max_lm = _masked_error_stats(lm_rec, lm_direct, runs)

    if params.cyclic:
        # on the series' own grid: R is a polynomial, so the dataset grid adds nothing
        coeffs = hilbert.log_coefficients(helicity, n_max, 4 * n_max + 4)
        regime_fields = dict(
            berry_predicted=model.berry_phase_predicted(params),
            berry_measured=berry_measured,
            coeff_max_discrepancy=hilbert.coefficient_equality_check(coeffs).max_relative,
            root_check_pass=trigpoly.root_check(helicity).passed)
        notes.append(f"cyclic drive: N = {params.n_harmonic}, "
                     f"c_0 = {helicity.c[0]:.12g}")
    else:
        notes.append(
            f"theorem assumptions violated (non-cyclic drive, k = {params.k:.6f}): "
            f"forced harmonic shift N_eff = {n_eff}, phase trend "
            f"{slope:.6f} rad/rad removed before the log-modulus reconstruction")
        pk_direct = peak_positions(s, ph_direct)
        pk_rec = peak_positions(s, ph_rec)
        pairs, _, extra = match_peaks(pk_direct, pk_rec, max_distance=60 * h)
        offsets = np.array([b - a for a, b in pairs])
        span = max((abs(a) for a, _ in pairs), default=0.0)
        gibbs = tuple(float(p) for p in np.sort(extra) if abs(p) > span)
        spacings = np.diff(pk_direct[np.abs(np.abs(pk_direct) - np.pi / 2) < 0.5])
        spacings = spacings[spacings < 0.5]
        regime_fields = dict(
            matched_peak_count=len(pairs),
            # with no pair matched there is no offset to report, not a zero one
            max_peak_offset_cells=float(np.max(np.abs(offsets)) / h) if pairs else None,
            median_peak_offset_cells=float(np.median(np.abs(offsets)) / h) if pairs else None,
            oscillation_period=float(np.median(spacings)) if len(spacings) else None,
            gibbs_peak_positions=gibbs,
        )
        if gibbs:
            notes.append(
                f"{len(gibbs)} reconstructed-only peaks outside the matched train "
                f"flagged as Gibbs artifacts (spurious edge oscillations)")

    report = ReciprocityReport(
        g=params.g, omega=params.omega, k=params.k,
        n_harmonic=params.n_harmonic, cyclic=params.cyclic,
        grid_size=grid_size, method=method, fejer=fejer,
        rms_phase_error=rms_ph, max_phase_error=max_ph,
        rms_logmod_error=rms_lm, max_logmod_error=max_lm,
        notes="; ".join(notes), **regime_fields)
    return report, ReciprocityCurves(s, lm_direct, lm_rec, ph_direct, ph_rec)


def reciprocity_dataset(params: model.ModelParams, curves: ReciprocityCurves) -> Table:
    """The dataset of a reciprocity run, laid out from the curves of its report step.

    The columns are (s, t, log_modulus_direct, log_modulus_reconstructed,
    phase_direct, phase_reconstructed).  A cyclic run's curves are laid out
    here, one at a time (``hilbert.HalfPeriod.full``), and the (g - N) s
    ramp, formed RK4_CHUNK points at a time, turns both phase curves into
    physical phases (dynamic phase removed) in place.  Each half-period head
    is released once its column is laid out, where the caller hands over its
    only reference to the curves (``run_reciprocity_case`` does).  A
    non-cyclic run's columns are its curves as they are.  No two columns
    share memory.
    """
    s, *curves = (curves.s, curves.log_modulus_direct, curves.log_modulus_reconstructed,
                  curves.phase_direct, curves.phase_reconstructed)
    for i, curve in enumerate(curves):
        if isinstance(curve, hilbert.HalfPeriod):
            curves[i] = curve.full()
    del curve
    lm_direct, lm_rec, ph_direct, ph_rec = curves
    if params.cyclic:
        for i in range(0, len(s), model.RK4_CHUNK):
            block = slice(i, i + model.RK4_CHUNK)
            ramp = _physical_ramp(params, s[block])
            ph_direct[block] += ramp
            ph_rec[block] += ramp
    t = 2.0 * s
    t /= params.omega
    return Table(
        ("s", "t", "log_modulus_direct", "log_modulus_reconstructed",
         "phase_direct", "phase_reconstructed"),
        {
            "s": s,
            "t": t,
            "log_modulus_direct": lm_direct,
            "log_modulus_reconstructed": lm_rec,
            "phase_direct": ph_direct,
            "phase_reconstructed": ph_rec,
        })


@dataclass(frozen=True)
class CoefficientCaseReport:
    g: float
    omega: float
    k: float
    n_harmonic: int | None
    cyclic: bool
    grid_size: int
    analysis_grid_size: int
    n_max: int
    max_relative_discrepancy: float
    a0: float
    decay_exponent: float | None
    notes: str


def _decay_exponent(n: np.ndarray, values: np.ndarray) -> float | None:
    """Log-log slope of |values| over the top decade of n (nonzero entries).

    None from fewer than three such entries, an empty n included.
    """
    if len(n) < 3:
        return None
    sel = (n > n[-1] / 10) & (np.abs(values) > 1e-12)
    if np.count_nonzero(sel) < 3:
        return None
    return float(np.polyfit(np.log(n[sel]), np.log(np.abs(values[sel])), 1)[0])


def run_coefficient_case(params: model.ModelParams, n_max: int = 50,
                         grid_size: int = 16384):
    """Tabulate (n, A_n, B_n, |A_n - B_n|) for the cyclic model amplitude."""
    if not params.cyclic:
        raise ValueError("the coefficient-equality case requires a cyclic drive")
    coeffs = hilbert.log_coefficients(model.helicity_series(params), n_max, grid_size)
    eq = hilbert.coefficient_equality_check(coeffs)
    exponent = _decay_exponent(eq.n, eq.A)
    report = CoefficientCaseReport(
        g=params.g, omega=params.omega, k=params.k,
        n_harmonic=params.n_harmonic, cyclic=params.cyclic,
        grid_size=grid_size, analysis_grid_size=coeffs.grid_size, n_max=n_max,
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


def _columns(table: Table) -> list:
    """Every column as a float64 array."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN widens to a quiet one
        return [np.asarray(table.data[c], dtype=float) for c in table.columns]


def check_writable(path) -> Path:
    """Create the missing parent directories of path; check that path is writable.

    Raises OSError ``failed writing PATH: ...``, the message of a failed
    write, so a command can refuse an unusable output path before it computes.
    """
    path = Path(path)
    try:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the parent exists, but is no directory
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                     str(path.parent)) from None
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        target = path if path.exists() else path.parent
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(target))
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def _write(path, chunks) -> Path:
    """Write the byte chunks to path, creating missing parent directories.

    An existing file is overwritten in place, not truncated on open: on some
    file systems freeing a dataset's blocks costs more than writing it again.
    A regular file is then cut after the bytes written, also when a write or
    the chunk source raises, so nothing of the old file follows them.  A
    device or a FIFO is never cut (truncating /dev/null fails).
    """
    path = check_writable(path)
    try:
        # the mode of a new file is the one open(path, "wb") gives
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as f:
            try:
                for chunk in chunks:
                    f.write(chunk)
                f.flush()
            finally:
                # cut after the bytes already in the file; bytes still buffered
                # after a failure are written at the new end when f closes
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, f.raw.tell())
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def _dataset_text(table: Table, fmt: str):
    """The bytes of the table's dataset file (``csv`` or ``json``), in chunks."""
    # imported here, not with the package: commands that write no dataset
    # never load the kernel or build its tables
    from . import _tabletext

    text = _tabletext.csv_text if fmt == "csv" else _tabletext.json_text
    return text(table.columns, _columns(table))


def write_csv(table: Table, path) -> Path:
    """Write a header line, then one row per line with every cell as %.17g.

    Returns the path written; missing parent directories are created.
    """
    return _write(path, _dataset_text(table, "csv"))


def emit_outputs(report, dataset: Table, path_prefix, fmt: str = "csv") -> list[Path]:
    """Write the dataset ({prefix}.csv or .json) and the report ({prefix}.report.json).

    Both dataset formats take one path, ``_dataset_text`` through ``_write``.
    Byte output is deterministic for fixed inputs: full double precision,
    locale-independent decimal points, fixed key order, ``\\n`` newlines.
    Missing parent directories are created; a failed write raises OSError
    naming the file.
    """
    target, report_path = output_paths(path_prefix, fmt)
    written = _write(target, _dataset_text(dataset, fmt))
    report_text = json.dumps(report_to_dict(report), indent=2) + "\n"
    return [written, _write(report_path, [report_text.encode("ascii")])]


def output_paths(path_prefix, fmt: str = "csv") -> list[Path]:
    """The dataset ({prefix}.csv or .json) and report ({prefix}.report.json) paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    prefix = Path(path_prefix)
    return [prefix.with_name(f"{prefix.name}.{fmt}"),
            prefix.with_name(prefix.name + ".report.json")]
