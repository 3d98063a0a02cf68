"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Two sub-clauses are implemented faithfully as stated and fail for reasons
documented in their assertion messages: the fig2 oscillation-period target of
pi/17 (the measured Rabi undulation period is pi/34, i.e. the undulations
ride at twice the gap frequency), and the fig3 one-grid-cell peak alignment
(the non-cyclic case carries an intrinsic reconstruction offset of ~13 cells
that no grid refinement removes; the matching machinery itself aligns the
valid cyclic k=17 case to < 1 cell).  All other criteria pass at their stated
tolerances.
"""

import time

import numpy as np

from conftest import itoh_unwrap
from cyclicphase import experiments, hilbert, model, trigpoly

SQ3 = np.sqrt(3.0)


def _line(name, passed, detail):
    print(f"\nCRITERION {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_01_hilbert_pair_identities():
    """Conjugate-pair identities: H[cos ns] = -pi sin ns, H[sin ns] = pi cos ns."""
    s = trigpoly.offset_grid(4096)
    worst = 0.0
    for method in ("series", "quadrature"):
        for n in range(1, 11):
            worst = max(worst, np.max(np.abs(
                hilbert.periodic_hilbert(np.cos(n * s), method) + np.pi * np.sin(n * s))))
            worst = max(worst, np.max(np.abs(
                hilbert.periodic_hilbert(np.sin(n * s), method) - np.pi * np.cos(n * s))))
    ok = worst < 1e-8
    _line("1 (Hilbert pair identities)", ok, f"max pointwise error {worst:.3e} < 1e-8")
    assert ok


def test_criterion_02_coefficient_equality():
    """A_n = B_n for the k=1 amplitude up to n = 50; A_0 = 0."""
    params = model.derive_params(SQ3)
    signals = model.evaluate_model(params, 16384)
    coeffs = hilbert.log_coefficients(signals.helicity, 50, 16384)
    report = hilbert.coefficient_equality_check(coeffs)
    ok = report.max_relative < 1e-6 and abs(report.a0) < 1e-8
    _line("2 (coefficient equality n <= 50)", ok,
          f"max relative |A_n - B_n| = {report.max_relative:.3e} < 1e-6, "
          f"|A_0| = {abs(report.a0):.3e} < 1e-8")
    assert ok


def test_criterion_03_fig1_reproduction():
    """k=1 reconstruction in both directions: RMS < 1e-3 outside zero windows."""
    params = model.derive_params(SQ3)
    start = time.perf_counter()
    report, _ = experiments.run_reciprocity_case(
        params, experiments.PRESETS["fig1"]["grid_size"])
    elapsed = time.perf_counter() - start
    ok = (report.rms_phase_error < 1e-3 and report.rms_logmod_error < 1e-3
          and elapsed < 1.0)
    _line("3 (fig1 reproduction)", ok,
          f"rms phase {report.rms_phase_error:.3e}, "
          f"rms log-modulus {report.rms_logmod_error:.3e}, both < 1e-3; "
          f"runtime {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_04_berry_phase():
    """Measured geometric phase vs (1 - (2k - g)) pi for k = 1 and k = 17."""
    results = []
    for k, stated in ((1, (SQ3 - 1.0) * np.pi), (17, 3.0954)):
        params = model.params_from_k(k)
        signals = model.evaluate_model(params, 16384)
        measured = experiments.measure_berry_phase(signals)
        results.append((k, measured, stated, abs(measured - stated)))
    ok = all(diff < 1e-2 for *_, diff in results)
    _line("4 (Berry phase)", ok,
          "; ".join(f"k={k}: measured {m:.6f} vs {t:.6f}, |diff| {d:.2e} < 1e-2"
                    for k, m, t, d in results))
    assert ok


def test_criterion_05_solution_verification():
    """Closed form solves the equation; RK4 cross-check; edge zeros."""
    details = []
    ok = True
    for k, steps in ((1, 10_000), (17, 20_000)):
        params = model.params_from_k(k)
        res = model.solution_residual(params, 16384)
        ok &= res.max_residual < 1e-8
        s = trigpoly.offset_grid(512)
        traj = model.integrate_ode(params, model.analytic_state_pair(params, s[0]),
                                   (s[0], s[-1]), step=(s[-1] - s[0]) / steps)
        rk4_err = float(np.max(np.abs(traj.states
                                      - model.analytic_state_pair(params, traj.s))))
        ok &= rk4_err < 1e-6
        edge = float(np.max(np.abs(model.phi1_values(params,
                                                     np.array([-np.pi / 2, np.pi / 2])))))
        ok &= edge < 1e-12
        details.append(f"k={k}: residual {res.max_residual:.2e} < 1e-8, "
                       f"RK4 dev {rk4_err:.2e} < 1e-6, |phi1(+-pi/2)| {edge:.2e} < 1e-12")
    _line("5 (solution verification)", ok, "; ".join(details))
    assert ok


def test_criterion_06_zero_locations():
    """k=1 helicity roots are {+-i double, +-sqrt(2+sqrt3)}; gate passes k=2,3,17."""
    params = model.derive_params(SQ3)
    signals = model.evaluate_model(params, 64)
    result = trigpoly.root_check(signals.helicity)
    targets = np.array([1j, 1j, -1j, -1j,
                        np.sqrt(2.0 + SQ3), -np.sqrt(2.0 + SQ3)])
    unmatched = list(result.roots)
    worst = 0.0
    for t in targets:
        i = int(np.argmin(np.abs(np.array(unmatched) - t)))
        worst = max(worst, abs(unmatched.pop(i) - t))
    ok = worst < 1e-9 and result.passed
    others = []
    for k in (2, 3, 17):
        rc = trigpoly.root_check(
            model.evaluate_model(model.params_from_k(k),
                                 4 * (2 * k + 1) + 4).helicity)
        ok &= rc.passed
        others.append(f"k={k} min|z|={rc.min_modulus:.10f}")
    _line("6 (zero locations)", ok,
          f"k=1 max root error {worst:.2e} < 1e-9, all |z| >= 1; " + ", ".join(others))
    assert ok


def test_criterion_07_near_adiabatic_errors_and_edge_phase():
    """fig2: reconstruction RMS < 1e-2; near-edge approximation < 0.1 rad."""
    params = model.params_from_k(17)
    report, _ = experiments.run_reciprocity_case(
        params, experiments.PRESETS["fig2"]["grid_size"])
    s = trigpoly.offset_grid(16384)
    window = np.abs(s - np.pi / 2) <= 3.0 / 34.0
    sw = s[window]
    approx = itoh_unwrap(model.near_edge_phase(params, sw))
    exact = itoh_unwrap(np.angle(np.exp(1j * params.g * sw)
                                 * model.phi1_values(params, sw)))
    dev = approx - exact
    dev -= dev.mean()
    edge_dev = float(np.max(np.abs(dev)))
    ok = (report.rms_phase_error < 1e-2 and report.rms_logmod_error < 1e-2
          and edge_dev < 0.1)
    _line("7 (near-adiabatic: errors, edge phase)", ok,
          f"rms phase {report.rms_phase_error:.3e}, rms log-modulus "
          f"{report.rms_logmod_error:.3e}, both < 1e-2; near-edge approximation "
          f"max deviation {edge_dev:.4f} rad < 0.1")
    assert ok


def test_criterion_07_oscillation_period():
    """fig2: stated oscillation period pi/17, one-grid-cell tolerance.

    Implemented as stated; fails because the reconstructed (and exact) phase
    undulations are Rabi oscillations at twice the gap frequency: measured
    peak spacing pi/34, exactly half the stated target.
    """
    params = model.params_from_k(17)
    signals = model.evaluate_model(params, 16384)
    s = signals.grid
    h = s[1] - s[0]
    ph_rec = hilbert.phase_from_modulus(signals.log_modulus)
    zone = (s > np.pi / 2 + 0.03) & (s < np.pi / 2 + 0.8)
    peaks = experiments.peak_positions(s[zone], ph_rec[zone], prominence=0.02)
    period = float(np.median(np.diff(peaks)))
    stated = np.pi / 17.0
    ok = abs(period - stated) <= h
    _line("7 (oscillation period, as stated)", ok,
          f"measured period {period:.6f}, stated pi/17 = {stated:.6f}, "
          f"|diff| = {abs(period - stated):.2e} vs one cell = {h:.2e}; "
          f"measured equals pi/34 = {np.pi/34:.6f} (Rabi undulations at twice "
          f"the gap frequency) to {abs(period - np.pi/34):.1e}")
    assert ok, (
        f"measured oscillation period {period:.6f} is pi/(2k) = {np.pi/34:.6f}, "
        f"not the stated pi/k = {stated:.6f}: the phase undulations ride at twice "
        f"the gap frequency (2K), so the stated target is unattainable by a "
        f"factor of two")


def test_criterion_08_noncyclic_notes_and_gibbs():
    """fig3: report flags the violated assumptions and Gibbs artifacts."""
    params = model.derive_params(np.sqrt(1100.0))
    report, _ = experiments.run_reciprocity_case(params, 16384)
    ok = ("assumptions violated" in report.notes
          and report.gibbs_peak_positions is not None
          and report.matched_peak_count and report.matched_peak_count > 5)
    _line("8 (non-cyclic notes and Gibbs flags)", ok,
          f"notes record the violation; {report.matched_peak_count} peaks matched; "
          f"{len(report.gibbs_peak_positions)} outside peaks flagged as Gibbs "
          f"artifacts at {report.gibbs_peak_positions}")
    assert ok


def test_criterion_08_peak_alignment():
    """fig3: stated one-grid-cell alignment of direct vs reconstructed peaks.

    Implemented as stated; fails because the theorem violation displaces the
    reconstructed oscillation train by ~13 cells (median) at grid 16384, a
    shift invisible at figure scale (~3% of one undulation period).  The
    figures are not grid-converged: the matcher's windows are fixed in cells,
    and from m = 8192 to 16384, 32768 and 65536 the matched peaks go
    20 -> 14 -> 3 -> 0.  The identical matcher aligns the valid cyclic k=17
    case to sub-cell accuracy.
    """
    params = model.derive_params(np.sqrt(1100.0))
    report, _ = experiments.run_reciprocity_case(params, 16384)
    ok = report.max_peak_offset_cells is not None and report.max_peak_offset_cells <= 1.0
    _line("8 (peak alignment, as stated)", ok,
          f"median offset {report.median_peak_offset_cells:.2f} cells, max "
          f"{report.max_peak_offset_cells:.2f} cells vs stated <= 1 cell; offsets "
          f"come from the non-cyclic reconstruction and are not grid-converged "
          f"(the matcher's windows are fixed in cells)")
    assert ok, (
        f"matched peak offsets (median {report.median_peak_offset_cells:.1f}, max "
        f"{report.max_peak_offset_cells:.1f} cells) exceed one grid cell; the "
        f"displacement comes from reconstructing a non-cyclic state; it is not "
        f"grid-converged, as the matcher's windows are fixed in cells")


def test_criterion_09_analytic_controls():
    """exp(e^{is}) round trip and the geometric log series."""
    s = trigpoly.offset_grid(4096)
    dev1 = np.max(np.abs(hilbert.phase_from_modulus(np.cos(s)) - np.sin(s)))
    dev2 = np.max(np.abs(hilbert.modulus_from_phase(np.sin(s)) - np.cos(s)))
    coeffs = hilbert.log_coefficients(1.0 / (1.0 - 0.5 * np.exp(1j * s)), 12, 4096)
    m = np.arange(1, 13)
    target = 0.5 ** m / m
    dev3 = max(np.max(np.abs(coeffs.A[1:] - target)),
               np.max(np.abs(coeffs.B[1:] - target)))
    ok = dev1 < 1e-8 and dev2 < 1e-8 and dev3 < 1e-8
    _line("9 (analytic controls)", ok,
          f"exp control round-trip devs {dev1:.2e}, {dev2:.2e} < 1e-8; "
          f"geometric coefficients dev {dev3:.2e} < 1e-8")
    assert ok


def test_criterion_10_negative_control():
    """A zero inside the unit disk must fail both gates."""
    bad = np.array([0.5, 1.0, 0.0])  # P(z) = 1/2 + z, root z = -1/2
    rc = trigpoly.root_check(trigpoly.HelicitySeries(bad))
    s = trigpoly.offset_grid(4096)
    coeffs = hilbert.log_coefficients(0.5 + np.exp(1j * s), 12, 4096)
    eq = hilbert.coefficient_equality_check(coeffs)
    ok = (not rc.passed) and eq.max_relative > 1e-2
    _line("10 (negative control)", ok,
          f"root gate fails (min |z| = {rc.min_modulus:.3f} < 1), coefficient "
          f"check fails (max relative discrepancy {eq.max_relative:.3e})")
    assert ok
