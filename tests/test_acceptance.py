"""End-to-end acceptance runs, one test per shipped guarantee.

Each test pins a scenario, asserts the advertised bound, enforces its
wall-clock budget, and prints a single PASS line with the measured
numbers (visible under ``pytest -s`` or in captured output).

Scenario notes live next to the assertions they justify; the common
theme is that every quantitative claim is checked at desk scale with
an explicit tolerance rather than eyeballed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from hartree_mix import dispersion as dsp
from hartree_mix import dynamics as dyn
from hartree_mix import green as grn
from hartree_mix import nonlinear as nl
from hartree_mix import stability as stb
from hartree_mix.pipeline import fit_decay
from hartree_mix.profiles import (
    Potential,
    delta_potential,
    gaussian_profile,
    screened_coulomb,
    shifted_l2_difference,
)

pytestmark = pytest.mark.acceptance


def _report(name: str, detail: str, elapsed: float, budget: float):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"PASS {name}: {detail} [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. the dispersion function is route-independent


def test_criterion_1_cross_route_dispersion(gauss3, coulomb):
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    n_samples = 0
    for _ in range(88):
        k = float(rng.uniform(0.05, 3.0))
        lam = complex(rng.uniform(0.02, 2.0), rng.uniform(-4.0, 4.0))
        a = dsp.dispersion_row(gauss3, coulomb, k, lam / k, 1e-11)[0][0]
        b = dsp.dispersion_time_integral(gauss3, coulomb, k, lam / k)[0][0]
        worst = max(worst, abs(a - b))
        n_samples += 1

    # boundary ladder: extrapolate the interior form onto Re lambda = 0 and
    # meet the jump formula there
    for k, tt in ((0.7, 0.9), (1.3, -1.7), (0.4, 2.1)):
        pl = dsp.dispersion_row(gauss3, coulomb, k, 1j * tt, 1e-11)[0][0]
        vals = list(dsp.dispersion_row(
            gauss3, coulomb, k, 1.6e-2 / 2.0 ** np.arange(5) / k + 1j * tt,
            1e-11)[0])
        for j in range(1, 5):
            vals = [(2 ** j * vals[i + 1] - vals[i]) / (2 ** j - 1)
                    for i in range(len(vals) - 1)]
        worst = max(worst, abs(vals[0] - pl))
        n_samples += 4

    assert worst <= 1e-6
    _report("criterion 1 (cross-route dispersion)",
            f"{n_samples} samples, worst route disagreement {worst:.3e} <= 1e-6",
            time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 2. stability verdicts across the equilibrium families


def test_criterion_2_stability_verdicts(gauss3, fermi3, fermi5, coulomb):
    t0 = time.time()
    cert = stb.certify(gauss3, coulomb)
    assert cert["verdict"] == "Stable"
    assert cert["theta0"] is not None and cert["theta0"] > 0.0
    assert cert["windings"] and all(w["winding"] == 0
                                    for w in cert["windings"])

    flagged = stb.certify(fermi3, delta_potential(0.1))
    assert flagged["verdict"] == "CriterionDiverges"

    # the d = 5 family crosses at coupling 3 / (2 pi^2) ~ 0.152
    low = stb.certify(fermi5, delta_potential(0.1))
    high = stb.certify(fermi5, delta_potential(0.2))
    assert low["verdict"] == "Stable"
    assert high["verdict"] == "Unstable"
    assert high["zero_location"] is not None
    abs_d = high["zero_location"]["abs_D"]
    assert abs_d is not None and abs_d < 1e-8

    _report("criterion 2 (stability verdicts)",
            f"Stable theta0={cert['theta0']:.4f}, divergence flagged, "
            f"coupling flip with |D| = {abs_d:.2e} at zero",
            time.time() - t0, 300.0)


# ---------------------------------------------------------------------------
# 3. static bound and the real branch


def test_criterion_3_static_bound_and_real_branch(gauss3, fermi5, coulomb):
    t0 = time.time()
    rng = np.random.default_rng(3)
    min_static = np.inf
    worst_imag = 0.0
    worst_even = 0.0
    w5 = delta_potential(0.1)
    for _ in range(40):
        k = float(rng.uniform(0.05, 2.5))
        v = dsp.dispersion_row(gauss3, coulomb, k, 0.0j, 1e-10)[0][0]
        min_static = min(min_static, v.real)
        worst_imag = max(worst_imag, abs(v.imag))
        tt = 2.0 * fermi5.upsilon + k + float(rng.uniform(0.3, 3.0))
        vp = dsp.dispersion_row(fermi5, w5, k, 1j * tt, 1e-11)[0][0]
        vm = dsp.dispersion_row(fermi5, w5, k, -1j * tt, 1e-11)[0][0]
        worst_imag = max(worst_imag, abs(vp.imag), abs(vm.imag))
        worst_even = max(worst_even, abs(vp - vm))

    assert min_static >= 1.0
    assert worst_imag == 0.0
    assert worst_even == 0.0
    _report("criterion 3 (static bound, real branch)",
            f"min D(0,k) = {min_static:.4f} >= 1, imaginary part and "
            f"evenness defect exactly 0 over 40 draws",
            time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 4. Green function decay


def _terminal_slope(t_grid, values, tol):
    """Fitted slope over the last eight resolved envelope blocks.

    Block maxima below 100x the synthesis tolerance are quadrature noise,
    not signal.  A row with fewer than eight resolved blocks has decayed
    past the resolution of the table; the caller then certifies it by the
    time-domain march instead (None return).
    """
    floor = 100.0 * tol
    env = grn.dyadic_envelope(t_grid, values, t_min=2.0, ratio=2.0 ** 0.25)
    env = env[env[:, 0] <= 100.0]
    above = env[env[:, 1] > floor]
    if above.shape[0] == 0:
        return None
    rows = above[-8:]
    if rows.shape[0] < 8:
        return None
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
    return float(slope)


def test_criterion_4_green_decay(gauss3, coulomb):
    t0 = time.time()
    tol = 1e-8
    ts = np.linspace(0.0, 100.0, 2001)
    tab = grn.green_table(gauss3, coulomb, np.array([0.2, 1.0, 5.0]), ts,
                          tol=tol)
    window = (ts >= 2.0) & (ts <= 100.0)
    details = []
    for i, k in enumerate(tab.k_grid):
        vals = np.abs(tab.values[i])
        slope = _terminal_slope(ts, vals, tol)
        if slope is None:
            # Too few resolved blocks to fit: the row has sunk under the
            # synthesis noise floor.  Certify that by the independent
            # time-domain march, which has no synthesis aliasing and so
            # resolves exponentially small rows down to rounding.
            kern = dyn.volterra_kernel(gauss3, coulomb, float(k), ts)
            marched = dyn.volterra_march(kern, -kern, ts[1] - ts[0])
            march_peak = float(np.max(np.abs(marched[window])))
            assert march_peak <= 100.0 * tol
            synth_peak = float(np.max(vals[window]))
            assert synth_peak <= 1000.0 * tol  # noise, but bounded noise
            details.append(f"k={k:g} below floor (march {march_peak:.1e}, "
                           f"synthesis noise {synth_peak:.1e})")
        else:
            assert slope <= -3.0
            details.append(f"k={k:g} slope {slope:.3f}")

    peak_ts = np.linspace(0.0, 40.0, 801)
    peak_tab = grn.green_table(gauss3, coulomb,
                               np.array([0.05, 0.1, 0.2, 0.4]), peak_ts,
                               tol=tol)
    peaks = np.max(np.abs(peak_tab.values), axis=1)
    assert np.all(np.diff(peaks) > 0.0)  # shrinking k shrinks the response

    _report("criterion 4 (green decay)",
            "; ".join(details) + f"; peaks {np.round(peaks, 4).tolist()} "
            "monotone in k",
            time.time() - t0, 300.0)


# ---------------------------------------------------------------------------
# 5. free and linear phase-mixing exponents


def test_criterion_5_phase_mixing_exponents(gauss3):
    t0 = time.time()
    g0 = dyn.InitialKernel(d=3, alpha=1.0, epsilon=np.pi ** 3)
    w = screened_coulomb(0.1, 1.0)
    ks = np.linspace(0.004, 2.0, 250)
    ts = np.linspace(0.0, 55.0, 551)
    free = dyn.free_density_trajectory(g0, ks, ts)
    lin = dyn.volterra_solve(gauss3, w, free)

    bands = {0: (-3.0, 0.3), 1: (-4.0, 0.3), 2: (-5.0, 0.4)}
    details = []
    for n, (target, halfw) in bands.items():
        sf = fit_decay(dyn.reconstruct_sup_norm(free, 3, n),
                       window=(5.0, 50.0))["slope"]
        sl = fit_decay(dyn.reconstruct_sup_norm(lin, 3, n),
                       window=(5.0, 50.0))["slope"]
        assert abs(sf - target) <= halfw, f"free n={n}: {sf:.3f}"
        assert abs(sl - target) <= halfw, f"linear n={n}: {sl:.3f}"
        assert abs(sf - sl) <= halfw
        details.append(f"n={n}: free {sf:.2f} / linear {sl:.2f}")

    _report("criterion 5 (phase-mixing exponents)",
            "; ".join(details) + " within -3/-4/-5 bands",
            time.time() - t0, 300.0)


# ---------------------------------------------------------------------------
# 6. two independent linear solvers meet


def test_criterion_6_two_solver_agreement(gauss3, coulomb):
    t0 = time.time()
    ks = np.array([0.5, 1.0])
    dt = 1e-3
    ts = np.arange(0.0, 10.0 + dt / 2, dt)
    src = np.exp(-ts)[None, :] * np.exp(-ks * ks)[:, None] + 0.0j
    src /= np.max(np.abs(src))
    S = dyn.DensityTrajectory(k_grid=ks, t_grid=ts, rho_hat=src)

    direct = dyn.volterra_solve(gauss3, coulomb, S)
    tab = grn.green_table(gauss3, coulomb, ks, ts, tol=1e-8)
    via_green = grn.convolve_green(tab, S)
    diff = float(np.max(np.abs(direct.rho_hat - via_green.rho_hat)))

    assert diff <= 1e-6
    _report("criterion 6 (two-solver agreement)",
            f"volterra vs green convolution, sup difference {diff:.3e} <= 1e-6",
            time.time() - t0, 120.0)


# ---------------------------------------------------------------------------
# 7. nonlinear structural suite


def test_criterion_7_nonlinear_structure(gauss1):
    t0 = time.time()
    eps = 1e-2
    f1 = gaussian_profile(1)
    w = screened_coulomb(0.5, 1.0)

    # the nonlinear group's default grid at d = 1, with N1 = N2 = 2
    grid = dict(k_box=4.0, n_pts=33, dt=0.1, t_max=30.0, n1=2, n2=2)

    def kernel(amplitude):
        return dyn.InitialKernel(d=1, alpha=0.125, epsilon=amplitude)

    profile, rho, _, report = nl.solve_selfconsistent(kernel(eps), f1, w,
                                                      **grid)
    max_ratio = max(report.contraction_factors)
    herm = profile.hermitian_defect
    assert max_ratio < 0.5
    assert herm <= 1e-10

    free = dyn.free_density_trajectory(kernel(eps), np.abs(profile.axis),
                                       profile.t_grid)
    lin = dyn.volterra_solve(gauss1, w, free)
    lin_gap = float(np.max(np.abs(rho.rho_hat - lin.rho_hat)))
    assert lin_gap <= 10.0 * eps ** 2

    w0 = Potential("zero",
                   lambda k: np.zeros_like(np.asarray(k, dtype=float)), 0.0)
    profile0, _, _, _ = nl.solve_selfconsistent(kernel(eps), f1, w0, **grid)
    hs_spread = float(np.ptp(profile0.hs_norms))
    assert hs_spread == 0.0

    rows = profile.scattering
    vals = [r[1] for r in rows]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    profile_h, _, _, _ = nl.solve_selfconsistent(kernel(eps / 2), f1, w,
                                                 **grid)
    ratio = profile_h.scattering[0][1] / vals[0]
    assert 0.3 < ratio < 0.7

    _report("criterion 7 (nonlinear structure)",
            f"contraction {max_ratio:.3f} < 1/2, hermitian defect "
            f"{herm:.1e}, linear gap {lin_gap:.2e} <= {10 * eps ** 2:.0e}, "
            f"HS spread 0 at zero coupling, scattering monotone, "
            f"half-data ratio {ratio:.3f}",
            time.time() - t0, 900.0)


@pytest.mark.slow
def test_criterion_7_optional_d3_run():
    t0 = time.time()
    g0 = dyn.InitialKernel(d=3, alpha=0.125, epsilon=1e-2)
    with pytest.warns(RuntimeWarning, match="d = 3 nonlinear run"):
        profile, _, _, report = nl.solve_selfconsistent(
            g0, gaussian_profile(3), screened_coulomb(0.5, 1.0),
            k_box=4.0, n_pts=9, dt=0.1, t_max=3.0, n1=4, n2=4)
    assert profile.hermitian_defect <= 1e-10
    assert max(report.contraction_factors) < 0.9
    _report("criterion 7 addendum (d = 3 coarse box)",
            f"hermitian defect {profile.hermitian_defect:.1e}, "
            f"contraction {max(report.contraction_factors):.3f}",
            time.time() - t0, 900.0)


# ---------------------------------------------------------------------------
# 8. marginal properties


def test_criterion_8_marginal_properties(gauss3, fermi5):
    t0 = time.time()
    u = np.linspace(0.05, 3.0, 60)
    assert np.max(np.abs(gauss3.phi(u) - np.pi * np.exp(-u * u))) < 1e-10
    t = np.linspace(0.0, 8.0, 60)
    want_hat = np.pi ** 1.5 * np.exp(-t * t / 4.0)
    assert np.max(np.abs(gauss3.phi_hat(t) - want_hat)) < 1e-8

    for m in (gauss3, fermi5):
        hi = min(m.upsilon, 4.0)
        uu = np.linspace(0.05, hi - 0.05, 40)
        assert np.max(np.abs(m.phi(uu) - m.phi(-uu))) < 1e-12
        assert np.all(m.dphi(uu) < 0.0)

    prof = gaussian_profile(3)
    r1 = shifted_l2_difference(prof, 1e-2) / 1e-4
    r2 = shifted_l2_difference(prof, 1e-3) / 1e-6
    assert abs(r1 - r2) < 1e-2 * abs(r2)

    _report("criterion 8 (marginal properties)",
            f"closed forms, evenness, monotonicity, shift ratio "
            f"{r2:.2f} stable under h -> h/10",
            time.time() - t0, 60.0)
