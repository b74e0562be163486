"""Stability certification chain.

The zero-temperature family in d = 5 with a delta coupling has a
closed-form criterion value 1 - 2 pi^2 g / 3, which makes it the exact
oracle for the criterion integral and the verdict flip.  The Gaussian
case pins the stable path, the d = 3 zero-temperature case the
divergence flag.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hartree_mix import stability
from hartree_mix.profiles import delta_potential, screened_coulomb
from hartree_mix.stability import (
    ContourTooCoarse,
    certify,
    criterion_integral,
    find_imaginary_zero,
    phi_curve,
    winding_number,
)

# Phi(k) for the d = 5 zero-temperature profile at coupling 0.2
PHI_D5_G02 = {
    0.02: -0.1897,
    0.05: -0.081389,
    0.075: -0.014468,
    0.1: 0.040659,
    0.3: 0.302152,
    1.0: 0.615502,
}


class TestCriterionIntegral:
    def test_d5_closed_form(self, fermi5):
        for g in (0.05, 0.1, 0.2):
            r = criterion_integral(fermi5, delta_potential(g))
            assert r.kind == "finite"
            assert abs(r.value - (1.0 - 2.0 * np.pi ** 2 * g / 3.0)) < 1e-7

    def test_d4_closed_form(self, fermi4):
        # int_{-1}^{1} (4 pi / 3) (1 - u^2)^{3/2} / (1 - u)^2 du = 2 pi^2:
        # the end cell on Upsilon carries a (1 - u)^{-1/2} singularity
        r = criterion_integral(fermi4, delta_potential(0.05))
        assert r.kind == "finite"
        assert abs(r.value - (1.0 - 0.05 * np.pi ** 2)) < 1e-11

    def test_d3_divergence_flag(self, fermi3):
        # phi/(1 - u)^2 ~ pi/(1 - u): every shell toward 1 holds 2 pi ln 2
        r = criterion_integral(fermi3, delta_potential(0.1))
        assert r.kind == "divergent"
        assert r.value is None
        assert abs(r.shell_slope) < 1e-5

    def test_d1_divergence_flag(self, fermi1):
        # phi = 1 up to the edge: every shell of 1/(1 - u)^2 doubles
        r = criterion_integral(fermi1, delta_potential(0.1))
        assert r.kind == "divergent"
        assert abs(r.shell_slope - 1.0) < 1e-5

    def test_criterion_is_the_branch_edge_at_k_zero(self, fermi5):
        # Phi(k) = 1 - (g/2) int phi/((1 - u)(1 + k - u)) du tends to
        # Phi(0) as k -> 0, falling monotonically on dyadic k
        w = delta_potential(0.2)
        phi0 = criterion_integral(fermi5, w).value
        ks = 2.0 ** -np.array([4, 6, 8, 10])
        gaps = phi_curve(fermi5, w, ks)[:, 1] - phi0
        assert np.all(gaps > 0.0) and np.all(np.diff(gaps) < 0.0)
        assert gaps[-1] < 0.02

    def test_unbounded_support_is_vacuous(self, gauss3, coulomb):
        r = criterion_integral(gauss3, coulomb)
        assert r.kind == "vacuous"


class TestPhiCurve:
    def test_frozen_values(self, fermi5):
        w = delta_potential(0.2)
        curve = phi_curve(fermi5, w, sorted(PHI_D5_G02))
        for (k, got) in curve:
            assert abs(got - PHI_D5_G02[round(float(k), 4)]) < 1e-4

    def test_needs_compact_support(self, gauss3, coulomb):
        with pytest.raises(ValueError):
            phi_curve(gauss3, coulomb, [0.1, 0.2])


class TestWinding:
    def test_stable_rectangle_is_empty(self, gauss3, coulomb):
        wc = winding_number(gauss3, coulomb, 0.5, (0.05, 1.5, -2.0, 2.0))
        assert wc.winding == 0
        assert wc.min_abs_on_contour > 0.0
        assert abs(wc.residual) < 0.05

    @pytest.mark.parametrize("z0, want", [(0.0502 + 0.3j, 1),
                                          (0.0498 + 0.3j, 0)])
    def test_insertion_resolves_a_zero_by_the_contour(self, gauss3, coulomb,
                                                      monkeypatch, z0, want):
        # a symbol with one zero a hair from the left edge: the phase jumps
        # there until inserted nodes resolve it, and the count is exact
        def row(m, w, k, lam_tilde, tol_abs):
            lt = np.asarray(lam_tilde, dtype=complex)
            return (lt - z0) / (lt + 1.0), np.zeros(lt.size)

        monkeypatch.setattr(stability, "dispersion_row", row)
        wc = winding_number(gauss3, coulomb, 0.5, (0.05, 1.5, -2.0, 2.0))
        assert wc.winding == want
        assert wc.nodes > 256

    def test_contour_budget(self, gauss3, coulomb):
        with pytest.raises(ContourTooCoarse):
            winding_number(gauss3, coulomb, 0.5, (0.05, 1.5, -2.0, 2.0),
                           max_nodes=8)

    def test_rejects_left_half_plane(self, gauss3, coulomb):
        with pytest.raises(ValueError):
            winding_number(gauss3, coulomb, 0.5, (-0.1, 1.0, -1.0, 1.0))


class TestZeroHunt:
    def test_unstable_coupling_zero_location(self, fermi5):
        w = delta_potential(0.2)
        tt = find_imaginary_zero(fermi5, w, 0.02)
        assert tt is not None
        assert abs(tt - 2.072680026580439) < 1e-6

    def test_stable_coupling_finds_none(self, fermi5):
        w = delta_potential(0.1)
        assert find_imaginary_zero(fermi5, w, 0.02) is None

    def test_bracket_doubles_past_its_first_end(self, fermi5):
        # at coupling 5 the zero lies at 7.374, past the first bracket end
        # 2 Upsilon + k + 1 = 3.1, so the end doubles twice before the
        # bisection starts
        from hartree_mix.dispersion import dispersion_row
        w, k = delta_potential(5.0), 0.1
        tt = find_imaginary_zero(fermi5, w, k)
        assert 2.0 * fermi5.upsilon + k + 1.0 < tt
        assert abs(tt - 7.374) < 1e-3
        assert abs(dispersion_row(fermi5, w, k, 1j * tt)[0][0]) < 1e-8


class TestCertify:
    def test_gaussian_coulomb_stable(self, gauss3, coulomb):
        cert = certify(gauss3, coulomb)
        assert cert.verdict == "Stable"
        assert cert.theta0 is not None and 0.15 < cert.theta0 < 0.25
        assert all(wc.winding == 0 for wc in cert.winding_checks)

    def test_binding_inter_row_gap_inserts_k_rows(self, gauss3,
                                                  monkeypatch):
        # the dense boundary scan samples k = 0 and 24 geometric k rows; at
        # coupling 2 the gap between two adjacent rows binds the continuity
        # floor, and certify inserts k rows until it no longer does
        def dense_rows(coupling):
            sizes = []
            row = stability.dispersion_row

            def counted(*args):
                sizes.append(np.size(args[3]))
                return row(*args)
            monkeypatch.setattr(stability, "dispersion_row", counted)
            cert = certify(gauss3, screened_coulomb(coupling, 1.0))
            monkeypatch.undo()
            return cert, sizes.count(max(sizes))

        assert dense_rows(0.1)[1] == 25
        cert, rows = dense_rows(2.0)
        assert rows == 25 + 3
        assert cert.verdict == "Stable"
        assert cert.theta0 == pytest.approx(0.0269920617, rel=1e-6)

    def test_d3_zero_temperature_divergence(self, fermi3):
        cert = certify(fermi3, delta_potential(0.1))
        assert cert.verdict == "CriterionDiverges"
        assert cert.notes

    def test_d4_zero_temperature_stable(self, fermi4):
        # an algebraic edge phi ~ (1 - u)^3/2: uniform panels ran out of
        # budget here; the pointwise scan before the row engine gave this
        # theta0 to 12 digits
        cert = certify(fermi4, delta_potential(0.05))
        assert cert.verdict == "Stable"
        assert abs(cert.theta0 - 0.4818307635452) < 1e-8

    def test_unstable_hunt_evaluates_phi_once_per_layout(self, fermi5):
        # every real-branch row of the zero hunt, and the criterion at its
        # k = 0 edge, sums phi on the same graded layouts; the memo of
        # quadrature.layout_values evaluates each once (167 evaluations on
        # layouts when every row took its own, 4 now: the memo's two
        # misses, and end_cell_correction for the criterion and for
        # Phi(0.02) on a layout of its own)
        sizes = []
        phi = fermi5.phi
        counted = dataclasses.replace(
            fermi5, phi=lambda u: sizes.append(np.size(u)) or phi(u))
        cert = certify(counted, delta_potential(0.2))
        assert cert.verdict == "Unstable"
        # the smallest graded layout holds 16 panels plus 78 shells
        assert sum(n >= 16 * 94 for n in sizes) <= 4

    @pytest.mark.slow
    def test_d5_coupling_flip(self, fermi5):
        stable = certify(fermi5, delta_potential(0.1))
        unstable = certify(fermi5, delta_potential(0.2))
        assert stable.verdict == "Stable"
        assert unstable.verdict == "Unstable"
        assert unstable.zero_residual is not None
        assert unstable.zero_residual < 1e-8


class TestZeroHuntOracle:
    @pytest.mark.parametrize("k", [0.02, 0.03, 0.05])
    def test_bisection_matches_brentq(self, fermi5, k):
        # brentq, which the package no longer imports, on the same real
        # branch and the same tolerances
        from scipy.optimize import brentq

        from hartree_mix.dispersion import dispersion_row
        w = delta_potential(0.2)
        tau0 = 2.0 * fermi5.upsilon + k
        g = lambda t: dispersion_row(fermi5, w, k, 1j * t, 1e-11)[0][0].real
        oracle = brentq(g, tau0 + 1e-13 * tau0, tau0 + 1.0, xtol=1e-12,
                        rtol=8.9e-16)
        tt = find_imaginary_zero(fermi5, w, k)
        assert abs(tt - oracle) <= 1e-12
        assert abs(dispersion_row(fermi5, w, k, 1j * tt)[0][0]) < 1e-8
