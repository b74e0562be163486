"""Green function tabulation.

The row synthesis is validated against a genuinely independent route:
the regular part solves G + K*G = -K in the time domain, so a Volterra
march over the same kernel must land on the synthesized table.  The
envelope utility gets exact power-law checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import wofz

from hartree_mix.dispersion import dispersion_row, m_f
from hartree_mix.dynamics import DensityTrajectory, volterra_kernel, volterra_march
from hartree_mix.green import (
    GreenTable,
    GridMismatch,
    NearZeroDivisor,
    convolve_green,
    dyadic_envelope,
    green_table,
)
from hartree_mix.profiles import Potential, screened_coulomb
from hartree_mix.quadrature import UnresolvedOscillation


class TestBoundaryValues:
    def test_matches_interior_limit(self, gauss3):
        taus = np.array([0.9, 2.3])
        bd = m_f(gauss3, 0.7, taus)[0]
        interior = m_f(gauss3, 0.7, taus, gamma=1e-6)[0]
        assert np.max(np.abs(bd - interior)) < 1e-4


class TestMfClosedForm:
    """m_f, and D = 1 + w_hat(k) m_f from dispersion_row, against the
    Faddeeva function on the d = 1 Gaussian marginal.

    There phi_hat(t) = sqrt(pi) exp(-t^2/4), so with b = lambda -+ i k^2
    each half-line integral int_0^inf exp(-b t - k^2 t^2) dt is
    I(b) = (sqrt(pi)/2k) w(i b/2k), and m_f = -i sqrt(pi) [I(lambda - i k^2)
    - I(lambda + i k^2)].
    """

    @staticmethod
    def _closed_form(k, lam):
        half = lambda b: np.sqrt(np.pi) / (2.0 * k) * wofz(1j * b / (2.0 * k))
        return -1j * np.sqrt(np.pi) * (half(lam - 1j * k * k)
                                       - half(lam + 1j * k * k))

    @pytest.mark.parametrize("k", [0.1, 0.7, 2.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 5.0])
    def test_matches_faddeeva(self, gauss1, k, gamma):
        taus = np.linspace(-3.0, 3.0, 17)
        got, err = m_f(gauss1, k, taus, gamma)
        want = self._closed_form(k, gamma + 1j * taus)
        assert np.max(np.abs(got - want)) < 1e-10
        assert 0.0 <= err <= 1e-10

    @pytest.mark.parametrize("k", [0.05, 0.2, 1.0, 2.0])
    @pytest.mark.parametrize("lam_tilde", [
        1j * np.linspace(0.0, 40.0, 201), np.array([0.5, 0.1, 0.02]) + 0.5j])
    def test_dispersion_row_matches_faddeeva(self, gauss1, gauss3, k,
                                             lam_tilde):
        # D = 1 + w_hat(k) m_f at lambda = k lambda_tilde; the d = 3
        # Gaussian marginal is pi times the d = 1 one
        w = screened_coulomb(0.5, 1.0)
        for m, c in ((gauss1, 1.0), (gauss3, np.pi)):
            got = dispersion_row(m, w, k, lam_tilde)[0]
            want = 1.0 + w(k) * c * self._closed_form(k, k * lam_tilde)
            assert np.max(np.abs(got - want)) < 1e-11

    def test_rejects_negative_gamma(self, gauss1):
        with pytest.raises(ValueError):
            m_f(gauss1, 0.7, np.array([0.0, 1.0]), gamma=-0.1)


class TestRowSynthesis:
    def test_time_domain_march_agrees(self, gauss3, coulomb):
        # independent route: march the renewal equation for the regular part
        k = 0.2
        dt = 0.01
        t = np.arange(0.0, 25.0 + dt / 2, dt)
        row = green_table(gauss3, coulomb, [k], t, tol=1e-8).values[0]
        kern = volterra_kernel(gauss3, coulomb, k, t)
        marched = volterra_march(kern, -kern, dt)
        assert np.max(np.abs(row - marched)) < 2e-5

    def test_unmet_gap_raises_on_compact_support(self, fermi3):
        # phi_hat of the d = 3 zero-temperature marginal decays too slowly
        # for the sample cap: the rows would be off by ~4e-2
        with pytest.raises(UnresolvedOscillation):
            m_f(fermi3, 0.5, np.array([0.7, 1.3]))

    def test_positive_k_required(self, gauss3):
        for k in (0.0, -0.5):
            with pytest.raises(ValueError):
                m_f(gauss3, k, np.array([0.0, 1.0]))

    def test_zero_k_and_zero_coupling_rows_are_zero(self, gauss3, coulomb):
        # the k = 0 row is the continuous limit of the |k|-prefixed symbol,
        # and a row where w_hat(k) = 0 has no response; neither is
        # synthesized
        ts = np.linspace(0.0, 5.0, 51)
        cut = Potential("cut", lambda k: np.where(np.asarray(k) > 0.4,
                                                  0.0, 1.0), 1.0)
        for w, ks in ((coulomb, [0.0]), (cut, [0.0, 0.5])):
            tab = green_table(gauss3, w, ks, ts)
            assert np.all(tab.values == 0.0)
            assert tab.tau_max_used == 0.0

    def test_floor_guards_the_division(self, gauss3):
        # a weak coupling keeps |D| >= 0.934 at k = 1: under the floor
        # theta0/2 = 1.5, over 0.25
        ts = np.linspace(0.0, 5.0, 51)
        w = screened_coulomb(0.1, 1.0)
        with pytest.raises(NearZeroDivisor,
                           match=r"\|D\| = 0.934 below floor 1.5 at k = 1"):
            green_table(gauss3, w, [1.0], ts, theta0=3.0)
        assert green_table(gauss3, w, [1.0], ts, theta0=0.5).theta0 == 0.5

    def test_table_shape_and_metadata(self, gauss3, coulomb):
        ks = np.array([0.3, 0.8])
        ts = np.linspace(0.0, 5.0, 51)
        tab = green_table(gauss3, coulomb, ks, ts, tol=1e-6)
        assert isinstance(tab, GreenTable)
        assert tab.values.shape == (2, 51)
        assert tab.tau_max_used > 0.0
        assert np.all(np.isfinite(tab.values))


class TestConvolution:
    def _source(self):
        ts = np.linspace(0.0, 4.0, 81)
        ks = np.array([0.5, 1.0])
        rho = np.exp(-ts)[None, :] * np.exp(-ks * ks)[:, None] + 0.0j
        return DensityTrajectory(k_grid=ks, t_grid=ts, rho_hat=rho)

    def test_zero_kernel_is_identity(self):
        src = self._source()
        tab = GreenTable(k_grid=src.k_grid, t_grid=src.t_grid,
                         values=np.zeros_like(src.rho_hat),
                         theta0=0.0, tau_max_used=0.0)
        out = convolve_green(tab, src)
        assert np.array_equal(out.rho_hat, src.rho_hat)

    def test_grid_mismatch_raises(self):
        src = self._source()
        tab = GreenTable(k_grid=src.k_grid, t_grid=src.t_grid[:-1],
                         values=np.zeros((2, 80), dtype=complex),
                         theta0=0.0, tau_max_used=0.0)
        with pytest.raises(GridMismatch):
            convolve_green(tab, src)


class TestEnvelope:
    def test_exact_power_law_blocks(self):
        t = np.linspace(0.5, 120.0, 4000)
        env = dyadic_envelope(t, t ** -3.0, t_min=1.0)
        assert env.shape[1] == 2
        assert np.all(np.diff(env[:, 0]) > 0.0)
        # block maxima of a decreasing signal are the left-edge values, so
        # consecutive ratios reproduce the power
        slopes = np.diff(np.log(env[:, 1])) / np.diff(np.log(env[:, 0]))
        # the final block is cut off by the end of the grid, which skews its
        # geometric-midpoint abscissa; judge only the full octaves
        assert np.max(np.abs(slopes[:-1] + 3.0)) < 0.05

    def test_ratio_controls_block_count(self):
        t = np.linspace(1.0, 100.0, 2000)
        coarse = dyadic_envelope(t, np.exp(-t), t_min=2.0)
        fine = dyadic_envelope(t, np.exp(-t), t_min=2.0, ratio=2 ** 0.25)
        assert fine.shape[0] > 2 * coarse.shape[0]

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            dyadic_envelope(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                            ratio=1.0)
