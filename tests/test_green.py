"""Green function tabulation.

The row synthesis is validated against a genuinely independent route:
the regular part solves G + K*G = -K in the time domain, so a Volterra
march over the same kernel must land on the synthesized table.  The
envelope utility gets exact power-law checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from hartree_mix.dynamics import DensityTrajectory, volterra_kernel, volterra_march
from hartree_mix.green import (
    GreenTable,
    GridMismatch,
    convolve_green,
    dyadic_envelope,
    green_table,
    m_f,
    m_f_boundary,
)
from hartree_mix.quadrature import UnresolvedOscillation


class TestBoundaryValues:
    def test_matches_interior_limit(self, gauss3):
        taus = np.array([0.9, 2.3])
        bd = np.asarray(m_f_boundary(gauss3, 0.7, taus))
        for i, t in enumerate(taus):
            interior = m_f(gauss3, 1e-6 + 1j * t, 0.7).value
            assert abs(bd[i] - interior) < 1e-4


class TestRowSynthesis:
    def test_time_domain_march_agrees(self, gauss3, coulomb):
        # independent route: march the renewal equation for the regular part
        k = 0.2
        dt = 0.01
        t = np.arange(0.0, 25.0 + dt / 2, dt)
        row = green_table(gauss3, coulomb, [k], t, tol=1e-8,
                          tail_tol=1e-7).values[0]
        kern = volterra_kernel(gauss3, coulomb, k, t)
        marched = volterra_march(kern, -kern, dt)
        assert np.max(np.abs(row - marched)) < 2e-5

    def test_unmet_gap_raises_on_compact_support(self, fermi3):
        # phi_hat of the d = 3 zero-temperature marginal decays too slowly
        # for the sample cap: the rows would be off by ~4e-2
        with pytest.raises(UnresolvedOscillation):
            m_f_boundary(fermi3, 0.5, np.array([0.7, 1.3]))

    def test_positive_k_required(self, gauss3):
        with pytest.raises(ValueError):
            m_f_boundary(gauss3, 0.0, np.array([0.0, 1.0]))

    def test_table_shape_and_metadata(self, gauss3, coulomb):
        ks = np.array([0.3, 0.8])
        ts = np.linspace(0.0, 5.0, 51)
        tab = green_table(gauss3, coulomb, ks, ts, tol=1e-6, tail_tol=1e-5)
        assert isinstance(tab, GreenTable)
        assert tab.values.shape == (2, 51)
        assert tab.tau_max_used > 0.0
        assert np.all(np.isfinite(tab.values))


class TestConvolution:
    def _source(self):
        ts = np.linspace(0.0, 4.0, 81)
        ks = np.array([0.5, 1.0])
        rho = np.exp(-ts)[None, :] * np.exp(-ks * ks)[:, None] + 0.0j
        return DensityTrajectory(k_grid=ks, t_grid=ts, rho_hat=rho,
                                 kind="radial", meta={"d": 3})

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
