"""Quadrature layer against closed forms.

Every rule here has an analytic oracle: Gaussian Fourier transforms,
Laplace transforms of simple exponentials, polynomials.  Tolerances sit
well above observed errors but far below anything a broken rule could
reach.  The Cauchy-integral oracles live with the row engine in
test_dispersion.py.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hartree_mix import quadrature
from hartree_mix.quadrature import (
    EvaluationBudgetExceeded,
    fast_len,
    filon_transform,
    filon_weights,
    graded_layout,
    refine_filon,
)


class TestFilonTransform:
    def test_gaussian_closed_form(self):
        # int exp(-x^2) exp(-i w x) dx = sqrt(pi) exp(-w^2/4)
        n = 2049
        x0, x1 = -8.0, 8.0
        h = (x1 - x0) / (n - 1)
        f = np.exp(-(x0 + h * np.arange(n)) ** 2)
        for om in (0.0, 1.0, 5.3, 11.0):
            got = filon_transform(f, x0, h, om)
            want = np.sqrt(np.pi) * np.exp(-om * om / 4.0)
            assert abs(got - want) < 1e-10

    def test_decayed_frequencies_stay_quiet(self):
        # past the band limit the true value is ~0; the rule must not ring
        n = 2049
        h = 16.0 / (n - 1)
        f = np.exp(-(-8.0 + h * np.arange(n)) ** 2)
        got = filon_transform(f, -8.0, h, np.array([40.0, 200.0]))
        assert np.max(np.abs(got)) < 1e-6

    def test_exact_on_quadratics(self):
        # the rule integrates its own interpolant; a quadratic is reproduced
        # at any frequency, even with only five samples
        x0, h, n = -1.0, 1.0, 5

        def f(x):
            return 2.0 * x * x - 3.0 * x + 0.5

        fv = f(x0 + h * np.arange(n))
        om = 7.3
        re = quad(lambda x: f(x) * np.cos(om * x), -1.0, 3.0, limit=200)[0]
        im = quad(lambda x: -f(x) * np.sin(om * x), -1.0, 3.0, limit=200)[0]
        got = filon_transform(fv, x0, h, om)
        assert abs(got - (re + 1j * im)) < 5e-12

    def test_weights_reproduce_transform(self):
        rng = np.random.default_rng(7)
        n = 33
        fv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        oms = np.array([0.0, 2.2, -17.5])
        w = filon_weights(n, 0.5, 0.1, oms)
        direct = filon_transform(fv, 0.5, 0.1, oms)
        assert np.max(np.abs(w @ fv - direct)) < 1e-13

    def test_rejects_even_sample_counts(self):
        with pytest.raises(ValueError):
            filon_transform(np.ones(4), 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            filon_weights(4, 0.0, 0.1, 1.0)


def _interpolant_transform(fv, x0, h, omegas):
    """Exact transform of the piecewise quadratic through the samples.

    Each panel [x_{2l}, x_{2l+2}] carries the quadratic through its three
    samples; a 64-node Gauss-Legendre rule integrates quadratic times
    exp(-i omega x) to roundoff while the phase per panel stays below ~40.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = 1.0 + nodes                       # panel coordinate in units of h
    left, mid, right = fv[0:-1:2], fv[1::2], fv[2::2]
    q = (left[:, None] * (s - 1) * (s - 2) / 2 - mid[:, None] * s * (s - 2)
         + right[:, None] * s * (s - 1) / 2)
    x = x0 + h * (2 * np.arange(left.size)[:, None] + s)
    phase = np.exp(-1j * np.multiply.outer(omegas, x))
    return h * np.einsum("pk,mpk,k->m", q, phase, weights)


class TestFilonChirpZ:
    """The chirp-z path on uniform frequency grids, with the direct rule
    as its oracle."""

    @pytest.mark.parametrize("n, omegas, x0, h", [
        (4097, np.linspace(0.5, 60.0, 551), -3.0, 0.004),      # ascending
        (4097, np.linspace(45.0, -12.0, 551), 1.5, 0.004),     # descending
        # through 0, shifted like the tau grids of green.m_f
        (1025, np.linspace(-30.7, 30.7, 501) + 0.7 ** 2, -2.0, 0.02),
        (1025, 0.35 + 0.07 * np.arange(501), 0.25, 0.02),      # arange-built
    ])
    def test_matches_direct_rule(self, n, omegas, x0, h):
        rng = np.random.default_rng(n)
        fv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert quadrature._uniform_step(omegas) is not None
        got = filon_transform(fv, x0, h, omegas)
        want = quadrature._filon_direct(fv, x0, h, omegas)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.sum(np.abs(fv)) * h

    @settings(max_examples=40, deadline=None)
    @given(panels=st.integers(2, 60),
           m=st.integers(quadrature._CHIRP_MIN_FREQS, 90),
           omega0=st.floats(-40.0, 40.0),
           span=st.just(0.0) | st.floats(1e-6, 80.0) | st.floats(-80.0, -1e-6),
           x0=st.floats(-5.0, 5.0),
           h=st.floats(0.01, 0.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_on_piecewise_quadratics(self, panels, m, omega0, span,
                                           x0, h, seed):
        omegas = np.linspace(omega0, omega0 + span, m)
        fv = np.random.default_rng(seed).standard_normal(2 * panels + 1)
        assert quadrature._uniform_step(omegas) is not None
        got = filon_transform(fv, x0, h, omegas)
        want = _interpolant_transform(fv, x0, h, omegas)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(fv)) * h

    def test_chirp_phases_stay_exact_at_large_index(self):
        # Bluestein needs chirp(m) chirp(l) / chirp(m - l) = exp(-2i r m l);
        # at l ~ 1e6 the chirp phases reach 5e6 rad, where a rounded
        # r * q^2 would leave errors of ~1e-10
        r = np.pi / 7.0 * 1e-5
        m = np.arange(1, 4)[:, None]
        q = 10 ** 6 + np.arange(50)[None, :]
        lhs = quadrature._chirp(r, m) * quadrature._chirp(r, q) \
            / quadrature._chirp(r, m - q)
        assert np.max(np.abs(lhs - np.exp(-2j * r * m * q))) < 1e-13

    def test_dispatch(self, monkeypatch):
        calls = []
        chirp = quadrature._filon_chirp
        monkeypatch.setattr(quadrature, "_filon_chirp",
                            lambda *a: calls.append(a) or chirp(*a))
        fv = np.cos(np.linspace(0.0, 3.0, 65))
        short = np.linspace(0.0, 5.0, quadrature._CHIRP_MIN_FREQS - 1)
        bent = np.linspace(0.0, 5.0, 40) ** 1.5
        filon_transform(fv, 0.0, 0.05, 2.5)
        filon_transform(fv, 0.0, 0.05, short)
        filon_transform(fv, 0.0, 0.05, bent)
        assert calls == []
        filon_transform(fv, 0.0, 0.05, np.linspace(0.0, 5.0, 40))
        assert len(calls) == 1

    def test_direct_rule_blocks_fit_byte_budget(self, monkeypatch):
        budget = quadrature._DIRECT_BYTES
        for n in (3, 1025, 8193, 2 ** 21 + 1):
            rows = quadrature._direct_rows(n)
            assert rows >= 1 and rows * 16 * n <= budget
        # 512-row blocks would ask for 17 GB at 2^21 + 1 samples
        assert quadrature._direct_rows(2 ** 21 + 1) == 1
        # several blocks, ragged last one, agree with the weight matrix
        n = 33
        monkeypatch.setattr(quadrature, "_DIRECT_BYTES", 16 * n * 3)
        fv = np.sin(np.linspace(0.0, 4.0, n)) + 0.5j
        oms = np.linspace(-9.0, 7.0, 11) ** 3
        got = quadrature._filon_direct(fv, 0.5, 0.1, oms)
        assert np.max(np.abs(got - filon_weights(n, 0.5, 0.1, oms) @ fv)) < 1e-13


class TestFastLen:
    """``fast_len`` against scipy's ``next_fast_len`` for complex
    transforms; scipy serves only as the oracle here."""

    def test_every_length_up_to_2_16(self):
        from scipy.fft import next_fast_len
        ns = range(1, 2 ** 16 + 1)
        assert [fast_len(n) for n in ns] == [next_fast_len(n, False)
                                              for n in ns]

    def test_spread_up_to_2_22(self):
        # chirp-z Filon kernels on 2^21 + 1 samples reach about 1e6
        from scipy.fft import next_fast_len
        ns = np.concatenate([
            np.random.default_rng(0).integers(2 ** 16, 2 ** 22, 2000,
                                              endpoint=True),
            [2 ** k + j for k in range(17, 23) for j in (-1, 0, 1)]])
        ns = [int(n) for n in ns]
        assert [fast_len(n) for n in ns] == [next_fast_len(n, False)
                                              for n in ns]

    def test_lengths_past_2_24(self):
        # lengths over 2^24 bisect a larger table
        from scipy.fft import next_fast_len
        ns = [2 ** 24 + 1, 2 ** 24 + 7, 3 ** 16 + 1, 2 ** 25 - 1,
              11 ** 7 + 1, 2 ** 26 + 12345]
        assert all(n > 2 ** 24 for n in ns)
        assert [fast_len(n) for n in ns] == [next_fast_len(n, False)
                                              for n in ns]


class TestEdgeShells:
    """The dyadic shells of ``graded_layout`` toward b, read off its
    per-panel sums (16 nodes per panel, the shells toward b and the cell
    on b last)."""

    @staticmethod
    def _panel_sums(f, panels):
        u, wt = graded_layout(-1.0, 1.0, panels, True)
        return (f(u) * wt).reshape(-1, 16).sum(axis=1)

    def test_exact_on_polynomial(self):
        # int_{-1}^{1} (1 - u)^8 (u + 3) du = int_0^2 v^8 (4 - v) dv = 5632/45;
        # every 16-node panel, shell and end cell is exact on it
        for panels in (16, 128, 8192):
            total = self._panel_sums(lambda u: (1.0 - u) ** 8 * (u + 3.0),
                                     panels).sum()
            assert abs(total - 5632.0 / 45.0) < 1e-12 * 5632.0 / 45.0

    def test_log_divergent_shells_do_not_decay(self):
        # every dyadic shell of 1/(b - u) holds exactly ln 2, and the log2
        # slope over the six before the end cell stays near 0 (above the
        # -0.05 that would mean convergence) although rounding of b - u
        # grows like 2^j eps in the late shells; 16 panels leave 39 shells
        # toward b, from h/2 wide down to 2^-43 (b - a)
        shells = self._panel_sums(lambda u: 1.0 / (1.0 - u), 16)[-40:-1]
        assert np.max(np.abs(shells[:12] - np.log(2.0))) < 1e-11
        slope = np.polyfit(np.arange(6), np.log2(np.abs(shells[-6:])), 1)[0]
        assert abs(slope) < 0.01

    def test_layout_keeps_nodes_off_the_ends(self):
        # the last cell is 2^-43 (b - a) = 1024 ulps of b wide here, and its
        # outermost node sits about 5 ulps inside
        for panels in (16, 8192):
            u, wt = graded_layout(-1.0, 1.0, panels, True)
            assert -1.0 < u.min() and u.max() < 1.0
            assert abs(wt.sum() - 2.0) < 1e-14
        # the shells below the first panel width, and the end cells, are
        # the same at every panel count, so doubling compares only the rest
        coarse = graded_layout(-1.0, 1.0, 16, True)[0]
        fine = graded_layout(-1.0, 1.0, 8192, True)[0]
        assert np.array_equal(coarse[-16 * 31:], fine[-16 * 31:])
        assert np.array_equal(coarse[:16 * 31], fine[:16 * 31])
        # without grading the panels are uniform
        u, wt = graded_layout(-2.0, 3.0, 16, False)
        assert u.size == 256 and np.allclose(wt.reshape(16, 16).sum(1), 5 / 16)


class TestRefineFilon:
    @staticmethod
    def _gauss(x):
        return np.exp(-x * x)

    @pytest.mark.parametrize("n0", [100, 101, 102, 103])
    def test_start_counts_give_odd_grids(self, n0):
        r = refine_filon(self._gauss, -8.0, 16.0, (np.array([1.0]),), n0,
                         np.inf, 10 ** 6)
        n = r.samples.size
        assert n % 4 == 1 and n >= n0 and n - n0 < 4
        assert r.samples[::2].size % 2 == 1
        assert r.evaluations == n

    def test_cap_returns_unmet_gap(self):
        # 129 samples over 40 oscillations cannot reach 1e-14; the next
        # grid (257) would pass the cap, so the first one comes back
        r = refine_filon(lambda x: np.cos(40.0 * x), 0.0, 2 * np.pi,
                         (np.array([0.5]),), 129, 1e-14, 256)
        assert r.samples.size == 129
        assert r.gap > 1e-14
        assert r.evaluations == 129

    def test_transforms_match_filon_on_final_grid(self):
        om = np.linspace(0.0, 6.0, 40)
        r = refine_filon(self._gauss, -8.0, 16.0, (om, om[:5]), 65, 1e-12,
                         10 ** 6)
        x = -8.0 + r.h * np.arange(r.samples.size)
        assert np.array_equal(r.samples, self._gauss(x))
        assert r.h == 16.0 / (r.samples.size - 1)
        assert np.array_equal(r.transforms[0],
                              filon_transform(r.samples, -8.0, r.h, om))
        assert np.array_equal(r.transforms[1],
                              filon_transform(r.samples, -8.0, r.h, om[:5]))
        want = np.sqrt(np.pi) * np.exp(-om ** 2 / 4)
        assert np.max(np.abs(r.transforms[0] - want)) < 1e-10

    def test_gap_is_largest_over_arrays(self):
        lo, hi = np.array([0.5]), np.array([30.0])

        def gap(om):
            g = self._gauss(-8.0 + 0.25 * np.arange(65))
            return float(np.max(np.abs(filon_transform(g, -8.0, 0.25, om)
                                       - filon_transform(g[::2], -8.0, 0.5,
                                                         om))))

        r = refine_filon(self._gauss, -8.0, 16.0, (lo, hi), 65, np.inf,
                         10 ** 6)
        assert r.gap == max(gap(lo), gap(hi))
        assert gap(hi) != gap(lo)
