"""Linear density evolution: free streaming and the Volterra dressing.

Pure Gaussian initial kernels stream to exactly computable densities
in any dimension: the free route is checked against hand-derived closed
forms and against scipy's quad on the defining integral; the marching
solver has the constant-kernel exponential as its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_mix.dynamics import (
    InitialKernel,
    free_density_trajectory,
    volterra_kernel,
    volterra_march,
    volterra_solve,
)
from hartree_mix.profiles import screened_coulomb


# the two pure Gaussians with closed-form free densities:
# d -> (kernel, rho0_hat(t, k) on rows k[:, None] and times t)
_GAUSSIANS = {
    1: (InitialKernel(d=1, alpha=0.125, epsilon=1e-2),
        lambda k, t: 1e-2 * np.sqrt(np.pi) / 2.0
        * np.exp(-k * k - (k * t) ** 2 / 4.0)),
    3: (InitialKernel(d=3, alpha=1.0, epsilon=np.pi ** 3),
        lambda k, t: np.sqrt(8.0) * np.pi ** 4.5
        * np.exp(-k * k / 8.0 - 2.0 * (k * t) ** 2)),
}


class TestFreeStreaming:
    def test_d1_closed_form_and_reality(self):
        g0, want = _GAUSSIANS[1]
        ts = np.array([0.0, 2.5, 7.0])
        for k in (0.3, 1.0):
            got = free_density_trajectory(g0, [k], ts).rho_hat[0]
            assert np.max(np.abs(got - want(k, ts))) < 1e-9
            assert np.max(np.abs(np.imag(got))) < 1e-12

    def test_d3_closed_form(self):
        g0, want = _GAUSSIANS[3]
        ts = np.array([0.0, 1.5, 4.0])
        for k in (0.2, 0.9):
            got = free_density_trajectory(g0, [k], ts).rho_hat[0]
            assert np.max(np.abs(got - want(k, ts))) < 1e-6 * np.pi ** 4.5

    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_converged_over_the_fit_range(self, d):
        # the decay fits' range: every row within 1e-10 of its peak
        g0, want = _GAUSSIANS[d]
        ks = np.linspace(0.05, 2.0, 20)
        ts = np.arange(501) * 0.1
        got = free_density_trajectory(g0, ks, ts).rho_hat
        exact = want(ks[:, None], ts)
        err = np.max(np.abs(got - exact), axis=1)
        assert np.all(err <= 1e-10 * np.max(np.abs(exact), axis=1))

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_the_defining_integral(self, d):
        # an oracle independent of the closed form: scipy's quad on
        # 2^{-d} int exp(-itk.v) G0((k+v)/2, (k-v)/2) dv, with G0 taken
        # from its arguments as written; at d = 3 over (v_par, r) with the
        # weight 2 pi r, k along the axis
        g0 = _GAUSSIANS[d][0]
        # past |v| = reach the datum is below e^-50 of its peak
        reach = np.sqrt(400.0 * g0.alpha)

        def datum(a2, b2):
            return g0.epsilon * np.exp(-(a2 + b2) / (4.0 * g0.alpha))

        def axis_integrand(v, k):
            a2, b2 = (k + v) ** 2 / 4.0, (k - v) ** 2 / 4.0
            if d == 1:
                return datum(a2, b2)
            return quad(lambda r: 2.0 * np.pi * r
                        * datum(a2 + r * r / 4.0, b2 + r * r / 4.0),
                        0.0, reach, epsabs=0.0, epsrel=1e-13)[0]

        ts = np.array([0.0, 0.7, 2.5])
        for k in (0.3, 1.1):
            got = free_density_trajectory(g0, [k], ts).rho_hat[0]
            want = np.array([
                quad(axis_integrand, -reach, reach, args=(k,), weight=w,
                     wvar=t * k, epsabs=1e-13 * abs(got[0]), epsrel=0.0,
                     limit=200)[0]
                for t in ts for w in ("cos", "sin")]).reshape(-1, 2)
            want = 2.0 ** (-d) * (want[:, 0] - 1j * want[:, 1])
            assert np.max(np.abs(got - want)) <= 1e-10 * abs(got[0])

    def test_trajectory_carries_weights(self):
        g0 = InitialKernel(d=3, alpha=1.0, epsilon=np.pi ** 3)
        tr = free_density_trajectory(g0, [0.2, 0.5], np.linspace(0, 2, 21))
        assert tr.rho_hat.shape == (2, 21)
        assert tr.dt == pytest.approx(0.1)


class TestVolterraMarch:
    def test_linear_kernel_cosine(self):
        # rho + c int_0^t (t - s) rho(s) ds = 1 integrates to
        # rho'' = -c rho, i.e. cos(sqrt(c) t); the kernel vanishes at 0
        # as the marching contract expects
        c = 0.8
        dt = 1e-3
        t = np.arange(0.0, 5.0 + dt / 2, dt)
        got = volterra_march(c * t, np.ones(t.size), dt)
        assert np.max(np.abs(got - np.cos(np.sqrt(c) * t))) < 1e-5

    def test_zero_kernel_returns_source(self):
        t = np.linspace(0.0, 2.0, 21)
        src = np.cos(t) + 0.0j
        got = volterra_march(np.zeros(t.size), src, t[1] - t[0])
        assert np.array_equal(got, src)


def _march_by_mode(K, S, dt):
    """The trapezoid march of one mode, one ``np.dot`` per time node."""
    n = K.size
    corr = 1.0 + 0.5 * dt * K[0]
    rho = np.empty(n, dtype=complex)
    rho[0] = S[0] / corr
    rev = K[::-1].astype(complex)
    for i in range(1, n):
        acc = 0.5 * K[i] * rho[0]
        if i > 1:
            acc += np.dot(rev[n - i:n - 1], rho[1:i])
        rho[i] = (S[i] - dt * acc) / corr
    return rho


class TestBatchedMarch:
    def test_modes_marched_at_once_match_the_per_mode_march(self, gauss1):
        # the linear stage of the time-domain benchmark: 40 modes of the
        # screened Coulomb kernel over 501 nodes, and the k = 0 mode, which
        # keeps its source
        w = screened_coulomb(0.5, 1.0)
        ks = np.concatenate([[0.0], np.linspace(0.05, 2.0, 40)])
        ts = np.arange(501) * 0.1
        src = free_density_trajectory(_GAUSSIANS[1][0], ks, ts)
        got = volterra_solve(gauss1, w, src).rho_hat
        np.testing.assert_array_equal(got[0], src.rho_hat[0])
        for k, row, s in zip(ks[1:], got[1:], src.rho_hat[1:]):
            want = _march_by_mode(volterra_kernel(gauss1, w, k, ts), s, 0.1)
            assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))

    def test_one_row_is_the_one_mode_table(self):
        rng = np.random.default_rng(3)
        K, S = rng.standard_normal((2, 3, 50))
        table = volterra_march(K, S, 0.05)
        for k, s, row in zip(K, S, table):
            np.testing.assert_array_equal(volterra_march(k, s, 0.05), row)


class TestDressing:
    def test_weak_coupling_stays_near_free(self, gauss3):
        g0 = InitialKernel(d=3, alpha=1.0, epsilon=np.pi ** 3)
        w = screened_coulomb(0.01, 1.0)
        ks = np.linspace(0.05, 1.5, 30)
        ts = np.linspace(0.0, 8.0, 161)
        free = free_density_trajectory(g0, ks, ts)
        lin = volterra_solve(gauss3, w, free)
        scale = np.max(np.abs(free.rho_hat))
        assert np.max(np.abs(lin.rho_hat - free.rho_hat)) < 0.05 * scale

