"""Equilibrium profiles, marginals, and potentials.

The Gaussian and zero-temperature families have closed-form marginals,
so most checks here are direct value comparisons; the rest are the
structural facts (evenness, monotonicity, mass) the analysis modules
lean on.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j1

from hartree_mix.profiles import (
    NonIntegrableError,
    _hat_grid,
    build_marginal,
    delta_potential,
    fermi_zero_t_profile,
    gaussian_hat_potential,
    gaussian_profile,
    marginal_from_tables,
    power_decay_profile,
    screened_coulomb,
    shifted_l2_difference,
    sphere_area,
    validate_assumptions,
)
from hartree_mix.quadrature import EvaluationBudgetExceeded

U = np.array([0.0, 0.2, 0.5, 0.9, 1.7, 3.0])
T = np.array([0.0, 0.4, 1.1, 2.6, 6.0])


def test_sphere_and_ball_constants():
    closed = [2.0, 2.0 * np.pi, 4.0 * np.pi, 2.0 * np.pi ** 2,
              8.0 * np.pi ** 2 / 3.0, np.pi ** 3]
    for m, area in enumerate(closed, start=1):
        assert sphere_area(m) == pytest.approx(area, rel=1e-15, abs=0.0)


class TestGaussianMarginals:
    def test_d3_closed_forms(self, gauss3):
        assert np.max(np.abs(gauss3.phi(U) - np.pi * np.exp(-U * U))) < 1e-10
        want_hat = np.pi ** 1.5 * np.exp(-T * T / 4.0)
        assert np.max(np.abs(gauss3.phi_hat(T) - want_hat)) < 1e-8
        want_d = -2.0 * np.pi * U * np.exp(-U * U)
        assert np.max(np.abs(gauss3.dphi(U) - want_d)) < 1e-9

    def test_d1_reduces_to_f(self, gauss1):
        assert np.max(np.abs(gauss1.phi(U) - np.exp(-U * U))) < 1e-12
        want_hat = np.sqrt(np.pi) * np.exp(-T * T / 4.0)
        assert np.max(np.abs(gauss1.phi_hat(T) - want_hat)) < 1e-8

    def test_d3_hat_l1(self, gauss3):
        # int_0^inf pi^{3/2} exp(-t^2/4) dt = pi^2
        assert abs(gauss3.phi_hat_l1 - np.pi ** 2) < 1e-9

    def test_support_is_unbounded(self, gauss3):
        assert math.isinf(gauss3.upsilon)


class TestZeroTemperatureMarginals:
    def test_d3_parabola(self, fermi3):
        inside = np.array([0.0, 0.3, 0.8, 0.99])
        want = np.pi * (1.0 - inside ** 2)
        assert np.max(np.abs(fermi3.phi(inside) - want)) < 1e-10
        assert abs(fermi3.phi(np.array([1.4]))[0]) < 1e-12
        assert fermi3.upsilon == pytest.approx(1.0)

    def test_d3_hat_closed_form(self, fermi3):
        t = np.array([0.7, 2.2, 9.1])
        want = 4.0 * np.pi * (np.sin(t) - t * np.cos(t)) / t ** 3
        assert np.max(np.abs(fermi3.phi_hat(t) - want)) < 1e-8

    def test_d5_quartic(self, fermi5):
        inside = np.array([0.0, 0.25, 0.6, 0.95])
        want = np.pi ** 2 / 2.0 * (1.0 - inside ** 2) ** 2
        assert np.max(np.abs(fermi5.phi(inside) - want)) < 1e-9


class TestMarginalStructure:
    @pytest.mark.parametrize("name", ["gauss3", "fermi5"])
    def test_even_in_u(self, name, request):
        m = request.getfixturevalue(name)
        u = np.array([0.15, 0.6, 0.85])
        assert np.max(np.abs(m.phi(u) - m.phi(-u))) < 1e-12
        t = np.array([0.5, 1.9])
        assert np.max(np.abs(m.phi_hat(t) - m.phi_hat(-t))) < 1e-9

    @pytest.mark.parametrize("name", ["gauss1", "gauss3", "fermi3", "fermi5"])
    def test_strictly_decreasing_speed_profile(self, name, request):
        m = request.getfixturevalue(name)
        hi = min(m.upsilon, 4.0)
        u = np.linspace(0.05, hi - 0.05, 40)
        assert np.all(m.dphi(u) < 0.0)

    def test_mass_matches_quadrature(self, gauss3):
        # total mass is the u-integral of the marginal
        u = np.linspace(-12.0, 12.0, 4001)
        want = np.trapezoid(gauss3.phi(u), u)
        assert abs(gauss3.total_mass - want) < 1e-7


class TestMarginalTables:
    @pytest.mark.parametrize("name", ["gauss3", "fermi5", "bump3"])
    def test_loaded_marginal_is_bitwise_the_built_one(self, name, request,
                                                      tmp_path):
        m = request.getfixturevalue(name)
        np.savez(tmp_path / "marginal.npz", **m.tables)
        with np.load(tmp_path / "marginal.npz", allow_pickle=False) as npz:
            got = marginal_from_tables(m.profile,
                                       {k: npz[k] for k in npz.files})
        u = np.linspace(-1.2, 1.2, 241) * m.u_support
        # phi_hat below the panel-engine switch 10 / u_support, on the spline
        # up to t_cap, and past t_cap (fermi5's t_support exceeds its cap)
        h_t = min(0.01, np.pi / (16.0 * m.u_support))
        t_cap = min(m.t_support, 32768 * h_t)
        t = np.concatenate([np.linspace(0.0, 10.0 / m.u_support, 7)[1:],
                            np.linspace(0.0, t_cap, 301),
                            t_cap * np.array([1.0001, 1.3, 2.0])])
        assert name != "fermi5" or t_cap < m.t_support
        for fn in ("phi", "dphi"):
            assert np.array_equal(getattr(got, fn)(u), getattr(m, fn)(u))
        assert np.array_equal(got.phi_hat(t), m.phi_hat(t))
        for field in ("total_mass", "upsilon", "d", "u_support", "t_support",
                      "phi_hat_l1", "phi_hat_deriv_l1"):
            assert getattr(got, field) == getattr(m, field), field

    def test_missing_or_misshapen_table_raises(self, gauss3):
        tables = dict(gauss3.tables)
        del tables["t_support"]
        with pytest.raises(KeyError):
            marginal_from_tables(gauss3.profile, tables)
        for key, bad in (("phi", gauss3.tables["phi"][:-1]),
                         ("phi_hat", gauss3.tables["phi_hat"][1:]),
                         ("total_mass", np.ones(2))):
            with pytest.raises(ValueError, match=key):
                marginal_from_tables(gauss3.profile,
                                     dict(gauss3.tables, **{key: bad}))


HAT_CLOSED_FORMS = {
    "gauss1": lambda t: np.sqrt(np.pi) * np.exp(-t * t / 4.0),
    "gauss3": lambda t: np.pi ** 1.5 * np.exp(-t * t / 4.0),
    "fermi2": lambda t: 2.0 * np.pi * _over_t(j1(t), t, 0.5),
    "fermi3": lambda t: 4.0 * np.pi * _over_t(np.sin(t) - t * np.cos(t),
                                              t ** 3, 1.0 / 3.0),
}


def _over_t(num, den, limit):
    """num / den, with its limit at t = 0."""
    return np.divide(num, den, out=np.full_like(num, limit), where=den != 0)


class TestExactHatRule:
    """The phi_hat table below t = 10 / u_support and total_mass come
    from the panel engine; both against closed forms."""

    @pytest.mark.parametrize("name", sorted(HAT_CLOSED_FORMS))
    def test_table_below_switch_matches_closed_form(self, name, request):
        m = request.getfixturevalue(name)
        t = _hat_grid(m.u_support, m.t_support)[0]
        below = t < 10.0 / m.u_support
        assert np.count_nonzero(below) > 40
        want = HAT_CLOSED_FORMS[name](t[below])
        got = m.tables["phi_hat"][:t.size][below]
        assert np.max(np.abs(got - want)) < 1e-11
        assert abs(m.total_mass - want[0]) < 1e-11

    def test_power_decay_lower_bound_fails_loudly(self):
        # outside n1 >= d and 2 n1 - d + 1 >= 5 the phi table cannot hold
        # the marginal, so the constructor refuses
        for d, n1 in [(1, 2), (2, 2.5), (3, 3), (5, 4.9)]:
            with pytest.raises(ValueError, match="2 n1 - d \\+ 1 >= 5"):
                power_decay_profile(d, n1)

    def test_power_decay_at_the_bound_builds(self):
        # 2 n1 - d + 1 = 5 at d = 1: the mass int (1 + u^4)^(-5/4) du is 2
        m = build_marginal(power_decay_profile(1, 2.5))
        assert m.total_mass == pytest.approx(2.0, rel=1e-10)

    def test_power_decay_under_the_bound_still_fails_to_build(self):
        # the same f with n1 = 1, past the constructor's check: phi peaks
        # at u = 0 inside a support radius of 1e9, the panels cannot
        # settle, and a missed peak must not become a wrong mass
        f = lambda e: (1.0 + np.asarray(e, dtype=float) ** 2) ** -0.5
        df = lambda e: -np.asarray(e, dtype=float) * \
            (1.0 + np.asarray(e, dtype=float) ** 2) ** -1.5
        prof = replace(power_decay_profile(1, 3), f=f, df=df, n1=1.0)
        with pytest.raises(EvaluationBudgetExceeded):
            build_marginal(prof)

    def test_loaded_tables_keep_the_decay_check(self, gauss3):
        # n1 <= (d - 1) / 2 at d = 3: the radial integral cannot converge
        with pytest.raises(NonIntegrableError):
            marginal_from_tables(gaussian_profile(3, n1=1.0), gauss3.tables)


class TestShiftedDifference:
    def test_small_shift_quadratic_scaling(self):
        prof = gaussian_profile(3)
        r1 = shifted_l2_difference(prof, 1e-2) / 1e-4
        r2 = shifted_l2_difference(prof, 1e-3) / 1e-6
        # difference-quotient limit: ratio/k^2 settles to a constant
        assert abs(r1 - r2) < 1e-2 * abs(r2)
        assert 0.0 < r2 < 100.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_closed_form(self, d):
        # g(p) = exp(-|p|^2/4): 2 int g^2 - 2 int g(p - k e1) g(p + k e1)
        # = 2 (2 pi)^(d/2) (1 - exp(-k^2/2))
        for k in (1e-3, 0.1, 0.3, 1.0, 2.5):
            want = -2.0 * (2.0 * np.pi) ** (d / 2.0) * np.expm1(-k * k / 2.0)
            got = shifted_l2_difference(gaussian_profile(d), k)
            assert got == pytest.approx(want, rel=1e-12, abs=0), k

    @pytest.mark.parametrize("d,n1", [(1, 3), (2, 3), (3, 4)])
    @pytest.mark.parametrize("k", [0.01, 0.3])
    def test_power_decay_matches_quad(self, d, n1, k):
        # a box of hundreds around a core of width 1: one rule spread over
        # the whole box misses the core (1.1e-8 against 0.303 at d = 1,
        # k = 0.3).  The integrand is even in p1, and g(p) = f(|p|^2 / 4)
        prof = power_decay_profile(d, n1)
        g = lambda p1, r2: float(prof.f(np.array((p1 * p1 + r2) / 4.0)))
        # the absolute floor, far below every value here (>= 3.5e-4), only
        # stops quad from chasing roundoff on the far tail
        opts = dict(epsabs=1e-20, epsrel=1e-13, limit=400)

        def half_line(fn):
            return quad(fn, 0.0, 4.0, **opts)[0] \
                + quad(fn, 4.0, np.inf, **opts)[0]

        def along(p1):
            return half_line(lambda r: r ** (d - 2) * (
                g(p1 - k, r * r) - g(p1 + k, r * r)) ** 2)

        if d == 1:
            want = 2.0 * half_line(
                lambda p: (g(p - k, 0.0) - g(p + k, 0.0)) ** 2)
        else:
            want = 2.0 * sphere_area(d - 1) * half_line(along)
        assert shifted_l2_difference(prof, k) == pytest.approx(
            want, rel=1e-12, abs=0)

    def test_bounded_on_unit_range(self):
        prof = gaussian_profile(3)
        for k in (0.1, 0.5, 1.0):
            val = shifted_l2_difference(prof, k)
            assert np.isfinite(val) and val >= 0.0


class TestPotentials:
    def test_screened_coulomb_values(self):
        w = screened_coulomb(1.0, 1.0)
        k = np.array([0.0, 1.0, 3.0])
        assert np.max(np.abs(w.w_hat(k) - 1.0 / (1.0 + k * k))) < 1e-14
        assert w.w_hat_zero == pytest.approx(1.0)

    def test_delta_is_flat(self):
        w = delta_potential(0.2)
        assert np.max(np.abs(w.w_hat(np.array([0.0, 2.0, 50.0])) - 0.2)) == 0.0
        assert w.w_hat_zero == pytest.approx(0.2)

    def test_gaussian_hat_amplitude(self):
        w = gaussian_hat_potential(2.0, 1.5)
        assert w.w_hat(np.array([0.0]))[0] == pytest.approx(2.0)
        assert w.w_hat_zero == pytest.approx(2.0)


class TestAssumptionReport:
    def test_gaussian_coulomb_has_no_failures(self, gauss3):
        rep = validate_assumptions(gaussian_profile(3),
                                   screened_coulomb(1.0, 1.0), gauss3)
        names = {c["name"] for c in rep}
        assert {"positivity", "potential_finite_at_zero",
                "marginal_decreasing"} <= names
        assert all(c["status"] != "fail" for c in rep)

    @pytest.mark.parametrize("prof", [
        gaussian_profile(1), gaussian_profile(3), gaussian_profile(5),
        gaussian_profile(2, scale=2.0, amplitude=3.0),
        gaussian_profile(3, scale=0.3, n1=7), power_decay_profile(1, 3),
        power_decay_profile(2, 3), power_decay_profile(3, 4)],
        ids=["gauss1", "gauss3", "gauss5", "gauss2-wide", "gauss3-narrow",
             "power1", "power2", "power3"])
    def test_full_support_profiles_meet_their_declared_decay(self, prof,
                                                             gauss3):
        # the check bounds |f| <e>^n1 and |f'| <e>^(n1+1) by the declared
        # C; it reads only the profile, so one marginal serves every case
        rep = validate_assumptions(prof, screened_coulomb(1.0, 1.0), gauss3)
        decay = next(c for c in rep if c["name"] == "decay")
        assert decay["status"] == "pass", decay["detail"]


class TestNumpyKernels:
    """The spline, its DCT-I/DST-I prefilter and the Gauss-Jacobi rule
    against scipy's routines, which the package does not import; scipy
    serves only as the oracle here."""

    @staticmethod
    def _gauss3_tables():
        from hartree_mix.profiles import _radial_reduction, _support_radius
        phi, dphi = _radial_reduction(gaussian_profile(3))
        u_max = _support_radius(phi, 1.0, 1e-18)
        h = u_max / 8192
        u = np.arange(8193) * h
        return h, u, phi(u), dphi(u)

    @pytest.mark.parametrize("odd", [False, True])
    def test_spline_matches_cubic_spline_on_gauss3_tables(self, odd):
        from scipy.interpolate import CubicSpline

        from hartree_mix.profiles import _uniform_spline
        h, u, phi_table, dphi_table = self._gauss3_tables()
        y = dphi_table if odd else phi_table
        # phi: clamped slope 0 at 0; phi': natural at 0
        oracle = CubicSpline(u, y, bc_type=((2 if odd else 1, 0.0),
                                            "not-a-knot"))
        x = np.concatenate([u, np.random.default_rng(0).uniform(
            0.0, u[-1], 20000)])
        gap = np.abs(_uniform_spline(h, y, odd=odd)(x) - oracle(x))
        assert np.max(gap) <= 1e-14 * np.max(np.abs(y))

    def test_spline_keeps_sign_in_the_far_tail(self):
        # each coefficient carries the rounding of its neighbours, not of
        # the table maximum, so phi' stays negative down to 1e-17
        from hartree_mix.profiles import _uniform_spline
        h, u, _, dphi_table = self._gauss3_tables()
        x = np.linspace(0.5, 0.99, 100001) * u[-1]
        assert np.all(_uniform_spline(h, dphi_table, odd=True)(x) < 0.0)

    def test_truncated_fermi5_hat_matches_cubic_spline(self, fermi5):
        from scipy.interpolate import CubicSpline
        # fermi5's transform decays algebraically, so the table stops at
        # the 32768-node cap t_cap and the exact rule serves beyond it
        h_t = min(0.01, np.pi / (16.0 * fermi5.u_support))
        t_cap = 32768 * h_t
        assert t_cap < fermi5.t_support
        t = np.linspace(0.0, t_cap, 32769)
        y = fermi5.phi_hat(t)
        oracle = CubicSpline(t, y, bc_type=((1, 0.0), "not-a-knot"))
        mids = 0.5 * (t[1:] + t[:-1])
        last = t_cap - h_t * (np.arange(20)
                              + np.random.default_rng(1).uniform(size=20))
        x = np.concatenate([mids[:2000], mids[-20:], last])
        gap = np.abs(fermi5.phi_hat(x) - oracle(x))
        assert np.max(gap) <= 1e-14 * np.max(np.abs(y))

    # 32929: the padded phi_hat table of fermi5, fast_len(32768 + 40) + 1
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 1000, 1001, 32929])
    def test_dct1_dst1_match_scipy(self, n):
        from scipy.fft import dct, dst, idct, idst

        from hartree_mix.profiles import _dct1, _dst1
        y = np.random.default_rng(n).standard_normal(n)
        tol = 1e-15 * np.max(np.abs(y))
        for ours, theirs, inverse, scale in (
                (_dct1, dct, idct, 2 * (n - 1)), (_dst1, dst, idst, 2 * (n + 1))):
            assert np.max(np.abs(ours(y) - theirs(y, 1))) <= tol
            assert np.max(np.abs(ours(y) / scale - inverse(y, 1))) <= tol

    # nu = (d - 3) / 2 for d = 2 .. 6
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5])
    def test_gauss_jacobi_matches_roots_jacobi(self, nu):
        from scipy.special import roots_jacobi

        from hartree_mix.profiles import _gauss_jacobi
        x, w = _gauss_jacobi(48, nu)
        xr, wr = roots_jacobi(48, 0.0, nu)
        assert np.max(np.abs(x - xr)) <= 1e-15
        assert np.max(np.abs(w / wr - 1.0)) <= 1e-11
        # at nu = -0.5 these weights and the Golub-Welsch eigenvector ones
        # agree to 3e-14, and both sit 5.6e-13 from the oracle's
        if nu >= 0.0:
            assert np.max(np.abs(w - wr)) <= 1e-14


class TestWorkMemory:
    """Traced peaks of the marginal build's kernels: the radial reduction
    sums in fixed node blocks, so its temporaries do not grow with the
    number of points asked for."""

    def test_full_support_reduction_works_in_node_blocks(self, peak_bytes):
        # phi and phi' of gauss3 on its 8193-node table: 0.40 MB measured;
        # whole (8193 x 48) and (8193 x 32) matrices take 9.4 MB
        _, u, _, _ = TestNumpyKernels._gauss3_tables()
        from hartree_mix.profiles import _radial_reduction
        phi, dphi = _radial_reduction(gaussian_profile(3))
        assert peak_bytes(lambda: phi(u)) < 2 ** 20
        assert peak_bytes(lambda: dphi(u)) < 2 ** 20

    @pytest.mark.slow
    def test_power_decay_build_is_bounded(self, peak_bytes):
        # the slowest full-support reduction: panels out to about 4e6 at
        # every node of layouts up to 131072 nodes.  11.2 MB measured, 6.3
        # MB of it the layout memo; whole node matrices take 156 MB
        prof = power_decay_profile(2, 3)
        assert peak_bytes(lambda: build_marginal(prof)) < 16 * 2 ** 20
