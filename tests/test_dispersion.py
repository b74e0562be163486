"""Dispersion function routes and their agreement.

The same value is reachable through the Hilbert-transform form, the
time-integral form, and (on the boundary) the jump formula, so the
tests mostly play the routes against each other; a few structural
checks pin the branch logic.  The Cauchy-row engine under the rows has
its own oracles: scipy's adaptive quadrature on the same subtracted
integrand, the Dawson function, and closed forms for cubic numerators.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import dawsn

from hartree_mix import dispersion as dsp
from hartree_mix import quadrature
from hartree_mix.dispersion import (
    DivergentIntegral,
    HilbertTransformCache,
    dispersion_row,
    dispersion_time_integral,
)
from hartree_mix.profiles import (build_marginal, delta_potential,
                                  power_decay_profile, screened_coulomb)
from hartree_mix.quadrature import EvaluationBudgetExceeded


def _d(m, w, k, lam_tilde, tol_abs=1e-11):
    """D at one rescaled lambda_tilde: a one-element row."""
    return dispersion_row(m, w, k, lam_tilde, tol_abs)[0][0]


def _richardson_boundary(m, w, tau_tilde, k, g0=1.6e-2, rungs=5):
    """gamma -> 0 limit of the Hilbert form along a halving ladder."""
    gs = g0 / 2.0 ** np.arange(rungs)
    vals = list(dispersion_row(m, w, k, gs / k + 1j * tau_tilde, 1e-11)[0])
    for j in range(1, rungs):
        vals = [(2 ** j * vals[i + 1] - vals[i]) / (2 ** j - 1)
                for i in range(len(vals) - 1)]
    return vals[0]


class TestRouteAgreement:
    def test_hilbert_vs_time_integral(self, gauss3, coulomb):
        rng = np.random.default_rng(11)
        for _ in range(12):
            k = float(rng.uniform(0.05, 3.0))
            lam = complex(rng.uniform(0.02, 2.0), rng.uniform(-4.0, 4.0))
            a = _d(gauss3, coulomb, k, lam / k)
            b = dispersion_time_integral(gauss3, coulomb, k, lam / k)[0][0]
            assert abs(a - b) < 1e-8

    def test_boundary_limit_matches_jump_formula(self, gauss3, coulomb):
        for k, tt in ((0.7, 0.9), (1.3, -1.7)):
            pl = _d(gauss3, coulomb, k, 1j * tt)
            ladder = _richardson_boundary(gauss3, coulomb, tt, k)
            assert abs(ladder - pl) < 1e-9

    def test_rescaled_limit_continues_small_k(self, gauss3, coulomb):
        lam_tilde = 0.4 + 0.7j
        v0 = _d(gauss3, coulomb, 0.0, lam_tilde)
        vk = _d(gauss3, coulomb, 1e-3, lam_tilde)
        assert abs(v0 - vk) < 1e-4


# D at tau_tilde = 2 Upsilon + k + delta on the real branch, coupling 0.1,
# delta = 0, 1e-9, 1e-3, 1, from the pointwise rule (adaptive bulk plus
# 31-node dyadic shells, 48 at most) that the graded rows replaced
REAL_BRANCH_POINTWISE = {
    ("fermi3", 0.02): (-0.15022243446571748, -0.15022228993605258,
                       -0.1140916104302041, 0.8723200440133583),
    ("fermi3", 1.5): (0.8483329369802721, 0.8483329391782675,
                      0.8490846315925449, 0.9441445713661559),
    ("fermi4", 0.02): (0.24044509850880025, 0.2404451066311759,
                       0.24759351661730367, 0.858530061247981),
    ("fermi4", 1.5): (0.8483419915815054, 0.8483419918961249,
                      0.8486431031424111, 0.9363408375663621),
    ("fermi5", 0.02): (0.40515008193199165, 0.4051500846308308,
                       0.40778760446142137, 0.8554353505690282),
    ("fermi5", 1.5): (0.8525558869898064, 0.8525558871940362,
                      0.8527590018695272, 0.933655337768019),
    ("bump3", 0.02): (0.9646644743017972, 0.964664474366434,
                      0.9647289893546265, 0.9885546212082078),
    ("bump3", 1.5): (0.9889261222061217, 0.988926122217098,
                     0.9889370870224633, 0.994607420524553),
}


def _fermi_hilbert(d, x):
    """int phi/(x - u) du from below the cut for phi = c (1 - u^2)^(d-1)/2,
    d = 2 or 4: c pi r(x) for d = 2 and c pi [(1 - x^2) r(x) + x/2] for
    d = 4, r = x + i sqrt(1 - x^2) inside and x - sign(x) sqrt(x^2 - 1)
    outside."""
    root = np.sqrt(np.abs(1.0 - x * x))
    r = np.where(np.abs(x) < 1.0, x + 1j * root, x - np.sign(x) * root)
    if d == 2:
        return 2.0 * np.pi * r
    return 4.0 * np.pi ** 2 / 3.0 * ((1.0 - x * x) * r + x / 2.0)


class TestRealBranch:
    def test_real_and_even(self, fermi5):
        w = delta_potential(0.1)
        k = 0.4
        tt = 2.0 * fermi5.upsilon + k + 0.8
        vp = _d(fermi5, w, k, 1j * tt)
        vm = _d(fermi5, w, k, -1j * tt)
        assert vp.imag == 0.0
        assert vp == vm

    @pytest.mark.parametrize("name", ["fermi3", "fermi4", "fermi5", "bump3"])
    def test_matches_pointwise_values(self, name, request):
        m = request.getfixturevalue(name)
        w = delta_potential(0.1)
        for k in (0.02, 1.5):
            want = REAL_BRANCH_POINTWISE[(name, k)]
            for delta, v in zip((0.0, 1e-9, 1e-3, 1.0), want):
                got = _d(m, w, k, 1j * (2.0 + k + delta))
                assert abs(got - v) < 1e-12

    def test_fermi2_closed_form(self, fermi2):
        # D = 1 - (g/2k) [H(x_-) - H(x_+)], x_-+ = (tau_tilde -+ k)/2; at
        # delta = 0 the integrand grows like (1 - u)^-1/2 into the edge,
        # which the graded layout's end cell resolves only to about 1e-7
        # relative: the end-cell correction takes it to 1e-10 absolute
        w = delta_potential(0.1)
        for k in (0.02, 1.5):
            for delta in (0.0, 1e-9, 1e-3, 1.0):
                tau = 2.0 + k + delta
                x_m = max((tau - k) / 2, 1.0)
                want = 1.0 - 0.05 / k * (_fermi_hilbert(2, x_m)
                                         - _fermi_hilbert(2, (tau + k) / 2))
                got = _d(fermi2, w, k, 1j * tau)
                tol = 1e-10 if delta == 0.0 else 1e-12
                assert abs(got - want) < tol

    def test_unit_limit_far_out(self, fermi5):
        # far beyond the support the symbol tends to 1
        w = delta_potential(0.1)
        far = _d(fermi5, w, 0.4, 60.0j)
        assert abs(far - 1.0) < 1e-2


class TestStaticBound:
    def test_zero_frequency_at_least_one(self, gauss3, coulomb):
        rng = np.random.default_rng(3)
        for _ in range(8):
            k = float(rng.uniform(0.05, 2.5))
            v = _d(gauss3, coulomb, k, 0.0j, tol_abs=1e-10)
            assert v.imag == 0.0
            assert v.real >= 1.0


class TestCache:
    def test_snapping_is_deterministic_and_close(self, gauss3):
        cache = HilbertTransformCache(gauss3)
        z = 0.35 - 0.25j
        U = gauss3.u_support
        direct = dsp._cauchy_rows(gauss3.phi, -U, U, z, 1e-11, False)[0][0]
        c1 = cache.value(z)
        c2 = cache.value(z + 1e-6j)
        # snapped arguments collapse to the same table entry
        assert c1 == c2
        assert (cache.hits, cache.misses) == (1, 1)
        # the snap step bounds the cache error; it is a scan tool, not a
        # high-precision route
        assert abs(c1 - direct) < 1e-3


def _moment(j, z, s, a, b):
    """int_a^b (u - s)^j / (z - u) du, PV part for real z, written out."""
    zeta = z - s
    i0 = np.log(z - a) - np.log(z - b)
    if np.imag(z) == 0.0:
        i0 = i0.real
    return zeta ** j * i0 - sum(
        zeta ** (j - 1 - n) * ((b - s) ** (n + 1) - (a - s) ** (n + 1))
        / (n + 1) for n in range(j))


def _subtracted_reference(g, a, b, z, s, c):
    """Cauchy integral from scipy's adaptive Gauss-Kronrod ``quad`` on the
    subtracted integrand plus the written-out moments and the Plemelj
    term; a real pole inside is a break point, so no node lands on it."""
    rest = quad(lambda u: (g(np.array([u]))[0]
                           - sum(c[j] * (u - s) ** j for j in range(4)))
                / (z - u), a, b, epsabs=1e-12, epsrel=0.0, limit=500,
                points=[z.real] if a < z.real < b else None,
                complex_func=True)[0]
    plemelj = 1j * np.pi * g(np.array([z.real]))[0] \
        if z.imag == 0.0 and a < z.real < b else 0.0
    return rest + sum(c[j] * _moment(j, z, s, a, b) for j in range(4)) \
        + plemelj


class TestCauchyRows:
    """The fixed-node engine behind every Cauchy integral of phi, phi'."""

    # quad reports roundoff on the real-pole cases, where the subtracted
    # numerator cancels to rounding next to the pole; the 1e-12 agreement
    # below is the check (measured: within 4e-14)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("name", ["gauss3", "fermi5"])
    def test_matches_adaptive_gauss_on_subtracted_integrand(self, name,
                                                            request):
        m = request.getfixturevalue(name)
        U = m.u_support
        zs = np.array([0.3 * U, -0.71 * U, 0.05, 1.3 * U,
                       0.4 * U - 0.05j, -0.9 * U - 0.3j, 0.2 - 2.0j,
                       1.1 * U - 0.1j])
        got, err = dsp._cauchy_rows(m.phi, -U, U, zs, 1e-13,
                                    np.isfinite(m.upsilon))
        s = np.clip(zs.real, -U, U)
        taylor = dsp._taylor(m.phi, -U, U, s)
        taylor[np.abs(zs - s) > 1.0] = 0.0
        for i, z in enumerate(zs):
            want = _subtracted_reference(m.phi, -U, U, z, s[i], taylor[i])
            assert abs(got[i] - want) < 1e-12
        assert np.all(err <= 1e-13)

    def test_dawson_oracle(self):
        # PV int exp(-u^2)/(1-u) du = 2 sqrt(pi) dawsn(1); the boundary
        # value from below adds i pi exp(-1)
        g = lambda u: np.exp(-u * u)
        v = dsp._cauchy_rows(g, -8.0, 8.0, 1.0, 1e-12, False)[0][0]
        assert abs(v.real - 2.0 * np.sqrt(np.pi) * dawsn(1.0)) < 1e-10
        assert abs(v.imag - np.pi * np.exp(-1.0)) < 1e-14

    def test_odd_integrand_cancels(self):
        g = lambda u: np.exp(-u * u)
        v = dsp._cauchy_rows(g, -6.0, 6.0, 0.0, 1e-12, False)[0][0]
        assert abs(v.real) < 1e-10
        assert abs(v.imag - np.pi) < 1e-14

    def test_pole_outside_support_is_regular(self):
        g = lambda u: np.exp(-u * u)
        v = dsp._cauchy_rows(g, -6.0, 6.0, 10.0, 1e-12, False)[0][0]
        want = quad(lambda u: np.exp(-u * u) / (10.0 - u), -6.0, 6.0)[0]
        assert abs(v - want) < 1e-10

    def test_real_pole_on_support_endpoint_raises(self):
        g = lambda u: np.exp(-u * u)
        with pytest.raises(ValueError):
            dsp._cauchy_rows(g, -6.0, 6.0, np.array([0.5, 6.0]), 1e-12,
                             False)
        # off the axis the endpoint is harmless
        assert np.isfinite(dsp._cauchy_rows(g, -6.0, 6.0, 6.0 - 0.1j,
                                            1e-12, False)[0][0])

    def test_real_pole_on_vanishing_endpoint_is_finite(self):
        # int (1 - u^2)/(+-1 - u) du over [-1, 1] = +-int (1 +- u) du = +-2
        g = lambda u: 1.0 - u * u
        v = dsp._cauchy_rows(g, -1.0, 1.0, np.array([1.0, -1.0]), 1e-13,
                             False)[0]
        assert np.max(np.abs(v.real - [2.0, -2.0])) < 1e-12
        assert np.all(v.imag == 0.0)

    def test_real_pole_on_square_root_endpoint_meets_tol(self, fermi2):
        # int 2 sqrt(1 - u^2)/(+-1 - u) du over [-1, 1] = +-2 pi; the
        # integrand grows like (1 -+ u)^-1/2 into the graded layout's end
        # cell, whose Gauss sum alone was 7e-8 off; the corrected cell's
        # 6e-12 error is covered by its own estimate
        v, err = dsp._cauchy_rows(fermi2.phi, -1.0, 1.0, np.array([1.0, -1.0]),
                                  1e-10, True)
        assert np.max(np.abs(v.real - [2.0 * np.pi, -2.0 * np.pi])) < 1e-10
        assert np.all(v.imag == 0.0)
        assert np.all(err <= 1e-10)
        assert np.all(np.abs(v.real - [2.0 * np.pi, -2.0 * np.pi]) <= err)

    def test_panel_cap_raises(self):
        # a jump inside the segment converges like the panel width only
        step = lambda u: (np.asarray(u) > 0.3).astype(float)
        with pytest.raises(EvaluationBudgetExceeded):
            dsp._cauchy_rows(step, -1.0, 1.0, 2.0 - 1.0j, 1e-12, False)

    def test_near_axis_cubic_needs_no_refinement(self, monkeypatch):
        # the cubic subtraction leaves a quadratic: the first fine level is
        # exact even at |Im z| = 5e-4, far below the panel width
        monkeypatch.setattr(quadrature, "_PANELS_CAP",
                            2 * quadrature._PANELS_START)
        p = np.polynomial.Polynomial([0.3, -0.2, 0.5, 0.7])
        z = 0.37 - 5e-4j
        got = dsp._cauchy_rows(p, -1.0, 1.0, z, 1e-12, False)[0][0]
        q = (p - p(z)) // np.polynomial.Polynomial([-z, 1.0])
        want = p(z) * (np.log(z + 1.0) - np.log(z - 1.0)) \
            - (q.integ()(1.0) - q.integ()(-1.0))
        assert abs(got - want) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(coef=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           a=st.floats(-2.0, 0.0), width=st.floats(0.5, 3.0),
           pos=st.floats(-0.5, 1.5), height=st.sampled_from(
               [0.0, -0.02, -0.3, 0.8, -2.5]))
    def test_exact_on_cubics(self, coef, a, width, pos, height):
        b = a + width
        x = a + pos * width
        assume(min(abs(x - a), abs(x - b)) > 1e-3 * width or height != 0.0)
        z = complex(x, height)
        p = np.polynomial.Polynomial(coef)
        got = dsp._cauchy_rows(p, a, b, z, 1e-13, False)[0][0]
        # p(u) = p(z) + (u - z) q(u): the integral is p(z) I0 - int q
        i0 = np.log(z - a) - np.log(z - b)
        q = sum(coef[j] * np.polynomial.Polynomial(
            [z ** (j - 1 - n) for n in range(j)]) for j in range(1, 4))
        qi = q.integ()
        if height == 0.0:
            want = p(x) * i0.real - (qi(b) - qi(a)).real
            if a < x < b:
                want += 1j * np.pi * p(x)
        else:
            want = p(z) * i0 - (qi(b) - qi(a))
        assert abs(got - want) < 1e-12


def _complex_residual_sums(gu, u, wt, z, s, taylor):
    """The subtracted Cauchy sums in complex arithmetic, the whole
    z x node matrix at once."""
    v = u - s[:, None]
    c = taylor[:, :, None]
    num = gu - (c[:, 0] + v * (c[:, 1] + v * (c[:, 2] + v * c[:, 3])))
    den = z[:, None] - u
    return np.divide(num, den, out=np.zeros(den.shape, dtype=complex),
                     where=den != 0) @ wt


class TestRealArithmeticKernel:
    """The blocked real-arithmetic sums behind ``_cauchy_rows`` against
    the complex division they replace."""

    @pytest.mark.parametrize("name", ["gauss3", "fermi5"])
    def test_matches_complex_division(self, name, request, monkeypatch):
        m = request.getfixturevalue(name)
        U = m.u_support
        graded = np.isfinite(m.upsilon)
        u, wt = quadrature.graded_layout(-U, U, 32, graded)
        # on the axis, on a node of the layout (where the complex
        # denominator is 0), just off the axis, and off the segment
        zs = np.array([0.3 * U, -0.71 * U, u[37], u[-40], 0.4 * U - 1e-6j,
                       -0.2 * U + 1e-6j, 1.3 * U, -1.05 * U, 1.1 * U - 0.1j,
                       0.2 - 2.0j])
        s = np.clip(zs.real, -U, U)
        taylor = dsp._taylor(m.phi, -U, U, s)
        gu = m.phi(u)
        sums = dsp._residual_sums(gu, u, wt, zs, s, taylor)
        oracle = _complex_residual_sums(gu, u, wt, zs, s, taylor)
        assert np.max(np.abs(sums - oracle)) <= 1e-13
        got, err = dsp._cauchy_rows(m.phi, -U, U, zs, 1e-10, graded)
        monkeypatch.setattr(dsp, "_residual_sums", _complex_residual_sums)
        want, want_err = dsp._cauchy_rows(m.phi, -U, U, zs, 1e-10, graded)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(err - want_err)) <= 1e-13

    def test_boundary_row_work_memory_is_bounded(self, gauss3, monkeypatch,
                                                 peak_bytes):
        # the 402 poles of a 201-point boundary row at k = 0.2 over the
        # gauss3 support, phi = pi exp(-u^2) in closed form (its spline
        # alone holds several 128 KiB temporaries at 16384 nodes), summed
        # at 512 and 1024 panels: the work buffers hold 64 KiB each, so the
        # peak is the layouts with their values (quadrature.layout_values
        # keeps both), not z x node matrices
        U = gauss3.u_support
        taus = np.linspace(0.0, 40.0, 201)
        zs = np.concatenate([taus / 2 + 0.1, taus / 2 - 0.1]) + 0j
        panels = []
        layout = quadrature.graded_layout
        monkeypatch.setattr(quadrature, "graded_layout", lambda a, b, p, g: (
            panels.append(p) or layout(a, b, p, g)))
        monkeypatch.setattr(quadrature, "_PANELS_START", 512)
        g = lambda u: np.pi * np.exp(-u * u)
        peak = peak_bytes(lambda: dsp._cauchy_rows(g, -U, U, zs, 1e-10, False))
        assert max(panels) >= 1024
        assert peak < 2 ** 20


class TestRows:
    @pytest.mark.xfail(strict=True, raises=EvaluationBudgetExceeded, reason=(
        "the Cauchy rows run on the phi spline, whose 8193 knots over "
        "u_support ~ 1000 are 0.12 apart, and the panel doubling stalls "
        "at 8192 panels even at tol 1e-8"))
    def test_power_decay_row_resolves(self):
        m = build_marginal(power_decay_profile(1, 3))
        row, err = dispersion_row(m, screened_coulomb(0.1), 0.2,
                                  np.array([0.5j]), 1e-8)
        assert np.isfinite(row[0]) and err[0] <= 1e-8

    def test_row_equals_its_one_element_rows(self, gauss3, fermi5, coulomb):
        w5 = delta_potential(0.1)
        near = np.array([0.7j, -1.1j, 0.2 + 0.9j, 1e-2 - 0.4j])
        far5 = (2.0 * fermi5.upsilon + 0.9) * 1j  # on the real branch
        for m, w, k, lts in ((gauss3, coulomb, 0.3, np.append(near, 9.0j)),
                             (fermi5, w5, 0.4, np.append(near, far5)),
                             (gauss3, coulomb, 0.0,
                              np.array([0.8j, 0.3 + 0.2j]))):
            row, err = dispersion_row(m, w, k, lts)
            for lt, v, e in zip(lts, row, err):
                assert abs(v - _d(m, w, k, lt, 1e-10)) < 1e-12
                assert e >= 0.0

    @pytest.mark.parametrize("name", ["fermi2", "fermi4"])
    @pytest.mark.parametrize("k", [0.01, 0.5])
    def test_algebraic_edges_converge(self, name, k, request):
        # phi = c (1 - u^2)^(d-1)/2 has an algebraic edge that uniform
        # panels cannot resolve; the graded layout meets tol 1e-9 on 400
        # boundary points and on poles 5e-7 from the edge.  The midpoint
        # grid keeps every pole off +-1, where a real pole raises.
        m = request.getfixturevalue(name)
        g = 0.1
        taus = np.concatenate([(np.arange(400) + 0.5) * (2.0 + k) / 400,
                               2.0 - k + np.array([-1e-6, 1e-6])])
        got, err = dispersion_row(m, delta_potential(g), k, 1j * taus, 1e-9)
        want = 1.0 + g / (2.0 * k) * (_fermi_hilbert(m.d, (taus + k) / 2)
                                      - _fermi_hilbert(m.d, (taus - k) / 2))
        assert np.max(np.abs(got - want)) < 2e-9
        assert np.max(err) <= g / k * 1e-9

    @pytest.mark.parametrize("k", 2.0 ** -np.array([0, 1, 3, 5, 7, 9]))
    def test_branch_edge_error_covers_the_closed_form(self, fermi2, k):
        # at tau_tilde = 2 + k the pole x_- sits on the edge, whose end cell
        # is the same at every panel count: the fine/coarse gap reads ~0
        # while D is 3e-13 (k = 1) to 2e-10 (k = 2^-9) off, and only the
        # end cell's own estimate (about 2.7 times that) covers it
        g, tau = 0.1, 2.0 + k
        got, err = dispersion_row(fermi2, delta_potential(g), k, 1j * tau,
                                  1e-12)
        want = 1.0 + g / (2.0 * k) * (_fermi_hilbert(2, (tau + k) / 2)
                                      - _fermi_hilbert(2, (tau - k) / 2))
        assert abs(got[0] - want) <= err[0]

    def test_divergent_branch_edge_carries_its_slope(self, fermi1):
        # phi = 1 on [-1, 1] (d = 1) does not vanish at the edge: the shells
        # of phi/((1 - u)(1 + k - u)) toward 1 do not contract
        with pytest.raises(DivergentIntegral) as info:
            dispersion_row(fermi1, delta_potential(0.1), 0.5, 2.5j)
        assert info.value.slope >= -0.05

    def test_rejects_left_half_plane(self, gauss3, coulomb):
        with pytest.raises(ValueError):
            dispersion_row(gauss3, coulomb, 0.5, np.array([1j, -0.1 + 1j]))
