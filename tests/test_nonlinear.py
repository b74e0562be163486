"""Self-consistent evolution on the coarse box grid.

The d = 1 default grid runs in about a second, so the structural facts
(contraction, symmetry, conservation at zero coupling, closeness to the
linear solution at small data) are all exercised directly.  The d = 3
grid is memory-hungry and lives behind the slow marker.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from hartree_mix.dynamics import (
    DensityTrajectory,
    InitialKernel,
    free_density_trajectory,
    volterra_solve,
    y_norm,
)
from hartree_mix import nonlinear
from hartree_mix.nonlinear import (
    Box,
    NoContraction,
    _amplitudes,
    _cartesian_trajectory,
    _closing_pass,
    _ksq_grid,
    _linear_stage_solver,
    _shift_gather,
    _sweep,
    _synthesize,
    _synthesizer,
    _updater,
    initial_state,
    solve_selfconsistent,
)
from hartree_mix.quadrature import filon_coefficients, filon_weights
from hartree_mix.profiles import (
    Potential,
    build_marginal,
    gaussian_profile,
    screened_coulomb,
)

EPS = 1e-2


def _kernel(eps: float = EPS, d: int = 1):
    # gamma0_hat = eps exp(-2(|k|^2 + |p|^2))
    return InitialKernel(d=d, alpha=0.125, epsilon=eps)


def _solve(g0, f, w, **grid):
    """``solve_selfconsistent`` on 33 points of the box [-4, 4], dt 0.1 to
    t_max 30, with N1 = N2 = d + 1, where ``grid`` does not say otherwise."""
    return solve_selfconsistent(g0, f, w, **{
        "k_box": 4.0, "n_pts": 33, "dt": 0.1, "t_max": 30.0,
        "n1": g0.d + 1, "n2": g0.d + 1, **grid})


@dataclass(frozen=True)
class KernelState:
    """Time-indexed profile on the product box [-k_box, k_box]^d x same.

    ``mu_hat`` has shape (n_t,) + (n_pts,)*d + (n_pts,)*d, the first
    block of axes indexing k and the second p.  The reference routes read
    it as a history, and the code under test as its ``Box``.
    """

    axis: np.ndarray
    mu_hat: np.ndarray
    d: int
    dt: float

    @property
    def n_pts(self) -> int:
        return self.axis.size

    @property
    def n_t(self) -> int:
        return self.mu_hat.shape[0]

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt


def _initial_history(g0, k_box, n_pts, dt, t_max):
    """``initial_state`` as a history: a read-only view that repeats the
    one slab at every time node."""
    box, slab = initial_state(g0, k_box, n_pts, dt, t_max)
    return KernelState(axis=box.axis, d=box.d, dt=box.dt,
                       mu_hat=np.broadcast_to(slab, (box.n_t,) + slab.shape))


def _central_history(mu):
    """``_central`` of every node of a history: the central p and k slices,
    (n_t,) + (n,)*d each."""
    d = (mu.ndim - 1) // 2
    c = (mu.shape[-1] - 1) // 2
    return mu[(Ellipsis,) + (c,) * d], mu[(slice(None),) + (c,) * d]


def density_trajectory_from_state(state):
    """Full density history, row-major flattened over the box grid: the
    ``_synthesizer`` row of every node."""
    density = _synthesizer(state, _amplitudes(state))
    rows = np.empty((state.n_pts ** state.d, state.n_t), dtype=complex)
    for i, slab in enumerate(state.mu_hat):
        rows[:, i] = density(i, slab)
    return _cartesian_trajectory(state, rows)


def _picard_step(state, rho_hat, w, f):
    """One full-history Duhamel update of mu_hat for a given density: the
    streamed update's slabs gathered into a fresh history, and its
    leakage."""
    new_mu = np.empty(state.mu_hat.shape, dtype=complex)
    leak, nodes = _updater(state, state.mu_hat[0], w, f)(
        _central_history(state.mu_hat), rho_hat.rho_hat)
    for i, slab in enumerate(nodes()):
        new_mu[i] = slab
    return new_mu, leak


def _density_from_state(state, t):
    """Density row rho_hat(t, .) on the k grid from one time slice, by the
    unfolded route.

    rho_hat(t,k) = int e^{-it(|k-p|^2-|p|^2)} mu_hat(t,k-p,p) dp, and the
    phase factors as e^{-it|k|^2} e^{2itk.p}.  The shifted slab
    mu_hat(t, k-p, p) (zero where k - p leaves the box) is gathered in one
    indexing pass, and each p axis is then contracted against the
    ``filon_weights`` rows at frequency -2 t k_axis of its own k axis.
    ``density_trajectory_from_state`` folds the phases and reads the slab
    through a view.
    """
    axis = state.axis
    i_t = int(round(t / state.dt))
    if abs(i_t * state.dt - t) > 1e-9 * max(state.dt, 1.0):
        raise ValueError("t is not on the state's time grid")
    h = float(axis[1] - axis[0])
    wts = filon_weights(state.n_pts, float(axis[0]), h, -2.0 * t * axis)
    valid, idx = _shift_gather(state)
    slab = np.where(valid, state.mu_hat[i_t][idx], 0.0)
    return np.exp(-1j * t * _ksq_grid(axis, state.d)) * _synthesize(wts, slab)


def _summary(state):
    """The closing pass's ``ProfileSummary`` of a history."""
    return _closing_pass(state, lambda: iter(state.mu_hat), 2)[1]


@pytest.fixture(scope="module")
def solved():
    profile, rho, tracker, report = _solve(
        _kernel(), gaussian_profile(1), screened_coulomb(0.5, 1.0))
    return profile, rho, tracker, report


class TestInitialState:
    def test_box_geometry(self):
        st, slab = initial_state(_kernel(), 4.0, 33, 0.1, 30.0)
        assert isinstance(st, Box)
        assert slab.shape == (33, 33)
        assert st.axis.size == 33
        assert st.axis[0] == pytest.approx(-4.0)
        assert st.axis[-1] == pytest.approx(4.0)
        assert st.t_grid[-1] == pytest.approx(30.0)

    def test_initial_hs_norm_closed_form(self):
        st = _initial_history(_kernel(), 4.0, 33, 0.1, 30.0)
        # ||gamma0_hat||_HS on the box equals eps sqrt(pi)/2 up to the
        # Gaussian tail beyond |k| = 4
        assert _summary(st).hs_norms[0] == pytest.approx(
            EPS * np.sqrt(np.pi) / 2.0, rel=1e-6)

    def test_initial_density_matches_closed_form(self):
        st = _initial_history(_kernel(), 4.0, 33, 0.1, 30.0)
        got = _density_from_state(st, 0.0)
        want = EPS * np.sqrt(np.pi) / 2.0 * np.exp(-st.axis ** 2)
        assert np.max(np.abs(got - want)) < 1e-5

    def test_initial_state_is_hermitian(self):
        st = _initial_history(_kernel(), 4.0, 33, 0.1, 30.0)
        assert _summary(st).hermitian_defect < 1e-14


class TestDensitySynthesis:
    def test_product_state_gives_product_density(self):
        # mu(k, p) = a(k1, p1) b(k2, p2) factors the d = 2 p-integral, so
        # the density is the product of the two d = 1 densities
        rng = np.random.default_rng(3)
        axis = np.linspace(-2.0, 2.0, 9)
        shape = (4, 9, 9)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mu = np.einsum("tac,tbd->tabcd", a, b)
        two = KernelState(axis=axis, mu_hat=mu, d=2, dt=0.1)
        for t in (0.0, 0.2, 0.3):
            rho_a = _density_from_state(
                KernelState(axis=axis, mu_hat=a, d=1, dt=0.1), t)
            rho_b = _density_from_state(
                KernelState(axis=axis, mu_hat=b, d=1, dt=0.1), t)
            got = _density_from_state(two, t)
            assert got.shape == (9, 9)
            want = np.outer(rho_a, rho_b)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestSolve:
    def test_converges_with_contraction(self, solved):
        _, _, _, report = solved
        assert report.iterations <= 15
        assert report.distances[-1] < 1e-10
        assert max(report.contraction_factors) < 0.5

    def test_keeps_hermitian_symmetry(self, solved):
        profile, _, _, _ = solved
        assert profile.hermitian_defect <= 1e-10

    def test_small_data_tracks_linear_solution(self, solved):
        profile, rho, _, _ = solved
        free = free_density_trajectory(_kernel(), np.abs(profile.axis),
                                       profile.t_grid)
        lin = volterra_solve(build_marginal(gaussian_profile(1)),
                             screened_coulomb(0.5, 1.0), free)
        assert np.max(np.abs(rho.rho_hat - lin.rho_hat)) < 10.0 * EPS ** 2

    def test_scattering_distances_decrease(self, solved):
        profile, _, _, _ = solved
        rows = profile.scattering
        vals = [r[1] for r in rows]
        assert vals[-1] == 0.0
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_stops_relative_to_the_density(self, solved):
        # the weights N1 = N2 = d + 1: Y(rho) is about 0.36, so an
        # absolute stop of 1e-10 would be 3e-10 of it
        _, rho, tracker, report = solved
        y_rho = y_norm(rho, 2, 2)
        assert report.distances[-1] <= nonlinear._RTOL * y_rho
        assert tracker.y_norm == y_rho

    def test_stops_relative_to_the_density_at_larger_weights(self):
        # N1 = 4 on the same grid: Y(rho) is about 4.7e3
        _, rho, _, report = _solve(
            _kernel(), gaussian_profile(1), screened_coulomb(0.5, 1.0),
            n1=4, n2=2)
        assert report.distances[-1] <= nonlinear._RTOL * y_norm(rho, 4, 2)

    def test_norm_tracker_levels(self, solved):
        _, _, tracker, _ = solved
        assert tracker.y_norm > 0.0
        assert tracker.z_norm > 0.0
        assert np.all(np.isfinite(tracker.x_norms))
        assert tracker.x_norms.shape[0] == tracker.t_grid.size


def _picard_by_direct_sums(state, rho, w, f):
    """_picard_step's update with every l-sum written out (d = 1)."""
    ax, dt, mu = state.axis, state.dt, state.mu_hat
    n, c, dl = ax.size, (ax.size - 1) // 2, ax[1] - ax[0]
    r = rho.rho_hat.T
    w_at = lambda x: float(w.w_hat(np.array([abs(x)]))[0])
    f_at = lambda e: float(np.asarray(f.f(np.array([e])))[0])
    terms = np.zeros_like(mu)
    for i, s in enumerate(state.t_grid):
        for a, k in enumerate(ax):
            for b, p in enumerate(ax):
                if 0 <= a + b - c < n:
                    terms[i, a, b] += (np.exp(1j * s * (k * k - p * p))
                                       * w_at(k + p) * r[i, a + b - c]
                                       * (f_at(p * p) - f_at(k * k)))
                for e, l in enumerate(ax):
                    cl = w_at(l) * r[i, e] * dl
                    if 0 <= a - e + c < n:
                        terms[i, a, b] += cl * np.exp(1j * s * l * (2 * k - l)) \
                            * mu[i, a - e + c, b]
                    if 0 <= b - e + c < n:
                        terms[i, a, b] -= cl * np.exp(-1j * s * l * (2 * p - l)) \
                            * mu[i, a, b - e + c]
    out = np.empty_like(mu)
    out[0] = mu[0]
    for i in range(1, mu.shape[0]):
        out[i] = out[i - 1] - 0.5j * dt * (terms[i - 1] + terms[i])
    return out


class TestPicardStep:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "fftconvolve(mode='same') returns the shape of its first argument, "
        "(n, 1) or (1, n), so each shift term keeps only the central p "
        "(resp. k) index of the (k, p) convolution"))
    def test_matches_direct_sums(self):
        rng = np.random.default_rng(5)
        axis = np.linspace(-2.0, 2.0, 9)
        mu = rng.standard_normal((3, 9, 9)) + 1j * rng.standard_normal((3, 9, 9))
        state = KernelState(axis=axis, mu_hat=mu, d=1, dt=0.1)
        rho = DensityTrajectory(
            k_grid=axis, t_grid=state.t_grid,
            rho_hat=rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
        w, f = screened_coulomb(0.5, 1.0), gaussian_profile(1)
        got, _ = _picard_step(state, rho, w, f)
        want = _picard_by_direct_sums(state, rho, w, f)
        assert np.max(np.abs(got - want)) < 1e-12


def _random_state(rng, d, n, n_t):
    axis = np.linspace(-2.0, 2.0, n)
    shape = (n_t,) + (n,) * (2 * d)
    mu = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    state = KernelState(axis=axis, mu_hat=mu, d=d, dt=0.1)
    rho = DensityTrajectory(
        k_grid=np.zeros(n ** d), t_grid=state.t_grid,
        rho_hat=(rng.standard_normal((n ** d, n_t))
                 + 1j * rng.standard_normal((n ** d, n_t))))
    return state, rho


def _shift_coefficients(state, rho, w):
    """|k|^2 on the grid and, per time node, the coefficient row
    w_hat(k) rho_hat(k) h^d the shift terms convolve with."""
    d, n, axis = state.d, state.n_pts, state.axis
    n_t = state.mu_hat.shape[0]
    ksq = sum(g ** 2 for g in np.meshgrid(*([axis] * d), indexing="ij"))
    r = np.moveaxis(rho.rho_hat, -1, 0).reshape((n_t,) + (n,) * d)
    return ksq, np.asarray(w.w_hat(np.sqrt(ksq))) * r * (axis[1] - axis[0]) ** d


def _trapezoid_update(state, terms):
    """mu(t_i) = mu(0) - i int_0^t_i terms, trapezoid in time."""
    mu = state.mu_hat
    out = np.empty_like(mu)
    out[0] = mu[0]
    acc = np.zeros_like(mu[0])
    for i in range(1, mu.shape[0]):
        acc = acc + (0.5 * state.dt) * (terms[i - 1] + terms[i])
        out[i] = mu[0] - 1j * acc
    return out


def _shift_update_by_fftconvolve(state, rho, w):
    """_picard_step's update from its shift terms alone, each computed as
    the two ``fftconvolve(mode="same")`` calls the step once made."""
    from scipy.signal import fftconvolve

    d, n, mu = state.d, state.n_pts, state.mu_hat
    ksq, coeffs = _shift_coefficients(state, rho, w)
    kshape, pshape = (n,) * d + (1,) * d, (1,) * d + (n,) * d
    k_axes, p_axes = tuple(range(d)), tuple(range(d, 2 * d))
    terms = np.empty_like(mu)
    for i, s in enumerate(state.t_grid):
        eks = np.exp(-1j * s * ksq)
        p1 = fftconvolve(coeffs[i].reshape(kshape),
                         eks.reshape(kshape) * mu[i], mode="same",
                         axes=k_axes)
        p2 = fftconvolve(coeffs[i].reshape(pshape),
                         np.conj(eks).reshape(pshape) * mu[i], mode="same",
                         axes=p_axes)
        terms[i] = np.conj(eks).reshape(kshape) * p1 \
            - eks.reshape(pshape) * p2
    return _trapezoid_update(state, terms)


def _shift_update_by_direct_sums(state, rho, w):
    """The same update with no FFT: with e = exp(-i s |k|^2), c the
    centre index and l over the coefficient row, the k-shift term at
    (k, p) is conj(e_k) sum_l coeff_l e_{k+c-l} mu[k+c-l, c] and the
    p-shift term e_p sum_l coeff_l conj(e_{p+c-l}) mu[c, p+c-l], each a
    sum over the shifts that stay inside the box."""
    d, n, mu = state.d, state.n_pts, state.mu_hat
    ksq, coeffs = _shift_coefficients(state, rho, w)
    kshape, pshape = (n,) * d + (1,) * d, (1,) * d + (n,) * d
    centre = ((n - 1) // 2,) * d
    terms = np.empty_like(mu)
    for i, s in enumerate(state.t_grid):
        eks = np.exp(-1j * s * ksq)
        p1 = np.zeros((n,) * d, dtype=complex)
        p2 = np.zeros((n,) * d, dtype=complex)
        for j in np.ndindex(p1.shape):
            for l in np.ndindex(p1.shape):
                m = tuple(a + c - b for a, c, b in zip(j, centre, l))
                if all(0 <= x < n for x in m):
                    p1[j] += coeffs[i][l] * eks[m] * mu[i][m + centre]
                    p2[j] += coeffs[i][l] * np.conj(eks[m]) \
                        * mu[i][centre + m]
        terms[i] = np.conj(eks).reshape(kshape) * p1.reshape(kshape) \
            - eks.reshape(pshape) * p2.reshape(pshape)
    return _trapezoid_update(state, terms)


class TestStreamedStep:
    @pytest.mark.parametrize("d,n", [(1, 9), (2, 5)])
    def test_shift_terms_match_fftconvolve(self, d, n):
        # a flat f removes the linear term, so the step is its shift terms
        rng = np.random.default_rng(7 + d)
        state, rho = _random_state(rng, d, n, 4)
        before = state.mu_hat.copy()
        w = screened_coulomb(0.5, 1.0)
        flat = replace(gaussian_profile(d), f=lambda e: np.ones_like(e))
        got, _ = _picard_step(state, rho, w, flat)
        # the step's FFTs and scipy's round differently (5e-16 at d = 2),
        # so both oracles are met to 1e-14 of the largest entry
        for want in (_shift_update_by_fftconvolve(state, rho, w),
                     _shift_update_by_direct_sums(state, rho, w)):
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
        # the step never writes into its input history
        np.testing.assert_array_equal(state.mu_hat, before)


def _linear_terms_by_entry_phases(state, rho, w, f):
    """_picard_step's linear term with one complex exponential per (k, p)
    entry and node, e^{is(|k|^2-|p|^2)} w_hat(k+p) rho(s,k+p) (f(|p|^2) -
    f(|k|^2)), zero where k + p leaves the box; and the fraction of
    |w_hat(k+p) (f(|p|^2) - f(|k|^2))| that falls off the box."""
    d, n, axis = state.d, state.n_pts, state.axis
    n_t = state.mu_hat.shape[0]
    grids = np.meshgrid(*([axis] * (2 * d)), indexing="ij")
    k, p = grids[:d], grids[d:]
    ksq, psq = sum(g ** 2 for g in k), sum(g ** 2 for g in p)
    kpsum = np.sqrt(sum((a + b) ** 2 for a, b in zip(k, p)))
    coeff = np.asarray(w.w_hat(kpsum)) * (f.f(psq) - f.f(ksq))
    idx = np.indices((n,) * (2 * d))
    m = [idx[ax] + idx[d + ax] - (n - 1) // 2 for ax in range(d)]
    ok = np.all([(x >= 0) & (x < n) for x in m], axis=0)
    r = np.moveaxis(rho.rho_hat, -1, 0).reshape((n_t,) + (n,) * d)
    terms = np.empty_like(state.mu_hat)
    for i, s in enumerate(state.t_grid):
        r_sum = np.where(ok, r[i][tuple(np.clip(x, 0, n - 1) for x in m)], 0)
        terms[i] = np.exp(1j * s * (ksq - psq)) * coeff * r_sum
    return terms, float(np.sum(np.abs(coeff) * ~ok) / np.sum(np.abs(coeff)))


def _shift_leakage_by_node(state, rho, w):
    """The shift terms' leakage summed node by node: each node's
    coefficient mass weighted by the fraction of targets k - l that a
    shift by l pushes off the box, |j - c| / n per axis for index j."""
    d, n = state.d, state.n_pts
    _, coeffs = _shift_coefficients(state, rho, w)
    out = np.abs(np.arange(n) - (n - 1) // 2) / n
    keep = np.ones((n,) * d)
    for ax in range(d):
        keep = keep * (1.0 - out.reshape((1,) * ax + (n,) + (1,) * (d - ax - 1)))
    mass = lost = 0.0
    for c in coeffs:
        mass += float(np.sum(np.abs(c)))
        lost += float(np.sum(np.abs(c) * (1.0 - keep)))
    return lost / mass


class TestSeparablePhase:
    @pytest.mark.parametrize("d,n", [(1, 9), (2, 5)])
    def test_step_matches_entrywise_phases(self, d, n):
        rng = np.random.default_rng(17 + d)
        state, rho = _random_state(rng, d, n, 4)
        w, f = screened_coulomb(0.5, 1.0), gaussian_profile(d)
        got, got_leak = _picard_step(state, rho, w, f)
        lin, lin_frac = _linear_terms_by_entry_phases(state, rho, w, f)
        want = (_trapezoid_update(state, lin)
                + _shift_update_by_fftconvolve(state, rho, w)
                - state.mu_hat[0])
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-14 * np.max(np.abs(want)))
        leak = 0.5 * (lin_frac + _shift_leakage_by_node(state, rho, w))
        assert got_leak == pytest.approx(leak, rel=1e-14, abs=0)


def _filon_table(state):
    """Every node's synthesis weight rows from ``filon_weights`` itself:
    entry [i, j] is the row at frequency -2 t_i axis[j]."""
    axis, t_grid, n = state.axis, state.t_grid, state.n_pts
    omega = (-2.0 * t_grid[:, None] * axis[None, :]).ravel()
    return filon_weights(n, axis[0], axis[1] - axis[0], omega).reshape(
        t_grid.size, n, n)


def _march_by_node_exponentials(state, w, f):
    """The d = 1 linear-stage march with Phi = e^{i t_a ((k-p)^2 - p^2)}
    taken as one exponential per entry and node, and the weights of every
    node from ``filon_weights``."""
    axis, t_grid, dt = state.axis, state.t_grid, state.dt
    weights = _filon_table(state)
    n, n_t, c = axis.size, t_grid.size, (axis.size - 1) // 2
    fax = np.asarray(f.f(axis ** 2), dtype=float)
    alpha = -1j * np.asarray(w.w_hat(np.abs(axis)), dtype=float)
    jp = np.arange(n)
    m = jp[:, None] - jp[None, :] + c
    mc = np.clip(m, 0, n - 1)
    fd = np.where((m >= 0) & (m < n), fax[None, :] - fax[mc], 0.0)
    gain = [np.exp(-1j * t * axis * axis)[:, None] * weights[a] * fd
            for a, t in enumerate(t_grid)]
    phi = [np.exp(1j * t * (axis[mc] ** 2 - axis[jp] ** 2)) for t in t_grid]
    den = np.ones((n_t, n), dtype=complex)
    for a in range(1, n_t):
        den[a] -= 0.5 * dt * alpha * np.sum(gain[a] * phi[a], axis=1)

    def correct(resid):
        x = np.empty(resid.shape, dtype=complex)
        x[:, 0] = resid[:, 0]
        run = np.zeros((n, n), dtype=complex)
        for a in range(1, n_t):
            hist = np.sum(gain[a] * (0.5 * dt * x[:, :1] + dt * run), axis=1)
            x[:, a] = (resid[:, a] + alpha * hist) / den[a]
            run += phi[a] * x[:, a:a + 1]
        return x

    return correct


def _dense_linear_stage(state, w, f):
    """The d = 1 linear stage as n dense lower-triangular time matrices."""
    axis, t_grid, dt = state.axis, state.t_grid, state.dt
    n, n_t = axis.size, t_grid.size
    c, h = (n - 1) // 2, axis[1] - axis[0]
    fax = np.asarray(f.f(axis ** 2), dtype=float)
    wk = np.asarray(w.w_hat(np.abs(axis)), dtype=float)
    coef = np.tril(np.full((n_t, n_t), dt))
    idx = np.arange(n_t)
    coef[:, 0] = 0.5 * dt
    coef[idx, idx] = 0.5 * dt
    coef[0, :] = 0.0
    jp = np.arange(n)
    mats = []
    for i, k in enumerate(axis):
        m = i - jp + c
        mc = np.clip(m, 0, n - 1)
        fd = np.where((m >= 0) & (m < n), fax[jp] - fax[mc], 0.0)
        wts = filon_weights(n, axis[0], h, -2.0 * t_grid * k)
        g_mat = np.exp(-1j * t_grid * k * k)[:, None] * wts * fd[None, :]
        phases = np.exp(1j * np.outer(axis[mc] ** 2 - axis ** 2, t_grid))
        lin = -1j * wk[i] * (g_mat @ phases) * coef
        mats.append(np.eye(n_t) - lin)
    return lambda r: np.array([solve_triangular(mats[i], r[i], lower=True)
                               for i in range(n)])


class TestDensityRows:
    @staticmethod
    def _assert_rows_match_reference(state):
        # the folded phases, sheared views and slot sums of the sweeps
        # against the filon_weights rows and gather of the reference route
        rows = density_trajectory_from_state(state).rho_hat
        for i, t in enumerate(state.t_grid):
            want = _density_from_state(state, float(t)).ravel()
            assert np.max(np.abs(rows[:, i] - want)) \
                <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("t_max", [30.0, 100.0])
    def test_matches_density_from_state_at_every_node(self, t_max):
        # up to 1001 nodes on 65 points, where 2 t k h runs to 100
        self._assert_rows_match_reference(
            _initial_history(_kernel(), 4.0, 65, 0.1, t_max))

    def test_random_history_matches_density_from_state(self):
        # every node different and no decay toward the box edge.  The fold
        # forms the small phase t(|p|^2 - |k-p|^2) near k = 0 from two
        # phases as large as t k_box^2, so on such flat data its rounding
        # grows with t: 3.5e-14 here, and 1.2e-13 against an
        # extended-precision sum at t = 91.6, where the reference is
        # within 7.7e-15 of it
        rng = np.random.default_rng(41)
        mu = rng.standard_normal((301, 65, 65)) \
            + 1j * rng.standard_normal((301, 65, 65))
        self._assert_rows_match_reference(KernelState(
            axis=np.linspace(-4.0, 4.0, 65), mu_hat=mu, d=1, dt=0.1))

    def test_matches_density_from_state_at_d2(self):
        rng = np.random.default_rng(43)
        state, _ = _random_state(rng, 2, 9, 6)
        self._assert_rows_match_reference(replace(state, dt=1.0))

    def test_one_filon_coefficients_call_per_solve(self, monkeypatch):
        # every pass of a solve, and its linear stage, share one amplitude
        # table
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return filon_coefficients(theta)

        monkeypatch.setattr(nonlinear, "filon_coefficients", counted)
        _, _, _, report = _solve(
            _kernel(), gaussian_profile(1), screened_coulomb(0.5, 1.0),
            n_pts=9, t_max=3.0)
        assert report.iterations >= 2
        assert calls == [(31, 9)]


class TestLinearStageMarch:
    def test_march_matches_dense_triangular_solve(self):
        g0, f = _kernel(), gaussian_profile(1)
        w = screened_coulomb(0.5, 1.0)
        state = _initial_history(g0, 4.0, 9, 0.1, 3.0)
        assert state.t_grid.size == 31
        free = density_trajectory_from_state(state)
        correct = _linear_stage_solver(state, w, f, _amplitudes(state))
        rng = np.random.default_rng(11)
        re, im = rng.standard_normal((2, 9, 31))
        resid = re + 1j * im
        for r in (resid, free.rho_hat):
            want = _dense_linear_stage(state, w, f)(r)
            got = correct(r)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


    def test_running_product_matches_node_exponentials(self):
        # 301 nodes: the running product fd e^{i dt expo}^a drifts from the
        # node-wise exponentials by rounding only, on 9 and 33 points
        g0, f = _kernel(), gaussian_profile(1)
        w = screened_coulomb(0.5, 1.0)
        rng = np.random.default_rng(13)
        for n in (9, 33):
            state = _initial_history(g0, 4.0, n, 0.1, 30.0)
            assert state.t_grid.size == 301
            free = density_trajectory_from_state(state)
            correct = _linear_stage_solver(state, w, f, _amplitudes(state))
            direct = _march_by_node_exponentials(state, w, f)
            re, im = rng.standard_normal((2, n, 301))
            for r in (re + 1j * im, free.rho_hat):
                want = direct(r)
                got = correct(r)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d,n,t_max", [(1, 9, 3.0), (2, 5, 1.0),
                                           (2, 9, 3.0), (3, 5, 0.5)])
    def test_march_inverts_the_update_synthesis_pass(self, d, n, t_max):
        # with zero data the update is its linear term alone, so the code's
        # own update-plus-synthesis pass on x is Lx, and x = (I - L)^{-1} r
        # must satisfy x - Lx = r to rounding
        g0, f = _kernel(0.0, d), gaussian_profile(d)
        w = screened_coulomb(0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = _initial_history(g0, 4.0, n, 0.1, t_max)
        free = density_trajectory_from_state(state)
        rng = np.random.default_rng(37 + d)
        re, im = rng.standard_normal((2,) + free.rho_hat.shape)
        resid = re + 1j * im
        x = _linear_stage_solver(state, w, f, _amplitudes(state))(resid)
        lx_mu, _ = _picard_step(state, replace(free, rho_hat=x), w, f)
        lx = density_trajectory_from_state(replace(state, mu_hat=lx_mu))
        assert np.max(np.abs(x - lx.rho_hat - resid)) \
            <= 1e-14 * np.max(np.abs(resid))


class TestMemory:
    def test_solve_holds_under_1_6_histories(self, peak_bytes):
        # the sweeps stream the nodes, and no pass forms weight rows: the
        # peak is a few slabs, density rows, spectra and the Filon
        # amplitude table; a history or an (n_t, n, n) weight table would
        # read at least 1 here
        history = 301 * 33 ** 2 * 16
        peak = peak_bytes(lambda: _solve(
            _kernel(), gaussian_profile(1), screened_coulomb(0.5, 1.0)))
        assert peak < 1.6 * history

    def test_peak_grows_less_than_half_the_history_of_added_nodes(
            self, peak_bytes):
        # 65 points from t_max 15 to 30: 150 more nodes, whose history
        # would add 10.1 MB; the time-indexed rows and spectra the stream
        # keeps add about a quarter of that
        def peak(t_max):
            return peak_bytes(lambda: _solve(
                _kernel(), gaussian_profile(1), screened_coulomb(0.5, 1.0),
                n_pts=65, t_max=t_max))

        added_history = 150 * 65 ** 2 * 16
        assert peak(30.0) - peak(15.0) < 0.5 * added_history


class TestStreamedSweep:
    @pytest.mark.parametrize("d,n", [(1, 9), (2, 5)])
    def test_stream_equals_picard_step_bitwise(self, d, n):
        # a random history and density, so every node differs from node 0
        rng = np.random.default_rng(29 + d)
        state, rho = _random_state(rng, d, n, 4)
        w, f = screened_coulomb(0.5, 1.0), gaussian_profile(d)
        want, want_leak = _picard_step(state, rho, w, f)
        want_rows = density_trajectory_from_state(
            replace(state, mu_hat=want)).rho_hat
        update = _updater(state, state.mu_hat[0], w, f)
        central = tuple(np.array(s) for s in _central_history(state.mu_hat))
        leak, nodes = update(central, rho.rho_hat)
        assert leak == want_leak
        for i, slab in enumerate(nodes()):
            np.testing.assert_array_equal(slab, want[i])
        # the sweep synthesizes each node as it streams and keeps the new
        # iterate's central slices in place of the old ones
        rows = _sweep(update, _synthesizer(state, _amplitudes(state)),
                      central, rho.rho_hat)
        np.testing.assert_array_equal(rows, want_rows)
        for kept, slices in zip(central, _central_history(want)):
            np.testing.assert_array_equal(kept, slices)

    @pytest.mark.parametrize("d,n", [(1, 9), (2, 5)])
    def test_closing_pass_matches_history_diagnostics(self, d, n):
        # the per-node norms of a streamed pass against the same norms
        # written out node by node over the history, bit for bit, on a
        # history with a NaN node
        rng = np.random.default_rng(31 + d)
        state, _ = _random_state(rng, d, n, 5)
        dv = float(np.diff(state.axis)[0]) ** d
        rev = (slice(None, None, -1),) * (2 * d)
        swap = tuple(range(d, 2 * d)) + tuple(range(d))

        def hs(mu):
            return np.sqrt(np.sum(np.abs(mu) ** 2)) * dv

        def defect(history):
            # np.max, unlike Python's max, keeps a NaN node
            return np.max([
                np.max(np.abs(mu - np.conj(np.transpose(mu[rev], swap))))
                for mu in history])

        state.mu_hat[2].flat[3] = np.nan
        profile = _summary(state)
        np.testing.assert_array_equal(
            profile.hs_norms, [hs(mu) for mu in state.mu_hat])
        last = state.mu_hat[-1]
        np.testing.assert_array_equal(profile.scattering, np.column_stack(
            [state.t_grid, [hs(mu - last) for mu in state.mu_hat]]))
        assert np.isnan(profile.hermitian_defect)
        assert np.isnan(defect(state.mu_hat))
        state.mu_hat[2].flat[3] = 0.0
        assert _summary(state).hermitian_defect == defect(state.mu_hat)


class TestNormTracker:
    @pytest.mark.parametrize("d,n,n_t", [(1, 33, 40), (2, 9, 5)])
    def test_streamed_norms_match_node_by_node_differences(self, d, n,
                                                            n_t):
        # the closing pass scales its differences in place; x_norms must
        # equal the per-node formula bit for bit
        rng = np.random.default_rng(53 + d)
        state, _ = _random_state(rng, d, n, n_t)
        x, profile = _closing_pass(state, lambda: iter(state.mu_hat), 2)
        x = nonlinear._tracker(x, profile.t_grid, 1.0, 4).x_norms
        axis, h = state.axis, float(np.diff(state.axis)[0])
        ksq = sum(g ** 2 for g in np.meshgrid(*([axis] * d), indexing="ij"))
        joint = (1.0 + ksq.reshape((n,) * d + (1,) * d)
                 + ksq.reshape((1,) * d + (n,) * d)) ** (2 / 2.0)
        inner = (slice(1, -1),) * (2 * d)
        want = np.empty((n_t, 3))
        for i, mu in enumerate(state.mu_hat):
            fwd = mu[(slice(2, None),) * d + (slice(None, -2),) * d]
            back = mu[(slice(None, -2),) * d + (slice(2, None),) * d]
            want[i] = [
                np.max(joint * np.abs(mu)),
                np.max(joint[inner] * np.abs((fwd - back) / (2.0 * h))),
                np.max(joint[inner] * np.abs(
                    (fwd - 2.0 * mu[inner] + back) / (h * h)))]
        np.testing.assert_array_equal(x, want)


class TestDegenerateCouplings:
    def test_zero_potential_conserves_hs_exactly(self):
        w0 = Potential(
            "zero", lambda k: np.zeros_like(np.asarray(k, dtype=float)), 0.0)
        profile, _, _, report = _solve(
            _kernel(), gaussian_profile(1), w0)
        norms = profile.hs_norms
        assert float(np.max(norms) - np.min(norms)) == 0.0
        assert report.iterations <= 2

    def test_zero_data_converges_immediately(self):
        profile, rho, _, report = _solve(
            _kernel(0.0), gaussian_profile(1), screened_coulomb(0.5, 1.0))
        assert report.iterations == 1
        assert np.max(np.abs(rho.rho_hat)) == 0.0
        # every node's HS norm is 0, so every node's profile is
        assert np.max(profile.hs_norms) == 0.0


class TestFailedSolves:
    def test_overflow_to_nan_raises(self):
        # the distances run past 1e250 and overflow to NaN, which no ratio
        # test catches
        g0 = InitialKernel(d=1, alpha=0.125, epsilon=1e30 * np.pi / 0.125)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="perturbative"), \
                pytest.raises(NoContraction, match="nan"):
            _solve(g0, gaussian_profile(1), screened_coulomb(0.5, 1.0),
                   n_pts=5, t_max=3.0)

    def test_running_out_of_sweeps_raises(self, monkeypatch):
        monkeypatch.setattr(nonlinear, "_MAX_SWEEPS", 2)
        with pytest.raises(NoContraction, match="after 2 sweeps"):
            _solve(_kernel(), gaussian_profile(1),
                   screened_coulomb(0.5, 1.0), n_pts=9, t_max=3.0)

    def test_hermitian_defect_keeps_a_nan_node(self):
        st = _initial_history(_kernel(), 4.0, 9, 0.1, 0.3)
        # the initial history is a read-only view of one slab
        st = replace(st, mu_hat=st.mu_hat.copy())
        st.mu_hat[2, 4, 4] = np.nan
        assert np.isnan(_summary(st).hermitian_defect)


class TestTwoDimensional:
    def test_converges_in_few_sweeps(self):
        # the exact linear stage leaves only the quadratic remainder to
        # contract, as at d = 1
        with pytest.warns(RuntimeWarning, match="d = 2"):
            _, _, _, report = _solve(
                _kernel(d=2), gaussian_profile(2), screened_coulomb(0.5, 1.0),
                n_pts=9, t_max=10.0)
        assert report.iterations <= 12
        assert max(report.contraction_factors) < 0.5


class TestAmplitudeScaling:
    def test_halved_data_halves_displacement(self):
        # the t = 0 scattering distance is the full nonlinear displacement
        # and scales linearly in the data at small amplitude
        d0 = {}
        for eps in (EPS, EPS / 2.0):
            profile, _, _, _ = _solve(
                _kernel(eps), gaussian_profile(1), screened_coulomb(0.5, 1.0))
            d0[eps] = profile.scattering[0][1]
        ratio = d0[EPS / 2.0] / d0[EPS]
        assert 0.3 < ratio < 0.7


@pytest.mark.slow
class TestThreeDimensional:
    def test_symmetry_and_contraction_on_coarse_box(self):
        with pytest.warns(RuntimeWarning, match="d = 3 nonlinear run"):
            profile, _, _, report = _solve(
                _kernel(d=3), gaussian_profile(3),
                screened_coulomb(0.5, 1.0), n_pts=9, t_max=3.0)
        assert profile.hermitian_defect <= 1e-10
        assert max(report.contraction_factors) < 0.9
