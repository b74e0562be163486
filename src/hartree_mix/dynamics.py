"""Free Hartree density, linearized Volterra evolution, and reconstruction.

The free density of an initial kernel G0(a, b), the Fourier transform of
the datum gamma0(x, y), is the oscillatory integral

    rho0_hat(t, k) = 2^{-d} int exp(-i t k.v) G0((k+v)/2, (k-v)/2) dv.

The one datum here is the Gaussian G0(a, b) = eps exp(-(|a|^2 + |b|^2)
/(4 alpha)).  Its arguments give |a|^2 + |b|^2 = (|k|^2 + |v|^2)/2, so
the integral is a Gaussian Fourier transform in v, in every d:

    rho0_hat(t, k) = eps (2 pi alpha)^{d/2} exp(-|k|^2/(8 alpha)
                                                - 2 alpha |k|^2 t^2),

real, and tabulated from this closed form.

The linearized evolution is the second-kind Volterra equation

    rho_hat_k(t) + int_0^t K_k(t-s) rho_hat_k(s) ds = S_k(t),
    K_k(t) = 2 w_hat(k) sin(t k^2) phi_hat(2tk),

marched by the trapezoid rule (explicit once K(0) = 0).  Physical-space
sup norms of derivatives are majorized by radial Fourier mass integrals,
which is the quantity the decay fits run on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .profiles import Marginal, Potential, sphere_area

__all__ = [
    "InitialKernel",
    "DensityTrajectory",
    "StepTooLarge",
    "free_density_trajectory",
    "volterra_kernel",
    "volterra_march",
    "volterra_solve",
    "reconstruct_sup_norm",
    "y_norm",
]


class StepTooLarge(UserWarning):
    """Trapezoid correction factor is far from 1; the time step is suspect."""


@dataclass(frozen=True)
class InitialKernel:
    """The Gaussian initial datum G0(k, p) = epsilon exp(-(|k|^2 +
    |p|^2)/(4 alpha)) in dimension d, the kernel transform of gamma0(x, y)
    = epsilon (alpha/pi)^d exp(-alpha(|x|^2 + |y|^2)); the free density
    and the nonlinear box both run on it."""

    d: int
    alpha: float
    epsilon: float


@dataclass(frozen=True)
class DensityTrajectory:
    """Fourier density rho_hat on a (k, t) product grid.

    ``k_grid`` holds the radii of a radial grid, or, for a box grid (one
    row per point, row-major), each point's |k|.
    """

    k_grid: np.ndarray
    t_grid: np.ndarray
    rho_hat: np.ndarray

    def __post_init__(self):
        if self.rho_hat.shape != (len(self.k_grid), len(self.t_grid)):
            raise ValueError("rho_hat must have shape (n_k, n_t)")

    @property
    def dt(self) -> float:
        steps = np.diff(self.t_grid)
        if steps.size and (np.max(steps) - np.min(steps)) > 1e-9 * np.max(steps):
            raise ValueError("t_grid is not uniform")
        return float(steps[0]) if steps.size else 0.0


# ---------------------------------------------------------------------------
# free density


def free_density_trajectory(g0: InitialKernel, k_grid,
                            t_grid) -> DensityTrajectory:
    """Tabulate the free density over a radial k grid and uniform times,
    from its closed form (module docstring)."""
    k_grid = np.asarray(k_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    alpha = g0.alpha
    k2 = (k_grid * k_grid)[:, None]
    rho = g0.epsilon * (2.0 * np.pi * alpha) ** (g0.d / 2.0) * np.exp(
        -k2 / (8.0 * alpha) - 2.0 * alpha * k2 * (t_grid * t_grid)) + 0.0j
    return DensityTrajectory(k_grid=k_grid, t_grid=t_grid, rho_hat=rho)


# ---------------------------------------------------------------------------
# linearized evolution


def volterra_kernel(m: Marginal, w: Potential, k: float, t) -> float | np.ndarray:
    """Time-domain memory kernel K_k(t) = 2 w_hat(k) sin(t k^2) phi_hat(2tk)."""
    if k <= 0:
        raise ValueError("volterra_kernel needs k > 0")
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    wk = w(k)
    out = 2.0 * wk * np.sin(ta * k * k) * np.asarray(m.phi_hat(2.0 * ta * k))
    return float(out[0]) if scalar else out


def volterra_march(kernel_vals, source_vals, dt: float) -> np.ndarray:
    """Trapezoid solution of rho(t) + int_0^t K(t-s) rho(s) ds = S(t).

    Uniform grid, kernel and source sampled on it: one row each, or
    (modes, times) tables whose rows are marched together, one step per
    time node.  K(0) = 0 makes the update explicit; a nonzero K(0) only
    rescales by the trapezoid factor 1 + dt K(0)/2, which is checked for
    sanity (StepTooLarge).
    """
    K = np.asarray(kernel_vals)
    S = np.asarray(source_vals)
    if K.shape != S.shape or K.ndim not in (1, 2):
        raise ValueError("kernel and source must share one uniform grid")
    rows, S = np.atleast_2d(K), np.atleast_2d(S)
    corr = 1.0 + 0.5 * dt * rows[:, 0]
    far = np.abs(corr - 1.0)
    if np.max(far) > 0.25:
        warnings.warn("trapezoid correction factor %.3g is far from 1; "
                      "reduce dt" % abs(corr[np.argmax(far)]), StepTooLarge)
    dtype = np.result_type(K.dtype, S.dtype, float)
    rows = rows.astype(dtype)
    n = rows.shape[1]
    rho = np.empty(rows.shape, dtype=dtype)
    rho[:, 0] = S[:, 0] / corr
    rev = np.ascontiguousarray(rows[:, ::-1])
    for i in range(1, n):
        acc = 0.5 * rows[:, i] * rho[:, 0]
        if i > 1:
            acc += np.einsum("mj,mj->m", rev[:, n - i:n - 1], rho[:, 1:i])
        rho[:, i] = (S[:, i] - dt * acc) / corr
    return rho if K.ndim == 2 else rho[0]


def volterra_solve(m: Marginal, w: Potential, S: DensityTrajectory) -> DensityTrajectory:
    """Linearized density from the source trajectory, every mode k != 0
    marched at once; a k = 0 mode has no memory and keeps its source."""
    rho = S.rho_hat.copy()
    modes = np.flatnonzero(S.k_grid != 0.0)
    if modes.size:
        K = np.array([volterra_kernel(m, w, float(abs(S.k_grid[i])), S.t_grid)
                      for i in modes])
        rho[modes] = volterra_march(K, S.rho_hat[modes], S.dt)
    return DensityTrajectory(k_grid=S.k_grid, t_grid=S.t_grid, rho_hat=rho)


# ---------------------------------------------------------------------------
# physical-space reconstruction


def reconstruct_sup_norm(rho: DensityTrajectory, d: int,
                         n: int = 0) -> np.ndarray:
    """Fourier-mass majorant of sup_x |d^n rho(t, x)| per time, for a
    radial trajectory in dimension d.

    Returns rows (t, bound) with

        bound(t) = (2 pi)^{-d} |S^{d-1}| int r^{n+d-1} |rho_hat_r(t)| dr

    over the stored radial grid.
    """
    r = np.abs(rho.k_grid)
    weight = (2.0 * np.pi) ** (-d) * sphere_area(d) * r ** (n + d - 1)
    bounds = np.trapezoid(weight[:, None] * np.abs(rho.rho_hat), r, axis=0)
    return np.column_stack([rho.t_grid, bounds])


def y_norm(rho: DensityTrajectory, n1: int, n2: int) -> float:
    """Grid sup of <kt>^{N1} <k>^{N2} |rho_hat|: the Y norm of a density,
    or of a difference of two densities on the same grid."""
    k = rho.k_grid[:, None]
    t = rho.t_grid[None, :]
    wt = (1.0 + (k * t) ** 2) ** (n1 / 2.0) * (1.0 + k ** 2) ** (n2 / 2.0)
    return float(np.max(wt * np.abs(rho.rho_hat)))
