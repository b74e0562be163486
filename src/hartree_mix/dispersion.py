"""Dispersion relation of the linearized Hartree dynamics.

For k > 0 the dispersion function has two independent routes:

  * the Hilbert form  D = 1 + w_hat(k)/(2k) [H(z+) - H(z-)] with
    H(z) = int phi(u)/(z - u) du and z+- = (-i lambda +- k^2)/(2k),
    valid off the real axis (Re lambda > 0), whose boundary values on
    lambda = i tau are the Plemelj split of H into a principal value
    plus i pi phi at the pole: ``dispersion_row``, the route every
    caller in the package takes; and
  * the time-integral form  D = 1 + w_hat(k) m_f(lambda, k), valid up to
    the imaginary axis: ``dispersion_time_integral``, kept as the
    independent check of the first.

The memory symbol is the half-line Laplace-Fourier integral

    m_f(lambda, k) = 2 int_0^inf exp(-lambda t) sin(t k^2) phi_hat(2tk) dt;

``m_f`` splits the sine into exponentials, so the grid only resolves
phi_hat while the Filon rule carries the phases exactly, and takes a whole
array of lambda = gamma + i tau on one vertical line in one Filon pass.

Both routes take whole arrays in the rescaled frame lambda = k lambda_tilde.
Every Cauchy integral of phi or phi' goes through one fixed-node engine
for a whole array of z, ``_cauchy_rows``.  It subtracts the numerator's
cubic Taylor polynomial at the pole's real coordinate, which removes the
thin boundary layer instead of asking the quadrature to resolve it: the
subtracted moments have closed forms.  Gauss-Legendre panels, shared by
every z and graded toward +-Upsilon on a compact support, double until
each value agrees with the coarser one.  The sums run in real arithmetic,
1/(z - u) = (x - u - iy)/((x - u)^2 + y^2) for z = x + iy (a node on a
real pole adds 0), on blocks of fixed 64 KiB work buffers.

For |tau_tilde| >= 2 Upsilon + k the poles leave the support and the
boundary value collapses to a manifestly real, even integral on the same
nodes, ``branch_integral``: the stability module's root finding lives on
it, and its edge at k -> 0 is the criterion.  At k = 0 only the rescaled
limit exists; it trades phi for phi'.
"""

from __future__ import annotations

import numpy as np

from .profiles import Marginal, Potential
from .quadrature import (UnresolvedOscillation, blocks, end_cell_correction,
                         layout_values, refine_filon, refine_panels)

__all__ = [
    "HilbertTransformCache", "DivergentIntegral", "dispersion_row",
    "m_f", "dispersion_time_integral",
]


class DivergentIntegral(Exception):
    """phi vanishes too slowly at an edge, by its shells' ``slope``."""

    def __init__(self, message: str, slope: float):
        super().__init__(message)
        self.slope = slope


# ---------------------------------------------------------------------------
# the Cauchy-row engine


def _residual_sums(gu, u, wt, z, s, taylor):
    """Sums over the nodes u of the subtracted integrand
    (g(u) - P(u - s)) / (z - u), one per z, from the values gu = g(u);
    ``taylor`` holds the coefficients of the cubic P, one row per z."""
    x, y2 = z.real, z.imag ** 2
    re, im = np.zeros(z.size), np.zeros(z.size)
    for r, c, num, dx, q in blocks(z.size, u.size, 3):
        p = taylor[r, :, None]
        np.subtract(u[c], s[r, None], out=dx)
        num[...] = p[:, 3]
        for i in (2, 1, 0):
            num *= dx
            num += p[:, i]
        np.subtract(gu[c], num, out=num)
        np.subtract(x[r, None], u[c], out=dx)
        np.add(np.multiply(dx, dx, out=q), y2[r, None], out=q)
        q[q == 0.0] = np.inf
        im[r] += np.divide(num, q, out=num) @ wt[c]
        re[r] += np.multiply(num, dx, out=num) @ wt[c]
    return re - 1j * z.imag * im


def _taylor(g, a, b, s):
    """Cubic Taylor coefficients of g at each s in [a, b], one row per s.

    The derivatives come from a five-point central stencil of step
    (b - a)/1000 that keeps a step away from a and b, where g may jump,
    re-expanded about s.  The constant is g(s) itself inside (a, b) and
    the stencil's extrapolation at a or b.
    """
    h = 1e-3 * (b - a)
    c = np.clip(s, a + 3 * h, b - 3 * h)
    gm2, gm1, g0, gp1, gp2 = np.asarray(
        g((c[:, None] + h * np.arange(-2, 3)).ravel()),
        dtype=float).reshape(-1, 5).T
    d1 = (8.0 * (gp1 - gm1) - (gp2 - gm2)) / (12.0 * h)
    d2 = (16.0 * (gp1 + gm1) - (gp2 + gm2) - 30.0 * g0) / (24.0 * h * h)
    d3 = (gp2 - gm2 - 2.0 * (gp1 - gm1)) / (12.0 * h ** 3)
    t = s - c
    d0 = g0 + t * (d1 + t * (d2 + t * d3))
    inside = (a < s) & (s < b)
    d0[inside] = np.asarray(g(s[inside]), dtype=float)
    return np.stack([d0, d1 + t * (2.0 * d2 + 3.0 * d3 * t),
                     d2 + 3.0 * d3 * t, d3], axis=1)


def _cauchy_rows(g, a, b, z, tol_abs, graded):
    """int_a^b g(u)/(z - u) du for every z of an array, with error estimates.

    Within unit distance of the segment, the cubic Taylor polynomial of g
    at s = Re z (clamped to [a, b]) is subtracted and reinstated through
    the moments I_j of (u - s)^j / (z - u): I0 = ln(z-a) - ln(z-b),
    I_j = (z-s) I_(j-1) - ((b-s)^j - (a-s)^j)/j.  The rest vanishes to
    fourth order at the pole, so fixed panels converge without resolving
    the layer of width |Im z|.  A real z gives the limit from below,
    PV + i pi g(z).  A real z on an end of the segment, where g vanishes,
    is snapped onto that end and takes the finite limit: there is no layer
    to remove, so nothing is subtracted, and on a graded layout the cell on
    that end is replaced by ``end_cell_correction``, its estimate added to
    the gap.  The rest is summed by ``quadrature.refine_panels`` on
    ``graded_layout(a, b, panels, graded)``, with g from ``layout_values``.
    Raises ValueError for a real z on an end where g does not vanish, and
    EvaluationBudgetExceeded when the panels run out.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    on_axis = z.imag == 0.0
    eps = 1e-12 * (1.0 + abs(a) + abs(b))
    at_end = np.zeros(z.shape, dtype=bool)
    for end in (a, b):
        hit = on_axis & (np.abs(z.real - end) < eps)
        if np.any(hit):
            if np.asarray(g(np.array([end])), dtype=float)[0] != 0.0:
                raise ValueError("real pole on an end of the segment where "
                                 "the integrand does not vanish: the "
                                 "integral diverges")
            z = np.where(hit, end, z)
            at_end |= hit
    x = z.real
    s = np.clip(x, a, b)
    zeta = z - s
    taylor = _taylor(g, a, b, s)
    taylor[(np.abs(zeta) > 1.0) | at_end] = 0.0
    # an end pole subtracts nothing; keep its log(0) out of the moments
    z_log = np.where(at_end, 0.5 * (a + b) + 1j, z)
    moment = np.log(z_log - a) - np.log(z_log - b)
    moment = np.where(on_axis, moment.real, moment)
    base = taylor[:, 0] * moment \
        + np.where(on_axis & (a < x) & (x < b), 1j * np.pi * taylor[:, 0], 0.0)
    for j in (1, 2, 3):
        moment = zeta * moment - ((b - s) ** j - (a - s) ** j) / j
        base += taylor[:, j] * moment

    def sums(panels, j):
        u, wt, gu = layout_values(g, a, b, panels, graded)
        return _residual_sums(gu, u, wt, z[j], s[j], taylor[j])
    values, gaps = refine_panels(sums, z.size, tol_abs)
    if graded and np.any(at_end):
        cell, _, err = end_cell_correction(g, a, b, z[at_end].real)
        values[at_end] += cell
        gaps[at_end] += err
    return values + base, gaps


class HilbertTransformCache:
    """Memo for H(z) over a scan, keyed by z snapped to a square grid.

    Values are computed at the snapped argument, so a hit is exact for the
    snapped point and off by at most O(step) in the argument: acceptable
    for coarse half-plane scans, wrong for tolerance-critical comparisons.
    The package's scans take whole rows instead, and nothing in it
    creates one; the class stays only because the stage benchmark's
    tracer (``perfbench/tracer.py``) patches it.
    """

    def __init__(self, m: Marginal, step: float = 1e-4, tol_abs: float = 1e-11):
        self.marginal = m
        self.step = float(step)
        self.tol_abs = float(tol_abs)
        self.memo: dict[tuple[int, int], complex] = {}
        self.hits = 0
        self.misses = 0

    def value(self, z: complex) -> complex:
        key = (round(z.real / self.step), round(z.imag / self.step))
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        U = self.marginal.u_support
        snapped = complex(key[0] * self.step, key[1] * self.step)
        val = complex(_cauchy_rows(self.marginal.phi, -U, U, snapped,
                                   self.tol_abs,
                                   np.isfinite(self.marginal.upsilon))[0][0])
        self.memo[key] = val
        return val


# ---------------------------------------------------------------------------
# the real branch and the two routes


def branch_integral(m: Marginal, x_m, x_p, tol_abs: float):
    """int phi(u) / ((x_m - u)(x_p - u)) du on the graded layouts of phi,
    for arrays of poles Upsilon <= x_m <= x_p: the integrals, their error
    estimates, and the edge shells' slope for a pole x_m on Upsilon (nan
    for the others).  There ``end_cell_correction`` replaces the end cell,
    and a shell slope near or above 0 raises DivergentIntegral, which
    carries it: for phi ~ (Upsilon - u)^alpha the slope is -alpha, or
    1 - alpha when x_p is on Upsilon too.
    """
    ups = m.upsilon
    x_m, x_p = (np.asarray(x, dtype=float).ravel() for x in (x_m, x_p))
    cells, cell_errs = np.zeros((2, x_m.size))
    slopes = np.full(x_m.size, np.nan)
    for i in np.nonzero(x_m - ups < 1e-12 * max(1.0, ups))[0]:
        cell, slope, err = end_cell_correction(
            lambda u: m.phi(u) / (x_p[i] - u), -ups, ups, np.array([ups]))
        if slope[0] >= -0.05:
            raise DivergentIntegral(
                f"edge shell slope {slope[0]:.2f}: phi vanishes too slowly "
                "at Upsilon and the branch-edge integral diverges",
                float(slope[0]))
        cells[i], slopes[i], cell_errs[i] = cell[0], slope[0], err[0]

    def sums(panels, j):
        u, wt, phi = layout_values(m.phi, -ups, ups, panels, True)
        xm, xp = x_m[j, None], x_p[j, None]
        out = np.zeros(j.size)
        for r, c, a, b in blocks(j.size, u.size, 2):
            np.subtract(xm[r], u[c], out=a)
            a *= np.subtract(xp[r], u[c], out=b)
            out[r] += np.divide(phi[c], a, out=a) @ wt[c]
        return out
    integral, gaps = refine_panels(sums, x_m.size, tol_abs)
    return integral.real + cells, gaps + cell_errs, slopes


def dispersion_row(m: Marginal, w: Potential, k: float, lam_tilde,
                   tol_abs: float = 1e-10):
    """D(k lambda_tilde, k) over an array of rescaled lambda_tilde, Re >= 0.

    For k > 0 every point takes the Hilbert form, whose Cauchy integrals
    on Re lambda_tilde = 0 are the Plemelj boundary values, except on the
    real branch |tau_tilde| >= 2 Upsilon + k.  There both poles x_-+ =
    (|tau_tilde| -+ k)/2 sit outside the support, and the two integrals
    merge into the real D = 1 - (w_hat(k)/2) int phi(u) / ((x_- - u)(x_+ -
    u)) du, ``branch_integral``, which raises DivergentIntegral at
    |tau_tilde| = 2 Upsilon + k when phi vanishes too slowly there.  At
    k = 0 the row is the rescaled limit.  A compact support is summed on
    the edge-graded layout.  Returns the values and their error estimates.
    """
    lt = np.atleast_1d(np.asarray(lam_tilde, dtype=complex))
    if np.any(lt.real < 0):
        raise ValueError("dispersion rows need Re lambda_tilde >= 0")
    if k < 0:
        raise ValueError("dispersion rows need k >= 0")
    U, ups = m.u_support, m.upsilon
    graded = np.isfinite(ups)
    z = -0.5j * lt
    if k == 0.0:
        w0 = w.w_hat_zero
        h, e = _cauchy_rows(m.dphi, -U, U, z, tol_abs, graded)
        return 1.0 + (w0 / 2.0) * h, abs(w0) / 2.0 * e
    wk = w(k)
    values = np.empty(lt.size, dtype=complex)
    errs = np.empty(lt.size)
    real_branch = (lt.real == 0.0) & (np.abs(lt.imag) >= 2.0 * ups + k)
    if np.any(real_branch):
        tau = np.abs(lt[real_branch].imag)
        integral, gaps, _ = branch_integral(m, (tau - k) / 2.0,
                                            (tau + k) / 2.0, tol_abs)
        values[real_branch] = 1.0 - (wk / 2.0) * integral
        errs[real_branch] = abs(wk) / 2.0 * gaps
    hilbert = np.nonzero(~real_branch)[0]
    n = hilbert.size
    h, e = _cauchy_rows(m.phi, -U, U, np.concatenate(
        [z[hilbert] + k / 2.0, z[hilbert] - k / 2.0]), tol_abs, graded)
    pref = wk / (2.0 * k)
    values[hilbert] = 1.0 + pref * (h[:n] - h[n:])
    errs[hilbert] = abs(pref) * (e[:n] + e[n:])
    return values, errs


def _support_time(m: Marginal, k: float) -> float:
    return 1.05 * m.t_support / (2.0 * k)


def m_f(m: Marginal, k: float, taus, gamma: float = 0.0,
        tol_abs: float = 1e-11):
    """m_f(gamma + i tau, k) for a whole array of real tau, gamma >= 0,
    k > 0, in one Filon pass; returns the values and one error estimate.

    exp(-gamma t) is sampled with phi_hat, and the integral stops at
    60/gamma when that comes first, adding its tail bound to the estimate.
    Raises UnresolvedOscillation when the sample cap stops the pass short
    of tol_abs.
    """
    if k <= 0:
        raise ValueError("m_f needs k > 0")
    if gamma < 0:
        raise ValueError("m_f needs gamma = Re lambda >= 0")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    T = _support_time(m, k)
    tail = 0.0
    if gamma * T > 60.0:
        T = 60.0 / gamma
        tail = np.exp(-60.0) * m.phi_hat_l1 / (2.0 * k)
    if gamma > 0:
        sample = lambda t: m.phi_hat(2.0 * k * t) * np.exp(-gamma * t)
    else:
        sample = lambda t: m.phi_hat(2.0 * k * t)
    # one transform per shifted copy, so a uniform tau grid stays uniform;
    # the cap stops the doubling at 2^21 + 1 samples
    r = refine_filon(sample, 0.0, T, (taus - k * k, taus + k * k), 4097,
                     tol_abs, 2 ** 22)
    if r.gap > tol_abs:
        raise UnresolvedOscillation(
            f"m_f at k = {k:g}: filon grid capped at "
            f"{r.samples.size} samples, error estimate {r.gap:g}")
    return -1j * (r.transforms[0] - r.transforms[1]), 2.0 * (r.gap + tail)


def dispersion_time_integral(m: Marginal, w: Potential, k: float, lam_tilde,
                             tol_abs: float = 1e-10):
    """D(k lambda_tilde, k) = 1 + w_hat(k) m_f as the Laplace transform of
    the memory kernel, over an array of lambda_tilde with one real part
    >= 0 (one Filon pass serves them all).  Returns the values and one
    error estimate per value."""
    lt = np.atleast_1d(np.asarray(lam_tilde, dtype=complex))
    if k <= 0:
        raise ValueError("the time-integral route needs k > 0")
    if np.any(lt.real != lt.real[0]) or lt.real[0] < 0:
        raise ValueError("the time-integral route needs one real part "
                         "Re lambda_tilde >= 0 for the whole array")
    wk = w(k)
    if wk == 0.0:
        return np.ones(lt.size, dtype=complex), np.zeros(lt.size)
    mf, err = m_f(m, k, k * lt.imag, k * lt.real[0], tol_abs)
    return 1.0 + wk * mf, np.full(lt.size, abs(wk) * err)

