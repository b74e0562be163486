"""Equilibrium profiles, interaction potentials, and the 1-D velocity marginal.

An equilibrium is a radial momentum profile f(|p|^2) on R^d.  Everything
spectral in this package runs through its marginal along a single direction,

    phi(u) = int_{R^{d-1}} f(u^2 + |w|^2) dw,

its derivative, and its Fourier transform phi_hat(t) = int exp(-i t u) phi du
= 2 int_0^inf cos(t u) phi(u) du.  ``build_marginal`` evaluates phi by the
radial reduction

    phi(u) = (|S^{d-2}|/2) int_{u^2}^{Ups^2} f(e) (e - u^2)^{(d-3)/2} de

with Gauss-Jacobi nodes absorbing the endpoint weight, so compactly
supported profiles keep their exact vanishing rate at the support edge.
phi_hat comes from a dense sample of phi pushed through the Filon cosine
rule, and at small t from the panel engine over phi's support.  All
evaluators are vectorized and the Marginal is immutable, but phi and
phi_hat below the Filon regime read their values through the unlocked
memo of ``quadrature.layout_values``, so the package calls them from one
thread at a time.
"""

from __future__ import annotations

import json
import math
import random
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import __version__, quadrature
from .quadrature import (blocks, fast_len, filon_transform, layout_values,
                         refine_panels)

__all__ = [
    "EquilibriumProfile",
    "Potential",
    "Marginal",
    "AssumptionReport",
    "AssumptionCheck",
    "NonIntegrableError",
    "TruncationWarning",
    "gaussian_profile",
    "fermi_zero_t_profile",
    "smooth_bump_profile",
    "power_decay_profile",
    "screened_coulomb",
    "delta_potential",
    "gaussian_hat_potential",
    "build_marginal",
    "marginal_stamp",
    "marginal_from_tables",
    "shifted_l2_difference",
    "validate_assumptions",
    "sphere_area",
]


class NonIntegrableError(Exception):
    """Radial reduction cannot converge for the declared decay metadata."""


class TruncationWarning(UserWarning):
    """A truncated integral left a non-negligible boundary contribution."""


def sphere_area(m: int) -> float:
    """|S^{m-1}|, surface area of the unit sphere in R^m (|S^0| = 2)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


# ---------------------------------------------------------------------------
# profile and potential kinds


@dataclass(frozen=True)
class EquilibriumProfile:
    """Radial equilibrium f(|p|^2) with its regularity metadata.

    ``n0`` is the number of available derivatives, ``n1`` the declared
    polynomial decay rate (|d^n f(e)| <= C <e>^{-n1-n}), ``upsilon`` the
    momentum-space support radius (inf for full support), and
    ``decay_constant`` the constant C the decay check is run against.
    ``f_edge`` is the one-sided limit of f at the support edge e = Ups^2
    (nonzero only for discontinuous profiles such as the zero-T Fermi sea).
    """

    kind: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    n0: float
    n1: float
    upsilon: float
    decay_constant: float = 1.0
    f_edge: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if not (self.upsilon > 0):
            raise ValueError("upsilon must be positive (inf for full support)")


def _declared_decay_constant(f, df, n1):
    """max_e of |f(e)| <e>^{n1} and |f'(e)| <e>^{n1+1} over a probe grid
    of a full-support profile, slightly inflated: the C that the decay
    check bounds both against."""
    e = np.concatenate([np.linspace(0.0, 50.0, 2001),
                        np.geomspace(50.0, 1e6, 501)])
    vals = [np.abs(np.asarray(f(e))) * np.hypot(1.0, e) ** n1,
            np.abs(np.asarray(df(e))) * np.hypot(1.0, e) ** (n1 + 1.0)]
    return 1.05 * float(np.max(vals)) + 1e-300


def gaussian_profile(d: int, scale: float = 1.0, amplitude: float = 1.0,
                     n1: float | None = None) -> EquilibriumProfile:
    """f(e) = amplitude * exp(-e / scale^2): smooth, positive, full support."""
    if scale <= 0 or amplitude <= 0:
        raise ValueError("scale and amplitude must be positive")
    s2 = scale * scale
    f = lambda e: amplitude * np.exp(-np.asarray(e, dtype=float) / s2)
    df = lambda e: -(amplitude / s2) * np.exp(-np.asarray(e, dtype=float) / s2)
    n1 = float(n1) if n1 is not None else float(d + 1)
    return EquilibriumProfile(
        kind="gaussian", d=d, f=f, df=df, n0=math.inf, n1=n1,
        upsilon=math.inf, decay_constant=_declared_decay_constant(f, df, n1),
        params={"scale": scale, "amplitude": amplitude})


def fermi_zero_t_profile(d: int, upsilon: float = 1.0) -> EquilibriumProfile:
    """Zero-temperature Fermi sea: f = 1 on |p| <= upsilon, 0 beyond.

    Discontinuous at the Fermi surface (n0 = 0), so the smoothness
    assumption is structurally violated; the marginal still exists, with
    phi(u) = c_d (Ups^2 - u^2)^{(d-1)/2} and c_d the unit-ball volume in
    R^{d-1}.
    """
    ups2 = upsilon * upsilon
    f = lambda e: np.where(np.asarray(e, dtype=float) <= ups2, 1.0, 0.0)
    df = lambda e: np.zeros_like(np.asarray(e, dtype=float))
    return EquilibriumProfile(
        kind="fermi_zero_t", d=d, f=f, df=df, n0=0.0, n1=math.inf,
        upsilon=upsilon, decay_constant=1.0, f_edge=1.0,
        params={"upsilon": upsilon})


def smooth_bump_profile(d: int, upsilon: float = 1.0,
                        smoothness: float = 1.0) -> EquilibriumProfile:
    """Compactly supported C^inf bump f(e) = exp(-s/(Ups^2 - e)) on e < Ups^2."""
    if smoothness <= 0:
        raise ValueError("smoothness must be positive")
    ups2 = upsilon * upsilon

    def f(e):
        e = np.asarray(e, dtype=float)
        gap = ups2 - e
        inside = gap > 1e-300
        safe = np.where(inside, gap, 1.0)
        return np.where(inside & (e < ups2), np.exp(-smoothness / safe), 0.0)

    def df(e):
        e = np.asarray(e, dtype=float)
        gap = ups2 - e
        inside = gap > 1e-300
        safe = np.where(inside, gap, 1.0)
        return np.where(inside & (e < ups2),
                        -smoothness / safe ** 2 * np.exp(-smoothness / safe), 0.0)

    return EquilibriumProfile(
        kind="smooth_bump", d=d, f=f, df=df, n0=math.inf, n1=math.inf,
        upsilon=upsilon, decay_constant=1.0,
        params={"upsilon": upsilon, "smoothness": smoothness})


def power_decay_profile(d: int, n1: float) -> EquilibriumProfile:
    """f(e) = <e>^{-n1} = (1 + e^2)^{-n1/2}: slowest admissible decay class.

    Needs n1 >= d and 2 n1 - d + 1 >= 5: phi ~ u^{d - 1 - 2 n1} then falls
    to 1e-18 by u ~ 4e3, inside what the 8193-node phi table of
    ``build_marginal`` resolves (at 2 n1 - d + 1 = 4, u ~ 3e4 fails).
    """
    if n1 < d or 2 * n1 - d + 1 < 5:
        raise ValueError(f"need n1 >= {max(d, (d + 4) / 2):g} at d = {d} "
                         f"(n1 >= d and 2 n1 - d + 1 >= 5), got {n1:g}")
    f = lambda e: (1.0 + np.asarray(e, dtype=float) ** 2) ** (-n1 / 2.0)
    df = lambda e: -n1 * np.asarray(e, dtype=float) * \
        (1.0 + np.asarray(e, dtype=float) ** 2) ** (-n1 / 2.0 - 1.0)
    # |f| <e>^{n1} = 1 and |f'| <e>^{n1+1} = n1 e / <e> rises to n1
    return EquilibriumProfile(
        kind="power_decay", d=d, f=f, df=df, n0=math.inf, n1=n1,
        upsilon=math.inf, decay_constant=float(n1), params={"n1": n1})


@dataclass(frozen=True)
class Potential:
    """Interaction through its nonnegative Fourier transform w_hat(|k|)."""

    kind: str
    w_hat: Callable[[np.ndarray], np.ndarray]
    w_hat_zero: float
    params: dict = field(default_factory=dict)

    def __call__(self, k: float) -> float:
        """w_hat at one |k|, as a float."""
        return float(np.asarray(self.w_hat(np.array([k], dtype=float)))[0])


def screened_coulomb(amplitude: float = 1.0, screening: float = 1.0) -> Potential:
    """w_hat(k) = amplitude / (1 + (k/screening)^2): positive, decreasing."""
    if screening <= 0:
        raise ValueError("screening must be positive")
    w = lambda k: amplitude / (1.0 + (np.asarray(k, dtype=float) / screening) ** 2)
    return Potential("screened_coulomb", w, amplitude,
                     {"amplitude": amplitude, "screening": screening})


def delta_potential(coupling: float) -> Potential:
    """Contact interaction: w_hat identically equal to the coupling."""
    w = lambda k: np.full_like(np.asarray(k, dtype=float), float(coupling))
    return Potential("delta", w, float(coupling), {"coupling": coupling})


def gaussian_hat_potential(amplitude: float = 1.0, width: float = 1.0) -> Potential:
    """w_hat(k) = amplitude * exp(-(k*width)^2 / 2)."""
    w = lambda k: amplitude * np.exp(-0.5 * (np.asarray(k, dtype=float) * width) ** 2)
    return Potential("gaussian_hat", w, amplitude,
                     {"amplitude": amplitude, "width": width})


# ---------------------------------------------------------------------------
# the marginal


@dataclass(frozen=True)
class Marginal:
    """phi, phi', phi_hat for one equilibrium, plus scan metadata.

    ``u_support`` is the radius beyond which phi is negligible (equal to
    upsilon for compact support), ``t_support`` the analogous radius for
    phi_hat, and ``phi_hat_l1`` / ``phi_hat_deriv_l1`` the integrals
    int |phi_hat| and int |phi_hat'| feeding the large-argument tail
    bounds downstream.  ``tables`` holds what ``marginal_from_tables``
    serves it from.  Instances are immutable, but phi and phi_hat read an
    unlocked memo (``quadrature.layout_values``): one thread at a time.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    phi_hat: Callable[[np.ndarray], np.ndarray]
    total_mass: float
    upsilon: float
    d: int
    u_support: float
    t_support: float
    phi_hat_l1: float
    phi_hat_deriv_l1: float
    profile: EquilibriumProfile
    tables: dict = field(repr=False)


def _gauss_jacobi(n: int, nu: float):
    """n-point Gauss rule for the weight (1 + x)^nu on [-1, 1].  The nodes
    are the eigenvalues of the Jacobi matrix (Golub-Welsch); the weights
    are the Christoffel numbers mu0 / sum_k p_k(x)^2, with mu0 = 2^(nu+1)
    / (nu+1) the weight's mass and p_k the orthonormal polynomials of the
    same three-term recurrence (p_0 = 1).  No eigenvectors are formed."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + nu
    diag = np.empty(n)
    diag[0] = nu / (nu + 2.0)
    diag[1:] = nu * nu / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + nu) ** 2
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(n), np.ones(n)
    norm = np.ones(n)
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p
                        - (off[j - 1] * p_prev if j else 0.0)) / off[j]
        norm += p * p
    return x, 2.0 ** (nu + 1.0) / (nu + 1.0) / norm


def _pointwise(rule):
    """``rule`` on 1-D float arrays, serving a scalar argument as a float."""
    def served(x):
        out = rule(np.atleast_1d(np.asarray(x, dtype=float)))
        return float(out[0]) if np.ndim(x) == 0 else out
    return served


def _radial_reduction(prof: EquilibriumProfile):
    """Vectorized phi and phi' from the energy-shell representation
    (48 Gauss-Jacobi nodes; full-support panels stop below 1e-16), summed
    in node blocks of fixed size: the work memory of a call is O(points)."""
    d, ups = prof.d, prof.upsilon
    if d == 1:
        def phi(u):
            u = np.asarray(u, dtype=float)
            return np.asarray(prof.f(u * u), dtype=float)

        def dphi(u):
            u = np.asarray(u, dtype=float)
            return 2.0 * u * np.asarray(prof.df(u * u), dtype=float)
        return phi, dphi

    nu = (d - 3) / 2.0
    xj, wj = _gauss_jacobi(48, nu)
    x01 = (xj + 1.0) / 2.0
    w01 = wj * 0.5 ** (nu + 1.0)      # weight x^nu on [0, 1]
    A = sphere_area(d - 1) / 2.0

    def node_sums(g, u, s, x, w):
        """sum_k g(u^2 + s x_k) w_k at each u (s per u, or one scalar), in
        node blocks whose (nodes x len(x)) matrices stay under glibc's mmap
        threshold, so a call maps no fresh pages"""
        s = np.broadcast_to(s, u.shape)
        out = np.empty(u.size)
        for r, _ in blocks(u.size, x.size, 0):
            out[r] = np.asarray(g(u[r, None] ** 2 + s[r, None] * x)) @ w
        return out

    if np.isfinite(ups):
        ups2 = ups * ups

        def shell(g, u):
            """(|S|/2)(ups^2-u^2)^{nu+1} int_0^1 g(u^2+(ups^2-u^2)x) x^nu dx"""
            s = np.maximum(ups2 - u * u, 0.0)
            return A * s ** (nu + 1.0) * node_sums(g, u, s, x01, w01)

        @_pointwise
        def dphi(ua):
            # phi(u) = G(u^2), G'(m) = (|S|/2)[int_0^{ups^2-m} f'(m+s) s^nu ds
            #                                  - f_edge (ups^2-m)^nu]
            s = np.maximum(ups2 - ua * ua, 0.0)
            inner = node_sums(prof.df, ua, s, x01, w01)
            inside = s > 0.0
            safe = np.where(inside, s, 1.0)
            edge = prof.f_edge * np.where(inside, safe ** nu, 0.0)
            return 2.0 * ua * (A * (s ** (nu + 1.0) * inner - edge))
        return _pointwise(lambda u: shell(prof.f, u)), dphi

    # full support: Jacobi on s in [0,1], geometric Legendre panels beyond
    xl, wl = leggauss(32)
    if prof.n1 <= (d - 1) / 2.0:
        raise NonIntegrableError(
            f"declared decay n1 = {prof.n1} cannot make the radial integral converge")

    def halfline(g, u):
        """Jacobi on [0, 1], then Legendre panels [2^j, 2^(j+1)] until the
        largest panel over all of u falls below 1e-16 of the largest
        [0, 1] part."""
        total = node_sums(g, u, 1.0, x01, w01)
        a = 1.0
        scale = float(np.max(np.abs(total))) + 1e-300
        while True:
            b = 2.0 * a
            s = (xl + 1.0) * (b - a) / 2.0 + a
            piece = node_sums(g, u, 1.0, s, s ** nu * wl * (b - a) / 2.0)
            total += piece
            if float(np.max(np.abs(piece))) < 1e-16 * scale or b > 1e14:
                break
            a = b
        return A * total

    return (_pointwise(lambda u: halfline(prof.f, u)),
            _pointwise(lambda u: 2.0 * u * halfline(prof.df, u)))


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-I of x (n >= 2 entries): the real FFT of x
    mirrored evenly about both ends, length 2 (n - 1).  Applied twice it
    multiplies by 2 (n - 1)."""
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I of x: the real FFT of x mirrored oddly about a
    zero before and after it, length 2 (n + 1).  Applied twice it
    multiplies by 2 (n + 1)."""
    n = x.size
    z = np.zeros(2 * n + 2)
    z[1:n + 1] = x
    z[n + 2:] = -x[::-1]
    return -np.fft.rfft(z)[1:n + 1].imag


def _uniform_spline(h: float, y: np.ndarray, odd: bool = False):
    """Cubic spline through y[j] at x = j h, served on [0, (len(y) - 1) h].

    The B-spline coefficients solve (c[j-1] + 4 c[j] + c[j+1]) / 6 = y[j]
    on the table mirrored about both ends: evenly by a DCT-I, so the
    slope at 0 is 0, or oddly by a DST-I for an odd function (y[0] = 0,
    and a zero value one node past the end), so the second derivative at
    0 is 0.  One refinement step on the residual brings the rounding error
    of each coefficient down to that of its neighbours, as a banded solve
    has it, rather than that of the largest entry.  The mirror at the far
    end perturbs the spline by a factor (2 - sqrt 3)^j at j nodes from the
    end, so a table must reach a negligible floor, or run past the served
    range.  A point costs four gathered coefficients.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if odd:
        eig = (2.0 + np.cos(np.pi * np.arange(1, n) / n)) / 3.0
    else:
        eig = (2.0 + np.cos(np.pi * np.arange(n) / (n - 1))) / 3.0

    def prefilter(r):
        c = np.zeros(n + 2)       # c[j + 1] is the coefficient of node j
        if odd:
            c[2:n + 1] = _dst1(_dst1(r[1:]) / eig) / (2 * n)
            c[0] = -c[2]
        else:
            c[1:n + 1] = _dct1(_dct1(r) / eig) / (2 * (n - 1))
            c[0], c[n + 1] = c[2], c[n - 1]
        return c

    c = prefilter(y)
    c += prefilter(y - (c[:-2] + 4.0 * c[1:-1] + c[2:]) / 6.0)

    def spline(x):
        x = np.asarray(x, dtype=float) / h
        j = np.clip(np.floor(x), 0, n - 2).astype(np.intp)
        t = x - j
        t2 = t * t
        u = 1.0 - t
        return ((u * u * u) * c[j] + (4.0 - 6.0 * t2 + 3.0 * t2 * t) * c[j + 1]
                + (1.0 + 3.0 * t * (1.0 + t * u)) * c[j + 2]
                + (t2 * t) * c[j + 3]) / 6.0
    return spline


def _support_radius(g, start, floor):
    """Smallest radius past which |g| stays below floor (by doubling + bisection)."""
    hi = start
    g0 = abs(float(np.asarray(g(np.array([0.0])))[0])) + 1e-300
    for _ in range(60):
        probe = np.linspace(hi, 2 * hi, 9)
        if np.all(np.abs(np.asarray(g(probe))) < floor * g0):
            break
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        probe = np.linspace(mid, hi, 9)
        if np.all(np.abs(np.asarray(g(probe))) < floor * g0):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-3 * hi:
            break
    return hi


def _envelope_tail(tg: np.ndarray, vals: np.ndarray) -> float:
    """Estimate int_{tg[-1]}^inf |vals| by fitting C t^{-q} to block maxima.

    Oscillatory algebraic tails: the block maxima over the last half of the
    table follow the envelope; |cos|-type oscillation averages to 2/pi of
    it, absorbed into C by the fit.  q is clamped to 1.2 from below so the
    extrapolation stays finite; the result feeds scan extents, not
    tolerance-critical values.
    """
    sel = tg >= tg[-1] / 2.0
    ts, vs = tg[sel], np.abs(vals[sel])
    blocks = np.array_split(np.arange(ts.size), 16)
    tm, vm = [], []
    for b in blocks:
        if b.size == 0:
            continue
        j = b[np.argmax(vs[b])]
        if vs[j] > 0:
            tm.append(ts[j])
            vm.append(vs[j])
    if len(tm) < 4:
        return 0.0
    q_fit, logc = np.polyfit(np.log(tm), np.log(vm), 1)
    q = max(-q_fit, 1.2)
    c = math.exp(logc)
    t_end = tg[-1]
    return (2.0 / np.pi) * c * t_end ** (1.0 - q) / (q - 1.0)


# least count of exact phi_hat nodes past the served end of the spline
# table (rounded up to a fast transform length), so that the spline's
# mirror image of its far end, decaying by 0.268 per node, stays below
# 1e-22 of the table on the served range
_HAT_PAD = 40


# phi table nodes on [0, u_support]
_N_U = 8193


def _table(tables: dict, key: str, size: int | None = None) -> np.ndarray:
    """tables[key] as floats: a scalar, or ``size`` entries (ValueError)."""
    a = np.asarray(tables[key], dtype=float)
    if a.shape != ((size,) if size else ()):
        raise ValueError(f"marginal table '{key}' has shape {a.shape}")
    return a


def _served_phi(prof: EquilibriumProfile, tables: dict):
    """u_support, phi, phi' and the exact phi_hat rule from the tables.

    The radial reduction is set up for every profile, so its decay check
    (NonIntegrableError) guards a marginal served from loaded tables too.
    """
    phi_table = _table(tables, "phi", _N_U)
    reduced, dphi = _radial_reduction(prof)
    phi = reduced
    full = not np.isfinite(prof.upsilon)
    u_max = float(_table(tables, "u_support") if full else prof.upsilon)
    h_u = u_max / (_N_U - 1)
    if full:
        # no support edge to respect: serve phi and dphi from splines over
        # the dense tables (the exact reduction costs geometric panels per
        # call, and boundary scans call phi millions of times)
        phi_spl = _uniform_spline(h_u, phi_table)
        dphi_spl = _uniform_spline(h_u, _table(tables, "dphi", _N_U), odd=True)
        on_support = lambda u, spl: np.where(np.abs(u) <= u_max, spl(
            np.minimum(np.abs(u), u_max)), 0.0)
        phi = _pointwise(lambda u: on_support(u, phi_spl))
        dphi = _pointwise(lambda u: on_support(u, dphi_spl) * np.sign(u))

    t_switch = 10.0 / u_max

    def below_switch(t):
        """2 int_0^u_max cos(t u) phi(u) du at every t, on the panel
        engine: phi once per layout (``layout_values``, across calls),
        cos(t u) in fixed work buffers.  phi is the reduction, not the
        spline, whose knots on a coarse table (power_decay) would keep the
        panel sums from settling."""
        def sums(panels, j):
            u, wt, phi_u = layout_values(reduced, 0.0, u_max, panels,
                                         not full)
            pw = phi_u * wt
            tj = t[j]
            out = np.zeros(j.size)
            for r, c, tu in blocks(j.size, u.size, 1):
                np.multiply(tj[r, None], u[c], out=tu)
                out[r] += np.cos(tu, out=tu) @ pw[c]
            return out
        return 2.0 * refine_panels(sums, t.size, 1e-12)[0].real

    @_pointwise
    def phi_hat_exact(ta):
        out = np.empty_like(ta)
        osc = np.abs(ta) >= t_switch
        if np.any(osc):
            out[osc] = 2.0 * filon_transform(phi_table, 0.0, h_u, np.abs(ta[osc])).real
        if not np.all(osc):
            out[~osc] = below_switch(np.abs(ta[~osc]))
        return out

    return u_max, phi, dphi, phi_hat_exact


def _hat_grid(u_max: float, t_support: float):
    """The phi_hat spline nodes on [0, t_cap], and the pad past t_cap."""
    # node spacing resolves the cos(tu) oscillation with margin
    h_t = min(0.01, np.pi / (16.0 * u_max))
    t_cap = min(t_support, 32768 * h_t)
    t_nodes = np.linspace(0.0, t_cap, int(np.ceil(t_cap / h_t)) + 1)
    n_pad = fast_len(t_nodes.size - 1 + _HAT_PAD) - (t_nodes.size - 1)
    return t_nodes, t_cap + t_nodes[1] * np.arange(1, n_pad + 1)


def build_marginal(prof: EquilibriumProfile) -> Marginal:
    """Construct the velocity marginal of an equilibrium profile.

    Raises NonIntegrableError when the declared decay metadata cannot make
    the reduction converge.  All quadrature goes into ``Marginal.tables``,
    which ``marginal_from_tables`` serves: ``phi`` on 8193 uniform nodes
    over [0, u_support]; for full support ``u_support``, where phi falls
    to 1e-18 of phi(0), and ``dphi`` on the same nodes; ``t_support``,
    past which |phi_hat| stays below 1e-13 of phi_hat(0); ``phi_hat`` on
    the spline nodes of [0, t_cap], t_cap = min(t_support, 32768 node
    spacings), then on ``_HAT_PAD`` or more nodes past t_cap; and
    ``total_mass``, its value at 0.  phi_hat comes from a Filon cosine
    rule on the phi table, and below t = 10 / u_support from one
    ``quadrature.refine_panels`` run over every such t at an absolute
    1e-12, on ``graded_layout`` over [0, u_support] (graded on a compact
    support; EvaluationBudgetExceeded when the panels run out).

    Working memory does not grow with the number of nodes or frequencies
    a step asks for: the radial reduction and the panel sums work in
    64 KiB node blocks (``quadrature.blocks``), the panel layouts sit in
    ``layout_values``' bounded memo, and the Filon rule on the 8193-node
    table takes its frequencies 8193 at a time, so beside the memo a
    build works in about 5 MB.
    """
    phi, dphi = _radial_reduction(prof)
    full = not np.isfinite(prof.upsilon)
    u_max = _support_radius(phi, 1.0, 1e-18) if full else float(prof.upsilon)
    u_grid = np.arange(_N_U) * (u_max / (_N_U - 1))
    tables = {"phi": np.asarray(phi(u_grid), dtype=float)}
    if full:
        tables.update(u_support=u_max, dphi=dphi(u_grid))
    exact = _served_phi(prof, tables)[3]
    t_support = _support_radius(lambda t: exact(np.abs(t)),
                                max(4.0 / u_max, 1.0), 1e-13)
    t_nodes, t_pad = _hat_grid(u_max, t_support)
    hat = np.concatenate([exact(t_nodes), exact(t_pad)])
    tables.update(t_support=t_support, phi_hat=hat, total_mass=hat[0])
    return marginal_from_tables(prof, tables)


def marginal_stamp(prof: EquilibriumProfile) -> str:
    """The code (sources, numpy) and profile fields for which
    ``build_marginal``'s tables are valid, as a JSON list."""
    # a CRC: hashlib would load OpenSSL, 3.7 MB of RSS in every stage
    code = b"".join(Path(src).read_bytes()
                    for src in (__file__, quadrature.__file__))
    return json.dumps([__version__, np.__version__, zlib.crc32(code),
                       prof.kind, prof.d, prof.n1, prof.upsilon, prof.f_edge,
                       sorted(prof.params.items())])


def marginal_from_tables(prof: EquilibriumProfile, tables: dict) -> Marginal:
    """The marginal of ``prof`` served from ``build_marginal``'s tables with
    no quadrature: phi, phi' (full support) and phi_hat (to t_cap) from
    ``_uniform_spline``s, near 1e-11 from the exact rules, and the L1 sums
    (envelope tail past t_cap).  KeyError: a missing table; ValueError: a
    misshapen one."""
    u_max, phi, dphi, exact = _served_phi(prof, tables)
    t_support = float(_table(tables, "t_support"))
    t_nodes, t_pad = _hat_grid(u_max, t_support)
    t_cap = t_nodes[-1]
    vals = _table(tables, "phi_hat", t_nodes.size + t_pad.size)
    spline = _uniform_spline(t_nodes[1], vals)

    @_pointwise
    def phi_hat(t):
        ta = np.abs(t)
        out = np.empty_like(ta)
        inside = ta <= t_cap
        if np.any(inside):
            out[inside] = spline(ta[inside])
        if np.any(~inside):
            out[~inside] = exact(ta[~inside])
        return out

    ph = vals[:t_nodes.size]
    l1 = float(np.trapezoid(np.abs(ph), t_nodes))
    dph = np.gradient(ph, t_nodes)
    dl1 = float(np.trapezoid(np.abs(dph), t_nodes))
    if t_cap < t_support:
        l1 += _envelope_tail(t_nodes, ph)
        dl1 += _envelope_tail(t_nodes, dph)

    return Marginal(phi=phi, dphi=dphi, phi_hat=phi_hat,
                    total_mass=float(_table(tables, "total_mass")),
                    upsilon=prof.upsilon, d=prof.d, u_support=u_max,
                    t_support=t_support, phi_hat_l1=l1,
                    phi_hat_deriv_l1=dl1, profile=prof, tables=dict(tables))


# ---------------------------------------------------------------------------
# scattering-profile difference


def shifted_l2_difference(prof: EquilibriumProfile, k: float) -> float:
    """int_{R^d} |g(p - k e1) - g(p + k e1)|^2 dp with g(p) = f(|p|^2 / 4).

    Reduced to a cylindrical (p1, |p_perp|) integral over 64-node
    Gauss-Legendre axes; the square makes the integrand radial around the
    k-axis.  Warns (TruncationWarning) when the truncation box leaves a
    boundary contribution above 1e-9.
    """
    d = prof.d
    k = float(k)
    if np.isfinite(prof.upsilon):
        box = 2.0 * prof.upsilon + 2.0 * abs(k) + 1.0
    else:
        # the radius is in e = |p|^2, and g(p) = f(|p|^2 / 4) is negligible
        # past |p| = 2 sqrt(e*)
        box = 2.0 * np.sqrt(_support_radius(lambda e: prof.f(np.abs(e)),
                                            1.0, 1e-14)) + 2.0 * abs(k)

    g = lambda p1, r2: np.asarray(prof.f((np.asarray(p1) ** 2 + r2) / 4.0))
    xl, wl = leggauss(64)
    p1 = xl * box
    wp = wl * box

    if d == 1:
        vals = (g(p1 - k, 0.0) - g(p1 + k, 0.0)) ** 2
        edge = max(abs(float(g(box - k, 0.0) - g(box + k, 0.0))),
                   abs(float(g(-box - k, 0.0) - g(-box + k, 0.0)))) ** 2
        value = float(vals @ wp)
    else:
        r = (xl + 1.0) * box / 2.0
        wr = wl * box / 2.0
        r2 = (r * r)[None, :]
        diff = g(p1[:, None] - k, r2) - g(p1[:, None] + k, r2)
        inner = (diff * diff * r[None, :] ** (d - 2)) @ wr
        edge = float(np.max(np.abs(g(np.array([box]), r2)
                                   - g(np.array([box + 2 * k]), r2)))) ** 2
        value = float(sphere_area(d - 1) * (inner @ wp))
    if edge > 1e-9:
        warnings.warn("truncation box leaves a boundary contribution",
                      TruncationWarning)
    return value


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    status: str           # "pass" | "warn" | "fail"
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def validate_assumptions(prof: EquilibriumProfile, pot: Potential,
                         m: Marginal, seed: int = 0) -> AssumptionReport:
    """Sampled checks of the standing assumptions on (f, w_hat).

    Positivity of f inside the support, smoothness metadata, declared decay
    of f, positivity/boundedness/monotonicity of w_hat, and strict decrease
    of the marginal on (0, Ups).  Metadata violations warn rather than
    fail; sampled counterexamples fail, the detail naming where.  f and
    w_hat are probed at 2001 points each.
    """
    checks: list[AssumptionCheck] = []
    d, ups = prof.d, prof.upsilon
    n_samples = 2001

    # positivity of f on the open support
    p_hi = ups if np.isfinite(ups) else 20.0
    p = np.linspace(0.0, p_hi * (1.0 - 1e-9), n_samples)
    fv = np.asarray(prof.f(p * p))
    bad = np.nonzero(~(fv > 0.0))[0]
    if bad.size:
        checks.append(AssumptionCheck(
            "positivity", "fail",
            f"f(|p|^2) not positive at |p| = {p[bad[0]]:.6g}"))
    else:
        checks.append(AssumptionCheck(
            "positivity", "pass", f"f > 0 on {n_samples} radii in [0, {p_hi:g})"))

    # smoothness metadata
    if prof.n0 >= d + 3:
        checks.append(AssumptionCheck(
            "smoothness", "pass", f"declared n0 = {prof.n0} >= d + 3 = {d + 3}"))
    else:
        checks.append(AssumptionCheck(
            "smoothness", "warn",
            f"declared n0 = {prof.n0} < d + 3 = {d + 3}; "
            "boundary-regularity arguments do not apply"))

    # declared decay of f and f'
    if np.isfinite(ups):
        checks.append(AssumptionCheck(
            "decay", "pass", "compact support, decay bound vacuous"))
    else:
        e = np.concatenate([np.linspace(0.0, 50.0, 801), np.geomspace(50.0, 1e5, 201)])
        w0 = np.abs(np.asarray(prof.f(e))) * np.hypot(1.0, e) ** prof.n1
        w1 = np.abs(np.asarray(prof.df(e))) * np.hypot(1.0, e) ** (prof.n1 + 1.0)
        worst = max(float(np.max(w0)), float(np.max(w1)))
        if worst <= prof.decay_constant * (1.0 + 1e-9):
            checks.append(AssumptionCheck(
                "decay", "pass",
                f"|f|, |f'| within C <e>^-(n1+n), C = {prof.decay_constant:.4g}"))
        else:
            checks.append(AssumptionCheck(
                "decay", "warn",
                f"sampled weighted sup {worst:.4g} exceeds declared C = "
                f"{prof.decay_constant:.4g}"))

    # potential: positivity, finiteness at zero, monotone decrease
    kk = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, n_samples)])
    wv = np.asarray(pot.w_hat(kk))
    if not np.isfinite(pot.w_hat_zero):
        checks.append(AssumptionCheck("potential_finite_at_zero", "fail",
                                      "w_hat(0) is not finite"))
    else:
        checks.append(AssumptionCheck("potential_finite_at_zero", "pass",
                                      f"w_hat(0) = {pot.w_hat_zero:.6g}"))
    neg = np.nonzero(wv < -1e-14)[0]
    if neg.size:
        checks.append(AssumptionCheck(
            "potential_nonnegative", "fail",
            f"w_hat < 0 at k = {kk[neg[0]]:.6g}"))
    else:
        checks.append(AssumptionCheck("potential_nonnegative", "pass",
                                      "w_hat >= 0 on the probe grid"))
    dw = np.diff(wv)
    mono_bad = np.nonzero(dw > 1e-12 * (1.0 + np.abs(wv[:-1])))[0]
    if mono_bad.size:
        checks.append(AssumptionCheck(
            "potential_monotone", "fail",
            f"w_hat increases near k = {kk[mono_bad[0] + 1]:.6g}"))
    else:
        checks.append(AssumptionCheck("potential_monotone", "pass",
                                      "w_hat nonincreasing on the probe grid"))

    # marginal strict decrease on (0, Ups)
    u_hi = m.u_support * (1.0 - 1e-9)
    # the stdlib generator: numpy.random costs a stage 12-22 ms to import
    rng = random.Random(seed)
    u = np.sort([rng.uniform(1e-6, u_hi) for _ in range(257)])
    dv = np.asarray(m.dphi(u))
    pos = np.nonzero(dv >= 0.0)[0]
    if pos.size:
        checks.append(AssumptionCheck(
            "marginal_decreasing", "fail",
            f"phi'(u) >= 0 at u = {u[pos[0]]:.6g}"))
    else:
        checks.append(AssumptionCheck("marginal_decreasing", "pass",
                                      "phi' < 0 on sampled (0, Ups)"))

    return AssumptionReport(tuple(checks))
