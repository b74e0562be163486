"""Dispersion relation of the linearized Hartree dynamics, three ways.

For k > 0 the dispersion function is evaluated through

  * the Hilbert form  D = 1 + w_hat(k)/(2k) [H(z+) - H(z-)] with
    H(z) = int phi(u)/(z - u) du and z+- = (-i lambda +- k^2)/(2k),
    valid off the real axis (Re lambda > 0);
  * the time-integral form  D = 1 + w_hat(k) m_f(lambda, k), valid up to
    the imaginary axis; and
  * boundary values on lambda = i tau via the Plemelj split of H into a
    principal value plus i pi phi at the pole.

The module works in the rescaled frame lambda = k lambda_tilde throughout
its boundary routines; samples carry the unrescaled lambda.  Cauchy
integrals near the axis subtract the linear part of the numerator at the
pole's real coordinate, which removes the thin boundary layer entirely
instead of asking the quadrature to resolve it: the subtracted moments
have closed forms, and the remaining integrand loses two orders at the
pole.

For |tau_tilde| >= 2 Upsilon + k the poles leave the support and the
boundary value collapses to a manifestly real, even integral (the branch
the stability module's root finding lives on).  At k = 0 only the rescaled
limit exists; it trades phi for phi'.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .green import m_f
from .profiles import Marginal, Potential
from .quadrature import (
    PVIntegrand,
    adaptive_gauss,
    default_pv_window,
    edge_shells,
    pv_integral,
)

__all__ = [
    "DispersionSample",
    "HilbertTransformCache",
    "DivergentIntegral",
    "hilbert_transform",
    "dispersion_hilbert",
    "dispersion_time_integral",
    "dispersion_plemelj",
    "dispersion_real_branch",
    "dispersion_k_zero",
    "evaluate",
]

ROUTES = ("hilbert_form", "time_integral_form", "plemelj_boundary", "k_zero_limit")


class DivergentIntegral(Exception):
    """Endpoint behavior of phi makes the requested integral infinite."""


@dataclass(frozen=True)
class DispersionSample:
    """One dispersion value with its route and error bookkeeping.

    ``lam`` is the unrescaled Laplace variable, except on the k = 0 route
    where only the rescaled lambda_tilde is meaningful and is stored as is.
    """

    lam: complex
    k_mag: float
    value: complex
    route: str
    error_estimate: float

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        if self.route == "plemelj_boundary" and abs(self.lam.real) > 0:
            raise ValueError("plemelj_boundary samples live on Re lambda = 0")
        if self.route == "k_zero_limit" and self.k_mag != 0.0:
            raise ValueError("k_zero_limit samples require k = 0")


# ---------------------------------------------------------------------------
# Cauchy integrals off the axis


def _cauchy_line(g, slope_at, a, b, z, tol_abs):
    """int_a^b g(u)/(z - u) du for z off [a, b].

    Near the axis the numerator's value and slope at x = Re z are
    subtracted and reinstated through the closed-form moments
    I0 = ln(z-a) - ln(z-b) and I1 = (z-x) I0 - (b-a); the residual
    integrand vanishes quadratically at the pole, so plain adaptive
    quadrature converges without resolving the layer of width |Im z|.
    """
    z = complex(z)
    x, y = z.real, z.imag
    near = abs(y) < 0.5 and (a - 1.0) < x < (b + 1.0)
    if not near:
        res = adaptive_gauss(lambda u: np.asarray(g(u)) / (z - u), a, b,
                             tol_abs=tol_abs)
        return res.value, res.abs_error_estimate
    if y == 0.0 and a <= x <= b:
        raise ValueError("pole on the integration segment; use a boundary route")
    c0 = complex(np.asarray(g(np.array([x])))[0])
    c1 = complex(slope_at(x))
    res = adaptive_gauss(
        lambda u: (np.asarray(g(u)) - c0 - c1 * (u - x)) / (z - u),
        a, b, tol_abs=tol_abs, min_depth=3)
    i0 = np.log(z - a) - np.log(z - b)
    i1 = (z - x) * i0 - (b - a)
    return res.value + c0 * i0 + c1 * i1, res.abs_error_estimate


def hilbert_transform(m: Marginal, z: complex, tol_abs: float = 1e-11):
    """H(z) = int phi(u)/(z - u) du over the marginal's support."""
    U = m.u_support
    return _cauchy_line(m.phi, lambda x: float(np.asarray(m.dphi(np.array([x])))[0]),
                        -U, U, z, tol_abs)


class HilbertTransformCache:
    """Memo for H(z) over a scan, keyed by z snapped to a square grid.

    Values are computed at the snapped argument, so a hit is exact for the
    snapped point and off by at most O(step) in the argument: acceptable
    for coarse half-plane scans, wrong for tolerance-critical comparisons
    (call ``hilbert_transform`` directly there).  Insert-or-read is safe
    under concurrent use because entries are deterministic.
    """

    def __init__(self, m: Marginal, step: float = 1e-4, tol_abs: float = 1e-11):
        self.marginal = m
        self.step = float(step)
        self.tol_abs = float(tol_abs)
        self.memo: dict[tuple[int, int], complex] = {}
        self.hits = 0
        self.misses = 0

    def snapped(self, z: complex) -> complex:
        return complex(round(z.real / self.step) * self.step,
                       round(z.imag / self.step) * self.step)

    def value(self, z: complex) -> complex:
        key = (round(z.real / self.step), round(z.imag / self.step))
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        val, _ = hilbert_transform(self.marginal, self.snapped(z), self.tol_abs)
        self.memo[key] = val
        return val


# ---------------------------------------------------------------------------
# the three routes


def dispersion_hilbert(m: Marginal, w: Potential, lam: complex, k: float,
                       cache: HilbertTransformCache | None = None,
                       tol_abs: float = 1e-11) -> DispersionSample:
    """D(lambda, k) through the Hilbert transform of the marginal."""
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("hilbert route needs Re lambda > 0; use a boundary route")
    if k <= 0:
        raise ValueError("hilbert route needs k > 0; use dispersion_k_zero")
    wk = w(k)
    z_p = (-1j * lam + k * k) / (2.0 * k)
    z_m = (-1j * lam - k * k) / (2.0 * k)
    if cache is not None:
        hp, hm = cache.value(z_p), cache.value(z_m)
        err = 2.0 * cache.tol_abs
    else:
        hp, ep = hilbert_transform(m, z_p, tol_abs)
        hm, em = hilbert_transform(m, z_m, tol_abs)
        err = ep + em
    value = 1.0 + wk / (2.0 * k) * (hp - hm)
    return DispersionSample(lam=lam, k_mag=float(k), value=value,
                            route="hilbert_form",
                            error_estimate=abs(wk) / (2.0 * k) * err)


def dispersion_time_integral(m: Marginal, w: Potential, lam: complex,
                             k: float) -> DispersionSample:
    """D(lambda, k) as the Laplace transform of the memory kernel."""
    lam = complex(lam)
    if lam.real < 0:
        raise ValueError("time-integral route needs Re lambda >= 0")
    if k <= 0:
        raise ValueError("time-integral route needs k > 0")
    wk = w(k)
    if wk == 0.0:
        return DispersionSample(lam=lam, k_mag=float(k), value=1.0 + 0.0j,
                                route="time_integral_form", error_estimate=0.0)
    mf = m_f(m, lam, k)
    return DispersionSample(lam=lam, k_mag=float(k), value=1.0 + wk * mf.value,
                            route="time_integral_form",
                            error_estimate=abs(wk) * mf.error_estimate)


def _pv_phi(m: Marginal, numerator, x: float, tol_abs: float):
    """PV int numerator(u)/(x - u) du over the support, pole maybe outside."""
    U = m.u_support
    p = PVIntegrand(numerator=numerator, pole=x,
                    window=default_pv_window(x, (-U, U)))
    res = pv_integral(p, (-U, U), tol_abs=tol_abs)
    return res.value, res.abs_error_estimate


def dispersion_plemelj(m: Marginal, w: Potential, tau_tilde: float, k: float,
                       tol_abs: float = 1e-11) -> DispersionSample:
    """Boundary value D(i k tau_tilde, k) by the Plemelj split.

    The limit is taken from Re lambda > 0, which approaches the pole from
    below and turns each Hilbert integral into PV + i pi phi(pole).
    """
    if k <= 0:
        raise ValueError("plemelj route needs k > 0")
    tau_tilde = float(tau_tilde)
    if np.isfinite(m.upsilon) and abs(tau_tilde) >= 2.0 * m.upsilon + k:
        raise ValueError("|tau_tilde| >= 2 Upsilon + k: use dispersion_real_branch")
    wk = w(k)
    x_p = (tau_tilde + k) / 2.0
    x_m = (tau_tilde - k) / 2.0
    pv_p, e_p = _pv_phi(m, m.phi, x_p, tol_abs)
    pv_m, e_m = _pv_phi(m, m.phi, x_m, tol_abs)
    phi_p = float(np.asarray(m.phi(np.array([x_p])))[0])
    phi_m = float(np.asarray(m.phi(np.array([x_m])))[0])
    pref = wk / (2.0 * k)
    value = 1.0 + pref * (pv_p - pv_m) + 1j * np.pi * pref * (phi_p - phi_m)
    return DispersionSample(lam=1j * tau_tilde * k, k_mag=float(k), value=value,
                            route="plemelj_boundary",
                            error_estimate=abs(pref) * (e_p + e_m))


def _edge_exponent(m: Marginal) -> float:
    """Local exponent alpha in phi(u) ~ c (Upsilon - u)^alpha at the edge."""
    ups = m.upsilon
    hs = ups * 2.0 ** -np.arange(8, 16)
    vals = np.asarray(m.phi(ups - hs))
    vals = np.abs(vals) + 1e-300
    fit = np.polyfit(np.log(hs), np.log(vals), 1)
    return float(fit[0])


def dispersion_real_branch(m: Marginal, w: Potential, tau_tilde: float, k: float,
                           tol_abs: float = 1e-11) -> DispersionSample:
    """Real even boundary branch for |tau_tilde| >= 2 Upsilon + k.

    Both poles sit outside the support, so the two Hilbert integrals merge
    into one real integral; evenness in tau_tilde is exact because only
    |tau_tilde| enters.  Exactly at the branch edge the integrand can lose
    integrability when phi vanishes slowly; that is detected from the
    fitted edge exponent and signalled as DivergentIntegral.
    """
    if not np.isfinite(m.upsilon):
        raise ValueError("real branch needs compact support (Upsilon < inf)")
    if k < 0:
        raise ValueError("real branch needs k >= 0")
    tau = abs(float(tau_tilde))
    ups = m.upsilon
    if tau < 2.0 * ups + k:
        raise ValueError("|tau_tilde| < 2 Upsilon + k: use dispersion_plemelj")
    wk = w(k)
    x_p = (tau + k) / 2.0
    x_m = (tau - k) / 2.0

    gap = x_m - ups
    if gap < 1e-12 * max(1.0, ups):
        # pole exactly at the endpoint: integrand ~ phi(u)/(ups - u)
        alpha = _edge_exponent(m)
        if alpha <= 0.05:
            raise DivergentIntegral(
                f"phi vanishes like (Upsilon-u)^{alpha:.2f} at the edge; the "
                "branch-point integral diverges")

    def f(u):
        return np.asarray(m.phi(u)) / ((x_m - u) * (x_p - u))

    # fixed shells: adaptive bisection would chase (x_m - u) cancellation
    # noise when the pole crowds the support edge
    value, err, _ = edge_shells(f, -ups, ups, tol_abs)
    val = 1.0 - (wk / 2.0) * value
    return DispersionSample(lam=1j * tau_tilde * k, k_mag=float(k),
                            value=complex(val), route="plemelj_boundary",
                            error_estimate=abs(wk) / 2.0 * err)


def dispersion_k_zero(m: Marginal, w: Potential, lam_tilde: complex,
                      tol_abs: float = 1e-11) -> DispersionSample:
    """Rescaled k -> 0 limit; the unrescaled D(lambda, 0) has no limit.

    D(lambda_tilde, 0) = 1 + (w_hat(0)/2) int phi'(u)/(-i lambda_tilde/2 - u) du,
    with the Plemelj version on the boundary.
    """
    lam_tilde = complex(lam_tilde)
    if lam_tilde.real < 0:
        raise ValueError("k-zero route needs Re lambda_tilde >= 0")
    w0 = w.w_hat_zero
    U = m.u_support

    def dphi_slope(x, h=1e-5):
        lo, hi = np.asarray(m.dphi(np.array([x - h, x + h])))
        return (hi - lo) / (2.0 * h)

    if lam_tilde.real > 0:
        z = -1j * lam_tilde / 2.0
        val, err = _cauchy_line(m.dphi, dphi_slope, -U, U, z, tol_abs)
        value = 1.0 + (w0 / 2.0) * val
        return DispersionSample(lam=lam_tilde, k_mag=0.0, value=value,
                                route="k_zero_limit",
                                error_estimate=abs(w0) / 2.0 * err)

    x = lam_tilde.imag / 2.0
    pv, err = _pv_phi(m, m.dphi, x, tol_abs)
    dphix = float(np.asarray(m.dphi(np.array([x])))[0])
    value = 1.0 + (w0 / 2.0) * pv + 1j * (np.pi / 2.0) * w0 * dphix
    return DispersionSample(lam=lam_tilde, k_mag=0.0, value=value,
                            route="k_zero_limit",
                            error_estimate=abs(w0) / 2.0 * err)


def evaluate(m: Marginal, w: Potential, lam: complex, k: float,
             tol_abs: float = 1e-10) -> DispersionSample:
    """Route dispatch: picks the appropriate form for (lambda, k).

    k = 0 queries go to the rescaled limit (lam is then read as
    lambda_tilde).  Interior points use the Hilbert form, boundary points
    the Plemelj or real branch depending on the pole location.
    """
    lam = complex(lam)
    if k == 0.0:
        return dispersion_k_zero(m, w, lam, tol_abs=tol_abs)
    if lam.real > 0:
        return dispersion_hilbert(m, w, lam, k, tol_abs=tol_abs)
    tau_tilde = lam.imag / k
    if np.isfinite(m.upsilon) and abs(tau_tilde) >= 2.0 * m.upsilon + k:
        return dispersion_real_branch(m, w, tau_tilde, k, tol_abs=tol_abs)
    return dispersion_plemelj(m, w, tau_tilde, k, tol_abs=tol_abs)
