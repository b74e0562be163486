"""Penrose-Lindhard certification for the linearized Hartree dynamics.

The decision chain mirrors the analytic one.  First the criterion integral

    Phi(0) = 1 - (w_hat(0)/2) int phi(u) / (Upsilon - u)^2 du

is the k -> 0 edge of the real branch, ``dispersion.branch_integral`` at
x_- = x_+ = Upsilon, whose dyadic shells toward Upsilon give the fitted
decay that legitimizes the value or flags divergence (slowly vanishing
phi); on an infinite support (Upsilon = inf) the condition is vacuous.  A
divergent integral is its own verdict.  A negative value forces an
imaginary-axis zero of the dispersion function on the real branch, which
monotonicity pins down to a bisection.  Otherwise the certificate scans |D| over a compact boundary
region whose extents come from explicit tail bounds (|D - 1| <= w_hat(k)
L1 / k and an integration-by-parts bound in lambda), counts zeros in
right-half-plane rectangles by the argument principle, and reports

    theta0 = min sampled |D| - sampled modulus-of-continuity margin,

clamped by the analytic 1/2 floor outside the scanned box.  The floor is
sampled, not rigorous; the certificate says so in its notes.  The scan's
extents and resolutions are the module constants below.  ``certify``
returns the certificate as ``stability.json`` holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import DivergentIntegral, branch_integral, dispersion_row
from .profiles import Marginal, Potential

__all__ = [
    "WindingCheck",
    "ContourTooCoarse",
    "criterion_integral",
    "phi_curve",
    "find_imaginary_zero",
    "winding_number",
    "certify",
]


class ContourTooCoarse(Exception):
    """Phase steps along the contour are too large to trust the winding."""


@dataclass(frozen=True)
class WindingCheck:
    k: float
    rectangle: tuple[float, float, float, float]
    winding: int
    residual: float
    min_abs_on_contour: float
    nodes: int


# certification scan: smallest k row, k rows up to the tail cap, tau pad
# past the resonance band, tail samples out to the lambda cap, left edge
# of the winding rectangles, k values of the zero hunt, the boundary
# tolerance, and the most nodes a winding contour may grow to
_K_MIN = 1e-3
_N_K = 24
_TAU_PAD = 2.0
_N_TAIL = 48
_RECT_RE_LO = 1e-3
_HUNT_K = (0.02, 0.03, 0.05, 0.1, 0.2)
_SCAN_TOL = 1e-9
_MAX_CONTOUR_NODES = 40000


# ---------------------------------------------------------------------------
# criterion integral and the Phi curve


def criterion_integral(m: Marginal, w: Potential) -> dict:
    """The ``criterion`` entry: ``kind`` "finite", "vacuous" (infinite
    support) or "divergent", the criterion's left side ``value`` when
    finite, and ``shell_slope``, the fitted log2 decay rate of the dyadic
    edge shells (divergence shows up as a slope near or above zero).

    The integrand phi(u)/(Upsilon - u)^2 is the real branch's at k = 0,
    ``branch_integral`` with both poles on Upsilon.  For phi ~ c (Upsilon
    - u)^alpha its edge shells decay like 2^{-j(alpha-1)}: a finite value
    only for alpha > 1; a slope near 0 or above flags it divergent.
    """
    if not np.isfinite(m.upsilon):
        return {"kind": "vacuous", "value": None, "shell_slope": None}
    try:
        integral, _, slope = branch_integral(m, m.upsilon, m.upsilon, 1e-12)
    except DivergentIntegral as e:
        return {"kind": "divergent", "value": None, "shell_slope": e.slope}
    value = 1.0 - (w.w_hat_zero / 2.0) * integral[0]
    return {"kind": "finite", "value": float(value),
            "shell_slope": float(slope[0])}


def _phi_at(m: Marginal, w: Potential, k: float) -> float:
    """Phi(k) = D(i(2 Upsilon + k) k, k), the real-branch edge value."""
    return float(dispersion_row(m, w, k, 1j * (2.0 * m.upsilon + k),
                                1e-11)[0][0].real)


def phi_curve(m: Marginal, w: Potential, k_grid) -> np.ndarray:
    """Rows (k, Phi(k)) over the positive k of a grid."""
    if not np.isfinite(m.upsilon):
        raise ValueError("the Phi curve needs compact support")
    return np.asarray([(k, _phi_at(m, w, k))
                       for k in np.asarray(k_grid, dtype=float) if k > 0])


# ---------------------------------------------------------------------------
# zero hunting


def find_imaginary_zero(m: Marginal, w: Potential, k: float) -> float | None:
    """Root of the real branch tau_tilde -> D(i k tau_tilde, k), if any.

    On tau_tilde >= 2 Upsilon + k the branch is real and increases onto
    [Phi(k), 1), so a root exists exactly when Phi(k) < 0 and bisection is
    safe.  Returns None when Phi(k) >= 0; a divergent branch edge counts
    as Phi(k) = -inf and the bracket starts just inside the branch.
    """
    if not np.isfinite(m.upsilon):
        raise ValueError("imaginary-axis zero hunting needs compact support")
    tau0 = 2.0 * m.upsilon + k
    g = lambda t: float(dispersion_row(m, w, k, 1j * t, 1e-11)[0][0].real)
    try:
        lo, lo_val = tau0, _phi_at(m, w, k)
    except DivergentIntegral:
        lo = tau0 * (1.0 + 1e-9)
        lo_val = g(lo)
    if lo_val >= 0.0:
        return None
    hi = tau0 + max(1.0, k)
    for _ in range(60):
        hi_val = g(hi)
        if hi_val > 0.0:
            break
        hi = 2.0 * hi
    else:
        return None
    # bisect until the bracket is two adjacent floats; keep the end where
    # the branch is smaller
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        val = g(mid)
        if val > 0.0:
            hi, hi_val = mid, val
        else:
            lo, lo_val = mid, val
    return lo if -lo_val < hi_val else hi


# ---------------------------------------------------------------------------
# argument principle


def _rect_nodes(re_lo, re_hi, im_lo, im_hi) -> np.ndarray:
    """64 nodes per edge, counterclockwise from the lower left corner."""
    corners = [re_lo + 1j * im_lo, re_hi + 1j * im_lo, re_hi + 1j * im_hi,
               re_lo + 1j * im_hi, re_lo + 1j * im_lo]
    return np.concatenate([np.linspace(a, b, 64, endpoint=False)
                           for a, b in zip(corners, corners[1:])])


def winding_number(m: Marginal, w: Potential, k: float, rect) -> WindingCheck:
    """Zero count of D inside a rectangle in the open right lambda_tilde
    half-plane, by total argument variation along its boundary.

    Nodes are inserted wherever a phase step exceeds pi/2 until every step
    is resolved, each round evaluated as one row; failure to get there, a
    vanishing symbol on the contour, or a rounding residual above 0.05
    raise ContourTooCoarse.
    """
    re_lo, re_hi, im_lo, im_hi = (float(x) for x in rect)
    if re_lo <= 0:
        raise ValueError("contour must sit strictly inside Re lambda_tilde > 0")
    if re_hi <= re_lo or im_hi <= im_lo:
        raise ValueError("degenerate rectangle")
    pts = _rect_nodes(re_lo, re_hi, im_lo, im_hi)
    vals = dispersion_row(m, w, k, pts, _SCAN_TOL)[0]
    while True:
        n = pts.size
        if n > _MAX_CONTOUR_NODES:
            raise ContourTooCoarse(
                f"{n} contour nodes still leave phase steps above pi/2")
        steps = np.angle(np.roll(vals, -1) / vals)
        bad = np.nonzero(np.abs(steps) > np.pi / 2)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (pts[bad] + np.roll(pts, -1)[bad])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, dispersion_row(m, w, k, mids,
                                                       _SCAN_TOL)[0])

    mods = np.abs(vals)
    min_abs = float(np.min(mods))
    if min_abs < 1e-10:
        raise ContourTooCoarse("dispersion function vanishes on the contour")
    total = float(np.sum(steps)) / (2.0 * np.pi)
    wind = int(np.rint(total))
    residual = abs(total - wind)
    if residual > 0.05:
        raise ContourTooCoarse(
            f"winding residual {residual:.3g} exceeds 0.05")
    return WindingCheck(k=float(k), rectangle=(re_lo, re_hi, im_lo, im_hi),
                        winding=wind, residual=residual,
                        min_abs_on_contour=min_abs, nodes=len(pts))


# ---------------------------------------------------------------------------
# certification


def _tail_k_cap(m: Marginal, w: Potential, k_lo: float) -> float:
    """Smallest K with w_hat(k) * L1(phi_hat) / k < 1/2 for all k >= K."""
    beta = lambda k: w(k) * m.phi_hat_l1 / k
    if beta(k_lo) < 0.5:
        return k_lo
    hi = max(1.0, 2.0 * k_lo)
    for _ in range(60):
        if beta(hi) < 0.5:
            break
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta(mid) < 0.5:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-6 * hi:
            break
    return hi


def _lambda_cap(m: Marginal, w: Potential, k: float) -> float:
    """|lambda_tilde| beyond which |D - 1| < 1/2 by integration by parts."""
    wk = w(k)
    return max(4.0 * abs(wk) * (m.phi_hat_l1 / 2.0 + m.phi_hat_deriv_l1 / k), 1.0)


def certify(m: Marginal, w: Potential) -> dict:
    """The certificate as ``stability.json`` holds it (see the module
    docstring for the chain), every key on every path: None, or [] for
    ``windings``, where the path does not reach it.

    ``verdict`` is Stable, Unstable, CriterionDiverges or Inconclusive;
    ``criterion`` is ``criterion_integral``'s entry, ``phi0`` its value;
    the Unstable path fills ``zero_location`` {tau_tilde, k, abs_D}, the
    boundary scan ``scan_min``, ``scan_argmin`` {k, tau_tilde}, ``margin``,
    ``k_range``, ``windings`` ({k, rectangle, winding, residual, nodes}
    each) and, when it ends Stable, ``theta0``.
    """
    crit = criterion_integral(m, w)
    notes: list[str] = []
    cert = {"phi0": crit["value"],
            "phi0_divergent": crit["kind"] == "divergent", "criterion": crit,
            "notes": notes, "theta0": None, "zero_location": None,
            "scan_min": None, "scan_argmin": None, "margin": None,
            "k_range": None, "windings": []}

    if crit["kind"] == "divergent":
        notes.append("criterion integral diverges at the support edge "
                     f"(shell slope {crit['shell_slope']:.2f}); slowly vanishing "
                     "marginals admit oscillatory modes")
        return {**cert, "verdict": "CriterionDiverges"}

    if crit["kind"] == "finite" and crit["value"] < 0.0:
        for k in _HUNT_K:
            tau_star = find_imaginary_zero(m, w, k)
            if tau_star is not None:
                resid = abs(dispersion_row(m, w, k, 1j * tau_star)[0][0])
                notes.append("negative criterion forced an imaginary-axis zero")
                return {**cert, "verdict": "Unstable", "zero_location": {
                    "tau_tilde": tau_star, "k": k, "abs_D": resid}}
        notes.append("criterion negative but no axis zero found on the hunt "
                     "grid; widen it")
        return {**cert, "verdict": "Inconclusive"}

    # criterion holds (or is vacuous): boundary scan + windings
    k_hi = max(_tail_k_cap(m, w, _K_MIN), 4.0 * _K_MIN)

    u_char = max(min(2.0, m.u_support / 3.0), 0.1)
    d_tau = u_char / 50.0
    tau_dense_max = 2.0 * m.u_support + k_hi + _TAU_PAD
    n_dense = int(np.ceil(tau_dense_max / d_tau)) + 1
    taus_dense = np.linspace(0.0, tau_dense_max, n_dense)

    rows: dict[float, np.ndarray] = {}
    scan_min, argmin = np.inf, (0.0, 0.0)

    def note(mods: np.ndarray, k: float, taus) -> np.ndarray:
        # keep the smallest sampled |D| and where it sits
        nonlocal scan_min, argmin
        j = int(np.argmin(mods))
        if mods[j] < scan_min:
            scan_min, argmin = float(mods[j]), (k, float(taus[j]))
        return mods

    def scan(k: float, taus: np.ndarray) -> np.ndarray:
        # |D| along the boundary; k = 0 is the rescaled limit
        return note(np.abs(dispersion_row(m, w, k, 1j * taus, _SCAN_TOL)[0]),
                    k, taus)

    def pair_floor(a: np.ndarray, b: np.ndarray) -> float:
        # estimated min |D| between two sampled lines: smaller sample
        # minus half the gap, nodewise (linear modulus of continuity)
        return float(np.min(np.minimum(a, b) - 0.5 * np.abs(a - b)))

    def line_floor(r: np.ndarray) -> float:
        return pair_floor(r[1:], r[:-1])

    # the k = 0 row is the rescaled limit, so (0, k_min] interpolates it
    tail_floor = np.inf
    for k in [0.0] + [float(x) for x in np.geomspace(_K_MIN, k_hi, _N_K)]:
        rows[k] = scan(k, taus_dense)
        if k == 0.0:
            continue
        lam_cap = _lambda_cap(m, w, k)
        if lam_cap > tau_dense_max:
            tail = np.geomspace(tau_dense_max, lam_cap, _N_TAIL)
            tail_floor = min(tail_floor, line_floor(scan(k, tail)))
        if np.isfinite(m.upsilon):
            note(np.array([_phi_at(m, w, k)]), k, [2.0 * m.upsilon + k])

    # continuity floor: nodewise within each row, nodewise between adjacent
    # rows; insert k midpoints while an inter-row gap is the binding term
    extra = 2 * _N_K
    while True:
        ks = sorted(rows)
        floor_rows = min(line_floor(rows[k]) for k in ks)
        cells = [pair_floor(rows[ks[i]], rows[ks[i + 1]])
                 for i in range(len(ks) - 1)]
        i_cell = int(np.argmin(cells))
        if cells[i_cell] >= floor_rows - 1e-3 or extra <= 0:
            break
        lo, up = ks[i_cell], ks[i_cell + 1]
        mid = 0.5 * (lo + up) if lo == 0.0 else float(np.sqrt(lo * up))
        rows[mid] = scan(mid, taus_dense)
        extra -= 1

    theta_floor = min(floor_rows, cells[i_cell], tail_floor)

    # local refinement around the sampled minimum
    ks = np.array(sorted(rows))
    ki = int(np.argmin(np.abs(ks - argmin[0])))
    k_lo = ks[max(ki - 1, 0)]
    k_up = ks[min(ki + 1, ks.size - 1)]
    t_lo = max(argmin[1] - 5.0 * d_tau, 0.0)
    t_up = argmin[1] + 5.0 * d_tau
    for k in np.linspace(k_lo, k_up, 7):
        scan(float(k), np.linspace(t_lo, t_up, 21))

    # windings at the first, middle and last k row and at the minimum
    windings = []
    k_grid = np.array([k for k in sorted(rows) if k > 0.0])
    pick = sorted({0, k_grid.size // 2, k_grid.size - 1,
                   int(np.argmin(np.abs(k_grid - argmin[0])))})
    for idx in pick:
        k = float(k_grid[idx])
        lam_cap = _lambda_cap(m, w, k)
        rect = (_RECT_RE_LO, lam_cap, -lam_cap, lam_cap)
        c = winding_number(m, w, k, rect)
        windings.append({"k": c.k, "rectangle": list(c.rectangle),
                         "winding": c.winding, "residual": c.residual,
                         "nodes": c.nodes})

    theta0 = min(theta_floor, scan_min, 0.5)
    margin = max(scan_min - theta0, 0.0)
    notes.append("theta0 is a sampled estimate (boundary grid plus "
                 "continuity floor), not a rigorous bound")
    notes.append(f"strip 0 < Re lambda_tilde < {_RECT_RE_LO:g} is covered "
                 "by boundary continuity, not by contour checks")
    notes.append("tail region past the dense grid uses per-k line floors "
                 "only; |D - 1| is already small there")

    verdict = "Stable"
    if any(c["winding"] != 0 for c in windings):
        verdict = "Inconclusive"
        notes.append("nonzero winding despite a positive criterion; scan "
                     "extents are suspect")
    elif theta0 <= 0.0:
        verdict = "Inconclusive"
        notes.append("continuity margin swallows the sampled minimum; "
                     "refine the scan")
    return {**cert, "verdict": verdict, "scan_min": scan_min,
            "theta0": float(theta0) if verdict == "Stable" else None,
            "scan_argmin": {"k": argmin[0], "tau_tilde": argmin[1]},
            "margin": margin, "k_range": [_K_MIN, float(k_hi)],
            "windings": windings}
