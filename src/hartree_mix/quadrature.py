"""Shared 1-D quadrature engine.

Three pieces, used throughout the package:

* ``graded_layout``: 16-node Gauss-Legendre panels, uniform inside, cut
  into dyadic shells toward the ends of a compact support, and
  ``refine_panels``, which doubles them until a whole array of integrals
  settles: every integral over the marginal's support goes through it;
  ``shell_slope`` reads the decay of the shells toward an end, and
  ``end_cell_correction`` replaces the cell on an end by the geometric
  series past the last shell; ``blocks`` tiles a node matrix into fixed
  64 KiB work buffers,
* ``filon_transform``: a composite Filon-Simpson rule for
  ``int f(x) exp(-i w x) dx`` on a uniform grid, vectorized over
  frequencies.  An arithmetic progression of frequencies is evaluated as
  two chirp-z transforms (Bluestein's FFT convolution) in
  O((n + M) log(n + M)) time; a scalar, short or non-uniform frequency
  array takes the direct rule, which builds the n x M phase matrix in
  blocks of bounded size,
* ``refine_filon``: the Filon rule on a sampled callable, with the grid
  doubled until the fine rule and the rule on every other sample agree;
  every adaptive oscillatory integral in the package goes through it.

``fast_len`` gives the padded length of every FFT in the package.

All integrand callables must accept and return numpy arrays.  Every
operation reports an error estimate; none of them mutate shared state, so
they are safe to call from parallel scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError", "UnresolvedOscillation", "EvaluationBudgetExceeded",
    "graded_layout", "refine_panels", "shell_slope", "filon_transform",
    "fast_len",
]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class UnresolvedOscillation(QuadratureError):
    """Oscillatory rule could not meet tolerance within the sample cap."""


class EvaluationBudgetExceeded(QuadratureError):
    """Panel doubling hit the panel cap before converging."""


# ---------------------------------------------------------------------------
# the edge-graded panel layout

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
# first and largest panel counts; the shells stop (b - a) 2^-43 short of
# an end (1024 ulps on [-1, 1]), far enough that no node rounds onto it
_PANELS_START, _PANELS_CAP, _SHELL_DEPTH = 16, 8192, 43


def graded_layout(a, b, panels, graded):
    """Nodes u and weights wt of ``panels`` (a power of two) uniform
    16-node Gauss-Legendre panels on [a, b], 16 per panel from a to b.

    When ``graded``, each end panel is cut into dyadic shells, halving
    down to width (b - a) 2^-_SHELL_DEPTH, plus one cell of that width on
    the end; the shells that narrow are the same at every panel count.
    ``(f(u) * wt).reshape(-1, 16).sum(axis=1)`` lists the panel sums.
    """
    edges = np.linspace(a, b, panels + 1)
    if graded:
        cuts = (b - a) * 2.0 ** -np.arange(panels.bit_length(),
                                           _SHELL_DEPTH + 1)
        edges = np.concatenate([[a], a + cuts[::-1], edges[1:-1], b - cuts,
                                [b]])
    half = 0.5 * np.diff(edges)
    u = ((edges[:-1] + half)[:, None] + half[:, None] * _GL16_X).ravel()
    wt = (half[:, None] * _GL16_W).ravel()
    return u, wt


def shell_slope(shells):
    """Least-squares slope of log2 |shell sum| over the last six nonzero
    of ``shells``, the panel sums of ``graded_layout`` toward one end up
    to the shell before the end cell; -inf with fewer than two."""
    tail = shells[np.abs(shells) >= 1e-300][-6:]
    if tail.size < 2:
        return -np.inf
    return float(np.polyfit(np.arange(tail.size), np.log2(np.abs(tail)),
                            1)[0])


def end_cell_correction(g, a, b, ends):
    """For each pole e of ``ends`` (a or b), the geometric remainder past
    the last dyadic shell at e minus the graded layout's sum over the
    cell on e, for the integrand g(u)/(e - u).

    Where g vanishes like |u - e|^alpha, g(u)/(e - u) grows like
    |u - e|^(alpha - 1) into that cell, which its Gauss nodes do not
    resolve (7e-8 off for g = 2 sqrt(1 - u^2)), while the shell sums
    contract like 2^(-j alpha): the series past the last one is the cell.
    """
    u, wt = graded_layout(a, b, 16, True)
    gu = np.asarray(g(u), dtype=float)
    out = np.empty(ends.size)
    for i, e in enumerate(ends):
        cells = (gu / (e - u) * wt).reshape(-1, 16).sum(axis=1)
        if e == a:
            cells = cells[::-1]
        r = 2.0 ** shell_slope(cells[:-1])
        out[i] = cells[-2] * r / (1.0 - r) - cells[-1]
    return out


def refine_panels(sums, count, tol_abs):
    """(values, gaps) of ``count`` integrals; ``sums(panels, idx)`` sums
    those numbered idx at ``panels`` panels.  Panels double from
    ``_PANELS_START`` until an integral's fine and coarse sums agree to
    ``tol_abs``; that gap is its error estimate.  Raises
    EvaluationBudgetExceeded past ``_PANELS_CAP`` panels.
    """
    values = np.empty(count, dtype=complex)
    gaps = np.empty(count)
    todo = np.arange(count)
    panels = _PANELS_START
    coarse = sums(panels, todo)
    while todo.size:
        panels *= 2
        if panels > _PANELS_CAP:
            raise EvaluationBudgetExceeded(
                f"panel doubling: {todo.size} of {count} integrals still "
                f"above {tol_abs:g} at {panels // 2} panels")
        fine = sums(panels, todo)
        gap = np.abs(fine - coarse)
        done = gap <= tol_abs
        values[todo[done]] = fine[done]
        gaps[todo[done]] = gap[done]
        todo, coarse = todo[~done], fine[~done]
    return values, gaps


# entries of one work buffer of ``blocks``: 64 KiB of floats, under
# glibc's mmap threshold, so its blocks never page-fault fresh mappings
_BUF = 1 << 13


def blocks(n, m, k):
    """Yield the row and column slices of each block (at most ``_BUF``
    entries) of an n x m matrix, with k work views of once-made buffers."""
    cols = min(m, _BUF)
    rows = _BUF // cols
    buf = np.empty((k, _BUF))
    for lo in range(0, n, rows):
        for c in range(0, m, cols):
            shape = (min(rows, n - lo), min(cols, m - c))
            yield (slice(lo, lo + rows), slice(c, c + cols),
                   *(b[:shape[0] * shape[1]].reshape(shape) for b in buf))


# ---------------------------------------------------------------------------
# composite Filon-Simpson rule


# The chirp-z path pays a fixed O(n log n) for the FFTs, which the direct
# rule's n*M exponentials undercut only for a handful of frequencies.
_CHIRP_MIN_FREQS = 16
# Largest phase matrix the direct rule builds at once, in bytes.
_DIRECT_BYTES = 1 << 26
# A frequency grid counts as uniform when it departs from the arithmetic
# progression through its end points by at most this fraction of its
# largest |omega|: a few roundings of linspace or arange times a scalar.
_UNIFORM_RTOL = 64 * np.finfo(float).eps


def filon_coefficients(theta):
    """Filon weights alpha (odd), beta, gamma (even) at theta = omega*h.

    Power series below |theta| = 0.05 avoids the theta^-3 cancellation; the
    switch point keeps both branches accurate to ~1e-16.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 0.05
    ts = np.where(small, theta, 0.0)
    tl = np.where(small, 1.0, theta)

    s, c = np.sin(tl), np.cos(tl)
    t3 = tl ** 3
    alpha_l = (tl * tl + tl * s * c - 2.0 * s * s) / t3
    beta_l = 2.0 * (tl * (1.0 + c * c) - 2.0 * s * c) / t3
    gamma_l = 4.0 * (s - tl * c) / t3

    s2 = ts * ts
    alpha_s = ts * s2 * (2.0 / 45.0 + s2 * (-2.0 / 315.0 + s2 * (2.0 / 4725.0)))
    beta_s = 2.0 / 3.0 + s2 * (2.0 / 15.0 + s2 * (-4.0 / 105.0 + s2 * (2.0 / 567.0)))
    gamma_s = 4.0 / 3.0 + s2 * (-2.0 / 15.0 + s2 * (1.0 / 210.0 - s2 / 11340.0))

    return (np.where(small, alpha_s, alpha_l),
            np.where(small, beta_s, beta_l),
            np.where(small, gamma_s, gamma_l))


def filon_transform(fvals, x0, h, omegas):
    """int f(x) exp(-i omega x) dx over the uniform grid x0 + j*h.

    ``fvals`` holds the n sample values (n odd; real or complex), and the
    rule is applied for every omega at once.  Exact for piecewise-quadratic
    f at any frequency, which is what keeps large omega*h panels honest.

    Two paths compute the same rule.  When ``omegas`` is an arithmetic
    progression of at least ``_CHIRP_MIN_FREQS`` values, the even- and
    odd-index sums are chirp-z transforms, evaluated by Bluestein's FFT
    convolution in O((n + M) log(n + M)) time and O(n + M) memory.  Any
    other ``omegas`` (a scalar, a short or a non-uniform array) takes the
    direct rule, which builds the phase matrix in row blocks of at most
    ``_DIRECT_BYTES`` and is the reference the chirp-z path is tested
    against.
    """
    fvals = np.asarray(fvals)
    scalar = np.isscalar(omegas) or np.asarray(omegas).ndim == 0
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = fvals.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("filon_transform needs an odd sample count >= 3")
    step = _uniform_step(omegas)
    if step is None:
        out = _filon_direct(fvals, x0, h, omegas)
    else:
        out = _filon_chirp(fvals, x0, h, omegas, step)
    return out[0] if scalar else out


def _uniform_step(omegas):
    """Step of ``omegas`` when the chirp-z path applies to it, else None.

    The tolerance is relative to the grid's extent, not to each |omega|,
    so that grids crossing zero pass.
    """
    m = omegas.size
    if m < _CHIRP_MIN_FREQS:
        return None
    step = (omegas[-1] - omegas[0]) / (m - 1)
    scale = max(abs(omegas[0]), abs(omegas[-1]))
    dev = np.max(np.abs(omegas - (omegas[0] + step * np.arange(m))))
    if not dev <= _UNIFORM_RTOL * scale:
        return None
    return step


def _filon_combine(h, omegas, first, last, even, odd):
    """Filon-Simpson value from the phased end samples and the even and
    odd sums (``even`` still including both end samples)."""
    alpha, beta, gamma = filon_coefficients(omegas * h)
    even = even - 0.5 * (first + last)
    return h * (1j * alpha * (last - first) + beta * even + gamma * odd)


def _direct_rows(n):
    """Frequencies per block of the direct rule at n samples."""
    return max(1, _DIRECT_BYTES // (16 * n))


def _filon_direct(fvals, x0, h, omegas):
    """Filon-Simpson rule from the explicit phase matrix, in row blocks."""
    n = fvals.shape[-1]
    x = x0 + h * np.arange(n)
    out = np.empty(omegas.shape, dtype=complex)
    rows = _direct_rows(n)
    for lo in range(0, omegas.size, rows):
        om = omegas[lo:lo + rows]
        fw = np.exp(-1j * np.outer(om, x))
        fw *= fvals
        out[lo:lo + rows] = _filon_combine(
            h, om, fw[:, 0], fw[:, -1],
            fw[:, 0::2].sum(axis=1), fw[:, 1::2].sum(axis=1))
    return out


def _smooth_numbers(limit: int) -> np.ndarray:
    """Every 11-smooth integer <= limit, ascending."""
    table = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for v in table:
            while v <= limit:
                grown.append(v)
                v *= p
        table = grown
    return np.array(sorted(table), dtype=np.int64)


# built at import: made at the first call, it can sit at the top of the
# heap above freed work arrays and keep their pages resident
_SMOOTH = _smooth_numbers(1 << 24)


def fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, for n >= 1.

    Its prime factors are all 2, 3, 5, 7 or 11, the radices numpy's
    pocketfft splits a transform into, so an FFT padded to it runs at full
    speed.  It is a binary search in the sorted table of 11-smooth
    numbers, past 2^24 in one built up to the power of 2 >= n.
    """
    table = _SMOOTH if n <= _SMOOTH[-1] else _smooth_numbers(
        1 << (n - 1).bit_length())
    return int(table[np.searchsorted(table, n)])


def _chirp(r, q):
    """exp(-i r q^2) for integer q, with the phase kept exact.

    r q^2 reaches 1e7 rad on long sample grids, where a rounded product
    would put an absolute error of ~1e-9 into every phase.  A 24-bit head
    of r times the limbs of q^2 (29 and 24 bits while |q| < 2^26) gives
    exact partial products, whose exponentials are accurate to roundoff;
    the tail of r is too small to matter.
    """
    q2 = np.asarray(q, dtype=np.int64) ** 2
    mant, ex = math.frexp(r)
    r_hi = math.ldexp(round(mant * 2 ** 24), ex - 24)
    r_lo = r - r_hi
    top = (q2 >> 24).astype(float)
    bottom = (q2 & (2 ** 24 - 1)).astype(float)
    return (np.exp(-1j * (r_hi * top * 2.0 ** 24))
            * np.exp(-1j * (r_hi * bottom + r_lo * q2)))


def _filon_chirp(fvals, x0, h, omegas, step):
    """Filon-Simpson rule on omega_m = omega_0 + m*step by chirp-z.

    The even samples f_{2l} and the odd samples f_{2l+1} carry the phases
    exp(-i omega_m (x0 + 2lh)) and exp(-i omega_m (x0 + h + 2lh)).  Past
    their m-independent factors both sums are sum_l a_l exp(-2i r m l)
    with r = step*h, and Bluestein's identity 2ml = m^2 + l^2 - (m-l)^2
    turns each into a convolution with the chirp exp(i r q^2),
    q = m - l.  Both share one kernel FFT of length >= n/2 + M.
    """
    m = omegas.size
    half = (fvals.shape[-1] - 1) // 2
    r = step * h
    # chirp over q = -half .. max(m, half + 1) - 1 covers m - l, m and l
    q = np.arange(-half, max(m, half + 1))
    chirp = _chirp(r, q)
    size = fast_len(half + m)
    kernel = np.zeros(size, dtype=complex)
    kernel[:half + m] = np.conj(chirp[:half + m])
    seq = np.zeros((2, size), dtype=complex)
    tilt = np.exp(-2j * omegas[0] * h * np.arange(half + 1))
    seq[0, :half + 1] = fvals[0::2] * tilt * chirp[half:2 * half + 1]
    seq[1, :half] = fvals[1::2] * tilt[:half] * chirp[half:2 * half]
    conv = np.fft.ifft(np.fft.fft(seq) * np.fft.fft(kernel))
    sums = conv[:, half:half + m] * chirp[half:half + m]
    lead = np.exp(-1j * omegas * x0)
    last = fvals[-1] * np.exp(-1j * omegas * (x0 + h * (2 * half)))
    return _filon_combine(h, omegas, fvals[0] * lead, last, lead * sums[0],
                          lead * np.exp(-1j * omegas * h) * sums[1])


def filon_weights(n, x0, h, omega):
    """Weights W with sum_j W[..., j] f_j = filon_transform(f, x0, h, omega).

    omega may be a scalar (shape (n,) result) or a vector (shape
    (len(omega), n)).  Handy when the same grid is hit with many different
    integrands (the nonlinear density sums do exactly that).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd sample count >= 3")
    om = np.asarray(omega, dtype=float)
    om1 = np.atleast_1d(om)
    alpha, beta, gamma = filon_coefficients(om1 * h)
    x = x0 + h * np.arange(n)
    # built in place: the nonlinear solve asks for one (M, n) table of all
    # its time nodes, and each full-size temporary would cost as much
    w = np.empty((om1.size, n), dtype=complex)
    w[:, 0::2] = beta[:, None]
    w[:, 1::2] = gamma[:, None]
    w[:, 0] = beta / 2.0 - 1j * alpha
    w[:, -1] = beta / 2.0 + 1j * alpha
    w *= h
    phase = np.multiply(-1j * om1[:, None], x[None, :])
    w *= np.exp(phase, out=phase)
    return w[0] if om.ndim == 0 else w


# ---------------------------------------------------------------------------
# grid refinement


@dataclass(frozen=True)
class FilonRefinement:
    """Outcome of ``refine_filon``.

    ``samples`` holds the callable on the final grid x0 + j*h,
    ``transforms`` the fine-rule values at each frequency array, ``gap``
    the largest fine/coarse difference over all of them and
    ``evaluations`` the samples taken over every grid tried.
    """

    samples: np.ndarray
    h: float
    transforms: list
    gap: float
    evaluations: int


def refine_filon(sample, x0, length, omegas, n0, tol, n_cap) -> FilonRefinement:
    """Filon transforms of ``sample`` on [x0, x0 + length], refined by doubling.

    ``omegas`` is a sequence of frequency arrays.  The grid starts at
    ``n0`` samples rounded up to 1 mod 4, so every grid and its
    half-sampled sub-grid hold odd counts, and doubles (n -> 2n - 1)
    until the rule on every sample and the rule on every other sample
    agree to ``tol`` at every frequency, or until the next grid would
    pass ``n_cap`` samples.  An unmet tolerance is reported in ``gap``,
    never raised: each caller decides what it means.
    """
    n = n0 + (1 - n0) % 4
    evals = 0
    while True:
        h = length / (n - 1)
        fv = np.asarray(sample(x0 + h * np.arange(n)))
        evals += n
        fine = [filon_transform(fv, x0, h, om) for om in omegas]
        coarse = [filon_transform(fv[::2], x0, 2 * h, om) for om in omegas]
        gap = max(float(np.max(np.abs(f - c))) for f, c in zip(fine, coarse))
        if gap <= tol or 2 * n - 1 > n_cap:
            return FilonRefinement(samples=fv, h=h, transforms=fine, gap=gap,
                                   evaluations=evals)
        n = 2 * n - 1
