"""Run configuration, artifact emission, and the experiment orchestrator.

A single JSON document drives every subcommand; all physical parameters
are dimensionless.  Artifacts are flat files: CSV for trajectories and
tables (17 significant digits, so re-reading reproduces the arrays
bit-exactly) and JSON for reports, each stamped with "schema": 1.  Exit
codes: 0 on success, 2 when a stability certificate comes back
Inconclusive, 1 on any error.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import dispersion as disp, dynamics, green, nonlinear, profiles, stability

__all__ = [
    "ConfigError",
    "InsufficientSamples",
    "NonPositiveValue",
    "RunConfig",
    "DecayFit",
    "load_config",
    "parse_config",
    "fit_decay",
    "NONLINEAR_BUDGET",
    "run",
    "SUBCOMMANDS",
]


class ConfigError(Exception):
    """Malformed run configuration; the message names the field."""


class InsufficientSamples(Exception):
    """Too few samples inside the fit window."""


class NonPositiveValue(Exception):
    """Log-log fitting needs strictly positive values."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the built profile, potential and initial kernel,
    the grids, and the tolerances."""

    profile: profiles.EquilibriumProfile
    potential: profiles.Potential
    kernel: dynamics.InitialKernel
    d: int
    n1: int
    n2: int
    k_count: int
    k_min: float
    k_max: float
    dt: float
    t_max: float
    tau_max: float
    tau_count: int
    nl_box: float
    nl_points: int
    nl_dt: float
    nl_t_max: float
    out_dir: str
    seed: int
    green_tol: float
    fit_window: tuple[float, float]

    @property
    def n3(self) -> int:
        return min(self.n1, self.n2) - self.d - 1


# the keys each level of the document may hold
_TOP_KEYS = ("d", "equilibrium", "potential", "k_grid", "t_grid", "tau_grid",
             "nonlinear", "epsilon", "N1", "N2", "out", "seed", "initial",
             "tolerances")
_GROUP_KEYS = {
    "k_grid": ("count", "min", "max"),
    "t_grid": ("dt", "t_max"),
    "tau_grid": ("max", "count"),
    "nonlinear": ("box", "points", "dt", "t_max"),
    "initial": ("alpha",),
    "tolerances": ("green", "fit_window"),
}


def _reject_unknown(doc: dict, allowed, prefix: str) -> None:
    unknown = [f"'{prefix}{k}'" for k in doc if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown field{'s' if len(unknown) > 1 else ''} "
                          f"{', '.join(unknown)}")


def _number(doc: dict, prefix: str, name: str, default, kind=float):
    """Numeric field ``name`` of ``doc`` as ``kind`` (float or int), or
    ``default`` when absent; a None default makes the field required."""
    if name not in doc:
        if default is None:
            raise ConfigError(f"missing field '{prefix}{name}'")
        return kind(default)
    v = doc[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not math.isfinite(v):
        raise ConfigError(f"field '{prefix}{name}': must be a finite "
                          f"number, got {v!r}")
    if kind is int and v != int(v):
        raise ConfigError(f"field '{prefix}{name}': must be an integer, "
                          f"got {v!r}")
    return kind(v)


def _group(doc: dict, name: str, required: bool) -> dict:
    """The object-valued field ``name``, its keys checked ({} if absent)."""
    g = doc.get(name)
    if g is None:
        if required:
            raise ConfigError(f"missing field '{name}'")
        return {}
    if not isinstance(g, dict):
        raise ConfigError(f"field '{name}' must be an object")
    if name in _GROUP_KEYS:
        _reject_unknown(g, _GROUP_KEYS[name], f"{name}.")
    return g


def parse_config(doc: dict, out: str | None = None,
                 seed: int | None = None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Field problems, unknown keys included, raise ConfigError naming the
    offending field; the profile, potential and initial kernel are built
    here, so a bad parameter fails before any stage runs.  The ``out``
    and ``seed`` arguments override the document when given.
    """
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")
    d = _number(doc, "", "d", None, int)
    if d < 1:
        raise ConfigError("field 'd': must be >= 1")
    eq = _group(doc, "equilibrium", True)
    if "kind" not in eq:
        raise ConfigError("field 'equilibrium': needs a 'kind'")
    pot = _group(doc, "potential", True)
    if "kind" not in pot:
        raise ConfigError("field 'potential': needs a 'kind'")

    prof = _build(eq, "equilibrium", _PROFILE_KINDS, d)
    w = _build(pot, "potential", _POTENTIAL_KINDS)
    if "N1" not in doc and not math.isfinite(prof.n1):
        raise ConfigError(f"field 'N1': required, since equilibrium kind "
                          f"'{prof.kind}' declares no finite decay rate")
    n1 = _number(doc, "", "N1", 2 * prof.n1 - d + 1, int)
    n2 = _number(doc, "", "N2", d + 1, int)
    if min(n1, n2) - d - 1 < 0:
        raise ConfigError("fields 'N1'/'N2': min(N1, N2) - d - 1 must be "
                          ">= 0")

    kg = _group(doc, "k_grid", True)
    k_count = _number(kg, "k_grid.", "count", None, int)
    k_min = _number(kg, "k_grid.", "min", None)
    k_max = _number(kg, "k_grid.", "max", None)
    if k_count < 2 or not (0 < k_min < k_max):
        raise ConfigError("field 'k_grid': need count >= 2 and "
                          "0 < min < max")
    tg = _group(doc, "t_grid", True)
    dt = _number(tg, "t_grid.", "dt", None)
    t_max = _number(tg, "t_grid.", "t_max", None)
    if dt <= 0 or t_max <= dt:
        raise ConfigError("field 't_grid': need dt > 0 and t_max > dt")
    taug = _group(doc, "tau_grid", False)
    tau_max = _number(taug, "tau_grid.", "max", 40.0)
    tau_count = _number(taug, "tau_grid.", "count", 401, int)
    if tau_count < 2 or tau_max <= 0:
        raise ConfigError("field 'tau_grid': need count >= 2 and max > 0")
    nl = _group(doc, "nonlinear", False)
    nl_box = _number(nl, "nonlinear.", "box", 4.0)
    nl_points = _number(nl, "nonlinear.", "points", 33 if d <= 2 else 9, int)
    nl_dt = _number(nl, "nonlinear.", "dt", 0.1)
    nl_t_max = _number(nl, "nonlinear.", "t_max", 30.0)
    try:
        nonlinear.check_box(d, nl_points)
    except ValueError as e:
        raise ConfigError(f"field 'nonlinear.points': {e}") from e
    if nl_dt <= 0 or nl_t_max <= 0 or nl_box <= 0:
        raise ConfigError("field 'nonlinear': box, dt, t_max must be "
                          "positive")

    # epsilon is the one size of the datum, G0 = epsilon exp(-(|k|^2 +
    # |p|^2)/(4 alpha))
    epsilon = _number(doc, "", "epsilon", 1e-2)
    alpha = _number(_group(doc, "initial", False), "initial.", "alpha", 1.0)
    if not alpha > 0:
        raise ConfigError("field 'initial.alpha': must be positive")
    kernel = dynamics.InitialKernel(d=d, alpha=alpha, epsilon=epsilon)
    tol = _group(doc, "tolerances", False)
    # decay diagnostics only need table entries well above the fit floor;
    # the library default 1e-10 is for solver-grade tables
    green_tol = _number(tol, "tolerances.", "green", 1e-8)
    if not green_tol > 0:
        raise ConfigError("field 'tolerances.green': must be > 0")
    window = tol.get("fit_window", (5.0, 50.0))
    pair = isinstance(window, (list, tuple)) and len(window) == 2
    if pair:
        window = tuple(_number({"fit_window": x}, "tolerances.",
                               "fit_window", None) for x in window)
    if not pair or not 0 < window[0] < window[1]:
        raise ConfigError("field 'tolerances.fit_window': need [lo, hi] "
                          "with 0 < lo < hi")
    return RunConfig(
        profile=prof, potential=w, kernel=kernel, d=d, n1=n1, n2=n2,
        k_count=k_count, k_min=k_min, k_max=k_max, dt=dt, t_max=t_max,
        tau_max=tau_max, tau_count=tau_count, nl_box=nl_box,
        nl_points=nl_points, nl_dt=nl_dt, nl_t_max=nl_t_max,
        out_dir=out if out is not None else str(doc.get("out", ".")),
        seed=seed if seed is not None else _number(doc, "", "seed", 0, int),
        green_tol=green_tol, fit_window=window)


def load_config(path: str, out: str | None = None,
                seed: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read '{path}': {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in '{path}' at line {e.lineno}: "
                          f"{e.msg}") from e
    return parse_config(doc, out=out, seed=seed)


_PROFILE_KINDS = {"gaussian": profiles.gaussian_profile,
                  "fermi_zero_t": profiles.fermi_zero_t_profile,
                  "smooth_bump": profiles.smooth_bump_profile,
                  "power_decay": profiles.power_decay_profile}
_POTENTIAL_KINDS = {"screened_coulomb": profiles.screened_coulomb,
                    "delta": profiles.delta_potential,
                    "gaussian": profiles.gaussian_hat_potential}


def _build(group: dict, name: str, kinds: dict, *args):
    """The object of kind ``group["kind"]``, built from the group's other
    keys (after ``args``); a failure names the group."""
    kind = group["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"field '{name}.kind': unknown kind '{kind}'")
    try:
        return kinds[kind](*args, **{k: v for k, v in group.items()
                                     if k != "kind"})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field '{name}': {e}") from e


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class DecayFit:
    window: tuple[float, float]
    slope: float
    intercept: float
    residual: float

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError("fit window must satisfy t_lo < t_hi")
        if self.residual < 0:
            raise ValueError("residual is an rms, hence nonnegative")


def _in_window(samples, window) -> np.ndarray:
    """The (t, value) rows with window[0] <= t <= window[1]."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (t, value) rows")
    return arr[(arr[:, 0] >= window[0]) & (arr[:, 0] <= window[1])]


def fit_decay(samples, window: tuple[float, float] = (5.0, 50.0)) -> DecayFit:
    """Least-squares log-log line through the in-window samples.

    ``samples`` holds (t, value) rows; the slope estimates the decay
    exponent.  Raises InsufficientSamples below 8 in-window points and
    NonPositiveValue when the window contains a value <= 0.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    pts = _in_window(samples, (t_lo, t_hi))
    if pts.shape[0] < 8:
        raise InsufficientSamples(
            f"{pts.shape[0]} samples in [{t_lo:g}, {t_hi:g}]; need 8")
    if np.any(pts[:, 1] <= 0.0):
        bad = float(pts[pts[:, 1] <= 0.0][0, 0])
        raise NonPositiveValue(f"value <= 0 at t = {bad:g}")
    lt = np.log(pts[:, 0])
    lv = np.log(pts[:, 1])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lt + intercept)) ** 2)))
    return DecayFit(window=(t_lo, t_hi), slope=float(slope),
                    intercept=float(intercept), residual=resid)


# ---------------------------------------------------------------------------
# artifact helpers


# rows per formatted block, which is one string in memory
_CSV_BLOCK = 2048


def _write_csv(path: str, header: list[str], table) -> int:
    """Write ``header`` and the rows of ``table``, a 2-D numeric array or
    a list of columns (strings written unquoted), as CRLF lines, numbers
    at 17 significant digits; return the row count."""
    if isinstance(table, np.ndarray):
        fields = ["%.17g"] * table.shape[1]
    else:
        fields = ["%s" if np.asarray(c).dtype.kind == "U" else "%.17g"
                  for c in table]
        table = np.array(list(zip(*table)), dtype=object)
    line = ",".join(fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo:lo + _CSV_BLOCK]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    return len(table)


def _write_json(path: str, payload: dict) -> None:
    doc = {"schema": 1, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_or_note(samples, window) -> dict:
    """Report entry for one decay fit: the fit, or the reason there is
    none, and the number of in-window samples either way."""
    entry = {"samples": int(_in_window(samples, window).shape[0])}
    try:
        f = fit_decay(samples, window)
        entry.update(window=list(f.window), slope=f.slope,
                     intercept=f.intercept, residual=f.residual)
    except (InsufficientSamples, NonPositiveValue) as e:
        entry["error"] = f"{type(e).__name__}: {e}"
    return entry


# ---------------------------------------------------------------------------
# subcommand implementations


def _k_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.k_min, cfg.k_max, cfg.k_count)


def _t_grid(cfg: RunConfig) -> np.ndarray:
    n = int(round(cfg.t_max / cfg.dt)) + 1
    return np.arange(n) * cfg.dt


def _marginal(cfg: RunConfig, out: str):
    """The marginal from ``out/marginal.npz`` if whole and stamped so, else built."""
    try:
        with np.load(os.path.join(out, "marginal.npz"), allow_pickle=False) as npz:
            if str(npz["stamp"]) == profiles.marginal_stamp(cfg.profile):
                return profiles.marginal_from_tables(
                    cfg.profile, {k: npz[k] for k in npz.files if k != "stamp"})
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        pass
    return profiles.build_marginal(cfg.profile)


def _cmd_marginal(cfg: RunConfig, out: str) -> int:
    m = profiles.build_marginal(cfg.profile)
    # ZipInfo's fixed 1980 member date: equal tables give equal bytes
    with zipfile.ZipFile(os.path.join(out, f"marginal.{os.getpid()}.tmp"), "w") as zf:
        for key, val in dict(m.tables, stamp=profiles.marginal_stamp(cfg.profile)).items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy"), "w") as fh:
                np.lib.format.write_array(fh, np.asarray(val))
    os.replace(zf.filename, os.path.join(out, "marginal.npz"))
    us = np.linspace(-m.u_support, m.u_support, 801)
    _write_csv(os.path.join(out, "marginal.csv"), ["u", "phi", "dphi"],
               np.column_stack([us, m.phi(us), m.dphi(us)]))
    ts = np.linspace(0.0, m.t_support, 801)
    _write_csv(os.path.join(out, "marginal_hat.csv"), ["t", "phi_hat"],
               np.column_stack([ts, m.phi_hat(ts)]))
    report = profiles.validate_assumptions(cfg.profile, cfg.potential, m,
                                           seed=cfg.seed)
    _write_json(os.path.join(out, "marginal.json"), {
        "total_mass": m.total_mass,
        "upsilon": m.upsilon if np.isfinite(m.upsilon) else None,
        "u_support": m.u_support,
        "t_support": m.t_support,
        "phi_hat_l1": m.phi_hat_l1,
        "phi_hat_deriv_l1": m.phi_hat_deriv_l1,
        "assumptions": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in report.checks],
        "ok": report.ok,
    })
    return 0


def _cmd_dispersion(cfg: RunConfig, out: str) -> int:
    m = _marginal(cfg, out)
    pot = cfg.potential
    taus = np.linspace(0.0, cfg.tau_max, cfg.tau_count)
    # a strip of strictly unstable-side samples documents the analytic route
    strip = np.array([0.5, 0.1, 0.02]) + 0.5j
    rows = [(k, 1j * taus, "plemelj_boundary") for k in _k_grid(cfg)] + [
        (k, strip, "hilbert_form")
        for k in _k_grid(cfg)[:: max(cfg.k_count // 6, 1)]]
    blocks = []
    for k, lt, route in rows:
        values, errs = disp.dispersion_row(m, pot, float(k), lt)
        blocks.append((np.full(lt.size, k), k * lt.real, k * lt.imag,
                       np.full(lt.size, route), values.real, values.imag,
                       errs))
    _write_csv(os.path.join(out, "dispersion.csv"),
               ["k", "re_lambda", "im_lambda", "route", "re_D", "im_D",
                "err"], [np.concatenate(c) for c in zip(*blocks)])
    return 0


def _cmd_stability(cfg: RunConfig, out: str) -> int:
    m = _marginal(cfg, out)
    cert = stability.certify(m, cfg.potential)
    payload = {
        "verdict": cert.verdict,
        "theta0": cert.theta0,
        "phi0": None if cert.phi0 is None or not math.isfinite(cert.phi0)
        else cert.phi0,
        "phi0_divergent": cert.criterion.kind == "divergent",
        "criterion": {
            "kind": cert.criterion.kind,
            "value": cert.criterion.value,
            "shell_slope": cert.criterion.shell_slope,
        },
        "zero_location": None if cert.zero_location is None else
        {"tau_tilde": cert.zero_location[0], "k": cert.zero_location[1],
         "abs_D": cert.zero_residual},
        "scan_min": cert.scan_min,
        "scan_argmin": None if cert.scan_argmin is None else
        {"k": cert.scan_argmin[0], "tau_tilde": cert.scan_argmin[1]},
        "margin": cert.margin,
        "k_range": cert.k_range,
        "windings": [
            {"k": c.k, "rectangle": list(c.rectangle), "winding": c.winding,
             "residual": c.residual, "nodes": c.nodes}
            for c in cert.winding_checks],
        "notes": list(cert.notes),
    }
    _write_json(os.path.join(out, "stability.json"), payload)
    if np.isfinite(m.upsilon):
        ks = np.linspace(cfg.k_min, cfg.k_max, min(cfg.k_count, 16))
        try:
            _write_csv(os.path.join(out, "phi_curve.csv"), ["k", "phi"],
                       stability.phi_curve(m, cfg.potential, ks))
        except disp.DivergentIntegral:
            pass
    return 2 if cert.verdict == "Inconclusive" else 0


def _cmd_green(cfg: RunConfig, out: str) -> int:
    m = _marginal(cfg, out)
    ks = _k_grid(cfg)
    ts = _t_grid(cfg)
    gtol = cfg.green_tol
    table = green.green_table(m, cfg.potential, ks, ts, tol=gtol)
    _write_csv(os.path.join(out, "green.csv"), ["k", "t", "re_G", "im_G"],
               np.column_stack([np.repeat(ks, ts.size), np.tile(ts, ks.size),
                                table.values.real.ravel(),
                                table.values.imag.ravel()]))
    # quarter-octave blocks; block maxima under 100 times the synthesis
    # tolerance are quadrature noise and stay out of the fit
    floor = 100.0 * gtol
    fits = {}
    peaks = {}
    for i, k in enumerate(ks):
        env = green.dyadic_envelope(ts, np.abs(table.values[i]),
                                    ratio=2 ** 0.25)
        if env.shape[0]:
            entry = _fit_or_note(env[env[:, 1] > floor], cfg.fit_window)
            entry["noise_floor"] = floor
            entry["below_floor"] = (_in_window(env, cfg.fit_window).shape[0]
                                    - entry["samples"])
            fits[f"{k:.6g}"] = entry
        peaks[f"{k:.6g}"] = float(np.max(np.abs(table.values[i])))
    _write_json(os.path.join(out, "green_envelope.json"), {
        "fit_window": list(cfg.fit_window),
        "envelope_fits": fits,
        "max_abs_by_k": peaks,
    })
    return 0


def _decay_payload(cfg: RunConfig, traj: dynamics.DensityTrajectory) -> dict:
    fits = {}
    for n in range(min(cfg.n3, 2) + 1):
        rows = dynamics.reconstruct_sup_norm(traj, cfg.d, n=n)
        fits[str(n)] = _fit_or_note(rows, cfg.fit_window)
    # the sup norms' power law comes from k ~ 1/t, and the grid holds no
    # mode below k_min, so a slope means the rate only while
    # k_min * t_hi is well under 1 (criterion 5 runs at 0.2)
    return {"fit_window": list(cfg.fit_window), "sup_norm_fits": fits,
            "y_norm": dynamics.y_norm(traj, cfg.n1, cfg.n2),
            "k_count": cfg.k_count,
            "k_min_t_hi": cfg.k_min * min(cfg.fit_window[1], cfg.t_max)}


def _traj_rows(traj: dynamics.DensityTrajectory) -> np.ndarray:
    """(t, k, re rho_hat, im rho_hat) rows, k-major."""
    k, t = traj.k_grid, traj.t_grid
    return np.column_stack([np.tile(t, k.size), np.repeat(k, t.size),
                            traj.rho_hat.real.ravel(),
                            traj.rho_hat.imag.ravel()])


def _cmd_free(cfg: RunConfig, out: str) -> int:
    traj = dynamics.free_density_trajectory(cfg.kernel, _k_grid(cfg),
                                            _t_grid(cfg))
    _write_csv(os.path.join(out, "free.csv"),
               ["t", "k", "re_rho", "im_rho"], _traj_rows(traj))
    _write_json(os.path.join(out, "free_decay.json"), _decay_payload(cfg, traj))
    return 0


def _cmd_linear(cfg: RunConfig, out: str) -> int:
    m = _marginal(cfg, out)
    source = dynamics.free_density_trajectory(cfg.kernel, _k_grid(cfg),
                                              _t_grid(cfg))
    traj = dynamics.volterra_solve(m, cfg.potential, source)
    _write_csv(os.path.join(out, "linear.csv"),
               ["t", "k", "re_rho", "im_rho"], _traj_rows(traj))
    _write_json(os.path.join(out, "linear_decay.json"),
                _decay_payload(cfg, traj))
    return 0


# the most the nonlinear stage may hold (``nonlinear.solve_bytes``), in
# bytes: the d = 2 defaults (33 points to t_max 30) need 0.37e9, while one
# slab of d = 2 at 129 points is 4.4e9
NONLINEAR_BUDGET = 2 ** 30


def _cmd_nonlinear(cfg: RunConfig, out: str) -> int:
    profile, traj, tracker, report = nonlinear.solve_selfconsistent(
        cfg.kernel, cfg.profile, cfg.potential, k_box=cfg.nl_box,
        n_pts=cfg.nl_points, dt=cfg.nl_dt, t_max=cfg.nl_t_max, n1=cfg.n1,
        n2=cfg.n2)
    _write_csv(os.path.join(out, "nonlinear_rho.csv"),
               ["t", "k", "re_rho", "im_rho"], _traj_rows(traj))
    scat = profile.scattering
    _write_csv(os.path.join(out, "scattering.csv"), ["t", "hs_distance"],
               scat)
    hs = profile.hs_norms
    h = 2.0 * cfg.nl_box / (cfg.nl_points - 1)
    _write_json(os.path.join(out, "nonlinear_report.json"), {
        "box": cfg.nl_box,
        "points": cfg.nl_points,
        "h": h,
        "h_t_max": h * cfg.nl_t_max,
        "iterations": report.iterations,
        "distances": list(report.distances),
        "contraction_factors": list(report.contraction_factors),
        "leakage": report.leakage,
        "hermitian_defect": profile.hermitian_defect,
        "hs_initial": float(hs[0]),
        "hs_final": float(hs[-1]),
        "y_norm": tracker.y_norm,
        "z_norm": tracker.z_norm,
        "available_x_orders": tracker.available_orders,
        "scattering_fit": _fit_or_note(scat[scat[:, 1] > 0],
                                       cfg.fit_window),
    })
    return 0


def _cmd_report(cfg: RunConfig, out: str) -> int:
    summary: dict[str, Any] = {"csv": {}, "json": {}}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            with open(path) as fh:
                n = sum(1 for _ in fh) - 1
            summary["csv"][name] = {"rows": max(n, 0)}
        elif name.endswith(".json") and name != "report.json":
            with open(path) as fh:
                summary["json"][name] = json.load(fh)
    _write_json(os.path.join(out, "report.json"), summary)
    return 0


_COMMANDS = {
    "marginal": _cmd_marginal,
    "dispersion": _cmd_dispersion,
    "stability": _cmd_stability,
    "green": _cmd_green,
    "free": _cmd_free,
    "linear": _cmd_linear,
    "nonlinear": _cmd_nonlinear,
    "report": _cmd_report,
}
SUBCOMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig, subcommand: str) -> int:
    """Dispatch one subcommand; returns the process exit code.

    A ``nonlinear`` run whose ``nonlinear.solve_bytes`` exceed
    NONLINEAR_BUDGET raises ConfigError before any work.  The check sits here, not in
    parse_config, because the stages share one config and the default
    nonlinear group is far over budget for d >= 4.
    """
    if subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand '{subcommand}'; choose from "
                         f"{', '.join(SUBCOMMANDS)}")
    nl_bytes = (nonlinear.solve_bytes(cfg.d, cfg.nl_points, cfg.nl_dt, cfg.nl_t_max)
                if subcommand == "nonlinear" else 0)
    if nl_bytes > NONLINEAR_BUDGET:
        raise ConfigError(
            f"field 'nonlinear.points': the nonlinear solve would hold "
            f"{nl_bytes / 1e9:.3g} GB, over the "
            f"{NONLINEAR_BUDGET / 1e9:.3g} GB budget; lower "
            "'nonlinear.points' or 'nonlinear.t_max'")
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return _COMMANDS[subcommand](cfg, out)
