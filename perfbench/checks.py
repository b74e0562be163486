"""Output checks for one stage run, and the pinned-seed reference files.

`check_stage` holds for every seed: the stage's documented artifacts exist
with the row counts its config implies, and the workload's verdicts hold.
`compare_reference` (pinned seed only) compares the numeric artifacts with
the files in ``reference/<workload>/``, written by ``run.py
--write-reference`` at the commit that defined the benchmark.  A faster
kernel that loses accuracy beyond these tolerances therefore fails.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# absolute tolerance per result column; grid columns must agree to 1e-12
# (relative) and error-estimate columns are not compared
TOLERANCES = {
    "marginal.csv": {"phi": 1e-9, "dphi": 1e-9},
    "marginal_hat.csv": {"phi_hat": 1e-9},
    "dispersion.csv": {"re_D": 1e-6, "im_D": 1e-6, "err": None},
    "phi_curve.csv": {"phi": 1e-6},
    "green.csv": {"re_G": 1e-8, "im_G": 1e-8},
    "free.csv": {"re_rho": 1e-9, "im_rho": 1e-9},
    "linear.csv": {"re_rho": 1e-9, "im_rho": 1e-9},
    "nonlinear_rho.csv": {"re_rho": 1e-9, "im_rho": 1e-9},
    "scattering.csv": {"hs_distance": 1e-9},
}
GRID_RTOL = 1e-12

# JSON fields compared with the reference: dotted path -> tolerance
# (None: must be equal)
JSON_FIELDS = {
    "marginal.json": {"total_mass": 1e-9, "phi_hat_l1": 1e-6,
                      "phi_hat_deriv_l1": 1e-6},
    "stability.json": {"verdict": None, "theta0": 1e-6, "scan_min": 1e-6,
                       "zero_location.tau_tilde": 1e-8,
                       "zero_location.k": None},
}


def _n_times(dt: float, t_max: float) -> int:
    return int(round(t_max / dt)) + 1


def expected_rows(stage: str, cfg: dict) -> dict[str, int | None]:
    """Artifact name -> data rows (None: a JSON report)."""
    k_count = cfg["k_grid"]["count"]
    n_t = _n_times(cfg["t_grid"]["dt"], cfg["t_grid"]["t_max"])
    if stage == "marginal":
        return {"marginal.csv": 801, "marginal_hat.csv": 801,
                "marginal.json": None}
    if stage == "dispersion":
        strip = len(range(0, k_count, max(k_count // 6, 1)))
        return {"dispersion.csv": k_count * cfg["tau_grid"]["count"]
                + 3 * strip}
    if stage == "stability":
        rows = {"stability.json": None}
        if cfg["equilibrium"]["kind"] == "fermi_zero_t":
            rows["phi_curve.csv"] = min(k_count, 16)
        return rows
    if stage == "green":
        return {"green.csv": k_count * n_t, "green_envelope.json": None}
    if stage in ("free", "linear"):
        return {f"{stage}.csv": k_count * n_t, f"{stage}_decay.json": None}
    if stage == "nonlinear":
        nl = cfg["nonlinear"]
        n_nl = _n_times(nl.get("dt", 0.1), nl["t_max"])
        return {"nonlinear_rho.csv": nl["points"] ** cfg["d"] * n_nl,
                "scattering.csv": n_nl, "nonlinear_report.json": None}
    raise ValueError(f"unknown stage {stage}")


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_stage(workload: str, stage: str, out_dir: str, cfg: dict) -> list[str]:
    """Problems with one stage's artifacts; empty when the stage is good."""
    problems = []
    for name, n_rows in expected_rows(stage, cfg).items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
        elif n_rows is not None:
            got = len(_read_csv(path)[1])
            if got != n_rows:
                problems.append(f"{name}: {got} rows, expected {n_rows}")
    if problems:
        return problems

    def load(name):
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)

    if workload == "gauss3-spectral" and stage == "stability":
        s = load("stability.json")
        if s["verdict"] != "Stable":
            problems.append(f"verdict {s['verdict']}, expected Stable")
        if not (s["theta0"] is not None and s["theta0"] > 0):
            problems.append(f"theta0 {s['theta0']} not > 0")
        if not s["windings"] or any(c["winding"] != 0 for c in s["windings"]):
            problems.append("a winding number is nonzero (or none ran)")
    if workload == "fermi5-compact" and stage == "stability":
        s = load("stability.json")
        if s["verdict"] != "Unstable":
            problems.append(f"verdict {s['verdict']}, expected Unstable")
        zero = s.get("zero_location") or {}
        if not zero.get("abs_D", math.inf) < 1e-8:
            problems.append(f"zero residual {zero.get('abs_D')} not < 1e-8")
    if workload == "gauss1-evolution" and stage == "nonlinear":
        r = load("nonlinear_report.json")
        if not r["contraction_factors"] or \
                max(r["contraction_factors"]) >= 0.5:
            problems.append("a Picard contraction factor is >= 1/2 "
                            f"({r['contraction_factors']})")
        if not r["hermitian_defect"] <= 1e-10:
            problems.append(f"Hermitian defect {r['hermitian_defect']} > 1e-10")
    return problems


def _csv_arrays(path: str) -> dict[str, np.ndarray]:
    header, rows = _read_csv(path)
    cols = list(zip(*rows)) if rows else [()] * len(header)
    out = {}
    for name, col in zip(header, cols):
        try:
            out[name] = np.array(col, dtype=float)
        except ValueError:
            out[name] = np.array(col, dtype=str)
    return out


def _json_fields(path: str, fields) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for dotted in fields:
        v = doc
        for part in dotted.split("."):
            v = v.get(part) if isinstance(v, dict) else None
        out[dotted] = v
    return out


def _reference_files(stage: str, cfg: dict) -> list[str]:
    return [n for n in expected_rows(stage, cfg)
            if n in TOLERANCES or n in JSON_FIELDS]


def write_reference(workload: str, stage: str, out_dir: str, cfg: dict) -> None:
    ref = os.path.join(REFERENCE_DIR, workload)
    os.makedirs(ref, exist_ok=True)
    for name in _reference_files(stage, cfg):
        path = os.path.join(out_dir, name)
        if name in TOLERANCES:
            np.savez_compressed(os.path.join(ref, name[:-4] + ".npz"),
                                **_csv_arrays(path))
        else:
            with open(os.path.join(ref, name), "w") as fh:
                json.dump(_json_fields(path, JSON_FIELDS[name]), fh, indent=1)
                fh.write("\n")


def compare_reference(workload: str, stage: str, out_dir: str,
                      cfg: dict) -> list[str]:
    """Differences from the pinned-seed reference beyond the tolerances."""
    ref = os.path.join(REFERENCE_DIR, workload)
    problems = []
    for name in _reference_files(stage, cfg):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue  # check_stage reports missing artifacts
        if name.endswith(".csv"):
            ref_path = os.path.join(ref, name[:-4] + ".npz")
            if not os.path.isfile(ref_path):
                problems.append(f"{name}: no reference file")
                continue
            got = _csv_arrays(path)
            with np.load(ref_path, allow_pickle=False) as want:
                problems += _compare_columns(name, got, want)
        else:
            ref_path = os.path.join(ref, name)
            if not os.path.isfile(ref_path):
                problems.append(f"{name}: no reference file")
                continue
            with open(ref_path) as fh:
                want = json.load(fh)
            got = _json_fields(path, JSON_FIELDS[name])
            for field, tol in JSON_FIELDS[name].items():
                a, b = got.get(field), want.get(field)
                ok = a == b if tol is None or a is None or b is None \
                    else abs(a - b) <= tol
                if not ok:
                    problems.append(f"{name} {field}: {a!r} vs reference "
                                    f"{b!r} (tolerance {tol})")
    return problems


def _compare_columns(name, got, want) -> list[str]:
    tols = TOLERANCES[name]
    if sorted(got) != sorted(want.files):
        return [f"{name}: columns {sorted(got)} vs reference "
                f"{sorted(want.files)}"]
    problems = []
    for col in want.files:
        a, b = got[col], want[col]
        if a.shape != b.shape:
            problems.append(f"{name} {col}: shape {a.shape} vs {b.shape}")
            continue
        if b.dtype.kind == "U":
            if not np.array_equal(a, b):
                problems.append(f"{name} {col}: labels differ")
            continue
        if col in tols and tols[col] is None:
            continue
        tol = tols.get(col)
        diff = np.abs(a - b)
        limit = tol if tol is not None else GRID_RTOL * np.maximum(1, np.abs(b))
        if not np.all((diff <= limit) | (np.isnan(a) & np.isnan(b))):
            problems.append(f"{name} {col}: max |diff| {np.max(diff):.3g} "
                            f"exceeds {tol if tol is not None else 'grid'} "
                            "tolerance")
    return problems
