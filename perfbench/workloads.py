"""The three pinned benchmark workloads.

Each workload is one JSON config for the hartree-mix CLI and the stages run
on it, one process per stage.  The seed sets the config's ``seed`` and
draws the jittered fields uniformly from the stated ranges; seed 0 (the
pinned seed) uses the base values unchanged.  The ranges keep every
stage's verdict and the size of its work fixed (see README.md).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

PINNED_SEED = 0

_SPECTRAL_GRIDS = {
    "k_grid": {"count": 3, "min": 0.2, "max": 2.0},
    "t_grid": {"dt": 0.1, "t_max": 50.0},
    "tau_grid": {"max": 40.0, "count": 201},
}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    config: dict
    jitter: dict          # (group, field) -> (low, high)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gauss3-spectral",
        stages=("marginal", "dispersion", "stability", "green"),
        config={"d": 3, "equilibrium": {"kind": "gaussian"},
                "potential": {"kind": "screened_coulomb", "amplitude": 0.1,
                              "screening": 1.0},
                **_SPECTRAL_GRIDS},
        jitter={("potential", "amplitude"): (0.099, 0.101)},
        why="frequency-domain path: Penrose certificate (pointwise Plemelj "
            "D on adaptive Gauss/PV panels) and many-frequency Filon rows of "
            "the Green table"),
    Workload(
        name="fermi5-compact",
        stages=("marginal", "stability"),
        config={"d": 5, "equilibrium": {"kind": "fermi_zero_t"},
                "potential": {"kind": "delta", "coupling": 0.2},
                "N1": 12, "N2": 6, **_SPECTRAL_GRIDS},
        jitter={("potential", "coupling"): (0.19, 0.21)},
        why="compact-support marginal: build_marginal (Filon at 8193 "
            "samples x ~32k frequencies) dominates; certify takes the "
            "Unstable zero hunt and bypasses the boundary scan"),
    Workload(
        name="gauss1-evolution",
        stages=("free", "linear", "nonlinear"),
        config={"d": 1, "equilibrium": {"kind": "gaussian"},
                "potential": {"kind": "screened_coulomb", "amplitude": 0.5,
                              "screening": 1.0},
                "initial": {"alpha": 0.125},
                "k_grid": {"count": 40, "min": 0.05, "max": 2.0},
                "t_grid": {"dt": 0.1, "t_max": 50.0},
                "nonlinear": {"box": 4.0, "points": 65, "t_max": 30.0}},
        jitter={("initial", "alpha"): (0.124, 0.126)},
        why="time-domain path: small-shape Filon free rows, the phi_hat "
            "fallback under volterra_kernel, and Picard steps; the spectral "
            "layers do no work"),
)}


def make_config(name: str, seed: int) -> dict:
    """The workload's config for this seed; same seed, same config."""
    w = WORKLOADS[name]
    cfg = copy.deepcopy(w.config)
    cfg["seed"] = int(seed)
    if seed != PINNED_SEED:
        rng = random.Random(f"{name}:{seed}")
        for (group, field), (lo, hi) in sorted(w.jitter.items()):
            cfg[group][field] = rng.uniform(lo, hi)
    return cfg
