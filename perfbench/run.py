"""Stage-level benchmark of the hartree-mix CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N]
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the package is taken from
``src/``.  Each workload (workloads.py) is a sequence of CLI stages, and
every stage runs in its own process exactly as ``hartree-mix <stage>``
does, one after another.  An operation is one stage run; it fails when the
stage exits non-zero or its output check (checks.py) fails.

``--trace 0`` runs whole passes over the stages while the next pass is
expected to end within ``--seconds`` (at least one pass) and reports the
end-to-end metrics as medians over passes.  ``--trace 1`` runs one
untraced and one traced pass, checks that both write byte-identical
artifacts, and reports the per-layer metrics.  The last line of standard
output is one JSON object.  ``--all`` runs every workload in trace mode
and prints both kinds of metric as a table.  ``--write-reference``
regenerates the pinned-seed reference artifacts in reference/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
from workloads import PINNED_SEED, WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
STAGE = os.path.join(HERE, "stage.py")
RUN_LIMIT_S = 170.0       # a run must end within 180 s
MIN_SETUP_SAMPLES = 3     # setup-only probes top the stage samples up

STAGES = ("marginal", "dispersion", "stability", "green", "free", "linear",
          "nonlinear")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (traced function, field): field is calls, self_s, total_s or a work count
FUNCTION_METRICS = (
    ("quadrature.filon_transform", ("calls", "self_s", "samples_x_freqs")),
    ("quadrature.filon_weights", ("calls", "self_s")),
    ("quadrature.adaptive_gauss", ("calls", "self_s", "evaluations")),
    ("quadrature.pv_integral", ("calls", "self_s", "evaluations")),
    ("quadrature.halfline_laplace_fourier",
     ("calls", "self_s", "evaluations")),
    ("profiles.build_marginal", ("calls", "self_s", "total_s")),
    ("profiles.validate_assumptions", ("total_s",)),
    ("dispersion.evaluate", ("calls", "total_s")),
    ("dispersion.dispersion_plemelj", ("calls", "self_s")),
    ("dispersion.dispersion_hilbert", ("calls", "self_s")),
    ("dispersion.dispersion_real_branch", ("calls",)),
    ("dispersion.dispersion_k_zero", ("calls", "self_s")),
    ("stability.certify", ("self_s", "total_s")),
    ("stability.criterion_integral", ("total_s",)),
    ("stability.winding_number", ("calls", "total_s", "nodes")),
    ("stability.find_imaginary_zero", ("calls", "total_s")),
    ("stability.phi_curve", ("total_s",)),
    ("green.green_table", ("rows", "self_s", "total_s")),
    ("green.m_f_boundary", ("calls", "self_s")),
    ("dynamics.free_density_trajectory", ("self_s", "total_s")),
    ("dynamics.volterra_solve", ("self_s", "total_s")),
    ("dynamics.volterra_kernel", ("calls", "total_s")),
    ("dynamics.volterra_march", ("calls", "self_s")),
    ("dynamics.reconstruct_sup_norm", ("total_s",)),
    ("nonlinear.solve_selfconsistent", ("self_s", "total_s")),
    ("nonlinear.picard_step", ("calls", "self_s")),
    ("nonlinear.density_trajectory_from_state", ("calls", "self_s")),
    ("nonlinear.scattering_diagnostic", ("total_s",)),
    ("pipeline.run", ("self_s",)),
    ("pipeline.fit_decay", ("calls", "total_s")),
)
FIELD_UNITS = {"self_s": "s", "total_s": "s"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for fn, fields in FUNCTION_METRICS:
        for f in fields:
            units[f"{fn}.{f}"] = FIELD_UNITS.get(f, "count")
        if fn == "dispersion.dispersion_k_zero":
            units["dispersion.hilbert_cache.lookups"] = "count"
            units["dispersion.hilbert_cache.hit_ratio"] = "ratio"
        if fn == "green.m_f_boundary":
            units["green.tau_max_used"] = "1"
        if fn == "nonlinear.scattering_diagnostic":
            units["nonlinear.iterations"] = "count"
    for s in STAGES:
        units[f"pipeline.stage.{s}.wall_s"] = "s"
        units[f"pipeline.stage.{s}.rss_mb"] = "MB"
    units["pipeline.artifact_bytes"] = "B"
    units["pipeline.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class HarnessError(Exception):
    """The benchmark cannot run here: there is no package source."""


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def _launch(args: list[str], sidecar: str, log: str, deadline: float):
    """Run one stage process to its end, killing it at ``deadline``.

    Returns the exit code, the wall time from launch to exit, the set-up
    time (None if ``pipeline.run`` was never reached), the process's
    rusage and the sidecar it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else SRC
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, STAGE, sidecar] + args,
                                env=env, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            watchdog.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    mark = None
    if os.path.isfile(sidecar):
        with open(sidecar) as fh:
            side = json.load(fh)
        mark = side.get("setup_mark")
    else:
        side = {}
    setup = mark - t0 if mark is not None else None
    return proc.returncode, t1 - t0, setup, usage, side


def run_pass(name: str, cfg: dict, pass_dir: str, trace: bool,
             deadline: float, reference: bool = True) -> list[StageRun]:
    """Run the workload's stages once, each in a fresh process."""
    os.makedirs(pass_dir)
    out = os.path.join(pass_dir, "out")
    cfg_path = os.path.join(pass_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    runs = []
    for stage in WORKLOADS[name].stages:
        sidecar = os.path.join(pass_dir, f"{stage}.sidecar.json")
        code, wall, setup, usage, side = _launch(
            ["1" if trace else "0", "0", "--", stage, "--config", cfg_path,
             "--out", out],
            sidecar, os.path.join(pass_dir, f"{stage}.log"), deadline)
        run = StageRun(stage=stage, code=code, wall_s=wall, setup_s=setup,
                       rss_mb=usage.ru_maxrss / 1024.0,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       trace=side.get("trace"))
        if code != 0:
            run.problems.append(f"exit code {code}")
        else:
            run.problems += checks.check_stage(name, stage, out, cfg)
            if reference and cfg["seed"] == PINNED_SEED:
                run.problems += checks.compare_reference(name, stage, out,
                                                         cfg)
        runs.append(run)
        print(f"  {name} {stage}{' (traced)' if trace else ''}: "
              f"{wall:.2f} s, exit {code}"
              + (f", {'; '.join(run.problems)}" if run.problems else ""),
              file=sys.stderr, flush=True)
    return runs


def setup_probe(name: str, cfg_path: str, probe_dir: str,
                deadline: float) -> float | None:
    """Set-up time of the workload's first stage, exiting before its work."""
    stage = WORKLOADS[name].stages[0]
    code, _, setup, _, _ = _launch(
        ["0", "1", "--", stage, "--config", cfg_path, "--out",
         os.path.join(probe_dir, "out")],
        os.path.join(probe_dir, "sidecar.json"),
        os.path.join(probe_dir, "log"), deadline)
    return setup if code == 0 else None


def artifacts_identical(a: str, b: str, names) -> list[str]:
    problems = []
    for n in names:
        pa, pb = os.path.join(a, n), os.path.join(b, n)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{n} differs between traced and untraced runs")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cfg = make_config(name, seed)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    passes = []
    while True:
        t_pass = time.monotonic()
        passes.append(run_pass(name, cfg, os.path.join(work, f"pass{len(passes)}"),
                               False, deadline))
        now = time.monotonic()
        # another pass only if it is expected to end within --seconds
        if trace or now - start + (now - t_pass) > min(seconds, RUN_LIMIT_S):
            break
    runs = [r for p in passes for r in p]

    setups = [r.setup_s for r in runs if r.setup_s is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe_dir = os.path.join(work, f"probe{len(setups)}")
        os.makedirs(probe_dir)
        s = setup_probe(name, os.path.join(work, "pass0", "config.json"),
                        probe_dir, deadline)
        if s is None:
            break
        setups.append(s)

    n_stages = len(WORKLOADS[name].stages)
    e2e = {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        # every stage pays the same set-up (imports and config parsing)
        "setup_s": n_stages * statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p)
                                         for p in passes),
    }
    result = {"e2e": e2e, "runs": runs, "layers": None}
    if trace:
        traced_dir = os.path.join(work, "traced")
        traced = run_pass(name, cfg, traced_dir, True, deadline)
        for r in traced:
            r.problems += artifacts_identical(
                os.path.join(work, "pass0", "out"),
                os.path.join(traced_dir, "out"),
                checks.expected_rows(r.stage, cfg))
        runs += traced
        result["layers"] = layer_metrics(passes[0], traced,
                                         os.path.join(work, "pass0", "out"))
    result["attempted"] = len(runs)
    result["failed"] = sum(1 for r in runs if r.problems)
    return result


def layer_metrics(plain: list[StageRun], traced: list[StageRun],
                  out_dir: str) -> dict[str, float]:
    """Per-layer metrics: function spans from the traced pass, stage wall,
    RSS and CPU from the untraced one."""
    funcs: dict[str, dict] = {}
    cache_hits = cache_misses = 0
    for r in traced:
        if r.trace is None:
            continue
        for fn, vals in r.trace["functions"].items():
            acc = funcs.setdefault(fn, {})
            for k, v in vals.items():
                acc[k] = max(acc.get(k, 0), v) if k == "tau_max_used" \
                    else acc.get(k, 0) + v
        cache_hits += r.trace["hilbert_cache"]["hits"]
        cache_misses += r.trace["hilbert_cache"]["misses"]
    metrics = {}
    for fn, fields in FUNCTION_METRICS:
        for f in fields:
            metrics[f"{fn}.{f}"] = funcs.get(fn, {}).get(f, 0)
    lookups = cache_hits + cache_misses
    metrics["dispersion.hilbert_cache.lookups"] = lookups
    metrics["dispersion.hilbert_cache.hit_ratio"] = \
        cache_hits / lookups if lookups else 0.0
    metrics["green.tau_max_used"] = \
        funcs.get("green.green_table", {}).get("tau_max_used", 0.0)
    metrics["nonlinear.iterations"] = \
        funcs.get("nonlinear.solve_selfconsistent", {}).get("iterations", 0)
    by_stage = {r.stage: r for r in plain}
    for s in STAGES:
        r = by_stage.get(s)
        metrics[f"pipeline.stage.{s}.wall_s"] = r.wall_s if r else 0.0
        metrics[f"pipeline.stage.{s}.rss_mb"] = r.rss_mb if r else 0.0
    metrics["pipeline.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))
    metrics["pipeline.cpu_s"] = sum(r.cpu_s for r in plain)
    metrics["trace.overhead_s"] = \
        sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
    return metrics


def _prepare() -> None:
    if not os.path.isfile(os.path.join(SRC, "hartree_mix", "cli.py")):
        raise HarnessError(f"no package source at {SRC}/hartree_mix; run "
                           "from the root of a hartree-mix checkout")
    # compile once so that no stage pays bytecode compilation in its set-up
    compileall.compile_dir(os.path.join(SRC, "hartree_mix"), quiet=1)
    os.makedirs(WORK, exist_ok=True)


def result_line(res: dict, trace: bool) -> dict:
    if trace:
        units = layer_units()
        metrics = {k: {"value": res["layers"][k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": res["e2e"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def report_all(seed: int) -> int:
    rows = [(name, run_workload(name, seed, 0, trace=True))
            for name in WORKLOADS]
    layers = {name: res["layers"] for name, res in rows}
    print(f"{'workload':18} {'wall_s (s)':>11} {'setup_s (s)':>12} "
          f"{'peak_rss_mb (MB)':>17} {'attempted':>9} {'failed':>6} "
          f"{'trace overhead (s)':>19}")
    for name, res in rows:
        e = res["e2e"]
        print(f"{name:18} {e['wall_s']:11.3f} {e['setup_s']:12.3f} "
              f"{e['peak_rss_mb']:17.1f} {res['attempted']:9d} "
              f"{res['failed']:6d} {res['layers']['trace.overhead_s']:19.3f}")
        for r in res["runs"]:
            for p in r.problems:
                print(f"  FAILED {r.stage}: {p}")
    print()
    names = list(WORKLOADS)
    print(f"{'per-layer metric':48} {'unit':>5} "
          + " ".join(f"{n:>17}" for n in names))
    for metric, unit in layer_units().items():
        vals = " ".join(f"{layers[n][metric]:17.6g}" for n in names)
        print(f"{metric:48} {unit:>5} {vals}")
    return 0 if all(res["failed"] == 0 for _, res in rows) else 1


def write_reference() -> int:
    for name, w in WORKLOADS.items():
        cfg = make_config(name, PINNED_SEED)
        work = os.path.join(WORK, name, "reference")
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(checks.REFERENCE_DIR, name),
                      ignore_errors=True)
        runs = run_pass(name, cfg, work, False, time.monotonic() + 600,
                        reference=False)
        if any(r.problems for r in runs):
            print(f"{name}: a stage failed; no reference written",
                  file=sys.stderr)
            return 1
        for stage in w.stages:
            checks.write_reference(name, stage, os.path.join(work, "out"), cfg)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="run every workload traced and untraced; print "
                           "a table")
    mode.add_argument("--write-reference", action="store_true",
                      help="regenerate the pinned-seed reference artifacts")
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _prepare()
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.all:
        return report_all(args.seed)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
