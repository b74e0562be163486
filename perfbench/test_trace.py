"""Tests of the benchmark's tracing.

    python3 -m pytest perfbench/test_trace.py

The package's own suite does not collect this file (its testpaths is
``tests``), so the benchmark adds nothing to the tier-1 wall time.
"""

import json
import os
import shutil
import time

import run
from tracer import Tracer
from workloads import make_config


def test_traced_and_untraced_stage_write_identical_artifacts():
    run._prepare()
    work = os.path.join(run.WORK, "test-trace")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(make_config("gauss3-spectral", 7), fh)
    deadline = time.monotonic() + 120
    outs, sides = {}, {}
    for trace in ("0", "1"):
        outs[trace] = os.path.join(work, f"out{trace}")
        code, _, setup, _, sides[trace] = run._launch(
            [trace, "0", "--", "marginal", "--config", cfg_path, "--out",
             outs[trace]],
            os.path.join(work, f"sidecar{trace}.json"),
            os.path.join(work, f"log{trace}"), deadline)
        assert code == 0
        assert setup is not None and setup > 0
    names = sorted(os.listdir(outs["0"]))
    assert names == ["marginal.csv", "marginal.json", "marginal_hat.csv"]
    assert sorted(os.listdir(outs["1"])) == names
    assert run.artifacts_identical(outs["0"], outs["1"], names) == []
    assert "trace" not in sides["0"]
    functions = sides["1"]["trace"]["functions"]
    assert functions["profiles.build_marginal"]["calls"] == 1
    assert functions["pipeline.run"]["calls"] == 1


def test_self_time_excludes_children_and_nested_calls_count_once():
    tr = Tracer()
    tr.counts = {"a": {}, "b": {}}
    # a [0, 10] contains b [1, 4] which contains a [2, 3]
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                ["a", 2.0, 3.0, 1]]
    f = tr.summary()["functions"]
    assert f["a"]["calls"] == 2
    assert f["a"]["total_s"] == 10.0
    assert f["a"]["self_s"] == 7.0 + 1.0
    assert f["b"]["total_s"] == 3.0
    assert f["b"]["self_s"] == 2.0
