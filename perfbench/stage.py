"""Run one hartree-mix CLI stage in this process, as the console script does.

    python3 stage.py SIDECAR.json TRACE(0|1) PROBE(0|1) -- <hartree-mix args>

Before the CLI runs, ``hartree_mix.pipeline.run`` is wrapped (at every
module attribute bound to it) so that its first call stamps
``time.monotonic()``: the benchmark subtracts its own launch stamp from it
to get the stage's setup time.  With TRACE=1 the package is traced (see
tracer.py) and the summary goes into the sidecar; with PROBE=1 the process
exits at that first call, so only set-up is paid.  The sidecar is JSON.
"""

import json
import os
import sys
import time


def main() -> int:
    sidecar, trace, probe = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    cli_args = sys.argv[5:]
    import hartree_mix.cli
    import hartree_mix.pipeline as pipeline

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    inner = pipeline.run

    def run(cfg, subcommand):
        marks.setdefault("setup_mark", time.monotonic())
        if probe:
            _write(sidecar, marks)
            os._exit(0)
        return inner(cfg, subcommand)

    for mod in (pipeline, hartree_mix.cli):
        if mod.run is inner:
            mod.run = run
    code = hartree_mix.cli.main(cli_args)
    if tracer is not None:
        marks["trace"] = tracer.summary()
        tracer.write_spans(sidecar[:-len(".json")] + ".spans.json")
    _write(sidecar, marks)
    return code


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
