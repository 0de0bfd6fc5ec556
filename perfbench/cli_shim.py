"""`python -m qmgw.cli` with the speed probe, and with PERFBENCH_TRACE=1
the per-layer tracer, installed.

    PERFBENCH_OUT=FILE python3 perfbench/cli_shim.py ARGS...

Runs the CLI on ARGS with unchanged stdout and exit code, then writes the
process's speed factor (``speed.Sampler.scale``) and its raw per-layer
totals to FILE as JSON.
"""

import json
import os
import sys
from time import perf_counter

from speed import Sampler

if __name__ == "__main__":
    sampler = Sampler().start()
    t0 = perf_counter()
    tracer = None
    try:
        import qmgw.cli

        if os.environ.get("PERFBENCH_TRACE") == "1":
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        code = qmgw.cli.main(sys.argv[1:])
    finally:
        sampler.stop()
        with open(os.environ["PERFBENCH_OUT"], "w") as fh:
            json.dump({
                "factor": sampler.scale(t0, perf_counter()),
                "layers": tracer.snapshot() if tracer else None,
            }, fh)
    sys.exit(code)
