"""The qmgw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (``src/qmgw`` must exist; nothing
is installed).  A run repeats whole rounds of the workload for S seconds,
each round in a fresh interpreter (``worker.py``), one request at a time,
and checks every answer (``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md for the workloads and metrics.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 170
# A run starts no round after this, so it ends well within 180 s.
LAST_ROUND_START_S = 100

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qmgw, qmgw.cli\n"
    "dt = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(dt, *sorted(speed.probe() for _ in range(7)))\n"
)


def setup_seconds():
    """Median time a fresh interpreter takes to import qmgw and qmgw.cli,
    in reference seconds (probes right after each import give the speed).

    One unmeasured import first writes the bytecode caches.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        samples.append(float(out[0]) * speed.REFERENCE_PROBE_S / float(out[4]))
    return statistics.median(samples[1:])


def run_round(plan_file, workdir, trace, perturb=False):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_file), str(workdir),
         "1" if trace else "0", "1" if perturb else "0"],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(plan, refs, seconds, workdir, trace):
    """Whole rounds while the next one fits in `seconds`; at least one
    (one untraced and one traced with `trace`).  Returns the checked
    rounds as (traced, result, problems per op)."""
    plan_file = Path(workdir) / "plan.json"
    plan_file.write_text(json.dumps(plan))
    modes = [False, True] if trace else [False]
    rounds = []
    start = perf_counter()
    longest = 0.0
    while True:
        for traced in modes:
            t0 = perf_counter()
            result = run_round(plan_file, workdir, traced)
            longest = max(longest, perf_counter() - t0)
            rounds.append((traced, result, checks.check(plan, refs, result["ops"])))
        elapsed = perf_counter() - start
        if elapsed + longest * len(modes) > seconds or elapsed > LAST_ROUND_START_S:
            return rounds


def end_to_end(rounds, setup_s):
    results = [r for _, r, _ in rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
        "op_p50_s": {
            "value": statistics.median(op["s"] for r in results for op in r["ops"]),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in results),
            "unit": "MB",
        },
    }


def per_layer(rounds):
    plain = [r["wall_s"] for traced, r, _ in rounds if not traced]
    traced = [r for t, r, _ in rounds if t]
    values = [layers.metrics_from(r["layers"]) for r in traced]
    out = {
        name: {"value": statistics.median(v[name] for v in values), "unit": unit}
        for name, unit in layers.metric_names().items()
        if name != "trace.overhead_s"
    }
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(plain)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def summarize(rounds):
    """(attempted, failed, wrong): an operation fails when it raises or its
    answer is wrong; `wrong` counts the answers found wrong."""
    attempted = failed = wrong = 0
    for _, result, problems in rounds:
        for i, (op, p) in enumerate(zip(result["ops"], problems)):
            attempted += 1
            if p:
                failed += 1
                wrong += "answer" in op
                sys.stderr.write(f"operation {i} failed: {'; '.join(map(str, p))}\n")
    return attempted, failed, wrong


def make_workdir():
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def self_test():
    """Tiny rounds of every workload: clean ones pass, perturbed ones
    count a failed operation.  Exit 0 when both hold everywhere."""
    ok = True
    workdir = make_workdir()
    try:
        for name in workloads.WORKLOADS:
            plan = workloads.plan(name, seed=1, tiny=True)
            refs = checks.expected(plan)
            plan_file = Path(workdir) / "plan.json"
            plan_file.write_text(json.dumps(plan))
            for perturb in (False, True):
                result = run_round(plan_file, workdir, trace=False, perturb=perturb)
                problems = checks.check(plan, refs, result["ops"])
                failed = sum(1 for p in problems if p)
                good = (failed > 0) if perturb else (failed == 0)
                ok = ok and good
                print(
                    f"{name:16s} perturbed={int(perturb)} attempted={len(problems)} "
                    f"failed={failed} {'ok' if good else 'WRONG'}"
                )
                if perturb and failed:
                    print(f"  caught: {next(p for p in problems if p)[0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qmgw" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qmgw sources under {SRC}\n")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    plan = workloads.plan(args.workload, args.seed)
    refs = checks.expected(plan)
    workdir = make_workdir()
    try:
        setup_s = None if args.trace else setup_seconds()
        rounds = run_rounds(plan, refs, args.seconds, workdir, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, wrong = summarize(rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setup_s)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
