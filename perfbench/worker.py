"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json WORKDIR TRACE PERTURB

Runs the program on the plan's inputs, one request at a time, and prints
one JSON line: per operation its latency and its answer serialized for
the checks in ``checks.py``, the round's wall time, its peak resident
memory and, with TRACE=1, the raw per-layer totals.  With PERTURB=1 one
coefficient of the first answer (one byte of one cached table for
``tables-cache``) is changed, which the checks must catch.
"""

import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from layers import Tracer, lru_caches, merge, scaled
from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _frac(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _encode(value):
    """Program objects -> JSON: QMPolynomial terms, series coefficients."""
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if hasattr(value, "terms"):
        return sorted([a, b, c, _frac(v)] for (a, b, c), v in value.terms.items())
    if hasattr(value, "coeffs"):
        return [_frac(c) for c in value.coeffs]
    return value


def _op(body):
    """Time one operation; body() returns (answer, request seconds or None).

    An exception fails the operation and the round goes on.  The answer
    is serialized after the clock stops.  Times are raw here; ``_rescale``
    turns them into reference seconds.
    """
    t0 = perf_counter()
    try:
        answer, s = body()
    except Exception as exc:  # counted as a failed operation
        dt = perf_counter() - t0
        return {"t0": t0, "s": dt, "span": dt, "error": f"{type(exc).__name__}: {exc}"}
    span = perf_counter() - t0
    return {"t0": t0, "s": span if s is None else s, "span": span, "answer": _encode(answer)}


def _rescale(op, k):
    op["raw_span"] = op["span"]
    op["s"] *= k
    op["span"] *= k


def _perturb(ops, key):
    first = ops[0].get("answer")
    if first:
        first[key][0] = _frac(Fraction(first[key][0]) + 1)


def stationary_cold(plan, tracer, perturb):
    from qmgw import connected_stationary, qm_eval, stationary_invariant

    caches = lru_caches()

    def request(req):
        fn = connected_stationary if req["connected"] else stationary_invariant
        t0 = perf_counter()
        value = fn(tuple(req["legs"]), z_order=req["z_order"])
        s = perf_counter() - t0
        return {"qm": value, "q": qm_eval(value, req["q_order"])}, s

    ops = []
    for req in plan["requests"]:
        # empty program caches, as one `qmgw gw npoint` process starts
        if tracer:
            tracer.harvest_caches()
        for cache in caches:
            cache.cache_clear()
        ops.append(_op(lambda: request(req)))
    if perturb:
        _perturb(ops, "q")
    return ops


def tower_session(plan, tracer, perturb):
    from qmgw import cayley_frame, cayley_transform, fjrw_onepoint_all_genus
    from qmgw import qm_eval, quasimodularize
    from qmgw.cayley import fjrw_primary_genus1_invariants
    from qmgw.theta import onepoint_from_b, onepoint_qm

    session = {}

    def genus(g, q_order):
        answer = {}
        if g == 1:
            # the frame and the genus-one primaries belong to genus 1
            session["frame"] = frame = cayley_frame(plan["s_order"])
            answer["frame"] = {"e4": frame.e4, "e6": frame.e6}
            answer["primaries"] = [
                [n, _frac(v)]
                for n, v in fjrw_primary_genus1_invariants(plan["max_n"])
            ]
        frame = session["frame"]
        c = onepoint_qm(g)
        series = qm_eval(c, q_order)
        answer.update(
            qm=c,
            q=series,
            back=quasimodularize(series, 2 * g, margin=plan["margin"]),
            from_b=onepoint_from_b(g),
            fjrw=fjrw_onepoint_all_genus(g, frame),
            transport=cayley_transform(c, frame),
        )
        return answer, None

    ops = [
        _op(lambda: genus(g, q_order))
        for g, q_order in enumerate(plan["q_orders"], start=1)
    ]
    if perturb:
        _perturb(ops, "q")
    return ops


def verify_all(plan, tracer, perturb):
    from qmgw import cli

    def suite(name):
        out = io.StringIO()
        code = cli.main(["verify", name, *plan["orders"]], out=out)
        return {"code": code, "out": out.getvalue()}, None

    ops = [_op(lambda: suite(name)) for name in plan["suites"]]
    if perturb and "answer" in ops[0]:
        first = ops[0]["answer"]
        first["out"] = first["out"].replace("PASS", "FAIL", 1)
    return ops


def _corrupt_one_byte(cache_dir):
    """Change the last nonzero digit of the b-table payload in the disk
    cache; the envelope stays valid, so the program serves the change."""
    path = next(Path(cache_dir).glob("weierstrass-b-*.json"))
    body = path.read_text()
    payload = body.index('"payload":')
    end = body.index("]]", payload)
    i = max(i for i in range(payload, end) if body[i] in "123456789")
    path.write_text(body[:i] + ("2" if body[i] == "1" else "1") + body[i + 1 :])


def tables_cache(plan, trace, perturb, workdir):
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    report = os.path.join(workdir, "cli.json")
    env["PERFBENCH_OUT"] = report
    if trace:
        env["PERFBENCH_TRACE"] = "1"
    launcher = [sys.executable, str(HERE / "cli_shim.py")]
    ops = []
    raw = {}
    for pass_no in range(1 + plan["warm_passes"]):
        for cmd in plan["commands"]:

            def process():
                proc = subprocess.run(
                    launcher + ["--cache-dir", cache_dir] + cmd,
                    env=env, capture_output=True, text=True, timeout=170,
                )
                sys.stderr.write(proc.stderr)
                return {"pass": pass_no, "code": proc.returncode, "out": proc.stdout}, None

            op = _op(process)
            ops.append(op)
            with open(report) as fh:
                child = json.load(fh)
            os.unlink(report)
            k = child["factor"]
            _rescale(op, k)
            merge(raw, scaled(child["layers"] or {}, k))
        if perturb and pass_no == 0:
            _corrupt_one_byte(cache_dir)
    return ops, raw


def main():
    plan_file, workdir, trace, perturb = sys.argv[1:5]
    trace, perturb = trace == "1", perturb == "1"
    sys.path.insert(0, str(SRC))
    import qmgw

    if Path(qmgw.__file__).resolve().parent != SRC / "qmgw":
        raise SystemExit(f"imported qmgw from {qmgw.__file__}, not {SRC}")
    import qmgw.cli  # noqa: F401  (loads every module the tracer wraps)

    plan = json.loads(Path(plan_file).read_text())
    name = plan["workload"]
    raw = None
    if name == "tables-cache":
        ops, raw = tables_cache(plan, trace, perturb, workdir)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        run = {
            "stationary-cold": stationary_cold,
            "tower-session": tower_session,
            "verify-all": verify_all,
        }[name]
        sampler = Sampler().start()
        ops = run(plan, tracer, perturb)
        sampler.stop()
        for op in ops:
            _rescale(op, sampler.scale(op["t0"], op["t0"] + op["span"]))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            k = sum(op["span"] for op in ops) / sum(op["raw_span"] for op in ops)
            raw = scaled(tracer.snapshot(), k)
    result = {
        "ops": ops,
        "wall_s": sum(op["span"] for op in ops),
        "peak_rss_mb": rss_kb / 1024,
        "layers": raw,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
