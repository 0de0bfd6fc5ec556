"""Per-layer tracing of ``qmgw`` from outside the package.

Each target below is a public function or method of one ``qmgw`` module.
``install`` replaces it by a timing wrapper everywhere it is bound: in
every ``qmgw`` module namespace and module-level dict that holds it
(``from .x import f`` copies the name, and ``verify.SUITES`` and
``records.SERIALIZERS`` hold functions too) and in every class slot
(``__rmul__ = __mul__``).  ``qmgw.npoint`` is the re-exported function, so
modules are always looked up in ``sys.modules``.

Per wrapped function the tracer keeps the call count, the inclusive time
(``.s``) and the self time (``.self_s``: inclusive time minus the time
spent in nested traced calls).  ``.pairs`` is computed from operand sizes,
not counted inside the kernels: ``len(a) * len(b)`` for the dict kernels
and the number of ``(i, j)`` with ``i + j <= n`` for ``conv_trunc``.
``.hits`` / ``.misses`` come from ``cache_info()`` of ``lru_cache``d
functions, summed over every ``cache_clear``.
"""

import os
import sys
from time import perf_counter


def _conv_pairs(a, b, n, *_):
    if not len(b):
        return 0
    return sum(min(len(b) - 1, n - i) + 1 for i in range(min(len(a) - 1, n) + 1))


def _dict_pairs(a, b, *_):
    return len(a) * len(b)


# Counters fed by a call: (field, function of the arguments or the result,
# "args" or "result").
CONV_PAIRS = ("pairs", _conv_pairs, "args")
DICT_PAIRS = ("pairs", _dict_pairs, "args")
LOAD_HITS = ("hits", lambda payload: payload is not None, "result")
STORE_BYTES = ("bytes", os.path.getsize, "result")
TEXT_BYTES = ("bytes", lambda text: len(text.encode()), "result")

# (metric prefix, module, attribute path, reported fields, counter)
# A target the program no longer has reports zeros.
TARGETS = [
    ("kernels.conv_trunc", "qmgw._backend", "conv_trunc", ("calls", "pairs", "self_s"), CONV_PAIRS),
    ("kernels.exp_mul_dict", "qmgw._backend", "exp_mul_dict", ("calls", "pairs", "self_s"), DICT_PAIRS),
    ("kernels.exp_mul_dict_capped", "qmgw._backend", "exp_mul_dict_capped", ("calls", "pairs", "self_s"), DICT_PAIRS),
    ("rational.rat", "qmgw.rational", "rat", ("calls", "self_s"), None),
    ("series.PowerSeries.mul", "qmgw.series", "PowerSeries.__mul__", ("calls", "self_s"), None),
    ("series.PowerSeries.reciprocal", "qmgw.series", "PowerSeries.reciprocal", ("self_s",), None),
    ("series.PowerSeries.compose", "qmgw.series", "PowerSeries.compose", ("self_s",), None),
    ("modular.QMPolynomial.mul", "qmgw.modular", "QMPolynomial.__mul__", ("calls", "self_s"), None),
    ("modular.qm_eval", "qmgw.modular", "qm_eval", ("self_s",), None),
    ("modular.quasimodularize", "qmgw.modular", "quasimodularize", ("self_s",), None),
    ("modular.eisenstein", "qmgw.modular", "eisenstein", ("misses",), None),
    ("chazy.chazy_solve_s", "qmgw.chazy", "chazy_solve_s", ("self_s",), None),
    ("chazy.chazy_residual", "qmgw.chazy", "chazy_residual", ("self_s",), None),
    ("theta.prime_form", "qmgw.theta", "prime_form", ("self_s", "misses"), None),
    ("theta.one_over_theta", "qmgw.theta", "one_over_theta", ("self_s", "misses"), None),
    ("theta.b_table", "qmgw.theta", "b_table", ("self_s",), None),
    ("theta.ZLaurent.reciprocal", "qmgw.theta", "ZLaurent.reciprocal", ("self_s",), None),
    ("npoint.npoint", "qmgw.npoint", "npoint", ("self_s", "hits", "misses"), None),
    ("npoint.connected_stationary", "qmgw.npoint", "connected_stationary", ("self_s",), None),
    ("npoint.stationary_invariant", "qmgw.npoint", "stationary_invariant", ("calls",), None),
    ("cayley.cayley_frame", "qmgw.cayley", "cayley_frame", ("self_s",), None),
    ("cayley.cayley_transform", "qmgw.cayley", "cayley_transform", ("self_s",), None),
    ("cayley.fjrw_onepoint_all_genus", "qmgw.cayley", "fjrw_onepoint_all_genus", ("self_s",), None),
    ("anomaly.hae_onepoint_check", "qmgw.anomaly", "hae_onepoint_check", ("self_s",), None),
    ("anomaly.prime_form_anomaly_check", "qmgw.anomaly", "prime_form_anomaly_check", ("self_s",), None),
    ("virasoro.virasoro_commutator_check", "qmgw.virasoro", "virasoro_commutator_check", ("self_s",), None),
    ("virasoro.DiffOperator.apply", "qmgw.virasoro", "DiffOperator.apply", ("calls", "self_s"), None),
    ("virasoro.QuantizedS.apply", "qmgw.virasoro", "QuantizedS.apply", ("self_s",), None),
    ("mirror.appendix_identity_checks", "qmgw.mirror", "appendix_identity_checks", ("self_s",), None),
    ("mirror.i_function_identity_checks", "qmgw.mirror", "i_function_identity_checks", ("self_s",), None),
    ("mirror.mirror_map_check", "qmgw.mirror", "mirror_map_check", ("self_s",), None),
] + [
    (f"verify.{suite}", "qmgw.verify", f"SUITES[{suite}]", ("s",), None)
    for suite in (
        "ramanujan", "chazy", "bp", "prime-form", "weights", "hae",
        "virasoro", "mirror", "fjrw",
    )
] + [
    ("cache.load", "qmgw.cache", "load", ("calls", "hits", "self_s"), LOAD_HITS),
    ("cache.store", "qmgw.cache", "store", ("calls", "bytes", "self_s"), STORE_BYTES),
] + [
    ("records.serialize", "qmgw.records", f"SERIALIZERS[{fmt}]", ("self_s", "bytes"), TEXT_BYTES)
    for fmt in ("json", "csv", "text")
] + [
    ("cli.main", "qmgw.cli", "main", ("s",), None),
]

UNITS = {
    "calls": "count",
    "pairs": "count",
    "hits": "count",
    "misses": "count",
    "bytes": "bytes",
    "self_s": "s",
    "s": "s",
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    seen = {}
    for prefix, _, _, fields, _ in TARGETS:
        for f in fields:
            seen.setdefault(f"{prefix}.{f}", UNITS[f])
    seen["trace.overhead_s"] = "s"
    return seen


def lru_caches():
    """Every distinct lru_cache object bound in a loaded qmgw module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "qmgw" and not name.startswith("qmgw."):
            continue
        for value in vars(mod).values():
            target = getattr(value, "__wrapped_lru__", value)
            if callable(getattr(target, "cache_clear", None)) and hasattr(
                target, "cache_info"
            ):
                found[id(target)] = target
    return list(found.values())


def _resolve(module, path):
    """(owner, key, original) or None; owner is a module, class or dict."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    last = parts[-1]
    if last.endswith("]"):
        dict_name, key = last[:-1].split("[")
        table = getattr(owner, dict_name, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key]
    if isinstance(owner, type):
        value = owner.__dict__.get(last)
    else:
        value = getattr(owner, last, None)
    if value is None:
        return None
    return owner, last, value


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` wherever qmgw binds it."""
    for name, mod in list(sys.modules.items()):
        if name != "qmgw" and not name.startswith("qmgw."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
            elif isinstance(value, type) and value.__module__ == name:
                for k, v in list(value.__dict__.items()):
                    if v is original:
                        setattr(value, k, wrapper)


class Tracer:
    """Wraps the TARGETS and accumulates their statistics."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._lru = {}
        self._lru_totals = {}

    def install(self):
        for prefix, module, path, _, counter in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, key, original = found
            wrapper = self._wrap(prefix, original, counter)
            if hasattr(original, "cache_info"):
                self._lru[prefix] = original
            if isinstance(owner, dict):
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
            _rebind(original, wrapper)

    def _wrap(self, prefix, fn, counter):
        rec = self.stats.setdefault(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self._stack
        field, count, on = counter or (None, None, None)
        if field:
            rec[field] = 0

        def wrapper(*args, **kwargs):
            if on == "args":
                rec[field] += count(*args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec["calls"] += 1
                rec["s"] += dt
                rec["self_s"] += dt - child
                if stack:
                    stack[-1] += dt
            if on == "result":
                rec[field] += count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        if hasattr(fn, "cache_info"):
            wrapper.__wrapped_lru__ = fn
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def harvest_caches(self):
        """Fold cache_info() into the totals; call before every cache_clear."""
        for prefix, fn in self._lru.items():
            info = fn.cache_info()
            hits, misses = self._lru_totals.get(prefix, (0, 0))
            self._lru_totals[prefix] = (hits + info.hits, misses + info.misses)

    def snapshot(self):
        """This process's raw totals as a JSON-able dict."""
        self.harvest_caches()
        out = {}
        for prefix, rec in self.stats.items():
            out[prefix] = dict(rec)
            if prefix in self._lru_totals:
                out[prefix]["hits"], out[prefix]["misses"] = self._lru_totals[prefix]
        self._lru_totals = {}
        return out


def scaled(raw, k):
    """The raw totals with their times multiplied by k."""
    return {
        prefix: {f: v * k if f in ("s", "self_s") else v for f, v in rec.items()}
        for prefix, rec in raw.items()
    }


def merge(total, part):
    for prefix, rec in part.items():
        acc = total.setdefault(prefix, {})
        for k, v in rec.items():
            acc[k] = acc.get(k, 0) + v
    return total


def metrics_from(raw):
    """Map raw totals onto the named per-layer metrics (missing -> 0)."""
    out = {}
    for prefix, _, _, fields, _ in TARGETS:
        for f in fields:
            out[f"{prefix}.{f}"] = raw.get(prefix, {}).get(f, 0)
    return out
