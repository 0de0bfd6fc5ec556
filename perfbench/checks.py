"""Correctness checks on the answers a worker returns.

Every answer is compared with values computed here without ``qmgw``
(``reference.py``) or with an exact property of the answer; nothing is
compared with a stored copy of earlier output.  ``check`` returns one
list of problems per operation (empty when the answer is correct).
"""

import json
from fractions import Fraction

import reference as ref


def expected(plan):
    """Reference values for a plan, computed once per run."""
    name = plan["workload"]
    if name == "stationary-cold":
        return [
            (ref.connected_bracket if r["connected"] else ref.bracket)(
                tuple(r["legs"]), r["q_order"]
            )
            for r in plan["requests"]
        ]
    if name == "tower-session":
        return [
            ref.bracket((2 * g - 2,), order)
            for g, order in enumerate(plan["q_orders"], start=1)
        ]
    if name == "tables-cache":
        cmd = plan["commands"][2]
        return ref.eisenstein_coefficients(int(cmd[3]), int(cmd[5]))
    return None


def _fracs(strings):
    return [Fraction(s) for s in strings]


def _terms(answer):
    return {(a, b, c): Fraction(v) for a, b, c, v in answer}


def _weight_problems(terms, weight):
    bad = [k for k in terms if 2 * k[0] + 4 * k[1] + 6 * k[2] != weight]
    return [f"monomials {bad[:3]} are not of weight {weight}"] if bad else []


def _series_problems(label, got, want):
    got = _fracs(got)
    if len(got) != len(want):
        return [f"{label}: {len(got)} coefficients, expected {len(want)}"]
    bad = [n for n, (x, y) in enumerate(zip(got, want)) if x != y]
    return [f"{label}: q^{bad[0]} is {got[bad[0]]}, expected {want[bad[0]]}"] if bad else []


def _guarded(op, check):
    """Problems of one operation: its error, or what `check` finds in its
    answer (an answer the check cannot read is a problem too)."""
    if "answer" not in op:
        return [op["error"]]
    try:
        return check(op["answer"])
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"unreadable answer: {exc!r}"]


def _stationary(plan, refs, ops):
    def one(req, want):
        weight = sum(l + 2 for l in req["legs"])
        return lambda a: _weight_problems(_terms(a["qm"]), weight) + _series_problems(
            f"legs {req['legs']}", a["q"], want
        )

    return [
        _guarded(op, one(req, want))
        for req, want, op in zip(plan["requests"], refs, ops)
    ]


def _d_dc2(terms):
    """d/dC2 with C2 = -E2/24, i.e. -24 d/dE2."""
    out = {}
    for (a, b, c), v in terms.items():
        if a:
            out[(a - 1, b, c)] = out.get((a - 1, b, c), 0) - 24 * a * v
    return {k: v for k, v in out.items() if v}


def _genus_one_extras(a):
    problems = []
    for gen, coefficients in ref.CAYLEY_FRAME_COEFFICIENTS.items():
        coeffs = _fracs(a["frame"][gen])
        for n, want in coefficients.items():
            if n >= len(coeffs) or coeffs[n] != want:
                problems.append(f"C{gen.upper()} s^{n} differs from {want}")
    primaries = {n: Fraction(v) for n, v in a["primaries"]}
    for n, v in ref.FJRW_GENUS_ONE_PRIMARIES.items():
        if primaries.get(n) != v:
            problems.append(f"Theta_(1,{n}) is {primaries.get(n)}, expected {v}")
    return problems


def _tower(plan, refs, ops):
    out = []
    previous = {(0, 0, 0): Fraction(1)}  # genus 0, psi-power -2
    for g, (want, op) in enumerate(zip(refs, ops), start=1):

        def one(a):
            c = _terms(a["qm"])
            problems = _weight_problems(c, 2 * g) + _series_problems(
                f"genus {g}", a["q"], want
            )
            if previous is not None and _d_dc2(c) != previous:
                problems.append(f"d/dC2 of genus {g} is not genus {g - 1}")
            if _terms(a["back"]) != c:
                problems.append("quasimodularize(qm_eval(c)) != c")
            if _terms(a["from_b"]) != c:
                problems.append("onepoint_from_b != onepoint_qm")
            if _fracs(a["fjrw"]) != _fracs(a["transport"]):
                problems.append("Cayley transport differs from the b-table route")
            if g == 1:
                problems += _genus_one_extras(a)
            return problems

        out.append(_guarded(op, one))
        previous = _terms(op["answer"]["qm"]) if not out[-1] else None
    return out


def _verify(plan, refs, ops):
    def one(a):
        lines = a["out"].splitlines()
        rows = lines[1:-1]
        problems = [] if a["code"] == 0 else [f"exit code {a['code']}"]
        if not rows or lines[-1] != "verify: PASS":
            problems.append("missing rows or final 'verify: PASS'")
        return problems + [
            f"row {r.strip()!r}" for r in rows if not r.startswith("  PASS  ")
        ]

    return [_guarded(op, one) for op in ops]


def _parse_table(text):
    table = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        m, n = key[key.index("[") + 1 : -1].split(",")
        table[(int(m), int(n))] = Fraction(value)
    return table


def _table_problems(cmd, text, ab, eisenstein):
    kind = cmd[1] if cmd[0] == "tables" else "fjrw"
    if kind in ("a", "b"):
        bound = int(cmd[3])
        keys = {
            (m, n)
            for m in range(bound // 4 + 1)
            for n in range(bound // 6 + 1)
            if 4 * m + 6 * n <= bound
        }
        if set(_parse_table(text)) != keys:
            return [f"table {kind} keys differ from 4m+6n <= {bound}"]
        return [f"a*b != 1 at {ab[:3]}"] if ab else []
    if kind == "eisenstein":
        coeffs = json.loads(text)["payload"]["coefficients"]
        return _series_problems(f"E{cmd[3]}", coeffs, eisenstein)
    records = [json.loads(line) for line in text.splitlines()]
    problems = []
    if len(records) != int(cmd[3]):
        problems.append(f"{len(records)} records, expected {cmd[3]}")
    for n, v in ref.FJRW_GENUS_ONE_PRIMARIES.items():
        if n <= len(records) and Fraction(records[n - 1]["payload"]) != v:
            problems.append(f"Theta_(1,{n}) is {records[n - 1]['payload']}")
    return problems


def _tables(plan, refs, ops):
    cmds = plan["commands"]
    cold = [op.get("answer", {}).get("out") for op in ops[: len(cmds)]]
    out = []
    for start in range(0, len(ops), len(cmds)):
        group = ops[start : start + len(cmds)]
        try:
            ab = ref.weierstrass_product_defects(
                _parse_table(group[0]["answer"]["out"]),
                _parse_table(group[1]["answer"]["out"]),
                min(int(cmds[0][3]), int(cmds[1][3])),
            )
        except (KeyError, ValueError) as exc:
            ab = [repr(exc)]
        for j, (cmd, op) in enumerate(zip(cmds, group)):

            def one(a):
                problems = [] if a["code"] == 0 else [f"exit code {a['code']}"]
                if a["pass"] > 0 and a["out"] != cold[j]:
                    problems.append("warm read differs from the cold write")
                return problems + _table_problems(cmd, a["out"], ab, refs)

            out.append(_guarded(op, one))
    return out


CHECKS = {
    "stationary-cold": _stationary,
    "tower-session": _tower,
    "verify-all": _verify,
    "tables-cache": _tables,
}


def check(plan, refs, ops):
    """One list of problems per operation (empty when it is correct)."""
    return CHECKS[plan["workload"]](plan, refs, ops)
