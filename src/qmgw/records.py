"""Machine-readable invariant records and verification reports.

All rationals serialize as "numerator/denominator" strings, never floats;
JSON objects use sorted keys so byte-stable output falls out of exact
arithmetic.  The JSON schema is documented in the README under
"Output format".
"""

import json
from collections import namedtuple

from .rational import rat_str

FORMAT_VERSION = "1"


class InvariantRecord(
    namedtuple(
        "InvariantRecord",
        "theory genus insertions representation payload",
    )
):
    __slots__ = ()

    def payload_obj(self):
        # the payload's module is loaded already; importing it here keeps
        # a cached read from loading the mathematics
        if self.representation == "qm_polynomial":
            from .modular import QMPolynomial

            assert isinstance(self.payload, QMPolynomial)
            return [
                {"a": a, "b": b, "c": c, "coeff": rat_str(v)}
                for (a, b, c), v in self.payload.sorted_terms()
            ]
        if self.representation in ("q_series", "s_series"):
            from .series import PowerSeries

            assert isinstance(self.payload, PowerSeries)
            return {
                "variable": self.payload.var,
                "coefficients": [rat_str(c) for c in self.payload.coeffs],
            }
        if self.representation == "rational":
            return rat_str(self.payload)
        raise ValueError(f"unknown representation {self.representation!r}")

    def to_obj(self):
        return {
            "version": FORMAT_VERSION,
            "theory": self.theory,
            "genus": self.genus,
            "insertions": list(self.insertions),
            "representation": self.representation,
            "payload": self.payload_obj(),
        }

    def to_json_line(self):
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))


class CheckReport:
    """Outcome of a verification run: ordered (name, passed, detail) rows."""

    __slots__ = ("title", "rows")

    def __init__(self, title):
        self.title = title
        self.rows = []

    def add(self, name, passed, detail=""):
        self.rows.append((name, bool(passed), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.rows)

    def lines(self):
        out = [f"[{self.title}]"]
        for name, ok, detail in self.rows:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            out.append(f"  {mark}  {name}{suffix}")
        return out


def records_to_json(records):
    return "\n".join(r.to_json_line() for r in records) + "\n"


def records_to_csv(records):
    """Flat CSV: generator polynomials expand to one monomial per row."""
    lines = [
        "version,theory,genus,insertions,representation,key,value"
    ]
    for r in records:
        ins = ";".join(str(i) for i in r.insertions)
        base = f"{FORMAT_VERSION},{r.theory},{r.genus},{ins},{r.representation}"
        obj = r.payload_obj()
        if r.representation == "qm_polynomial":
            for row in obj:
                key = f"E2^{row['a']}*E4^{row['b']}*E6^{row['c']}"
                lines.append(f"{base},{key},{row['coeff']}")
            if not obj:
                lines.append(f"{base},zero,0/1")
        elif r.representation in ("q_series", "s_series"):
            var = obj["variable"]
            for n, c in enumerate(obj["coefficients"]):
                lines.append(f"{base},{var}^{n},{c}")
        else:
            lines.append(f"{base},value,{obj}")
    return "\n".join(lines) + "\n"


def records_to_text(records):
    lines = []
    for r in records:
        ins = ", ".join(str(i) for i in r.insertions)
        lines.append(
            f"{r.theory} genus {r.genus} insertions [{ins}] "
            f"({r.representation}):"
        )
        obj = r.payload_obj()
        if r.representation == "qm_polynomial":
            if not obj:
                lines.append("  0")
            for row in obj:
                lines.append(
                    f"  E2^{row['a']} E4^{row['b']} E6^{row['c']}: "
                    f"{row['coeff']}"
                )
        elif r.representation in ("q_series", "s_series"):
            var = obj["variable"]
            body = " + ".join(
                f"({c}) {var}^{n}"
                for n, c in enumerate(obj["coefficients"])
                if c != "0/1"
            )
            lines.append("  " + (body or "0"))
        else:
            lines.append(f"  {obj}")
    return "\n".join(lines) + "\n"


SERIALIZERS = {
    "json": records_to_json,
    "csv": records_to_csv,
    "text": records_to_text,
}
