"""Anomaly derivative on the generator ring and the one-point checks.

The anomaly operator is -24 times the formal partial derivative with
respect to the weight-2 generator (i.e. d/dC2 where C2 = -E2/24).  On the
prime form it acts as multiplication by -z^2, which closes the one-point
tower: the genus-g one-point function differentiates to the genus-(g-1)
one.  The same statement transports through the generator substitution to
the s-frame, and both directions are checked coefficientwise.

The full n-point anomaly equation involves non-stationary insertions, so
it is only rendered by the formula printer here; the one-point
specialization is what gets verified numerically.
"""

from dataclasses import dataclass, field
from math import factorial

from .cayley import cayley_frame, cayley_transform, fjrw_onepoint_all_genus
from .modular import QMPolynomial
from .rational import rat
from .theta import one_over_theta, onepoint_qm, prime_form


def d_dC2(p):
    """-24 * d/dE2 on a generator polynomial; a derivation, weight -2."""
    out = {}
    for (a, b, c), v in p.terms.items():
        if a:
            key = (a - 1, b, c)
            out[key] = out.get(key, 0) + (-24) * a * v
    return QMPolynomial(out)


@dataclass
class CheckReport:
    """Outcome of a verification run: ordered (name, passed, detail) rows."""

    title: str
    rows: list = field(default_factory=list)

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


def prime_form_anomaly_check(z_order=9):
    """d/dC2 Theta(z) = -z^2 Theta(z), and the reciprocal counterpart."""
    report = CheckReport(f"prime-form anomaly, z-order {z_order}")
    theta = prime_form(z_order)
    oot = one_over_theta(z_order)
    for n in range(theta.start, theta.order + 1):
        lhs = d_dC2(theta.coefficient(n))
        rhs = -theta.coefficient(n - 2)
        report.add(
            f"d/dC2 Theta at z^{n}",
            lhs == rhs,
            "" if lhs == rhs else f"{lhs!r} != {rhs!r}",
        )
    for n in range(oot.start, oot.order + 1):
        lhs = d_dC2(oot.coefficient(n))
        rhs = oot.coefficient(n - 2)
        report.add(
            f"d/dC2 (1/Theta) at z^{n}",
            lhs == rhs,
            "" if lhs == rhs else f"{lhs!r} != {rhs!r}",
        )
    return report


def hae_onepoint_check(g_max=7, frame=None):
    """One-point anomaly ladder, curve side and transported s-frame side.

    Curve side: d/dC2 c_g = c_{g-1} for c_g the genus-g one-point
    function.  Transported side: the Cayley image of the derivative equals
    the formal C2-derivative taken before transforming, evaluated via the
    frame (the transform respects the differential ring structure, so both
    orders must produce the same s-series).
    """
    if g_max < 2:
        raise ValueError("hae_onepoint_check needs g_max >= 2")
    report = CheckReport(f"one-point anomaly ladder, g <= {g_max}")
    if frame is None:
        frame = cayley_frame(max(12, 2 * g_max))
    cs = {g: onepoint_qm(g) for g in range(0, g_max + 1)}
    cs[0] = QMPolynomial.constant(1)
    for g in range(1, g_max + 1):
        lhs = d_dC2(cs[g])
        ok = lhs == cs[g - 1]
        report.add(f"curve side: d/dC2 c_{g} = c_{g - 1}", ok)
    for g in range(2, g_max + 1):
        transported = cayley_transform(d_dC2(cs[g]), frame)
        direct = fjrw_onepoint_all_genus(g - 1, frame)
        ok = transported == direct
        report.add(
            f"s-frame side: transport of d/dC2 c_{g} = genus-{g - 1} series",
            ok,
        )
    return report


def npoint_anomaly_formula(n=3):
    """Text rendering of the general n-point anomaly equation.

    Produced for documentation only: the right-hand side involves
    non-stationary identity insertions and a genus/leg splitting sum, so
    it is not evaluated here.  The splitting sum is rendered with an
    explicit caveat: whether unstable (g, n) ranges are excluded by
    convention is not settled, and the one-point checks sidestep the term
    entirely (it vanishes there by the stability of its factors).
    """
    legs = ", ".join(f"a{i} psi{i}^l{i}" for i in range(1, n + 1))
    drop = ", ".join(
        f"a{j} psi{j}^l{j}" for j in range(1, n + 1) if j != 1
    )
    lines = [
        f"d/dC2 << {legs} >>_g",
        f"  =  << {legs}, 1, 1 >>_(g-1)",
        "  +  sum over g1+g2=g and leg splittings I1 u I2:"
        " << a_I1, 1 >>_g1 * << 1, a_I2 >>_g2",
        "       (caveat: treatment of unstable (g_i, |I_i|) blocks is a"
        " convention choice, not pinned here)",
        f"  -  2 * sum_i deg(a_i) * << ..., 1 psi_i^(l_i+1), ... >>_g"
        f"   e.g. i=1: << 1 psi1^(l1+1), {drop} >>_g",
        "       (deg(a_i) = 1 for the point-class insertion, else 0;"
        " on the cubic side the Kronecker delta on phi plays this role)",
    ]
    return "\n".join(lines)


def anomaly_power_rule_example(g):
    """(-E2/24)^g / g! differentiates to the (g-1) analogue."""
    c2_power = (QMPolynomial.e2() * rat(-1, 24)) ** g * rat(1, factorial(g))
    return d_dC2(c2_power)
