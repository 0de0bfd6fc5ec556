"""Virasoro operators on the truncated insertion-variable ring, and the
ancestor/descendent quantization operator.

Variables are indexed (sector, level) with sector 0 the identity class,
sectors 1 and 2 the two odd classes, sector 3 the point class, and level
the psi-power, capped at L.  Both theories share one operator shape:

    L_k = -(k+1)! d/d t[0, k+1]
          + sum_l (l)_{k+1}   t[0,l] d/d t[0, k+l]
          + sum_l (l+1)_{k+1} t[3,l] d/d t[3, k+l]
          + sum_l (l+1)_{k+1} t[1,l] d/d t[1, k+l]
          + sum_l (l)_{k+1}   t[2,l] d/d t[2, k+l]

with (a)_n the rising factorial, (a)_0 = 1.  For k = -1 this is read
literally: (k+1)! = 1, the affine term is -d/d t[0,0], and summation
terms targeting level -1 act as zero on the ring.  Operators truncate to
levels <= L on both slots of every term, so the bracket relation holds
only on the window of variables whose levels leave room for the
compositions.  Every operator here is a derivation, fixed by its
constant and linear terms, so the relation is checked by comparing the
commutator with (n - m) L_{n+m} term by term over that window.

Polynomials are dicts mapping monomials (sorted tuples of ((sector,
level), exponent)) to rationals.
"""

from dataclasses import dataclass
from math import factorial, lcm

from .errors import InvalidSeries
from .rational import ONE, ZERO, rat

SECTORS = (0, 1, 2, 3)
THEORIES = ("curve", "fermat_cubic")

#: per-sector Pochhammer offset of the operator family: sectors 0 and 2
#: use (l)_{k+1}, sectors 3 and 1 use (l+1)_{k+1}.
SECTOR_OFFSET = {0: 0, 1: 1, 2: 0, 3: 1}


def pochhammer(a, n):
    """Rising factorial a (a+1) ... (a+n-1), with (a)_0 = 1."""
    out = ONE
    for i in range(n):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# polynomial helpers


def mono_one():
    return ()


def mono_var(sector, level):
    return (((sector, level), 1),)


def poly_const(c):
    c = rat(c)
    return {mono_one(): c} if c else {}


def poly_var(sector, level):
    return {mono_var(sector, level): ONE}


def poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_scale(p, c):
    c = rat(c)
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def poly_mul_mono(p, mono, c):
    """Multiply a polynomial by c * (monomial)."""
    c = rat(c)
    if not c:
        return {}
    out = {}
    for k, v in p.items():
        merged = dict(k)
        for var, e in mono:
            merged[var] = merged.get(var, 0) + e
        key = tuple(sorted(merged.items()))
        out[key] = out.get(key, ZERO) + c * v
    return out


def mono_deriv(mono, var):
    """d/d var of a monomial: (multiplicity, reduced monomial) or None."""
    d = dict(mono)
    e = d.get(var, 0)
    if not e:
        return None
    if e == 1:
        del d[var]
    else:
        d[var] = e - 1
    return e, tuple(sorted(d.items()))


def poly_equal(p, q):
    return poly_add(p, poly_scale(q, -1)) == {}


# ---------------------------------------------------------------------------
# first-order operators


@dataclass(frozen=True)
class DiffOperator:
    """c * d/d(var) affine terms plus c * src * d/d(dst) linear terms.

    `affine` maps var -> coefficient; `linear` maps (src, dst) -> coefficient.
    Acts linearly on the polynomial ring; first-order, so composition and
    commutators stay inside the class extended by these two term shapes.
    """

    affine: tuple  # sorted ((sector, level), coeff)
    linear: tuple  # sorted (((src), (dst)), coeff)

    @classmethod
    def build(cls, affine, linear):
        aff = tuple(sorted((k, v) for k, v in affine.items() if v))
        lin = tuple(sorted((k, v) for k, v in linear.items() if v))
        return cls(aff, lin)

    def apply(self, poly):
        out = {}
        for var, c in self.affine:
            for mono, coeff in poly.items():
                hit = mono_deriv(mono, var)
                if hit is None:
                    continue
                e, reduced = hit
                s = out.get(reduced, ZERO) + c * e * coeff
                if s:
                    out[reduced] = s
                else:
                    out.pop(reduced, None)
        for (src, dst), c in self.linear:
            for mono, coeff in poly.items():
                hit = mono_deriv(mono, dst)
                if hit is None:
                    continue
                e, reduced = hit
                merged = dict(reduced)
                merged[src] = merged.get(src, 0) + 1
                key = tuple(sorted(merged.items()))
                s = out.get(key, ZERO) + c * e * coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def scaled(self, c):
        c = rat(c)
        return DiffOperator.build(
            {k: c * v for k, v in self.affine},
            {k: c * v for k, v in self.linear},
        )

    def commutator(self, other):
        """[self, other] inside the affine + linear class.

        [t_u d_v, t_p d_q] = delta_{v,p} t_u d_q - delta_{q,u} t_p d_v
        [d_v, t_p d_q]     = delta_{v,p} d_q
        """
        aff = {}
        lin = {}

        def add_aff(var, c):
            if c:
                s = aff.get(var, ZERO) + c
                if s:
                    aff[var] = s
                else:
                    aff.pop(var, None)

        def add_lin(src, dst, c):
            if c:
                key = (src, dst)
                s = lin.get(key, ZERO) + c
                if s:
                    lin[key] = s
                else:
                    lin.pop(key, None)

        for (u, v), c1 in self.linear:
            for (p, q), c2 in other.linear:
                if v == p:
                    add_lin(u, q, c1 * c2)
                if q == u:
                    add_lin(p, v, -c1 * c2)
        for v, c1 in self.affine:
            for (p, q), c2 in other.linear:
                if v == p:
                    add_aff(q, c1 * c2)
        for (p, q), c2 in self.linear:
            for v, c1 in other.affine:
                if v == p:
                    add_aff(q, -c1 * c2)
        return DiffOperator.build(aff, lin)


def virasoro_op(theory, k, level_cap):
    """The Virasoro operator of the theory, truncated to levels <= cap."""
    if theory not in THEORIES:
        raise InvalidSeries(f"unknown theory {theory!r}")
    if k < -1:
        raise InvalidSeries("Virasoro index must be >= -1")
    if level_cap < k + 1:
        raise InvalidSeries(
            f"level cap {level_cap} too small for L_{k} (needs >= {k + 1})"
        )
    affine = {(0, k + 1): -rat(factorial(k + 1))}
    linear = {}
    for sector in SECTORS:
        off = SECTOR_OFFSET[sector]
        for l in range(level_cap + 1):
            dst = k + l
            if dst < 0 or dst > level_cap:
                continue
            w = pochhammer(rat(l + off), k + 1)
            if w:
                linear[((sector, l), (sector, dst))] = w
    return DiffOperator.build(affine, linear)


def _window_terms(op, window):
    """The affine and linear terms of `op` that differentiate a variable
    of level <= window."""
    return (
        {var: c for var, c in op.affine if var[1] <= window},
        {(src, dst): c for (src, dst), c in op.linear if dst[1] <= window},
    )


def virasoro_commutator_check(n, m, level_cap, theory="curve"):
    """[L_n, L_m] = (n - m) L_{n+m} on the truncation-safe window.

    The window is the variables of level <= level_cap - max(n, m, n+m, 0),
    where the truncated operators compose as the untruncated ones do.
    Both sides are derivations, so by the Leibniz rule they agree on every
    polynomial in the window variables exactly when their affine and
    linear terms that differentiate a window variable agree; those terms
    of `commutator` and `scaled` are compared one by one.  As an
    independent cross-check, both sides are also applied through
    `DiffOperator.apply` to 1 and to each window variable.
    """
    from .anomaly import CheckReport

    if n < -1 or m < -1 or n + m < -1:
        raise InvalidSeries("need n, m >= -1 and n + m >= -1")
    window = level_cap - max(n, m, n + m, 0)
    if window < 0:
        raise InvalidSeries("empty truncation-safe window")
    report = CheckReport(
        f"[{theory}] bracket (n,m)=({n},{m}), levels <= {window}"
    )
    ln = virasoro_op(theory, n, level_cap)
    lm = virasoro_op(theory, m, level_cap)
    lnm = virasoro_op(theory, n + m, level_cap)
    bad_terms = 0
    for got, want in zip(
        _window_terms(ln.commutator(lm), window),
        _window_terms(lnm.scaled(n - m), window),
    ):
        keys = got.keys() | want.keys()
        bad_terms += sum(got.get(k) != want.get(k) for k in keys)
    bad_monos = 0
    probes = [mono_one()] + [
        mono_var(s, l) for s in SECTORS for l in range(window + 1)
    ]
    for mono in probes:
        poly = {mono: ONE}
        lhs = poly_add(
            ln.apply(lm.apply(poly)), poly_scale(lm.apply(ln.apply(poly)), -1)
        )
        if not poly_equal(lhs, poly_scale(lnm.apply(poly), n - m)):
            bad_monos += 1
    report.add(
        f"[L_{n}, L_{m}] = ({n - m}) L_{n + m} on window monomials",
        bad_terms == 0 and bad_monos == 0,
        f"{bad_terms} failing terms, {bad_monos} failing monomials"
        if bad_terms or bad_monos
        else "",
    )
    return report


def theories_structurally_equal(k, level_cap):
    """Curve and cubic operator families coincide under relabeling."""
    a = virasoro_op("curve", k, level_cap)
    b = virasoro_op("fermat_cubic", k, level_cap)
    return a == b


# ---------------------------------------------------------------------------
# quantization


class QuantizedS:
    """Action of the ancestor/descendent quantization operator

        S^_t = exp( -t (q[0,0])^2 / 2  -  t sum_k q[0,k+1] d/d q[0,k] ),

    on the truncated polynomial ring.  The squared-variable term is the
    quantization of a q^2-Hamiltonian and carries an hbar^{-1} grading;
    results are returned as {hbar_power: polynomial} with the grading
    never summed over.  The vector-field part substitutes level k -> k+1
    in sector 0, so it is nilpotent once levels are capped; the
    multiplication part raises degree and is capped by max_degree, a bound
    on the sector-0 degree of its output.

    With t = a/b, the hbar^{-j} part of the N-th power of the generator is
    (-a/b)^N / 2^j times the hbar^{-j} part of (V + q[0,0]^2/hbar)^N, V the
    vector field with unit weights.  That power is iterated on the input
    scaled to integer coefficients, so every coefficient stays an exact
    integer until one final division per output monomial.
    """

    def __init__(self, t, level_cap, max_degree=6):
        self.t = rat(t)
        self.level_cap = level_cap
        self.max_degree = max_degree

    def _step(self, frontier):
        """One application of V + q[0,0]^2/hbar on integer coefficients.

        `frontier` maps j (the hbar^{-j} grade) to {(e, rest): int}, with e
        the sector-0 exponents by level and rest the other sectors'
        factors, which the generator never touches.
        """
        out = {}
        for j, poly in frontier.items():
            vec = out.setdefault(j, {})
            mult = out.setdefault(j + 1, {})
            for (e, rest), c in poly.items():
                for k in range(self.level_cap):
                    ek = e[k]
                    if ek:
                        f = list(e)
                        f[k] = ek - 1
                        f[k + 1] += 1
                        key = (tuple(f), rest)
                        vec[key] = vec.get(key, 0) + ek * c
                # the truncation parameter governs only the operator's own
                # sector: capping sector-0 degree keeps the action exactly
                # commuting with everything built from the other sectors.
                if sum(e) + 2 <= self.max_degree:
                    key = ((e[0] + 2,) + e[1:], rest)
                    mult[key] = mult.get(key, 0) + c
        out = {j: {k: c for k, c in p.items() if c} for j, p in out.items()}
        return {j: p for j, p in out.items() if p}

    def apply(self, poly):
        """exp of the combined generator; returns {hbar_power: poly}."""
        if not self.t:
            return {0: dict(poly)} if poly else {}
        den = lcm(*(rat(c).denominator for c in poly.values()))
        levels = [l for mono in poly for (s, l), _ in mono if s == 0]
        if levels and min(levels) < 0:
            raise InvalidSeries("variable levels are psi-powers, >= 0")
        width = 1 + max([self.level_cap] + levels)
        scaled = {}
        for mono, c in poly.items():
            e = [0] * width
            for (s, l), x in mono:
                if s == 0:
                    e[l] = x
            rest = tuple(item for item in mono if item[0][0] != 0)
            c = rat(c)
            scaled[(tuple(e), rest)] = c.numerator * (den // c.denominator)
        frontier = {0: scaled}
        # powers[k] = (V + q[0,0]^2/hbar)^k of the scaled input
        powers = []
        n = 1
        while frontier:
            powers.append(frontier)
            frontier = self._step(frontier)
            n += 1
            if n > (self.max_degree + 2) * (self.level_cap + 2):
                raise InvalidSeries(
                    "quantization exponential failed to terminate"
                )
        # with t = a/b and N the last power, sum_k (-t)^k/k! powers[k] is
        # sum_k (-a)^k b^(N-k) N!/k! powers[k] / (b^N N!)
        a, b = self.t.numerator, self.t.denominator
        top = len(powers) - 1
        weights = [b**top * factorial(top)]
        for k in range(1, top + 1):
            weights.append(weights[-1] * -a // (b * k))
        base = den * weights[0]
        variables = [(0, l) for l in range(width)]
        graded = {}
        for j in range(top + 1):
            acc = {}
            for w, power in zip(weights, powers):
                for key, c in power.pop(j, {}).items():
                    acc[key] = acc.get(key, 0) + w * c
            out = {}
            for (e, rest), c in acc.items():
                if c:
                    s0 = tuple((variables[l], x) for l, x in enumerate(e) if x)
                    out[s0 + rest] = rat(c, base << j)
            if out:
                graded[-j] = out
        return graded


def quantization_S(t, level_cap, max_degree=6):
    return QuantizedS(t, level_cap, max_degree)
