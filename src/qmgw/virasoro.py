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
level), exponent)) to rationals; the monomial 1 is ().  The operators'
coefficients are integers, (k+1)! and rising factorials of integers, so
they are kept as Python ints, and so are their commutators, their integer
multiples and the probes of the bracket check: no rational arithmetic
runs there.
"""

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from ._backend import add_into
from .errors import InvalidSeries
from .rational import ONE, rat, scaled_ints
from .records import CheckReport

SECTORS = (0, 1, 2, 3)
THEORIES = ("curve", "fermat_cubic")

#: per-sector Pochhammer offset of the operator family: sectors 0 and 2
#: use (l)_{k+1}, sectors 3 and 1 use (l+1)_{k+1}.
SECTOR_OFFSET = {0: 0, 1: 1, 2: 0, 3: 1}


def pochhammer(a, n):
    """Rising factorial a (a+1) ... (a+n-1), with (a)_0 = 1."""
    out = 1
    for i in range(n):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# polynomial helpers


def mono_var(sector, level):
    return (((sector, level), 1),)


def poly_const(c):
    c = rat(c)
    return {(): c} if c else {}


def poly_var(sector, level):
    return {mono_var(sector, level): ONE}


def poly_add(p, q):
    return add_into(dict(p), q.items())


def poly_scale(p, c):
    """c * p for a number c."""
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def poly_mul_mono(p, mono, c):
    """Multiply a polynomial by c * (monomial)."""
    c = rat(c)
    if not c:
        return {}
    out = []
    for k, v in p.items():
        merged = dict(k)
        for var, e in mono:
            merged[var] = merged.get(var, 0) + e
        out.append((tuple(sorted(merged.items())), c * v))
    return add_into({}, out)


# ---------------------------------------------------------------------------
# first-order operators


class DiffOperator:
    """sum c * t[src] d/d t[dst] over the read-only, zero-free dict
    `terms`: {(src, dst): c}.  An affine term c * d/d t[dst] has the
    empty source ().

    Built from (key, coeff) pairs, summed per key.  Acts linearly on the
    polynomial ring; first-order, so commutators stay inside the class.
    `apply` reads them through the read-only index `_by_dst`:
    {dst: ((src, c), ...)}, so a cached operator cannot be changed.
    """

    __slots__ = ("terms", "_by_dst")

    def __init__(self, pairs):
        self.terms = MappingProxyType(add_into({}, pairs))
        by_dst = {}
        for (src, dst), c in self.terms.items():
            by_dst.setdefault(dst, []).append((src, c))
        self._by_dst = MappingProxyType(
            {dst: tuple(row) for dst, row in by_dst.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def apply(self, poly):
        out = []
        for mono, coeff in poly.items():
            for var, e in mono:
                down = dict(mono)
                down[var] = e - 1
                for src, c in self._by_dst.get(var, ()):
                    key = dict(down)
                    if src:
                        key[src] = key.get(src, 0) + 1
                    key = tuple(sorted((v, x) for v, x in key.items() if x))
                    out.append((key, c * e * coeff))
        return add_into({}, out)

    def scaled(self, c):
        """c * self for a number c."""
        return DiffOperator((k, c * v) for k, v in self.terms.items())

    def commutator(self, other):
        """[self, other], term by term:

            [t_u d_v, t_p d_q] = delta_{v,p} t_u d_q - delta_{q,u} t_p d_v

        An empty source contributes no factor and equals no target, so
        affine terms need no case of their own.
        """
        out = []
        for (u, v), c1 in self.terms.items():
            for (p, q), c2 in other.terms.items():
                if v == p:
                    out.append(((u, q), c1 * c2))
                if q == u:
                    out.append(((p, v), -c1 * c2))
        return DiffOperator(out)


@lru_cache(maxsize=None)
def virasoro_op(theory, k, level_cap):
    """The Virasoro operator of the theory, truncated to levels <= cap.

    Built once per (theory, k, cap); the cached operator is read-only.
    """
    if theory not in THEORIES:
        raise InvalidSeries(f"unknown theory {theory!r}")
    if k < -1:
        raise InvalidSeries("Virasoro index must be >= -1")
    if level_cap < k + 1:
        raise InvalidSeries(
            f"level cap {level_cap} too small for L_{k} (needs >= {k + 1})"
        )
    terms = [(((), (0, k + 1)), -factorial(k + 1))]
    for sector in SECTORS:
        off = SECTOR_OFFSET[sector]
        for l in range(level_cap + 1):
            if 0 <= k + l <= level_cap:
                w = pochhammer(l + off, k + 1)
                terms.append((((sector, l), (sector, k + l)), w))
    return DiffOperator(terms)


def _window_terms(op, window):
    """The terms of `op` that differentiate a variable of level <= window."""
    return {key: c for key, c in op.terms.items() if key[1][1] <= window}


def virasoro_commutator_check(n, m, level_cap, theory="curve"):
    """[L_n, L_m] = (n - m) L_{n+m} on the truncation-safe window.

    The window is the variables of level <= level_cap - max(n, m, n+m, 0),
    where the truncated operators compose as the untruncated ones do.
    Both sides are derivations, so by the Leibniz rule they agree on every
    polynomial in the window variables exactly when their terms that
    differentiate a window variable agree; those terms of `commutator`
    and `scaled` are compared one by one.  As an independent cross-check,
    both sides are also applied through `DiffOperator.apply` to 1 and to
    each window variable.
    """
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
    got = _window_terms(ln.commutator(lm), window)
    want = _window_terms(lnm.scaled(n - m), window)
    keys = got.keys() | want.keys()
    bad_terms = sum(got.get(k) != want.get(k) for k in keys)
    bad_monos = 0
    probes = [()] + [
        mono_var(s, l) for s in SECTORS for l in range(window + 1)
    ]
    for mono in probes:
        poly = {mono: 1}
        lhs = poly_add(
            ln.apply(lm.apply(poly)), poly_scale(lm.apply(ln.apply(poly)), -1)
        )
        if lhs != poly_scale(lnm.apply(poly), n - m):
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
    multiplication part raises degree and is capped by MAX_DEGREE, a bound
    on the sector-0 degree of its output.

    With t = a/b, the hbar^{-j} part of the N-th power of the generator is
    (-a/b)^N / 2^j times the hbar^{-j} part of (V + q[0,0]^2/hbar)^N, V the
    vector field with unit weights.  That power is iterated on the input
    scaled to integer coefficients, so every coefficient stays an exact
    integer until one final division per output monomial.
    """

    MAX_DEGREE = 6

    def __init__(self, t, level_cap):
        self.t = rat(t)
        self.level_cap = level_cap

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
                if sum(e) + 2 <= self.MAX_DEGREE:
                    key = ((e[0] + 2,) + e[1:], rest)
                    mult[key] = mult.get(key, 0) + c
        out = {j: {k: c for k, c in p.items() if c} for j, p in out.items()}
        return {j: p for j, p in out.items() if p}

    def apply(self, poly):
        """exp of the combined generator; returns {hbar_power: poly}."""
        if not self.t:
            return {0: dict(poly)} if poly else {}
        nums, den = scaled_ints([rat(c) for c in poly.values()])
        levels = [l for mono in poly for (s, l), _ in mono if s == 0]
        if levels and min(levels) < 0:
            raise InvalidSeries("variable levels are psi-powers, >= 0")
        width = 1 + max([self.level_cap] + levels)
        scaled = {}
        for mono, c in zip(poly, nums):
            e = [0] * width
            for (s, l), x in mono:
                if s == 0:
                    e[l] = x
            rest = tuple(item for item in mono if item[0][0] != 0)
            scaled[(tuple(e), rest)] = c
        frontier = {0: scaled}
        # powers[k] = (V + q[0,0]^2/hbar)^k of the scaled input
        powers = []
        n = 1
        while frontier:
            powers.append(frontier)
            frontier = self._step(frontier)
            n += 1
            if n > (self.MAX_DEGREE + 2) * (self.level_cap + 2):
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


def quantization_S(t, level_cap):
    return QuantizedS(t, level_cap)
