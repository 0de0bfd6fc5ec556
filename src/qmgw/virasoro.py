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

with (a)_n the rising factorial, (a)_0 = 1.  Each theory builds the
family from its own state space (`STATE_SPACES`): a class of Hodge
bidegree (p, q) gets the offset p and acts on the variables of its curve
sector, so the cubic's family comes from 1, b1, b2 and phi through the
label map and equals the curve's only if the two spaces agree.  For
k = -1 this is read literally: (k+1)! = 1, the affine term is
-d/d t[0,0], and summation terms targeting level -1 act as zero on the
ring.  Operators truncate to levels <= L on both slots of every term, so
the bracket relation holds only on the window of variables whose levels
leave room for the compositions.  Every operator here is a derivation,
fixed by its constant and linear terms, so the relation is checked by
comparing the commutator with (n - m) L_{n+m} term by term over that
window.

Polynomials are dicts mapping monomials (sorted tuples of ((sector,
level), exponent)) to rationals; the monomial 1 is ().  The operators and
the quantization share this one encoding.  The operators' coefficients
are integers, (k+1)! and rising factorials of integers, so they are kept
as Python ints, and so are their commutators, their integer multiples,
the probes of the bracket check and the quantization's iterate: no
rational arithmetic runs there.  The quantization takes and returns this
encoding and iterates on monomials packed into ints (`QuantizedS`).
"""

from bisect import bisect_left
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType

from ._backend import Frozen, add_into
from .errors import InvalidSeries
from .rational import ONE, rat, scaled_ints
from .records import CheckReport

SECTORS = (0, 1, 2, 3)

#: each theory's state space, class -> (curve sector, Hodge bidegree
#: (p, q)): the curve's classes are its sectors, and the cubic's labels
#: (those of `cayley.LABELS`) go to the curve's sectors under the mirror
#: map.  The affine term differentiates the class of bidegree (0, 0).
STATE_SPACES = {
    "curve": {0: (0, (0, 0)), 1: (1, (1, 0)), 2: (2, (0, 1)), 3: (3, (1, 1))},
    "fermat_cubic": {
        "1": (0, (0, 0)),
        "b1": (1, (1, 0)),
        "b2": (2, (0, 1)),
        "phi": (3, (1, 1)),
    },
}
THEORIES = tuple(STATE_SPACES)


def pochhammer(a, n):
    """Rising factorial a (a+1) ... (a+n-1), with (a)_0 = 1."""
    return prod(a + i for i in range(n))


# ---------------------------------------------------------------------------
# polynomial helpers


def mono_var(sector, level):
    return (((sector, level), 1),)


def poly_var(sector, level):
    return {mono_var(sector, level): ONE}


def poly_add(p, q):
    return add_into(dict(p), q.items())


def poly_scale(p, c):
    """c * p for a number c."""
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def _mono_times(mono, var, e):
    """mono * var^e on the sorted tuple; e may be negative, and a variable
    whose exponent reaches 0 is dropped."""
    i = bisect_left(mono, (var,))
    rest = mono[i:]
    if rest and rest[0][0] == var:
        e += rest[0][1]
        rest = rest[1:]
    return mono[:i] + ((var, e),) + rest if e else mono[:i] + rest


def poly_mul_mono(p, mono, c):
    """Multiply a polynomial by c * (monomial); an int c keeps int
    coefficients ints."""
    if not c:
        return {}
    out = []
    for k, v in p.items():
        for var, e in mono:
            k = _mono_times(k, var, e)
        out.append((k, c * v))
    return add_into({}, out)


# ---------------------------------------------------------------------------
# first-order operators


class DiffOperator(Frozen):
    """sum c * t[src] d/d t[dst] over the read-only, zero-free dict
    `terms`: {(src, dst): c}.  An affine term c * d/d t[dst] has the
    empty source ().

    Built from (key, coeff) pairs, summed per key.  Acts linearly on the
    polynomial ring; first-order, so commutators stay inside the class.
    `apply` reads them through the read-only index `_by_dst`:
    {dst: ((src, c), ...)}, so a cached operator cannot be changed.
    `_image(mono)` is this operator applied to one monomial, built on
    first use and kept on the operator itself, so an operator built in
    another's place never reads the other's images.
    """

    __slots__ = ("terms", "_by_dst", "_images")

    def __init__(self, pairs):
        terms = add_into({}, pairs)
        by_dst = {}
        for (src, dst), c in terms.items():
            by_dst.setdefault(dst, []).append((src, c))
        object.__setattr__(self, "terms", MappingProxyType(terms))
        object.__setattr__(
            self,
            "_by_dst",
            MappingProxyType({dst: tuple(row) for dst, row in by_dst.items()}),
        )
        object.__setattr__(self, "_images", {})

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def apply(self, poly):
        out = []
        for mono, coeff in poly.items():
            for var, e in mono:
                row = self._by_dst.get(var)
                if not row:
                    continue
                down = _mono_times(mono, var, -1)
                for src, c in row:
                    key = _mono_times(down, src, 1) if src else down
                    out.append((key, c * e * coeff))
        return add_into({}, out)

    def _image(self, mono):
        """self.apply({mono: 1}), built once per monomial; callers only
        read it."""
        image = self._images.get(mono)
        if image is None:
            image = self._images[mono] = self.apply({mono: 1})
        return image

    def scaled(self, c):
        """c * self for a number c."""
        return DiffOperator((k, c * v) for k, v in self.terms.items())

    def commutator(self, other):
        """[self, other], term by term:

            [t_u d_v, t_p d_q] = delta_{v,p} t_u d_q - delta_{q,u} t_p d_v

        Each term is paired only with the terms of the other operator
        whose source is its target.  An empty source equals no target, so
        affine terms need no case of their own.
        """
        mine, theirs = _by_src(self), _by_src(other)
        out = [
            ((u, q), c1 * c2)
            for (u, v), c1 in self.terms.items()
            for q, c2 in theirs.get(v, ())
        ]
        out += [
            ((p, v), -c1 * c2)
            for (p, q), c2 in other.terms.items()
            for v, c1 in mine.get(q, ())
        ]
        return DiffOperator(out)


def _by_src(op):
    """{src: [(dst, c), ...]} over the terms of `op`."""
    index = {}
    for (src, dst), c in op.terms.items():
        index.setdefault(src, []).append((dst, c))
    return index


@lru_cache(maxsize=None)
def virasoro_op(theory, k, level_cap):
    """The Virasoro operator of the theory, truncated to levels <= cap.

    Built from the theory's own state space (`STATE_SPACES`), once per
    (theory, k, cap); the cached operator is read-only.
    """
    if theory not in THEORIES:
        raise InvalidSeries(f"unknown theory {theory!r}")
    if k < -1:
        raise InvalidSeries("Virasoro index must be >= -1")
    if level_cap < k + 1:
        raise InvalidSeries(
            f"level cap {level_cap} too small for L_{k} (needs >= {k + 1})"
        )
    terms = []
    for sector, (p, q) in STATE_SPACES[theory].values():
        if (p, q) == (0, 0):
            terms.append((((), (sector, k + 1)), -factorial(k + 1)))
        for l in range(level_cap + 1):
            if 0 <= k + l <= level_cap:
                w = pochhammer(l + p, k + 1)
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
    both sides also act through `DiffOperator.apply` on the probes 1, each
    window variable and the square of the top point-sector one, whose
    image needs apply's exponent factor: each operator's image of a probe
    is built once (`_image`), and the compositions are one `apply` of L_n
    and one of L_m per probe.
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
    probes = [()] + [
        mono_var(s, l) for s in SECTORS for l in range(window + 1)
    ]
    probes.append((((3, window), 2),))
    bad_monos = sum(
        poly_add(
            ln.apply(lm._image(mono)),
            poly_scale(lm.apply(ln._image(mono)), -1),
        )
        != poly_scale(lnm._image(mono), n - m)
        for mono in probes
    )
    report.add(
        f"[L_{n}, L_{m}] = ({n - m}) L_{n + m} on window monomials",
        bad_terms == 0 and bad_monos == 0,
        f"{bad_terms} failing terms, {bad_monos} failing monomials"
        if bad_terms or bad_monos
        else "",
    )
    return report


def theories_structurally_equal(k, level_cap):
    """The cubic's L_k, built from its classes 1, b1, b2 and phi through
    the label map, equals the curve's, built from its sectors."""
    a = virasoro_op("curve", k, level_cap)
    b = virasoro_op("fermat_cubic", k, level_cap)
    return a == b


# ---------------------------------------------------------------------------
# quantization


class QuantizedS(Frozen):
    """Action of the ancestor/descendent quantization operator

        S^_t = exp( -t (q[0,0])^2 / 2  -  t sum_k q[0,k+1] d/d q[0,k] ),

    on the truncated polynomial ring.  The squared-variable term is the
    quantization of a q^2-Hamiltonian and carries an hbar^{-1} grading;
    results are returned as {hbar_power: polynomial} with the grading
    never summed over.  The vector-field part V = sum_{k < L} q[0,k+1]
    d/d q[0,k] substitutes level k -> k+1 in sector 0, so it is nilpotent
    once levels are capped; the multiplication part raises degree and is
    capped by MAX_DEGREE, a bound on the sector-0 degree of its output.
    On a monomial of sector-0 degree d, V applies at most
    max(d, MAX_DEGREE) * L times and the multiplication at most
    MAX_DEGREE // 2 times, which bounds the number of nonzero powers.

    With t = a/b, the hbar^{-j} part of the N-th power of the generator is
    (-a/b)^N / 2^j times the hbar^{-j} part of (V + q[0,0]^2/hbar)^N.  That
    power is iterated on the input scaled to integers, so every
    coefficient stays an exact int until one final division per output
    monomial.  The monomials are grouped by the part V and the square
    never touch (the other sectors, and sector-0 levels above L), and
    within a group each graded monomial is one int: j of hbar^{-j}, the
    sector-0 exponents at levels 0..L and, in the top slot, the whole
    sector-0 degree.  A step of V is one add per shifted level, the square
    one add, the MAX_DEGREE test one compare, and each output monomial is
    unpacked once.
    """

    MAX_DEGREE = 6

    __slots__ = ("t", "level_cap")

    def __init__(self, t, level_cap):
        object.__setattr__(self, "t", rat(t))
        object.__setattr__(self, "level_cap", level_cap)

    def apply(self, poly):
        """exp of the combined generator; returns {hbar_power: poly}."""
        if not self.t:
            return {0: dict(poly)} if poly else {}
        if any(s == 0 and l < 0 for mono in poly for (s, l), _ in mono):
            raise InvalidSeries("variable levels are psi-powers, >= 0")
        cap, most = self.level_cap, self.MAX_DEGREE
        nums, den = scaled_ints([rat(c) for c in poly.values()])
        degree = max([most] + [sum(e for (s, _), e in m if s == 0) for m in poly])
        # slot 0 holds j of hbar^{-j} (j <= most // 2), slot l + 1 the
        # exponent at level l and the top slot the sector-0 degree: no
        # exponent exceeds the degree, which fits `width` bits
        width = degree.bit_length()
        mask = (1 << width) - 1
        top = width * (cap + 2)
        shifts = [(width * l, mask << width * l) for l in range(1, cap + 1)]
        square = (2 << top) + (2 << width) + 1
        room = (most - 1) << top  # below it, degree <= most - 2
        # each slot's (variable, exponent) pairs, shared by every output
        slots = [
            (width * (l + 1), [((0, l), e) for e in range(mask + 1)])
            for l in range(cap + 1)
        ]
        groups = {}
        for mono, u in zip(poly, nums):
            packed, rest = 0, []
            for var, e in mono:
                if var[0] == 0:
                    packed += e << top
                    if var[1] <= cap:
                        packed += e << width * (var[1] + 1)
                        continue
                rest.append((var, e))
            groups.setdefault(tuple(rest), []).append((packed, u))
        a, b = self.t.numerator, self.t.denominator
        out = {}
        for rest, pairs in groups.items():
            # powers[k] = (V + q[0,0]^2/hbar)^k on the group's scaled input
            powers = [add_into({}, pairs)]
            while powers[-1]:
                if len(powers) > degree * cap + most // 2 + 1:
                    raise InvalidSeries(
                        "quantization exponential failed to terminate"
                    )
                p = powers[-1]
                step = add_into(
                    {},
                    (
                        (m + delta, (m >> at & mask) * c)
                        for m, c in p.items()
                        for at, delta in shifts
                        if m >> at & mask
                    ),
                )
                # the truncation parameter governs only the operator's own
                # sector: capping sector-0 degree keeps the action exactly
                # commuting with everything built from the other sectors.
                lift = ((m + square, c) for m, c in p.items() if m < room)
                powers.append(add_into(step, lift))
            # with t = a/b and N at or past the last nonzero power,
            # sum_k (-t)^k/k! powers[k] is
            # sum_k (-a)^k b^(N-k) N!/k! powers[k] / (b^N N!)
            n = len(powers) - 1
            weights = [b**n * factorial(n)]
            for k in range(1, n + 1):
                weights.append(weights[-1] * -a // (b * k))
            acc = {}
            for w, p in zip(weights, powers):
                add_into(acc, ((m, w * c) for m, c in p.items()))
            for m, c in acc.items():
                mono = tuple(row[e] for at, row in slots if (e := m >> at & mask))
                j = m & mask
                out.setdefault(-j, {})[mono + rest] = rat(c, den * weights[0] << j)
        return out


def quantization_S(t, level_cap):
    return QuantizedS(t, level_cap)
