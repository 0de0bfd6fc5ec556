"""The weight-graded ring Q[E2, E4, E6] and its q-expansion side.

QMPolynomial is the symbolic representation of correlation functions: a
map from exponent triples (a, b, c) <-> E2^a E4^b E6^c to rational
coefficients; the weight is read off the terms (2a + 4b + 6c when every
monomial agrees on it).  The Ramanujan identities make the ring
closed under the primed derivative, and `quasimodularize` inverts
q-expansion: it fits a q-series to the weight-w monomial basis and verifies
the fit on every remaining coefficient.  E2, E4 and E6 have integer
q-coefficients, so the basis expansions are cached tuples of ints
(`monomial_ints`) and the fit is one fraction-free (Bareiss) integer solve.
"""

from functools import lru_cache
from types import MappingProxyType

from ._backend import add_into, conv_trunc, exp_mul_dict
from .errors import InsufficientOrder, InvalidSeries, NotQuasiModular
from .rational import ONE, ZERO, rat, scaled_ints
from .series import _SCALARS, THETA_Q, PowerSeries


@lru_cache(maxsize=None)
def bernoulli(n):
    """Bernoulli number B_n in the x/(e^x - 1) convention (B_1 = -1/2)."""
    if n == 0:
        return ONE
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    from math import comb

    acc = ZERO
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _divisor_power_sums(power, order):
    """sigma_power(n) for n = 1..order as ints, by sieving over divisors."""
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d**power
        for m in range(d, order + 1, d):
            sums[m] += dp
    return sums


@lru_cache(maxsize=None)
def eisenstein(k, order):
    """E_k(q) = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, truncated at `order`."""
    if k < 2 or k % 2:
        raise InvalidSeries("Eisenstein weight must be a positive even integer")
    factor = -rat(2 * k) / bernoulli(k)
    sums = _divisor_power_sums(k - 1, order)
    coeffs = [ONE] + [factor * sums[n] for n in range(1, order + 1)]
    return PowerSeries("q", coeffs)


def euler_coefficients(order):
    """Integer coefficients 0..order of prod_{n>=1} (1 - q^n)."""
    out = [1] + [0] * order
    for n in range(1, order + 1):
        for i in range(order, n - 1, -1):
            out[i] -= out[i - n]
    return out


def euler_function(order):
    """prod_{n=1}^{order} (1 - q^n), truncated at `order`."""
    return PowerSeries("q", euler_coefficients(order))


class QMPolynomial:
    """Polynomial in the generators E2, E4, E6 over the rationals.

    ``terms`` is a read-only mapping, so a cached value cannot be changed
    by a caller; the weight is read off the terms.  Public construction
    coerces every coefficient through ``rat``; results of ring operations
    are built by ``_of`` and skip that pass, as ``PowerSeries._like`` does.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None, weight=None):
        """`weight`, when given, is asserted for a nonzero polynomial."""
        clean = {}
        if terms:
            for key, c in terms.items():
                c = rat(c)
                if c:
                    clean[tuple(key)] = c
        self.terms = MappingProxyType(clean)
        if weight is not None and clean and self.weight != weight:
            raise InvalidSeries(f"{self!r} is not of declared weight {weight}")

    @classmethod
    def _of(cls, clean):
        """Wrap a dict of tuple keys and nonzero rationals; no copy, no rat."""
        out = object.__new__(cls)
        out.terms = MappingProxyType(clean)
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def constant(cls, value):
        return cls({(0, 0, 0): value})

    @classmethod
    def e2(cls):
        return cls({(1, 0, 0): ONE})

    @classmethod
    def e4(cls):
        return cls({(0, 1, 0): ONE})

    @classmethod
    def e6(cls):
        return cls({(0, 0, 1): ONE})

    # -- queries -------------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0, 0, 0)}

    def constant_value(self):
        return self.terms.get((0, 0, 0), ZERO)

    def coefficient(self, a, b, c):
        return self.terms.get((a, b, c), ZERO)

    @property
    def weight(self):
        """The common 2a + 4b + 6c of the monomials, or None if zero/mixed."""
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def max_e2_exponent(self):
        return max((k[0] for k in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, QMPolynomial):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "QM<0>"
        bits = []
        for (a, b, c), v in self.sorted_terms():
            mono = "".join(
                f"{g}^{e}" for g, e in (("E2", a), ("E4", b), ("E6", c)) if e
            )
            bits.append(f"{v}*{mono}" if mono else f"{v}")
        return "QM<" + " + ".join(bits) + ">"

    # -- ring operations -----------------------------------------------------
    # An operand that is neither a QMPolynomial nor a rational scalar is
    # left to its own reflected method (PowerSeries.__rmul__, ...).
    def __add__(self, other):
        if not isinstance(other, QMPolynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = QMPolynomial.constant(other)
        out = add_into(dict(self.terms), other.terms.items())
        return QMPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QMPolynomial._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QMPolynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = QMPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QMPolynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            c = rat(other)
            if not c:
                return QMPolynomial.zero()
            return QMPolynomial._of({k: c * v for k, v in self.terms.items()})
        return QMPolynomial._of(exp_mul_dict(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (ONE / rat(scalar))

    def __rtruediv__(self, scalar):
        """scalar / self; only the nonzero rational constants are units."""
        if not self.is_constant() or self.is_zero():
            raise InvalidSeries(
                "only a nonzero rational constant generator polynomial is invertible"
            )
        return QMPolynomial.constant(rat(scalar) / self.constant_value())

    def __pow__(self, n):
        if n < 0:
            return (1 / self) ** -n
        out = QMPolynomial.constant(ONE)
        for _ in range(n):
            out = out * self
        return out


E2 = QMPolynomial.e2()
E4 = QMPolynomial.e4()
E6 = QMPolynomial.e6()


#: per generator slot, the derivative of that generator as a term dict
_RAMANUJAN_IMAGES = (
    {(2, 0, 0): rat(1, 12), (0, 1, 0): rat(-1, 12)},
    {(1, 1, 0): rat(1, 3), (0, 0, 1): rat(-1, 3)},
    {(1, 0, 1): rat(1, 2), (0, 2, 0): rat(-1, 2)},
)


def ramanujan_derive(p):
    """The derivation with E2'=(E2^2-E4)/12, E4'=(E2E4-E6)/3, E6'=(E2E6-E4^2)/2.

    Raises the weight by 2; kills constants.
    """
    out = {}
    for slot, image in enumerate(_RAMANUJAN_IMAGES):
        # d/d(generator) of every term, by the power rule
        lowered = {
            key[:slot] + (key[slot] - 1,) + key[slot + 1 :]: v * key[slot]
            for key, v in p.terms.items()
            if key[slot]
        }
        add_into(out, exp_mul_dict(lowered, image).items())
    return QMPolynomial._of(out)


def qm_eval(p, order, gens=None):
    """Expand p by substituting series for the generators.

    By default the Eisenstein q-expansions at the given order; passing
    `gens = (g2, g4, g6)` substitutes any other frame (the Cayley images
    in s, for instance).  This is the one substitution routine.

    Horner in g2 over the columns g4^b g6^c: one product per unit of
    p's largest E2 exponent, an empty row included.  Each column is one
    product of a cached predecessor (`_column`, shared across calls per
    generator pair), so an evaluation also costs one product per column
    not cached yet; scaling by a coefficient is termwise.
    """
    if gens is None:
        gens = (eisenstein(2, order), eisenstein(4, order), eisenstein(6, order))
    x2, x4, x6 = gens
    if not p.terms:
        return PowerSeries.zero(x2.var, order)
    one = PowerSeries.one(x2.var, order)
    rows = {}
    for (a, b, c), v in sorted(p.terms.items()):
        rows.setdefault(a, []).append((b, c, v))
    pair = _GeneratorPair(x4, x6)
    out = None
    for a in range(max(rows), -1, -1):
        if out is not None:
            out = out * x2
        for b, c, v in rows.get(a, ()):
            term = (_column(pair, b, c) if b or c else one) * v
            out = term if out is None else out + term
    return out.truncate(order)


class _GeneratorPair:
    """(g4, g6) as a cache key, hashed once and equal only to an identical
    pair: each series is keyed by its variable, start and coefficient
    tuple, since PowerSeries equality ignores a leading-zero shift of
    start.
    """

    __slots__ = ("x4", "x6", "_key", "_hash")

    def __init__(self, x4, x6):
        self.x4 = x4
        self.x6 = x6
        self._key = tuple((x.var, x.start, x.coeffs) for x in (x4, x6))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return self._key == other._key

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=None)
def _column(pair, b, c):
    """g4^b g6^c for (b, c) != (0, 0): (b, c-1) g6, or (b-1, 0) g4 if c = 0."""
    prev, gen = ((b, c - 1), pair.x6) if c else ((b - 1, 0), pair.x4)
    return _column(pair, *prev) * gen if any(prev) else gen


@lru_cache(maxsize=None)
def weight_basis(w):
    """All (a, b, c) with 2a + 4b + 6c = w, in lexicographic order."""
    if w < 0 or w % 2:
        return ()
    out = []
    for c in range(w // 6 + 1):
        for b in range((w - 6 * c) // 4 + 1):
            rest = w - 6 * c - 4 * b
            out.append((rest // 2, b, c))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def monomial_ints(key, order):
    """q-coefficients 0..order of E2^a E4^b E6^c, key = (a, b, c), as ints.

    E2, E4 and E6 have integer coefficients, so every monomial does; each
    is one convolution of a cached predecessor (the key with its last
    nonzero exponent lowered) with its generator.
    """
    slot = max((i for i, e in enumerate(key) if e), default=None)
    if slot is None:
        return (1,) + (0,) * order
    prev = monomial_ints(key[:slot] + (key[slot] - 1,) + key[slot + 1 :], order)
    return tuple(conv_trunc(prev, _generator_ints(slot, order), order, 0))


@lru_cache(maxsize=None)
def _generator_ints(slot, order):
    """q-coefficients 0..order of E2, E4 or E6 (slot 0, 1, 2) as ints:
    1, then -24, 240 or -504 times sigma_{2 slot + 1}(n)."""
    sums = _divisor_power_sums(2 * slot + 1, order)
    return (1,) + tuple((-24, 240, -504)[slot] * s for s in sums[1:])


def _solve_fraction_free(matrix, rhs):
    """Solve matrix . x = rhs for a square integer matrix and rational rhs.

    Bareiss elimination (Math. Comp. 22 (1968) 565-578) keeps every entry
    an integer; one fraction-free back substitution then gives the
    integers y = den * x.  Returns (y, den), or None if the matrix is
    singular.
    """
    n = len(matrix)
    nums, scale = scaled_ints(rhs)
    m = [list(row) + [r] for row, r in zip(matrix, nums)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        pk = top[k]
        for i in range(k + 1, n):
            row = m[i]
            rk = row[k]
            m[i] = [(pk * x - rk * t) // prev for x, t in zip(row, top)]
        prev = pk
    # the last pivot is +-det, so y = det * x is integral (Cramer)
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return y, prev * scale


def quasimodularize(f, w, margin=10):
    """Fit a q-series to the weight-w basis {E2^a E4^b E6^c : 2a+4b+6c=w}.

    The first dim-many coefficients determine the candidate by an exact
    fraction-free solve against the integer basis expansions; all
    remaining available coefficients must then match (at least `margin`
    of them, so membership is distinguished from an underdetermined fit).
    """
    basis = weight_basis(w)
    if not basis:
        raise NotQuasiModular(f"no monomials exist at weight {w}")
    dim = len(basis)
    needed = dim + margin - 1
    if f.order < needed:
        raise InsufficientOrder(
            f"need q-order >= {needed} to fit and verify weight {w} "
            f"(got {f.order})",
            required=needed,
        )
    columns = [monomial_ints(key, f.order) for key in basis]
    solved = _solve_fraction_free(
        [[col[i] for col in columns] for i in range(dim)],
        [f.coefficient(i) for i in range(dim)],
    )
    if solved is None:
        raise NotQuasiModular(
            f"weight-{w} basis expansions became singular (internal error)"
        )
    nums, den = solved
    # verify on everything past the determining block: fit = acc / den
    for i in range(dim, f.order + 1):
        acc = sum(y * col[i] for y, col in zip(nums, columns) if y)
        have = f.coefficient(i)
        if acc * have.denominator != den * have.numerator:
            raise NotQuasiModular(
                f"residual at q^{i}: fit gives {rat(acc, den)}, series has "
                f"{have} (weight {w})"
            )
    return QMPolynomial(
        {key: rat(y, den) for key, y in zip(basis, nums)}, weight=w
    )


@lru_cache(maxsize=None)
def reduce_e2k(k):
    """E_k (k >= 4 even) in the generators, fitted at margin 10; E2-free."""
    if k < 4 or k % 2:
        raise InvalidSeries("reduce_e2k needs an even weight >= 4")
    dim = len(weight_basis(k))
    p = quasimodularize(eisenstein(k, dim + 10), k)
    if p.max_e2_exponent() != 0:
        raise NotQuasiModular(
            f"E_{k} reduction unexpectedly involves E2 (internal error)"
        )
    return p


def theta_q(f):
    """Shorthand for the q d/dq derivative of a q-series."""
    return f.derive(THETA_Q)
