"""The weight-graded ring Q[E2, E4, E6] and its q-expansion side.

QMPolynomial is the symbolic representation of correlation functions: a
map from exponent triples (a, b, c) <-> E2^a E4^b E6^c to rational
coefficients; the weight is read off the terms (2a + 4b + 6c when every
monomial agrees on it).  The Ramanujan identities make the ring
closed under the primed derivative, and `quasimodularize` inverts
q-expansion: it fits a q-series to the weight-w monomial basis by an exact
linear solve and verifies the fit on every remaining coefficient.
"""

from functools import lru_cache
from types import MappingProxyType

from ._backend import exp_mul_dict
from .errors import InsufficientOrder, InvalidSeries, NotQuasiModular
from .rational import ONE, ZERO, rat
from .series import THETA_Q, PowerSeries


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
    """sigma_power(n) for n = 1..order, by sieving over divisors."""
    sums = [ZERO] * (order + 1)
    for d in range(1, order + 1):
        dp = rat(d) ** power
        for m in range(d, order + 1, d):
            sums[m] += dp
    return sums


@lru_cache(maxsize=None)
def eisenstein(k, order):
    """E_k(q) = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, truncated at `order`."""
    if k < 2 or k % 2:
        raise InvalidSeries("Eisenstein weight must be a positive even integer")
    factor = rat(2 * k) / bernoulli(k)
    sums = _divisor_power_sums(k - 1, order)
    coeffs = [ONE] + [-factor * sums[n] for n in range(1, order + 1)]
    return PowerSeries("q", coeffs)


def euler_function(order):
    """prod_{n=1}^{order} (1 - q^n), truncated at `order`."""
    out = PowerSeries.one("q", order)
    for n in range(1, order + 1):
        out = out * (
            PowerSeries.one("q", order)
            - PowerSeries.monomial("q", n, ONE, order)
        )
    return out


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
    def __add__(self, other):
        if not isinstance(other, QMPolynomial):
            other = QMPolynomial.constant(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QMPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QMPolynomial._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QMPolynomial):
            other = QMPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QMPolynomial):
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


def ramanujan_derive(p):
    """The derivation with E2'=(E2^2-E4)/12, E4'=(E2E4-E6)/3, E6'=(E2E6-E4^2)/2.

    Raises the weight by 2; kills constants.
    """
    de2 = (E2 * E2 - E4) / 12
    de4 = (E2 * E4 - E6) / 3
    de6 = (E2 * E6 - E4 * E4) / 2
    out = QMPolynomial.zero()
    for (a, b, c), v in p.terms.items():
        base = {(a, b, c): v}

        def times(monomial_delta, deriv, exponent):
            if not exponent:
                return None
            shifted = {
                (
                    k[0] + monomial_delta[0],
                    k[1] + monomial_delta[1],
                    k[2] + monomial_delta[2],
                ): cv * exponent
                for k, cv in base.items()
            }
            return QMPolynomial(shifted) * deriv

        for piece in (
            times((-1, 0, 0), de2, a),
            times((0, -1, 0), de4, b),
            times((0, 0, -1), de6, c),
        ):
            if piece is not None:
                out = out + piece
    return out


def qm_eval(p, order, gens=None):
    """Expand p by substituting series for the generators.

    By default the Eisenstein q-expansions at the given order; passing
    `gens = (g2, g4, g6)` reuses the same substitution machinery for other
    frames (the Cayley images in s, for instance).
    """
    if gens is None:
        gens = (eisenstein(2, order), eisenstein(4, order), eisenstein(6, order))
    g2, g4, g6 = gens
    var = g2.var
    out = PowerSeries.zero(var, order)
    if not p.terms:
        return out
    pow_cache = {}

    def power(gen, tag, e):
        key = (tag, e)
        if key not in pow_cache:
            pow_cache[key] = gen ** e
        return pow_cache[key]

    for (a, b, c), v in p.sorted_terms():
        term = PowerSeries.constant(var, v, order)
        if a:
            term = term * power(g2, 2, a)
        if b:
            term = term * power(g4, 4, b)
        if c:
            term = term * power(g6, 6, c)
        out = out + term
    return out


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


def _solve_exact(matrix, rhs):
    """Gaussian elimination over the rationals; returns None if singular."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def quasimodularize(f, w, margin=10):
    """Fit a q-series to the weight-w basis {E2^a E4^b E6^c : 2a+4b+6c=w}.

    The first dim-many coefficients determine the candidate by an exact
    linear solve; all remaining available coefficients must then match
    (at least `margin` of them, so membership is distinguished from an
    underdetermined fit).
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
    expansions = [
        qm_eval(QMPolynomial({key: ONE}), f.order) for key in basis
    ]
    matrix = [
        [expansions[j].coefficient(i) for j in range(dim)] for i in range(dim)
    ]
    rhs = [f.coefficient(i) for i in range(dim)]
    solution = _solve_exact(matrix, rhs)
    if solution is None:
        raise NotQuasiModular(
            f"weight-{w} basis expansions became singular (internal error)"
        )
    candidate = QMPolynomial(
        {key: c for key, c in zip(basis, solution)}, weight=w
    )
    # verify on everything past the determining block
    for i in range(dim, f.order + 1):
        acc = ZERO
        for j, c in enumerate(solution):
            if c:
                acc += c * expansions[j].coefficient(i)
        if acc != f.coefficient(i):
            raise NotQuasiModular(
                f"residual at q^{i}: fit gives {acc}, series has "
                f"{f.coefficient(i)} (weight {w})"
            )
    return candidate


@lru_cache(maxsize=None)
def reduce_e2k(k, margin=10):
    """E_k (k >= 4 even) expressed in the generators; always E2-free."""
    if k < 4 or k % 2:
        raise InvalidSeries("reduce_e2k needs an even weight >= 4")
    dim = len(weight_basis(k))
    p = quasimodularize(eisenstein(k, dim + margin), k, margin=margin)
    if p.max_e2_exponent() != 0:
        raise NotQuasiModular(
            f"E_{k} reduction unexpectedly involves E2 (internal error)"
        )
    return p


def theta_q(f):
    """Shorthand for the q d/dq derivative of a q-series."""
    return f.derive(THETA_Q)
