"""The weight-graded ring Q[E2, E4, E6] and its q-expansion side.

QMPolynomial is the symbolic representation of correlation functions: a
map from exponent triples (a, b, c) <-> E2^a E4^b E6^c to rational
coefficients, held as integer numerators over one denominator (the
content layout of FLINT's fmpq_mpoly), so products, sums and derivations
run on ints and the Fraction coefficients are only a view; the weight is
read off the terms (2a + 4b + 6c when every monomial agrees on it).  The
Ramanujan identities make the ring closed under the primed derivative, and
`quasimodularize` inverts q-expansion: it fits a q-series to the weight-w
monomial basis and verifies the fit on every remaining coefficient.  E2,
E4 and E6 have integer q-coefficients, so the basis expansions are tuples
of ints (`monomial_ints`), the fit is one fraction-free (Bareiss) integer
solve whose pair (y, det) is the polynomial's layout, and `qm_eval` on
the Eisenstein frame runs on the same columns.  Each column is grown in
place (the online evaluation of van der Hoeven, "Relax, but don't be too
lazy", J. Symbolic Comput. 34 (2002) 479-542): a higher q-order computes
only the coefficients it lacks, and each order is a prefix of it.
"""

from functools import lru_cache
from math import gcd, lcm
from numbers import Number
from types import MappingProxyType

from ._backend import Frozen, add_into, conv_ints, conv_trunc, exp_mul_dict
from .errors import InsufficientOrder, InvalidSeries, NotQuasiModular
from .rational import ONE, ZERO, from_ints, rat, scaled_ints
from .series import THETA_Q, PowerSeries

_set = object.__setattr__


@lru_cache(maxsize=None)
def _tangent_numbers(n):
    """(T_1, ..., T_n), tan x = sum_k T_k x^(2k-1)/(2k-1)!, by the integer
    algorithm of Brent and Harvey (arXiv:1108.0286, Algorithm
    TangentNumbers): n^2/2 steps, each two small multiples of ints."""
    t = [1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[-1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j - 1] = (j - k) * t[j - 2] + (j - k + 2) * t[j - 1]
    return tuple(t)


@lru_cache(maxsize=None)
def bernoulli(n):
    """Bernoulli number B_n in the x/(e^x - 1) convention (B_1 = -1/2).

    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) is read off the integer
    tangent numbers T_k, whose table is built on first use at a power of
    two (at least 16 entries), so a larger n rebuilds it at most once per
    doubling; each B_{2k} is wrapped once.
    """
    if n < 0:
        raise ValueError(f"no Bernoulli number B_{n}")
    if n < 2:
        return ONE if n == 0 else rat(-1, 2)
    if n % 2:
        return ZERO
    k = n // 2
    t = _tangent_numbers(max(16, 1 << (k - 1).bit_length()))[k - 1]
    return rat((-1) ** (k - 1) * n * t, 4**k * (4**k - 1))


def _divisor_power_sums(power, order, lo=0):
    """sigma_power(n) for n = lo..order as ints, at index n - lo (sigma(0)
    = 0), by sieving the multiples of each divisor from lo on."""
    sums = [0] * (order + 1 - lo)
    for d in range(1, order + 1):
        dp = d**power
        for m in range(max(d, -(-lo // d) * d), order + 1, d):
            sums[m - lo] += dp
    return sums


def _check_order(order):
    """InvalidSeries for a negative q-order: no expansion stops below q^0."""
    if order < 0:
        raise InvalidSeries(f"cannot expand to the negative order {order}")


@lru_cache(maxsize=None)
def eisenstein(k, order):
    """E_k(q) = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, truncated at `order`."""
    if k < 2 or k % 2:
        raise InvalidSeries("Eisenstein weight must be a positive even integer")
    _check_order(order)
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
    _check_order(order)
    return PowerSeries("q", euler_coefficients(order))


def _exponents(key):
    """`key` as a tuple of three ints >= 0, or InvalidSeries naming it."""
    if not isinstance(key, tuple) or len(key) != 3 or not all(
        type(e) is int and e >= 0 for e in key
    ):
        raise InvalidSeries(f"exponent key {key!r} is not three ints >= 0")
    return tuple(key)


class QMPolynomial(Frozen):
    """Polynomial in the generators E2, E4, E6 over the rationals.

    Stored in the content layout of FLINT's fmpq_mpoly: ``nums``, a
    read-only map from exponent triples to nonzero ints, over one
    denominator ``den > 0``, normalised so that gcd(den, *nums) == 1.
    That form is canonical, so equality and hashing read (nums, den).  A
    product is one ``exp_mul_dict`` on ints over den1 * den2, a sum
    rescales both sides to the lcm of their denominators, a scalar acts
    on the ints and multiplies den by its own denominator; each result is
    normalised once.

    ``terms``, the reduced Fraction of each monomial, is the public
    read-only view: it is built on first read and kept.  The weight is
    read off the keys.  Public construction checks every key and coerces
    every coefficient through ``rat``; ring results are built by
    ``_from_ints`` and skip both.  Values are immutable.
    """

    __slots__ = ("nums", "den", "_terms")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                key = _exponents(key)
                c = rat(c)
                if c:
                    clean[key] = c
        nums, den = scaled_ints(list(clean.values()))
        self._fill(dict(zip(clean, nums)), den)

    def _fill(self, nums, den):
        """Set the slots to nums/den divided by gcd(den, *nums)."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        _set(self, "nums", MappingProxyType(nums))
        _set(self, "den", den)
        return self

    @classmethod
    def _from_ints(cls, nums, den=1):
        """nums/den for a dict of exponent triples and nonzero ints and an
        int den > 0, normalised; `nums` is not copied unless reduced."""
        return object.__new__(cls)._fill(nums, den)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._from_ints({})

    @classmethod
    def constant(cls, value):
        return cls({(0, 0, 0): value})

    # -- queries -------------------------------------------------------------
    @property
    def terms(self):
        """{(a, b, c): reduced Fraction}, read-only, built once."""
        try:
            return self._terms
        except AttributeError:
            nums = self.nums
            view = MappingProxyType(
                dict(zip(nums, from_ints(nums.values(), self.den)))
            )
            _set(self, "_terms", view)
            return view

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self):
        return not self.nums

    def coefficient(self, a, b, c):
        return self.terms.get((a, b, c), ZERO)

    @property
    def weight(self):
        """The common 2a + 4b + 6c of the monomials, or None if zero/mixed."""
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.nums}
        if len(weights) == 1:
            return weights.pop()
        return None

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, QMPolynomial):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
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
            if not isinstance(other, Number):
                return NotImplemented
            other = QMPolynomial.constant(other)
        if len(self.nums) < len(other.nums):
            self, other = other, self  # loop over the shorter one
        if not other.nums:
            return self
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums, pairs = self.nums, other.nums.items()
        out = {k: v * sa for k, v in nums.items()} if sa > 1 else dict(nums)
        add_into(out, ((k, v * sb) for k, v in pairs) if sb > 1 else pairs)
        return QMPolynomial._from_ints(out, den)

    __radd__ = __add__

    def __neg__(self):
        return QMPolynomial._from_ints(
            {k: -v for k, v in self.nums.items()}, self.den
        )

    def __sub__(self, other):
        if not isinstance(other, QMPolynomial):
            if not isinstance(other, Number):
                return NotImplemented
            other = QMPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QMPolynomial):
            return QMPolynomial._from_ints(
                exp_mul_dict(self.nums, other.nums), self.den * other.den
            )
        if type(other) is int:
            num, den = other, 1
        elif isinstance(other, Number):
            c = rat(other)
            num, den = c.numerator, c.denominator
        else:
            return NotImplemented
        if not num:
            return QMPolynomial.zero()
        return QMPolynomial._from_ints(
            {k: num * v for k, v in self.nums.items()}, self.den * den
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (ONE / rat(scalar))

    def __rtruediv__(self, scalar):
        """scalar / self; only the nonzero rational constants are units."""
        if set(self.nums) != {(0, 0, 0)}:
            raise InvalidSeries(
                "only a nonzero rational constant generator polynomial is invertible"
            )
        return QMPolynomial.constant(rat(scalar) / self.terms[(0, 0, 0)])

    def __pow__(self, n):
        if n < 0:
            raise InvalidSeries("no negative power of a generator polynomial")
        out = QMPolynomial._from_ints({(0, 0, 0): 1})
        for _ in range(n):
            out = out * self
        return out


E2 = QMPolynomial({(1, 0, 0): 1})
E4 = QMPolynomial({(0, 1, 0): 1})
E6 = QMPolynomial({(0, 0, 1): 1})


#: per generator slot, 12 times the derivative of that generator
_RAMANUJAN_IMAGES = (
    {(2, 0, 0): 1, (0, 1, 0): -1},
    {(1, 1, 0): 4, (0, 0, 1): -4},
    {(1, 0, 1): 6, (0, 2, 0): -6},
)


def ramanujan_derive(p):
    """The derivation with E2'=(E2^2-E4)/12, E4'=(E2E4-E6)/3, E6'=(E2E6-E4^2)/2.

    Raises the weight by 2; kills constants.  Runs on p's ints against
    the images scaled by 12, over 12 den.
    """
    out = {}
    for slot, image in enumerate(_RAMANUJAN_IMAGES):
        # d/d(generator) of every term, by the power rule
        lowered = {
            key[:slot] + (key[slot] - 1,) + key[slot + 1 :]: v * key[slot]
            for key, v in p.nums.items()
            if key[slot]
        }
        add_into(out, exp_mul_dict(lowered, image).items())
    return QMPolynomial._from_ints(out, 12 * p.den)


def qm_eval(p, order, gens=None):
    """Expand p by substituting series for the generators.

    By default the Eisenstein q-expansions at the given order; passing
    `gens = (g2, g4, g6)` substitutes any other frame (the Cayley images
    in s, for instance).  This is the one substitution routine.  Both
    routes run Horner in the first generator over the columns
    g4^b g6^c: one step per unit of p's largest E2 exponent, an empty
    row included.

    On the Eisenstein frame every column has integer coefficients, so
    the expansion is one integer computation, in the layout of FLINT's
    fmpq_poly: p's coefficients are scaled to ints U over their least
    common denominator D, each Horner step convolves ints with E2, each
    term adds U times the column `monomial_ints((0, b, c), order)` (the
    cached expansions `quasimodularize` fits on), and each coefficient
    is wrapped once over D.

    With `gens`, Horner runs on series: each column is one product of a
    cached predecessor (`_column`, shared across calls per generator
    pair), and scaling by a coefficient is termwise.
    """
    _check_order(order)
    if gens is None:
        return _eval_eisenstein(p, order)
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


def _eval_eisenstein(p, order):
    """qm_eval on the Eisenstein frame, on p's ints over its denominator."""
    rows = {}
    for (a, b, c), u in p.nums.items():
        rows.setdefault(a, []).append(((0, b, c), u))
    e2 = monomial_ints((1, 0, 0), order)
    top = max(rows, default=0)
    out = [0] * (order + 1)
    for a in range(top, -1, -1):
        if a < top:
            out = conv_trunc(out, e2, order, 0)
        for key, u in rows.get(a, ()):
            out = [x + u * y for x, y in zip(out, monomial_ints(key, order))]
    return PowerSeries("q", from_ints(out, p.den))


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
    """q-coefficients 0..order of E2^a E4^b E6^c, key = (a, b, c), as ints:
    a prefix of the key's grown column (`_column_ints`)."""
    if not any(key):
        return (1,) + (0,) * order
    return _column_ints(key, order)[: order + 1]


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=None)
def _columns():
    """{key: the longest q-column of E2^a E4^b E6^c built so far}.  Reached
    through an lru_cache, so clearing every lru_cache of the package
    empties it."""
    return {}


def _column_ints(key, order):
    """The grown column of key != (0, 0, 0), holding at least coefficients
    0..order.

    E2, E4 and E6 have integer coefficients (1, then -24, 240 or -504
    times sigma_{2 slot + 1}(n)), so every monomial does: it is the key
    with its last nonzero exponent lowered times that generator.  A
    column shorter than order + 1 is extended by its missing
    coefficients alone, from the grown predecessor, and the longer tuple
    replaces it, so a served tuple never changes; two threads growing
    one column at once compute the same coefficients.
    """
    store = _columns()
    have = store.get(key, ())
    lo = len(have)
    if lo > order:
        return have
    slot = max(i for i, e in enumerate(key) if e)
    prev = key[:slot] + (key[slot] - 1,) + key[slot + 1 :]
    if any(prev):
        gen = _column_ints(_UNITS[slot], order)
        tail = conv_ints(_column_ints(prev, order), gen, lo, order)
    else:
        factor = (-24, 240, -504)[slot]
        sums = _divisor_power_sums(2 * slot + 1, order, lo)
        tail = [factor * s if n else 1 for n, s in enumerate(sums, lo)]
    have = store[key] = have + tuple(tail)
    return have


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


def quasimodularize(f, w, margin=10, basis=None):
    """Fit a q-series to the weight-w basis {E2^a E4^b E6^c : 2a+4b+6c=w}.

    The first dim-many coefficients determine the candidate by an exact
    fraction-free solve against the integer basis expansions; all
    remaining available coefficients must then match (at least `margin`
    of them, so membership is distinguished from an underdetermined fit).
    `basis`, a subset of those monomials, fits on it alone.
    """
    if basis is None:
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
    if den < 0:
        nums, den = [-y for y in nums], -den
    return QMPolynomial._from_ints(
        {key: y for key, y in zip(basis, nums) if y}, den
    )


@lru_cache(maxsize=None)
def reduce_e2k(k):
    """E_k (k >= 4 even) in E4 and E6: E_k is modular, so it is fitted at
    margin 10 on the monomials E4^b E6^c of weight k alone."""
    if k < 4 or k % 2:
        raise InvalidSeries("reduce_e2k needs an even weight >= 4")
    basis = tuple(key for key in weight_basis(k) if not key[0])
    return quasimodularize(eisenstein(k, len(basis) + 10), k, basis=basis)


def theta_q(f):
    """Shorthand for the q d/dq derivative of a q-series."""
    return f.derive(THETA_Q)
