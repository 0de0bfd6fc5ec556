"""Truncated formal power and Laurent series in one tagged variable.

A :class:`PowerSeries` stores the coefficients of the exponents
``start..order`` densely, ``coeffs[i]`` multiplying ``var^(start + i)``;
everything above ``order`` is unknown, ``O(var^(order + 1))``.  Every
series built as a power series has ``start == 0``; a Laurent series may
start below 0.  Leading zero coefficients are kept, so a zero series keeps
the precision it was computed to.

Coefficients are exact rationals or elements of another commutative ring
whose type provides ``zero()``, such as the generator polynomials of
:mod:`qmgw.modular`.  Arithmetic never extends a truncation: a sum is
known to the smaller of the two orders, and a product to
``min(N_a + s_b, N_b + s_a)`` for orders ``N`` and starts ``s``.  Variable
tags are enforced at runtime so q-frame and s-frame objects cannot be
mixed by accident.

A product of two series over Q (both zeros are the rational zero) runs
over ZZ, in the layout of FLINT's fmpq_poly: each factor is scaled to
integers over its least common denominator, f = F/D_f and g = G/D_g, the
two integer lists are convolved, and each coefficient of F*G is wrapped
once as a Fraction over D_f * D_g (with no gcd when that is 1).  This is
the Horner step of `modular.qm_eval` on the Cayley frame, the frame
itself and the residuals of chazy and bp.  Any other pair, one with
generator-polynomial coefficients for instance, is convolved over its
coefficients' own ring.

The reciprocal and exp are one recurrence each, run by one loop over
every ring; the rings differ only in how the operand is scaled in and the
results wrapped out.  Over Q the operand is scaled to integers over its
least common denominator, a = A/D (the layout of FLINT's fmpq_poly), the
loop runs on Python ints with the powers of the denominator carried
exactly, and each result coefficient is wrapped once.  Over any other
ring, such as the generator polynomials, it runs on the coefficients:

    reciprocal  R_0 = 1,  R_k = -sum_{i=1}^{k} b_i R_{k-i},
                over Q  b_i = A_i A_0^(i-1),  r_k = D R_k / A_0^(k+1),
                else    b_i = a_i / a_0,      r_k = R_k / a_0;
    exp         O_0 = 1,  O_k = sum_{i=1}^{k} c_i (k-1)!/(k-i)! O_{k-i},
                over Q  c_i = i A_i D^(i-1),  e_k = O_k / (k! D^k),
                else    c_i = i a_i,          e_k = O_k / k!.

compose takes series over Q only.  With inner = I/E it runs Horner from
the top on ints, S_n = A_n, S_k = A_k E^(n-k) + S_{k+1} (I/var), and
self(inner) = S_0 / (D E^n).

Values are immutable after construction and safe to share across threads.
"""

from math import factorial
from numbers import Number

from .errors import InsufficientOrder, InvalidSeries, VariableMismatch
from .rational import ONE, ZERO, from_ints, rat, scaled_ints
from ._backend import Frozen, conv_trunc

VARIABLES = ("q", "s", "t", "x", "z")

THETA_Q = "theta_q"  # q * d/dq
D_DS = "d_ds"  # plain d/ds

_set = object.__setattr__


def _check_tag(var):
    if var not in VARIABLES:
        raise InvalidSeries(f"unknown variable tag {var!r}")


def _ring_of(c):
    """The type of a coefficient that is not a number: a ring with
    ``zero()``, such as the generator polynomials."""
    if not callable(getattr(type(c), "zero", None)):
        raise InvalidSeries(
            f"{c!r} is neither a number nor an element of a ring with zero()"
        )
    return type(c)


def _scaled(f, coeffs):
    """(nums, den) for `coeffs`, some of f's, if f is over Q; else None."""
    return scaled_ints(coeffs) if f._zero is ZERO else None


def _product_ints(f, g):
    """(F, G, D) with f * g = (F * G) / D on int lists, if f and g are over
    Q: F/D_f and G/D_g scaled to their least common denominators, and
    D = D_f * D_g.  Else None."""
    a, b = _scaled(f, f.coeffs), _scaled(g, g.coeffs)
    if a is None or b is None:
        return None
    return a[0], b[0], a[1] * b[1]


def _powers(x, n):
    """[x^0, x^1, ..., x^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _reciprocal_loop(b, zero):
    """R_0 = 1, R_k = -sum_{i=1}^{k} b_i R_{k-i} for k < len(b)."""
    out = [zero + 1]
    for k in range(1, len(b)):
        acc = zero
        for i in range(1, k + 1):
            bi = b[i]
            if bi:
                acc += bi * out[k - i]
        out.append(-acc)
    return out


def _exp_loop(c, zero):
    """O_0 = 1, O_k = sum_{i=1}^{k} c_i (k-1)!/(k-i)! O_{k-i} for k < len(c)."""
    out = [zero + 1]
    for k in range(1, len(c)):
        acc = zero
        falling = 1  # (k-1)!/(k-i)!
        for i in range(1, k + 1):
            ci = c[i]
            if ci:
                acc += ci * falling * out[k - i]
            falling *= k - i
        out.append(acc)
    return out


class PowerSeries(Frozen):
    """Σ_{n=start}^{order} c_n var^n + O(var^(order+1))."""

    __slots__ = ("var", "coeffs", "start", "order", "_zero")

    def __init__(self, var, coeffs, start=0):
        _check_tag(var)
        coeffs = tuple(coeffs)
        if not coeffs:
            raise InvalidSeries("a truncated series needs at least one coefficient")
        if isinstance(coeffs[0], Number):
            coeffs = tuple(rat(c) for c in coeffs)
            zero = ZERO
        else:
            zero = _ring_of(coeffs[0]).zero()
        self._fill(var, coeffs, start, zero)

    def _fill(self, var, coeffs, start, zero):
        _set(self, "var", var)
        _set(self, "coeffs", coeffs)
        _set(self, "start", start)
        _set(self, "order", start + len(coeffs) - 1)
        _set(self, "_zero", zero)

    def _like(self, coeffs, start, var=None):
        """A result over the same ring; coefficients are taken as they are."""
        out = object.__new__(PowerSeries)
        out._fill(var or self.var, tuple(coeffs), start, self._zero)
        return out

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, var, order):
        return cls(var, [ZERO] * (order + 1))

    @classmethod
    def one(cls, var, order):
        return cls.constant(var, ONE, order)

    @classmethod
    def constant(cls, var, value, order):
        return cls(var, [rat(value)] + [ZERO] * order)

    # -- basic queries ---------------------------------------------------
    def coefficient(self, n):
        """[var^n]: zero below start; past order it is unknown and raises."""
        i = n - self.start
        if i < 0:
            return self._zero
        if n > self.order:
            raise InsufficientOrder(
                f"[{self.var}^{n}] is unknown: the series is known to order "
                f"{self.order}",
                required=n,
            )
        return self.coeffs[i]

    def is_zero(self):
        return not any(self.coeffs)

    def valuation(self):
        """Exponent of the first nonzero coefficient; None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.start + i
        return None

    def truncate(self, order):
        if order >= self.order:
            return self
        if order < self.start:
            raise InvalidSeries(
                f"cannot truncate below the start exponent {self.start}"
            )
        return self._like(self.coeffs[: order - self.start + 1], self.start)

    def __eq__(self, other):
        """Same variable, same order and the same coefficients up to it."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        if self.start == other.start:
            return self.coeffs == other.coeffs
        return all(
            self.coefficient(n) == other.coefficient(n)
            for n in range(min(self.start, other.start), self.order + 1)
        )

    def __hash__(self):
        v = self.valuation()
        known = () if v is None else self.coeffs[v - self.start :]
        return hash((self.var, self.order, known))

    def __repr__(self):
        terms = [
            f"{c}*{self.var}^{n}"
            for n, c in enumerate(self.coeffs, self.start)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self.var}^{self.order + 1})>"

    def _check_var(self, other):
        if self.var != other.var:
            raise VariableMismatch(
                f"cannot combine series in {self.var!r} and {other.var!r}"
            )

    def _require_power_series(self, operation):
        if self.start:
            raise InvalidSeries(f"{operation} needs a series starting at exponent 0")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return self + PowerSeries.constant(self.var, other, self.order)
        self._check_var(other)
        if self.start == other.start:
            # zip stops at the shorter operand: the smaller order
            return self._like(
                [a + b for a, b in zip(self.coeffs, other.coeffs)], self.start
            )
        start = min(self.start, other.start)
        order = min(self.order, other.order)
        return self._like(
            [
                self.coefficient(n) + other.coefficient(n)
                for n in range(start, order + 1)
            ],
            start,
        )

    __radd__ = __add__

    def __neg__(self):
        return self._like([-c for c in self.coeffs], self.start)

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return self - PowerSeries.constant(self.var, other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a scalar or a series in the same variable.

        Two series over Q are convolved over ZZ, each scaled to its least
        common denominator and each result coefficient wrapped once over
        the product D of the two; any other pair over its coefficients'
        own ring.
        """
        if not isinstance(other, PowerSeries):
            if isinstance(other, Number):
                other = rat(other)
            else:
                _ring_of(other)
            return self._like([c * other for c in self.coeffs], self.start)
        self._check_var(other)
        start = self.start + other.start
        order = min(self.order + other.start, other.order + self.start)
        ints = _product_ints(self, other)
        if ints is None:
            out = conv_trunc(self.coeffs, other.coeffs, order - start, self._zero)
        else:
            a, b, den = ints
            out = conv_trunc(a, b, order - start, 0)
            out = from_ints(out, den)
        return self._like(out, start)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, PowerSeries):
            return self.divide(scalar)
        return self * (ONE / rat(scalar))

    def __pow__(self, k):
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            # the unit of the series' own ring
            return self._like([self._zero + 1] + [self._zero] * self.order, 0)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- inverse / transcendental ----------------------------------------
    def reciprocal(self):
        """1/self; the coefficient at the start exponent must be a unit.

        The result starts at -start and is known to order - 2*start.  One
        recurrence, R_k = -sum b_i R_{k-i}: over Q on ints, with
        b_i = A_i A_0^(i-1) and r_k = D R_k / A_0^(k+1) wrapped once; over
        any other ring with b_i = a_i / a_0 and r_k = R_k / a_0.
        """
        a = self.coeffs
        if not a[0]:
            raise InvalidSeries("reciprocal needs a unit leading coefficient")
        scaled = _scaled(self, a)
        if scaled is None:
            inv0 = ONE / a[0]
            out = _reciprocal_loop([ai * inv0 for ai in a], self._zero)
            return self._like([r * inv0 for r in out], -self.start)
        nums, den = scaled
        powers = _powers(nums[0], len(nums))  # A_0^k
        b = [ai * p for ai, p in zip(nums, [0] + powers)]
        out = _reciprocal_loop(b, 0)
        return self._like(
            [rat(den * r, p) for r, p in zip(out, powers[1:])], -self.start
        )

    def exp(self):
        """exp(self); requires zero constant term.

        One recurrence, O_k = sum c_i (k-1)!/(k-i)! O_{k-i}: over Q on ints,
        with c_i = i A_i D^(i-1) and e_k = O_k / (k! D^k) wrapped once; over
        any other ring with c_i = i a_i and e_k = O_k / k!.
        """
        self._require_power_series("exp")
        if self.coeffs[0]:
            raise InvalidSeries("exp needs a zero constant term")
        scaled = _scaled(self, self.coeffs)
        if scaled is None:
            c = [i * ai for i, ai in enumerate(self.coeffs)]
            out = _exp_loop(c, self._zero)
            return self._like([o / factorial(k) for k, o in enumerate(out)], 0)
        nums, den = scaled
        powers = _powers(den, self.order)  # D^k
        c = [i * ai * p for i, (ai, p) in enumerate(zip(nums, [0] + powers))]
        out = _exp_loop(c, 0)
        scales = [factorial(k) * p for k, p in enumerate(powers)]  # k! D^k
        return self._like([rat(o, s) for o, s in zip(out, scales)], 0)

    def compose(self, inner):
        """self(inner) for series over Q; inner must have zero constant term.

        The result lives in inner's variable at the common truncation n.
        Horner's scheme from the top coefficient down: step k,
        h_k = a_k + h_{k+1} * inner, ends up multiplied by inner^k, whose
        valuation is at least k, so only its coefficients up to n - k are
        formed.  That is one product of order n - k - 1 with inner/var per
        step, about n^3/6 coefficient products in all.  They run on ints:
        with self = A/D and inner = I/E, S_k = D E^(n-k) h_k satisfies
        S_k = A_k E^(n-k) + S_{k+1} (I/var), and each coefficient of
        S_0 / (D E^n) is wrapped once.
        """
        if not isinstance(inner, PowerSeries):
            raise InvalidSeries("compose expects a series argument")
        self._require_power_series("compose")
        inner._require_power_series("compose")
        if inner.coeffs[0]:
            raise InvalidSeries("compose needs inner constant term 0")
        n = min(self.order, inner.order)
        outer = _scaled(self, self.coeffs[: n + 1])
        # inner / var; its product with h_{k+1} gives h_k above the constant
        tail = _scaled(inner, inner.coeffs[1 : n + 1])
        if outer is None or tail is None:
            raise InvalidSeries("compose needs series over Q")
        (a, d), (tail, e) = outer, tail
        e_powers = _powers(e, n)
        step = [a[n]]
        for k in range(n - 1, -1, -1):
            step = [a[k] * e_powers[n - k]] + conv_trunc(step, tail, n - k - 1, 0)
        den = d * e_powers[n]
        return self._like([rat(s, den) for s in step], 0, inner.var)

    # -- calculus ----------------------------------------------------------
    def derive(self, mode):
        """Primed derivative: theta_q is var*d/dvar, d_ds is plain d/dvar.

        d_ds lowers start and order by one, except that a series starting
        at 0 loses its constant term and keeps start 0; an order-0 series
        starting at 0 has no known coefficient left and is refused.
        """
        if mode not in (THETA_Q, D_DS):
            raise InvalidSeries(f"unknown derivative mode {mode!r}")
        out = [n * c for n, c in enumerate(self.coeffs, self.start)]
        if mode == THETA_Q:
            return self._like(out, self.start)
        if self.start:
            return self._like(out, self.start - 1)
        if len(out) == 1:
            raise InsufficientOrder(
                f"d/d{self.var} of an order-0 series leaves nothing known",
                required=1,
            )
        return self._like(out[1:], 0)

    def subst_power(self, k):
        """Substitute var -> var^k (k >= 1), truncated at the same order."""
        self._require_power_series("subst_power")
        if k < 1:
            raise InvalidSeries("subst_power needs k >= 1")
        out = [self._zero] * (self.order + 1)
        for n, c in enumerate(self.coeffs):
            if c and n * k <= self.order:
                out[n * k] = c
        return self._like(out, 0)

    def shift(self, k):
        """Multiply by var^k (k >= 0), truncating at the same order."""
        self._require_power_series("shift")
        if k < 0:
            raise InvalidSeries("shift needs k >= 0")
        out = [self._zero] * k + list(self.coeffs)
        return self._like(out[: self.order + 1], 0)

    def divide(self, other):
        """Exact series division self/other for series of equal valuation.

        Both operands are shifted down by the shared valuation, after which
        the divisor has a unit constant term.  The result is truncated at
        min(D) - valuation.
        """
        if not isinstance(other, PowerSeries):
            return self * (ONE / rat(other))
        self._check_var(other)
        self._require_power_series("divide")
        other._require_power_series("divide")
        v = other.valuation()
        if v is None:
            raise InvalidSeries("division by the zero series")
        if v and any(self.coeffs[:v]):
            raise InvalidSeries("division would produce negative exponents")
        n = min(self.order, other.order) - v
        num = self._like(self.coeffs[v : v + n + 1], 0)
        den = other._like(other.coeffs[v : v + n + 1], 0)
        return num * den.reciprocal()

    def retag(self, var):
        """Same coefficients, different formal variable (explicit reframing)."""
        _check_tag(var)
        return self._like(self.coeffs, self.start, var)
