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

Integral series multiply over ZZ.  When both factors are series over Q
(both zeros are the rational zero) and every coefficient of both has
denominator 1, as for E2, E4, E6, the Euler product and the theta
quotients, a product convolves the integer numerators and wraps each
result once as a Fraction, with no gcd.  The rule looks only at the
operands' own coefficients: any other pair takes the Fraction path, with
the same result.

The reciprocal, exp and compose of series over Q run over ZZ as well, on
one common denominator (the layout of FLINT's fmpq_poly).  Each operand
is scaled to integers over its least common denominator, a = A/D and
inner = I/E; the recurrence runs on Python ints with the powers of the
denominators carried exactly; each result coefficient is wrapped once:

    reciprocal  R_k = r_k A_0^(k+1) / D:
                R_0 = 1,  R_k = -sum_{i=1}^{k} A_i A_0^(i-1) R_{k-i};
    exp         O_k = e_k k! D^k:
                O_0 = 1,  O_k = sum_{i=1}^{k} i A_i D^(i-1) (k-1)!/(k-i)! O_{k-i};
    compose     Horner from the top, S_n = A_n,
                S_k = A_k E^(n-k) + S_{k+1} (I/var),  self(inner) = S_0 / (D E^n).

An integral series with first coefficient +1 or -1 is the case D = 1,
A_0^(k+1) = +-1.  The reciprocal and exp of series over any other ring,
such as the generator polynomials, take the generic recurrence; compose
takes series over Q only.

Values are immutable after construction and safe to share across threads.
"""

from numbers import Number

from .errors import InsufficientOrder, InvalidSeries, VariableMismatch
from .rational import ONE, ZERO, from_ints, numerators, rat, scaled_ints
from ._backend import conv_trunc

VARIABLES = ("q", "s", "t", "x", "z")

THETA_Q = "theta_q"  # q * d/dq
D_DS = "d_ds"  # plain d/ds
DERIVE_MODES = (THETA_Q, D_DS)

# Coefficients and scalars of these types are coerced through rat.
_SCALARS = (Number, str)


def _check_tag(var):
    if var not in VARIABLES:
        raise InvalidSeries(f"unknown variable tag {var!r}")


def _int_coeffs(f):
    """f's coefficients as ints, if f is over Q (its zero is the rational
    ZERO) and each is an integer; else None."""
    return numerators(f.coeffs) if f._zero is ZERO else None


def _scaled(f, coeffs):
    """(nums, den) for `coeffs`, some of f's, if f is over Q; else None."""
    return scaled_ints(coeffs) if f._zero is ZERO else None


def _reciprocal_over_q(nums, den):
    """The coefficients of 1/(sum nums[i]/den x^i), as Fractions."""
    a0 = nums[0]
    b = [0]  # b_i = A_i A_0^(i-1)
    power = 1
    for ai in nums[1:]:
        b.append(ai * power)
        power *= a0
    out = [1]
    for k in range(1, len(nums)):
        acc = 0
        for i in range(1, k + 1):
            bi = b[i]
            if bi:
                acc += bi * out[k - i]
        out.append(-acc)
    result = []
    scale = 1  # A_0^(k+1)
    for r in out:
        scale *= a0
        result.append(rat(den * r, scale))
    return result


def _exp_over_q(nums, den):
    """The coefficients of exp(sum nums[i]/den x^i), nums[0] == 0, as
    Fractions."""
    n = len(nums) - 1
    c = [0]  # c_i = i A_i D^(i-1)
    power = 1
    for i in range(1, n + 1):
        c.append(i * nums[i] * power)
        power *= den
    out = [1]
    for k in range(1, n + 1):
        acc = 0
        falling = 1  # (k-1)!/(k-i)!
        for i in range(1, k + 1):
            ci = c[i]
            if ci:
                acc += ci * falling * out[k - i]
            falling *= k - i
        out.append(acc)
    result = [ONE]
    scale = 1  # k! D^k
    for k in range(1, n + 1):
        scale *= k * den
        result.append(rat(out[k], scale))
    return result


class PowerSeries:
    """Σ_{n=start}^{order} c_n var^n + O(var^(order+1))."""

    __slots__ = ("var", "coeffs", "start", "order", "_zero")

    def __init__(self, var, coeffs, start=0):
        _check_tag(var)
        coeffs = tuple(coeffs)
        if not coeffs:
            raise InvalidSeries("a truncated series needs at least one coefficient")
        if isinstance(coeffs[0], _SCALARS):
            coeffs = tuple(rat(c) for c in coeffs)
            zero = ZERO
        else:
            zero = type(coeffs[0]).zero()
        self._fill(var, coeffs, start, zero)

    def _fill(self, var, coeffs, start, zero):
        self.var = var
        self.coeffs = coeffs
        self.start = start
        self.order = start + len(coeffs) - 1
        self._zero = zero

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

    @classmethod
    def identity(cls, var, order):
        """The series 'var' itself."""
        return cls.monomial(var, 1, ONE, order)

    @classmethod
    def monomial(cls, var, exponent, coeff, order):
        c = [ZERO] * (order + 1)
        if 0 <= exponent <= order:
            c[exponent] = rat(coeff)
        return cls(var, c)

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

        Two series over Q whose coefficients are all integers are
        convolved over ZZ, each result coefficient wrapped once; any other
        pair over its coefficients' own ring.
        """
        if not isinstance(other, PowerSeries):
            if isinstance(other, _SCALARS):
                other = rat(other)
            return self._like([c * other for c in self.coeffs], self.start)
        self._check_var(other)
        start = self.start + other.start
        order = min(self.order + other.start, other.order + self.start)
        a = _int_coeffs(self)
        b = None if a is None else _int_coeffs(other)
        if b is None:
            out = conv_trunc(self.coeffs, other.coeffs, order - start, self._zero)
        else:
            out = from_ints(conv_trunc(a, b, order - start, 0))
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

        The result starts at -start and is known to order - 2*start.  Over
        Q the recurrence runs on ints over the common denominator D,
        R_k = r_k A_0^(k+1) / D, and each result coefficient is wrapped
        once; over any other ring it runs on the coefficients themselves.
        """
        a = self.coeffs
        if not a[0]:
            raise InvalidSeries("reciprocal needs a unit leading coefficient")
        scaled = _scaled(self, a)
        if scaled is not None:
            return self._like(_reciprocal_over_q(*scaled), -self.start)
        zero = self._zero
        inv0 = ONE / a[0]
        n = len(a) - 1
        out = [zero] * (n + 1)
        out[0] = inv0
        for k in range(1, n + 1):
            acc = zero
            for i in range(1, k + 1):
                ai = a[i]
                if ai:
                    acc = acc + ai * out[k - i]
            out[k] = -inv0 * acc
        return self._like(out, -self.start)

    def exp(self):
        """exp(self); requires zero constant term.

        Over Q the recurrence runs on ints over the common denominator D,
        O_k = e_k k! D^k, and each result coefficient is wrapped once; over
        any other ring it runs on the coefficients themselves.
        """
        self._require_power_series("exp")
        if self.coeffs[0]:
            raise InvalidSeries("exp needs a zero constant term")
        scaled = _scaled(self, self.coeffs)
        if scaled is not None:
            return self._like(_exp_over_q(*scaled), 0)
        n = self.order
        zero = self._zero
        out = [zero] * (n + 1)
        out[0] = zero + 1
        for k in range(1, n + 1):
            acc = zero
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai:
                    acc = acc + i * ai * out[k - i]
            out[k] = acc / k
        return self._like(out, 0)

    def log(self):
        """log(self); requires constant term exactly 1."""
        self._require_power_series("log")
        if self.coeffs[0] != self._zero + 1:
            raise InvalidSeries("log needs constant term 1")
        n = self.order
        out = [self._zero] * (n + 1)
        for k in range(1, n + 1):
            acc = self._zero
            for i in range(1, k):
                if out[i]:
                    acc += i * out[i] * self.coeffs[k - i]
            out[k] = self.coeffs[k] - acc / k
        return self._like(out, 0)

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
        e_powers = [1]
        for _ in range(n):
            e_powers.append(e_powers[-1] * e)
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
        if mode not in DERIVE_MODES:
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
