"""Exact rational scalars.

gmpy2.mpq is used when available (identical semantics, much faster);
fractions.Fraction is the fallback.  Both keep values reduced with a
positive denominator.  Everything else in the package builds rationals
through :func:`rat` so the backend choice stays localized here.
"""

try:
    from gmpy2 import mpq as Rational

    GMPY2 = True
except ImportError:  # pragma: no cover - depends on environment
    from fractions import Fraction as Rational

    GMPY2 = False

ZERO = Rational(0)
ONE = Rational(1)


def rat(num, den=1):
    if den == 1 and type(num) is Rational:
        return num  # exact and normalised already
    if isinstance(num, str):
        num = Rational(num)
        return num if den == 1 else num / Rational(den)
    return Rational(num, den)


def rat_str(x):
    """Canonical 'numerator/denominator' form, denominator always explicit."""
    x = Rational(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s):
    num, _, den = s.partition("/")
    return Rational(int(num), int(den) if den else 1)
