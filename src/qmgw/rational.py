"""Exact rational scalars.

Every rational is a ``fractions.Fraction``, kept reduced with a positive
denominator.  Everything else in the package builds rationals through
:func:`rat`, so the scalar type is named only here.  Values that are
integers by construction may stay Python ints: the Virasoro operators of
:mod:`qmgw.virasoro` keep their integer coefficients as ints.
"""

from fractions import Fraction as Rational
from math import lcm

ZERO = Rational(0)
ONE = Rational(1)


def rat(num, den=1):
    if den == 1 and type(num) is Rational:
        return num  # exact and normalised already
    return Rational(num, den)


def scaled_ints(values):
    """(nums, den) with values[i] == nums[i]/den and den the least common
    denominator, if each value is a Fraction; else None."""
    for x in values:
        if type(x) is not Rational:
            return None
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def from_ints(values, den=1):
    """Each int of `values` over den > 0 as a reduced Fraction; a
    denominator of 1 needs no gcd."""
    if den == 1:
        return [Rational(n) for n in values]
    return [Rational(n, den) for n in values]


def rat_str(x):
    """Canonical 'numerator/denominator' form, denominator always explicit."""
    x = Rational(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s):
    num, _, den = s.partition("/")
    return Rational(int(num), int(den) if den else 1)
