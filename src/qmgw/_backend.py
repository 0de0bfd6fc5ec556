"""The hot arithmetic kernels, shared by every series and polynomial type.

Every kernel is ring-generic: coefficients only need ``+``, ``*`` and
truth-testing.  Which ring each one sees:

- ``exp_mul_dict`` and ``add_into`` get ints from every ``QMPolynomial``
  (integer numerators over one denominator): its products, sums and
  derivations.  In the determinant check route their values are the
  ``QMPolynomial`` coefficients of series in z_1..z_N, whose own products
  and sums then run on ints; the Virasoro polynomials bring ints and
  Fractions.
- ``conv_trunc`` gets ints for products of series over Q and for the
  q-expansions on the Eisenstein frame, and still sees ``QMPolynomial``
  coefficients for series over generator polynomials (the prime form,
  1/Theta and the determinant's one-variable ingredients).
- ``conv_ints`` gets the integer q-columns of E2^a E4^b E6^c alone.

The sparse ``{key: coeff}`` dicts of this package never hold a zero; this
module is the one place that keeps that rule.
"""

from operator import mul
from types import MappingProxyType


def conv_trunc(a, b, n, zero):
    """Truncated Cauchy product: out[k] = sum_{i+j=k} a[i]*b[j] for k <= n."""
    la = len(a)
    lb = len(b)
    out = [zero] * (n + 1)
    imax = min(la - 1, n)
    for i in range(imax + 1):
        ai = a[i]
        if not ai:
            continue
        jmax = min(lb - 1, n - i)
        for j in range(jmax + 1):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def conv_ints(a, b, lo, n):
    """Coefficients lo..n of the Cauchy product of two int sequences that
    each hold at least n + 1 terms: one dot product per coefficient, run
    by sum and map in C, so a grown column computes only its tail."""
    rb = b[n::-1]
    return [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(lo, n + 1)]


def add_into(out, pairs):
    """Add each (key, coeff) of `pairs` into the sparse dict `out`.

    A zero is never stored and a key whose sum cancels is removed, so
    `out` stays free of zeros; returns `out`.
    """
    for key, c in pairs:
        prev = out.get(key)
        if prev is None:
            if c:
                out[key] = c
        else:
            s = prev + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def exp_mul_dict(da, db, cap=None):
    """Product of exponent-keyed dicts {(e1,..,ek): coeff}; zeros dropped.

    With `cap`, products of total degree > cap are not formed; the keys
    must then have nonnegative entries for the cutoff to be valid.
    """
    out = {}
    if cap is None:
        items_b = [(kb, 0, vb) for kb, vb in db.items()]
    else:
        items_b = [(kb, sum(kb), vb) for kb, vb in db.items()]
    for ka, va in da.items():
        room = 0 if cap is None else cap - sum(ka)
        for kb, deg_b, vb in items_b:
            if deg_b > room:
                continue
            k = tuple(x + y for x, y in zip(ka, kb))
            c = va * vb
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _thaw(cls, state, views=()):
    """Rebuild a Frozen value from its (slot, value) pairs; the dicts in
    `views` become read-only mappings again."""
    out = object.__new__(cls)
    for name, value in state:
        object.__setattr__(out, name, value)
    for name, value in views:
        object.__setattr__(out, name, MappingProxyType(value))
    return out


class Frozen:
    """Base of the value types (series, generator polynomials, operators):
    instances refuse attribute assignment and deletion, so a value served
    from a cache cannot be changed by a caller.  Builders set their slots
    through ``object.__setattr__``, and so does ``copy`` or ``pickle``
    through ``__reduce__``, which sends a read-only mapping slot as a
    plain dict (a ``mappingproxy`` neither pickles nor deep-copies)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        state, views = [], []
        for name in self.__slots__:
            if hasattr(self, name):
                value = getattr(self, name)
                if isinstance(value, MappingProxyType):
                    views.append((name, dict(value)))
                else:
                    state.append((name, value))
        return _thaw, (type(self), state, views)
