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

The sparse ``{key: coeff}`` dicts of this package never hold a zero; this
module is the one place that keeps that rule.
"""


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


def _thaw(cls, state):
    """Rebuild a Frozen value from its (slot, value) pairs."""
    out = object.__new__(cls)
    for name, value in state:
        object.__setattr__(out, name, value)
    return out


class Frozen:
    """Base of the value types (series, generator polynomials, operators):
    instances refuse attribute assignment and deletion, so a value served
    from a cache cannot be changed by a caller.  Builders set their slots
    through ``object.__setattr__``, and so does ``copy`` or ``pickle``
    through ``__reduce__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        state = [(n, getattr(self, n)) for n in self.__slots__ if hasattr(self, n)]
        return _thaw, (type(self), state)
