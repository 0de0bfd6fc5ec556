"""The hot arithmetic kernels, shared by every series and polynomial type.

All three kernels are ring-generic: coefficients only need ``+``, ``*`` and
truth-testing, so the same code paths serve exact rationals and the
Eisenstein-generator polynomials used as series coefficients higher up.
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


def exp_mul_dict(da, db):
    """Product of exponent-keyed dicts {(e1,..,ek): coeff}; zeros dropped."""
    out = {}
    items_b = list(db.items())
    for ka, va in da.items():
        for kb, vb in items_b:
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


def exp_mul_dict_capped(da, db, cap):
    """Like exp_mul_dict but drops products of total degree > cap.

    Keys must have nonnegative entries for the degree cutoff to be valid.
    """
    out = {}
    items_b = [(kb, sum(kb), vb) for kb, vb in db.items()]
    for ka, va in da.items():
        da_deg = sum(ka)
        room = cap - da_deg
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
