"""Monomial-dict arithmetic in Z[u,v,w] / (w^d - uv).

A polynomial in normal form (every monomial has min(u-exp, v-exp) = 0)
is a dict mapping an encoded key to a nonzero int coefficient.  The key
packs t = e_u - e_v and c = e_w >= 0 as  t * 2^KEY_SHIFT + c,  so key
addition adds both fields at once.  Nothing here checks that c fits its
field; motring's ExponentError guards keep every w-exponent it packs,
lifts or multiplies below 2^KEY_SHIFT.

Multiplying u^a v^b monomials creates min(a, b) stray uv pairs; each
folds into w^d.  In the (t, c) encoding the pair count of a product is
(|t1| + |t2| - |t1 + t2|) / 2, which is what pmul adds d times to c.
"""

IMPL_NAME = "python"

KEY_SHIFT = 32
KEY_MASK = (1 << KEY_SHIFT) - 1


def mkkey(t, c):
    return (t << KEY_SHIFT) | c


def key_t(key):
    return key >> KEY_SHIFT


def key_c(key):
    return key & KEY_MASK


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def pneg(a):
    return {k: -v for k, v in a.items()}


def pshift(a, e):
    # multiply by w^e, e >= 0: bumps only the c field
    return {k + e: v for k, v in a.items()}


def pcyclo_mul(a, k):
    # multiply by (w^k - 1)
    out = pshift(a, k)
    for key, v in a.items():
        s = out.get(key, 0) - v
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def pwmin(a):
    return min(k & KEY_MASK for k in a)


def pwdiv(a, e):
    # divide by w^e; caller guarantees pwmin(a) >= e
    return {k - e: v for k, v in a.items()}


def pmul(a, b, d):
    out = {}
    for ka, va in a.items():
        ta = ka >> KEY_SHIFT
        for kb, vb in b.items():
            tb = kb >> KEY_SHIFT
            fold = (abs(ta) + abs(tb) - abs(ta + tb)) >> 1
            key = ka + kb + d * fold
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def pcyclo_div(a, k):
    """Exact quotient a / (w^k - 1), or None when not divisible.

    Multiplication by (w^k - 1) sends w^e to w^(e+k) - w^e, so it mixes
    neither distinct t-components nor residues of e mod k.  Within one
    (t, e mod k) class, f = (w^k - 1) q gives q_j = sum of f_e over the
    class's e > j: the class divides exactly when its coefficients sum
    to 0, and the quotient is the running suffix sum, stored where it is
    nonzero.  The work follows the terms of a and of the quotient, not
    the degree.
    """
    if not a:
        return {}
    # a class is named by the key of (t, e mod k): key - c + c % k
    sums = {}
    for key, v in a.items():
        c = key & KEY_MASK
        cls = key - c + c % k
        sums[cls] = sums.get(cls, 0) + v
    if any(sums.values()):
        return None
    out = {}
    runs = {}   # class -> (suffix sum so far, key of its lowest term yet)
    for key in sorted(a, reverse=True):
        c = key & KEY_MASK
        cls = key - c + c % k
        acc, above = runs.get(cls, (0, key))
        if acc:
            # q_j = acc for every j of the class in [key, above)
            for q in range(key, above, k):
                out[q] = acc
        runs[cls] = (acc + a[key], key)
    return out
