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


# Kronecker-packed numerators (von zur Gathen and Gerhard, *Modern
# Computer Algebra*, section 8.4).  A numerator becomes one int: its
# monomial u^t w^c (v^-t w^c for t < 0) is digit e = (t - tmin)*width + c
# in base 2^bits, bits = 8*nbytes, so each t-component is a block of
# `width` digits, the component evaluated at w = 2^bits.  Evaluation is a
# ring map, so multiplying by w^s is x << bits*s, by (w^k - 1) it is
# (x << bits*k) - x, and a sum adds the ints, whatever the signs: each is
# one big-int operation, however many terms the numerator has.  Digits
# never carry into the next block while every w-exponent stays below
# width.  The coefficients come back out exactly when every one has
# |c| < 2^(bits - 1): they are then the balanced base-2^bits digits of
# the int, which kunpack reads with to_bytes after adding 2^(bits - 1)
# to every digit.


def kpack(a, nbytes, width, tmin):
    """a as one int; every key has t >= tmin and c < width, and every
    coefficient |v| < 2^(bits - 1).

    Adding the shifted monomials one by one copies the growing int once
    per monomial, which is quadratic for a dense numerator.  Beyond four
    monomials, each coefficient instead goes into its own digit of a
    buffer of zero digits (2^(bits - 1) each, as kunpack reads them),
    read as one int less the zero digits: four passes over the int
    (the zero digits, their copy and two from_bytes), linear in its size.
    Up to four monomials, adding them copies the int no more often.
    """
    bits = 8 * nbytes
    if len(a) <= 4:
        x = 0
        for key, v in a.items():
            x += v << bits * (((key >> KEY_SHIFT) - tmin) * width
                              + (key & KEY_MASK))
        return x
    # digits order as keys do, so the largest key has the top digit
    top = max(a)
    digits = ((top >> KEY_SHIFT) - tmin) * width + (top & KEY_MASK) + 1
    half = 1 << (bits - 1)
    zeros = half.to_bytes(nbytes, "little") * digits
    buf = bytearray(zeros)
    for key, v in a.items():
        at = nbytes * (((key >> KEY_SHIFT) - tmin) * width + (key & KEY_MASK))
        buf[at:at + nbytes] = (v + half).to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(zeros, "little")


def klift(x, s, mask, ks, bits):
    """Packed x, of bits-bit digits, times w^s and one (w^k - 1) for
    k = ks[i] at each set bit i of mask."""
    x <<= bits * s
    while mask:
        low = mask & -mask
        k = ks[low.bit_length() - 1]
        x = (x << bits * k) - x
        mask ^= low
    return x


def kcount(x, nbytes):
    """The number of nonzero digits of packed x.

    Adding 2^(bits - 1) to every digit up to the top one makes each
    digit nonnegative with no carry, as in kunpack, and an xor with the
    same digits leaves zero exactly the digits that were zero.  Or-ing
    each digit's bits down into its lowest bit, by shifts that double
    the bits it covers and stop at bits - 1 in all, so that no bit
    reaches a lower digit, leaves one bit set per nonzero digit: a few
    big-int operations, no loop over the digits."""
    bits = 8 * nbytes
    digits = x.bit_length() // bits + 1
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * digits, "little")
    half = ones << (bits - 1)
    y = (x + half) ^ half
    covered = 0             # y's lowest bit of a digit ors this many above
    while covered < bits - 1:
        s = min(covered + 1, bits - 1 - covered)
        y |= y >> s
        covered += s
    return (y & ones).bit_count()


def kunpack(x, nbytes, width, tmin):
    """The dict of packed x, keys ascending."""
    out = {}
    if not x:
        return out
    half = 1 << (8 * nbytes - 1)
    zero = half.to_bytes(nbytes, "little")     # the digit of c = 0
    # |x| > 2^(bits*e_max - 1), so its length bounds the top digit
    digits = x.bit_length() // (8 * nbytes) + 1
    buf = (x + int.from_bytes(zero * digits, "little")).to_bytes(
        nbytes * digits, "little")
    for e in range(digits):
        digit = buf[e * nbytes:(e + 1) * nbytes]
        if digit != zero:
            t, c = divmod(e, width)
            out[mkkey(t + tmin, c)] = int.from_bytes(digit, "little") - half
    return out
