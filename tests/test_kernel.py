"""Arithmetic laws for the monomial kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pvcalc import _kernel as K

coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
pairs = st.tuples(st.integers(-5, 5), st.integers(0, 10))
polys = st.dictionaries(pairs, coeffs, max_size=6).map(
    lambda m: {K.mkkey(t, c): v for (t, c), v in m.items()})
dctx = st.sampled_from((1, 2, 3, 4, 6))

ONE = {K.mkkey(0, 0): 1}


def ref_mul(a, b, d):
    """Independent product oracle via explicit u,v exponent bookkeeping."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            eu = max(K.key_t(ka), 0) + max(K.key_t(kb), 0)
            ev = max(-K.key_t(ka), 0) + max(-K.key_t(kb), 0)
            m = min(eu, ev)
            key = K.mkkey(eu - ev, K.key_c(ka) + K.key_c(kb) + d * m)
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ref_cyclo_div(a, k):
    """Dense synthetic division by (w^k - 1), one t-component at a time:
    a loop over every degree from the top down to k."""
    if not a:
        return {}
    comps = {}
    for key, v in a.items():
        comps.setdefault(K.key_t(key), {})[K.key_c(key)] = v
    out = {}
    for t, f in comps.items():
        deg = max(f)
        if deg < k:
            return None
        for i in range(deg, k - 1, -1):
            coef = f.pop(i, 0)
            if coef:
                out[K.mkkey(t, i - k)] = coef
                f[i - k] = f.get(i - k, 0) + coef
        if any(f.values()):
            return None
    return out


def test_key_roundtrip():
    for t in range(-7, 8):
        for c in range(0, 40, 7):
            key = K.mkkey(t, c)
            assert K.key_t(key) == t
            assert K.key_c(key) == c


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_padd_commutes_and_cancels(a, b):
    assert K.padd(a, b) == K.padd(b, a)
    assert K.padd(a, K.pneg(a)) == {}


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_padd_associates(a, b, c):
    assert K.padd(K.padd(a, b), c) == K.padd(a, K.padd(b, c))


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 6))
def test_shift_and_wdiv(a, e):
    up = K.pshift(a, e)
    assert K.pwdiv(up, e) == a
    if a:
        assert K.pwmin(up) == K.pwmin(a) + e


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(1, 8))
def test_cyclo_mul_div_roundtrip(a, k):
    prod = K.pcyclo_mul(a, k)
    assert prod == K.padd(K.pshift(a, k), K.pneg(a))
    assert K.pcyclo_div(prod, k) == a


@settings(max_examples=300, deadline=None)
@given(polys, st.integers(1, 8), st.lists(st.integers(1, 8), max_size=3))
def test_cyclo_div_matches_dense_division(a, k, factors):
    # a times a few (w^j - 1): divisible by (w^k - 1) when some j is a
    # multiple of k, and often not otherwise
    for j in factors:
        a = K.pcyclo_mul(a, j)
    assert K.pcyclo_div(a, k) == ref_cyclo_div(dict(a), k)


def test_cyclo_div_rejects_nondivisible():
    assert K.pcyclo_div({K.mkkey(0, 0): 1}, 2) is None
    assert K.pcyclo_div({K.mkkey(0, 3): 1, K.mkkey(0, 0): 1}, 3) is None
    assert K.pcyclo_div({}, 5) == {}


def test_cyclo_div_large_k_is_sparse():
    # the dense division loops over 2^30 degrees for each of these
    k = 2 ** 30
    top = {K.mkkey(0, 2 * k): 1, K.mkkey(0, 0): -1}      # w^(2k) - 1
    assert K.pcyclo_div(top, k) == {K.mkkey(0, k): 1, K.mkkey(0, 0): 1}
    shifted = {K.mkkey(1, 2 * k): 1, K.mkkey(1, 3): -1}   # u(w^(2k) - w^3)
    assert K.pcyclo_div(shifted, k) is None
    a = {K.mkkey(-2, 2 * k + 5): 3, K.mkkey(1, 7): -1, K.mkkey(0, k): 2}
    assert K.pcyclo_div(K.pcyclo_mul(a, k), k) == a


@settings(max_examples=60, deadline=None)
@given(polys, polys, dctx)
def test_pmul_matches_reference(a, b, d):
    expect = ref_mul(a, b, d)
    assert K.pmul(a, b, d) == expect
    assert K.pmul(b, a, d) == expect
    assert K.pmul(a, ONE, d) == a


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys, dctx)
def test_pmul_distributes(a, b, c, d):
    lhs = K.pmul(a, K.padd(b, c), d)
    rhs = K.padd(K.pmul(a, b, d), K.pmul(a, c, d))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(polys, polys, polys, dctx)
def test_pmul_associates(a, b, c, d):
    assert K.pmul(K.pmul(a, b, d), c, d) == K.pmul(a, K.pmul(b, c, d), d)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.data())
def test_kcount_counts_the_nonzero_digits(nbytes, data):
    # every coefficient up to the digit's limit, so that digits next to
    # each other borrow and carry when packed
    limit = 2 ** (8 * nbytes - 1) - 1
    coeff = st.one_of(st.integers(-limit, limit), st.sampled_from(
        (limit, -limit, 1, -1))).filter(bool)
    a = data.draw(st.dictionaries(st.integers(0, 40), coeff, max_size=12))
    x = K.kpack({K.mkkey(0, c): v for c, v in a.items()}, nbytes, 41, 0)
    assert K.kcount(x, nbytes) == len(a)
