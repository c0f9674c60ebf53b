"""Realization ring: normal forms, oracles, rendering, specializations."""

import operator
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pvcalc import _kernel as K
from pvcalc.errors import (ChiDomainError, ContextError, ExponentError,
                           InputError, LogPoleError, ParseError)
from pvcalc.motring import (HodgePoly, RingElem, euler_realize, from_hodge,
                            from_int, is_zero, legend, lfactor, lpow,
                            numeric_eval, one, parse_ring_elem, render,
                            render_hodge, ring_sum, zero)
from pvcalc.motring import _int_root, _normalize
from pvcalc.pvint import invariant_sum

from oracles import chain_config

F = Fraction


# ---- Hodge polynomials -------------------------------------------------


def test_hodge_basics():
    p = HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1})   # the plane
    assert p.euler() == 3
    assert p.evaluate(2, 3) == 36 + 6 + 1
    c = HodgePoly({(1, 1): 1, (1, 0): -2, (0, 1): -2, (0, 0): 1})
    assert c.euler() == -2
    with pytest.raises(ValueError):
        HodgePoly.scalar(0.5)       # int() read this as 0
    assert HodgePoly.one() == 1 and HodgePoly.one() != True


@pytest.mark.parametrize("terms", [
    {(1.5, 0): 1}, {(0, 1.0): 1}, {(True, 0): 1}, {(0, False): 1},
    {(0, 0): 1.5, (1, 1): 1}, {(0, 0): 0.0}, {(1, 1): True}, {(0, 0): "1"},
], ids=["float-eu", "float-ev", "bool-eu", "bool-ev", "float-coeff",
        "float-zero", "bool-coeff", "str-coeff"])
def test_hodge_terms_must_be_ints(terms):
    # before, a float coefficient put a float in the ring and int()
    # truncated a float exponent or read True as 1
    with pytest.raises(ValueError, match="int exponents"):
        HodgePoly(terms)


def test_hodge_arithmetic_and_hash():
    a = HodgePoly({(1, 1): 2, (0, 0): 1})
    b = HodgePoly({(1, 1): -2})
    assert (a + b).coeff(1, 1) == 0
    assert a - a == HodgePoly.zero()
    assert a * HodgePoly.one() == a
    assert 3 * HodgePoly.one() == HodgePoly.scalar(3)
    assert hash(a + b) == hash(HodgePoly.scalar(1))
    assert (a * b).coeff(2, 2) == -4


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_bool_operand_is_a_type_error(op):
    # a bool is never a coefficient: before, HodgePoly.one() * True was
    # a HodgePoly, HodgePoly.one() + True a ValueError, and a RingElem
    # read True as 1
    for x in (HodgePoly.one(), from_int(1, 2)):
        for flag in (True, False):
            with pytest.raises(TypeError):
                op(x, flag)
            with pytest.raises(TypeError):
                op(flag, x)
        assert x == 1 and x != True


@pytest.mark.parametrize("n", [0.5, 2.7, True, False, F(2), "2"])
def test_from_int_refuses_every_non_int(n):
    # before, from_int(0.5, 2) stored {0: 0}: it rendered as 0, yet
    # is_zero() was False; 2.7 became 2 and True became 1
    with pytest.raises(ValueError, match="from_int needs an int"):
        from_int(n, 2)
    assert from_int(0, 2).is_zero() and from_int(-3, 2) == -3


def test_bool_exponent_is_a_type_error():
    # before, lpow(1, 2) ** True returned w^2
    x = lpow(1, 2)
    for flag in (True, False):
        with pytest.raises(TypeError):
            x ** flag
    assert x ** 1 == x and (x ** 0).num == {0: 1}


# ---- lfactor / lpow oracles --------------------------------------------


def test_lfactor_small_values():
    assert render(lfactor(1, 1)) == "1"
    assert render(lfactor(F(1, 2), 2)) == "w + 1"
    assert render(lfactor(-1, 1)) == "-w"          # (L-1)/(L^-1-1) = -L
    assert lfactor(-1, 2) == -lpow(1, 2)
    assert render(lfactor(2, 1)) == "(w - 1) / (w^2 - 1)"
    assert render(lfactor(F(3, 2), 2)) == "(w^2 - 1) / (w^3 - 1)"


def test_lfactor_inverse_identity_spot():
    for d in (1, 2, 3):
        for i in (-5, -1, 1, 2, 7):
            a = F(i, d)
            assert lfactor(a, d) * (lpow(a, d) - one(d)) == lpow(1, d) - one(d)


def test_lfactor_zero_is_a_pole():
    with pytest.raises(LogPoleError):
        lfactor(0, 2)


def test_exponent_context():
    with pytest.raises(ExponentError):
        lpow(F(1, 2), 3)
    with pytest.raises(ExponentError):
        lfactor(F(1, 4), 2)


def test_packed_key_overflow_is_rejected():
    # a w-exponent lives in the low 32 bits of a packed key; one that
    # does not fit used to carry into the u/v field (L^(2^31) at d = 2
    # rendered as "u")
    top = 2 ** 31 - 1        # stored numerators keep 2*e_w below 2^32
    assert render(lpow(top, 1)) == f"w^{top}"
    u_big = from_hodge(HodgePoly({(2 ** 30, 0): 1}), 2)
    v_big = from_hodge(HodgePoly({(0, 2 ** 30): 1}), 2)
    for build in (
        lambda: lpow(2 ** 31, 2),
        lambda: lpow(top + 1, 1),
        lambda: lpow(-(2 ** 32), 1),
        lambda: lfactor(-(2 ** 32), 1),
        lambda: from_hodge(HodgePoly({(2 ** 31, 2 ** 31): 1}), 2),
        lambda: parse_ring_elem(f"w^{2 ** 32}", 1),
        lambda: parse_ring_elem(f"u^{2 ** 31}*v^{2 ** 31}", 2),
        lambda: lpow(2 ** 29, 2) * lpow(2 ** 29, 2),
        lambda: u_big * v_big,                  # 2^30 uv pairs fold to w
        lambda: lpow(top, 1) + lpow(-1, 1),     # lifted to the common w
        lambda: lpow(top, 1) + lpow(-(2 ** 32 - 1), 1),
    ):
        with pytest.raises(ExponentError):
            build()


def test_large_cyclo_factor_sums_stay_fast():
    # the root normalization trial-divides a degree-2^32 numerator by
    # w^(2^31) - 1; a division that walks every degree does not finish
    with pytest.raises(ExponentError):
        lpow(2 ** 31 - 1, 1) + lfactor(2 ** 31, 1)
    n = 2 ** 20
    x = lpow(n - 1, 1) + lfactor(n, 1)
    assert x - lfactor(n, 1) == lpow(n - 1, 1)
    assert euler_realize(x) == 1 + F(1, n)


def test_public_constructor_checks_its_arguments():
    """RingElem(...) checks and copies what it is given; only the
    ring's own results skip that."""
    with pytest.raises(ContextError):
        RingElem(0, {})
    with pytest.raises(ValueError):
        RingElem(1, {0: 1}, wpow=-1)
    for cyclo in ((0,), (2, -1)):
        with pytest.raises(ValueError):
            RingElem(1, {0: 1}, cyclo=cyclo)
    num = {0: 1}
    x = RingElem(1, num)
    num[0] = 5
    assert x.num == {0: 1}
    # a float or bool level, key, coefficient, w-power or factor, and a
    # key that is not an int (which & refused with a bare TypeError)
    for args in ((2, {0: 1.5}), (2, {0: True}), (2, {0.0: 1}),
                 (2, {(1, 2): 1}), (True, {0: 1}), (2.0, {0: 1}),
                 (2, {0: 1}, 1.0), (2, {0: 1}, True), (2, {0: 1}, 0, (2.5,)),
                 (2, {0: 1}, 0, (True,))):
        with pytest.raises(ValueError):
            RingElem(*args)
    assert RingElem(2, {0: 0, 1: 3}).num == {1: 3}
    assert RingElem(2, {0: 0}).is_zero()
    for terms in ([((0, 0), 1)], 5, {1: 1}, {(1, 2, 3): 1}):
        with pytest.raises(ValueError):
            HodgePoly(terms)
    # every constructor checks its level the same way
    for build in (lambda: from_int(1, True), lambda: lpow(1, 2.0),
                  lambda: lfactor(1, 2.5), lambda: one(True),
                  lambda: from_hodge(HodgePoly.one(), 2.0)):
        with pytest.raises(ValueError, match="the level d must be an int"):
            build()
    for build in (lambda: from_int(1, 0), lambda: lfactor(1, -1),
                  lambda: from_hodge(HodgePoly.one(), 0)):
        with pytest.raises(ContextError, match="invalid context"):
            build()


def test_mixed_context_rejected():
    with pytest.raises(ContextError):
        lpow(1, 2) == lpow(1, 3)
    with pytest.raises(ContextError):
        lpow(1, 2) + lpow(1, 3)


# ---- normal form -------------------------------------------------------


def test_normalization_cancels_cyclo_factors():
    # (L-1)/(w-1) * (w-1) collapses to the plain polynomial L-1
    x = lfactor(F(1, 2), 2) * (lpow(F(1, 2), 2) - one(2))
    y = lpow(1, 2) - one(2)
    assert x.num == y.num and x.wpow == y.wpow and x.cyclo == y.cyclo


def test_normalization_strips_wpow():
    x = lpow(-2, 2) * lpow(3, 2)     # L^-2 * L^3 = L
    assert x == lpow(1, 2)
    assert x.wpow == 0 and x.cyclo == ()


def reference_normalize(d, num, wpow, cyclo):
    """_normalize with a {k: multiplicity} dict: trial-divide by each k
    while it divides, largest first, strip the shared w-power, check the
    weight, and rebuild the sorted factor tuple from the counts; the
    numerator is returned with its keys ascending."""
    if not num:
        return {}, 0, ()
    counts = Counter(cyclo)
    for k in sorted(counts, reverse=True):
        while counts[k]:
            quo = K.pcyclo_div(num, k)
            if quo is None:
                break
            num = quo
            counts[k] -= 1
    if wpow:
        s = min(wpow, K.pwmin(num))
        if s:
            num = K.pwdiv(num, s)
            wpow -= s
    weight = max(2 * (key & K.KEY_MASK) + d * abs(key >> K.KEY_SHIFT)
                 for key in num)
    if weight > K.KEY_MASK:
        raise ExponentError(
            f"exponents too large for packed keys (weight {weight} "
            f"exceeds 2^{K.KEY_SHIFT} - 1)")
    return dict(sorted(num.items())), wpow, tuple(sorted(counts.elements()))


@st.composite
def normalize_inputs(draw):
    """(d, num, wpow, cyclo): a random numerator times w^shift and a
    product of (w^k - 1) factors, over a factor list that holds those
    factors and more, repeated and in a drawn order (a product
    concatenates two sorted tuples).  A shift near 2^31 makes the weight
    overflow a packed key."""
    d = draw(st.integers(1, 4))
    num = {K.mkkey(t, c): v for (t, c), v in draw(st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(0, 6)),
        st.integers(-3, 3).filter(bool), max_size=5)).items()}
    divides = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), max_size=4))
    for k in divides:
        num = K.pcyclo_mul(num, k)
    shift = draw(st.sampled_from((0, 0, 1, 3, 2 ** 31 - 3)))
    num = K.pshift(num, shift)
    extra = draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6)), max_size=4))
    cyclo = draw(st.permutations(divides + extra))
    return d, num, draw(st.integers(0, 5)), tuple(cyclo)


def normalized_or_error(fn, d, num, wpow, cyclo):
    try:
        num, wpow, cyclo = fn(d, dict(num), wpow, cyclo)
    except ExponentError as exc:
        return str(exc)
    return list(num.items()), wpow, cyclo


@settings(max_examples=200, deadline=None)
@given(normalize_inputs())
@example((2, K.pcyclo_mul(K.pcyclo_mul({K.mkkey(1, 0): 2, 3: -1}, 2), 2),
          1, (3, 2, 2, 2, 1)))
def test_normalize_matches_the_count_dict_loop(case):
    assert normalized_or_error(_normalize, *case) == \
        normalized_or_error(reference_normalize, *case)


def test_sum_over_common_denominator():
    d = 2
    x = lfactor(F(1, 2), d) + lfactor(F(-1, 2), d)
    # (w+1) + (-w^2-w) = 1 - w^2
    assert x == one(d) - lpow(1, d)


def test_negation_keeps_the_stored_form(monkeypatch):
    # a sign change divides by no factor, so -x is not normalized again
    xs = [lfactor(F(1, 2), 2) * lfactor(F(-3, 2), 2) * lpow(F(-5, 2), 2),
          from_hodge(HodgePoly({(2, 0): 3, (0, 1): -1}), 2) * lfactor(2, 2),
          zero(2)]
    divisions = []
    monkeypatch.setattr(K, "pcyclo_div",
                        lambda *args: divisions.append(args))
    for x in xs:
        assert stored(-x) == (K.pneg(x.num), x.wpow, x.cyclo)
    assert divisions == []


def test_zero_representation():
    z = lfactor(F(1, 2), 2) - lfactor(F(1, 2), 2)
    assert z.is_zero() and is_zero(z)
    assert z.num == {} and z.wpow == 0 and z.cyclo == ()
    assert render(z) == "0"
    assert not one(2).is_zero()


def test_pow_and_ring_sum():
    d = 2
    x = (lpow(F(1, 2), d) + one(d)) ** 2
    assert x == lpow(1, d) + 2 * lpow(F(1, 2), d) + one(d)
    assert ring_sum([], d) == zero(d)
    assert ring_sum([one(d), one(d), from_int(-2, d)], d).is_zero()


def test_equality_cross_multiplies():
    d = 2
    # (L-1)/(L^(1/2)-1) == w + 1 as elements with different build history
    assert lfactor(F(1, 2), d) == lpow(F(1, 2), d) + one(d)
    assert lfactor(F(1, 2), d) != lpow(F(1, 2), d)


# ---- euler realization -------------------------------------------------


def test_euler_realize_grid():
    assert euler_realize(lpow(1, 1)) == 1
    assert euler_realize(lpow(-3, 2)) == 1
    for d in (1, 2, 3, 4, 6):
        for i in range(-6, 7):
            if i == 0:
                continue
            assert euler_realize(lfactor(F(i, d), d)) == F(d, i)


def test_euler_realize_domain_guard():
    bad = RingElem(1, {0: 1}, 0, (1,))       # hand-built 1/(w-1)
    with pytest.raises(ChiDomainError):
        euler_realize(bad)


def test_euler_realize_large_exponent():
    # L^(2^29) (L - 1)/(L^3 - 1): the value needs no dense coefficient
    # list of length 2^29
    assert euler_realize(lpow(2 ** 29, 1) * lfactor(3, 1)) == F(1, 3)
    big = lpow(2 ** 29, 1) * lfactor(2 ** 29, 1)
    assert euler_realize(big) == F(1, 2 ** 29)


# ---- numeric evaluation ------------------------------------------------


def test_numeric_eval_vectors():
    d = 2
    assert numeric_eval(lpow(1, d), 5) == [F(5), F(0)]
    assert numeric_eval(lpow(F(1, 2), d), 5) == [F(0), F(1)]
    assert numeric_eval(lfactor(F(1, 2), d), 2) == [F(1), F(1)]
    # perfect power collapses: q = 9 = 3^2, w -> 3
    assert numeric_eval(lpow(F(3, 2), d), 9) == [F(27)]
    assert numeric_eval(lfactor(F(-1, 2), d), 9) == [F(-12)]
    assert numeric_eval(from_int(7, 3), 2) == [F(7), F(0), F(0)]


def test_int_root_is_exact():
    for d in (2, 3, 5):
        for m in (2, 3, 10 ** 50 + 7, 2 ** 200):
            assert _int_root(m ** d, d) == m
            assert _int_root(m ** d + 1, d) is None
            assert _int_root(m ** d - 1, d) is None
    assert _int_root(7, 1) == 7
    assert _int_root(2, 2) is None


def test_numeric_eval_huge_q():
    # q far beyond float range: no OverflowError, exact values
    m = 10 ** 200
    assert numeric_eval(lpow(1, 2), m ** 2) == [m ** 2]
    assert numeric_eval(lpow(F(1, 2), 2), m ** 2) == [m]
    assert numeric_eval(lpow(F(1, 2), 2), m ** 2 + 1) == [0, 1]


def test_numeric_eval_is_multiplicative():
    d = 2
    x = lfactor(F(1, 2), d)
    y = lfactor(F(-3, 2), d)

    def mul(a, b, q):
        # schoolbook product in Q[x]/(x^2 - q)
        c0 = a[0] * b[0] + q * a[1] * b[1]
        c1 = a[0] * b[1] + a[1] * b[0]
        return [c0, c1]

    for q in (2, 3, 5):
        assert numeric_eval(x * y, q) == mul(numeric_eval(x, q),
                                             numeric_eval(y, q), q)


def test_numeric_eval_rejects_non_int_q():
    # a float used to be truncated (2.9 -> 2) and a digit string read
    for q in (2.9, 3.0, "7", True, F(3), 1, -5):
        with pytest.raises(ValueError):
            numeric_eval(lpow(1, 1), q)


def _reduce(p, d, q):
    """Coefficients (lowest first) of a polynomial mod x^d - q."""
    p = list(p) + [0] * d
    for i in range(len(p) - 1, d - 1, -1):
        p[i - d] += q * p[i]
    return p[:d]


def _mulmod(a, b, d, q):
    """Schoolbook product in Q[x]/(x^d - q)."""
    out = [0] * (2 * d)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(out, d, q)


@st.composite
def realization_elems(draw):
    """Sums of products of lfactor, lpow and Hodge monomials at d 1..12."""
    d = draw(st.integers(1, 12))
    exps = st.integers(-3 * d, 3 * d).filter(bool).map(lambda m: F(m, d))
    x = zero(d)
    for _ in range(draw(st.integers(1, 3))):
        t = from_int(draw(st.integers(-3, 3)), d)
        for _ in range(draw(st.integers(0, 3))):
            make = draw(st.sampled_from([lfactor, lpow]))
            t = t * make(draw(exps), d)
        h = HodgePoly({(draw(st.integers(0, 3)), draw(st.integers(0, 3))): 1})
        x = x + t * from_hodge(h, d)
    return x


@settings(max_examples=300, deadline=None)
@given(realization_elems(),
       st.sampled_from([2, 3, 4, 5, 6, 8, 12, 64, 10 ** 30 + 1]))
# reducible moduli: x^4 - 4, x^6 - 8, x^12 - 64
@example(lfactor(F(5, 4), 4) * lfactor(F(-2, 4), 4) * lpow(F(-3, 4), 4), 4)
@example(lfactor(F(3, 6), 6) * lfactor(F(4, 6), 6) * lpow(F(-7, 6), 6), 8)
@example(lfactor(F(8, 12), 12) * lfactor(F(-9, 12), 12), 64)
def test_numeric_eval_inverts_the_denominator(x, q):
    # a q that is no perfect d-th power gives the length-d vector; at
    # d = 1 the perfect-power value is that vector
    d = x.d
    assume(d == 1 or _int_root(q, d) is None)
    num = [0] * (max(map(K.key_c, x.num), default=0) + 1)
    for key, coeff in x.num.items():
        num[K.key_c(key)] += coeff * q ** max(K.key_t(key), 0)
    num_vec = _reduce(num, d, q)
    den = _reduce([0] * x.wpow + [1], d, q)
    for k in x.cyclo:
        den = _mulmod(den, _reduce([-1] + [0] * (k - 1) + [1], d, q), d, q)
    vec = numeric_eval(x, q)
    assert len(vec) == d
    assert _mulmod(vec, den, d, q) == num_vec


# ---- rendering and parsing ---------------------------------------------


def test_legend():
    assert legend(1) == "w = L"
    assert legend(2) == "w = L^(1/2)"
    assert legend(6) == "w = L^(1/6)"


CANONICAL = [
    ("0", 1),
    ("1", 1),
    ("-(w^3 + w^2 + w)", 2),
    ("w + 1", 2),
    ("(w^2 - 1) / (w^3 - 1)", 3),
    ("-(w^2 + w + 1) / w^3", 2),
    ("(2*w^3 - w - 1) / (w * (w^3 - 1))", 3),
    ("1 / ((w - 1) * (w^2 - 1))", 4),
    ("1 / (w - 1)^2", 4),
    ("-3*w^2 / (w^4 - 1)", 4),
]


@pytest.mark.parametrize("s,d", CANONICAL)
def test_render_parse_fixed_point(s, d):
    x = parse_ring_elem(s, d)
    assert render(x) == s
    y = parse_ring_elem(render(x), d)
    assert y.num == x.num and y.wpow == x.wpow and y.cyclo == x.cyclo


def test_parse_rejects_garbage():
    for s in ("w +", "(w^2 - 1", "1 / ", "q + 1", "w^^2", ""):
        with pytest.raises(ParseError):
            parse_ring_elem(s, 2)


def test_parse_rejects_zero_denominator_factor():
    # (w^0 - 1) is zero; it used to reach RingElem and escape as a bare
    # ValueError instead of the documented parse failure
    for s in ("1/(w^0 - 1)", "1 / (w^0 - 1)^2", "1 / (w * (w^0 - 1))"):
        with pytest.raises(ParseError) as info:
            parse_ring_elem(s, 2)
        assert isinstance(info.value, InputError)


def test_render_hodge_forms():
    d = 2
    conic = lpow(1, d) ** 2 + (lpow(1, d) + one(d)) * lfactor(F(-1, 2), d)
    assert render(conic) == "-(w^3 + w^2 + w)"
    assert render_hodge(conic) == "-((u*v)^(3/2) + u*v + (u*v)^(1/2))"
    assert render_hodge(one(1)) == "1"
    assert render_hodge(lpow(1, 1) - one(1)) == "u*v - 1"


def test_from_hodge_mixed_terms():
    # u, v and uv monomials all realize faithfully
    h = HodgePoly({(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 0): 1})
    x = from_hodge(h, 2)
    assert euler_realize(x) == 4
    # u -> q, v -> 1, uv -> q under the counting specialization
    assert numeric_eval(x, 9) == [F(9 + 1 + 9 + 1)]


# ---- randomized algebra -------------------------------------------------

ALPHAS4 = [F(i, 4) for i in (-8, -5, -3, -2, -1, 1, 2, 3, 4, 6)]
atoms = st.sampled_from(ALPHAS4)
terms = st.lists(st.tuples(st.integers(-3, 3), atoms, atoms),
                 min_size=0, max_size=4)


def build(ts):
    parts = [from_int(n, 4) * lfactor(a, 4) * lfactor(b, 4) for n, a, b in ts]
    return ring_sum(parts, 4)


@settings(max_examples=40, deadline=None)
@given(terms)
def test_parse_render_roundtrip_random(ts):
    x = build(ts)
    y = parse_ring_elem(render(x), 4)
    assert y.num == x.num and y.wpow == x.wpow and y.cyclo == x.cyclo


@settings(max_examples=40, deadline=None)
@given(terms, terms)
def test_normal_form_is_route_independent(ts, us):
    x, y = build(ts), build(us)
    p, q = x * y, y * x
    assert p.num == q.num and p.wpow == q.wpow and p.cyclo == q.cyclo
    s, t = x + y, y + x
    assert s.num == t.num and s.wpow == t.wpow and s.cyclo == t.cyclo


@settings(max_examples=40, deadline=None)
@given(terms, terms)
def test_domain_soundness_random(ts, us):
    x, y = build(ts), build(us)
    if x.is_zero() or y.is_zero():
        assert (x * y).is_zero()
    else:
        assert not (x * y).is_zero()


# ---- ring_sum against the flat per-term lcm loop -------------------------


def flat_ring_sum(terms):
    """Reference: lift every term straight to the full lcm, then add."""
    d0 = terms[0].d
    if len(terms) == 1:
        return terms[0]
    wp = max(t.wpow for t in terms)
    union = Counter()
    for t in terms:
        union |= Counter(t.cyclo)
    acc = {}
    for t in terms:
        num = t.num
        if not num:
            continue
        if wp > t.wpow:
            num = K.pshift(num, wp - t.wpow)
        missing = union - Counter(t.cyclo)
        for k, mult in missing.items():
            for _ in range(mult):
                num = K.pcyclo_mul(num, k)
        acc = K.padd(acc, num)
    cy = []
    for k in sorted(union):
        cy.extend([k] * union[k])
    return RingElem(d0, acc, wp, tuple(cy))


HODGE_MONOMIALS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]


def build_term(d, spec):
    """n * (Hodge monomial) * L^(e/d) * prod (L-1)/(L^(a/d)-1)."""
    n, (eu, ev), e, alphas = spec
    t = (from_int(n, d) * from_hodge(HodgePoly({(eu, ev): 1}), d)
         * lpow(F(e, d), d))
    for a in alphas:
        t = t * lfactor(F(a, d), d)
    return t


@st.composite
def sum_specs(draw):
    """(d, term specs, the same specs permuted).  Few exponents, so
    denominators repeat, and some specs are drawn twice; a zero n gives
    a zero term, and L-powers of both signs mix wpow."""
    d = draw(st.integers(1, 6))
    spec = st.tuples(st.integers(-2, 2), st.sampled_from(HODGE_MONOMIALS),
                     st.integers(-3, 3),
                     st.lists(st.integers(-6, 6).filter(bool), max_size=3))
    specs = draw(st.lists(spec, min_size=1, max_size=10))
    specs += draw(st.lists(st.sampled_from(specs), max_size=4))
    return d, specs, draw(st.permutations(specs))


# normalizing the tree's part sums would change the stored result here,
# because the normal form is not canonical
INNER_REDUCTION_CASE = [
    (1, (1, 0), -2, [-1, 4]), (1, (2, 1), 2, [1, -4]),
    (-1, (2, 1), -2, [2, 2]), (0, (0, 1), 1, [-3, 2]),
    (2, (0, 0), 3, [-2, 1]),
]


def stored(x):
    return x.num, x.wpow, x.cyclo


def ordered(x):
    """The stored form with the numerator's key order."""
    return list(x.num.items()), x.wpow, x.cyclo


@settings(max_examples=80, deadline=None)
@given(sum_specs())
@example((3, INNER_REDUCTION_CASE, INNER_REDUCTION_CASE[::-1]))
def test_ring_sum_matches_flat_lcm_loop(case):
    d, specs, shuffled = case
    terms = [build_term(d, spec) for spec in specs]
    got = ring_sum(terms, d)
    assert stored(got) == stored(flat_ring_sum(terms))
    again = ring_sum([build_term(d, spec) for spec in shuffled], d)
    assert stored(again) == stored(got)
    assert render(again) == render(got)


def raw_term(d, spec):
    """num / (w^wpow * prod (w^k - 1)) from {(t, c): coeff}, t < 0
    being a v-power."""
    num, wpow, cyclo = spec
    return RingElem(d, {K.mkkey(t, c): v for (t, c), v in num.items()},
                    wpow, cyclo)


SMALL_K = (1, 2, 3, 4, 6)


@st.composite
def wide_sum_specs(draw):
    """(d, raw term specs, path, order): coefficients up to 2^100 of both
    signs, u- and v-components, and one factor repeated 12 to 14 times
    in some terms.  Path "dict" marks a draw where one more term has a
    single huge (w^k - 1) and the others none, so that the packed root
    would be far larger than the sparse one; None leaves the path to
    the sum.  Order is a drawn permutation of the specs, to sum them
    again in.  (A small factor next to the huge one would make the root
    divisible by w - 1, with a quotient of k terms; the other terms'
    coefficients are then positive, so that no group sums to zero and
    escapes the huge lift.)"""
    d = draw(st.integers(1, 6))
    sparse = draw(st.booleans())
    coeff = st.integers(1 if sparse else -2 ** 100, 2 ** 100).filter(bool)
    num = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 8)),
                          coeff, min_size=1, max_size=5)
    factors = st.just([])
    if not sparse:
        factors = st.one_of(
            st.lists(st.sampled_from(SMALL_K), max_size=6),
            st.tuples(st.sampled_from((1, 2, 3)), st.integers(12, 14))
            .map(lambda kn: [kn[0]] * kn[1]))
    specs = draw(st.lists(st.tuples(num, st.integers(0, 3), factors),
                          min_size=2, max_size=8))
    if sparse:
        huge = draw(st.sampled_from((2 ** 18, 2 ** 20, 2 ** 22)))
        specs.append((draw(num), draw(st.integers(0, 3)), [huge]))
    order = draw(st.permutations(range(len(specs))))
    return d, specs, "dict" if sparse else None, order


def reversed_order(case):
    """A (d, specs, path) case with the order that sums its specs again
    in reverse."""
    d, specs, path = case
    return d, specs, path, list(range(len(specs)))[::-1]


BIG = 2 ** 100
# each term is lifted by the other's 13 factors, so the root's u^0- and
# v^2-components hold coefficients up to C(13, 6) * 2^100 > 2^110
REPEATED_FACTOR_CASE = (1, [({(0, 0): BIG, (-2, 0): BIG}, 0, [1] * 13),
                            ({(0, 0): -BIG, (-2, 3): -BIG}, 0, [2] * 13)],
                        "packed")
# M + (M w + M) / w: the root M w + (M w + M) has a coefficient 2M, two
# thirds of the bound 3M < 2^104, so a digit of 104 bits, with no room
# for the sign, would misread it
TIGHT = 2 ** 102 + 1
TIGHT_BOUND_CASE = (1, [({(0, 0): TIGHT}, 0, []),
                        ({(0, 0): TIGHT, (0, 1): TIGHT}, 1, [])], "packed")
# lfactor(2^20, 1) + lfactor(3, 1)^21: the first term is lifted by 21
# factors, but to degree 64 only, so its sparse lift has at most 65
# monomials, while a packed root would have 2^20 digits
SPARSE_LIFT_CASE = (1, [({(0, 1): 1, (0, 0): -1}, 0, [2 ** 20]),
                        ({(0, j): comb(21, j) * (-1) ** (21 - j)
                          for j in range(22)}, 0, [3] * 21)], "dict")

# factors 2 and 3 repeated two or three times in several groups, so
# that the denominator masks have three layers and a node's lcm takes
# a factor's multiplicity from one child and another's from the other
LAYERED_CASE = (2, [({(0, 0): 3, (1, 2): -1}, 1, [2, 2, 3]),
                    ({(0, 1): 5}, 0, [2, 3, 3, 3]),
                    ({(-1, 0): 2, (0, 4): 7}, 2, [2, 2, 2]),
                    ({(0, 0): -4}, 0, [3, 3, 5]),
                    ({(1, 1): 1}, 3, [2, 5, 5])], "packed")
# the same factor at multiplicity 1, 2 and 3 in groups that the tree
# pairs in every way
NESTED_CASE = (1, [({(0, 0): 1}, 0, [4]), ({(0, 0): 1}, 0, [4, 4]),
                   ({(0, 1): -1}, 0, [4, 4, 4]), ({(0, 2): 2}, 1, [1, 4]),
                   ({(0, 0): 1, (2, 0): 1}, 0, [1, 1, 4, 4])], "packed")


@settings(max_examples=60, deadline=None)
@given(wide_sum_specs())
@example(reversed_order(REPEATED_FACTOR_CASE))
@example(reversed_order(LAYERED_CASE))
@example(reversed_order(NESTED_CASE))
@example(reversed_order(TIGHT_BOUND_CASE))
@example(reversed_order(SPARSE_LIFT_CASE))
# the group without factors sums to zero, so nothing is lifted by the
# huge factor and the packed root is one digit
@example(reversed_order((1, [({(0, 0): 2}, 0, []), ({(0, 0): -2}, 0, []),
                             ({(0, 0): 1}, 0, [2 ** 18])], None)))
def test_ring_sum_matches_flat_lcm_loop_on_both_paths(case):
    """Both paths store the flat loop's form, keys ascending and in the
    same order whatever the order of the terms."""
    d, specs, path, order = case
    terms = [raw_term(d, spec) for spec in specs]
    packs = []
    pack = K.kpack
    K.kpack = lambda *args: packs.append(args) or pack(*args)
    try:
        got = ring_sum(terms, d)
    finally:
        K.kpack = pack
    again = ring_sum([terms[i] for i in order], d)
    want = flat_ring_sum(terms)
    for x in (got, again, want):
        assert list(x.num) == sorted(x.num)
    assert ordered(got) == ordered(again) == ordered(want)
    if path is not None:
        assert bool(packs) == (path == "packed")


def test_chain_invariant_sum_runs_packed(monkeypatch):
    # a packed path that has silently gone dead would lift the chain's
    # sums with pcyclo_mul again
    cfg = chain_config(40)
    calls = Counter()

    def counting(op, real):
        def spy(*args):
            calls[op] += 1
            return real(*args)
        return spy

    for op in ("pcyclo_mul", "klift"):
        monkeypatch.setattr(K, op, counting(op, getattr(K, op)))
    assert invariant_sum(cfg).is_zero()
    assert calls["pcyclo_mul"] == 0 and calls["klift"] > 0


def test_packing_a_dense_numerator_is_linear():
    # lfactor(2) + lfactor(2^17) stores 2^17 terms over (w^(2^17) - 1);
    # adding 1 lifts 1 by that factor and packs the 2^17 terms into one
    # int of 2^17 digits.  Adding the shifted monomials one by one
    # copies the growing int per monomial: on a 2-vCPU VM that took
    # 4.7 s at 2^16 terms and 14.6 s at 2^17, against a quarter of a
    # second when packed through one buffer.
    n = 2 ** 17
    x = lfactor(2, 1) + lfactor(n, 1)
    assert len(x.num) == n and x.cyclo == (n,)
    packs = []
    pack = K.kpack
    K.kpack = lambda *args: packs.append(args) or pack(*args)
    try:
        start = time.perf_counter()
        got = x + one(1)
        elapsed = time.perf_counter() - start
    finally:
        K.kpack = pack
    assert packs
    assert stored(got) == stored(flat_ring_sum([x, one(1)]))
    assert elapsed < 4
