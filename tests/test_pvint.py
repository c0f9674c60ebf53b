"""Invariants of configurations: motivic, Euler, and point-count routes."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pvcalc.pvint as pvint
from pvcalc.birational import blow_up, free
from pvcalc.errors import (ContextError, ExponentError, LogPoleError,
                           ValidationError)
from pvcalc.models import candidate_centers
from pvcalc.motring import (HodgePoly, _lfactor_cached, euler_realize,
                            from_hodge, from_int, lfactor, lpow, numeric_eval,
                            one, parse_ring_elem, render, render_hodge,
                            ring_sum)
from pvcalc.models import random_config
from pvcalc.pvint import (_keeps, _tally_sum, _term, e_invariant, e_padic,
                          invariant_sum, pv_integral, stratum_sum,
                          stratum_terms)
from pvcalc.surface import (Config, Curve, plane, ruled, strata,
                            stratum_class, validate)

from oracles import chain_config, e_euler
from test_surface import perturbed_configs

F = Fraction


def conic():
    return Config(2, plane(), [Curve("C", 0, 4, F(-1, 2))], [])


def two_sections(fibre_alphas, selfs=(0, 0), d=2):
    e = selfs[1]
    m = len(fibre_alphas)
    curves = [Curve("C1", 0, selfs[0], 0), Curve("C2", 0, e, 0)]
    curves += [Curve(f"F{k}", 0, 0, a) for k, a in enumerate(fibre_alphas, 1)]
    pts = []
    for k in range(1, m + 1):
        pts += [(f"F{k}", "C1"), (f"F{k}", "C2")]
    return Config(d, ruled(0), curves, pts)


def bad_triangle():
    return Config(2, plane(),
                  [Curve("L1", 0, 1, F(1, 2)), Curve("L2", 0, 1, F(1, 2)),
                   Curve("L3", 0, 1, F(1, 2))],
                  [("L1", "L2"), ("L1", "L3"), ("L2", "L3")])


# ---- the conic oracle ---------------------------------------------------


def test_conic_invariant():
    cfg = conic()
    E = e_invariant(cfg)
    d = 2
    # open plane stratum L^2, open conic stratum (L + 1) lf(-1/2)
    assert E == lpow(2, d) + (lpow(1, d) + one(d)) * lfactor(F(-1, 2), d)
    assert render(E) == "-(w^3 + w^2 + w)"
    assert render_hodge(E) == "-((u*v)^(3/2) + u*v + (u*v)^(1/2))"


def test_conic_specializations():
    cfg = conic()
    assert e_euler(cfg) == -3
    assert euler_realize(e_invariant(cfg)) == -3
    assert e_padic(cfg, 9) == [F(-39)]
    assert e_padic(cfg, 3) == [F(-3), F(-4)]
    assert e_padic(cfg, 2) == [F(-2), F(-3)]


def test_conic_pv():
    pv = pv_integral(conic())
    assert render(pv) == "-(w^2 + w + 1) / w^3"
    assert pv == e_invariant(conic()) * lpow(-2, 2)


# ---- gates ---------------------------------------------------------------


def test_empty_divisor():
    cfg = Config(1, plane(), [], [])
    E = e_invariant(cfg)
    assert E == from_hodge(plane(), 1)
    assert render(pv_integral(cfg)) == "(w^2 + w + 1) / w^2"
    assert e_euler(cfg) == 3


def test_log_pole_guard():
    cfg = two_sections([F(1, 2), F(-1, 2), 1, 1])
    assert e_invariant(cfg) is not None        # fine without the pole guard
    with pytest.raises(LogPoleError) as exc:
        pv_integral(cfg)
    assert "alpha = 0" in str(exc.value)


def test_validation_gate():
    cfg = bad_triangle()
    for fn in (e_invariant, pv_integral, e_euler,
               lambda c: e_padic(c, 3)):
        with pytest.raises(ValidationError) as exc:
            fn(cfg)
        assert exc.value.report is not None
        assert not exc.value.report.ok
        assert "adjunction" in str(exc.value)
    # the unchecked sum still works
    assert invariant_sum(cfg) is not None


def test_padic_context_guard():
    with pytest.raises(ContextError):
        e_padic(conic(), 1)
    with pytest.raises(ContextError):
        e_padic(conic(), 2.5)


# ---- vanishing and partition identities ----------------------------------


def test_ruled_zero_exponent_sections_vanish():
    # two alpha 0 sections force the whole invariant to zero
    cfg = two_sections([F(1, 2), F(-1, 2), 1])
    assert e_invariant(cfg).is_zero()
    cfg = two_sections([F(1, 2), F(-1, 2), 1], selfs=(-1, 1))
    assert e_invariant(cfg).is_zero()
    assert e_euler(cfg) == 0


def test_case_b_style_vanishing():
    # sections with opposite nonzero exponents
    curves = [Curve("C1", 0, 0, F(1, 2)), Curve("C2", 0, 0, F(-1, 2)),
              Curve("F1", 0, 0, -1)]
    cfg = Config(2, ruled(0), curves, [("F1", "C1"), ("F1", "C2")])
    assert e_invariant(cfg).is_zero()
    assert e_euler(cfg) == 0
    assert e_padic(cfg, 5) == [F(0), F(0)]


def test_all_unit_partition():
    # with every exponent 1 all factors collapse and the stratum sum
    # reassembles the ambient class, adjunction or not
    cfg = Config(1, plane(),
                 [Curve("L1", 0, 1, 1), Curve("L2", 0, 1, 1),
                  Curve("L3", 0, 1, 1)],
                 [("L1", "L2"), ("L1", "L3"), ("L2", "L3")])
    assert invariant_sum(cfg) == from_hodge(plane(), 1)


def test_euler_routes_agree():
    fixtures = [
        conic(),
        two_sections([F(1, 2), F(-1, 2), 1]),
        two_sections([F(1, 2), F(-1, 2), 1], selfs=(-2, 2)),
        Config(1, plane(), [], []),
    ]
    for cfg in fixtures:
        assert e_euler(cfg) == euler_realize(e_invariant(cfg))


def cubic_and_line(a, d):
    """A plane cubic (genus 1) and a line through 3 of its points; the
    adjunction identities leave alpha_line = 1 - 3 alpha_cubic."""
    return Config(d, plane(), [Curve("C", 1, 9, a), Curve("L", 0, 1, 1 - 3 * a)],
                  [("C", "L", k) for k in range(3)])


def section_and_fibres(genus, fibre_alphas, d):
    """A genus-g section of self-intersection 0 on ruled(g), alpha -1,
    crossed once by each fibre."""
    curves = [Curve("S", genus, 0, -1)]
    curves += [Curve(f"F{k}", 0, 0, a) for k, a in enumerate(fibre_alphas, 1)]
    return Config(d, ruled(genus), curves,
                  [(f"F{k}", "S") for k in range(1, len(fibre_alphas) + 1)])


def positive_genus_fixtures():
    """Valid configurations with a positive-genus curve, each with every
    one-step blow-up; point blow-ups of cubic_and_line make an alpha = 0
    curve of self-intersection -1."""
    base = [
        cubic_and_line(F(1, 2), 2),
        cubic_and_line(F(2, 3), 3),
        cubic_and_line(F(-1, 3), 3),
        Config(4, plane(), [Curve("Q", 3, 16, F(1, 4))], []),   # quartic
        section_and_fibres(1, [0, 1, 2], 1),
        section_and_fibres(2, [F(1, 2), F(7, 2)], 2),
    ]
    out = []
    for cfg in base:
        out.append(cfg)
        out += [blow_up(cfg, c) for c in candidate_centers(cfg) + [free()]]
    return out


def test_euler_oracle_positive_genus_and_log_curves():
    fixtures = positive_genus_fixtures()
    values = set()
    for cfg in fixtures:
        assert validate(cfg).ok
        value = euler_realize(e_invariant(cfg))
        assert e_euler(cfg) == value
        values.add(value)
    assert values >= {-12, -4, 8, -9, 0}
    assert any(c.alpha == 0 and c.self_int != 0
               for cfg in fixtures for c in cfg.curves)


@settings(max_examples=150, deadline=None)
@given(perturbed_configs())
def test_euler_oracle_on_valid_perturbed_configs(cfg):
    assume(validate(cfg).ok)
    assert e_euler(cfg) == euler_realize(e_invariant(cfg))


# ---- point counts with positive genus -------------------------------------


def elliptic(trace, alpha=-1):
    return Config(1, ruled(1), [Curve("E", 1, 0, alpha, count_trace=trace)], [])


def test_padic_uses_trace():
    # the Hodge route sees chi(E) = 0, the counting route sees q + 1 - a
    cfg = elliptic(2)
    assert numeric_eval(e_invariant(cfg), 5) == [F(0)]
    assert e_padic(cfg, 5) == [F(-24)]      # (5 + 1 - 2) * (-5 - 1)
    assert e_padic(elliptic(0), 5) == [F(-36)]


def test_padic_rational_agrees_with_numeric():
    for cfg in (conic(), two_sections([F(1, 2), F(-1, 2), 1])):
        for q in (2, 3, 4, 5, 9):
            assert e_padic(cfg, q) == numeric_eval(e_invariant(cfg), q)


def test_invariant_cache_consistency():
    a = conic()
    b = Config(2, plane(), [Curve("C", 0, 4, "-1/2")], [])
    assert a == b
    assert invariant_sum(a) == invariant_sum(b)
    assert render(parse_ring_elem(render(invariant_sum(a)), 2)) == \
        render(invariant_sum(b))


# ---- the stratum sum against its plain loop --------------------------------


def reference_invariant_sum(config):
    """invariant_sum as first written: every term built by its own
    products, no caches."""
    d = config.d
    live = [c for c in config.curves if c.alpha != 0]
    terms = [from_hodge(stratum_class(config, ()), d)]
    for c in live:
        terms.append(from_hodge(stratum_class(config, (c.id,)), d)
                     * lfactor(c.alpha, d))
    for i, ci in enumerate(live):
        for cj in live[i + 1:]:
            n = config.intersection(ci.id, cj.id)
            if n:
                terms.append(from_int(n, d) * lfactor(ci.alpha, d)
                             * lfactor(cj.alpha, d))
    for c in config.curves:
        if c.alpha != 0 or c.self_int == 0:
            continue
        t = from_int(-c.self_int, d)
        for j in config.neighbors[c.id]:
            t = t * lfactor(config.curve(j).alpha, d)
        terms.append(t)
    return ring_sum(terms, d)


def stored_or_error(fn, cfg):
    try:
        x = fn(cfg)
    except (ExponentError, LogPoleError) as exc:
        return type(exc)
    return (list(x.num.items()), x.wpow, x.cyclo, render(x))


@settings(max_examples=150, deadline=None)
@given(perturbed_configs())
def test_invariant_sum_matches_plain_loop(cfg):
    assert stored_or_error(invariant_sum, cfg) == \
        stored_or_error(reference_invariant_sum, cfg)


def test_invariant_sum_errors_on_invalid_configs():
    offgrid = Config(2, plane(), [Curve("C", 0, 4, F(-1, 3))], [])
    assert not validate(offgrid).ok
    for fn in (invariant_sum, reference_invariant_sum):
        with pytest.raises(ExponentError, match="exponent -1/3 is not a"):
            fn(offgrid)
    # of two alphas off the grid, the first in id order is named
    two_off = Config(2, plane(), [Curve("B", 0, 4, F(1, 3)),
                                  Curve("C", 0, 4, F(1, 2)),
                                  Curve("A", 0, 4, F(-1, 5))], [("A", "B")])
    for fn in (invariant_sum, lambda c: c.exponents):
        with pytest.raises(ExponentError) as exc:
            fn(two_off)
        assert str(exc.value) == "exponent -1/5 is not a multiple of 1/2"
    log_pair = Config(1, ruled(0),
                      [Curve("A", 0, 0, 0), Curve("B", 0, -4, 0),
                       Curve("U1", 0, 0, 1), Curve("U2", 0, 0, 1)],
                      [("A", "B"), ("A", "U1"), ("B", "U2")])
    for fn in (invariant_sum, reference_invariant_sum,
               lambda c: lfactor(0, c.d)):
        with pytest.raises(LogPoleError) as exc:
            fn(log_pair)
        assert str(exc.value) == \
            "lfactor(0): logarithmic pole in the first sum"


def test_equal_configs_store_one_form():
    """Configs equal up to the order of the ambient class's terms are
    equal, and their sums store one form, keys ascending, whichever is
    summed first."""
    forward = HodgePoly({(2, 2): 1, (1, 1): 2, (0, 0): 1})
    backward = HodgePoly(dict(reversed(list(forward.items()))))
    first, second = Config(1, forward), Config(1, backward)
    assert first == second
    assert list(invariant_sum(first).num.items()) == [(0, 1), (1, 2), (2, 1)]
    assert list(invariant_sum(second).num.items()) == [(0, 1), (1, 2), (2, 1)]
    # a second call on the same Config returns what the first stored
    assert invariant_sum(second) is invariant_sum(second)


# ---- the term cache against its plain loop ---------------------------------


def plain_term(h, ms, d):
    """_term as a plain loop: from_hodge of the class, then one product
    per exponent, in order."""
    t = from_hodge(h, d)
    for m in ms:
        t = t * _lfactor_cached(m, d)
    return t


def stored_term(fn, *args):
    try:
        t = fn(*args)
    except ExponentError as exc:
        return str(exc)
    return (list(t.num.items()), t.wpow, t.cyclo)


HODGE_TERMS = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
              st.integers(-3, 3).filter(bool)),
    min_size=1, max_size=4, unique_by=lambda t: t[0]).map(tuple)
# a few exponents, so that prefixes repeat, and one past the packed-key
# limit, which raises ExponentError
EXPONENTS = st.sampled_from((1, -1, 2, -3, 5, 2 ** 33))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3)),
       st.lists(HODGE_TERMS, min_size=1, max_size=3, unique=True),
       st.data())
def test_term_matches_plain_loop(d, classes, data):
    """Terms that share a class and first exponents, called in a drawn
    order from a cleared cache, so that a call finds its prefix
    sometimes cached and sometimes not."""
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(classes),
                  st.lists(EXPONENTS, max_size=4).map(tuple)),
        min_size=1, max_size=8))
    _term.cache_clear()
    for items, ms in calls:
        h = HodgePoly(dict(items))
        assert stored_term(_term, h, ms, d) == \
            stored_term(plain_term, h, ms, d)


def test_equal_classes_share_one_term():
    """_term is keyed by the class: an equal class whose terms come in
    another order finds the entry, and a cold call on either stores
    the same form, keys ascending."""
    forward = HodgePoly({(2, 1): 1, (0, 0): -2, (1, 0): 3})
    backward = HodgePoly(dict(reversed(list(forward.items()))))
    assert forward == backward
    assert list(forward.items()) != list(backward.items())
    _term.cache_clear()
    first = _term(forward, (2, -3), 2)
    entries = _term.cache_info().currsize
    assert _term(backward, (2, -3), 2) is first
    assert _term.cache_info().currsize == entries
    assert list(first.num) == sorted(first.num)
    for h in (forward, backward):
        _term.cache_clear()
        assert stored_term(_term, h, (2, -3), 2) == \
            stored_term(plain_term, forward, (2, -3), 2)


# ---- the one-pass stratum sum against the term path ------------------------


def term_path(strata, curves, d):
    return ring_sum(stratum_terms(strata, curves, d), d)


def stored_sum(fn, strata, curves, d):
    try:
        x = fn(strata, curves, d)
    except (ExponentError, LogPoleError) as exc:
        return type(exc), str(exc)
    return list(x.num.items()), x.wpow, x.cyclo


ONE = HodgePoly.one()
# u*v + 1 folds to w^d + 1, which Phi_k divides for each k that divides
# 2d but not d: a term of it over (w^k - 1) reduces
P1 = HodgePoly({(1, 1): 1, (0, 0): 1})
PHI_CLASSES = (P1, HodgePoly({(2, 1): 1, (1, 0): 1}),
               HodgePoly({(2, 2): 1, (0, 0): 1}))
CLASSES = st.one_of(HODGE_TERMS.map(lambda t: HodgePoly(dict(t))),
                    st.sampled_from(PHI_CLASSES))
# k = |m| dividing d and not, both signs, repeated |m|, and one exponent
# past the packed-key limit
EXPONENTS_FOR_SUMS = (1, -1, 2, -2, 3, -3, 4, -4, 5, 6, -6, 8, 12, -12,
                      2 ** 33)
# a d near the packed-key limit, for the tests of the guards; the
# property draws none, as the term path can build a quotient of about d
# terms there before a guard refuses it (see CHANGES.md)
HUGE_D = 2 ** 31 - 1


@st.composite
def stratum_data(draw):
    """(strata, curves, d) as stratum_terms takes them: drawn classes,
    some of which Phi_k divides, and exponents, some zero; curves with
    m = 0, some with a zero neighbor exponent.  Half the draws add
    every term again with the opposite sign, in a drawn order, so the
    sum is zero."""
    d = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    # each k that divides 2d but not d, for which Phi_k divides P1
    phi_ks = tuple(k for k in range(2, 2 * d + 1, 2)
                   if 2 * d % k == 0 and d % k)
    exps = st.sampled_from(EXPONENTS_FOR_SUMS + phi_ks)
    some = st.one_of(exps, exps, exps, st.just(0))
    classes = draw(st.lists(CLASSES, min_size=1, max_size=4))
    strata = draw(st.lists(
        st.tuples(st.lists(some, max_size=3).map(tuple),
                  st.sampled_from(classes)), max_size=8))
    curves = draw(st.lists(
        st.tuples(st.sampled_from((0, 0, 2)), st.integers(-3, 3),
                  st.lists(some, max_size=3)), max_size=3))
    if draw(st.booleans()):
        # a class that Phi_k divides over (w^k - 1), beside terms over
        # other factors, so that the size rule packs the sum
        strata.append(((draw(st.sampled_from(phi_ks)),), P1))
        strata += [((k,), ONE) for k in draw(st.lists(
            st.sampled_from((5, 7, 9, 11)), min_size=2, max_size=4))]
    if draw(st.booleans()):
        strata += [(ms, -h) for ms, h in strata]
        curves += [(m, -s, nbs) for m, s, nbs in curves]
        strata, curves = draw(st.permutations(strata)), draw(
            st.permutations(curves))
    return strata, curves, d


@settings(max_examples=200, deadline=None)
@given(stratum_data())
@example(([((4,), P1), ((5,), ONE), ((7,), ONE), ((5, 7), ONE)], [], 6))
def test_stratum_sum_matches_the_term_path(data):
    _tally_sum.cache_clear()
    assert stored_sum(stratum_sum, *data) == stored_sum(term_path, *data)


def sum_inputs(cfg):
    """invariant_sum's (strata, curves, d) for cfg."""
    ex = cfg.exponents
    return ([(tuple(ex[i] for i in ids), h) for ids, h in strata(cfg)],
            pvint.curve_data(cfg, [i for i, m in ex.items() if not m]),
            cfg.d)


def routed(monkeypatch, strata, curves, d):
    """stratum_sum's stored result or error, whether it summed the terms
    themselves, and what motring._packed_sum returned, or "not called",
    from a cleared _tally_sum cache."""
    seen = {"terms": False, "packed": "not called"}
    terms, packed = pvint.stratum_terms, pvint._packed_sum

    def counting_terms(*args):
        seen["terms"] = True
        return terms(*args)

    def counting_packed(*args):
        seen["packed"] = packed(*args)
        return seen["packed"]

    _tally_sum.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(pvint, "stratum_terms", counting_terms)
        patch.setattr(pvint, "_packed_sum", counting_packed)
        got = stored_sum(stratum_sum, strata, curves, d)
    assert got == stored_sum(term_path, strata, curves, d)
    return got, seen["terms"], seen["packed"]


def test_stratum_sum_packs_a_chain(monkeypatch):
    got, summed_terms, packed = routed(monkeypatch,
                                       *sum_inputs(chain_config(40)))
    assert not summed_terms and packed == {} and got == ([], 0, ())


@pytest.mark.parametrize("m", (4, 12, -4))
def test_a_class_that_phi_k_divides_goes_to_the_term_path(monkeypatch, m):
    # at d = 6, (w^6 + 1)(w^6 - 1)/(w^4 - 1) reduces: the term stores
    # w^8 + w^4 + 1 with no factor, which the packed group would not
    assert not _keeps(P1, abs(m), 6) and _keeps(ONE, abs(m), 6)
    assert stratum_terms([((4,), P1)], [], 6)[0].cyclo == ()
    strata = [((m,), P1), ((5,), ONE), ((7,), ONE), ((5, 7), ONE)]
    got, summed_terms, packed = routed(monkeypatch, strata, [], 6)
    assert packed and summed_terms and got[2] == (5, 7)


def test_a_sum_of_one_group_is_packed(monkeypatch):
    # every k divides d: the terms share the denominator 1
    terms = [((), ONE), ((1,), ONE), ((2,), P1), ((-1,), ONE)]
    got, summed_terms, packed = routed(monkeypatch, terms, [], 2)
    assert packed and not summed_terms and got[2] == ()
    # a zero sum of one group is zero on either path
    got, summed_terms, packed = routed(
        monkeypatch, terms + [(ms, -h) for ms, h in terms], [], 2)
    assert packed == {} and not summed_terms and got == ([], 0, ())


def test_a_sum_the_size_rule_keeps_on_dicts(monkeypatch):
    # 1 + (w - 1)/(w^65536 - 1): the packed root would have 65537
    # digits, the sparse root has at most 4 monomials
    got, summed_terms, packed = routed(
        monkeypatch, [((1,), ONE), ((2 ** 16,), ONE)], [], 1)
    assert packed and not summed_terms and got[2] == (2 ** 16,)
    # random_config(1)'s invariant is a zero sum that the rule keeps on
    # dicts: the dict route shows the zero, with no term built
    got, summed_terms, packed = routed(monkeypatch,
                                       *sum_inputs(random_config(1)))
    assert packed == {} and not summed_terms and got == ([], 0, ())


def test_a_numerator_longer_than_the_sparse_bound_is_never_packed(
        monkeypatch):
    # at d = 1000 each numerator has 1001 digits, and the sparse root
    # at most 2 monomials per term, times 2 per factor of the lcm
    u = HodgePoly({(1, 0): 1})
    got, summed_terms, packed = routed(
        monkeypatch, [((7,), ONE), ((3,), u)], [], 1000)
    assert packed == "not called" and summed_terms and got[2] == (3, 7)


def test_a_huge_d_packs_no_factor_that_no_term_has(monkeypatch):
    # with no exponent, no term has (w^d - 1) or a geometric sum, so
    # nothing of d digits is built: (w^d - 1) alone would take 2^31
    # bytes here
    u = HodgePoly({(1, 0): 1})
    got, summed_terms, packed = routed(
        monkeypatch, [((), ONE), ((), u)], [], HUGE_D)
    assert packed and not summed_terms and len(got[0]) == 2
    got, summed_terms, packed = routed(
        monkeypatch, [((), u), ((), -u)], [], HUGE_D)
    assert packed == {} and not summed_terms and got == ([], 0, ())


def test_a_zero_neighbor_exponent_raises_on_the_term_path(monkeypatch):
    got, summed_terms, packed = routed(monkeypatch, [((), ONE)],
                                       [(0, 1, [2, 0])], 2)
    assert got == (LogPoleError,
                   "lfactor(0): logarithmic pole in the first sum")
    assert summed_terms and packed == "not called"


@pytest.mark.parametrize("strata, d", [
    # one exponent past the packed key: lfactor's guard
    ([((2 ** 33,), ONE), ((), ONE)], 1),
    # a class past it at a large d: from_hodge's guard
    ([((2,), HodgePoly({(2, 2): 1})), ((), ONE)], HUGE_D),
    # two factors whose lcm is past it: ring_sum's guard
    ([((2 ** 31 + 1,), ONE), ((2 ** 31 + 3,), ONE)], 1),
])
def test_sums_near_the_key_limit_raise_on_the_term_path(monkeypatch,
                                                         strata, d):
    got, summed_terms, packed = routed(monkeypatch, strata, [], d)
    assert got[0] is ExponentError and "2^32 - 1" in got[1]
    assert summed_terms and packed == "not called"


def test_keeps_matches_sympy_division():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    classes = [ONE, P1, HodgePoly({(2, 1): 1, (1, 0): 1}),
               HodgePoly({(2, 2): 1, (0, 0): 1}),
               HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1}),
               HodgePoly({(3, 3): 1, (0, 0): -1, (1, 0): 2}),
               HodgePoly({(3, 3): 1, (2, 2): -1, (1, 1): 1, (0, 0): -1})]
    for h in classes:
        for d in (1, 2, 3, 6):
            comps = {}
            for (eu, ev), c in h.items():
                comps[eu - ev] = (comps.get(eu - ev, 0)
                                  + c * w ** (d * min(eu, ev)))
            for k in range(1, 25):
                phi = sympy.Poly(sympy.cyclotomic_poly(k, w), w)
                divides = all(sympy.Poly(f, w).rem(phi).is_zero
                              for f in comps.values() if f != 0)
                assert _keeps(h, k, d) == (not divides), (h, d, k)
