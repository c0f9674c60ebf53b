"""Invariants of configurations: motivic, Euler, and point-count routes."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvcalc.birational import blow_up, free
from pvcalc.errors import (ContextError, ExponentError, LogPoleError,
                           ValidationError)
from pvcalc.models import candidate_centers
from pvcalc.motring import (HodgePoly, _lfactor_cached, euler_realize,
                            from_hodge, from_int, lfactor, lpow, numeric_eval,
                            one, parse_ring_elem, render, render_hodge,
                            ring_sum)
from pvcalc.pvint import (_term, e_invariant, e_padic, invariant_sum,
                          pv_integral)
from pvcalc.surface import (Config, Curve, plane, ruled, stratum_class,
                            validate)

from oracles import e_euler
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


# ---- the term cache against its plain loop ---------------------------------


def plain_term(items, ms, d):
    """_term as a plain loop: from_hodge of the class, then one product
    per exponent, in order."""
    t = from_hodge(HodgePoly(dict(items)), d)
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
        assert stored_term(_term, items, ms, d) == \
            stored_term(plain_term, items, ms, d)
