"""Acceptance gate: the eight primary criteria, all checked exactly.

Each test prints a single ACCEPTANCE line (visible with pytest -s).
Every comparison is exact: ring-element equality, Fraction equality, or
string equality of renders.  No tolerances anywhere.
"""

import math
import random
from fractions import Fraction

from pvcalc.birational import (add_unit_curve, at_point, exceptional_alphas,
                               exceptional_delta, free, invariance_delta,
                               on_curve)
from pvcalc.models import (candidate_centers, case_c_resolved,
                           conic_pipeline_demo, hirzebruch_case_a,
                           hirzebruch_case_b, plane_conic, random_config)
from pvcalc.motring import (euler_realize, from_int, lfactor, lpow,
                            numeric_eval, one, render, ring_sum)
from pvcalc.pvint import e_invariant, e_padic
from pvcalc.surface import stratum_class, validate
from pvcalc.zeta import (ResolutionComponent, SurfaceResolutionDatum,
                         build_config, pole_report, residue_contribution,
                         residue_via_substitution, triangle_datum,
                         zmot_contribution, zmot_from_surface)

from oracles import e_euler

F = Fraction


def _verdict(k, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {k} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {k} {name}: PASS")


# ---- criterion 1: vanishing on the three ruled-surface families -----------


def _case_a_patterns(e, m):
    target = F(m - 2 - e)
    yield [F(1)] * (m - 1) + [target - (m - 1)]
    for d in (2, 3, 4, 6, 12):
        alphas = [F(1, d) if k % 2 == 0 else F(-1, d) for k in range(m - 1)]
        yield alphas + [target - sum(alphas)]
    p3 = [F(0)] + [F(1)] * (m - 2)
    yield p3 + [target - sum(p3)]


def _case_b_patterns(a1, e, m):
    target = F(m - 2) + a1 * e
    if a1 == 0:
        # keep the two exponent-zero sections allowed
        if m >= 2:
            for a in (F(1, 2), F(2), F(5, 12)):
                yield [a, -a] + [F(1)] * (m - 2)
        yield [F(-1)] + [F(1)] * (m - 1)
        return
    yield [F(1)] * (m - 1) + [target - (m - 1)]
    for d in (2, 3, 4, 6, 12):
        alphas = [F(1, d) if k % 2 == 0 else F(-1, d) for k in range(m - 1)]
        yield alphas + [target - sum(alphas)]


def _criterion_1():
    checked = 0
    for e in range(4):
        for m in range(2, 6):
            for alphas in _case_a_patterns(e, m):
                d = math.lcm(*[a.denominator for a in alphas])
                cfg = hirzebruch_case_a(e, alphas, d)
                assert validate(cfg).ok
                assert e_invariant(cfg).is_zero(), ("a", e, m, alphas)
                checked += 1
    grid_a1 = (F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(3, 2), F(1, 3),
               F(-2, 3), F(5, 12))
    for a1 in grid_a1:
        for e in range(4):
            for m in range(1, 5):
                for alphas in _case_b_patterns(a1, e, m):
                    d = math.lcm(a1.denominator,
                                 *[a.denominator for a in alphas])
                    cfg = hirzebruch_case_b(e, a1, alphas, d)
                    assert validate(cfg).ok
                    assert e_invariant(cfg).is_zero(), ("b", a1, e, m, alphas)
                    checked += 1
    for a1 in (F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(2), F(-2)):
        for d in (1, 2, 3, 4):
            for extra in (0, 1):
                cfg = case_c_resolved(a1, extra_fibres=extra, d=d)
                assert validate(cfg).ok
                assert e_invariant(cfg).is_zero(), ("c", a1, d, extra)
                checked += 1
    assert checked >= 400


def test_1_ruled_families_vanish():
    _verdict(1, "ruled-surface families vanish exactly", _criterion_1)


# ---- criterion 2: the conic and its pipeline -------------------------------


def _criterion_2():
    cfg = plane_conic()
    E = e_invariant(cfg)
    assert render(E) == "-(w^3 + w^2 + w)"
    assert E == lpow(2, 2) + (lpow(1, 2) + one(2)) * lfactor(F(-1, 2), 2)
    assert e_euler(cfg) == -3
    assert e_padic(cfg, 9) == [F(-39)]

    steps = conic_pipeline_demo()
    assert render(steps[0].invariant) == "-(w^3 + w^2 + w)"
    assert steps[-1].invariant.is_zero()
    for s in steps:
        assert s.delta.is_zero() == (not s.exceptional), s.label
        assert validate(s.config).ok
    total = ring_sum([s.delta for s in steps], 2)
    assert total == steps[-1].invariant - steps[0].invariant
    exc_total = ring_sum([s.delta for s in steps if s.exceptional], 2)
    assert exc_total == total          # all change sits in exceptional steps
    assert sum(1 for s in steps if s.exceptional) == 1
    assert steps[3].delta == -exceptional_delta(F(1, 2), 2)


def test_2_conic_pipeline():
    _verdict(2, "conic invariant and pipeline attribution", _criterion_2)


# ---- criterion 3: blow-up deltas over seeded pairs --------------------------


def _delta_pairs():
    pairs = []
    specials = [F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(3, 2), F(-3, 2),
                F(2), F(-2), F(3), F(5, 2), F(1, 4), F(5, 12)]
    for a in specials:
        cfg = hirzebruch_case_b(0, 0, [a, -a, 1, 1], a.denominator)
        for center in (on_curve("C1"), on_curve("C2"),
                       at_point("C1", "F3"), at_point("C1", "F4"),
                       at_point("C2", "F3"), at_point("C1", "F1"),
                       at_point("C2", "F2"), on_curve("F1"), free()):
            pairs.append((cfg, center))
    # the {1, -1} neighbor pattern is not exceptional
    flat = hirzebruch_case_b(0, 0, [F(-1), 1, 1], 1)
    for center in (on_curve("C1"), on_curve("C2"),
                   at_point("C1", "F2"), at_point("C1", "F1")):
        pairs.append((flat, center))
    rng = random.Random(20260825)
    seed = 0
    while len(pairs) < 1000:
        cfg = random_config(seed)
        seed += 1
        centers = candidate_centers(cfg) + [free()]
        for center in rng.sample(centers, min(len(centers),
                                              rng.randint(2, 5))):
            pairs.append((cfg, center))
    return pairs[:1000]


def _criterion_3():
    pairs = _delta_pairs()
    assert len(pairs) == 1000
    n_exc = 0
    for cfg, center in pairs:
        exc = exceptional_alphas(cfg, center)
        delta = invariance_delta(cfg, center)
        if exc is None:
            assert delta.is_zero(), (cfg, center)
        else:
            a1, a2 = exc
            assert a1 + a2 == 0
            assert delta == exceptional_delta(a1, cfg.d), (cfg, center)
            assert not delta.is_zero(), (cfg, center)
            n_exc += 1
    assert n_exc >= 25, n_exc
    # the {1, -1} pattern specifically gives delta zero
    flat = hirzebruch_case_b(0, 0, [F(-1), 1, 1], 1)
    assert invariance_delta(flat, on_curve("C1")).is_zero()
    assert invariance_delta(flat, at_point("C1", "F2")).is_zero()


def test_3_blow_up_deltas():
    _verdict(3, "1000 seeded blow-up deltas match the closed form",
             _criterion_3)


# ---- criterion 4: generated configurations keep invariant zero --------------


def _criterion_4():
    for seed in range(200):
        cfg = random_config(seed, max_blowups=10)
        rep = validate(cfg)
        assert rep.ok, seed
        assert e_invariant(cfg).is_zero(), seed


def test_4_generated_configs_vanish():
    _verdict(4, "200 generated configurations have invariant zero",
             _criterion_4)


# ---- criterion 5: specializations agree --------------------------------------


def _criterion_5():
    for seed in range(300, 400):
        cfg = random_config(seed)
        E = e_invariant(cfg)
        assert e_euler(cfg) == euler_realize(E), seed
        assert all(c.genus == 0 for c in cfg.curves)
        for q in (2, 3, 4, 5):
            assert e_padic(cfg, q) == numeric_eval(E, q), (seed, q)


def test_5_specializations_agree():
    _verdict(5, "Euler and point-count specializations agree", _criterion_5)


# ---- criterion 6: structure identities of the exceptional change -------------


def _criterion_6():
    for a_num, a_den in ((1, 2), (-1, 2), (1, 1), (-1, 1), (3, 2),
                         (-3, 2), (2, 1), (-2, 1)):
        a = F(a_num, a_den)
        for d in (1, 2, 3, 4):
            if (a * d).denominator != 1:
                continue
            for s in (1, 2, -3):
                sc = from_int(s, d)
                lhs = -(sc * lfactor(a, d) * lfactor(-a, d))
                rhs = sc * lpow(a, d) * lfactor(a, d) ** 2
                assert lhs == rhs, (a, d, s)
                assert -(sc * lfactor(F(-1), d)) == sc * lpow(1, d), (d, s)
    inserted = 0
    for seed in range(500, 600):
        cfg = random_config(seed)
        before = e_invariant(cfg)
        target = next(c for c in cfg.curves if c.alpha != 0)
        k = target.alpha.denominator
        s_int = int(-2 - k * (target.alpha - 1))
        out = add_unit_curve(cfg, 0, s_int, [target.id] * k)
        assert e_invariant(out) == before, seed
        if seed % 3 == 0:
            away = add_unit_curve(cfg, 1, 0, [])
            assert e_invariant(away) == before, seed
        inserted += 1
    assert inserted == 100


def test_6_unit_and_pattern_identities():
    _verdict(6, "exceptional-change identities and unit transparency",
             _criterion_6)


# ---- criterion 7: residues of the zeta function -------------------------------


def _rational_point_value(datum, t):
    """Residue contribution evaluated at w = t by direct Fraction
    arithmetic; shares no code with the ring kernel."""
    cfg = build_config(datum)
    d = cfg.d
    u = F(t) ** d

    def lf(al):
        m = al * d
        assert m.denominator == 1
        return (u - 1) / (F(t) ** m.numerator - 1)

    live = [c for c in cfg.curves if c.alpha != 0]
    total = F(stratum_class(cfg, ()).evaluate(u, 1))
    for c in live:
        total += stratum_class(cfg, (c.id,)).evaluate(u, 1) * lf(c.alpha)
    for i, ci in enumerate(live):
        for cj in live[i + 1:]:
            n = cfg.intersection(ci.id, cj.id)
            if n:
                total += n * lf(ci.alpha) * lf(cj.alpha)
    for c in cfg.curves:
        if c.alpha != 0 or c.self_int == 0:
            continue
        part = F(-c.self_int)
        for j in cfg.neighbors[c.id]:
            part *= lf(cfg.curve(j).alpha)
        total += part
    return total


def _datum_from_config(cfg, scale=1):
    comps = []
    for c in cfg.curves:
        m = c.alpha * cfg.d
        assert m.denominator == 1
        m = m.numerator
        v = max(1, math.ceil((m + 1) / cfg.d))
        N = cfg.d * v - m
        assert N >= 1 and v >= 1
        comps.append(ResolutionComponent(c.id, c.genus, c.self_int, N, v))
    return SurfaceResolutionDatum(
        nj=cfg.d * scale, vj=scale, surface_hodge=cfg.ambient_hodge,
        creation="point", components=tuple(comps),
        points=tuple((a, b) for a, b, _ in cfg.points))


def _criterion_7():
    # triangle: exact zero, cross-checked at rational points
    tri = triangle_datum()
    R = residue_contribution(tri)
    assert R.is_zero()
    for t in (2, 3, 5, 7):
        assert _rational_point_value(tri, t) == 0
        assert numeric_eval(R, t ** tri.nj) == [F(0)]

    # paired data: denominator-clearing substitution equals the direct
    # contribution times (L-1) L^vj L^-3
    count = 0
    seed = 0
    while count < 20:
        cfg = random_config(seed)
        seed += 1
        if any(c.alpha == 0 for c in cfg.curves):
            continue
        scale = 1 + count % 2
        datum = _datum_from_config(cfg, scale)
        terms = zmot_contribution(zmot_from_surface(datum), "Ej")
        got = residue_via_substitution(terms, "Ej")
        d = datum.nj
        want = (residue_contribution(datum)
                * (lpow(1, d) - from_int(1, d)) * lpow(datum.vj, d)
                * lpow(-3, d))
        assert got == want, (seed, scale)
        # the direct contribution also matches rational-point evaluation
        for t in (2, 3):
            assert (numeric_eval(residue_contribution(datum), t ** d)
                    == [_rational_point_value(datum, t)]), seed
        count += 1

    # verdicts on the fixture set
    rep = pole_report(tri)
    assert rep.ok
    assert any("cancellation as predicted (point-creation rule)" in f.message
               for f in rep.findings)
    plane_h = tri.surface_hodge
    conic_d = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=plane_h, creation="point",
        components=(ResolutionComponent("B", 0, 4, 3, 1),))
    rep = pole_report(conic_d)
    assert rep.ok
    assert any("no expectation (chi > 0)" in f.message for f in rep.findings)
    two = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=plane_h, creation="point",
        components=(ResolutionComponent("B1", 0, 4, 3, 1),
                    ResolutionComponent("B2", 0, 4, 3, 1)))
    assert render(residue_contribution(two)) == \
        "-(w^4 + 2*w^3 + 3*w^2 + 2*w + 1)"
    rep = pole_report(two)
    assert not rep.ok
    assert any("expected vanishing by the point-creation rule" in f.message
               for f in rep.errors())
    disc = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=plane_h, creation="rational_curve",
        components=two.components)
    rep = pole_report(disc)
    assert rep.ok
    assert any("no expectation (divisor on E_j is disconnected)" in f.message
               for f in rep.findings)
    nr = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=plane_h, creation="nonrational_curve",
        creation_genus=1, components=tri.components, points=tri.points)
    rep = pole_report(nr)
    assert rep.ok
    assert any("non-rational-curve rule" in f.message for f in rep.findings)


def test_7_zeta_residues():
    _verdict(7, "zeta residues, substitution, and verdicts", _criterion_7)


# ---- criterion 8: ring laws ----------------------------------------------------


def _criterion_8():
    # defining identity of the lfactor over the whole exponent range
    for d in (1, 2, 3, 4, 6, 12):
        lm1 = lpow(1, d) - one(d)
        for i in range(-24, 25):
            if i == 0:
                continue
            a = F(i, d)
            assert lfactor(a, d) * (lpow(a, d) - one(d)) == lm1, (i, d)

    # normal forms do not depend on the construction route
    rng = random.Random(1009)
    atoms = [F(i, 12) for i in (-18, -12, -8, -5, -3, -1, 1, 2, 4, 6, 9, 16)]
    for trial in range(60):
        parts = [lfactor(rng.choice(atoms), 12)
                 for _ in range(rng.randint(1, 5))]
        parts += [lpow(rng.randint(-3, 3), 12),
                  from_int(rng.randint(-4, 4), 12)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        x = parts[0]
        for p in parts[1:]:
            x = x * p
        y = shuffled[0]
        for p in shuffled[1:]:
            y = y * p
        assert (list(x.num.items()), x.wpow, x.cyclo) == \
            (list(y.num.items()), y.wpow, y.cyclo), trial
        z = x - y
        assert (z.num, z.wpow, z.cyclo) == ({}, 0, ()), trial
        # domain soundness: nonzero times nonzero stays nonzero
        if not x.is_zero():
            w = x * lfactor(rng.choice(atoms), 12)
            assert not w.is_zero(), trial

    # Euler specializations
    for d in (1, 2, 3, 4, 6, 12):
        assert euler_realize(lpow(1, d)) == 1
        for i in range(-12, 13):
            if i == 0:
                continue
            assert euler_realize(lfactor(F(i, d), d)) == F(d, i), (i, d)


def test_8_ring_laws():
    _verdict(8, "realization-ring laws hold exactly", _criterion_8)
