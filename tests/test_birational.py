"""Blow-ups and blow-downs: bookkeeping, inverses, exceptional centers."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvcalc.birational import (BlowupCenter, add_unit_curve, at_point,
                               blow_down, blow_up, exceptional_alphas,
                               exceptional_delta, free, fresh_id,
                               invariance_delta, inverse_center,
                               is_exceptional_center, on_curve)
from pvcalc.errors import (CenterError, ContractionError, ExponentError,
                           PvError, ValidationError)
from pvcalc.models import (candidate_centers, case_c_resolved,
                           hirzebruch_case_b, random_config)
from pvcalc.motring import RingElem, lfactor, lpow, render
from pvcalc.pvint import e_invariant
from pvcalc.surface import (Config, Curve, _compute_findings,
                            adjunction_defect, euler_complement, is_allowed,
                            plane, ruled, strata, validate)

from oracles import chain_config, full_delta

F = Fraction


def pattern_config(a, d=2, units=2):
    """Two alpha 0 sections, fibres with exponents a, -a and units."""
    alphas = [a, -a] + [1] * units
    curves = [Curve("C1", 0, 0, 0), Curve("C2", 0, 0, 0)]
    curves += [Curve(f"F{k}", 0, 0, al) for k, al in enumerate(alphas, 1)]
    pts = []
    for k in range(1, len(alphas) + 1):
        pts += [(f"F{k}", "C1"), (f"F{k}", "C2")]
    return Config(d, ruled(0), curves, pts)


def conic():
    return Config(2, plane(), [Curve("C", 0, 4, F(-1, 2))], [])


def double_point():
    """A conic and a unit line meeting twice."""
    return Config(2, plane(),
                  [Curve("C", 0, 4, F(-1, 2)), Curve("T", 0, 1, 1)],
                  [("C", "T", 0), ("C", "T", 1)])


def opposite_crossing():
    """C1 (alpha 1/2) meets F1 (alpha -1/2): blowing up their point
    gives an exceptional curve with alpha 0."""
    return hirzebruch_case_b(0, F(1, 2), [F(-1, 2), F(1, 2)], 2)


def random_configs(max_seed=399):
    return st.integers(0, max_seed).map(
        lambda s: random_config(s, max_blowups=10))


# ---- centers -------------------------------------------------------------


def test_center_normalization():
    c = at_point("Z", "A", 1)
    assert (c.a, c.b, c.index) == ("A", "Z", 1)
    assert at_point("A", "Z", 1) == c
    assert on_curve("A").kind == "curve"
    assert free().kind == "free"
    with pytest.raises(CenterError):
        BlowupCenter("line", "A", "B")
    with pytest.raises(CenterError):
        at_point("A", "A")
    for index in (-1, True, 1.0, "1"):
        with pytest.raises(CenterError, match="point index"):
            at_point("A", "B", index)


def test_center_validation_against_config():
    cfg = pattern_config(F(1, 2))
    with pytest.raises(CenterError):
        blow_up(cfg, on_curve("missing"))
    with pytest.raises(CenterError):
        blow_up(cfg, at_point("C1", "C2"))          # sections are disjoint
    with pytest.raises(CenterError):
        blow_up(cfg, at_point("C1", "F1", 1))       # only index 0 exists
    with pytest.raises(CenterError):
        blow_up(cfg, on_curve("C1", new_id="F2"))   # id collision
    # the point is looked up in the sorted points; the pair (C, T) has
    # points 0 and 2, so index 1 falls between them and 3 after them
    gap = Config(2, plane(), double_point().curves,
                 [("C", "T", 0), ("T", "C", 2)])
    for index in (1, 3):
        with pytest.raises(CenterError, match="no intersection point"):
            blow_up(gap, at_point("C", "T", index))
        with pytest.raises(CenterError, match="no intersection point"):
            exceptional_alphas(gap, at_point("C", "T", index))
    for index in (0, 2):
        assert ("C", "T", index) not in blow_up(
            gap, at_point("T", "C", index)).points


def test_fresh_id():
    cfg = pattern_config(F(1, 2))
    assert fresh_id(cfg) == "E1"
    up = blow_up(cfg, free(new_id="E1"))
    assert fresh_id(up) == "E2"


def test_blowup_requires_valid_input():
    bad = Config(2, plane(), [Curve("C", 0, 4, F(1, 2))], [])
    with pytest.raises(ValidationError) as info:
        blow_up(bad, free())
    assert str(info.value) == ("refusing to blow up an invalid "
                               "configuration:\n" + str(validate(bad)))


# ---- bookkeeping ----------------------------------------------------------


def test_blow_up_at_point():
    cfg = pattern_config(F(1, 2))
    up = blow_up(cfg, at_point("C1", "F1", new_id="E"))
    e = up.curve("E")
    assert e.alpha == 0 + F(1, 2)       # sum of branches + 2 - 2
    assert e.self_int == -1 and e.genus == 0
    assert up.curve("C1").self_int == -1
    assert up.curve("F1").self_int == -1
    assert up.intersection("C1", "F1") == 0
    assert up.intersection("C1", "E") == 1 and up.intersection("E", "F1") == 1
    assert up.ambient_hodge.euler() == cfg.ambient_hodge.euler() + 1
    assert validate(up).ok
    assert euler_complement(up) == euler_complement(cfg)


def test_blow_up_on_curve_and_free():
    cfg = pattern_config(F(1, 2))
    up = blow_up(cfg, on_curve("F3", new_id="E"))
    assert up.curve("E").alpha == 1 + 2 - 1
    assert up.curve("F3").self_int == -1
    assert up.intersection("E", "F3") == 1
    assert euler_complement(up) == euler_complement(cfg)

    fr = blow_up(cfg, free(new_id="E"))
    assert fr.curve("E").alpha == 2
    assert fr.curve("E").self_int == -1
    assert fr.points_on("E") == ()
    assert euler_complement(fr) == euler_complement(cfg) - 1
    assert validate(fr).ok


def test_double_point_indices():
    up = blow_up(double_point(), at_point("C", "T", 1, new_id="E"))
    assert up.intersection("C", "T") == 1
    assert up.points_on("E") == (("C", "E", 0), ("E", "T", 0))


# ---- contraction ----------------------------------------------------------


def test_blow_down_inverts_blow_up():
    cfg = pattern_config(F(1, 2))
    for center in (at_point("C1", "F1"), at_point("C2", "F3"),
                   on_curve("F2"), on_curve("C1"), free()):
        up = blow_up(cfg, center)
        new = next(c.id for c in up.curves
                   if c.id not in {k.id for k in cfg.curves})
        assert blow_down(up, new) == cfg


def test_blow_up_inverts_blow_down():
    cfg = pattern_config(F(1, 2))
    up = blow_up(cfg, at_point("C1", "F4", new_id="E"))
    center = inverse_center(up, "E")
    assert center == at_point("C1", "F4", 0, new_id="E")
    assert blow_up(blow_down(up, "E"), center) == up


def test_blow_down_refuses_bad_curves():
    mk = lambda *cs, pts=(): Config(2, ruled(0), list(cs), list(pts))
    g = mk(Curve("Z", 1, -1, 0))
    with pytest.raises(ContractionError):
        blow_down(g, "Z")
    s = mk(Curve("Z", 0, 0, 2))
    with pytest.raises(ContractionError):
        blow_down(s, "Z")
    three = mk(Curve("Z", 0, -1, 1), Curve("A", 0, 0, 1),
               Curve("B", 0, 0, 1), Curve("C", 0, 0, 1),
               pts=[("Z", "A"), ("Z", "B"), ("Z", "C")])
    with pytest.raises(ContractionError):
        blow_down(three, "Z")
    tangent = mk(Curve("Z", 0, -1, 2), Curve("A", 0, 0, F(1, 2)),
                 pts=[("Z", "A", 0), ("Z", "A", 1)])
    with pytest.raises(ContractionError):
        blow_down(tangent, "Z")
    wrong = mk(Curve("Z", 0, -1, 1), Curve("A", 0, 0, F(1, 2)),
               pts=[("Z", "A")])
    with pytest.raises(ContractionError) as exc:
        blow_down(wrong, "Z")
    assert "sum rule" in str(exc.value)


def test_inverse_center_refuses_what_blow_down_refuses():
    # a (-1)-curve with three neighbours, or with two points on one
    # neighbour, used to get a center (free, on_curve) no blow-up undoes
    mk = lambda *cs, pts=(): Config(2, ruled(0), list(cs), list(pts))
    three = mk(Curve("Z", 0, -1, 1), Curve("A", 0, 0, 1),
               Curve("B", 0, 0, 1), Curve("C", 0, 0, 1),
               pts=[("Z", "A"), ("Z", "B"), ("Z", "C")])
    tangent = mk(Curve("Z", 0, -1, 2), Curve("A", 0, 0, F(1, 2)),
                 pts=[("Z", "A", 0), ("Z", "A", 1)])
    wrong = mk(Curve("Z", 0, -1, 1), Curve("A", 0, 0, F(1, 2)),
               pts=[("Z", "A")])
    square = mk(Curve("Z", 0, 0, 2))
    for cfg in (three, tangent, wrong, square):
        with pytest.raises(ContractionError) as down:
            blow_down(cfg, "Z")
        with pytest.raises(ContractionError) as inverse:
            inverse_center(cfg, "Z")
        assert str(inverse.value) == str(down.value)


def test_blow_down_takes_the_first_free_index():
    cfg = double_point()
    for k in (0, 1):
        up = blow_up(cfg, at_point("C", "T", k))
        assert inverse_center(up, "E1") == at_point("C", "T", k, new_id="E1")
        assert blow_down(up, "E1") == cfg


def test_blow_down_findings():
    """blow_down stores the findings of a valid input's contraction
    when the curve meets another, and they are a full validation's."""
    cfg = pattern_config(F(1, 2))
    for center in (at_point("C1", "F1"), on_curve("F2"), on_curve("C1")):
        down = blow_down(blow_up(cfg, center), "E1")
        assert "_findings" in vars(down)
        assert validate(down).findings == list(_compute_findings(fresh(down)))
    # a free curve leaves connectivity open, an invalid input its errors
    down = blow_down(blow_up(cfg, free()), "E1")
    assert "_findings" not in vars(down)
    bad = Config(2, ruled(0), [Curve("X", 0, 5, 1), Curve("E", 0, -1, 2),
                               Curve("A", 0, 0, 1)], [("A", "E")])
    down = blow_down(bad, "E")
    assert "_findings" not in vars(down)
    assert not validate(down).ok


def test_fresh_id_follows_moves():
    cfg = pattern_config(F(1, 2))
    assert fresh_id(cfg) == "E1"
    up = blow_up(blow_up(cfg, on_curve("F1")), on_curve("F2"))
    assert fresh_id(up) == "E3"
    down = blow_down(up, "E1")
    assert fresh_id(down) == "E1"
    assert fresh_id(blow_down(down, "E2")) == "E1"
    assert fresh_id(add_unit_curve(down, 0, -2, []), "U") == "U2"


# ---- exceptional centers ---------------------------------------------------


def test_exceptional_classification():
    cfg = pattern_config(F(1, 2))
    assert exceptional_alphas(cfg, on_curve("C1")) == (F(1, 2), F(-1, 2))
    assert is_exceptional_center(cfg, on_curve("C1"))
    assert is_exceptional_center(cfg, on_curve("C2"))
    # a point on the zero curve avoiding the special branches: the other
    # curve must be a unit
    assert is_exceptional_center(cfg, at_point("C1", "F3"))
    assert not is_exceptional_center(cfg, at_point("C1", "F1"))
    assert not is_exceptional_center(cfg, at_point("C1", "F2"))
    assert not is_exceptional_center(cfg, on_curve("F1"))
    assert not is_exceptional_center(cfg, free())

    units = pattern_config(1)            # pattern {1, -1, 1, 1}
    assert not is_exceptional_center(units, on_curve("C1"))
    whole = pattern_config(2, d=1)
    assert is_exceptional_center(whole, on_curve("C1"))


def test_exceptional_delta_values():
    cfg = pattern_config(F(1, 2))
    delta = invariance_delta(cfg, on_curve("C1"))
    assert delta == exceptional_delta(F(1, 2), 2)
    assert render(delta) == "-(w^3 + w^2 + w)"
    assert not delta.is_zero()
    assert invariance_delta(cfg, at_point("C1", "F3")) == delta
    # closed form: lf(a) lf(-a) + L
    assert exceptional_delta(F(1, 2), 2) == \
        lfactor(F(1, 2), 2) * lfactor(F(-1, 2), 2) + lpow(1, 2)


def test_non_exceptional_deltas_vanish():
    cfg = pattern_config(F(1, 2))
    for center in (at_point("C1", "F1"), at_point("C2", "F2"),
                   on_curve("F1"), on_curve("F3"), free()):
        assert invariance_delta(cfg, center).is_zero()
    units = pattern_config(1)
    assert invariance_delta(units, on_curve("C1")).is_zero()
    assert invariance_delta(units, at_point("C1", "F3")).is_zero()


# ---- unit curve insertion ---------------------------------------------------


def test_add_unit_curve_transparent():
    cfg = conic()
    before = e_invariant(cfg)
    out = add_unit_curve(cfg, 0, 1, ["C", "C"])
    new = next(c for c in out.curves if c.id not in {"C"})
    assert new.alpha == 1 and new.self_int == 1
    assert out.intersection("C", new.id) == 2
    assert validate(out).ok
    assert e_invariant(out) == before
    # a disjoint unit curve changes the complement but not the invariant
    away = add_unit_curve(cfg, 0, -2, [])
    assert euler_complement(away) == euler_complement(cfg) - 2
    assert e_invariant(away) == before


def test_add_unit_curve_checks_adjunction():
    with pytest.raises(ContractionError):
        add_unit_curve(conic(), 0, 0, ["C", "C"])
    with pytest.raises(PvError):
        add_unit_curve(conic(), 0, 1, ["C", "missing"])


# ---- the local delta against the full recompute -----------------------------


def _outcome(fn, cfg, center):
    """fn's value, or the type and message of the PvError it raised."""
    try:
        return fn(cfg, center)
    except PvError as exc:
        return type(exc), str(exc)


def _bad_centers(cfg):
    """Centers naming an unknown curve, a taken new_id or, most likely,
    a missing point."""
    ids = sorted(cfg.curve_map)
    out = [on_curve("missing"), free(new_id=ids[0]),
           on_curve(ids[0], new_id=ids[-1])]
    if len(ids) > 1:
        out.append(at_point(ids[0], "missing"))
        out.append(at_point(ids[0], ids[1], len(cfg.points)))
    return out


@settings(max_examples=80, deadline=None)
@given(random_configs())
@example(pattern_config(F(1, 2)))          # exceptional centers
@example(pattern_config(1))                # curve centers on alpha = 0
@example(double_point())                   # a pair going from 2 to 1 points
@example(opposite_crossing())              # alpha_E = 0
@example(case_c_resolved(F(1, 2), extra_fibres=1))   # alpha = 0 bisection
@example(Config(2, plane(), [Curve("C", 0, 4, F(1, 2))], []))   # invalid
def test_local_delta_matches_full_recompute(cfg):
    for center in candidate_centers(cfg) + [free()] + _bad_centers(cfg):
        want = _outcome(full_delta, cfg, center)
        got = _outcome(invariance_delta, cfg, center)
        if isinstance(want, RingElem):
            assert isinstance(got, RingElem) and got == want, center
        else:
            assert got == want, center


def test_local_delta_cases_occur():
    """The examples above do reach the cases they are named for."""
    up = blow_up(opposite_crossing(), at_point("C1", "F1", new_id="E"))
    assert up.curve("E").alpha == 0
    assert double_point().intersection("C", "T") == 2
    assert pattern_config(1).curve("C1").alpha == 0
    assert case_c_resolved(F(1, 2), extra_fibres=1).curve("C").alpha == 0


def test_local_delta_builds_no_config(monkeypatch):
    """invariance_delta reads config and the blow-up rule; it builds no
    blown-up Config, whose construction reads every curve and point."""
    cases = [(cfg, center) for cfg in (pattern_config(F(1, 2)), double_point())
             for center in candidate_centers(cfg) + [free()]]
    chain = chain_config(40)
    cases += [(chain, center)
              for center in candidate_centers(chain)[::9] + [free()]]
    built = []
    init = Config.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Config, "__init__", counting_init)
    for cfg, center in cases:
        invariance_delta(cfg, center)
    assert len(built) == 0


def test_local_delta_skips_untouched_strata():
    """A curve away from the center adds no term to the delta.  Here the
    lfactor of G exceeds the packed-key limit, so the whole invariant
    cannot be formed, while deltas at centers off G still can."""
    cfg = Config(2, plane(), [Curve("G", 1, 0, 2 ** 33),
                              Curve("C", 0, 4, F(-1, 2))], [])
    assert validate(cfg).ok
    with pytest.raises(ExponentError):
        e_invariant(cfg)
    assert invariance_delta(cfg, free()).is_zero()
    assert invariance_delta(cfg, on_curve("C")).is_zero()
    with pytest.raises(ExponentError):
        invariance_delta(cfg, on_curve("G"))


@settings(max_examples=60, deadline=None)
@given(random_configs())
def test_blow_up_preserves_validity(cfg):
    """blow_up's documented claim: adjunction defects and allowedness
    of the old curves are kept, and E is consistent and allowed."""
    defects = {c.id: adjunction_defect(cfg, c.id) for c in cfg.curves}
    allowed = {c.id: is_allowed(cfg, c.id) for c in cfg.curves}
    new_id = fresh_id(cfg)
    for center in candidate_centers(cfg) + [free()]:
        up = blow_up(cfg, center)
        assert {i: adjunction_defect(up, i) for i in defects} == defects
        assert {i: is_allowed(up, i) for i in allowed} == allowed
        assert adjunction_defect(up, new_id) == 0
        assert is_allowed(up, new_id)
        assert validate(up).ok
        assert validate(up).findings == list(_compute_findings(fresh(up)))


# ---- the findings a blow-up stores ------------------------------------------


def fresh(config):
    """An equal Config with none of the derived views cached on it."""
    return Config(d=config.d, ambient_hodge=config.ambient_hodge,
                  curves=config.curves, points=config.points)


def check_inherited(cfg, center):
    """blow_up stores the findings of its output, and they are those a
    full validation of an equal, fresh Config computes; returns it."""
    up = blow_up(cfg, center)
    assert "_findings" in vars(up)
    assert validate(up).findings == list(_compute_findings(fresh(up)))
    return up


@settings(max_examples=40, deadline=None)
@given(random_configs(), st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_blow_up_findings_match_full_validation(cfg, picks):
    """Along a chain of blow-ups, each step's output blown up again,
    every candidate center and free() give the full findings."""
    for pick in [0] + picks:
        ups = [check_inherited(cfg, center)
               for center in candidate_centers(cfg) + [free()]]
        cfg = ups[pick % len(ups)]


def test_blow_up_findings_cases():
    empty = Config(1, plane(), [], [])
    up = check_inherited(empty, free())
    assert [str(f) for f in validate(up).findings] == [
        "info chi: euler characteristic of the open complement: 2",
        "info connectivity: divisor is connected"]
    up = check_inherited(conic(), free())
    assert str(validate(up).findings[-1]) == (
        "info connectivity: divisor is disconnected")
    up = check_inherited(opposite_crossing(), at_point("C1", "F1"))
    assert up.curve("E1").alpha == 0
    unit_fibre = hirzebruch_case_b(0, F(0), [F(-1), F(1)], 1)
    assert unit_fibre.curve("F1").alpha == -1
    up = check_inherited(unit_fibre, on_curve("F1"))
    assert up.curve("E1").alpha == 0
    up = check_inherited(double_point(), at_point("C", "T", 1))
    assert up.intersection("C", "T") == 1


# ---- moves against fresh builds -------------------------------------------

VIEWS = ("curve_map", "neighbors", "pair_counts", "points_per_curve",
         "exponents")
MOVES = st.tuples(st.sampled_from(("up", "down", "unit")),
                  st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                  st.booleans())


def move(cfg, kind, i, j):
    """One blow-up, blow-down or unit curve of cfg picked by i and j,
    or None when the pick does not apply."""
    ids = sorted(cfg.curve_map)
    if kind == "up":
        centers = candidate_centers(cfg) + [free()]
        center = centers[i % len(centers)]
        if j % 3 == 0:      # a given id, maybe one fresh_id skips over
            center = BlowupCenter(center.kind, center.a, center.b,
                                  center.index, new_id=f"E{j % 7 + 1}")
            if center.new_id in cfg.curve_map:
                return None
        return blow_up(cfg, center)
    if kind == "down":      # mostly a (-1)-curve, which may contract
        ids = [c.id for c in cfg.curves if c.self_int == -1] or ids
        try:
            return blow_down(cfg, ids[i % len(ids)]) if ids else None
        except ContractionError:
            return None
    crossings = [ids[k % len(ids)] for k in (i, j, i // 7)[:j % 4]] \
        if ids else []
    slack = sum((cfg.curve(c).alpha - 1 for c in crossings), F(0))
    if slack.denominator != 1:
        return None
    return add_unit_curve(cfg, 0, int(-2 - slack), crossings)


def check_like_fresh(cfg):
    """cfg equals an equal, freshly constructed Config in value, hash,
    derived views, strata, findings, centers and fresh ids; a move may
    leave a view's keys in another order than a fresh build's."""
    new = fresh(cfg)
    assert cfg == new and hash(cfg) == hash(new)
    for view in VIEWS:
        got, want = getattr(cfg, view), getattr(new, view)
        assert got == want, view
    assert validate(cfg).findings == list(_compute_findings(new))
    assert cfg._connected == new._connected
    assert strata_stored(cfg) == strata_stored(new)
    centers = candidate_centers(new)
    assert candidate_centers(cfg) == centers
    for center in centers + [free()]:
        assert exceptional_alphas(cfg, center) == \
            exceptional_alphas(new, center)
    for prefix in ("E", "U"):
        assert fresh_id(cfg, prefix) == fresh_id(new, prefix)


def strata_stored(cfg):
    """cfg's strata with each class's stored terms, sorted by ids."""
    return sorted((ids, list(h.items())) for ids, h in strata(cfg))


def test_moved_configs_compute_connectivity_and_open_class():
    """A blow_up or blow_down result, even one that inherits its
    findings, carries neither the connectivity nor the open stratum's
    class: it computes both on first use, equal to a fresh build's."""
    rng = random.Random(5)
    cfg = random_config(3)
    seen = set()
    steps = 0
    while steps < 60:
        kind = rng.choice(("up", "up", "down"))
        after = move(cfg, kind, rng.randrange(10 ** 6), rng.randrange(10 ** 6))
        if after is None:
            continue
        steps += 1
        cfg._connected, cfg._open       # built on the input, not carried
        assert "_connected" not in vars(after)
        assert "_open" not in vars(after)
        new = fresh(after)
        assert after._connected == new._connected
        assert validate(after).findings[-1] == _compute_findings(new)[-1]
        assert strata_stored(after) == strata_stored(new)
        if "_findings" in vars(after):
            seen.add(kind)
        cfg = after
    up = blow_up(cfg, free())           # E apart from the divisor
    assert "_findings" in vars(up) and "_connected" not in vars(up)
    assert up._connected is False and fresh(up)._connected is False
    assert seen == {"up", "down"}


def test_blow_up_carries_views():
    """blow_up carries the views built on its input, the pattern of a
    new alpha = 0 curve between opposite exponents included."""
    cfg = opposite_crossing()
    check_like_fresh(cfg)       # builds every view for blow_up to carry
    patterns = set()
    for center in candidate_centers(cfg) + [free()]:
        up = blow_up(cfg, center)
        check_like_fresh(up)
        patterns.add(exceptional_alphas(up, on_curve(fresh_id(cfg))))
    assert patterns - {None}


@settings(max_examples=80, deadline=None)
@given(random_configs() | st.sampled_from(
           (pattern_config(F(1, 2)), double_point(), opposite_crossing())),
       st.lists(MOVES, max_size=8))
def test_moves_match_fresh_builds(cfg, moves):
    """After any sequence of blow_up, blow_down and add_unit_curve, the
    Config that the moves carry along equals a fresh build.  A move
    whose flag is set is checked first, which builds every view on its
    input for the move to carry; the others find only what the moves
    themselves build, so lazily built views are checked too."""
    for kind, i, j, warm in moves:
        if warm:
            check_like_fresh(cfg)
        cfg = move(cfg, kind, i, j) or cfg
    check_like_fresh(cfg)


def test_exponents_along_a_move_chain():
    """A Config that blow_up or blow_down builds carries its source's
    exponent table, or builds its own on first use when the source had
    none; along a 200-step chain the table equals a fresh build's,
    alpha*d of each curve."""
    rng = random.Random(2)
    cfg = random_config(3)
    steps = {"up": 0, "down": 0}
    while sum(steps.values()) < 200:
        kind = rng.choice(("up", "up", "down"))
        after = move(cfg, kind, rng.randrange(10 ** 6), rng.randrange(10 ** 6))
        if after is None:
            continue
        steps[kind] += 1
        assert ("exponents" in vars(after)) == ("exponents" in vars(cfg))
        cfg = after
        if sum(steps.values()) % 3:     # every third table stays unbuilt
            check_exponents(cfg)
    check_exponents(cfg)
    assert min(steps.values()) > 50


def check_exponents(cfg):
    ex = cfg.exponents
    assert ex == fresh(cfg).exponents
    assert sorted(ex) == [c.id for c in cfg.curves]
    assert all(ex[c.id] == c.alpha * cfg.d for c in cfg.curves)
