"""Model builders, the scripted pipeline, and random generation."""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from pvcalc.birational import (_exceptional_positions, at_point,
                               is_exceptional_center, on_curve)
from pvcalc.errors import ConfigError
from pvcalc.models import (blowup_chain, candidate_centers, case_c_resolved,
                           conic_pipeline_demo, hirzebruch_case_a,
                           hirzebruch_case_b, plane_conic, random_config)
from pvcalc.motring import render
from pvcalc.pvint import e_invariant
from pvcalc.surface import (Config, adjunction_defect, euler_complement,
                            is_connected, plane, validate)

from oracles import reference_chain

F = Fraction


# ---- builders -------------------------------------------------------------


def test_case_a_constraints():
    with pytest.raises(ConfigError):
        hirzebruch_case_a(-1, [F(1, 2), F(-1, 2)], 2)
    with pytest.raises(ConfigError):
        hirzebruch_case_a(0, [F(1, 2)], 2)
    with pytest.raises(ConfigError):
        hirzebruch_case_a(0, [F(1, 2), F(1, 2)], 2)     # sum must be 0
    cfg = hirzebruch_case_a(1, [F(1, 2), F(1, 2), F(-1)], 2)
    assert validate(cfg).ok
    assert cfg.curve("C1").alpha == -1 and cfg.curve("C1").self_int == -1
    assert e_invariant(cfg).is_zero()


def test_case_b_constraints():
    with pytest.raises(ConfigError):
        hirzebruch_case_b(0, F(1, 2), [], 2)
    with pytest.raises(ConfigError):
        hirzebruch_case_b(2, F(1, 2), [F(1, 2), F(1)], 2)    # sum 3/2, not 1
    cfg = hirzebruch_case_b(2, F(1, 2), [F(1, 2), F(1, 2), F(1)], 2)
    assert validate(cfg).ok
    assert cfg.curve("C1").self_int == -2 and cfg.curve("C2").self_int == 2
    assert cfg.curve("C2").alpha == F(-1, 2)
    assert cfg.intersection("C1", "F1") == 1
    assert cfg.intersection("C2", "F1") == 1
    assert e_invariant(cfg).is_zero()


def test_case_b_zero_alpha1():
    cfg = hirzebruch_case_b(3, 0, [F(1, 3), F(-1, 3), 1], 3)
    assert validate(cfg).ok
    assert e_invariant(cfg).is_zero()


def test_case_c_geometry():
    cfg = case_c_resolved(F(1, 2))
    assert cfg.d == 4                     # halved exponents need quarters
    assert cfg.curve("C").alpha == 0
    assert cfg.curve("C1a").alpha == F(3, 4)
    assert cfg.curve("C2a").alpha == F(1, 4)
    for c in cfg.curves:
        assert adjunction_defect(cfg, c.id) == 0
    assert validate(cfg).ok
    assert e_invariant(cfg).is_zero()
    with pytest.raises(ConfigError):
        case_c_resolved(0)
    with pytest.raises(ConfigError):
        case_c_resolved(F(1, 2), extra_fibres=-1)


def test_case_c_extra_fibres():
    cfg = case_c_resolved(F(3, 2), extra_fibres=2, d=2)
    assert cfg.intersection("C", "F1") == 2
    assert euler_complement(cfg) == 0 - 2 * 0    # fibres keep chi at 0
    assert euler_complement(case_c_resolved(F(3, 2))) == 0
    assert validate(cfg).ok
    assert e_invariant(cfg).is_zero()


def test_plane_conic():
    cfg = plane_conic()
    assert euler_complement(cfg) == 1
    assert render(e_invariant(cfg)) == "-(w^3 + w^2 + w)"


# ---- the scripted pipeline --------------------------------------------------


def test_pipeline_shape_and_invariants():
    steps = conic_pipeline_demo()
    assert [s.label for s in steps] == [
        "plane conic",
        "add tangent line, resolve tangency",
        "blow up E1 x E2",
        "contract T",
        "contract E2",
    ]
    assert [render(s.invariant) for s in steps] == [
        "-(w^3 + w^2 + w)", "-(w^3 + w^2 + w)", "-(w^3 + w^2 + w)", "0", "0",
    ]
    assert [s.exceptional for s in steps] == [False, False, False, True, False]
    assert [render(s.delta) for s in steps] == [
        "0", "0", "0", "w^3 + w^2 + w", "0",
    ]
    # every invariant change is attributed to an exceptional step
    for s in steps:
        assert s.exceptional == (not s.delta.is_zero())
    for s in steps:
        assert validate(s.config).ok


def test_pipeline_final_config():
    final = conic_pipeline_demo()[-1].config
    ids = sorted(c.id for c in final.curves)
    assert ids == ["B", "E1", "E3"]
    assert final.curve("B").self_int == 3
    assert final.curve("E1").self_int == -3
    assert final.curve("E3").self_int == 0
    assert final.curve("E3").alpha == F(1, 2)
    assert final.intersection("B", "E3") == 1
    assert final.intersection("E1", "E3") == 1
    assert final.intersection("B", "E1") == 0
    assert e_invariant(final).is_zero()


def test_pipeline_tuple_protocol():
    label, config, invariant = conic_pipeline_demo()[0]
    assert label == "plane conic"
    assert config == plane_conic()
    assert render(invariant) == "-(w^3 + w^2 + w)"


# ---- random generation -------------------------------------------------------


def test_candidate_centers_order():
    cfg = hirzebruch_case_b(0, F(1, 2), [F(-1)], 2)
    cs = candidate_centers(cfg)
    assert cs == [at_point("C1", "F1"), at_point("C2", "F1"),
                  on_curve("C1"), on_curve("C2"), on_curve("F1")]


def test_random_config_is_deterministic():
    for seed in (0, 1, 7, 42):
        assert random_config(seed) == random_config(seed)
    assert random_config(3, max_blowups=0) == random_config(3, max_blowups=0)


def test_random_config_contracts():
    for seed in range(25):
        cfg = random_config(seed)
        rep = validate(cfg)
        assert rep.ok
        assert is_connected(cfg)
        assert euler_complement(cfg) <= 0
        assert e_invariant(cfg).is_zero()


def test_random_config_blowups_stay_nonexceptional():
    # blowing up any non-exceptional candidate keeps the invariant zero
    cfg = random_config(5, max_blowups=0)
    from pvcalc.birational import blow_up
    for center in candidate_centers(cfg):
        if is_exceptional_center(cfg, center):
            continue
        assert e_invariant(blow_up(cfg, center)).is_zero()


# Configs (base included) among the first 321 of each chain whose
# pattern table names an exceptional center; bases 0 and 11 offer their
# first at 439 and 329 blow-ups
PATTERN_STEPS = {0: 0, 3: 315, 7: 91, 11: 0}


@pytest.mark.parametrize("seed", sorted(PATTERN_STEPS))
def test_blowup_chain_draws_as_the_reference_loop(seed):
    """At every step to 320 blow-ups of random_config(seed), the
    exceptional positions are those of the candidates
    is_exceptional_center accepts, and the chain is the plain loop's."""
    base = random_config(seed)
    steps = zip_longest(blowup_chain(base, 320, random.Random(1)),
                        reference_chain(base, 320, random.Random(1)))
    with_patterns = 0
    for cfg, want in [(base, base)] + list(steps):
        # distinct centers leave distinct points, so equal points at
        # every step mean the same draws (a full compare costs more)
        assert cfg.points == want.points
        skip = _exceptional_positions(cfg)
        assert skip == [i for i, c in enumerate(candidate_centers(cfg))
                        if is_exceptional_center(cfg, c)]
        with_patterns += bool(skip)
    assert cfg == want
    assert with_patterns == PATTERN_STEPS[seed]


def test_blowup_chain_stops_when_no_center_is_left():
    rng = random.Random(1)
    state = rng.getstate()
    assert list(blowup_chain(Config(1, plane()), 5, rng)) == []
    assert rng.getstate() == state
