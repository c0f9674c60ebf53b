"""Configurations: structure, strata, adjunction, validation, JSON."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcalc.errors import ConfigError, SchemaError
from pvcalc.models import random_config
from pvcalc.motring import HodgePoly
from pvcalc.surface import (Config, Curve, adjunction_defect, curve_class,
                            dump_config, euler_complement, is_allowed,
                            is_connected, load_config, plane, read_config,
                            ruled, save_config, strata, stratum_class,
                            validate)

F = Fraction


def conic_config():
    return Config(
        d=2,
        ambient_hodge=plane(),
        curves=[Curve("C", 0, 4, F(-1, 2))],
        points=[],
    )


def triangle(alphas=(F(1, 2), F(1, 2), -1), d=2):
    a1, a2, a3 = alphas
    return Config(
        d=d,
        ambient_hodge=plane(),
        curves=[Curve("L1", 0, 1, a1), Curve("L2", 0, 1, a2),
                Curve("L3", 0, 1, a3)],
        points=[("L1", "L2"), ("L1", "L3"), ("L2", "L3")],
    )


# ---- construction ------------------------------------------------------


def test_curve_coercion_and_validation():
    c = Curve("A", 0, -2, "1/2")
    assert c.alpha == F(1, 2)
    assert c.count_trace == 0
    with pytest.raises(ConfigError):
        Curve("A", -1, 0, 1)
    with pytest.raises(ConfigError):
        Curve("", 0, 0, 1)
    with pytest.raises(ConfigError):
        Curve("A", 0, "x", 1)          # self intersection must be an integer
    with pytest.raises(ConfigError):
        Curve("A", 0, 0, "1/0")


def test_config_structural_checks():
    with pytest.raises(ConfigError):
        Config(0, plane(), [], [])                  # d must be >= 1
    with pytest.raises(ConfigError):
        Config(2, plane(), [Curve("A", 0, 0, 1), Curve("A", 0, 1, 1)], [])
    with pytest.raises(ConfigError):
        Config(2, plane(), [Curve("A", 0, 0, 1)], [("A", "B")])
    with pytest.raises(ConfigError):
        Config(2, plane(), [Curve("A", 0, 0, 1)], [("A", "A")])
    with pytest.raises(ConfigError):
        Config(2, plane(), [Curve("A", 0, 0, 1), Curve("B", 0, 0, 1)],
               [("A", "B", -1)])
    with pytest.raises(ConfigError, match="Curve instances"):
        Config(1, plane(), curves=(1,))             # was an AttributeError
    for point in ("AB", {"A": 0, "B": 1}):
        with pytest.raises(ConfigError, match="must be a list of curve ids"):
            Config(2, plane(), [Curve("A", 0, 0, 1), Curve("B", 0, 0, 1)],
                   [point])


def test_config_reads_curves_once():
    """curves may be any iterable, a generator included: it is read
    once, into the list that the type check and the sort share."""
    curves = (Curve("B", 0, 1, 1), Curve("A", 0, 1, 1))
    points = [("A", "B")]
    made = Config(2, plane(), (c for c in curves), points)
    assert made == Config(2, plane(), curves, points)
    assert [c.id for c in made.curves] == ["A", "B"]


def test_exponents_are_alpha_times_d():
    for seed in range(60):
        cfg = random_config(seed)
        ex = cfg.exponents
        assert list(ex) == [c.id for c in cfg.curves]
        for c in cfg.curves:
            assert type(ex[c.id]) is int and ex[c.id] == c.alpha * cfg.d
        assert cfg.exponents is ex          # computed once per Config


def test_points_are_canonicalized():
    a = Config(2, plane(),
               [Curve("A", 0, 1, 1), Curve("B", 0, 1, 1)],
               [("B", "A"), ("A", "B", 1)])
    b = Config(2, plane(),
               [Curve("B", 0, 1, 1), Curve("A", 0, 1, 1)],
               [("A", "B", 1), ("A", "B", 0)])
    assert a.points == (("A", "B", 0), ("A", "B", 1))
    assert a == b and hash(a) == hash(b)
    assert a.intersection("A", "B") == 2
    with pytest.raises(ConfigError):
        a.intersection("A", "A")
    assert a.pair_counts[("A", "B")] == 2
    assert sorted(a.neighbors["A"]) == ["B"]
    assert a.points_on("A") == (("A", "B", 0), ("A", "B", 1))


def test_curve_lookup():
    cfg = conic_config()
    assert cfg.curve("C").self_int == 4
    with pytest.raises(ConfigError):
        cfg.curve("missing")


# ---- ambient classes and Euler characteristics -------------------------


def test_ambient_builders():
    assert plane() == HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1})
    assert plane().euler() == 3
    assert ruled(0).euler() == 4
    assert ruled(1).euler() == 0
    assert curve_class(0).euler() == 2
    assert curve_class(2).euler() == -2
    for genus in (0.5, True, "1", -1):
        with pytest.raises(ConfigError, match="nonnegative integer"):
            curve_class(genus)


def test_euler_complement_examples():
    empty = Config(1, plane(), [], [])
    assert euler_complement(empty) == 3
    assert euler_complement(conic_config()) == 1      # 3 - 2
    assert euler_complement(triangle()) == 3 - 3 * 2 + 3
    # one ruling fibre plus m disjoint fibres of a ruled surface: 2 - m... the
    # section case: chi = 4 - (2 + m*2 - m) = 2 - m
    for m in (2, 3, 4):
        curves = [Curve("C1", 0, 0, -1)]
        curves += [Curve(f"F{k}", 0, 0, 1) for k in range(1, m + 1)]
        pts = [(f"F{k}", "C1") for k in range(1, m + 1)]
        cfg = Config(1, ruled(0), curves, pts)
        assert euler_complement(cfg) == 2 - m


def conic_and_line():
    """A conic and a line in the plane, meeting in two points."""
    return Config(1, plane(), [Curve("C", 0, 4, 1), Curve("L", 0, 1, 1)],
                  [("C", "L", 0), ("C", "L", 1)])


def stratum_total(cfg):
    """The sum of every stratum class, each pair stratum once: its class
    already counts its points."""
    total = stratum_class(cfg, ())
    for c in cfg.curves:
        total = total + stratum_class(cfg, (c.id,))
    for pair in cfg.pair_counts:
        total = total + stratum_class(cfg, pair)
    return total


def check_strata(cfg):
    """strata() yields the stratum_class of every nonempty stratum, in
    its documented order."""
    walk = list(strata(cfg))
    assert [ids for ids, _ in walk] == (
        [()] + [(c.id,) for c in cfg.curves] + list(cfg.pair_counts))
    for ids, h in walk:
        assert h == stratum_class(cfg, ids)
    # both read points_per_curve; points_on counts each curve's own points
    for c in cfg.curves:
        assert cfg.points_per_curve[c.id] == len(cfg.points_on(c.id))


def test_stratum_partition_is_exhaustive():
    for cfg in (triangle(), conic_and_line()):
        assert stratum_total(cfg) == cfg.ambient_hodge
        check_strata(cfg)
    assert stratum_class(conic_and_line(), ("C", "L")) == HodgePoly.scalar(2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.integers(0, 10))
def test_strata_match_stratum_class_random(seed, blowups):
    cfg = random_config(seed, max_blowups=blowups)
    assert stratum_total(cfg) == cfg.ambient_hodge
    check_strata(cfg)


def test_stratum_class_values():
    cfg = triangle()
    assert stratum_class(cfg, ("L1", "L2")) == HodgePoly.one()
    # open line: P^1 minus 2 points
    assert stratum_class(cfg, ("L1",)).euler() == 0
    assert stratum_class(cfg, ()).euler() == 3 - 6 + 3
    with pytest.raises(ConfigError):
        stratum_class(cfg, ("L1", "L2", "L3"))
    with pytest.raises(ConfigError):
        stratum_class(cfg, ("L1", "L1"))
    with pytest.raises(ConfigError):
        stratum_class(cfg, ("L1", "nope"))


def test_connectivity():
    assert is_connected(triangle())
    assert not is_connected(Config(1, plane(), [], []))
    two = Config(1, ruled(0),
                 [Curve("A", 0, 0, 1), Curve("B", 0, 0, 1)], [])
    assert not is_connected(two)


# ---- adjunction --------------------------------------------------------


def test_adjunction_defect_triangle():
    ok = triangle()
    for c in ok.curves:
        assert adjunction_defect(ok, c.id) == 0
    bad = triangle(alphas=(F(1, 2), F(1, 2), F(1, 2)))
    assert adjunction_defect(bad, "L3") == F(3, 2)


def test_adjunction_defect_uses_genus_and_self():
    # lone curve: alpha * self = 2g - 2
    cfg = Config(1, plane(), [Curve("E", 2, 2, 1)], [])
    assert adjunction_defect(cfg, "E") == 0
    cfg2 = Config(1, plane(), [Curve("E", 2, 3, 1)], [])
    assert adjunction_defect(cfg2, "E") == 1


def two_sections(fibre_alphas, d=2):
    # two disjoint alpha 0 sections of a ruled surface plus fibres; a
    # fibre meets both sections, so its adjunction identity is automatic
    m = len(fibre_alphas)
    curves = [Curve("C1", 0, 0, 0), Curve("C2", 0, 0, 0)]
    curves += [Curve(f"F{k}", 0, 0, a) for k, a in enumerate(fibre_alphas, 1)]
    pts = []
    for k in range(1, m + 1):
        pts += [(f"F{k}", "C1"), (f"F{k}", "C2")]
    return Config(d, ruled(0), curves, pts)


def test_is_allowed():
    # each section meets exactly two fibres with alpha != 1
    cfg = two_sections([F(1, 2), F(-1, 2), 1, 1])
    assert validate(cfg).ok
    assert is_allowed(cfg, "C1") and is_allowed(cfg, "C2")
    # three crossings with alpha != 1 are too many
    bad = two_sections([F(1, 2), F(3, 2), -1])
    assert not is_allowed(bad, "C1")
    assert any(f.code == "allowed-points" for f in validate(bad).errors())


# ---- validation reports ------------------------------------------------


def test_validate_codes():
    rep = validate(triangle())
    assert rep.ok
    codes = [f.code for f in rep.findings]
    assert "chi" in codes and "connectivity" in codes

    rep = validate(triangle(alphas=(F(1, 2), F(1, 2), F(1, 2))))
    assert not rep.ok
    assert {f.code for f in rep.errors()} == {"adjunction"}
    assert "adjunction defect 3/2 on L3" in str(rep)

    rep = validate(triangle(alphas=(F(1, 3), F(1, 3), F(-5, 3)), d=2))
    assert any(f.code == "alpha-context" for f in rep.errors())

    rep = validate(Config(1, plane(), [], []))
    assert rep.ok
    assert any(f.severity == "warning" and f.code == "connectivity"
               for f in rep.findings)


def test_validate_log_genus_and_neighbors():
    g1 = Config(1, ruled(1),
                [Curve("C", 1, 0, 0)], [])
    assert any(f.code == "allowed-genus" for f in validate(g1).errors())
    pair = Config(1, ruled(0),
                  [Curve("A", 0, 0, 0), Curve("B", 0, -4, 0),
                   Curve("U1", 0, 0, 1), Curve("U2", 0, 0, 1)],
                  [("A", "B"), ("A", "U1"), ("B", "U2")])
    assert any(f.code == "allowed-log-neighbor" for f in validate(pair).errors())


def test_returned_report_is_a_copy():
    cfg = triangle(alphas=(F(1, 2), F(1, 2), F(1, 2)))
    first = [str(f) for f in validate(cfg).findings]
    rep = validate(cfg)
    rep.add("error", "mutated", "added by the caller")
    rep.findings.append(rep.findings[0])
    rep.findings.pop(0)
    assert [str(f) for f in validate(cfg).findings] == first
    assert validate(cfg) is not validate(cfg)


# ---- validation against the Fraction reference --------------------------


def reference_adjunction_defect(config, i):
    """adjunction_defect as first written: Fraction sums over the pairs."""
    c = config.curve(i)
    total = c.alpha * c.self_int
    for (a, b), n in config.pair_counts.items():
        if i == a:
            other = b
        elif i == b:
            other = a
        else:
            continue
        total += (config.curve(other).alpha - 1) * n
    return total - (2 * c.genus - 2)


def reference_is_allowed(config, i):
    """is_allowed as first written: a Fraction scan over the points."""
    c = config.curve(i)
    if c.alpha != 0:
        return True
    if c.genus != 0:
        return False
    special = 0
    for a, b, _ in config.points:
        if i == a:
            other = b
        elif i == b:
            other = a
        else:
            continue
        al = config.curve(other).alpha
        if al == 0:
            return False
        if al != 1:
            special += 1
    return special <= 2


def reference_findings(config):
    """validate as first written, in Fraction arithmetic, as
    (severity, code, message) triples."""
    out = []
    d = config.d
    for c in config.curves:
        if (c.alpha * d).denominator != 1:
            out.append(("error", "alpha-context",
                        f"alpha {c.alpha} of {c.id} is not a multiple of 1/{d}"))
    for c in config.curves:
        defect = reference_adjunction_defect(config, c.id)
        if defect != 0:
            out.append(("error", "adjunction",
                        f"adjunction defect {defect} on {c.id}"))
    for c in config.curves:
        if c.alpha != 0 or reference_is_allowed(config, c.id):
            continue
        if c.genus != 0:
            out.append(("error", "allowed-genus",
                        f"curve {c.id} with alpha 0 must be rational "
                        f"(genus {c.genus})"))
            continue
        bad = [j for j in config.neighbors[c.id]
               if config.curve(j).alpha == 0]
        if bad:
            out.append(("error", "allowed-log-neighbor",
                        f"curves {c.id} and {bad[0]} both have alpha 0 "
                        "and intersect"))
            continue
        special = sum(n for (a, b), n in config.pair_counts.items()
                      if c.id in (a, b)
                      and config.curve(b if a == c.id else a).alpha != 1)
        out.append(("error", "allowed-points",
                    f"curve {c.id} with alpha 0 meets curves with alpha != 1 "
                    f"in {special} points (at most 2)"))
    out.append(("info", "chi",
                "euler characteristic of the open complement: "
                f"{euler_complement(config)}"))
    if not config.curves:
        out.append(("warning", "connectivity",
                    "empty divisor counts as disconnected"))
    else:
        out.append(("info", "connectivity",
                    "divisor is connected" if is_connected(config)
                    else "divisor is disconnected"))
    return out


PERTURBATIONS = ("alpha", "self", "genus", "offgrid", "zero", "zero-block")


@st.composite
def perturbed_configs(draw):
    """A random_config output, left valid or broken in up to three of
    the ways validate reports: alpha +-1/d, self_int +-1, genus + 1, an
    alpha outside (1/d) Z, alpha 0 on one curve, or alpha 0 on a curve
    and all its neighbors."""
    cfg = random_config(draw(st.integers(0, 200)),
                        max_blowups=draw(st.integers(0, 6)))
    d = cfg.d
    curves = {c.id: c for c in cfg.curves}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from(sorted(curves)))
        kind = draw(st.sampled_from(PERTURBATIONS))
        sign = draw(st.sampled_from((1, -1)))
        targets = [i] + (list(cfg.neighbors[i]) if kind == "zero-block"
                         else [])
        for j in targets:
            c = curves[j]
            genus, self_int, alpha = c.genus, c.self_int, c.alpha
            if kind == "alpha":
                alpha += F(sign, d)
            elif kind == "self":
                self_int += sign
            elif kind == "genus":
                genus += 1
            elif kind == "offgrid":
                alpha += F(sign, draw(st.sampled_from((2 * d, d + 1))))
            else:
                alpha = F(0)
            curves[j] = Curve(j, genus, self_int, alpha, c.count_trace)
    return Config(d, cfg.ambient_hodge, tuple(curves.values()), cfg.points)


HAND_CASES = [
    triangle(),
    triangle(alphas=(F(1, 2), F(1, 2), F(1, 2))),
    triangle(alphas=(F(1, 3), F(1, 3), F(-5, 3)), d=2),
    two_sections([F(1, 2), F(-1, 2), 1, 1]),
    two_sections([F(1, 2), F(3, 2), -1]),
    two_sections([F(1, 2), F(3, 2), -1, F(2, 3)]),
    Config(1, ruled(1), [Curve("C", 1, 0, 0)], []),
    Config(1, ruled(0),
           [Curve("A", 0, 0, 0), Curve("B", 0, -4, 0),
            Curve("U1", 0, 0, 1), Curve("U2", 0, 0, 1)],
           [("A", "B"), ("A", "U1"), ("B", "U2")]),
    Config(1, plane(), [], []),
]


@pytest.mark.parametrize("cfg", HAND_CASES)
def test_validate_matches_fraction_reference_by_hand(cfg):
    got = [(f.severity, f.code, f.message) for f in validate(cfg).findings]
    assert got == reference_findings(cfg)


@settings(max_examples=200, deadline=None)
@given(perturbed_configs())
def test_validate_matches_fraction_reference(cfg):
    got = [(f.severity, f.code, f.message) for f in validate(cfg).findings]
    assert got == reference_findings(cfg)
    for c in cfg.curves:
        defect = adjunction_defect(cfg, c.id)
        assert type(defect) is Fraction
        assert defect == reference_adjunction_defect(cfg, c.id)
        assert is_allowed(cfg, c.id) == reference_is_allowed(cfg, c.id)


# ---- JSON --------------------------------------------------------------


def test_json_roundtrip_plane(tmp_path):
    cfg = triangle()
    obj = dump_config(cfg)
    assert obj["ambient"] == {"kind": "plane"}
    assert obj["curves"][0]["alpha"] == "1/2"
    assert "count_trace" not in obj["curves"][0]
    back = load_config(obj)
    assert back == cfg

    path = tmp_path / "t.json"
    save_config(cfg, path)
    assert read_config(path) == cfg
    raw = json.loads(path.read_text())
    assert raw["d"] == 2


def test_json_roundtrip_ruled_and_blowups():
    cfg = Config(3, ruled(1) + 2 * HodgePoly({(1, 1): 1}),
                 [Curve("E", 1, 0, F(1, 3), count_trace=2)], [])
    obj = dump_config(cfg)
    assert obj["ambient"] == {"kind": "ruled", "genus": 1, "blowups": 2}
    assert obj["curves"][0]["count_trace"] == 2
    assert load_config(obj) == cfg


def test_json_custom_ambient():
    h = HodgePoly({(2, 2): 1, (0, 0): 2})
    cfg = Config(1, h, [], [])
    obj = dump_config(cfg)
    assert obj["ambient"]["kind"] == "custom"
    assert load_config(obj) == cfg
    # custom takes blowups like plane and ruled (they were dropped)
    obj["ambient"]["blowups"] = 3
    assert load_config(obj).ambient_hodge == h + 3 * HodgePoly({(1, 1): 1})


def test_json_default_d():
    obj = dump_config(conic_config())
    del obj["d"]
    assert load_config(obj, default_d=2) == conic_config()
    with pytest.raises(SchemaError):
        load_config(obj)


def test_json_schema_errors():
    good = dump_config(triangle())
    for mutate in (
        lambda o: o.__setitem__("curves", 3),
        lambda o: o["curves"][0].pop("alpha"),
        lambda o: o["curves"][0].__setitem__("alpha", "1/0"),
        lambda o: o.__setitem__("points", [["L1"]]),
        lambda o: o.__setitem__("points", [["L1", "missing"]]),
        lambda o: o.__setitem__("ambient", {"kind": "klein"}),
        lambda o: o.__setitem__("d", "two"),
        # the last (1, 1) coefficient used to win
        lambda o: o.__setitem__("ambient", {
            "kind": "custom",
            "terms": [[2, 2, 1], [1, 1, 1], [1, 1, 5], [0, 0, 1]]}),
        lambda o: o.__setitem__("ambient", {
            "kind": "custom", "terms": [[1, 1, 1.5]]}),
        lambda o: o.__setitem__("ambient", {
            "kind": "ruled", "genus": 0.5}),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(SchemaError):
            load_config(obj)


def points_config(points):
    """A section C of P^1 x P^1 meeting the fibres F and G once each."""
    return {"d": 2, "ambient": {"kind": "ruled"},
            "curves": [{"id": "C", "self_int": 0, "alpha": "-1"},
                       {"id": "F", "self_int": 0, "alpha": "1/2"},
                       {"id": "G", "self_int": 0, "alpha": "-1/2"}],
            "points": points}


def test_json_points_must_be_lists():
    cfg = load_config(points_config([["C", "F"], ["C", "G", 0]]))
    assert cfg.points == (("C", "F", 0), ("C", "G", 0))
    # with one-letter ids these used to read as the points (C, F), (C, G)
    for points in (["CF", ["C", "G"]], [["C", "F"], {"C": 0, "G": 1}]):
        with pytest.raises(SchemaError, match="must be a list of curve ids"):
            load_config(points_config(points))


def test_alpha_literals():
    # only integers and p or p/q strings of ASCII digits are rationals
    for text, want in (("1/2", F(1, 2)), ("-3", F(-3)), ("+4/6", F(2, 3))):
        assert Curve("A", 0, 1, text).alpha == want
    assert Curve("A", 0, 1, 2).alpha == 2
    for text in ("1e3", "0.5", "1e100000000", " 1/2", "1_000", "\u0663",
                 "1" * 5000):
        with pytest.raises(ConfigError):
            Curve("A", 0, 1, text)


def test_read_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_config(tmp_path / "absent.json")


@pytest.mark.parametrize("content", [b'{"d": ', b"\xff\xfe"],
                         ids=["truncated", "not-utf8"])
def test_read_config_malformed_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="malformed JSON"):
        read_config(path)


# ---- randomized canonicalization ----------------------------------------

ids = st.sampled_from(["A", "B", "C", "D"])


@settings(max_examples=30, deadline=None)
@given(st.permutations(["A", "B", "C", "D"]),
       st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                min_size=0, max_size=6))
def test_storage_order_is_canonical(order, pairs):
    curves = {name: Curve(name, 0, 1, 1) for name in order}
    seen = {}
    pts = []
    for a, b in pairs:
        key = tuple(sorted((a, b)))
        pts.append((a, b, seen.get(key, 0)))
        seen[key] = seen.get(key, 0) + 1
    cfg1 = Config(1, plane(), [curves[n] for n in order], pts)
    cfg2 = Config(1, plane(), [curves[n] for n in sorted(order)],
                  list(reversed(pts)))
    assert cfg1 == cfg2 and hash(cfg1) == hash(cfg2)
    assert list(cfg1.curves) == sorted(cfg1.curves, key=lambda c: c.id)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4))
def test_partition_identity_random(g, m):
    curves = [Curve("Z", g, 0, 1)]
    curves += [Curve(f"F{k}", 0, 0, 1) for k in range(m)]
    pts = [("Z", f"F{k}") for k in range(m)]
    cfg = Config(1, ruled(g), curves, pts)
    total = stratum_total(cfg)
    assert total == cfg.ambient_hodge
    assert total.euler() == cfg.ambient_hodge.euler()
    check_strata(cfg)
