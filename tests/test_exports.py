"""What the package exports, and how its value types behave: repr,
equality, hashing and immutability."""

from fractions import Fraction

import pytest

import pvcalc
from pvcalc.birational import BlowupCenter
from pvcalc.models import PipelineStep
from pvcalc.motring import HodgePoly, from_int
from pvcalc.surface import Config, Curve, Finding, Report, plane
from pvcalc.zeta import ResolutionComponent, SurfaceResolutionDatum, ZMotDatum

F = Fraction

EXPORTS = (
    "BlowupCenter", "CenterError", "ChiDomainError", "Config", "ConfigError",
    "ContextError", "ContractionError", "Curve", "DataError", "ExponentError",
    "Finding", "GeneratorError", "GenericityError", "HodgePoly", "InputError",
    "LogPoleError", "ParseError", "PipelineStep", "PvError", "Report",
    "ResolutionComponent", "RingElem", "SchemaError",
    "SurfaceResolutionDatum", "ValidationError", "ZMotDatum",
    "add_unit_curve", "adjunction_defect", "alphas_from_numerical",
    "at_point", "blow_down", "blow_up", "build_config", "case_c_resolved",
    "conic_pipeline_demo", "curve_class", "dump_config", "dump_datum",
    "e_invariant", "e_padic", "euler_complement", "euler_realize",
    "exceptional_alphas", "exceptional_delta", "free", "fresh_id",
    "from_hodge", "from_int", "hirzebruch_case_a", "hirzebruch_case_b",
    "invariance_delta", "invariant_sum", "inverse_center", "is_allowed",
    "is_connected", "is_exceptional_center", "legend", "lfactor",
    "load_config", "load_datum", "lpow", "numeric_eval", "on_curve",
    "parse_ring_elem", "plane", "plane_conic", "pole_report", "pv_integral",
    "random_config", "read_config", "read_datum", "render", "render_hodge",
    "residue_contribution", "residue_via_substitution", "ring_sum", "ruled",
    "save_config", "save_datum", "strata", "stratum_class",
    "triangle_datum", "validate", "zmot_contribution", "zmot_from_surface",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves(name):
    value = getattr(pvcalc, name)
    assert getattr(pvcalc, name) is value
    assert name in dir(pvcalc)


def test_version_and_unknown_names():
    assert pvcalc.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        pvcalc.no_such_name
    with pytest.raises(ImportError):
        from pvcalc import no_such_name  # noqa: F401


def test_parser_imports():
    from pvcalc import parse_ring_elem as top
    from pvcalc.motring import parse_ring_elem
    assert top is parse_ring_elem
    assert parse_ring_elem("w^2", 2) == from_int(1, 2) * pvcalc.lpow(1, 2)


def _curve():
    return Curve("A", 0, -1, F(1, 2))


def _config():
    return Config(2, plane(), [_curve()], [])


def _datum():
    return SurfaceResolutionDatum(2, 1, plane(), "point",
                                  (ResolutionComponent("D1", 0, 1, 1, 1),))


def _zmot(numerical=None):
    return ZMotDatum(2, ((("Ej",), HodgePoly.one()),),
                     numerical or {"Ej": (2, 1)})


PLANE = "HodgePoly(u^2*v^2 + u*v + 1)"
CURVE = ("Curve(id='A', genus=0, self_int=-1, alpha=Fraction(1, 2), "
         "count_trace=0)")
CONFIG = f"Config(d=2, ambient_hodge={PLANE}, curves=({CURVE},), points=())"
FINDING = "Finding(severity='info', code='chi', message='x')"
COMPONENT = "ResolutionComponent(id='D1', genus=0, self_int=1, N=1, v=1, trace=0)"

# (build, literal repr, a field and a value to try assigning, or None
# for the mutable types)
VALUES = {
    "Curve": (_curve, CURVE, ("genus", 1)),
    "Config": (_config, CONFIG, ("d", 3)),
    "Finding": (lambda: Finding("info", "chi", "x"), FINDING,
                ("code", "y")),
    "Report": (lambda: Report([Finding("info", "chi", "x")]),
               f"Report(findings=[{FINDING}])", None),
    "BlowupCenter": (lambda: BlowupCenter("point", "B", "A", 1),
                     "BlowupCenter(kind='point', a='A', b='B', index=1, "
                     "new_id=None)", ("index", 0)),
    "PipelineStep": (lambda: PipelineStep("s", _config(), from_int(1, 2),
                                          from_int(0, 2), False),
                     f"PipelineStep(label='s', config={CONFIG}, "
                     "invariant=RingElem('1', d=2), delta=RingElem('0', d=2), "
                     "exceptional=False)", None),
    "ResolutionComponent": (lambda: ResolutionComponent("D1", 0, 1, 1, 1),
                            COMPONENT, ("N", 2)),
    "SurfaceResolutionDatum": (_datum,
                               f"SurfaceResolutionDatum(nj=2, vj=1, "
                               f"surface_hodge={PLANE}, creation='point', "
                               f"components=({COMPONENT},), points=(), "
                               "creation_genus=0)", ("nj", 3)),
    "ZMotDatum": (_zmot, "ZMotDatum(n=2, strata=((('Ej',), HodgePoly(1)),), "
                  "numerical={'Ej': (2, 1)})", ("n", 3)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_behaviour(name):
    build, text, assign = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != object() and a != text
    other = next(build() for n, (build, _, _) in VALUES.items() if n != name)
    assert a != other and other != a
    if assign is None:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    field, value = assign
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_values_differ_by_each_field():
    c = _curve()
    for other in (Curve("B", 0, -1, F(1, 2)), Curve("A", 1, -1, F(1, 2)),
                  Curve("A", 0, -2, F(1, 2)), Curve("A", 0, -1, F(1, 3)),
                  Curve("A", 0, -1, F(1, 2), 1)):
        assert c != other
    cfg = _config()
    assert cfg != Config(4, plane(), [_curve()], [])
    assert cfg != Config(2, plane(), [], [])
    assert BlowupCenter("free") != BlowupCenter("free", new_id="E")
    assert Finding("info", "chi", "x") != Finding("info", "chi", "y")
    assert Report() == Report([]) != Report([Finding("info", "chi", "x")])


@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_field_counts(name):
    """Equality reads every field in _fields, and the hash is that of
    the tuple of fields, except that ZMotDatum's leaves numerical out."""
    build = VALUES[name][0]
    a = build()
    if type(a).__hash__ is not None:
        hashed = [f for f in a._fields
                  if (name, f) != ("ZMotDatum", "numerical")]
        assert hash(a) == hash(tuple(getattr(a, f) for f in hashed))
    for field in a._fields:
        b = build()
        vars(b)[field] = object()       # unequal to any field value
        assert a != b and b != a
        if field == "numerical":
            assert hash(a) == hash(b)


def test_keyword_construction_and_defaults():
    assert Curve(id="A", genus=0, self_int=-1, alpha="1/2") == _curve()
    assert _curve().count_trace == 0
    assert Config(d=2, ambient_hodge=plane()).curves == ()
    assert Config(2, plane()).points == ()
    center = BlowupCenter(kind="curve", a="C")
    assert (center.b, center.index, center.new_id) == (None, 0, None)
    assert ResolutionComponent("D1", 0, 1, 1, 1).trace == 0
    datum = SurfaceResolutionDatum(nj=2, vj=1, surface_hodge=plane(),
                                   creation="point")
    assert (datum.components, datum.points, datum.creation_genus) == \
        ((), (), 0)
    r1, r2 = Report(), Report()
    r1.add("info", "x", "y")
    assert r2.findings == []
    step = PipelineStep("s", _config(), from_int(1, 2), from_int(0, 2), True)
    assert list(step) == [step.label, step.config, step.invariant]
    step.label = "t"
    assert step.label == "t"


def test_zmot_hash_ignores_numerical():
    a, b = _zmot({"Ej": (2, 1)}), _zmot({"Ej": (3, 1)})
    assert a != b
    assert hash(a) == hash(b)


def test_config_keeps_its_cached_views():
    cfg = Config(2, plane(), [Curve("A", 0, 1, 1), Curve("B", 0, 1, 1)],
                 [("B", "A")])
    assert cfg.points == (("A", "B", 0),)
    assert cfg.curve_map["A"] is cfg.curves[0]
    assert cfg.curve_map is cfg.curve_map
    assert cfg.pair_counts == {("A", "B"): 1}
    assert cfg == Config(2, plane(), [Curve("B", 0, 1, 1), Curve("A", 0, 1, 1)],
                         [("A", "B", 0)])
    assert {cfg: 1}[Config(2, plane(), cfg.curves, cfg.points)] == 1
