"""Numerical data of resolutions, residues, substitution, verdicts."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcalc.errors import DataError, GenericityError, SchemaError
from pvcalc.models import random_config
from pvcalc.motring import (HodgePoly, from_hodge, from_int, lfactor, lpow,
                            numeric_eval, one, render, ring_sum)
from pvcalc.surface import Config, euler_complement, is_connected, strata
from pvcalc.zeta import (ResolutionComponent, SurfaceResolutionDatum, ZMotDatum,
                         alphas_from_numerical, build_config, dump_datum,
                         load_datum, pole_report, read_datum,
                         residue_contribution, residue_via_substitution,
                         save_datum, triangle_datum, zmot_contribution,
                         zmot_from_surface)

F = Fraction


def clear_caches():
    """Clear every functools cache bound in a loaded pvcalc module."""
    caches = {id(obj): obj for name, mod in list(sys.modules.items())
              if mod is not None and name.split(".")[0] == "pvcalc"
              for obj in vars(mod).values()
              if callable(getattr(obj, "cache_clear", None))
              and callable(getattr(obj, "cache_info", None))}
    for cache in caches.values():
        cache.cache_clear()


PLANE = HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1})


def conic_datum(creation="point"):
    return SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation=creation,
        components=(ResolutionComponent("B", 0, 4, 3, 1),))


def two_conics_datum(creation="point", **kw):
    return SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation=creation,
        components=(ResolutionComponent("B1", 0, 4, 3, 1),
                    ResolutionComponent("B2", 0, 4, 3, 1)),
        **kw)


# ---- numerical data ---------------------------------------------------------


def test_alphas_from_numerical():
    assert alphas_from_numerical(triangle_datum()) == {
        "D1": F(1, 2), "D2": F(1, 2), "D3": F(-1)}
    assert alphas_from_numerical(conic_datum()) == {"B": F(-1, 2)}
    degenerate = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("A", 0, 0, 2, 1),))
    with pytest.raises(GenericityError):
        alphas_from_numerical(degenerate)


def test_structural_checks():
    with pytest.raises(DataError):
        ResolutionComponent("A", 0, 0, 0, 1)
    with pytest.raises(DataError):
        ResolutionComponent("A", 0, 0, 1, 0)
    with pytest.raises(DataError, match="genus must be a nonnegative"):
        ResolutionComponent("A", -1, 0, 1, 1)
    with pytest.raises(DataError, match="self-intersection"):
        ResolutionComponent("A", 0, "1", 1, 1)
    with pytest.raises(DataError, match="trace"):
        ResolutionComponent("A", 1, 0, 1, 1, trace=None)
    with pytest.raises(DataError):
        SurfaceResolutionDatum(0, 1, PLANE, "point")
    with pytest.raises(DataError):
        SurfaceResolutionDatum(1, 0, PLANE, "point")
    with pytest.raises(DataError):
        SurfaceResolutionDatum(1, 1, PLANE, "mystery")
    with pytest.raises(DataError):
        SurfaceResolutionDatum(1, 1, PLANE, "nonrational_curve")
    with pytest.raises(DataError):
        SurfaceResolutionDatum(
            1, 1, PLANE, "point",
            components=(ResolutionComponent("A", 0, 0, 1, 1),
                        ResolutionComponent("A", 0, 1, 1, 1)))
    with pytest.raises(DataError):
        SurfaceResolutionDatum(
            1, 1, PLANE, "point",
            components=(ResolutionComponent("A", 0, 0, 1, 1),),
            points=(("A", "A"),))
    with pytest.raises(DataError):
        SurfaceResolutionDatum(
            1, 1, PLANE, "point",
            components=(ResolutionComponent("A", 0, 0, 1, 1),),
            points=(("A", "nope"),))
    with pytest.raises(DataError, match="surface_hodge"):
        SurfaceResolutionDatum(2, 1, "plane", "point")
    with pytest.raises(DataError, match="ResolutionComponent"):
        SurfaceResolutionDatum(2, 1, PLANE, "point", components=(1,))
    with pytest.raises(DataError, match="creation_genus"):
        SurfaceResolutionDatum(2, 1, PLANE, "nonrational_curve",
                               creation_genus="x")
    with pytest.raises(DataError, match="creation_genus"):
        SurfaceResolutionDatum(2, 1, PLANE, "point", creation_genus=1.0)


def test_build_config():
    cfg = build_config(triangle_datum())
    assert cfg.d == 2
    assert cfg.curve("D3").alpha == -1
    assert cfg.points == (("D1", "D2", 0), ("D1", "D3", 0), ("D2", "D3", 0))
    # repeated pairs get distinct indices
    tangent = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("A", 0, 0, 1, 1),
                    ResolutionComponent("B", 0, 4, 1, 2)),
        points=(("A", "B"), ("A", "B")))
    cfg = build_config(tangent)
    assert cfg.intersection("A", "B") == 2
    assert cfg.points == (("A", "B", 0), ("A", "B", 1))


def test_build_config_carries_its_exponents():
    # components listed out of id order: the carried table is in id
    # order, as Config.exponents builds it from the alphas
    datum = SurfaceResolutionDatum(
        nj=3, vj=2, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("C", 0, 1, 1, 1),
                    ResolutionComponent("A", 1, 0, 2, 3),
                    ResolutionComponent("B", 0, 4, 5, 1)))
    cfg = build_config(datum)
    carried = cfg.__dict__["exponents"]
    rebuilt = Config(cfg.d, cfg.ambient_hodge, cfg.curves, cfg.points)
    assert list(carried.items()) == list(rebuilt.exponents.items())
    assert list(carried.items()) == [("A", 5), ("B", -7), ("C", 1)]


# ---- residues ----------------------------------------------------------------


def test_triangle_residue_vanishes_and_matches_expansion():
    R = residue_contribution(triangle_datum())
    assert R.is_zero()
    # independent check by brute-force expansion in integer w-coefficients
    def poly(*pairs):           # {exponent: coeff}
        out = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def pmulr(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def padd(*ps):
        out = {}
        for p in ps:
            for e, c in p.items():
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    L = poly((2, 1))                              # w^2
    Lm1 = poly((2, 1), (0, -1))                   # L - 1
    lf_half = poly((1, 1), (0, 1))                # w + 1
    lf_m1 = poly((2, -1))                         # -L
    open_plane = pmulr(Lm1, Lm1)                  # (L-1)^2
    lines = pmulr(Lm1, padd(lf_half, lf_half, lf_m1))
    pts = padd(pmulr(lf_half, lf_half),
               pmulr(lf_half, lf_m1), pmulr(lf_half, lf_m1))
    assert padd(open_plane, lines, pts) == {}


def test_conic_residues():
    R = residue_contribution(conic_datum())
    assert render(R) == "-(w^3 + w^2 + w)"
    R2 = residue_contribution(two_conics_datum())
    assert render(R2) == "-(w^4 + 2*w^3 + 3*w^2 + 2*w + 1)"


def test_residue_rejects_inconsistent_data():
    # a line with alpha 1/2 fails adjunction on the plane
    bad = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("D", 0, 1, 1, 1),))
    with pytest.raises(DataError) as exc:
        residue_contribution(bad)
    assert "adjunction" in str(exc.value)


# ---- formal terms and substitution -------------------------------------------


def test_zmot_terms():
    z = zmot_from_surface(triangle_datum())
    terms = zmot_contribution(z, "Ej")
    assert isinstance(terms, ZMotDatum)
    assert len(terms.strata) == 1 + 3 + 3
    assert terms.n == 2 and terms.numerical == z.numerical
    assert terms.strata == tuple(s for s in z.strata if "Ej" in s[0])
    assert terms.strata[0][0] == ("Ej",)
    singles = [ids for ids, _ in terms.strata if len(ids) == 2]
    assert sorted(singles) == [("D1", "Ej"), ("D2", "Ej"), ("D3", "Ej")]
    # every stratum of a surface datum contains j: nothing to filter
    assert terms is z
    # a datum with strata away from j keeps only those through j, in a
    # new datum
    wider = ZMotDatum(2, ((("A",), PLANE), (("A", "Ej"), HodgePoly.one())),
                      {"A": (3, 1), "Ej": (2, 1)})
    through = zmot_contribution(wider, "Ej")
    assert through is not wider
    assert through.strata == ((("A", "Ej"), HodgePoly.one()),)
    assert through.n == wider.n and through.numerical == wider.numerical
    with pytest.raises(DataError):
        zmot_contribution(z, "nope")
    with pytest.raises(DataError):
        zmot_from_surface(triangle_datum(), j="D1")


def test_zmot_structural_checks():
    with pytest.raises(DataError):
        ZMotDatum(2, ((("A",), HodgePoly.one()),), {})
    for n in ("2", True, 0, -1, 2.0):
        with pytest.raises(DataError, match="n must be a positive integer"):
            ZMotDatum(n, ((("Ej",), HodgePoly.one()),), {"Ej": (2, 1)})
    with pytest.raises(DataError):
        ZMotDatum(2, ((("A",), 1),), {"A": (1, 1)})
    z = ZMotDatum(2, ((("A",), HodgePoly.one()),), {"A": (1, 1), "B": (1, 1)})
    with pytest.raises(DataError):
        zmot_contribution(z, "B")


def test_substitution_matches_direct_residue():
    for datum in (triangle_datum(), conic_datum(), two_conics_datum()):
        z = zmot_from_surface(datum)
        terms = zmot_contribution(z, "Ej")
        got = residue_via_substitution(terms, "Ej")
        d = datum.nj
        prefactor = ((lpow(1, d) - from_int(1, d)) * lpow(datum.vj, d)
                     * lpow(-3, d))
        assert got == residue_contribution(datum) * prefactor


def test_substitution_zero_for_triangle():
    z = zmot_from_surface(triangle_datum())
    assert residue_via_substitution(zmot_contribution(z, "Ej"), "Ej").is_zero()


def test_substitution_wider_context():
    z = zmot_from_surface(conic_datum())
    terms = zmot_contribution(z, "Ej")
    got = residue_via_substitution(terms, "Ej", d=2)
    assert got.d == 4
    want = (residue_contribution(conic_datum()) * (lpow(1, 2) - one(2))
            * lpow(1, 2) * lpow(-3, 2))
    # same value, seen in the wider ring: compare at perfect fourth powers
    for q in (16, 81):
        assert numeric_eval(got, q) == numeric_eval(want, q)


def test_substitution_guards():
    numerical = {"A": (2, 1), "Ej": (2, 1)}
    for strata in ((), ((("A",), HodgePoly.one()),)):
        bad = ZMotDatum(2, strata, numerical)
        for fn in (residue_via_substitution,
                   reference_residue_via_substitution):
            with pytest.raises(DataError, match="does not appear"):
                fn(bad, "Ej")
    mixed = ZMotDatum(2, ((("Ej",), PLANE), (("A",), HodgePoly.one())),
                      numerical)
    for fn in (residue_via_substitution, reference_residue_via_substitution):
        with pytest.raises(DataError, match="every term must contain"):
            fn(mixed, "Ej")
    pole = ZMotDatum(2, ((("Ej", "A"), HodgePoly.one()),), numerical)
    with pytest.raises(GenericityError):
        residue_via_substitution(pole, "Ej")


@pytest.mark.parametrize("data, message", [
    ((2.0, 1), "component Ej: N must be a positive integer"),
    ((0, 1), "component Ej: N must be a positive integer"),
    ((2, 0), "component Ej: v must be a positive integer"),
    ((2, True), "component Ej: v must be a positive integer"),
    ([2, 1], r"component Ej: numerical data must be a pair \(N, v\)"),
    ((2, 1, 0), r"component Ej: numerical data must be a pair \(N, v\)"),
])
def test_numerical_data_checked(data, message):
    with pytest.raises(DataError, match=message):
        ZMotDatum(2, ((("Ej",), HodgePoly.one()),), {"Ej": data})


@pytest.mark.parametrize("d", [1.5, 0, -2, True])
def test_substitution_needs_positive_int_d(d):
    z = ZMotDatum(2, ((("Ej",), HodgePoly.one()),), {"Ej": (2, 1)})
    with pytest.raises(DataError, match="d must be a positive integer"):
        residue_via_substitution(z, "Ej", d=d)


def reference_residue_via_substitution(z, j, d=1):
    """residue_via_substitution as first written: every term built by
    its own products, each exponent in Fraction arithmetic, no caches,
    and the sum multiplied by (L-1), L^(v_j) and L^-(n+1) in turn."""
    total = reference_substitution_sum(z, j, d)
    nj, vj = z.numerical[j]
    d_eff = d * nj
    lm1 = lpow(1, d_eff) - from_int(1, d_eff)
    return total * lm1 * lpow(vj, d_eff) * lpow(-(z.n + 1), d_eff)


def reference_substitution_sum(z, j, d=1):
    """The sum of the substituted terms, before the prefactor."""
    if all(j not in ids for ids, _ in z.strata):
        raise DataError(f"component {j!r} does not appear in the terms")
    nj, vj = z.numerical[j]
    d_eff = d * nj
    parts = []
    for ids, h in z.strata:
        if j not in ids:
            raise DataError("every term must contain the component j")
        elem = from_hodge(h, d_eff)
        for i in ids:
            if i == j:
                continue
            N, v = z.numerical[i]
            a = Fraction(v) - Fraction(vj, nj) * N
            if a == 0:
                raise GenericityError(
                    f"substitution pole: component {i} has v/N = {vj}/{nj}")
            elem = elem * lfactor(a, d_eff)
        parts.append(elem)
    return ring_sum(parts, d_eff)


def numerical_data(cfg, scale):
    """(N, v) per curve and (N_j, v_j) whose induced exponents are the
    curves' alphas, with N_j = d * scale; alpha 0 gives a pole."""
    out = {}
    for c in cfg.curves:
        m = int(c.alpha * cfg.d)
        v = max(1, -(-(m + 1) // cfg.d))
        out[c.id] = (cfg.d * v - m, v)
    return out, (cfg.d * scale, scale)


@st.composite
def substitution_terms(draw):
    """A hand-built ZMotDatum of a random_config's strata through "Ej"
    (all of them, or some, drawn with repeats and in a drawn order), with
    data at scale 1 or 2.  A curve with alpha 0 makes a pole; a stratum's
    class may hold its Hodge terms in reverse order, which is equal but
    stores differently."""
    cfg = random_config(draw(st.integers(0, 300)),
                        max_blowups=draw(st.integers(0, 6)))
    numerical, ej = numerical_data(cfg, draw(st.sampled_from((1, 2))))
    numerical["Ej"] = ej
    terms = []
    for ids, h in strata(cfg):
        if draw(st.booleans()):
            h = HodgePoly(dict(reversed(list(h.items()))))
        terms.append((("Ej",) + ids, h))
    if draw(st.booleans()):
        terms = draw(st.lists(st.sampled_from(terms), min_size=1,
                              max_size=len(terms)))
    return ZMotDatum(2, tuple(terms), numerical)


def stored_or_error(fn, *args):
    try:
        x = fn(*args)
    except (DataError, GenericityError) as exc:
        return type(exc), str(exc)
    return (list(x.num.items()), x.wpow, x.cyclo, render(x))


@settings(max_examples=150, deadline=None)
@given(substitution_terms(), st.sampled_from((1, 2, 3)))
def test_substitution_matches_fraction_reference(terms, d):
    assert stored_or_error(residue_via_substitution, terms, "Ej", d) == \
        stored_or_error(reference_residue_via_substitution, terms, "Ej", d)


def test_substitution_keeps_each_class_order():
    # equal classes that hold their terms in different orders store
    # differently, so they must not share a cached term
    line = HodgePoly({(1, 1): 1, (0, 0): -1})
    flipped = HodgePoly({(0, 0): -1, (1, 1): 1})
    assert line == flipped
    for h in (line, flipped, line):
        terms = ZMotDatum(2, ((("A", "Ej"), h),), {"A": (3, 1), "Ej": (2, 1)})
        assert stored_or_error(residue_via_substitution, terms, "Ej") == \
            stored_or_error(reference_residue_via_substitution, terms, "Ej")


def test_substitution_on_a_long_stratum():
    # a stratum through 300 components: building its term must not
    # recurse once per exponent
    ids = tuple(f"C{k:03d}" for k in range(300))
    numerical = {i: ((1, 1), (3, 1), (1, 2))[k % 3] for k, i in enumerate(ids)}
    numerical["Ej"] = (2, 1)
    terms = ZMotDatum(2, ((ids + ("Ej",), HodgePoly.one()),), numerical)
    want = stored_or_error(reference_residue_via_substitution, terms, "Ej")
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        got = stored_or_error(residue_via_substitution, terms, "Ej")
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_residue_ops_on_one_datum_build_one_config(monkeypatch):
    """residue_contribution, pole_report and zmot_from_surface on one
    datum share the induced Config; build_config builds a new one."""
    datum = triangle_datum()
    clear_caches()
    built = []
    init = Config.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Config, "__init__", counting_init)
    residue_contribution(datum)
    pole_report(datum)
    zmot_from_surface(datum)
    assert len(built) == 1
    assert build_config(datum) is not build_config(datum)
    assert len(built) == 3


def test_residue_ops_keep_nothing_on_the_datum():
    # the induced Config lives in zeta's cache, not on the datum: a datum
    # passed again after the caches are cleared is computed afresh
    data = [triangle_datum(), conic_datum(), two_conics_datum(),
            two_conics_datum(creation="rational_curve")]
    clear_caches()
    for datum in data:
        residue_contribution(datum)
        pole_report(datum)
        zmot_from_surface(datum)
        hash(datum)
        assert list(datum.__dict__) == list(datum._fields)


def test_pole_report_reads_the_induced_config():
    for datum in (triangle_datum(), conic_datum(), two_conics_datum(),
                  two_conics_datum(creation="rational_curve")):
        clear_caches()
        cfg = build_config(datum)
        chi, conn = euler_complement(cfg), is_connected(cfg)
        found = {f.code: f.message for f in pole_report(datum).findings}
        assert found["chi"] == f"chi of the open part of E_j: {chi}"
        assert found["connectivity"] == (
            "divisor on E_j is connected" if conn
            else "divisor on E_j is disconnected")
    # both connectivity verdicts occur above
    assert is_connected(build_config(triangle_datum()))
    assert not is_connected(build_config(two_conics_datum()))


def residue_results(datum):
    """The stored forms of every residue op on datum, or their errors."""
    z = zmot_from_surface(datum)
    return (stored_or_error(residue_contribution, datum),
            [str(f) for f in pole_report(datum).findings],
            tuple((ids, list(h.items())) for ids, h in z.strata),
            stored_or_error(residue_via_substitution,
                            zmot_contribution(z, "Ej"), "Ej"))


def test_residue_ops_keep_each_surface_class_order():
    # data equal up to the order of their surface class's terms keep
    # that order in the open stratum's class, so they must not share an
    # induced Config
    blown_up = HodgePoly({(2, 2): 1, (1, 1): 2, (0, 0): 1})
    flipped = HodgePoly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert blown_up == flipped
    data = [SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=h, creation="point",
        components=(ResolutionComponent("B", 0, 4, 3, 1),))
        for h in (blown_up, flipped)]
    assert data[0] == data[1]
    cold = []
    for datum in data:
        clear_caches()
        cold.append(residue_results(datum))
    assert cold[0][2] != cold[1][2]
    clear_caches()
    for k in (0, 1, 0):
        assert residue_results(data[k]) == cold[k]


def test_substitution_prefactor_stores_the_sequential_tail():
    # one product by (L-1) L^(v_j) L^-(n+1) stores what the three
    # products in turn store, key order included
    for datum in (conic_datum(), two_conics_datum()):
        terms = zmot_contribution(zmot_from_surface(datum), "Ej")
        for d in (1, 2, 3):
            total = reference_substitution_sum(terms, "Ej", d)
            assert not total.is_zero()
            d_eff = d * datum.nj
            lm1 = lpow(1, d_eff) - from_int(1, d_eff)
            tail = (total * lm1 * lpow(datum.vj, d_eff)
                    * lpow(-(terms.n + 1), d_eff))
            got = residue_via_substitution(terms, "Ej", d)
            assert got.d == d_eff
            assert (list(got.num.items()), got.wpow, got.cyclo) == \
                (list(tail.num.items()), tail.wpow, tail.cyclo)
    terms = zmot_contribution(zmot_from_surface(triangle_datum()), "Ej")
    for d in (1, 3):
        got = residue_via_substitution(terms, "Ej", d)
        assert (got.d, got.num, got.wpow, got.cyclo) == (2 * d, {}, 0, ())


def test_substitution_matches_fraction_reference_on_data():
    for datum in (triangle_datum(), conic_datum(), two_conics_datum()):
        terms = zmot_contribution(zmot_from_surface(datum), "Ej")
        for d in (1, 2):
            assert stored_or_error(residue_via_substitution, terms, "Ej", d) \
                == stored_or_error(reference_residue_via_substitution,
                                   terms, "Ej", d)
    pole = ZMotDatum(2, ((("Ej",), PLANE),
                         (("A", "Ej"), HodgePoly.one()),
                         (("B", "Ej"), HodgePoly.one())),
                     {"Ej": (2, 1), "A": (3, 1), "B": (4, 2)})
    for fn in (residue_via_substitution, reference_residue_via_substitution):
        with pytest.raises(GenericityError,
                           match="component B has v/N = 1/2"):
            fn(pole, "Ej")


# ---- verdicts ------------------------------------------------------------------


def verdict_of(rep):
    return next(f for f in rep.findings if f.code == "verdict")


def test_pole_report_triangle():
    rep = pole_report(triangle_datum())
    assert rep.ok
    v = verdict_of(rep)
    assert v.severity == "info"
    assert "cancellation as predicted (point-creation rule)" in v.message


def test_pole_report_no_expectation():
    rep = pole_report(conic_datum())          # chi = 1 > 0
    assert rep.ok
    assert "no expectation (chi > 0)" in verdict_of(rep).message


def test_pole_report_mismatch():
    rep = pole_report(two_conics_datum())     # chi = -1, R != 0
    assert not rep.ok
    v = verdict_of(rep)
    assert v.severity == "error"
    assert "expected vanishing by the point-creation rule" in v.message


def test_pole_report_rational_curve_rules():
    # disconnected divisor: the rational-curve rule does not apply
    rep = pole_report(two_conics_datum(creation="rational_curve"))
    assert rep.ok
    assert "no expectation (divisor on E_j is disconnected)" in \
        verdict_of(rep).message
    # connected, chi <= 0, R = 0: predicted cancellation
    tri = triangle_datum()
    rc = SurfaceResolutionDatum(
        nj=tri.nj, vj=tri.vj, surface_hodge=tri.surface_hodge,
        creation="rational_curve", components=tri.components,
        points=tri.points)
    rep = pole_report(rc)
    assert rep.ok
    assert "rational-curve rule" in verdict_of(rep).message


def test_pole_report_nonrational_always_expects():
    tri = triangle_datum()
    nr = SurfaceResolutionDatum(
        nj=tri.nj, vj=tri.vj, surface_hodge=tri.surface_hodge,
        creation="nonrational_curve", components=tri.components,
        points=tri.points, creation_genus=1)
    rep = pole_report(nr)
    assert rep.ok and "non-rational-curve rule" in verdict_of(rep).message
    bad = two_conics_datum(creation="nonrational_curve", creation_genus=2)
    rep = pole_report(bad)
    assert not rep.ok


def test_pole_report_catches_data_problems():
    degenerate = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("A", 0, 0, 2, 1),))
    rep = pole_report(degenerate)                # alpha = 0, not an exception
    assert not rep.ok
    assert any(f.code == "data" for f in rep.errors())
    inconsistent = SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("D", 0, 1, 1, 1),))
    rep = pole_report(inconsistent)
    assert any(f.code == "data" for f in rep.errors())


# ---- JSON ----------------------------------------------------------------------


def test_datum_json_roundtrip(tmp_path):
    tri = triangle_datum()
    obj = dump_datum(tri)
    assert obj["nj"] == 2 and obj["vj"] == 1
    assert obj["surface"] == {"kind": "plane"}
    assert obj["components"][0] == {
        "id": "D1", "genus": 0, "self": 1, "N": 1, "v": 1}
    assert load_datum(obj) == tri
    path = tmp_path / "tri.json"
    save_datum(tri, path)
    assert read_datum(path) == tri


def test_read_datum_negative_genus(tmp_path):
    obj = dump_datum(triangle_datum())
    obj["components"][0]["genus"] = -1
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError,
                       match="D1: genus must be a nonnegative integer"):
        read_datum(path)


@pytest.mark.parametrize("content", [b'{"nj": ', b"\xff\xfe"],
                         ids=["truncated", "not-utf8"])
def test_read_datum_malformed_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="malformed JSON"):
        read_datum(path)


def test_datum_points_must_be_pairs():
    obj = dump_datum(SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=PLANE, creation="point",
        components=(ResolutionComponent("A", 0, 1, 1, 1),
                    ResolutionComponent("B", 0, 1, 1, 1)),
        points=(("A", "B"),)))
    assert load_datum(obj).points == (("A", "B"),)
    # with one-letter ids, "AB" used to read as the pair (A, B)
    for point in ("AB", {"A": 0, "B": 1}, ["A", "B", 0]):
        obj["points"] = [point]
        with pytest.raises(SchemaError, match="must be a pair of component"):
            load_datum(obj)


def test_datum_json_extras():
    nr = SurfaceResolutionDatum(
        nj=3, vj=2, surface_hodge=PLANE, creation="nonrational_curve",
        creation_genus=2,
        components=(ResolutionComponent("A", 1, -2, 1, 1, trace=3),))
    obj = dump_datum(nr)
    assert obj["creation_genus"] == 2
    assert obj["components"][0]["trace"] == 3
    assert load_datum(obj) == nr
    assert json.loads(json.dumps(obj)) == obj


def test_datum_schema_errors():
    good = dump_datum(triangle_datum())
    for mutate in (
        lambda o: o.pop("nj"),
        lambda o: o.__setitem__("nj", "two"),
        lambda o: o.__setitem__("creation", "mystery"),
        lambda o: o["components"][0].pop("N"),
        lambda o: o.__setitem__("points", [["D1", "D1"]]),
        lambda o: o.__setitem__("surface", {"kind": "klein"}),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(SchemaError):
            load_datum(obj)
