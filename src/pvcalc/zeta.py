"""Candidate-pole residues and cancellation reports.

A surface resolution datum describes one exceptional surface E_j of an
embedded resolution: its class, the curves cut out on it by the other
divisor components, and the numerical data (N, v) of every component.
The attached exponents alpha_i = v_i - (v_j / N_j) N_i turn E_j with its
curves into an ordinary configuration whose invariant is the residue
contribution R of E_j.  Vanishing of R is what cancellation of the
candidate pole at -v_j/N_j means here.

The same residue can be reached from the formal zeta-function side: the
terms of the motivic contribution carry one (L-1)T^N / (L^v - T^N)
factor per component, and multiplying by the j-factor's denominator and
substituting T = L^(v_j/N_j) collapses every remaining factor to
(L-1)/(L^alpha - 1) exactly.

The calls on one datum do each piece of work once.  build_config hands
the integers m_i = alpha_i * N_j it computed to the Config's exponents
view; residue_contribution, pole_report and zmot_from_surface share one
induced Config, kept in a small cache keyed by the datum, never on the
datum itself, whose sum, findings, chi, connectivity and open stratum
class are computed once on it.  zmot_from_surface builds the one
ZMotDatum of the op, which zmot_contribution returns as it is, since
every stratum contains E_j; residue_via_substitution sums the same
strata as the residue, which stratum_sum's cache holds, and multiplies
the sum by a single prefactor.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError, DataError, GenericityError, SchemaError
from .motring import HodgePoly, _is_int, from_int, lpow
from .pvint import invariant_sum, stratum_sum
from .surface import (Config, Curve, Report, _Frozen, _ambient_from_json,
                      _ambient_to_json, _read_json, _write_json, strata,
                      validate)

CREATIONS = ("point", "rational_curve", "nonrational_curve")


class ResolutionComponent(_Frozen):
    """One curve cut out on the exceptional surface, with its (N, v)."""

    _fields = ("id", "genus", "self_int", "N", "v", "trace")

    def __init__(self, id, genus, self_int, N, v, trace=0):
        if not isinstance(id, str) or not id:
            raise DataError("component id must be a nonempty string")
        if not _is_int(N) or N < 1:
            raise DataError(f"component {id}: N must be a positive integer")
        if not _is_int(v) or v < 1:
            raise DataError(f"component {id}: v must be a positive integer")
        if not _is_int(genus) or genus < 0:
            raise DataError(
                f"component {id}: genus must be a nonnegative integer")
        if not _is_int(self_int):
            raise DataError(
                f"component {id}: self-intersection must be an integer")
        if not _is_int(trace):
            raise DataError(f"component {id}: trace must be an integer")
        self.__dict__.update(id=id, genus=genus, self_int=self_int, N=N, v=v,
                             trace=trace)


class SurfaceResolutionDatum(_Frozen):
    """The data of one exceptional surface E_j.

    nj, vj are the numerical data of E_j itself; creation records how
    E_j arose (blowing up a point, a rational curve, or a curve of
    positive genus, the genus kept in creation_genus).
    """

    _fields = ("nj", "vj", "surface_hodge", "creation", "components",
               "points", "creation_genus")

    def __init__(self, nj, vj, surface_hodge, creation, components=(),
                 points=(), creation_genus=0):
        if not _is_int(nj) or nj < 1:
            raise DataError("N_j must be a positive integer")
        if not _is_int(vj) or vj < 1:
            raise DataError("v_j must be a positive integer")
        if not isinstance(surface_hodge, HodgePoly):
            raise DataError("surface_hodge must be a HodgePoly")
        if creation not in CREATIONS:
            raise DataError(f"creation must be one of {CREATIONS}")
        if not _is_int(creation_genus):
            raise DataError("creation_genus must be an integer")
        if creation == "nonrational_curve" and creation_genus < 1:
            raise DataError("nonrational creation needs creation_genus >= 1")
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, ResolutionComponent):
                raise DataError("components must be ResolutionComponent instances")
        ids = [c.id for c in comps]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate component ids")
        idset = set(ids)
        pts = []
        for p in points:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise DataError(f"point {p!r} must be a pair of component ids")
            a, b = p
            if a not in idset or b not in idset or a == b:
                raise DataError(f"bad intersection pair {p!r}")
            pts.append((a, b) if a < b else (b, a))
        self.__dict__.update(nj=nj, vj=vj, surface_hodge=surface_hodge,
                             creation=creation, components=comps,
                             points=tuple(sorted(pts)),
                             creation_genus=creation_genus)


def _exponent_ints(datum):
    """id -> m_i = v_i N_j - v_j N_i, the integer alpha_i * N_j, in the
    order of datum.components; a zero m raises GenericityError."""
    out = {}
    for c in datum.components:
        m = c.v * datum.nj - datum.vj * c.N
        if m == 0:
            raise GenericityError(
                f"component {c.id} has v/N = {datum.vj}/{datum.nj}, alpha = 0")
        out[c.id] = m
    return out


def alphas_from_numerical(datum):
    """Exponents alpha_i = v_i - (v_j/N_j) N_i, all required nonzero."""
    nj = datum.nj
    return {i: Fraction(m, nj) for i, m in _exponent_ints(datum).items()}


def build_config(datum):
    """The configuration on E_j induced by the numerical data (d = N_j).

    Each alpha_i is built from the integer m_i = alpha_i * N_j =
    v_i N_j - v_j N_i, and those integers go into the Config's exponents
    view, in id order, as Config.exponents would build it, so the
    stratum sum converts no alpha back.  Each call
    builds a new Config; residue_contribution, pole_report and
    zmot_from_surface share one through _induced_config instead."""
    ms = _exponent_ints(datum)
    nj = datum.nj
    curves = tuple(Curve(c.id, c.genus, c.self_int, Fraction(ms[c.id], nj),
                         c.trace)
                   for c in datum.components)
    seen = {}
    points = []
    for a, b in datum.points:
        points.append((a, b, seen.get((a, b), 0)))
        seen[(a, b)] = seen.get((a, b), 0) + 1
    cfg = Config(d=nj, ambient_hodge=datum.surface_hodge, curves=curves,
                 points=tuple(points))
    cfg.__dict__["exponents"] = {c.id: ms[c.id] for c in cfg.curves}
    return cfg


@lru_cache(maxsize=8)
def _induced(datum, surface_items):
    """build_config(datum); surface_items only keys the cache."""
    return build_config(datum)


def _induced_config(datum):
    """build_config(datum), built once for a run of calls on one datum.

    The cache key holds the class's terms in order besides the datum:
    equal classes can keep their terms in different orders, which the
    Config's strata classes keep and zmot_from_surface hands on in its
    ZMotDatum, so data equal up to that order must not share a Config.
    The stored ring elements do not need the key, as their numerators
    keep their keys ascending.  The cache is small: it serves the calls
    of one datum in a row, and the Config holds its derived views and
    its invariant alive while it is cached.  Nothing is kept on the
    datum, whose __dict__ holds only its fields, so once the cache is
    cleared the same datum object is computed afresh."""
    return _induced(datum, tuple(datum.surface_hodge.items()))


def _residue(datum):
    """(cfg, R): the induced configuration, checked, and its invariant.

    The Config is _induced_config's, so residue_contribution and
    pole_report on one datum build and sum it once, and the second
    validate reads the findings the first stored on it."""
    cfg = _induced_config(datum)
    rep = validate(cfg)
    if not rep.ok:
        raise DataError("numerical data is inconsistent:\n" + str(rep))
    return cfg, invariant_sum(cfg)


def residue_contribution(datum):
    """R for this E_j: the invariant of the induced configuration."""
    return _residue(datum)[1]


# ---- formal zeta-function side ----------------------------------------


class ZMotDatum(_Frozen):
    """Strata classes and numerical data of an ambient resolution.

    n, a positive int, is the ambient dimension minus one (2 for
    surfaces in threefolds);
    strata pairs a sorted id subset with the class of its open stratum;
    numerical maps each component id to its (N, v), a pair of positive
    ints, and must cover every id of strata.  The hash leaves numerical
    out; equality compares it too.
    """

    _fields = ("n", "strata", "numerical")

    def __init__(self, n, strata, numerical):
        if not _is_int(n) or n < 1:
            raise DataError(f"n must be a positive integer, got {n!r}")
        for i, data in numerical.items():
            if not (isinstance(data, tuple) and len(data) == 2):
                raise DataError(
                    f"component {i}: numerical data must be a pair (N, v)")
            N, v = data
            if not _is_int(N) or N < 1:
                raise DataError(f"component {i}: N must be a positive integer")
            if not _is_int(v) or v < 1:
                raise DataError(f"component {i}: v must be a positive integer")
        strata = tuple((tuple(sorted(ids)), h) for ids, h in strata)
        for ids, h in strata:
            for i in ids:
                if i not in numerical:
                    raise DataError(f"stratum id {i!r} has no numerical data")
            if not isinstance(h, HodgePoly):
                raise DataError("stratum classes must be HodgePoly")
        self.__dict__.update(n=n, strata=strata, numerical=numerical)

    def __hash__(self):
        return hash((self.n, self.strata))


def zmot_contribution(z, j):
    """The ZMotDatum of the strata of z that contain component j.

    They are the terms of E_j's contribution to the motivic zeta
    function; nothing is expanded, each keeps its class, and its
    (L-1)T^N / (L^v - T^N) factors are read from z.numerical.  When
    every stratum of z contains j, that datum is z itself.
    """
    if j not in z.numerical:
        raise DataError(f"unknown component {j!r}")
    through = tuple((ids, h) for ids, h in z.strata if j in ids)
    if not through:
        raise DataError(f"component {j!r} appears in no stratum")
    if len(through) == len(z.strata):
        return z
    return ZMotDatum(z.n, through, z.numerical)


def zmot_from_surface(datum, j="Ej"):
    """ZMotDatum of the strata touching one exceptional surface (n = 2).

    The strata are those of _induced_config's Config, as _residue's.
    Every one contains j, so zmot_contribution(result, j) is the
    result itself."""
    cfg = _induced_config(datum)
    if j in cfg.curve_map:
        raise DataError(f"id {j!r} collides with a component id")
    numerical = {c.id: (c.N, c.v) for c in datum.components}
    numerical[j] = (datum.nj, datum.vj)
    return ZMotDatum(n=2, strata=tuple(((j,) + ids, h)
                                       for ids, h in strata(cfg)),
                     numerical=numerical)


def residue_via_substitution(z, j, d=1):
    """Clear the j-factor denominator and substitute T = L^(v_j/N_j).

    z holds the strata of E_j's contribution (see zmot_contribution),
    every one containing j.  Works in the realization ring with
    denominator d * N_j, d a positive int.  Every factor with i != j
    collapses to (L-1)/(L^alpha_i - 1); the j-factor leaves
    (L-1) L^(v_j) behind, and the whole sum carries L^-(n+1).

    Each component's alpha_i * d * N_j is converted once per call, and
    the terms are summed by pvint.stratum_sum, as the induced
    configuration's invariant is: at d = 1 the strata of
    zmot_from_surface are that invariant's, so the second sum is a hit
    in stratum_sum's cache.  A zero sum is returned as it is; a nonzero
    one is multiplied once by the prefactor (L-1) L^(v_j) L^-(n+1).
    That stores what the three products in turn store: a power of w
    changes no divisibility by a (w^k - 1), and the w-powers stripped
    in one product or in three leave the same form.
    """
    if not _is_int(d) or d < 1:
        raise DataError(f"d must be a positive integer, got {d!r}")
    if not any(j in ids for ids, _ in z.strata):
        raise DataError(f"component {j!r} does not appear in the terms")
    nj, vj = z.numerical[j]
    d_eff = d * nj
    # alpha_i * d_eff, with alpha_i = v - (vj / nj) * N
    ex = {i: d * (v * nj - vj * N) for i, (N, v) in z.numerical.items()}
    parts = []
    for ids, h in z.strata:
        if j not in ids:
            raise DataError("every term must contain the component j")
        ms = tuple([ex[i] for i in ids if i != j])
        if not all(ms):
            i = next(i for i in ids if i != j and not ex[i])
            raise GenericityError(
                f"substitution pole: component {i} has v/N = {vj}/{nj}")
        parts.append((ms, h))
    total = stratum_sum(parts, (), d_eff)
    if total.is_zero():
        return total
    lm1 = lpow(1, d_eff) - from_int(1, d_eff)
    return total * (lm1 * lpow(vj, d_eff) * lpow(-(z.n + 1), d_eff))


# ---- verdicts ----------------------------------------------------------


def pole_report(datum):
    """Vanishing verdict for the candidate pole carried by this E_j.

    Expectation: creation by a point needs chi of the open part <= 0;
    creation by a rational curve additionally needs the divisor on E_j
    connected; creation by a non-rational curve always expects R = 0.
    A computed value against expectation is an error finding; data
    problems are reported as findings too, never raised.
    """
    rep = Report()
    try:
        cfg, R = _residue(datum)
    except (GenericityError, DataError) as exc:
        rep.add("error", "data", str(exc))
        return rep
    chi = cfg._chi
    conn = cfg._connected
    rep.add("info", "chi", f"chi of the open part of E_j: {chi}")
    rep.add("info", "connectivity",
            "divisor on E_j is connected" if conn
            else "divisor on E_j is disconnected")
    vanishes = R.is_zero()
    if datum.creation == "point":
        expected = chi <= 0
        rule = "point-creation rule"
        reason = "chi > 0"
    elif datum.creation == "rational_curve":
        expected = chi <= 0 and conn
        rule = "rational-curve rule"
        reason = "chi > 0" if chi > 0 else "divisor on E_j is disconnected"
    else:
        expected = True
        rule = "non-rational-curve rule"
        reason = ""
    if expected and vanishes:
        rep.add("info", "verdict", f"cancellation as predicted ({rule})")
    elif expected:
        rep.add("error", "verdict",
                f"expected vanishing by the {rule}, but R is nonzero")
    else:
        rep.add("info", "verdict", f"no expectation ({reason})")
    return rep


def triangle_datum():
    """Three lines in general position on the plane, N = (1, 1, 4)."""
    return SurfaceResolutionDatum(
        nj=2, vj=1, surface_hodge=HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1}),
        creation="point",
        components=(
            ResolutionComponent("D1", 0, 1, 1, 1),
            ResolutionComponent("D2", 0, 1, 1, 1),
            ResolutionComponent("D3", 0, 1, 4, 1),
        ),
        points=(("D1", "D2"), ("D1", "D3"), ("D2", "D3")),
    )


# ---- JSON serialization -----------------------------------------------


def dump_datum(datum):
    out = {
        "nj": datum.nj,
        "vj": datum.vj,
        "surface": _ambient_to_json(datum.surface_hodge),
        "creation": datum.creation,
        "components": [
            {
                "id": c.id,
                "genus": c.genus,
                "self": c.self_int,
                "N": c.N,
                "v": c.v,
                **({"trace": c.trace} if c.trace else {}),
            }
            for c in datum.components
        ],
        "points": [list(p) for p in datum.points],
    }
    if datum.creation == "nonrational_curve":
        out["creation_genus"] = datum.creation_genus
    return out


def load_datum(obj):
    try:
        if not isinstance(obj, dict):
            raise ConfigError("resolution datum must be an object")
        comps = [ResolutionComponent(id=c["id"], genus=c.get("genus", 0),
                                     self_int=c["self"], N=c["N"], v=c["v"],
                                     trace=c.get("trace", 0))
                 for c in obj.get("components", ())]
        return SurfaceResolutionDatum(
            nj=obj["nj"],
            vj=obj["vj"],
            surface_hodge=_ambient_from_json(obj.get("surface", {"kind": "plane"})),
            creation=obj.get("creation", "point"),
            components=comps,
            points=obj.get("points", ()),
            creation_genus=obj.get("creation_genus", 0),
        )
    except (ConfigError, DataError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad resolution datum: {exc}") from exc


def save_datum(datum, path):
    _write_json(dump_datum(datum), path)


def read_datum(path):
    return load_datum(_read_json(path))
