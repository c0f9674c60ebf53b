"""Curve configurations on smooth projective surfaces.

A configuration records the combinatorial shadow of a normal crossing
divisor on a surface: the ambient class (through its Hodge polynomial),
one entry per irreducible curve (genus, self-intersection, attached
rational exponent), and the set of intersection points.  Everything
downstream (invariants, blow-ups, residues) consumes this data only.

Curves meet transversally, two at a time, at distinct points, and two
curves may meet in several points; each point is listed once per
unordered pair, tagged with an index so that multiple intersections of
the same pair stay distinguishable.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
import json
from math import lcm
from operator import attrgetter
import re

from .errors import ConfigError, SchemaError
from .motring import (HodgePoly, _add_terms, _as_exponent, _hodge,
                      _is_int)


_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _as_fraction(a):
    """A Fraction, an int, or a "p" or "p/q" string of integers, as a
    Fraction.  Decimal and exponent literals are refused: Fraction
    expands "1e100000000" digit by digit.  int()'s digit limit refuses
    an overlong literal."""
    if isinstance(a, Fraction):
        return a
    if _is_int(a):
        return Fraction(a)
    if isinstance(a, str) and _RATIONAL.fullmatch(a):
        try:
            return Fraction(a)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational literal {a!r}") from exc
    raise ConfigError(f"cannot read {a!r} as a rational number p or p/q")


# ---- value types ------------------------------------------------------


class _Value:
    """Base of the package's value types; the mutable ones derive from
    it directly and are unhashable.

    A subclass names its fields in _fields.  Its values are equal when
    they are of the same class and their fields are equal; the repr is
    Name(field=value, ...).  _key, set once per class, reads the fields
    as a tuple (as the field itself when there is only one).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "_fields"):     # not _Frozen, which has none
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class _Frozen(_Value):
    """Base of the package's immutable value types: a subclass stores
    its fields through self.__dict__ in its own __init__, hashes as the
    tuple of its fields, and assigning or deleting an attribute raises
    AttributeError."""

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Curve(_Frozen):
    """One irreducible curve of the configuration.

    count_trace tweaks the point count of the genus > 0 Jacobian part
    under the counting specialization; it is 0 for every curve produced
    by the built-in constructions and only matters for e_padic.
    """

    _fields = ("id", "genus", "self_int", "alpha", "count_trace")

    def __init__(self, id, genus, self_int, alpha, count_trace=0):
        if not isinstance(id, str) or not id:
            raise ConfigError("curve id must be a nonempty string")
        if not _is_int(genus) or genus < 0:
            raise ConfigError(f"curve {id}: genus must be a nonnegative integer")
        if not _is_int(self_int):
            raise ConfigError(f"curve {id}: self-intersection must be an integer")
        alpha = _as_fraction(alpha)
        if not _is_int(count_trace):
            raise ConfigError(f"curve {id}: count_trace must be an integer")
        self.__dict__.update(id=id, genus=genus, self_int=self_int,
                             alpha=alpha, count_trace=count_trace)


class Config(_Frozen):
    """A curve configuration with exponents, in canonical sorted storage.

    d is the common denominator context: every alpha must be a multiple
    of 1/d (validate reports violations, construction does not).  Points
    are unordered pairs of distinct curve ids plus a small index.
    """

    _fields = ("d", "ambient_hodge", "curves", "points")

    def __init__(self, d, ambient_hodge, curves=(), points=()):
        """Check the arguments; store the curves sorted by id and the
        points as sorted canonical (a, b, index) triples."""
        if not _is_int(d) or d < 1:
            raise ConfigError("denominator context d must be a positive integer")
        if not isinstance(ambient_hodge, HodgePoly):
            raise ConfigError("ambient_hodge must be a HodgePoly")
        curves = list(curves)
        for c in curves:
            if not isinstance(c, Curve):
                raise ConfigError("curves must be Curve instances")
        curves = tuple(sorted(curves, key=_curve_id))
        ids = [c.id for c in curves]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate curve ids")
        idset = set(ids)
        seen = set()
        pts = []
        for p in points:
            a, b, k = self._read_point(p)
            if a not in idset or b not in idset:
                raise ConfigError(f"point ({a},{b}) references an unknown curve")
            if (a, b, k) in seen:
                raise ConfigError(f"duplicate intersection point ({a},{b},{k})")
            seen.add((a, b, k))
            pts.append((a, b, k))
        self.__dict__.update(d=d, ambient_hodge=ambient_hodge, curves=curves,
                             points=tuple(sorted(pts)))

    @staticmethod
    def _read_point(p):
        if not isinstance(p, (list, tuple)):
            raise ConfigError(f"point {p!r} must be a list of curve ids")
        if len(p) == 2:
            a, b = p
            k = 0
        elif len(p) == 3:
            a, b, k = p
        else:
            raise ConfigError(f"point {p!r} must be (a, b) or (a, b, index)")
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ConfigError(f"point {p!r}: curve ids must be strings")
        if a == b:
            raise ConfigError(f"point {p!r}: a curve cannot cross itself here")
        if not _is_int(k) or k < 0:
            raise ConfigError(f"point {p!r}: index must be a nonnegative integer")
        if b < a:
            a, b = b, a
        return a, b, k

    # ---- derived views ------------------------------------------------

    @cached_property
    def curve_map(self):
        return {c.id: c for c in self.curves}

    @cached_property
    def exponents(self):
        """id -> the integer alpha*d, in id order, built once per
        Config.  An alpha outside (1/d) Z raises ExponentError, naming
        the first such curve in id order."""
        d = self.d
        return {c.id: _as_exponent(c.alpha, d) for c in self.curves}

    @cached_property
    def neighbors(self):
        """id -> sorted tuple of ids met at least once (no multiplicity)."""
        nb = {c.id: set() for c in self.curves}
        for a, b, _ in self.points:
            nb[a].add(b)
            nb[b].add(a)
        return {i: tuple(sorted(s)) for i, s in nb.items()}

    @cached_property
    def pair_counts(self):
        """(a, b) with a < b  ->  number of intersection points."""
        cnt = {}
        for a, b, _ in self.points:
            cnt[(a, b)] = cnt.get((a, b), 0) + 1
        return cnt

    @cached_property
    def points_per_curve(self):
        """id -> number of intersection points on that curve."""
        cnt = dict.fromkeys(self.curve_map, 0)
        for a, b, _ in self.points:
            cnt[a] += 1
            cnt[b] += 1
        return cnt

    def intersection(self, i, j):
        """Intersection number of two distinct curves of the configuration."""
        if i == j:
            raise ConfigError("use self_int for a curve against itself")
        a, b = (i, j) if i < j else (j, i)
        return self.pair_counts.get((a, b), 0)

    def points_on(self, i):
        return tuple(p for p in self.points if i in (p[0], p[1]))

    def curve(self, i):
        try:
            return self.curve_map[i]
        except KeyError:
            raise ConfigError(f"no curve with id {i!r}") from None

    @cached_property
    def _findings(self):
        return _compute_findings(self)

    @cached_property
    def _chi(self):
        return euler_complement(self)

    @cached_property
    def _open(self):
        """The open stratum's class, as strata() yields it."""
        return _open_class(self)

    @cached_property
    def _connected(self):
        return is_connected(self)

    def _moved(self, ambient_hodge, curves=(), gone=None, points_out=(),
               points_in=()):
        """The Config self becomes when its ambient class is
        ambient_hodge, each curve of curves replaces self's curve of the
        same id or joins it, the curve gone leaves, the points of
        points_out leave and those of points_in join.

        The blow-up calculus builds its results here, from self's
        sorted storage, without Config's checks: the caller passes
        canonical (a, b, index) triples, points_out of self and
        points_in new to the result on its curves, and gone with all
        its points in points_out.  The curves and points that change
        are placed by bisection; the derived views are self's with
        local updates, in the key order a fresh build gives, the
        exponent table too when self has built it; chi, when self knows
        it, changes by the Euler numbers of what joins and leaves.  The
        open stratum's class and the connectivity are not carried: the
        new Config computes them when they are first read.  So
        the work follows what the move touches, apart from copying
        tuples and dicts and rebuilding a view that a new key joins
        other than at its end.
        """
        old = self.curve_map
        joining = sorted((c.id, c) for c in curves if c.id not in old)
        cm = _merged(old, joining)
        nb = _merged(self.neighbors, [(i, ()) for i, _ in joining])
        ppc = _merged(self.points_per_curve, [(i, 0) for i, _ in joining])
        chi = (ambient_hodge.euler() - self.ambient_hodge.euler()
               + len(points_in) - len(points_out))
        lst = list(self.curves)
        for c in curves:
            at = bisect_left(lst, c.id, key=_curve_id)
            if c.id in old:
                chi += 2 - 2 * old[c.id].genus
                lst[at] = c
            else:
                lst.insert(at, c)
            cm[c.id] = c
            chi -= 2 - 2 * c.genus
        pc = self.pair_counts
        meeting = {(a, b) for a, b, _ in points_in} - pc.keys()
        pc = _merged(pc, [(pair, 0) for pair in sorted(meeting)])
        pts = list(self.points)
        for p in points_in:
            pts.insert(bisect_left(pts, p), p)
            a, b, _ = p
            ppc[a] += 1
            ppc[b] += 1
            if not pc[a, b]:
                nb[a] = _with(nb[a], b)
                nb[b] = _with(nb[b], a)
            pc[a, b] += 1
        for p in points_out:
            del pts[bisect_left(pts, p)]
            a, b, _ = p
            ppc[a] -= 1
            ppc[b] -= 1
            pc[a, b] -= 1
            if not pc[a, b]:
                del pc[a, b]
                nb[a] = _without(nb[a], b)
                nb[b] = _without(nb[b], a)
        if gone is not None:
            chi += 2 - 2 * cm[gone].genus
            del lst[bisect_left(lst, gone, key=_curve_id)]
            del cm[gone], nb[gone], ppc[gone]
        new = Config.__new__(Config)
        new.__dict__.update(d=self.d, ambient_hodge=ambient_hodge,
                            curves=tuple(lst), points=tuple(pts),
                            curve_map=cm, neighbors=nb, pair_counts=pc,
                            points_per_curve=ppc)
        if "_chi" in self.__dict__:
            new.__dict__["_chi"] = self._chi + chi
        if "exponents" in self.__dict__:
            ex = _merged(self.exponents, [(i, 0) for i, _ in joining])
            ex.update((c.id, _as_exponent(c.alpha, self.d)) for c in curves)
            if gone is not None:
                del ex[gone]
            new.__dict__["exponents"] = ex
        return new


def _curve_id(c):
    return c.id


def _merged(d, items):
    """A copy of d with items, (key, value) pairs with new keys in
    ascending order, each inserted at its place in d's sorted key order.
    A dict keeps insertion order, so unless every new key sorts last the
    copy is rebuilt, in one pass however many keys join."""
    if not items or not d or next(reversed(d)) < items[0][0]:
        out = dict(d)
        out.update(items)
        return out
    keys = list(d)
    rest = iter(d.items())
    out = {}
    done = 0
    for key, value in items:
        at = bisect_left(keys, key)
        out.update(islice(rest, at - done))
        out[key] = value
        done = at
    out.update(rest)
    return out


def _with(ids, i):
    """The sorted tuple ids with i inserted."""
    at = bisect_left(ids, i)
    return ids[:at] + (i,) + ids[at:]


def _without(ids, i):
    """The sorted tuple ids with i removed."""
    at = bisect_left(ids, i)
    return ids[:at] + ids[at + 1:]


# ---- ambient surface classes ----------------------------------------


def curve_class(genus):
    """Hodge polynomial of a smooth projective curve of the given genus."""
    if not _is_int(genus) or genus < 0:
        raise ConfigError(f"genus must be a nonnegative integer, got {genus!r}")
    return HodgePoly({(1, 1): 1, (1, 0): -genus, (0, 1): -genus, (0, 0): 1})


def plane():
    """Hodge polynomial of the projective plane."""
    return HodgePoly({(2, 2): 1, (1, 1): 1, (0, 0): 1})


def ruled(genus):
    """Hodge polynomial of a ruled surface over a genus g curve."""
    return curve_class(0) * curve_class(genus)


# ---- numerical invariants --------------------------------------------


def euler_complement(config):
    """Topological Euler characteristic of the complement of the divisor:
    the Euler number of the open stratum's class, summed from the class
    helpers term by term, so that validate builds no polynomial.
    """
    chi = config.ambient_hodge.euler() + len(config.points)
    for c in config.curves:
        chi -= _curve_stratum(c.genus, 0).euler()
    return chi


def is_connected(config):
    """Whether the divisor (union of all curves) is connected.

    An empty divisor counts as disconnected; validate attaches a warning
    in that case so the convention is visible.
    """
    if not config.curves:
        return False
    ids = [c.id for c in config.curves]
    nb = config.neighbors
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for j in nb[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(ids)


def stratum_class(config, I):
    """Hodge polynomial of the locally closed stratum indexed by I.

    I empty: the ambient minus all curves.  I = {i}: the curve minus its
    points.  I = {i, j}: the class of their intersection (a count of
    points).  Larger I is impossible under normal crossings.
    """
    ids = tuple(I)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate ids in stratum index")
    for i in ids:
        config.curve(i)
    if len(ids) == 0:
        return config._open
    if len(ids) == 1:
        c = config.curve(ids[0])
        return _curve_stratum(c.genus, config.points_per_curve[c.id])
    if len(ids) == 2:
        return _point_class(config.intersection(ids[0], ids[1]))
    raise ConfigError("at most two curves pass through any point")


def strata(config):
    """Every nonempty stratum of the divisor as (ids, class), in order:
    the open stratum (); each curve minus its points (id,), in id order;
    each meeting pair (a, b) with its count of points, in pair_counts
    order.  The open stratum's class is the Config's _open view, built
    once per Config; curve and point classes are cached by their integer
    signatures, so equal signatures share one HodgePoly."""
    yield (), config._open
    npoints = config.points_per_curve
    for c in config.curves:
        yield (c.id,), _curve_stratum(c.genus, npoints[c.id])
    for pair, n in config.pair_counts.items():
        yield pair, _point_class(n)


def _open_class(config):
    """The ambient class minus each curve's class, plus the points:
    the terms, in order, of that chain of - and +, added into one dict."""
    h = dict(config.ambient_hodge.items())
    for c in config.curves:
        _add_terms(h, _curve_stratum(c.genus, 0).items(), -1)
    _add_terms(h, _point_class(len(config.points)).items(), 1)
    return _hodge(h)


@lru_cache(maxsize=None)
def _curve_stratum(genus, npoints):
    """A genus-g curve minus npoints points."""
    return curve_class(genus) - HodgePoly.scalar(npoints)


@lru_cache(maxsize=None)
def _point_class(n):
    return HodgePoly.scalar(n)


def _exponent_tally(config):
    """The integer data behind adjunction and allowedness, in one pass.

    With D the lcm of d and every alpha's denominator (D = d when all
    exponents lie in (1/d) Z), m_i = alpha_i * D is an integer and the
    adjunction identity of curve i reads
    m_i * s_i + sum over l of (m_l - D) * n_il == D * (2 g_i - 2).
    Returns (D, m, defect, special, log_pair): defect[i] is the left
    side minus the right, special[i] counts the points of an alpha = 0
    curve on curves with alpha != 1, and log_pair holds the alpha = 0
    curves meeting another alpha = 0 curve.
    """
    curves = config.curves
    scale = lcm(config.d, *(c.alpha.denominator for c in curves))
    m = {c.id: c.alpha.numerator * (scale // c.alpha.denominator)
         for c in curves}
    defect = {c.id: m[c.id] * c.self_int - scale * (2 * c.genus - 2)
              for c in curves}
    special = {}
    log_pair = set()
    for (a, b), n in config.pair_counts.items():
        ma, mb = m[a], m[b]
        defect[a] += (mb - scale) * n
        defect[b] += (ma - scale) * n
        if ma and mb:
            continue
        for i, mj in ((a, mb), (b, ma)):
            if m[i]:
                continue
            if mj == 0:
                log_pair.add(i)
            elif mj != scale:
                special[i] = special.get(i, 0) + n
    return scale, m, defect, special, log_pair


def adjunction_defect(config, i):
    """How far curve i is from the exponent adjunction identity.

    alpha_i * (C_i . C_i) + sum over the other curves of
    (alpha_l - 1) * (C_i . C_l) must equal 2 g_i - 2; returns the
    difference (0 means consistent).
    """
    config.curve(i)
    scale, _, defect, _, _ = _exponent_tally(config)
    return Fraction(defect[i], scale)


def is_allowed(config, i):
    """Allowedness of a curve with alpha = 0.

    Requires genus 0, no neighbor with alpha = 0, and at most two
    intersection points lying on curves with alpha distinct from 1.
    Curves with nonzero alpha are unconstrained (returns True).
    """
    c = config.curve(i)
    if c.alpha != 0:
        return True
    if c.genus != 0:
        return False
    _, _, _, special, log_pair = _exponent_tally(config)
    return i not in log_pair and special.get(i, 0) <= 2


# ---- validation -------------------------------------------------------


class Finding(_Frozen):
    """severity is "error", "warning" or "info"."""

    _fields = ("severity", "code", "message")

    def __init__(self, severity, code, message):
        self.__dict__.update(severity=severity, code=code, message=message)

    def __str__(self):
        return f"{self.severity} {self.code}: {self.message}"


class Report(_Value):
    """A mutable list of findings; unhashable.  findings defaults to a
    new empty list."""

    _fields = ("findings",)

    def __init__(self, findings=None):
        self.findings = [] if findings is None else findings

    @property
    def ok(self):
        return not any(f.severity == "error" for f in self.findings)

    def add(self, severity, code, message):
        self.findings.append(Finding(severity, code, message))

    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    def __str__(self):
        return "\n".join(str(f) for f in self.findings) if self.findings else "ok"


def validate(config):
    """Semantic checks on a structurally sound configuration.

    Errors: exponents outside (1/d) Z, adjunction failures, alpha = 0
    curves that are not allowed.  Info findings carry the Euler
    characteristic of the complement and the connectivity of the divisor.

    The findings are computed once per Config and kept on it; every
    call returns a fresh Report holding them, so a caller may change
    its report without changing the next one.
    """
    return Report(list(config._findings))


def _compute_findings(config):
    """validate's findings, as a tuple, from the integer tally; a
    Fraction is built only to word an adjunction error."""
    rep = Report()
    d = config.d
    curves = config.curves
    scale, m, defect, special, log_pair = _exponent_tally(config)
    for c in curves:
        if d % c.alpha.denominator:
            rep.add("error", "alpha-context",
                    f"alpha {c.alpha} of {c.id} is not a multiple of 1/{d}")
    for c in curves:
        if defect[c.id]:
            rep.add("error", "adjunction",
                    f"adjunction defect {Fraction(defect[c.id], scale)} "
                    f"on {c.id}")
    for c in curves:
        if m[c.id]:
            continue
        if c.genus != 0:
            rep.add("error", "allowed-genus",
                    f"curve {c.id} with alpha 0 must be rational (genus {c.genus})")
        elif c.id in log_pair:
            bad = next(j for j in config.neighbors[c.id] if m[j] == 0)
            rep.add("error", "allowed-log-neighbor",
                    f"curves {c.id} and {bad} both have alpha 0 and intersect")
        elif special.get(c.id, 0) > 2:
            rep.add("error", "allowed-points",
                    f"curve {c.id} with alpha 0 meets curves with alpha != 1 "
                    f"in {special[c.id]} points (at most 2)")
    return tuple(rep.findings) + _closing_findings(config, config._connected)


def _closing_findings(config, connected):
    """The two findings that end every validation: the Euler
    characteristic of config's complement, then whether its divisor is
    connected (read only when it has curves)."""
    chi = Finding("info", "chi", "euler characteristic of the open complement: "
                  f"{config._chi}")
    if not config.curves:
        return chi, Finding("warning", "connectivity",
                            "empty divisor counts as disconnected")
    return chi, Finding("info", "connectivity",
                        "divisor is connected" if connected
                        else "divisor is disconnected")


def _inherit_findings(config, after, free):
    """Store its findings on after, the blow-up or blow-down of the
    valid config made by _moved, without checking it: its chi, then
    config's connectivity finding, or after a blow-up at a free center
    that of E apart from config's curves.  birational.blow_up and
    birational.blow_down show that after has no other finding."""
    chi, connectivity = _closing_findings(after, not config.curves)
    if not free:
        connectivity = config._findings[-1]
    after.__dict__["_findings"] = (chi, connectivity)


# ---- JSON serialization -----------------------------------------------


def _ambient_to_json(h):
    """Encode a Hodge polynomial as plane/ruled plus blow-ups if possible."""
    diff = h - plane()
    b = diff.coeff(1, 1)
    if b >= 0 and diff == HodgePoly({(1, 1): b}):
        out = {"kind": "plane"}
        if b:
            out["blowups"] = b
        return out
    g = -h.coeff(1, 0)
    if g >= 0:
        diff = h - ruled(g)
        b = diff.coeff(1, 1)
        if b >= 0 and diff == HodgePoly({(1, 1): b}):
            out = {"kind": "ruled", "genus": g}
            if b:
                out["blowups"] = b
            return out
    return {"kind": "custom",
            "terms": [[eu, ev, c] for (eu, ev), c in sorted(h.items())]}


def _ambient_from_json(obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"ambient must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "plane":
        h = plane()
    elif kind == "ruled":
        h = ruled(obj.get("genus", 0))
    elif kind == "custom":
        terms = {}
        for eu, ev, c in obj["terms"]:
            if (eu, ev) in terms:
                raise ConfigError(f"ambient term ({eu}, {ev}) is repeated")
            terms[(eu, ev)] = c
        h = HodgePoly(terms)
    else:
        raise ConfigError(f"unknown ambient kind {kind!r}")
    b = obj.get("blowups", 0)
    if not _is_int(b) or b < 0:
        raise ConfigError(f"blowups must be a nonnegative integer, got {b!r}")
    return h + HodgePoly({(1, 1): b})


def dump_config(config):
    """Plain-data dict for a configuration; exact rationals as strings."""
    return {
        "d": config.d,
        "ambient": _ambient_to_json(config.ambient_hodge),
        "curves": [
            {
                "id": c.id,
                "genus": c.genus,
                "self_int": c.self_int,
                "alpha": str(c.alpha),
                **({"count_trace": c.count_trace} if c.count_trace else {}),
            }
            for c in config.curves
        ],
        "points": [list(p) for p in config.points],
    }


def load_config(obj, default_d=None):
    """Build a Config from plain data (inverse of dump_config).

    Only keys are mapped here: Curve, Config and HodgePoly check the
    values they hold.  Structural problems raise SchemaError so that
    callers reading user files can map them to an input failure
    uniformly.
    """
    try:
        if not isinstance(obj, dict):
            raise ConfigError("configuration document must be an object")
        if "d" in obj:
            d = obj["d"]
        elif default_d is not None:
            d = default_d
        else:
            raise ConfigError("missing denominator context d")
        ambient = _ambient_from_json(obj.get("ambient", {"kind": "plane"}))
        curves = [Curve(id=c["id"], genus=c.get("genus", 0),
                        self_int=c["self_int"], alpha=c["alpha"],
                        count_trace=c.get("count_trace", 0))
                  for c in obj.get("curves", ())]
        return Config(d=d, ambient_hodge=ambient, curves=curves,
                      points=obj.get("points", ()))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad configuration data: {exc}") from exc


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    """The JSON document in a file.  Text that is not UTF-8, not JSON or
    nested past the parser's recursion limit is malformed input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None


def save_config(config, path):
    _write_json(dump_config(config), path)


def read_config(path, default_d=None):
    return load_config(_read_json(path), default_d=default_d)
