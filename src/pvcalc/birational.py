"""Blow-up and blow-down calculus on curve configurations.

A blow-up center is a point of the surface described combinatorially:
an intersection point of two configuration curves, a generic point of
one curve, or a point off the divisor.  The exceptional curve always
has genus 0 and self-intersection -1; its exponent follows the sum rule
alpha_E = (sum of exponents through the center) + (2 - #branches).

The invariant is unchanged by any blow-up except one pattern: a center
lying on a curve with exponent 0 whose two non-unit neighbors carry
opposite exponents a, -a with a not in {0, 1, -1}, the center away from
both.  For that pattern the change is the explicit nonzero element
(L-1)^2 / ((L^a - 1)(L^-a - 1)) + L.

invariance_delta computes that change locally, as the paper states it:
only the open stratum, the strata through the center, the new curve E
and its points, and the alpha = 0 terms of the curves through the
center change, so only their terms are summed.  It reads them from the
configuration and the blow-up rule and builds no blown-up
configuration; it checks its input with the same preconditions as
blow_up, in the same order.
"""

from bisect import bisect_left

from .errors import CenterError, ContractionError, ValidationError
from .motring import HodgePoly, _is_int, from_int, lfactor, lpow, ring_sum
from .pvint import curve_data, stratum_terms
from .surface import (Config, Curve, _Frozen, _curve_stratum,
                      _inherit_findings, _point_class, validate)

_UV = HodgePoly({(1, 1): 1})


class BlowupCenter(_Frozen):
    """Where to blow up: kind is "point", "curve" or "free".

    For "point", a and b name the two curves (stored with a < b) and
    index picks the intersection point among several; for "curve", a
    names the curve.  new_id, when given, names the exceptional curve.
    """

    _fields = ("kind", "a", "b", "index", "new_id")

    def __init__(self, kind, a=None, b=None, index=0, new_id=None):
        if kind not in ("point", "curve", "free"):
            raise CenterError(f"unknown center kind {kind!r}")
        if kind == "point":
            if not (a and b):
                raise CenterError("point center needs two curve ids")
            if a == b:
                raise CenterError("point center needs two distinct curves")
            if b < a:
                a, b = b, a
            if not _is_int(index) or index < 0:
                raise CenterError("point index must be a nonnegative integer")
        elif kind == "curve" and not a:
            raise CenterError("curve center needs a curve id")
        self.__dict__.update(kind=kind, a=a, b=b, index=index, new_id=new_id)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.a, self.b, self.index, self.new_id) ==
                (other.kind, other.a, other.b, other.index, other.new_id))

    def __hash__(self):
        return hash((self.kind, self.a, self.b, self.index, self.new_id))


def at_point(a, b, index=0, new_id=None):
    return BlowupCenter("point", a, b, index, new_id)


def on_curve(a, new_id=None):
    return BlowupCenter("curve", a, new_id=new_id)


def free(new_id=None):
    return BlowupCenter("free", new_id=new_id)


def fresh_id(config, prefix="E"):
    """First unused id of the form prefix + number."""
    used = set(config.curve_map)
    k = 1
    while f"{prefix}{k}" in used:
        k += 1
    return f"{prefix}{k}"


def _check_center(config, center):
    """Resolve the center against the configuration; returns its curves."""
    if center.kind == "free":
        return ()
    if center.a not in config.curve_map:
        raise CenterError(f"no curve with id {center.a!r}")
    if center.kind == "curve":
        return (center.a,)
    if center.b not in config.curve_map:
        raise CenterError(f"no curve with id {center.b!r}")
    pt = (center.a, center.b, center.index)
    pts = config.points         # sorted, so a lookup need not scan it
    at = bisect_left(pts, pt)
    if at == len(pts) or pts[at] != pt:
        raise CenterError(f"no intersection point {pt!r}")
    return (center.a, center.b)


def _next_index(config, a, b):
    if b < a:
        a, b = b, a
    used = {k for (x, y, k) in config.points if (x, y) == (a, b)}
    k = 0
    while k in used:
        k += 1
    return k


def _blow_up_preconditions(config, center):
    """Check that config can be blown up at center, as blow_up and
    invariance_delta both need; returns (touched, e).

    config must pass validation and center must lie on it; the id of
    the new curve, given or fresh, must be unused and a curve id.
    touched holds the curves through the center, in id order, and e is
    the exceptional curve: genus 0, self-intersection -1 and alpha_E by
    the sum rule.
    """
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("refusing to blow up an invalid configuration:\n"
                              + str(rep), rep)
    touched = _check_center(config, center)
    new_id = center.new_id or fresh_id(config)
    if new_id in config.curve_map:
        raise CenterError(f"id {new_id!r} is already in use")
    alpha = sum((config.curve(i).alpha for i in touched), 0) + 2 - len(touched)
    return touched, Curve(new_id, 0, -1, alpha)


def blow_up(config, center):
    """Blow up one point; returns the transformed configuration.

    The ambient class gains uv.  Curves through the center lose 1 from
    their self-intersection and meet the new exceptional curve once.
    Adjunction defects and allowedness are preserved.

    config must be valid, and then so is the result: its findings are
    stored on it, not computed, so validating it costs nothing.  With T
    the curves through the center and E the new curve, they are two:
    - chi of the complement, chi + |T| - [point center] - 1 (uv adds 1,
      E is a P^1, the points change by |T| - [point center]), counted
      by euler_complement, which builds no polynomial;
    - connectivity: a point or curve center keeps config's finding;
      at a free center E meets no curve, so the divisor is disconnected
      if config had curves and connected if it had none.
    No error can occur:
    - each curve i of T keeps its adjunction defect, which changes by
      -alpha_i - sum over j in T, j != i, of (alpha_j - 1)
      + (alpha_E - 1) = 0;
    - E has defect -alpha_E + sum over T of (alpha_i - 1) + 2 = 0;
    - alpha_E is a sum of multiples of 1/d and an integer;
    - E has genus 0 and at most two points, so an alpha_E = 0 curve
      meets at most two curves with alpha != 1;
    - an alpha = 0 curve of T keeps its count of points on curves with
      alpha != 1: at a point center it trades its point on the other
      branch for one on E, and alpha_E is that branch's alpha; at a
      curve center it gains one on E, and alpha_E = 1;
    - alpha_E = 0 next to an alpha = 0 curve of T needs the other
      branch to have alpha 0 too, a log pair config would already have.
    Curves away from T keep their neighbours and self-intersections.
    """
    touched, e = _blow_up_preconditions(config, center)
    curves = []
    for c in config.curves:
        if c.id in touched:
            c = Curve(c.id, c.genus, c.self_int - 1, c.alpha, c.count_trace)
        curves.append(c)
    curves.append(e)

    points = [p for p in config.points
              if not (center.kind == "point"
                      and p == (center.a, center.b, center.index))]
    for i in touched:
        points.append((i, e.id, 0))

    after = Config(d=config.d, ambient_hodge=config.ambient_hodge + _UV,
                   curves=tuple(curves), points=tuple(points))
    _inherit_findings(config, after, center.kind == "free")
    return after


def blow_down(config, curve_id):
    """Contract a (-1)-curve; exact inverse of blow_up.

    The curve must be rational with self-intersection -1, meet at most
    two others, each exactly once, and its exponent must match the sum
    rule for its neighbor pattern; anything else is an error rather than
    a silent fix-up.
    """
    c = config.curve(curve_id)
    if c.genus != 0:
        raise ContractionError(f"{curve_id} has genus {c.genus}, cannot contract")
    if c.self_int != -1:
        raise ContractionError(
            f"{curve_id} has self-intersection {c.self_int}, not -1")
    nbs = config.neighbors[curve_id]
    npts = config.points_per_curve[curve_id]
    if npts > 2 or npts != len(nbs):
        raise ContractionError(
            f"{curve_id} meets other curves in {npts} points, "
            "at most two simple crossings are contractible")
    expect = sum((config.curve(i).alpha for i in nbs), 0) + 2 - len(nbs)
    if c.alpha != expect:
        raise ContractionError(
            f"alpha of {curve_id} is {c.alpha}, the sum rule needs {expect}")

    curves = []
    for k in config.curves:
        if k.id == curve_id:
            continue
        if k.id in nbs:
            k = Curve(k.id, k.genus, k.self_int + 1, k.alpha, k.count_trace)
        curves.append(k)
    points = [p for p in config.points if curve_id not in (p[0], p[1])]
    if len(nbs) == 2:
        a, b = nbs
        points.append((a, b, _next_index(config, a, b)))
    return Config(d=config.d, ambient_hodge=config.ambient_hodge - _UV,
                  curves=tuple(curves), points=tuple(points))


def inverse_center(config, curve_id):
    """The center whose blow-up blow_down(config, curve_id) undoes.

    Point references are expressed in the contracted configuration.
    """
    c = config.curve(curve_id)
    if c.self_int != -1 or c.genus != 0:
        raise ContractionError(f"{curve_id} is not a (-1)-curve")
    nbs = config.neighbors[curve_id]
    if len(nbs) == 2:
        a, b = nbs
        return at_point(a, b, _next_index(config, a, b), new_id=curve_id)
    if len(nbs) == 1:
        return on_curve(nbs[0], new_id=curve_id)
    return free(new_id=curve_id)


def _zero_curve_pattern(config, i):
    """For a curve with alpha = 0: its two opposite non-unit neighbor
    exponents (a, -a) with a not in {0, 1, -1}, or None."""
    c = config.curve(i)
    if c.alpha != 0:
        return None
    special = [config.curve(j).alpha for j in config.neighbors[i]
               if config.curve(j).alpha != 1]
    if len(special) != 2:
        return None
    a1, a2 = special
    if a1 + a2 != 0 or a1 in (0, 1, -1):
        return None
    return (a1, a2)


def exceptional_alphas(config, center):
    """The (a, -a) pair driving a nonzero invariant change, or None."""
    _check_center(config, center)
    if center.kind == "curve":
        return _zero_curve_pattern(config, center.a)
    if center.kind == "point":
        ca, cb = config.curve(center.a), config.curve(center.b)
        # the center must avoid the two special neighbors, so the other
        # branch through it has to be a unit curve
        if ca.alpha == 0 and cb.alpha == 1:
            return _zero_curve_pattern(config, center.a)
        if cb.alpha == 0 and ca.alpha == 1:
            return _zero_curve_pattern(config, center.b)
    return None


def is_exceptional_center(config, center):
    """Whether blowing up this center changes the invariant."""
    return exceptional_alphas(config, center) is not None


def invariance_delta(config, center):
    """e_invariant(blow_up(config, center)) - e_invariant(config).

    Zero except for exceptional centers, where it equals
    lfactor(a) * lfactor(-a) + L for the pattern exponents (a, -a).

    config and center pass the checks blow_up makes, in its order and
    with its errors, but no blown-up configuration is built: blow_up's
    docstring shows that one would pass validation.  Neither invariant
    is summed: the delta is one ring_sum of after-minus-before terms
    over the strata the blow-up changes, each read from config and the
    blow-up rule.  With T the curves through the center and E the
    exceptional curve, these are
    - the open stratum: its class gains uv - [P^1] = -1 plus the points
      added minus the point removed;
    - the stratum of the center itself: a curve of a curve center gains
      a point, the pair of a point center loses one;
    - E minus its |T| points, and each new pair (i, E) of one point;
    - the alpha = 0 term of each curve of T and of E: a curve of T
      loses 1 from its self-intersection and gains E as a neighbor, and
      at a point center whose pair met once, the two branches no longer
      meet; E has self-intersection -1 and the curves of T as neighbors.
    pvint.stratum_terms builds these terms, as it builds invariant_sum's,
    so a stratum counts only when all its curves have alpha != 0.  The
    work thus follows the number of curves through the center, not the
    size of the configuration.
    """
    touched, e = _blow_up_preconditions(config, center)
    d = config.d
    cm = config.curve_map
    alphas = tuple(cm[i].alpha for i in touched)
    before, after, parted = [], [], set()
    if center.kind == "point":
        n = config.pair_counts[touched]
        before.append((alphas, _point_class(n)))
        after.append((alphas, _point_class(n - 1)))
        if n == 1:      # the pair's only point: the branches stop meeting
            parted = set(touched)
    elif center.kind == "curve":
        c = cm[center.a]
        n = config.points_per_curve[c.id]
        before.append((alphas, _curve_stratum(c.genus, n)))
        after.append((alphas, _curve_stratum(c.genus, n + 1)))
    old = stratum_terms(before, curve_data(config, touched), d)

    def alpha(i):
        return e.alpha if i == e.id else cm[i].alpha

    after.append(((e.alpha,), _curve_stratum(0, len(touched))))
    after += [(tuple(alpha(j) for j in sorted((i, e.id))), _point_class(1))
              for i in touched]
    curves = [(cm[i].alpha, cm[i].self_int - 1,
               [alpha(j) for j in sorted(
                   set(config.neighbors[i]) - parted | {e.id})])
              for i in touched]
    curves.append((e.alpha, -1, alphas))
    new = stratum_terms(after, curves, d)
    open_delta = from_int(len(touched) - (center.kind == "point") - 1, d)
    return ring_sum([open_delta] + new + [-t for t in old], d)


def exceptional_delta(a, d):
    """Closed form of the invariant change for the pattern (a, -a)."""
    return lfactor(a, d) * lfactor(-a, d) + lpow(1, d)


def add_unit_curve(config, genus, self_int, crossings):
    """Insert a curve with alpha = 1; the invariant does not change.

    crossings lists the ids of curves met transversally, with
    repetitions for multiple crossings.  The new curve must satisfy the
    adjunction identity; a wrong self_int is rejected.
    """
    new_id = fresh_id(config, "U")
    defect = self_int - (2 * genus - 2)
    for i in crossings:
        defect += config.curve(i).alpha - 1
    if defect != 0:
        raise ContractionError(
            f"unit curve with self-intersection {self_int} has "
            f"adjunction defect {defect}")
    curves = config.curves + (Curve(new_id, genus, self_int, 1),)
    points = list(config.points)
    seen = {}
    for i in crossings:
        points.append((i, new_id, seen.get(i, 0)))
        seen[i] = seen.get(i, 0) + 1
    return Config(d=config.d, ambient_hodge=config.ambient_hodge,
                  curves=curves, points=tuple(points))
