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
from .surface import (Curve, _Frozen, _curve_id, _curve_stratum,
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


def _stored_center(kind, a, b=None, index=0):
    """A center read off a Config's sorted storage: a curve id, or a
    stored (a, b, index) point.  Storage already guarantees what
    BlowupCenter checks, so its checks are skipped."""
    center = BlowupCenter.__new__(BlowupCenter)
    center.__dict__.update(kind=kind, a=a, b=b, index=index, new_id=None)
    return center


def at_point(a, b, index=0, new_id=None):
    return BlowupCenter("point", a, b, index, new_id)


def on_curve(a, new_id=None):
    return BlowupCenter("curve", a, new_id=new_id)


def free(new_id=None):
    return BlowupCenter("free", new_id=new_id)


def fresh_id(config, prefix="E"):
    """First unused id of the form prefix + number, number = 1, 2, ..."""
    cm = config.curve_map
    k = 1
    while f"{prefix}{k}" in cm:
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
    """The first index unused by a point of a and b, read from the
    pair's run of sorted points."""
    if b < a:
        a, b = b, a
    pts = config.points
    at = bisect_left(pts, (a, b))
    k = 0
    while at < len(pts) and pts[at][:2] == (a, b) and pts[at][2] == k:
        at += 1
        k += 1
    return k


def _shifted(c, step):
    """Curve c with its self-intersection changed by step."""
    return Curve(c.id, c.genus, c.self_int + step, c.alpha, c.count_trace)


def _blow_up_preconditions(config, center):
    """Check that config can be blown up at center, as blow_up and
    invariance_delta both need; returns (touched, new_id).

    config must pass validation and center must lie on it; the id of
    the new curve, given or fresh, must be unused and a curve id.
    touched holds the curves through the center, in id order, and
    new_id is the id of the exceptional curve.
    """
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("refusing to blow up an invalid configuration:\n"
                              + str(rep), rep)
    touched = _check_center(config, center)
    new_id = center.new_id or fresh_id(config)
    if new_id in config.curve_map:
        raise CenterError(f"id {new_id!r} is already in use")
    return touched, new_id


def blow_up(config, center):
    """Blow up one point; returns the transformed configuration.

    The ambient class gains uv.  Curves through the center lose 1 from
    their self-intersection and meet the new exceptional curve once.
    Adjunction defects and allowedness are preserved.

    config must be valid, and then so is the result: its findings are
    stored on it, not computed, so validating it costs nothing.  With T
    the curves through the center and E the new curve, they are two:
    - chi of the complement, chi + |T| - [point center] - 1 (uv adds 1,
      E is a P^1, the points change by |T| - [point center]), the
      change Config._moved makes to config's chi;
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

    The result is built by Config._moved from config's storage and
    views, and so are the views below that config holds: the candidate
    centers (a center of the point is gone, those of E and its points
    join) and the pattern table, where only the curves of T and E can
    change, since only their neighbours do.  A move thus costs what it
    touches, not the size of the configuration.
    """
    touched, new_id = _blow_up_preconditions(config, center)
    cm = config.curve_map
    # E: genus 0, self-intersection -1 and alpha_E by the sum rule
    e = Curve(new_id, 0, -1,
              sum((cm[i].alpha for i in touched), 0) + 2 - len(touched))
    out = (((center.a, center.b, center.index),) if center.kind == "point"
           else ())
    new_points = sorted((i, e.id, 0) if i < e.id else (e.id, i, 0)
                        for i in touched)
    after = config._moved(config.ambient_hodge + _UV,
                          [_shifted(cm[i], -1) for i in touched] + [e],
                          points_out=out, points_in=new_points)
    _inherit_findings(config, after, center.kind == "free")
    if "_centers" in config.__dict__:
        _carry_centers(config, after, out, new_points, e.id)
    if "_patterns" in config.__dict__:
        _carry_patterns(config, after, touched, e)
    return after


def _centers(config):
    """The on-divisor centers, as models.candidate_centers lists them:
    one per point, in storage order, then one per curve, in id order.
    Built once per Config and carried through blow_up."""
    centers = config.__dict__.get("_centers")
    if centers is None:
        centers = [_stored_center("point", a, b, k)
                   for a, b, k in config.points]
        centers += [_stored_center("curve", c.id) for c in config.curves]
        config.__dict__["_centers"] = centers
    return centers


def _carry_centers(config, after, out, new_points, new_id):
    """Store on after, config's blow-up, config's centers with those
    of the points out removed and those of the sorted points new_points
    and the curve new_id inserted."""
    centers = config.__dict__["_centers"]
    n = len(config.points)
    pts, curves = centers[:n], centers[n:]
    for p in out:
        del pts[bisect_left(config.points, p)]
    for p in new_points:        # ascending, so each lands at its place
        pts.insert(bisect_left(after.points, p), _stored_center("point", *p))
    curves.insert(bisect_left(after.curves, new_id, key=_curve_id),
                  _stored_center("curve", new_id))
    after.__dict__["_centers"] = pts + curves


def _contractible(config, curve_id):
    """blow_down's checks that curve_id can be contracted, shared with
    inverse_center; returns the curve's neighbours, in id order."""
    c = config.curve(curve_id)
    if c.genus != 0 or c.self_int != -1:
        raise ContractionError(f"{curve_id} is not a (-1)-curve")
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
    return nbs


def blow_down(config, curve_id):
    """Contract a (-1)-curve; exact inverse of blow_up.

    The curve must be rational with self-intersection -1, meet at most
    two others, each exactly once, and its exponent must match the sum
    rule for its neighbor pattern; anything else is an error rather than
    a silent fix-up.

    When config is valid and the curve E meets T, one or two curves,
    the result is valid too, and its findings are stored on it, not
    computed.  This reverses blow_up's algebra:
    - each curve i of T keeps its adjunction defect, which changes by
      alpha_i - (alpha_E - 1) + sum over j in T, j != i, of
      (alpha_j - 1) = sum over T of alpha + 2 - |T| - alpha_E = 0, by
      the sum rule; the other curves keep their neighbours, and E's
      defect leaves with it;
    - every alpha stays, so no multiple of 1/d is lost;
    - an alpha = 0 curve i of T keeps its count of points on curves
      with alpha != 1: with two neighbours it trades its point on E for
      one on the other, j, and alpha_E = alpha_j; with one it loses a
      point on E, and alpha_E = 1;
    - two alpha = 0 curves of T come to meet only if alpha_E = 0, a log
      pair config would already have;
    - chi becomes chi - |T| + [|T| = 2] + 1, the change Config._moved
      makes, and connectivity is config's: E joined the curves of T,
      which stay joined, directly or through E.
    An invalid config, or an E that meets no curve, whose contraction
    can leave the divisor connected or not, keeps a full revalidation.
    """
    nbs = _contractible(config, curve_id)
    pts = config.points
    # each neighbour meets E once, in the first point of their pair
    out = [pts[bisect_left(pts, (i, curve_id) if i < curve_id
                           else (curve_id, i))] for i in nbs]
    new_points = ()
    if len(nbs) == 2:
        a, b = nbs
        new_points = ((a, b, _next_index(config, a, b)),)
    cm = config.curve_map
    after = config._moved(config.ambient_hodge - _UV,
                          [_shifted(cm[i], 1) for i in nbs], gone=curve_id,
                          points_out=out, points_in=new_points)
    if nbs and validate(config).ok:
        _inherit_findings(config, after, False)
    return after


def inverse_center(config, curve_id):
    """The center whose blow-up blow_down(config, curve_id) undoes.

    Point references are expressed in the contracted configuration.
    A curve that blow_down refuses raises its ContractionError.
    """
    nbs = _contractible(config, curve_id)
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


def _patterns(config):
    """(table, ones): each alpha = 0 curve with a pattern, mapped to
    its _zero_curve_pattern, and the set of alpha = 1 curves.  Built
    once per Config and carried through blow_up."""
    patterns = config.__dict__.get("_patterns")
    if patterns is None:
        table = {}
        for c in config.curves:
            if c.alpha == 0:
                pattern = _zero_curve_pattern(config, c.id)
                if pattern is not None:
                    table[c.id] = pattern
        ones = {c.id for c in config.curves if c.alpha == 1}
        patterns = config.__dict__["_patterns"] = (table, ones)
    return patterns


def _carry_patterns(config, after, touched, e):
    """Store on after, config's blow-up with new curve e through the
    curves touched, config's patterns with the curves whose neighbours
    changed, those of touched and e, recomputed."""
    table, ones = config.__dict__["_patterns"]
    table = dict(table)
    for i in touched + (e.id,):
        table.pop(i, None)
        pattern = _zero_curve_pattern(after, i)
        if pattern is not None:
            table[i] = pattern
    if e.alpha == 1:
        ones = ones | {e.id}
    after.__dict__["_patterns"] = (table, ones)


def exceptional_alphas(config, center):
    """The (a, -a) pair driving a nonzero invariant change, or None."""
    _check_center(config, center)
    table, ones = _patterns(config)
    if center.kind == "curve":
        return table.get(center.a)
    if center.kind == "point":
        # the center must avoid the two special neighbors, so the other
        # branch through it has to be a unit curve
        a, b = center.a, center.b
        if a in table and b in ones:
            return table[a]
        if b in table and a in ones:
            return table[b]
    return None


def is_exceptional_center(config, center):
    """Whether blowing up this center changes the invariant."""
    return exceptional_alphas(config, center) is not None


def _exceptional_positions(config):
    """The positions in _centers(config) of the centers that
    exceptional_alphas accepts, ascending: the curve center of each
    curve in the pattern table, and each point that curve shares with
    an alpha = 1 neighbour.  Read from the pattern table, with the
    points and curves found by bisection, so the cost follows the
    patterns, not the size of the configuration."""
    table, ones = _patterns(config)
    pts = config.points
    skip = []
    for i in table:
        skip.append(len(pts) + bisect_left(config.curves, i, key=_curve_id))
        for j in config.neighbors[i]:
            if j in ones:
                pair = (i, j) if i < j else (j, i)
                at = bisect_left(pts, pair)
                while at < len(pts) and pts[at][:2] == pair:
                    skip.append(at)
                    at += 1
    skip.sort()
    return skip


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
    so a stratum counts only when all its curves have alpha != 0.  It
    takes the integer exponents m = alpha*d of config.exponents, and
    E's is the integer sum rule sum over T of m_i + (2 - |T|) * d.  A
    Config builds that table once, and blow_up and blow_down carry it
    to the Configs they build, converting only the curves they change.
    Once config has its table (and its findings, as validate needs), the
    work thus follows the number of curves through the center, not the
    size of the configuration.
    """
    touched, new_id = _blow_up_preconditions(config, center)
    d = config.d
    cm = config.curve_map
    ex = config.exponents
    ms = tuple(ex[i] for i in touched)
    me = sum(ms) + (2 - len(touched)) * d
    before, after, parted = [], [], set()
    if center.kind == "point":
        n = config.pair_counts[touched]
        before.append((ms, _point_class(n)))
        after.append((ms, _point_class(n - 1)))
        if n == 1:      # the pair's only point: the branches stop meeting
            parted = set(touched)
    elif center.kind == "curve":
        c = cm[center.a]
        n = config.points_per_curve[c.id]
        before.append((ms, _curve_stratum(c.genus, n)))
        after.append((ms, _curve_stratum(c.genus, n + 1)))
    old = stratum_terms(before, curve_data(config, touched), d)

    def m(i):
        return me if i == new_id else ex[i]

    after.append(((me,), _curve_stratum(0, len(touched))))
    after += [(tuple(m(j) for j in sorted((i, new_id))), _point_class(1))
              for i in touched]
    curves = [(ex[i], cm[i].self_int - 1,
               [m(j) for j in sorted(
                   set(config.neighbors[i]) - parted | {new_id})])
              for i in touched]
    curves.append((me, -1, ms))
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
    seen = {}
    points = []
    for i in crossings:
        k = seen.get(i, 0)
        points.append((i, new_id, k) if i < new_id else (new_id, i, k))
        seen[i] = k + 1
    return config._moved(config.ambient_hodge,
                         [Curve(new_id, genus, self_int, 1)],
                         points_in=points)
