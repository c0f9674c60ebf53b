"""Exact reference values computed with Fraction arithmetic alone.

Nothing here calls into pvcalc's ring or kernel.  A configuration is
read as plain data (denominator d, ambient Hodge terms, curves and
intersection points) and its stratum sum is evaluated at a rational
point w = t, where L = t^d, u = L and v = 1, or at the Euler limit
w -> 1.  Blow-ups are redone on the same plain data.  The workloads
compare the program's answers against these values outside each op's
timed interval.
"""

from fractions import Fraction
from typing import NamedTuple


class Shape(NamedTuple):
    """Plain data of one configuration."""

    d: int
    ambient: tuple   # (e_u, e_v, coeff) triples
    curves: tuple    # (id, genus, self_int, alpha) with alpha a Fraction
    points: tuple    # (a, b) pairs, one per intersection point


def shape_of(config):
    return Shape(
        config.d,
        tuple((eu, ev, c) for (eu, ev), c in config.ambient_hodge.items()),
        tuple((c.id, c.genus, c.self_int, Fraction(c.alpha))
              for c in config.curves),
        tuple((p[0], p[1]) for p in config.points))


def shape_of_datum(datum):
    """The configuration a resolution datum induces on E_j (d = N_j)."""
    ratio = Fraction(datum.vj, datum.nj)
    return Shape(
        datum.nj,
        tuple((eu, ev, c) for (eu, ev), c in datum.surface_hodge.items()),
        tuple((c.id, c.genus, c.self_int, c.v - ratio * c.N)
              for c in datum.components),
        tuple((a, b) for a, b in datum.points))


def _stratum_sum(shape, ambient, curve_class, lf):
    """The invariant's stratum sum with every class and factor supplied."""
    counts = {}
    on_curve = {c[0]: 0 for c in shape.curves}
    neighbors = {c[0]: set() for c in shape.curves}
    for a, b in shape.points:
        key = (a, b) if a < b else (b, a)
        counts[key] = counts.get(key, 0) + 1
        on_curve[a] += 1
        on_curve[b] += 1
        neighbors[a].add(b)
        neighbors[b].add(a)
    alpha = {c[0]: c[3] for c in shape.curves}
    open_part = ambient + len(shape.points)
    for _, genus, _, _ in shape.curves:
        open_part -= curve_class(genus)
    total = Fraction(open_part)
    live = [c for c in shape.curves if c[3] != 0]
    for cid, genus, _, al in live:
        total += (curve_class(genus) - on_curve[cid]) * lf(al)
    for (a, b), n in counts.items():
        if alpha[a] != 0 and alpha[b] != 0:
            total += n * lf(alpha[a]) * lf(alpha[b])
    for cid, _, self_int, al in shape.curves:
        if al != 0 or self_int == 0:
            continue
        part = Fraction(-self_int)
        for j in neighbors[cid]:
            part *= lf(alpha[j])
        total += part
    return total


def lfactor_at(alpha, d, t):
    """(L - 1) / (L^alpha - 1) at w = t."""
    m = alpha * d
    if m.denominator != 1 or m == 0:
        raise ValueError(f"exponent {alpha} is not a nonzero multiple of 1/{d}")
    t = Fraction(t)
    return (t ** d - 1) / (t ** m.numerator - 1)


def value_at(shape, t):
    """The invariant at w = t."""
    big_l = Fraction(t) ** shape.d
    ambient = sum(c * big_l ** eu for eu, _, c in shape.ambient)
    return _stratum_sum(shape, ambient, lambda g: (1 - g) * (big_l + 1),
                        lambda al: lfactor_at(al, shape.d, t))


def euler_value(shape):
    """The invariant's Euler specialization (L -> 1, lfactor(a) -> 1/a)."""
    ambient = sum(c for _, _, c in shape.ambient)
    return _stratum_sum(shape, ambient, lambda g: 2 - 2 * g,
                        lambda al: 1 / al)


def blow_up(shape, kind, a=None, b=None):
    """Blow up a point on plain data: "point" (a x b), "curve" (on a) or "free"."""
    touched = {"free": (), "curve": (a,), "point": (a, b)}[kind]
    new_id = "\x00new"
    alpha = sum((c[3] for c in shape.curves if c[0] in touched), Fraction(0))
    curves = tuple((cid, g, s - 1 if cid in touched else s, al)
                   for cid, g, s, al in shape.curves)
    curves += ((new_id, 0, -1, alpha + 2 - len(touched)),)
    points = list(shape.points)
    if kind == "point":
        for i, p in enumerate(points):
            if set(p) == {a, b}:
                del points[i]
                break
        else:
            raise ValueError(f"no intersection point of {a} and {b}")
    points += [(i, new_id) for i in touched]
    return Shape(shape.d, shape.ambient + ((1, 1, 1),), curves, tuple(points))


def exceptional_jump_at(a, d, t):
    """The closed form lfactor(a) * lfactor(-a) + L at w = t."""
    return lfactor_at(a, d, t) * lfactor_at(-a, d, t) + Fraction(t) ** d


def reduce_mod(poly, d, q):
    """A polynomial in w, {exponent: coeff}, as a vector in Q[x]/(x^d - q)."""
    vec = [Fraction(0)] * d
    for e, c in poly.items():
        vec[e % d] += c * Fraction(q) ** (e // d)
    return vec
