"""Principal value invariants of a curve configuration.

The central quantity is a sum over the strata of the divisor
(surface.strata): each stratum whose curves all have nonzero exponent
contributes its class times one (L-1)/(L^alpha - 1) factor per curve,
and every curve with exponent 0 contributes minus its self-intersection
times the factors of its neighbors.  All arithmetic is exact in the
realization ring; the Euler characteristic is the euler_realize of the
invariant, and the point-count specialization corrects it per curve.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import ContextError, ExponentError, LogPoleError, ValidationError
from .motring import (HodgePoly, from_hodge, from_int, lfactor, lpow,
                      numeric_eval, ring_sum)
from .surface import strata, validate


@lru_cache(maxsize=8)
def invariant_sum(config):
    """The raw stratum sum, with no semantic checks.

    Callers normally go through e_invariant; this entry point exists for
    identities that hold formula-wise even on configurations that fail
    validation (the all-exponents-one partition identity, for one).

    Terms, in order: the open stratum; each other stratum of strata()
    whose curves all have alpha != 0, times their lfactors with integer
    exponents m = alpha*d (from _term); each alpha = 0 curve with
    nonzero self-intersection.  The terms and the order of every product
    are those of the plain loop, so the stored result is too.  An alpha
    outside (1/d) Z raises ExponentError, an alpha = 0 neighbor of a
    counted alpha = 0 curve LogPoleError, as lfactor does.

    The cache is small on purpose: it serves callers that sum an equal
    Config twice in a row (residue_contribution, then pole_report),
    while an unbounded one would keep every Config summed alive.
    """
    d = config.d
    m = {}
    for c in config.curves:
        if c.alpha:
            q, r = divmod(c.alpha.numerator * d, c.alpha.denominator)
            if r:
                raise ExponentError(
                    f"exponent {c.alpha} is not a multiple of 1/{d}")
            m[c.id] = q
    walk = strata(config)
    _, open_class = next(walk)
    terms = [from_hodge(open_class, d)]
    for ids, h in walk:
        ms = tuple(map(m.get, ids))
        if None not in ms:
            terms.append(_term(tuple(h.items()), ms, d))
    for c in config.curves:
        if c.alpha == 0 and c.self_int != 0:
            terms.append(_zero_curve_term(config, c))
    return ring_sum(terms, d)


def _zero_curve_term(config, c):
    """The term of a curve with alpha = 0: minus its self-intersection
    times the lfactor of each neighbor, in id order."""
    t = from_int(-c.self_int, config.d)
    for j in config.neighbors[c.id]:
        t = t * lfactor(config.curve(j).alpha, config.d)
    return t


@lru_cache(maxsize=None)
def _term(items, ms, d):
    """from_hodge of the class with these ((eu, ev), coeff) items, times
    lfactor(m/d) for each m in ms, in order.  Keyed by the items in order,
    not by a HodgePoly: equal classes can store their terms in different
    orders, which from_hodge keeps, so they must not share an entry."""
    t = from_hodge(HodgePoly(dict(items)), d)
    for m in ms:
        t = t * lfactor(Fraction(m, d), d)
    return t


def require_valid(config):
    """Raise ValidationError unless config passes validate."""
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("configuration fails validation:\n" + str(rep), rep)


def e_invariant(config):
    """The motivic invariant of a validated configuration."""
    require_valid(config)
    return invariant_sum(config)


def pv_integral(config):
    """L^-2 times the invariant; only defined without logarithmic poles."""
    for c in config.curves:
        if c.alpha == 0:
            raise LogPoleError(
                f"logarithmic pole: curve {c.id} has alpha = 0")
    return e_invariant(config) * lpow(-2, config.d)


def e_padic(config, q):
    """Point-count specialization, as a coefficient vector in Q[x]/(x^d - q).

    Curves of genus 0 count q + 1 points; positive genus counts
    q + 1 - trace (the curve's count_trace field).  The ambient count is
    the Hodge polynomial at (q, 1), so on all-rational configurations
    this agrees with numeric_eval of the motivic invariant.
    """
    if not isinstance(q, int) or q < 2:
        raise ContextError("q must be an integer >= 2")
    d = config.d
    base = e_invariant(config)
    L1 = lpow(1, d) + from_int(1, d)
    for c in config.curves:
        if c.genus == 0:
            continue
        # Hodge value (1-g)(q+1) swapped for the count q+1-trace
        corr = from_int(c.genus, d) * L1 - from_int(c.count_trace, d)
        if c.alpha != 0:
            base = base + corr * (lfactor(c.alpha, d) - from_int(1, d))
        else:
            base = base - corr
    return numeric_eval(base, q)
