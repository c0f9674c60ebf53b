"""Principal value invariants of a curve configuration.

The central quantity is a sum over the strata of the divisor: the open
stratum of each subset I of curves with nonzero exponent contributes its
class times a product of (L-1)/(L^alpha - 1) factors, and every curve
with exponent 0 contributes minus its self-intersection times the
factors of its neighbors.  All arithmetic is exact in the realization
ring; specializations to Euler characteristics and to point counts over
finite fields reuse the same stratum bookkeeping.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import ContextError, ExponentError, LogPoleError, ValidationError
from .motring import (HodgePoly, from_hodge, from_int, lfactor, lpow,
                      numeric_eval, ring_sum)
from .surface import curve_class, stratum_class, validate


@lru_cache(maxsize=None)
def invariant_sum(config):
    """The raw stratum sum, with no semantic checks.

    Callers normally go through e_invariant; this entry point exists for
    identities that hold formula-wise even on configurations that fail
    validation (the all-exponents-one partition identity, for one).

    Terms, in order: the open stratum; each curve with alpha != 0 (its
    open part times lfactor); each pair of such curves that meet, in id
    order; each alpha = 0 curve with nonzero self-intersection.  Curve
    and pair terms depend only on small integer signatures with
    m = alpha*d, so they come from caches keyed by those; the terms and
    the order of every product are those of the plain loop, so the
    stored result is too.  An alpha outside (1/d) Z raises
    ExponentError, an alpha = 0 neighbor of a counted alpha = 0 curve
    LogPoleError, as lfactor does.
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
    degree = dict.fromkeys(m, 0)
    for a, b, _ in config.points:
        if a in degree:
            degree[a] += 1
        if b in degree:
            degree[b] += 1
    terms = [from_hodge(stratum_class(config, ()), d)]
    for c in config.curves:
        if c.id in m:
            terms.append(_curve_term(c.genus, degree[c.id], m[c.id], d))
    for (a, b), n in config.pair_counts.items():
        if a in m and b in m:
            terms.append(_pair_term(n, m[a], m[b], d))
    for c in config.curves:
        if c.alpha != 0 or c.self_int == 0:
            continue
        t = from_int(-c.self_int, d)
        for j in config.neighbors[c.id]:
            t = t * lfactor(config.curve(j).alpha, d)
        terms.append(t)
    return ring_sum(terms, d)


@lru_cache(maxsize=None)
def _curve_term(genus, degree, m, d):
    """A genus-g curve minus its `degree` points, times lfactor(m/d)."""
    open_part = curve_class(genus) - HodgePoly.scalar(degree)
    return from_hodge(open_part, d) * lfactor(Fraction(m, d), d)


@lru_cache(maxsize=None)
def _pair_term(n, m_a, m_b, d):
    """n crossing points of two curves, times both lfactors."""
    return (from_int(n, d) * lfactor(Fraction(m_a, d), d)
            * lfactor(Fraction(m_b, d), d))


def e_invariant(config):
    """The motivic invariant of a validated configuration."""
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("configuration fails validation:\n" + str(rep), rep)
    return invariant_sum(config)


def pv_integral(config):
    """L^-2 times the invariant; only defined without logarithmic poles."""
    for c in config.curves:
        if c.alpha == 0:
            raise LogPoleError(
                f"logarithmic pole: curve {c.id} has alpha = 0")
    return e_invariant(config) * lpow(-2, config.d)


def e_euler(config):
    """Euler-characteristic specialization, computed by the direct formula.

    Each stratum contributes its topological Euler characteristic times
    the product of 1/alpha factors.  Agrees exactly with
    euler_realize(e_invariant(config)).
    """
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("configuration fails validation:\n" + str(rep), rep)
    live = [c for c in config.curves if c.alpha != 0]
    total = Fraction(stratum_class(config, ()).euler())
    for c in live:
        total += stratum_class(config, (c.id,)).euler() / c.alpha
    for i, ci in enumerate(live):
        for cj in live[i + 1:]:
            n = config.intersection(ci.id, cj.id)
            if n:
                total += Fraction(n) / (ci.alpha * cj.alpha)
    for c in config.curves:
        if c.alpha != 0 or c.self_int == 0:
            continue
        t = Fraction(-c.self_int)
        for j in config.neighbors[c.id]:
            t /= config.curve(j).alpha
        total += t
    return total


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
