"""Principal value invariants of a curve configuration.

The central quantity is a sum over the strata of the divisor
(surface.strata): each stratum whose curves all have nonzero exponent
contributes its class times one (L-1)/(L^alpha - 1) factor per curve,
and every curve with exponent 0 contributes minus its self-intersection
times the factors of its neighbors.  All arithmetic is exact in the
realization ring; the Euler characteristic is the euler_realize of the
invariant, and the point-count specialization corrects it per curve.

stratum_terms is the one builder of these terms: invariant_sum applies
it to every stratum and curve, birational.invariance_delta to the
strata and curves a blow-up changes, before and after it.  It alone
decides which strata count; motring._as_exponent is the one conversion
of an alpha to its integer exponent alpha*d.  It takes plain data, a
stratum as its alphas and class and a curve as its alpha,
self-intersection and neighbor alphas, so that the after side of a
blow-up is summed without building the blown-up configuration.
"""

from functools import lru_cache

from .errors import ContextError, LogPoleError, ValidationError
from .motring import (HodgePoly, _as_exponent, _lfactor_cached, from_hodge,
                      from_int, lfactor, lpow, numeric_eval, ring_sum)
from .surface import strata, validate


@lru_cache(maxsize=8)
def invariant_sum(config):
    """The raw stratum sum, with no semantic checks.

    Callers normally go through e_invariant; this entry point exists for
    identities that hold formula-wise even on configurations that fail
    validation (the all-exponents-one partition identity, for one).

    The terms are those stratum_terms builds for every stratum of
    strata() and every curve, in that order, so the stored result is
    that of the plain loop.

    The cache is small on purpose: it serves callers that sum an equal
    Config twice in a row (residue_contribution, then pole_report),
    while an unbounded one would keep every Config summed alive.
    """
    cm = config.curve_map
    return ring_sum(stratum_terms(
        [(tuple(cm[i].alpha for i in ids), h) for ids, h in strata(config)],
        curve_data(config, [c.id for c in config.curves]), config.d),
        config.d)


def curve_data(config, ids):
    """(alpha, self_int, neighbor alphas in id order) of each curve of
    ids, as stratum_terms takes them."""
    cm = config.curve_map
    nb = config.neighbors
    return [(cm[i].alpha, cm[i].self_int, [cm[j].alpha for j in nb[i]])
            for i in ids]


def stratum_terms(strata, curves, d):
    """The terms of the given strata and curves, in order, with
    denominator context d.

    strata holds (alphas, class) pairs: the exponents of the curves
    through a stratum, in id order, and its class.  A stratum counts
    when every one of its alphas is nonzero (the open stratum, with no
    alphas, always does); its term is its class times lfactor(alpha)
    for each alpha, in order.  curves holds (alpha, self_int, neighbor
    alphas) triples, as curve_data gives them: each curve with alpha = 0
    and nonzero self-intersection gives minus its self-intersection
    times the lfactor of each neighbor alpha, in order.  An alpha
    outside (1/d) Z raises ExponentError, an alpha = 0 neighbor of a
    counted alpha = 0 curve LogPoleError, as lfactor does.
    """
    counted = [(h, tuple(_as_exponent(a, d) for a in alphas))
               for alphas, h in strata if all(alphas)]
    # every exponent is read before a term is built, so an alpha outside
    # (1/d) Z is reported ahead of a packed-key overflow in some term
    terms = [_term(tuple(h.items()), ms, d) for h, ms in counted]
    for alpha, self_int, nbs in curves:
        if alpha == 0 and self_int != 0:
            t = from_int(-self_int, d)
            for a in nbs:
                t = t * lfactor(a, d)
            terms.append(t)
    return terms


@lru_cache(maxsize=None)
def _term(items, ms, d):
    """from_hodge of the class with these ((eu, ev), coeff) items, times
    lfactor(m/d) for each m in ms, in order.  Keyed by the items in order,
    not by a HodgePoly: equal classes can store their terms in different
    orders, which from_hodge keeps, so they must not share an entry."""
    t = from_hodge(HodgePoly(dict(items)), d)
    for m in ms:
        t = t * _lfactor_cached(m, d)
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
