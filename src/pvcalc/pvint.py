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
decides which strata count.  It works on the integer exponents
m = alpha*d, which Config.exponents converts once per configuration,
and takes plain data, a stratum as its exponents and class and a curve
as its exponent, self-intersection and neighbor exponents, so that the
after side of a blow-up is summed without building the blown-up
configuration.  Each stratum term comes from the _term cache, keyed
by its class and exponents; a miss builds it from the cached term of
its class and first exponent.  invariant_sum keeps its result on the
Config it sums, as validate keeps its findings, so it is summed once
per Config object and dropped with it; no cache hashes Configs.
"""

from functools import lru_cache

from .errors import ContextError, LogPoleError, ValidationError
from .motring import (HodgePoly, _lfactor_cached, _lfactor_exp, from_hodge,
                      from_int, lfactor, lpow, numeric_eval, ring_sum)
from .surface import strata, validate


def invariant_sum(config):
    """The raw stratum sum, with no semantic checks.

    Callers normally go through e_invariant; this entry point exists for
    identities that hold formula-wise even on configurations that fail
    validation (the all-exponents-one partition identity, for one).

    The terms are those stratum_terms builds for every stratum of
    strata() and every curve with exponent 0 (no other curve gives a
    term), in that order, so the stored result is that of the plain
    loop.  An alpha outside (1/d) Z raises the ExponentError of
    config.exponents.

    The result is kept on the Config, as validate keeps its findings,
    so a second call on the same Config (residue_contribution, then
    pole_report) reads it, and it lives as long as the Config.  An
    equal Config sums afresh: equal Configs can list the ambient
    class's terms in different orders, which the stored result keeps.
    """
    held = config.__dict__.get("_invariant")
    if held is None:
        ex = config.exponents
        held = config.__dict__["_invariant"] = ring_sum(stratum_terms(
            [(tuple(ex[i] for i in ids), h) for ids, h in strata(config)],
            curve_data(config, [i for i, m in ex.items() if not m]),
            config.d), config.d)
    return held


def curve_data(config, ids):
    """(m, self_int, neighbor exponents in id order) of each curve of
    ids, as stratum_terms takes them, with exponents read from
    config.exponents."""
    cm = config.curve_map
    nb = config.neighbors
    ex = config.exponents
    return [(ex[i], cm[i].self_int, [ex[j] for j in nb[i]]) for i in ids]


def stratum_terms(strata, curves, d):
    """The terms of the given strata and curves, in order, with
    denominator context d.

    Every exponent here is an integer m = alpha*d, as Config.exponents
    gives it.  strata holds (exponents, class) pairs: the exponents of
    the curves through a stratum, in id order, and its class.  A
    stratum counts when every one of its exponents is nonzero (the open
    stratum, with none, always does); its term is its class times
    lfactor(m/d) for each m, in order.  curves holds (m, self_int,
    neighbor exponents) triples, as curve_data gives them: each curve
    with m = 0 and nonzero self-intersection gives minus its
    self-intersection times the lfactor of each neighbor exponent, in
    order.  A zero neighbor exponent of a counted m = 0 curve raises
    LogPoleError, as lfactor does.
    """
    terms = [_term(tuple(h.items()), ms, d) for ms, h in strata if all(ms)]
    for m, self_int, nbs in curves:
        if m == 0 and self_int != 0:
            t = from_int(-self_int, d)
            for mj in nbs:
                t = t * _lfactor_exp(mj, d)
            terms.append(t)
    return terms


@lru_cache(maxsize=None)
def _term(items, ms, d):
    """from_hodge of the class with these ((eu, ev), coeff) items, times
    lfactor(m/d) for each m in ms, in order.  Keyed by the items in order,
    not by a HodgePoly: equal classes can store their terms in different
    orders, which from_hodge keeps, so they must not share an entry.

    A miss starts from the cached term of its prefix, the class alone
    when ms has one exponent and the class times its first lfactor when
    it has more, and does the remaining products in order.  That is the
    plain loop's sequence of operations, so the stored result is the
    loop's, and the cache also holds the class and one-exponent
    prefixes, shared by every stratum with the same class and first
    exponent.  The recursion is at most two calls deep, whatever
    len(ms)."""
    if not ms:
        return from_hodge(HodgePoly(dict(items)), d)
    head = 1 if len(ms) > 1 else 0
    t = _term(items, ms[:head], d)
    for m in ms[head:]:
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
