"""Principal value invariants of a curve configuration.

The central quantity is a sum over the strata of the divisor
(surface.strata): each stratum whose curves all have nonzero exponent
contributes its class times one (L-1)/(L^alpha - 1) factor per curve,
and every curve with exponent 0 contributes minus its self-intersection
times the factors of its neighbors.  All arithmetic is exact in the
realization ring; the Euler characteristic is the euler_realize of the
invariant, and the point-count specialization corrects it per curve.

stratum_terms builds these terms: birational.invariance_delta sums
those of the strata and curves a blow-up changes, before and after it.
stratum_sum gives the ring_sum of stratum_terms, counting the same
strata and curves, without building the terms: it packs each term's
unreduced numerator, groups them by denominator and normalizes the sum
once.  It hands a sum back to stratum_terms only in four cases: a
zero neighbor exponent, a key-limit guard, a numerator too long to
pack, and a nonzero sum with a class h and factor (w^k - 1) whose
one-exponent term _term(h, (k,), d) reduces.  As every stored numerator
keeps its keys ascending, the two routes store one form.  invariant_sum
and zeta.residue_via_substitution sum through stratum_sum.  Both work
on the integer exponents m = alpha*d, which Config.exponents converts
once per configuration, and take plain data, a stratum as its
exponents and class and a curve as its exponent, self-intersection and
neighbor exponents, so that the after side of a blow-up is summed
without building the blown-up configuration.  Each
stratum term comes from the _term cache, keyed by its class and
exponents; a miss builds it from the cached term of its class and
first exponent.  invariant_sum keeps its result on the Config it sums,
as validate keeps its findings, so it is summed once per Config object
and dropped with it; no cache hashes Configs.
"""

from functools import lru_cache

from . import _kernel as K
from .errors import ContextError, LogPoleError, ValidationError
from .motring import (HodgePoly, _cyclo, _lfactor_cached, _lfactor_exp,
                      _make, _packed_sum, _widen, from_hodge, from_int,
                      lfactor, lpow, numeric_eval, ring_sum)
from .surface import strata, validate


def invariant_sum(config):
    """The raw stratum sum, with no semantic checks.

    Callers normally go through e_invariant; this entry point exists for
    identities that hold formula-wise even on configurations that fail
    validation (the all-exponents-one partition identity, for one).

    The sum is stratum_sum's: the ring_sum of the terms stratum_terms
    builds for every stratum of strata() and every curve with exponent
    0 (no other curve gives a term), in that order, so the stored
    result is that of the plain loop.  An alpha outside (1/d) Z raises
    the ExponentError of config.exponents.

    The result is kept on the Config, as validate keeps its findings,
    so a second call on the same Config (residue_contribution, then
    pole_report) reads it, and it lives as long as the Config.  An
    equal Config sums afresh and stores the same form, whatever the
    order of its ambient class's terms.
    """
    held = config.__dict__.get("_invariant")
    if held is None:
        ex = config.exponents
        held = config.__dict__["_invariant"] = stratum_sum(
            [(tuple(map(ex.__getitem__, ids)), h)
             for ids, h in strata(config)],
            curve_data(config, [i for i, m in ex.items() if not m]),
            config.d)
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
    terms = [_term(h, ms, d) for ms, h in strata if all(ms)]
    for m, self_int, nbs in curves:
        if m == 0 and self_int != 0:
            t = from_int(-self_int, d)
            for mj in nbs:
                t = t * _lfactor_exp(mj, d)
            terms.append(t)
    return terms


def stratum_sum(strata, curves, d):
    """ring_sum(stratum_terms(strata, curves, d), d), in one packed pass
    with no per-term RingElem and no per-term trial division.

    An exponent m contributes (L-1)/(L^(m/d) - 1): with k = |m|, the
    numerator (w^d - 1) over (w^k - 1) when k does not divide d, the
    geometric sum of w^(ik), i < d/k, when it does, and a factor -w^k
    when m < 0.  So a term's unreduced numerator is its class times
    these, over the sorted k that do not divide d.  Terms are tallied
    by exponents and class object, and _tally_sum packs each numerator
    at w = 2^bits into the group of its denominator and sends the
    groups through ring_sum's packed tree (motring._packed_sum); the
    root is normalized once.

    The result is ring_sum's whenever the root is zero.  Otherwise it
    is ring_sum's when every term keeps its whole denominator, which
    the term path decides per class h and factor k: a term can lose a
    factor only if some _term(h, (k,), d) stores none, that is, if
    (w^k - 1) divides the class times (w^d - 1).  For in each u/v
    component every Phi_j that divides (w^d - 1) or a geometric sum has
    j | d, so the first division by a (w^k - 1) in _term's chain of
    products needs Phi_j to divide the class for each j | k with j not
    dividing d, and then (w^k - 1), a product of distinct Phi_j, divides
    the class times (w^d - 1).  When no term loses a factor, the groups
    and lcm are ring_sum's, and so is the root, packed or on kernel
    dicts as ring_sum's size rule picks; equal inputs store one form,
    as the stored keys ascend.  Four cases sum stratum_terms instead: a
    zero neighbor exponent (LogPoleError), a term or a root past a
    packed key's limit (ExponentError), a numerator longer than
    ring_sum's bound on the sparse root, and a nonzero sum with a class
    whose one-exponent term stores no factor.
    """
    tally, classes = {}, {}
    for ms, h in strata:
        if all(ms):
            key = ms, id(h)
            if key in tally:
                tally[key] += 1
            else:
                tally[key] = 1
                classes[id(h)] = h
    for m, self_int, nbs in curves:
        if m == 0 and self_int != 0:
            if not all(nbs):
                break           # the term path raises LogPoleError
            h = HodgePoly.scalar(-self_int)
            tally[tuple(nbs), id(h)] = 1
            classes[id(h)] = h
    else:
        got = _tally_sum(tuple(tally.items()), tuple(classes.values()), d)
        if got is not None:
            return got
    return ring_sum(stratum_terms(strata, curves, d), d)


@lru_cache(maxsize=16)
def _tally_sum(tally, classes, d):
    """stratum_sum of the terms tallied as ((exponents, id(class)),
    count), or None where stratum_sum must sum the terms themselves.

    The key holds the class objects, so an id in it names the same
    object for as long as the entry is cached: a hit is a sum of the
    same classes and exponents, as when a residue and its substitution
    sum one datum's strata.  The guards come first: a term whose weight
    could pass a packed key's limit, and a numerator longer than
    ring_sum's bound on the sparse root (see below), give None before
    anything is packed."""
    classes = {id(h): h for h in classes}
    folds, cyclos, terms = {}, set(), []
    bound, size, top = 0, 0, 0
    groups = {}
    for (ms, hid), count in tally:
        kind = _kind(ms, d)
        fold = folds.get(hid)
        if fold is None:
            fold = folds[hid] = _fold(classes[hid], d)
        weight, norm, monomials, high = fold
        if weight + 2 * kind[4] > K.KEY_MASK:
            return None
        if norm:
            cyclos.add(kind[0])
            terms.append((kind, monomials, count))
            # L1(class) * 2^len(cyclo) * prod d/k bounds the numerator's
            # coefficients, len(class) * 2^len(cyclo) * prod d/k its
            # monomials, and each factor of the lcm that it lacks at
            # most doubles either on the way to the root, as in ring_sum
            bound += count * norm * kind[5]
            size += count * len(monomials) * kind[5]
            if high + kind[6] > top:
                top = high + kind[6]
        else:
            # a zero class's term is zero, with no denominator
            groups[()] = {}
    union = {}
    for cyclo in cyclos:
        _widen(union, cyclo)
    nfactors = sum(union.values())
    if top >= size << nfactors:
        # ring_sum packs a root no longer than its bound on the sparse
        # root, which is below size << nfactors, and every numerator
        # fits the root unless its top terms cancel
        return None
    nbytes = ((bound << nfactors).bit_length() + 8) // 8
    bits = 8 * nbytes
    bases = {(0, ()): 1}
    for (cyclo, divs, shift, sign, _, _, _), monomials, count in terms:
        # the numerator's factors besides the class and -w^k, packed
        p = bases.get((len(cyclo), divs))
        if p is None:
            wd = (1 << bits * d) - 1
            p = wd ** len(cyclo)
            for k in divs:
                p *= wd // ((1 << bits * k) - 1)
            bases[len(cyclo), divs] = p
        p *= sign * count
        comps = groups.setdefault(cyclo, {})
        for t, coeff, c in monomials:
            comps[t] = comps.get(t, 0) + (coeff * p << bits * (c + shift))
    root = _packed_sum(groups, union, nbytes)
    if root is None or root and not all(
            _term(classes[hid], (k,), d).cyclo for (ms, hid), _ in tally
            for k in set(_kind(ms, d)[0]) if folds[hid][1]):
        return None
    return _make(d, root, 0, _cyclo(union))


@lru_cache(maxsize=4096)
def _kind(ms, d):
    """(cyclo, divs, shift, sign, reach, scale, degree) of a term with
    exponents ms: the sorted k = |m| that do not divide d and those
    that do, the sum of k over m < 0, (-1) to the number of them, the
    sum of d + k, the product of d/k over divs, and the w-degree of the
    numerator's factors besides the class."""
    cyclo, divs, shift, sign, reach, scale = [], [], 0, 1, 0, 1
    for m in ms:
        k = -m if m < 0 else m
        reach += d + k
        if d % k:
            cyclo.append(k)
        else:
            divs.append(k)
            scale *= d // k
        if m < 0:
            shift += k
            sign = -sign
    degree = d * len(ms) - sum(divs) + shift
    return (tuple(sorted(cyclo)), tuple(sorted(divs)), shift, sign, reach,
            scale, degree)


def _fold(h, d):
    """(weight, L1 norm, monomials, top w-exponent) of from_hodge(h, d):
    the largest 2*e_w + d*|e_u - e_v|, the sum of the absolute
    coefficients, (t, coeff, e_w) for each u^eu v^ev, with t = eu - ev
    and e_w = d*min(eu, ev), and the largest e_w."""
    monomials = [(eu - ev, coeff, d * min(eu, ev))
                 for (eu, ev), coeff in h.items()]
    return (max([2 * c + d * abs(t) for t, _, c in monomials], default=0),
            sum([abs(coeff) for _, coeff, _ in monomials]), monomials,
            max([c for _, _, c in monomials], default=0))


@lru_cache(maxsize=None)
def _term(h, ms, d):
    """from_hodge(h, d) times lfactor(m/d) for each m in ms, in order.
    Keyed by the class h itself: equal classes store one form, whatever
    the order of their terms, so they share an entry.

    A miss starts from the cached term of its prefix, the class alone
    when ms has one exponent and the class times its first lfactor when
    it has more, and does the remaining products in order.  That is the
    plain loop's sequence of operations, so the stored result is the
    loop's, and the cache also holds the class and one-exponent
    prefixes, shared by every stratum with the same class and first
    exponent.  The recursion is at most two calls deep, whatever
    len(ms)."""
    if not ms:
        return from_hodge(h, d)
    head = 1 if len(ms) > 1 else 0
    t = _term(h, ms[:head], d)
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
