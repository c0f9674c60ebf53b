"""Exact arithmetic in the realization ring of level d.

The ring is Z[u, v, w] / (w^d - uv), localized at w and at every
(w^k - 1).  Writing L for the class of the affine line, the generators
satisfy L = w^d, so w plays the role of L^(1/d) and u, v are the two
Hodge variables with uv = L.  Every class-like quantity in this package
(ambient surfaces, curves, strata) enters through its Hodge polynomial,
so equality verdicts here are verdicts about Hodge realizations.

Elements are stored as  num / (w^wpow * prod (w^k - 1))  with num a
polynomial in normal form (no monomial contains both u and v: uv pairs
are folded into w^d) and the denominator kept as data, never expanded.
Reduction is lazy: exact trial division of num by each stored factor
plus stripping common powers of w.  The ring is an integral domain
(w^d - uv is linear, hence irreducible, in u), so a difference over a
common denominator is zero exactly when the element is zero; no gcd
machinery is needed for an exact is_zero.

Every stored numerator keeps its keys ascending, so a stored element
does not depend on the order in which its terms were met: _normalize
sorts what it keeps.  The form is still not canonical, as a stored
(w^k - 1) may share a Phi_n factor with the numerator.

Sums (ring_sum, and so + and -) go over the lcm of the stored
denominators.  Terms that share a denominator are added directly; the
groups are combined in a balanced tree, each node lifting its two
children only to their own lcm.  Inner nodes are deliberately left
unreduced: the normal form is not canonical, so reducing part sums
could change the stored result, while the unreduced tree reaches
exactly the numerator of lifting every term to the full lcm and then
normalizes once.  The tree lifts Kronecker-packed numerators: each is
one int, the numerator evaluated at w = 2^bits, with bits taken from an
exact bound on every coefficient of the sum, so a lift by (w^k - 1) is
one shift and one subtraction however many terms it has.  There each
node's denominator is a bitmask over the ranks of the sum's factors,
one layer per multiplicity, so a node's lcm is a bitwise or and the
factors a child lacks are the bits the or adds.  A sum whose packed
root would hold more digits than its sparse root could hold monomials
lifts each group's kernel dict straight to the root instead, by the
bits of the same masks.  _packed_sum applies the same plan, size rule
and lifts to numerators that pvint's stratum sum packs itself, with no
RingElem per term.

A w-exponent must fit the c field of the kernel's packed keys, or it
would carry into the u/v field.  Constructors and sums check the
exponents they pack or lift; products stay safe because _normalize
keeps every stored numerator's weight 2*e_w + d*|e_u - e_v|, which adds
up under products, within that field.  A misfit raises ExponentError.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd, inf

from . import _kernel as K
from .errors import (
    ChiDomainError,
    ContextError,
    ExponentError,
    LogPoleError,
)

__all__ = [
    "HodgePoly", "RingElem", "zero", "one", "from_int", "from_hodge",
    "lpow", "lfactor", "is_zero", "ring_sum", "euler_realize",
    "numeric_eval", "render", "render_hodge", "legend", "parse_ring_elem",
]


def __getattr__(name):
    # the parser lives in pvcalc.parse, compiled only when it is asked for
    if name == "parse_ring_elem":
        from .parse import parse_ring_elem
        return parse_ring_elem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _is_int(x):
    """True for an int.  bool subclasses int but is never a valid count,
    index, exponent or coefficient here."""
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# Hodge polynomials


class HodgePoly:
    """Polynomial in the Hodge variables u, v with int coefficients.

    INPUT: a dict {(eu, ev): coeff} with nonnegative int exponents and
    int coefficients, or nothing for zero; anything else is a
    ValueError.  Zero coefficients are dropped; the other terms keep the
    dict's order.  Instances are immutable by convention; all operations
    return new objects.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif not isinstance(terms, dict):
            raise ValueError(f"HodgePoly needs a dict of terms, got {terms!r}")
        data = {}
        for key, coeff in terms.items():
            # exactly int, so bool is refused too
            if not (type(key) is tuple and len(key) == 2
                    and type(key[0]) is type(key[1]) is type(coeff) is int):
                raise ValueError(f"Hodge term {key!r}: {coeff!r} needs int "
                                 "exponents and an int coefficient")
            eu, ev = key
            if coeff:
                if eu < 0 or ev < 0:
                    raise ValueError("negative exponent in Hodge polynomial")
                data[(eu, ev)] = coeff
        self._terms = data
        self._hash = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def scalar(cls, n):
        return cls({(0, 0): n})

    def items(self):
        return self._terms.items()

    def coeff(self, eu, ev):
        return self._terms.get((eu, ev), 0)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if _is_int(other):
            other = HodgePoly.scalar(other)
        if not isinstance(other, HodgePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if _is_int(other):
            other = HodgePoly.scalar(other)
        if not isinstance(other, HodgePoly):
            return NotImplemented
        out = dict(self._terms)
        _add_terms(out, other._terms.items(), sign)
        return _hodge(out)

    def __neg__(self):
        return _hodge({k: -v for k, v in self._terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_int(other):
            if not other:
                return HodgePoly.zero()
            return _hodge({k: other * v for k, v in self._terms.items()})
        if not isinstance(other, HodgePoly):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return _hodge(out)

    __rmul__ = __mul__

    def evaluate(self, u, v):
        """Exact value at (u, v); accepts ints or Fractions."""
        total = 0
        for (eu, ev), coeff in self._terms.items():
            total += coeff * u ** eu * v ** ev
        return total

    def euler(self):
        """Evaluation at u = v = 1 (the topological Euler number)."""
        return sum(self._terms.values())

    def __str__(self):
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        parts = []
        for i, key in enumerate(keys):
            coeff = self._terms[key]
            frag = _uv_monomial(key[0], key[1], abs(coeff))
            if i == 0:
                parts.append(("-" if coeff < 0 else "") + frag)
            else:
                parts.append((" - " if coeff < 0 else " + ") + frag)
        return "".join(parts)

    def __repr__(self):
        return f"HodgePoly({self})"


def _hodge(terms):
    """The HodgePoly of a dict of nonzero int terms, which it keeps."""
    res = HodgePoly.__new__(HodgePoly)
    res._terms = terms
    res._hash = None
    return res


def _add_terms(out, items, sign):
    """Add sign times the ((eu, ev), coeff) items into the dict out, in
    place: a new key goes last and a key whose sum is 0 leaves."""
    for key, coeff in items:
        s = out.get(key, 0) + sign * coeff
        if s:
            out[key] = s
        else:
            del out[key]


def _uv_monomial(eu, ev, coeff):
    vars_ = []
    if eu:
        vars_.append("u" if eu == 1 else f"u^{eu}")
    if ev:
        vars_.append("v" if ev == 1 else f"v^{ev}")
    if not vars_:
        return str(coeff)
    if coeff != 1:
        vars_.insert(0, str(coeff))
    return "*".join(vars_)


# ---------------------------------------------------------------------------
# Ring elements


def _as_exponent(a, d):
    """a*d as an int, or raise."""
    f = a if isinstance(a, Fraction) else Fraction(a)
    m, r = divmod(f.numerator * d, f.denominator)
    if r:
        raise ExponentError(f"exponent {a} is not a multiple of 1/{d}")
    return m


def _check_context(d):
    """Raise unless d is a valid level: ValueError unless it is an int,
    ContextError if it is below 1."""
    if not _is_int(d):
        raise ValueError(f"the level d must be an int, got {d!r}")
    if d < 1:
        raise ContextError(f"invalid context d = {d}")


def _check_wdeg(c):
    """Raise unless a w-exponent fits the c field of a packed key; a
    larger one would carry into the u/v field and change the monomial."""
    if c > K.KEY_MASK:
        raise ExponentError(
            f"w-exponent {c} exceeds the packed-key limit 2^{K.KEY_SHIFT} - 1")


def _wdeg(num):
    """Largest w-exponent of a numerator (0 when empty)."""
    mask = K.KEY_MASK
    return max([key & mask for key in num], default=0)


def _weight(num, d):
    """Largest 2*e_w + d*|e_u - e_v| of a nonempty numerator.

    With uv = w^d this weight adds up under products, and it bounds
    twice the w-exponent of every monomial."""
    mask, shift = K.KEY_MASK, K.KEY_SHIFT
    return max([2 * (key & mask) + d * abs(key >> shift) for key in num])


def _normalize(d, num, wpow, cyclo):
    """Reduce stored data: trial-divide by the recorded cyclotomic
    factors and strip powers of w shared by numerator and denominator.

    The factors are sorted once and tried in one descending pass over
    that list, largest k first: once num is not divisible by (w^k - 1)
    it stays so after a division by a smaller factor, so the remaining
    copies of that k are kept untried.  The factors kept come out of
    the pass in descending order and are stored ascending, and so are
    the numerator's keys, whatever order the caller's dict had.

    The reduced numerator's weight must fit a key's c field: then the
    product of two stored elements, whose weight is at most the sum,
    cannot carry out of the c field."""
    if not num:
        return {}, 0, ()
    if cyclo:
        kept = []
        failed = 0          # the last k that did not divide; every k >= 1
        for k in sorted(cyclo, reverse=True):
            if k != failed:
                quo = K.pcyclo_div(num, k)
                if quo is not None:
                    num = quo
                    continue
                failed = k
            kept.append(k)
        kept.reverse()
        cyclo = tuple(kept)
    if wpow:
        s = min(wpow, K.pwmin(num))
        if s:
            num = K.pwdiv(num, s)
            wpow -= s
    weight = _weight(num, d)
    if weight > K.KEY_MASK:
        raise ExponentError(
            f"exponents too large for packed keys (weight {weight} "
            f"exceeds 2^{K.KEY_SHIFT} - 1)")
    return dict(sorted(num.items())), wpow, cyclo


def _store(x, d, num, wpow, cyclo):
    """Set the fields of a RingElem, which refuses plain assignment,
    through its slot descriptors (bound below the class)."""
    _set_d(x, d)
    _set_num(x, num)
    _set_wpow(x, wpow)
    _set_cyclo(x, cyclo)
    return x


def _make(d, num, wpow=0, cyclo=()):
    """The RingElem of data the ring built itself, normalized as
    RingElem(...) does but neither checked nor copied: num is a fresh
    kernel dict, wpow >= 0 and cyclo a tuple of factors k >= 1."""
    return _store(object.__new__(RingElem), d,
                  *_normalize(d, num, wpow, cyclo))


class RingElem:
    """One element of the level-d realization ring.

    Low-level constructor: takes the level d, a numerator dict (kernel
    encoding: int keys and int coefficients), the denominator w-power
    and the (w^k - 1) factor multiset, checks them, copies the dict
    without its zero coefficients and normalizes; the ring's own
    products, sums and constructors build through _make, which neither
    checks nor copies.  A value that is not an int, a bool included, a
    negative w-power or a factor k < 1 is a ValueError, and d < 1 a
    ContextError.  Prefer from_hodge / from_int / lpow / lfactor.
    Instances are immutable by convention.
    """

    __slots__ = ("d", "num", "wpow", "cyclo")

    def __init__(self, d, num, wpow=0, cyclo=()):
        _check_context(d)
        data = {}
        for key, coeff in dict(num).items():
            if not (_is_int(key) and _is_int(coeff)):
                raise ValueError(f"numerator term {key!r}: {coeff!r} needs "
                                 "an int key and an int coefficient")
            if coeff:
                data[key] = coeff
        cyclo = tuple(cyclo)
        if not (_is_int(wpow) and wpow >= 0
                and all(_is_int(k) and k >= 1 for k in cyclo)):
            raise ValueError("invalid denominator data")
        _store(self, d, *_normalize(d, data, wpow, cyclo))

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    # -- helpers

    def _check(self, other):
        if self.d != other.d:
            raise ContextError(f"mixed contexts d = {self.d} and d = {other.d}")

    def _coerce(self, other):
        if _is_int(other):
            return from_int(other, self.d)
        if isinstance(other, RingElem):
            self._check(other)
            return other
        return None

    def is_zero(self):
        return not self.num

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ring_sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        # a sign change keeps the stored form reduced: it changes no
        # divisibility, no w-power and no weight, so skip _normalize
        return _store(object.__new__(RingElem), self.d, K.pneg(self.num),
                      self.wpow, self.cyclo)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ring_sum([self, -other])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ring_sum([other, -self])

    def __mul__(self, other):
        # the ring's own products pass a RingElem of the same level,
        # which _coerce would return unchanged
        if other.__class__ is not RingElem or other.d != self.d:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _make(self.d, K.pmul(self.num, other.num, self.d),
                     self.wpow + other.wpow, self.cyclo + other.cyclo)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not _is_int(n) or n < 0:
            return NotImplemented
        out = one(self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"RingElem({render(self)!r}, d={self.d})"


_set_d = RingElem.d.__set__
_set_num = RingElem.num.__set__
_set_wpow = RingElem.wpow.__set__
_set_cyclo = RingElem.cyclo.__set__


def zero(d):
    return RingElem(d, {})


def one(d):
    return RingElem(d, {0: 1})


def from_int(n, d):
    """The integer n in the level-d ring; n must be an int (not a bool)."""
    if not _is_int(n):
        raise ValueError(f"from_int needs an int, got {n!r}")
    _check_context(d)
    return _make(d, {0: n} if n else {})


def from_hodge(h, d):
    """Embed a Hodge polynomial: u stays u, v stays v, uv pairs fold
    into w^d."""
    _check_context(d)
    num = {}
    for (eu, ev), coeff in h.items():
        m = min(eu, ev)
        _check_wdeg(d * m)
        key = K.mkkey(eu - ev, d * m)
        num[key] = num.get(key, 0) + coeff
    return _make(d, {k: v for k, v in num.items() if v})


def lpow(a, d):
    """L^a = w^(a*d); a may be a negative or fractional exponent as
    long as a*d is an integer."""
    _check_context(d)
    m = _as_exponent(a, d)
    _check_wdeg(abs(m))
    if m >= 0:
        return RingElem(d, {K.mkkey(0, m): 1})
    return RingElem(d, {0: 1}, wpow=-m)


@lru_cache(maxsize=None)
def _lfactor_cached(m, d):
    # (L - 1) / (L^(m/d) - 1) with m = a*d != 0
    _check_wdeg(d + abs(m))
    _check_context(d)
    top = {K.mkkey(0, d): 1, 0: -1}
    if m > 0:
        return _make(d, top, cyclo=(m,))
    # (w^m - 1) with m < 0 equals -(w^|m| - 1) / w^|m|
    num = K.pneg(K.pshift(top, -m))
    return _make(d, num, cyclo=(-m,))


def _lfactor_exp(m, d):
    """lfactor of the exponent m/d, given as the integer m."""
    if m == 0:
        raise LogPoleError("lfactor(0): logarithmic pole in the first sum")
    return _lfactor_cached(m, d)


def lfactor(a, d):
    """(L - 1) / (L^a - 1).  A zero exponent is a logarithmic pole."""
    _check_context(d)
    return _lfactor_exp(_as_exponent(a, d), d)


def is_zero(x):
    return x.is_zero()


def _cyclo(counts):
    """The sorted factor tuple of {k: multiplicity} counts."""
    cy = []
    for k in sorted(counts):
        cy.extend([k] * counts[k])
    return tuple(cy)


def _packed_tree(nodes, ks, bits):
    """The root numerator of (wpow, mask, packed numerator) nodes,
    combined pairwise in a balanced tree: a node's denominator mask is
    the | of its children's, and each child is lifted by the factors of
    its bits beyond its own (see klift) and added."""
    lift = K.klift
    while len(nodes) > 1:
        paired = []
        for (wa, ma, xa), (wb, mb, xb) in zip(nodes[::2], nodes[1::2]):
            w, m = max(wa, wb), ma | mb
            paired.append((w, m, lift(xa, w - wa, m & ~ma, ks, bits)
                           + lift(xb, w - wb, m & ~mb, ks, bits)))
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    return nodes[0][2]


def _masks(nodes, union):
    """The (wpow, factors, numerator) nodes with each sorted factor
    tuple replaced by a bitmask, and the factor of each bit.

    Factor i of union, in its order, is bit i of layer 0; with F
    factors, layer j (bits j*F to j*F + F - 1) holds the factors of
    multiplicity above j.  So the | of two masks is their lcm, and the
    bits of one mask beyond another's are the factors, with
    multiplicity, that it has beyond the other.  Ranks index the bits,
    not the factors, so a huge k costs one bit."""
    nf = len(union)
    bit = {k: 1 << i for i, k in enumerate(union)}
    ks = list(union) * max(union.values(), default=0)
    out = []
    for wpow, cyclo, x in nodes:
        mask = prev = 0
        for k in cyclo:
            # a repeated factor takes the next layer's bit
            b = b << nf if k == prev else bit[k]
            prev = k
            mask |= b
        out.append((wpow, mask, x))
    return out, ks


def _lift_and_add(groups):
    """(w-power, factor counts, numerator) of the root of a sum of two
    or more groups, on one packed int each or on kernel dicts.

    One pass over the groups, in denominator order, gathers the root's
    w-power and lcm, and each nonempty group's top w-degree beyond its
    own denominator's degree and its u/v components.  The root's degree
    then gives every group's degree at the root, and so the guard and
    the size rule of ring_sum, before any bitmask denominator is
    built."""
    mask, shift = K.KEY_MASK, K.KEY_SHIFT
    nodes, plan, nums = [], [], []
    wp, union = 0, {}
    excess = dmax = tmax = -inf
    tmin = inf
    for (wpow, cyclo), num in sorted(groups.items()):
        _widen(union, cyclo)
        if wpow > wp:
            wp = wpow
        nodes.append((wpow, cyclo, num))
        deg = -wpow - sum(cyclo)
        if num:
            hi = max(num)
            tlo, thi = min(num) >> shift, hi >> shift
            # keys order by u/v exponent first, so with one component
            # the largest key has the largest w-exponent
            deg += hi & mask if tlo == thi else _wdeg(num)
            plan.append((deg, len(cyclo), len(num), tlo, thi))
            nums.append((len(cyclo), num))
            if deg > dmax:
                dmax = deg
            if tlo < tmin:
                tmin = tlo
            if thi > tmax:
                tmax = thi
        if deg > excess:
            excess = deg
    top = wp + sum(k * mult for k, mult in union.items())
    if top + excess > mask:
        # a numerator lifted to the root gains the degree its own
        # denominator lacks: raise for the first group, in the order
        # the terms gave, whose lift would not fit a packed key,
        # before anything is lifted or packed
        for (wpow, cyclo), num in groups.items():
            _check_wdeg(top - wpow - sum(cyclo) + _wdeg(num))
    if not plan:
        return wp, union, {}
    width = top + dmax + 1
    if not _packs(plan, union, top, width * (tmax - tmin + 1)):
        return wp, union, _dict_root(nodes, union)
    nfactors = sum(union.values())
    bound = sum(sum(map(abs, num.values())) << nfactors - r
                for r, num in nums)
    nbytes = (bound.bit_length() + 8) // 8
    packed = [(wpow, cyclo, K.kpack(num, nbytes, width, tmin))
              for wpow, cyclo, num in nodes]
    return wp, union, _packed_root(packed, union, nbytes, width, tmin)


def _widen(union, cyclo):
    """Raise the {k: multiplicity} lcm union, in place, to cover the
    sorted factor tuple cyclo, whose copies of a factor are adjacent."""
    prev = mult = 0
    for k in cyclo:
        mult = mult + 1 if k == prev else 1
        prev = k
        if mult > union.get(k, 0):
            union[k] = mult


def _packs(plan, union, top, digits):
    """ring_sum's size rule: True when a packed root of this many
    digits is no larger than the bound on the sparse root, summed over
    the (degree at the root beyond top, factor count, monomial count,
    lowest and highest u/v exponent) of each nonempty group in plan."""
    nfactors = sum(union.values())
    sparse = 0
    for deg, r, n, tlo, thi in plan:
        sparse += min(n << nfactors - r, (top + deg + 1) * (thi - tlo + 1))
    return digits <= sparse


def _packed_root(nodes, union, nbytes, width, tmin):
    """The root numerator, keys ascending, of (wpow, factors, packed
    numerator) nodes whose lcm is union, by the packed tree."""
    packed, ks = _masks(nodes, union)
    return K.kunpack(_packed_tree(packed, ks, 8 * nbytes), nbytes, width,
                     tmin)


def _dict_root(nodes, union):
    """The root numerator of (wpow, factors, kernel dict) nodes whose
    lcm is union: each dict lifted straight to the root, by w to the
    w-power it lacks and by the factors of the bits its mask lacks (see
    _masks), and added in."""
    packed, ks = _masks(nodes, union)
    wp = full = 0
    for wpow, mask, _ in packed:
        wp = max(wp, wpow)
        full |= mask
    root = {}
    for wpow, mask, num in packed:
        if num:
            num = K.pshift(num, wp - wpow)
            lack = full & ~mask
            while lack:
                low = lack & -lack
                num = K.pcyclo_mul(num, ks[low.bit_length() - 1])
                lack ^= low
            _add_terms(root, num.items(), 1)
    return root


def _packed_sum(groups, union, nbytes):
    """The root numerator of the ring_sum of terms with no w-power given
    as packed groups, or None where ring_sum's guard would raise.

    groups maps each sorted factor tuple to the summed numerator of its
    terms as {t: x}, x the u/v component t packed from c = 0 at
    nbytes-byte digits, and union is the lcm of the tuples.  Every
    coefficient of these components and of the root must be below
    2^(8*nbytes - 1) in absolute value.  The plan, the guard and the
    size rule are _lift_and_add's, read from the components: a nonzero
    component's top digit is its bit length over the digit size, as in
    kunpack.  A sum that the rule keeps on dicts is unpacked and lifted
    as ring_sum lifts it."""
    bits = 8 * nbytes
    top = sum(k * mult for k, mult in union.items())
    nfactors = sum(union.values())
    plan = []
    excess = dmax = tmax = -inf
    tmin = inf
    for cyclo, comps in groups.items():
        deg = -sum(cyclo)
        ts = [t for t, x in comps.items() if x]
        if ts:
            deg += max([abs(comps[t]).bit_length() for t in ts]) // bits
            tlo, thi = min(ts), max(ts)
            # the rule takes the least of n << (nfactors - r) and the
            # dense count, which n = 1 already reaches or passes
            n = 1
            if 1 << nfactors - len(cyclo) < (top + deg + 1) * (thi - tlo + 1):
                n = sum([K.kcount(comps[t], nbytes) for t in ts])
            plan.append((deg, len(cyclo), n, tlo, thi))
            if deg > dmax:
                dmax = deg
            if tlo < tmin:
                tmin = tlo
            if thi > tmax:
                tmax = thi
        if deg > excess:
            excess = deg
    if top + excess > K.KEY_MASK:
        return None
    if not plan:
        return {}
    # in denominator order, as _lift_and_add's, so that the tree pairs
    # groups whose denominators are alike
    groups = sorted(groups.items())
    width = top + dmax + 1
    if not _packs(plan, union, top, width * (tmax - tmin + 1)):
        return _dict_root([(0, cyclo, _unpacked(comps, nbytes))
                           for cyclo, comps in groups], union)
    nodes = [(0, cyclo, sum([x << bits * width * (t - tmin)
                             for t, x in comps.items() if x]))
             for cyclo, comps in groups]
    return _packed_root(nodes, union, nbytes, width, tmin)


def _unpacked(comps, nbytes):
    """The kernel dict of {t: x} packed components, as _packed_sum
    takes them."""
    num = {}
    for t, x in comps.items():
        num.update((c + (t << K.KEY_SHIFT), v) for c, v in
                   K.kunpack(x, nbytes, K.KEY_MASK + 1, 0).items())
    return num


def ring_sum(terms, d=None):
    """Sum over one common denominator (per-factor max multiplicity,
    i.e. an lcm of the stored denominators).

    Terms with the same stored denominator are added first, with no
    multiplication.  The groups, ordered by denominator so that similar
    ones sit side by side, are then combined pairwise in a balanced
    tree: each node lifts its two children to their own lcm and adds
    them, so a numerator is only multiplied by the factors that the
    other side brings in, while it is still small.  Inner nodes are not
    reduced; the one normalization happens at the root.  The root's
    numerator and denominator are therefore exactly those of lifting
    every term straight to the full lcm, and as the stored numerator
    keeps its keys ascending, the stored result does not depend on the
    order of the terms.

    The tree runs on Kronecker-packed numerators (see the kernel): each
    numerator is one int, with a block of `width` base-2^bits digits per
    u/v component, width being one more than the largest w-exponent any
    numerator reaches at the root.  A lift is then one shift, and one
    shift and one subtraction per (w^k - 1), of that int, and adding
    two numerators adds two ints.  With R factors in the root lcm and
    r_g in group g's denominator, every coefficient on the way to the
    root is at most S = sum_g L1(num_g) * 2^(R - r_g), since a lift by
    one (w^k - 1) at most doubles the L1 norm; the digits get the
    fewest whole bytes with S < 2^(bits - 1), so the root's digits are
    its coefficients.  The packed root has width digits for each
    component from the lowest u/v exponent to the highest.  Group g,
    lifted to the root, has at most len(num_g) * 2^(R - r_g) monomials,
    and at most one per w-exponent up to its own top degree in each of
    its components; the sum of these bounds bounds the sparse root.  A
    sum whose packed root would be larger lifts each group's kernel dict
    straight to the root instead (a huge (w^k - 1) next to small
    numerators, say).  A sum of one group lifts nothing.  All give the
    same root, and every guard runs before anything is lifted.

    A node's denominator is its w-power and a bitmask of its factors in
    layers (see _masks): its lcm is one |, and a numerator is lifted by
    one (w^k - 1) for each bit of lcm & ~own, one shift and one
    subtraction on the packed path and one pcyclo_mul on kernel dicts.
    """
    terms = list(terms)
    if not terms:
        if d is None:
            raise ContextError("empty sum needs an explicit d")
        return zero(d)
    d0 = terms[0].d
    for t in terms:
        if t.d != d0:
            raise ContextError(f"mixed contexts d = {d0} and d = {t.d}")
    if d is not None and d != d0:
        raise ContextError(f"mixed contexts d = {d} and d = {d0}")
    if len(terms) == 1:
        return terms[0]
    groups = {}
    for t in terms:
        key = (t.wpow, t.cyclo)
        groups[key] = K.padd(groups[key], t.num) if key in groups else t.num
    if len(groups) == 1:
        # nothing to lift: the numerators already share one denominator
        (wpow, cyclo), num = groups.popitem()
        return _make(d0, num, wpow, cyclo)
    wp, union, acc = _lift_and_add(groups)
    return _make(d0, acc, wp, _cyclo(union))


# ---------------------------------------------------------------------------
# Specializations


def euler_realize(x):
    """Euler-characteristic value in Q.

    Substitutes u -> s^d, v -> 1, w -> s and takes the limit s -> 1:
    with r denominator factors the numerator f(s) = sum c_e s^e must be
    divisible by (s - 1)^r, and the value is the quotient at s = 1
    divided by the product of the factor indices k.  Both come from the
    binomial moments f^(j)(1) / j! = sum c_e * C(e, j): (s - 1)^r divides
    f exactly when the moments for j < r vanish, and the quotient at
    s = 1 is the moment for j = r.  Everything reachable through the
    public constructors admits this limit; the error guards hand-built
    representatives like a bare 1/(w - 1).
    """
    if not x.num:
        return Fraction(0)
    d = x.d
    r = len(x.cyclo)
    moments = [0] * (r + 1)
    mask, shift = K.KEY_MASK, K.KEY_SHIFT
    for key, coeff in x.num.items():
        t = key >> shift
        e = (key & mask) + (d * t if t > 0 else 0)
        # coeff * C(e, j) for j = 0..r, by C(e, j+1) = C(e, j) (e-j)/(j+1)
        for j in range(r + 1):
            moments[j] += coeff
            coeff = coeff * (e - j) // (j + 1)
    if any(moments[:r]):
        raise ChiDomainError("no Euler specialization for this representative")
    den = 1
    for k in x.cyclo:
        den *= k
    return Fraction(moments[r], den)


def _int_root(q, d):
    """Integer m >= 2 with m^d = q, or None.  Exact for any size of q:
    integer Newton iteration from above, which decreases strictly until
    it reaches floor(q^(1/d))."""
    if d == 1:
        return q
    m = 1 << -(-q.bit_length() // d)
    while True:
        nxt = ((d - 1) * m + q // m ** (d - 1)) // d
        if nxt >= m:
            break
        m = nxt
    return m if m >= 2 and m ** d == q else None


def _cyclo_solve(y, k, q):
    """(r - 1) * y / (x^k - 1) in Z[x]/(x^d - q), and r - 1.

    Multiplying by x^k moves slot i to j = (i + k) mod d with a carry
    q^((i + k) // d), so z = y / (x^k - 1) obeys
    z[j] = carry_i * z[i] - y[j].  The map i -> j splits the slots into
    gcd(k, d) cycles; round one cycle the carries multiply to
    r = q^(k / gcd(k, d)) >= 2, which is why x^k - 1 is a unit.  A
    Horner pass round each cycle gives (r - 1) * z at its start, and
    the recurrence gives the rest of the cycle, all in integers.
    """
    d = len(y)
    g = gcd(k, d)
    step, base = k % d, q ** (k // d)
    r1 = q ** (k // g) - 1
    z = [0] * d
    for start in range(g):
        cycle = [(start + j * step) % d for j in range(d // g)]
        carry = [base * q if i + step >= d else base for i in cycle]
        acc = 0
        for a, j in zip(carry, cycle[1:] + cycle[:1]):
            acc = acc * a + y[j]
        z[start] = acc
        for a, i, j in zip(carry, cycle, cycle[1:]):
            z[j] = a * z[i] - r1 * y[j]
    return z, r1


def numeric_eval(x, q):
    """Point-count style evaluation at u = q, v = 1, w = x with
    x^d = q, as a coefficient vector over Q.  q must be an int >= 2.

    The length-d coefficient vector mod x^d - q is computed exactly
    over Z with one common denominator: every stored denominator factor
    is a unit mod x^d - q (x because x^d = q, and x^k - 1 by
    _cyclo_solve), so each is divided out in closed form and Fractions
    are only built for the result.  When q is a perfect d-th power m^d,
    x -> m is a ring map out of Q[x]/(x^d - q) under which no stored
    denominator factor vanishes (m >= 2), so the vector is evaluated
    there and a single rational comes back ([value]).
    """
    if not _is_int(q) or q < 2:
        raise ValueError("q must be an integer >= 2")
    d = x.d
    # u^t w^c -> q^(t+ + c // d) x^(c % d)
    vec = [0] * d
    for key, coeff in x.num.items():
        e, i = divmod(K.key_c(key), d)
        vec[i] += coeff * q ** (max(K.key_t(key), 0) + e)
    den = 1
    if x.wpow:
        # 1 / x^wpow = x^e / q^s with s = ceil(wpow / d), e = d*s - wpow;
        # times x^e, the top e slots wrap round to the bottom times q
        s = -(-x.wpow // d)
        e = d * s - x.wpow
        vec = [q * v for v in vec[d - e:]] + vec[:d - e]
        den = q ** s
    for k in x.cyclo:
        vec, r1 = _cyclo_solve(vec, k, q)
        den *= r1
    m = _int_root(q, d)
    if m is not None:
        return [Fraction(sum(v * m ** i for i, v in enumerate(vec)), den)]
    return [Fraction(v, den) for v in vec]


# ---------------------------------------------------------------------------
# Rendering


def legend(d):
    return "w = L" if d == 1 else f"w = L^(1/{d})"


def _monomial(t, c, coeff, wpow):
    vars_ = []
    if t > 0:
        vars_.append("u" if t == 1 else f"u^{t}")
    elif t < 0:
        vars_.append("v" if t == -1 else f"v^{-t}")
    if c:
        vars_.append(wpow(c))
    if not vars_:
        return str(coeff)
    if coeff != 1:
        vars_.insert(0, str(coeff))
    return "*".join(vars_)


def _render_num(num, wpow):
    keys = sorted(num, key=lambda k: (K.key_c(k), K.key_t(k)), reverse=True)
    negate = all(num[k] < 0 for k in keys)
    parts = []
    for i, key in enumerate(keys):
        coeff = num[key]
        if negate:
            coeff = -coeff
        frag = _monomial(K.key_t(key), K.key_c(key), abs(coeff), wpow)
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + frag)
        else:
            parts.append((" - " if coeff < 0 else " + ") + frag)
    body = "".join(parts)
    if negate:
        return "-(" + body + ")" if len(keys) > 1 else "-" + body
    return body


def _render(x, wpow):
    """Text form of x, with wpow(c) writing the power w^c."""
    if not x.num:
        return "0"
    numstr = _render_num(x.num, wpow)
    if not x.wpow and not x.cyclo:
        return numstr
    if len(x.num) > 1 and not numstr.startswith("-("):
        numstr = "(" + numstr + ")"
    factors = []
    if x.wpow:
        factors.append(wpow(x.wpow))
    # the stored factors ascend, so the copies of each k are adjacent
    for k, copies in groupby(x.cyclo):
        base = f"({wpow(k)} - 1)"
        e = len(list(copies))
        factors.append(base if e == 1 else f"{base}^{e}")
    den = factors[0] if len(factors) == 1 else "(" + " * ".join(factors) + ")"
    return numstr + " / " + den


def _w_power(c):
    return "w" if c == 1 else f"w^{c}"


def render(x):
    """The stored form as text.  Round-trips through parse_ring_elem.
    The normal form is not canonical, so equal elements can render
    differently: (w + 1)/(w^2 - 1) and 1/(w - 1), for one."""
    return _render(x, _w_power)


def _uv_power(c, d):
    e = Fraction(c, d)
    if e == 1:
        return "u*v"
    if e.denominator == 1:
        return f"(u*v)^{e}"
    return f"(u*v)^({e})"


def render_hodge(x):
    """Same element displayed with (u*v)^(k/d) in place of w^k (uv = L).
    Display form only; parse_ring_elem does not read it."""
    return _render(x, lambda c: _uv_power(c, x.d))
