"""Parser for the w-form that motring.render writes.

parse_ring_elem(render(x), x.d) rebuilds x with identical stored data.
Nothing in the package calls it; it is kept out of motring so that a
command importing the ring does not compile it.  It stays importable
as pvcalc.parse_ring_elem and pvcalc.motring.parse_ring_elem.
"""

import re

from . import _kernel as K
from .errors import ParseError
from .motring import RingElem, _check_wdeg, zero

_TOKEN = re.compile(r"\s*(\d+|[uvw]|\^|\*|\+|-|/|\(|\))")


def _tokenize(s):
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad character at position {pos}: {s[pos:pos + 8]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, d):
        self.toks = tokens
        self.i = 0
        self.d = d

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}")
        self.i += 1
        return tok

    def take_int(self):
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok!r}")
        return int(tok)

    def parse_elem(self):
        num = self.parse_numerator()
        wpow, cyclo = 0, []
        if self.peek() == "/":
            self.take()
            wpow, cyclo = self.parse_denominator()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return RingElem(self.d, num, wpow, tuple(cyclo))

    def parse_numerator(self):
        neg = False
        if self.peek() == "-" and self.i + 1 < len(self.toks) and self.toks[self.i + 1] == "(":
            self.take()
            neg = True
        if self.peek() == "(":
            self.take()
            num = self.parse_sum()
            self.take(")")
        else:
            num = self.parse_sum()
        return {k: -v for k, v in num.items()} if neg else num

    def parse_sum(self):
        num = {}
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            key, coeff = self.parse_term()
            coeff *= sign
            s = num.get(key, 0) + coeff
            if s:
                num[key] = s
            elif key in num:
                del num[key]
            if self.peek() == "+":
                self.take()
                sign = 1
            elif self.peek() == "-":
                self.take()
                sign = -1
            else:
                return num

    def parse_term(self):
        coeff = 1
        eu = ev = ew = 0
        saw = False
        while True:
            tok = self.peek()
            if tok is not None and tok.isdigit():
                self.take()
                coeff *= int(tok)
                saw = True
            elif tok in ("u", "v", "w"):
                self.take()
                e = 1
                if self.peek() == "^":
                    self.take()
                    e = self.take_int()
                if tok == "u":
                    eu += e
                elif tok == "v":
                    ev += e
                else:
                    ew += e
                saw = True
            else:
                raise ParseError(f"expected a monomial, got {tok!r}")
            if self.peek() == "*":
                self.take()
                continue
            break
        if not saw:
            raise ParseError("empty term")
        m = min(eu, ev)
        _check_wdeg(ew + self.d * m)
        return K.mkkey(eu - ev, ew + self.d * m), coeff

    def parse_denominator(self):
        # a parenthesized factor group "(w^2 * (w - 1))" versus a single
        # "(w^k - 1)" factor: after the leading "(w" (and optional
        # exponent) a "-" marks the cyclotomic factor
        if self.peek() == "(":
            j = self.i + 1
            group = False
            if j < len(self.toks) and self.toks[j] == "(":
                # "((w - 1)^2 * ...)" can only be a factor group
                group = True
            elif j < len(self.toks) and self.toks[j] == "w":
                j += 1
                if j < len(self.toks) and self.toks[j] == "^":
                    j += 2
                if j < len(self.toks) and self.toks[j] != "-":
                    group = True
            if group:
                self.take("(")
                wpow, cyclo = self.parse_factor_list()
                self.take(")")
                return wpow, cyclo
        return self.parse_factor_list()

    def parse_factor_list(self):
        wpow = 0
        cyclo = []
        while True:
            tok = self.peek()
            if tok == "w":
                self.take()
                e = 1
                if self.peek() == "^":
                    self.take()
                    e = self.take_int()
                wpow += e
            elif tok == "(":
                self.take()
                self.take("w")
                k = 1
                if self.peek() == "^":
                    self.take()
                    k = self.take_int()
                self.take("-")
                if self.take() != "1":
                    raise ParseError("denominator factors look like (w^k - 1)")
                if k == 0:
                    raise ParseError("denominator factor (w^0 - 1) is zero")
                self.take(")")
                e = 1
                if self.peek() == "^":
                    self.take()
                    e = self.take_int()
                cyclo.extend([k] * e)
            else:
                raise ParseError(f"bad denominator factor at {tok!r}")
            if self.peek() == "*":
                self.take()
                continue
            return wpow, cyclo


def parse_ring_elem(s, d):
    """Parse the w-form that render writes.  parse(render(x), x.d)
    reproduces x with identical stored data."""
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty input")
    if tokens == ["0"]:
        return zero(d)
    return _Parser(tokens, d).parse_elem()
