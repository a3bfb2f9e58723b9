"""Exact arithmetic in the coefficient field k = Q(q).

Elements are canonical fractions of integer-coefficient polynomials in the
single symbol q: numerator and denominator share no content and no polynomial
factor, and the denominator has positive leading coefficient.  Canonical forms
are unique, so equality is plain structural comparison.  All arithmetic is
exact big-integer arithmetic; nothing here ever touches floating point.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# dense integer polynomials in q: tuple of coefficients, index = degree

_PZERO = ()
_PONE = (1,)


def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return _PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return tuple(out)


def _pscale(a, k):
    if k == 0:
        return _PZERO
    if k == 1:
        return a
    return tuple(c * k for c in a)


def _pshift(a, k):
    # multiply by q^k, k >= 0
    if not a or k == 0:
        return a
    return (0,) * k + a


def _pval(a):
    # valuation: lowest power of q with nonzero coefficient
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("valuation of the zero polynomial")


def _pprim(a):
    """Split a into (signed content, primitive part with positive leading coeff)."""
    if not a:
        return 0, _PZERO
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if a[-1] < 0:
        g = -g
    return g, tuple(c // g for c in a)


def _prem(a, b):
    """Pseudo-remainder of a by b, integer arithmetic only (deg a >= deg b)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) > db:
        top = r.pop()
        if top == 0:
            continue
        shift = len(r) - db
        for i in range(len(r)):
            r[i] *= lb
        for i in range(db):
            r[shift + i] -= top * b[i]
    return _ptrim(r)


def _pgcd(a, b):
    """Primitive gcd with positive leading coefficient (contents ignored)."""
    if not a:
        return _pprim(b)[1]
    if not b:
        return _pprim(a)[1]
    # strip powers of q first: the overwhelmingly common operands are monomials
    va, vb = _pval(a), _pval(b)
    v = min(va, vb)
    a = _pprim(a[va:])[1]
    b = _pprim(b[vb:])[1]
    if len(a) == 1 or len(b) == 1:
        return _pshift(_PONE, v)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _pprim(r)[1]
    return _pshift(a, v)


def _pfullgcd(a, b):
    """gcd in Z[q] including integer content, positive leading coefficient."""
    ca, pa = _pprim(a)
    cb, pb = _pprim(b)
    return _pscale(_pgcd(pa, pb), math.gcd(ca, cb))


def _pdivexact(a, b):
    """Quotient a // b assuming the division is exact."""
    if not a:
        return _PZERO
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c = r[db + k]
        if c:
            c, rem = divmod(c, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            out[k] = c
            for i in range(db + 1):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _pis_monomial(a):
    return bool(a) and not any(a[:-1])


def _reduce(num, den):
    num = _ptrim(num)
    den = _ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return _PZERO, _PONE
    cn, pn = _pprim(num)
    cd, pd = _pprim(den)
    g = _pgcd(pn, pd)
    if g != _PONE:
        pn = _pdivexact(pn, g)
        pd = _pdivexact(pd, g)
    c = math.gcd(cn, cd)
    cn //= c
    cd //= c
    if cd < 0:
        cn, cd = -cn, -cd
    return _pscale(pn, cn), _pscale(pd, cd)


def _render_intpoly(p):
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else "%d*q" % mag
        else:
            body = "q^%d" % k if mag == 1 else "%d*q^%d" % (mag, k)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = [("-" + body) if sign == "-" else body]
    for sign, body in parts[1:]:
        out.append(sign)
        out.append(body)
    return "".join(out)


def _nterms(p):
    return sum(1 for c in p if c)


# ---------------------------------------------------------------------------


class RatFunc:
    """An element of Q(q) kept in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, int):
            num = (num,) if num else _PZERO
        if isinstance(den, int):
            den = (den,) if den else _PZERO
        self.num, self.den = _reduce(tuple(num), tuple(den))

    @classmethod
    def _raw(cls, num, den):
        # trusted constructor: (num, den) must already be canonical
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == _PONE and self.den == _PONE

    def as_unit_q_power(self):
        """The integer s with self == q^s, or None."""
        if self.num and self.num[-1] == 1 and _pis_monomial(self.num) \
                and self.den[-1] == 1 and _pis_monomial(self.den):
            return len(self.num) - len(self.den)
        return None

    def as_signed_q_power(self):
        """(sign, s) with self == sign * q^s for sign in {1,-1}, or None."""
        if self.num and abs(self.num[-1]) == 1 and _pis_monomial(self.num) \
                and self.den[-1] == 1 and _pis_monomial(self.den):
            return self.num[-1], len(self.num) - len(self.den)
        return None

    def display_negative(self):
        # canonical denominators are positive, so the sign sits on the numerator
        return bool(self.num) and self.num[-1] < 0

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc._raw((x,) if x else _PZERO, _PONE)
        return None

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_padd(self.num, other.num), _PONE)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RatFunc._raw(*_reduce(num, _pmul(self.den, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_pmul(self.num, other.num), _PONE)
        na, da = self.num, self.den
        nb, db = other.num, other.den
        g1 = _pfullgcd(na, db)
        if g1 != _PONE:
            na = _pdivexact(na, g1)
            db = _pdivexact(db, g1)
        g2 = _pfullgcd(nb, da)
        if g2 != _PONE:
            nb = _pdivexact(nb, g2)
            da = _pdivexact(da, g2)
        return RatFunc._raw(_pmul(na, nb), _pmul(da, db))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(q)")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RatFunc._raw(num, den)

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, s):
        if not isinstance(s, int):
            return NotImplemented
        if s == 0:
            return ONE
        if s < 0:
            return self.inverse() ** (-s)
        out = self
        for _ in range(s - 1):
            out = out * self
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # integer-valued elements must hash like the int they equal
        if self.den == _PONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        num, den = self.num, self.den
        if not num:
            return "0"
        if den == _PONE:
            return _render_intpoly(num)
        if num in (_PONE, (-1,)) and _pis_monomial(den) and den[-1] == 1:
            k = len(den) - 1
            return ("-" if num == (-1,) else "") + "q^-%d" % k
        num_s = _render_intpoly(num)
        if _nterms(num) > 1:
            num_s = "(" + num_s + ")"
        den_s = _render_intpoly(den)
        if _nterms(den) > 1 or "*" in den_s:
            den_s = "(" + den_s + ")"
        return num_s + "/" + den_s

    def __repr__(self):
        return "RatFunc(%s)" % self


ZERO = RatFunc._raw(_PZERO, _PONE)
ONE = RatFunc._raw(_PONE, _PONE)
MINUS_ONE = RatFunc._raw((-1,), _PONE)
Q = RatFunc._raw((0, 1), _PONE)


def qpow(s):
    """q^s for any integer s."""
    if s >= 0:
        return RatFunc._raw((0,) * s + (1,), _PONE)
    return RatFunc._raw(_PONE, (0,) * (-s) + (1,))


def q_int(n, base=Q):
    """The q-integer [n] = 1 + base + ... + base^(n-1)."""
    if n < 0:
        raise ValueError("q-integer of a negative index")
    acc = ZERO
    p = ONE
    for _ in range(n):
        acc = acc + p
        p = p * base
    return acc


def q_factorial(n, base=Q):
    """The q-factorial [n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("q-factorial of a negative index")
    acc = ONE
    cur = ZERO
    p = ONE
    for _ in range(n):
        cur = cur + p
        p = p * base
        acc = acc * cur
    return acc


def is_root_of_unity(a):
    """True iff a is a root of unity; in Q(q) that means a in {1, -1}."""
    if not a:
        raise ValueError("0 is not in k*")
    return a == ONE or a == MINUS_ONE
