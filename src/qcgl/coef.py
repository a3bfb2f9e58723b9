"""Exact arithmetic in the coefficient field k = Q(q).

An element is the canonical triple q^e * n/d: n and d are integer-coefficient
polynomials in the single symbol q with nonzero constant terms, coprime in
Z[q] (content included), and d has positive leading coefficient; zero is
n = (), d = (1,), e = 0.  Canonical forms are unique, so equality is plain
structural comparison.  All arithmetic is exact big-integer arithmetic;
nothing here ever touches floating point.

Almost every coefficient the engine meets is a Laurent polynomial, d = 1:
straightening scales words by powers of q, and theta's images have only
powers of q as denominators apart from its level factors (1-q)^-n/[n]!.
A power of q is its exponent alone, so scaling by q^k adds k to e, a Laurent
product is one polynomial product and a sum of exponents, and a Laurent sum
shifts the operand with the larger e, stripping a valuation only when equal
exponents cancel at the constant term.  A sum with one Laurent operand needs
no gcd, and a product with one first tries to divide the Laurent numerator
exactly by the other denominator.  Every other product or sum takes the gcd
path.  The fraction `num`/`den`, with q^e on whichever side keeps both
polynomials, is a derived view for printing and for callers that read it.
"""

from __future__ import annotations

import math
import operator

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
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a constant factor, the commonest (a monomial's q-power sits in e)
        c = a[0]
        if c == 1:
            return b
        return (c * b[0],) if len(b) == 1 else tuple([c * x for x in b])
    if not a:
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
    """gcd of two nonzero primitive polynomials, primitive with positive
    leading coefficient."""
    if len(a) == 1 or len(b) == 1:
        return _PONE
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _pprim(r)[1]
    return a


def _pfullgcd(a, b):
    """gcd in Z[q] of two nonzero polynomials, integer content included,
    with positive leading coefficient."""
    ca, pa = _pprim(a)
    cb, pb = _pprim(b)
    return _pscale(_pgcd(pa, pb), math.gcd(ca, cb))


def _pdivexact(a, b):
    """The quotient a / b when b divides a in Z[q], else None."""
    if not a:
        return _PZERO
    db = len(b) - 1
    if len(a) <= db or b[0] and a[0] % b[0]:
        return None
    lb = b[-1]
    r = list(a)
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c = r[db + k]
        if c:
            c, rem = divmod(c, lb)
            if rem:
                return None
            out[k] = c
            for i in range(db + 1):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        return None
    return _ptrim(out)


def _render_intpoly(p, shift=0):
    """p * q^shift as text, highest power first."""
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        k += shift
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


def _coprime(n, d):
    """n and d divided by their gcd in Z[q]."""
    g = _pfullgcd(n, d)
    if g == _PONE:
        return n, d
    return _pdivexact(n, g), _pdivexact(d, g)


def _canonical(n, d, e):
    """The canonical triple of q^e n/d, for nonzero trimmed n and d with
    d[0] != 0: n's valuation moves into e, d's sign onto n, and the gcd of
    n and d is divided out."""
    v = _pval(n)
    if v:
        n = n[v:]
        e += v
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    if d != _PONE:
        n, d = _coprime(n, d)
    return n, d, e


def _times_laurent(m, n, d, e):
    """q^e * m * n/d for a Laurent numerator m and a canonical n/d, d != 1.

    When d divides m the product is Laurent and needs no gcd; otherwise
    only m and d can share a factor, since n/d is reduced.
    """
    t = _pdivexact(m, d)
    if t is not None:
        return RatFunc._raw(_pmul(t, n), _PONE, e)
    m, d = _coprime(m, d)
    return RatFunc._raw(_pmul(m, n), d, e)


class RatFunc:
    """An element q^e * n/d of Q(q) kept in canonical reduced form."""

    __slots__ = ("n", "d", "e")

    def __init__(self, num=0, den=1):
        num, den = (_ptrim([operator.index(c) for c in ((x,) if isinstance(x, int) else x)])
                    for x in (num, den))
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            self.n, self.d, self.e = _PZERO, _PONE, 0
            return
        v = _pval(den)
        self.n, self.d, self.e = _canonical(num, den[v:], -v)

    @classmethod
    def _raw(cls, n, d, e=0):
        # trusted constructor: (n, d, e) must already be canonical
        self = object.__new__(cls)
        self.n = n
        self.d = d
        self.e = e
        return self

    @property
    def num(self):
        """The numerator of the reduced fraction, q^max(e, 0) * n."""
        return _pshift(self.n, self.e) if self.e > 0 else self.n

    @property
    def den(self):
        """The denominator of the reduced fraction, q^max(-e, 0) * d."""
        return _pshift(self.d, -self.e) if self.e < 0 else self.d

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.n)

    def is_one(self):
        return self.e == 0 and self.n == _PONE and self.d == _PONE

    def as_signed_q_power(self):
        """(sign, s) with self == sign * q^s for sign in {1,-1}, or None."""
        n = self.n
        if len(n) == 1 and (n[0] == 1 or n[0] == -1) and self.d == _PONE:
            return n[0], self.e
        return None

    def display_negative(self):
        # canonical denominators are positive, so the sign sits on the numerator
        return bool(self.n) and self.n[-1] < 0

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
        if not other.n:
            return self
        if not self.n:
            return other
        na, da, ea = self.n, self.d, self.e
        nb, db, eb = other.n, other.d, other.e
        if db != _PONE:
            na = _pmul(na, db)
        if da != _PONE:
            nb = _pmul(nb, da)
        # over q^min(ea, eb), the side with the smaller exponent keeps its
        # nonzero constant term; equal exponents may cancel it
        if ea > eb:
            n, e = _padd(_pshift(na, ea - eb), nb), eb
        elif eb > ea:
            n, e = _padd(na, _pshift(nb, eb - ea)), ea
        else:
            n, e = _padd(na, nb), ea
            if not n:
                return ZERO
            if not n[0]:
                v = _pval(n)
                n, e = n[v:], e + v
        # a factor common to n and one denominator divides the other
        # operand's numerator, coprime to it; so one Laurent operand
        # leaves nothing to cancel
        if da == _PONE:
            return RatFunc._raw(n, db, e)
        if db == _PONE:
            return RatFunc._raw(n, da, e)
        return RatFunc._raw(*_canonical(n, _pmul(da, db), e))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(_pneg(self.n), self.d, self.e)

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
        if not self.n or not other.n:
            return ZERO
        na, da = self.n, self.d
        nb, db = other.n, other.d
        e = self.e + other.e
        if da == _PONE:
            if db == _PONE:
                return RatFunc._raw(_pmul(na, nb), _PONE, e)
            return _times_laurent(na, nb, db, e)
        if db == _PONE:
            return _times_laurent(nb, na, da, e)
        na, db = _coprime(na, db)
        nb, da = _coprime(nb, da)
        return RatFunc._raw(_pmul(na, nb), _pmul(da, db), e)

    __rmul__ = __mul__

    def times_qpow(self, k, sign=1):
        """self * sign * q^k, for sign in {1, -1}: k is added to e."""
        if not self.n or (k == 0 and sign == 1):
            return self
        return RatFunc._raw(_pneg(self.n) if sign < 0 else self.n, self.d, self.e + k)

    def inverse(self):
        if not self.n:
            raise ZeroDivisionError("inverse of 0 in Q(q)")
        n, d = self.d, self.n
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return RatFunc._raw(n, d, -self.e)

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
        parts = self.as_signed_q_power()
        if parts is not None:
            # (sign q^e)^s = sign^s q^(e s), with no products
            sign, e = parts
            return RatFunc._raw((sign,) if s % 2 else _PONE, _PONE, e * s)
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
        return self.e == other.e and self.n == other.n and self.d == other.d

    def __hash__(self):
        # integer-valued elements must hash like the int they equal
        if self.e == 0 and self.d == _PONE and len(self.n) <= 1:
            return hash(self.n[0] if self.n else 0)
        return hash((self.n, self.d, self.e))

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        n, d, e = self.n, self.d, self.e
        if not n:
            return "0"
        if d == _PONE:
            if e >= 0:
                return _render_intpoly(n, e)
            if n == _PONE or n == (-1,):
                return ("-" if n[0] < 0 else "") + "q^%d" % e
        num_s = _render_intpoly(n, max(e, 0))
        if _nterms(n) > 1:
            num_s = "(" + num_s + ")"
        den_s = _render_intpoly(d, max(-e, 0))
        if _nterms(d) > 1 or "*" in den_s:
            den_s = "(" + den_s + ")"
        return num_s + "/" + den_s

    def __repr__(self):
        return "RatFunc(%s)" % self


ZERO = RatFunc._raw(_PZERO, _PONE)
ONE = RatFunc._raw(_PONE, _PONE)
MINUS_ONE = RatFunc._raw((-1,), _PONE)
Q = RatFunc._raw(_PONE, _PONE, 1)


def qpow(s):
    """q^s for any integer s."""
    return RatFunc._raw(_PONE, _PONE, s)


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
