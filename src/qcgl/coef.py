"""Exact arithmetic in the coefficient field k = Q(q).

Elements are canonical fractions of integer-coefficient polynomials in the
single symbol q: numerator and denominator share no content and no polynomial
factor, and the denominator has positive leading coefficient.  Canonical forms
are unique, so equality is plain structural comparison.  All arithmetic is
exact big-integer arithmetic; nothing here ever touches floating point.

Almost every coefficient the engine meets is a Laurent polynomial n/q^a in
Z[q^{+-1}]: straightening scales words by powers of q, and theta's images have
only powers of q as denominators apart from its factors (1-q)^-n/[n]!.  Sums
and products of two such elements skip the polynomial gcds.  Since q^a has
content 1, gcd(n, q^a) = q^min(val n, a) in Z[q], so the canonical form of
n/q^a only needs the common power of q removed: a product is n*m/q^(a+b), a
sum is (n q^(e-a) + m q^(e-b))/q^e with e = max(a, b), each stripped of
q^min(val, exponent).  Every other denominator takes the general gcd path.
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


def _laurent(num, e):
    """The canonical RatFunc of num/q^e, for a nonzero trimmed num and e > 0.

    gcd(num, q^e) = q^min(val num, e), since q^e has content 1.
    """
    k = _pval(num)
    if k > e:
        k = e
    return RatFunc._raw(num[k:], _pshift(_PONE, e - k))


def _cancel(n, d):
    """n and d divided by their gcd in Z[q], for a nonzero n and a d with
    positive leading coefficient: the canonical form of n/d.

    When d is q^e the gcd is q^min(val n, e), stripped without a gcd.
    """
    if d[-1] == 1 and not any(d[:-1]):
        k = _pval(n)
        if k > len(d) - 1:
            k = len(d) - 1
        return (n[k:], d[k:]) if k else (n, d)
    g = _pfullgcd(n, d)
    if g != _PONE:
        n = _pdivexact(n, g)
        d = _pdivexact(d, g)
    return n, d


class RatFunc:
    """An element of Q(q) kept in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if type(num) is int and type(den) is int and den == 1:
            # a plain integer is already canonical (a bool takes the path below)
            self.num = (num,) if num else _PZERO
            self.den = _PONE
            return
        num, den = (_ptrim([operator.index(c) for c in ((x,) if isinstance(x, int) else x)])
                    for x in (num, den))
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.num, self.den = _cancel(num, den) if num else (_PZERO, _PONE)

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
        da, db = self.den, other.den
        if (da == _PONE or da[-1] == 1 and not any(da[:-1])) and \
                (db == _PONE or db[-1] == 1 and not any(db[:-1])):
            # Laurent operands n/q^a, m/q^b (1 tested first: the commonest
            # denominator): shift both to q^max(a, b)
            a, b = len(da) - 1, len(db) - 1
            if a == b:
                num = _padd(self.num, other.num)
            elif a > b:
                num = _padd(self.num, _pshift(other.num, a - b))
            else:
                num = _padd(_pshift(self.num, b - a), other.num)
                a = b
            if not num:
                return ZERO
            return _laurent(num, a) if a else RatFunc._raw(num, _PONE)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        if not num:
            return ZERO
        return RatFunc._raw(*_cancel(num, _pmul(self.den, other.den)))

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
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if (da == _PONE or da[-1] == 1 and not any(da[:-1])) and \
                (db == _PONE or db[-1] == 1 and not any(db[:-1])):
            # Laurent operands n/q^a, m/q^b: the product is nm/q^(a+b)
            num = _pmul(na, nb)
            e = len(da) + len(db) - 2
            return _laurent(num, e) if e else RatFunc._raw(num, _PONE)
        na, db = _cancel(na, db)
        nb, da = _cancel(nb, da)
        return RatFunc._raw(_pmul(na, nb), _pmul(da, db))

    __rmul__ = __mul__

    def times_qpow(self, k, sign=1):
        """self * sign * q^k, for sign in {1, -1}, without a gcd.

        gcd(num, den) = 1, so the only common factor num*q^k and den can
        share is q^min(k, val den) for k > 0; for k < 0 it is
        q^min(-k, val num).  Exact for every denominator.
        """
        num, den = self.num, self.den
        if not num or (k == 0 and sign == 1):
            return self
        if sign < 0:
            num = _pneg(num)
        if k > 0:
            v = min(k, _pval(den))
            return RatFunc._raw(_pshift(num, k - v), den[v:])
        if k < 0:
            v = min(-k, _pval(num))
            return RatFunc._raw(num[v:], _pshift(den, -k - v))
        return RatFunc._raw(num, den)

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
