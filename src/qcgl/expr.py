"""Expression parsing and evaluation.

Grammar (standard precedence, ^ > * / > + -, left associative):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | 'q' | 'x[i,j]' | 'g_k' | 'X' | '[I|J]' | '(' expr ')'

Products preserve the written order; evaluation returns PBW normal forms.
Division is defined only by scalar values.  The atom X denotes the active
algebra's top generator inside the localised skew extension and is accepted
only where Laurent values make sense.  Parentheses and unary minus nest at
most MAX_DEPTH levels deep; deeper input is a syntax error.
"""

from __future__ import annotations

import re

from .coef import ONE, Q, RatFunc
from .ncalg import NcPoly, add_terms

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<gen>x\[\d+,\d+\]|g_\d+)"
    r"|(?P<q>q)"
    r"|(?P<x>X)"
    r"|(?P<punct>[-+*/^()\[\],|]))"
)
MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class ExprEvalError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise ExprSyntaxError("unexpected character %r" % tail[0],
                                  len(text) - len(tail))
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "gen":
            tokens.append(("gen", m.group("gen"), m.start("gen")))
        elif m.lastgroup == "q":
            tokens.append(("q", "q", m.start("q")))
        elif m.lastgroup == "x":
            tokens.append(("X", "X", m.start("x")))
        else:
            tokens.append((m.group("punct"), m.group("punct"), m.start("punct")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ExprSyntaxError("expected %r, found %s" % (kind, found), tok[2])
        return tok

    def nest(self, pos):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError("nesting deeper than %d levels" % MAX_DEPTH, pos)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input %r" % tok[1], tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.nest(self.next()[2])
            node = ("neg", self.factor())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("int")
            node = ("pow", node, sign * tok[1])
        return node

    def intlist(self):
        out = [self.expect("int")[1]]
        while self.peek()[0] == ",":
            self.next()
            out.append(self.expect("int")[1])
        return tuple(out)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return ("num", value)
        if kind == "q":
            return ("q",)
        if kind == "gen":
            return ("gen", value)
        if kind == "X":
            return ("X",)
        if kind == "(":
            self.nest(pos)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "[":
            rows = self.intlist()
            self.expect("|")
            cols = self.intlist()
            self.expect("]")
            return ("minor", rows, cols)
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError("unexpected token %r" % value, pos)


def parse(text):
    """Parse an expression into its syntax tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def _as_scalar(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, NcPoly):
        return value.scalar_value()
    from .delderiv import LaurentElem

    if isinstance(value, LaurentElem):
        if value.is_zero():
            from .coef import ZERO

            return ZERO
        if set(value.coeffs) == {0}:
            return value.coeffs[0].scalar_value()
    return None


def _promote(alg, value):
    from .delderiv import LaurentElem

    if isinstance(value, LaurentElem):
        return value
    return LaurentElem.from_poly(value)


def _ev_mul(alg, a, b):
    from .delderiv import laurent_mul

    if isinstance(a, NcPoly) and isinstance(b, NcPoly):
        return alg.multiply(a, b)
    return laurent_mul(alg, _promote(alg, a), _promote(alg, b))


def _ev_add(alg, a, b):
    if isinstance(a, NcPoly) and isinstance(b, NcPoly):
        return a + b
    return _promote(alg, a) + _promote(alg, b)


def _ev_pow(alg, base, k):
    from .delderiv import LaurentElem

    if k >= 0:
        out = NcPoly.scalar(ONE)
        for _ in range(k):
            out = _ev_mul(alg, out, base)
        return out
    c = _as_scalar(base)
    if c is not None:
        if not c:
            raise ExprEvalError("negative power of 0")
        return NcPoly.scalar(c.inverse() ** (-k))
    if isinstance(base, LaurentElem):
        mono = base.scalar_x_power()
        if mono is not None:
            c, j = mono
            inv = LaurentElem.from_poly(NcPoly.scalar(c.inverse()), -j)
            return _ev_pow(alg, inv, -k)
    raise ExprEvalError("negative powers are defined only for scalars and powers of X")


def evaluate(alg, source, allow_x=False):
    """Evaluate over the given algebra; returns an NcPoly, or a LaurentElem
    when X occurs (allowed only with allow_x)."""
    node = parse(source) if isinstance(source, str) else source

    def ev(nd):
        tag = nd[0]
        if tag == "num":
            return NcPoly.scalar(RatFunc(nd[1]))
        if tag == "q":
            return NcPoly.scalar(Q)
        if tag == "gen":
            try:
                return alg.gen_named(nd[1])
            except ValueError as exc:
                raise ExprEvalError(str(exc))
        if tag == "X":
            if not allow_x:
                raise ExprEvalError("X used outside a localisation context")
            from .delderiv import LaurentElem

            if alg.N < 2:
                raise ExprEvalError("X needs an algebra with at least two generators")
            return LaurentElem.x_power(1)
        if tag == "minor":
            if not hasattr(alg, "minor"):
                raise ExprEvalError("minor atoms need a quantum matrix algebra")
            return alg.minor(nd[1], nd[2])
        if tag == "neg":
            return ev(nd[1]).__neg__()
        if tag == "add":
            return _ev_add(alg, ev(nd[1]), ev(nd[2]))
        if tag == "sub":
            return _ev_add(alg, ev(nd[1]), ev(nd[2]).__neg__())
        if tag == "mul":
            return _ev_mul(alg, ev(nd[1]), ev(nd[2]))
        if tag == "div":
            denom = _as_scalar(ev(nd[2]))
            if denom is None:
                raise ExprEvalError("division is defined only by scalar values")
            if not denom:
                raise ZeroDivisionError("division by zero scalar")
            numer = ev(nd[1])
            return numer.scaled(denom.inverse())
        if tag == "pow":
            return _ev_pow(alg, ev(nd[1]), nd[2])
        raise ExprEvalError("unknown node %r" % (tag,))

    return ev(node)


def parse_scalar(source):
    """Evaluate a scalar-only expression to a RatFunc."""
    node = parse(source) if isinstance(source, str) else source

    def ev(nd):
        tag = nd[0]
        if tag == "num":
            return RatFunc(nd[1])
        if tag == "q":
            return Q
        if tag == "neg":
            return -ev(nd[1])
        if tag == "add":
            return ev(nd[1]) + ev(nd[2])
        if tag == "sub":
            return ev(nd[1]) - ev(nd[2])
        if tag == "mul":
            return ev(nd[1]) * ev(nd[2])
        if tag == "div":
            return ev(nd[1]) / ev(nd[2])
        if tag == "pow":
            return ev(nd[1]) ** nd[2]
        raise ExprEvalError("not a scalar expression: %r atom" % (tag,))

    return ev(node)


def eval_free(node, names):
    """Evaluate without straightening: products concatenate words.

    Used to read back serialized normal forms, whose products are already
    sorted; only scalars, generators, +, -, * and nonnegative powers occur.
    """
    node = parse(node) if isinstance(node, str) else node
    index = {name: k + 1 for k, name in enumerate(names)}

    def mul(a, b):
        out = {}
        for wa, ca in a.terms.items():
            add_terms(out, ((wa + wb, cb) for wb, cb in b.terms.items()), ca)
        return NcPoly(out)

    def ev(nd):
        tag = nd[0]
        if tag == "num":
            return NcPoly.scalar(RatFunc(nd[1]))
        if tag == "q":
            return NcPoly.scalar(Q)
        if tag == "gen":
            try:
                return NcPoly({(index[nd[1]],): ONE})
            except KeyError:
                raise ExprEvalError("unknown generator %r" % nd[1])
        if tag == "neg":
            return -ev(nd[1])
        if tag == "add":
            return ev(nd[1]) + ev(nd[2])
        if tag == "sub":
            return ev(nd[1]) - ev(nd[2])
        if tag == "mul":
            return mul(ev(nd[1]), ev(nd[2]))
        if tag == "div":
            denom = ev(nd[2]).scalar_value()
            if denom is None or not denom:
                raise ExprEvalError("division is defined only by nonzero scalars")
            return ev(nd[1]).scaled(denom.inverse())
        if tag == "pow":
            k = nd[2]
            if k < 0:
                c = ev(nd[1]).scalar_value()
                if c is None or not c:
                    raise ExprEvalError("negative powers are defined only for scalars")
                return NcPoly.scalar(c.inverse() ** (-k))
            out = NcPoly.scalar(ONE)
            base = ev(nd[1])
            for _ in range(k):
                out = mul(out, base)
            return out
        raise ExprEvalError("unsupported atom in a word-level expression")

    return ev(node)
