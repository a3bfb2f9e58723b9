"""Expression parsing and evaluation.

Grammar (standard precedence, ^ > * / > + -, left associative):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | 'q' | 'x[i,j]' | 'g_k' | 'X' | '[I|J]' | '(' expr ')'

One evaluator, evaluate, gives the tree its meaning over any algebra that
offers names, N, gen_named and multiply.  Over an OreAlgebra products keep
the written order and are straightened, so values are PBW normal forms.
eval_free runs the same evaluator over the free algebra on a list of names,
whose products only concatenate words; spec files read their correction
polynomials that way, and parse_scalar reads a scalar as a value of the free
algebra on no names.  Division is defined only by scalar values; division by
0 and negative powers of 0 raise ExprDivisionByZero, which is both an
ExprEvalError and a ZeroDivisionError.  The atom X denotes the active
algebra's top generator inside the localised skew extension and is accepted
only where Laurent values make sense.  Parentheses and unary minus nest at
most MAX_DEPTH levels deep, and an exponent is at most MAX_EXPONENT in
absolute value; input beyond either bound is a syntax error.  A chain of + and
- parses to one ("sum", [(op, node), ...]) node and a chain of * and / to one
("prod", ...) node, so evaluation folds over a chain in a loop and a long flat
sum or product costs no recursion depth.
"""

from __future__ import annotations

import re

from .coef import ONE, Q, ZERO, RatFunc
from .delderiv import LaurentElem, laurent_mul
from .ncalg import NcPoly, add_terms

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<gen>x\[\d+,\d+\]|g_\d+)"
    r"|(?P<q>q)"
    r"|(?P<x>X)"
    r"|(?P<punct>[-+*/^()\[\],|]))"
)
MAX_DEPTH = 100
MAX_EXPONENT = 4096  # powers are built by repeated products


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class ExprEvalError(ValueError):
    pass


class ExprDivisionByZero(ExprEvalError, ZeroDivisionError):
    """Division by 0 or a negative power of 0."""


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
        items = [("+", self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            items.append((op, self.term()))
        return items[0][1] if len(items) == 1 else ("sum", items)

    def term(self):
        items = [("*", self.factor())]
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            items.append((op, self.factor()))
        return items[0][1] if len(items) == 1 else ("prod", items)

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
            if tok[1] > MAX_EXPONENT:
                raise ExprSyntaxError("exponent %d exceeds the limit of %d"
                                      % (tok[1], MAX_EXPONENT), tok[2])
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


class _WordAlgebra:
    """The free algebra on the given generator names: a product concatenates
    words and nothing is straightened.  Serialized normal forms, whose products
    are already sorted, read back through it; with no names it holds only the
    scalars."""

    def __init__(self, names):
        self.names = tuple(names)
        self.N = len(self.names)
        self._index = {name: k for k, name in enumerate(self.names, 1)}

    def gen_named(self, name):
        if name not in self._index:
            raise ValueError("unknown generator %r" % name)
        return NcPoly({(self._index[name],): ONE})

    def multiply(self, a, b):
        out = {}
        for wa, ca in a.terms.items():
            add_terms(out, ((wa + wb, cb) for wb, cb in b.terms.items()), ca)
        return NcPoly(out)


def _as_scalar(value):
    """The RatFunc value of a scalar NcPoly or LaurentElem, else None."""
    if isinstance(value, LaurentElem):
        if not value.terms:
            return ZERO
        if set(value.terms) != {0}:
            return None
        value = value.terms[0]
    return value.scalar_value()


def _promote(alg, value):
    """A value as a Laurent one.  The top generator x_N is X, and a PBW word
    ends with its x_N letters, so w x_N^k becomes w X^k."""
    if isinstance(value, LaurentElem):
        return value
    out = {}
    for w, c in value.terms.items():
        k = w.count(alg.N)
        add_terms(out, ((k, NcPoly({w[:len(w) - k]: c})),))
    return LaurentElem(out)


def _ev_mul(alg, a, b):
    if isinstance(a, NcPoly) and isinstance(b, NcPoly):
        return alg.multiply(a, b)
    return laurent_mul(alg, _promote(alg, a), _promote(alg, b))


def _ev_add(alg, a, b):
    if isinstance(a, NcPoly) and isinstance(b, NcPoly):
        return a + b
    return _promote(alg, a) + _promote(alg, b)


def _ev_pow(alg, base, k, allow_x):
    if k >= 0:
        out = NcPoly.scalar(ONE)
        for _ in range(k):
            out = _ev_mul(alg, out, base)
        return out
    c = _as_scalar(base)
    if c is not None:
        if not c:
            raise ExprDivisionByZero("negative power of 0")
        return NcPoly.scalar(c.inverse() ** (-k))
    if allow_x and alg.N >= 2:
        base = _promote(alg, base)  # c x_N^k is c X^k
    if isinstance(base, LaurentElem):
        mono = base.scalar_x_power()
        if mono is not None:
            c, j = mono
            inv = LaurentElem.from_poly(NcPoly.scalar(c.inverse()), -j)
            return _ev_pow(alg, inv, -k, allow_x)
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
            if alg.N < 2:
                raise ExprEvalError("X needs an algebra with at least two generators")
            return LaurentElem.x_power(1)
        if tag == "minor":
            if not hasattr(alg, "minor"):
                raise ExprEvalError("minor atoms need a quantum matrix algebra")
            return alg.minor(nd[1], nd[2])
        if tag == "neg":
            return ev(nd[1]).__neg__()
        if tag == "sum":
            acc = ev(nd[1][0][1])
            for op, term in nd[1][1:]:
                value = ev(term)
                acc = _ev_add(alg, acc, value if op == "+" else value.__neg__())
            return acc
        if tag == "prod":
            acc = ev(nd[1][0][1])
            for op, factor in nd[1][1:]:
                if op == "*":
                    acc = _ev_mul(alg, acc, ev(factor))
                    continue
                denom = _as_scalar(ev(factor))
                if denom is None:
                    raise ExprEvalError("division is defined only by scalar values")
                if not denom:
                    raise ExprDivisionByZero("division by zero scalar")
                acc = acc.scaled(denom.inverse())
            return acc
        if tag == "pow":
            return _ev_pow(alg, ev(nd[1]), nd[2], allow_x)
        raise ExprEvalError("unknown node %r" % (tag,))

    return ev(node)


def eval_free(node, names):
    """Evaluate over the free algebra on names: products concatenate words."""
    return evaluate(_WordAlgebra(names), node)


def parse_scalar(source):
    """Evaluate a scalar-only expression to a RatFunc."""
    return eval_free(source, ()).scalar_value()
