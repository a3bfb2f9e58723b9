"""Expression parsing and evaluation.

Grammar (standard precedence, ^ > * / > + -, left associative):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | 'q' | 'x[i,j]' | 'g_k' | 'X' | '[I|J]' | '(' expr ')'

One evaluator, evaluate, takes expression text and gives its tree a meaning
over any algebra that offers names, N, gen_named and multiply.  Over an
OreAlgebra products keep the written order and are straightened, so values are
PBW normal forms.  eval_free runs the same evaluator over the free algebra on
a list of names, whose products only concatenate words; presets reads a spec
document's correction polynomials that way, and parse_scalar reads a scalar as
a value of the free algebra on no names.  Division is defined only by scalar
values; division by 0 and negative powers of 0 raise ExprDivisionByZero, which
is both an ExprEvalError and a ZeroDivisionError.  The atom X denotes the
active algebra's top generator inside the localised skew extension and is
accepted only where Laurent values make sense.  Parentheses and unary minus
nest at most MAX_DEPTH levels deep, and an exponent is at most MAX_EXPONENT in
absolute value; input beyond either bound is a syntax error.  A power is
built by products, and one whose partial power passes MAX_POWER_SIZE terms
and coefficient entries is an evaluation error.  A chain of + and
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
    r"|(?P<X>X)"
    r"|(?P<punct>[-+*/^()\[\],|]))"
)
MAX_DEPTH = 100
MAX_EXPONENT = 4096  # powers are built by repeated products
# Bound on a partial power's terms plus coefficient entries (_size).  On a
# 2-CPU machine under Python 3.11 the largest powers within it took 0.05 s
# for (q+1)^509 and 0.43 s for ((q+1)/(q-1))^254, whose products take gcds;
# unbounded, (q+1)^2048 took 1.4 s and (x[1,1]+x[1,2])^128 23.7 s.
MAX_POWER_SIZE = 512


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
        # a token is (kind, value, position); punctuation is its own kind
        kind = m.lastgroup
        value, start = m.group(kind), m.start(kind)
        if kind == "int":
            value = int(value)
        elif kind == "punct":
            kind = value
        tokens.append((kind, value, start))
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
        return self.chain(("+", "-"), self.term, "sum")

    def term(self):
        return self.chain(("*", "/"), self.factor, "prod")

    def chain(self, ops, operand, tag):
        """operand (op operand)* with op in ops, as one (tag, [(op, node), ...])
        node whose first op is ops[0]; a lone operand is returned as it is."""
        items = [(ops[0], operand())]
        while self.peek()[0] in ops:
            op = self.next()[0]
            items.append((op, operand()))
        return items[0][1] if len(items) == 1 else (tag, items)

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


def _size(value):
    """Terms plus coefficient entries: one per term, and one per integer of
    each coefficient's numerator and denominator, through Laurent values."""
    if isinstance(value, LaurentElem):
        return sum(1 + _size(p) for p in value.terms.values())
    return sum(1 + len(c.n) + len(c.d) for c in value.terms.values())


def _ev_pow(alg, base, k, allow_x):
    """base^k by k products, refused once a partial power is past
    MAX_POWER_SIZE; a negative power is the power of the inverse of a
    scalar or of c X^j."""
    written = k
    if k < 0:
        k = -k
        c = _as_scalar(base)
        if c is not None:
            if not c:
                raise ExprDivisionByZero("negative power of 0")
            base = NcPoly.scalar(c.inverse())
        else:
            if allow_x and alg.N >= 2:
                base = _promote(alg, base)  # c x_N^k is c X^k
            mono = base.scalar_x_power() if isinstance(base, LaurentElem) else None
            if mono is None:
                raise ExprEvalError("negative powers are defined only for scalars and powers of X")
            base = LaurentElem.from_poly(NcPoly.scalar(mono[0].inverse()), -mono[1])
    out = NcPoly.scalar(ONE)
    for done in range(1, k + 1):
        out = _ev_mul(alg, out, base)
        if _size(out) > MAX_POWER_SIZE:
            raise ExprEvalError("the power ^%d passes %d terms and coefficient entries at ^%d"
                                % (written, MAX_POWER_SIZE, done))
    return out


def evaluate(alg, source, allow_x=False):
    """Evaluate expression text over the given algebra; returns an NcPoly, or
    a LaurentElem when X occurs (allowed only with allow_x)."""

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
        return _ev_pow(alg, ev(nd[1]), nd[2], allow_x)  # the one tag left: pow

    return ev(parse(source))


def eval_free(source, names):
    """Evaluate text over the free algebra on names: products concatenate words."""
    return evaluate(_WordAlgebra(names), source)


def parse_scalar(source):
    """Evaluate a scalar-only expression to a RatFunc."""
    return eval_free(source, ()).scalar_value()
