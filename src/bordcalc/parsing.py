"""Text grammars for ring elements, manifold expressions, and spaces.

All grammars share one tokenizer (names, integers, and the punctuation
^ * + - ( ) , ;). The five expression grammars share one sum/product/power
engine with the usual precedence: ^ binds tightest, then *, then +.
Integers reduce mod 2. Specific atoms per grammar:

  presentation:  a<d>, X<n>, G(i,n), Gamma(expr), iota(expr), e
  laurent:       a<d>, c<j>, e (the only class allowed negative powers)
  coefficient:   a<d>
  bundle:        a<d>, b<i>
  manifold:      P(n), S(j), gamma(expr), triv(coefficient)
  space:         RP(n), Dold(m,n), PB(space; line, ...)

Manifold expressions parse to a parity-reduced list standing for a formal
GF(2) sum, with products distributed over sums and gamma applied
factorwise. Space products flatten to a single Product.
The expression grammars obey the degree cap through CoefRing.check_size,
given their terms' maxima, and the space grammar given each space's
dimension before the space is built.
"""

import re

from .charnum import CohomClass, Dold, ProjBundle, Product, RP
from .conner_floyd import AntipodalSphere, GammaOf, ProductOf, Proj, Trivial
from .errors import ParseError
from .gf2 import GradedPoly, power
from .presentation import Presentation

# bad catches any other character, so the matches cover the whole text
_TOKEN = re.compile(r'\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)'
                    r'|(?P<punct>[-^*+(),;])|(?P<bad>\S))')


class _Tokens:
    def __init__(self, text):
        self.items = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == 'bad':
                raise ParseError(m.start(kind), ('a name, an integer, or punctuation',),
                                 found=m.group(kind))
            self.items.append((kind, m.group(kind), m.start(kind)))
        self.items.append(('end', '', len(text)))
        self.idx = 0

    def peek(self):
        return self.items[self.idx]

    def advance(self):
        tok = self.items[self.idx]
        if tok[0] != 'end':
            self.idx += 1
        return tok

    def expect_punct(self, text):
        kind, found, pos = self.peek()
        if kind != 'punct' or found != text:
            raise ParseError(pos, ("'%s'" % text,), found=found or None)
        return self.advance()

    def expect_int(self):
        kind, found, pos = self.peek()
        if kind != 'int':
            raise ParseError(pos, ('an integer',), found=found or None)
        self.advance()
        return int(found)

    def at_punct(self, text):
        kind, found, _ = self.peek()
        return kind == 'punct' and found == text

    def expect_end(self):
        kind, found, pos = self.peek()
        if kind != 'end':
            raise ParseError(pos, ('end of input',), found=found)


class _ElementParser:
    """The one sum/product/power engine; each grammar supplies its atoms.

    +, * and ^ go through the add, mul and power hooks, and every sum
    through finish, so a grammar changes its values without copying the
    precedence rules. Given a CoefRing coef, every atom, product, and x^k
    before it is built pass coef.check_size with their terms' maxima.
    """

    what = 'dimension'  # the size named in CapacityError messages

    def __init__(self, toks, coef=None):
        self.toks = toks
        self.coef = coef

    def parse_sum(self):
        acc = self.parse_term()
        while self.toks.at_punct('+'):
            self.toks.advance()
            acc = self.add(acc, self.parse_term())
        return self.finish(acc)

    def parse_term(self):
        acc = self.parse_factor()
        while self.toks.at_punct('*'):
            self.toks.advance()
            acc = self.capped(self.mul(acc, self.parse_factor()))
        return acc

    def parse_factor(self):
        atom, invertible = self.parse_atom()
        atom = self.capped(atom)
        if not self.toks.at_punct('^'):
            return atom
        self.toks.advance()
        sign = 1
        if self.toks.at_punct('-'):
            _, _, pos = self.toks.advance()
            if not invertible:
                raise ParseError(pos, ('a nonnegative exponent',), found='-')
            sign = -1
        k = sign * self.toks.expect_int()
        return self.power(self.capped(atom, k), k)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def power(self, atom, k):
        return atom ** k

    def capped(self, x, k=1):
        """x, once x^k passes the degree cap: sizes add under products."""
        if self.coef is not None:
            size, coef_degree = self.maxima(x)
            self.coef.check_size(self.what, k * size, k * coef_degree)
        return x

    def finish(self, x):
        """The value of a whole sum (x itself by default)."""
        return x

    def parse_atom(self):
        kind, text, pos = self.toks.peek()
        if kind == 'int':
            self.toks.advance()
            return (self.one() if int(text) % 2 else self.zero()), False
        if kind == 'punct' and text == '(':
            self.toks.advance()
            inner = self.parse_sum()
            self.toks.expect_punct(')')
            return inner, False
        if kind == 'name':
            self.toks.advance()
            return self.named_atom(text, pos)
        raise ParseError(pos, self.expected, found=text or None)

    def parse_call(self):
        """The parenthesized sum after a function name."""
        self.toks.expect_punct('(')
        inner = self.parse_sum()
        self.toks.expect_punct(')')
        return inner


_INDEXED = re.compile(r'([A-Za-z])([0-9]+)')


class _PolyParser(_ElementParser):
    """Polynomial grammars: indexed atoms <letter><int> from a constructor map.

    ring gives zero() and one(). When e is given (the Laurent grammar), the
    name e is the grammar's one invertible atom, and e^-k parses to e(-k).
    A capped term's size is its degree without its e power (its e-free
    degree, which adds under products), and its N_* part also leaves out
    the variables of outside, a family's index -> subscript map from the
    variable table; what names the size.
    """

    def __init__(self, toks, ring, letters, expected, e=None, coef=None, outside=(),
                 what=None):
        super().__init__(toks, coef)
        if what is not None:
            self.what = what
        self.ring = ring
        self.letters = letters
        self.expected = expected
        self.e = e
        self.outside = outside

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def named_atom(self, text, pos):
        if text == 'e' and self.e is not None:
            return self.e(1), True
        m = _INDEXED.fullmatch(text)
        if m and m.group(1) in self.letters:
            return self.letters[m.group(1)](int(m.group(2))), False
        raise ParseError(pos, self.expected, found=text)

    def power(self, atom, k):
        # a negative k only follows the invertible atom e
        return self.e(k) if k < 0 else atom ** k

    def maxima(self, x):
        # plain loops: every parsed atom and product passes
        table, outside = x.table, self.outside
        mask, deg = table.efree_mask, table.degrees
        size = coef = 0
        for m in x.monos:
            # the degree field is the e-free degree
            s = c = m & mask
            if outside:
                for i, k in table.exponents(m):
                    if i in outside:
                        c -= k * deg[i]
            size = s if s > size else size
            coef = c if c > coef else coef
        return size, coef


def _coefficient_parser(toks, coef):
    return _PolyParser(toks, coef, {'a': coef.a}, ('a<d>', 'an integer', '('), coef=coef)


class _PresentationParser(_PolyParser):
    what = 'degree plus e power'
    maxima = staticmethod(Presentation.size)

    def __init__(self, toks, ring):
        super().__init__(
            toks, ring, {'a': lambda d: ring.iota(ring.coef.a(d)), 'X': ring.X},
            ('a<d>', 'X<n>', 'G(i,n)', 'Gamma(...)', 'iota(...)', 'e', 'an integer', '('),
            coef=ring.coef)

    def named_atom(self, text, pos):
        if text == 'e':
            return self.ring.e(1), False
        if text == 'G':
            self.toks.expect_punct('(')
            i = self.toks.expect_int()
            self.toks.expect_punct(',')
            n = self.toks.expect_int()
            self.toks.expect_punct(')')
            return self.ring.G(i, n), False
        if text == 'Gamma':
            return self.ring.gamma(self.parse_call()), False
        if text == 'iota':
            inner = self.parse_call()
            if not inner.is_coefficient_only():
                raise ParseError(pos, ('a coefficient expression inside iota',))
            return inner, False
        return super().named_atom(text, pos)


def _parity_list(exprs):
    acc = {}
    order = []
    for x in exprs:
        if x not in acc:
            order.append(x)
        acc[x] = not acc.get(x, False)
    return [x for x in order if acc[x]]


class _ManifoldParser(_ElementParser):
    """Formal GF(2) sums of manifold expressions, kept as parity-reduced lists."""

    expected = ('P(n)', 'S(j)', 'gamma(...)', 'triv(...)', 'an integer', '(')

    def zero(self):
        return []

    def one(self):
        return [Trivial(GradedPoly.one(self.coef.table))]

    def mul(self, xs, ys):
        return [p for p in (_product(x, y) for x in xs for y in ys) if p is not None]

    def power(self, atoms, k):
        return power(atoms, k, self.one(), lambda xs, ys: _parity_list(self.mul(xs, ys)))

    def maxima(self, terms):
        # the N_* part is the triv factors; gamma(M)'s size check covers M's
        size = coef = 0
        for t in terms:
            size = max(size, t.dim)
            factors = t.factors if isinstance(t, ProductOf) else (t,)
            coef = max(coef, sum(f.dim for f in factors if isinstance(f, Trivial)))
        return size, coef

    def finish(self, terms):
        return _parity_list(terms)

    def named_atom(self, text, pos):
        if text in ('P', 'S'):
            self.toks.expect_punct('(')
            n = self.toks.expect_int()
            self.toks.expect_punct(')')
            return [Proj(n) if text == 'P' else AntipodalSphere(n)], False
        if text == 'gamma':
            return _parity_list(GammaOf(x) for x in self.parse_call()), False
        if text == 'triv':
            self.toks.expect_punct('(')
            poly = _coefficient_parser(self.toks, self.coef).parse_sum()
            self.toks.expect_punct(')')
            return ([Trivial(poly)] if poly else []), False
        raise ParseError(pos, self.expected, found=text)


def _product(x, y):
    factors = []
    for part in (x, y):
        if isinstance(part, ProductOf):
            factors.extend(part.factors)
        else:
            factors.append(part)
    kept = [f for f in factors
            if not (isinstance(f, Trivial) and f.coef == GradedPoly.one(f.coef.table))]
    if kept.count(AntipodalSphere(0)) > 1:
        return None  # S(0) x S(0) is two copies of S(0): the product cancels
    if not kept:
        return Trivial(GradedPoly.one(factors[0].coef.table))
    if len(kept) == 1:
        return kept[0]
    return ProductOf(tuple(kept))


def _parse(text, entry):
    """entry(tokens) over the whole of text: tokenize, parse, require the end."""
    toks = _Tokens(text)
    out = entry(toks)
    toks.expect_end()
    return out


def parse_presentation(text, ring):
    """Parse a presentation-ring expression."""
    return _parse(text, lambda toks: _PresentationParser(toks, ring).parse_sum())


def parse_laurent(text, laurent):
    """Parse a Laurent-model expression."""
    return _parse(text, lambda toks: _PolyParser(
        toks, laurent, {'a': laurent.coef.a, 'c': laurent.c},
        ('a<d>', 'c<j>', 'e', 'an integer', '('), e=laurent.e, coef=laurent.coef,
        outside=laurent.table.subscripts['c'], what='e-free degree').parse_sum())


def parse_coefficient(text, coef):
    """Parse a coefficient-ring expression."""
    return _parse(text, lambda toks: _coefficient_parser(toks, coef).parse_sum())


def parse_bundle(text, geometry):
    """Parse a bundle-algebra expression."""
    coef = geometry.coef
    return _parse(text, lambda toks: _PolyParser(
        toks, coef, {'a': coef.a, 'b': geometry.b},
        ('a<d>', 'b<i>', 'an integer', '('), coef=coef,
        outside=coef.table.subscripts['b']).parse_sum())


def parse_manifold(text, coef):
    """Parse a manifold expression to a parity-reduced list of terms."""
    return _parse(text, lambda toks: _ManifoldParser(toks, coef).parse_sum())


class _SpaceParser:
    """Spaces, each refused through coef.check_size before it is built."""

    def __init__(self, toks, coef):
        self.toks = toks
        self.coef = coef

    def capped(self, dim):
        # a space has no N_* part; its dimension is its size
        self.coef.check_size('dimension', dim, 0)

    def parse_space(self):
        factors = [self.parse_atom()]
        while self.toks.at_punct('*'):
            self.toks.advance()
            factors.append(self.parse_atom())
        if len(factors) == 1:
            return factors[0]
        flat = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.capped(sum(f.dim for f in flat))
        return Product(flat)

    def parse_atom(self):
        kind, text, pos = self.toks.peek()
        if kind == 'punct' and text == '(':
            self.toks.advance()
            inner = self.parse_space()
            self.toks.expect_punct(')')
            return inner
        if kind != 'name':
            raise ParseError(pos, ('RP(n)', 'Dold(m,n)', 'PB(base; lines)'),
                             found=text or None)
        self.toks.advance()
        if text == 'RP':
            self.toks.expect_punct('(')
            n = self.toks.expect_int()
            self.toks.expect_punct(')')
            self.capped(n)
            return RP(n)
        if text == 'Dold':
            self.toks.expect_punct('(')
            m = self.toks.expect_int()
            self.toks.expect_punct(',')
            n = self.toks.expect_int()
            self.toks.expect_punct(')')
            self.capped(m + 2 * n)
            return Dold(m, n)
        if text == 'PB':
            self.toks.expect_punct('(')
            base = self.parse_space()
            self.toks.expect_punct(';')
            lines = [self.parse_line(base)]
            while self.toks.at_punct(','):
                self.toks.advance()
                lines.append(self.parse_line(base))
            self.toks.expect_punct(')')
            self.capped(base.dim + len(lines) - 1)
            return ProjBundle(base, lines)
        raise ParseError(pos, ('RP(n)', 'Dold(m,n)', 'PB(base; lines)'), found=text)

    def parse_line(self, base):
        acc = CohomClass.zero(base)
        while True:
            kind, text, pos = self.toks.peek()
            if kind == 'name':
                self.toks.advance()
                acc = acc + base.gen(text)
            elif kind == 'int' and text == '0':
                self.toks.advance()
            else:
                raise ParseError(pos, ('a degree-1 generator name', '0'),
                                 found=text or None)
            if self.toks.at_punct('+'):
                self.toks.advance()
                continue
            return acc


def parse_space(text, coef):
    """Parse a space description: RP, Dold, products, projectivizations."""
    return _parse(text, lambda toks: _SpaceParser(toks, coef).parse_space())
