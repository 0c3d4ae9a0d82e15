"""Text grammars for ring elements, manifold expressions, and spaces.

All grammars share one tokenizer (names, integers, and the punctuation
^ * + - ( ) , ;). The five expression grammars share one sum/product/power
engine with the usual precedence: ^ binds tightest, then *, then +.
Integers reduce mod 2. Specific atoms per grammar:

  presentation:  a<d>, X<n>, G(i,n), Gamma(expr), iota(expr), e
  laurent:       a<d>, c<j>, e (the only class allowed negative powers)
  coefficient:   a<d>, read inside triv(...)
  bundle:        a<d>, b<i>
  manifold:      P(n), S(j), gamma(expr), triv(coefficient)
  space:         RP(n), Dold(m,n), PB(space; line, ...)

In the polynomial grammars (all but manifold and space) a product of
atoms is one monomial: the names, the G(i,n) and the integers are
monomial atoms, and a run of them, with their powers, adds up exponent
counts, one packed int (and for a presentation a G(i,n) multiset), built
into a value once at the end of the term. Only parenthesized factors,
Gamma(...) and iota(...) are multiplied as sums. A manifold expression
parses to a formal GF(2) sum of terms, a frozenset, with products
distributed over sums and gamma applied termwise. Space products flatten
to a single Product.

The expression grammars obey the degree cap through CoefRing.check_size,
given their terms' maxima, and the space grammar given each space's
dimension before the space is built. The tokenizer keeps token strings
only; the position of a token is found again when a ParseError names it.
"""

import itertools
import re

from .charnum import CohomClass, Dold, ProjBundle, Product, RP
from .conner_floyd import AntipodalSphere, GammaOf, ProductOf, Proj, Trivial
from .errors import CapacityError, ParseError
from .gf2 import GradedPoly, parity, power
from .presentation import FormalMonomial, Presentation

_TOKEN = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-^*+(),;]')
# any character that is neither whitespace nor part of a token
_BAD = re.compile(r'[^\sA-Za-z0-9_^*+(),;-]')


def _integer(digits):
    """int(digits); a run too long for int() to read is past every degree cap."""
    try:
        return int(digits)
    except ValueError:
        raise CapacityError('an integer of %d digits is past every cap' % len(digits)) from None


class _Tokens:
    """The tokens of a text as strings, read left to right; '' is the end.

    A token's text gives its kind: a name is an identifier, an integer is
    digits, and punctuation is one character. A token's position is found
    again, by scanning, only for a ParseError.
    """

    __slots__ = ('text', 'items', 'idx')

    def __init__(self, text):
        bad = _BAD.search(text)
        if bad:
            raise ParseError(bad.start(), ('a name, an integer, or punctuation',),
                             found=bad.group())
        self.text = text
        self.items = _TOKEN.findall(text)
        self.items.append('')
        self.idx = 0

    def position(self, idx):
        """Where token idx starts in the text."""
        if idx == len(self.items) - 1:
            return len(self.text)
        return next(itertools.islice(_TOKEN.finditer(self.text), idx, None)).start()

    def error(self, idx, expected):
        """The ParseError for token idx, when one of expected was due there."""
        return ParseError(self.position(idx), expected, found=self.items[idx] or None)

    def take(self):
        """The next token, consumed unless it is the end."""
        tok = self.items[self.idx]
        if tok:
            self.idx += 1
        return tok

    def skip(self, punct):
        """Whether punct comes next; if so it is consumed."""
        if self.items[self.idx] == punct:
            self.idx += 1
            return True
        return False

    def expect(self, punct):
        if self.items[self.idx] != punct:
            raise self.error(self.idx, ("'%s'" % punct,))
        self.idx += 1

    def expect_int(self):
        tok = self.items[self.idx]
        if not tok.isdigit():
            raise self.error(self.idx, ('an integer',))
        self.idx += 1
        return _integer(tok)

    def expect_end(self):
        if self.items[self.idx]:
            raise self.error(self.idx, ('end of input',))


class _Monomial:
    """A monomial atom: its packed int, its G(i, n) factors, its maxima.

    The packed int is a sum of the table's variable units (a presentation's
    e power on top, as the table lays e out); unit is None for zero.
    invertible marks the one atom that takes negative powers.
    """

    __slots__ = ('unit', 'gammas', 'size', 'coef', 'invertible')

    def __init__(self, unit, gammas, size, coef, invertible=False):
        self.unit = unit
        self.gammas = gammas
        self.size = size
        self.coef = coef
        self.invertible = invertible


_ZERO = _Monomial(None, (), 0, 0)
_ONE = _Monomial(0, (), 0, 0)


class _ElementParser:
    """The one sum/product/power engine; each grammar supplies its atoms.

    + and * between sums go through the add and mul hooks and x^k through
    power, so a grammar changes its values without copying the precedence
    rules. A grammar's atoms are values, or _Monomial atoms that a term
    adds up as exponent counts and builds into one value through monomial.
    Given the CoefRing coef, every atom, every x^k before it is built, and
    every prefix of a product pass coef.check_size with their terms'
    maxima, as if the product were built factor by factor.
    """

    what = 'dimension'  # the size named in CapacityError messages
    # the monomial atoms met before, by (grammar, key); none here
    grammar, atoms = None, {}

    def __init__(self, toks, coef):
        self.toks = toks
        self.coef = coef

    def parse_sum(self):
        toks = self.toks
        acc = self.parse_term()
        while toks.skip('+'):
            acc = self.add(acc, self.parse_term())
        return acc

    def parse_term(self):
        """A product of factors: its monomial atoms as one monomial times the rest.

        The maxima of a prefix are the counts' plus those of the product
        of its other factors, or zero once a factor is zero, as the value
        is; so a zero prefix passes every later prefix check.
        """
        toks, check, what = self.toks, self.coef.check_size, self.what
        unit = size = coef = 0
        gammas = []
        other = None  # the product of the factors that are not monomial atoms
        other_size = other_coef = 0
        zero, first = False, True
        while True:
            atom = self.parse_atom()
            mono = type(atom) is _Monomial
            s, c = (atom.size, atom.coef) if mono else self.maxima(atom)
            check(what, s, c)
            k = 1
            if toks.skip('^'):
                if toks.skip('-'):
                    if not (mono and atom.invertible):
                        raise toks.error(toks.idx - 1, ('a nonnegative exponent',))
                    k = -toks.expect_int()
                else:
                    k = toks.expect_int()
                check(what, k * s, k * c)
            if not mono:
                if k != 1:
                    atom = self.power(atom, k)
                other = atom if other is None else self.mul(other, atom)
                if other:
                    other_size, other_coef = self.maxima(other)
                else:
                    zero = True
            elif atom.unit is None:
                zero = zero or k != 0
            else:
                unit += k * atom.unit
                size += k * s
                coef += k * c
                if atom.gammas:
                    gammas.extend(atom.gammas * k)
            if not (first or zero):
                check(what, size + other_size, coef + other_coef)
            first = False
            if not toks.skip('*'):
                break
        if zero:
            return self.zero()
        if other is None:
            return self.monomial(unit, gammas)
        return self.mul(other, self.monomial(unit, gammas)) if unit or gammas else other

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def power(self, x, k):
        return x ** k

    def integer(self, odd):
        """The atom of an integer, given its parity."""
        return self.one() if odd else self.zero()

    def parse_atom(self):
        toks = self.toks
        idx = toks.idx
        tok = toks.take()
        atom = self.atoms.get((self.grammar, tok))
        if atom is not None:
            self.atoms.hits += 1
            return atom
        if tok == '(':
            inner = self.parse_sum()
            toks.expect(')')
            return inner
        if tok.isdigit():
            return self.integer(int(tok[-1]) % 2)
        if tok.isidentifier():
            return self.named_atom(tok, idx)
        raise toks.error(idx, self.expected)

    def parse_call(self):
        """The parenthesized sum after a function name."""
        self.toks.expect('(')
        inner = self.parse_sum()
        self.toks.expect(')')
        return inner


_INDEXED = re.compile(r'([A-Za-z])([0-9]+)')


class _PolyParser(_ElementParser):
    """Polynomial grammars: indexed atoms <letter><int> from a constructor map.

    ring gives zero() and one(), and grammar names the atoms kept in the
    Memo coef.parsed_atoms across parses; they depend on the cap alone. When e
    is given (the Laurent grammar), the name e is the grammar's one
    invertible atom, and e^-k parses to e(-k). A capped term's size is its
    degree without its e power (its e-free degree, which adds under
    products), and its N_* part also leaves out the variables of outside,
    a family's index -> subscript map from the variable table; what names
    the size.
    """

    def __init__(self, toks, grammar, ring, letters, expected, coef, e=None, outside=(),
                 what=None):
        super().__init__(toks, coef)
        if what is not None:
            self.what = what
        self.ring = ring
        self.table = coef.table
        self.letters = letters
        self.expected = expected
        self.e = e
        self.outside = outside
        self.grammar = grammar
        self.atoms = coef.parsed_atoms

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def integer(self, odd):
        return _ONE if odd else _ZERO

    def named_atom(self, text, idx):
        if text == 'e' and self.e is not None:
            return self.kept(text, self.e(1), invertible=True)
        m = _INDEXED.fullmatch(text)
        if m and m.group(1) in self.letters:
            return self.kept(text, self.letters[m.group(1)](_integer(m.group(2))))
        raise self.toks.error(idx, self.expected)

    def kept(self, key, value, invertible=False):
        """The atom of value, a single term or zero, kept under key for later parses.

        A kept atom's size fits the variable table, so only finitely many
        G(i, n) are kept.
        """
        if not value:
            atom = _ZERO
        else:
            unit, gammas = self.packed(next(iter(value.monos)))
            atom = _Monomial(unit, gammas, *self.maxima(value), invertible)
        if atom.size <= self.table.limit:
            self.atoms[self.grammar, key] = atom
        return atom

    def packed(self, m):
        """(packed int, G(i, n) factors) of a term of the ring."""
        return m, ()

    def monomial(self, unit, gammas):
        """The value of one term, given its packed int."""
        return GradedPoly(self.table, frozenset((unit,)))

    def maxima(self, x):
        # plain loops: every parenthesized factor, and product of them, passes
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


class _PresentationParser(_PolyParser):
    what = 'degree plus e power'
    maxima = staticmethod(Presentation.size)

    def __init__(self, toks, ring):
        super().__init__(
            toks, 'presentation', ring, {'a': lambda d: ring.iota(ring.coef.a(d)), 'X': ring.X},
            ('a<d>', 'X<n>', 'G(i,n)', 'Gamma(...)', 'iota(...)', 'e', 'an integer', '('),
            ring.coef)

    def packed(self, fm):
        # the coefficient has no e power: e's goes on top, where the table puts it
        return fm.coef + (fm.epow << self.table.e_shift), fm.gammas

    def monomial(self, unit, gammas):
        epow = unit >> self.table.e_shift
        fm = FormalMonomial(unit - (epow << self.table.e_shift), tuple(sorted(gammas)), epow)
        return Presentation(self.table, frozenset((fm,)))

    def named_atom(self, text, idx):
        toks = self.toks
        if text == 'e':
            return self.kept(text, self.ring.e(1))
        if text == 'G':
            toks.expect('(')
            i = toks.expect_int()
            toks.expect(',')
            n = toks.expect_int()
            toks.expect(')')
            atom = self.atoms.get((self.grammar, (i, n)))
            if atom is None:
                return self.kept((i, n), self.ring.G(i, n))
            self.atoms.hits += 1
            return atom
        if text == 'Gamma':
            return self.ring.gamma(self.parse_call())
        if text == 'iota':
            inner = self.parse_call()
            if not inner.is_coefficient_only():
                raise ParseError(toks.position(idx), ('a coefficient expression inside iota',))
            return inner
        return super().named_atom(text, idx)


class _ManifoldParser(_ElementParser):
    """Formal GF(2) sums of manifold expressions, each the frozenset of its terms."""

    expected = ('P(n)', 'S(j)', 'gamma(...)', 'triv(...)', 'an integer', '(')

    def zero(self):
        return frozenset()

    def one(self):
        return frozenset((Trivial(GradedPoly.one(self.coef.table)),))

    def add(self, xs, ys):
        return xs ^ ys

    def mul(self, xs, ys):
        return parity(p for p in (_product(x, y) for x in xs for y in ys) if p is not None)

    def power(self, terms, k):
        return power(terms, k, self.one(), self.mul)

    def maxima(self, terms):
        # the N_* part is the triv factors; gamma(M)'s size check covers M's
        size = coef = 0
        for t in terms:
            size = max(size, t.dim)
            factors = t.factors if isinstance(t, ProductOf) else (t,)
            coef = max(coef, sum(f.dim for f in factors if isinstance(f, Trivial)))
        return size, coef

    def named_atom(self, text, idx):
        toks = self.toks
        if text in ('P', 'S'):
            toks.expect('(')
            n = toks.expect_int()
            toks.expect(')')
            return frozenset((Proj(n) if text == 'P' else AntipodalSphere(n),))
        if text == 'gamma':
            return frozenset(map(GammaOf, self.parse_call()))
        if text == 'triv':
            toks.expect('(')
            coef = self.coef
            poly = _PolyParser(toks, 'coefficient', coef, {'a': coef.a},
                               ('a<d>', 'an integer', '('), coef).parse_sum()
            toks.expect(')')
            return frozenset((Trivial(poly),)) if poly else self.zero()
        raise toks.error(idx, self.expected)


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
        toks, 'laurent', laurent, {'a': laurent.coef.a, 'c': laurent.c},
        ('a<d>', 'c<j>', 'e', 'an integer', '('), laurent.coef, e=laurent.e,
        outside=laurent.table.subscripts['c'], what='e-free degree').parse_sum())


def parse_bundle(text, geometry):
    """Parse a bundle-algebra expression."""
    coef = geometry.coef
    return _parse(text, lambda toks: _PolyParser(
        toks, 'bundle', coef, {'a': coef.a, 'b': geometry.b},
        ('a<d>', 'b<i>', 'an integer', '('), coef,
        outside=coef.table.subscripts['b']).parse_sum())


def parse_manifold(text, coef):
    """Parse a manifold expression to the frozenset of its terms, a formal GF(2) sum."""
    return _parse(text, lambda toks: _ManifoldParser(toks, coef).parse_sum())


class _SpaceParser:
    """Spaces, each refused through coef.check_size before it is built."""

    expected = ('RP(n)', 'Dold(m,n)', 'PB(base; lines)')

    def __init__(self, toks, coef):
        self.toks = toks
        self.coef = coef

    def capped(self, dim):
        # a space has no N_* part; its dimension is its size
        self.coef.check_size('dimension', dim, 0)

    def parse_space(self):
        factors = [self.parse_atom()]
        while self.toks.skip('*'):
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
        toks = self.toks
        idx = toks.idx
        text = toks.take()
        if text == '(':
            inner = self.parse_space()
            toks.expect(')')
            return inner
        if text == 'RP':
            toks.expect('(')
            n = toks.expect_int()
            toks.expect(')')
            self.capped(n)
            return RP(n)
        if text == 'Dold':
            toks.expect('(')
            m = toks.expect_int()
            toks.expect(',')
            n = toks.expect_int()
            toks.expect(')')
            self.capped(m + 2 * n)
            return Dold(m, n)
        if text == 'PB':
            toks.expect('(')
            base = self.parse_space()
            toks.expect(';')
            lines = [self.parse_line(base)]
            while toks.skip(','):
                lines.append(self.parse_line(base))
            toks.expect(')')
            self.capped(base.dim + len(lines) - 1)
            return ProjBundle(base, lines)
        raise toks.error(idx, self.expected)

    def parse_line(self, base):
        toks = self.toks
        acc = CohomClass.zero(base)
        while True:
            idx = toks.idx
            text = toks.take()
            if text.isidentifier():
                acc = acc + base.gen(text)
            elif text != '0':
                raise toks.error(idx, ('a degree-1 generator name', '0'))
            if not toks.skip('+'):
                return acc


def parse_space(text, coef):
    """Parse a space description: RP, Dold, products, projectivizations."""
    return _parse(text, lambda toks: _SpaceParser(toks, coef).parse_space())
