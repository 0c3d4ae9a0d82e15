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

The reader walks the token list once, left to right, passing the index
of the next token from rule to rule; a call such as G(i,n) or RP(n) is
read in one step. Each grammar is a class whose letters, constructors
and expected tokens are fixed once, in its definition.

In the polynomial grammars (all but manifold and space) a product of
atoms is one monomial: the names, the G(i,n) and the integers are
monomial atoms, and a run of them, with their powers, adds up exponent
counts, one packed int (and for a presentation a G(i,n) multiset), built
into a monomial once at the end of the term. Only parenthesized factors,
Gamma(...) and iota(...) are multiplied as sums. The terms of a sum are
gathered and reduced mod 2 once, at its end. A manifold expression
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
    """The tokens of a text as strings, then '' for the end, at index end.

    A token's text gives its kind: a name is an identifier, an integer is
    digits, and punctuation is one character. The rules read items by
    index and never past the '', and read digits through _integer. A
    token's position is found again, by scanning, only for a ParseError.
    """

    __slots__ = ('text', 'items', 'end')

    def __init__(self, text):
        bad = _BAD.search(text)
        if bad:
            raise ParseError(bad.start(), ('a name, an integer, or punctuation',),
                             found=bad.group())
        self.text = text
        self.items = _TOKEN.findall(text)
        self.end = len(self.items)
        self.items.append('')

    def position(self, idx):
        """Where token idx starts in the text."""
        if idx == self.end:
            return len(self.text)
        return next(itertools.islice(_TOKEN.finditer(self.text), idx, None)).start()

    def error(self, idx, expected):
        """The ParseError for token idx, when one of expected was due there."""
        return ParseError(self.position(idx), expected, found=self.items[idx] or None)

    def whole(self, value, idx):
        """value, read from the whole text when token idx is the end."""
        if idx != self.end:
            raise self.error(idx, ('end of input',))
        return value

    def expect(self, idx, punct):
        """idx + 1, when token idx is punct."""
        if self.items[idx] != punct:
            raise self.error(idx, ("'%s'" % punct,))
        return idx + 1

    def ints(self, idx, count):
        """The count integers of '(' int, ... ')' from token idx, and the index after it."""
        items, out, punct = self.items, [], '('
        for _ in range(count):
            if items[idx] != punct:
                raise self.error(idx, ("'%s'" % punct,))
            digits = items[idx + 1]
            if not digits.isdigit():
                raise self.error(idx + 1, ('an integer',))
            out.append(_integer(digits))
            idx += 2
            punct = ','
        return tuple(out), self.expect(idx, ')')


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

    Every rule takes the index of its first token and returns what it
    read with the index after it. A sum gathers the monomials of all its
    terms (monos of a value) and reduces them mod 2 once, into a value
    (of); * between sums goes through mul and x^k through power, so a
    grammar changes its values without copying the precedence rules.

    A grammar's atoms are values, or _Monomial atoms that a term adds up
    as exponent counts and builds into one monomial through monomial.
    The sum reads the atoms a polynomial grammar keeps, by (grammar,
    name, subscript) in atoms, itself: <letter><int> for a letter of
    letters, the name e, and the call pair(i,n); every other atom is
    parse_atom's. Given the CoefRing coef, every atom, every x^k before
    it is built, and every prefix of a product pass coef.check_size with
    their terms' maxima, as if the product were built factor by factor.
    """

    what = 'dimension'  # the size named in CapacityError messages
    # the kept atoms' names, and the Memo that keeps them; none here
    grammar = atoms = e = pair = None
    letters = ''

    def __init__(self, toks, coef):
        self.toks = toks
        self.items = toks.items
        self.coef = coef

    def parse_sum(self, i):
        """A sum of products of factors, and the index after it.

        A term's monomial atoms make one monomial, times the product of
        its other factors. The maxima of a prefix are the counts' plus
        those of the product of its other factors, or zero once a factor
        is zero, as the value is; so a zero prefix passes every later
        prefix check.
        """
        items, toks, check, what = self.items, self.toks, self.coef.check_size, self.what
        atoms, grammar, letters, e, pair = self.atoms, self.grammar, self.letters, self.e, self.pair
        monos = []
        while True:
            unit = size = coef = 0
            gammas = []
            other = None  # the product of the factors that are not monomial atoms
            other_size = other_coef = 0
            zero, first = False, True
            while True:
                tok = items[i]
                digits = tok[1:]
                if digits.isdigit() and tok[0] in letters:
                    key = (grammar, tok[0], _integer(digits))
                    i += 1
                elif tok == e:
                    key = (grammar, tok, None)
                    i += 1
                elif tok == pair:
                    sub, i = toks.ints(i + 1, 2)
                    key = (grammar, tok, sub)
                else:
                    key = None
                    atom, i = self.parse_atom(i)
                if key is not None:
                    atom = atoms.get(key)
                    if atom is None:
                        atom = self.kept(key)
                    else:
                        atoms.hits += 1
                mono = type(atom) is _Monomial
                s, c = (atom.size, atom.coef) if mono else self.maxima(atom)
                check(what, s, c)
                k = 1
                if items[i] == '^':
                    i += 1
                    negative = items[i] == '-'
                    if negative:
                        if not (mono and atom.invertible):
                            raise toks.error(i, ('a nonnegative exponent',))
                        i += 1
                    digits = items[i]
                    if not digits.isdigit():
                        raise toks.error(i, ('an integer',))
                    k = -_integer(digits) if negative else _integer(digits)
                    i += 1
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
                if items[i] != '*':
                    break
                i += 1
            if not zero and other is None:
                monos.append(self.monomial(unit, gammas))
            elif not zero:
                if unit or gammas:
                    other = self.mul(other, self.of((self.monomial(unit, gammas),)))
                monos.extend(self.monos(other))
            if items[i] != '+':
                break
            i += 1
        return self.of(parity(monos) if len(monos) > 1 else monos), i

    def mul(self, x, y):
        return x * y

    def power(self, x, k):
        return x ** k

    def integer(self, odd):
        """The atom of an integer, given its parity."""
        return self.one() if odd else self.zero()

    def parse_atom(self, i):
        tok = self.items[i]
        if tok == '(':
            inner, i = self.parse_sum(i + 1)
            return inner, self.toks.expect(i, ')')
        if tok.isdigit():
            return self.integer(int(tok[-1]) % 2), i + 1
        if tok.isidentifier():
            return self.named_atom(tok, i)
        raise self.toks.error(i, self.expected)

    def named_atom(self, text, idx):
        raise self.toks.error(idx, self.expected)

    def parse_call(self, i):
        """The parenthesized sum at token i, after a function name."""
        inner, i = self.parse_sum(self.toks.expect(i, '('))
        return inner, self.toks.expect(i, ')')


class _PolyParser(_ElementParser):
    """Polynomial grammars: the atoms the sum keeps, built by build(name, subscript).

    ring is the grammar's ring. The atoms are kept in the Memo
    coef.parsed_atoms across parses, by (grammar, name, subscript): a
    letter of letters and its int, e and None, or pair and its (i, n).
    They depend on the cap alone. When invertible is 'e', e is the
    grammar's one invertible atom, and e^-k parses to e(-k). A capped
    term's size is its degree without its e power (its e-free degree,
    which adds under products), and its N_* part also leaves out the
    variables of the family outside.
    """

    kind = GradedPoly
    invertible = outside = None

    def __init__(self, toks, ring, coef):
        self.toks = toks
        self.items = toks.items
        self.ring = ring
        self.coef = coef
        self.table = coef.table
        self.atoms = coef.parsed_atoms

    def of(self, monos):
        return self.kind(self.table, monos)

    @staticmethod
    def monos(x):
        return x.monos

    def integer(self, odd):
        return _ONE if odd else _ZERO

    def kept(self, key):
        """The atom of build(name, subscript), a single term or zero, for key =
        (grammar, name, subscript); kept under key for later parses when its
        size fits the variable table, so only finitely many G(i, n) are kept.
        """
        _, name, sub = key
        value = self.build(name, sub)
        if not value:
            atom = _ZERO
        else:
            unit, gammas = self.packed(next(iter(value.monos)))
            atom = _Monomial(unit, gammas, *self.maxima(value), name == self.invertible)
        if atom.size <= self.table.limit:
            self.atoms[key] = atom
        return atom

    def packed(self, m):
        """(packed int, G(i, n) factors) of a term of the ring."""
        return m, ()

    def monomial(self, unit, gammas):
        """One term, given its packed int."""
        return unit

    def maxima(self, x):
        # plain loops: every parenthesized factor, and product of them, passes
        table = x.table
        skipped = table.subscripts[self.outside] if self.outside else ()
        mask, deg = table.efree_mask, table.degrees
        size = coef = 0
        for m in x.monos:
            # the degree field is the e-free degree
            s = c = m & mask
            if skipped:
                for i, k in table.exponents(m):
                    if i in skipped:
                        c -= k * deg[i]
            size = s if s > size else size
            coef = c if c > coef else coef
        return size, coef


class _CoefficientParser(_PolyParser):
    grammar, letters = 'coefficient', 'a'
    expected = ('a<d>', 'an integer', '(')

    def build(self, name, sub):
        return self.coef.a(sub)


class _BundleParser(_PolyParser):
    grammar, letters, outside = 'bundle', 'ab', 'b'
    expected = ('a<d>', 'b<i>', 'an integer', '(')

    def build(self, name, sub):
        return self.coef.a(sub) if name == 'a' else self.ring.b(sub)


class _LaurentParser(_PolyParser):
    grammar, letters, e, invertible, outside = 'laurent', 'ac', 'e', 'e', 'c'
    expected = ('a<d>', 'c<j>', 'e', 'an integer', '(')
    what = 'e-free degree'

    def build(self, name, sub):
        if name == 'e':
            return self.ring.e(1)
        return self.coef.a(sub) if name == 'a' else self.ring.c(sub)


class _PresentationParser(_PolyParser):
    grammar, letters, e, pair = 'presentation', 'aX', 'e', 'G'
    expected = ('a<d>', 'X<n>', 'G(i,n)', 'Gamma(...)', 'iota(...)', 'e', 'an integer', '(')
    what = 'degree plus e power'
    kind = Presentation
    maxima = staticmethod(Presentation.size)

    def build(self, name, sub):
        ring = self.ring
        if name == 'G':
            return ring.G(*sub)
        if name == 'e':
            return ring.e(1)
        return ring.iota(self.coef.a(sub)) if name == 'a' else ring.X(sub)

    def packed(self, fm):
        # the coefficient has no e power: e's goes on top, where the table puts it
        return fm.coef + (fm.epow << self.table.e_shift), fm.gammas

    def monomial(self, unit, gammas):
        # every atom's factors are valid and its e power nonnegative
        epow = unit >> self.table.e_shift
        return tuple.__new__(FormalMonomial, (unit - (epow << self.table.e_shift),
                                              tuple(sorted(gammas)) if gammas else (), epow))

    def named_atom(self, text, idx):
        if text == 'Gamma':
            inner, end = self.parse_call(idx + 1)
            return self.ring.gamma(inner), end
        if text == 'iota':
            inner, end = self.parse_call(idx + 1)
            if not inner.is_coefficient_only():
                raise ParseError(self.toks.position(idx), ('a coefficient expression inside iota',))
            return inner, end
        return super().named_atom(text, idx)


class _ManifoldParser(_ElementParser):
    """Formal GF(2) sums of manifold expressions, each the frozenset of its terms."""

    expected = ('P(n)', 'S(j)', 'gamma(...)', 'triv(...)', 'an integer', '(')
    of = staticmethod(frozenset)

    @staticmethod
    def monos(terms):
        return terms

    def zero(self):
        return frozenset()

    def one(self):
        return frozenset((Trivial(GradedPoly.one(self.coef.table)),))

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
        if text in ('P', 'S'):
            (n,), end = self.toks.ints(idx + 1, 1)
            return frozenset((Proj(n) if text == 'P' else AntipodalSphere(n),)), end
        if text == 'gamma':
            inner, end = self.parse_call(idx + 1)
            return frozenset(map(GammaOf, inner)), end
        if text == 'triv':
            poly, end = _CoefficientParser(self.toks, self.coef, self.coef).parse_call(idx + 1)
            return (frozenset((Trivial(poly),)) if poly else self.zero()), end
        raise self.toks.error(idx, self.expected)


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


def parse_presentation(text, ring):
    """Parse a presentation-ring expression."""
    toks = _Tokens(text)
    return toks.whole(*_PresentationParser(toks, ring, ring.coef).parse_sum(0))


def parse_laurent(text, laurent):
    """Parse a Laurent-model expression."""
    toks = _Tokens(text)
    return toks.whole(*_LaurentParser(toks, laurent, laurent.coef).parse_sum(0))


def parse_bundle(text, geometry):
    """Parse a bundle-algebra expression."""
    toks = _Tokens(text)
    return toks.whole(*_BundleParser(toks, geometry, geometry.coef).parse_sum(0))


def parse_manifold(text, coef):
    """Parse a manifold expression to the frozenset of its terms, a formal GF(2) sum."""
    toks = _Tokens(text)
    return toks.whole(*_ManifoldParser(toks, coef).parse_sum(0))


class _SpaceParser:
    """Spaces, each refused through coef.check_size before it is built."""

    expected = ('RP(n)', 'Dold(m,n)', 'PB(base; lines)')

    def __init__(self, toks, coef):
        self.toks = toks
        self.items = toks.items
        self.coef = coef

    def capped(self, dim):
        # a space has no N_* part; its dimension is its size
        self.coef.check_size('dimension', dim, 0)

    def parse_space(self, i):
        factor, i = self.parse_atom(i)
        factors = [factor]
        while self.items[i] == '*':
            factor, i = self.parse_atom(i + 1)
            factors.append(factor)
        if len(factors) == 1:
            return factors[0], i
        flat = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.capped(sum(f.dim for f in flat))
        return Product(flat), i

    def parse_atom(self, i):
        toks, text = self.toks, self.items[i]
        if text == '(':
            inner, i = self.parse_space(i + 1)
            return inner, toks.expect(i, ')')
        if text == 'RP':
            (n,), i = toks.ints(i + 1, 1)
            self.capped(n)
            return RP(n), i
        if text == 'Dold':
            (m, n), i = toks.ints(i + 1, 2)
            self.capped(m + 2 * n)
            return Dold(m, n), i
        if text == 'PB':
            base, i = self.parse_space(toks.expect(i + 1, '('))
            line, i = self.parse_line(base, toks.expect(i, ';'))
            lines = [line]
            while self.items[i] == ',':
                line, i = self.parse_line(base, i + 1)
                lines.append(line)
            i = toks.expect(i, ')')
            self.capped(base.dim + len(lines) - 1)
            return ProjBundle(base, lines), i
        raise toks.error(i, self.expected)

    def parse_line(self, base, i):
        acc = CohomClass.zero(base)
        while True:
            text = self.items[i]
            if text.isidentifier():
                acc = acc + base.gen(text)
            elif text != '0':
                raise self.toks.error(i, ('a degree-1 generator name', '0'))
            i += 1
            if self.items[i] != '+':
                return acc, i
            i += 1


def parse_space(text, coef):
    """Parse a space description: RP, Dold, products, projectivizations."""
    toks = _Tokens(text)
    return toks.whole(*_SpaceParser(toks, coef).parse_space(0))
