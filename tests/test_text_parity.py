"""The one-pass reader and the kept monomial texts against the code they replaced.

The reader of the polynomial grammars used to walk its tokens through a
take/skip/expect call per token, key its kept atoms by their text, and
add a sum up term by term; the printers used to spell every monomial
afresh. Both are kept below, as they were, as the reference: on any text
the reader must give the same value or the same error (type, message,
position, expected tokens, token found), and on any value the printers
must give the same bytes. The reference reader runs in a session of its
own, so its atoms are kept apart from the reader's.
"""

import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc.conner_floyd import FreeBZ2Elem, Trivial
from bordcalc.errors import CapacityError, ParseError
from bordcalc.gf2 import GradedPoly, mono_degree
from bordcalc.parsing import parse_bundle, parse_laurent, parse_manifold, parse_presentation
from bordcalc.presentation import FormalMonomial, Presentation, QuotientElem
from bordcalc.session import Session

# --- the reference reader ---------------------------------------------------

_TOKEN = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-^*+(),;]')
_BAD = re.compile(r'[^\sA-Za-z0-9_^*+(),;-]')
_INDEXED = re.compile(r'([A-Za-z])([0-9]+)')


def _integer(digits):
    try:
        return int(digits)
    except ValueError:
        raise CapacityError('an integer of %d digits is past every cap' % len(digits)) from None


class _Tokens:
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
        if idx == len(self.items) - 1:
            return len(self.text)
        return next(itertools.islice(_TOKEN.finditer(self.text), idx, None)).start()

    def error(self, idx, expected):
        return ParseError(self.position(idx), expected, found=self.items[idx] or None)

    def take(self):
        tok = self.items[self.idx]
        if tok:
            self.idx += 1
        return tok

    def skip(self, punct):
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
    def __init__(self, unit, gammas, size, coef, invertible=False):
        self.unit = unit
        self.gammas = gammas
        self.size = size
        self.coef = coef
        self.invertible = invertible


_ZERO = _Monomial(None, (), 0, 0)
_ONE = _Monomial(0, (), 0, 0)


class _PolyParser:
    what = 'dimension'

    def __init__(self, toks, grammar, ring, letters, expected, coef, e=None, outside=(),
                 what=None):
        self.toks = toks
        self.coef = coef
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

    def parse_sum(self):
        toks = self.toks
        acc = self.parse_term()
        while toks.skip('+'):
            acc = acc + self.parse_term()
        return acc

    def parse_term(self):
        toks, check, what = self.toks, self.coef.check_size, self.what
        unit = size = coef = 0
        gammas = []
        other = None
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
                    atom = atom ** k
                other = atom if other is None else other * atom
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
            return self.ring.zero()
        if other is None:
            return self.monomial(unit, gammas)
        return other * self.monomial(unit, gammas) if unit or gammas else other

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
            return _ONE if int(tok[-1]) % 2 else _ZERO
        if tok.isidentifier():
            return self.named_atom(tok, idx)
        raise toks.error(idx, self.expected)

    def parse_call(self):
        self.toks.expect('(')
        inner = self.parse_sum()
        self.toks.expect(')')
        return inner

    def named_atom(self, text, idx):
        if text == 'e' and self.e is not None:
            return self.kept(text, self.e(1), invertible=True)
        m = _INDEXED.fullmatch(text)
        if m and m.group(1) in self.letters:
            return self.kept(text, self.letters[m.group(1)](_integer(m.group(2))))
        raise self.toks.error(idx, self.expected)

    def kept(self, key, value, invertible=False):
        if not value:
            atom = _ZERO
        else:
            unit, gammas = self.packed(next(iter(value.monos)))
            atom = _Monomial(unit, gammas, *self.maxima(value), invertible)
        if atom.size <= self.table.limit:
            self.atoms[self.grammar, key] = atom
        return atom

    def packed(self, m):
        return m, ()

    def monomial(self, unit, gammas):
        return GradedPoly(self.table, frozenset((unit,)))

    def maxima(self, x):
        table, outside = x.table, self.outside
        size = coef = 0
        for m in x.monos:
            s = c = m & table.efree_mask
            if outside:
                for i, k in table.exponents(m):
                    if i in outside:
                        c -= k * table.degrees[i]
            size, coef = max(size, s), max(coef, c)
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


def _reference(text, parser):
    toks = _Tokens(text)
    out = parser(toks).parse_sum()
    toks.expect_end()
    return out


def reference_presentation(text, ring):
    return _reference(text, lambda toks: _PresentationParser(toks, ring))


def reference_laurent(text, laurent):
    return _reference(text, lambda toks: _PolyParser(
        toks, 'laurent', laurent, {'a': laurent.coef.a, 'c': laurent.c},
        ('a<d>', 'c<j>', 'e', 'an integer', '('), laurent.coef, e=laurent.e,
        outside=laurent.table.subscripts['c'], what='e-free degree'))


# --- the reference printers -------------------------------------------------

def _mono_text(table, m):
    if not m:
        return '1'
    names = table.names
    return '*'.join(names[i] if x == 1 else '%s^%d' % (names[i], x)
                    for i, x in table.exponents(m))


def poly_text(x):
    if not x.monos:
        return '0'
    return ' + '.join(_mono_text(x.table, m) for m in sorted(x.monos, reverse=True))


def _factor_text(table, fm):
    parts = []
    if fm.coef:
        parts.append(_mono_text(table, fm.coef))
    names, xs = table.names, table.family['X']
    for i, n in sorted(fm.gammas, key=lambda g: (-g[0], g[1])):
        parts.append(names[xs[n]] if i == 0 else 'G(%d,%d)' % (i, n))
    if fm.epow:
        parts.append('e' if fm.epow == 1 else 'e^%d' % fm.epow)
    return '*'.join(parts) if parts else '1'


def presentation_text(x):
    if not x.monos:
        return '0'
    table = x.table
    monos = sorted(x.monos, key=lambda fm: (fm.gammas, fm.epow, table.exponents(fm.coef)),
                   reverse=True)
    return ' + '.join(_factor_text(table, fm) for fm in monos)


def module_text(x):
    table, own, parts = x.table, x.table.mask(x.family), {}
    for m in x.monos:
        gen = table.pack(table.exponents(m & own))
        parts.setdefault(abs(mono_degree(table, gen)), []).append(m - gen)
    out = []
    for j, coefs in sorted(parts.items()):
        text = poly_text(GradedPoly(table, coefs))
        out.append('%s%d' % (x.symbol, j) if text == '1' else
                   ('%s*%s%d' if len(coefs) == 1 else '(%s)*%s%d') % (text, x.symbol, j))
    return ' + '.join(out) or '0'


# --- the reader against the reference ----------------------------------------

# two sessions per cap: one reads, the other runs the reference, so
# neither finds the other's kept atoms
CAPS = (6, 16)
READER = {cap: Session(cap) for cap in CAPS}
REFERENCE = {cap: Session(cap) for cap in CAPS}

# words of both alphabets and of neither: leading zeros, names past the
# cap or of no generator, calls with whitespace inside or broken, junk
WORDS = ('a2', 'a02', 'a002', 'a3', 'a4', 'a6', 'a8', 'a20', 'X2', 'X03', 'X1', 'X7', 'X17',
         'X18', 'c0', 'c1', 'c01', 'c5', 'c16', 'c17', 'b1', 'e', 'e2', 'E', 'q', '_a', 'a',
         'G', 'Gamma', 'iota', 'gamma', 'P', '0', '1', '2', '07', '11', '^', '^2', '^-', '^-2',
         '^ - 3', '^0', '^10', '*', '+', '-', '(', ')', ',', ';', '$', '#', '.', 'é', '²',
         'G(1,3)', 'G( 1 , 3 )', 'G(0,2)', 'G(2,1)', 'G(12,3)', 'G(1,03)', 'G(1 3)', 'G(1,',
         'G(,2)', 'G(1,2))', 'Gamma(X2)', 'Gamma(G(1,2) + X3)', 'iota(a2 + a4)', 'iota(X2)',
         'iota(e)', '(a2 + X2)', '(c1 + e^-1)', '(X2', 'e^-1', '(1 + e)^2')
SEPARATORS = ('', ' ', '  ', '\t', '*', ' * ', '+', ' + ', '^', '^-')
JUNK = st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)),
                max_size=10).map(lambda pairs: ''.join(w + s for w, s in pairs))
# sums of products of powers, nested in parentheses, in the presentation
# alphabet or the Laurent one
COMMON = ('a2', 'a02', 'a4', 'a6', 'e', '0', '1', '07', '11')
POWERS = st.sampled_from(('', '', '^2', '^0', '^-1', '^-2', ' ^ 3', '^010'))


def _sums(factor):
    return st.lists(st.lists(st.tuples(factor, POWERS).map(''.join), min_size=1, max_size=4)
                    .map('*'.join), min_size=1, max_size=3).map(' + '.join)


def _expressions(words):
    atoms = st.sampled_from(COMMON + words)
    return st.recursive(_sums(atoms), lambda inner: _sums(
        st.one_of(atoms, inner.map('({})'.format))), max_leaves=8)


EXPRESSIONS = st.one_of(
    _expressions(('X2', 'X03', 'X1', 'X7', 'G(1,3)', 'G( 1 , 3 )', 'G(0,2)', 'G(2,1)',
                  'G(1,03)', 'Gamma(X2)', 'iota(a2 + a4)')),
    _expressions(('c0', 'c1', 'c01', 'c5', 'c16')))
TEXTS = st.one_of(JUNK, EXPRESSIONS)


def outcome(read):
    """('value', kind, monomials), or the error's type, text, position, expected and found."""
    try:
        value = read()
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, 'position', None),
                getattr(exc, 'expected', None), getattr(exc, 'found', None))
    return 'value', type(value).__name__, value.monos


def _same(cap, text):
    reader, reference = READER[cap], REFERENCE[cap]
    assert (outcome(lambda: parse_presentation(text, reader.mo))
            == outcome(lambda: reference_presentation(text, reference.mo))), text
    assert (outcome(lambda: parse_laurent(text, reader.laurent))
            == outcome(lambda: reference_laurent(text, reference.laurent))), text


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CAPS), TEXTS)
def test_reader_matches_the_reference(cap, text):
    _same(cap, text)


def test_reader_matches_the_reference_on_long_runs():
    # digit runs past int()'s limit, and long runs it still reads
    long, short = '1' * 5000, '1' * 700
    for text in ('a' + long, 'X2^' + long, 'e^-' + long, 'G(%s,2)' % long, 'G(1,%s)' % long,
                 'c' + long + ' + $', 'X2 + ) ' + long, long, long + '*a2', 'a2^' + short,
                 'X2*' * 300 + 'X2', 'c1*' * 200 + 'e^-' + short, '(a2 + X2)^' + short):
        for cap in CAPS:
            _same(cap, text)


# --- the printers against the reference, and the round trip ------------------

# every value drawn below is within the cap, so each reads back
SESSION = Session(30)
TABLE = SESSION.table
A_DEGREES = (2, 4, 5, 6)


def _poly(terms, one, atom):
    """The sum of the products of atom(word) over each term."""
    out = one - one
    for words in terms:
        term = one
        for word in words:
            term = term * atom(word)
        out = out + term
    return out


COEF_WORDS = st.sampled_from(A_DEGREES)
COEFFICIENTS = st.lists(st.lists(COEF_WORDS, max_size=3), max_size=4).map(
    lambda terms: _poly(terms, SESSION.coef.one(), SESSION.coef.a))
LAURENTS = st.lists(st.tuples(st.lists(st.sampled_from(
    [('a', d) for d in A_DEGREES] + [('c', j) for j in range(1, 7)]), max_size=3),
    st.integers(-5, 3)), max_size=5).map(lambda terms: _poly(
        [words + [('e', k)] for words, k in terms], SESSION.laurent.one(),
        lambda w: (SESSION.coef.a(w[1]) if w[0] == 'a' else SESSION.laurent.c(w[1])
                   if w[0] == 'c' else SESSION.laurent.e(w[1]))))
BUNDLES = st.lists(st.lists(st.sampled_from(
    [('a', d) for d in A_DEGREES] + [('b', i) for i in range(1, 7)]), max_size=3),
    max_size=4).map(lambda terms: _poly(terms, SESSION.coef.one(), lambda w: (
        SESSION.coef.a if w[0] == 'a' else SESSION.geometry.b)(w[1])))
FORMAL = st.tuples(st.lists(COEF_WORDS, max_size=2),
                   st.lists(st.tuples(st.integers(0, 3), st.integers(2, 5)), max_size=2),
                   st.integers(0, 3))
PRESENTATIONS = st.lists(FORMAL, max_size=5).map(lambda fms: Presentation(TABLE, frozenset(
    FormalMonomial(sum(TABLE.units[TABLE.family['a'][d]] for d in coef), tuple(sorted(gs)), k)
    for coef, gs, k in fms)))
# N_*[X_n] components, free of e
COMPONENTS = st.lists(st.lists(st.sampled_from(
    [('a', d) for d in A_DEGREES] + [('X', n) for n in range(2, 6)]), max_size=3),
    min_size=1, max_size=3).map(lambda terms: _poly(terms, SESSION.coef.one(), lambda w: (
        SESSION.coef.a if w[0] == 'a' else SESSION.laurent.X)(w[1])))
QUOTIENTS = st.dictionaries(st.integers(1, 4), COMPONENTS, max_size=3).map(
    lambda parts: QuotientElem(TABLE, parts))
FREE = st.dictionaries(st.integers(0, 5), COEFFICIENTS, max_size=3).map(
    lambda parts: FreeBZ2Elem(TABLE, parts))


@settings(max_examples=150, deadline=None)
@given(COEFFICIENTS, LAURENTS, BUNDLES, PRESENTATIONS, QUOTIENTS, FREE)
def test_printers_match_the_reference(coef, laurent, bundle, pres, quotient, free):
    for x in (coef, laurent, bundle):
        assert x.to_text() == poly_text(x)
    assert pres.to_text() == presentation_text(pres)
    for x in (quotient, free):
        assert x.to_text() == module_text(x)
    # a term's text is one memo entry, whichever value printed it first
    assert all(TABLE.text(m) == _mono_text(TABLE, m) for m in laurent.monos)


@settings(max_examples=150, deadline=None)
@given(COEFFICIENTS, LAURENTS, BUNDLES, PRESENTATIONS)
def test_every_polynomial_grammar_reads_back_its_text(coef, laurent, bundle, pres):
    assert parse_manifold('triv(%s)' % coef.to_text(), SESSION.coef) == (
        {Trivial(coef)} if coef else set())
    assert parse_laurent(laurent.to_text(), SESSION.laurent) == laurent
    assert parse_bundle(bundle.to_text(), SESSION.geometry) == bundle
    assert parse_presentation(pres.to_text(), SESSION.mo) == pres
