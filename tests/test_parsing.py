"""Expression grammars: round trips and error positions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc import gf2
from bordcalc.charnum import Dold, Product, ProjBundle, RP
from bordcalc.coefficients import CoefRing
from bordcalc.conner_floyd import (AntipodalSphere, GammaOf, Proj, ProductOf,
                                   Trivial)
from bordcalc.errors import BordcalcError, CapacityError, ParseError
from bordcalc.parsing import (parse_bundle, parse_laurent, parse_manifold,
                              parse_presentation, parse_space)
from bordcalc.presentation import Presentation
from bordcalc.session import Session


def _syntax_error(parse, text, ring):
    with pytest.raises(ParseError) as err:
        parse(text, ring)
    return err.value


def test_presentation_expressions(sess):
    mo = sess.mo
    assert parse_presentation('e*G(1,2)', mo) == mo.e(1) * mo.G(1, 2)
    assert parse_presentation('X2^2 + a2*X4', mo) == (
        mo.X(2) ** 2 + mo.iota(sess.coef.a(2)) * mo.X(4))
    assert parse_presentation('Gamma(X2)', mo) == mo.gamma(mo.X(2))
    assert parse_presentation('iota(a2 + a4)', mo) == mo.iota(
        sess.coef.a(2) + sess.coef.a(4))
    assert not parse_presentation('X1 + G(3,1)', mo)
    assert parse_presentation('0', mo) == mo.zero()
    assert parse_presentation('(1 + X2)^2', mo) == (mo.one() + mo.X(2)) ** 2


def test_presentation_round_trip(sess):
    mo = sess.mo
    for x in (mo.normal_form(mo.G(1, 2) ** 2),
              mo.e(3) + mo.X(2) * mo.X(3),
              mo.iota(sess.coef.a(2)) * mo.G(2, 4)):
        assert parse_presentation(x.to_text(), mo) == x


def test_presentation_errors(sess):
    mo = sess.mo
    with pytest.raises(ParseError) as err:
        parse_presentation('e^-1', mo)
    assert err.value.position == 2
    err = _syntax_error(parse_presentation, 'X2^-1', mo)
    assert (err.position, err.expected) == (3, ('a nonnegative exponent',))
    with pytest.raises(ParseError):
        parse_presentation('q2', mo)
    with pytest.raises(ParseError):
        parse_presentation('X2 +', mo)
    with pytest.raises(ParseError):
        parse_presentation('iota(e)', mo)
    with pytest.raises(ParseError):
        parse_presentation('G(1 2)', mo)


def test_laurent_expressions(sess):
    L = sess.laurent
    assert parse_laurent('c1*e^-1 + e^-2', L) == L.loc_P(2)
    assert parse_laurent('a2*e^3', L) == sess.coef.a(2) * L.e(3)
    x = L.loc_P(4) * L.loc_P(2) + sess.coef.a(4) * L.e(-2)
    assert parse_laurent(x.to_text(), L) == x
    assert parse_laurent('e^-400', L) == L.e(-400)
    # the e-free degree adds under products and is capped like a size
    assert parse_laurent('c16*c1*e^-3', L) == L.c(16) * L.c(1) * L.e(-3)
    for text in ('c16*c2*e^-20', '(c1 + c2)^9', '(c1+c2+c3+c4+c5)^100000000'):
        with pytest.raises(CapacityError, match='e-free degree'):
            parse_laurent(text, L)
    with pytest.raises(ParseError):
        parse_laurent('X2', L)
    err = _syntax_error(parse_laurent, 'c1^-1', L)
    assert (err.position, err.expected) == (3, ('a nonnegative exponent',))
    err = _syntax_error(parse_laurent, 'c', L)
    assert (err.position, err.expected) == (0, ('a<d>', 'c<j>', 'e', 'an integer', '('))


def test_coefficient_expressions(sess):
    # the coefficient grammar is read inside triv(...) only
    coef = sess.coef
    assert parse_manifold('triv(a2^2 + a4)', coef) == {Trivial(coef.a(2) ** 2 + coef.a(4))}
    assert parse_manifold('triv(1)', coef) == {Trivial(coef.one())}
    err = _syntax_error(parse_manifold, 'triv(e)', coef)
    assert (err.position, err.expected) == (5, ('a<d>', 'an integer', '('))


def test_bundle_expressions(sess):
    geo = sess.geometry
    assert parse_bundle('b1*b2 + a2*b1', geo) == (
        geo.b(1) * geo.b(2) + sess.coef.a(2) * geo.b(1))
    with pytest.raises(ParseError):
        parse_bundle('c1', geo)
    err = _syntax_error(parse_bundle, 'e', geo)
    assert (err.position, err.expected) == (0, ('a<d>', 'b<i>', 'an integer', '('))
    err = _syntax_error(parse_bundle, 'b1^-1', geo)
    assert (err.position, err.expected) == (3, ('a nonnegative exponent',))


def test_manifold_expressions(sess):
    coef = sess.coef
    assert parse_manifold('P(2)', coef) == {Proj(2)}
    assert parse_manifold('gamma(P(3))', coef) == {GammaOf(Proj(3))}
    assert parse_manifold('P(2)*P(3)', coef) == {ProductOf((Proj(2), Proj(3)))}
    assert parse_manifold('S(4)', coef) == {AntipodalSphere(4)}
    assert parse_manifold('triv(a2 + a4)', coef) == {Trivial(coef.a(2) + coef.a(4))}
    # sums are formal GF(2) sums, frozensets of their terms
    assert type(parse_manifold('P(2) + P(3)', coef)) is frozenset
    assert parse_manifold('P(2) + P(2)', coef) == set()
    assert parse_manifold('P(2) + P(3)', coef) == {Proj(2), Proj(3)}
    assert parse_manifold('P(2)^2', coef) == {ProductOf((Proj(2), Proj(2)))}
    assert parse_manifold('gamma(P(2) + P(3))', coef) == {
        GammaOf(Proj(2)), GammaOf(Proj(3))}
    assert parse_manifold('1*P(2)', coef) == {Proj(2)}
    assert parse_manifold('P(2)+P(2)+P(3)+P(2)', coef) == {Proj(2), Proj(3)}
    assert parse_manifold('P(2)+P(3)+P(2)+P(3)+P(3)', coef) == {Proj(3)}
    p2, p3 = Proj(2), Proj(3)
    assert parse_manifold('(P(2)+P(3))*(P(3)+P(2))', coef) == {
        ProductOf((p2, p3)), ProductOf((p2, p2)), ProductOf((p3, p3)),
        ProductOf((p3, p2))}
    err = _syntax_error(parse_manifold, 'P(2)^-1', coef)
    assert (err.position, err.expected) == (5, ('a nonnegative exponent',))
    with pytest.raises(ParseError):
        parse_manifold('RP(2)', coef)
    err = _syntax_error(parse_manifold, 'P(2)*', coef)
    assert (err.position, err.found) == (5, None)
    assert err.expected == ('P(n)', 'S(j)', 'gamma(...)', 'triv(...)', 'an integer', '(')
    # triv takes a coefficient expression
    err = _syntax_error(parse_manifold, 'triv(e)', coef)
    assert (err.position, err.expected) == (5, ('a<d>', 'an integer', '('))
    # P(17) is the largest manifold under the default degree cap 16
    for text in ('P(9)^2', 'triv(a2*a16)*P(2)'):
        with pytest.raises(CapacityError, match='dimension 18'):
            parse_manifold(text, coef)
    assert len(parse_manifold('P(8)^2', coef)) == 1


def test_space_expressions(sess):
    coef = sess.coef
    rp = parse_space('RP(4)', coef)
    assert isinstance(rp, RP) and rp.n == 4
    space = parse_space('RP(2)*Dold(1,2)', coef)
    assert isinstance(space, Product)
    assert [f.dim for f in space.factors] == [2, 5]
    pb = parse_space('PB(RP(2); u, 0)', coef)
    assert isinstance(pb, ProjBundle)
    assert pb.rank == 2
    assert pb.dim == 3
    assert pb.lines[0] == pb.base.gen('u')
    nested = parse_space('PB(RP(1)*RP(1); u1 + u2, 0)', coef)
    assert nested.rank == 2
    with pytest.raises(ParseError):
        parse_space('PB(RP(2))', coef)
    with pytest.raises(ParseError):
        parse_space('X(2)', coef)
    # dimension 17 is the largest under the default degree cap 16, as for
    # manifolds; a space past it is refused before it is built
    for text in ('RP(17)', 'Dold(1,8)', 'RP(9)*RP(8)', 'PB(RP(15); u, 0, 0)'):
        assert parse_space(text, coef).dim == 17
    for text in ('RP(18)', 'Dold(2,8)', 'RP(9)*RP(9)', 'PB(RP(16); u, 0, 0)',
                 '(RP(6)*RP(6))*RP(6)'):
        with pytest.raises(CapacityError, match='dimension 18'):
            parse_space(text, coef)


def test_parse_error_reporting(sess):
    with pytest.raises(ParseError) as err:
        parse_presentation('X2 + *', sess.mo)
    exc = err.value
    assert exc.position == 5
    assert 'a<d>' in exc.expected
    assert 'position 5' in str(exc)
    with pytest.raises(ParseError) as err:
        parse_presentation('X2 ?', sess.mo)
    assert err.value.position == 3
    # a bad character after whitespace is reported where it stands
    err = _syntax_error(parse_presentation, 'X2 + $', sess.mo)
    assert (err.position, err.found) == (5, '$')


# --- a product of atoms against ring arithmetic -----------------------------
#
# An expression is a list of terms, a term a list of (atom, exponent or
# None) factors, an atom an int, a name, a G(i, n) pair or a parenthesized
# expression. The reference builds each term factor by factor with ring
# arithmetic and applies the cap rule as the grammar states it: to every
# atom, to x^k before it is built, and to every prefix of a product.

SESSIONS = {cap: Session(cap) for cap in (6, 16)}
# a3 and a7 do not exist, and a8 past cap 6 and X18 past cap 16 are refused
A_DEGREES = (2, 3, 4, 5, 6, 7, 8, 9)


_POWERS = st.one_of(st.none(), st.integers(0, 3))


def _expressions(factors):
    """Sums of products of the (atom, exponent) factors, nested in parentheses."""
    def sums(factor):
        return st.lists(st.lists(factor, min_size=1, max_size=4), min_size=1, max_size=3)
    return st.recursive(sums(factors), lambda inner: sums(st.one_of(
        factors, st.tuples(inner.map(lambda x: ('(', x)), _POWERS))), max_leaves=8)


PRESENTATIONS = _expressions(st.tuples(st.one_of(
    st.integers(0, 3),
    st.sampled_from(['e'] + ['a%d' % d for d in A_DEGREES]
                    + ['X%d' % n for n in range(1, 19)]),
    st.tuples(st.integers(0, 4), st.integers(1, 9))), _POWERS))
# e alone takes negative powers
LAURENTS = _expressions(st.one_of(
    st.tuples(st.one_of(st.integers(0, 3),
                        st.sampled_from(['a%d' % d for d in A_DEGREES]
                                        + ['c%d' % j for j in range(0, 18)])), _POWERS),
    st.tuples(st.just('e'), st.one_of(st.none(), st.integers(-3, 3)))))


def _text(expr, space):
    terms = []
    for factors in expr:
        words = []
        for atom, k in factors:
            if isinstance(atom, int):
                word = str(atom)
            elif isinstance(atom, str):
                word = atom
            elif atom[0] == '(':
                word = '(%s)' % _text(atom[1], space)
            else:
                word = 'G(%d,%d)' % atom
            words.append(word if k is None else '%s^%d' % (word, k))
        terms.append((space + '*' + space).join(words))
    return (space + '+' + space).join(terms)


def _maxima(x, outside):
    """(size, N_* size) of a sum from its decoded terms, as the cap rule reads them."""
    table = x.table
    size = coef = 0
    for term in x.monos:
        if isinstance(term, int):
            pairs, extra = table.exponents(term), 0
        else:  # a formal monomial: its G(i, n) add to the size, not to N_*
            pairs, extra = table.exponents(term.coef), sum(i + n for i, n in term.gammas)
        s = sum(k * table.degrees[i] for i, k in pairs if i != table.invertible)
        c = s - sum(k * table.degrees[i] for i, k in pairs if i in outside)
        size, coef = max(size, s + extra), max(coef, c)
    return size, coef


def _reference(expr, atom_value, ring, what, outside):
    check = ring.coef.check_size

    def capped(x, k=1):
        size, coef = _maxima(x, outside)
        check(what, k * size, k * coef)

    def value(expr):
        acc = ring.zero()
        for factors in expr:
            term = None
            for atom, k in factors:
                x = value(atom[1]) if isinstance(atom, tuple) and atom[0] == '(' else atom_value(atom)
                capped(x)
                if k is not None:
                    capped(x, k)
                    x = ring.e(k) if k < 0 else x ** k
                if term is not None:
                    term = term * x
                    capped(term)
                else:
                    term = x
            acc = acc + term
        return acc
    return value(expr)


def _outcome(build):
    try:
        return 'value', build()
    except BordcalcError as exc:
        return type(exc).__name__, str(exc)


def _presentation_atom(mo):
    def atom(a):
        if isinstance(a, int):
            return mo.one() if a % 2 else mo.zero()
        if isinstance(a, tuple):
            return mo.G(*a)
        if a == 'e':
            return mo.e(1)
        if a[0] == 'a':
            return mo.iota(mo.coef.a(int(a[1:])))
        return mo.X(int(a[1:]))
    return atom


def _laurent_atom(L):
    def atom(a):
        if isinstance(a, int):
            return L.one() if a % 2 else L.zero()
        if a == 'e':
            return L.e(1)
        return (L.coef.a if a[0] == 'a' else L.c)(int(a[1:]))
    return atom


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SESSIONS)), PRESENTATIONS, st.sampled_from(['', ' ']))
def test_presentation_terms_match_ring_arithmetic(cap, expr, space):
    mo = SESSIONS[cap].mo
    text = _text(expr, space)
    got = _outcome(lambda: parse_presentation(text, mo))
    want = _outcome(lambda: _reference(expr, _presentation_atom(mo), mo,
                                       'degree plus e power', ()))
    assert got == want, text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SESSIONS)), LAURENTS, st.sampled_from(['', ' ']))
def test_laurent_terms_match_ring_arithmetic(cap, expr, space):
    L = SESSIONS[cap].laurent
    text = _text(expr, space)
    got = _outcome(lambda: parse_laurent(text, L))
    want = _outcome(lambda: _reference(expr, _laurent_atom(L), L, 'e-free degree',
                                       L.table.subscripts['c']))
    assert got == want, text


def test_a_product_of_atoms_is_one_monomial(monkeypatch):
    # a run of monomial atoms multiplies no sums and checks the cap at
    # every atom, every power and every prefix; the first parse of a
    # fresh session also builds its atoms, and G(i, n), i >= 1, checks its
    # own size as it is built: one check more per G atom. The presentation
    # has size 21, admitted at cap 24; at cap 16 its last prefix is refused
    counts = {}

    def counted(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    # each kind of sum multiplies on its own: count the products of both
    for cls in (gf2.GradedPoly, Presentation):
        monkeypatch.setattr(cls, '__mul__', counted('mul', cls.__mul__))
    monkeypatch.setattr(CoefRing, 'check_size', counted('check_size', CoefRing.check_size))
    big, sess = Session(24), Session()
    product = 'X3*X3*G(1,3)*G(2,5)*a2^2*e'
    cases = [(parse_presentation, big.mo, product, (2 + 6 + 1 + 5, 6 + 1 + 5)),
             (parse_presentation, sess.mo, product, (2 + 10, 10)),
             (parse_laurent, sess.laurent, 'a2^2*c5*e^-3', (3 + 2 + 2, 3 + 2 + 2))]
    values = []
    for parse, ring, text, checks in cases:
        for want in checks:
            counts.update(mul=0, check_size=0)
            values.append(_outcome(lambda: parse(text, ring)))
            assert counts == {'mul': 0, 'check_size': want}, text
    monkeypatch.undo()
    mo, L = big.mo, sess.laurent
    assert values[::2] == [
        ('value', mo.X(3) * mo.X(3) * mo.G(1, 3) * mo.G(2, 5) * mo.iota(big.coef.a(2)) ** 2
         * mo.e(1)),
        ('CapacityError', 'degree plus e power 21 exceeds 17, the largest under the '
                          'degree cap 16'),
        ('value', sess.coef.a(2) ** 2 * L.c(5) * L.e(-3))]
    assert values[1::2] == values[::2]


@pytest.mark.parametrize('parse,ring', [(parse_presentation, 'mo'), (parse_laurent, 'laurent')])
def test_error_positions_from_the_tokens(sess, parse, ring):
    ring = getattr(sess, ring)
    # a bad character deep in a text, after whitespace runs and long integers
    text = 'a2 *   1234567 +    a4^10    +  (  a2  +  123456789 )   *  a6 + $ a2'
    err = _syntax_error(parse, text, ring)
    assert (err.position, err.found) == (text.index('$'), '$')
    assert err.position > 40
    assert err.expected == ('a name, an integer, or punctuation',)
    # the end of input, after whitespace
    err = _syntax_error(parse, 'a2 +  ', ring)
    assert (err.position, err.found) == (6, None)
    err = _syntax_error(parse, 'a2^  ', ring)
    assert (err.position, err.found, err.expected) == (5, None, ('an integer',))


def test_error_positions_around_g(sess):
    mo, L = sess.mo, sess.laurent
    err = _syntax_error(parse_presentation, 'X2 + 11 *  G(12,3)  G(1,2)', mo)
    assert (err.position, err.found, err.expected) == (20, 'G', ('end of input',))
    err = _syntax_error(parse_presentation, 'a2 * G(12,3 4)', mo)
    assert (err.position, err.found, err.expected) == (12, '4', ("')'",))
    err = _syntax_error(parse_presentation, 'G(1, 2) ^ (', mo)
    assert (err.position, err.found, err.expected) == (10, '(', ('an integer',))
    err = _syntax_error(parse_presentation, 'G(1,', mo)
    assert (err.position, err.found, err.expected) == (4, None, ('an integer',))
    # G is no Laurent atom; a token after a whole product is unexpected too
    err = _syntax_error(parse_laurent, 'c1 + G(1,2)', L)
    assert (err.position, err.found) == (5, 'G')
    err = _syntax_error(parse_laurent, 'c1*e^-12  c2', L)
    assert (err.position, err.found, err.expected) == (10, 'c2', ('end of input',))
    err = _syntax_error(parse_presentation, 'a2 + iota(X2)', mo)
    assert (err.position, err.found) == (5, None)
    assert err.expected == ('a coefficient expression inside iota',)


def test_refusal_texts(sess):
    with pytest.raises(CapacityError) as err:
        parse_presentation('X9*X9', sess.mo)
    assert str(err.value) == ('degree plus e power 18 exceeds 17, the largest under '
                              'the degree cap 16')
    for text, size in (('c16*c2', 18), ('(c1+c2+c3+c4+c5)^100000000', 500000000)):
        with pytest.raises(CapacityError) as err:
            parse_laurent(text, sess.laurent)
        assert str(err.value) == ('e-free degree %d exceeds 17, the largest under '
                                  'the degree cap 16' % size)
    # c16*c1 has e-free degree 17, which the grammar admits; membership
    # refuses its N_* part
    target = parse_laurent('c16*c1', sess.laurent)
    with pytest.raises(CapacityError) as err:
        sess.mo.member(target)
    assert str(err.value) == ('membership target of degree 17: coefficient degree 17 '
                              'exceeds the degree cap 16')
