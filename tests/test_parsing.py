"""Expression grammars: round trips and error positions."""

import pytest

from bordcalc.charnum import Dold, Product, ProjBundle, RP
from bordcalc.conner_floyd import (AntipodalSphere, GammaOf, Proj, ProductOf,
                                   Trivial)
from bordcalc.errors import CapacityError, ParseError
from bordcalc.parsing import (parse_bundle, parse_coefficient, parse_laurent,
                              parse_manifold, parse_presentation, parse_space)


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
    coef = sess.coef
    assert parse_coefficient('a2^2 + a4', coef) == coef.a(2) ** 2 + coef.a(4)
    assert parse_coefficient('1', coef) == coef.one()
    err = _syntax_error(parse_coefficient, 'e', coef)
    assert (err.position, err.expected) == (0, ('a<d>', 'an integer', '('))


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
    assert parse_manifold('P(2)', coef) == [Proj(2)]
    assert parse_manifold('gamma(P(3))', coef) == [GammaOf(Proj(3))]
    assert parse_manifold('P(2)*P(3)', coef) == [ProductOf((Proj(2), Proj(3)))]
    assert parse_manifold('S(4)', coef) == [AntipodalSphere(4)]
    assert parse_manifold('triv(a2 + a4)', coef) == [Trivial(coef.a(2) + coef.a(4))]
    # sums are formal and parity-reduced
    assert parse_manifold('P(2) + P(2)', coef) == []
    assert parse_manifold('P(2) + P(3)', coef) == [Proj(2), Proj(3)]
    assert parse_manifold('P(2)^2', coef) == [ProductOf((Proj(2), Proj(2)))]
    assert parse_manifold('gamma(P(2) + P(3))', coef) == [
        GammaOf(Proj(2)), GammaOf(Proj(3))]
    assert parse_manifold('1*P(2)', coef) == [Proj(2)]
    # the first occurrence fixes a term's place; each sum is reduced once
    assert parse_manifold('P(2)+P(2)+P(3)+P(2)', coef) == [Proj(2), Proj(3)]
    assert parse_manifold('P(2)+P(3)+P(2)+P(3)+P(3)', coef) == [Proj(3)]
    p2, p3 = Proj(2), Proj(3)
    assert parse_manifold('(P(2)+P(3))*(P(3)+P(2))', coef) == [
        ProductOf((p2, p3)), ProductOf((p2, p2)), ProductOf((p3, p3)),
        ProductOf((p3, p2))]
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
