"""Truncated cohomology, Stiefel-Whitney numbers, class identification."""

import pytest

from bordcalc.charnum import (CohomClass, Dold, Product, ProjBundle, RP, fixed_bundle,
                              identify_in_n, identify_in_nbo1, pair, space_for,
                              sw_numbers)
from bordcalc.conner_floyd import FreeBZ2Elem
from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.session import Session
from test_coefficients import partitions


def test_partitions():
    assert partitions(0) == [()]
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2),
                                     (3, 1), (4,)]


def test_truncation():
    rp2 = RP(2)
    u = rp2.gen('u')
    assert not u ** 3
    assert (CohomClass.one(rp2) + u) ** 3 == CohomClass.one(rp2) + u + u ** 2
    with pytest.raises(ContractViolation):
        rp2.gen('v')


def test_pair():
    rp2 = RP(2)
    assert pair(rp2.gen('u') ** 2, rp2) == 1
    assert pair(rp2.gen('u'), rp2) == 0
    assert pair(CohomClass.one(RP(0)), RP(0)) == 1


def test_sw_numbers_projective_spaces():
    # sw_numbers holds the keys of the numbers that are 1
    assert sw_numbers(RP(2)) == {((1, 1), 0), ((2,), 0)}
    assert not sw_numbers(RP(3))
    nums4 = sw_numbers(RP(4))
    assert ((4,), 0) in nums4
    assert ((1, 1, 1, 1), 0) in nums4
    assert ((2, 2), 0) not in nums4


def test_sw_numbers_dold():
    # P(1, 2) detects a5: only <w3 w2> survives
    assert sw_numbers(Dold(1, 2)) == {((3, 2), 0)}


def test_sw_numbers_with_reference():
    rp2 = RP(2)
    nums = sw_numbers(rp2, rp2.gen('u'))
    assert ((), 2) in nums
    assert ((1,), 1) in nums


def test_product_kunneth():
    square = Product([RP(2), RP(2)])
    assert square.dim == 4
    top = square.factor_gen(1, 'u') ** 2 * square.factor_gen(2, 'u') ** 2
    assert pair(top, square) == 1


def test_identify_in_n(sess):
    coef = sess.coef
    a2, a4, a5 = coef.a(2), coef.a(4), coef.a(5)
    assert identify_in_n(RP(2), coef) == a2
    assert identify_in_n(RP(4), coef) == a4
    assert not identify_in_n(RP(3), coef)
    assert identify_in_n(Dold(1, 2), coef) == a5
    assert identify_in_n(Product([RP(2), RP(2)]), coef) == a2 ** 2
    assert identify_in_n(RP(0), coef) == coef.one()


def test_identify_projectivization(sess):
    # P(gamma + R^3) over RP(2) carries the same numbers as Dold(1, 2)
    base = RP(2)
    lines = [base.gen('u')] + [CohomClass.zero(base)] * 3
    pb = ProjBundle(base, lines)
    assert pb.dim == 5
    assert identify_in_n(pb, sess.coef) == sess.coef.a(5)


def test_trivial_projectivization_is_projective_space(sess):
    base = RP(0)
    pb = ProjBundle(base, [CohomClass.zero(base)] * 5)
    assert identify_in_n(pb, sess.coef) == identify_in_n(RP(4), sess.coef)


def test_identify_in_nbo1_identity_on_projective_spaces(sess):
    for j in (2, 3, 5):
        space = RP(j)
        parts = identify_in_nbo1(space, space.gen('u'), sess.coef)
        assert parts == {j: sess.coef.one()}


def test_identify_in_nbo1_section_class(sess):
    # the boundary of b1*b2: a projectivized sum of tautological lines
    base = Product([RP(0), RP(1)])
    lines = [base.factor_gen(1, 'u'), base.factor_gen(2, 'u')]
    pb = ProjBundle(base, lines)
    parts = identify_in_nbo1(pb, pb.fiber_class(), sess.coef)
    assert parts == {0: sess.coef.a(2), 2: sess.coef.one()}


def test_identify_in_nbo1_does_not_depend_on_cached_rows():
    # two dimension-9 boundary spaces, b4*b3*b3 and b5*b3*b2: each is
    # identified first in a fresh session, where the call builds the
    # rows of its dimension, and then in a session whose rows are cached
    def identify(session, bmult):
        pb = fixed_bundle(bmult)
        assert pb.dim == 9
        parts = identify_in_nbo1(pb, pb.fiber_class(), session.coef)
        return FreeBZ2Elem(session.table, parts).to_text()

    targets = ((4, 3, 3), (5, 3, 2))
    fresh = {bmult: identify(Session(), bmult) for bmult in targets}
    assert fresh[(4, 3, 3)] == '(a2^4 + a8)*s1 + a4*s5 + s9'
    for order in (targets, targets[::-1]):
        session = Session()
        for bmult in order:
            assert identify(session, bmult) == fresh[bmult]


def test_space_for(sess):
    coef = sess.coef
    space = space_for(coef, coef.a(5) * coef.a(2))
    dims = sorted(f.dim for f in space.factors)
    assert dims == [2, 5]
    assert isinstance(space.factors[0], Dold) or isinstance(space.factors[1], Dold)


def test_proj_bundle_contracts():
    base = RP(2)
    with pytest.raises(ContractViolation):
        ProjBundle(base, [])
    with pytest.raises(ContractViolation):
        ProjBundle(base, [base.gen('u') ** 2])
    other = RP(3)
    with pytest.raises(ContractViolation):
        ProjBundle(base, [other.gen('u')])


def test_class_size_cap():
    # a class of RP(1)^k takes 3^k bits; past MAX_CLASS_BITS the space is refused
    assert Product([RP(1)] * 13).dim == 13
    with pytest.raises(CapacityError):
        Product([RP(1)] * 14)
