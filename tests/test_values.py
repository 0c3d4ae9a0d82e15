"""Value semantics of the manifold expressions, FormalMonomial and Check.

Each class is compared with a dataclass of the same name and fields, as
the classes were once declared: the same repr, the same hash, and
equality by type and fields.
"""

from dataclasses import make_dataclass

import pytest

from bordcalc.conner_floyd import AntipodalSphere, GammaOf, ProductOf, Proj, Trivial
from bordcalc.errors import ContractViolation
from bordcalc.presentation import FormalMonomial
from bordcalc.verify import Check


def _values(sess):
    """(class, field names, two field tuples) for each of the seven classes."""
    a2 = sess.coef.a(2)
    return [
        (Proj, ('n',), (3,), (4,)),
        (GammaOf, ('inner',), (Proj(3),), (GammaOf(Proj(2)),)),
        (ProductOf, ('factors',), ((Proj(2), AntipodalSphere(1)),), ((Proj(3),),)),
        (Trivial, ('coef',), (a2,), (a2 * a2 + sess.coef.one(),)),
        (AntipodalSphere, ('j',), (0,), (3,)),
        (FormalMonomial, ('coef', 'gammas', 'epow'), (0, ((0, 2), (1, 3)), 2), (5, (), 0)),
        (Check, ('name', 'passed', 'detail'), ('loc: x', True, ''), ('seq: y', False, '2 cases')),
    ]


def test_equal_fields_give_equal_values_and_hashes(sess):
    for cls, _, fields, other in _values(sess):
        x, y = cls(*fields), cls(*fields)
        assert x == y and not x != y and hash(x) == hash(y), cls
        assert cls(*other) != x, cls
        assert hash(x) == hash(fields), cls
        assert len({x, y, cls(*other)}) == 2, cls


def test_reprs_and_hashes_are_the_dataclass_ones(sess):
    for cls, names, fields, other in _values(sess):
        twin = make_dataclass(cls.__name__, names, frozen=True)
        for values in (fields, other):
            assert repr(cls(*values)) == repr(twin(*values)), cls
            assert hash(cls(*values)) == hash(twin(*values)), cls
    assert repr(ProductOf((Proj(2), GammaOf(AntipodalSphere(1))))) == (
        'ProductOf(factors=(Proj(n=2), GammaOf(inner=AntipodalSphere(j=1))))')
    assert repr(FormalMonomial(0, ((1, 2),), 1)) == 'FormalMonomial(coef=0, gammas=((1, 2),), epow=1)'
    assert repr(Check('a', True)) == "Check(name='a', passed=True, detail='')"


def test_expressions_of_different_types_are_unequal(sess):
    assert Proj(3) != AntipodalSphere(3)
    assert hash(Proj(3)) == hash(AntipodalSphere(3))
    assert len({Proj(3), AntipodalSphere(3)}) == 2
    # the parts of gamma and of a product must be expressions themselves
    a2 = sess.coef.a(2)
    assert GammaOf(Trivial(a2)) != Trivial(a2)
    assert ProductOf((Proj(2),)) != GammaOf(Proj(2))
    assert Proj(3) != (3,) and Proj(3) != 3


def test_tuples_compare_as_their_fields():
    # FormalMonomial and Check are tuples: they index, unpack and order
    fm = FormalMonomial(1, ((0, 2),), 3)
    assert fm == (1, ((0, 2),), 3) and fm[2] == 3
    coef, gammas, epow = fm
    assert (coef, gammas, epow) == (fm.coef, fm.gammas, fm.epow)
    assert sorted([FormalMonomial(2, (), 0), fm]) == [fm, (2, (), 0)]
    assert Check('a', False) == ('a', False, '')


def test_validation_is_kept():
    for make in (lambda: Proj(0), lambda: AntipodalSphere(-1), lambda: ProductOf(()),
                 lambda: FormalMonomial(0, (), -1), lambda: FormalMonomial(0, ((0, 1),), 0),
                 lambda: FormalMonomial(0, ((-1, 2),), 0)):
        with pytest.raises(ContractViolation):
            make()
    assert FormalMonomial(0, ((0, 2),), 0).gammas == ((0, 2),)
    assert AntipodalSphere(0).dim == 0
