"""The Laurent model: localization of projective classes, clearing."""

import pytest

from bordcalc.errors import CapacityError, ContractViolation


def test_loc_p_values(sess):
    L = sess.laurent
    assert not L.loc_P(1)
    assert L.loc_P(2) == L.c(1) * L.e(-1) + L.e(-2)
    assert L.loc_P(2).to_text() == 'c1*e^-1 + e^-2'
    assert L.loc_P(6) == L.c(5) * L.e(-1) + L.e(-6)
    with pytest.raises(ContractViolation):
        L.loc_P(0)


def test_constructor_bounds(sess):
    L = sess.laurent
    assert L.c(0) == L.one()
    with pytest.raises(CapacityError):
        L.c(17)
    assert not L.X(1)
    with pytest.raises(CapacityError):
        L.X(18)


def test_clear_denominators_pinned_values(sess):
    L = sess.laurent
    n, p = L.clear_denominators(L.c(2))
    assert (n, p) == (2, L.e(3) * L.X(3) + L.one())
    n, p = L.clear_denominators(L.e(-1))
    assert (n, p) == (1, L.one())
    n, p = L.clear_denominators(L.loc_P(2))
    assert (n, p) == (2, L.e(2) * L.X(2))


def test_clear_denominators_round_trip(sess):
    L = sess.laurent
    samples = [L.loc_P(3), L.loc_P(2) * L.loc_P(3), L.c(2) * L.e(-4),
               sess.coef.a(2) * L.c(1) * L.e(2), L.loc_P(2) ** 2, L.zero()]
    for x in samples:
        n, p = L.clear_denominators(x)
        assert p.uses_only('aXe')
        assert L.eval_cleared(p) == L.e(n) * x
    with pytest.raises(ContractViolation):
        L.clear_denominators(L.c(1) + L.e(1))


def test_eval_cleared_rejects_foreign_support(sess):
    L = sess.laurent
    with pytest.raises(ContractViolation):
        L.eval_cleared(L.c(1))
