"""The Laurent model: localization of projective classes, clearing, windows."""

import pytest

from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.localized import Window, WindowBasis


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
        assert p.uses_only(L._cleared_names)
        assert L.eval_cleared(p) == L.e(n) * x
    with pytest.raises(ContractViolation):
        L.clear_denominators(L.c(1) + L.e(1))


def test_eval_cleared_rejects_foreign_support(sess):
    L = sess.laurent
    with pytest.raises(ContractViolation):
        L.eval_cleared(L.c(1))


def test_window(sess):
    L = sess.laurent
    w = Window(2, -2, 0)
    assert w.admits(L.zero())
    assert w.admits(L.e(-2))
    assert not w.admits(L.loc_P(3))
    with pytest.raises(ContractViolation):
        Window(2, -3, 0)
    with pytest.raises(ContractViolation):
        Window(2, 1, 0)


def test_window_basis(sess):
    L = sess.laurent
    w = Window(2, -2, 0)
    basis = WindowBasis(L, w, [L.loc_P(2), sess.coef.a(2)])
    assert basis.rank == 2
    assert basis.expand(L.loc_P(2) + sess.coef.a(2)) == [1, 1]
    assert basis.expand(L.e(-2)) is None
    with pytest.raises(ContractViolation):
        basis.expand(L.e(-3) * L.c(1))
    with pytest.raises(ContractViolation):
        WindowBasis(L, w, [L.e(-1)])
