"""The Laurent model: localization of projective classes, clearing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.session import Session
from bordcalc.verify import ac_monomials
from test_gf2 import termwise_substitute


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


def two_shift_clear(L, x):
    # clear_denominators as it was, as a reference: clear the negative e
    # powers, substitute term by term, then clear the ones the substitution made
    if not x:
        return 0, x
    n1 = max(0, -x.min_inv_exp())
    y = L.e(n1) * x if n1 else x
    if not y.uses_only('ae'):
        y = termwise_substitute(y, {i: L.e(1) * L.X(j + 1) + L.e(-j)
                                    for i, j in L.table.subscripts['c'].items()})
    n2 = max(0, -y.min_inv_exp()) if y else 0
    return n1 + n2, L.e(n2) * y if n2 else y


_SESSION = Session()
_L = _SESSION.laurent
# homogeneous sums of degree d: a and c monomials of degree w times e^(w - d)
_POOLS = [[mono * _L.e(w - d) for w in range(9) for mono in ac_monomials(_L, w)]
          for d in range(-2, 6)]


@given(st.sampled_from(_POOLS).flatmap(lambda pool: st.sets(st.sampled_from(pool), max_size=5)))
def test_one_shift_clearing_matches_the_two_shift_reference(monos):
    x = _L.zero()
    for mono in monos:
        x = x + mono
    n, p = _L.clear_denominators(x)
    assert (n, p) == two_shift_clear(_L, x)
    assert _L.eval_cleared(p) == _L.e(n) * x


def test_clearing_shifts_past_what_the_substitution_cancels():
    # the e^-2 terms of c1^2 and c2 cancel, so no second shift is needed
    x = _L.c(1) ** 2 + _L.c(2)
    assert _L.clear_denominators(x) == two_shift_clear(_L, x) == (0, _L.e(2) * _L.X(2) ** 2
                                                                   + _L.e(1) * _L.X(3))
