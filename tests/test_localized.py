"""The Laurent model: localization of projective classes, clearing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.gf2 import GradedPoly
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


# The clearing maps at two caps against a term-by-term reference: each term
# decoded, its c_j or X_n factors replaced by the GradedPoly images, the
# pieces multiplied out and added up.

class _Reference:
    def __init__(self, cap):
        self.session = Session(cap)
        L, table = self.session.laurent, self.session.table
        self.L, self.table = L, table
        self.clearing = {i: L.e(1) * L.X(j + 1) + L.e(-j) for i, j in table.subscripts['c'].items()}
        self.evaluation = {i: L.loc_P(n) for i, n in table.subscripts['X'].items()}
        a = self.session.coef.generators
        c = tuple(table.family['c'].values())
        x = tuple(table.family['X'].values())
        # homogeneous clearing inputs: monomials of one e-free degree w; near
        # the table's limit a c1 or c2 carries its image past it
        near = table.limit - 2, table.limit
        self.ac = {w: table.monomials(w, a + c) for w in range(cap + 1)}
        self.ac.update({w: table.monomials(w, (a[0],) + c[:2]) for w in near})
        self.ax = [m for w in range(cap + 2) for m in table.monomials(w, a[:2] + x)]
        self.ax += [m for w in near for m in table.monomials(w, (a[0],) + x[:2])]

    def clear(self, x):
        if not x:
            return 0, x
        y = termwise_substitute(x, self.clearing)
        n = max(0, -x.min_inv_exp(), -y.min_inv_exp())
        return n, self.L.e(n) * y

    def evaluate(self, p):
        return termwise_substitute(p, self.evaluation)


_REFERENCES = [_Reference(8), _Reference(16)]


@st.composite
def _clearing_input(draw):
    ref = draw(st.sampled_from(_REFERENCES))
    w = draw(st.sampled_from(sorted(ref.ac)))
    # e powers down to -(w + 1), below the least of a homogeneous element
    t = draw(st.integers(-w - 1, 2))
    monos = draw(st.sets(st.sampled_from(ref.ac[w]), max_size=4))
    return ref, ref.L.e(t) * GradedPoly(ref.table, monos)


@st.composite
def _evaluation_input(draw):
    ref = draw(st.sampled_from(_REFERENCES))
    monos = draw(st.sets(st.sampled_from(ref.ax), max_size=4))
    shifts = draw(st.lists(st.integers(-8, 3), min_size=len(monos), max_size=len(monos)))
    return ref, GradedPoly(ref.table, [m + (k << ref.table.e_shift)
                                       for m, k in zip(sorted(monos), shifts)])


def _same_or_both_raise(fn, reference, x):
    try:
        expected = reference(x)
    except CapacityError:
        with pytest.raises(CapacityError):
            fn(x)
        return None
    assert fn(x) == expected
    return expected


@given(_clearing_input())
def test_clear_denominators_matches_the_termwise_reference(case):
    ref, x = case
    cleared = _same_or_both_raise(ref.L.clear_denominators, ref.clear, x)
    if cleared is not None:
        n, p = cleared
        assert p.uses_only('aXe') and (not p or p.min_inv_exp() >= 0)
        assert _same_or_both_raise(ref.L.eval_cleared, ref.evaluate, p) == ref.L.e(n) * x


@given(_evaluation_input())
def test_eval_cleared_matches_the_termwise_reference(case):
    ref, p = case
    _same_or_both_raise(ref.L.eval_cleared, ref.evaluate, p)


def test_both_raise_past_the_limit_and_agree_on_zero():
    for ref in _REFERENCES:
        x = GradedPoly.var(ref.table, 'c1', ref.table.limit)
        with pytest.raises(CapacityError):
            ref.clear(x)
        with pytest.raises(CapacityError):
            ref.L.clear_denominators(x)
        zero = ref.L.zero()
        assert ref.L.clear_denominators(zero) == ref.clear(zero) == (0, zero)
        assert ref.L.eval_cleared(zero) == ref.evaluate(zero) == zero
