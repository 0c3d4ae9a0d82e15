"""The basis suite's independence check by triangularity, against one elimination.

verify.independent_by_triangularity proves the localizations of the basis
monomials of a degree independent through member's peel map and one rank
over the type-B images. The reference here eliminates every image, and
recomputes the three facts the peel map stands for term by term from the
decoded exponents.
"""

import pytest

from bordcalc.errors import ContractViolation
from bordcalc.gf2 import poly_rank
from bordcalc.presentation import BordismRing
from bordcalc.session import Session
from bordcalc.verify import default_degree, independent_by_triangularity


def _s(table, m):
    """s = L + |J| of a term mu c_J e^L: its exponents of the c_j and of e."""
    c, e = table.subscripts['c'], table.invertible
    return sum(x for i, x in table.exponents(m) if i in c or i == e)


def _facts(table, fms, images):
    """The three facts: type-A images nonzero with tops of s >= 0, type-A tops
    distinct, and every type-B term of s <= -1."""
    type_a = [x for fm, x in zip(fms, images) if not fm.gamma_factors()]
    type_b = [x for fm, x in zip(fms, images) if fm.gamma_factors()]
    tops = [max(x.monos) for x in type_a if x]
    return (len(tops) == len(type_a) and all(_s(table, t) >= 0 for t in tops),
            len(set(tops)) == len(tops),
            all(_s(table, m) <= -1 for x in type_b for m in x.monos))


def _basis(mo, d):
    fms = mo.basis_monomials(d)
    return fms, [mo.localize(mo.single(fm)) for fm in fms]


@pytest.mark.parametrize('cap', [16, 24])
def test_verdict_matches_one_elimination(cap):
    session = Session(cap)
    mo, table = session.mo, session.table
    for d in range(default_degree(session, 'basis') + 1):
        fms, images = _basis(mo, d)
        assert _facts(table, fms, images) == (True, True, True), d
        verdict = independent_by_triangularity(mo, fms, images)
        assert verdict == (poly_rank(images) == len(fms)) is True, d


def test_a_shared_type_a_top_fails_the_check(sess):
    mo = sess.mo
    first, second = [fm for fm in mo.basis_monomials(4) if not fm.gamma_factors()][-2:]
    images = [mo.localize(mo.single(fm)) for fm in (first, second)]
    assert max(images[0].monos) != max(images[1].monos)
    # the larger top added to the other image: both now top out there
    low = 1 if max(images[0].monos) > max(images[1].monos) else 0
    images[low] = images[low] + images[1 - low]
    assert max(images[0].monos) == max(images[1].monos)
    assert _facts(sess.table, [first, second], images)[1] is False
    # the span is the same, so the rank is full; the failed fact still fails the check
    assert poly_rank(images) == 2
    assert independent_by_triangularity(mo, [first, second], images) is False


def test_a_type_b_term_with_nonnegative_s_fails_the_check(sess):
    mo, L = sess.mo, sess.laurent
    fms, images = _basis(mo, 4)
    g13 = fms.index(next(iter(mo.G(1, 3).monos)))
    # c1*c3 has s = 0 + 2
    images[g13] = images[g13] + L.c(1) * L.c(3)
    assert _facts(sess.table, fms, images)[2] is False
    assert poly_rank(images) == len(fms)
    assert independent_by_triangularity(mo, fms, images) is False


def test_an_image_of_another_degree_raises(sess):
    mo, L = sess.mo, sess.laurent
    fms, images = _basis(mo, 4)
    images[-1] = images[-1] + sess.coef.a(5) * L.e(-1)
    with pytest.raises(ContractViolation):
        independent_by_triangularity(mo, fms, images)


def test_a_wrong_peel_map_fails_the_check(sess, monkeypatch):
    mo = sess.mo
    fms, images = _basis(mo, 6)
    original, shift = BordismRing._topped, sess.table.e_shift

    def without_e(self, m):
        # the top of mu X_J e^k peeled to mu X_J e^(k-1) when k >= 1
        piece = original(self, m)
        if piece is None or not piece[1] >> shift:
            return piece
        return piece[0], piece[1] - (1 << shift)

    monkeypatch.setattr(BordismRing, '_topped', without_e)
    # the localizations are right: the facts hold and the rank is full
    assert _facts(sess.table, fms, images) == (True, True, True)
    assert poly_rank(images) == len(fms)
    assert independent_by_triangularity(mo, fms, images) is False
