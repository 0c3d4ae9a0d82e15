"""The basis suite's independence check by triangularity, against one elimination.

verify.independent_by_triangularity proves the localizations of the basis
monomials of a degree independent through member's peel map: each must
have one term with the most c factors, and the peel map must name the
image's monomial by it. The reference here eliminates every image, and
recomputes both facts term by term from the decoded exponents.
"""

import pytest

from bordcalc.errors import ContractViolation
from bordcalc.gf2 import poly_rank
from bordcalc.presentation import BordismRing, FormalMonomial
from bordcalc.session import Session
from bordcalc.verify import default_degree, independent_by_triangularity


def _named(table, m):
    """The basis monomial whose localization has the term m = mu c_J e^L as its
    term with the most c factors, or None: read off the decoded exponents."""
    c, e = table.subscripts['c'], table.invertible
    pairs = table.exponents(m)
    js = [c[i] for i, x in pairs if i in c for _ in range(x)]
    mu = table.pack([(i, x) for i, x in pairs if i not in c and i != e])
    s = dict(pairs).get(e, 0) + len(js)
    if s >= 0:
        return FormalMonomial(mu, tuple((0, j + 1) for j in js), s)
    if not js:
        return None
    j = min(js)
    js.remove(j)
    return FormalMonomial(mu, tuple((0, n + 1) for n in sorted(js)) + ((-s, j + 1),), 0)


def _facts(table, fms, images):
    """The two facts: each image has one term with the most c factors, the
    count taken from the decoded exponents, and that term names its monomial."""
    c = table.subscripts['c']
    tops = []
    for x in images:
        counts = {m: sum(k for i, k in table.exponents(m) if i in c) for m in x.monos}
        most = max(counts.values(), default=None)
        tops.append([m for m, r in counts.items() if r == most])
    return (all(len(t) == 1 for t in tops),
            all(len(t) == 1 and _named(table, t[0]) == fm for fm, t in zip(fms, tops)))


def _basis(mo, d):
    fms = mo.basis_monomials(d)
    return fms, [mo.localize(mo.single(fm)) for fm in fms]


@pytest.mark.parametrize('cap', [16, 24])
def test_verdict_matches_one_elimination(cap):
    session = Session(cap)
    mo, table = session.mo, session.table
    for d in range(default_degree(session, 'basis') + 1):
        fms, images = _basis(mo, d)
        assert _facts(table, fms, images) == (True, True), d
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
    # both tops have one c factor: they tie in the sum
    assert _facts(sess.table, [first, second], images) == (False, False)
    # the span is the same, so the rank is full; the failed fact still fails the check
    assert poly_rank(images) == 2
    assert independent_by_triangularity(mo, [first, second], images) is False


def test_a_type_b_term_with_nonnegative_s_fails_the_check(sess):
    mo, L = sess.mo, sess.laurent
    fms, images = _basis(mo, 4)
    g13 = fms.index(next(iter(mo.G(1, 3).monos)))
    # c1*c3 has s = 0 + 2 and two c factors, more than c2*e^-2 has: it names X2*X4
    images[g13] = images[g13] + L.c(1) * L.c(3)
    assert _facts(sess.table, fms, images) == (True, False)
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
    assert _facts(sess.table, fms, images) == (True, True)
    assert poly_rank(images) == len(fms)
    assert independent_by_triangularity(mo, fms, images) is False


def test_a_tie_for_the_most_c_factors_fails_the_check(sess):
    mo, L = sess.mo, sess.laurent
    fms, images = _basis(mo, 4)
    g13 = fms.index(next(iter(mo.G(1, 3).monos)))
    # c3*e^-1, the top of loc(X4), has one c factor, as c2*e^-2 of loc(G(1, 3)) has
    images[g13] = images[g13] + L.c(3) * L.e(-1)
    assert _facts(sess.table, fms, images) == (False, False)
    assert independent_by_triangularity(mo, fms, images) is False
