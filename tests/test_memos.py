"""The ring maps' per-session memos: answers do not depend on what came before.

localize and alpha keep images by G factors alone, the clearing
substitutions by c or X part, delta, underlying and dictionary by b part,
the phi walk and pt_class by expression, and basis_monomials its lists by
degree and e cap. Each answer must be the one a fresh session gives,
whatever the session asked before; and an image taken from a memo must
still be refused when the rest it is shifted by carries it past the
table's limit.
"""

import pytest

from bordcalc.conner_floyd import GammaOf, ProductOf, Proj, Trivial
from bordcalc.errors import CapacityError
from bordcalc.gf2 import GradedPoly, SparseSum
from bordcalc.presentation import FormalMonomial, Presentation
from bordcalc.session import Session
from bordcalc.verify import ac_monomials, verify

DEGREE = 8


def _inputs(session):
    """(map, argument) pairs: the degree <= 8 basis, catalog, Laurent samples and
    bundle monomials, in a fixed order."""
    geo, mo, L = session.geometry, session.mo, session.laurent
    exprs = geo.catalog_expressions(DEGREE)
    basis = [mo.single(fm) for d in range(DEGREE + 1) for fm in mo.basis_monomials(d)]
    # G factors times e^k share one memo entry with the e-free monomial:
    # localize shifts it by e^k, alpha sends it to 0
    towers = [mo.single(fm) for d in range(DEGREE + 1) for fm in mo.basis_monomials(d)
              if fm.gamma_factors()]
    basis += [x * mo.e(k) for x in towers for k in (1, 2)] + [x + x * mo.e(1) for x in towers]
    laurent = [mono * L.e(t) for d in range(DEGREE + 1) for mono in ac_monomials(L, d)
               for t in (0, -1, -d - 1)]
    bundles = [p for d in range(DEGREE + 1) for p in geo.bundle_monomials(d)]
    bundles += [geo.phi(x) for x in exprs]
    return ([('localize', x) for x in basis] + [('alpha', x) for x in basis]
            + [('phi', x) for x in exprs] + [('underlying', x) for x in exprs]
            + [('pt_class', x) for x in exprs]
            + [('clear', x) for x in laurent]
            + [('delta', p) for p in bundles] + [('dictionary', p) for p in bundles])


def _port(session, x):
    """x rebuilt over session's table; tables of one cap share their layout."""
    if isinstance(x, SparseSum):
        return type(x)(session.table, x.monos)
    if isinstance(x, Trivial):
        return Trivial(_port(session, x.coef))
    if isinstance(x, GammaOf):
        return GammaOf(_port(session, x.inner))
    if isinstance(x, ProductOf):
        return ProductOf(tuple(_port(session, f) for f in x.factors))
    return x


def _answer(session, name, x):
    geo, mo, L = session.geometry, session.mo, session.laurent
    x = _port(session, x)
    if name == 'clear':
        n, p = L.clear_denominators(x)
        return n, p.to_text(), L.eval_cleared(p).to_text()
    fn = {'localize': mo.localize, 'alpha': mo.alpha, 'phi': geo.phi,
          'underlying': geo.underlying, 'pt_class': geo.pt_class, 'delta': geo.delta,
          'dictionary': geo.dictionary}[name]
    return fn(x).to_text()


def test_answers_do_not_depend_on_history():
    # each input first in a session of its own, then all of them in one
    # session forwards and in another backwards: the later answers come
    # from memos the earlier inputs filled
    inputs = _inputs(Session())
    assert {name for name, _ in inputs} == {'localize', 'alpha', 'phi', 'underlying',
                                            'pt_class', 'clear', 'delta', 'dictionary'}
    fresh = [_answer(Session(), name, x) for name, x in inputs]
    for order in (range(len(inputs)), reversed(range(len(inputs)))):
        session = Session()
        for k in order:
            assert _answer(session, *inputs[k]) == fresh[k], inputs[k]


def test_cached_images_are_checked_for_overflow():
    session = Session()
    table, mo, geo = session.table, session.mo, session.geometry
    a2 = table.index('a2')
    top = table.pack(((a2, table.limit // 2),))
    # loc(X3) = c2*e^-1 + e^-3: a2^31 times it passes the limit
    assert mo.localize(mo.X(3)).to_text() == 'c2*e^-1 + e^-3'
    with pytest.raises(CapacityError):
        mo.localize(Presentation(table, [FormalMonomial(top, ((0, 3),), 0)]))
    # the fixed-point class read off the fixed data b1^2 is RP(2), a2
    assert geo.underlying(Proj(2)).to_text() == 'a2'
    (b1_squared,) = (geo.b(1) ** 2).monos
    kept = geo._fixed_cache[b1_squared & geo._b_fields]
    assert GradedPoly(table, kept[1]).to_text() == 'a2'
    # the kept images shifted by a coefficient of degree 15 land in N_17,
    # past the cap
    mu = session.coef.a(2) ** 5 * session.coef.a(5)
    with pytest.raises(CapacityError, match='an N_\\* class of dimension 17'):
        geo.underlying(ProductOf((Trivial(mu), Proj(2))))


def test_basis_lists_do_not_depend_on_history():
    warm = Session()
    for d in range(DEGREE + 1):
        warm.mo.basis_monomials(d)
    for d in range(-2, DEGREE + 1):
        for e_cap in (None, 0, 5):
            fresh = Session().mo.basis_monomials(d, e_cap)
            kept = warm.mo.basis_monomials(d, e_cap)
            assert kept == fresh
            # each call hands out a list of its own
            kept.reverse()
            kept.append(None)
            assert warm.mo.basis_monomials(d, e_cap) == fresh


def test_catalog_lists_are_the_callers_own():
    # the catalog is kept per dimension and shared with verify's suites;
    # each call hands out a list of its own, so mutating one changes no
    # later answer or check
    def answers(session):
        geo = session.geometry
        exprs = geo.catalog_expressions(DEGREE)
        return ([repr(x) for x in exprs]
                + [_answer(session, name, x) for x in exprs
                   for name in ('phi', 'underlying', 'pt_class')]
                + [tuple(c) for suite in ('cf-exact', 'compare')
                   for c in verify(session, suite, DEGREE)])

    want = answers(Session())
    warm = Session()
    geo = warm.geometry
    for _ in range(2):
        kept = geo.catalog_expressions(DEGREE)
        assert kept is not geo.catalog_expressions(DEGREE)
        kept.reverse()
        kept[0] = Proj(3)
        del kept[1:10]
        kept.append(None)
    assert answers(warm) == want
