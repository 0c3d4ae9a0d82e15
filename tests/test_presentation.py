"""Normal forms, the Gamma operator, bases, membership, the quotient."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bordcalc.conner_floyd import GammaOf, Geometry, ProductOf, Proj, Trivial
from bordcalc.errors import CapacityError, ContractViolation, NotDivisible
from bordcalc.gf2 import GradedPoly, parity, poly_rank
from bordcalc.localized import LaurentRing
from bordcalc.parsing import parse_laurent, parse_presentation
from bordcalc.presentation import BordismRing, FormalMonomial, Presentation, QuotientElem
from bordcalc.session import Session


def test_constructors(sess):
    mo = sess.mo
    assert not mo.X(1)
    assert not mo.G(2, 1)
    assert mo.X(2) == mo.G(0, 2)
    with pytest.raises(ContractViolation):
        mo.G(-1, 2)
    with pytest.raises(CapacityError):
        mo.X(18)
    with pytest.raises(ContractViolation):
        mo.e(-1)
    with pytest.raises(ContractViolation):
        mo.iota(mo.laurent.c(1))


def test_the_library_applies_the_parsers_cap_rule():
    # at cap 16 a term's degree plus e power reaches 17, that of X17; G and
    # the results of Gamma and divide_e are refused past it as the parser
    # refuses them, not later in a table of a degree nobody asked for
    s = Session()
    mo = s.mo
    refused = 'degree plus e power 18 exceeds 17, the largest under the degree cap 16'
    with pytest.raises(CapacityError) as err:
        parse_presentation('G(16,2)', mo)
    assert str(err.value) == refused
    for make in (lambda: mo.G(16, 2), lambda: mo.gamma(mo.X(17)),
                 lambda: mo.gamma(mo.G(15, 2)),
                 lambda: mo.divide_e(mo.e(2) * mo.X(16) * mo.X(2))):
        with pytest.raises(CapacityError) as err:
            make()
        assert str(err.value) == refused
    with pytest.raises(CapacityError, match='degree plus e power 102 exceeds 17'):
        mo.G(100, 2)
    assert mo.G(15, 2).to_text() == 'G(15,2)'
    assert mo.gamma(mo.X(16)) == mo.G(1, 16)
    assert mo.divide_e(mo.e(1) * mo.G(15, 2)) == mo.G(15, 2)


def test_normal_form_pinned_values(sess):
    mo = sess.mo
    a2 = mo.iota(sess.coef.a(2))
    assert mo.normal_form(mo.e(1) * mo.G(1, 2)) == mo.X(2) + a2
    assert mo.normal_form(mo.G(1, 2) ** 2) == a2 * mo.G(2, 2) + mo.G(2, 2) * mo.X(2)
    assert (mo.normal_form(mo.G(1, 3) * mo.X(2))
            == a2 * mo.G(1, 3) + mo.G(1, 2) * mo.X(3))
    # the product rule fires on the Gamma pair and on G(j, n) X_m, m < n
    assert (mo.normal_form(mo.G(2, 5) * mo.G(1, 3) * mo.X(2)).to_text()
            == 'a2*a5*G(1,5) + a2*G(3,3)*X5 + a4*G(1,3)*X5 + a2^2*G(1,3)*X5'
               ' + G(3,2)*X3*X5')


def test_normal_form_fixes_basis_monomials(sess):
    mo = sess.mo
    for d in range(-2, 5):
        for fm in mo.basis_monomials(d):
            x = mo.single(fm)
            assert mo.normal_form(x) == x


def test_alpha(sess):
    mo = sess.mo
    coef = sess.coef
    assert not mo.alpha(mo.e(1))
    assert mo.alpha(mo.X(2)) == coef.a(2)
    assert not mo.alpha(mo.X(3))
    assert not mo.alpha(mo.G(2, 4))
    a2, a4, a5, a6, a8 = (coef.a(d) for d in (2, 4, 5, 6, 8))
    assert not mo.alpha(mo.G(1, 2))
    assert mo.alpha(mo.G(2, 2)) == a2 ** 2 + a4
    assert mo.alpha(mo.G(2, 3)) == a5
    assert not mo.alpha(mo.G(3, 2))
    assert mo.alpha(mo.G(4, 2)) == a2 ** 3 + a6
    assert mo.alpha(mo.G(3, 3)) == a2 * a4 + a6
    assert mo.alpha(mo.G(4, 4)) == a2 ** 4 + a8
    c = coef.a(2) ** 2 + coef.a(4)
    assert mo.alpha(mo.iota(c)) == c
    x = mo.X(2) + mo.e(1) * mo.G(1, 3)
    y = mo.X(3) * mo.X(2)
    assert mo.alpha(x * y) == mo.alpha(x) * mo.alpha(y)


def test_bar(sess):
    mo = sess.mo
    assert mo.bar(mo.X(2)) == mo.iota(sess.coef.a(2))
    assert not mo.bar(mo.e(3))


def test_gamma_contract(sess):
    mo = sess.mo
    samples = [mo.X(2), mo.X(3), mo.X(2) * mo.X(3), mo.G(1, 2),
               mo.iota(sess.coef.a(4)) * mo.X(2), mo.G(2, 3) * mo.X(3)]
    for x in samples:
        lhs = mo.normal_form(mo.e(1) * mo.gamma(x))
        assert lhs == mo.normal_form(x + mo.bar(x))
    assert not mo.gamma(mo.iota(sess.coef.a(2)))
    assert not mo.gamma(mo.one())
    assert mo.normal_form(mo.gamma(mo.e(1) * mo.X(2))) == mo.X(2)
    assert mo.normal_form(mo.gamma(mo.X(2))) == mo.G(1, 2)


def test_divide_e(sess):
    mo = sess.mo
    assert mo.divide_e(mo.e(3)) == mo.e(2)
    assert mo.normal_form(mo.divide_e(mo.e(1) * mo.X(2))) == mo.X(2)
    with pytest.raises(NotDivisible) as err:
        mo.divide_e(mo.X(2))
    assert err.value.remainder == sess.coef.a(2)
    # divisible iff the augmentation vanishes
    assert mo.normal_form(mo.divide_e(mo.X(2) + mo.bar(mo.X(2)))) == mo.G(1, 2)


def _g_products(weight):
    """The factor tuples of every product of G(i, n), n >= 2, with at least
    one Gamma factor (i >= 1) and sum of i + n at most weight."""
    atoms = [(i, n) for n in range(2, weight + 1) for i in range(weight + 1 - n)]
    out = []

    def extend(start, left, factors):
        if any(i for i, _ in factors):
            out.append(factors)
        for k in range(start, len(atoms)):
            i, n = atoms[k]
            if i + n <= left:
                extend(k, left - i - n, factors + (atoms[k],))
    extend(0, weight, ())
    return out


def _assert_normal_form(mo, x):
    y = mo.normal_form(x)
    assert all(fm.is_basis() for fm in y.monos), x.to_text()
    assert mo.localize(y) == mo.localize(x), x.to_text()
    return y


def test_every_g_product_normalizes_at_cap_12():
    # in one session, so every product reads what the earlier ones kept
    mo = Session(12).mo
    products = _g_products(13)
    assert len(products) == 837
    for factors in products:
        g = mo.one()
        for i, n in factors:
            g = g * mo.G(i, n)
        for k in range(3):
            _assert_normal_form(mo, g * mo.e(k))


def test_normal_form_at_cap_32():
    # 672 monomials rewritten, reached along more than a million paths
    # through the memo
    mo = Session(32).mo
    y = _assert_normal_form(mo, mo.G(1, 2) ** 7 * mo.G(9, 3))
    assert (len(y.monos), len(mo._nf_cache)) == (856, 672)


# G(2,5)*G(1,3)*X2, then the query-mix nf questions of seed 1 that rewrite
# the most
_HISTORY_TEXTS = ['G(2,5)*G(1,3)*X2', 'G(2,2)*G(2,3)*G(1,2)', 'G(2,2)*G(1,2)*G(1,3)',
                  'G(4,3)*G(2,2)*e^2', 'G(4,3)*G(2,2)', 'G(3,2)*G(5,2)*e^2',
                  'G(1,3)*G(4,4)', 'G(1,3)*G(1,4)*X2', 'G(1,2)*G(1,2)*G(1,5)']


def test_normal_forms_do_not_depend_on_history():
    warmed = Session().mo
    for text in reversed(_HISTORY_TEXTS):
        warmed.normal_form(parse_presentation(text, warmed))
    for text in _HISTORY_TEXTS:
        fresh = Session().mo
        assert (warmed.normal_form(parse_presentation(text, warmed)).to_text()
                == fresh.normal_form(parse_presentation(text, fresh)).to_text()), text


def test_huge_e_power(sess):
    # square-and-multiply: 10**8 would take 10**8 products one at a time
    mo = sess.mo
    assert mo.e(1) ** 10**8 == mo.e(10**8)


def test_basis_counts_freeze(sess):
    mo = sess.mo
    counts = [len(mo.basis_monomials(d)) for d in range(-3, 7)]
    assert counts == [9, 9, 9, 9, 12, 23, 32, 56, 79, 127]


def test_basis_monomials_are_basis_shaped(sess):
    mo = sess.mo
    for d in (3, 5):
        fms = mo.basis_monomials(d)
        assert len(fms) == len(set(fms))
        for fm in fms:
            assert fm.is_basis()
            assert fm.degree(mo.table) == d


def test_localize_pinned_values(sess):
    mo = sess.mo
    L = sess.laurent
    a2 = sess.coef.a(2)
    assert (mo.localize(mo.G(1, 2))
            == a2 * L.e(-1) + L.c(1) * L.e(-2) + L.e(-3))
    assert mo.localize(mo.X(2)) == L.loc_P(2)
    assert mo.localize(mo.e(2)) == L.e(2)
    x = mo.G(1, 2) * mo.X(3)
    assert mo.localize(x) == mo.localize(mo.G(1, 2)) * mo.localize(mo.X(3))


def test_localization_separates_basis(sess):
    mo = sess.mo
    for d in range(-1, 5):
        images = [mo.localize(mo.single(fm)) for fm in mo.basis_monomials(d)]
        assert poly_rank(images) == len(images)


def _gamma_by_splitting(mo, fm):
    """Gamma of a monomial by the recursion gamma unrolls, as a reference.

    Gamma(u*v) = Gamma(u)*v + ubar*Gamma(v), split at the smallest
    G(i >= 1) factor u while there is one, then at the smallest X_n.
    """
    if fm.epow:
        return mo.single(FormalMonomial(fm.coef, fm.gammas, fm.epow - 1))
    gs = fm.gamma_factors()
    if gs:
        i, n = min(gs)
        ubar = mo._alpha_gamma(i, n)
    elif fm.gammas:
        i, n = min(fm.gammas)
        ubar = mo.coef.rho(n)
    else:
        return mo.zero()
    pool = list(fm.gammas)
    pool.remove((i, n))
    acc = mo.single(FormalMonomial(fm.coef, tuple(sorted(pool + [(i + 1, n)])), 0))
    if ubar:
        rest = _gamma_by_splitting(mo, FormalMonomial(fm.coef, tuple(pool), 0))
        acc = acc + mo._coef_scale(rest, ubar)
    return acc


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(2, 6)), max_size=3),
       st.lists(st.sampled_from((2, 4, 5)), max_size=2), st.integers(0, 2))
def test_unrolled_gamma_matches_the_split(sess, factors, coef_degrees, epow):
    # the same formal sum, not only the same normal form
    mo = sess.mo
    assume(sum(coef_degrees) + sum(i + n for i, n in factors) <= 12)
    coef = sess.coef.one()
    for d in coef_degrees:
        coef = coef * sess.coef.a(d)
    fm = FormalMonomial(next(iter(coef.monos)), tuple(sorted(factors)), epow)
    x = mo.single(fm)
    assert mo.gamma(x) == _gamma_by_splitting(mo, fm)
    assert mo.normal_form(mo.e(1) * mo.gamma(x)) == mo.normal_form(x + mo.bar(x))


_FACTORS = ('e', 'X2', 'X3', 'G(1,2)', 'G(1,3)', 'G(2,2)', 'a2')


def _factor(mo, name):
    if name == 'e':
        return mo.e(1)
    if name == 'a2':
        return mo.iota(mo.coef.a(2))
    if name.startswith('X'):
        return mo.X(int(name[1:]))
    i, n = name[2:-1].split(',')
    return mo.G(int(i), int(n))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3))
def test_normal_form_idempotent_and_localization_preserving(sess, names):
    mo = sess.mo
    x = mo.one()
    for name in names:
        x = x * _factor(mo, name)
    nf = mo.normal_form(x)
    assert mo.normal_form(nf) == nf
    assert mo.localize(nf) == mo.localize(x)
    for fm in nf.monos:
        assert fm.is_basis()


def test_is_geometric(sess):
    mo = sess.mo
    assert mo.is_geometric(mo.G(1, 2) * mo.G(2, 3))
    assert mo.is_geometric(mo.X(2) ** 2)
    assert not mo.is_geometric(mo.e(1))
    assert not mo.is_geometric(mo.e(2) * mo.G(1, 2))
    # e-divisible combinations can still be geometric after rewriting
    assert mo.is_geometric(mo.e(1) * mo.G(1, 2))


def test_quotient_reduce(sess):
    mo = sess.mo
    table = mo.table
    a2 = sess.coef.a(2)
    x2 = GradedPoly.var(table, 'X2')
    assert (mo.quotient_reduce(mo.e(2) * mo.G(1, 2))
            == QuotientElem(table, {1: a2 + x2}))
    assert mo.quotient_reduce(mo.e(3)) == QuotientElem(table, {3: mo.coef.one()})
    assert not mo.quotient_reduce(mo.e(1) * mo.G(1, 2))
    assert not mo.quotient_reduce(mo.G(1, 2) * mo.X(2))
    assert QuotientElem(table, {1: a2 + x2}).to_text() == '(a2 + X2)*x1'
    with pytest.raises(ContractViolation):
        QuotientElem(table, {0: a2})


def test_euler(sess):
    mo = sess.mo
    assert mo.euler(0, 3) == mo.e(3)
    assert mo.euler(0, 0) == mo.one()
    assert not mo.euler(2, 5)
    with pytest.raises(ContractViolation):
        mo.euler(-1, 2)


def test_member(sess):
    mo = sess.mo
    L = sess.laurent
    assert mo.member(L.loc_P(2)) == mo.X(2)
    assert mo.member(mo.localize(mo.G(1, 2))) == mo.G(1, 2)
    assert mo.member(L.zero()) == mo.zero()
    assert mo.member(L.e(-1)) is None
    combo = mo.G(1, 2) * mo.X(2) + mo.e(1) * mo.X(3) * mo.X(3)
    assert mo.normal_form(mo.member(mo.localize(combo))) == mo.normal_form(combo)
    with pytest.raises(ContractViolation):
        mo.member(L.c(1) + L.e(1))


def test_member_non_member_inside_the_cap(sess):
    # degree 12, top exponent 1: e-free degree 13 at the top, inside the
    # cap 16; member peels a5*X9*e^2 and a5*X7, and a5*e^-7, which names
    # no basis monomial, is left
    target = parse_laurent('a5*c8*e + a5*c6*e^-1 + a5*e^-7', sess.laurent)
    assert sess.mo.member(target) is None


def _degree_3_questions(session):
    # members and non-members of degree 3 topping out at e^-1, e^0 and e^1,
    # which share the localizations of the basis monomials of degree 3; a
    # non-member adds mu*c_{n-1}*e^-1 with a nonzero boundary of mu*b_n
    mo, L, geo = session.mo, session.laurent, session.geometry

    def non_member(d):
        return next(mu * L.c(n - 1) * L.e(-1)
                    for n in range(1, d + 1)
                    for mu in session.coef.monomials_of_degree(d - n)
                    if geo.delta(mu * geo.b(n)))

    a2, a4 = (mo.iota(session.coef.a(d)) for d in (2, 4))
    members = [mo.G(1, 2), mo.e(1) * mo.X(2) * mo.X(2), mo.e(1) * mo.X(4),
               mo.e(1) * a2 * mo.X(2), mo.e(2) * mo.X(5), mo.e(1) * a4]
    out = []
    for x in members:
        t = mo.localize(x)
        out.append((t, mo.normal_form(x)))
        out.append((t + non_member(t.degree()), None))
    return out


def test_member_answers_do_not_depend_on_history():
    fresh = Session()
    questions = _degree_3_questions(fresh)
    assert [(t.degree(), max(t.max_inv_exp(), -1)) for t, _ in questions[::4]] == [
        (3, -1), (3, 0), (3, 1)]
    for _ in range(2):
        # fresh, then warmed at the same degree
        assert [fresh.mo.member(t) for t, _ in questions] == [
            want for _, want in questions]
    other = Session()
    questions = _degree_3_questions(other)
    assert [other.mo.member(t) for t, _ in reversed(questions)] == [
        want for _, want in reversed(questions)]


def test_member_window_past_the_cap_raises_every_time():
    # degree 14, top exponent 3: e-free degree 17 passes the cap 16, so no
    # class the session admits localizes to it; refused before any peel
    mo = Session().mo
    target = mo.localize(mo.e(5) * mo.X(9) * mo.X(10))
    for _ in range(2):
        with pytest.raises(CapacityError):
            mo.member(target)


def test_member_past_the_cap_builds_no_window():
    # degree 17, top exponent 0: e-free degree 17 at e^0 passes the cap 16
    s = Session()
    with pytest.raises(CapacityError, match='membership target'):
        s.mo.member(parse_laurent('c16*c1', s.laurent))
    # refused before any term is counted
    assert s.mo._c_cache == {}


def test_member_recovers_every_basis_monomial(sess):
    mo = sess.mo
    for d in range(-2, 7):
        for fm in mo.basis_monomials(d, e_cap=2):
            x = mo.single(fm)
            assert mo.member(mo.localize(x)) == mo.normal_form(x), fm


def test_member_rejects_conner_floyd_non_members(sess):
    # mu*c_{n-1}*e^-1 is the dictionary image of mu*b_n; when its boundary
    # is nonzero no closed manifold localizes to it, and adding a member
    # keeps it outside the image
    mo, L, geo = sess.mo, sess.laurent, sess.geometry
    for d in range(1, 7):
        extras = [mu * L.c(n - 1) * L.e(-1)
                  for n in range(1, d + 1)
                  for mu in sess.coef.monomials_of_degree(d - n)
                  if geo.delta(mu * geo.b(n))]
        assert extras, d
        for extra in extras:
            assert mo.member(extra) is None
            for fm in mo.basis_monomials(d, e_cap=2):
                assert mo.member(mo.localize(mo.single(fm)) + extra) is None


def termwise_nf_pres(mo, x):
    # the per-term loop one-pass _nf_pres replaced, as a reference
    acc = mo.zero()
    for fm in x.monos:
        acc = acc + mo._nf_mono(fm)
    return acc


def termwise_gamma(mo, x):
    # the per-term loop one-pass _gamma replaced, as a reference
    acc = mo.zero()
    for fm in x.monos:
        acc = acc + Presentation(mo.table, mo._gamma_mono(fm))
    return acc


def _termwise_session():
    session = Session()
    mo = session.mo
    mo._nf_pres = lambda x: termwise_nf_pres(mo, x)
    mo._gamma = lambda x: termwise_gamma(mo, x)
    return session


# two sessions shared across draws, so their memos fill as a session's do
_ONE_PASS, _TERMWISE = Session(), _termwise_session()

_terms = st.tuples(st.lists(st.tuples(st.integers(0, 3), st.integers(2, 5)), max_size=3),
                   st.lists(st.sampled_from((2, 4, 5)), max_size=2), st.integers(0, 2))


def _sum_of_terms(session, terms):
    coef, fms = session.coef, []
    for factors, coef_degrees, epow in terms:
        c = coef.one()
        for d in coef_degrees:
            c = c * coef.a(d)
        fms.append(FormalMonomial(next(iter(c.monos)), tuple(sorted(factors)), epow))
    return Presentation(session.table, parity(fms))


@settings(max_examples=80, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=4))
def test_one_pass_normal_form_and_gamma_match_the_termwise_reference(terms):
    assume(all(sum(ds) + sum(i + n for i, n in fs) - k <= 8 for fs, ds, k in terms))
    x, y = _sum_of_terms(_ONE_PASS, terms), _sum_of_terms(_TERMWISE, terms)
    assert _ONE_PASS.mo.gamma(x).to_text() == _TERMWISE.mo.gamma(y).to_text()
    assert (_ONE_PASS.mo.normal_form(x).to_text()
            == _TERMWISE.mo.normal_form(y).to_text())


@pytest.mark.parametrize('method', ['normal_form', 'gamma', 'alpha', 'bar', 'localize',
                                    'divide_e', 'quotient_reduce', 'is_geometric',
                                    'delta', 'dictionary', 'phi', 'underlying',
                                    'pt_class', 'eval_cleared'])
def test_values_of_another_session_are_refused(sess, method):
    # a table of another cap lays monomials out differently, and one of the
    # same cap is still another session's: neither may be read as this one's
    trivial = Trivial(sess.coef.a(2) * sess.coef.a(4))
    for other in (Session(8), Session()):
        if method in ('delta', 'dictionary'):
            target, xs = other.geometry, [sess.geometry.b(2) * sess.geometry.b(1)]
        elif method in ('phi', 'underlying', 'pt_class'):
            # a foreign class is caught where the walk reaches it, also nested
            target, xs = other.geometry, [trivial, GammaOf(trivial),
                                          ProductOf((Proj(2), trivial))]
        elif method == 'eval_cleared':
            target, xs = other.laurent, [sess.coef.a(4) * sess.laurent.e(2)]
        else:
            target, xs = other.mo, [parse_presentation('a4*G(1,3)*X2*e', sess.mo)]
        for x in xs:
            with pytest.raises(ContractViolation, match='foreign variable table'):
                getattr(target, method)(x)


# every public map of the three rings that takes a value, by owner, with the
# kind of value it is due
_VALUE_MAPS = {
    'mo': {**dict.fromkeys(['normal_form', 'localize', 'alpha', 'bar', 'gamma', 'divide_e',
                            'is_geometric', 'quotient_reduce'], 'presentation'),
           'iota': 'polynomial', 'member': 'polynomial'},
    'laurent': dict.fromkeys(['clear_denominators', 'eval_cleared'], 'polynomial'),
    'geometry': {**dict.fromkeys(['delta', 'dictionary'], 'polynomial'),
                 **dict.fromkeys(['phi', 'underlying', 'pt_class'], 'expression')},
}
# the other public methods: constructors, enumerators and catalogs
_NO_VALUE = {
    'mo': {'zero', 'one', 'e', 'X', 'G', 'single', 'euler', 'basis_monomials'},
    'laurent': {'zero', 'one', 'e', 'c', 'X', 'loc_P'},
    # exact_phi is phi itself, under the name the benchmark's tracer uses
    'geometry': {'b', 'bundle_monomials', 'manifold_for_basis', 'catalog_expressions',
                 'exact_phi'},
}
_WRONG = {
    'presentation': lambda sess: sess.mo.X(2),
    'polynomial': lambda sess: sess.laurent.c(1),
    'bundle polynomial': lambda sess: sess.geometry.b(2),
    'expression': lambda sess: Proj(2),
    'str': lambda sess: 'X2',
}


@pytest.mark.parametrize('owner, method, wrong', [
    (owner, method, wrong) for owner, maps in _VALUE_MAPS.items()
    for method, due in maps.items() for wrong in _WRONG
    if wrong != due and (wrong != 'bundle polynomial' or method == 'member')])
def test_every_value_map_refuses_a_wrong_kind(sess, owner, method, wrong):
    with pytest.raises(ContractViolation):
        getattr(getattr(sess, owner), method)(_WRONG[wrong](sess))


def test_every_public_method_takes_a_value_or_is_exempt():
    # a new public map must join the matrix above, or be exempted by name
    for owner, cls in (('mo', BordismRing), ('laurent', LaurentRing), ('geometry', Geometry)):
        public = {name for name, value in vars(cls).items()
                  if callable(value) and not name.startswith('_')}
        assert public == set(_VALUE_MAPS[owner]) | _NO_VALUE[owner], owner
        assert not set(_VALUE_MAPS[owner]) & _NO_VALUE[owner], owner
    assert Geometry.exact_phi is Geometry.phi


def test_member_takes_a_delta_value(sess):
    # s_j is c_j, so a value of delta is a Laurent class
    geo, mo = sess.geometry, sess.mo
    for p in (geo.b(3), geo.b(2) * geo.b(2), geo.b(4) + sess.coef.a(2) * geo.b(2)):
        value = geo.delta(p)
        assert value and mo.member(value) == mo.member(GradedPoly(sess.table, value.monos))
