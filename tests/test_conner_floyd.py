"""The bundle algebra: phi, delta, the dictionary, mapping tori."""

import json
from pathlib import Path

import pytest

from bordcalc.boardman import tables
from bordcalc.conner_floyd import (AntipodalSphere, FreeBZ2Elem, GammaOf,
                                   Proj, ProductOf, Trivial, tower)
from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.gf2 import BUNDLE, GradedPoly
from bordcalc.session import Session


def test_dimensions_and_depth(sess):
    a2 = sess.coef.a(2)
    assert Proj(3).dim == 3
    assert GammaOf(Proj(3)).dim == 4
    assert ProductOf((Proj(2), Proj(3))).dim == 5
    assert Trivial(a2).dim == 2
    assert AntipodalSphere(3).dim == 3


def test_expressions_refuse_parts_of_another_kind(sess):
    # each used to build, and underlying or phi then raised AttributeError
    # or TypeError
    geo = sess.geometry
    for build in (lambda: GammaOf('x'), lambda: GammaOf(sess.coef.a(2)),
                  lambda: ProductOf((Proj(2), 'x')), lambda: ProductOf(Proj(2)),
                  lambda: ProductOf(()), lambda: Trivial('x'), lambda: Trivial(geo.b(1)),
                  lambda: Trivial(sess.laurent.e(-1)), lambda: Trivial(sess.mo.X(2))):
        with pytest.raises(ContractViolation):
            build()
    for walk in (geo.phi, geo.underlying):
        for x in ([Proj(2)], 'x', sess.coef.a(2)):
            with pytest.raises(ContractViolation):
                walk(x)


def test_free_module_elements(sess):
    table = sess.table
    one = sess.coef.one()
    x = FreeBZ2Elem(table, {0: sess.coef.a(2), 2: one})
    assert x.to_text() == 'a2*s0 + s2'
    assert x + x == FreeBZ2Elem(table)
    # s_j is stored as c_j, and s_0 as 1: the support is the monomials a2 and c2
    assert x.monos == (sess.coef.a(2) + sess.laurent.c(2)).monos
    with pytest.raises(ContractViolation):
        FreeBZ2Elem(table, {-1: one})


def test_bundle_generators(sess):
    geo = sess.geometry
    assert geo.b(2).degree() == 2
    assert (geo.b(1) * sess.coef.a(4)).uses_only(BUNDLE)
    assert not sess.laurent.c(1).uses_only(BUNDLE)
    with pytest.raises(ContractViolation):
        geo.b(0)
    for d in range(7):
        monos = geo.bundle_monomials(d)
        assert len(monos) == len(set(monos))
        for m in monos:
            assert m.degree() in (d, None)


def test_phi_pinned_values(sess):
    geo = sess.geometry
    b1, b2 = geo.b(1), geo.b(2)
    a2 = sess.coef.a(2)
    assert geo.phi(Proj(2)) == b2 + b1 ** 2
    assert geo.phi(GammaOf(Proj(2))) == a2 * b1 + b1 ** 3 + b1 * b2
    assert geo.phi(Trivial(a2)) == a2
    assert not geo.phi(AntipodalSphere(4))
    assert (geo.phi(ProductOf((Proj(2), Proj(2))))
            == geo.phi(Proj(2)) * geo.phi(Proj(2)))


def test_underlying(sess):
    geo = sess.geometry
    coef = sess.coef
    assert geo.underlying(Proj(2)) == coef.a(2)
    assert not geo.underlying(Proj(3))
    assert not geo.underlying(GammaOf(Proj(2)))
    assert not geo.underlying(AntipodalSphere(2))
    assert geo.underlying(Trivial(coef.a(4))) == coef.a(4)
    both = ProductOf((Proj(2), Trivial(coef.a(4))))
    assert geo.underlying(both) == coef.a(2) * coef.a(4)


def test_pt_class_and_eta(sess):
    geo = sess.geometry
    mo = sess.mo
    assert geo.pt_class(Proj(2)) == mo.X(2)
    assert mo.normal_form(geo.pt_class(GammaOf(Proj(2)))) == mo.G(1, 2)
    assert not geo.pt_class(AntipodalSphere(3))


def test_dictionary(sess):
    geo = sess.geometry
    L = sess.laurent
    assert geo.dictionary(geo.b(3)) == L.c(2) * L.e(-1)
    assert geo.dictionary(geo.phi(Proj(4))) == sess.mo.localize(sess.mo.X(4))
    with pytest.raises(ContractViolation):
        geo.dictionary(L.c(1))


def test_dictionary_injective_on_bundle_monomials(sess):
    from bordcalc.gf2 import poly_rank
    geo = sess.geometry
    for d in range(7):
        monos = geo.bundle_monomials(d)
        images = [geo.dictionary(m) for m in monos]
        assert poly_rank(images) == len(monos)


def test_delta_pinned_values(sess):
    geo = sess.geometry
    table = sess.table
    b1, b2 = geo.b(1), geo.b(2)
    expected = FreeBZ2Elem(table, {0: sess.coef.a(2), 2: sess.coef.one()})
    assert geo.delta(b1 * b2) == expected
    assert geo.delta(b1) == FreeBZ2Elem(table, {0: sess.coef.one()})
    assert not geo.delta(sess.coef.a(2) * sess.coef.a(4))
    for n in range(2, 7):
        assert not geo.delta(geo.phi(Proj(n)))
    with pytest.raises(ContractViolation):
        geo.delta(sess.laurent.e(1))


def test_delta_values_are_homogeneous(sess):
    # s_j is c_j of degree j, so a degree-d bundle class bounds in degree d - 1
    geo = sess.geometry
    for d in range(9):
        for m in geo.bundle_monomials(d):
            assert geo.delta(m).degree() in (None, d - 1), m
    assert geo.delta(geo.b(3) * geo.b(5)).degree() == 7


def test_torus_classes(sess):
    # the mapping torus of M is the underlying manifold of gamma(M)
    geo = sess.geometry
    coef = sess.coef

    def torus(m):
        return geo.underlying(GammaOf(m))

    assert not torus(Proj(2))
    assert not torus(Proj(3))
    assert not torus(Proj(4))
    assert torus(GammaOf(Proj(2))) == coef.a(2) ** 2 + coef.a(4)
    assert torus(GammaOf(Proj(3))) == coef.a(5)
    assert not torus(GammaOf(GammaOf(Proj(2))))


def test_exact_phi_agrees_below_depth_three(sess):
    geo = sess.geometry
    for x in geo.catalog_expressions(6):
        assert geo.exact_phi(x) == geo.phi(x)


def test_delta_kills_exact_phi(sess):
    geo = sess.geometry
    for x in geo.catalog_expressions(6):
        assert not geo.delta(geo.exact_phi(x))


def test_deep_towers_where_the_zero_torus_rule_breaks(sess):
    # A rule giving every twisted circle the underlying class 0 first goes
    # wrong on these towers: it drops the term b1^(j+1)*cls from phi, a
    # mapping-torus class cls that does not bound, and leaves the boundary
    # residue cls*s_j behind.
    geo = sess.geometry
    coef = sess.coef
    b1 = geo.b(1)
    assert (geo.underlying(GammaOf(GammaOf(Proj(2))))
            == coef.a(2) ** 2 + coef.a(4))
    assert not geo.underlying(GammaOf(GammaOf(GammaOf(Proj(2)))))
    assert geo.underlying(GammaOf(GammaOf(Proj(3)))) == coef.a(5)
    towers = {
        GammaOf(GammaOf(GammaOf(Proj(2)))): (coef.a(2) ** 2 + coef.a(4), 0),
        GammaOf(GammaOf(GammaOf(GammaOf(Proj(2))))): (coef.a(2) ** 2 + coef.a(4), 1),
        GammaOf(GammaOf(GammaOf(Proj(3)))): (coef.a(5), 0),
    }
    for tower, (cls, j) in towers.items():
        assert not geo.delta(geo.phi(tower))
        assert not geo.delta(geo.exact_phi(tower))
        assert geo.delta(b1 ** (j + 1) * cls) == FreeBZ2Elem(sess.table, {j: cls})


def test_manifold_for_basis_round_trip(sess):
    geo = sess.geometry
    mo = sess.mo
    for d in range(6):
        for fm in mo.basis_monomials(d, e_cap=0):
            expr = geo.manifold_for_basis(fm)
            assert expr.dim == d
            left = geo.dictionary(geo.phi(expr))
            right = mo.localize(mo.single(fm))
            assert left == right
            # kept by monomial: every caller gets the one expression
            assert geo.manifold_for_basis(fm) is expr
    with pytest.raises(ContractViolation):
        geo.manifold_for_basis(next(iter(mo.e(2).monos)))


def test_catalog(sess):
    geo = sess.geometry
    catalog = geo.catalog_expressions(6)
    assert len(catalog) == len(set(catalog))
    assert all(x.dim <= 6 for x in catalog)
    assert Proj(5) in catalog
    assert GammaOf(GammaOf(GammaOf(Proj(2)))) in catalog
    assert AntipodalSphere(6) in catalog
    assert any(isinstance(x, ProductOf) for x in catalog)


GOLDEN = Path(__file__).resolve().parent / 'golden' / 'fixed_data.json'


def fixed_data(sess):
    """The values read off fixed data, as text: the boundary of every bundle
    monomial of degree <= 10, phi and the underlying class of every catalog
    expression of dimension <= 8, and alpha(G(i, n)) for i + n <= 12."""
    geo, mo = sess.geometry, sess.mo
    return {
        'delta': {m.to_text(): geo.delta(m).to_text()
                  for d in range(11) for m in geo.bundle_monomials(d)},
        'phi_underlying': [[repr(x), geo.phi(x).to_text(), geo.underlying(x).to_text()]
                           for x in geo.catalog_expressions(8)],
        'alpha_G': {'G(%d,%d)' % (i, n): mo.alpha(mo.G(i, n)).to_text()
                    for n in range(1, 13) for i in range(13 - n)},
    }


def test_fixed_data_matches_golden(sess):
    # generated before phi and the underlying class shared one walk and the
    # two kinds of reference rows one builder
    assert json.dumps(fixed_data(sess), indent=1) + '\n' == GOLDEN.read_text()


def two_part_walk(geo, expr):
    """(phi, underlying class) of expr by the walk that computed the class
    its own way per expression type: rho(n) for P(n), the product of the
    factors' classes, the coefficient, zero for a sphere, and at gamma(M)
    the torus, a sum of P(nu_F + R^2) over the monomials of phi(M), term by
    term. The reference for the one fixed-point rule, kept with no memo."""
    table = geo.table
    if isinstance(expr, Proj):
        return geo.b(expr.n) + geo.b(1) ** expr.n, geo.coef.rho(expr.n)
    if isinstance(expr, GammaOf):
        fixed, inner = two_part_walk(geo, expr.inner)
        b_of = table.subscripts['b']
        torus = GradedPoly.zero(table)
        for m in fixed.monos:
            pairs = table.exponents(m)
            bmult = tuple(sorted(b_of[i] for i, x in pairs if i in b_of for _ in range(x)))
            # a rank-0 component contributes F x RP(1), which bounds
            if bmult:
                mu = GradedPoly(table, (table.pack([(i, x) for i, x in pairs if i not in b_of]),))
                torus = torus + mu * tables(geo.coef).bundle_in_n(bmult + (1, 1))
        return geo.b(1) * (inner + fixed), torus
    if isinstance(expr, ProductOf):
        fixed = cls = GradedPoly.one(table)
        for f in expr.factors:
            f_fixed, f_cls = two_part_walk(geo, f)
            fixed, cls = fixed * f_fixed, cls * f_cls
        return fixed, cls
    if isinstance(expr, Trivial):
        return expr.coef, expr.coef
    zero = GradedPoly.zero(table)
    return zero, zero


def _rule_inputs(geo):
    """The catalog through dimension 10 and the towers gamma^i(P(n)), i + n <= 12."""
    towers = [tower(i, n) for n in range(1, 13) for i in range(13 - n)]
    return geo.catalog_expressions(10) + [t for t in towers if t.dim > 10]


def test_one_fixed_point_rule_matches_the_two_part_walk():
    reference = Session().geometry
    want = [[v.to_text() for v in two_part_walk(reference, x)] for x in _rule_inputs(reference)]
    # in a fresh session each, then all in one session forwards and in
    # another backwards: the later answers come from memos earlier inputs
    # filled. Each session builds its own inputs, whose trivial classes
    # must lie over its own table.
    for k in range(len(want)):
        geo = Session().geometry
        x = _rule_inputs(geo)[k]
        assert [geo.phi(x).to_text(), geo.underlying(x).to_text()] == want[k], x
    for order in (range(len(want)), reversed(range(len(want)))):
        geo = Session().geometry
        inputs = _rule_inputs(geo)
        for k in order:
            x = inputs[k]
            # the class first, so it walks phi itself
            cls = geo.underlying(x).to_text()
            assert [geo.phi(x).to_text(), cls] == want[k], x


def test_underlying_classes_past_the_cap_are_refused():
    # phi of gamma(P(16)) needs only N_16 (the CLI's edge is in test_cli's
    # CAP_EDGES); its underlying class lies in N_17
    geo = Session(16).geometry
    assert geo.phi(GammaOf(Proj(16))).to_text() == 'a16*b1 + b1^17 + b1*b16'
    with pytest.raises(CapacityError, match=r'^an N_\* class of dimension 17: coefficient '
                       'degree 17 exceeds the degree cap 16$'):
        geo.underlying(GammaOf(Proj(16)))
    # refused even where the class is 0, as the odd rho(17) is: N_17 is not held
    for x in (Proj(17), ProductOf((Proj(9), Proj(8)))):
        with pytest.raises(CapacityError, match='dimension 17'):
            geo.underlying(x)
    assert geo.phi(Proj(17)) == geo.b(17) + geo.b(1) ** 17
