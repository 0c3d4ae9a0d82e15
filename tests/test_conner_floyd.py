"""The bundle algebra: phi, delta, the dictionary, mapping tori."""

import json
from pathlib import Path

import pytest

from bordcalc.conner_floyd import (AntipodalSphere, FreeBZ2Elem, GammaOf,
                                   Proj, ProductOf, Trivial)
from bordcalc.errors import ContractViolation


def test_dimensions_and_depth(sess):
    a2 = sess.coef.a(2)
    assert Proj(3).dim == 3
    assert GammaOf(Proj(3)).dim == 4
    assert ProductOf((Proj(2), Proj(3))).dim == 5
    assert Trivial(a2).dim == 2
    assert AntipodalSphere(3).dim == 3


def test_free_module_elements(sess):
    table = sess.table
    one = sess.coef.one()
    x = FreeBZ2Elem(table, {0: sess.coef.a(2), 2: one})
    assert x.to_text() == 'a2*s0 + s2'
    assert x + x == FreeBZ2Elem(table)
    # s_j is stored as c_j, and s_0 as 1: the support is the monomials a2 and c2
    assert x.support() == (sess.coef.a(2) + sess.laurent.c(2)).monos
    with pytest.raises(ContractViolation):
        FreeBZ2Elem(table, {-1: one})


def test_bundle_generators(sess):
    geo = sess.geometry
    assert geo.b(2).degree() == 2
    assert geo.is_bundle(geo.b(1) * sess.coef.a(4))
    assert not geo.is_bundle(sess.laurent.c(1))
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
