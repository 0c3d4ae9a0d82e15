"""The Boardman route against the Stiefel-Whitney route, and its laziness."""

import importlib
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc.boardman import tables
from bordcalc.charnum import fixed_bundle, identify_in_n, identify_in_nbo1
from bordcalc.coefficients import CoefRing
from bordcalc.errors import IntegrityError
from bordcalc.gf2 import MONO_ONE, power, product_monos
from bordcalc.parsing import parse_laurent, parse_presentation
from bordcalc.session import Session
from bordcalc.verify import SUITES, verify
from test_coefficients import partitions


@st.composite
def bmults(draw):
    """A b-multiset of degree at most 13, sorted: a degree, then parts of what is left."""
    left = draw(st.integers(min_value=1, max_value=13))
    parts = []
    while left:
        parts.append(draw(st.integers(min_value=1, max_value=left)))
        left -= parts[-1]
    return tuple(sorted(parts))


@settings(max_examples=40, deadline=None)
@given(bmults())
def test_delta_and_torus_match_the_sw_route(sess, bmult):
    coef = sess.coef
    pb = fixed_bundle(bmult)
    assert tables(coef).bundle_in_nbo1(bmult) == identify_in_nbo1(pb, pb.fiber_class(), coef)
    # a trivial line is a part 1: the fixed-point class, then the torus
    for trivial in ((1,), (1, 1)):
        bundle = bmult + trivial
        assert tables(coef).bundle_in_n(bundle) == identify_in_n(fixed_bundle(bundle), coef)


def test_sw_oracle_suite_through_degree_10(sess):
    checks = verify(sess, 'sw-oracle', 10)
    assert len(checks) == 40
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert 'sw-oracle' not in SUITES


@pytest.mark.parametrize('cap', [16, 20, 24])
def test_sw_oracle_asks_about_every_partition(monkeypatch, cap):
    # the oracle's two routes are stubbed out: the test reads only the
    # b-multisets its delta rows ask about, through every degree it admits
    asked = Counter()

    class Tables:
        def bundle_in_nbo1(self, bmult):
            asked[bmult] += 1

        def bundle_in_n(self, bmult):
            return None

    module = importlib.import_module('bordcalc.verify')
    monkeypatch.setattr(module, 'tables', lambda coef: Tables())
    monkeypatch.setattr(module, 'fixed_bundle',
                        lambda bmult: SimpleNamespace(fiber_class=lambda: None))
    monkeypatch.setattr(module, 'identify_in_nbo1', lambda *args: None)
    monkeypatch.setattr(module, 'identify_in_n', lambda *args: None)
    degrees = range(1, cap + 2)
    assert all(c.passed for c in module._suite_sw_oracle(Session(cap), degrees))
    assert asked == Counter(tuple(sorted(p)) for d in degrees for p in partitions(d))


def test_generators_lead_with_their_beta(sess):
    boardman = tables(sess.coef)
    for d in sess.coef.generator_degrees:
        assert max(boardman._generator(d)) == boardman._beta[d]
    # h(RP(2)) = beta_2 + beta_1^2: w_2 and w_1^2 of RP(2) are both 1
    assert boardman.table.text(min(boardman._generator(2))) == 'beta1^2'


def test_an_image_with_a_leading_part_2k_minus_1_is_refused(sess):
    boardman = tables(sess.coef)
    beta = boardman._beta
    for parts in ((1,), (3,), (7, 2), (3, 3)):
        with pytest.raises(IntegrityError, match='not recognized'):
            boardman._identify({sum(beta[p] for p in parts)}, 'N_*')


def test_tables_are_built_only_as_far_as_asked():
    s = Session()
    mo = s.mo
    assert s.coef.boardman is None
    # questions whose rewriting needs no alpha(G(i, n)) with i >= 1
    mo.normal_form(parse_presentation('e*G(1,2) + X2*X3', mo))
    mo.quotient_reduce(parse_presentation('e^2*G(1,3)', mo))
    assert mo.member(parse_laurent('c1*e^-1 + e^-2', s.laurent)) is not None
    assert s.coef.boardman is None
    # delta of a degree-9 class lands in dimension 8
    s.geometry.delta(s.geometry.b(4) * s.geometry.b(3) * s.geometry.b(2))
    boardman = s.coef.boardman

    def sizes():
        # the longest F row and power row, both held by degree 0..8
        return (max(len(rows) for rows in boardman._f.values()),
                max(len(row) for row in boardman._powers.values()))

    grown = sizes()
    assert grown[0] == 9 and grown[1] <= 9
    assert max(m & s.table.efree_mask for m in boardman._h) <= 8
    # alpha(G(1, 6)) lies in N_7: no table grows
    mo.normal_form(parse_presentation('G(2,6)*e', mo))
    assert sizes() == grown


def _dold_in_c_and_d(boardman, m, n):
    """h(P(m, n)) by the polynomial algebra in c and d that Boardman._dold replaced.

    A polynomial maps (i, j) to the set of beta monomials of its c^i d^j
    term, cut past c^m d^n; the answer is the c^m d^n term of
    B(c)^m (B(x_1) B(x_2))^(n+1).
    """
    beta = boardman._beta

    def mul(x, y):
        out = {}
        for (i1, j1), s1 in x.items():
            for (i2, j2), s2 in y.items():
                if i1 + i2 <= m and j1 + j2 <= n:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, set()) ^ product_monos(s1, s2)
        return {key: s for key, s in out.items() if s}

    # the power sums x_1^k + x_2^k = c p_{k-1} + d p_{k-2}, as sets of (i, j)
    sums = [set(), {(1, 0)}]
    for _ in range(2, m + 2 * n + 1):
        sums.append({(i + 1, j) for i, j in sums[-1]} ^ {(i, j + 1) for i, j in sums[-2]})
    # B(x_1) B(x_2) = sum_{a >= b} beta_a beta_b m_(a,b), the monomial
    # symmetric function m_(a,b) being d^b p_{a-b}, or d^a when a = b
    plane = {}
    for a in range(m + 2 * n + 1):
        for b in range(min(a, m + 2 * n - a) + 1):
            terms = [(0, a)] if a == b else [(i, j + b) for i, j in sums[a - b]]
            for key in terms:
                if key[0] <= m and key[1] <= n:
                    plane[key] = plane.get(key, set()) ^ {beta[a] + beta[b]}
    plane = {key: s for key, s in plane.items() if s}
    line = {(k, 0): {beta[k]} for k in range(m + 1)}
    one = {(0, 0): {MONO_ONE}}
    total = mul(power(line, m, one, mul), power(plane, n + 1, one, mul))
    return total.get((m, n), set())


def test_dold_images_match_the_polynomial_algebra_in_c_and_d():
    # every P(m, n) through dimension 28, generator or not
    boardman = tables(CoefRing(28))
    pairs = [(m, n) for n in range(15) for m in range(1, 29 - 2 * n)]
    assert len(pairs) == 210
    for m, n in pairs:
        assert boardman._dold(m, n) == _dold_in_c_and_d(boardman, m, n), (m, n)
