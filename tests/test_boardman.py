"""The Boardman route against the Stiefel-Whitney route, and its laziness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc.boardman import tables
from bordcalc.charnum import fixed_bundle, identify_in_n, identify_in_nbo1
from bordcalc.errors import IntegrityError
from bordcalc.parsing import parse_laurent, parse_presentation
from bordcalc.session import Session
from bordcalc.verify import SUITES, verify


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
    assert boardman.degree == 8
    assert max(len(rows) for rows in boardman._f.values()) == 9
    assert max(len(row) for row in boardman._powers.values()) <= 9
    assert max(m & s.table.efree_mask for m in boardman._h) <= 8
    # alpha(G(1, 6)) lies in N_7: no table grows
    mo.normal_form(parse_presentation('G(2,6)*e', mo))
    assert boardman.degree == 8
