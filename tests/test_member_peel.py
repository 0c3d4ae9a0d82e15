"""member's peel by number of c factors against one solve over the whole window.

The reference below is one Echelon over basis_monomials_window(d,
max(t0, -1)), which holds every basis monomial of degree d that a class
topping out at e^t0 can use. It never peels, so a term the peel names
wrongly shows up as a different preimage, or as a member on one side and
None on the other.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc.gf2 import Echelon
from bordcalc.presentation import FormalMonomial, Presentation, fm_key
from bordcalc.session import Session
from test_presentation import _sum_of_terms

DEGREES = range(-2, 13)
TOPS = range(-1, 4)
# delta(b_n) costs seconds past n = 10
NONMEMBER_MAX_N = 10


def _type_b(mo, d):
    """The basis monomials of degree d with a G(i >= 1) factor."""
    return [fm for fm in mo.basis_monomials(d, 0) if fm.gamma_factors()]


def basis_monomials_window(mo, d, t_max):
    """Basis monomials of degree d that a class topping out at e^t_max can use.

    A monomial without a G(i >= 1) factor is taken when its top
    e-exponent, epow - #X, is at most t_max. Every type-B monomial is
    taken: its localization lies in exponents <= -1. One solve over this
    window is the reference member's peel is tested against.
    """
    table, gens = mo.table, mo.coef.generators
    out = []
    # type A: coefficient degree v, X factors of degree w, e power
    # v + w - d >= 0, top e-exponent v + w - d - #X; each X_n has n >= 2
    for w in range(2 * (t_max + d) + 1):
        for xs in mo._x_factors(w):
            for v in range(max(0, d - w), t_max + d - w + len(xs) + 1):
                out.extend(FormalMonomial(coef, xs, v + w - d)
                           for coef in table.monomials(v, gens))
    out.extend(_type_b(mo, d))
    out.sort(key=lambda fm: fm_key(table, fm))
    return out


@functools.lru_cache(maxsize=None)
def _image(mo, fm):
    return mo.localize(mo.single(fm))


@functools.lru_cache(maxsize=None)
def _reference_window(mo, d, t):
    cands = basis_monomials_window(mo, d, t)
    return cands, Echelon([_image(mo, fm).monos for fm in cands])


def window_member(mo, target):
    """The preimage by one solve over the window at (d, max(t0, -1)), or None."""
    if not target:
        return mo.zero()
    cands, echelon = _reference_window(mo, target.degree(), max(target.max_inv_exp(), -1))
    flags = echelon.solve(target.monos)
    if flags is None:
        return None
    return Presentation(mo.table, (fm for fm, f in zip(cands, flags) if f))


@functools.lru_cache(maxsize=None)
def _extras(session, d):
    """mu*c_{n-1}*e^-1 with delta(mu*b_n) != 0: no closed manifold localizes to it."""
    L, geo = session.laurent, session.geometry
    return [mu * L.c(n - 1) * L.e(-1)
            for n in range(1, min(d, NONMEMBER_MAX_N) + 1)
            for mu in session.coef.monomials_of_degree(d - n)
            if geo.delta(mu * geo.b(n))]


def member_target(mo, rng, d, t, most=3):
    """localize of 1..most basis monomials of degree d, one topping out at e^t.

    The window at (d, t) holds exactly the basis monomials topping out at
    or below e^t.
    """
    below = _reference_window(mo, d, t)[0]
    exact = [fm for fm in below if _image(mo, fm).max_inv_exp() == t]
    if not exact:
        return None
    first = rng.choice(exact)
    rest = [fm for fm in below if fm != first]
    picks = [first] + rng.sample(rest, min(len(rest), rng.randint(0, most - 1)))
    return mo.localize(Presentation(mo.table, picks))


def targets(session, rng, d, t):
    """A member topping out at e^t and, where degree d has one, a non-member."""
    target = member_target(session.mo, rng, d, t)
    if target is None:
        return []
    extras = _extras(session, d)
    if not extras:
        return [(target, True)]
    return [(target, True), (target + rng.choice(extras), False)]


def test_peel_agrees_with_one_window_solve(sess):
    rng = random.Random(11)
    mo = sess.mo
    asked = set()
    for d in DEGREES:
        for t in TOPS:
            for _ in range(2):
                for target, is_member in targets(sess, rng, d, t):
                    found = mo.member(target)
                    assert found == window_member(mo, target), (d, t, target)
                    assert (found is not None) == is_member, (d, t, target)
                    if found is not None:
                        assert mo.localize(found) == target
                        # the CLI prints found without rewriting it again
                        assert mo.normal_form(found) == found
                    asked.add((t, is_member))
    # members and non-members at every top, the peeled levels 0..3 included
    assert asked == {(t, m) for t in TOPS for m in (True, False)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEGREES), st.sampled_from(TOPS), st.integers(0, 2 ** 32 - 1))
def test_peel_matches_the_window_property(sess, d, t, seed):
    mo = sess.mo
    for target, is_member in targets(sess, random.Random(seed), d, t):
        found = mo.member(target)
        assert found == window_member(mo, target)
        assert (found is not None) == is_member


@st.composite
def _shape(draw, size):
    """G(i, n) factors (X_n when i = 0) and a_d degrees of sizes adding up to size."""
    factors, coef_degrees, left = [], [], size
    while left:
        # no part leaves 1 behind, which no part fills
        p = draw(st.sampled_from([p for p in range(2, min(left, 8) + 1) if left - p != 1]))
        if p in (2, 4, 5, 6) and draw(st.booleans()):
            coef_degrees.append(p)
        else:
            n = draw(st.integers(max(2, p - 3), min(p, 6)))
            factors.append((p - n, n))
        left -= p
    return factors, coef_degrees


@st.composite
def _presentation_shapes(draw):
    """(factors, a_d degrees, e power) of the terms of a class of degree -2..10.

    A term's size, its degree plus its e power, is at most 12.
    """
    d = draw(st.integers(-2, 10))
    least = max(0, -d)
    epows = [k for k in range(least, least + 4) if d + k != 1 and d + k <= 12]
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(epows))
        shapes.append(draw(_shape(d + k)) + (k,))
    return shapes


# one session shared across draws, so its windows and memos fill as a
# long session's do
_SHARED = Session()


@settings(max_examples=60, deadline=None)
@given(_presentation_shapes())
def test_member_of_a_localization_is_the_normal_form(shapes):
    # member solves in Laurent coordinates, normal_form rewrites: two routes
    for session in (Session(), _SHARED):
        mo = session.mo
        x = _sum_of_terms(session, shapes)
        assert mo.member(mo.localize(x)) == mo.normal_form(x), shapes


def _level_and_count(table, m):
    """(the e exponent L of the term m, the number |J| of its c factors)."""
    c = table.family['c'].values()
    return (m >> table.e_shift,
            sum(x for i, x in table.exponents(m) if i in c))


def test_no_type_b_localization_reaches_the_peeled_terms(sess):
    # each term of loc(G(i, j)), i >= 1, has L + |J| <= -1, so no type-B
    # localization reaches a term that names a type-A monomial; its one
    # term with the most c factors names it, G(i, j) by the least c index
    mo, table = sess.mo, sess.table
    terms = 0
    for d in range(13):
        for fm in _type_b(mo, d):
            image = mo.localize(mo.single(fm)).monos
            counts = {}
            for m in image:
                level, count = _level_and_count(table, m)
                assert level + count <= -1, (fm, table.text(m))
                counts[m] = count
                terms += 1
            most = max(counts.values())
            (top,) = [m for m, r in counts.items() if r == most]
            assert mo._most_c(image) == [top], fm
            assert mo._topped(top) == (fm.gammas, fm.coef), fm
    assert terms > 2000


def test_every_type_a_monomial_is_peeled_off_its_top(sess):
    # mu X_{J+1} e^k localizes to a top term mu c_J e^(k-|J|), every other
    # term strictly lower and with fewer c factors, and the peel maps that
    # term back to it
    mo, table = sess.mo, sess.table
    e = table.units[table.invertible]
    seen = 0
    for d in range(-4, 13):
        for fm in mo.basis_monomials(d, e_cap=4):
            if fm.gamma_factors():
                continue
            image = mo.localize(mo.single(fm)).monos
            top = max(image)
            level, count = _level_and_count(table, top)
            assert level + count == fm.epow >= 0, fm
            assert all(m >> table.e_shift < level and _level_and_count(table, m)[1] < count
                       for m in image if m != top), fm
            assert mo._most_c(image) == [top], fm
            assert mo._topped(top) == (fm.gammas, fm.coef + fm.epow * e), fm
            seen += 1
    assert seen > 3000


def test_member_of_a_type_a_and_a_type_b_monomial():
    mo = Session().mo
    for d in range(4, 13):
        x = mo.e(1) * mo.X(d + 1) + mo.single(_type_b(mo, d)[0])
        assert mo.member(mo.localize(x)) == mo.normal_form(x)
    # the candidates of degree 12: 519 in the window a one-solve member
    # would need, 157 of them type B
    assert len(basis_monomials_window(mo, 12, -1)) == 519
    assert len(_type_b(mo, 12)) == 157


@settings(max_examples=60, deadline=None)
@given(_presentation_shapes())
def test_a_c_free_term_below_e0_makes_a_non_member(shapes):
    # mu*e^-k, mu c-free and k >= 1, names no basis monomial, so it is no
    # localization, and neither is a localization plus it
    session = _SHARED
    mo, L = session.mo, session.laurent
    factors, coef_degrees, epow = shapes[0]
    d = sum(i + n for i, n in factors) + sum(coef_degrees) - epow
    target = mo.localize(_sum_of_terms(session, shapes))
    asked = 0
    for k in range(1, d + 1):
        for mu in session.coef.monomials_of_degree(d - k):
            assert mo.member(target + mu * L.e(-k)) is None, (shapes, k, mu)
            asked += 1
    assert bool(asked) == (d >= 1)


@pytest.mark.parametrize('cap', [16, 24])
def test_the_basis_is_the_peel_maps_image(cap):
    # every a,c Laurent term of degree d names at most one basis monomial,
    # and those with e power <= e_cap are exactly basis_monomials(d, e_cap):
    # a route through _topped alone, none of _basis's blocks
    session = Session(cap)
    mo, table = session.mo, session.table
    shift, e = table.e_shift, table.units[table.invertible]
    low = (1 << shift) - 1
    variables = session.coef.generators + tuple(table.family['c'].values())
    for d in range(-4, 13):
        for e_cap in (0, 2, 4):
            named = []
            # a term of e-free degree t has e power t - d
            for t in range(max(d + e_cap + 1, 0)):
                for m in table.monomials(t, variables):
                    piece = mo._topped(m + (t - d) * e)
                    if piece is not None and piece[1] >> shift <= e_cap:
                        xs, rest = piece
                        named.append(FormalMonomial(rest & low, xs, rest >> shift))
            named.sort(key=lambda fm: fm_key(table, fm))
            assert named == mo.basis_monomials(d, e_cap), (cap, d, e_cap)
