"""Polynomial arithmetic and GF(2) linear algebra."""

import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bordcalc import gf2
from bordcalc.charnum import CohomClass, ProjBundle, RP
from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.gf2 import (MONO_ONE, Echelon, GradedPoly, mono_degree, parity, poly_rank,
                          rank_sets, solve_gf2, solve_sets, standard_table)
from bordcalc.conner_floyd import FreeBZ2Elem
from bordcalc.localized import LaurentRing
from bordcalc.presentation import FormalMonomial, Presentation, QuotientElem, fm_mul
from test_coefficients import _partition_count, partitions

TABLE = standard_table((2, 4, 5), 6)

A2 = GradedPoly.var(TABLE, 'a2')
C1 = GradedPoly.var(TABLE, 'c1')
X2 = GradedPoly.var(TABLE, 'X2')


def e(k=1):
    return GradedPoly.var(TABLE, 'e', k)


def mono(*pairs):
    return TABLE.pack((TABLE.index(name), exp) for name, exp in pairs)


_POOL = [mono(), mono(('a2', 1)), mono(('c1', 1)), mono(('e', -1)),
         mono(('e', 2)), mono(('a2', 1), ('e', -2)), mono(('c1', 2))]

polys = st.sets(st.sampled_from(_POOL), max_size=7).map(
    lambda ms: GradedPoly(TABLE, ms))

# 1, e, X2, G(1,2) and a2*X3: presentations share the sum core
_FM_POOL = [FormalMonomial(MONO_ONE, (), 0), FormalMonomial(MONO_ONE, (), 1),
            FormalMonomial(MONO_ONE, ((0, 2),), 0), FormalMonomial(MONO_ONE, ((1, 2),), 0),
            FormalMonomial(mono(('a2', 1)), ((0, 3),), 0)]

presentations = st.sets(st.sampled_from(_FM_POOL), max_size=5).map(
    lambda ms: Presentation(TABLE, ms))


class _DictModule:
    """The free-module values as they were: a dict from index to a nonzero
    GradedPoly, kept as the reference for the polynomial ones."""

    def __init__(self, parts):
        assert all(j >= self.least for j in parts)
        self.parts = {j: p for j, p in sorted(parts.items()) if p}

    def __add__(self, other):
        zero = GradedPoly.zero(TABLE)
        return type(self)({j: self.parts.get(j, zero) + other.parts.get(j, zero)
                           for j in set(self.parts) | set(other.parts)})

    def __eq__(self, other):
        return self.parts == other.parts

    def __bool__(self):
        return bool(self.parts)

    def to_text(self):
        out = []
        for j, poly in self.parts.items():
            text, gen = poly.to_text(), '%s%d' % (self.symbol, j)
            out.append(gen if text == '1' else '%s*%s' % (text, gen) if len(poly) == 1
                       else '(%s)*%s' % (text, gen))
        return ' + '.join(out) or '0'


class _DictS(_DictModule):
    symbol, least = 's', 0


class _DictX(_DictModule):
    symbol, least = 'x', 1


# coefficients: polynomials in the a_d and X_n, zero included
_COEF_POOL = [mono(), mono(('a2', 1)), mono(('a4', 1)), mono(('a2', 2)), mono(('X2', 1)),
              mono(('X3', 1)), mono(('a2', 1), ('X2', 1)), mono(('a5', 1), ('X2', 2))]
module_parts = st.dictionaries(
    st.integers(0, 5), st.sets(st.sampled_from(_COEF_POOL), max_size=4).map(
        lambda ms: GradedPoly(TABLE, ms)), max_size=4)


@given(module_parts, module_parts)
def test_module_values_match_the_dict_reference(p, q):
    for cls, ref in ((FreeBZ2Elem, _DictS), (QuotientElem, _DictX)):
        p1, q1 = ({j + ref.least: v for j, v in d.items()} for d in (p, q))
        x, y, rx, ry = cls(TABLE, p1), cls(TABLE, q1), ref(p1), ref(q1)
        assert x.to_text() == rx.to_text()
        assert (x + y).to_text() == (rx + ry).to_text()
        assert (x == y) == (rx == ry)
        assert x + y == cls(TABLE, (rx + ry).parts)
        assert bool(x) == bool(rx) and bool(x + y) == bool(rx + ry)
        assert hash(x + y) == hash(y + x)


def test_module_values_are_additive_only():
    x = FreeBZ2Elem(TABLE, {0: A2, 2: GradedPoly.one(TABLE)})
    q = QuotientElem(TABLE, {1: A2 + X2})
    for v in (x, q):
        with pytest.raises(ContractViolation):
            v * v
        with pytest.raises(ContractViolation):
            v ** 2
        with pytest.raises(ContractViolation):
            A2 * v
        with pytest.raises(ContractViolation):
            type(v).one(TABLE)
    assert x.degree() == 2 and q.degree() == 1
    assert x != GradedPoly(TABLE, x.monos)
    # a coefficient holding the module's own generators is refused
    with pytest.raises(ContractViolation):
        FreeBZ2Elem(TABLE, {1: C1})
    with pytest.raises(ContractViolation):
        QuotientElem(TABLE, {1: e(-1)})
    with pytest.raises(CapacityError):
        FreeBZ2Elem(TABLE, {7: A2})


@given(polys, polys, polys, st.tuples(presentations, presentations, presentations))
def test_ring_axioms(p, q, r, xs):
    for p, q, r in ((p, q, r), xs):
        one, zero = type(p).one(TABLE), type(p).zero(TABLE)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + p == zero
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * one == p
        assert p * zero == zero


@given(polys, presentations, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(p, x, k):
    for p in (p, x):
        expected = type(p).one(TABLE)
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected


# The exponent tuples the packed monomials replaced: sorted (index,
# exponent) pairs, multiplied through a dict, ordered and printed as the
# term order and canonical text define. Kept as the reference the packed
# ints must agree with.

def tuple_mul(m1, m2):
    exps = dict(m1)
    for i, x in m2:
        y = exps.get(i, 0) + x
        if y:
            exps[i] = y
        else:
            del exps[i]
    return tuple(sorted(exps.items()))


def tuple_key(table, m):
    exps = [0] * len(table)
    for i, x in m:
        exps[i] = x
    inv = table.invertible
    return (-exps[inv], tuple(-exps[i] for i in range(len(table)) if i != inv))


def tuple_text(table, m):
    if not m:
        return '1'
    inv = table.invertible
    ordered = [(i, x) for i, x in m if i != inv] + [(i, x) for i, x in m if i == inv]
    return '*'.join(table.names[i] if x == 1 else '%s^%d' % (table.names[i], x)
                    for i, x in ordered)


def tuple_degree(table, m):
    return sum(x * table.degrees[i] for i, x in m)


def efree_degree(table, m):
    return sum(x * table.degrees[i] for i, x in m if i != table.invertible)


_PLAIN = [i for i in range(len(TABLE)) if i != TABLE.invertible]


@st.composite
def tuple_monos(draw):
    """An exponent tuple inside TABLE's limit, often with a variable at its field limit."""
    budget = TABLE.limit
    exps = {}
    for i in draw(st.lists(st.sampled_from(_PLAIN), max_size=4, unique=True)):
        deg = TABLE.degrees[i]
        if budget >= deg:
            exps[i] = draw(st.sampled_from([1, budget // deg]) | st.integers(1, budget // deg))
            budget -= exps[i] * deg
    k = draw(st.sampled_from([10 ** 8, -10 ** 8, 10 ** 8 - 1]) | st.integers(-3, 3))
    if k:
        exps[TABLE.invertible] = k
    return tuple(sorted(exps.items()))


@given(tuple_monos(), tuple_monos())
def test_packed_monomials_match_the_tuple_reference(t1, t2):
    m1, m2 = TABLE.pack(t1), TABLE.pack(t2)
    for t, m in ((t1, m1), (t2, m2)):
        assert TABLE.exponents(m) == t
        assert GradedPoly(TABLE, (m,)).terms == frozenset([t])
        assert TABLE.text(m) == tuple_text(TABLE, t)
        assert mono_degree(TABLE, m) == tuple_degree(TABLE, t)
    # the int order is the term order, the leading term largest
    assert (m1 > m2) == (tuple_key(TABLE, t1) < tuple_key(TABLE, t2))
    assert (m1 == m2) == (t1 == t2)
    p1, p2 = GradedPoly(TABLE, (m1,)), GradedPoly(TABLE, (m2,))
    product = tuple_mul(t1, t2)
    if efree_degree(TABLE, product) <= TABLE.limit:
        assert (p1 * p2).monos == {m1 + m2}
        assert TABLE.exponents(m1 + m2) == product
        assert (p1 * p2).to_text() == tuple_text(TABLE, product)
    else:
        with pytest.raises(CapacityError):
            p1 * p2


# A product with a one-term operand is a shift of the other operand's
# monomials; the general product is the reference. Near-limit monomials and
# huge e powers are in the pools, so overflow is drawn as well.
_LIMIT = TABLE.limit
_SHIFTS = _POOL + [mono(('c1', _LIMIT)), mono(('a2', _LIMIT // 2)), mono(('e', 10 ** 8)),
                   mono(('e', -10 ** 8)), mono(('a2', 1), ('e', 10 ** 8))]
_FACTORS = _POOL + [mono(('c1', _LIMIT - 1)), mono(('a2', 3), ('X2', 1))]


@given(st.sets(st.sampled_from(_FACTORS), max_size=6), st.sampled_from(_SHIFTS))
def test_one_term_products_match_the_general_product(ms, m):
    p, q = GradedPoly(TABLE, ms), GradedPoly(TABLE, (m,))
    try:
        expected = TABLE.checked(gf2.product_monos(p.monos, q.monos))
    except CapacityError:
        for x, y in ((p, q), (q, p)):
            with pytest.raises(CapacityError):
                x * y
    else:
        assert (p * q).monos == expected and (q * p).monos == expected


# presentations shift by c*e^k too; near-limit coefficients overflow
_FM_SHIFTS = _FM_POOL + [FormalMonomial(mono(('a2', _LIMIT // 2)), (), 0),
                         FormalMonomial(mono(('a4', 1)), (), 10 ** 8),
                         FormalMonomial(mono(('a2', _LIMIT // 2)), ((0, 2),), 1)]


@given(presentations, st.sampled_from(_FM_SHIFTS))
def test_one_term_presentation_products_match_the_general_product(p, f):
    q = Presentation(TABLE, (f,))
    try:
        expected = gf2.product_monos(p.monos, q.monos, fm_mul)
        TABLE.checked(fm.coef for fm in expected)
    except CapacityError:
        for x, y in ((p, q), (q, p)):
            with pytest.raises(CapacityError):
                x * y
    else:
        assert (p * q).monos == expected and (q * p).monos == expected


def test_one_term_products_keep_their_checks():
    top = GradedPoly.var(TABLE, 'c1', _LIMIT)
    # a one-term factor of e-free degree still carries a product past the limit
    for p, q in ((top + A2 + e(3), A2 * e(2)), (C1, top * e(-4)), (top, top)):
        for x, y in ((p, q), (q, p)):
            with pytest.raises(CapacityError):
                x * y
    # a pure e power has none, and shifts any power without a check
    x = (A2 + C1 * e(-1)) * e(10 ** 8)
    assert (x.max_inv_exp(), x.min_inv_exp()) == (10 ** 8, 10 ** 8 - 1)
    assert e(-10 ** 8) * x == A2 + C1 * e(-1)
    assert (top * e(10 ** 8)).degree() == _LIMIT - 10 ** 8
    # free-module values are not multiplied, by one term or by another value
    s = FreeBZ2Elem(TABLE, {0: A2})
    for x, y in ((s, s), (s, A2), (A2, s), (s, FreeBZ2Elem(TABLE, {1: A2 + X2}))):
        with pytest.raises(ContractViolation):
            x * y


# The term-by-term substitution the memoized maps replaced: each monomial's
# unmapped rest times its mapped variables' images, powered and multiplied
# one by one, the pieces added up. Kept as the reference for the Laurent
# ring's two substitutions, clear_denominators and eval_cleared.

def termwise_substitute(x, images):
    table = x.table
    acc = GradedPoly.zero(table)
    for m in x.monos:
        pairs = table.exponents(m)
        piece = GradedPoly(table, (table.pack(p for p in pairs if p[0] not in images),))
        for i, k in pairs:
            if i in images:
                piece = piece * images[i] ** k
        acc = acc + piece
    return acc


def _laurent():
    # the ring reads only its coefficient ring's table and cap
    return LaurentRing(SimpleNamespace(table=TABLE, max_degree=6))


# c_j -> e*X_{j+1} + e^-j and X_n -> c_{n-1}*e^-1 + e^-n, by variable index
_CLEARING = {i: e(1) * GradedPoly.var_of(TABLE, 'X', j + 1) + e(-j)
             for i, j in TABLE.subscripts['c'].items()}
_EVALUATION = {i: GradedPoly.var_of(TABLE, 'c', n - 1) * e(-1) + e(-n)
               for i, n in TABLE.subscripts['X'].items()}


def _cleared(laurent, x):
    n, p = laurent.clear_denominators(x)
    assert not p or p.min_inv_exp() >= 0
    # the reference does not clear: undo the shift
    return e(-n) * p


def _by_degree(monos):
    groups = {}
    for m in monos:
        groups.setdefault(mono_degree(TABLE, m), []).append(m)
    return list(groups.values())


# clear_denominators takes homogeneous sums in a, c and e, eval_cleared any
# sum in a, X and e; near-limit monomials overflow once cleared, through a
# kept image or a new one
_CLEAR_POOLS = _by_degree([
    mono(), mono(('a2', 1)), mono(('c1', 1)), mono(('c2', 1)), mono(('c1', 1), ('e', -1)),
    mono(('e', -2)), mono(('c1', 2)), mono(('c2', 1), ('a2', 1)), mono(('c1', 2), ('e', -1)),
    mono(('c3', 1), ('e', 1)), mono(('c1', 1), ('a2', 7)), mono(('c1', 15)),
    mono(('c1', 13), ('a2', 1)), mono(('a2', 7), ('e', -1)), mono(('a5', 3))])
_EVAL_POOLS = [[mono(), mono(('a2', 1)), mono(('X2', 1)), mono(('X3', 1), ('a2', 1)),
                mono(('X2', 2), ('a4', 1), ('e', 3)), mono(('e', -2)), mono(('X3', 1), ('e', -1)),
                mono(('X2', 1), ('a2', 6)), mono(('X7', 1)), mono(('X2', 7)), mono(('a5', 3))]]
# one ring for every draw: its memos are shared, as in a session
_LAURENT = _laurent()
_MAPS = [(functools.partial(_cleared, _LAURENT), _CLEARING, _CLEAR_POOLS),
         (_LAURENT.eval_cleared, _EVALUATION, _EVAL_POOLS)]


@given(st.sampled_from(_MAPS), st.data())
def test_substitution_matches_the_termwise_reference(laurent_map, data):
    substitute, images, pools = laurent_map
    pool = data.draw(st.sampled_from(pools))
    x = GradedPoly(TABLE, data.draw(st.sets(st.sampled_from(pool), max_size=5)))
    try:
        expected = termwise_substitute(x, images)
    except CapacityError:
        with pytest.raises(CapacityError):
            substitute(x)
    else:
        assert substitute(x) == expected


def test_overflow_raises_capacity_error():
    limit = TABLE.limit
    # a single variable, a product and a power past the fields' limit
    with pytest.raises(CapacityError):
        GradedPoly.var(TABLE, 'a2', 10 ** 6)
    with pytest.raises(CapacityError):
        GradedPoly.var(TABLE, 'c1', limit + 1)
    top = GradedPoly.var(TABLE, 'c1', limit)
    assert top.degree() == limit
    for x, y in ((top, C1), (C1, top), (top + A2, C1 + e(5))):
        with pytest.raises(CapacityError):
            x * y
    with pytest.raises(CapacityError):
        (C1 + A2) ** (10 ** 8)
    # a presentation's coefficients are packed the same way
    a2_top = Presentation(TABLE, [FormalMonomial(mono(('a2', limit // 2)), (), 0)])
    with pytest.raises(CapacityError):
        a2_top * Presentation(TABLE, [FormalMonomial(mono(('a2', 1)), ((0, 2),), 1)])
    # the e power has no field: any power is one addition away
    huge = e(10 ** 8)
    assert huge * e(-10 ** 8) == GradedPoly.one(TABLE)
    assert (huge * top).to_text() == 'c1^%d*e^100000000' % limit
    assert (e(-1) ** (10 ** 8)).to_text() == 'e^-100000000'


def test_polynomials_and_presentations_do_not_mix():
    x = Presentation(TABLE, _FM_POOL[2:3])
    for p in (GradedPoly.one(TABLE), X2):
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ContractViolation):
                op(p, x)
            with pytest.raises(ContractViolation):
                op(x, p)
        assert p != x and x != p
        assert not p == x and not x == p
    # the same terms do not make a presentation equal a polynomial
    assert Presentation(TABLE) != GradedPoly.zero(TABLE)


def test_negative_power_rejected_off_the_invertible():
    with pytest.raises(ContractViolation):
        GradedPoly.var(TABLE, 'a2', -1)
    assert e(-3) * e(3) == GradedPoly.one(TABLE)


def test_text_freeze():
    assert (C1 * e(-1) + e(-2)).to_text() == 'c1*e^-1 + e^-2'
    assert GradedPoly.zero(TABLE).to_text() == '0'
    assert GradedPoly.one(TABLE).to_text() == '1'
    assert (A2 + X2).to_text() == 'a2 + X2'


def test_square_freeze():
    # Frobenius: squaring is additive in characteristic 2
    x = C1 * e(-1) + e(-2)
    assert x ** 2 == C1 ** 2 * e(-2) + e(-4)


def test_support_and_windows():
    mixed = C1 + e(1)
    assert mixed.degrees() == {1, -1}
    assert not mixed.homogeneous()
    with pytest.raises(ContractViolation):
        mixed.degree()
    x = A2 * e(-2) + C1 * e(-1)
    assert x.uses_only('ace')
    assert not x.uses_only('ae')
    assert not x.uses_only('ac')
    assert (A2 * e(3)).uses_only('ae') and not (A2 * e(3)).uses_only('a')
    assert A2.uses_only('a') and GradedPoly.one(TABLE).uses_only('')
    assert x.min_inv_exp() == -2
    assert x.max_inv_exp() == -1


def test_families_and_the_one_enumerator():
    assert TABLE.family['a'] == {2: TABLE.index('a2'), 4: TABLE.index('a4'),
                                 5: TABLE.index('a5')}
    assert TABLE.subscripts['X'] == {i: n for n, i in TABLE.family['X'].items()}
    assert TABLE.family['e'] == {None: TABLE.invertible}
    assert GradedPoly.var_of(TABLE, 'c', 1) == C1
    a2, a4, c1 = TABLE.index('a2'), TABLE.index('a4'), TABLE.index('c1')
    # the first variable's largest power first
    assert TABLE.monomials(4, (a2, a4)) == (mono(('a2', 2)), mono(('a4', 1)))
    assert TABLE.monomials(4, (a4, a2)) == (mono(('a4', 1)), mono(('a2', 2)))
    assert TABLE.monomials(3, (a2, c1)) == (mono(('a2', 1), ('c1', 1)), mono(('c1', 3)))
    assert TABLE.monomials(0, ()) == (MONO_ONE,) and TABLE.monomials(-1, (a2,)) == ()
    with pytest.raises(CapacityError):
        TABLE.monomials(TABLE.limit + 1, (c1,))


def _mask_by_bit_walk(table, letters):
    """VarTable.mask's reference: every bit of the layout, kept when its owner is named."""
    idxs = {i for letter in letters for i in table.subscripts[letter]}
    return (sum(1 << b for b, i in enumerate(table._owner) if i in idxs)
            | (-1 << table.e_shift if table.invertible in idxs else 0))


@pytest.mark.parametrize('cap', [8, 16, 24])
def test_family_masks_match_the_bit_walk(cap):
    from bordcalc.session import Session
    from bordcalc.verify import verify
    session = Session(cap)
    table = session.table
    # the sets the package names, every family alone, and every set a sweep asked for
    verify(session, 'all', 2)
    asked = {gf2.COEFFICIENT, gf2.LAURENT, gf2.CLEARED, gf2.BUNDLE, 'ae', 'b', 'c', 'X',
             FreeBZ2Elem.family, QuotientElem.family, *table.family, *table._masks}
    for letters in sorted(asked):
        assert table.mask(letters) == _mask_by_bit_walk(table, letters), letters


def test_substitute():
    laurent = _laurent()
    x = C1 * e(1) + A2 * e(2)
    n, p = laurent.clear_denominators(x)
    assert (n, p) == (0, e(2) * X2 + GradedPoly.one(TABLE) + A2 * e(2))
    assert laurent.eval_cleared(p) == x
    # each map takes its own families only
    with pytest.raises(ContractViolation):
        laurent.clear_denominators(X2)
    with pytest.raises(ContractViolation):
        laurent.eval_cleared(C1)


def test_substitution_checks_what_its_memo_holds():
    laurent = _laurent()
    assert laurent.clear_denominators(C1) == (1, e(2) * X2 + GradedPoly.one(TABLE))
    assert len(laurent._clear_c) == 1
    # the image of c1 is kept; a2^7*c1 fits the table, its image a2^7*X2*e does not
    top = GradedPoly.var(TABLE, 'a2', TABLE.limit // 2)
    assert (top * C1).degree() == TABLE.limit
    with pytest.raises(CapacityError):
        laurent.clear_denominators(top * C1)
    assert laurent._clear_c.hits == 1


_DEG2 = [mono(('a2', 1)), mono(('c1', 2)), mono(('X2', 1)),
         mono(('e', -2)), mono(('c1', 1), ('e', -1))]

vectors2 = st.lists(
    st.sets(st.sampled_from(_DEG2), max_size=5).map(
        lambda ms: GradedPoly(TABLE, ms)),
    max_size=5)


@given(vectors2, st.sets(st.sampled_from(_DEG2), max_size=5))
def test_solve_matches_exhaustive_search(vecs, target_monos):
    target = GradedPoly(TABLE, target_monos)
    flags = solve_gf2(vecs, target)
    if flags is None:
        for combo in itertools.product((0, 1), repeat=len(vecs)):
            acc = GradedPoly.zero(TABLE)
            for f, v in zip(combo, vecs):
                if f:
                    acc = acc + v
            assert acc != target
    else:
        acc = GradedPoly.zero(TABLE)
        for f, v in zip(flags, vecs):
            if f:
                acc = acc + v
        assert acc == target


def test_rank_basics():
    assert poly_rank([]) == 0
    assert poly_rank([A2, A2]) == 1
    assert poly_rank([A2, X2, A2 + X2]) == 2
    with pytest.raises(ContractViolation):
        poly_rank([A2, C1])


def test_parity_drops_even_multiplicities():
    assert parity([]) == frozenset()
    assert parity(['a', 'b', 'a', 'c', 'a', 'b']) == frozenset({'a', 'c'})
    assert parity(iter([(), (), ()])) == frozenset({()})


def test_power_is_repeated_multiplication(sess):
    mo = sess.mo
    base = RP(3)
    u = base.gen('u')
    bundle = ProjBundle(base, [u, u, CohomClass.zero(base)])
    one_b = CohomClass.one(bundle)
    cases = [
        (C1 * e(-1) + e(-2) + A2, GradedPoly.one(TABLE)),
        (mo.X(2) + mo.e(1) * mo.G(1, 3) + mo.iota(sess.coef.a(2)), mo.one()),
        (one_b + bundle.fiber_class() + CohomClass(bundle, u.terms), one_b),
    ]
    for x, one in cases:
        expected = one
        for n in range(7):
            assert x ** n == expected
            expected = expected * x
        with pytest.raises(ContractViolation):
            x ** -1


def test_partitions_count_and_order():
    for parts in (None, (2, 4, 5, 6, 8), (1, 3), (2,), range(2, 18)):
        for d in range(-1, 15):
            out = partitions(d, parts)
            allowed = range(1, d + 1) if parts is None else parts
            assert len(out) == (_partition_count(d, allowed) if d >= 0 else 0)
            assert out == sorted(set(out), reverse=True)
            for p in out:
                assert sum(p) == d and set(p) <= set(allowed)
                assert list(p) == sorted(p, reverse=True)


def test_rank_and_solve_over_sets():
    rows = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    assert rank_sets(rows) == 2
    assert solve_sets(rows, frozenset({1, 3})) == [1, 1, 0]
    assert solve_sets(rows, frozenset({1})) is None
    # one elimination, many targets; a column no row holds answers None
    ech = Echelon(rows + [frozenset()])
    assert ech.rank == 2
    assert ech.solve(frozenset()) == [0, 0, 0, 0]
    assert ech.solve(frozenset({1, 3})) == [1, 1, 0, 0]
    assert ech.solve(frozenset({1, 4})) is None
    assert ech.solve(frozenset({1})) is None


def _keyed(rows, target, key):
    """(rank, flags) of the elimination with columns ordered by key, the first
    on the highest bit, and the target's monomials as columns too."""
    universe = sorted(frozenset().union(target, *rows), key=key)
    pos = {m: len(universe) - 1 - i for i, m in enumerate(universe)}
    pivots = gf2._eliminate([sum(1 << pos[m] for m in row) for row in rows])
    tmask, combo = gf2._reduce_mask(sum(1 << pos[m] for m in target), 0, pivots)
    flags = None if tmask else [(combo >> r) & 1 for r in range(len(rows))]
    return len(pivots), flags


@st.composite
def _rows_with_sums(draw):
    """Rows over 0..7, some repeated or empty, with xors of earlier rows mixed in."""
    rows = draw(st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, functools.reduce(frozenset.symmetric_difference, picks))
    return rows


# targets draw from 0..10, so a target may hold a column no row has; a
# column order is a permutation of 0..10
@given(_rows_with_sums(), st.frozensets(st.integers(0, 10), max_size=6),
       st.permutations(range(11)))
def test_echelon_matches_widened_elimination(rows, target, order):
    rank, flags = _keyed(rows, target, order.index)
    ech = Echelon(rows)
    assert ech.rank == rank == rank_sets(rows)
    assert ech.solve(target) == flags == solve_sets(rows, target)
    if flags is not None:
        acc = frozenset()
        for row, f in zip(rows, flags):
            if f:
                acc ^= row
        assert acc == target
