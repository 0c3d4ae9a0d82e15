"""The coefficient ring: generator degrees, representatives, ranks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc.coefficients import (allowed_degrees, dold_indices, generator_rep,
                                   is_power_of_two)
from bordcalc.errors import CapacityError, ContractViolation
from bordcalc.gf2 import COEFFICIENT
from bordcalc.session import Session


def test_allowed_degrees_freeze():
    assert allowed_degrees(16) == [2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16]


def test_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)


def test_dold_indices():
    assert dold_indices(5) == (1, 2)
    assert dold_indices(9) == (1, 4)
    assert dold_indices(11) == (3, 4)
    assert dold_indices(13) == (1, 6)
    with pytest.raises(ContractViolation):
        dold_indices(4)
    with pytest.raises(ContractViolation):
        dold_indices(7)


def test_generator_rep():
    assert generator_rep(2) == ('RP', 2)
    assert generator_rep(4) == ('RP', 4)
    assert generator_rep(5) == ('Dold', 1, 2)
    assert generator_rep(11) == ('Dold', 3, 4)


def test_generator_lookup(sess):
    coef = sess.coef
    assert coef.a(2).to_text() == 'a2'
    with pytest.raises(ContractViolation):
        coef.a(3)
    with pytest.raises(ContractViolation):
        coef.a(7)
    with pytest.raises(CapacityError):
        coef.a(18)


def test_rho(sess):
    coef = sess.coef
    assert coef.rho(2) == coef.a(2)
    assert coef.rho(4) == coef.a(4)
    assert not coef.rho(3)
    assert not coef.rho(7)
    with pytest.raises(ContractViolation):
        coef.rho(0)


def partitions(total, parts=None):
    """Partitions of total into the allowed part sizes (default 1..total).

    Each partition is a non-increasing tuple, and the list runs in
    descending lexicographic order; () is the one partition of 0, and a
    negative total has none. The package enumerates through
    VarTable.monomials and sw_numbers' walk; this is the reference the
    tests pin their orders and multisets against.
    """
    if total < 0:
        return []
    sizes = sorted({p for p in (range(1, total + 1) if parts is None else parts)
                    if 0 < p <= total}, reverse=True)
    out = []

    def rec(rem, start, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for idx in range(start, len(sizes)):
            p = sizes[idx]
            if p <= rem:
                cur.append(p)
                rec(rem - p, idx, cur)
                cur.pop()

    rec(total, 0, [])
    return out


def _partition_count(d, gens):
    counts = [1] + [0] * d
    for g in gens:
        for total in range(g, d + 1):
            counts[total] += counts[total - g]
    return counts[d]


def test_rank_matches_partition_count(sess):
    coef = sess.coef
    gens = coef.generator_degrees
    for d in range(13):
        assert coef.rank(d) == _partition_count(d, gens)


def test_monomials_of_degree(sess):
    coef = sess.coef
    for d in range(9):
        monos = coef.monomials_of_degree(d)
        assert len(monos) == len(set(monos)) == coef.rank(d)
        for mu in monos:
            assert mu.degree() in (d, None)
            assert mu.uses_only(COEFFICIENT)
    # a fresh list each call: a caller may change it
    monos = coef.monomials_of_degree(4)
    monos.clear()
    assert len(coef.monomials_of_degree(4)) == coef.rank(4) == 2
    assert coef.monomials_of_degree(-1) == []
    with pytest.raises(CapacityError):
        coef.monomials_of_degree(17)


def test_monomials_of_degree_in_partition_order(sess):
    # perfbench/workloads.py draws from these lists with a seeded rng, so
    # their order is part of the benchmark's inputs
    coef = sess.coef
    table = coef.table
    for d in range(coef.max_degree + 1):
        expected = [table.pack((table.family['a'][g], 1) for g in part)
                    for part in partitions(d, coef.generator_degrees)]
        assert [mu.monos for mu in coef.monomials_of_degree(d)] == [
            frozenset((m,)) for m in expected]


# the partitions reference lists every partition: keep the degrees small
REFERENCE_MAX = 30


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomials_match_the_partitions(data):
    # a fresh table: its rows grow from nothing, in the order the degrees are asked
    table = Session(data.draw(st.sampled_from([8, 16, 24]), label='cap')).table
    family = table.family[data.draw(st.sampled_from('acXb'), label='family')]
    # a family's subscripts are its degrees; any order, the table's or not
    subs = data.draw(st.lists(st.sampled_from(sorted(family)), unique=True, max_size=7),
                     label='subscripts')
    indices = tuple(family[n] for n in subs)
    asked = data.draw(st.lists(st.one_of(st.integers(-4, REFERENCE_MAX),
                                         st.integers(table.limit + 1, table.limit + 40)),
                               min_size=1, max_size=6), label='degrees')

    def expected(d):
        # the exponent vectors in the order of indices, largest first; a
        # tuple by degree descending is the partitions' own order
        parts = partitions(d, subs)
        vectors = [tuple(part.count(n) for n in subs) for part in parts]
        ordered = sorted(vectors, reverse=True)
        if subs == sorted(subs, reverse=True):
            assert vectors == ordered
        return tuple(table.pack(zip(indices, vector)) for vector in ordered)

    # every degree asked again in reverse: a lower one after a higher one
    for d in asked + asked[::-1]:
        if d > table.limit:
            with pytest.raises(CapacityError):
                table.monomials(d, indices)
        else:
            assert table.monomials(d, indices) == (expected(d) if d >= 0 else ())


def test_mono_degrees(sess):
    coef = sess.coef
    mu = coef.a(5) * coef.a(2) ** 2
    assert coef.mono_degrees(mu) == [5, 2, 2]
    assert coef.mono_degrees(coef.one()) == []
    with pytest.raises(ContractViolation):
        coef.mono_degrees(coef.a(2) + coef.a(4))
    # mono_degrees('x') raised AttributeError; a term outside family a has
    # no generator degrees
    for x in ('x', None, sess.mo.X(2), sess.geometry.b(1), sess.laurent.e(-1)):
        with pytest.raises(ContractViolation):
            coef.mono_degrees(x)
