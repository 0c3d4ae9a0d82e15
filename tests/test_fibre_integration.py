"""sw_numbers against a direct computation in the total space.

The reference below never pushes forward. It keeps H^* of a space as the
quotient of a polynomial ring on the space's slots: a slot of RP(n) or of
a Dold manifold is zero past its bound, and the tautological class t of
each projectivization P(L_1 + ... + L_r) is lowered through
t^r = sigma_1 t^(r-1) + ... + sigma_r, sigma_k the elementary symmetric
classes of the lines. The reduced monomials form a basis, and a class
pairs to 1 with the fundamental class when it contains the top one.
"""

import pytest

from bordcalc.charnum import Dold, Product, ProjBundle, RP, fixed_bundle, sw_numbers
from bordcalc.gf2 import parity, partitions
from bordcalc.parsing import parse_space


class TotalSpace:
    """H^* of a space by reduction in the total space."""

    def __init__(self, space):
        self.size = len(space.gens)
        self.degrees = [deg for _, deg in space.gens]
        self.dim = space.dim
        self.bounds = {}
        self.fibres = []  # (slot, rank, sigma) with the inner bundles first
        self.top = [0] * self.size
        self._memo = {}
        self.w = self._place(space, 0)
        self.top = tuple(self.top)

    def var(self, slot):
        vec = [0] * self.size
        vec[slot] = 1
        return self.reduce(tuple(vec))

    def one(self):
        return frozenset([(0,) * self.size])

    def mul(self, x, y):
        return parity(m for a in x for b in y
                      for m in self.reduce(tuple(i + j for i, j in zip(a, b))))

    def power(self, x, n):
        acc = self.one()
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

    def reduce(self, vec):
        if vec not in self._memo:
            self._memo[vec] = self._reduce(vec)
        return self._memo[vec]

    def _reduce(self, vec):
        if sum(d * k for d, k in zip(self.degrees, vec)) > self.dim:
            return frozenset()
        if any(vec[slot] > bound for slot, bound in self.bounds.items()):
            return frozenset()
        for slot, rank, sigma in reversed(self.fibres):
            p = vec[slot]
            if p >= rank:
                out = frozenset()
                for k in range(1, rank + 1):
                    lowered = list(vec)
                    lowered[slot] = p - k
                    out ^= self.mul(frozenset([tuple(lowered)]), sigma[k])
                return out
        return frozenset([vec])

    def _place(self, space, offset):
        """Record the relations of a space at the given first slot; its w."""
        one = self.one()
        if isinstance(space, RP):
            self.bounds[offset] = self.top[offset] = space.n
            return self.power(one ^ self.var(offset), space.n + 1)
        if isinstance(space, Dold):
            self.bounds[offset] = self.top[offset] = space.m
            self.bounds[offset + 1] = self.top[offset + 1] = space.n
            c, d = self.var(offset), self.var(offset + 1)
            return self.mul(self.power(one ^ c, space.m),
                            self.power(one ^ c ^ d, space.n + 1))
        if isinstance(space, Product):
            acc = one
            for f in space.factors:
                acc = self.mul(acc, self._place(f, offset))
                offset += len(f.gens)
            return acc
        assert isinstance(space, ProjBundle)
        w = self._place(space.base, offset)
        lines = [parity(m for vec in x.monomials() for m in self.reduce(
            (0,) * offset + vec + (0,) * (self.size - offset - len(vec))))
            for x in space.lines]
        sigma = [one]
        for x in lines:
            sigma = [one] + [sigma[k] ^ self.mul(sigma[k - 1], x) if k < len(sigma)
                             else self.mul(sigma[k - 1], x)
                             for k in range(1, len(sigma) + 1)]
        slot = offset + len(space.base.gens)
        self.fibres.append((slot, space.rank, sigma))
        self.top[slot] = space.rank - 1
        t = self.var(slot)
        for x in lines:
            w = self.mul(w, one ^ t ^ x)
        return w

    def numbers(self, ref=None):
        """The Stiefel-Whitney numbers in the keys sw_numbers uses."""
        parts = [frozenset(m for m in self.w
                           if sum(d * k for d, k in zip(self.degrees, m)) == p)
                 for p in range(self.dim + 1)]
        products = {(): self.one()}
        for total in range(1, self.dim + 1):
            for omega in partitions(total):
                products[omega] = self.mul(products[omega[:-1]], parts[omega[-1]])
        ref_class = (parity(m for vec in ref.monomials() for m in self.reduce(vec))
                     if ref is not None else None)
        out = {}
        power = self.one()
        for k in (range(self.dim + 1) if ref is not None else (0,)):
            for omega in partitions(self.dim - k):
                out[(omega, k)] = int(self.top in self.mul(products[omega], power))
            if ref is not None:
                power = self.mul(power, ref_class)
        return out


def _ones(numbers):
    """The keys of the numbers that are 1, the form sw_numbers returns."""
    return {key for key, bit in numbers.items() if bit}


def _fixed_data_targets(geo, max_degree):
    """The b-index lists of every bundle monomial through max_degree."""
    found = set()
    for d in range(1, max_degree + 1):
        for poly in geo.bundle_monomials(d):
            bmult = geo._bmult(next(iter(poly.monos)))
            if bmult:
                found.add(bmult)
    return sorted(found)


def test_delta_and_torus_targets_through_degree_8(sess):
    targets = _fixed_data_targets(sess.geometry, 8)
    assert len(targets) == sum(len(partitions(d)) for d in range(1, 9))
    for bmult in targets:
        pb = fixed_bundle(bmult)
        assert sw_numbers(pb, pb.fiber_class()) == _ones(TotalSpace(pb).numbers(pb.fiber_class()))
        torus = fixed_bundle(bmult + (1, 1))
        assert sw_numbers(torus) == _ones(TotalSpace(torus).numbers())


@pytest.mark.parametrize('text', [
    'PB(Dold(1,2); c, 0)',                    # a Dold base
    'PB(Dold(1,1)*RP(2); c1 + u2, u2, c1)',   # a Dold factor and a sum line
    'PB(RP(2)*RP(3); u1 + u2, u2, 0)',        # a line that is a sum
    'PB(RP(3); 0, 0, 0)',                     # trivial lines only
    'PB(RP(0); 0, 0, 0, 0, 0)',
    'PB(RP(2); u)',                           # rank one: the base itself
    'PB(PB(RP(2); u, 0); t, u, 0)',           # nested, a line through t
    'PB(PB(RP(1)*RP(1); u1 + u2, u2); t + u1, 0)',
    'PB(RP(1); u, 0)*RP(2)*PB(RP(1); 0, u)',  # bundles as product factors
])
def test_parsed_spaces(sess, text):
    space = parse_space(text, sess.coef)
    reference = TotalSpace(space)
    assert sw_numbers(space) == _ones(reference.numbers())
    for name, deg in space.gens:
        if deg == 1:
            ref = space.gen(name)
            assert sw_numbers(space, ref) == _ones(reference.numbers(ref)), name
