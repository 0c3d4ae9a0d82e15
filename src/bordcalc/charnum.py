"""Mod 2 cohomology of the reference manifolds and Stiefel-Whitney numbers.

Spaces carry a truncated polynomial presentation of H^*(-, GF(2)): a list
of generators with degrees plus a reduction rule for monomials. Monomials
are tuples of (name, exponent) pairs sorted by name; classes are GF(2)
sums of monomials over one space. Pairing against the fundamental class
reads off the coefficient of the top monomial, so classes of degree other
than the dimension pair to zero.

The spaces here are real projective spaces, Dold manifolds P(m, n) with
H^* = GF(2)[c, d]/(c^{m+1}, d^{n+1}), finite products, and
projectivizations of sums of line bundles, where t^r reduces through the
relation t^r = w_1 t^{r-1} + ... + w_r with w_k the elementary symmetric
classes of the lines.
"""

from .coefficients import generator_rep
from .errors import ContractViolation, IntegrityError
from .gf2 import (GradedPoly, mono_mul, parity, partitions, power, rank_sets,
                  solve_sets)


class Space:
    """Base class: a manifold with a truncated presentation of H^*."""

    def gen(self, name):
        """The generator as a class, already reduced."""
        if name not in dict(self.gens):
            raise ContractViolation('space has no generator %s' % name)
        return CohomClass(self, self.reduce_mono(((name, 1),)))

    def degree_of(self, mono):
        degs = dict(self.gens)
        return sum(degs[name] * k for name, k in mono)

    def cohomology_basis(self):
        """All monomials in reduced form, by brute enumeration."""
        bounds = self._exponent_bounds()
        out = [()]
        for name, bound in bounds:
            out = [mono_mul(m, ((name, k),)) if k else m
                   for m in out for k in range(bound + 1)]
        return sorted({m for m in out if self.reduce_mono(m) == frozenset((m,))},
                      key=lambda m: (self.degree_of(m), m))


class RP(Space):
    """Real projective space RP(n), H^* = GF(2)[u]/(u^{n+1})."""

    def __init__(self, n):
        if n < 0:
            raise ContractViolation('RP(n) needs n >= 0')
        self.n = n
        self.dim = n
        self.gens = [('u', 1)]

    def reduce_mono(self, mono):
        exps = dict(mono)
        return frozenset() if exps.get('u', 0) > self.n else frozenset((mono,))

    def top(self):
        return (('u', self.n),) if self.n else ()

    def tangent_sw(self):
        # w(RP(n)) = (1 + u)^(n + 1)
        return (CohomClass.one(self) + self.gen('u')) ** (self.n + 1)

    def _exponent_bounds(self):
        return [('u', self.n)]

    def __repr__(self):
        return 'RP(%d)' % self.n


class Dold(Space):
    """Dold manifold P(m, n), H^* = GF(2)[c, d]/(c^{m+1}, d^{n+1})."""

    def __init__(self, m, n):
        if m < 0 or n < 0:
            raise ContractViolation('Dold(m, n) needs m, n >= 0')
        self.m = m
        self.n = n
        self.dim = m + 2 * n
        self.gens = [('c', 1), ('d', 2)]

    def reduce_mono(self, mono):
        exps = dict(mono)
        if exps.get('c', 0) > self.m or exps.get('d', 0) > self.n:
            return frozenset()
        return frozenset((mono,))

    def top(self):
        return tuple(sorted(p for p in (('c', self.m), ('d', self.n)) if p[1]))

    def tangent_sw(self):
        # w(P(m, n)) = (1 + c)^m (1 + c + d)^(n + 1)
        one = CohomClass.one(self)
        return ((one + self.gen('c')) ** self.m
                * (one + self.gen('c') + self.gen('d')) ** (self.n + 1))

    def _exponent_bounds(self):
        return [('c', self.m), ('d', self.n)]

    def __repr__(self):
        return 'Dold(%d,%d)' % (self.m, self.n)


class Product(Space):
    """A finite product, generators renamed with 1-based factor suffixes."""

    def __init__(self, factors):
        if not factors:
            raise ContractViolation('empty product')
        self.factors = list(factors)
        self.dim = sum(f.dim for f in self.factors)
        self.gens = []
        self._owner = {}
        for pos, f in enumerate(self.factors, start=1):
            for name, deg in f.gens:
                renamed = '%s%d' % (name, pos)
                self.gens.append((renamed, deg))
                self._owner[renamed] = (pos - 1, name)

    def factor_gen(self, pos, name):
        """Generator `name` of the 1-based factor `pos`, as a product class."""
        renamed = '%s%d' % (name, pos)
        return self.gen(renamed)

    def reduce_mono(self, mono):
        blocks = [[] for _ in self.factors]
        for name, k in mono:
            idx, orig = self._owner[name]
            blocks[idx].append((orig, k))
        reduced = [()]
        for pos, (f, block) in enumerate(zip(self.factors, blocks), start=1):
            parts = f.reduce_mono(tuple(sorted(block)))
            if not parts:
                return frozenset()
            renamed = [tuple(sorted(('%s%d' % (name, pos), k) for name, k in p))
                       for p in parts]
            reduced = [mono_mul(m, p) for m in reduced for p in renamed]
        return parity(reduced)

    def top(self):
        mono = ()
        for pos, f in enumerate(self.factors, start=1):
            renamed = tuple(('%s%d' % (name, pos), k) for name, k in f.top())
            mono = mono_mul(mono, renamed)
        return mono

    def tangent_sw(self):
        acc = CohomClass.one(self)
        for pos, f in enumerate(self.factors, start=1):
            w = f.tangent_sw()
            lifted = frozenset(
                tuple(sorted(('%s%d' % (name, pos), k) for name, k in m))
                for m in w.terms)
            acc = acc * CohomClass(self, lifted)
        return acc

    def _exponent_bounds(self):
        out = []
        for pos, f in enumerate(self.factors, start=1):
            out.extend(('%s%d' % (name, pos), bound)
                       for name, bound in f._exponent_bounds())
        return out

    def __repr__(self):
        return ' x '.join(repr(f) for f in self.factors)


class ProjBundle(Space):
    """Projectivization of a sum of line bundles over a base space.

    lines are degree-1 classes of the base (zero for a trivial line). The
    fiber class t satisfies t^r = sigma_1 t^(r-1) + ... + sigma_r with
    sigma_k the k-th elementary symmetric class of the lines.
    """

    def __init__(self, base, lines):
        if not lines:
            raise ContractViolation('projectivization needs at least one line')
        for x in lines:
            if x.space is not base:
                raise ContractViolation('line classes must live on the base')
            if any(base.degree_of(m) != 1 for m in x.terms):
                raise ContractViolation('line classes must have degree 1')
        self.base = base
        self.lines = list(lines)
        self.rank = len(lines)
        self.dim = base.dim + self.rank - 1
        taken = {name for name, _ in base.gens}
        t = 't'
        while t in taken:
            t += 't'
        self._t = t
        self.gens = list(base.gens) + [(t, 1)]
        # sigma[k] as a parity set of base monomials
        sig = [frozenset(((),))]
        for line in self.lines:
            nxt = [sig[0]]
            for k in range(1, len(sig) + 1):
                prev = sig[k] if k < len(sig) else frozenset()
                grow = parity(mono_mul(m, lm)
                              for m in sig[k - 1] for lm in line.terms)
                nxt.append(prev ^ grow)
            sig = nxt
        self._sigma = sig

    def reduce_mono(self, mono):
        t, r = self._t, self.rank
        k = dict(mono).get(t, 0)
        # base monomials by the power of t they multiply, lowered one power
        # at a time through t^p = sigma_1 t^(p-1) + ... + sigma_r t^(p-r)
        by_power = {k: frozenset((tuple(f for f in mono if f[0] != t),))}
        for p in range(k, r - 1, -1):
            high = by_power.pop(p)
            for j in range(1, r + 1):
                by_power[p - j] = by_power.get(p - j, frozenset()) ^ parity(
                    mono_mul(b, s) for b in high for s in self._sigma[j])
        out = []
        for p, bases in by_power.items():
            for b in bases:
                for bm in self.base.reduce_mono(b):
                    out.append(mono_mul(bm, ((t, p),)) if p else bm)
        return parity(out)

    def top(self):
        mono = self.base.top()
        if self.rank > 1:
            mono = mono_mul(mono, ((self._t, self.rank - 1),))
        return mono

    def fiber_class(self):
        """The tautological degree-1 class t."""
        return self.gen(self._t)

    def tangent_sw(self):
        # w(total) = w(base) * prod_j (1 + t + x_j)
        base_w = self.base.tangent_sw()
        acc = CohomClass(self, base_w.terms)
        t = self.fiber_class()
        one = CohomClass.one(self)
        for line in self.lines:
            acc = acc * (one + t + CohomClass(self, line.terms))
        return acc

    def _exponent_bounds(self):
        return self.base._exponent_bounds() + [(self._t, self.rank - 1)]

    def __repr__(self):
        return 'P(%d lines over %r)' % (self.rank, self.base)


class CohomClass:
    """A GF(2) cohomology class on one space."""

    __slots__ = ('space', 'terms')

    def __init__(self, space, terms=()):
        self.space = space
        self.terms = terms if isinstance(terms, frozenset) else frozenset(terms)

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def one(cls, space):
        return cls(space, ((),))

    def _check_peer(self, other):
        if not isinstance(other, CohomClass) or other.space is not self.space:
            raise ContractViolation('classes live on different spaces')

    def __add__(self, other):
        self._check_peer(other)
        return CohomClass(self.space, self.terms ^ other.terms)

    __sub__ = __add__

    def __mul__(self, other):
        self._check_peer(other)
        reduce = self.space.reduce_mono
        return CohomClass(self.space, parity(
            m for m1 in self.terms for m2 in other.terms
            for m in reduce(mono_mul(m1, m2))))

    def __pow__(self, n):
        return power(self, n, CohomClass.one(self.space))

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.space is other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def part(self, degree):
        """The homogeneous piece of the given degree."""
        return CohomClass(self.space, frozenset(
            m for m in self.terms if self.space.degree_of(m) == degree))

    def to_text(self):
        if not self.terms:
            return '0'
        bits = []
        for m in sorted(self.terms, key=lambda m: (self.space.degree_of(m), m)):
            bits.append('*'.join('%s^%d' % (n, k) if k > 1 else n
                                 for n, k in m) or '1')
        return ' + '.join(bits)

    def __repr__(self):
        return self.to_text()


def pair(x, space):
    """Pair a class against the fundamental class: the top coefficient."""
    return 1 if space.top() in x.terms else 0


def sw_numbers(x_space, ref=None):
    """Stiefel-Whitney numbers, keyed by (partition, reference power).

    With a reference class the numbers <w_omega ref^k, [M]> run over all
    k from 0 to the dimension; without one only k = 0 appears.
    """
    space = x_space
    w = space.tangent_sw()
    out = {}
    for k in (range(space.dim + 1) if ref is not None else (0,)):
        base = ref ** k if k else CohomClass.one(space)
        for omega in partitions(space.dim - k):
            cls = base
            for p in omega:
                cls = cls * w.part(p)
            out[(omega, k)] = pair(cls, space)
    return out


def space_for(coef, poly, extra=()):
    """A product manifold representing a coefficient monomial, plus extras."""
    factors = []
    for d in coef.mono_degrees(poly):
        rep = generator_rep(d)
        factors.append(RP(rep[1]) if rep[0] == 'RP' else Dold(rep[1], rep[2]))
    factors.extend(extra)
    # the unit monomial is the class of a point
    return Product(factors) if factors else RP(0)


def identify_in_nbo1(space, ref, coef):
    """Expand a manifold with a reference line class over the RP(j) basis.

    N_*(BO(1)) is free over N_* on the classes (RP(j), tautological line).
    Matching all Stiefel-Whitney numbers against products
    (representative of mu) x RP(j) determines the expansion; the result
    maps j to its N_* coefficient.
    """
    n = space.dim
    rows = []
    labels = []
    for j in range(n + 1):
        for mu in coef.monomials_of_degree(n - j):
            basis_space = space_for(coef, mu, extra=[RP(j)])
            basis_ref = basis_space.factor_gen(len(basis_space.factors), 'u')
            nums = sw_numbers(basis_space, basis_ref)
            rows.append(frozenset(key for key, bit in nums.items() if bit))
            labels.append((j, mu))
    key = lambda item: item
    if rank_sets(rows, key) != len(rows):
        raise IntegrityError('reference basis is not independent at dimension %d' % n)
    nums = sw_numbers(space, ref)
    target = frozenset(key for key, bit in nums.items() if bit)
    flags = solve_sets(rows, target, key)
    if flags is None:
        raise IntegrityError('class not recognized in N_*(BO(1))')
    out = {}
    for (j, mu), flag in zip(labels, flags):
        if flag:
            out[j] = out.get(j, GradedPoly.zero(coef.table)) + mu
    return {j: p for j, p in out.items() if p}


def _n_reference(coef, n):
    """Plain number rows of the coefficient monomials of degree n, built once.

    The rows depend only on the ring and the dimension, so they live on
    the ring, together with the independence check they pass once.
    """
    cached = coef.reference_rows.get(n)
    if cached is None:
        labels = coef.monomials_of_degree(n)
        rows = [frozenset(key for key, bit in sw_numbers(space_for(coef, mu)).items()
                          if bit)
                for mu in labels]
        if rank_sets(rows, lambda item: item) != len(rows):
            raise IntegrityError(
                'representative basis is not independent at dimension %d' % n)
        cached = coef.reference_rows[n] = (rows, labels)
    return cached


def identify_in_n(space, coef):
    """Expand a closed manifold in the coefficient ring by its numbers.

    Stiefel-Whitney numbers determine the unoriented bordism class, and
    the products of projective and Dold representatives realizing the
    coefficient monomials have independent number systems, so matching
    plain (k = 0) numbers yields the expansion.
    """
    rows, labels = _n_reference(coef, space.dim)
    target = frozenset(key for key, bit in sw_numbers(space).items() if bit)
    flags = solve_sets(rows, target, lambda item: item)
    if flags is None:
        raise IntegrityError('class not recognized in the coefficient ring')
    out = GradedPoly.zero(coef.table)
    for mu, flag in zip(labels, flags):
        if flag:
            out = out + mu
    return out
