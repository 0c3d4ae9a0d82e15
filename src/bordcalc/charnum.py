"""Mod 2 cohomology of the reference manifolds and Stiefel-Whitney numbers.

A space names its cohomology generators, one slot each, with a degree and
the largest exponent the slot carries. A monomial is its exponent vector,
one int per slot, and a class is the GF(2) sum of its monomials, held as
one Python int with a bit per monomial: the monomial with exponent vector
e sits at bit sum(e_i * stride_i). Each slot has room for twice its
largest exponent, so the product of two classes is a carry-less product
of their ints (one shift and xor per monomial of the sparser factor)
followed by a mask that drops every monomial past a bound or past the
dimension.

RP(n), Dold manifolds P(m, n) with H^* = GF(2)[c, d]/(c^{m+1}, d^{n+1})
and their products are truncated polynomial rings, in which the top
monomial pairs to 1 with the fundamental class. The projectivization P(E)
of a sum E = L_1 + ... + L_r of lines over a base B adds the tautological
class t as one more slot, and t is never reduced through its relation.
A class is paired with [P(E)] by pushing it forward to the base instead:
pi_*(b t^p) = b h_{p-r+1}(x_1, ..., x_r), where h_m is the complete
homogeneous symmetric polynomial of the line classes x_j, the dual
Stiefel-Whitney class of E (Conner-Floyd, Differentiable Periodic Maps,
1964; Stong, Notes on Cobordism Theory, 1968). Nested projectivizations
push forward one fibre at a time. Each space computes once the set of
top-degree monomials that pair to 1, so a Stiefel-Whitney number is one
product and the parity of a mask.

This is the route of the charnum command, which prints the numbers, and
of the sw-oracle verify suite, the independent check of the Boardman
tables (module boardman) through which delta, underlying and alpha
identify their classes.
"""

from .coefficients import generator_rep
from .errors import CapacityError, ContractViolation, IntegrityError
from .gf2 import Echelon, GradedPoly, power
# not called here any more; kept bound for profilers that patch them by name
from .gf2 import rank_sets, solve_sets

# the most bits a class of one space may span: 512 KiB an int, and the
# walk in sw_numbers holds a few dozen such ints at once
MAX_CLASS_BITS = 1 << 22


def _positions(bits):
    """The set bits of an int, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Space:
    """Base class: a manifold with H^* held on integer exponent vectors.

    A subclass sets dim, gens (name, degree per slot) and bounds (the
    largest exponent per slot), then calls _lay_out. The default pairing
    is that of a truncated polynomial ring: the top monomial, with every
    slot at its bound, pairs to 1.
    """

    def _lay_out(self):
        self._slot = {name: i for i, (name, _) in enumerate(self.gens)}
        self._strides = []
        size = 1
        for bound in self.bounds:
            self._strides.append(size)
            size *= 2 * bound + 1
        if size > MAX_CLASS_BITS:
            raise CapacityError('%r needs %d bits a class, more than %d'
                                % (self, size, MAX_CLASS_BITS))
        # the monomials inside the bounds, by degree, built slot by slot
        by_degree = [1] + [0] * self.dim
        for (_, deg), bound, stride in zip(self.gens, self.bounds, self._strides):
            grown = [0] * (self.dim + 1)
            for d, mask in enumerate(by_degree):
                if mask:
                    for e in range(min(bound, (self.dim - d) // deg) + 1):
                        grown[d + e * deg] |= mask << (e * stride)
            by_degree = grown
        self._by_degree = by_degree
        self._valid = 0
        for mask in by_degree:
            self._valid |= mask
        self._tangent = None
        self._pairing = None

    def _mul(self, x, y):
        """The product of two classes given as ints."""
        if x.bit_count() > y.bit_count():
            x, y = y, x
        out = 0
        while x:
            low = x & -x
            out ^= y << (low.bit_length() - 1)
            x ^= low
        return out & self._valid

    def degree_mask(self, degree):
        """Every monomial of the given degree, as an int."""
        return self._by_degree[degree] if 0 <= degree <= self.dim else 0

    def degree_of(self, mono):
        return sum(deg * k for (_, deg), k in zip(self.gens, mono))

    def exponents(self, pos):
        """The exponent vector of the monomial at a bit position."""
        out = []
        for bound in self.bounds:
            pos, k = divmod(pos, 2 * bound + 1)
            out.append(k)
        return tuple(out)

    def gen(self, name):
        """The generator as a class."""
        if name not in self._slot:
            raise ContractViolation('space has no generator %s' % name)
        slot = self._slot[name]
        # a slot with bound 0, as in RP(0), carries the zero class
        return CohomClass(self, 1 << self._strides[slot] if self.bounds[slot] else 0)

    def tangent_sw(self):
        """The total Stiefel-Whitney class of the tangent bundle."""
        if self._tangent is None:
            self._tangent = self._tangent_sw()
        return self._tangent

    def pairing(self):
        """The monomials of the top degree that pair to 1 with [M], as an int."""
        if self._pairing is None:
            self._pairing = self._top_dual()
        return self._pairing

    def _top_dual(self):
        return 1 << sum(b * s for b, s in zip(self.bounds, self._strides))


class RP(Space):
    """Real projective space RP(n), H^* = GF(2)[u]/(u^{n+1})."""

    def __init__(self, n):
        if n < 0:
            raise ContractViolation('RP(n) needs n >= 0')
        self.n = n
        self.dim = n
        self.gens = [('u', 1)]
        self.bounds = [n]
        self._lay_out()

    def _tangent_sw(self):
        # w(RP(n)) = (1 + u)^(n + 1)
        return (CohomClass.one(self) + self.gen('u')) ** (self.n + 1)

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
        self.bounds = [m, n]
        self._lay_out()

    def _tangent_sw(self):
        # w(P(m, n)) = (1 + c)^m (1 + c + d)^(n + 1)
        one = CohomClass.one(self)
        return ((one + self.gen('c')) ** self.m
                * (one + self.gen('c') + self.gen('d')) ** (self.n + 1))

    def __repr__(self):
        return 'Dold(%d,%d)' % (self.m, self.n)


class Product(Space):
    """A finite product; the slots of factor k get the 1-based suffix k."""

    def __init__(self, factors):
        if not factors:
            raise ContractViolation('empty product')
        self.factors = list(factors)
        self.dim = sum(f.dim for f in self.factors)
        self.gens = []
        self.bounds = []
        self._first_slot = []
        for pos, f in enumerate(self.factors, start=1):
            self._first_slot.append(len(self.gens))
            self.gens.extend(('%s%d' % (name, pos), deg) for name, deg in f.gens)
            self.bounds.extend(f.bounds)
        self._lay_out()

    def factor_gen(self, pos, name):
        """Generator `name` of the 1-based factor `pos`, as a product class."""
        return self.gen('%s%d' % (name, pos))

    def _lift(self, idx, bits):
        """A class of the 0-based factor idx as a class of the product.

        The factor's slots keep their field sizes, so each of its bit
        positions is scaled by the stride of its first slot.
        """
        stride = self._strides[self._first_slot[idx]]
        out = 0
        for pos in _positions(bits):
            out |= 1 << (pos * stride)
        return out

    def _product_of(self, classes):
        acc = 1
        for idx, bits in enumerate(classes):
            acc = self._mul(acc, self._lift(idx, bits))
        return acc

    def _tangent_sw(self):
        return CohomClass(self, self._product_of(f.tangent_sw().terms for f in self.factors))

    def _top_dual(self):
        return self._product_of(f.pairing() for f in self.factors)

    def __repr__(self):
        return ' x '.join(repr(f) for f in self.factors)


class ProjBundle(Space):
    """Projectivization of a sum of line bundles over a base space.

    lines are degree-1 classes of the base (zero for a trivial line). The
    base's slots come first with their bounds unchanged, so a class of
    the base has the same terms as its pull-back; the tautological class
    t is the last slot. Classes are polynomials in t over the base, not
    reduced through t^r = w_1 t^(r-1) + ... + w_r, so == and bool look at
    representatives: equal terms mean equal classes, not conversely.
    """

    def __init__(self, base, lines):
        if not lines:
            raise ContractViolation('projectivization needs at least one line')
        for x in lines:
            if x.space is not base:
                raise ContractViolation('line classes must live on the base')
            if x.terms & ~base.degree_mask(1):
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
        self.bounds = list(base.bounds) + [self.dim]
        self._lay_out()

    def fiber_class(self):
        """The tautological degree-1 class t."""
        return self.gen(self._t)

    def _tangent_sw(self):
        # w(total) = w(base) * prod_j (1 + t + x_j)
        one_t = 1 | self.fiber_class().terms
        acc = self.base.tangent_sw().terms
        for x in self.lines:
            acc = self._mul(acc, one_t ^ x.terms)
        return CohomClass(self, acc)

    def _top_dual(self):
        # b t^p pairs as b h_{p-r+1}(lines) on the base, so it pairs to 1
        # when that product meets the base's pairing an odd number of times;
        # h = prod_j (1 + x_j + x_j^2 + ...) holds every h_m at once
        base, r = self.base, self.rank
        h = 1
        for x in self.lines:
            series = x_power = 1
            for _ in range(base.dim):
                x_power = base._mul(x_power, x.terms)
                series ^= x_power
            h = base._mul(h, series)
        base_top = base.pairing()
        t_stride = self._strides[-1]
        out = 0
        for m in range(base.dim + 1):
            h_m = h & base.degree_mask(m)
            if not h_m:
                continue
            for pos in _positions(base.degree_mask(base.dim - m)):
                # the unmasked shift is b * h_m; terms past a bound land on
                # codes the pairing never holds
                if ((h_m << pos) & base_top).bit_count() & 1:
                    out |= 1 << (pos + (r - 1 + m) * t_stride)
        return out

    def __repr__(self):
        return 'P(%d lines over %r)' % (self.rank, self.base)


class CohomClass:
    """A GF(2) cohomology class on one space; terms is its int of monomials."""

    __slots__ = ('space', 'terms')

    def __init__(self, space, terms=0):
        self.space = space
        self.terms = terms

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def one(cls, space):
        return cls(space, 1)

    def _check_peer(self, other):
        if not isinstance(other, CohomClass) or other.space is not self.space:
            raise ContractViolation('classes live on different spaces')

    def __add__(self, other):
        self._check_peer(other)
        return CohomClass(self.space, self.terms ^ other.terms)

    __sub__ = __add__

    def __mul__(self, other):
        self._check_peer(other)
        return CohomClass(self.space, self.space._mul(self.terms, other.terms))

    def __pow__(self, n):
        return power(self, n, CohomClass.one(self.space))

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.space is other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def monomials(self):
        """The exponent vectors of the terms, by degree."""
        space = self.space
        return sorted((space.exponents(pos) for pos in _positions(self.terms)),
                      key=lambda m: (space.degree_of(m), m))

    def to_text(self):
        names = [name for name, _ in self.space.gens]
        bits = []
        for m in self.monomials():
            bits.append('*'.join('%s^%d' % (n, k) if k > 1 else n
                                 for n, k in zip(names, m) if k) or '1')
        return ' + '.join(bits) or '0'

    def __repr__(self):
        return self.to_text()


def fixed_bundle(bmult):
    """P(L_1 + ... + L_r) over RP(i_1 - 1) x ... x RP(i_r - 1).

    bmult lists i_1, ..., i_r, and L_k is the tautological line of factor
    k; a part 1, the point RP(0) with its line, is a trivial summand. So
    this is delta's space for b_{i_1} ... b_{i_r}, with k more parts 1 it
    is P(nu + R^k): underlying's for k = 1, the torus's for k = 2, and
    alpha(G(i, n))'s Q for (n,) and k = i + 1. Those classes come from
    boardman.Boardman; the sw-oracle suite identifies this space by its
    Stiefel-Whitney numbers to check them.
    """
    base = Product([RP(i - 1) for i in bmult])
    return ProjBundle(base, [base.factor_gen(pos, 'u') for pos in range(1, len(bmult) + 1)])


def pair(x, space):
    """Pair a class against the fundamental class."""
    return (x.terms & space.pairing()).bit_count() & 1


def sw_numbers(space, ref=None):
    """The Stiefel-Whitney numbers that are 1, as a frozenset of keys.

    A key is (partition, reference power). With a reference class the
    numbers <w_omega ref^k, [M]> run over all k from 0 to the dimension;
    without one only k = 0 appears. The products w_omega come from a
    depth-first walk over the partitions, each one multiplication from
    its parent, and a zero product ends its branch.
    """
    if ref is not None and ref.space is not space:
        raise ContractViolation('the reference class lives on another space')
    if ref is not None and ref.terms & ~space.degree_mask(1):
        raise ContractViolation('the reference class must have degree 1')
    n = space.dim
    mul = space._mul
    top = space.pairing()
    w = space.tangent_sw().terms
    parts = [w & space.degree_mask(p) for p in range(n + 1)]
    ref_powers = [1]
    if ref is not None:
        for _ in range(n):
            ref_powers.append(mul(ref_powers[-1], ref.terms))
    found = set()

    def walk(cls, omega, room):
        if ((ref is not None or not room)
                and (mul(cls, ref_powers[room]) & top).bit_count() & 1):
            found.add((omega, room))
        for p in range(min(omega[-1] if omega else n, room), 0, -1):
            prod = mul(cls, parts[p])
            if prod:
                walk(prod, omega + (p,), room - p)

    walk(1, (), n)
    return frozenset(found)


def _same(item):
    return item


def space_for(coef, poly, extra=()):
    """A product manifold representing a coefficient monomial, plus extras."""
    factors = []
    for d in coef.mono_degrees(poly):
        rep = generator_rep(d)
        factors.append(RP(rep[1]) if rep[0] == 'RP' else Dold(rep[1], rep[2]))
    factors.extend(extra)
    # the unit monomial is the class of a point
    return Product(factors) if factors else RP(0)


# the ring a space is identified in, by whether it carries a reference line
_RING = {False: 'N_*', True: 'N_*(BO(1))'}


def _reference(coef, n, line):
    """Eliminated number rows of dimension n, built once: (Echelon, labels).

    The row labelled (j, mu) holds the numbers of the representative of mu
    times RP(j), with the tautological line of RP(j) as reference when
    line is set, for j + |mu| = n; without a line j is 0. The rows depend
    only on the ring, n and line, so they live on the ring, eliminated and
    checked independent.
    """
    cached = coef.reference_rows.get((n, line))
    if cached is None:
        coef.check_size('%s reference rows of dimension' % _RING[line], n, n)
        rows = []
        labels = []
        for j in range(n + 1) if line else (0,):
            for mu in coef.monomials_of_degree(n - j):
                space = space_for(coef, mu, extra=[RP(j)] if line else ())
                ref = space.factor_gen(len(space.factors), 'u') if line else None
                rows.append(sw_numbers(space, ref))
                labels.append((j, mu))
        echelon = Echelon(rows, _same)
        if echelon.rank != len(rows):
            raise IntegrityError('%s reference rows are not independent at dimension %d'
                                 % (_RING[line], n))
        cached = coef.reference_rows[(n, line)] = (echelon, labels)
    return cached


def _identify(space, numbers, coef, line):
    """Solve a space's numbers against the reference rows: N_* coefficient by j."""
    echelon, labels = _reference(coef, space.dim, line)
    flags = echelon.solve(numbers)
    if flags is None:
        raise IntegrityError('class not recognized in %s' % _RING[line])
    out = {}
    for (j, mu), flag in zip(labels, flags):
        if flag:
            out[j] = out.get(j, GradedPoly.zero(coef.table)) + mu
    return out


def identify_in_nbo1(space, ref, coef, numbers=None):
    """Expand a manifold with a reference line class over the RP(j) basis.

    N_*(BO(1)) is free over N_* on the classes (RP(j), tautological line).
    Matching all Stiefel-Whitney numbers against products
    (representative of mu) x RP(j) determines the expansion; the result
    maps j to its N_* coefficient. numbers, when the caller has them
    already, are sw_numbers(space, ref).
    """
    return _identify(space, sw_numbers(space, ref) if numbers is None else numbers,
                     coef, True)


def identify_in_n(space, coef):
    """Expand a closed manifold in the coefficient ring by its numbers.

    Stiefel-Whitney numbers determine the unoriented bordism class, and
    the products of projective and Dold representatives realizing the
    coefficient monomials have independent number systems, so matching
    plain (k = 0) numbers yields the expansion.
    """
    return _identify(space, sw_numbers(space), coef, False).get(0, GradedPoly.zero(coef.table))
