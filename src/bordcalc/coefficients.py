"""The unoriented bordism coefficient ring N_*.

N_* is polynomial over GF(2) on one generator a_d for every degree d >= 2
with d + 1 not a power of two. Even-degree generators are represented by
real projective spaces RP(d); an odd degree d = 2^r(2s+1) - 1 is
represented by the Dold manifold P(2^r - 1, s*2^r). The class rho(n) of
RP(n) is a_n for even n and 0 for odd n (odd projective spaces bound).

A CoefRing instance fixes the degree cap and owns the session-wide
variable table, so every ring built on top of it shares one stable term
ordering. Elements are GradedPoly values supported on the a_d variables,
the table's family a, which the table names and enumerates.
"""

from .errors import CapacityError, ContractViolation
from .gf2 import GradedPoly, standard_table


def is_power_of_two(n):
    return n > 0 and n & (n - 1) == 0


def allowed_degrees(max_degree):
    """Generator degrees up to max_degree: d >= 2 with d+1 not a power of two."""
    return [d for d in range(2, max_degree + 1) if not is_power_of_two(d + 1)]


def dold_indices(d):
    """(m, n) with P(m, n) representing the odd generator degree d."""
    if d % 2 == 0 or is_power_of_two(d + 1):
        raise ContractViolation('%d is not an odd generator degree' % d)
    r = ((d + 1) & -(d + 1)).bit_length() - 1  # 2-adic valuation of d+1
    s = ((d + 1) >> r) >> 1
    return (2 ** r - 1, s * 2 ** r)


def generator_rep(d):
    """Representing manifold of a_d as a tag: ('RP', d) or ('Dold', m, n)."""
    if d % 2 == 0:
        return ('RP', d)
    return ('Dold',) + dold_indices(d)


class CoefRing:
    """N_* up to max_degree, the session's one cap, and the shared variable table."""

    def __init__(self, max_degree=16):
        if max_degree < 0:
            raise ContractViolation('max_degree must be nonnegative')
        self.max_degree = max_degree
        self.generator_degrees = tuple(allowed_degrees(max_degree))
        self.table = standard_table(self.generator_degrees, max_degree)
        # the a_d variable indices, largest degree first
        self.generators = tuple(reversed(self.table.family['a'].values()))
        self._mono_cache = {}
        # Stiefel-Whitney number rows keyed by (dimension d, line), each built
        # once by charnum's one builder as (Echelon, labels) and checked
        # independent: the rows of mu x RP(j), j + |mu| = d, with the line of
        # RP(j) as reference when line is set (identify_in_nbo1), and the
        # plain rows of the degree-d monomials, j = 0, when not (identify_in_n).
        # Only the CLI's charnum and the sw-oracle suite build them: delta,
        # underlying and alpha identify through the Boardman tables
        self.reference_rows = {}
        # boardman.Boardman, made at first use by boardman.tables
        self.boardman = None
        # parsing's monomial atoms, by grammar and then by text, each built
        # once by its constructor and kept for later parses
        self.parsed_atoms = {}

    def check_size(self, what, size, coef_degree):
        """The one cap rule: CapacityError past it, what naming the size.

        A term's size (its dimension, or for a presentation its degree plus
        e power) may reach max_degree + 1, that of P(max_degree + 1), and its
        N_* part max_degree, as far as N_* is held. Both add under products.
        """
        cap = self.max_degree
        if size > cap + 1:
            raise CapacityError('%s %d exceeds %d, the largest under the degree cap %d'
                                % (what, size, cap + 1, cap))
        if coef_degree > cap:
            raise CapacityError('%s %d: coefficient degree %d exceeds the degree cap %d'
                                % (what, size, coef_degree, cap))

    def zero(self):
        return GradedPoly.zero(self.table)

    def one(self):
        return GradedPoly.one(self.table)

    def a(self, d):
        """The generator a_d."""
        if d > self.max_degree:
            raise CapacityError('a%d exceeds the degree cap %d' % (d, self.max_degree))
        if d not in self.table.family['a']:
            raise ContractViolation('there is no generator in degree %d' % d)
        return GradedPoly.var_of(self.table, 'a', d)

    def rho(self, n):
        """Class of RP(n): a_n for even n, 0 for odd n."""
        if n <= 0:
            raise ContractViolation('rho is defined for n >= 1')
        if n % 2 == 1:
            return self.zero()
        if n > self.max_degree:
            raise CapacityError('rho(%d) exceeds the degree cap %d' % (n, self.max_degree))
        return self.a(n)

    def monomials_of_degree(self, d):
        """All monomials of N_d, largest generators first: gf2.partitions' order."""
        if d < 0:
            return []
        if d > self.max_degree:
            raise CapacityError('degree %d exceeds the cap %d' % (d, self.max_degree))
        if d not in self._mono_cache:
            self._mono_cache[d] = [GradedPoly(self.table, (m,))
                                   for m in self.table.monomials(d, self.generators)]
        return list(self._mono_cache[d])

    def rank(self, d):
        """GF(2) dimension of N_d."""
        return len(self.monomials_of_degree(d))

    def is_coefficient(self, poly):
        """True when poly is supported on the a_d variables only."""
        return poly.uses_only('a')

    def mono_degrees(self, poly):
        """Generator degrees, with multiplicity, of a single-monomial element."""
        if len(poly) != 1:
            raise ContractViolation('expected a single monomial')
        degree_of = self.table.subscripts['a']
        out = []
        for idx, exp in self.table.exponents(next(iter(poly.monos))):
            if idx not in degree_of:
                raise ContractViolation('monomial uses %s, not a generator'
                                        % self.table.names[idx])
            out.extend([degree_of[idx]] * exp)
        return sorted(out, reverse=True)
