"""The localized equivariant bordism ring as a Laurent model.

Inverting the Euler class e (degree -1) frees the theory: the localized
ring is L = N_*[c_1, c_2, ...][e, e^-1] with deg c_j = j, where c_j is the
stable class of RP(j) with its tautological line and c_0 = 1. The class of
P(n*tau + sigma) localizes to

    loc_P(n) = c_{n-1}*e^-1 + e^-n,

one summand per fixed component: RP(n-1) with normal line (codimension 1)
and an isolated point with n-dimensional normal bundle, a codimension-k
component contributing its stable class times e^-k. In particular
loc_P(1) = e^-1 + e^-1 = 0.

A homogeneous element of degree d has every e-exponent >= -d, since the
e-free part of a term has nonnegative degree. The variables are the
table's families a, c, X and e: a value of the model uses a, c and e
(gf2.LAURENT), a cleared polynomial a, X and e (gf2.CLEARED).

clear_denominators and eval_cleared are the two substitutions of the
round trip through the model, c_j -> e*X_{j+1} + e^-j and X_n ->
loc_P(n). Each is one gf2.map_monos call over its family's fields, with
the ring's memos for the images it has made. clear_denominators makes one
pass: one OR of the terms (uses_only) tells whether any c_j occurs, the
substitution fixes e, and the one shift by e^N that clears every negative
power is added to each term's e power.
"""

from .errors import CapacityError, ContractViolation
from .gf2 import CLEARED, LAURENT, GradedPoly, Memo, map_monos, memo
# not called here any more; kept bound for profilers that patch them by name
from .gf2 import poly_rank, solve_sets


class LaurentRing:
    """Laurent polynomials N_*[c_j][e, e^-1] over a coefficient ring."""

    def __init__(self, coef):
        self.coef = coef
        self.table = coef.table
        # the images of the c parts that clear_denominators maps and of the
        # X parts that eval_cleared maps, each kept by the part's fields as
        # gf2.map_monos keeps them, and the powers of c_j's and X_n's images
        # they multiply, by (variable index, exponent)
        self._clear_c, self._eval_X, self._powers = Memo(), Memo(), Memo()
        # the bits of the c fields, what clear_denominators maps; the
        # presentation ring builds the same mask, so no set-up is added
        self._c_fields = self.table.mask('c')

    def zero(self):
        return GradedPoly.zero(self.table)

    def one(self):
        return GradedPoly.one(self.table)

    def e(self, k=1):
        """Euler class power e^k, any integer k: the monomial k * 2^e_shift."""
        return GradedPoly(self.table, (k << self.table.e_shift,))

    def c(self, j):
        """Stable projective class c_j; c_0 = 1."""
        if j < 0:
            raise ContractViolation('c_j needs j >= 0')
        if j == 0:
            return self.one()
        if j > self.coef.max_degree:
            raise CapacityError('c%d exceeds the degree cap %d' % (j, self.coef.max_degree))
        return GradedPoly.var_of(self.table, 'c', j)

    def X(self, n):
        """The symbol X_n used by cleared polynomials; X_1 = 0."""
        if n < 1:
            raise ContractViolation('X_n needs n >= 1')
        if n == 1:
            return self.zero()
        if n > self.coef.max_degree + 1:
            raise CapacityError('X%d exceeds the degree cap %d' % (n, self.coef.max_degree))
        return GradedPoly.var_of(self.table, 'X', n)

    def loc_P(self, n):
        """Localization c_{n-1}*e^-1 + e^-n of the class of P(n*tau + sigma)."""
        if n < 1:
            raise ContractViolation('loc_P needs n >= 1')
        return self.c(n - 1) * self.e(-1) + self.e(-n)

    def clear_denominators(self, x):
        """Write e^N * x as a polynomial p in e and X_n over N_*.

        Negative e-powers are cleared first, then every c_j is replaced by
        e*X_{j+1} + e^-j (one pass suffices, the images contain no c's),
        then the remaining negative powers are cleared. Returns (N, p);
        evaluating p at X_n = loc_P(n) gives back e^N * x exactly.
        """
        # degree() refuses a mixed-degree element, and is None for zero
        if self.table.admit(x, GradedPoly, LAURENT).degree() is None:
            return 0, x
        table = self.table
        n1 = max(0, -x.min_inv_exp())
        # the substitution fixes e, so both clearing shifts are one shift after it
        y = x if x.uses_only('ae') else GradedPoly(
            table, map_monos(table, x.monos, self._c_fields, self._clear_c, self._image))
        n = max(n1, -y.min_inv_exp()) if y else n1
        if not n:
            return 0, y
        # times e^n: each term's e power, its top part, grows by n
        up = n << table.e_shift
        return n, GradedPoly(table, frozenset([m + up for m in y.monos]))

    def eval_cleared(self, p):
        """Evaluate a cleared polynomial at X_n = loc_P(n)."""
        table = self.table
        monos = table.admit(p, GradedPoly, CLEARED, 'the cleared polynomial').monos
        return GradedPoly(table, map_monos(table, monos, table.mask('X'), self._eval_X,
                                           self._image))

    def _image(self, part):
        # the product of the kept powers; a part free of the family is 1
        out = self.one()
        for idx, x in self.table.exponents(part):
            out = out * self._power(idx, x)
        return out.monos

    @memo('_powers')
    def _power(self, idx, x):
        """The x-th power of the image of c_j, e*X_{j+1} + e^-j, or of X_n, loc_P(n)."""
        j = self.table.subscripts['c'].get(idx)
        if j is None:
            return self.loc_P(self.table.subscripts['X'][idx]) ** x
        return (self.e(1) * self.X(j + 1) + self.e(-j)) ** x
