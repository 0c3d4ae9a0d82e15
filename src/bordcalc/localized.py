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
table's families a, c, X and e, and membership in them is a mask test.
"""

from functools import cached_property

from .errors import CapacityError, ContractViolation
from .gf2 import GradedPoly, Substitution
# not called here any more; kept bound for profilers that patch them by name
from .gf2 import poly_rank, solve_sets


class LaurentRing:
    """Laurent polynomials N_*[c_j][e, e^-1] over a coefficient ring."""

    def __init__(self, coef):
        self.coef = coef
        self.table = coef.table
        self._loc_cache = {}

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
        if n not in self._loc_cache:
            self._loc_cache[n] = self.c(n - 1) * self.e(-1) + self.e(-n)
        return self._loc_cache[n]

    def is_laurent(self, x):
        """True when x is supported on a_d, c_j and e only."""
        return x.uses_only('ace')

    def _require_laurent(self, x, what='element'):
        if x.table is not self.table:
            raise ContractViolation('%s uses a foreign variable table' % what)
        if not self.is_laurent(x):
            raise ContractViolation('%s is not a Laurent element' % what)

    def clear_denominators(self, x):
        """Write e^N * x as a polynomial p in e and X_n over N_*.

        Negative e-powers are cleared first, then every c_j is replaced by
        e*X_{j+1} + e^-j (one pass suffices, the images contain no c's),
        then the remaining negative powers are cleared. Returns (N, p);
        evaluating p at X_n = loc_P(n) gives back e^N * x exactly.
        """
        self._require_laurent(x)
        if not x.homogeneous():
            raise ContractViolation('clear_denominators needs a homogeneous element')
        if not x:
            return 0, x
        n1 = max(0, -x.min_inv_exp())
        # the substitution fixes e, so both clearing shifts are one shift after it
        y = x if x.uses_only('ae') else self._clear_c(x)
        n = n1 + (max(0, -(y.min_inv_exp() + n1)) if y else 0)
        return n, self.e(n) * y if n else y

    def eval_cleared(self, p):
        """Evaluate a cleared polynomial at X_n = loc_P(n)."""
        if not p.uses_only('aXe'):
            raise ContractViolation('not a polynomial in e, X_n over N_*')
        # the substitution refuses a value over another table
        return self._eval_X(p)

    # Each substitution is defined once, here, and keeps the images of the
    # monomials it has mapped; a memo belongs to one definition.

    @cached_property
    def _clear_c(self):
        """c_j -> e*X_{j+1} + e^-j, the substitution of clear_denominators."""
        return Substitution(self.table, 'c', lambda j: self.e(1) * self.X(j + 1) + self.e(-j))

    @cached_property
    def _eval_X(self):
        """X_n -> loc_P(n), the substitution of eval_cleared."""
        return Substitution(self.table, 'X', self.loc_P)
