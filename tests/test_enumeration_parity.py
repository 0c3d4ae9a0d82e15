"""The basis lists against the code that built them before.

The basis lists used to be built monomial by monomial: the type-A and
type-B monomials of a degree through one table lookup per X-factor tuple,
each built through FormalMonomial's checks, and the whole list sorted by
fm_key, one decoded coefficient per monomial. That code is kept below, as
it was, as the reference. basis_monomials(d, e_cap) must give the same
list, order included, for every (d, e_cap) that caps 16 and 24 admit:
perfbench/workloads.py draws from the basis lists with a seeded rng, so
their order is part of the benchmark's inputs. The reference runs in a session of its own, so its
lists are kept apart from the library's.
"""

from functools import cache
from types import SimpleNamespace

import pytest

from bordcalc.errors import CapacityError
from bordcalc.presentation import FormalMonomial, fm_key
from bordcalc.session import Session

CAPS = (16, 24)


class _Reference:
    """The enumeration of the basis as it was, over a BordismRing of its own."""

    def __init__(self, cap):
        self.mo = Session(cap).mo
        self._x_cache = {}
        # what fm_key reads of the table, each coefficient decoded once:
        # the lists of one degree share their coefficients from one e cap
        # to the next
        self._sort_table = SimpleNamespace(exponents=cache(self.mo.table.exponents))

    def basis(self, d, e_cap):
        out = [FormalMonomial(coef, xs, k) for k in range(max(0, -d), e_cap + 1)
               for coef, xs in self.coef_and_xs(d + k, 2)] + self.type_b(d)
        return sorted(out, key=lambda fm: fm_key(self._sort_table, fm))

    def type_b(self, d):
        # one G(i, j), i >= 1, and X_n factors with n >= j, no e power
        return [FormalMonomial(coef, xs + ((i, j),), 0)
                for j in range(2, min(d - 1, self.mo.coef.max_degree + 1) + 1)
                for i in range(1, d - j + 1)
                for coef, xs in self.coef_and_xs(d - i - j, j)]

    def x_factors(self, w, least):
        """The factor tuples X_n..., each n >= least, of total degree w, n ascending."""
        if (w, least) not in self._x_cache:
            table, n_of = self.mo.table, self.mo.table.subscripts['X']
            self._x_cache[w, least] = tuple(
                tuple((0, n_of[i]) for i, x in table.exponents(m) for _ in range(x))
                for m in table.monomials(w, tuple(i for i, n in n_of.items() if n >= least)))
        return self._x_cache[w, least]

    def coef_and_xs(self, total, least):
        """(N_* coefficient, X factors) pairs of e-free degree total, each X_n with n >= least."""
        gens, table = self.mo.coef.generators, self.mo.table
        return [(coef, xs) for w in range(total + 1) for xs in self.x_factors(w, least)
                for coef in table.monomials(total - w, gens)]


@pytest.mark.parametrize('cap', CAPS)
def test_basis_lists_match_the_reference(cap):
    ref = _Reference(cap)
    for d in range(-cap - 1, cap + 1):
        # a session per degree: the lists of one degree are all it keeps
        mo = Session(cap).mo
        # every e cap the cap admits: d + e_cap up to the cap; below -d the
        # list is empty, and with e_cap = -d - 1 it reaches that edge
        for e_cap in range(0, cap - d + 1):
            assert mo.basis_monomials(d, e_cap) == ref.basis(d, e_cap), (d, e_cap)
        with pytest.raises(CapacityError):
            mo.basis_monomials(d, cap - d + 1)
