"""The equivariant bordism ring, presented by generators and rewriting.

Elements are GF(2) sums of formal monomials

    (monomial in the a_d) * (product of factors G(i, n)) * e^k,

where G(0, n) is written X_n, the class of the projectivization
P(n*tau + sigma) (n >= 2; X_1 = 0 and never survives construction), e is
the Euler class of the sign representation (degree -1, k >= 0 here), and
G(i, n) = Gamma^i(X_n) for the operator Gamma characterized by

    e * Gamma(x) = x + xbar,      xbar = iota(alpha(x)),

alpha being the augmentation to N_* (forget the action, then take the
underlying class) and iota the trivial-action section. Multiplication by
e is injective, so Gamma is well defined. Gamma(u*v) = Gamma(u)*v +
ubar*Gamma(v), since both sides times e give u*v + bar(u*v). gamma
unrolls it once over a monomial, with Gamma(G(i, n)) = G(i+1, n) and
Gamma(e*z) = z:

    Gamma(c u_1...u_r) = sum_k c ubar_1...ubar_{k-1} Gamma(u_k) u_{k+1}...u_r

The factors come in one fixed order, the G(i >= 1) ascending, then the X's
ascending. Another order gives the same class but another formal sum, and
the rewrite rules below apply Gamma to formal sums, so the order fixes
what normal_form rewrites.

alpha(G(i, n)) is the class of the underlying manifold of the tower, the
mapping torus of the involution on G(i-1, n). It is read off the fixed
data of loc(G(i, n)) (Conner-Floyd): a closed involution is bordant, as
a manifold, to the sum of RP(nu_F + R) over its fixed components F, each
identified through the Boardman tables. Geometry.underlying reads the
same sum off phi, and the cf-exact and gamma suites compare the two. It
need not vanish: alpha(G(2, 2)) = a2^2 + a4.

normal_form rewrites onto the additive basis: monomials with no G(i >= 1)
factor (any e power), and e-free monomials with exactly one factor
G(i, j), i >= 1, whose other factors X_m all have m >= j. The rewrite
rules are the Gamma product formula read in both directions:

    e * G(i, n)        -> G(i-1, n) + alpha(G(i-1, n))
    G(i, m) * G(j, n)  -> Gamma(G(i-1, m) * G(j, n)) + alpha(G(i-1, m)) G(j+1, n)
    G(j, n) * X_m      -> Gamma(G(j-1, n) * X_m)     + alpha(G(j-1, n)) G(1, m)   (m < n)

with inner products normalized before Gamma is applied. Each step drops
the measure (Gamma count, total Gamma weight, ordering violations)
lexicographically, and a fuel cap backs that argument up at runtime.
"""

from collections import namedtuple

from .boardman import tables
from .errors import CapacityError, ContractViolation, FuelExhausted, NotDivisible
from .gf2 import (Echelon, GradedPoly, MONO_ONE, ModulePoly, SparseSum, mono_degree,
                  mono_key, parity, product_monos, sum_of_images)
# not called here any more; kept bound for profilers that patch it by name
from .gf2 import solve_gf2


class FormalMonomial(namedtuple('FormalMonomial', 'coef gammas epow')):
    """One monomial: packed N_* coefficient monomial, G(i, n) factors, Euler power."""

    __slots__ = ()

    def __new__(cls, coef, gammas, epow):
        if epow < 0:
            raise ContractViolation('presentation monomials need e powers >= 0')
        for i, n in gammas:
            if i < 0 or n < 2:
                raise ContractViolation('bad factor G(%d, %d)' % (i, n))
        return tuple.__new__(cls, (coef, gammas, epow))

    def gamma_factors(self):
        """The factors with i >= 1, in sorted order."""
        return [(i, n) for i, n in self.gammas if i >= 1]

    def x_indices(self):
        """Indices n of the plain X_n factors."""
        return [n for i, n in self.gammas if i == 0]

    def is_basis(self):
        """Basis shape: no G factor, or exactly one with the X's at or above it."""
        gs = self.gamma_factors()
        if not gs:
            return True
        if len(gs) > 1 or self.epow:
            return False
        j = gs[0][1]
        return all(m >= j for m in self.x_indices())

    def degree(self, table):
        return (mono_degree(table, self.coef)
                + sum(i + n for i, n in self.gammas) - self.epow)


def fm_mul(f1, f2):
    return FormalMonomial(f1.coef + f2.coef,
                          tuple(sorted(f1.gammas + f2.gammas)),
                          f1.epow + f2.epow)


def _checked(table, fms):
    """fms, unless a coefficient among them overflowed its packed fields."""
    table.checked(fm.coef for fm in fms)
    return fms


def fm_key(table, fm):
    # the coefficient compares decoded, as the exponent tuples it was
    # before it was packed, so the text's term order stays the same
    return (fm.gammas, fm.epow, table.decoded(fm.coef))


class Presentation(SparseSum):
    """A GF(2) sum of formal monomials over a shared variable table."""

    __slots__ = ()
    mono_degree = staticmethod(lambda table, fm: fm.degree(table))
    unit = FormalMonomial(MONO_ONE, (), 0)

    def __mul__(self, other):
        self._check_peer(other)
        table, monos, shift = self.table, self.monos, other.monos
        if len(monos) == 1:
            monos, shift = shift, monos
        if len(shift) == 1:
            (f,) = shift
            if not f.gammas:
                # times c*e^k, a shift: the factors stay as they are, so
                # each monomial stays valid, and only c can overflow
                out = frozenset([tuple.__new__(FormalMonomial, (fm.coef + f.coef, fm.gammas,
                                                               fm.epow + f.epow))
                                 for fm in monos])
                return Presentation(table, _checked(table, out) if f.coef else out)
        return Presentation(table, _checked(table, product_monos(monos, shift, fm_mul)))

    def size(self):
        """(largest size, largest coefficient degree), for CoefRing.check_size."""
        # plain loops, four times faster: every parsed atom and product passes
        mask = self.table.efree_mask
        size = coef = 0
        for fm in self.monos:
            # a coefficient has no e power: its degree is its degree field
            v = fm.coef & mask
            t = v
            for i, n in fm.gammas:
                t += i + n
            size = t if t > size else size
            coef = v if v > coef else coef
        return size, coef

    def is_coefficient_only(self):
        """True when no monomial carries a G factor or an e power."""
        return all(not fm.gammas and not fm.epow for fm in self.monos)

    def _factor_text(self, fm):
        parts = []
        if fm.coef:
            parts.append(self.table.text(fm.coef))
        names, xs = self.table.names, self.table.family['X']
        for i, n in sorted(fm.gammas, key=lambda g: (-g[0], g[1])):
            parts.append(names[xs[n]] if i == 0 else 'G(%d,%d)' % (i, n))
        if fm.epow:
            parts.append('e' if fm.epow == 1 else 'e^%d' % fm.epow)
        return '*'.join(parts) if parts else '1'

    def to_text(self):
        """Canonical text form."""
        if not self.monos:
            return '0'
        table = self.table
        monos = sorted(self.monos, key=lambda fm: fm_key(table, fm), reverse=True)
        return ' + '.join(self._factor_text(fm) for fm in monos)


# member decides exactly and no longer returns UNDECIDED; the sentinel
# stays importable for callers that still test for it
class _Undecided:
    __slots__ = ()

    def __repr__(self):
        return 'Undecided'

    def __bool__(self):
        raise ContractViolation('Undecided is neither a member nor a non-member')


UNDECIDED = _Undecided()


class QuotientElem(ModulePoly):
    """Image in the quotient by the geometric classes: sum of f_k * x_k, k >= 1.

    Components f_k live in N_*[X_n]; the class x_k is the image of e^k, and
    is stored as e^k, so a value of degree d has f_k of degree d + k.
    """

    __slots__ = ()
    family = 'e'
    symbol = 'x'
    least = 1


def _fuel(fuel):
    """fuel, a rewrite step budget, unless it is negative."""
    if fuel < 0:
        raise ContractViolation('rewrite fuel must be nonnegative, got %d' % fuel)
    return fuel


class BordismRing:
    """Operations on presentations: augmentation, Gamma, normal form, membership."""

    def __init__(self, laurent, fuel=500000):
        self.laurent = laurent
        self.coef = laurent.coef
        self.table = laurent.table
        self.fuel = _fuel(fuel)
        self._nf_cache = {}
        self._window_cache = {}
        # alpha(G(i, n)) and loc(G(i, n)), by (i, n)
        self._alpha_gamma_cache = {}
        self._loc_gamma_cache = {}
        # the images under alpha and localize of a product of G factors, by its factors
        self._alpha_cache = {}
        self._localize_cache = {}
        self._x_cache = {}
        # basis_monomials(d, e_cap), by (d, e_cap)
        self._basis_cache = {}

    def _own(self, x):
        """x, unless it was built over another session's table."""
        if x.table is not self.table:
            raise ContractViolation('the element uses a foreign variable table')
        return x

    # --- constructors ---------------------------------------------------

    def zero(self):
        return Presentation(self.table)

    def one(self):
        return Presentation.one(self.table)

    def e(self, k=1):
        """Euler class power e^k, k >= 0."""
        if k < 0:
            raise ContractViolation('negative e powers live in the localized ring')
        return Presentation(self.table, (FormalMonomial(MONO_ONE, (), k),))

    def X(self, n):
        """The class of P(n*tau + sigma); X_1 = 0."""
        return self.G(0, n)

    def G(self, i, n):
        """Gamma^i(X_n); zero when n = 1."""
        if i < 0 or n < 1:
            raise ContractViolation('G(i, n) needs i >= 0 and n >= 1')
        if n > self.coef.max_degree + 1:
            raise CapacityError('X%d exceeds the degree cap %d' % (n, self.coef.max_degree))
        if n == 1:
            return self.zero()
        return Presentation(self.table, (FormalMonomial(MONO_ONE, ((i, n),), 0),))

    def iota(self, c):
        """Trivial-action section of alpha; c must be a coefficient element."""
        if c.table is not self.table:
            raise ContractViolation('coefficient uses a foreign variable table')
        if not self.coef.is_coefficient(c):
            raise ContractViolation('iota takes N_* elements only')
        return Presentation(self.table, (FormalMonomial(m, (), 0) for m in c.monos))

    def _coef_scale(self, x, c):
        # multiply a presentation by an N_* polynomial
        return Presentation(self.table, parity(_checked(self.table, [
            FormalMonomial(fm.coef + m, fm.gammas, fm.epow)
            for m in c.monos for fm in x.monos])))

    def single(self, fm):
        """The presentation with one monomial."""
        return Presentation(self.table, (fm,))

    # --- the exact sequence maps ----------------------------------------

    def alpha(self, x):
        """Augmentation to N_*: e -> 0, G(i, n) -> alpha(G(i, n)), multiplicative.

        The augmentation lies in N_*, which the session holds up to the cap,
        so an e-free term of degree past the cap is refused through
        CoefRing.check_size before anything is computed.
        """
        table = self._own(x).table
        # alpha sends e to 0
        kept = [fm for fm in x.monos if not fm.epow]
        top = max((fm.degree(table) for fm in kept), default=0)
        self.coef.check_size('augmentation, which must lie in N_* up to the cap, has degree',
                             top, top)
        return self._evaluate(((fm.gammas, fm.coef) for fm in kept), self._alpha_cache,
                              self._alpha_gamma)

    def _evaluate(self, pieces, cache, factor_value):
        """The sum over (gammas, rest) in pieces of rest times the product of
        factor_value(i, n) over the factors G(i, n) in gammas, a GradedPoly.

        cache keeps the products by gammas, so each is computed once and
        each piece costs a shift by its rest.
        """
        def image(gammas):
            val = GradedPoly.one(self.table)
            for i, n in gammas:
                if not val:
                    break
                val = val * factor_value(i, n)
            return MONO_ONE, val.monos

        return GradedPoly(self.table, sum_of_images(self.table, pieces, cache, image))

    def _alpha_gamma(self, i, n):
        """alpha(G(i, n)), read off the fixed data of loc(G(i, n)) term by term.

        loc(G(i, n)) = c_{n-1} e^{-i-1} + e^{-n-i} + sum_{k<i} alpha(G(k, n)) e^{k-i},
        and a fixed component F with normal bundle nu adds [RP(nu + R)]:
        RP(n-1) with normal L + R^i adds Q = [RP(L + R^{i+1}) over RP(n-1)],
        the isolated point adds rho(n+i), and the trivial component
        alpha(G(k, n)) with normal R^{i-k} adds alpha(G(k, n)) rho(i-k).
        Q is read off the Boardman map as the b-multiset (n, 1, ..., 1), a
        part 1 per trivial line (boardman.Boardman.bundle_in_n); the
        sw-oracle suite checks it against Q's Stiefel-Whitney numbers.
        """
        key = (i, n)
        val = self._alpha_gamma_cache.get(key)
        if val is None:
            if i == 0:
                val = self.coef.rho(n)
            else:
                val = tables(self.coef).bundle_in_n((n,) + (1,) * (i + 1))
                val = val + self.coef.rho(n + i)
                for k in range(i):
                    val = val + self._alpha_gamma(k, n) * self.coef.rho(i - k)
            self._alpha_gamma_cache[key] = val
        return val

    def bar(self, x):
        """The trivial-action class of the underlying manifold, iota(alpha(x))."""
        return self.iota(self.alpha(x))

    def gamma(self, x):
        """The Gamma operator: the unique y with e*y = x + bar(x)."""
        return self._gamma(self._own(x))

    def _gamma(self, x):
        # gamma without the table check, for the rewrite rules
        monos = x.monos
        if len(monos) == 1:
            for fm in monos:
                return Presentation(self.table, self._gamma_mono(fm))
        odd = set()
        for fm in monos:
            odd.symmetric_difference_update(self._gamma_mono(fm))
        return Presentation(self.table, frozenset(odd))

    def _gamma_mono(self, fm):
        """The monomials of Gamma(fm), a list without repeats."""
        if fm.epow:
            # x = e*z has bar(x) = 0 and e-multiplication is injective, so
            # Gamma(e*z) = z
            return [FormalMonomial(fm.coef, fm.gammas, fm.epow - 1)]
        # the product rule unrolled, in the order the module docstring fixes;
        # head is c*ubar_1*...*ubar_k, and the last factor's ubar is not needed
        factors = fm.gamma_factors() + [(0, n) for n in fm.x_indices()]
        head = GradedPoly(self.table, (fm.coef,))
        out = []
        for k, (i, n) in enumerate(factors):
            rest = factors[k + 1:]
            gammas = tuple(sorted(rest + [(i + 1, n)]))
            out.extend(FormalMonomial(m, gammas, 0) for m in head.monos)
            if not rest:
                break
            head = head * self._alpha_gamma(i, n)
            if not head:
                break
        # the terms of different k differ in their factor count: none cancel
        return out

    def divide_e(self, x):
        """The exact quotient x / e, which exists iff alpha(x) = 0."""
        c = self.alpha(x)
        if c:
            raise NotDivisible(c)
        return self._gamma(x)

    # --- normal form ------------------------------------------------------

    def normal_form(self, x, fuel=None):
        """Rewrite onto the additive basis; raises FuelExhausted when starved."""
        budget = [self.fuel if fuel is None else _fuel(fuel)]
        return self._nf_pres(self._own(x), budget)

    def _nf_pres(self, x, budget):
        # term by term in sorted order: where fuel runs out depends on the
        # terms of x, not on the order its set happens to iterate in
        monos = x.monos
        if len(monos) == 1:
            for fm in monos:
                return self._nf_mono(fm, budget)
        odd = set()
        for fm in sorted(monos):
            odd ^= self._nf_mono(fm, budget).monos
        return Presentation(self.table, frozenset(odd))

    def _nf_mono(self, fm, budget):
        # each entry keeps the rewrite steps it cost, hits included, and a
        # hit charges them: a hit it cannot pay for is rewritten again, so
        # fuel runs out at the same step as in a fresh session
        cached = self._nf_cache.get(fm)
        if cached is not None and cached[1] <= budget[0]:
            budget[0] -= cached[1]
            return cached[0]
        if fm.is_basis():
            result = self.single(fm)
            self._nf_cache[fm] = (result, 0)
            return result
        if budget[0] <= 0:
            raise FuelExhausted('rewrite fuel exhausted', stuck=fm)
        start = budget[0]
        budget[0] -= 1
        gs = fm.gamma_factors()
        if fm.epow:
            result = self._rule_euler(fm, gs, budget)
        else:
            # the second Gamma factor, or else the smallest X_m below the first
            u = gs[0]
            v = gs[1] if len(gs) >= 2 else (0, min(m for m in fm.x_indices() if m < u[1]))
            result = self._rule_product(fm, u, v, budget)
        self._nf_cache[fm] = (result, start - budget[0])
        return result

    def _nf_alpha(self, i, n, fm, budget):
        # normal form of alpha(G(i, n)) * fm
        a = self._alpha_gamma(i, n)
        if not a:
            return self.zero()
        return self._nf_pres(self._coef_scale(self.single(fm), a), budget)

    def _rule_euler(self, fm, gs, budget):
        # e*G(i, n) = G(i-1, n) + alpha(G(i-1, n))
        i, n = min(gs)
        pool = list(fm.gammas)
        pool.remove((i, n))
        first = FormalMonomial(fm.coef, tuple(sorted(pool + [(i - 1, n)])), fm.epow - 1)
        second = FormalMonomial(fm.coef, tuple(pool), fm.epow - 1)
        return self._nf_mono(first, budget) + self._nf_alpha(i - 1, n, second, budget)

    def _rule_product(self, fm, u, v, budget):
        # u*v = Gamma(G(i-1, m) v) + alpha(G(i-1, m)) G(j+1, n)
        # for u = G(i, m), i >= 1, and v = G(j, n)
        (i, m), (j, n) = u, v
        pool = list(fm.gammas)
        pool.remove(u)
        pool.remove(v)
        rest = self.single(FormalMonomial(fm.coef, tuple(pool), 0))
        inner = FormalMonomial(MONO_ONE, tuple(sorted([(i - 1, m), v])), 0)
        g = self._gamma(self._nf_mono(inner, budget))
        second = FormalMonomial(fm.coef, tuple(sorted(pool + [(j + 1, n)])), 0)
        return (self._nf_pres(g * rest, budget)
                + self._nf_alpha(i - 1, m, second, budget))

    # --- localization -----------------------------------------------------

    def localize(self, x):
        """Image in the Laurent model: X_n -> loc_P(n), G(i, n) -> _loc_gamma(i, n)."""
        e = self.table.units[self.table.invertible]
        return self._evaluate(((fm.gammas, fm.coef + fm.epow * e) for fm in self._own(x).monos),
                              self._localize_cache, self._loc_gamma)

    def _loc_gamma(self, i, n):
        """loc(G(i, n)) = e^-1 (loc(G(i-1, n)) + alpha(G(i-1, n))): e*Gamma(x) = x + xbar."""
        key = (i, n)
        val = self._loc_gamma_cache.get(key)
        if val is None:
            if i == 0:
                val = self.laurent.loc_P(n)
            else:
                val = ((self._loc_gamma(i - 1, n) + self._alpha_gamma(i - 1, n))
                       * self.laurent.e(-1))
            self._loc_gamma_cache[key] = val
        return val

    def is_geometric(self, x):
        """True when the normal form of x is free of e powers."""
        return all(fm.epow == 0 for fm in self.normal_form(x).monos)

    def quotient_reduce(self, x):
        """Image in the quotient by geometric classes: the e-part of the normal
        form, whose monomials c*X_n1*...*e^k have no G factor, as a QuotientElem."""
        table = self.table
        X, e = table.family['X'], table.units[table.invertible]
        return QuotientElem(table, table.checked([
            fm.coef + table.pack((X[n], 1) for n in fm.x_indices()) + fm.epow * e
            for fm in self.normal_form(x).monos if fm.epow]))

    def euler(self, m, k):
        """The class e^k on the m-th suspension leg: e^k when m = 0, else 0."""
        if m < 0 or k < 0:
            raise ContractViolation('euler needs m, k >= 0')
        if m >= 1:
            return self.zero()
        return self.e(k)

    # --- basis enumeration and membership ----------------------------------

    def basis_monomials(self, d, e_cap=None):
        """Additive basis monomials of degree d with e powers capped.

        The default cap max(0, -d) + 4 makes the degree-(d+1) slice map
        into the degree-d slice under multiplication by e. Coefficients reach
        degree d + e_cap."""
        if e_cap is None:
            e_cap = max(0, -d) + 4
        if e_cap < 0:
            raise ContractViolation('the e cap must be nonnegative, got %d' % e_cap)
        self.coef.check_size('basis monomials of degree plus e power', d + e_cap, d + e_cap)
        out = self._basis_cache.get((d, e_cap))
        if out is None:
            out = [FormalMonomial(coef, xs, k) for k in range(max(0, -d), e_cap + 1)
                   for coef, xs in self._coef_and_xs(d + k, 2)]
            out.extend(self._type_b(d))
            out.sort(key=lambda fm: fm_key(self.table, fm))
            out = self._basis_cache[d, e_cap] = tuple(out)
        # a fresh list each call: the caller may change it
        return list(out)

    def basis_monomials_window(self, d, t_max):
        """Basis monomials of degree d that a class topping out at e^t_max can use.

        A monomial without a G(i >= 1) factor is taken when its top
        e-exponent, epow - #X, is at most t_max. Every type-B monomial is
        taken: its localization lies in exponents <= -1 (see member, which
        peels the levels >= 0 and so asks only for t_max = -1).
        """
        table, gens = self.table, self.coef.generators
        out = []
        # type A: coefficient degree v, X factors of degree w, e power
        # v + w - d >= 0, top e-exponent v + w - d - #X; each X_n has n >= 2
        for w in range(2 * (t_max + d) + 1):
            for xs in self._x_factors(w, 2):
                for v in range(max(0, d - w), t_max + d - w + len(xs) + 1):
                    out.extend(FormalMonomial(coef, xs, v + w - d)
                               for coef in table.monomials(v, gens))
        out.extend(self._type_b(d))
        out.sort(key=lambda fm: fm_key(table, fm))
        return out

    def _type_b(self, d):
        # one G(i, j), i >= 1, and X_n factors with n >= j, no e power
        return [FormalMonomial(coef, xs + ((i, j),), 0)
                for j in range(2, min(d - 1, self.coef.max_degree + 1) + 1)
                for i in range(1, d - j + 1)
                for coef, xs in self._coef_and_xs(d - i - j, j)]

    def _x_factors(self, w, least):
        """The factor tuples X_n..., each n >= least, of total degree w, n ascending; kept."""
        if (w, least) not in self._x_cache:
            table, n_of = self.table, self.table.subscripts['X']
            self._x_cache[w, least] = tuple(
                tuple((0, n_of[i]) for i, x in table.exponents(m) for _ in range(x))
                for m in table.monomials(w, tuple(i for i, n in n_of.items() if n >= least)))
        return self._x_cache[w, least]

    def _coef_and_xs(self, total, least):
        """(N_* coefficient, X factors) pairs of e-free degree total, each X_n with n >= least."""
        gens = self.coef.generators
        return [(coef, xs) for w in range(total + 1) for xs in self._x_factors(w, least)
                for coef in self.table.monomials(total - w, gens)]

    def member(self, target):
        """Preimage of a Laurent class under localization, or None.

        A preimage is a class x of degree d in normal form, a sum of basis
        monomials. Peel the residual's top level, starting from the target,
        while it is 0 or more, then solve once:

        - A type-A monomial (no G(i >= 1) factor) mu X_{n1}...X_{nr} e^k
          localizes to mu e^k prod(c_{ni-1} e^-1 + e^-ni). Its top term
          mu prod c_{ni-1} e^{k-r} determines it, and every other term lies
          strictly lower, because ni >= 2. A type-B monomial (one G(i, j)
          with i >= 1, no e) localizes into exponents <= -1: loc_P(n) does,
          and by induction so does loc(G(i, j)) = e^-1 (loc(G(i-1, j)) +
          alpha(G(i-1, j))).
        - Peel. At the residual's top level L >= 0, each term
          mu c_{j1}...c_{jr} e^L is the top term of exactly one basis
          monomial, mu X_{j1+1}...X_{jr+1} e^{L+r}, and nothing else of x
          reaches e^L; so if the residual is loc(x), these monomials are
          the ones of x topping out at e^L. Adding their localizations
          clears level L and everything above it, so the next level peeled
          is the residual's own top, strictly below L.
        - Solve. The residual now lies in exponents <= -1, and what is left
          of x is type-A monomials topping out at or below e^-1 and type-B
          monomials: the finite window basis_monomials_window(d, -1), built
          and eliminated once per degree and session. Localization is
          injective on the basis, so a solution there together with the
          peeled monomials is x. No solution means the target is not a
          localization, since a solution would make it loc(peeled + solved).

        The preimage is unique, so the answer does not depend on what was
        asked before.

        CoefRing.check_size, given size d and coefficient degree
        d + max(t0, -1) (d + t0 is the e-free degree of the target's top
        terms), refuses a target that no class the session admits
        localizes to, before any peel or window build. An admitted term has
        coefficient degree v at most max_degree and size (degree plus e
        power) at most max_degree + 1, so its degree is at most
        max_degree + 1. Localization keeps the coefficient's degree, gives
        e^k e-free degree 0, and gives each X_n or G(i, n) factor e-free
        degree at most its size minus 1 (loc_P(n) = c_{n-1} e^-1 + e^-n,
        and by induction loc(G(i, n)) = e^-1 (loc(G(i-1, n)) +
        alpha(G(i-1, n)))). So a term with r >= 1 factors localizes to
        e-free degree at most size - r <= max_degree, and a term with none
        to v <= max_degree. Hence d + t0 <= max_degree, and d - 1 <=
        max_degree covers t0 < -1; the window at d asks for coefficients
        of degree at most d - 1 and so stays inside the cap.
        """
        self.laurent._require_laurent(target, 'membership target')
        if not target:
            return self.zero()
        degrees = target.degrees()
        if len(degrees) > 1:
            raise ContractViolation('membership target must be homogeneous')
        d, t0 = degrees.pop(), target.max_inv_exp()
        self.coef.check_size('membership target of degree', d, d + max(t0, -1))
        peeled, residual = [], target
        while residual and (level := residual.max_inv_exp()) >= 0:
            tops = self._top_monomials(residual, level)
            peeled += tops
            residual = residual + self.localize(Presentation(self.table, tops))
        cands, echelon = self._window(d)
        flags = echelon.solve(residual.monos)
        if flags is None:
            return None
        return Presentation(self.table, peeled + [fm for fm, f in zip(cands, flags) if f])

    def _top_monomials(self, t, level):
        """The type-A monomials whose localizations top out at t's terms at e^level.

        A term mu c_{j1}...c_{jr} e^level is the top term of
        mu X_{j1+1}...X_{jr+1} e^{level+r}.
        """
        table, j_of = self.table, self.table.subscripts['c']
        inv, shift = table.invertible, table.e_shift
        out = []
        for m in t.monos:
            if m >> shift != level:
                continue
            pairs = table.exponents(m)
            xs = tuple((0, j_of[i] + 1) for i, x in pairs if i in j_of for _ in range(x))
            coef = table.pack(p for p in pairs if p[0] != inv and p[0] not in j_of)
            out.append(FormalMonomial(coef, xs, level + len(xs)))
        return out

    def _window(self, d):
        """basis_monomials_window(d, -1) with its localizations eliminated, cached per degree.

        Only a finished build is stored, so a CapacityError leaves nothing
        behind.
        """
        window = self._window_cache.get(d)
        if window is None:
            cands = self.basis_monomials_window(d, -1)
            images = [self.localize(self.single(fm)) for fm in cands]
            if any(x and x.degree() != d for x in images):
                raise ContractViolation('inputs are not homogeneous of one degree')
            window = (cands, Echelon([x.monos for x in images], mono_key))
            self._window_cache[d] = window
        return window
