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
lexicographically, so rewriting ends, and _nf_cache rewrites each monomial
the cap admits at most once per session: its entry count is the number of
rule applications.
"""

from collections import namedtuple

from .boardman import tables
from .errors import CapacityError, ContractViolation, NotDivisible
from .gf2 import (COEFFICIENT, LAURENT, GradedPoly, MONO_ONE, Memo, ModulePoly,
                  SparseSum, keep, memo, mono_degree, parity, product_monos)
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
    return (fm.gammas, fm.epow, table.exponents(fm.coef))


def fm_text(table, fm):
    """(sort key, text) of a formal monomial: fm_key, and the "*"-joined
    coefficient, G(i, n) by i descending, X_n, then e's power, or '1'."""
    parts = [table.text(fm.coef)] if fm.coef else []
    names, xs = table.names, table.family['X']
    for i, n in sorted(fm.gammas, key=lambda g: (-g[0], g[1])):
        parts.append(names[xs[n]] if i == 0 else 'G(%d,%d)' % (i, n))
    if fm.epow:
        parts.append('e' if fm.epow == 1 else 'e^%d' % fm.epow)
    return fm_key(table, fm), '*'.join(parts) if parts else '1'


class Presentation(SparseSum):
    """A GF(2) sum of formal monomials over a shared variable table."""

    __slots__ = ()
    mono_degree = staticmethod(lambda table, fm: fm.degree(table))
    mono_text = staticmethod(fm_text)
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


# member never returns it; perfbench/child.py imports it, and
# perfbench/tracer.py tests member's answer against it by identity
UNDECIDED = object()


class QuotientElem(ModulePoly):
    """Image in the quotient by the geometric classes: sum of f_k * x_k, k >= 1.

    Components f_k live in N_*[X_n]; the class x_k is the image of e^k, and
    is stored as e^k, so a value of degree d has f_k of degree d + k.
    """

    __slots__ = ()
    family = 'e'
    symbol = 'x'
    least = 1


def _named(xs, s):
    """(factors, e power) of the basis monomial that the X-factor tuple xs,
    n ascending, names at level s: X_{J+1} e^s when s >= 0, and when s < 0
    G(-s, j) X_{J'+1}, the first factor X_j giving its place to G(-s, j)."""
    if s >= 0:
        return xs, s
    return xs[1:] + ((-s, xs[0][1]),), 0


class BordismRing:
    """Operations on presentations: augmentation, Gamma, normal form, membership."""

    def __init__(self, laurent):
        self.laurent = laurent
        self.coef = laurent.coef
        self.table = laurent.table
        # alpha's and localize's images of a product of G factors, by the factors,
        # which _evaluate fills, and normal forms of non-basis monomials
        self._alpha_cache, self._localize_cache, self._nf_cache = Memo(), Memo(), Memo()
        self._alpha_gamma_cache, self._loc_gamma_cache = Memo(), Memo()
        self._x_cache, self._basis_cache, self._coef_cache = Memo(), Memo(), Memo()
        self._c_fields = self.table.mask('c')
        self._c_cache = Memo()

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
        """Gamma^i(X_n); zero when n = 1. Its size i + n passes the cap rule."""
        if i < 0 or n < 1:
            raise ContractViolation('G(i, n) needs i >= 0 and n >= 1')
        if n > self.coef.max_degree + 1:
            raise CapacityError('X%d exceeds the degree cap %d' % (n, self.coef.max_degree))
        if n == 1:
            return self.zero()
        if i:
            self.coef.check_size('degree plus e power', i + n, 0)
        return Presentation(self.table, (FormalMonomial(MONO_ONE, ((i, n),), 0),))

    def iota(self, c):
        """Trivial-action section of alpha; c must be a coefficient element."""
        c = self.table.admit(c, GradedPoly, COEFFICIENT, 'the coefficient')
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
        table = self.table
        # alpha sends e to 0
        kept = [fm for fm in table.admit(x, Presentation).monos if not fm.epow]
        top = max((fm.degree(table) for fm in kept), default=0)
        self.coef.check_size('augmentation, which must lie in N_* up to the cap, has degree',
                             top, top)
        return self._evaluate(((fm.gammas, fm.coef) for fm in kept), self._alpha_cache,
                              self._alpha_gamma)

    def _evaluate(self, pieces, cache, factor_value):
        """The sum over (gammas, rest) in pieces of rest times the product of
        factor_value(i, n) over the factors G(i, n) in gammas, a GradedPoly.

        cache keeps the products by gammas as gf2.keep's entries, so each is
        computed once and each piece costs a shift by its rest, checked
        against the limit as map_monos checks its shifts.
        """
        table = self.table
        efree, limit = table.efree_mask, table.limit
        odd = set()
        for gammas, rest in pieces:
            entry = cache.get(gammas)
            if entry is None:
                val = GradedPoly.one(table)
                for i, n in gammas:
                    if not val:
                        break
                    val = val * factor_value(i, n)
                entry = keep(table, cache, gammas, MONO_ONE, val.monos)
            else:
                cache.hits += 1
            _, value, top = entry
            if (rest & efree) + top > limit:
                raise table.overflow()
            # a product has no repeats, and a shift keeps it so
            odd ^= {v + rest for v in value}
        return GradedPoly(table, frozenset(odd))

    @memo('_alpha_gamma_cache')
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
        if i == 0:
            return self.coef.rho(n)
        val = tables(self.coef).bundle_in_n((n,) + (1,) * (i + 1)) + self.coef.rho(n + i)
        for k in range(i):
            val = val + self._alpha_gamma(k, n) * self.coef.rho(i - k)
        return val

    def bar(self, x):
        """The trivial-action class of the underlying manifold, iota(alpha(x))."""
        return self.iota(self.alpha(x))

    def gamma(self, x):
        """The Gamma operator: the unique y with e*y = x + bar(x), which can
        exceed x's size by one and so passes the cap rule again."""
        y = self._gamma(self.table.admit(x, Presentation))
        self.coef.check_size('degree plus e power', *y.size())
        return y

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
        return self.gamma(x)

    # --- normal form ------------------------------------------------------

    def normal_form(self, x):
        """Rewrite onto the additive basis."""
        return self._nf_pres(self.table.admit(x, Presentation))

    def _nf_pres(self, x):
        monos = x.monos
        if len(monos) == 1:
            for fm in monos:
                return self._nf_mono(fm)
        odd = set()
        for fm in monos:
            odd ^= self._nf_mono(fm).monos
        return Presentation(self.table, frozenset(odd))

    def _nf_mono(self, fm):
        # a basis monomial is its own normal form: nothing is kept
        if fm.is_basis():
            return self.single(fm)
        # a zero normal form is a falsy Presentation: a miss is None
        result = self._nf_cache.get(fm)
        if result is not None:
            self._nf_cache.hits += 1
            return result
        gs = fm.gamma_factors()
        if fm.epow:
            result = self._rule_euler(fm, gs)
        else:
            # the second Gamma factor, or else the smallest X_m below the first
            u = gs[0]
            v = gs[1] if len(gs) >= 2 else (0, min(m for m in fm.x_indices() if m < u[1]))
            result = self._rule_product(fm, u, v)
        self._nf_cache[fm] = result
        return result

    def _nf_alpha(self, i, n, fm):
        # normal form of alpha(G(i, n)) * fm
        a = self._alpha_gamma(i, n)
        if not a:
            return self.zero()
        return self._nf_pres(self._coef_scale(self.single(fm), a))

    def _rule_euler(self, fm, gs):
        # e*G(i, n) = G(i-1, n) + alpha(G(i-1, n))
        i, n = min(gs)
        pool = list(fm.gammas)
        pool.remove((i, n))
        first = FormalMonomial(fm.coef, tuple(sorted(pool + [(i - 1, n)])), fm.epow - 1)
        second = FormalMonomial(fm.coef, tuple(pool), fm.epow - 1)
        return self._nf_mono(first) + self._nf_alpha(i - 1, n, second)

    def _rule_product(self, fm, u, v):
        # u*v = Gamma(G(i-1, m) v) + alpha(G(i-1, m)) G(j+1, n)
        # for u = G(i, m), i >= 1, and v = G(j, n)
        (i, m), (j, n) = u, v
        pool = list(fm.gammas)
        pool.remove(u)
        pool.remove(v)
        rest = self.single(FormalMonomial(fm.coef, tuple(pool), 0))
        inner = FormalMonomial(MONO_ONE, tuple(sorted([(i - 1, m), v])), 0)
        g = self._gamma(self._nf_mono(inner))
        second = FormalMonomial(fm.coef, tuple(sorted(pool + [(j + 1, n)])), 0)
        return self._nf_pres(g * rest) + self._nf_alpha(i - 1, m, second)

    # --- localization -----------------------------------------------------

    def localize(self, x):
        """Image in the Laurent model: X_n -> loc_P(n), G(i, n) -> _loc_gamma(i, n)."""
        e = self.table.units[self.table.invertible]
        return self._evaluate(((fm.gammas, fm.coef + fm.epow * e)
                               for fm in self.table.admit(x, Presentation).monos),
                              self._localize_cache, self._loc_gamma)

    @memo('_loc_gamma_cache')
    def _loc_gamma(self, i, n):
        """loc(G(i, n)) = e^-1 (loc(G(i-1, n)) + alpha(G(i-1, n))): e*Gamma(x) = x + xbar."""
        if i == 0:
            return self.laurent.loc_P(n)
        return (self._loc_gamma(i - 1, n) + self._alpha_gamma(i - 1, n)) * self.laurent.e(-1)

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
        # a fresh list each call: the caller may change it
        return list(self._basis(d, e_cap))

    @memo('_basis_cache')
    def _basis(self, d, e_cap):
        # the peel map names the basis: the X-factor tuple xs = X_{J+1} of
        # degree w at level s names _named(xs, s), the one basis monomial whose
        # localization has mu c_J e^{s-|J|} as its term with the most c factors,
        # and every basis monomial is named so once. Its coefficient degree
        # d - w + s is >= 0, and with no xs, s is too. Sorted blocks (factors,
        # e power, coefficient degree) with their coefficients sorted give the
        # order of fm_key
        blocks = [(*_named(xs, s), d - w + s) for w in range(d + e_cap + 1)
                  for xs in self._x_factors(w)
                  for s in range(w - d if xs else max(w - d, 0), e_cap + 1)]
        blocks.sort()
        coefs = [self._sorted_coefs(v) for v in range(d + e_cap + 1)]
        new = tuple.__new__
        return tuple([new(FormalMonomial, (coef, gammas, k))
                      for gammas, k, v in blocks for coef in coefs[v]])

    @memo('_coef_cache')
    def _sorted_coefs(self, v):
        """The coefficient monomials of degree v in the order of fm_key: by their exponents."""
        return sorted(self.table.monomials(v, self.coef.generators), key=self.table.exponents)

    @memo('_x_cache')
    def _x_factors(self, w):
        """The factor tuples X_n... of total degree w, n ascending."""
        table, n_of = self.table, self.table.subscripts['X']
        return tuple(tuple((0, n_of[i]) for i, x in table.exponents(m) for _ in range(x))
                     for m in table.monomials(w, tuple(n_of)))

    def member(self, target):
        """Preimage of a Laurent class under localization, or None.

        A preimage is a class x of degree d in normal form, a sum of basis
        monomials. Localization is triangular on the basis once terms are
        ordered by their number of c factors, so x comes off the target in
        one peel, most c factors first:

        - Count. Write a term mu c_J e^L with mu c-free; it has r = |J| c
          factors. loc(X_n) = c_{n-1} e^-1 + e^-n has one term with a c
          factor, and so does loc(G(i, j)) = c_{j-1} e^{-i-1} + e^{-i-j} +
          sum_{k<i} alpha(G(k, j)) e^{k-i}, i >= 1, since alpha is c-free.
          So the localization of a basis monomial, its coefficient and e
          power times the product of its factors', has exactly one term
          with the most c factors, the product of their c terms, and every
          other term has fewer.
        - Name. That term determines the monomial, and _topped reads it
          back; write s = L + r. A type-A monomial (no G(i >= 1) factor)
          mu X_{J+1} e^k names mu c_J e^{k-|J|}, with s = k >= 0. A type-B
          one, mu G(i, j) X_{J'+1} with every X_n at n >= j and no e, names
          mu c_{j-1} c_{J'} e^{-i-1-|J'|}, with s = -i < 0, r >= 1 and j - 1
          its least c index. A c-free term with L < 0 names none. _named
          states this rule once, from X_{J+1} and s, and _basis enumerates
          the basis by it.
        - Peel. Take the residual's terms with the most c factors. If the
          residual is loc(x'), those are the named terms of the monomials
          of x' whose named term has that many c factors, and nothing else
          of loc(x') reaches them: a monomial naming a term with more would
          leave it in the residual. Adding their localizations clears them
          and changes only terms with fewer c factors. This is reduction
          modulo a triangular family, so it keeps the preimage: if the
          target is loc(x), the peeled monomials are exactly x. A c-free
          term mu e^L, L < 0, among those with the most c factors names no
          monomial, so the target is no localization: these terms are what
          is left of a non-member.

        The preimage is unique, so the answer does not depend on what was
        asked before. The basis verify suite checks the same two facts,
        one term with the most c factors and _topped naming the monomial,
        on the localizations of the basis.

        CoefRing.check_size, given size d and coefficient degree
        d + max(t0, -1) (d + t0 is the e-free degree of the target's top
        terms), refuses a target that no class the session admits
        localizes to, before any peel. An admitted term has coefficient
        degree v at most max_degree and size (degree plus e power) at most
        max_degree + 1, so its degree is at most max_degree + 1.
        Localization keeps the coefficient's degree, gives e^k e-free
        degree 0, and gives each X_n or G(i, n) factor e-free degree at
        most its size minus 1. So a term with r >= 1 factors localizes to
        e-free degree at most size - r <= max_degree, and a term with none
        to v <= max_degree. Hence d + t0 <= max_degree, and d - 1 <=
        max_degree covers t0 < -1. A peeled type-A monomial localizes into
        terms of degree d at or below the level of the term it names,
        which is at most max(t0, -1), so their e-free degree is at most
        d + max(t0, -1). A
        type-B monomial of degree d <= max_degree + 1 has i <= d - 2 and
        coefficient degree at most d - 3, and localizes below e^0, into
        e-free degree at most d - 1. Both stay inside the cap.
        """
        # degree() refuses a mixed-degree target, and is None for zero
        d = self.table.admit(target, GradedPoly, LAURENT, 'the membership target').degree()
        if d is None:
            return self.zero()
        t0 = target.max_inv_exp()
        self.coef.check_size('membership target of degree', d, d + max(t0, -1))
        residual, pieces = target.monos, []
        while residual:
            tops = [self._topped(m) for m in self._most_c(residual)]
            if None in tops:
                return None
            pieces += tops
            # their localizations clear those terms and change only terms with fewer c factors
            residual ^= self._evaluate(tops, self._localize_cache, self._loc_gamma).monos
        shift = self.table.e_shift
        low = (1 << shift) - 1
        return Presentation(self.table, [FormalMonomial(rest & low, xs, rest >> shift)
                                         for xs, rest in pieces])

    def _most_c(self, monos):
        """The terms among monos with the most c factors."""
        # _c_cache read by hand, as VarTable.rows does: a call per term costs more
        cache, fields = self._c_cache, self._c_fields
        most, tops = -1, []
        for m in monos:
            part = cache.get(m & fields)
            if part is None:
                part = self._c_part(m & fields)
            else:
                cache.hits += 1
            r = len(part[1])
            if r > most:
                most, tops = r, [m]
            elif r == most:
                tops.append(m)
        return tops

    def _topped(self, m):
        """The basis monomial whose localization has m as its one term with the
        most c factors, or None: m = mu c_J e^L names _named(X_{J+1}, L + |J|),
        and a c-free m with L < 0 names none. The monomial comes as localize
        reads it, (factors, mu times its e power).
        """
        shift = self.table.e_shift
        c, xs = self._c_part(m & self._c_fields)
        s = (m >> shift) + len(xs)
        if s < 0 and not xs:
            return None
        xs, k = _named(xs, s)
        return xs, ((m - c) & ((1 << shift) - 1)) + (k << shift)

    @memo('_c_cache')
    def _c_part(self, fields):
        """c_J packed and the factors X_{j+1} it names, by the c fields of a term."""
        table, j_of = self.table, self.table.subscripts['c']
        pairs = table.exponents(fields)
        return table.pack(pairs), tuple((0, j_of[i] + 1) for i, x in pairs for _ in range(x))
