"""The geometric side: manifold expressions, the bundle algebra, and delta.

Manifold expressions name closed manifolds with involution built from the
projectivizations P(n) = P(n*tau + sigma), the twisted circle construction
gamma(M) = M x_{Z/2} S^1, trivial-action classes, antipodal spheres, and
finite products.

phi sends an expression to the bundle algebra N_*[b_1, b_2, ...], where
b_i records the class of (RP(i-1), tautological line) and the grading is
by total-space dimension (b_i has degree i), the table's family b. The
dictionary b_i -> c_{i-1} e^{-1}, monomial to monomial, carries bundle
classes to the Laurent model, where they agree with the localization of
the point classes.

delta is the boundary map to N_*(BO(1)), the free N_* module on classes
s_0, s_1, ..., s_j the class of (RP(j), tautological line). That is the
stable class c_j (c_0 = 1), so a value is a polynomial in the a_d and the
c_j, linear in the c_j, printed with s_j (FreeBZ2Elem); a degree-d
bundle class lands in degree d - 1. On a monomial b_{i_1} ... b_{i_r} it
is computed geometrically: the projectivization of the corresponding sum
of lines over RP(i_1 - 1) x ... x RP(i_r - 1), with its tautological
class, identified in N_*(BO(1)) through the Boardman map (module
boardman), a product of one-variable series F_{i_1} ... F_{i_r}. The
underlying class of every expression is read off phi and the same series
by one rule (Geometry.underlying). Stiefel-Whitney numbers (module
charnum) are the charnum command's route and sw-oracle's independent one.
"""

from functools import reduce
from operator import mul

from .boardman import tables
# not called here any more; kept bound for profilers that patch them by name
from .charnum import identify_in_n, identify_in_nbo1
from .errors import CapacityError, ContractViolation
from .gf2 import BUNDLE, COEFFICIENT, GradedPoly, Memo, ModulePoly, map_fields, memo


class _Expr:
    """A manifold expression: a value of its type and one field, the one __slots__ names.

    An expression does not change once built, so its hash is computed once,
    when it is built, and kept in _hash.
    """

    __slots__ = ('_hash',)

    def __init__(self, value):
        setattr(self, self.__slots__[0], value)
        self._hash = hash((value,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        slot = self.__slots__[0]
        return self._hash == other._hash and getattr(self, slot) == getattr(other, slot)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        slot = self.__slots__[0]
        return '%s(%s=%r)' % (type(self).__name__, slot, getattr(self, slot))


class Proj(_Expr):
    """P(n*tau + sigma), dimension n."""

    __slots__ = ('n',)

    def __init__(self, n):
        if n < 1:
            raise ContractViolation('Proj(n) needs n >= 1')
        super().__init__(n)

    @property
    def dim(self):
        return self.n


class GammaOf(_Expr):
    """The twisted circle gamma(M) = M x_{Z/2} S^1."""

    __slots__ = ('inner',)

    def __init__(self, inner):
        if not isinstance(inner, _Expr):
            raise _not_an_expression(inner)
        super().__init__(inner)

    @property
    def dim(self):
        return 1 + self.inner.dim


class ProductOf(_Expr):
    """A finite product of expressions."""

    __slots__ = ('factors',)

    def __init__(self, factors):
        if not isinstance(factors, (tuple, list)) or not factors:
            raise ContractViolation('a product needs a nonempty tuple or list of factors,'
                                    ' got %r' % (factors,))
        for f in factors:
            if not isinstance(f, _Expr):
                raise _not_an_expression(f)
        super().__init__(tuple(factors))

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)


class Trivial(_Expr):
    """A coefficient class with the trivial involution."""

    __slots__ = ('coef',)

    def __init__(self, coef):
        if not isinstance(coef, GradedPoly):
            raise ContractViolation('a trivial class must be a GradedPoly, got %s'
                                    % type(coef).__name__)
        super().__init__(coef.table.admit(coef, GradedPoly, COEFFICIENT, 'a trivial class'))

    @property
    def dim(self):
        """The dimension; the largest one when the class mixes degrees."""
        return max(self.coef.degrees(), default=0)


class AntipodalSphere(_Expr):
    """S^j with the antipodal involution."""

    __slots__ = ('j',)

    def __init__(self, j):
        if j < 0:
            raise ContractViolation('AntipodalSphere(j) needs j >= 0')
        super().__init__(j)

    @property
    def dim(self):
        return self.j


def _not_an_expression(x):
    return ContractViolation('not a manifold expression: %r' % (x,))


def tower(i, n):
    """The expression gamma^i(P(n))."""
    expr = Proj(n)
    for _ in range(i):
        expr = GammaOf(expr)
    return expr


class FreeBZ2Elem(ModulePoly):
    """An element of N_*(BO(1)), free over N_* on the s_j = c_j (s_0 = 1)."""

    __slots__ = ()
    family = 'c'
    symbol = 's'
    least = 0


class Geometry:
    """phi, delta, and the point-class comparison for manifold expressions.

    Every answer a Geometry gives is a function of its argument alone, so
    it keeps them in Memos: phi and pt_class by expression, delta,
    underlying and dictionary by the b part of each monomial, the basis
    manifolds by formal monomial and the catalog by dimension. Expressions
    handed out twice are one object, so the lookups they meet again hit
    by identity.
    """

    def __init__(self, mo):
        self.mo = mo
        self.coef = mo.coef
        self.laurent = mo.laurent
        self.table = mo.table
        table = self.table
        c, e = table.family['c'], table.units[table.invertible]
        # the dictionary adds c_{i-1} e^-1 - b_i to a monomial per b_i (c_0 = 1)
        self._dict_step = {idx: (table.units[c[i - 1]] if i > 1 else 0) - e - table.units[idx]
                           for idx, i in table.subscripts['b'].items()}
        self._bundle_vars = tuple(table.family['a'].values()) + tuple(table.family['b'].values())
        self._b_fields = table.mask('b')
        # keyed by the b fields of a monomial, as gf2.map_fields keeps images
        self._delta_cache, self._fixed_cache, self._dict_cache = Memo(), Memo(), Memo()
        # keyed by expression, formal monomial and dimension
        self._walk_cache, self._pt_cache = Memo(), Memo()
        self._manifold_cache, self._catalog_cache = Memo(), Memo()

    # --- the bundle algebra -----------------------------------------------

    def b(self, i):
        """The bundle generator b_i, the class of (RP(i-1), tautological line)."""
        if i < 1:
            raise ContractViolation('b_i needs i >= 1')
        if i > self.coef.max_degree + 1:
            raise CapacityError('b%d exceeds the degree cap %d' % (i, self.coef.max_degree))
        return GradedPoly.var_of(self.table, 'b', i)

    def bundle_monomials(self, d):
        """All bundle-algebra monomials of degree d, coefficient included."""
        self.coef.check_size('bundle monomials of degree', d, d)
        return [GradedPoly(self.table, (m,)) for m in self.table.monomials(d, self._bundle_vars)]

    # --- the maps -----------------------------------------------------------

    def phi(self, expr):
        """Image in the bundle algebra: the fixed data of the expression.

        The fixed set of gamma(M) is M with a trivial normal line plus the
        fixed set of M with one more line, so phi(gamma(M)) =
        b_1 * (underlying(M) + phi(M)); delta o phi = 0 on every closed
        manifold (Conner-Floyd).
        """
        if not isinstance(expr, _Expr):
            raise _not_an_expression(expr)
        return self._walk(expr)

    # the benchmark's tracer and its workloads call phi by this name too
    exact_phi = phi

    def underlying(self, expr):
        """Class of the underlying manifold in N_*, forgetting the action.

        A closed involution is bordant, as a manifold, to the sum of
        P(nu_F + R) over its fixed components F (Conner-Floyd). A monomial
        mu * b_{i_1} ... b_{i_r} of phi(expr) is the component
        RP(i_1 - 1) x ... with normal bundle L_1 + ... + L_r, so it adds mu
        times the b-multiset with one more part 1, a trivial line; without
        b's it adds P(R) over it, itself. A dimension past the cap is
        refused before any kept image is shifted there.
        """
        if not isinstance(expr, _Expr):
            raise _not_an_expression(expr)
        self.coef.check_size('an N_* class of dimension', expr.dim, expr.dim)
        return GradedPoly(self.table, map_fields(
            self.table, self._walk(expr).monos, self._b_fields, self._fixed_cache,
            self._fixed_image))

    def _fixed_image(self, bmono):
        return tables(self.coef).bundle_in_n(self._bmult(bmono) + (1,)).monos

    @memo('_walk_cache')
    def _walk(self, expr):
        """phi(expr), kept by expression."""
        if isinstance(expr, Proj):
            return self.b(expr.n) + self.b(1) ** expr.n
        if isinstance(expr, GammaOf):
            return self.b(1) * (self.underlying(expr.inner) + self._walk(expr.inner))
        if isinstance(expr, ProductOf):
            return reduce(mul, map(self._walk, expr.factors))
        if isinstance(expr, Trivial):
            return self.table.admit(expr.coef, GradedPoly, BUNDLE, 'a trivial class')
        if isinstance(expr, AntipodalSphere):
            # free actions have no fixed data
            return GradedPoly.zero(self.table)
        raise _not_an_expression(expr)

    def pt_class(self, expr):
        """The bordism class as a presentation, kept by expression as phi's walk is."""
        if not isinstance(expr, _Expr):
            raise _not_an_expression(expr)
        return self._point(expr)

    @memo('_pt_cache')
    def _point(self, expr):
        """pt_class(expr), kept by expression."""
        if isinstance(expr, Proj):
            return self.mo.X(expr.n)
        if isinstance(expr, GammaOf):
            return self.mo.gamma(self._point(expr.inner))
        if isinstance(expr, ProductOf):
            acc = self.mo.one()
            for f in expr.factors:
                acc = acc * self._point(f)
            return acc
        if isinstance(expr, Trivial):
            return self.mo.iota(expr.coef)
        if isinstance(expr, AntipodalSphere):
            # free actions localize to zero
            return self.mo.zero()
        raise _not_an_expression(expr)

    def dictionary(self, poly):
        """Translate bundle classes to the Laurent model, b_i -> c_{i-1} e^{-1}.

        b_i^x goes to c_{i-1}^x e^{-x}, monomials one to one: nothing cancels.
        """
        self.table.admit(poly, GradedPoly, BUNDLE, 'the bundle class')
        return GradedPoly(self.table, map_fields(
            self.table, poly.monos, self._b_fields, self._dict_cache, self._dict_image))

    def _dict_image(self, bmono):
        # one monomial: each b_i^x of the part adds x times its step
        step = self._dict_step
        return (bmono + sum(x * step[i] for i, x in self.table.exponents(bmono)),)

    def delta(self, poly):
        """Boundary to the free module on s_0, s_1, ... by projectivization."""
        self.table.admit(poly, GradedPoly, BUNDLE, 'the bundle class')
        return FreeBZ2Elem(self.table, map_fields(
            self.table, poly.monos, self._b_fields, self._delta_cache, self._delta_image))

    def _bmult(self, mono):
        """The b indices of a monomial, sorted, with repeats."""
        b_of = self.table.subscripts['b']
        return tuple(sorted(b_of[idx] for idx, x in self.table.exponents(mono)
                            if idx in b_of for _ in range(x)))

    def _delta_image(self, bmono):
        # a monomial without b's is a closed manifold, and bounds nothing
        if not bmono:
            return ()
        return FreeBZ2Elem(self.table, tables(self.coef).bundle_in_nbo1(self._bmult(bmono))).monos

    # --- catalogs -------------------------------------------------------------

    @memo('_manifold_cache')
    def manifold_for_basis(self, fm):
        """An expression whose point class is the given e-free basis monomial,
        kept by monomial: every caller gets the same expression object."""
        if fm.epow:
            raise ContractViolation('basis monomial carries an e power')
        factors = []
        if fm.coef:
            factors.append(Trivial(GradedPoly(self.table, (fm.coef,))))
        factors.extend(tower(i, n) for i, n in fm.gammas)
        if not factors:
            return Trivial(GradedPoly.one(self.table))
        if len(factors) == 1:
            return factors[0]
        return ProductOf(tuple(factors))

    def catalog_expressions(self, max_dim):
        """A deterministic catalog of expressions of dimension <= max_dim: a
        fresh list of the expressions kept for max_dim, so callers share them."""
        return list(self._catalog(max_dim))

    @memo('_catalog_cache')
    def _catalog(self, max_dim):
        """The catalog of max_dim as a tuple, built once."""
        out = []
        for d in range(max_dim + 1):
            for mu in self.coef.monomials_of_degree(d):
                out.append(Trivial(mu))
            if d >= 1:
                out.append(Proj(d))
            out.extend(tower(d - n, n) for n in range(2, d))
            for n1 in range(1, d + 1):
                n2 = d - n1
                if n2 < n1:
                    break
                out.append(ProductOf((Proj(n1), Proj(n2))))
            for n in range(2, d - 1):
                m = d - 1 - n
                if m >= 1:
                    out.append(ProductOf((GammaOf(Proj(n)), Proj(m))))
            for v in range(2, d):
                for mu in self.coef.monomials_of_degree(v):
                    out.append(ProductOf((Trivial(mu), Proj(d - v))))
            out.append(AntipodalSphere(d))
        for v in (2, 4):
            if v + 1 <= max_dim:
                out.append(GammaOf(Trivial(self.coef.a(v))))
        return tuple(out)

