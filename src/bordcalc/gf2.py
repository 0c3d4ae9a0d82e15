"""Sparse polynomials over GF(2) with integer-graded variables.

A polynomial is a finite set of monomials; a monomial that appears in the
set has coefficient 1, so addition is symmetric difference and p + p = 0
needs no bookkeeping. Variables live in a VarTable which assigns each one
a nonzero integer degree; exactly one variable per table may be flagged
invertible and is the only one allowed to carry negative exponents.

A monomial is a sorted tuple of (variable index, exponent) pairs with zero
exponents dropped, so monomials are hashable and compare cheaply. The
canonical text form joins terms with " + ", each term being the "*"-joined
"var^exp" factors with exponent 1 omitted and the invertible variable
printed last, for example "c1*e^-1 + e^-2". Terms are ordered by exponent
of the invertible variable descending, then by the exponents of the
remaining variables in table order, descending.

Linear algebra (rank, subset solving) works on Python integer bitmasks,
one bit per monomial, with the pivot order fixed by the term ordering, so
results are exact and deterministic. An Echelon eliminates a fixed family
once and then solves for any number of targets.

The pieces every GF(2) sum in the package shares live here too: the sum
core SparseSum (polynomials and presentations differ only in their kind
of monomial), parity (the monomials of a product, duplicates cancelled),
square-and-multiply powers, the partition enumerator, and free modules
over N_* with polynomial components.
"""

import operator
from collections import Counter

from .errors import ContractViolation

MONO_ONE = ()


class VarTable:
    """Append-only ordered table of graded variables.

    Appending never reorders existing entries, so monomial orderings and
    canonical text stay stable for the life of a session.
    """

    __slots__ = ('names', 'degrees', 'invertible', '_index')

    def __init__(self):
        self.names = []
        self.degrees = []
        self.invertible = None  # index of the invertible variable, if any
        self._index = {}

    def add(self, name, degree, invertible=False):
        """Append a variable and return its index."""
        if name in self._index:
            raise ContractViolation('duplicate variable %r' % name)
        if degree == 0:
            raise ContractViolation('variable %r must have nonzero degree' % name)
        if invertible and self.invertible is not None:
            raise ContractViolation('table already has an invertible variable')
        idx = len(self.names)
        self._index[name] = idx
        self.names.append(name)
        self.degrees.append(degree)
        if invertible:
            self.invertible = idx
        return idx

    def index(self, name):
        """Index of a variable; KeyError if absent."""
        return self._index[name]

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)


def parity(monos):
    """The monomials that occur an odd number of times, as a frozenset."""
    odd = set()
    for m in monos:
        if m in odd:
            odd.remove(m)
        else:
            odd.add(m)
    return frozenset(odd)


def power(x, n, one, mul=operator.mul):
    """x**n by square-and-multiply, O(log n) calls of mul; one is the unit."""
    if n < 0:
        raise ContractViolation('powers must be nonnegative')
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def partitions(total, parts=None):
    """Partitions of total into the allowed part sizes (default 1..total).

    Each partition is a non-increasing tuple, and the list runs in
    descending lexicographic order; () is the one partition of 0, and a
    negative total has none.
    """
    if total < 0:
        return []
    sizes = sorted({p for p in (range(1, total + 1) if parts is None else parts)
                    if 0 < p <= total}, reverse=True)
    out = []

    def rec(rem, start, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for idx in range(start, len(sizes)):
            p = sizes[idx]
            if p <= rem:
                cur.append(p)
                rec(rem - p, idx, cur)
                cur.pop()

    rec(total, 0, [])
    return out


def mono_of(indices):
    """The monomial multiplying the variables of the given indices, repeats counted."""
    return tuple(sorted(Counter(indices).items()))


def mono_mul(m1, m2):
    """Product of two exponent tuples (variables may be any sortable keys)."""
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for i, x in m2:
        y = exps.get(i, 0) + x
        if y:
            exps[i] = y
        else:
            del exps[i]
    return tuple(sorted(exps.items()))


def mono_degree(table, m):
    """Total degree of an exponent tuple."""
    deg = table.degrees
    return sum(x * deg[i] for i, x in m)


def mono_key(table, m):
    """Sort key placing the leading term first under the term ordering."""
    exps = [0] * len(table)
    for i, x in m:
        exps[i] = x
    inv = table.invertible
    einv = exps[inv] if inv is not None else 0
    rest = tuple(-exps[i] for i in range(len(table)) if i != inv)
    return (-einv, rest)


def mono_text(table, m):
    """Canonical text of one exponent tuple."""
    if not m:
        return '1'
    inv = table.invertible
    head = [(i, x) for i, x in m if i != inv]
    tail = [(i, x) for i, x in m if i == inv]
    parts = []
    for i, x in head + tail:
        name = table.names[i]
        parts.append(name if x == 1 else '%s^%d' % (name, x))
    return '*'.join(parts)


class SparseSum:
    """A GF(2) sum: a finite set of monomials over a shared VarTable.

    The sum protocol is written once here. A subclass names its kind of
    monomial through mono_mul (the product of two monomials),
    mono_degree(table, m) and unit (the monomial of 1); operands of +
    and * must be of one subclass over one table.
    """

    __slots__ = ('table', 'terms')

    def __init__(self, table, terms=()):
        self.table = table
        self.terms = terms if isinstance(terms, frozenset) else frozenset(terms)

    @classmethod
    def zero(cls, table):
        """The empty sum."""
        return cls(table)

    @classmethod
    def one(cls, table):
        """The sum holding only the unit monomial."""
        return cls(table, (cls.unit,))

    def _check_peer(self, other):
        if type(other) is not type(self) or other.table is not self.table:
            raise ContractViolation('operands are not %s values over one table'
                                    % type(self).__name__)

    def __add__(self, other):
        self._check_peer(other)
        return type(self)(self.table, self.terms ^ other.terms)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        self._check_peer(other)
        mul = self.mono_mul
        return type(self)(self.table, parity(
            mul(m1, m2) for m1 in self.terms for m2 in other.terms))

    def __pow__(self, n):
        return power(self, n, self.one(self.table))

    def __eq__(self, other):
        return (type(other) is type(self) and self.table is other.table
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return self.to_text()

    def homogeneous(self):
        """True when all terms share one degree (vacuously for zero)."""
        return len({self.mono_degree(self.table, m) for m in self.terms}) <= 1

    def degree(self):
        """Degree of a homogeneous sum; None for zero."""
        degs = {self.mono_degree(self.table, m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ContractViolation('element is not homogeneous')
        return degs.pop()


class GradedPoly(SparseSum):
    """A polynomial: a sum of exponent tuples, coefficients implicitly 1."""

    __slots__ = ()
    mono_mul = staticmethod(mono_mul)
    mono_degree = staticmethod(mono_degree)
    unit = MONO_ONE

    @classmethod
    def var(cls, table, name, exp=1):
        """A single variable raised to exp (invertible variable only for exp < 0)."""
        idx = table.index(name)
        if exp == 0:
            return cls.one(table)
        if exp < 0 and idx != table.invertible:
            raise ContractViolation('%s is not invertible' % name)
        return cls(table, (((idx, exp),),))

    def degree_decompose(self):
        """Split into homogeneous pieces, as a degree -> polynomial map."""
        pieces = {}
        for m in self.terms:
            pieces.setdefault(mono_degree(self.table, m), set()).add(m)
        return {d: GradedPoly(self.table, ms) for d, ms in sorted(pieces.items())}

    def inv_exponents(self):
        """Exponents of the invertible variable across terms (0 when absent)."""
        inv = self.table.invertible
        out = []
        for m in self.terms:
            out.append(next((x for i, x in m if i == inv), 0))
        return out

    def min_inv_exp(self):
        exps = self.inv_exponents()
        return min(exps) if exps else None

    def max_inv_exp(self):
        exps = self.inv_exponents()
        return max(exps) if exps else None

    def support(self):
        """Names of the variables that actually occur."""
        names = self.table.names
        return {names[i] for m in self.terms for i, _ in m}

    def uses_only(self, names):
        """True when every occurring variable is in names."""
        return self.support() <= set(names)

    def substitute(self, mapping):
        """Replace variables by polynomials; unmapped variables pass through.

        Mapped variables must occur with nonnegative exponents only.
        """
        table = self.table
        idx_map = {table.index(name): poly for name, poly in mapping.items()}
        for poly in idx_map.values():
            self._check_peer(poly)
        powers = {}

        def power(i, x):
            if x < 0:
                raise ContractViolation('cannot substitute into a negative power')
            if (i, x) not in powers:
                powers[(i, x)] = idx_map[i] ** x
            return powers[(i, x)]

        acc = GradedPoly.zero(table)
        for m in self.terms:
            kept = tuple((i, x) for i, x in m if i not in idx_map)
            piece = GradedPoly(table, (kept,))
            for i, x in m:
                if i in idx_map:
                    piece = piece * power(i, x)
            acc = acc + piece
        return acc

    def to_text(self):
        """Canonical text form."""
        if not self.terms:
            return '0'
        key = lambda m: mono_key(self.table, m)
        return ' + '.join(mono_text(self.table, m) for m in sorted(self.terms, key=key))


class FreeModuleElem:
    """A sum of components p_j * <symbol>j, j >= least, p_j in a GradedPoly ring.

    Additive only, with scaling by polynomials; zero components are
    dropped. Subclasses set the class attributes symbol and least.
    """

    __slots__ = ('table', 'parts')

    def __init__(self, table, parts=()):
        parts = dict(parts)
        for j in parts:
            if j < self.least:
                raise ContractViolation('%s components are indexed from %d'
                                        % (type(self).__name__, self.least))
        self.table = table
        self.parts = {j: p for j, p in sorted(parts.items()) if p}

    def __add__(self, other):
        if type(other) is not type(self) or other.table is not self.table:
            raise ContractViolation('operands are not %s values over one table'
                                    % type(self).__name__)
        zero = GradedPoly.zero(self.table)
        return type(self)(self.table, {
            j: self.parts.get(j, zero) + other.parts.get(j, zero)
            for j in set(self.parts) | set(other.parts)})

    def scale(self, poly):
        """Multiply every component by a polynomial."""
        return type(self)(self.table, {j: poly * p for j, p in self.parts.items()})

    def support(self):
        """The set of keys (j, monomial) carrying a nonzero bit."""
        return frozenset((j, m) for j, p in self.parts.items() for m in p.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self.table is other.table
                and self.parts == other.parts)

    def __hash__(self):
        return hash(tuple(sorted((j, p.terms) for j, p in self.parts.items())))

    def __bool__(self):
        return bool(self.parts)

    def to_text(self):
        if not self.parts:
            return '0'
        out = []
        for j, poly in self.parts.items():
            text = poly.to_text()
            gen = '%s%d' % (self.symbol, j)
            if text == '1':
                out.append(gen)
            elif len(poly) == 1:
                out.append('%s*%s' % (text, gen))
            else:
                out.append('(%s)*%s' % (text, gen))
        return ' + '.join(out)

    def __repr__(self):
        return self.to_text()


def standard_table(generator_degrees, max_degree):
    """The session-wide alphabet, in a fixed order.

    Coefficient generators a_d come first, then stable classes c_j, the
    projective classes X_n, the bundle classes b_i, and finally the Euler
    class e of degree -1, the unique invertible variable. Ranges are sized
    so that c_j -> e*X_{j+1} + e^-j and b_i -> c_{i-1}*e^-1 never fall off
    the table.
    """
    table = VarTable()
    for d in generator_degrees:
        table.add('a%d' % d, d)
    for j in range(1, max_degree + 1):
        table.add('c%d' % j, j)
    for n in range(2, max_degree + 2):
        table.add('X%d' % n, n)
    for i in range(1, max_degree + 2):
        table.add('b%d' % i, i)
    table.add('e', -1, invertible=True)
    return table


def _reduce_mask(mask, combo, pivots):
    while mask:
        b = mask.bit_length() - 1
        if b not in pivots:
            break
        pm, pc = pivots[b]
        mask ^= pm
        combo ^= pc
    return mask, combo


def _eliminate(masks):
    # pivots: leading bit -> (row mask, combination of input rows)
    pivots = {}
    for r, mask in enumerate(masks):
        mask, combo = _reduce_mask(mask, 1 << r, pivots)
        if mask:
            pivots[mask.bit_length() - 1] = (mask, combo)
    return pivots


class Echelon:
    """A list of finite sets eliminated once, to be ranked and solved against often.

    The columns are the monomials the rows hold, ordered by key, with the
    leading monomial on the highest bit; rows are eliminated in the given
    order, so pivots and solutions are deterministic. A target monomial
    outside that universe never meets a pivot, so a target holding one
    cannot reduce to zero, and solve answers None at once. Leaving such
    columns out changes no answer: they are never pivots, and the other
    columns keep their relative order.
    """

    __slots__ = ('_pos', '_pivots', '_nrows')

    def __init__(self, rows, key):
        rows = list(rows)
        universe = sorted(frozenset().union(*rows), key=key)
        # universe[0] is the leading monomial, so give it the highest bit
        self._pos = pos = {m: len(universe) - 1 - i for i, m in enumerate(universe)}
        self._nrows = len(rows)
        self._pivots = _eliminate([sum(1 << pos[m] for m in row) for row in rows])

    @property
    def rank(self):
        """GF(2) rank of the rows."""
        return len(self._pivots)

    def solve(self, target):
        """0/1 flags, one per row, with xor of the flagged rows equal to target, or None."""
        pos = self._pos
        tmask = 0
        for m in target:
            bit = pos.get(m)
            if bit is None:
                return None
            tmask |= 1 << bit
        tmask, combo = _reduce_mask(tmask, 0, self._pivots)
        if tmask:
            return None
        return [(combo >> r) & 1 for r in range(self._nrows)]


def rank_sets(rows, key):
    """GF(2) rank of a list of finite sets, columns ordered by key."""
    return Echelon(rows, key).rank


def solve_sets(rows, target, key):
    """0/1 flags with xor of the flagged sets equal to target, or None."""
    return Echelon(rows, key).solve(target)


def _common_table(polys):
    tables = {p.table for p in polys}
    if len(tables) > 1:
        raise ContractViolation('polynomials use different variable tables')
    return tables.pop() if tables else None


def _check_same_degree(polys):
    degs = {p.degree() for p in polys if p}
    if len(degs) > 1:
        raise ContractViolation('inputs are not homogeneous of one degree')


def poly_rank(vectors):
    """Rank of a family of homogeneous polynomials of one degree."""
    table = _common_table(vectors)
    if table is None:
        return 0
    _check_same_degree(vectors)
    return rank_sets([v.terms for v in vectors], key=lambda m: mono_key(table, m))


def solve_gf2(vectors, target):
    """Expand target over a family of vectors, all homogeneous of one degree.

    Returns a list of 0/1 selection flags, or None when target is outside
    the span.
    """
    table = _common_table(list(vectors) + [target])
    _check_same_degree(list(vectors) + [target])
    return solve_sets([v.terms for v in vectors], target.terms,
                      key=lambda m: mono_key(table, m))
