"""Sparse polynomials over GF(2) with integer-graded variables.

A polynomial is a finite set of monomials; a monomial that appears in the
set has coefficient 1, so addition is symmetric difference and p + p = 0
needs no bookkeeping. Variables live in a VarTable which assigns each one
a nonzero integer degree; exactly one variable per table may be flagged
invertible and is the only one allowed to carry negative exponents.

A monomial is one Python int of fixed-width fields, laid out by its
VarTable as

    v = k * 2^K + rest,

where k is the exponent of the invertible variable e, the top, signed
part, and rest < 2^K holds one field per other variable, the first
variable of the table in the most significant field, and below them all
a field holding the monomial's e-free degree (the degree without e).
Fields never carry into each other: every monomial's e-free degree is at
most the table's limit L = 2^j - 1, the exponent field of a variable of
degree g is wide enough for twice L // g, and the degree field has one
bit to spare, its guard bit. So the product of two monomials is their
sum, and the product overflowed exactly when the guard bit is set; a
product, or a variable, past L raises CapacityError. The invertible
variable has no field, so e^100000000 is as cheap as e.

The term order compares ints: a larger int is a larger e exponent, or
the same and then larger exponents of the other variables in table order.
The leading term is the largest int. The canonical text form decodes: it
joins terms with " + ", largest first, each term being the "*"-joined
"var^exp" factors with exponent 1 omitted and the invertible variable
printed last, for example "c1*e^-1 + e^-2". The decoded form of a
monomial, a sorted tuple of (variable index, exponent) pairs with zero
exponents dropped, is what GradedPoly.terms shows to callers outside the
package.

Linear algebra (rank, subset solving) works on Python integer bitmasks,
one bit per monomial, with the pivot order fixed by the term ordering, so
results are exact and deterministic. An Echelon eliminates a fixed family
once and then solves for any number of targets.

The pieces every GF(2) sum in the package shares live here too: the
session's alphabet (standard_table), the sum core SparseSum (polynomials
and presentations differ only in their kind of monomial), parity (the
monomials of a product, duplicates cancelled), sum_of_images (a map that
keeps the image of each part of a monomial it acts on: localize and
alpha) and map_monos (the same for the parts under a mask: the clearing
substitutions, delta and underlying), square-and-multiply
powers, the partition enumerator, and free N_* modules as polynomials
linear in one family of generators (ModulePoly): delta's values are
polynomials in the a_d and c_j printed with s_j, obstruction classes
polynomials in the a_d, X_n and e^k (k >= 1) printed with x_k.
"""

import operator
from functools import reduce

from .errors import CapacityError, ContractViolation

MONO_ONE = 0

# Echelon's column key for packed monomials: the leading (largest) one first
mono_key = operator.neg


class VarTable:
    """The session's graded variables, in a fixed order, and their monomial layout.

    A table is built once with all of its variables, so monomial orderings
    and canonical text stay stable for the life of a session. limit is
    the largest e-free degree a monomial may reach, rounded up to 2^j - 1.

    A variable is named by its family letter and subscript (a2), or the
    letter alone (e). family[letter] maps a family's subscripts to indices,
    subscripts[letter] indices to subscripts; only the table spells names.
    """

    __slots__ = ('names', 'degrees', 'invertible', 'limit', 'units', 'efree_mask',
                 'e_shift', 'e_degree', '_index', '_shifts', '_owner', '_guard',
                 '_fields_mask', 'family', 'subscripts', '_masks', '_monomials', '_decoded')

    def __init__(self, variables, limit, invertible=None):
        """variables: (family, subscript, degree) triples in table order, the
        subscript None for a family of one variable, degrees positive but the
        invertible variable's, which is named by invertible and comes last.
        """
        self.names = [family if sub is None else '%s%d' % (family, sub)
                      for family, sub, _ in variables]
        self.degrees = [degree for _, _, degree in variables]
        self._index = {}
        self.family = {}
        self.subscripts = {}
        for idx, (name, (family, sub, degree)) in enumerate(zip(self.names, variables)):
            if name in self._index:
                raise ContractViolation('duplicate variable %r' % name)
            if degree == 0:
                raise ContractViolation('variable %r must have nonzero degree' % name)
            self._index[name] = idx
            self.family.setdefault(family, {})[sub] = idx
            self.subscripts.setdefault(family, {})[idx] = sub
        self.invertible = None if invertible is None else self._index[invertible]
        if self.invertible not in (None, len(variables) - 1):
            raise ContractViolation('the invertible variable comes last')
        bits = max(limit, 1).bit_length()
        self.limit = (1 << bits) - 1
        self._guard = 1 << bits
        # the degree field holds up to twice the limit: bits + 1 bits
        self.efree_mask = (1 << (bits + 1)) - 1
        self.units = [0] * len(variables)
        self._shifts = [0] * len(variables)
        self._owner = [None] * (bits + 1)
        shift = bits + 1
        # fields upwards from the degree field: the last variable lowest
        for idx in reversed(range(len(variables))):
            if idx == self.invertible:
                continue
            degree = self.degrees[idx]
            if degree < 0:
                raise ContractViolation('only the invertible variable may have '
                                        'negative degree')
            width = (self.limit // degree).bit_length() + 1
            self._shifts[idx] = shift
            self.units[idx] = (1 << shift) + degree
            self._owner.extend([idx] * width)
            shift += width
        self._fields_mask = (1 << shift) - 1 - self.efree_mask
        self.e_shift = shift
        self.e_degree = 0
        if self.invertible is not None:
            self.units[self.invertible] = 1 << shift
            self.e_degree = self.degrees[self.invertible]
        self._masks = {}
        self._monomials = {}
        self._decoded = {}

    def mask(self, letters):
        """The bits of the named families' fields; e's are every bit of its power."""
        mask = self._masks.get(letters)
        if mask is None:
            idxs = {i for letter in letters for i in self.subscripts[letter]}
            mask = self._masks[letters] = (
                sum(1 << b for b, i in enumerate(self._owner) if i in idxs)
                | (-1 << self.e_shift if self.invertible in idxs else 0))
        return mask

    def monomials(self, d, indices):
        """The monomials of e-free degree d in the variables of the tuple indices,
        the first one's largest power first, then recursively; each answer is kept."""
        if d > self.limit:
            raise CapacityError('degree %d exceeds the table limit %d' % (d, self.limit))
        key = (d, indices)
        out = self._monomials.get(key)
        if out is None:
            if not indices:
                out = (MONO_ONE,) if d == 0 else ()
            else:
                degree, unit, rest = self.degrees[indices[0]], self.units[indices[0]], indices[1:]
                out = tuple(p * unit + m for p in range(d // degree, -1, -1)
                            for m in self.monomials(d - p * degree, rest))
            self._monomials[key] = out
        return out

    def index(self, name):
        """Index of a variable; KeyError if absent."""
        return self._index[name]

    def __len__(self):
        return len(self.names)

    def pack(self, pairs):
        """The monomial of (index, exponent) pairs; a repeated index adds up."""
        inv, degrees, units = self.invertible, self.degrees, self.units
        m = efree = 0
        for idx, x in pairs:
            if idx != inv:
                if x < 0:
                    raise ContractViolation('%s is not invertible' % self.names[idx])
                efree += x * degrees[idx]
            m += x * units[idx]
        if efree > self.limit:
            raise CapacityError('a monomial of e-free degree %d exceeds %d, the most '
                                'the variable table holds' % (efree, self.limit))
        return m

    def exponents(self, m):
        """The (index, exponent) pairs of a monomial by index, zero exponents left out."""
        owner, shifts = self._owner, self._shifts
        out = []
        rest = m & self._fields_mask
        while rest:
            idx = owner[rest.bit_length() - 1]
            shift = shifts[idx]
            x = rest >> shift
            out.append((idx, x))
            rest -= x << shift
        k = m >> self.e_shift
        if k:
            out.append((self.invertible, k))
        return tuple(out)

    def decoded(self, m):
        """exponents(m), kept: sort keys decode the same coefficients over and over."""
        out = self._decoded.get(m)
        if out is None:
            out = self._decoded[m] = self.exponents(m)
        return out

    def text(self, m):
        """Canonical text of one monomial: the invertible variable last."""
        if not m:
            return '1'
        names = self.names
        return '*'.join(names[i] if x == 1 else '%s^%d' % (names[i], x)
                        for i, x in self.exponents(m))

    def checked(self, monos):
        """monos, the sums of valid monomials, unless one overflowed: CapacityError."""
        if reduce(operator.or_, monos, 0) & self._guard:
            raise self.overflow()
        return monos

    def overflow(self):
        """The error of a product past the limit."""
        return CapacityError('a product exceeds e-free degree %d, the most the '
                             'variable table holds' % self.limit)


def parity(monos):
    """The monomials that occur an odd number of times, as a frozenset."""
    odd = set()
    for m in monos:
        if m in odd:
            odd.remove(m)
        else:
            odd.add(m)
    return frozenset(odd)


def product_monos(rows, cols, mul=operator.add):
    """The monomials of the product of two sums, as a set.

    mul commutes, so the smaller operand gives the rows; it is one-to-one
    in each argument, so a row has no repeats and the rows cancel by
    symmetric difference.
    """
    if len(rows) > len(cols):
        rows, cols = cols, rows
    odd = set()
    for m1 in rows:
        odd ^= {mul(m1, m2) for m2 in cols}
    return odd


def sum_of_images(table, pieces, cache, image):
    """The monomials of the sum over (key, m) in pieces of image(key) * (m / part), a frozenset.

    image(key) gives (part, monos): the factor of m that key names, and the
    monomials of its image. cache keeps them by key, with the image's
    largest e-free degree less part's, so each image is computed once per
    cache and each piece costs one shift. Every shift is checked against
    the limit, since a rest of large degree can carry a kept image past it:
    a product of valid monomials overflows exactly when their e-free
    degrees add up past the limit.
    """
    efree, limit = table.efree_mask, table.limit
    odd = set()
    for key, m in pieces:
        entry = cache.get(key)
        if entry is None:
            part, monos = image(key)
            # a tuple holds the image in less memory than its set
            monos = tuple(monos)
            entry = cache[key] = (part, monos, max(map(efree.__and__, monos), default=0)
                                  - (part & efree))
        part, value, top = entry
        if (m & efree) + top > limit:
            raise table.overflow()
        rest = m - part
        # an image has no repeats, and a shift keeps it so
        odd ^= {v + rest for v in value}
    return frozenset(odd)


def map_monos(table, monos, mask, cache, image):
    """sum_of_images for a map acting on the fields of mask, kept by those fields:
    m goes to image(part) * (m / part), part the monomial of m's fields."""
    def split(fields):
        # a packed monomial is its fields plus its degree
        part = table.pack(table.exponents(fields))
        return part, image(part)

    return sum_of_images(table, zip(map(mask.__and__, monos), monos), cache, split)


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
    negative total has none. The package enumerates through
    VarTable.monomials and sw_numbers' walk; this is the reference the
    tests pin their orders against, and the sw-oracle suite's list of
    b-multisets.
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


def mono_degree(table, m):
    """Total degree of a monomial: its degree field plus that of its e power."""
    return (m & table.efree_mask) + table.e_degree * (m >> table.e_shift)


class SparseSum:
    """A GF(2) sum: a finite set of monomials over a shared VarTable.

    The sum protocol is written once here. A subclass names its kind of
    monomial through mono_degree(table, m) and unit (the monomial of 1),
    and multiplies in its own __mul__: product_monos, or a shift when one
    operand is a single term that allows it, refusing a product that
    overflowed a packed field. Operands of + and * must be of one subclass
    over one table.
    """

    __slots__ = ('table', 'monos')

    def __init__(self, table, monos=()):
        self.table = table
        # a frozenset is kept as it is, not copied
        self.monos = frozenset(monos)

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
        return type(self)(self.table, self.monos ^ other.monos)

    __sub__ = __add__  # characteristic 2

    def __pow__(self, n):
        return power(self, n, self.one(self.table))

    def __eq__(self, other):
        return (type(other) is type(self) and self.table is other.table
                and self.monos == other.monos)

    def __hash__(self):
        return hash(self.monos)

    def __bool__(self):
        return bool(self.monos)

    def __len__(self):
        return len(self.monos)

    def __repr__(self):
        return self.to_text()

    def degrees(self):
        """The set of the terms' degrees, empty for zero."""
        table, degree = self.table, self.mono_degree
        return {degree(table, m) for m in self.monos}

    def homogeneous(self):
        """True when all terms share one degree (vacuously for zero)."""
        return len(self.degrees()) <= 1

    def degree(self):
        """Degree of a homogeneous sum; None for zero."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ContractViolation('element is not homogeneous')
        return degs.pop()


class GradedPoly(SparseSum):
    """A polynomial: a sum of packed monomials, coefficients implicitly 1."""

    __slots__ = ()
    mono_degree = staticmethod(mono_degree)
    unit = MONO_ONE

    def __mul__(self, other):
        self._check_peer(other)
        table, monos, shift = self.table, self.monos, other.monos
        if len(monos) == 1:
            monos, shift = shift, monos
        if len(shift) != 1:
            return type(self)(table, table.checked(product_monos(monos, shift)))
        # times one monomial: a shift, one to one, and only a term of
        # e-free degree can carry the product past the limit
        (m,) = shift
        out = frozenset([v + m for v in monos])
        return type(self)(table, table.checked(out) if m & table.efree_mask else out)

    @classmethod
    def var(cls, table, name, exp=1):
        """A single variable raised to exp (invertible variable only for exp < 0)."""
        idx = table.index(name)
        if exp == 0:
            return cls.one(table)
        return cls(table, (table.pack(((idx, exp),)),))

    @classmethod
    def var_of(cls, table, family, subscript):
        """The variable of a family with the given subscript; KeyError if absent."""
        return cls(table, (table.units[table.family[family][subscript]],))

    @property
    def terms(self):
        """The monomials decoded to (index, exponent) tuples, by VarTable.exponents."""
        exponents = self.table.exponents
        return frozenset(exponents(m) for m in self.monos)

    def min_inv_exp(self):
        # the e power is the top part of a monomial: the least int has the least
        return min(self.monos) >> self.table.e_shift if self.monos else None

    def max_inv_exp(self):
        return max(self.monos) >> self.table.e_shift if self.monos else None

    def uses_only(self, letters):
        """True when every occurring variable belongs to one of the named families."""
        # a field of the or of all terms is nonzero where some term's is
        table = self.table
        return not (reduce(operator.or_, self.monos, 0)
                    & ~(table.mask(letters) | table.efree_mask))

    def to_text(self):
        """Canonical text form."""
        if not self.monos:
            return '0'
        return ' + '.join(map(self.table.text, sorted(self.monos, reverse=True)))


class Substitution:
    """The ring map sending each variable of one family to image(subscript), fixing the rest.

    A monomial part * rest, part its factors in the family, goes to
    image(part) * rest. The image of a part is the product of its
    variables' images, computed once for the life of the map and kept in
    _image_cache by the part's fields; the powers it multiplies are kept
    in _powers by (variable index, exponent). Variables of the family must
    occur with nonnegative exponents only.
    """

    __slots__ = ('table', 'images', 'mask', '_image_cache', '_powers')

    def __init__(self, table, family, image):
        self.table = table
        self.images = {idx: image(sub) for idx, sub in table.subscripts[family].items()}
        self.mask = table.mask(family)
        self._image_cache = {}
        self._powers = {}

    def __call__(self, x):
        """The image of the polynomial x."""
        if x.table is not self.table:
            raise ContractViolation('the polynomial uses a foreign variable table')
        return GradedPoly(self.table, map_monos(
            self.table, x.monos, self.mask, self._image_cache, self._image))

    def _image(self, part):
        # the part of a monomial free of the family is 1
        out = GradedPoly.one(self.table)
        for key in self.table.exponents(part):
            if key[1] < 0:
                raise ContractViolation('cannot substitute into a negative power')
            value = self._powers.get(key)
            if value is None:
                idx, x = key
                value = self._powers[key] = self.images[idx] ** x
            out = out * value
        return out.monos


class ModulePoly(GradedPoly):
    """A free N_* module value: a polynomial linear in one family of generators.

    Generator j is 1 for j = 0, else the family's variable of subscript j
    (c_j), or the j-th power of its one variable (e^j); its index is the
    absolute value of its degree. Subclasses set family, symbol (the
    printed letter) and least (the least index). A product is refused.
    """

    __slots__ = ()

    def __init__(self, table, monos=()):
        """monos: the monomials, or a dict from j to a coefficient free of the family."""
        if isinstance(monos, dict):
            own, out = table.mask(self.family), []
            for j, p in monos.items():
                if j < self.least or reduce(operator.or_, p.monos, 0) & own:
                    raise ContractViolation('%s takes components p_j, j >= %d, with p_j free '
                                            'of %s' % (type(self).__name__, self.least, self.family))
                gen = self._generator(table, j)
                out.extend(m + gen for m in p.monos)
            monos = table.checked(out)
        super().__init__(table, monos)

    def _generator(self, table, j):
        """The monomial of generator j."""
        variables = table.family[self.family]
        if not j:
            return MONO_ONE
        if None in variables:
            return j * table.units[variables[None]]
        if j not in variables:
            raise CapacityError('%s%d lies past the variable table' % (self.symbol, j))
        return table.units[variables[j]]

    def __mul__(self, other):
        raise ContractViolation('%s values are not multiplied' % type(self).__name__)

    __pow__ = __mul__

    @classmethod
    def one(cls, table):
        raise ContractViolation('%s values have no unit' % cls.__name__)

    def support(self):
        """The monomials, each a coefficient monomial times one generator."""
        return self.monos

    def to_text(self):
        """The monomials grouped by generator, least index first: p_j*<symbol><j>."""
        table, own, parts = self.table, self.table.mask(self.family), {}
        for m in self.monos:
            gen = table.pack(table.exponents(m & own))
            parts.setdefault(abs(mono_degree(table, gen)), []).append(m - gen)
        out = []
        for j, coefs in sorted(parts.items()):
            text = GradedPoly(table, coefs).to_text()
            out.append('%s%d' % (self.symbol, j) if text == '1' else
                       ('%s*%s%d' if len(coefs) == 1 else '(%s)*%s%d') % (text, self.symbol, j))
        return ' + '.join(out) or '0'


def standard_table(generator_degrees, max_degree):
    """The session-wide alphabet, in a fixed order, and its monomial layout.

    Coefficient generators a_d come first, then stable classes c_j, the
    projective classes X_n, the bundle classes b_i, and finally the Euler
    class e of degree -1, the unique invertible variable. Ranges are sized
    so that c_j -> e*X_{j+1} + e^-j and b_i -> c_{i-1}*e^-1 never fall off
    the table. Each variable's family is its letter, its subscript the
    degree: a_d, c_j, X_n and b_i have degree d, j, n and i. The cap admits
    terms of e-free degree up to max_degree + 1, so the fields hold twice
    that, a product of two admitted terms.
    """
    variables = [('a', d, d) for d in generator_degrees]
    variables += [('c', j, j) for j in range(1, max_degree + 1)]
    variables += [('X', n, n) for n in range(2, max_degree + 2)]
    variables += [('b', i, i) for i in range(1, max_degree + 2)]
    variables.append(('e', None, -1))
    table = VarTable(variables, 2 * (max_degree + 1), invertible='e')
    # a low cap leaves a family without variables: it is still a family
    for letter in 'acXb':
        table.family.setdefault(letter, {})
        table.subscripts.setdefault(letter, {})
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
    return rank_sets([v.monos for v in vectors], mono_key)


def solve_gf2(vectors, target):
    """Expand target over a family of vectors, all homogeneous of one degree.

    Returns a list of 0/1 selection flags, or None when target is outside
    the span.
    """
    _common_table(list(vectors) + [target])
    _check_same_degree(list(vectors) + [target])
    return solve_sets([v.monos for v in vectors], target.monos, mono_key)
