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
printed last, for example "c1*e^-1 + e^-2"; the table spells each
monomial once and keeps its text with its sort key. The decoded form of a
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
monomials of a product, duplicates cancelled), map_monos (the one loop
of every map that keeps the image of a part of a monomial: keyed by G
factors for alpha, localize and member's peel, by the fields under a
mask, through map_fields, for the Laurent ring's clearing maps, delta,
underlying and dictionary), square-and-multiply powers,
the one partition enumerator (VarTable.monomials: the monomials of a
degree in chosen variables, read off VarTable.rows, the rows by degree of
a variable tuple and of its suffixes, kept as one entry per tuple and
grown in place), and free N_* modules as polynomials linear
in one family of generators (ModulePoly): delta's values are
polynomials in the a_d and c_j printed with s_j, obstruction classes
polynomials in the a_d, X_n and e^k (k >= 1) printed with x_k. The
per-session memos of the package are Memos. Every map that takes a value
of a ring admits it through VarTable.admit: its kind, its table and the
families it may use, each ring's families spelled once below.
"""

import operator
from functools import reduce, wraps

from .errors import CapacityError, ContractViolation

MONO_ONE = 0
_MISSING = object()


class Memo(dict):
    """A per-session memo: a dict that also counts hits, the lookups it answered."""

    # a slot: a hit adds to it three times faster than to an instance attribute
    __slots__ = ('hits',)

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0


def memo(name):
    """A method decorator keeping answers in the Memo self.<name>, keyed by the
    argument, or by the tuple of the arguments, all positional, when there are
    several. Only a finished answer is kept: one that raises leaves nothing."""
    def decorate(fn):
        def kept(self, key):
            cache = getattr(self, name)
            # a sentinel, not KeyError: raising costs more than a miss's lookup
            value = cache.get(key, _MISSING)
            if value is _MISSING:
                value = cache[key] = fn(self, *key) if several else fn(self, key)
            else:
                cache.hits += 1
            return value

        # one argument is the key itself: no tuple is packed on the way
        several = fn.__code__.co_argcount != 2
        return wraps(fn)((lambda self, *key: kept(self, key)) if several else kept)
    return decorate


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
                 'e_shift', 'e_degree', '_index', '_shifts', '_fields', '_owner', '_guard',
                 '_fields_mask', 'family', 'subscripts', '_masks', '_monomials', '_texts')

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
        # the bits of each variable's field; e's are every bit of its power
        self._fields = [0] * len(variables)
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
            self._fields[idx] = ((1 << width) - 1) << shift
            self.units[idx] = (1 << shift) + degree
            self._owner.extend([idx] * width)
            shift += width
        self._fields_mask = (1 << shift) - 1 - self.efree_mask
        self.e_shift = shift
        self.e_degree = 0
        if self.invertible is not None:
            self.units[self.invertible] = 1 << shift
            self._fields[self.invertible] = -1 << shift
            self.e_degree = self.degrees[self.invertible]
        self._masks = Memo()
        self._monomials = Memo()
        # (sort key, text) of every monomial printed, by the monomial: a
        # packed int's or a presentation's
        self._texts = Memo()

    @memo('_masks')
    def mask(self, letters):
        """The bits of the named families' fields; e's are every bit of its power."""
        fields = self._fields
        return reduce(operator.or_, [fields[i] for letter in letters
                                     for i in self.subscripts[letter]], 0)

    def monomials(self, d, indices):
        """The monomials of e-free degree d in the variables of the tuple indices,
        the first one's largest power first, then recursively: () below degree
        0, CapacityError past the limit. They are row d of rows(indices, d)[0]."""
        return self.rows(indices, d)[0][d] if d >= 0 else ()

    def rows(self, indices, d):
        """The rows of the tuple indices, grown to degree d at least: rows[j][w]
        holds the monomials of e-free degree w in the variables indices[j:],
        in the order of monomials. CapacityError past the limit.

        The rows are one entry of the Memo _monomials, by the tuple, and grow
        in place. Row w of a suffix led by a variable of degree g is its row
        w - g times that variable, then row w of the next suffix: the largest
        powers of the variable come first, and the next suffix's monomials
        are those with none of it.
        """
        if d > self.limit:
            raise CapacityError('degree %d exceeds the table limit %d' % (d, self.limit))
        rows = self._monomials.get(indices)
        if rows is None:
            rows = self._monomials[indices] = [[] for _ in range(len(indices) + 1)]
        else:
            self._monomials.hits += 1
        done = len(rows[-1])
        if d >= done:
            # the rows of the empty suffix: the monomial 1 in degree 0
            rows[-1].extend([(MONO_ONE,) if w == 0 else () for w in range(done, d + 1)])
            for j in range(len(indices) - 1, -1, -1):
                own, rest = rows[j], rows[j + 1]
                degree, unit = self.degrees[indices[j]], self.units[indices[j]]
                for w in range(done, d + 1):
                    own.append((*map(unit.__add__, own[w - degree]), *rest[w])
                               if w >= degree else rest[w])
        return rows

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

    def printed(self, monos, mono_text):
        """The text of the sum of monos: their texts joined with ' + ', largest
        sort key first. mono_text(self, m) is a monomial's (sort key, text),
        made the first time it is printed and kept: answers repeat terms."""
        texts = self._texts
        pairs = []
        for m in monos:
            pair = texts.get(m)
            if pair is None:
                pair = texts[m] = mono_text(self, m)
            else:
                texts.hits += 1
            pairs.append(pair)
        pairs.sort(reverse=True)
        return ' + '.join([text for _, text in pairs])

    def text(self, m):
        """Canonical text of one packed monomial: the invertible variable last."""
        return self.printed((m,), mono_text)

    def admit(self, x, kind, letters=None, what='the element'):
        """x, when it is a kind value over this table using only the families
        letters (any, when None); else ContractViolation, what naming x."""
        if not isinstance(x, kind):
            why = 'got %s' % type(x).__name__
        elif x.table is not self:
            why = 'it uses a foreign variable table'
        elif letters is None or x.uses_only(letters):
            return x
        else:
            why = 'it uses a variable of another family'
        raise ContractViolation('%s must be a %s%s over its ring\'s table: %s' % (
            what, kind.__name__, ' in the families ' + ', '.join(letters) if letters else '', why))

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


def map_monos(table, pieces, cache, make):
    """The image of a sum under a map that acts on a part of each monomial,
    a frozenset: m goes to image * (m / part) for each (key, m) in pieces,
    where make(key) gives (part, image), the part of m that key names and
    the monomials of its image. This is the one loop of the ring maps:
    alpha, localize and member's peel key a product of G factors
    (BordismRing._evaluate), map_fields keys the fields under a mask.

    cache, a Memo, keeps each image by its key as the image minus the part,
    a tuple (less memory than its set), with its largest e-free degree less
    the part's, so it is made once per cache and each monomial costs one
    add per term. Every shift is checked against the limit, since a
    monomial of large degree can carry a kept image past it: a product of
    valid monomials overflows exactly when their e-free degrees add up
    past the limit."""
    efree, limit = table.efree_mask, table.limit
    odd = set()
    for key, m in pieces:
        entry = cache.get(key)
        if entry is None:
            part, image = make(key)
            entry = cache[key] = (tuple(map(part.__rsub__, image)),
                                  max(map(efree.__and__, image), default=0) - (part & efree))
        else:
            cache.hits += 1
        shifted, top = entry
        if (m & efree) + top > limit:
            raise table.overflow()
        # an image has no repeats, and a shift keeps it so
        odd ^= {v + m for v in shifted}
    return frozenset(odd)


def map_fields(table, monos, mask, cache, image):
    """map_monos for a map acting on the fields of mask, keyed by them: m
    goes to image(part) * (m / part), part the monomial of m's fields. The
    Laurent ring's clearing maps, delta, underlying and dictionary."""
    def make(fields):
        # a packed monomial is its fields plus its degree
        part = table.pack(table.exponents(fields))
        return part, image(part)
    # pieces made in C: zip reuses its pair once the loop has unpacked it
    return map_monos(table, zip(map(mask.__and__, monos), monos), cache, make)


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


def mono_degree(table, m):
    """Total degree of a monomial: its degree field plus that of its e power."""
    return (m & table.efree_mask) + table.e_degree * (m >> table.e_shift)


def mono_text(table, m):
    """(sort key, text) of a packed monomial: the int itself, and the "*"-joined
    "var^exp" factors, exponent 1 omitted, or '1'."""
    if not m:
        return m, '1'
    names = table.names
    return m, '*'.join([names[i] if x == 1 else '%s^%d' % (names[i], x)
                        for i, x in table.exponents(m)])


class SparseSum:
    """A GF(2) sum: a finite set of monomials over a shared VarTable.

    The sum protocol is written once here. A subclass names its kind of
    monomial through mono_degree(table, m), mono_text(table, m) (its sort
    key and text, which the table keeps) and unit (the monomial of 1),
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

    def to_text(self):
        """Canonical text form: the terms' texts, largest sort key first, or '0'."""
        return self.table.printed(self.monos, self.mono_text) if self.monos else '0'

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
    mono_text = staticmethod(mono_text)
    unit = MONO_ONE

    def degrees(self):
        # mono_degree over every term, without a call per term: every
        # homogeneity check (degree, poly_rank, solve_gf2) comes here
        table = self.table
        efree, shift, e_degree = table.efree_mask, table.e_shift, table.e_degree
        return {(m & efree) + e_degree * (m >> shift) for m in self.monos}

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

    def to_text(self):
        """The monomials grouped by generator, least index first: p_j*<symbol><j>."""
        if not self.monos:
            return '0'
        table, own, parts = self.table, self.table.mask(self.family), {}
        units, degrees = table.units, table.degrees
        for m in self.monos:
            # the generator: the factors of m in the family, and its degree
            gen = j = 0
            for idx, x in table.exponents(m & own):
                gen += x * units[idx]
                j += x * degrees[idx]
            parts.setdefault(abs(j), []).append(m - gen)
        out = []
        for j, coefs in sorted(parts.items()):
            text = table.printed(coefs, mono_text)
            out.append('%s%d' % (self.symbol, j) if text == '1' else
                       ('%s*%s%d' if len(coefs) == 1 else '(%s)*%s%d') % (text, self.symbol, j))
        return ' + '.join(out)


# the families a value of each ring may use: N_*, the Laurent model, the
# polynomials in e and the X_n that clear_denominators gives, the bundle algebra
COEFFICIENT, LAURENT, CLEARED, BUNDLE = 'a', 'ace', 'aXe', 'ab'


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

    The columns are the monomials the rows hold in their natural order, the
    largest on the highest bit; rows are eliminated in the given order, so
    pivots and solutions are deterministic. No answer depends on the column
    order: row r is a pivot row exactly when it lies outside the span of
    the rows before it, and solve gives the one expression of the target
    in the pivot rows. A target monomial outside the universe never meets
    a pivot, so a target holding one cannot reduce to zero, and solve
    answers None at once.
    """

    __slots__ = ('_pos', '_pivots', '_nrows')

    def __init__(self, rows):
        rows = list(rows)
        universe = sorted(frozenset().union(*rows))
        self._pos = pos = {m: i for i, m in enumerate(universe)}
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


def rank_sets(rows):
    """GF(2) rank of a list of finite sets."""
    return Echelon(rows).rank


def solve_sets(rows, target):
    """0/1 flags with xor of the flagged sets equal to target, or None."""
    return Echelon(rows).solve(target)


def _common_table(polys):
    tables = {p.table for p in polys}
    if len(tables) > 1:
        raise ContractViolation('polynomials use different variable tables')
    return tables.pop() if tables else None


def check_same_degree(polys):
    """ContractViolation unless the nonzero polys are homogeneous of one degree."""
    degs = {p.degree() for p in polys if p}
    if len(degs) > 1:
        raise ContractViolation('inputs are not homogeneous of one degree')


def poly_rank(vectors):
    """Rank of a family of homogeneous polynomials of one degree."""
    table = _common_table(vectors)
    if table is None:
        return 0
    check_same_degree(vectors)
    return rank_sets([v.monos for v in vectors])


def solve_gf2(vectors, target):
    """Expand target over a family of vectors, all homogeneous of one degree.

    Returns a list of 0/1 selection flags, or None when target is outside
    the span.
    """
    _common_table(list(vectors) + [target])
    check_same_degree(list(vectors) + [target])
    return solve_sets([v.monos for v in vectors], target.monos)
