"""The Boardman map: bordism classes as polynomials in beta_1, beta_2, ...

The Boardman map h: N_* -> H_*(BO) = GF(2)[beta_1, beta_2, ...] sends a
closed manifold to the image of its fundamental class under the map
classifying its stable tangent bundle (Thom 1954; Stong, Notes on
Cobordism Theory, 1968, ch. IV and VI). With B(x) = 1 + beta_1 x +
beta_2 x^2 + ..., a manifold whose tangent bundle is stably a sum of lines
with classes x_1, x_2, ... has h(M) = <B(x_1) B(x_2) ..., [M]>: the
coefficient of beta_{w_1} ... beta_{w_k} is the Stiefel-Whitney number of
the monomial symmetric function of the partition w. h is an injective ring
map, so it identifies what the Stiefel-Whitney numbers identify.

Generators. h(RP(d)) = [u^d] B(u)^(d+1), and h(P(m, n)) = [c^m d^n]
B(c)^m (B(x_1) B(x_2))^(n+1) with x_1 + x_2 = c, x_1 x_2 = d. h(a_d) is
beta_d plus products of two or more betas, because the coefficient of
beta_d is the number s_d, which is 1 exactly on generators. A product of
such terms refines the partition, which lowers it lexicographically, so
h(a_{d_1} ... a_{d_r}) leads with beta_{d_1} ... beta_{d_r}, the parts
compared largest first. A class is read off its image by clearing the
leading monomial against h of the coefficient monomial it names, with no
elimination; a leading part 1 or 2^k - 1 names no generator, and the image
is not one of a class.

N_*(BO(1)). A manifold with a line l maps to sum_j z_j <B(x_1) ... w_1(l)^j,
[M]>, and the basis class (RP(j), u) to sum_{m <= j} z_m [u^(j-m)]
B(u)^(j+1), whose top coefficient is z_j. So the coefficient of the
highest z_J is h of the coefficient of (RP(J), u), which is read off first
and cleared from the lower z's.

Fixed bundles. The projectivization of L_1 + ... + L_r over
RP(i_1 - 1) x ... x RP(i_r - 1), L_q the tautological line of factor q,
has tangent bundle stably i_q L_q on the base and, along the fibres,
t + L_q, t its tautological class. Pushing forward to the base divides
by (t + x_1) ... (t + x_r) and takes the residue at t = infinity, and
integrating over RP(i - 1) takes the residue at u = 0 of a quotient by
u^i, so h of the total space is Res_t of

    F_{i_1}(t) ... F_{i_r}(t),
    F_i(t) = Res_u [B(u)^i B(t + u) / (u^i (t + u))],  F_1(t) = B(t) / t,

times Z(t) = sum_j z_j t^j for the tautological line. A trivial summand
R is a part 1, the point RP(0) with its line. The coefficient of F_i of
beta-degree m sits at t^(m - i), so a product of F's is held by
beta-degree alone, and the residue is the coefficient of beta-degree
dimension - j for z_j. Squaring is additive in characteristic 2, so
F_i^(2^s) is F_i with every exponent doubled, and a repeated index costs
no product.

Each table (the coefficients of B(u)^i, the F_i, h of the coefficient
monomials) is kept on the coefficient ring and grown only to the degree
a question needs.
"""

from collections import Counter

from .coefficients import dold_indices
from .errors import IntegrityError
from .gf2 import GradedPoly, MONO_ONE, VarTable, parity, power, product_monos


def tables(coef):
    """The ring's Boardman tables, made at first use and kept on the ring."""
    if coef.boardman is None:
        coef.boardman = Boardman(coef)
    return coef.boardman


def _product(factors, low, top, degree_of):
    """A product of series held by degree, its coefficients of degrees low..top.

    Every factor holds its coefficients of degrees 0..top; only the last
    product is cut below low, so the result's entries below low are not
    its coefficients.
    """
    factors = sorted(factors, key=lambda f: sum(map(len, f)))
    acc = factors[0]
    for n, factor in enumerate(factors[1:], start=2):
        floor = low if n == len(factors) else 0
        # the factor's monomials by degree in one list: degrees a..b are
        # flat[start[a]:start[b + 1]]
        flat, start = [], [0]
        for coefficient in factor:
            flat.extend(coefficient)
            start.append(len(flat))
        odd = set()
        for a, xs in enumerate(acc):
            if xs:
                ys = flat[start[max(floor - a, 0)]:start[top - a + 1]]
                for x in xs:
                    odd ^= {x + y for y in ys}
        acc = [set() for _ in range(top + 1)]
        for m in odd:
            acc[m & degree_of].add(m)
    return acc


class Boardman:
    """h for one coefficient ring: its tables, grown by degree, and identification.

    degree is the largest beta-degree a question has asked for; no table
    holds an entry past it.
    """

    def __init__(self, coef):
        self.coef = coef
        cap = coef.max_degree
        # beta_cap first, in the most significant field: of two monomials of
        # one degree the larger int has the larger parts, compared largest
        # first, so the leading monomial is the largest int
        self.table = VarTable([('beta', i, i) for i in range(cap, 0, -1)], cap)
        self._degree_of = self.table.efree_mask
        # at cap 0 the family has no variables and the table no entry for it
        self._beta_of = self.table.subscripts.get('beta', {})
        self._beta = [MONO_ONE] + [self.table.units[self.table.family['beta'][i]]
                                   for i in range(1, cap + 1)]
        self.degree = -1
        self._powers = {}           # i -> [u^k] B(u)^i by k
        self._f = {}                # (i, s) -> F_i^(2^s) by degree
        self._h = {MONO_ONE: {MONO_ONE}}   # packed N_* monomial -> its h

    # --- the tables -----------------------------------------------------------

    def _power(self, i, k):
        """[u^k] B(u)^i, i >= 1, a set of monomials of degree k."""
        row = self._powers.setdefault(i, [{MONO_ONE}])
        while len(row) <= k:
            n, beta = len(row), self._beta
            if i == 1:
                row.append({beta[n]})
            else:
                # B^i = B^(i-1) B, one coefficient at a time
                row.append(parity(m + beta[s] for s in range(n + 1)
                                  for m in self._power(i - 1, n - s)))
        return row[k]

    def _f_coefficient(self, i, m):
        """The coefficient of F_i of beta-degree m, at t^(m - i)."""
        if m < i:
            return self._power(i, m)
        # B(t + u) / (t + u) = 1 / (t + u) + sum_l beta_l (t + u)^(l - 1), and
        # u^(i-1-k) in (t + u)^(m-k-1) has coefficient binomial(m-k-1, i-1-k),
        # odd when the bits of i-1-k lie among those of m-k-1 (Lucas)
        return parity(x + self._beta[m - k] for k in range(i)
                      if (m - k - 1) & (i - 1 - k) == i - 1 - k for x in self._power(i, k))

    def _f_power(self, i, s, top):
        """F_i^(2^s) by degree through top."""
        rows = self._f.setdefault((i, s), [])
        while len(rows) <= top:
            m = len(rows)
            if not s:
                rows.append(self._f_coefficient(i, m))
            elif m % 2:
                rows.append(set())
            else:
                rows.append({2 * x for x in self._f_power(i, s - 1, m // 2)[m // 2]})
        return rows[:top + 1]

    def _series(self, bmult, low, top):
        """F_{i_1} ... F_{i_r} by degree, its coefficients low..top."""
        self.degree = max(self.degree, top)
        factors = [self._f_power(i, s, top) for i, e in Counter(bmult).items()
                   for s in range(e.bit_length()) if e >> s & 1]
        return _product(factors, low, top, self._degree_of)

    def _generator(self, d):
        """h(a_d), checked to lead with beta_d."""
        # w(RP(d)) = (1 + u)^(d+1)
        h = self._power(d + 1, d) if d % 2 == 0 else self._dold(*dold_indices(d))
        if not h or max(h) != self._beta[d]:
            raise IntegrityError('the representative of a%d is decomposable' % d)
        return h

    def _dold(self, m, n):
        """h(P(m, n)), w = (1 + c)^m (1 + c + d)^(n+1), d = x_1 x_2 and c = x_1 + x_2.

        A polynomial in c and d maps (i, j) to the set of beta monomials of
        its c^i d^j term, cut past c^m d^n.
        """
        beta = self._beta

        def mul(x, y):
            out = {}
            for (i1, j1), s1 in x.items():
                for (i2, j2), s2 in y.items():
                    if i1 + i2 <= m and j1 + j2 <= n:
                        key = (i1 + i2, j1 + j2)
                        out[key] = out.get(key, set()) ^ product_monos(s1, s2)
            return {key: s for key, s in out.items() if s}

        # the power sums x_1^k + x_2^k = c p_{k-1} + d p_{k-2}, as sets of (i, j)
        sums = [set(), {(1, 0)}]
        for _ in range(2, m + 2 * n + 1):
            sums.append({(i + 1, j) for i, j in sums[-1]} ^ {(i, j + 1) for i, j in sums[-2]})
        # B(x_1) B(x_2) = sum_{a >= b} beta_a beta_b m_(a,b), the monomial
        # symmetric function m_(a,b) being d^b p_{a-b}, or d^a when a = b
        plane = {}
        for a in range(m + 2 * n + 1):
            for b in range(min(a, m + 2 * n - a) + 1):
                terms = [(0, a)] if a == b else [(i, j + b) for i, j in sums[a - b]]
                for key in terms:
                    if key[0] <= m and key[1] <= n:
                        plane[key] = plane.get(key, set()) ^ {beta[a] + beta[b]}
        plane = {key: s for key, s in plane.items() if s}
        line = {(k, 0): {beta[k]} for k in range(m + 1)}
        one = {(0, 0): {MONO_ONE}}
        total = mul(power(line, m, one, mul), power(plane, n + 1, one, mul))
        return total.get((m, n), set())

    # --- identification ---------------------------------------------------------

    def _h_of(self, mono):
        """h of a packed N_* monomial, the product of its generators' images."""
        h = self._h.get(mono)
        if h is None:
            table = self.coef.table
            idx, _ = table.exponents(mono)[0]
            unit = table.units[idx]
            h = (self._generator(table.subscripts['a'][idx]) if mono == unit
                 else product_monos(self._h_of(mono - unit), self._h_of(unit)))
            self._h[mono] = h
        return h

    def _identify(self, image, ring):
        """The N_* element whose h is image, a set of monomials of one degree.

        The leading monomial of the image names the leading coefficient
        monomial, whose image is cleared until nothing is left.
        """
        table, beta_of, a_of = self.coef.table, self._beta_of, self.coef.table.family['a']
        target = set(image)
        out = []
        while target:
            lead = max(target)
            pairs = []
            for idx, x in self.table.exponents(lead):
                if beta_of[idx] not in a_of:
                    raise IntegrityError('class not recognized in %s: its image leads with %s'
                                         % (ring, self.table.text(lead)))
                pairs.append((a_of[beta_of[idx]], x))
            mono = table.pack(pairs)
            out.append(mono)
            target ^= self._h_of(mono)
        return GradedPoly(table, out)

    def bundle_in_nbo1(self, bmult):
        """P(L_1 + ... + L_r) over RP(i_1 - 1) x ... with its tautological line.

        The class in N_*(BO(1)), as j -> the N_* coefficient of (RP(j), u);
        charnum.fixed_bundle(bmult) is the same manifold.
        """
        dim = sum(bmult) - 1
        self.coef.check_size('an N_*(BO(1)) class of dimension', dim, dim)
        series = self._series(bmult, 0, dim)
        # z_j's coefficient, of beta-degree dim - j
        levels = [set(series[dim - j]) for j in range(dim + 1)]
        out = {}
        for top in range(dim, -1, -1):
            if levels[top]:
                out[top] = self._identify(levels[top], 'N_*(BO(1))')
                for j in range(top):
                    levels[j] ^= product_monos(levels[top], self._power(top + 1, top - j))
        return out

    def bundle_in_n(self, bmult):
        """P(L_1 + ... + L_r) over RP(i_1 - 1) x ..., in N_*.

        charnum.fixed_bundle(bmult) is the same manifold.
        """
        dim = sum(bmult) - 1
        self.coef.check_size('an N_* class of dimension', dim, dim)
        return self._identify(self._series(bmult, dim, dim)[dim], 'N_*')
