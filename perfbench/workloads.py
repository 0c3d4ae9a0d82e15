"""Seeded inputs and per-operation oracles for the benchmark workloads.

Everything here runs in the benchmark's parent process, outside every
timed span. The measured children see only the generated text, so no
cache warmed here can turn their work into cache hits.

Inputs come in blocks of fixed composition, shuffled by the seed, and
degrees and dimensions cycle through their range in a fixed order, while
the seed picks the elements. Runs end on a block boundary, so every seed
puts the same mix of work into a run and the percentiles of runs with
different seeds sit at the same place in that mix.
"""

import random

from bordcalc.errors import BordcalcError
from bordcalc.gf2 import GradedPoly
from bordcalc.parsing import (parse_bundle, parse_laurent, parse_manifold,
                              parse_presentation)
from bordcalc.presentation import QuotientElem
from bordcalc.session import Session

# query-mix: every block of 105 holds the same mix, each degree 6..12 in
# fixed proportions: 66 nf and 18 quotient questions (content cycling),
# two members per degree and one constructed non-member per degree. A
# member question's cost follows the degree and the top e-exponent of its
# target (the window starts there), so the tops are fixed per slot too:
# members top out at e^-1 and at e^1, non-members (which add a term at
# e^-1) at -1, 0 or 1, shifting from block to block. Four fifths of the
# questions rewrite, in well under a millisecond each, so the median
# falls near the middle of the rewriting latencies, where they are dense,
# and the p90 in the middle of the membership ones.
QUERY_DEGREES = tuple(range(6, 13))
QUERY_REWRITES = ['nf'] * 66 + ['quotient'] * 18
MEMBER_TOPS = (-1, 1)
NONMEMBER_TOPS = (-1, 0, 1)
# non-members add mu*c_{n-1}*e^-1; delta(b_n) costs seconds past n = 10
NONMEMBER_MAX_N = 10

# cli-oneshot: per block 8 quick questions (about 0.1 s each, mostly
# start-up), one boundary and one characteristic-number run. The heavy
# questions cost 0.1-3 s, and within one dimension the catalog's
# manifolds differ by up to thirty times, so a seeded pick among them
# would make every run's heavy work, and the p90 that falls among it,
# a lottery. They are taken in a fixed order instead, the same in every
# run: dimensions in turn, and within a dimension the catalog's
# manifolds (or the splits a + b) one after another. The seed picks the
# quick questions and the order inside each block.
CLI_QUICK = ('nf', 'loc', 'member', 'phi', 'compare')
CLI_BLOCK = ['quick'] * 8 + ['delta', 'charnum']
CLI_QUICK_CONTENT = tuple(range(4, 9))
CLI_DELTA_DIMS = (7, 8, 9, 10)
# PB(RP(a)*RP(b); u1, u2, 0) has dimension a + b + 2
CLI_CHARNUM_DIMS = tuple(range(4, 10))


def _cycle(values):
    """Endless cycle through values."""
    while True:
        yield from values


class Oracle:
    """A parent-side session that builds inputs and checks answers."""

    query_block = len(QUERY_REWRITES) + len(QUERY_DEGREES) * (len(MEMBER_TOPS) + 1)
    cli_block = len(CLI_BLOCK)

    def __init__(self):
        self.s = Session()
        self.mo = self.s.mo
        self.geo = self.s.geometry
        self.L = self.s.laurent
        self._basis = {}
        self._tops = {}
        self._pools = {}
        self._catalog = None

    # --- building blocks ---------------------------------------------------

    def basis(self, d):
        if d not in self._basis:
            self._basis[d] = self.mo.basis_monomials(d, e_cap=2)
        return self._basis[d]

    @staticmethod
    def factors(rng, content, max_factors=3):
        """(i, n) pairs with sum of i + n equal to content, n >= 2."""
        count = rng.randint(1, min(max_factors, content // 2))
        parts = [2] * count
        for _ in range(content - 2 * count):
            parts[rng.randrange(count)] += 1
        out = []
        for p in parts:
            n = rng.randint(2, p)
            out.append((p - n, n))
        return out

    @staticmethod
    def presentation_text(factors, epow=0):
        words = ['X%d' % n if i == 0 else 'G(%d,%d)' % (i, n) for i, n in factors]
        if epow:
            words.append('e' if epow == 1 else 'e^%d' % epow)
        return '*'.join(words)

    @staticmethod
    def manifold_text(factors):
        words = []
        for i, n in factors:
            words.append('gamma(' * i + 'P(%d)' % n + ')' * i)
        return '*'.join(words)

    def top(self, fm):
        """Top e-exponent of the localization of one basis monomial."""
        if fm not in self._tops:
            self._tops[fm] = self.mo.localize(self.mo.single(fm)).max_inv_exp()
        return self._tops[fm]

    def member_target(self, rng, d, top=None, most=3):
        """localize of 1..most basis monomials of degree d, e power <= 2.

        With top given, one monomial tops out at e^top and the others
        at or below it.
        """
        basis = self.basis(d)
        if top is None:
            picks = rng.sample(basis, rng.randint(1, most))
        else:
            exact = [fm for fm in basis if self.top(fm) == top]
            if not exact:
                raise ValueError('no basis monomial of degree %d tops at %d' % (d, top))
            first = rng.choice(exact)
            below = [fm for fm in basis if self.top(fm) <= top and fm != first]
            picks = [first] + rng.sample(below, rng.randint(0, most - 1))
        x = self.mo.zero()
        for fm in picks:
            x = x + self.mo.single(fm)
        return self.mo.localize(x)

    def nonmember_target(self, rng, d, top):
        """A member plus mu*c_{n-1}*e^-1 with delta(mu*b_n) != 0.

        The image of localization is a subgroup, so the sum is a member
        iff mu*c_{n-1}*e^-1 is; its bundle preimage mu*b_n has nonzero
        boundary, so no closed manifold localizes to it.
        """
        coef = self.s.coef
        ns = [n for n in range(1, min(d, NONMEMBER_MAX_N) + 1) if coef.rank(d - n)]
        while True:
            n = rng.choice(ns)
            mu = rng.choice(coef.monomials_of_degree(d - n))
            if self.geo.delta(mu * self.geo.b(n)):
                break
        extra = mu * self.L.c(n - 1) * self.L.e(-1)
        return self.member_target(rng, d, top) + extra

    def laurent_text(self, x):
        text = x.to_text()
        if parse_laurent(text, self.L) != x:
            raise AssertionError('Laurent text does not round-trip: %s' % text)
        return text

    # --- query-mix ---------------------------------------------------------

    def query_mix(self, seed, count):
        """count queries: {'op', 'text', 'expect'}; the child sees op and text."""
        rng = random.Random(seed)
        content = _cycle(QUERY_DEGREES)
        out = []
        block = 0
        while len(out) < count:
            slots = [(kind, next(content), None) for kind in QUERY_REWRITES]
            slots += [('member', d, top) for d in QUERY_DEGREES for top in MEMBER_TOPS]
            slots += [('nonmember', d, NONMEMBER_TOPS[(block + d) % len(NONMEMBER_TOPS)])
                      for d in QUERY_DEGREES]
            rng.shuffle(slots)
            for kind, d, top in slots:
                if kind in ('nf', 'quotient'):
                    text = self.presentation_text(self.factors(rng, d), rng.randint(0, 2))
                    out.append({'op': kind, 'text': text, 'expect': None})
                elif kind == 'member':
                    target = self.member_target(rng, d, top)
                    out.append({'op': 'member', 'text': self.laurent_text(target),
                                'expect': 'found'})
                else:
                    target = self.nonmember_target(rng, d, top)
                    out.append({'op': 'member', 'text': self.laurent_text(target),
                                'expect': 'none'})
            block += 1
        return out[:count]

    def check_nf(self, x, y):
        """'ok' when y is basis-shaped and localizes as x does."""
        if not all(fm.is_basis() for fm in y.monos):
            return 'wrong: normal form is not basis-shaped'
        if self.mo.localize(y) != self.mo.localize(x):
            return 'wrong: normal form changes the localization'
        return 'ok'

    def quotient_of(self, y):
        """The quotient class of a basis-shaped y, built from its e-part.

        Geometric classes, the e^0 part, vanish in the quotient; a basis
        monomial c*X_n1*...*e^k (no G factor when k >= 1) maps to
        (c*X_n1*...)*x_k. Computed by polynomial arithmetic, apart from
        quotient_reduce.
        """
        table = self.mo.table
        parts = {}
        for fm in y.monos:
            if not fm.epow:
                continue
            poly = GradedPoly(table, (fm.coef,))
            for n in fm.x_indices():
                poly = poly * GradedPoly.var(table, 'X%d' % n)
            parts[fm.epow] = parts.get(fm.epow, GradedPoly.zero(table)) + poly
        return QuotientElem(table, parts)

    def check_query(self, query, status, answer):
        """'ok', or why the answer is a failure ('wrong: ...' for a wrong answer)."""
        if status not in ('ok', 'found', 'none'):
            return status
        mo = self.mo
        op = query['op']
        if op == 'nf':
            x = parse_presentation(query['text'], mo)
            return self.check_nf(x, parse_presentation(answer, mo))
        if op == 'quotient':
            # the normal form is checked through localize as an nf answer is
            x = parse_presentation(query['text'], mo)
            y = mo.normal_form(x)
            verdict = self.check_nf(x, y)
            if verdict != 'ok':
                return verdict
            if self.quotient_of(y).to_text() != answer:
                return 'wrong: quotient differs from the e-part of the normal form'
            return 'ok'
        if status != query['expect']:
            return 'wrong: expected %s, got %s' % (query['expect'], status)
        if status == 'found':
            target = parse_laurent(query['text'], self.L)
            if mo.localize(parse_presentation(answer, mo)) != target:
                return 'wrong: preimage does not localize to the target'
        return 'ok'

    # --- cli-oneshot -------------------------------------------------------

    def _delta_pool(self, d):
        """exact_phi texts of the catalog manifolds of dimension d with a bundle part."""
        if self._catalog is None:
            self._catalog = self.geo.catalog_expressions(max(CLI_DELTA_DIMS))
        if d not in self._pools:
            names = self.s.table.names
            pool = []
            for expr in self._catalog:
                if expr.dim != d:
                    continue
                poly = self.geo.exact_phi(expr)
                if any(names[idx].startswith('b') for m in poly.terms for idx, _ in m):
                    pool.append(poly.to_text())
            self._pools[d] = pool
        return self._pools[d]

    def cli_oneshot(self, seed):
        """Endless stream of CLI questions: {'argv', 'kind', ...oracle data}."""
        rng = random.Random(seed)
        quick = _cycle(CLI_QUICK)
        content = _cycle(CLI_QUICK_CONTENT)
        delta_dims = _cycle(CLI_DELTA_DIMS)
        charnum_dims = _cycle(CLI_CHARNUM_DIMS)
        visits = {}

        def visit(key, count):
            """0, 1, ... count - 1, 0, ... over the calls with one key."""
            k = visits.get(key, 0)
            visits[key] = k + 1
            return k % count

        while True:
            block = list(CLI_BLOCK)
            rng.shuffle(block)
            for slot in block:
                if slot == 'delta':
                    dim = next(delta_dims)
                    pool = self._delta_pool(dim)
                    text = pool[visit(('delta', dim), len(pool))]
                    yield {'kind': 'delta', 'argv': ['delta', text]}
                elif slot == 'charnum':
                    dim = next(charnum_dims)
                    a = 1 + visit(('charnum', dim), (dim - 2) // 2)
                    b = dim - 2 - a
                    yield {'kind': 'charnum', 'argv': [
                        'charnum', '--ref', 't', 'PB(RP(%d)*RP(%d); u1, u2, 0)' % (a, b)],
                        'dim': dim, 'euler': a % 2 == 0 and b % 2 == 0}
                else:
                    yield self._quick(rng, next(quick), next(content))

    def _quick(self, rng, kind, content):
        if kind == 'nf':
            text = self.presentation_text(self.factors(rng, content), rng.randint(0, 2))
            return {'kind': kind, 'argv': ['nf', text], 'input': text}
        if kind == 'member':
            target = self.member_target(rng, content, most=2)
            text = self.laurent_text(target)
            return {'kind': kind, 'argv': ['member', text], 'input': text}
        factors = self.factors(rng, content, max_factors=2)
        factors = [(min(i, 2), n) for i, n in factors]
        manifold = self.manifold_text(factors)
        if kind == 'loc':
            return {'kind': kind, 'argv': ['loc', self.presentation_text(factors)],
                    'manifold': manifold}
        return {'kind': kind, 'argv': [kind, manifold], 'manifold': manifold}

    def check_cli(self, item, code, out):
        """'ok', or why the invocation is a failure."""
        if code != 0:
            return 'exit %d' % code
        lines = out.strip().splitlines()
        answer = lines[0] if lines else ''
        kind = item['kind']
        mo, geo = self.mo, self.geo
        try:
            if kind == 'nf':
                return self.check_query({'op': 'nf', 'text': item['input']}, 'ok', answer)
            if kind == 'member':
                return self.check_query({'op': 'member', 'text': item['input'],
                                         'expect': 'found'}, 'found', answer)
            if kind in ('loc', 'phi'):
                terms = parse_manifold(item['manifold'], self.s.coef)
                if kind == 'loc':
                    bundle = sum((geo.phi(t) for t in terms), self.s.coef.zero())
                    ok = parse_laurent(answer, self.L) == geo.dictionary(bundle)
                else:
                    point = sum((geo.pt_class(t) for t in terms), mo.zero())
                    ok = (geo.dictionary(parse_bundle(answer, geo))
                          == mo.localize(point))
                return 'ok' if ok else 'wrong: %s disagrees with the other route' % kind
            if kind == 'compare':
                return 'ok' if answer.startswith('ok') else 'wrong: ' + answer
            if kind == 'delta':
                return 'ok' if answer == '0' else 'wrong: boundary is ' + answer
            if kind == 'charnum':
                top = 'w[%d] = 1' % item['dim'] in lines
                if not any(line.startswith('class: ') for line in lines):
                    return 'wrong: no class line'
                if top != item['euler']:
                    return 'wrong: top Stiefel-Whitney number is not the Euler characteristic'
                return 'ok'
        except BordcalcError as exc:
            return 'wrong: answer does not parse (%s)' % exc
        raise ValueError('unknown question kind %r' % kind)
