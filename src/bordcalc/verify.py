"""Internal consistency suites: each check recomputes one identity two ways.

Suites are grouped by the structure they exercise (localization round
trips, the exact sequence, basis independence, the Gamma contract, the
geometric comparison, the obstruction quotient, exactness of the boundary
sequence, and the bundle-dictionary comparison). Degree sweeps run one
degree after another: the rings memoize shared values (augmentations,
Boardman tables, torus classes) without locks, and the work holds the GIL,
so threads would only make the work done depend on timing.

The sw-oracle suite is not part of all: it recomputes the classes that
delta, the mapping torus and alpha read off the Boardman tables by
Stiefel-Whitney numbers instead, a route that shares none of that code.
"""

from dataclasses import dataclass

from .boardman import tables
from .charnum import fixed_bundle, identify_in_n, identify_in_nbo1
from .conner_floyd import tower
from .errors import ContractViolation
from .gf2 import GradedPoly, partitions, poly_rank, rank_sets
from .presentation import QuotientElem


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ''


SUITES = ('loc', 'seq', 'basis', 'gamma', 'geomcomp', 'trobs',
          'cf-exact', 'compare')

# suites run only by name, never by all
ORACLE_SUITES = ('sw-oracle',)


# how far past the verify degree each suite asks for coefficients: the e
# cap of the basis monomials it takes, 2 for seq, basis_monomials' default
# 4 for basis; the torus of a degree-d bundle class lies in N_{d+1}
COEF_REACH = {'seq': 2, 'basis': 4, 'all': 4, 'sw-oracle': 1}


def default_degree(session, suite='all'):
    """The largest verify degree the cap admits for a suite, None when it admits none."""
    degree = session.max_degree - COEF_REACH.get(suite, 0)
    return degree if degree >= 0 else None


def verify(session, suite='all', max_degree=None):
    """Run one suite (or all of them) through max_degree; returns a list of Check results.

    A suite asks for coefficients up to max_degree plus its COEF_REACH, so
    a degree past the cap minus that reach is refused up front through
    CoefRing.check_size, and the default is the largest degree admitted.
    A negative degree is refused too: its sweeps would pass vacuously.
    """
    dmax = default_degree(session, suite) if max_degree is None else max_degree
    if dmax is None:
        raise ContractViolation('the degree cap %d admits no degree of verify suite %s'
                                % (session.max_degree, suite))
    if dmax < 0:
        raise ContractViolation('verify degree must be nonnegative, got %d' % dmax)
    session.coef.check_size('verify degree', dmax, dmax + COEF_REACH.get(suite, 0))
    if suite == 'all':
        checks = []
        for name in SUITES:
            checks.extend(verify(session, name, dmax))
        return checks
    fn = {
        'loc': _suite_loc,
        'seq': _suite_seq,
        'basis': _suite_basis,
        'gamma': _suite_gamma,
        'geomcomp': _suite_geomcomp,
        'trobs': _suite_trobs,
        'cf-exact': _suite_cf,
        'compare': _suite_compare,
        'sw-oracle': _suite_sw_oracle,
    }.get(suite)
    if fn is None:
        raise ValueError('unknown suite %r' % suite)
    return fn(session, dmax)


def _catalog_by_dimension(geo, dmax):
    """The catalog through dmax grouped by dimension, in catalog order within one."""
    groups = {d: [] for d in range(dmax + 1)}
    for x in geo.catalog_expressions(dmax):
        groups[x.dim].append(x)
    return groups


def _sweep(fn, degrees):
    checks = []
    for d in degrees:
        checks.extend(fn(d))
    return checks


def ac_monomials(laurent, degree):
    """All monomials of the given degree in the a_d and c_j variables."""
    table = laurent.table
    laurent.coef.check_size('a_d, c_j monomials of degree', degree, degree)
    variables = laurent.coef.generators + tuple(table.family['c'].values())
    return [GradedPoly(table, (m,)) for m in table.monomials(degree, variables)]


def _suite_loc(s, dmax):
    L = s.laurent

    def at_degree(d):
        total = 0
        bad = 0
        for mono in ac_monomials(L, d):
            for t in (0, -1, -d - 1):
                x = mono * L.e(t)
                n, p = L.clear_denominators(x)
                total += 1
                if L.eval_cleared(p) != L.e(n) * x:
                    bad += 1
        ok = bad == 0
        return [Check('loc: round trips at degree %d' % d, ok,
                      '%d samples' % total if ok else '%d of %d failed' % (bad, total))]

    checks = [Check('loc: loc_P(1) vanishes', not L.loc_P(1))]
    checks.extend(_sweep(at_degree, range(dmax + 1)))
    return checks


def _suite_seq(s, dmax):
    mo = s.mo

    def at_degree(d):
        out = []
        mus = s.coef.monomials_of_degree(d)
        ok = all(mo.alpha(mo.iota(mu)) == mu for mu in mus)
        detail = '%d monomials' % len(mus)
        if d == 0:
            detail = 'alpha(1) = 1'
        out.append(Check('seq: alpha splits iota at degree %d' % d, ok, detail))
        fms = mo.basis_monomials(d, e_cap=2)
        bad = 0
        for fm in fms:
            b = mo.single(fm)
            if mo.normal_form(mo.e(1) * mo.gamma(b) + b + mo.bar(b)):
                bad += 1
        out.append(Check('seq: e*Gamma(x) = x + xbar at degree %d' % d, bad == 0,
                         '%d basis monomials' % len(fms) if not bad
                         else '%d of %d failed' % (bad, len(fms))))
        return out

    return _sweep(at_degree, range(dmax + 1))


def _suite_basis(s, dmax):
    mo = s.mo

    def at_degree(d):
        fms = mo.basis_monomials(d)
        images = [mo.localize(mo.single(fm)) for fm in fms]
        independent = poly_rank(images) == len(fms)
        idempotent = all(mo.normal_form(mo.single(fm)) == mo.single(fm)
                         for fm in fms)
        return [Check('basis: independence at degree %d' % d, independent,
                      '%d monomials' % len(fms)),
                Check('basis: normal form fixes basis at degree %d' % d,
                      idempotent)]

    checks = [Check('basis: rank N_0 is 1', s.coef.rank(0) == 1)]
    checks.extend(_sweep(at_degree, range(dmax + 1)))
    return checks


def _suite_gamma(s, dmax):
    mo = s.mo
    geo = s.geometry
    checks = []
    x2 = mo.X(2)
    a2 = mo.iota(s.coef.a(2))
    checks.append(Check('gamma: e*G(1,2) rewrites to X2 + a2',
                        mo.normal_form(mo.e(1) * mo.G(1, 2)) == x2 + a2))
    checks.append(Check('gamma: Gamma(e*x) strips e',
                        mo.gamma(mo.e(1) * x2) == x2))
    ok = True
    count = 0
    for d in range(dmax + 1):
        for mu in s.coef.monomials_of_degree(d):
            count += 1
            if mo.gamma(mo.iota(mu)):
                ok = False
    checks.append(Check('gamma: Gamma kills trivial classes', ok,
                        '%d monomials' % count))
    pairs = [(i, n) for n in range(2, min(dmax, 5) + 1)
             for i in range(1, min(dmax, 4))]
    # alpha(G(i-1,n)) recomputed from the geometry: the tower's underlying class
    ok = all(mo.normal_form(mo.e(1) * mo.G(i, n))
             == mo.normal_form(mo.G(i - 1, n) + mo.iota(geo.underlying(tower(i - 1, n))))
             for i, n in pairs)
    checks.append(Check('gamma: e*G(i,n) = G(i-1,n) + alpha(G(i-1,n))', ok,
                        '%d pairs' % len(pairs)))
    return checks


def _suite_geomcomp(s, dmax):
    mo = s.mo
    geo = s.geometry

    def at_degree(d):
        fms = mo.basis_monomials(d, e_cap=0)
        bad = 0
        for fm in fms:
            x = mo.single(fm)
            expr = geo.manifold_for_basis(fm)
            if not mo.is_geometric(x):
                bad += 1
            elif geo.dictionary(geo.phi(expr)) != mo.localize(x):
                bad += 1
        ok = bad == 0
        return [Check('geomcomp: bundle dictionary matches at degree %d' % d, ok,
                      '%d monomials' % len(fms) if ok
                      else '%d of %d failed' % (bad, len(fms)))]

    return _sweep(at_degree, range(dmax + 1))


def _suite_trobs(s, dmax):
    mo = s.mo
    cases = [(k, n) for n in range(2, min(dmax, 6) + 1) for k in range(1, 4)]
    # e^k G(1, n) reduces to (X_n + rho(n)) x_{k-1}, and to zero at k = 1
    ok = all(mo.quotient_reduce(mo.e(k) * mo.G(1, n)) == QuotientElem(
        s.table, {k - 1: s.laurent.X(n) + s.coef.rho(n)} if k > 1 else {}) for k, n in cases)
    checks = [Check('trobs: e^k G(1,n) reduces to the k-1 slice', ok, '%d cases' % len(cases))]
    ok = all(mo.quotient_reduce(mo.e(k))
             == QuotientElem(s.table, {k: GradedPoly.one(s.table)}) for k in range(1, 5))
    checks.append(Check('trobs: e^k lands on x_k', ok))
    ok = not any(mo.quotient_reduce(mo.single(fm)) for d in range(min(dmax, 6) + 1)
                 for fm in mo.basis_monomials(d, e_cap=0))
    checks.append(Check('trobs: geometric classes vanish in the quotient', ok))
    return checks


def _suite_cf(s, dmax):
    mo = s.mo
    geo = s.geometry
    catalog = _catalog_by_dimension(geo, dmax)

    def at_degree(d):
        out = []
        exprs = catalog[d]
        ok = all(not geo.delta(geo.phi(x)) for x in exprs)
        out.append(Check('cf-exact: delta o phi = 0 at degree %d' % d, ok,
                         '%d expressions' % len(exprs)))
        # the presentation's augmentation against the geometry's underlying class
        bad = sum(1 for x in exprs if mo.alpha(geo.pt_class(x)) != geo.underlying(x))
        out.append(Check('cf-exact: alpha o pt_class = underlying at degree %d' % d,
                         bad == 0, '%d expressions' % len(exprs) if not bad
                         else '%d of %d failed' % (bad, len(exprs))))
        monos = geo.bundle_monomials(d)
        rows = [geo.delta(p).support() for p in monos]
        drank = rank_sets(rows, lambda item: item)
        want = sum(s.coef.rank(d - 1 - j) for j in range(d))
        out.append(Check('cf-exact: delta surjects at degree %d' % d,
                         drank == want, 'rank %d' % drank))
        geo_fms = mo.basis_monomials(d, e_cap=0)
        images = [geo.phi(geo.manifold_for_basis(fm)) for fm in geo_fms]
        prank = poly_rank(images)
        ok = (prank == len(geo_fms)
              and prank == len(monos) - drank
              and all(not geo.delta(img) for img in images))
        out.append(Check('cf-exact: kernel matches the geometric part at degree %d' % d,
                         ok, 'rank %d' % prank))
        return out

    return _sweep(at_degree, range(dmax + 1))


def _suite_compare(s, dmax):
    geo = s.geometry
    mo = s.mo
    catalog = _catalog_by_dimension(geo, dmax)

    def at_degree(d):
        exprs = catalog[d]
        bad = 0
        for x in exprs:
            if geo.dictionary(geo.phi(x)) != mo.localize(geo.pt_class(x)):
                bad += 1
        ok = bad == 0
        return [Check('compare: dictionary o phi = localize o point class'
                      ' at degree %d' % d, ok,
                      '%d expressions' % len(exprs) if ok
                      else '%d of %d failed' % (bad, len(exprs)))]

    return _sweep(at_degree, range(dmax + 1))


def _suite_sw_oracle(s, dmax):
    coef = s.coef
    boardman = tables(coef)

    def at_degree(d):
        bmults = [tuple(sorted(p)) for p in partitions(d)]
        bad_delta = bad_torus = 0
        for bmult in bmults:
            pb = fixed_bundle(bmult)
            if boardman.bundle_in_nbo1(bmult) != identify_in_nbo1(pb, pb.fiber_class(), coef):
                bad_delta += 1
            if boardman.bundle_in_n(bmult, 2) != identify_in_n(fixed_bundle(bmult, 2), coef):
                bad_torus += 1
        # alpha(G(i, n)), i + n = d, reads off P(L + R^(i+1)) over RP(n - 1)
        pairs = [(i, d - i) for i in range(1, d - 1)]
        bad_alpha = sum(1 for i, n in pairs if boardman.bundle_in_n((n,), i + 1)
                        != identify_in_n(fixed_bundle((n,), i + 1), coef))
        out = []
        for what, bad, count in (('delta', bad_delta, len(bmults)),
                                 ('mapping torus', bad_torus, len(bmults)),
                                 ('alpha(G(i,n))', bad_alpha, len(pairs))):
            out.append(Check('sw-oracle: Boardman %s matches Stiefel-Whitney numbers at degree %d'
                             % (what, d), bad == 0,
                             '%d bundles' % count if not bad else '%d of %d failed' % (bad, count)))
        return out

    return _sweep(at_degree, range(1, dmax + 1))
