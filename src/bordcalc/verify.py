"""Internal consistency suites: each check recomputes one identity two ways.

Suites are grouped by the structure they exercise (localization round
trips, the exact sequence, basis independence, the Gamma contract, the
geometric comparison, the obstruction quotient, exactness of the boundary
sequence, and the bundle-dictionary comparison). Degree sweeps run one
degree after another: the rings memoize shared values (augmentations,
Boardman tables, fixed-point classes) without locks, and the work holds
the GIL, so threads would only make the work done depend on timing.

The sw-oracle suite is not part of all: it recomputes the classes that
delta, underlying (the torus among them) and alpha read off the Boardman
tables by Stiefel-Whitney numbers instead, a route sharing none of that code.
"""

from collections import namedtuple

from .boardman import tables
from .charnum import fixed_bundle, identify_in_n, identify_in_nbo1
from .conner_floyd import tower
from .errors import ContractViolation
from .gf2 import GradedPoly, partitions, poly_rank, rank_sets
from .presentation import QuotientElem


Check = namedtuple('Check', 'name passed detail', defaults=('',))


def default_degree(session, suite='all'):
    """The largest verify degree the cap admits for a suite, None when it admits none."""
    degree = session.max_degree - COEF_REACH[suite]
    return degree if degree >= _SUITES[suite].least else None


def verify(session, suite='all', max_degree=None):
    """Run one suite (or all of them) through max_degree; returns a list of Check results.

    A suite asks for coefficients up to max_degree plus its COEF_REACH, so
    a degree past the cap minus that reach is refused up front through
    CoefRing.check_size, and the default is the largest degree admitted.
    A degree below the suite's least degree is refused too: its sweeps
    would pass vacuously.
    """
    row = _SUITES.get(suite)
    if row is None:
        raise ValueError('unknown suite %r' % suite)
    dmax = default_degree(session, suite) if max_degree is None else max_degree
    if dmax is None:
        raise ContractViolation('the degree cap %d admits no degree of verify suite %s'
                                % (session.max_degree, suite))
    if dmax < 0:
        raise ContractViolation('verify degree must be nonnegative, got %d' % dmax)
    if dmax < row.least:
        raise ContractViolation('verify suite %s sweeps from degree %d, got %d'
                                % (suite, row.least, dmax))
    session.coef.check_size('verify degree', dmax, dmax + COEF_REACH[suite])
    return row.run(session, range(row.least, dmax + 1))


def _counted(name, bad, total, things):
    """A check over total things, bad of which failed: the detail counts them."""
    return Check(name, not bad, '%d %s' % (total, things) if not bad
                 else '%d of %d failed' % (bad, total))


def _catalog_by_dimension(geo, degrees):
    """The catalog through the top degree grouped by dimension, in catalog order within one."""
    groups = {d: [] for d in range(degrees[-1] + 1)}
    for x in geo.catalog_expressions(degrees[-1]):
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


# Each suite takes the session and the range of degrees it sweeps.

def _suite_loc(s, degrees):
    L = s.laurent

    def at_degree(d):
        samples = [mono * L.e(t) for mono in ac_monomials(L, d) for t in (0, -1, -d - 1)]
        bad = 0
        for x in samples:
            n, p = L.clear_denominators(x)
            if L.eval_cleared(p) != L.e(n) * x:
                bad += 1
        return [_counted('loc: round trips at degree %d' % d, bad, len(samples), 'samples')]

    checks = [Check('loc: loc_P(1) vanishes', not L.loc_P(1))]
    checks.extend(_sweep(at_degree, degrees))
    return checks


def _suite_seq(s, degrees):
    mo = s.mo

    def at_degree(d):
        mus = s.coef.monomials_of_degree(d)
        ok = all(mo.alpha(mo.iota(mu)) == mu for mu in mus)
        detail = 'alpha(1) = 1' if d == 0 else '%d monomials' % len(mus)
        fms = mo.basis_monomials(d, e_cap=2)
        bad = 0
        for fm in fms:
            b = mo.single(fm)
            if mo.normal_form(mo.e(1) * mo.gamma(b) + b + mo.bar(b)):
                bad += 1
        return [Check('seq: alpha splits iota at degree %d' % d, ok, detail),
                _counted('seq: e*Gamma(x) = x + xbar at degree %d' % d, bad, len(fms),
                         'basis monomials')]

    return _sweep(at_degree, degrees)


def _suite_basis(s, degrees):
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
    checks.extend(_sweep(at_degree, degrees))
    return checks


def _suite_gamma(s, degrees):
    mo = s.mo
    geo = s.geometry
    dmax = degrees[-1]
    x2 = mo.X(2)
    a2 = mo.iota(s.coef.a(2))
    checks = [Check('gamma: e*G(1,2) rewrites to X2 + a2',
                    mo.normal_form(mo.e(1) * mo.G(1, 2)) == x2 + a2),
              Check('gamma: Gamma(e*x) strips e', mo.gamma(mo.e(1) * x2) == x2)]
    mus = [mu for d in degrees for mu in s.coef.monomials_of_degree(d)]
    checks.append(Check('gamma: Gamma kills trivial classes',
                        not any(mo.gamma(mo.iota(mu)) for mu in mus), '%d monomials' % len(mus)))
    pairs = [(i, n) for n in range(2, min(dmax, 5) + 1)
             for i in range(1, min(dmax, 4))]
    # alpha(G(i-1,n)) recomputed from the geometry: the tower's underlying class
    ok = all(mo.normal_form(mo.e(1) * mo.G(i, n))
             == mo.normal_form(mo.G(i - 1, n) + mo.iota(geo.underlying(tower(i - 1, n))))
             for i, n in pairs)
    checks.append(Check('gamma: e*G(i,n) = G(i-1,n) + alpha(G(i-1,n))', ok,
                        '%d pairs' % len(pairs)))
    return checks


def _suite_geomcomp(s, degrees):
    mo = s.mo
    geo = s.geometry

    def at_degree(d):
        fms = mo.basis_monomials(d, e_cap=0)
        bad = 0
        for fm in fms:
            x = mo.single(fm)
            expr = geo.manifold_for_basis(fm)
            if not mo.is_geometric(x) or geo.dictionary(geo.phi(expr)) != mo.localize(x):
                bad += 1
        return [_counted('geomcomp: bundle dictionary matches at degree %d' % d, bad,
                         len(fms), 'monomials')]

    return _sweep(at_degree, degrees)


def _suite_trobs(s, degrees):
    mo = s.mo
    dmax = degrees[-1]
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


def _suite_cf(s, degrees):
    mo = s.mo
    geo = s.geometry
    catalog = _catalog_by_dimension(geo, degrees)

    def at_degree(d):
        out = []
        exprs = catalog[d]
        ok = all(not geo.delta(geo.phi(x)) for x in exprs)
        out.append(Check('cf-exact: delta o phi = 0 at degree %d' % d, ok,
                         '%d expressions' % len(exprs)))
        # the presentation's augmentation against the geometry's underlying class
        bad = sum(1 for x in exprs if mo.alpha(geo.pt_class(x)) != geo.underlying(x))
        out.append(_counted('cf-exact: alpha o pt_class = underlying at degree %d' % d,
                            bad, len(exprs), 'expressions'))
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

    return _sweep(at_degree, degrees)


def _suite_compare(s, degrees):
    geo = s.geometry
    mo = s.mo
    catalog = _catalog_by_dimension(geo, degrees)

    def at_degree(d):
        exprs = catalog[d]
        bad = sum(1 for x in exprs if geo.dictionary(geo.phi(x)) != mo.localize(geo.pt_class(x)))
        return [_counted('compare: dictionary o phi = localize o point class'
                         ' at degree %d' % d, bad, len(exprs), 'expressions')]

    return _sweep(at_degree, degrees)


def _suite_sw_oracle(s, degrees):
    coef = s.coef
    boardman = tables(coef)

    def bad_in_nbo1(bmult):
        pb = fixed_bundle(bmult)
        return boardman.bundle_in_nbo1(bmult) != identify_in_nbo1(pb, pb.fiber_class(), coef)

    def bad_in_n(bmult):
        return boardman.bundle_in_n(bmult) != identify_in_n(fixed_bundle(bmult), coef)

    def at_degree(d):
        bmults = [tuple(sorted(p)) for p in partitions(d)]
        # a trivial line is a part 1: underlying reads P(nu + R), the torus
        # P(nu + R^2), alpha(G(i, n)), i + n = d, P(L + R^(i+1)) over RP(n - 1)
        rows = (('delta', bad_in_nbo1, bmults),
                ('fixed-point class', bad_in_n, [b + (1,) for b in bmults]),
                ('mapping torus', bad_in_n, [b + (1, 1) for b in bmults]),
                ('alpha(G(i,n))', bad_in_n, [(d - i,) + (1,) * (i + 1) for i in range(1, d - 1)]))
        return [_counted('sw-oracle: Boardman %s matches Stiefel-Whitney numbers at degree %d'
                         % (what, d), sum(map(bad, ms)), len(ms), 'bundles')
                for what, bad, ms in rows]

    return _sweep(at_degree, degrees)


def _suite_all(s, degrees):
    return [c for name in SUITES for c in verify(s, name, degrees[-1])]


Suite = namedtuple('Suite', 'run least reach in_all')

# One row per suite, in the order all runs them: its function, the least
# degree it sweeps from, how far past the verify degree it asks for
# coefficients (the e cap of the basis monomials it takes, 2 for seq,
# basis_monomials' default 4 for basis; the torus of a degree-d bundle
# class lies in N_{d+1}), and whether all runs it. sw-oracle starts at 1:
# the one bundle monomial of degree 0 is 1, which has no space to identify.
_SUITES = {
    'loc': Suite(_suite_loc, 0, 0, True),
    'seq': Suite(_suite_seq, 0, 2, True),
    'basis': Suite(_suite_basis, 0, 4, True),
    'gamma': Suite(_suite_gamma, 0, 0, True),
    'geomcomp': Suite(_suite_geomcomp, 0, 0, True),
    'trobs': Suite(_suite_trobs, 0, 0, True),
    'cf-exact': Suite(_suite_cf, 0, 0, True),
    'compare': Suite(_suite_compare, 0, 0, True),
    'sw-oracle': Suite(_suite_sw_oracle, 1, 1, False),
}
SUITES = tuple(name for name, row in _SUITES.items() if row.in_all)
# suites run only by name, never by all
ORACLE_SUITES = tuple(name for name, row in _SUITES.items() if not row.in_all)
# all admits a degree when every suite it runs admits it
_SUITES['all'] = Suite(_suite_all, max(_SUITES[name].least for name in SUITES),
                       max(_SUITES[name].reach for name in SUITES), False)
COEF_REACH = {name: row.reach for name, row in _SUITES.items()}
