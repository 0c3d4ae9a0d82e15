"""Planted defects: a wrong answer in one method must fail some verify suite.

Each row patches one method in-process, runs every suite at degree 8 in a
fresh session, and restores the method. The suites a row names must each
report at least one failed check; the control row, nothing patched, must
fail none. A row that no suite catches is an open gap: it stays in the
table, and fails once a suite does catch it, so that its must-set is
written down. Every suite must be some row's.
"""

import pytest

from bordcalc import charnum, presentation
from bordcalc.boardman import Boardman
from bordcalc.conner_floyd import Geometry
from bordcalc.gf2 import GradedPoly, rank_sets
from bordcalc.localized import LaurentRing
from bordcalc.presentation import BordismRing, FormalMonomial, QuotientElem
from bordcalc.session import Session
from bordcalc.verify import ORACLE_SUITES, SUITES, verify

DEGREE = 8


def _plus_a2_power(bmult, dim, coef, monos):
    """monos plus a2^(dim/2) when dim is even and bmult has a part >= 2."""
    if dim % 2 or max(bmult, default=0) < 2:
        return monos
    return (GradedPoly(coef.table, monos) + coef.a(2) ** (dim // 2)).monos


def _fixed_image(original):
    def patched(self, bmono):
        bmult = self._bmult(bmono)
        return _plus_a2_power(bmult, sum(bmult), self.coef, original(self, bmono))
    return patched


def _bundle_in_n(original):
    def patched(self, bmult):
        monos = _plus_a2_power(bmult, sum(bmult) - 1, self.coef, original(self, bmult).monos)
        return GradedPoly(self.coef.table, monos)
    return patched


def _delta_image(original):
    # delta(b2*b3) plus a4*s0
    def patched(self, bmult):
        out = original(self, bmult)
        if tuple(sorted(bmult)) == (2, 3):
            out = dict(out)
            out[0] = out.get(0, GradedPoly.zero(self.coef.table)) + self.coef.a(4)
        return out
    return patched


def _delta_section(original):
    # delta(b1^3) plus a2*s0: delta stays onto, but b1^3 no longer maps to s2
    def patched(self, bmult):
        out = original(self, bmult)
        if tuple(bmult) == (1, 1, 1):
            out = dict(out)
            out[0] = out.get(0, GradedPoly.zero(self.coef.table)) + self.coef.a(2)
        return out
    return patched


def _loc_gamma(original):
    # loc(G(1, 3)) answered as loc(X4), and every G(i, 3) above it with it
    def patched(self, i, n):
        return self.laurent.loc_P(4) if (i, n) == (1, 3) else original(self, i, n)
    return patched


def _loc_gamma_inhomogeneous(original):
    # loc(G(1, 3)) plus a5*e^-1, a term of another degree
    def patched(self, i, n):
        out = original(self, i, n)
        return out + self.coef.a(5) * self.laurent.e(-1) if (i, n) == (1, 3) else out
    return patched


def _loc_gamma_top_term(original):
    # loc(G(1, 3)) plus c1*c3, a term of its degree with s = L + |J| = 2 >= 0,
    # which no type-B localization has
    def patched(self, i, n):
        out = original(self, i, n)
        return out + self.laurent.c(1) * self.laurent.c(3) if (i, n) == (1, 3) else out
    return patched


def _c_part(original):
    # each repeated X factor named once: c1^2 peels to X2, not X2*X2
    def patched(self, fields):
        c, xs = original(self, fields)
        return c, tuple(dict.fromkeys(xs))
    return patched


def _topped(original):
    # the type-B branch naming G(i + 1, j) where it should name G(i, j)
    def patched(self, m):
        piece = original(self, m)
        if piece is None or not piece[0] or not piece[0][-1][0]:
            return piece
        i, j = piece[0][-1]
        return piece[0][:-1] + ((i + 1, j),), piece[1]
    return patched


def _named(original):
    # G(-s, j) named by the last X factor, not the first: the basis lists change with the peel
    def patched(xs, s):
        if s >= 0:
            return original(xs, s)
        return xs[:-1] + ((-s, xs[-1][1]),), 0
    return patched


def _generator(original):
    # h(a5) plus beta3*beta2, which names no coefficient monomial
    def patched(self, d):
        out = original(self, d)
        return out ^ {self._beta[3] + self._beta[2]} if d == 5 else out
    return patched


def _dictionary(original):
    # a4 added to every nonzero image of degree 4
    def patched(self, poly):
        out = original(self, poly)
        return out + self.coef.a(4) if out and out.degree() == 4 else out
    return patched


def _gamma_mono(original):
    # Gamma(X2*X3) plus a4
    def patched(self, fm):
        out = original(self, fm)
        if fm.gammas == ((0, 2), (0, 3)) and not fm.epow:
            out = out + [FormalMonomial(fm.coef + next(iter(self.coef.a(4).monos)), (), 0)]
        return out
    return patched


def _nf_mono(original):
    # a4 added to the normal form of every non-basis monomial of degree 4
    def patched(self, fm, budget):
        out = original(self, fm, budget)
        if not fm.is_basis() and fm.degree(self.table) == 4:
            out = out + self.iota(self.coef.a(4))
        return out
    return patched


def _quotient_reduce(original):
    # the classes on x_k, k >= 3, dropped
    def patched(self, x):
        out = original(self, x)
        shift = self.table.e_shift
        return QuotientElem(self.table, frozenset(m for m in out.monos if m >> shift < 3))
    return patched


def _member(original):
    # no preimage for a target of three or more terms
    def patched(self, target):
        return None if len(target.monos) >= 3 else original(self, target)
    return patched


def _reference(original):
    # the labels of the first two plain reference rows of dimension 4 swapped
    def patched(coef, n, line):
        echelon, labels = original(coef, n, line)
        if n == 4 and not line:
            labels = [labels[1], labels[0]] + labels[2:]
        return echelon, labels
    return patched


def _eval_cleared(original):
    # e^-d added to every nonzero value of degree d
    def patched(self, p):
        out = original(self, p)
        return out + self.e(-out.degree()) if out else out
    return patched


# (owner, attribute, wrapper, suites that must fail), each set the suites
# seen failing at degree 8. The fixed-point image moves the geometry's
# underlying class, and with it phi of every twisted circle; bundle_in_n
# moves that and the presentation's alpha(G(i, n)), through other
# b-multisets. Either way every suite that compares the geometry with the
# presentation fails, and only sw-oracle recomputes the Boardman value.
# A defect that breaks a contract makes a suite raise: verify reports that
# suite as one failed check and runs the others, so the inhomogeneous
# loc(G(1, 3)) fails basis by raising and geomcomp and compare by their
# checks, and the term added to h(a5) raises in every suite that reads a
# class off the Boardman tables.
_BOTH_SIDES = {'gamma', 'geomcomp', 'cf-exact', 'compare'}
ROWS = {
    'fixed-point image': (Geometry, '_fixed_image', _fixed_image, _BOTH_SIDES),
    'bundle_in_n': (Boardman, 'bundle_in_n', _bundle_in_n, _BOTH_SIDES | {'sw-oracle'}),
    'delta': (Boardman, 'bundle_in_nbo1', _delta_image, {'cf-exact', 'sw-oracle'}),
    'delta section': (Boardman, 'bundle_in_nbo1', _delta_section, {'cf-exact', 'sw-oracle'}),
    'loc(G(i,n))': (BordismRing, '_loc_gamma', _loc_gamma, {'basis', 'geomcomp', 'compare'}),
    'inhomogeneous loc(G(1,3))': (BordismRing, '_loc_gamma', _loc_gamma_inhomogeneous,
                                  {'basis', 'geomcomp', 'compare'}),
    's >= 0 term in loc(G(1,3))': (BordismRing, '_loc_gamma', _loc_gamma_top_term,
                                   {'basis', 'geomcomp', 'compare'}),
    'peel map': (BordismRing, '_c_part', _c_part, {'basis'}),
    'type-B peel map': (BordismRing, '_topped', _topped, {'basis'}),
    'naming rule': (presentation, '_named', _named, {'basis'}),
    'h(a5)': (Boardman, '_generator', _generator,
              {'seq', 'basis', 'gamma', 'geomcomp', 'cf-exact', 'compare', 'sw-oracle'}),
    'dictionary': (Geometry, 'dictionary', _dictionary, {'geomcomp', 'compare'}),
    'Gamma of a monomial': (BordismRing, '_gamma_mono', _gamma_mono, {'seq'}),
    'normal form of a non-basis monomial': (BordismRing, '_nf_mono', _nf_mono,
                                            {'seq', 'gamma'}),
    'quotient_reduce': (BordismRing, 'quotient_reduce', _quotient_reduce, {'trobs'}),
    'member': (BordismRing, 'member', _member, set()),
    'reference row': (charnum, '_reference', _reference, {'sw-oracle'}),
    'eval_cleared': (LaurentRing, 'eval_cleared', _eval_cleared, {'loc'}),
    'control': (None, None, None, set()),
}
# rows whose defect no suite catches: no independent route checks member's
# preimages yet
OPEN_GAPS = {'member'}


def _failing_suites():
    failed = set()
    for name in SUITES + ORACLE_SUITES:
        if not all(c.passed for c in verify(Session(), name, DEGREE)):
            failed.add(name)
    return failed


@pytest.mark.parametrize('row', list(ROWS))
def test_planted_defect_fails_a_suite(row):
    owner, attr, wrap, must = ROWS[row]
    if owner is None:
        assert _failing_suites() == set()
        return
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        failed = _failing_suites()
    finally:
        setattr(owner, attr, original)
    assert must <= failed, (row, failed)
    if row in OPEN_GAPS:
        # a suite that catches it closes the gap: give the row that must-set
        assert failed == set(), (row, failed)


def test_a_raising_suite_is_one_failed_check():
    original = Boardman._generator
    Boardman._generator = _generator(original)
    try:
        checks = verify(Session(), 'all', DEGREE)
    finally:
        Boardman._generator = original
    # every suite still reports; the ones that raised report one check each
    assert {c.name.split(':')[0] for c in checks} == set(SUITES)
    raised = [c for c in checks if ': raised ' in c.name]
    assert {c.name for c in raised} == {'%s: raised IntegrityError' % name for name in
                                        ('seq', 'basis', 'gamma', 'geomcomp', 'cf-exact',
                                         'compare')}
    assert all(not c.passed and 'beta3*beta2' in c.detail for c in raised)


def test_every_suite_can_fail():
    caught = set().union(*(must for *_, must in ROWS.values()))
    assert caught == set(SUITES + ORACLE_SUITES)


def test_the_section_catches_what_the_rank_misses():
    original = Boardman.bundle_in_nbo1
    Boardman.bundle_in_nbo1 = _delta_section(original)
    try:
        s = Session()
        # delta is still onto in degree 3, so an elimination reads its rank full
        geo = s.geometry
        assert rank_sets([geo.delta(p).monos for p in geo.bundle_monomials(3)]) == 2
        checks = {c.name: c for c in verify(s, 'cf-exact', 3)}
    finally:
        Boardman.bundle_in_nbo1 = original
    onto = checks['cf-exact: delta surjects at degree 3']
    assert (onto.passed, onto.detail) == (False, '1 of 2 failed')
    # the kernel check claims no rank it did not establish
    kernel = checks['cf-exact: kernel matches the geometric part at degree 3']
    assert (kernel.passed, kernel.detail) == (False, 'delta not onto; 2 of 2 images outside '
                                                     'the kernel')
