"""Planted defects: a wrong answer in one method must fail some verify suite.

Each row patches one method in-process, runs every suite at degree 8 in a
fresh session, and restores the method. The suites a row names must each
report at least one failed check; the control row, nothing patched, must
fail none.
"""

import pytest

from bordcalc.boardman import Boardman
from bordcalc.conner_floyd import Geometry
from bordcalc.gf2 import GradedPoly
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


# (class, method, wrapper, suites that must fail), each set the suites
# seen failing at degree 8. The fixed-point image moves the geometry's
# underlying class, and with it phi of every twisted circle; bundle_in_n
# moves that and the presentation's alpha(G(i, n)), through other
# b-multisets. Either way every suite that compares the geometry with the
# presentation fails, and only sw-oracle recomputes the Boardman value.
_BOTH_SIDES = {'gamma', 'geomcomp', 'cf-exact', 'compare'}
ROWS = {
    'fixed-point image': (Geometry, '_fixed_image', _fixed_image, _BOTH_SIDES),
    'bundle_in_n': (Boardman, 'bundle_in_n', _bundle_in_n, _BOTH_SIDES | {'sw-oracle'}),
    'control': (None, None, None, set()),
}


def _failing_suites():
    failed = set()
    for name in SUITES + ORACLE_SUITES:
        if not all(c.passed for c in verify(Session(), name, DEGREE)):
            failed.add(name)
    return failed


@pytest.mark.parametrize('row', list(ROWS))
def test_planted_defect_fails_a_suite(row):
    cls, attr, wrap, must = ROWS[row]
    if cls is None:
        assert _failing_suites() == set()
        return
    original = getattr(cls, attr)
    setattr(cls, attr, wrap(original))
    try:
        failed = _failing_suites()
    finally:
        setattr(cls, attr, original)
    assert must <= failed, (row, failed)
