"""One memo rule: every per-session memo is a gf2.Memo, and Session.stats() reads them.

A memo keeps a function of its key alone, so the answers of a session do
not depend on its cap either: the layout of its monomials changes with
the cap, their texts do not. The counts stats() reports are deterministic.
"""

import pytest

from test_memos import DEGREE, _inputs

from bordcalc.gf2 import Memo, memo
from bordcalc.parsing import parse_laurent, parse_presentation
from bordcalc.session import Session
from bordcalc.verify import verify


def _sample(session):
    """The texts of a fixed sample of answers, in a fixed order."""
    mo, L, geo = session.mo, session.laurent, session.geometry
    inputs = _inputs(session)
    pres = [x for name, x in inputs if name == 'localize']
    bundles = [p for name, p in inputs if name == 'delta']
    exprs = geo.catalog_expressions(DEGREE)
    # e^-d is no localization; in degree 0 every Laurent element is one
    targets = [mo.localize(x) for x in pres if x.homogeneous()]
    targets += [L.e(-d) for d in range(1, DEGREE + 1)]
    found = [mo.member(t) for t in targets]
    assert found.count(None) >= DEGREE
    return ([x.to_text() for x in pres + targets + bundles]
            + [mo.normal_form(x).to_text() for x in pres]
            + [mo.quotient_reduce(x).to_text() for x in pres]
            + ['None' if x is None else x.to_text() for x in found]
            + [geo.delta(p).to_text() for p in bundles]
            + [geo.phi(x).to_text() for x in exprs]
            + [geo.underlying(x).to_text() for x in exprs]
            + [repr(tuple(c)) for c in verify(session, 'all', DEGREE)])


def test_answers_do_not_depend_on_the_cap():
    assert _sample(Session(16)) == _sample(Session(24))


def _owners(session):
    """The objects of a session that can hold memos."""
    return [session.coef, session.table, session.coef.boardman, session.laurent,
            session.mo, session.geometry]


def _attributes(obj):
    return [*getattr(obj, '__dict__', ()), *getattr(type(obj), '__slots__', ())]


def test_stats_count_every_memo():
    session = Session()
    verify(session, 'all', DEGREE)
    stats = session.stats()
    entries = {key: n for key, (n, _) in stats.items()}
    assert {key: entries[key] for key in [
        ('mo', '_nf_cache'), ('mo', '_localize_cache'), ('mo', '_alpha_cache'),
        ('mo', '_alpha_gamma_cache'), ('mo', '_loc_gamma_cache'), ('mo', '_x_cache'),
        ('mo', '_basis_cache'), ('geometry', '_delta_cache'), ('geometry', '_fixed_cache'),
        ('geometry', '_walk_cache'), ('table', '_monomials'), ('mo', '_c_cache'),
        ('mo', '_coef_cache'), ('boardman', '_h'), ('geometry', '_pt_cache'),
        ('geometry', '_dict_cache'), ('geometry', '_manifold_cache'),
        ('geometry', '_catalog_cache')]} == {
        ('mo', '_nf_cache'): 68, ('mo', '_localize_cache'): 118, ('mo', '_alpha_cache'): 63,
        ('mo', '_alpha_gamma_cache'): 28, ('mo', '_loc_gamma_cache'): 32, ('mo', '_x_cache'): 13,
        ('mo', '_basis_cache'): 27, ('geometry', '_delta_cache'): 67,
        ('geometry', '_fixed_cache'): 52, ('geometry', '_walk_cache'): 157,
        ('table', '_monomials'): 4, ('mo', '_c_cache'): 77, ('mo', '_coef_cache'): 13,
        ('boardman', '_h'): 14, ('geometry', '_pt_cache'): 109, ('geometry', '_dict_cache'): 67,
        ('geometry', '_manifold_cache'): 115, ('geometry', '_catalog_cache'): 1}
    # a sweep reuses what it kept
    assert all(hits for key, (n, hits) in stats.items() if n)
    # hits are as deterministic as entries
    again = Session()
    verify(again, 'all', DEGREE)
    assert again.stats() == stats
    # every memo of the session is counted, and every attribute named as a
    # cache is a Memo
    memos = 0
    for obj in _owners(session):
        for name in _attributes(obj):
            value = getattr(obj, name)
            assert isinstance(value, Memo) or not name.endswith('_cache'), name
            memos += isinstance(value, Memo)
    assert memos == len(stats) == 27


def test_stats_of_a_fresh_session():
    stats = Session().stats()
    # nothing asked yet: no Boardman tables
    assert {owner for owner, _ in stats} == {'coef', 'table', 'laurent', 'mo', 'geometry'}
    assert stats[('mo', '_nf_cache')] == (0, 0)
    # the session's own construction asks the table for its family masks
    assert stats[('table', '_masks')][0] > 0


def test_parsed_atoms_count_their_hits():
    session = Session()
    parse_presentation('a2*G(1,3)*X2 + G(1,3)*e', session.mo)
    # a2, G(1,3), X2 and e are built once, and G(1,3) is met again
    assert session.stats()[('coef', 'parsed_atoms')] == (4, 1)
    parse_laurent('a2*c1*e^-1', session.laurent)
    # the Laurent grammar keeps its own a2 and e
    assert session.stats()[('coef', 'parsed_atoms')] == (7, 1)
    parse_presentation('X2*a2', session.mo)
    assert session.stats()[('coef', 'parsed_atoms')] == (7, 3)


def test_spellings_of_a_name_share_its_atom():
    session = Session()
    parse_presentation('a2*X3', session.mo)
    parse_laurent('c2', session.laurent)
    assert session.stats()[('coef', 'parsed_atoms')] == (3, 0)
    # a leading zero spells the same name: its atom is kept once, and met again
    for zeros in range(1, 6):
        pad = '0' * zeros
        parse_presentation('a%s2 + X%s3' % (pad, pad), session.mo)
        parse_laurent('c%s2' % pad, session.laurent)
    assert session.stats()[('coef', 'parsed_atoms')] == (3, 15)


def test_memo_of_several_arguments():
    class Ring:
        def __init__(self):
            self._cache = Memo()
            self.calls = []

        @memo('_cache')
        def power(self, base, exponent):
            """base ** exponent, refused below 0."""
            self.calls.append((base, exponent))
            if exponent < 0:
                raise ValueError('negative exponent')
            return base ** exponent

    ring = Ring()
    assert Ring.power.__doc__ == 'base ** exponent, refused below 0.'
    assert ring.power(2, 10) == 1024 and ring.power(3, 2) == 9
    # the tuple of the arguments is the key
    assert dict(ring._cache) == {(2, 10): 1024, (3, 2): 9} and ring._cache.hits == 0
    assert ring.power(2, 10) == 1024
    assert ring._cache.hits == 1 and ring.calls == [(2, 10), (3, 2)]
    # a call that raises keeps nothing, and is made again when asked again
    for _ in range(2):
        with pytest.raises(ValueError):
            ring.power(2, -1)
    assert (2, -1) not in ring._cache and ring._cache.hits == 1
    assert ring.calls.count((2, -1)) == 2
