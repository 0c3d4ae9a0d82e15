"""The benchmark's tracer and child still find every name they use.

perfbench/tracer.py replaces functions by name at each module that
imports them, and perfbench/child.py imports names of its own; a rename
or deletion there breaks benchmark runs without failing any other test.
The benchmark's oracle, perfbench/workloads.py, reads the answer types
and the command line's text, so its checks of a short query mix and of
the first cli-oneshot questions run here as well.
"""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from bordcalc import cli
from bordcalc.cli import main
from bordcalc.conner_floyd import Geometry
from bordcalc.errors import BordcalcError
from bordcalc.gf2 import GradedPoly
from bordcalc.localized import LaurentRing
from bordcalc.parsing import parse_laurent, parse_presentation
from bordcalc.session import Session
from bordcalc.verify import verify

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = '''
from tracer import Tracer
Tracer().install()
from bordcalc.session import Session
from bordcalc.verify import verify
checks = verify(Session(), 'loc', 2)
assert checks and all(c.passed for c in checks)
'''


def test_tracer_installs_and_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / 'src'), str(ROOT / 'perfbench')]))
    proc = subprocess.run([sys.executable, '-c', SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_child_answers_traced_queries(tmp_path):
    job = {'mode': 'query', 'trace': True, 'spans': str(tmp_path / 'spans.jsonl'),
           'queries': [['member', 'c1*e^-1 + e^-2'], ['member', 'e^-1'],
                       ['nf', 'e*G(1,2)']]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'))
    proc = subprocess.run([sys.executable, str(ROOT / 'perfbench' / 'child.py')],
                          input=json.dumps(job), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)['results']
    assert [r[0] for r in results] == ['found', 'none', 'ok']


def _oracle():
    spec = importlib.util.spec_from_file_location(
        'workloads', ROOT / 'perfbench' / 'workloads.py')
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Oracle()


def test_oracle_accepts_the_answers():
    # perfbench/workloads.py reads Presentation.monos, FormalMonomial and
    # QuotientElem(table, parts); answer as perfbench/child.py does
    oracle = _oracle()
    session = Session()
    mo = session.mo

    def answer(op, text):
        if op == 'nf':
            return 'ok', mo.normal_form(parse_presentation(text, mo)).to_text()
        if op == 'quotient':
            return 'ok', mo.quotient_reduce(parse_presentation(text, mo)).to_text()
        found = mo.member(parse_laurent(text, session.laurent))
        if found is None:
            return 'none', ''
        return 'found', mo.normal_form(found).to_text()

    queries = oracle.query_mix(1, 40)
    assert {q['op'] for q in queries} == {'nf', 'quotient', 'member'}
    for query in queries:
        try:
            status, text = answer(query['op'], query['text'])
        except BordcalcError as exc:
            status, text = type(exc).__name__, str(exc)
        assert oracle.check_query(query, status, text) == 'ok', query


def test_oracle_accepts_the_cli_answers(capsys, monkeypatch):
    # the cli-oneshot oracle parses the text of delta, charnum --ref, phi,
    # loc and compare; the questions run in this process through main
    monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    oracle = _oracle()
    questions = itertools.islice(oracle.cli_oneshot(1), 20)
    kinds = set()
    for item in questions:
        code = main(item['argv'])
        assert oracle.check_cli(item, code, capsys.readouterr().out) == 'ok', item
        kinds.add(item['kind'])
    assert {'delta', 'charnum', 'phi', 'loc', 'compare'} <= kinds


def test_cli_looks_up_what_the_benchmark_replaces(capsys, monkeypatch):
    # perfbench/tracer.py and perfbench/launch.py replace these after
    # import; a table that captured them would bypass the replacements
    monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    called = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(cli._HANDLERS, 'nf', spy('handler', cli._HANDLERS['nf']))
    monkeypatch.setattr(cli, 'parse_presentation', spy('parse', cli.parse_presentation))
    monkeypatch.setattr(cli, 'Session', spy('session', cli.Session))
    assert main(['nf', 'X2']) == 0
    assert capsys.readouterr().out == 'X2\n'
    assert called == ['session', 'handler', 'parse']


def test_what_the_tracer_wraps_still_exists(monkeypatch):
    # perfbench/tracer.py wraps the clearing maps, GradedPoly.__mul__ and
    # every public Geometry method, and reads the sizes of two caches
    for attr in ('clear_denominators', 'eval_cleared'):
        assert callable(vars(LaurentRing)[attr])
    # inherited from SparseSum; the tracer sets it on GradedPoly itself
    assert callable(GradedPoly.__mul__)
    public = {attr for attr, value in vars(Geometry).items()
              if not attr.startswith('_') and callable(value)}
    assert {'phi', 'exact_phi', 'underlying', 'delta', 'dictionary', 'pt_class',
            'bundle_monomials', 'manifold_for_basis', 'catalog_expressions'} <= public
    session = Session()
    assert session.mo._nf_cache == {} and session.geometry._delta_cache == {}
    # verify reaches phi and underlying through the public methods, which
    # the tracer replaces, and not through the walk's memo directly
    called = []
    for attr in ('phi', 'underlying'):
        def spy(self, expr, _fn=getattr(Geometry, attr), _attr=attr):
            called.append(_attr)
            return _fn(self, expr)
        monkeypatch.setattr(Geometry, attr, spy)
    assert all(c.passed for c in verify(session, 'cf-exact', 3))
    assert {'phi', 'underlying'} <= set(called)
    assert session.geometry._delta_cache


def test_each_map_keeps_its_images_in_a_named_cache():
    # the memos a counter of hits and misses reads, one per ring map
    session = Session()
    mo, geo, L = session.mo, session.geometry, session.laurent
    x = mo.G(1, 2) * mo.X(3) + mo.e(2) * mo.X(2)
    mo.localize(x)
    mo.alpha(x)
    # alpha sends e to 0, so e^2*X2 never reaches its cache
    assert len(mo._localize_cache) == 2 and len(mo._alpha_cache) == 1
    expr = geo.catalog_expressions(4)[-1]
    geo.underlying(expr)
    assert expr in geo._walk_cache
    geo.delta(geo.b(2) * geo.b(1))
    assert len(geo._delta_cache) == 1 and geo._fixed_cache
    n, p = L.clear_denominators(L.c(2) * L.e(-1))
    L.eval_cleared(p)
    assert L._clear_c and L._eval_X and L._powers
