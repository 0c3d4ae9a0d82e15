"""bordcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Workloads (see README.md for why each was chosen):

    verify-d8    verify(Session(), 'all', 8) in one fresh interpreter per sweep
    query-mix    a seeded stream of nf / quotient / member questions, one Session
    cli-oneshot  one fresh `bordcalc` CLI invocation per question

With --trace 0 the workload runs untraced and the last line of stdout is
the end-to-end result. The work of a run is fixed by the seed and by S:
as many sweeps, blocks of questions or invocations as take S seconds at
the speed of the commit that defined the benchmark, so the same seed
always attempts the same operations. Times are scaled to a nominal
machine speed by the probes of speed.py; the raw wall times are printed
and recorded beside them. With --trace 1 a fixed prefix of the
same inputs runs four times (untraced, traced, untraced, traced) to give
per-layer numbers, the tracing overhead and the counter determinism gate. Lines
before the last are a readable report; the full record, and the raw
spans of traced runs, go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Prober, Scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'
OUT = BENCH / 'out'

WORKLOADS = ('verify-d8', 'query-mix', 'cli-oneshot')
VERIFY_DEGREE = 8
SETUP_PROBES = 10
# nominal seconds of one unit of work when the benchmark was defined: a
# run does as many units as fill --seconds at that speed
SWEEP_S = 4.0
QUERY_BLOCK_S = 4.1
CLI_BLOCK_S = 1.9
# query-mix blocks come in threes, over which every non-member degree
# takes each of its top e-exponents once
QUERY_BLOCK_GROUP = 3
# fixed traced prefixes: counts must repeat, so they cannot depend on speed
TRACE_QUERIES = 210
TRACE_CLI = 60
# pass order of a traced run: untraced and traced alternate, so a drift in
# the machine's speed does not land on one side of the overhead
UNTRACED = (0, 2)
TRACED = (1, 3)
CHILD_TIMEOUT = 150
CLI_TIMEOUT = 60

SUITES = ('loc', 'seq', 'basis', 'gamma', 'geomcomp', 'trobs', 'cf-exact', 'compare')
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [('charnum.%s.%s' % (fn, part), unit, 'lower')
     for fn in ('sw_numbers', 'identify_in_nbo1', 'identify_in_n')
     for part, unit in (('calls', 'count'), ('self_s', 's'))]
    + [('charnum.sw_per_identify', 'ratio', 'lower')]
    + [('conner_floyd.%s.%s' % (fn, part), unit, 'lower')
       for fn in ('delta', 'exact_phi', 'torus_class', 'phi', 'dictionary')
       for part, unit in (('calls', 'count'), ('self_s', 's'))]
    + [('conner_floyd.delta.monomials', 'count', 'lower'),
       ('conner_floyd.delta_cache.entries', 'count', 'lower'),
       ('conner_floyd.delta_cache.hit_share', 'ratio', 'higher')]
    + [('presentation.%s.%s' % (fn, part), unit, 'lower')
       for fn in ('member', 'localize', 'basis_monomials_window', 'normal_form',
                  'gamma', 'quotient_reduce')
       for part, unit in (('calls', 'count'), ('self_s', 's'))]
    + [('presentation.member.found', 'count', 'higher'),
       ('presentation.member.none', 'count', 'higher'),
       ('presentation.member.undecided', 'count', 'lower'),
       ('presentation.member.raised', 'count', 'lower'),
       ('presentation.member.attempts_per_call', 'ratio', 'lower'),
       ('presentation.basis_monomials_window.candidates', 'count', 'lower'),
       ('presentation.nf_cache.entries', 'count', 'lower')]
    + [('gf2.%s.%s' % (fn, part), unit, 'lower')
       for fn in ('solve_sets', 'rank_sets')
       for part, unit in (('calls', 'count'), ('self_s', 's'), ('rows', 'count'),
                          ('cols', 'count'))]
    + [('gf2.mul.calls', 'count', 'lower'), ('gf2.mul.self_s', 's', 'lower')]
    + [('localized.%s.%s' % (fn, part), unit, 'lower')
       for fn in ('clear_denominators', 'eval_cleared')
       for part, unit in (('calls', 'count'), ('self_s', 's'))]
    + [('verify.%s.s' % suite, 's', 'lower') for suite in SUITES]
    + [('cli.import_s', 's', 'lower'), ('cli.handler_s', 's', 'lower'),
       ('parsing.parse.calls', 'count', 'lower'), ('parsing.parse.self_s', 's', 'lower'),
       ('session.init_s', 's', 'lower')]
    + [('trace.overhead_s', 's', 'lower'), ('trace.overhead_frac', 'ratio', 'lower'),
       ('trace.spans', 'count', 'lower')])


class BenchError(Exception):
    """The benchmark itself cannot run: no checkout, or a child broke."""


# --- children ----------------------------------------------------------------

def _env(spans=None):
    # children read bordcalc's bytecode from src/, written once per checkout
    # by build(), whatever the caller's environment says about bytecode
    env = {k: v for k, v in os.environ.items()
           if k not in ('PYTHONPATH', 'BORDCALC_CONFIG', 'PERFBENCH_TRACE',
                        'PYTHONDONTWRITEBYTECODE', 'PYTHONPYCACHEPREFIX')}
    env['PYTHONPATH'] = str(SRC)
    if spans is not None:
        env['PERFBENCH_TRACE'] = str(spans)
    return env


def _check_module(path):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError('bordcalc was imported from %s, not from %s' % (path, SRC))


def build():
    """Compile src/ to bytecode, as installing bordcalc would, so no measured
    import compiles it."""
    proc = subprocess.run([sys.executable, '-m', 'compileall', '-q', str(SRC)],
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError('compiling %s failed: %s' % (SRC, (proc.stdout + proc.stderr)[-2000:]))


def run_child(job):
    """Run child.py on one JSON job in a fresh interpreter; its JSON result."""
    proc = subprocess.run([sys.executable, str(BENCH / 'child.py')],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError('child failed (%d): %s' % (proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout)
    _check_module(out['module'])
    return out


def run_cli(argv, spans=None):
    """One CLI invocation through launch.py: (exit code, stdout, report, wall s).

    Traced when spans names the file its raw spans are appended to.
    """
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / 'launch.py')] + argv,
                              capture_output=True, text=True, env=_env(spans),
                              cwd=ROOT, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, '', None, time.perf_counter() - t
    wall = time.perf_counter() - t
    lines = proc.stderr.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    if report is None:
        raise BenchError('launcher gave no report (%d): %s'
                         % (proc.returncode, proc.stderr[-2000:]))
    _check_module(report['module'])
    return proc.returncode, proc.stdout, report, wall


def units(seconds, unit_s, group=1):
    """How many units of work of nominal length unit_s fill `seconds`; a
    positive multiple of group."""
    return group * max(1, round(seconds / unit_s / group))


def child_setup(res):
    """(scaled, raw) set-up time of a child: import bordcalc, build a Session."""
    raw = res['import_s'] + res['session_s']
    return Scale(res['probes'])(res['t0'], raw), raw


def setup_probes(count):
    """Set-up times of interpreters that only import bordcalc and build a Session."""
    return [child_setup(run_child({'mode': 'setup'})) for _ in range(count)]


# --- statistics -----------------------------------------------------------------

def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method='inclusive')[8]


def summarize(run):
    """End-to-end metrics of an untraced run, plus the report-only figures.

    run holds (scaled, raw) pairs; the metrics are the scaled figures, and
    the raw wall-clock ones are reported beside them.
    """
    def figures(k, prefix=''):
        lat = [pair[k] for pair in run['latency_s']]
        setup = [pair[k] for pair in run['setup_s']]
        busy = sum(pair[k] for pair in run['busy_s'])
        return {
            prefix + 'setup_s': (statistics.median(setup), 's', len(setup)),
            prefix + 'query_qps': (run['ops'] / busy, '1/s', run['ops']),
            prefix + 'query_p50_ms': (1000 * statistics.median(lat), 'ms', len(lat)),
            prefix + 'query_p90_ms': (1000 * p90(lat), 'ms', len(lat)),
        }

    metrics = figures(0)
    extra = {
        'failed_frac': (run['failed'] / run['attempted'], 'ratio', run['attempted']),
        'peak_rss_mb': (max(run['rss_kb']) / 1024, 'MB', len(run['rss_kb'])),
    }
    if 'verify_s' in run:
        sweeps = [pair[0] for pair in run['verify_s']]
        extra['verify_s'] = (statistics.median(sweeps), 's', len(sweeps))
    extra.update(figures(1, 'raw.'))
    return metrics, extra


# --- workloads: untraced ------------------------------------------------------------

def verify_d8(seconds):
    """Sweeps, each in a fresh interpreter, as many as fill `seconds`; seedless."""
    run = {'setup_s': [], 'verify_s': [], 'rss_kb': [],
           'attempted': 0, 'failed': 0, 'wrong': 0, 'failures': {}}
    for _ in range(units(seconds, SWEEP_S)):
        res = run_child({'mode': 'verify', 'degree': VERIFY_DEGREE})
        scale = Scale(res['probes'])
        run['setup_s'].append(child_setup(res))
        run['verify_s'].append((sum(scale(t, d) for t, d in res['suite_s'].values()),
                                res['sweep_s']))
        run['rss_kb'].append(res['rss_kb'])
        for name, passed in res['checks']:
            run['attempted'] += 1
            if not passed:
                run['failed'] += 1
                run['failures'][name] = run['failures'].get(name, 0) + 1
    # an operation is a check; a latency sample is one sweep, the answer
    # `bordcalc verify` waits for
    run['ops'] = run['attempted']
    run['latency_s'] = run['busy_s'] = run['verify_s']
    return run


def _tally(run, kind, verdict):
    run['attempted'] += 1
    if verdict != 'ok':
        run['failed'] += 1
        if verdict.startswith('wrong'):
            run['wrong'] += 1
        key = '%s: %s' % (kind, verdict)
        run['failures'][key] = run['failures'].get(key, 0) + 1


def query_mix(seed, seconds, oracle):
    """One child answers as many blocks of the seeded stream as fill `seconds`."""
    blocks = units(seconds, QUERY_BLOCK_S, QUERY_BLOCK_GROUP)
    queries = oracle.query_mix(seed, blocks * oracle.query_block)
    res = run_child({'mode': 'query', 'queries': [[q['op'], q['text']] for q in queries]})
    return _query_run(res, queries, oracle)


def _query_run(res, queries, oracle):
    scale = Scale(res['probes'])
    latency = [(scale(t, d), d) for _, _, d, t in res['results']]
    run = {'setup_s': [child_setup(res)], 'rss_kb': [res['rss_kb']],
           'latency_s': latency, 'busy_s': latency, 'attempted': 0, 'failed': 0,
           'wrong': 0, 'failures': {}, 'answers': [r[:2] for r in res['results']]}
    for query, (status, answer, _, _) in zip(queries, res['results']):
        kind = {'found': 'member', 'none': 'non-member'}.get(query['expect'], query['op'])
        _tally(run, kind, oracle.check_query(query, status, answer))
    run['ops'] = len(res['results'])
    return run


def cli_oneshot(items, oracle, spans=None):
    """One CLI invocation per item, in turn; the parent probes the machine's
    speed before each and after the last."""
    run = {'setup_s': [], 'rss_kb': [], 'attempted': 0, 'failed': 0,
           'wrong': 0, 'failures': {}, 'answers': [], 'reports': []}
    prober = Prober(every=0)
    done = []
    for item in items:
        prober()
        t = time.perf_counter()
        code, out, report, wall = run_cli(item['argv'], spans)
        done.append((item, code, out, report, t, wall))
    prober()
    scale = Scale(prober.probes)
    latency = []
    for item, code, out, report, t, wall in done:
        factor = scale.factor(t, wall)
        latency.append((wall * factor, wall))
        if report is not None:
            setup = report['import_s'] + report['session_s']
            run['setup_s'].append((setup * factor, setup))
            run['rss_kb'].append(report['rss_kb'])
            run['reports'].append(report)
        verdict = 'timeout' if code is None else oracle.check_cli(item, code, out)
        _tally(run, item['kind'], verdict)
        run['answers'].append([code, out])
    run['ops'] = len(done)
    run['latency_s'] = run['busy_s'] = latency
    return run


# --- workloads: traced -----------------------------------------------------------------

def _layer_metrics(reports, walls, suite_s=None):
    """Per-layer metrics from the trace reports of one traced pass.

    walls are the scaled times of the four passes; the overhead compares
    the median traced pass with the median untraced one.
    """
    calls, self_s, counters, caches = {}, {}, {}, {}
    spans = 0
    for rep in reports:
        for name, row in rep['summary'].items():
            calls[name] = calls.get(name, 0) + row['calls']
            self_s[name] = self_s.get(name, 0.0) + row['self_s']
        for key, n in rep['counters'].items():
            counters[key] = counters.get(key, 0) + n
        for key, n in rep['caches'].items():
            caches[key] = caches.get(key, 0) + n
        spans += rep['spans']
    out = {}
    for name, unit, _ in PER_LAYER:
        base, _, part = name.rpartition('.')
        if part == 'calls':
            out[name] = calls.get(base, 0)
        elif part == 'self_s':
            out[name] = self_s.get(base, 0.0)
        elif name in counters:
            out[name] = counters[name]
        elif name in caches:
            out[name] = caches[name]
        elif unit == 'count':
            out[name] = counters.get(name, 0)
    identify = calls.get('charnum.identify_in_nbo1', 0) + calls.get('charnum.identify_in_n', 0)
    out['charnum.sw_per_identify'] = (calls.get('charnum.sw_numbers', 0) / identify
                                      if identify else 0.0)
    monomials = counters.get('conner_floyd.delta.monomials', 0)
    misses = counters.get('conner_floyd.delta.identify_calls', 0)
    out['conner_floyd.delta_cache.hit_share'] = 1 - misses / monomials if monomials else 0.0
    member_calls = calls.get('presentation.member', 0)
    out['presentation.member.attempts_per_call'] = (
        calls.get('presentation.basis_monomials_window', 0) / member_calls
        if member_calls else 0.0)
    out['presentation.member.raised'] = counters.get('presentation.member.raised', 0)
    for suite in SUITES:
        out['verify.%s.s' % suite] = (suite_s or {}).get(suite, 0.0)
    out['cli.handler_s'] = sum(row['total_s'] for rep in reports
                               for name, row in rep['summary'].items()
                               if name == 'cli.handler')
    untraced = statistics.median(walls[k] for k in UNTRACED)
    overhead = statistics.median(walls[k] for k in TRACED) - untraced
    out['trace.overhead_s'] = overhead
    out['trace.overhead_frac'] = overhead / untraced
    out['trace.spans'] = spans
    return out


def _counts(reports):
    """Everything that must repeat exactly between two traced passes."""
    out = {}
    for rep in reports:
        for name, row in rep['summary'].items():
            out['calls:' + name] = out.get('calls:' + name, 0) + row['calls']
        for key, n in list(rep['counters'].items()) + list(rep['caches'].items()):
            out[key] = out.get(key, 0) + n
    return out


def traced(workload, seed, oracle, name):
    """Untraced, traced, untraced and traced again on one fixed prefix.

    The raw spans of traced pass k go to perfbench/out/<name>.pass<k>.spans.jsonl.gz.
    """
    OUT.mkdir(exist_ok=True)
    spans = [None, None, None, None]
    for k in TRACED:
        spans[k] = OUT / ('%s.pass%d.spans.jsonl.gz' % (name, k))
        spans[k].unlink(missing_ok=True)
    first = TRACED[0]

    def job_for(job, k):
        return job if spans[k] is None else dict(job, trace=True, spans=str(spans[k]))

    if workload == 'verify-d8':
        job = {'mode': 'verify', 'degree': VERIFY_DEGREE}
        passes = [run_child(job_for(job, k)) for k in range(4)]
        walls = [sum(Scale(p['probes'])(t, d) for t, d in p['suite_s'].values())
                 for p in passes]
        answers = [p['checks'] for p in passes]
        reports = [[passes[k]['trace']] for k in TRACED]
        layer = _layer_metrics(reports[0], walls,
                               {k: d for k, (_, d) in passes[first]['suite_s'].items()})
        layer['cli.import_s'] = passes[first]['import_s']
        layer['session.init_s'] = passes[first]['session_s']
        failed = [sum(not ok for _, ok in a) for a in answers]
        attempted = len(answers[0])
        wrong = 0
    elif workload == 'query-mix':
        queries = oracle.query_mix(seed, TRACE_QUERIES)
        job = {'mode': 'query', 'queries': [[q['op'], q['text']] for q in queries]}
        raw = [run_child(job_for(job, k)) for k in range(4)]
        runs = [_query_run(r, queries, oracle) for r in raw]
        walls = [sum(scaled for scaled, _ in r['busy_s']) for r in runs]
        answers = [r['answers'] for r in runs]
        reports = [[raw[k]['trace']] for k in TRACED]
        layer = _layer_metrics(reports[0], walls)
        layer['cli.import_s'] = raw[first]['import_s']
        layer['session.init_s'] = raw[first]['session_s']
        failed = [r['failed'] for r in runs]
        attempted = runs[0]['attempted']
        wrong = max(r['wrong'] for r in runs)
    else:
        stream = oracle.cli_oneshot(seed)
        items = [next(stream) for _ in range(TRACE_CLI)]
        runs = [cli_oneshot(items, oracle, spans[k]) for k in range(4)]
        walls = [sum(scaled for scaled, _ in r['busy_s']) for r in runs]
        answers = [r['answers'] for r in runs]
        reports = [[rep['trace'] for rep in runs[k]['reports']] for k in TRACED]
        layer = _layer_metrics(reports[0], walls)
        layer['cli.import_s'] = statistics.median(
            rep['import_s'] for rep in runs[first]['reports'])
        layer['session.init_s'] = statistics.median(
            rep['session_s'] for rep in runs[first]['reports'])
        failed = [r['failed'] for r in runs]
        attempted = runs[0]['attempted']
        wrong = max(r['wrong'] for r in runs)
    gate = []
    if any(a != answers[0] for a in answers[1:]):
        gate.append('answers differ between passes')
    if len(set(failed)) != 1:
        gate.append('failed counts differ between passes: %s' % failed)
    once, twice = _counts(reports[0]), _counts(reports[1])
    for key in sorted(set(once) | set(twice)):
        if once.get(key, 0) != twice.get(key, 0):
            gate.append('count %s differs: %s vs %s'
                        % (key, once.get(key, 0), twice.get(key, 0)))
    return {'layer': layer, 'attempted': attempted, 'failed': failed[0], 'wrong': wrong,
            'gate': gate, 'walls': walls}


# --- main ------------------------------------------------------------------------------------

def _loadavg():
    try:
        with open('/proc/loadavg') as fh:
            load = fh.read().strip()
    except OSError:
        load = None
    return load


def _write(name, record):
    OUT.mkdir(exist_ok=True)
    with open(OUT / (name + '.json'), 'w') as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU.

    The host's CPUs change speed independently of each other, every few
    seconds; on one CPU the speed probes time the CPU the measured work
    runs on.
    """
    if hasattr(os, 'sched_setaffinity'):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass  # not allowed here: run unpinned


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=30)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / 'bordcalc' / '__init__.py').is_file():
        print('error: no bordcalc source at %s; run from a source checkout' % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import Oracle

    context = {'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds,
               'trace': args.trace, 'nproc': os.cpu_count(),
               'python': platform.python_version(), 'loadavg_start': _loadavg()}
    oracle = None if args.workload == 'verify-d8' else Oracle()
    name = '%s-seed%d-trace%d' % (args.workload, args.seed, args.trace)
    pin_to_one_cpu()
    try:
        build()
        if args.trace:
            result = traced(args.workload, args.seed, oracle, name)
        else:
            # half the probes before the workload and half after it, so
            # that one slow moment of the machine does not hold them all
            probes = setup_probes(SETUP_PROBES // 2)
            if args.workload == 'verify-d8':
                result = verify_d8(args.seconds)
            elif args.workload == 'query-mix':
                result = query_mix(args.seed, args.seconds, oracle)
            else:
                stream = oracle.cli_oneshot(args.seed)
                count = units(args.seconds, CLI_BLOCK_S) * oracle.cli_block
                result = cli_oneshot([next(stream) for _ in range(count)], oracle)
            probes += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
            result['setup_s'] = probes + result['setup_s']
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 1
    context['loadavg_end'] = _loadavg()

    print('context: %s' % json.dumps(context, sort_keys=True))
    if args.trace:
        metrics = {k: {'value': result['layer'][k], 'unit': unit}
                   for k, unit, _ in PER_LAYER}
        for k, m in metrics.items():
            print('  %-48s %14.6g %s' % (k, m['value'], m['unit']))
        print('  pass times, scaled (untraced, traced, untraced, traced): %s'
              % ', '.join('%.3f s' % w for w in result['walls']))
        for problem in result['gate']:
            print('  determinism gate: %s' % problem)
        correct = not result['gate'] and result['wrong'] == 0
        failed = result['failed'] + (len(result['gate']) > 0)
        _write(name, {'context': context, 'metrics': metrics, 'gate': result['gate'],
                      'walls': result['walls']})
        final = {'correct': correct, 'attempted': result['attempted'], 'failed': failed,
                 'metrics': metrics}
    else:
        metrics, extra = summarize(result)
        for k, (v, unit, n) in list(metrics.items()) + list(extra.items()):
            print('  %-20s %14.6g %-6s (%d samples)' % (k, v, unit, n))
        for reason, n in sorted(result['failures'].items()):
            print('  failed: %d x %s' % (n, reason))
        correct = result['wrong'] == 0
        _write(name, {'context': context, 'failures': result['failures'],
                      'metrics': {k: {'value': v, 'unit': u, 'samples': n}
                                  for k, (v, u, n) in list(metrics.items())
                                  + list(extra.items())}})
        final = {'correct': correct, 'attempted': result['attempted'],
                 'failed': result['failed'],
                 'metrics': {k: {'value': v, 'unit': u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(final))
    return 0


if __name__ == '__main__':
    sys.exit(main())
