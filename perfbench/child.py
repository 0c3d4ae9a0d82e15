"""The measured process: a fresh interpreter that sees only its job's text.

Reads one JSON job on stdin and writes one JSON result on stdout.

    {"mode": "setup"}
        import bordcalc and build a Session, nothing else
    {"mode": "verify", "degree": 8, "trace": false}
        one verify sweep: the suites called in order on one session, which
        is what verify(session, 'all', degree) does, each suite timed
    {"mode": "query", "queries": [[op, text], ...], "trace": false}
        answer queries in order through one Session, as a stdin batch
        would

Every result carries t0 (when the import started), import_s, session_s,
the peak RSS and the machine-speed probes (speed.py) taken around the
measured work; timed work carries its start next to its duration. A job with
"trace": true and "spans": path adds the tracer's summary, its counters
and cache sizes, and appends the raw spans to path.
"""

import json
import resource
import sys
import time

from speed import Prober

# probes after Session(), to scale the set-up time
SETUP_PROBES = 3
# probes after a verify sweep: as many as were taken before its dearest
# suite, cf-exact, so that the sweep's scale weighs the machine's speed
# after it as much as before it
SWEEP_END_PROBES = 10


def _run_verify(session, job, out, prober):
    from bordcalc.verify import SUITES, verify
    degree = job['degree']
    checks = []
    suite_s = {}
    for suite in SUITES:
        prober(force=True)
        t = time.perf_counter()
        checks.extend(verify(session, suite, degree))
        suite_s[suite] = [t, time.perf_counter() - t]
    for _ in range(SWEEP_END_PROBES):
        prober(force=True)
    out['sweep_s'] = sum(d for _, d in suite_s.values())
    out['suite_s'] = suite_s
    out['checks'] = [[c.name, c.passed] for c in checks]


def _run_queries(session, job, out, prober):
    from bordcalc import parsing
    from bordcalc.errors import BordcalcError
    from bordcalc.presentation import UNDECIDED
    mo = session.mo

    def answer(op, text):
        # parsing is looked up on the module so a tracer can wrap it
        if op == 'nf':
            return 'ok', mo.normal_form(parsing.parse_presentation(text, mo)).to_text()
        if op == 'quotient':
            return 'ok', mo.quotient_reduce(parsing.parse_presentation(text, mo)).to_text()
        if op == 'member':
            found = mo.member(parsing.parse_laurent(text, session.laurent))
            if found is UNDECIDED:
                return 'undecided', ''
            if found is None:
                return 'none', ''
            return 'found', mo.normal_form(found).to_text()
        raise ValueError('unknown op %r' % op)

    results = []
    for op, text in job['queries']:
        prober()
        t = time.perf_counter()
        try:
            status, text_out = answer(op, text)
        except BordcalcError as exc:
            status, text_out = type(exc).__name__, str(exc)
        results.append([status, text_out, time.perf_counter() - t, t])
    prober(force=True)
    out['results'] = results


def main():
    t0 = time.perf_counter()
    import bordcalc.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from bordcalc.session import Session
    t1 = time.perf_counter()
    session = Session()
    t2 = time.perf_counter()
    prober = Prober()
    for _ in range(SETUP_PROBES):
        prober(force=True)
    out = {'t0': t0, 'import_s': t1 - t0, 'session_s': t2 - t1,
           'module': bordcalc.cli.__file__}
    job = json.load(sys.stdin)
    tracer = None
    if job.get('trace'):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if job['mode'] == 'verify':
        _run_verify(session, job, out, prober)
    elif job['mode'] == 'query':
        _run_queries(session, job, out, prober)
    elif job['mode'] != 'setup':
        raise ValueError('unknown mode %r' % job['mode'])
    out['rss_kb'] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out['probes'] = prober.probes
    if tracer is not None:
        out['trace'] = tracer.report([session], job['spans'])
    json.dump(out, sys.stdout)


if __name__ == '__main__':
    main()
