"""One CLI question in a fresh interpreter: `python3 launch.py <bordcalc args>`.

Runs `bordcalc.cli.main` on the arguments exactly as the `bordcalc`
console script would, and exits with its code. The CLI's output goes to
stdout untouched; one JSON line on stderr reports the import time, the
Session construction time, the peak RSS and, with PERFBENCH_TRACE set to
a file path in the environment, the tracer's report; the raw spans are
then appended to that file.
"""

import json
import os
import resource
import sys
import time


def main():
    t0 = time.perf_counter()
    import bordcalc.cli as cli
    t1 = time.perf_counter()
    build = cli.Session
    sessions = []
    session_s = []

    def timed_session(*args, **kwargs):
        t = time.perf_counter()
        session = build(*args, **kwargs)
        session_s.append(time.perf_counter() - t)
        sessions.append(session)
        return session

    cli.Session = timed_session
    tracer = None
    spans_path = os.environ.get('PERFBENCH_TRACE')
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    report = {'import_s': t1 - t0, 'session_s': sum(session_s), 'module': cli.__file__,
              'rss_kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report['trace'] = tracer.report(sessions, spans_path)
    sys.stderr.write('\n' + json.dumps(report) + '\n')
    return code


if __name__ == '__main__':
    sys.exit(main())
