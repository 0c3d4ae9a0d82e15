"""Steadiness check: one workload over ten seeds, spread per metric.

    python3 perfbench/steady.py --workload query-mix [--sets 2]

Runs `run.py --trace 0` for seeds 1..10, one run at a time, for
BENCHMARK.json's run_seconds each, and prints every run's result line
with its elapsed time, then for every end-to-end metric the median and
the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. With --sets 2 the seeds
run twice and the second set's median is compared with the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_set(workload, seconds):
    runs = []
    for seed in SEEDS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / 'run.py'), '--workload', workload, '--seed',
             str(seed), '--seconds', str(seconds), '--trace', '0'],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(json.dumps({'workload': workload, 'seed': seed,
                          'elapsed_s': time.perf_counter() - start, 'result': result}),
              flush=True)
    return runs


def main():
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--sets', type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    sets = [one_set(args.workload, spec['run_seconds']) for _ in range(args.sets)]
    for metric in spec['end_to_end']:
        name = metric['name']
        row = []
        for runs in sets:
            values = [r['metrics'][name]['value'] for r in runs]
            row.append((statistics.median(values), spread(values)))
        text = '  '.join('median %.6g spread %.3f' % cell for cell in row)
        if len(row) == 2:
            first, second = row[0][0], row[1][0]
            worse = (second - first) / first
            if metric['better'] == 'higher':
                worse = -worse
            text += '  second set worse by %.3f' % worse
        print('%-14s bound %.2f  %s' % (name, metric['bound'], text))
    failed = sum(r['failed'] for runs in sets for r in runs)
    attempted = sum(r['attempted'] for runs in sets for r in runs)
    print('failed %d of %d operations; correct in every run: %s'
          % (failed, attempted, all(r['correct'] for runs in sets for r in runs)))


if __name__ == '__main__':
    main()
