"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads pair-sweeps wide-eval \
        --seeds 11-20 --seconds 30 [--out FILE]

Runs run.py once per workload and seed, one run at a time, from the root
of the checkout, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles over the median.  With --out the runs and
the summary are written as JSON, the form perfbench/baseline.json uses.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    first, _, last = text.partition('-')
    return list(range(int(first), int(last or first) + 1))


def summarize(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {'unit': unit, 'median': statistics.median(values), 'q1': q1,
            'q3': q3, 'spread': (q3 - q1) / statistics.median(values),
            'runs': values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workloads', nargs='+', required=True)
    parser.add_argument('--seeds', type=seed_list, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--out')
    args = parser.parse_args()

    document = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / 'run.py'), '--workload', workload,
                 '--seed', str(seed), '--seconds', str(args.seconds),
                 '--trace', '0'],
                cwd=str(HERE.parent), capture_output=True, text=True,
                check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print('%s seed %d: %s' % (workload, seed, ', '.join(
                '%s %.6g' % (name, metric['value'])
                for name, metric in sorted(runs[-1]['metrics'].items()))),
                flush=True)
        summary = {'seeds': args.seeds,
                   'attempted': [run['attempted'] for run in runs],
                   'failed': [run['failed'] for run in runs]}
        for name in sorted(runs[0]['metrics']):
            summary[name] = summarize(
                [run['metrics'][name]['value'] for run in runs],
                runs[0]['metrics'][name]['unit'])
            print('  %-14s median %-12.6g spread %.4f'
                  % (name, summary[name]['median'], summary[name]['spread']))
        document[workload] = summary
    if args.out:
        with open(args.out, 'w', encoding='utf-8') as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 0


if __name__ == '__main__':
    sys.exit(main())
