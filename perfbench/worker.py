"""One run of one workload, in a fresh single-threaded process.

Started by run.py with the package on PYTHONPATH.  It imports
young_defined, loads the formula corpus and prints ``ready`` (run.py
times set-up up to that line), then reads the workload inputs as JSON on
stdin, runs the workload once, checks it, and prints one JSON result
line.  With --setup-only it waits for stdin to close after ``ready`` and
stops.  With --trace PATH the run is traced and the spans are written to
PATH; otherwise speed.Sampler probes the host's speed while the run is
timed.
"""

import argparse
import json
import resource
import sys
import time

from speed import Sampler
from workloads import WORKLOADS, load_corpus


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--workload', choices=sorted(WORKLOADS), required=True)
    parser.add_argument('--setup-only', action='store_true')
    parser.add_argument('--trace', metavar='PATH')
    args = parser.parse_args()
    corpus = load_corpus()
    print('ready', flush=True)
    if args.setup_only:
        sys.stdin.read()  # stay idle while run.py probes the host's speed
        return 0
    inputs = json.load(sys.stdin)
    run, check = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.start()
    if tracer:
        start = time.perf_counter()
        raw = run(inputs, corpus)
        wall = time.perf_counter() - start
        tracer.stop()
        reference = None
    else:
        with Sampler() as sampler:
            raw = run(inputs, corpus)
        wall = sampler.work_s
        reference = sampler.reference_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = check(raw, inputs)
    result = {
        'wall_s': wall,
        'reference_s': reference,
        'peak_rss_mb': peak_rss_mb,
        'tuples': outcome.tuples,
        'attempted': outcome.attempted,
        'failed': len(outcome.failures),
        'failures': outcome.failures[:10],
        'digest': outcome.digest,
    }
    if tracer:
        result['layers'] = tracer.metrics()
        tracer.write(args.trace, {'workload': args.workload, 'wall_s': wall})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == '__main__':
    sys.exit(main())
