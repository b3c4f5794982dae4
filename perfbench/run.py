"""The young-defined benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from src/ as it
stands, nothing is installed.  Workloads (see BENCHMARK.json for why each
was chosen):

  check-standard  `young-defined check-all --profile standard --json`
                  through cli.main; touches all six modules
  pair-sweeps     the 18 registered pairs via harness.run_pair at
                  thorough bounds, plus reconstruction_check(26)
  wide-eval       formulas.defined_set over one universe at N = 31 for
                  three corpus files and seeded cover formulas

Each pass of a workload runs in a fresh single-threaded worker process
(worker.py), one at a time: a closed loop with one caller.  A fresh
process per pass means every pass pays what a user's command pays,
including the prime tables and bit caches the package builds lazily.

--trace 0 makes several set-up-only launches, then at least two passes
and more while the next one is expected to end within --seconds, and
reports the end-to-end metrics as medians over passes.  Times are in
seconds at the reference speed of speed.py: the host's speed is probed
while they are measured, and they are rescaled to what they would read
at that speed.  This process and its workers run on one core, where the
probes run.

  wall_s        first call into young_defined to the verdict (s)
  tuples_per_s  tuples certified, or assignments swept, per second of
                wall_s
  peak_rss_mb   ru_maxrss of the worker (MB)
  setup_s       interpreter launch, import and corpus load (s), median
                over those launches and the passes
  failed_share  operations that raised or disagreed with the expected
                output, over operations attempted; an operation is a
                suite or a defined-set query.  Printed, and carried in
                the result's "failed" and "attempted".

--trace 1 runs one untraced pass and one traced pass, and reports the
per-layer metrics of tracer.py, as measured, not rescaled;
trace.overhead_s is the traced wall_s minus the untraced one.  Spans go
to .perfbench-out/.

Every pass is checked (workloads.py), and every pass of one run must
produce the same report once timing fields are removed.  The last line
of stdout is the JSON result.  The exit code is 0 when a result was
printed, and 2 when the package is missing or a worker could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / 'src'
OUT = ROOT / '.perfbench-out'

sys.path.insert(0, str(HERE))
from inputs import make_inputs  # noqa: E402
from speed import burst_factor  # noqa: E402
from tracer import metric_specs  # noqa: E402

WORKLOADS = ('check-standard', 'pair-sweeps', 'wide-eval')
END_TO_END = (('wall_s', 's'), ('tuples_per_s', '1/s'),
              ('peak_rss_mb', 'MB'), ('setup_s', 's'))
SETUP_LAUNCHES = 30
MIN_PASSES = 2
# every worker is killed by then, so the run ends well inside 180 s
DEADLINE_S = 170


class WorkerError(Exception):
    """A worker could not be started or ended without a result."""


class Runner:
    def __init__(self, workload, inputs, deadline):
        self.workload = workload
        self.inputs = json.dumps(inputs)
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get('PYTHONPATH')
        self.env['PYTHONPATH'] = str(SOURCE) + (os.pathsep + path if path else '')
        # workers import from cached bytecode, as an installed package does,
        # whatever the caller's environment says; the cache stays in OUT
        self.env.pop('PYTHONDONTWRITEBYTECODE', None)
        self.env['PYTHONPYCACHEPREFIX'] = str(OUT / 'pycache')

    def _start(self, extra):
        command = [sys.executable, str(HERE / 'worker.py'),
                   '--workload', self.workload] + extra
        return subprocess.Popen(command, cwd=str(ROOT), env=self.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)

    def _attend(self, extra, feed):
        """Start a worker; return (set-up seconds at the reference speed,
        result line or None).  The host's speed is probed just before the
        launch and just after ``ready``, while the worker waits."""
        before = burst_factor()
        started = time.perf_counter()
        proc = self._start(extra)
        timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()),
                                proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - started
            setup *= (before + burst_factor()) / 2
            if feed:
                proc.stdin.write(self.inputs)
            proc.stdin.close()
            rest = proc.stdout.read()
            code = proc.wait()
        except BrokenPipeError:
            code = proc.wait()
            rest = ''
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != 'ready' or code != 0:
            raise WorkerError('worker for %s exited with %s before a result'
                              % (self.workload, code))
        lines = rest.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else None)

    def setup_only(self):
        setup, _ = self._attend(['--setup-only'], feed=False)
        return setup

    def run(self, trace_path=None):
        started = time.perf_counter()
        extra = ['--trace', str(trace_path)] if trace_path else []
        setup, result = self._attend(extra, feed=True)
        if result is None:
            raise WorkerError('worker for %s printed no result' % self.workload)
        result['setup_s'] = setup
        result['duration_s'] = time.perf_counter() - started
        return result


def passes_untraced(runner, seconds):
    """At least MIN_PASSES, then more while the next is expected to fit."""
    results = []
    began = time.perf_counter()
    while True:
        result = runner.run()
        results.append(result)
        now = time.perf_counter()
        expected_end = now + result['duration_s']
        if expected_end > runner.deadline:
            break
        if len(results) >= MIN_PASSES and expected_end - began > seconds:
            break
    return results


def summarize(workload, seed, results, setups, trace):
    attempted = sum(r['attempted'] for r in results)
    failed = sum(r['failed'] for r in results)
    digests = [r['digest'] for r in results]
    # a pass whose report differs from the first pass's is wrong as a whole
    for result in results[1:]:
        if result['digest'] != digests[0] or result['digest'] is None:
            failed += result['attempted'] - result['failed']
            result['failures'].append('report differs from the first pass')
    failed = min(failed, attempted)
    for index, result in enumerate(results):
        for failure in result['failures']:
            print('pass %d: %s' % (index + 1, failure), file=sys.stderr)

    if trace:
        untraced, traced = results
        values = dict(traced['layers'])
        values['trace.wall_s'] = traced['wall_s']
        values['trace.overhead_s'] = traced['wall_s'] - untraced['wall_s']
        metrics = {name: {'value': values[name], 'unit': unit}
                   for name, unit in metric_specs()}
    else:
        values = {
            'wall_s': statistics.median(r['reference_s'] for r in results),
            'tuples_per_s': statistics.median(
                r['tuples'] / r['reference_s'] for r in results),
            'peak_rss_mb': statistics.median(r['peak_rss_mb'] for r in results),
            'setup_s': statistics.median(setups),
        }
        metrics = {name: {'value': values[name], 'unit': unit}
                   for name, unit in END_TO_END}

    print('%s seed %d: %d pass(es)%s, %d of %d operations failed'
          % (workload, seed, len(results), ' (untraced, traced)' if trace else '',
             failed, attempted))
    print('  pass wall_s as measured: %s'
          % ', '.join('%.3f' % r['wall_s'] for r in results))
    if not trace:
        print('  pass wall_s at the reference speed: %s'
              % ', '.join('%.3f' % r['reference_s'] for r in results))
    for name, metric in metrics.items():
        print('  %-48s %18.6f %s' % (name, metric['value'], metric['unit']))
    print('  %-48s %18.6f %s' % ('failed_share', failed / attempted, 'ratio'))
    return {'correct': failed == 0, 'attempted': attempted, 'failed': failed,
            'metrics': metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', choices=WORKLOADS, required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / 'young_defined' / '__init__.py').is_file():
        print('error: no package at %s; run from a checkout of the repository'
              % SOURCE, file=sys.stderr)
        return 2
    # one core for this process and its workers, so that the speed probes
    # run where the workers do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + DEADLINE_S
    runner = Runner(args.workload, make_inputs(args.workload, args.seed),
                    deadline)
    try:
        setups = [runner.setup_only() for _ in range(SETUP_LAUNCHES)]
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / ('%s-seed%d-trace.json' % (args.workload,
                                                          args.seed))
            results = [runner.run(), runner.run(trace_path)]
        else:
            results = passes_untraced(runner, args.seconds)
    except WorkerError as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    setups += [r['setup_s'] for r in results]
    document = summarize(args.workload, args.seed, results, setups, args.trace)
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
