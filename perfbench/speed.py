"""Host speed, measured with a fixed probe, to rescale measured times.

The benchmark was built on a shared virtual machine whose speed is not
steady: a CPU-bound Python loop runs up to ~1.5x slower while a
neighbour keeps the core busy, and the share of slow time drifts by
~30% over minutes.  Medians over passes cannot remove drift that lasts
longer than a run, so every time the benchmark reports is rescaled to a
reference speed instead.

The probe is a short pure-Python loop of dict, tuple-comparison and
list work, the kind of interpreter work the package's inner loops do,
but none of the package's code, so a change to the package does not
change the probe.  REFERENCE_S is what one probe takes at the reference
speed (about the host's uncontended speed), so a rescaled time reads
close to the wall time of an uncontended run.

Sampler times the probe every INTERVAL_S of a timed region from a
SIGALRM handler, on the thread doing the work.  Each stretch of work
between two probes is rescaled by REFERENCE_S over the time of the
probe that ends it, and the probes' own time is left out.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 2.0e-4
BURST = 31

_KEYS = [tuple(range(k % 5 + 1)) for k in range(64)]


def probe():
    """The fixed unit of work whose time measures the host's speed."""
    counts = {}
    for i in range(600):
        key = _KEYS[i & 63]
        counts[key] = counts.get(key, 0) + len(key)
        if key < _KEYS[(i * 7) & 63]:
            counts[key] -= 1
    return [value for value in counts.values() if value > 0]


def burst_factor():
    """REFERENCE_S over the median time of BURST probes run now: the
    factor that rescales a time measured around this moment."""
    times = []
    for _ in range(BURST):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Sampler:
    """A timed region that probes the host's speed as it runs.

    with Sampler() as sampler: run()
    sampler.work_s       seconds the region ran, probes left out
    sampler.reference_s  the same work in seconds at the reference speed
    """

    def __init__(self):
        self.segments = []  # (work seconds, seconds of the probe after it)
        self._mark = None
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.segments.append((start - self._mark, end - start))
        self._mark = end

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # the last stretch, rescaled by a probe of its own
        return False

    @property
    def work_s(self):
        return sum(work for work, _ in self.segments)

    @property
    def reference_s(self):
        return sum(work * REFERENCE_S / probe_s
                   for work, probe_s in self.segments)
