"""perfbench/tracer.py wraps the bit-cache builders by name.

install() wraps Universe.down_bits and up_bits and reads _down_bits and
_up_bits to tell a fresh build from a cached one, so renaming any of the
four breaks the traced benchmark pass.  The tracer is installed in a
subprocess, as it rebinds names across the whole package.
"""

import json
import pathlib
import subprocess
import sys

from young_defined.partitions import Universe

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRACED = '''
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from young_defined.partitions import Universe
trace = tracer.Tracer()
tracer.install(trace)
trace.start()
universe = Universe(6)
caches = universe.down_bits(), universe.up_bits(), universe.up_bits()
trace.stop()
print(json.dumps({
    'calls': {name: trace.totals[name].calls
              for name in ('partitions.down_bits', 'partitions.up_bits')},
    'bytes': trace.counts['partitions.bitcache.bytes'],
    'measured': sum(sys.getsizeof(bits) + sum(map(sys.getsizeof, bits))
                    for bits in caches[:2]),
    'caches': caches[:2],
}))
'''


def test_the_tracer_wraps_the_bit_caches_by_name():
    done = subprocess.run(
        [sys.executable, '-c', TRACED, str(ROOT / 'perfbench'),
         str(ROOT / 'src')],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen['calls'] == {'partitions.down_bits': 1,
                             'partitions.up_bits': 2}
    # each cache is measured once, when the wrapper saw it built fresh
    assert seen['bytes'] == seen['measured'] > 0
    untraced = Universe(6)
    assert seen['caches'] == [untraced.down_bits(), untraced.up_bits()]
