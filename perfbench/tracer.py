"""Per-layer tracing of young_defined, installed from outside the package.

The six modules are the layers: partitions, catalog, arithmetization,
formulas, harness and cli.  install() replaces public functions with
timing wrappers and rebinds every module-level name that pointed at the
original, so a call through ``from .partitions import leq`` is traced at
the importing module.  Nothing in the package is edited.

Which calls are traced:

- formulas, harness and cli: every public function, in every namespace
  that holds it (these modules reach each other through attributes such
  as ``formulas.defined_set``, which live in the defining module).
- partitions, catalog and arithmetization: public functions where another
  module imported them, i.e. calls that enter the layer.  Calls inside
  one of these modules are part of that layer's self time, except for
  the names in INTERNAL, which are traced everywhere.
- the registered pairs' oracle and characterization callables, the bit
  cache builders Universe.down_bits / up_bits, and call counts only for
  Partition.__init__ and Universe.ordinal.

Coarse calls (formulas, harness, cli, enumerate_universe and the bit
caches) are kept as spans (name, label, start, end, parent).  The leaf
layers make tens of millions of calls on one run, so those are folded
into per-name totals (calls, seconds, self seconds, failures) instead of
kept one by one.  A layer's self time is the time of its calls minus the
time of the traced calls they made.
"""

import functools
import json
import sys
import time

LAYERS = ('partitions', 'catalog', 'arithmetization', 'formulas', 'harness',
          'cli')
# layers whose calls are few enough to keep as individual spans
SPAN_LAYERS = ('formulas', 'harness', 'cli')
SPAN_NAMES = ('partitions.enumerate_universe', 'partitions.down_bits',
              'partitions.up_bits')
# names also rebound in their own module: calls from inside it that the
# metrics count, and the entry points the workloads call as attributes
INTERNAL = {'partitions': {'lower_covers', 'enumerate_universe'},
            'arithmetization': {'encode', 'decode'},
            'catalog': {'all_pairs'}}

PAIRS = (
    'lemma-3.1-total', 'lemma-3.1-trivial', 'lemma-3.2-rectangular',
    'lemma-3.4-length', 'lemma-3.4-bounded-part',
    'lemma-3.4-rectangular-triple', 'prop-3.5-distinct', 'prop-3.6-part-of-a',
    'prop-3.6-part-of-b', 'prop-3.7-factorial', 'lemma-3.8-same-height',
    'prop-3.9-add', 'prop-3.9-add-geq', 'prop-3.10-frequency',
    'prop-3.10-frequency-leq', 'prop-3.11-height-geq', 'prop-3.12-height-eq',
    'prop-3.13-mult',
)
CORPUS_FILES = ('cover', 'empty', 'maximal-below', 'rectangular', 'totality',
                'triviality')
# harness suites that are neither a pair sweep nor a corpus file, by report
# name ('variant-resolution(a | b)' is reported under its name before '(')
HARNESS_SUITES = ('variant-resolution', 'reconstruction-from-lower-covers',
                  'automorphism-uniqueness', 'arithmetization-roundtrips',
                  'embed-chain-5', 'embed-antichain-5', 'embed-2-crown',
                  'embed-antichain-8-too-low')
SUITE_FUNCTIONS = ('harness.variant_resolution', 'harness.reconstruction_check',
                   'harness.automorphism_report',
                   'harness.arithmetization_report', 'harness.embed_report')


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [
        ('partitions.enumerate_universe.calls', 'count'),
        ('partitions.enumerate_universe.s', 's'),
        ('partitions.universe.elements', 'count'),
        ('partitions.down_bits.s', 's'),
        ('partitions.up_bits.s', 's'),
        ('partitions.ordinal.calls', 'count'),
        ('partitions.bitcache.bytes', 'bytes'),
        ('partitions.leq.calls', 'count'),
        ('partitions.leq.s', 's'),
        ('partitions.lower_covers.calls', 'count'),
        ('partitions.Partition.init.calls', 'count'),
        ('catalog.oracle.calls', 'count'),
        ('catalog.oracle.s', 's'),
        ('catalog.characterization.calls', 'count'),
        ('catalog.characterization.s', 's'),
    ]
    specs += [('catalog.pair.%s.tuples_per_s' % p, '1/s') for p in PAIRS]
    specs += [
        ('arithmetization.encode.calls', 'count'),
        ('arithmetization.encode.s', 's'),
        ('arithmetization.decode.calls', 'count'),
        ('arithmetization.decode.s', 's'),
        ('arithmetization.decode.failed', 'count'),
        ('formulas.parse.s', 's'),
        ('formulas.compile_formula.calls', 'count'),
        ('formulas.compile_formula.s', 's'),
        ('formulas.defined_set.s', 's'),
        ('formulas.defined_relation.s', 's'),
    ]
    specs += [('formulas.corpus.%s.s' % f, 's') for f in CORPUS_FILES]
    specs += [('harness.suite.%s.s' % s, 's') for s in HARNESS_SUITES]
    specs += [('%s.self_s' % layer, 's') for layer in LAYERS]
    specs += [('trace.wall_s', 's'), ('trace.overhead_s', 's')]
    return specs


class _Total:
    __slots__ = ('calls', 'seconds', 'self_seconds', 'failed')

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.failed = 0


class Tracer:
    """Wrappers, the live call stack, kept spans and per-name totals.

    Tracing is off until start() and off again after stop(), so the
    benchmark's own checks, which also call into the package, are not
    counted.
    """

    def __init__(self):
        self.active = False
        self.stack = []        # one [child seconds, span index] per open call
        self.spans = []        # [name, label, start, end, parent index]
        self.totals = {}       # name -> _Total
        self.counts = {}       # name -> number (counters with no timing)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    def _total(self, name):
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = _Total()
        return total

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """A timing wrapper for fn, recorded under name ('<layer>.<what>').

        before(args) runs ahead of the call and its value is handed to
        after(args, result, value), which runs once the call returned;
        neither is timed.
        """
        layer = name.split('.', 1)[0]
        keep_span = layer in SPAN_LAYERS or name in SPAN_NAMES
        total = self._total(name)
        stack = self.stack
        spans = self.spans
        layer_self = self.layer_self
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            index = None
            if keep_span:
                parent = None
                for frame in reversed(stack):
                    if frame[1] is not None:
                        parent = frame[1]
                        break
                index = len(spans)
                spans.append([name, None, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                total.calls += 1
                total.seconds += elapsed
                total.self_seconds += own
                layer_self[layer] += own
                if not ok:
                    total.failed += 1
                if index is not None:
                    span = spans[index]
                    span[2] = start
                    span[3] = end
            if index is not None:
                spans[index][1] = _label(result)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def count(self, name, fn):
        """A wrapper that only counts calls, for constructors and lookups
        too frequent and too cheap to time."""
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------

    def _spans_named(self, name):
        return [s for s in self.spans if s[0] == name]

    def metrics(self):
        """Every per-layer metric of metric_specs() except the trace.*
        pair, which needs the untraced run too, as {name: value}."""
        def seconds(name):
            total = self.totals.get(name)
            return total.seconds if total else 0.0

        def calls(name):
            total = self.totals.get(name)
            return total.calls if total else 0

        def failed(name):
            total = self.totals.get(name)
            return total.failed if total else 0

        out = {
            'partitions.enumerate_universe.calls':
                calls('partitions.enumerate_universe'),
            'partitions.enumerate_universe.s':
                seconds('partitions.enumerate_universe'),
            'partitions.universe.elements':
                self.counts.get('partitions.universe.elements', 0),
            'partitions.down_bits.s': seconds('partitions.down_bits'),
            'partitions.up_bits.s': seconds('partitions.up_bits'),
            'partitions.ordinal.calls':
                self.counts.get('partitions.ordinal', 0),
            'partitions.bitcache.bytes':
                self.counts.get('partitions.bitcache.bytes', 0),
            'partitions.leq.calls': calls('partitions.leq'),
            'partitions.leq.s': seconds('partitions.leq'),
            'partitions.lower_covers.calls': calls('partitions.lower_covers'),
            'partitions.Partition.init.calls':
                self.counts.get('partitions.Partition.init', 0),
            'catalog.oracle.calls': calls('catalog.oracle'),
            'catalog.oracle.s': seconds('catalog.oracle'),
            'catalog.characterization.calls':
                calls('catalog.characterization'),
            'catalog.characterization.s': seconds('catalog.characterization'),
            'arithmetization.encode.calls': calls('arithmetization.encode'),
            'arithmetization.encode.s': seconds('arithmetization.encode'),
            'arithmetization.decode.calls': calls('arithmetization.decode'),
            'arithmetization.decode.s': seconds('arithmetization.decode'),
            'arithmetization.decode.failed': failed('arithmetization.decode'),
            'formulas.parse.s': seconds('formulas.parse'),
            'formulas.compile_formula.calls': calls('formulas.compile_formula'),
            'formulas.compile_formula.s': seconds('formulas.compile_formula'),
            'formulas.defined_set.s': seconds('formulas.defined_set'),
            'formulas.defined_relation.s': seconds('formulas.defined_relation'),
        }
        pair_tuples = dict.fromkeys(PAIRS, 0)
        pair_seconds = dict.fromkeys(PAIRS, 0.0)
        for name, label, start, end, _ in self._spans_named('harness.run_pair'):
            if label and label[0] in pair_tuples:
                pair_tuples[label[0]] += label[1]
                pair_seconds[label[0]] += end - start
        for pair in PAIRS:
            rate = (pair_tuples[pair] / pair_seconds[pair]
                    if pair_seconds[pair] else 0.0)
            out['catalog.pair.%s.tuples_per_s' % pair] = rate
        corpus_seconds = dict.fromkeys(CORPUS_FILES, 0.0)
        for _, label, start, end, _ in self._spans_named('harness.corpus_report'):
            if label and label[0].startswith('corpus-'):
                corpus_seconds[label[0][len('corpus-'):]] += end - start
        for name in CORPUS_FILES:
            out['formulas.corpus.%s.s' % name] = corpus_seconds[name]
        suite_seconds = dict.fromkeys(HARNESS_SUITES, 0.0)
        for name, label, start, end, _ in self.spans:
            if name in SUITE_FUNCTIONS and label:
                suite = label[0].split('(', 1)[0]
                if suite in suite_seconds:
                    suite_seconds[suite] += end - start
        for metric in HARNESS_SUITES:
            out['harness.suite.%s.s' % metric] = suite_seconds[metric]
        for layer in LAYERS:
            out['%s.self_s' % layer] = self.layer_self[layer]
        return out

    def write(self, path, meta):
        """Kept spans and per-name totals as one JSON document."""
        document = {
            'meta': meta,
            'spans': [{'name': name, 'label': label[0] if label else None,
                       'start': start, 'end': end, 'parent': parent}
                      for name, label, start, end, parent in self.spans],
            'totals': {name: {'calls': t.calls, 'seconds': t.seconds,
                              'selfSeconds': t.self_seconds,
                              'failed': t.failed}
                       for name, t in sorted(self.totals.items())
                       if t.calls},
            'counts': dict(sorted(self.counts.items())),
            'layerSelfSeconds': self.layer_self,
        }
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump(document, handle, indent=1, sort_keys=True)


def _label(result):
    """(report name, tuples checked) when a call returned a CheckReport."""
    name = getattr(result, 'name', None)
    checked = getattr(result, 'total_checked', None)
    if isinstance(name, str) and isinstance(checked, int):
        return (name, checked)
    return None


def _public_functions(module):
    for attr, value in sorted(vars(module).items()):
        if (not attr.startswith('_') and callable(value)
                and not isinstance(value, type)
                and getattr(value, '__module__', None) == module.__name__):
            yield attr, value


def install(tracer):
    """Wrap the six layers' public functions; see the module docstring."""
    from young_defined import (arithmetization, catalog, cli, formulas,
                               harness, partitions)
    modules = {'partitions': partitions, 'catalog': catalog,
               'arithmetization': arithmetization, 'formulas': formulas,
               'harness': harness, 'cli': cli}

    def count_elements(args, universe, _):
        tracer.add('partitions.universe.elements', len(universe.elements))

    for layer, module in modules.items():
        for attr, fn in list(_public_functions(module)):
            name = '%s.%s' % (layer, attr)
            after = (count_elements if name == 'partitions.enumerate_universe'
                     else None)
            wrapper = tracer.wrap(name, fn, after=after)
            for other_layer, other in modules.items():
                if other_layer == layer and layer in INTERNAL \
                        and attr not in INTERNAL[layer]:
                    continue
                if vars(other).get(attr) is fn:
                    setattr(other, attr, wrapper)

    for pair in catalog.all_pairs():
        pair.oracle = tracer.wrap('catalog.oracle', pair.oracle)
        pair.characterization = tracer.wrap('catalog.characterization',
                                            pair.characterization)

    universe_type = partitions.Universe
    for attr in ('down_bits', 'up_bits'):
        cache = '_' + attr

        def fresh(args, cache=cache):
            return getattr(args[0], cache) is None

        def measure(args, bits, was_fresh):
            if was_fresh:
                tracer.add('partitions.bitcache.bytes',
                           sys.getsizeof(bits)
                           + sum(sys.getsizeof(mask) for mask in bits))

        setattr(universe_type, attr,
                tracer.wrap('partitions.%s' % attr,
                            getattr(universe_type, attr), fresh, measure))
    universe_type.ordinal = tracer.count('partitions.ordinal',
                                         universe_type.ordinal)
    partitions.Partition.__init__ = tracer.count(
        'partitions.Partition.init', partitions.Partition.__init__)
