"""The benchmark's three workloads, each a timed run plus an output check.

This module runs inside the worker process.  A workload has
run(inputs, corpus), which is timed and is the only part
that calls into young_defined on the user's behalf, and check(raw,
inputs), which compares the outputs with expectations that do not come
from the code path under test: hand-written tables of verdicts and tuple
counts, and structural oracles for defined sets.  check returns an
Outcome; an operation is one suite or one defined-set query.
"""

import contextlib
import hashlib
import io
import json
import re

from young_defined import catalog, cli, formulas, harness, partitions

# ---------------------------------------------------------------------------
# expectations, written out by hand from the certified suite list

# check-all --profile standard: (suite, verdict, totalTuplesChecked), in
# report order.  Only the three informational alternative readings fail.
CHECK_STANDARD = (
    ('lemma-3.1-total', 'pass', 9296),
    ('lemma-3.1-trivial', 'pass', 9296),
    ('lemma-3.2-rectangular', 'pass', 9296),
    ('lemma-3.4-length', 'pass', 56994),
    ('lemma-3.4-bounded-part', 'pass', 54280),
    ('lemma-3.4-rectangular-triple', 'pass', 39168),
    ('prop-3.5-distinct', 'pass', 2714),
    ('prop-3.6-part-of-a', 'fail', 28746),
    ('prop-3.6-part-of-b', 'pass', 28746),
    ('prop-3.7-factorial', 'pass', 10944),
    ('lemma-3.8-same-height', 'pass', 256),
    ('prop-3.9-add', 'pass', 2197),
    ('prop-3.9-add-geq', 'fail', 2197),
    ('prop-3.10-frequency', 'pass', 153900),
    ('prop-3.10-frequency-leq', 'fail', 153900),
    ('prop-3.11-height-geq', 'pass', 3536),
    ('prop-3.12-height-eq', 'pass', 3536),
    ('prop-3.13-mult', 'pass', 9261),
    ('variant-resolution(prop-3.6-part-of-a | prop-3.6-part-of-b)', 'pass',
     57492),
    ('reconstruction-from-lower-covers', 'pass', 9296),
    ('automorphism-uniqueness', 'pass', 67),
    ('arithmetization-roundtrips', 'pass', 1134251),
    ('corpus-cover', 'pass', 17956),
    ('corpus-empty', 'pass', 1088),
    ('corpus-maximal-below', 'pass', 556),
    ('corpus-rectangular', 'pass', 388),
    ('corpus-totality', 'pass', 1088),
    ('corpus-triviality', 'pass', 1088),
    ('embed-chain-5', 'pass', 5),
    ('embed-antichain-5', 'pass', 5),
    ('embed-2-crown', 'pass', 4),
    ('embed-antichain-8-too-low', 'pass', 8),
)

# The registered pairs at thorough bounds (the standard bound plus one):
# (pair, bound, verdict, tuples), in registration order.
PAIR_SWEEPS = (
    ('lemma-3.1-total', 26, 'pass', 11732),
    ('lemma-3.1-trivial', 26, 'pass', 11732),
    ('lemma-3.2-rectangular', 26, 'pass', 11732),
    ('lemma-3.4-length', 21, 'pass', 77132),
    ('lemma-3.4-bounded-part', 21, 'pass', 73626),
    ('lemma-3.4-rectangular-triple', 13, 'pass', 63037),
    ('prop-3.5-distinct', 21, 'pass', 3506),
    ('prop-3.6-part-of-a', 19, 'fail', 39653),
    ('prop-3.6-part-of-b', 19, 'pass', 39653),
    ('prop-3.7-factorial', 16, 'pass', 15555),
    ('lemma-3.8-same-height', 16, 'pass', 289),
    ('prop-3.9-add', 13, 'pass', 2744),
    ('prop-3.9-add-geq', 13, 'fail', 2744),
    ('prop-3.10-frequency', 16, 'pass', 234240),
    ('prop-3.10-frequency-leq', 16, 'fail', 234240),
    ('prop-3.11-height-geq', 13, 'pass', 5222),
    ('prop-3.12-height-eq', 13, 'pass', 5222),
    ('prop-3.13-mult', 21, 'pass', 10648),
)
RECONSTRUCTION_CARD = 26
RECONSTRUCTION_TUPLES = 11732

# wide-eval: one universe, free variables up to WIDE_CARD, slack 1
WIDE_UNIVERSE = 31
WIDE_CARD = 30
WIDE_SLACK = 1
# sum of p(n) for n <= 30
WIDE_CANDIDATES = 28629

_ELAPSED = re.compile(r'\n\s*"elapsedSeconds": [^\n]*')


class Outcome:
    """What check() found: operations attempted and failed, the tuples
    or assignments certified, and a digest of the report with timing
    removed, which must repeat exactly from run to run."""

    def __init__(self, attempted, failures, tuples, digest):
        self.attempted = attempted
        self.failures = failures
        self.tuples = tuples
        self.digest = digest


def _digest(text):
    return hashlib.sha256(_ELAPSED.sub('', text).encode('utf-8')).hexdigest()


def _describe(exc):
    return '%s: %s' % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# check-standard: the certification run users invoke

def check_standard_run(inputs, corpus):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(['check-all', '--profile', 'standard', '--json'])
    except Exception as exc:  # a crash fails every suite; keep measuring
        return exc
    return code, out.getvalue()


def check_standard_check(raw, inputs):
    attempted = len(CHECK_STANDARD)
    if isinstance(raw, Exception):
        return Outcome(attempted, ['check-all raised %s' % _describe(raw)]
                       * attempted, 0, None)
    code, text = raw
    try:
        document = json.loads(text)
    except ValueError as exc:
        document = exc
    if not isinstance(document, dict):
        return Outcome(attempted, ['unreadable report: %s' % document]
                       * attempted, 0, None)
    envelope = (code, document.get('schema'), document.get('profile'),
                document.get('verdict'))
    if envelope != (0, 'young-defined/1', 'standard', 'pass'):
        return Outcome(attempted, ['report envelope %r' % (envelope,)]
                       * attempted, 0, _digest(text))
    suites = {suite.get('propositionName'): suite
              for suite in document.get('suites', [])}
    failures = []
    tuples = 0
    for name, verdict, count in CHECK_STANDARD:
        suite = suites.pop(name, None)
        if suite is None:
            failures.append('suite %s missing' % name)
            continue
        got = (suite.get('verdict'), suite.get('totalTuplesChecked'))
        tuples += got[1] if isinstance(got[1], int) else 0
        if got != (verdict, count):
            failures.append('suite %s: %r, expected %r'
                            % (name, got, (verdict, count)))
    for name in sorted(suites, key=str):
        attempted += 1
        failures.append('unexpected suite %s' % name)
    order = [s.get('propositionName') for s in document.get('suites', [])]
    if not failures and order != [name for name, _, _ in CHECK_STANDARD]:
        failures.append('suite order changed: %r' % order)
    return Outcome(attempted, failures, tuples, _digest(text))


# ---------------------------------------------------------------------------
# pair-sweeps: catalog and partitions only

def pair_sweeps_run(inputs, corpus):
    bounds = {name: bound for name, bound, _, _ in PAIR_SWEEPS}
    reports = []
    for pair in catalog.all_pairs():
        try:
            reports.append(harness.run_pair(pair, bounds[pair.name]))
        except Exception as exc:
            reports.append(exc)
    try:
        reports.append(harness.reconstruction_check(RECONSTRUCTION_CARD))
    except Exception as exc:
        reports.append(exc)
    return reports


def pair_sweeps_check(raw, inputs):
    expected = [(name, verdict, count) for name, _, verdict, count
                in PAIR_SWEEPS]
    expected.append(('reconstruction-from-lower-covers', 'pass',
                     RECONSTRUCTION_TUPLES))
    attempted = max(len(expected), len(raw))
    failures = []
    tuples = 0
    texts = []
    for i in range(attempted):
        want = expected[i] if i < len(expected) else None
        report = raw[i] if i < len(raw) else None
        if isinstance(report, Exception):
            failures.append('%s raised %s' % (want[0] if want else i,
                                              _describe(report)))
            continue
        if report is None or want is None:
            failures.append('report %d: expected %r, got %r' % (i, want, report))
            continue
        texts.append(report.to_json())
        tuples += report.total_checked
        got = (report.name, report.verdict, report.total_checked)
        if got != want:
            failures.append('%r, expected %r' % (got, want))
    return Outcome(attempted, failures, tuples, _digest('\n'.join(texts)))


# ---------------------------------------------------------------------------
# wide-eval: one large universe, many single-variable defined sets

def wide_eval_run(inputs, corpus):
    try:
        universe = partitions.enumerate_universe(WIDE_UNIVERSE)
        config = formulas.EvalConfig(WIDE_CARD, WIDE_SLACK)
    except Exception as exc:
        return exc
    sets = []
    for query in inputs['queries']:
        text = corpus[query['corpus']] if 'corpus' in query else query['text']
        try:
            sets.append(formulas.defined_set(formulas.parse(text), 'x',
                                             universe, config))
        except Exception as exc:
            sets.append(exc)
    return universe, sets


def _wide_expectation(query, universe):
    """The defined set computed from structural oracles only."""
    inside = [pi for pi in universe.elements if pi.card <= WIDE_CARD]
    name = query['name']
    if name == 'corpus-triviality':
        return {pi for pi in inside if catalog.is_trivial(pi)}
    if name == 'corpus-totality':
        return {pi for pi in inside if catalog.is_total(pi)}
    if name == 'corpus-empty':
        return {partitions.EMPTY}
    constant = partitions.parse_partition(query['constant'])
    if name == 'upper-cover':
        return set(partitions.upper_covers(constant, universe))
    if name == 'lower-cover':
        return set(partitions.lower_covers(constant))
    raise ValueError('no oracle for query %r' % name)


def wide_eval_check(raw, inputs):
    queries = inputs['queries']
    attempted = len(queries)
    if isinstance(raw, Exception):
        return Outcome(attempted, ['universe raised %s' % _describe(raw)]
                       * attempted, 0, None)
    universe, sets = raw
    inside = sum(1 for pi in universe.elements if pi.card <= WIDE_CARD)
    if inside != WIDE_CANDIDATES:
        return Outcome(attempted, ['universe has %d candidates, expected %d'
                                   % (inside, WIDE_CANDIDATES)] * attempted,
                       0, None)
    failures = []
    tuples = 0
    lines = []
    for query, got in zip(queries, sets):
        label = '%s %s' % (query['name'], query.get('constant', ''))
        if isinstance(got, Exception):
            failures.append('%s raised %s' % (label, _describe(got)))
            continue
        tuples += WIDE_CANDIDATES
        members = sorted(partitions.render(pi) for pi in got)
        lines.append('%s: %s' % (label, ' '.join(members)))
        want = _wide_expectation(query, universe)
        if got != want:
            failures.append('%s: %d members differ from the oracle'
                            % (label, len(got ^ want)))
    return Outcome(attempted, failures, tuples, _digest('\n'.join(lines)))


# name -> (run, check)
WORKLOADS = {
    'check-standard': (check_standard_run, check_standard_check),
    'pair-sweeps': (pair_sweeps_run, pair_sweeps_check),
    'wide-eval': (wide_eval_run, wide_eval_check),
}


def load_corpus():
    """The bundled formula files, read once during set-up."""
    return formulas.corpus()
