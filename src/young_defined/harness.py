"""Certification harness: proposition sweeps, reconstruction and
automorphism checks, poset embedding, and machine-readable reports.

Every check produces a CheckReport that serializes to one JSON document
(schema ``young-defined/1``).  Witness lists are capped at 100 entries
but every count is exact.  Reports are byte-deterministic for the same
inputs except for the elapsed-seconds field.
"""

import functools
import json
import re
import time

from . import formulas
from .arithmetization import decode, encode, ord_via_encoding
from .catalog import (all_pairs, get_pair, is_rectangular, is_total,
                      is_trivial, total)
from .partitions import (EMPTY, ResourceLimit, conjugate, enumerate_universe,
                         leq, lower_covers, parse_partition, partition_count,
                         render)

SCHEMA = 'young-defined/1'
WITNESS_CAP = 100


class UsageError(Exception):
    """Bad input: unknown name, malformed file, out-of-range bound."""


class CheckReport:
    """Outcome of one certification sweep.

    The verdict is 'fail' when there is any mismatch, else 'unstable'
    when the caller passes unstable=True (a truncation-sensitivity flag
    fired), else 'pass'.  Boundary witnesses are expected edge cases
    reported separately and never counted as mismatches.
    """

    def __init__(self, name, range_description, total_checked, mismatches,
                 elapsed, unstable=False, boundary=None, informational=False,
                 details=None, note=''):
        self.name = name
        self.range_description = range_description
        self.total_checked = total_checked
        self.mismatch_count = len(mismatches)
        self.witnesses = mismatches[:WITNESS_CAP]
        self.boundary_count = len(boundary) if boundary else 0
        self.boundary_witnesses = (boundary or [])[:WITNESS_CAP]
        self.elapsed = elapsed
        self.verdict = ('fail' if mismatches else
                        'unstable' if unstable else 'pass')
        self.informational = informational
        self.details = details or {}
        self.note = note

    def to_dict(self):
        doc = {
            'schema': SCHEMA,
            'propositionName': self.name,
            'rangeDescription': self.range_description,
            'totalTuplesChecked': self.total_checked,
            'mismatchCount': self.mismatch_count,
            'witnesses': self.witnesses,
            'elapsedSeconds': round(self.elapsed, 3),
            'verdict': self.verdict,
        }
        if self.boundary_count:
            doc['boundaryCount'] = self.boundary_count
            doc['boundaryWitnesses'] = self.boundary_witnesses
        if self.informational:
            doc['informational'] = True
        if self.details:
            doc['details'] = self.details
        if self.note:
            doc['note'] = self.note
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def summary_line(doc):
    """One human line for a report document, as CheckReport.to_dict gives."""
    tag = ' (informational)' if doc.get('informational') else ''
    extra = ''
    if doc.get('boundaryCount'):
        extra = ', %d boundary' % doc['boundaryCount']
    return '%-34s %-8s %7d tuples, %d mismatches%s, %.2fs%s' % (
        doc['propositionName'], doc['verdict'].upper(),
        doc['totalTuplesChecked'], doc['mismatchCount'], extra,
        doc['elapsedSeconds'], tag)


# ---------------------------------------------------------------------------
# proposition sweeps

def check_proposition(name, max_card):
    """Sweep one registered oracle/characterization pair exhaustively."""
    try:
        pair = get_pair(name)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    return run_pair(pair, max_card)


def run_pair(pair, max_card):
    start = time.perf_counter()
    total_checked = 0
    mismatches = []
    boundary = []
    oracle, characterization = pair.oracle, pair.characterization
    for args in pair.domain(enumerate_universe(max_card)):
        total_checked += 1
        want, got = oracle(*args), characterization(*args)
        if want != got:
            reason = pair.boundary(args) if pair.boundary else None
            found = boundary if reason else mismatches
            entry = None    # past WITNESS_CAP, CheckReport only counts it
            if len(found) < WITNESS_CAP:
                entry = {'args': [render(a) for a in args],
                         'oracle': want, 'characterization': got}
                if reason:
                    entry['reason'] = reason
            found.append(entry)
    return CheckReport(
        pair.name,
        'all registered domain tuples with cardinality <= %d (slack 0)'
        % max_card,
        total_checked, mismatches, time.perf_counter() - start,
        boundary=boundary, informational=pair.informational, note=pair.note)


def variant_resolution(report_a, report_b):
    """Combine two already-computed variant reports; exactly one must pass.

    The elapsed time is this combination's own; the two sweeps report
    theirs as suites of their own.
    """
    start = time.perf_counter()
    passed = [r.name for r in (report_a, report_b) if r.mismatch_count == 0]
    mismatches = [] if len(passed) == 1 else [{'passing': passed}]
    return CheckReport(
        'variant-resolution(%s | %s)' % (report_a.name, report_b.name),
        'derived from the two variant sweeps: %s; %s'
        % (report_a.range_description, report_b.range_description),
        report_a.total_checked + report_b.total_checked,
        mismatches, time.perf_counter() - start,
        details={'passing': passed,
                 'mismatches': {report_a.name: report_a.mismatch_count,
                                report_b.name: report_b.mismatch_count}},
        note='exactly one reading should survive the sweep')


# ---------------------------------------------------------------------------
# reconstruction from lower covers

def reconstruction_check(max_card):
    """Injectivity of the lower-cover fingerprint on each level >= 4,
    plus confirmation of the known two-element collision on level 2."""
    if max_card < 4:
        raise UsageError('reconstruction check needs max_card >= 4')
    start = time.perf_counter()
    universe = enumerate_universe(max_card)
    covers, offsets = universe.cover_table()
    i = 0       # ordinals run level by level, so pi's is a running count
    mismatches = []
    collisions_by_level = {}
    for n, level in enumerate(universe.levels):
        groups = {}
        for pi in level:
            key = frozenset(covers[offsets[i]:offsets[i + 1]])
            groups.setdefault(key, []).append(pi)
            i += 1
        collided = sorted([sorted(render(p) for p in g)
                           for g in groups.values() if len(g) > 1])
        if collided:
            collisions_by_level[n] = collided
            if n >= 4:
                mismatches.append({'level': n, 'groups': collided})
    level2 = collisions_by_level.get(2, [])
    expected = [[render(parse_partition('[1]+[1]')), '[2]']]
    if level2 != expected:
        mismatches.append({'level': 2, 'groups': level2, 'expected': expected})
    return CheckReport(
        'reconstruction-from-lower-covers',
        'levels 0..%d; injectivity required on levels 4..%d' % (max_card, max_card),
        len(universe), mismatches, time.perf_counter() - start,
        details={'level2Collision': level2,
                 'level3Injective': 3 not in collisions_by_level},
        note='the two partitions of 2 share the single lower cover [1]')


# ---------------------------------------------------------------------------
# automorphisms of the truncated diagram

AUTOMORPHISM_RANK = 8
AUTOMORPHISM_RANK_CEILING = 12


def automorphism_search(max_rank):
    """All rank-preserving bijections of levels 0..max_rank preserving
    the cover relation in both directions, by per-level backtracking.

    Covers connect consecutive levels only, so a level-wise bijection
    that maps every element's lower-cover set onto its image's
    lower-cover set preserves and reflects covers.
    """
    if max_rank < 0:
        raise UsageError('max_rank must be >= 0')
    if max_rank > AUTOMORPHISM_RANK_CEILING:
        raise ResourceLimit('automorphism search is capped at rank %d'
                            % AUTOMORPHISM_RANK_CEILING)
    universe = enumerate_universe(max_rank)
    elements = universe.elements
    covers, offsets = universe.cover_table()
    lc = [frozenset(covers[offsets[i]:offsets[i + 1]])
          for i in range(len(elements))]
    levels = [range(universe.ordinal_cutoff(n - 1), universe.ordinal_cutoff(n))
              for n in range(max_rank + 1)]
    image = [None] * len(elements)
    used = set()
    found = []

    def extend(e):
        # ordinals run level by level, so every lower cover of e has an image
        if e == len(elements):
            found.append(list(image))
            return
        key = frozenset(image[c] for c in lc[e])
        for u in levels[elements[e].card]:
            if u in used or lc[u] != key:
                continue
            image[e] = u
            used.add(u)
            extend(e + 1)
            used.discard(u)
            image[e] = None

    extend(0)
    found.sort()
    return [{elements[e]: elements[u] for e, u in enumerate(images)}
            for images in found]


def classify_automorphism(mapping):
    if all(value == key for key, value in mapping.items()):
        return 'identity'
    if all(value == conjugate(key) for key, value in mapping.items()):
        return 'conjugation'
    return 'other'


def automorphism_report(max_rank):
    start = time.perf_counter()
    maps = automorphism_search(max_rank)
    kinds = sorted(classify_automorphism(m) for m in maps)
    expected = ['identity'] if max_rank <= 1 else ['conjugation', 'identity']
    mismatches = ([] if kinds == expected
                  else [{'found': kinds, 'expected': expected}])
    return CheckReport(
        'automorphism-uniqueness',
        'rank-preserving bijections of levels 0..%d' % max_rank,
        sum(partition_count(n) for n in range(max_rank + 1)),
        mismatches, time.perf_counter() - start,
        details={'count': len(maps), 'kinds': kinds},
        note='conjugation coincides with the identity below rank 2')


# ---------------------------------------------------------------------------
# finite posets and embedding

class FinitePoset:
    """A finite strict order given by elements and generating pairs.

    The stored relation is the transitive closure; a cycle in the input
    is rejected on construction.
    """

    def __init__(self, elements, pairs):
        if len(set(elements)) != len(elements):
            raise UsageError('duplicate poset elements')
        self.elements = list(elements)
        position = {e: i for i, e in enumerate(self.elements)}
        for a, b in pairs:
            if a not in position or b not in position:
                raise UsageError('relation mentions undeclared element %r'
                                 % (a if a not in position else b))
        less = set(pairs)
        for b in self.elements:     # Warshall: close through each b in turn
            below = [a for a in self.elements if (a, b) in less]
            above = [c for c in self.elements if (b, c) in less]
            less.update((a, c) for a in below for c in above)
        for e in self.elements:
            if (e, e) in less:
                raise UsageError('poset relation has a cycle through %r' % e)
        self.less = less

    @classmethod
    def parse(cls, text):
        """Line format: `elem NAME`, `lt A B`, `#` comments."""
        elements = []
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == 'elem' and len(fields) == 2:
                elements.append(fields[1])
            elif fields[0] == 'lt' and len(fields) == 3:
                pairs.append((fields[1], fields[2]))
            else:
                raise UsageError('line %d: expected `elem NAME` or `lt A B`,'
                                 ' got %r' % (lineno, raw))
        return cls(elements, pairs)

    @classmethod
    def chain(cls, k):
        names = ['e%d' % i for i in range(1, k + 1)]
        return cls(names, list(zip(names, names[1:])))

    @classmethod
    def antichain(cls, k):
        return cls(['a%d' % i for i in range(1, k + 1)], [])

    @classmethod
    def crown(cls):
        """The 2-crown: a, b each below both c and d, nothing else."""
        return cls(['a', 'b', 'c', 'd'],
                   [('a', 'c'), ('a', 'd'), ('b', 'c'), ('b', 'd')])


def embed_poset(poset, max_card):
    """An injective map into the partitions of cardinality <= max_card
    that preserves and reflects the strict order, or None.

    Backtracking assigns poset elements in depth order; candidate images
    are tried in enumeration order (cardinality, then level index) with
    forward checking on the remaining candidates.  None means no
    embedding exists within this truncation — it says nothing about the
    unbounded order.
    """
    universe = enumerate_universe(max_card)
    m = len(universe.elements)
    full = (1 << m) - 1
    down = universe.down_bits()
    up = [mask << o for o, mask in enumerate(universe.up_bits())]
    strict_up = [up[o] & ~(1 << o) for o in range(m)]
    incomparable = [full & ~(down[o] | up[o]) for o in range(m)]

    @functools.cache
    def depth(e):
        below = [a for a, b in poset.less if b == e]
        if not below:
            return 0
        return 1 + max(depth(a) for a in below)

    order = sorted(poset.elements,
                   key=lambda e: (depth(e), poset.elements.index(e)))
    index = {e: i for i, e in enumerate(order)}
    # in depth order no element is below one placed before it, so a later
    # element's image is either strictly above or incomparable to this
    # one's; neither mask holds this image, so the images stay distinct
    narrow = [[strict_up if (a, b) in poset.less else incomparable
               for b in order] for a in order]

    images = [None] * len(order)

    def extend(i, candidates):
        if i == len(order):
            return True
        mask = candidates[i]
        while mask:
            low = mask & -mask
            mask ^= low
            u = low.bit_length() - 1
            narrowed = list(candidates)
            ok = True
            for j in range(i + 1, len(order)):
                narrowed[j] &= narrow[i][j][u]
                if narrowed[j] == 0:
                    ok = False
                    break
            if ok:
                images[i] = u
                if extend(i + 1, narrowed):
                    return True
                images[i] = None
        return False

    if not extend(0, [full] * len(order)):
        return None
    mapping = {e: universe.elements[images[index[e]]] for e in poset.elements}
    verify_embedding(poset, mapping)
    return mapping


def verify_embedding(poset, mapping):
    """Independent pairwise re-check of an embedding, via leq directly."""
    for a in poset.elements:
        for b in poset.elements:
            if a == b:
                continue
            fa, fb = mapping[a], mapping[b]
            if fa == fb:
                raise RuntimeError('embedding is not injective: %s, %s' % (a, b))
            strictly_below = leq(fa, fb)
            if ((a, b) in poset.less) != strictly_below:
                raise RuntimeError(
                    'embedding check failed on (%s, %s): poset says %s, '
                    'images %s, %s say %s'
                    % (a, b, (a, b) in poset.less, render(fa), render(fb),
                       strictly_below))


def embed_report(name, poset, max_card, expect_found=True):
    start = time.perf_counter()
    mapping = embed_poset(poset, max_card)
    found = mapping is not None
    details = {'found': found}
    if found:
        details['mapping'] = {e: render(mapping[e]) for e in poset.elements}
    else:
        details['statement'] = ('no embedding within cardinality <= %d; this '
                                'does not refute embeddability in the '
                                'unbounded order' % max_card)
    mismatches = [] if found == expect_found else [dict(details)]
    return CheckReport(
        name, '%d elements, %d strict pairs, images of cardinality <= %d'
        % (len(poset.elements), len(poset.less), max_card),
        len(poset.elements), mismatches, time.perf_counter() - start,
        details=details)


# ---------------------------------------------------------------------------
# formula corpus suite

CORPUS_SLACKS = (0, 1, 2, 3)    # the quick profile keeps only 0 and 1

# By prenex class, whether a flipped value may be a member at the larger of
# the flip's two slacks.  The truncation at a smaller slack is an induced
# substructure of the one at a larger slack holding every free value and
# constant, and existential formulas are preserved upward: a Sigma1 set
# can only grow, a Pi1 set only shrink, and a Delta0 set cannot change.
_FLIP_ENDS_IN = {'Sigma1': (True,), 'Pi1': (False,), 'Delta0': ()}


def _wrong_way(klass, flips):
    """The flips of stability_check that a formula of class klass cannot make."""
    ends = _FLIP_ENDS_IN.get(klass, (True, False))
    return [(value, k0, k1, was) for value, k0, k1, was in flips
            if (was != (k0 < k1)) not in ends]


def _corpus_header(text):
    """The class and the standard bound a corpus file declares on its
    `# class: NAME` and `# bound: N` lines, each required exactly once."""
    header = []
    for key, value in (('class', r'\w+'), ('bound', r'\d+')):
        found = re.findall(r'^# %s: *(%s) *$' % (key, value), text, re.M)
        if len(found) != 1:
            raise UsageError('a corpus file needs exactly one well-formed '
                             '`# %s:` line, found %d' % (key, len(found)))
        header.append(found[0])
    return header[0], int(header[1])


def _corpus_expectation(name, universe, max_card):
    """The independently computed defined set for a corpus formula."""
    inside = [pi for pi in universe.elements if pi.card <= max_card]
    if name == 'cover':
        return {(sigma, pi) for pi in inside for sigma in lower_covers(pi)
                if sigma.card <= max_card}
    if name == 'totality':
        return {pi for pi in inside if is_total(pi)}
    if name == 'triviality':
        return {pi for pi in inside if is_trivial(pi)}
    if name == 'empty':
        return {EMPTY}
    if name == 'maximal-below':
        return {parse_partition('[2]+[1]')}
    if name == 'rectangular':
        return {pi for pi in inside if is_rectangular(pi)}
    raise UsageError('no expectation registered for corpus file %r' % name)


def corpus_report(name, text, max_card=None, slacks=CORPUS_SLACKS):
    """Roundtrip, classification, oracle agreement and slack stability
    for one bundled formula file; the class and, unless max_card is
    given, the bound come from the file's header lines."""
    if not slacks:
        raise formulas.EvalError('empty slack schedule')
    start = time.perf_counter()
    want_class, bound = _corpus_header(text)
    if max_card is not None:
        bound = max_card
    formula = formulas.parse(text)
    mismatches = []
    if formulas.parse(formulas.print_file(formula)) != formula:
        mismatches.append({'problem': 'printer roundtrip changed the tree'})
    got_class = str(formulas.prenex_classify(formula))
    if got_class != want_class:
        mismatches.append({'problem': 'classification drifted',
                           'expected': want_class, 'got': got_class})
    free = tuple(sorted(formulas.free_vars(formula)))
    universe = enumerate_universe(bound + max(slacks))
    sets, flips = formulas.stability_check(formula, free, universe, bound,
                                           slacks)
    for value, k0, k1, was in _wrong_way(got_class, flips):
        mismatches.append({'problem': 'flip against the class',
                           'value': repr(value), 'fromSlack': k0,
                           'toSlack': k1, 'wasMember': was})
    expected = _corpus_expectation(name, universe, bound)
    total_checked = len(slacks) * universe.ordinal_cutoff(bound) ** len(free)
    for k, got in zip(slacks, sets):
        if got != expected:
            sample = sorted(got ^ expected,
                            key=lambda value: repr(value))[:5]
            mismatches.append({'problem': 'disagrees with the oracle set',
                               'slack': k, 'difference': len(got ^ expected),
                               'sample': [repr(s) for s in sample]})
    return CheckReport(
        'corpus-%s' % name,
        'free variables <= %d, slacks %s' % (bound, list(slacks)),
        total_checked, mismatches, time.perf_counter() - start,
        unstable=bool(flips),
        details={'class': got_class, 'setSizes': [len(s) for s in sets],
                 'flips': [{'value': repr(value), 'fromSlack': k0,
                            'toSlack': k1, 'wasMember': was}
                           for value, k0, k1, was in flips[:WITNESS_CAP]],
                 'flipCount': len(flips)})


# ---------------------------------------------------------------------------
# arithmetization suite

def arithmetization_report(max_card, integer_ceiling, pair_card, bridge_bound):
    """Roundtrips, order agreement, and the arithmetic bridge."""
    start = time.perf_counter()
    total_checked = 0
    mismatches = []
    universe = enumerate_universe(max_card)
    seen = {}
    for sigma in universe.elements:
        total_checked += 1
        code = encode(sigma)
        if decode(code) != sigma:
            mismatches.append({'problem': 'decode(encode) moved', 'arg': render(sigma)})
        if code in seen:
            mismatches.append({'problem': 'encode collision',
                               'args': [render(sigma), render(seen[code])]})
        seen[code] = sigma
    for n in range(integer_ceiling + 1):
        total_checked += 1
        if encode(decode(n)) != n:
            mismatches.append({'problem': 'encode(decode) moved', 'arg': n})
    small = enumerate_universe(pair_card).elements
    codes = [encode(sigma) for sigma in small]
    for sigma, code_s in zip(small, codes):
        for pi, code_p in zip(small, codes):
            total_checked += 1
            if ord_via_encoding(code_s, code_p) != leq(sigma, pi):
                mismatches.append({'problem': 'order disagreement',
                                   'args': [render(sigma), render(pi)]})
    pair_add = get_pair('prop-3.9-add')
    pair_mult = get_pair('prop-3.13-mult')
    for m in range(bridge_bound + 1):
        for n in range(bridge_bound + 1):
            for r in range(bridge_bound + 1):
                total_checked += 2
                args = (total(m), total(n), total(r))
                if pair_add.oracle(*args) != (m + n == r):
                    mismatches.append({'problem': 'addition bridge',
                                       'args': [m, n, r]})
                if pair_mult.oracle(*args) != (m * n == r):
                    mismatches.append({'problem': 'multiplication bridge',
                                       'args': [m, n, r]})
    return CheckReport(
        'arithmetization-roundtrips',
        'partitions <= %d, integers <= %d, order pairs <= %d, bridge <= %d'
        % (max_card, integer_ceiling, pair_card, bridge_bound),
        total_checked, mismatches, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# profiles

PROFILES = ('quick', 'standard', 'thorough')


def _profile_bound(standard, profile, quick_cap):
    """A suite's bound at a profile, from the bound it declares for the
    standard one: capped for quick, one step further for thorough."""
    if profile == 'quick':
        return min(standard, quick_cap)
    if profile == 'thorough':
        return standard + 1
    return standard


def check_all(profile):
    """Run every registered suite at the profile's bounds.

    Returns (document, exit_code): the JSON-ready aggregate and 0 when
    every gating suite passed, 1 otherwise.  Informational suites record
    alternative readings and never gate.
    """
    if profile not in PROFILES:
        raise UsageError('unknown profile %r; expected one of %s'
                         % (profile, ', '.join(PROFILES)))
    quick = profile == 'quick'
    reports = []
    by_name = {}
    for pair in all_pairs():
        report = run_pair(pair, _profile_bound(pair.bound, profile, 8))
        by_name[pair.name] = report
        reports.append(report)
    reports.append(variant_resolution(by_name['prop-3.6-part-of-a'],
                                      by_name['prop-3.6-part-of-b']))
    reports.append(reconstruction_check(_profile_bound(25, profile, 10)))
    reports.append(automorphism_report(
        _profile_bound(AUTOMORPHISM_RANK, profile, 5)))
    reports.append(arithmetization_report(
        max_card=8 if quick else 15,
        integer_ceiling=10 ** 4 if quick else 10 ** 6,
        pair_card=8 if quick else 12,
        bridge_bound=10 if quick else 30))
    for name, text in sorted(formulas.corpus().items()):
        bound = _profile_bound(_corpus_header(text)[1], profile, 6)
        reports.append(corpus_report(name, text, max_card=bound,
                                     slacks=(0, 1) if quick else CORPUS_SLACKS))
    reports.append(embed_report('embed-chain-5', FinitePoset.chain(5),
                                4 if quick else 6))
    reports.append(embed_report('embed-antichain-5', FinitePoset.antichain(5),
                                6))
    reports.append(embed_report('embed-2-crown', FinitePoset.crown(),
                                6 if quick else 8))
    reports.append(embed_report('embed-antichain-8-too-low',
                                FinitePoset.antichain(8), 4,
                                expect_found=False))
    gating = [r for r in reports if not r.informational]
    verdict = 'pass' if all(r.verdict == 'pass' for r in gating) else 'fail'
    document = {
        'schema': SCHEMA,
        'profile': profile,
        'verdict': verdict,
        'suites': [r.to_dict() for r in reports],
    }
    return document, (0 if verdict == 'pass' else 1)
