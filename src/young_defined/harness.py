"""Certification harness: proposition sweeps, reconstruction and
automorphism checks, poset embedding, and machine-readable reports.

Every check produces a CheckReport that serializes to one JSON document
(schema ``young-defined/1``).  Witness lists are capped at 100 entries
but every count is exact.  Reports are byte-deterministic for the same
inputs except for the elapsed-seconds field.
"""

import json
import re
import time

from . import formulas
from .arithmetization import DECODE_CEILING, decode, encode
from .catalog import (all_pairs, get_pair, is_rectangular, is_total,
                      is_trivial, total)
from .partitions import (EMPTY, MAX_BIT_CACHE_BYTES, ResourceLimit,
                         bit_cache_bytes, conjugate, enumerate_universe, leq,
                         lower_covers, parse_partition, partition_count,
                         render)

SCHEMA = 'young-defined/1'
WITNESS_CAP = 100


class UsageError(ValueError):
    """Bad input: unknown name, malformed file, out-of-range bound."""


class CheckReport:
    """Outcome of one certification sweep.

    The verdict is 'fail' when there is any mismatch, else 'pass'; it
    depends on nothing else.  Boundary witnesses are expected edge cases
    reported separately and never counted as mismatches.
    """

    def __init__(self, name, range_description, total_checked, mismatches,
                 elapsed, boundary=None, informational=False, details=None,
                 note=''):
        self.name = name
        self.range_description = range_description
        self.total_checked = total_checked
        self.mismatch_count = len(mismatches)
        self.witnesses = mismatches[:WITNESS_CAP]
        self.boundary_count = len(boundary) if boundary else 0
        self.boundary_witnesses = (boundary or [])[:WITNESS_CAP]
        self.elapsed = elapsed
        self.verdict = 'fail' if mismatches else 'pass'
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

RECONSTRUCTION_BOUND = 25   # 9,296 elements: table and fingerprints in 0.1 s


def _fingerprints(universe, n):
    """Level n's ordinals, in order, grouped by their lower-cover sets."""
    rows = universe.cover_table()
    groups = {}
    for i in range(universe.ordinal_cutoff(n - 1), universe.ordinal_cutoff(n)):
        groups.setdefault(frozenset(rows[i]), []).append(i)
    return groups


def reconstruction_check(max_card):
    """Injectivity of the lower-cover fingerprint on each level >= 4,
    plus confirmation of the known two-element collision on level 2."""
    if max_card < 4:
        raise UsageError('reconstruction check needs max_card >= 4')
    start = time.perf_counter()
    universe = enumerate_universe(max_card)
    mismatches = []
    collisions_by_level = {}
    for n in range(max_card + 1):
        collided = sorted([sorted(render(universe.elements[i]) for i in group)
                           for group in _fingerprints(universe, n).values()
                           if len(group) > 1])
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
AUTOMORPHISM_RANK_CEILING = 26   # 11,732 elements: 0.12-0.25 s, 28 MB raw


def automorphism_search(max_rank):
    """All rank-preserving bijections of levels 0..max_rank preserving
    the cover relation in both directions, by backtracking over ordinals.

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
    rows = universe.cover_table()
    index = [_fingerprints(universe, n) for n in range(max_rank + 1)]
    image = []
    used = set()
    found = []
    # ordinals run level by level, so e's lower covers have images before e
    stack = [iter(index[0][frozenset()])]
    while stack:
        if len(image) == len(stack):    # back at the top: release its image
            used.discard(image.pop())
        u = next((u for u in stack[-1] if u not in used), None)
        if u is None:
            stack.pop()
        elif len(stack) == len(elements):
            found.append(image + [u])
        else:
            image.append(u)
            used.add(u)
            e = len(stack)
            key = frozenset(image[c] for c in rows[e])
            stack.append(iter(index[elements[e].card].get(key, ())))
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
    that preserves and reflects the strict order, or None; callers
    re-check a map found with verify_embedding.

    Backtracking assigns poset elements in depth order, ties as declared;
    each tries images in enumeration order, forward checking the others
    by the image's down and up rows, the only rows built.  None means no
    embedding exists within this truncation, not in the unbounded order.
    """
    universe = enumerate_universe(max_card)
    # the search holds up to n lists of n candidate masks, n the poset's
    # size, at 56 + 8n bytes a list; list i holds new masks in slots i + 1
    # on, each at most w bits (28 bytes plus 4 per 30 bits) for the w
    # universe elements; a search may try every element, building each row
    n, w = len(poset.elements), len(universe.elements)
    need = (n * (56 + 8 * n) + n * (n - 1) // 2 * (28 + 4 * -(-w // 30))
            + bit_cache_bytes(w))
    if need > MAX_BIT_CACHE_BYTES:
        raise ResourceLimit('embedding %d elements needs about %d bytes, over'
                            ' the ceiling %d' % (n, need, MAX_BIT_CACHE_BYTES))
    below = {e: [a for a in poset.elements if (a, e) in poset.less]
             for e in poset.elements}
    # an element has more elements below it than any element below it
    # has, so this pass reaches each one after all those below it
    depth = {}
    for e in sorted(poset.elements, key=lambda e: len(below[e])):
        depth[e] = 1 + max((depth[a] for a in below[e]), default=-1)
    order = sorted(poset.elements, key=depth.get)
    # in depth order no element is below one placed before it, so a later
    # element's image is either strictly above or incomparable to this
    # one's; neither mask holds this image, so the images stay distinct
    less = [[(a, b) in poset.less for b in order] for a in order]
    images = [None] * len(order)
    # one frame per element being placed, iteratively, so that no poset
    # is too large for the stack: the candidates of every element as the
    # images placed before it narrowed them; a frame's own entry holds
    # the candidates it has yet to try, lowest first
    full = (1 << len(universe.elements)) - 1
    stack = [[full] * len(order)]
    while stack and len(stack) <= len(order):
        i = len(stack) - 1
        candidates = stack[i]
        mask = candidates[i]
        if not mask:
            stack.pop()
            continue
        low = mask & -mask
        candidates[i] = mask ^ low
        u = low.bit_length() - 1
        above = universe.up_row(u)
        strictly_above, incomparable = above ^ low, ~(universe.down_row(u) | above)
        narrowed = list(candidates)
        for j in range(i + 1, len(order)):
            narrowed[j] &= strictly_above if less[i][j] else incomparable
            if narrowed[j] == 0:
                break
        else:
            images[i] = u
            stack.append(narrowed)
    if not stack:
        return None
    return {e: universe.elements[u] for e, u in zip(order, images)}


def verify_embedding(poset, mapping):
    """Independent pairwise re-check of an embedding, via leq directly:
    None, or the first violated pair, of kind 'not injective' (a shared
    image) or 'order disagreement' (a < b and leq of the images differ)."""
    for a in poset.elements:
        for b in poset.elements:
            fa, fb = mapping[a], mapping[b]
            if a != b and (fa == fb or ((a, b) in poset.less) != leq(fa, fb)):
                return {'kind': ('not injective' if fa == fb
                                 else 'order disagreement'),
                        'pair': [a, b], 'images': [render(fa), render(fb)]}
    return None


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
    violation = found and verify_embedding(poset, mapping)
    if violation:
        mismatches.append(violation)
    return CheckReport(
        name, '%d elements, %d strict pairs, images of cardinality <= %d'
        % (len(poset.elements), len(poset.less), max_card),
        len(poset.elements), mismatches, time.perf_counter() - start,
        details=details)


# ---------------------------------------------------------------------------
# formula corpus suite

CORPUS_SLACKS = (0, 1, 2, 3)    # the quick profile keeps only 0 and 1


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


def corpus_report(name, text, max_card, slacks):
    """Roundtrip, classification, oracle agreement and flip direction for
    one bundled formula file, free variables <= max_card, its class read
    from the file's header.  The oracle set is the same at every slack, so
    a flip between two slacks makes one of them disagree with it."""
    if not slacks:
        raise formulas.EvalError('empty slack schedule')
    start = time.perf_counter()
    want_class = _corpus_header(text)[0]
    formula = formulas.parse(text)
    mismatches = []
    if formulas.parse(formulas.print_file(formula)) != formula:
        mismatches.append({'problem': 'printer roundtrip changed the tree'})
    got_class = str(formulas.prenex_classify(formula))
    if got_class != want_class:
        mismatches.append({'problem': 'classification drifted',
                           'expected': want_class, 'got': got_class})
    free = tuple(sorted(formulas.free_vars(formula)))
    universe = enumerate_universe(max_card + max(slacks))
    sets, flips = formulas.stability_check(formula, free, universe, max_card,
                                           slacks)
    mismatches += [{'problem': 'flip against the class', 'value': repr(value),
                    'fromSlack': k0, 'toSlack': k1, 'wasMember': was}
                   for value, k0, k1, was, allowed in flips if not allowed]
    expected = _corpus_expectation(name, universe, max_card)
    total_checked = (len(slacks)
                     * universe.ordinal_cutoff(max_card) ** len(free))
    for k, got in zip(slacks, sets):
        if got != expected:
            sample = sorted(got ^ expected,
                            key=lambda value: repr(value))[:5]
            mismatches.append({'problem': 'disagrees with the oracle set',
                               'slack': k, 'difference': len(got ^ expected),
                               'sample': [repr(s) for s in sample]})
    return CheckReport(
        'corpus-%s' % name,
        'free variables <= %d, slacks %s' % (max_card, list(slacks)),
        total_checked, mismatches, time.perf_counter() - start,
        details={'class': got_class, 'setSizes': [len(s) for s in sets],
                 'flips': [{'value': repr(value), 'fromSlack': k0,
                            'toSlack': k1, 'wasMember': was}
                           for value, k0, k1, was, _ in flips[:WITNESS_CAP]],
                 'flipCount': len(flips)})


# ---------------------------------------------------------------------------
# arithmetization suite

def arithmetization_report(max_card, integer_ceiling, pair_card, bridge_bound):
    """Roundtrips, order agreement, and the arithmetic bridge.  Each
    partition is encoded and decoded once; the order check compares leq on
    the decodes of each pair of cardinality <= pair_card <= max_card."""
    if pair_card > max_card:
        raise UsageError('pair_card %d exceeds max_card %d'
                         % (pair_card, max_card))
    start = time.perf_counter()
    universe = enumerate_universe(max_card)
    # two partitions with one code would decode to one partition, so the
    # other's decode(encode) moves: this check also finds two with one code
    decoded = [decode(encode(sigma)) for sigma in universe.elements]
    mismatches = [{'problem': 'decode(encode) moved', 'arg': render(sigma)}
                  for sigma, back in zip(universe.elements, decoded)
                  if back != sigma]
    total_checked = len(decoded) + integer_ceiling + 1
    for n in range(integer_ceiling + 1):
        if encode(decode(n)) != n:
            mismatches.append({'problem': 'encode(decode) moved', 'arg': n})
    small = universe.elements[:universe.ordinal_cutoff(pair_card)]
    total_checked += len(small) ** 2
    for sigma, back_s in zip(small, decoded):
        for pi, back_p in zip(small, decoded):
            if leq(back_s, back_p) != leq(sigma, pi):
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
    reports.append(reconstruction_check(
        _profile_bound(RECONSTRUCTION_BOUND, profile, 10)))
    reports.append(automorphism_report(
        _profile_bound(AUTOMORPHISM_RANK, profile, 5)))
    reports.append(arithmetization_report(
        max_card=8 if quick else 15,
        integer_ceiling=10 ** 4 if quick else DECODE_CEILING,
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
