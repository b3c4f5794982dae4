"""Certification harness: reports, variant resolution, reconstruction,
automorphisms, poset embedding, corpus and aggregate runs, CLI."""

import decimal
import hashlib
import itertools
import json
import pathlib
import re
import sys
import time
import tracemalloc
from array import array

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from young_defined import arithmetization, cli, formulas, harness, partitions
from young_defined.catalog import all_pairs, get_pair
from young_defined.partitions import (Universe, bit_cache_bytes,
                                      enumerate_level, enumerate_universe,
                                      lower_covers, parse_partition, render)


# --- reports

def test_check_proposition_passes_on_a_sound_pair():
    report = harness.check_proposition('lemma-3.1-total', 10)
    assert report.verdict == 'pass'
    assert report.mismatch_count == 0
    assert report.total_checked == 139           # p(0) + ... + p(10)
    doc = report.to_dict()
    assert doc['schema'] == 'young-defined/1'
    assert doc['verdict'] == 'pass'
    assert 'lemma-3.1-total' in harness.summary_line(doc)


def test_reports_are_deterministic_up_to_elapsed_time():
    def snapshot():
        doc = harness.check_proposition('prop-3.9-add', 8).to_dict()
        del doc['elapsedSeconds']
        return json.dumps(doc, sort_keys=True)
    assert snapshot() == snapshot()


def test_unknown_pair_name_is_a_usage_error():
    with pytest.raises(harness.UsageError) as info:
        harness.check_proposition('prop-9.9-missing', 8)
    assert str(info.value).startswith('unknown pair')


def test_the_verdict_follows_from_the_mismatches_alone():
    def verdict(mismatches):
        return harness.CheckReport('suite', 'range', 1, mismatches, 0.0).verdict
    assert verdict([]) == 'pass'
    assert verdict([{'problem': 'x'}]) == 'fail'


def test_informational_pair_reports_its_disagreements():
    report = harness.check_proposition('prop-3.6-part-of-a', 8)
    assert report.informational
    assert report.verdict == 'fail'
    assert report.mismatch_count > 0
    assert len(report.witnesses) <= harness.WITNESS_CAP
    assert report.to_dict()['informational'] is True


def test_boundary_tuples_are_reported_but_not_counted():
    report = harness.check_proposition('prop-3.9-add', 8)
    assert report.verdict == 'pass'
    assert report.mismatch_count == 0
    assert report.boundary_count > 0
    for witness in report.boundary_witnesses:
        assert 'identity triple' in witness['reason']
        assert '0' in witness['args'][:2]


def test_witness_cap_applies():
    report = harness.check_proposition('prop-3.6-part-of-a', 14)
    assert report.mismatch_count > harness.WITNESS_CAP
    assert len(report.witnesses) == harness.WITNESS_CAP


def test_run_pair_renders_only_the_witnesses_it_keeps(monkeypatch):
    # CheckReport keeps WITNESS_CAP witnesses per list; past that a tuple
    # is counted, and still asked whether it is a boundary case
    rendered, asked = [], []
    monkeypatch.setattr(harness, 'render',
                        lambda pi: rendered.append(pi) or render(pi))
    geq = get_pair('prop-3.9-add-geq')
    boundary = geq.boundary
    monkeypatch.setattr(geq, 'boundary',
                        lambda args: asked.append(args) or boundary(args))
    for name, bound, arity, counts in (
            ('prop-3.6-part-of-a', 19, 2, (13185, 0)),
            ('prop-3.9-add-geq', 10, 3, (120, 121))):
        del rendered[:]
        report = harness.run_pair(get_pair(name), bound)
        assert (report.mismatch_count, report.boundary_count) == counts
        kept = report.witnesses + report.boundary_witnesses
        assert len(kept) == sum(min(n, harness.WITNESS_CAP) for n in counts)
        assert sorted(map(render, rendered)) == sorted(
            a for witness in kept for a in witness['args'])
        assert len(rendered) <= arity * 2 * harness.WITNESS_CAP
    assert len(asked) == 120 + 121
    assert all(w['reason'] for w in report.boundary_witnesses)


# --- variant resolution

def test_variant_resolution_prefers_the_surviving_reading():
    a = harness.check_proposition('prop-3.6-part-of-a', 8)
    b = harness.check_proposition('prop-3.6-part-of-b', 8)
    combined = harness.variant_resolution(a, b)
    assert combined.verdict == 'pass'
    assert combined.details['passing'] == ['prop-3.6-part-of-b']


def test_variant_resolution_rejects_two_survivors():
    a = harness.check_proposition('lemma-3.1-total', 6)
    b = harness.check_proposition('lemma-3.1-trivial', 6)
    combined = harness.variant_resolution(a, b)
    assert combined.verdict == 'fail'
    assert sorted(combined.details['passing']) == ['lemma-3.1-total',
                                                   'lemma-3.1-trivial']


# --- reconstruction

def test_fingerprints_group_each_level_as_lower_covers_do():
    # lower_covers works from run tuples, independently of the cover table
    universe = enumerate_universe(12)
    for n, level in enumerate(universe.levels):
        expected = {}
        for pi in level:
            key = frozenset(universe.ordinal(s) for s in lower_covers(pi))
            expected.setdefault(key, []).append(universe.ordinal(pi))
        assert harness._fingerprints(universe, n) == expected


def test_reconstruction_from_lower_covers():
    report = harness.reconstruction_check(12)
    assert report.verdict == 'pass'
    assert report.mismatch_count == 0
    assert report.details['level2Collision'] == [['2[1]', '[2]']]
    assert report.details['level3Injective']


def test_reconstruction_reports_a_collision_above_level_3(monkeypatch):
    table = Universe.cover_table

    def merged(universe):
        rows = list(table(universe))
        a, b = (universe.ordinal(parse_partition(text))
                for text in ('[4]', '2[2]'))
        rows[b] = rows[a]           # 2[2] now covers [3] alone, as [4] does
        return rows
    monkeypatch.setattr(Universe, 'cover_table', merged)
    report = harness.reconstruction_check(6)
    assert report.verdict == 'fail'
    assert report.witnesses == [{'level': 4, 'groups': [['2[2]', '[4]']]}]


def _edit_cover_row(monkeypatch, text, edit):
    """Patch Universe.cover_table so that the row of the partition
    written text becomes edit(row), and every other row stays."""
    table = Universe.cover_table

    def edited(universe):
        cut = universe.ordinal(parse_partition(text))
        rows = list(table(universe))
        rows[cut] = tuple(edit(rows[cut]))
        return rows
    monkeypatch.setattr(Universe, 'cover_table', edited)


def test_reconstruction_names_a_lost_level_2_collision(monkeypatch):
    _edit_cover_row(monkeypatch, '2[1]', lambda row: [])
    report = harness.reconstruction_check(6)
    assert report.verdict == 'fail'
    assert report.mismatch_count >= 1
    assert report.details['level2Collision'] == []
    assert {'level': 2, 'groups': [],
            'expected': [['2[1]', '[2]']]} in report.witnesses


def test_cover_suites_read_the_cover_table(monkeypatch):
    calls = []
    for module in (harness, partitions):
        monkeypatch.setattr(module, 'lower_covers', calls.append)
    assert harness.reconstruction_check(12).verdict == 'pass'
    assert harness.automorphism_report(6).verdict == 'pass'
    assert calls == []


def test_the_quick_report_reads_no_whole_bit_cache(monkeypatch):
    # every order row is asked for one at a time; the embed suites still
    # find the maps of the recorded report
    def refuse(self):
        raise AssertionError('a whole bit cache was built')
    for name in ('down_bits', 'up_bits'):
        monkeypatch.setattr(Universe, name, refuse)
    document, code = harness.check_all('quick')
    assert code == 0
    recorded = json.loads((pathlib.Path(__file__).parent / 'data'
                           / 'check_all_quick.json').read_text(encoding='utf-8'))
    embeds = [[s['details'] for s in doc['suites']
               if s['propositionName'].startswith('embed-')]
              for doc in (document, recorded)]
    assert len(embeds[0]) == 4 and embeds[0] == embeds[1]
    with pytest.raises(AssertionError):
        Universe(3).up_bits()             # the patch is in force


def test_reconstruction_needs_enough_levels():
    with pytest.raises(harness.UsageError):
        harness.reconstruction_check(3)


def test_reconstruction_refuses_a_bound_that_is_not_an_int():
    with pytest.raises(partitions.PartitionError, match='must be an integer'):
        harness.reconstruction_check(4.5)


# --- automorphisms

def test_automorphism_counts_by_rank():
    assert len(harness.automorphism_search(1)) == 1
    maps = harness.automorphism_search(4)
    assert len(maps) == 2
    kinds = {harness.classify_automorphism(m) for m in maps}
    assert kinds == {'identity', 'conjugation'}


def test_a_swap_within_one_level_is_other():
    mapping = {pi: pi for pi in enumerate_universe(3)}
    a, b = parse_partition('[3]'), parse_partition('[2]+[1]')
    mapping[a], mapping[b] = b, a
    assert harness.classify_automorphism(mapping) == 'other'


def test_automorphism_report():
    report = harness.automorphism_report(6)
    assert report.verdict == 'pass'
    assert report.details == {'count': 2, 'kinds': ['conjugation', 'identity']}


def test_automorphisms_to_rank_25_are_conjugation_and_identity():
    reports = [harness.automorphism_report(25) for _ in range(3)]
    for report in reports:
        assert report.verdict == 'pass'
        assert report.details == {'count': 2,
                                  'kinds': ['conjugation', 'identity']}
    # best of three, so that one slow run on a loaded host does not fail it
    assert min(report.elapsed for report in reports) <= 0.5


def test_automorphism_search_fails_without_one_lower_cover(monkeypatch):
    _edit_cover_row(monkeypatch, '[3]+[1]', lambda row: row[:-1])
    report = harness.automorphism_report(6)
    assert report.verdict == 'fail'
    assert report.details == {'count': 1, 'kinds': ['identity']}


def test_automorphism_rank_ceiling():
    from young_defined.partitions import ResourceLimit
    with pytest.raises(ResourceLimit):
        harness.automorphism_search(harness.AUTOMORPHISM_RANK_CEILING + 1)
    with pytest.raises(harness.UsageError):
        harness.automorphism_search(-1)


# --- finite posets

def test_poset_parse_and_closure():
    poset = harness.FinitePoset.parse(
        "# a three chain with a side element\n"
        "elem a\nelem b\nelem c\nelem side\n"
        "lt a b\nlt b c\n")
    assert ('a', 'c') in poset.less          # transitive closure
    assert ('side', 'a') not in poset.less
    assert len(poset.elements) == 4


@pytest.mark.parametrize('text', [
    "elem a\nelem a\n",                      # duplicate
    "elem a\nlt a b\n",                      # undeclared
    "elem a\nelem b\nlt a b\nlt b a\n",      # cycle
    "elem a\nwat a b\n",                     # bad keyword
    "elem a b c\n",                          # wrong arity
])
def test_poset_parse_rejections(text):
    with pytest.raises(harness.UsageError):
        harness.FinitePoset.parse(text)


def test_poset_factories():
    chain = harness.FinitePoset.chain(4)
    assert len(chain.less) == 6              # all ordered pairs of a 4-chain
    assert harness.FinitePoset.antichain(5).less == set()
    crown = harness.FinitePoset.crown()
    assert ('a', 'c') in crown.less and ('a', 'b') not in crown.less


# --- embedding

def test_embed_chain_and_verify():
    poset = harness.FinitePoset.chain(5)
    mapping = harness.embed_poset(poset, 6)
    assert mapping is not None
    assert harness.verify_embedding(poset, mapping) is None


def test_embed_crown():
    poset = harness.FinitePoset.crown()
    mapping = harness.embed_poset(poset, 8)
    assert harness.verify_embedding(poset, mapping) is None


def test_embed_not_found_when_the_bound_is_too_low():
    assert harness.embed_poset(harness.FinitePoset.antichain(8), 4) is None


def test_embed_poset_builds_a_fraction_of_the_two_bit_caches():
    # only the rows of the images it tries: about 0.09 of the estimate,
    # where building both caches whole peaked at 1.1
    universe = enumerate_universe(20)    # the level tables, built once
    tracemalloc.start()
    try:
        harness.embed_poset(harness.FinitePoset.crown(), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * bit_cache_bytes(len(universe))


def test_embed_poset_builds_only_the_rows_it_tries(monkeypatch):
    made = []

    def recorded(max_card):
        made.append(enumerate_universe(max_card))
        return made[-1]
    monkeypatch.setattr(harness, 'enumerate_universe', recorded)
    poset = harness.FinitePoset.chain(5)
    mapping = harness.embed_poset(poset, 25)
    assert [render(mapping[e]) for e in poset.elements] == [
        '0', '[1]', '[2]', '[3]', '[4]']
    # each element takes its first candidate, so five of the 9,296 rows
    universe, = made
    tried = {universe.ordinal(pi) for pi in mapping.values()}
    assert len(universe) == 9296 and len(tried) == 5
    for rows in (universe._down_bits, universe._up_bits):
        assert {i for i, row in enumerate(rows) if row is not None} == tried


def test_embed_places_elements_by_depth():
    names = ['p%d' % i for i in range(5)]
    poset = harness.FinitePoset(names, [('p0', 'p2'), ('p0', 'p3'), ('p0', 'p4'),
                                        ('p1', 'p2'), ('p1', 'p3')])
    mapping = harness.embed_poset(poset, 4)
    # p4 has one element below it and p2, p3 two, but all three have
    # depth 1: placed before p2 and p3, p4 would take [3]
    assert {e: render(pi) for e, pi in mapping.items()} == {
        'p0': '[2]', 'p1': '2[1]', 'p2': '[3]+[1]', 'p3': '2[2]', 'p4': '[4]'}


@pytest.mark.parametrize('poset, max_card, top_first', [
    (harness.FinitePoset.chain(5), 6, ['e5', 'e4', 'e3', 'e2', 'e1']),
    (harness.FinitePoset.crown(), 8, ['c', 'd', 'a', 'b'])],
    ids=['chain-5', '2-crown'])
def test_embed_ignores_the_declaration_order_across_depths(poset, max_card,
                                                           top_first):
    top_down = harness.FinitePoset(top_first, poset.less)
    assert (harness.embed_poset(top_down, max_card)
            == harness.embed_poset(poset, max_card))


def test_embed_poset_budgets_its_search_before_the_bit_caches(
        monkeypatch, tmp_path, capsys):
    # chain(40) at 3 needs about 40 KB for its candidate lists, the bit
    # caches of the 7 partitions about 1 KB
    monkeypatch.setattr(harness, 'MAX_BIT_CACHE_BYTES', 20000)
    with pytest.raises(partitions.ResourceLimit, match='embedding 40'):
        harness.embed_poset(harness.FinitePoset.chain(40), 3)
    path = tmp_path / 'chain.txt'
    path.write_text(''.join('elem e%d\n' % i for i in range(1, 41))
                    + ''.join('lt e%d e%d\n' % (i, i + 1) for i in range(1, 40)))
    assert run_cli('embed', '--poset', str(path), '--max-card', '3') == 2
    assert 'error:' in capsys.readouterr().err
    assert harness.embed_poset(harness.FinitePoset.chain(4), 3) is not None


def test_embed_a_truncation_into_itself():
    # one stack frame per element would exceed Python's recursion limit
    universe = enumerate_universe(17)
    names = [render(pi) for pi in universe.elements]
    covers = [(render(sigma), render(pi)) for pi in universe.elements
              for sigma in lower_covers(pi)]
    poset = harness.FinitePoset(names, covers)
    assert len(names) == 1212
    start = time.perf_counter()
    mapping = harness.embed_poset(poset, 17)
    assert time.perf_counter() - start <= 10
    # the first mapping found is the identity
    assert {e: render(pi) for e, pi in mapping.items()} == {e: e for e in names}


def test_verify_embedding_rejects_bad_maps():
    poset = harness.FinitePoset.chain(2)
    assert harness.verify_embedding(poset, {
        'e1': parse_partition('[1]'), 'e2': parse_partition('[1]')}) == {
        'kind': 'not injective', 'pair': ['e1', 'e2'],
        'images': ['[1]', '[1]']}
    assert harness.verify_embedding(poset, {
        'e1': parse_partition('[2]'), 'e2': parse_partition('2[1]')}) == {
        'kind': 'order disagreement', 'pair': ['e1', 'e2'],
        'images': ['[2]', '2[1]']}
    # reflecting the order: images ordered where the poset has no pair
    antichain = harness.FinitePoset.antichain(2)
    assert harness.verify_embedding(antichain, {
        'a1': parse_partition('[1]'), 'a2': parse_partition('[2]')}) == {
        'kind': 'order disagreement', 'pair': ['a1', 'a2'],
        'images': ['[1]', '[2]']}


def test_a_map_that_fails_its_re_check_is_a_failed_suite(monkeypatch, capsys,
                                                          tmp_path):
    # every element sent to one image: the report records the violation
    # as a mismatch, and embed exits 1, not 2
    def collapse(poset, max_card):
        return dict.fromkeys(poset.elements, parse_partition('[1]'))
    monkeypatch.setattr(harness, 'embed_poset', collapse)
    report = harness.embed_report('embed-chain-3',
                                  harness.FinitePoset.chain(3), 4)
    assert report.verdict == 'fail'
    assert report.witnesses == [{'kind': 'not injective', 'pair': ['e1', 'e2'],
                                 'images': ['[1]', '[1]']}]
    path = tmp_path / 'chain.txt'
    path.write_text('elem e1\nelem e2\nelem e3\nlt e1 e2\nlt e2 e3\n')
    assert run_cli('embed', '--poset', str(path), '--max-card', '4') == 1
    assert 'not an embedding: {"images": ["[1]", "[1]"]' in \
        capsys.readouterr().out


def test_embed_report_both_expectations():
    found = harness.embed_report('embed-chain-3', harness.FinitePoset.chain(3), 4)
    assert found.verdict == 'pass' and found.details['found']
    images = [parse_partition(found.details['mapping']['e%d' % i])
              for i in (1, 2, 3)]
    assert images[0].card < images[1].card < images[2].card
    absent = harness.embed_report('embed-antichain-8-too-low',
                                  harness.FinitePoset.antichain(8), 4,
                                  expect_found=False)
    assert absent.verdict == 'pass' and not absent.details['found']
    assert 'does not refute' in absent.details['statement']


# --- corpus and arithmetization suites

COVER = 'x <= y & x != y & forall z (x <= z & z <= y -> x = z | z = y)'


def test_corpus_report_passes_each_bundled_formula():
    from young_defined import formulas
    for name, text in sorted(formulas.corpus().items()):
        report = harness.corpus_report(name, text, max_card=5, slacks=(0, 1, 2))
        assert report.verdict == 'pass', report.to_json()
        assert report.details['flipCount'] == 0


def test_corpus_report_catches_a_swapped_formula():
    report = harness.corpus_report(
        'cover', '# class: Pi1\n# bound: 8\nx <= y & x != y', 5, (0, 1, 2, 3))
    assert report.verdict == 'fail'
    problems = {w['problem'] for w in report.witnesses}
    assert 'classification drifted' in problems
    assert 'disagrees with the oracle set' in problems


def test_corpus_report_needs_a_registered_name():
    with pytest.raises(harness.UsageError, match='no expectation registered'):
        harness.corpus_report('no-such-file', formulas.corpus()['empty'], 3,
                              (0,))


def test_corpus_report_names_a_printer_that_changes_the_tree(monkeypatch):
    monkeypatch.setattr(formulas, 'print_file', lambda f: 'x <= x')
    report = harness.corpus_report('empty', formulas.corpus()['empty'], 3,
                                   (0, 1))
    assert report.verdict == 'fail'
    assert {'problem': 'printer roundtrip changed the tree'} in report.witnesses


def test_corpus_report_refuses_an_empty_slack_schedule():
    # refused before the universe is sized from the largest slack
    with pytest.raises(formulas.EvalError, match='empty slack schedule'):
        harness.corpus_report('cover', formulas.corpus()['cover'], 8, ())


MAXIMAL = 'forall y (x <= y -> x = y)'     # Pi1: level 3 flips out


@pytest.mark.parametrize('slacks', [(0, 1), (1, 0)])
def test_corpus_report_fails_a_flip_against_the_class(monkeypatch, slacks):
    text = '# class: Pi1\n# bound: 3\n' + MAXIMAL
    report = harness.corpus_report('empty', text, 3, slacks)
    assert report.details['flipCount'] == 3
    assert not any(w['problem'] == 'flip against the class'
                   for w in report.witnesses)
    # read as Sigma1, each of the 3 flips leaves the set as the slack grows
    monkeypatch.setattr(formulas, 'prenex_classify', lambda f: 'Sigma1')
    report = harness.corpus_report('empty', text.replace('Pi1', 'Sigma1'), 3,
                                   slacks)
    wrong = [w for w in report.witnesses
             if w['problem'] == 'flip against the class']
    assert len(wrong) == 3 and report.verdict == 'fail'
    assert wrong[0] == {'problem': 'flip against the class',
                        'value': "Partition('3[1]')",
                        'fromSlack': slacks[0], 'toSlack': slacks[1],
                        'wasMember': slacks == (0, 1)}


@pytest.mark.parametrize('name', sorted(formulas.corpus()))
@pytest.mark.parametrize('klass, text', [
    ('Pi1', MAXIMAL),
    ('Sigma1', 'exists y (x <= y & x != y)'),
    # under 'empty' these two match the oracle set {0} at one slack only:
    # the Pi1 set at slack 1 and up, the Sigma1 set at slack 0 only
    ('Pi1', 'const c = 0;\nx = c | ' + MAXIMAL),
    ('Sigma1', 'const c = 0;\nconst d = [4];\n'
               'x = c | exists y (x <= y & x != y & d <= y)')],
    ids=['Pi1', 'Sigma1', 'Pi1-or-empty', 'Sigma1-or-empty'])
def test_a_flipping_formula_fails_with_an_oracle_disagreement(name, klass,
                                                              text):
    # the oracle set is the same at every slack, so sets that differ
    # between two slacks cannot both match it
    report = harness.corpus_report(name, '# class: %s\n# bound: 3\n%s'
                                   % (klass, text), 3, (0, 1, 2))
    assert report.details['flipCount'] > 0
    assert report.verdict == 'fail'
    assert 'disagrees with the oracle set' in {
        w['problem'] for w in report.witnesses}


UNI10 = Universe(10)


@st.composite
def sigma1_and_pi1_texts(draw):
    """One or two like quantifiers, y and then z outside it, whose body is
    the guard `x <= v` or `c <= v`, v the outer variable, and 1-3 literals
    over x, c and the quantified variables: joined by & under exists, and
    by | after the guard's -> under forall.  The guard reaches above the
    bound, so flips are common (one text in four to eight)."""
    bound = draw(st.sampled_from([['y'], ['y', 'z']]))
    guard = '%s <= %s' % (draw(st.sampled_from(['x', 'c'])), bound[-1])
    literal = st.builds(lambda form, pair: form % pair,
                        st.sampled_from(['%s <= %s', '%s != %s', '!(%s <= %s)']),
                        st.sampled_from(list(itertools.permutations(
                            ['x', 'c'] + bound, 2))))
    rest = draw(st.lists(literal, min_size=1, max_size=3))
    if draw(st.booleans()):
        q, body = 'exists', ' & '.join([guard] + rest)
    else:
        q, body = 'forall', '%s -> %s' % (guard, ' | '.join(rest))
    text = '%s y (%s)' % (q, body)
    if len(bound) == 2:
        text = '%s z (%s)' % (q, text)
    constant = draw(st.sampled_from(['[1]', '[2]+[1]', '2[2]', '[3]+[1]',
                                     '[6]']))
    return 'const c = %s;\n%s' % (constant, text)


@settings(max_examples=100, deadline=None)
@given(sigma1_and_pi1_texts())
def test_sigma1_sets_grow_and_pi1_sets_shrink_with_the_slack(text):
    f = formulas.parse(text)
    free = tuple(sorted(formulas.free_vars(f)))
    _, flips = formulas.stability_check(f, free, UNI10, 5, (0, 1, 2, 3))
    got = str(formulas.prenex_classify(f))
    assert got in ('Sigma1', 'Pi1')
    assert all(allowed for *_, allowed in flips)


def _swapped_classes(monkeypatch, mutant):
    classify = formulas.prenex_classify
    monkeypatch.setattr(formulas, 'prenex_classify', lambda f: {
        'Sigma1': 'Pi1', 'Pi1': 'Sigma1'}[str(classify(f))])


def _sets_in_reverse_slack_order(monkeypatch, mutant):
    monkeypatch.setattr(formulas, 'stability_check', mutant(
        formulas.stability_check, 'for k in slacks:', 'for k in slacks[::-1]:'))


@pytest.mark.parametrize('mutate', [_swapped_classes,
                                    _sets_in_reverse_slack_order])
def test_a_wrong_way_reading_fails_the_flip_direction_test(monkeypatch,
                                                           mutant, mutate):
    mutate(monkeypatch, mutant)
    run = settings(max_examples=100, deadline=None, database=None,
                   phases=[Phase.generate])(given(sigma1_and_pi1_texts())(
        test_sigma1_sets_grow_and_pi1_sets_shrink_with_the_slack
        .hypothesis.inner_test))
    with pytest.raises(AssertionError):
        run()


def test_each_corpus_file_declares_its_class_and_bound():
    for name, text in formulas.corpus().items():
        lines = text.splitlines()
        assert len([l for l in lines if l.startswith('# class: ')]) == 1, name
        assert len([l for l in lines if l.startswith('# bound: ')]) == 1, name


def test_corpus_report_needs_a_declared_class(monkeypatch, capsys):
    with pytest.raises(harness.UsageError):
        harness.corpus_report('cover', '# bound: 8\n' + COVER, 3, (0, 1))
    with pytest.raises(harness.UsageError):
        harness.corpus_report('cover', '# class: Pi1\n# class: Pi1\n'
                              '# bound: 8\n' + COVER, 3, (0, 1))
    monkeypatch.setattr(formulas, 'corpus', lambda: {'cover': COVER})
    assert run_cli('check-all', '--profile', 'quick') == 2
    assert 'class:' in capsys.readouterr().err


def test_arithmetization_report():
    report = harness.arithmetization_report(
        max_card=8, integer_ceiling=10 ** 4, pair_card=8, bridge_bound=10)
    assert report.verdict == 'pass'
    assert report.mismatch_count == 0
    assert report.total_checked > 10 ** 4


def _arithmetization_problems():
    """The problems the suite finds at a small bound where it checks 136
    tuples: 12 partitions, 21 integers, 49 order pairs, 54 bridge."""
    report = harness.arithmetization_report(4, 20, 3, 2)
    assert report.total_checked == 136
    assert report.mismatch_count == len(report.witnesses)
    return [dict(w) for w in report.witnesses]


def test_arithmetization_report_passes_at_the_small_bound():
    assert _arithmetization_problems() == []


def test_arithmetization_report_refuses_pairs_above_its_partitions():
    with pytest.raises(harness.UsageError,
                       match='pair_card 5 exceeds max_card 4'):
        harness.arithmetization_report(4, 20, 5, 2)
    assert harness.arithmetization_report(4, 20, 4, 2).verdict == 'pass'


def test_arithmetization_report_names_a_moved_decode(monkeypatch):
    # [3] decodes to 0, so the order check reads it below everything:
    # [3] against each other partition of <= 3, and [1] and [2] against [3]
    decode = harness.decode
    monkeypatch.setattr(harness, 'decode',
                        lambda n: partitions.EMPTY if n == 5 else decode(n))
    assert decode(5) == parse_partition('[3]')
    pairs = [('[1]', '[3]'), ('[2]', '[3]')] + [
        ('[3]', b) for b in ('0', '[1]', '[2]', '2[1]', '[2]+[1]', '3[1]')]
    assert _arithmetization_problems() == [
        {'problem': 'decode(encode) moved', 'arg': '[3]'},
        {'problem': 'encode(decode) moved', 'arg': 5}] + [
        {'problem': 'order disagreement', 'args': list(pair)}
        for pair in pairs]


class _Decoded(partitions.Partition):
    """A partition as decode returns it, so a patched leq can tell it apart."""
    __slots__ = ()


def test_arithmetization_report_names_each_order_disagreement(monkeypatch):
    # leq read backwards on the decodes alone: each strict pair disagrees
    decode, leq = harness.decode, partitions.leq
    monkeypatch.setattr(harness, 'decode', lambda n: _Decoded(decode(n).runs))
    monkeypatch.setattr(harness, 'leq', lambda a, b: leq(b, a) if isinstance(
        a, _Decoded) and isinstance(b, _Decoded) else leq(a, b))
    small = enumerate_universe(3).elements
    strict = [(a, b) for a in small for b in small if leq(a, b) != leq(b, a)]
    problems = _arithmetization_problems()
    assert len(strict) == 30
    assert problems == [{'problem': 'order disagreement',
                         'args': [render(a), render(b)]} for a, b in strict]


def test_arithmetization_report_names_a_corrupt_table_entry(monkeypatch):
    # 25 = 5^2 read as 5^1: 25 decodes to [3], whose code is 5
    table = array('i', arithmetization._tables()[0])
    assert table[25 // 3] == 3 << 23 | 2 << 18
    table[25 // 3] = 3 << 23 | 1 << 18
    monkeypatch.setattr(arithmetization, '_wheel', table)
    report = harness.arithmetization_report(
        max_card=8, integer_ceiling=10 ** 4, pair_card=8, bridge_bound=10)
    assert report.verdict == 'fail'
    assert {'problem': 'encode(decode) moved', 'arg': 25} in report.witnesses


def test_arithmetization_report_names_an_encode_collision(monkeypatch):
    # [3]+[1] is given the code of 2[2]; neither is among the order pairs
    encode = harness.encode
    moved, target = parse_partition('[3]+[1]'), parse_partition('2[2]')
    monkeypatch.setattr(harness, 'encode', lambda sigma: encode(
        target if sigma == moved else sigma))
    assert encode(moved) == 10
    assert _arithmetization_problems() == [
        {'problem': 'decode(encode) moved', 'arg': '[3]+[1]'},
        {'problem': 'encode(decode) moved', 'arg': 10}]


BRIDGE_TRIPLES = list(itertools.product(range(3), repeat=3))


def test_arithmetization_report_names_each_addition_mismatch(monkeypatch):
    # the addition oracle read as <=, which the bridge holds to m + n == r
    monkeypatch.setattr(get_pair('prop-3.9-add'), 'oracle',
                        lambda rho, sigma, pi: rho.card + sigma.card <= pi.card)
    problems = _arithmetization_problems()
    assert len(problems) == 4
    assert problems == [{'problem': 'addition bridge', 'args': [m, n, r]}
                        for m, n, r in BRIDGE_TRIPLES if m + n < r]


def test_arithmetization_report_names_each_product_mismatch(monkeypatch):
    # the multiplication oracle read as addition
    monkeypatch.setattr(get_pair('prop-3.13-mult'), 'oracle',
                        lambda rho, sigma, pi: rho.card + sigma.card == pi.card)
    problems = _arithmetization_problems()
    assert len(problems) == 12
    assert problems == [{'problem': 'multiplication bridge', 'args': [m, n, r]}
                        for m, n, r in BRIDGE_TRIPLES
                        if (m + n == r) != (m * n == r)]


# --- the aggregate

def test_check_all_quick_profile():
    start = time.perf_counter()
    document, code = harness.check_all('quick')
    wall = time.perf_counter() - start
    assert code == 0
    assert document['verdict'] == 'pass'
    assert document['schema'] == 'young-defined/1'
    names = [suite['propositionName'] for suite in document['suites']]
    assert len(names) == len(set(names))
    registered = {pair.name for pair in all_pairs()}
    assert registered <= set(names)
    for suite in document['suites']:
        if not suite.get('informational'):
            assert suite['verdict'] == 'pass', suite['propositionName']
    json.dumps(document)                     # must be serializable as is
    # no suite's time is counted twice; each is rounded to the millisecond
    suites = document['suites']
    assert sum(s['elapsedSeconds'] for s in suites) <= wall + 0.0005 * len(suites)


def test_check_all_fails_a_suite_exactly_when_it_counts_a_mismatch():
    document, _ = harness.check_all('quick')
    assert any(s['verdict'] == 'fail' for s in document['suites'])
    for suite in document['suites']:
        assert ((suite['verdict'] == 'fail')
                == (suite['mismatchCount'] > 0)), suite['propositionName']
        assert (suite['mismatchCount'] > 0) == bool(suite['witnesses'])


def test_check_all_enumerates_each_level_once():
    enumerate_level.cache_clear()
    harness.check_all('quick')
    assert enumerate_level.cache_info().misses == 11     # levels 0..10


def test_check_all_quick_matches_the_recorded_report(capsys):
    # a recorded quick-profile report: every byte but the timings must
    # survive a change to how bounds, classes and domains are declared
    assert run_cli('check-all', '--profile', 'quick', '--json') == 0
    elapsed = re.compile(r'\n\s*"elapsedSeconds": [^\n]*')
    recorded = (pathlib.Path(__file__).parent / 'data'
                / 'check_all_quick.json').read_text(encoding='utf-8')
    assert elapsed.sub('', capsys.readouterr().out) == elapsed.sub('', recorded)


def _report_digest(capsys, profile):
    """The sha256 of a check-all JSON report without its elapsedSeconds
    lines; a change that alters a report must re-record its digest."""
    assert run_cli('check-all', '--profile', profile, '--json') == 0
    kept = [line for line in capsys.readouterr().out.splitlines(keepends=True)
            if '"elapsedSeconds"' not in line]
    return hashlib.sha256(''.join(kept).encode()).hexdigest()


def test_check_all_standard_matches_the_recorded_digest(capsys):
    assert _report_digest(capsys, 'standard') == (
        'a1787fd2dd68d3e78e94c54ce8cb33aba6c139abb604f15541aa33fa084b1e4a')


def test_check_all_thorough_matches_the_recorded_digest(capsys):
    assert _report_digest(capsys, 'thorough') == (
        '790e2b9b6e2931c007d9e98a55b2c3bb3db99f6c0c241d6ee82f35acf1775270')


def test_check_all_human_output_times_each_suite(capsys):
    assert run_cli('check-all', '--profile', 'quick') == 0
    lines = capsys.readouterr().out.splitlines()
    document, _ = harness.check_all('quick')
    assert len(lines) == len(document['suites']) + 1
    for line, suite in zip(lines, document['suites']):
        assert line.startswith(suite['propositionName'] + ' ')
        assert re.search(r', \d+\.\d\ds( \(informational\))?$', line), line
    assert lines[-1] == 'profile quick: PASS'


def test_check_all_rejects_unknown_profiles():
    with pytest.raises(harness.UsageError):
        harness.check_all('exhaustive')


# --- command line

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_enumerate(capsys):
    assert run_cli('enumerate', '--max-card', '6') == 0
    out = capsys.readouterr().out
    assert 'level  6: 11 partitions' in out
    assert 'total: 30' in out


def test_cli_check_prop_json(capsys):
    assert run_cli('check-prop', 'lemma-3.2-rectangular',
                   '--max-card', '8', '--json') == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc['verdict'] == 'pass'
    assert doc['schema'] == 'young-defined/1'


def test_cli_check_prop_prints_the_boundary_line(capsys):
    assert run_cli('check-prop', 'prop-3.9-add', '--max-card', '6') == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith('prop-3.9-add ') and 'PASS' in lines[0]
    assert lines[1:] == [
        '  (13 expected boundary tuples reported separately)']


def test_cli_check_prop_failure_exit_code(capsys):
    assert run_cli('check-prop', 'prop-3.6-part-of-a', '--max-card', '8') == 1
    assert 'FAIL' in capsys.readouterr().out


def test_cli_usage_errors_exit_2(capsys):
    assert run_cli('check-prop', 'no-such-pair', '--max-card', '8') == 2
    assert capsys.readouterr().err.startswith('error:')
    assert run_cli('decode', '-5') == 2
    assert run_cli('encode', '[oops]') == 2
    capsys.readouterr()
    # a refused ceiling is an input error, not an internal one
    assert run_cli('decode', '1000001') == 2
    assert capsys.readouterr().err.startswith('error:')
    assert run_cli('encode', '[78499]') == 2
    assert capsys.readouterr().err.startswith('error:')
    assert run_cli('encode', '1000000[2]') == 2     # over 2^15 parts
    assert capsys.readouterr().err.startswith('error:')
    assert run_cli('decode', '1073741824') == 0
    assert capsys.readouterr().out.strip() == '31[1]'


def test_cli_eval(tmp_path, capsys):
    path = tmp_path / 'query.fol'
    path.write_text('const c11 = [1]+[1];\nforall y (y <= x -> y <= c11 | c11 <= y)\n')
    assert run_cli('eval', '--formula', str(path), '--assign', 'x=2[1]',
                   '--max-card', '6', '--slack', '1') == 0
    out = capsys.readouterr().out
    assert 'class: Pi1' in out
    assert 'value: True' in out
    assert run_cli('eval', '--formula', str(path), '--assign', 'x=[3]',
                   '--max-card', '6', '--slack', '1') == 0
    assert 'value: False' in capsys.readouterr().out
    assert run_cli('eval', '--formula', str(path), '--assign', 'x:[3]',
                   '--max-card', '6') == 2
    capsys.readouterr()
    assert run_cli('eval', '--formula', str(path), '--assign', 'x=[1]',
                   '--assign', 'x = [2]', '--max-card', '6') == 2
    assert "--assign gives 'x' twice" in capsys.readouterr().err
    stray = tmp_path / 'stray.fol'
    stray.write_text('x <= y\n')
    assert run_cli('eval', '--formula', str(stray), '--assign', 'x=[1]',
                   '--assign', 'z=[2]', '--max-card', '4') == 2
    assert ('--assign gives z, not free in the formula (free: x, y)'
            in capsys.readouterr().err)


@pytest.mark.parametrize('text', ['(' * 3000 + 'x <= x' + ')' * 3000,
                                  '!' * 3000 + 'x <= x'],
                         ids=['parentheses', 'negations'])
def test_cli_eval_deep_nesting_exits_2(tmp_path, capsys, text):
    path = tmp_path / 'deep.fol'
    path.write_text(text)
    assert run_cli('eval', '--formula', str(path), '--assign', 'x=[1]',
                   '--max-card', '3') == 2
    assert 'nested deeper' in capsys.readouterr().err


def test_cli_internal_error_exits_2(tmp_path, capsys, monkeypatch):
    def crash(*args):
        raise RuntimeError('boom')
    monkeypatch.setattr(formulas, 'evaluate', crash)
    path = tmp_path / 'query.fol'
    path.write_text('x <= x\n')
    assert run_cli('eval', '--formula', str(path), '--assign', 'x=[1]',
                   '--max-card', '3') == 2
    assert 'internal error: RuntimeError: boom' in capsys.readouterr().err


def test_every_error_class_exits_2_as_an_input_error():
    from young_defined import arithmetization, catalog
    modules = (arithmetization, catalog, cli, formulas, harness, partitions)
    errors = [value for module in modules for value in vars(module).values()
              if isinstance(value, type) and issubclass(value, BaseException)
              and value.__module__ == module.__name__]
    assert len(errors) == 6
    for error in errors:
        assert issubclass(error, (ValueError, partitions.ResourceLimit)), error


def test_cli_eval_missing_file(capsys):
    assert run_cli('eval', '--formula', '/nonexistent/q.fol',
                   '--max-card', '5') == 2
    assert 'error:' in capsys.readouterr().err


def test_cli_embed(tmp_path, capsys):
    path = tmp_path / 'poset.txt'
    path.write_text('elem a\nelem b\nlt a b\n')
    assert run_cli('embed', '--poset', str(path), '--max-card', '3') == 0
    out = capsys.readouterr().out
    assert 'a ->' in out and 'b ->' in out
    big = tmp_path / 'antichain.txt'
    big.write_text(''.join('elem a%d\n' % i for i in range(8)))
    assert run_cli('embed', '--poset', str(big), '--max-card', '4') == 1
    assert 'not found' in capsys.readouterr().out


def test_embed_a_long_chain_in_little_time(tmp_path, capsys):
    chain = harness.FinitePoset.chain(40)
    start = time.perf_counter()
    assert harness.embed_poset(chain, 3) is None
    assert time.perf_counter() - start < 1.0
    path = tmp_path / 'chain.txt'
    path.write_text(''.join('elem e%d\n' % i for i in range(1, 41))
                    + ''.join('lt e%d e%d\n' % (i, i + 1) for i in range(1, 40)))
    assert run_cli('embed', '--poset', str(path), '--max-card', '3') == 1
    assert 'not found' in capsys.readouterr().out


def test_cli_encode_decode_roundtrip(capsys):
    assert run_cli('encode', '2[3]+[1]') == 0
    code = capsys.readouterr().out.strip()
    assert code == '50'
    assert run_cli('decode', code) == 0
    assert capsys.readouterr().out.strip() == render(parse_partition('2[3]+[1]'))
    # 2^19999 has 6,021 digits, past str()'s default cap of 4,300
    limit = getattr(sys, 'get_int_max_str_digits', int)()
    assert run_cli('encode', '20000[1]') == 0
    out = capsys.readouterr().out.strip()
    with decimal.localcontext() as context:
        context.prec = 7000
        assert decimal.Decimal(out) == decimal.Decimal(2) ** 19999
    assert len(out) == 6021
    assert getattr(sys, 'get_int_max_str_digits', int)() == limit


def test_cli_reconstruct_and_automorphisms(capsys):
    assert run_cli('reconstruct', '--max-card', '8') == 0
    assert run_cli('automorphisms', '--max-rank', '4') == 0
    out = capsys.readouterr().out
    assert 'conjugation, identity' in out


def test_cli_automorphisms_to_rank_25_and_past_the_ceiling(capsys):
    assert run_cli('automorphisms', '--max-rank', '25') == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == '  found 2 automorphism(s): conjugation, identity'
    assert run_cli('automorphisms', '--max-rank', '27') == 2
    assert capsys.readouterr().err == (
        'error: automorphism search is capped at rank 26\n')


def test_cli_automorphisms_prints_its_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(harness, 'classify_automorphism', lambda m: 'other')
    assert run_cli('automorphisms', '--max-rank', '4') == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith('automorphism-uniqueness  ')
    assert 'FAIL' in lines[0] and '1 mismatches' in lines[0]
    assert lines[1] == ('  mismatch: {"expected": ["conjugation", '
                        '"identity"], "found": ["other", "other"]}')
    assert lines[2] == '  found 2 automorphism(s): other, other'
