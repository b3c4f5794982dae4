"""Mutation catalog: textual mutants of src/ that the engine must catch.

Each mutant is applied to a copy of the repository's src/ and tests/
under tmp_path.  A mutant the report can see must make `check-all
--profile quick --json` exit 1 with exactly its named suites turned to
fail; one the quick report passes is listed with the unit test that
catches it, which must then fail in a pytest run of the copy.  Each old text must occur exactly once
in its file, so a refactor that moves it must carry its mutant along.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
QUICK = json.loads((ROOT / 'tests' / 'data' / 'check_all_quick.json')
                   .read_text(encoding='utf-8'))

# id: (file under src/young_defined, old text, new text, suites that fail)
REPORT_MUTANTS = {
    'down-row-starts-at-zero': (
        'partitions.py', 'low, out = (1 << self._offsets',
        'low, out = 0 & (1 << self._offsets',
        ['corpus-empty', 'corpus-maximal-below', 'corpus-rectangular',
         'corpus-triviality', 'embed-antichain-5', 'embed-2-crown',
         'embed-antichain-8-too-low']),
    'down-row-without-its-own-bit': (
        'partitions.py', 'rows[i] = low ^ out\n',
        'rows[i] = low ^ out ^ 1 << i\n',
        ['corpus-empty', 'corpus-maximal-below']),
    'down-row-cells-not-cut-to-its-levels': (
        'partitions.py', 'self._cell(a + 1, b + 1) & low\n',
        'self._cell(a + 1, b + 1)\n',
        ['corpus-empty', 'corpus-rectangular']),
    'down-row-new-row-cell-one-column-out': (
        'partitions.py', 'runs + ((0, 1),)', 'runs + ((1, 1),)',
        ['corpus-rectangular']),
    'cover-table-tail-off-by-one': (
        'partitions.py', 'ordinals[x + tail] for x',
        'ordinals[x + tail + 1] for x',
        ['reconstruction-from-lower-covers', 'automorphism-uniqueness']),
    # the up mask of ordinal zero, the empty partition, cut to its own bit
    'up-bits-skip-ordinal-zero': (
        'partitions.py', '(1 << len(self.elements)) - 1\n',
        '(1 << len(self.elements)) - 1 if i else 1\n',
        ['corpus-cover', 'corpus-empty', 'corpus-rectangular',
         'embed-chain-5', 'embed-antichain-5']),
    'up-mask-without-its-own-bit': (
        'partitions.py', 'mask &= self._cell(a, b)\n        return mask\n',
        'mask &= self._cell(a, b)\n        return mask ^ 1 << i\n',
        ['corpus-cover', 'corpus-empty', 'corpus-maximal-below',
         'corpus-totality', 'embed-chain-5']),
    'up-set-rest-one-block-back': (
        'partitions.py', '0)) << row[m]\n', '0)) << row[m - 1]\n',
        ['corpus-cover', 'corpus-maximal-below', 'corpus-rectangular',
         'corpus-totality', 'embed-antichain-5', 'embed-2-crown']),
    'up-set-first-part-strictly-above': (
        'partitions.py', ', a - 1, -1)', ', a, -1)',
        ['corpus-cover', 'corpus-rectangular', 'corpus-totality',
         'corpus-triviality', 'embed-antichain-5', 'embed-2-crown']),
    # a canonical partition's largest part read off its last run
    'largest-part-is-the-smallest': (
        'partitions.py', 'self.largest = runs[0][0]\n        return self',
        'self.largest = runs[-1][0]\n        return self',
        ['prop-3.5-distinct', 'prop-3.6-part-of-b', 'prop-3.7-factorial',
         'variant-resolution(prop-3.6-part-of-a | prop-3.6-part-of-b)',
         'prop-3.11-height-geq', 'prop-3.12-height-eq', 'corpus-triviality',
         'embed-2-crown']),
    'leq-refuses-an-equal-part': (
        'partitions.py', 'if size_p < size:', 'if size_p <= size:',
        ['lemma-3.1-total', 'lemma-3.1-trivial', 'lemma-3.4-length',
         'lemma-3.4-bounded-part', 'prop-3.5-distinct', 'prop-3.6-part-of-b',
         'variant-resolution(prop-3.6-part-of-a | prop-3.6-part-of-b)',
         'corpus-rectangular', 'embed-2-crown']),
    # candidates below an image kept as incomparable to it
    'embed-incomparable-without-the-down-row': (
        'harness.py', '~(universe.down_row(u) | above)', '~above',
        ['embed-antichain-5', 'embed-2-crown', 'embed-antichain-8-too-low']),
    'strictly-above-stops-after-one-member': (
        'partitions.py', 'while rest:\n', 'if rest:\n',
        ['corpus-cover']),
    # the transposed loop keeps the values phi fails at, not those it holds
    # at; every exists runs on this loop too, as !forall y (phi -> false)
    'transposed-loop-keeps-what-fails': (
        'formulas.py', 'pending = body(local, pending)',
        'pending = pending & ~body(local, pending)',
        ['corpus-empty', 'corpus-rectangular']),
    # the diagonal disjunct y = q of a down-set sweep ignored
    'down-set-sweep-drops-the-diagonal': (
        'formulas.py', '| (0 if diagonal else bad))', '| 0)',
        ['corpus-triviality']),
}

# id: (file, old text, new text, the unit test that catches it); the quick
# report passed each of these, or crashed with exit 2, when it was listed,
# which is not re-run here to keep the catalog within a few seconds of tier-1
UNIT_MUTANTS = {
    'contains-strictly-below-max-card': (
        'partitions.py', 'pi.card <= self.max_card', 'pi.card < self.max_card',
        'tests/test_partitions.py::test_universe_lookup'),
    # _starts' off-by-ones index past a level, so the report crashes
    'block-start-one-after-its-block': (
        'partitions.py', 'row[m] = pos\n', 'row[m] = pos + 1\n',
        'tests/test_partitions.py::'
        'test_block_starts_count_the_partitions_before_each_block'),
    'small-parts-start-one-late': (
        'partitions.py', 'row[0] = pos\n', 'row[0] = pos + 1\n',
        'tests/test_partitions.py::'
        'test_block_starts_count_the_partitions_before_each_block'),
    'block-size-one-too-many': (
        'partitions.py', '- _start(r, s, 0)\n', '- _start(r, s, 0) + 1\n',
        'tests/test_partitions.py::'
        'test_block_starts_count_the_partitions_before_each_block'),
    'down-row-without-the-guard': (
        'partitions.py',
        'self._check_bit_cache()\n            rows = self._down_bits',
        'rows = self._down_bits',
        'tests/test_partitions.py::'
        'test_the_ceiling_is_checked_where_a_store_is_made'),
    # the standard report moves 334 decodes, the first at [4]+2[3]
    'sieve-ascending': (
        'arithmetization.py', 'in reversed(list(enumerate(small, 3))):',
        'in list(enumerate(small, 3)):',
        'tests/test_arithmetization.py::'
        'test_factor_table_matches_an_independent_sieve'),
    'totalize-builds-the-code-before-its-bound': (
        'arithmetization.py', 'if (low > TOTALIZE_CEILING.bit_length()',
        'if (False',
        'tests/test_arithmetization.py::'
        'test_totalize_refuses_before_it_builds_the_code'),
    'embed-search-unbudgeted': (
        'harness.py', 'if need > MAX_BIT_CACHE_BYTES:', 'if False:',
        'tests/test_harness.py::'
        'test_embed_poset_budgets_its_search_before_the_bit_caches'),
    # no corpus file mixes & and | without parentheses, or chains ->
    'or-binds-tighter-than-and': (
        'formulas.py', '_BINARY = (Iff, Implies, Or, And)',
        '_BINARY = (Iff, Implies, And, Or)',
        'tests/test_formulas.py::test_precedence_and_associativity'),
    'implies-left-associative': (
        'formulas.py', 'if cls is Implies', 'if False',
        'tests/test_formulas.py::test_precedence_and_associativity'),
    'outside-leq-swapped': (
        'formulas.py', 'if leq(values[i], values[o]))',
        'if leq(values[o], values[i]))',
        'tests/test_formulas.py::'
        'test_an_outside_value_on_the_right_is_asked_below_it'),
    'transposed-despite-a-nested-quantifier': (
        'formulas.py',
        'direct)\n            and not any(isinstance(g, (Exists, Forall))'
        ' and q in g.free\n                        for g in direct))',
        'direct))',
        'tests/test_formulas.py::'
        'test_each_quantifier_is_compiled_for_one_orientation'),
    # empty.fol is the only corpus formula whose transposed sweep ends on
    # one pending value, and that value, x = 0, is a member
    'forall-finish-keeps-the-last-pending-value-unasked': (
        'formulas.py', 'return sweep(env, pending, base)', 'return pending',
        'tests/test_formulas.py::'
        'test_a_transposed_sweep_finishes_its_last_pending_value'),
    # no corpus file holds an exists
    'exists-compiled-without-its-negation': (
        'formulas.py', 'return Not(Forall(', 'return (Forall(',
        'tests/test_formulas.py::'
        'test_evaluate_constants_outside_the_universe'),
    # only eval with an outside assignment reaches the branch: a quantified
    # variable never takes an outside value
    'outside-value-above-everything': (
        'formulas.py', '& care if o < n else 0\n',
        '& care if o < n else care\n',
        'tests/test_formulas.py::test_outside_value_reads_no_up_mask'),
    'flip-direction-ignored': (
        'formulas.py', '(after if k0 < k1 else before)', 'after',
        'tests/test_harness.py::'
        'test_corpus_report_fails_a_flip_against_the_class'),
    'flip-ends-swapped': (
        'formulas.py', "{'Sigma1': (True,), 'Pi1': (False,),",
        "{'Sigma1': (False,), 'Pi1': (True,),",
        'tests/test_harness.py::'
        'test_sigma1_sets_grow_and_pi1_sets_shrink_with_the_slack'),
}


def _mutated_copy(tmp_path, name, old, new):
    """tmp_path holding src/ with the mutant applied, tests/ and the
    project file, so pytest run there imports the mutated package."""
    for part in ('src', 'tests'):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy(ROOT / 'pyproject.toml', tmp_path)
    path = tmp_path / 'src' / 'young_defined' / name
    text = path.read_text(encoding='utf-8')
    assert text.count(old) == 1, 'the mutant text must occur exactly once'
    path.write_text(text.replace(old, new), encoding='utf-8')


def _run(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(tmp_path / 'src'),
               PYTHONDONTWRITEBYTECODE='1')
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize('name, old, new, suites',
                         list(REPORT_MUTANTS.values()),
                         ids=list(REPORT_MUTANTS))
def test_the_quick_report_catches_the_mutant(tmp_path, name, old, new, suites):
    _mutated_copy(tmp_path, name, old, new)
    done = _run(tmp_path, '-m', 'young_defined.cli', 'check-all',
                '--profile', 'quick', '--json')
    assert done.returncode == 1, done.stderr
    verdicts = {suite['propositionName']: suite['verdict']
                for suite in json.loads(done.stdout)['suites']}
    before = {suite['propositionName']: suite['verdict']
              for suite in QUICK['suites']}
    assert verdicts.keys() == before.keys()
    assert {k for k in before if verdicts[k] != before[k]} == set(suites)
    assert all(verdicts[k] == 'fail' for k in suites)


@pytest.mark.parametrize('name, old, new, test',
                         list(UNIT_MUTANTS.values()), ids=list(UNIT_MUTANTS))
def test_a_unit_test_catches_what_the_report_passes(tmp_path, name, old, new,
                                                   test):
    _mutated_copy(tmp_path, name, old, new)
    done = _run(tmp_path, '-m', 'pytest', '-q', '-p', 'no:cacheprovider',
                test)
    assert done.returncode == 1, done.stdout
    assert '1 failed' in done.stdout
