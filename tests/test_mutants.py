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
    'up-bits-skip-ordinal-zero': (
        'partitions.py', '= self.up_mask(i) >> i\n',
        '= (self.up_mask(i) if i else 1) >> i\n',
        ['corpus-cover', 'corpus-empty', 'corpus-rectangular',
         'embed-chain-5', 'embed-antichain-5']),
    'up-bits-row-without-its-own-bit': (
        'partitions.py', '= self.up_mask(i) >> i\n',
        '= self.up_mask(i) >> i & ~1\n',
        ['corpus-empty', 'embed-chain-5']),
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
# report passed each of these when it was listed, which is not re-run here
# to keep the catalog within a few seconds of tier-1
UNIT_MUTANTS = {
    'contains-strictly-below-max-card': (
        'partitions.py', 'pi.card <= self.max_card', 'pi.card < self.max_card',
        'tests/test_partitions.py::test_universe_lookup'),
    'down-row-without-the-guard': (
        'partitions.py',
        'self._check_bit_cache()\n            rows = self._down_bits',
        'rows = self._down_bits',
        'tests/test_partitions.py::'
        'test_the_ceiling_is_checked_where_a_store_is_made'),
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
        'tests/test_formulas.py::'
        'test_outside_value_numbered_after_the_up_cache_exists'),
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
