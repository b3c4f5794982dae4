"""Acceptance gate: fifteen certification criteria, one test each.

Every test prints a single `[criterion NN] PASS ...` line on success
(visible with `pytest -s` or `-rA`); under `pytest -v` the per-test
PASSED/FAILED column carries the same verdict.  All comparisons are
exact; the only tolerances are the pinned wall-clock ceilings.
"""

import time

from young_defined import formulas as F
from young_defined import harness
from young_defined.arithmetization import encode, decode
from young_defined.catalog import (factorial_sum, is_total, is_trivial,
                                   satisfies_height_conditions)
from young_defined.partitions import (enumerate_universe, leq, lower_covers,
                                      parse_partition)


def report(number, elapsed, text):
    print('[criterion %02d] PASS %s (%.2fs)' % (number, text, elapsed))


def pentagonal_counts(limit):
    """Euler's pentagonal-number recurrence, kept independent of the
    package's own counting code."""
    counts = [1]
    for n in range(1, limit + 1):
        acc = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                acc += sign * counts[n - g1]
            if g2 <= n:
                acc += sign * counts[n - g2]
            k += 1
        counts.append(acc)
    return counts


def test_criterion_01_enumeration_matches_pentagonal_recurrence():
    start = time.perf_counter()
    universe = enumerate_universe(40)
    expected = pentagonal_counts(40)
    sizes = [len(level) for level in universe.levels]
    assert sizes == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, elapsed, 'level sizes equal the pentagonal recurrence, n <= 40')


def test_criterion_02_total_and_trivial_characterizations():
    start = time.perf_counter()
    for name in ('lemma-3.1-total', 'lemma-3.1-trivial'):
        r = harness.check_proposition(name, 25)
        assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, elapsed, 'total/trivial characterizations exact, |pi| <= 25')


def test_criterion_03_rectangular_iff_unique_lower_cover():
    start = time.perf_counter()
    r = harness.check_proposition('lemma-3.2-rectangular', 25)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, elapsed, 'rectangular iff at most one lower cover, |pi| <= 25')


def test_criterion_04_distinct_parts():
    start = time.perf_counter()
    r = harness.check_proposition('prop-3.5-distinct', 20)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    report(4, time.perf_counter() - start, 'distinct-parts predicate exact, |pi| <= 20')


def test_criterion_05_part_membership_polarity():
    start = time.perf_counter()
    combined = harness.variant_resolution(
        harness.check_proposition('prop-3.6-part-of-a', 18),
        harness.check_proposition('prop-3.6-part-of-b', 18))
    assert combined.verdict == 'pass', combined.to_json()
    assert combined.details['passing'] == ['prop-3.6-part-of-b']
    report(5, time.perf_counter() - start,
           'exactly one part-membership reading survives: prop-3.6-part-of-b')


def test_criterion_06_part_frequency():
    start = time.perf_counter()
    r = harness.check_proposition('prop-3.10-frequency', 15)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    report(6, time.perf_counter() - start, 'part-frequency triples exact, |pi| <= 15')


def test_criterion_07_factorial_staircase():
    start = time.perf_counter()
    r = harness.check_proposition('prop-3.7-factorial', 15)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    # the sweep above covers every total rho with |rho| <= 15 against
    # every |pi| <= 15, a superset of the required |rho| <= 5 slice
    assert r.total_checked == 16 * sum(pentagonal_counts(15))
    report(7, time.perf_counter() - start,
           'factorial characterization exact, |rho| <= 5 within |rho| <= 15, |pi| <= 15')


def test_criterion_08_addition_with_identity_boundary():
    start = time.perf_counter()
    r = harness.check_proposition('prop-3.9-add', 12)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    assert r.boundary_count > 0
    assert all('identity triple' in w['reason'] for w in r.boundary_witnesses)
    report(8, time.perf_counter() - start,
           'addition on total triples exact, |pi| <= 12; '
           '%d identity-boundary tuples reported, none counted' % r.boundary_count)


def test_criterion_09_height_comparison_and_equality():
    start = time.perf_counter()
    for name in ('prop-3.11-height-geq', 'prop-3.12-height-eq'):
        r = harness.check_proposition(name, 12)
        assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    checked = 0
    for pi in enumerate_universe(15).elements:
        checked += 1
        assert satisfies_height_conditions(factorial_sum(pi), pi), pi
    assert checked == sum(pentagonal_counts(15))
    report(9, time.perf_counter() - start,
           'height comparison/equality exact, |rho|,|pi| <= 12; '
           'factorial-sum witness qualifies for all %d partitions |pi| <= 15' % checked)


def test_criterion_10_multiplication():
    start = time.perf_counter()
    r = harness.check_proposition('prop-3.13-mult', 20)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    report(10, time.perf_counter() - start,
           'multiplication on total triples exact, |pi| <= 20')


def test_criterion_11_reconstruction_from_lower_covers():
    start = time.perf_counter()
    r = harness.reconstruction_check(25)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    assert r.details['level2Collision'] == [['2[1]', '[2]']]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(11, elapsed, 'lower-cover fingerprints injective on levels 4..25; '
           'the level-2 collision confirmed')


def test_criterion_12_automorphism_uniqueness():
    start = time.perf_counter()
    r = harness.automorphism_report(8)
    assert r.verdict == 'pass', r.to_json()
    assert r.details == {'count': 2, 'kinds': ['conjugation', 'identity']}
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(12, elapsed, 'exactly identity and conjugation up to rank 8')


def test_criterion_13_arithmetization():
    start = time.perf_counter()
    r = harness.arithmetization_report(max_card=15, integer_ceiling=10 ** 6,
                                       pair_card=12, bridge_bound=30)
    assert r.verdict == 'pass' and r.mismatch_count == 0, r.to_json()
    assert r.total_checked > 10 ** 6
    # spot anchors on top of the sweep
    assert encode(parse_partition('0')) == 0
    assert decode(105) == parse_partition('(4,3,2)')
    report(13, time.perf_counter() - start,
           'roundtrips |sigma| <= 15 and n <= 10^6, order agreement |.| <= 12, '
           'arithmetic bridge m,n,r <= 30 — all exact')


def test_criterion_14_formula_engine():
    start = time.perf_counter()
    corpus = F.corpus()
    cover = F.parse(corpus['cover'])
    assert str(F.prenex_classify(cover)) == 'Pi1'
    assert str(F.prenex_classify(F.parse('x <= y'))) == 'Delta0'

    universe = enumerate_universe(16)
    got = F.defined_relation(cover, ('x', 'y'), universe, F.EvalConfig(15, 1))
    want = {(s, q) for q in universe.elements if q.card <= 15
            for s in lower_covers(q)}
    assert got == want

    uni21 = enumerate_universe(21)
    for name, oracle in (('totality', is_total), ('triviality', is_trivial)):
        defined = F.defined_set(F.parse(corpus[name]), 'x', uni21,
                                F.EvalConfig(20, 1))
        assert defined == {q for q in uni21.elements
                           if q.card <= 20 and oracle(q)}

    for name, text in sorted(corpus.items()):
        r = harness.corpus_report(name, text, harness._corpus_header(text)[1],
                                  (0, 1, 2, 3))
        assert r.verdict == 'pass', r.to_json()
        assert r.details['flipCount'] == 0
    report(14, time.perf_counter() - start,
           'cover formula == structural covers at |.| <= 15 slack 1; '
           'classes pinned; defined sets match oracles to 20; '
           'corpus stable across slacks 0..3')


def test_criterion_15_embedding_search():
    start = time.perf_counter()
    instances = [('chain of 5', harness.FinitePoset.chain(5), 6),
                 ('antichain of 5', harness.FinitePoset.antichain(5), 6),
                 ('2-crown', harness.FinitePoset.crown(), 8)]
    for label, poset, bound in instances:
        mapping = harness.embed_poset(poset, bound)
        assert mapping is not None, label
        assert harness.verify_embedding(poset, mapping) is None, label
    assert harness.embed_poset(harness.FinitePoset.antichain(8), 4) is None
    report(15, time.perf_counter() - start,
           'chain/antichain/2-crown embeddings found and independently '
           'verified; antichain of 8 at bound 4 correctly not found')
