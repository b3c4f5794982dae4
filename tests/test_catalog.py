"""Oracle/characterization pairs: frozen examples, exhaustive small
sweeps, boundary behavior, and the reduced-vs-literal cross-checks."""

import inspect
import itertools

import pytest

from young_defined import catalog as C
from young_defined import harness
from young_defined.partitions import (EMPTY, Partition, PartitionError,
                                      ResourceLimit, enumerate_universe,
                                      from_parts, leq, lower_covers,
                                      parse_partition)

p = parse_partition
UNI10 = enumerate_universe(10)
UNI13 = enumerate_universe(13)


# --- basic predicates, frozen expectations

def test_total_and_trivial():
    assert C.is_total(EMPTY) and C.is_trivial(EMPTY)
    assert C.is_total(p('[7]')) and not C.is_total(p('(6,1)'))
    assert C.is_trivial(p('4[1]')) and not C.is_trivial(p('(2,1)'))
    assert C.char_total(p('[7]')) and not C.char_total(p('(6,1)'))
    assert C.char_trivial(p('4[1]')) and not C.char_trivial(p('(2,1)'))


def test_rectangle_builder():
    assert C.rectangle(0, 3) == EMPTY
    assert C.rectangle(3, 0) == EMPTY
    assert C.rectangle(3, 2) == p('3[2]')
    assert C.total(4) == p('[4]')
    assert C.total(0) == EMPTY
    # memoized: the same object each time, equal to the one built directly
    for mult in range(1, 6):
        for size in range(1, 6):
            assert C.rectangle(mult, size) == Partition(((size, mult),))
            assert C.rectangle(mult, size) is C.rectangle(mult, size)
        assert C.total(mult) == Partition(((mult, 1),))
        assert C.total(mult) is C.total(mult)
    assert C.rectangle(0, 0) is EMPTY and C.total(0) is EMPTY
    # a cached answer for (2, 1) is never handed to (2.0, 1)
    C.rectangle(2, 1)
    with pytest.raises(PartitionError):
        C.rectangle(2.0, 1)


def test_rectangle_refuses_a_side_that_is_negative_or_not_an_int():
    # checked before the zero shortcut, so a 0 on the other side is no
    # excuse; bool is an int subclass, but True is not the side 1
    for mult, size in ((0, -5), (-1, 0), (0, 2.0), (2.0, 0), (-1, 3),
                       (3, -1), (True, 1), (1, False), (0, '2'), (None, 0)):
        with pytest.raises(PartitionError, match='rectangle sides'):
            C.rectangle(mult, size)
    assert C.rectangle(0, 0) is EMPTY


def test_total_refuses_what_rectangle_refuses():
    # falsy values are checked too: 0.0 and False are not the total 0
    for n in (0.0, False, 2.0, True, -1, None, '0'):
        with pytest.raises(PartitionError, match='rectangle sides'):
            C.total(n)
    assert C.total(0) is EMPTY


def test_rectangular():
    for pi in UNI10:
        expected = pi == C.rectangle(pi.length, pi.largest)
        assert C.is_rectangular(pi) == expected


def test_max_rectangular_below():
    pi = p('2[6]+[5]')
    assert C.max_rectangular_below(1, pi) == 3
    assert C.max_rectangular_below(5, pi) == 3
    assert C.max_rectangular_below(6, pi) == 2
    assert C.max_rectangular_below(7, pi) == 0


def test_max_rectangular_below_refuses_an_n_that_is_not_an_int():
    pi = p('2[6]+[5]')
    for n in (2.0, 6.5, True, '2', None, 0, -1):
        with pytest.raises(C.DomainError, match='need an integer n >= 1'):
            C.max_rectangular_below(n, pi)


def test_max_rectangular_below_counts_the_parts_at_least_n():
    for pi in UNI13:
        if pi.card <= 12:
            for n in range(1, 14):
                assert (C.max_rectangular_below(n, pi)
                        == sum(part >= n for part in pi.parts())), (n, pi)


def test_factorial_sum():
    assert C.factorial_sum(EMPTY) == EMPTY
    assert C.factorial_sum(p('[2]')) == p('(2,1)')
    assert C.factorial_sum(p('2[2]')) == p('(2,2,1,1)')
    assert C.factorial_sum(p('(3,1)')) == p('(3,2,1,1)')


def test_add_witness_shape():
    # the filler for (|rho|, |pi|] is the staircase of those totals
    assert C._add_witness(p('[2]'), p('[5]')) == from_parts([3, 4, 5])
    assert C._add_witness(p('[3]'), p('[3]')) == EMPTY


# --- registry plumbing

def test_registry_names_and_arities():
    names = {pair.name for pair in C.all_pairs()}
    assert 'prop-3.10-frequency' in names
    assert 'lemma-3.2-rectangular' in names
    assert len(names) == len(list(C.all_pairs()))
    for pair in C.all_pairs():
        args = next(iter(pair.domain(enumerate_universe(3))))
        assert len(args) == len(pair.kinds)


def test_every_pair_declares_its_bound():
    for pair in C.all_pairs():
        assert type(pair.bound) is int and pair.bound >= 1, pair.name


def test_domain_sweeps_the_last_argument_fastest():
    pair = C.get_pair('lemma-3.4-rectangular-triple')
    universe = enumerate_universe(2)
    assert list(pair.domain(universe)) == [
        (rho, sigma, pi) for rho in (p('[1]'), p('[2]'))
        for sigma in (p('[1]'), p('2[1]')) for pi in universe]


# values just outside each restricted kind
OUTSIDE = {C.TOTAL: (p('[1]+[1]'),), C.NONEMPTY_TOTAL: (EMPTY, p('[1]+[1]')),
           C.NONEMPTY_TRIVIAL: (EMPTY, p('[2]')), C.TRIVIAL: (p('[2]'),)}


def test_guards_agree_with_the_declared_domain():
    for pair in C.all_pairs():
        # the module's public functions, which a direct call reaches
        public = [getattr(C, fn.__name__)
                  for fn in (pair.oracle, pair.characterization)]
        valid = next(iter(pair.domain(enumerate_universe(4))))
        for k, kind in enumerate(pair.kinds):
            for outside in OUTSIDE.get(kind, ()):
                args = valid[:k] + (outside,) + valid[k + 1:]
                for fn in public:
                    with pytest.raises(C.DomainError):
                        fn(*args)


def _candidate_lists(universe):
    """The argument lists each pair was swept over before it declared
    kinds, written out: all partitions, (nonempty) totals and (nonempty)
    trivials, each in ascending cardinality."""
    each = universe.elements
    nonempty_totals = [C.total(n) for n in range(1, universe.max_card + 1)]
    nonempty_trivials = [C.rectangle(m, 1)
                         for m in range(1, universe.max_card + 1)]
    totals, trivials = [EMPTY] + nonempty_totals, [EMPTY] + nonempty_trivials
    return {
        'lemma-3.1-total': (each,),
        'lemma-3.1-trivial': (each,),
        'lemma-3.2-rectangular': (each,),
        'lemma-3.4-length': (trivials, each),
        'lemma-3.4-bounded-part': (nonempty_totals, each),
        'lemma-3.4-rectangular-triple': (nonempty_totals, nonempty_trivials,
                                         each),
        'prop-3.5-distinct': (each,),
        'prop-3.6-part-of-a': (nonempty_totals, each),
        'prop-3.6-part-of-b': (nonempty_totals, each),
        'prop-3.7-factorial': (totals, each),
        'lemma-3.8-same-height': (totals, trivials),
        'prop-3.9-add': (totals,) * 3,
        'prop-3.9-add-geq': (totals,) * 3,
        'prop-3.10-frequency': (nonempty_totals, nonempty_totals, each),
        'prop-3.10-frequency-leq': (nonempty_totals, nonempty_totals, each),
        'prop-3.11-height-geq': (totals, each),
        'prop-3.12-height-eq': (totals, each),
        'prop-3.13-mult': (totals,) * 3,
    }


def test_domains_are_the_products_of_the_candidate_lists():
    universe = enumerate_universe(8)
    lists = _candidate_lists(universe)
    assert list(lists) == [pair.name for pair in C.all_pairs()]
    for pair in C.all_pairs():
        assert list(pair.domain(universe)) == list(
            itertools.product(*lists[pair.name])), pair.name


def test_a_pair_refuses_a_characterization_of_other_kinds():
    with pytest.raises(ValueError, match='declare other kinds'):
        C.CharacterizationPair('mixed', C.is_part_of, C.char_factorial,
                               bound=8)
    with pytest.raises(ValueError, match='declare other kinds'):
        C.CharacterizationPair('mixed', C.height_geq, C.char_total, bound=8)


def test_pairs_sweep_the_undecorated_functions():
    pair = C.get_pair('prop-3.9-add')
    assert pair.oracle is inspect.unwrap(C.add_triple)
    assert pair.characterization is inspect.unwrap(C.char_add)
    assert pair.kinds == C.add_triple.kinds == (C.TOTAL,) * 3
    # so the sweep checks the members instead, once per list
    stray = C.Kind('total', C.is_total, lambda universe: universe.elements)
    guarded = C._on(stray, C.ANY)(lambda rho, pi: True)
    loose = C.CharacterizationPair('loose', guarded, guarded, bound=3)
    with pytest.raises(C.DomainError, match='loose: a member of the total'):
        list(loose.domain(enumerate_universe(3)))


def test_a_direct_call_names_the_function_argument_and_kind():
    with pytest.raises(C.DomainError, match=r"^part_frequency: sigma must be "
                       r"a nonempty total partition, got Partition\('0'\)$"):
        C.part_frequency(p('[1]'), EMPTY, p('[3]'))
    with pytest.raises(C.DomainError, match='^length_equals: rho must be a '
                       'trivial partition'):
        C.length_equals(p('[2]'), p('[3]'))


def test_get_pair_unknown():
    with pytest.raises(KeyError):
        C.get_pair('prop-0.0-nothing')


# --- exhaustive small sweeps for every registered pair

def sweep(pair, universe):
    mismatches = []
    boundary = 0
    for args in pair.domain(universe):
        want, got = pair.oracle(*args), pair.characterization(*args)
        if want != got:
            if pair.boundary and pair.boundary(args):
                boundary += 1
            else:
                mismatches.append(args)
    return mismatches, boundary


def test_primary_pairs_have_no_mismatches():
    for pair in C.all_pairs():
        if pair.informational:
            continue
        bound = 8 if len(pair.kinds) == 3 else 10
        mismatches, _ = sweep(pair, enumerate_universe(bound))
        assert mismatches == [], (pair.name, mismatches[:3])


def test_informational_pairs_do_mismatch():
    """The rejected readings must fail visibly, or they would be primary."""
    for name in ('prop-3.6-part-of-a', 'prop-3.9-add-geq',
                 'prop-3.10-frequency-leq'):
        pair = C.get_pair(name)
        bound = 8 if len(pair.kinds) == 3 else 10
        mismatches, _ = sweep(pair, enumerate_universe(bound))
        assert mismatches, name


def test_part_of_variants_disagree_on_the_smallest_case():
    # 1 is a part of [1]; the two polarity readings split here
    assert C.is_part_of(p('[1]'), p('[1]')) is True
    assert C.char_part_of_b(p('[1]'), p('[1]')) is True
    assert C.char_part_of_a(p('[1]'), p('[1]')) is False


def test_add_geq_reading_admits_too_much():
    # 1 + 1 != 3, yet the weak length conclusion accepts the triple
    assert C.add_triple(p('[1]'), p('[1]'), p('[3]')) is False
    assert C.char_add_geq(p('[1]'), p('[1]'), p('[3]')) is True
    assert C.char_add(p('[1]'), p('[1]'), p('[3]')) is False


def test_frequency_leq_reading_admits_too_much():
    # [1] appears twice in [2]+2[1], not once
    pi = p('[2]+2[1]')
    assert C.part_frequency(p('[1]'), p('[1]'), pi) is False
    assert C.char_frequency_leq(p('[1]'), p('[1]'), pi) is True
    assert C.char_frequency(p('[1]'), p('[1]'), pi) is False


# --- boundary behavior of the addition pair

def test_identity_triples_are_boundary_not_failures():
    pair = C.get_pair('prop-3.9-add')
    mismatches, boundary = sweep(pair, enumerate_universe(8))
    assert mismatches == []
    assert boundary > 0
    assert pair.boundary((EMPTY, p('[2]'), p('[2]')))
    assert pair.boundary((p('[2]'), EMPTY, p('[2]')))
    assert not pair.boundary((p('[1]'), p('[1]'), p('[2]')))


def test_domain_errors_on_non_total_arguments():
    with pytest.raises(C.DomainError):
        C.add_triple(p('(1,1)'), p('[1]'), p('[3]'))
    with pytest.raises(C.DomainError):
        C.char_add(p('[1]'), p('(1,1)'), p('[3]'))
    with pytest.raises(C.DomainError):
        C.part_frequency(EMPTY, p('[1]'), p('[3]'))
    with pytest.raises(C.DomainError):
        C.height_geq(p('(2,1)'), p('[3]'))


# --- characterization details

def test_length_and_bounded_part():
    pi = p('(3,2,2)')
    for m in range(6):
        rho = C.rectangle(m, 1)
        assert C.length_equals(rho, pi) == (m == 3)
        assert C.char_length_equals(rho, pi) == (m == 3)
    for n in range(1, 6):
        rho = C.total(n)
        assert C.bounded_part(rho, pi) == (n >= 3)
        assert C.char_bounded_part(rho, pi) == (n >= 3)


def test_distinct_parts():
    assert C.has_distinct_parts(EMPTY)
    assert C.has_distinct_parts(p('(4,2,1)'))
    assert not C.has_distinct_parts(p('(3,3)'))
    for pi in enumerate_universe(7):
        assert C.char_distinct_parts(pi) == C.has_distinct_parts(pi)


def test_char_rectangular_counts_the_lower_covers():
    for pi in enumerate_universe(14):
        assert C.char_rectangular(pi) == (len(lower_covers(pi)) <= 1), pi


def _char_frequency_reference(rho, sigma, pi, exact):
    """The frequency characterization written out probe by probe: the
    rectangle opener, then cases (1)-(3) with one maximal-rectangle probe
    per larger part."""
    r, n = rho.card, sigma.card
    if pi == C.rectangle(n, r):
        return True
    if not pi.has_part(r):
        return False
    m = C.max_rectangular_below(r, pi)
    if pi.largest == r:
        return n == m
    gaps = [m - C.max_rectangular_below(size, pi)
            for size, _ in pi.runs if size > r]
    if any(n > gap for gap in gaps):
        return False
    if exact and not any(n == gap for gap in gaps):
        return False
    return True


def test_one_pass_frequency_matches_the_probe_by_probe_reference():
    calls = 0
    for pi in enumerate_universe(14):
        for r in range(1, 16):
            for n in range(1, 16):
                rho, sigma = C.total(r), C.total(n)
                for exact in (True, False):
                    assert (C._char_frequency(rho, sigma, pi, exact)
                            == _char_frequency_reference(rho, sigma, pi,
                                                         exact)), \
                        (r, n, pi, exact)
                    calls += 1
    assert calls == 228600


def test_sweeps_without_witnesses_build_no_partitions(monkeypatch):
    enumerate_universe(12)
    pairs = [C.get_pair(name) for name in ('lemma-3.2-rectangular',
                                           'prop-3.7-factorial',
                                           'lemma-3.8-same-height')]
    for pair in pairs:              # fill the rectangle and staircase memos
        harness.run_pair(pair, 12)
    built = []
    init = Partition.__init__

    def counted(self, runs):
        built.append(runs)
        init(self, runs)
    monkeypatch.setattr(Partition, '__init__', counted)
    for pair in pairs:
        report = harness.run_pair(pair, 12)
        assert report.total_checked > 0 and report.mismatch_count == 0
    assert built == []
    Partition(((1, 1),))          # the counter does see a construction
    assert len(built) == 1


def test_factorial_characterization():
    assert C.is_factorial(p('[3]'), p('(3,2,1)'))
    assert not C.is_factorial(p('[3]'), p('(3,2,2)'))
    # distinct parts of the right height are not enough: every smaller
    # total must appear
    assert C.char_factorial(p('[3]'), p('(3,2,1)'))
    assert not C.char_factorial(p('[6]'), p('(6,5,4)'))


def test_height_characterizations():
    assert C.char_height_geq(p('[3]'), p('(2,2)'))
    assert not C.char_height_geq(p('[5]'), p('(2,2)'))
    assert C.height_eq(p('[4]'), p('(2,2)'))
    assert C.char_height_eq(p('[4]'), p('(2,2)'))
    assert not C.char_height_eq(p('[3]'), p('(2,2)'))


def test_min_constrained_length_is_attained_by_factorial_sum():
    for pi in UNI10:
        witness = C.factorial_sum(pi)
        assert C.satisfies_height_conditions(witness, pi)
        assert witness.length == C._min_constrained_length(pi)


def test_height_sweep_agrees_despite_non_monotone_conditions():
    """Growing a qualifying partition can break an exact multiplicity
    requirement ((3,2,1,1) qualifies for (3,1) but (4,2,1,1) does not),
    so the reduction rests on the length bound alone; check the bound is
    genuinely the minimum over the enumerated qualifying family."""
    pi = p('(3,1)')
    assert C.satisfies_height_conditions(p('(3,2,1,1)'), pi)
    assert leq(p('(3,2,1,1)'), p('(4,2,1,1)'))
    assert not C.satisfies_height_conditions(p('(4,2,1,1)'), pi)
    for pi in enumerate_universe(5):
        if C.factorial_sum(pi).card > 13:
            continue
        lengths = [s.length for s in UNI13
                   if C.satisfies_height_conditions(s, pi)]
        assert min(lengths) == C._min_constrained_length(pi)


# --- reduced characterizations against their literal sweep twins

def test_char_add_matches_literal_sweep():
    for a in range(0, 6):
        for c in range(a, 7):
            need = sum(range(a + 1, c + 1))
            if need > 13:
                continue
            for b in range(0, 7):
                rho, sigma, pi = C.total(a), C.total(b), C.total(c)
                if not (a + b <= 13 and c <= 13):
                    continue
                assert C.char_add(rho, sigma, pi) == \
                    C.char_add_sweep(rho, sigma, pi, UNI13)


def test_char_add_sweep_needs_room_for_the_witness():
    with pytest.raises(ResourceLimit):
        C.char_add_sweep(C.total(0), C.total(6), C.total(6),
                         enumerate_universe(5))


def test_char_height_geq_matches_literal_sweep():
    for pi in enumerate_universe(6):
        if C.factorial_sum(pi).card > 13:
            continue
        for r in range(0, 9):
            assert C.char_height_geq(C.total(r), pi) == \
                C.char_height_geq_sweep(C.total(r), pi, UNI13)


def test_char_height_geq_sweep_needs_room():
    pi = p('(4,4,4)')   # factorial sum has cardinality well beyond 6
    with pytest.raises(ResourceLimit):
        C.char_height_geq_sweep(C.total(3), pi, enumerate_universe(6))
