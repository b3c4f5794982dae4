"""Exact partition arithmetic: construction, order, covers, conjugation,
lattice operations, enumeration, and the text forms."""

import collections
import itertools
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from young_defined import partitions as P
from young_defined.partitions import (EMPTY, MAX_BIT_CACHE_BYTES,
                                      MAX_ENUMERATION_CARD, Partition,
                                      PartitionError, ResourceLimit, Universe,
                                      bit_cache_bytes, conjugate,
                                      enumerate_level, enumerate_universe,
                                      factorial_partition, from_parts, leq,
                                      lower_covers, parse_partition,
                                      partition_count, render, upper_covers)

UNI = enumerate_universe(9)


def parts_list(max_part=8, max_len=8):
    return st.lists(st.integers(1, max_part), max_size=max_len)


partitions = parts_list().map(from_parts)


def leq_by_expansion(sigma, pi):
    """Independent order oracle: compare the expanded part sequences."""
    a, b = sigma.parts(), pi.parts()
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


# --- construction and canonical form

def test_runs_validation():
    Partition(((3, 2), (1, 1)))
    for runs in [((1, 1), (2, 1)),       # sizes increasing
                 ((2, 1), (2, 1)),       # sizes repeated
                 ((2, 0),),              # zero multiplicity
                 ((0, 2),),              # zero size
                 ((2, -1),)]:
        with pytest.raises(PartitionError):
            Partition(runs)
    for bad in (2.0, '2', None):
        for runs in [((bad, 1),), ((1, bad),), ((3, 1), (bad, 1)),
                     ((3, 1), (1, bad))]:
            with pytest.raises(PartitionError):
                Partition(runs)
    expected = Partition(((3, 2), (1, 1)))
    for runs in [((n, m) for n, m in ((3, 2), (1, 1))),   # a generator
                 [[3, 2], [1, 1]]]:                      # lists of lists
        pi = Partition(runs)
        assert pi.runs == ((3, 2), (1, 1))
        assert all(type(run) is tuple for run in pi.runs)
        assert pi == expected
        assert (pi.card, pi.length, pi.largest) == (7, 3, 3)
        assert hash(pi) == hash(expected)


def test_runs_keep_input_tuples_and_copy_other_pairs():
    runs = ((3, 2), (1, 1))
    pi = Partition(runs)
    assert all(got is given for got, given in zip(pi.runs, runs))
    Run = collections.namedtuple('Run', 'size mult')
    for other in ([[3, 2], [1, 1]],                       # lists of lists
                  [Run(3, 2), Run(1, 1)],                 # a tuple subclass
                  ([n, m] for n, m in runs)):              # a generator
        pi = Partition(other)
        assert pi.runs == runs
        assert all(type(run) is tuple for run in pi.runs)
    # each partition of a level shares the pairs of the tail it extends
    for pi in enumerate_level(9):
        (s, m), *rest = pi.runs
        tail = next(t for t in enumerate_level(9 - s * m)
                    if t.runs == tuple(rest))
        assert all(a is b for a, b in zip(rest, tail.runs))


def test_bool_parts_are_refused():
    # bool is an int subclass; True is not the part 1
    for runs in [((True, 1),), ((1, True),), ((3, 1), (False, 1))]:
        with pytest.raises(PartitionError, match='need positive integers'):
            Partition(runs)
    with pytest.raises(PartitionError, match='parts must be positive'):
        from_parts([True, 2])


def test_from_parts_sorts_and_groups():
    assert from_parts([1, 3, 3, 2]) == Partition(((3, 2), (2, 1), (1, 1)))
    assert from_parts([]) == EMPTY
    with pytest.raises(PartitionError):
        from_parts([2, 0])


@given(parts_list())
def test_from_parts_is_order_insensitive(parts):
    assert from_parts(parts) == from_parts(sorted(parts))


@given(partitions)
def test_cached_attributes(pi):
    assert pi.card == sum(pi.parts())
    assert pi.length == len(pi.parts())
    assert pi.largest == (pi.parts()[0] if pi.parts() else 0)
    for n in range(1, pi.largest + 2):
        assert pi.multiplicity(n) == pi.parts().count(n)
        assert pi.has_part(n) == (n in pi.parts())


# --- the order

def test_leq_examples():
    p = parse_partition
    assert leq(p('0'), p('[1]'))
    assert leq(p('(2,1)'), p('(3,1)'))
    assert not leq(p('(1,1,1)'), p('(3,1)'))   # too many rows
    assert not leq(p('(3,)'), p('(2,2)'))      # first row too wide


@given(partitions, partitions)
def test_leq_matches_componentwise_expansion(sigma, pi):
    assert leq(sigma, pi) == leq_by_expansion(sigma, pi)


def test_leq_matches_expansion_on_every_pair_to_12():
    universe = enumerate_universe(12).elements
    assert len(universe) ** 2 == 73984
    for sigma in universe:
        for pi in universe:
            assert leq(sigma, pi) == leq_by_expansion(sigma, pi), (sigma, pi)


# runs with sizes up to 60 and multiplicities up to 1,000, so one run of
# either partition can span several runs of the other
long_runs = st.dictionaries(st.integers(1, 60), st.integers(1, 1000),
                            max_size=6).map(
    lambda d: Partition(sorted(d.items(), reverse=True)))


@st.composite
def near_pairs(draw):
    """pi, and a sigma cut down from it run by run (so it often fits),
    with one extra run sometimes added (so it often just fails)."""
    pi = draw(long_runs)
    counts = {}
    for size, mult in pi.runs:
        cut = draw(st.integers(0, size))
        if cut:
            counts[cut] = counts.get(cut, 0) + draw(st.integers(1, mult))
    if draw(st.booleans()):
        size = draw(st.integers(1, 61))
        counts[size] = counts.get(size, 0) + draw(st.integers(1, 1000))
    return Partition(sorted(counts.items(), reverse=True)), pi


@settings(max_examples=300)
@given(st.one_of(st.tuples(long_runs, long_runs), near_pairs()))
def test_leq_matches_expansion_over_long_runs(pair):
    sigma, pi = pair
    assert leq(sigma, pi) == leq_by_expansion(sigma, pi)


@given(partitions)
def test_leq_reflexive(pi):
    assert leq(pi, pi)


@given(partitions, partitions)
def test_leq_antisymmetric(sigma, pi):
    if leq(sigma, pi) and leq(pi, sigma):
        assert sigma == pi


@given(partitions, partitions, partitions)
def test_leq_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# --- covers

def brute_lower_covers(pi, universe):
    return {s for s in universe if s.card == pi.card - 1 and leq(s, pi)}


def test_lower_covers_match_brute_force():
    for pi in UNI:
        assert set(lower_covers(pi)) == brute_lower_covers(pi, UNI)


def test_lower_covers_one_per_run():
    p = parse_partition
    assert set(lower_covers(p('2[3]+[1]'))) == {p('[3]+[2]+[1]'), p('2[3]')}
    assert lower_covers(EMPTY) == set()


def test_upper_covers_match_brute_force():
    inner = enumerate_universe(8)
    for pi in inner:
        expected = {t for t in UNI if t.card == pi.card + 1 and leq(pi, t)}
        assert set(upper_covers(pi, UNI)) == expected


def test_upper_covers_need_next_level():
    top = parse_partition('[9]')
    with pytest.raises(ResourceLimit):
        upper_covers(top, UNI)


# sizes and multiplicities far beyond any enumerated universe
wide_partitions = st.dictionaries(
    st.integers(1, 60), st.integers(1, 1000), max_size=6).map(
        lambda counts: Partition(sorted(counts.items(), reverse=True)))


@given(wide_partitions)
def test_upper_covers_are_the_inverse_of_lower_covers(pi):
    # upper_covers reads only the universe's max_card, so a stand-in
    # reaches cardinalities that no enumeration could
    room = types.SimpleNamespace(max_card=pi.card + 1)
    above = upper_covers(pi, room)
    assert len(above) == len(pi.runs) + 1
    assert all(pi in lower_covers(sigma) for sigma in above)
    assert all(pi in upper_covers(rho, room) for rho in lower_covers(pi))


def test_cover_count_is_runs_plus_one():
    for pi in enumerate_universe(8):
        assert len(upper_covers(pi, UNI)) == len(pi.runs) + 1
        assert len(lower_covers(pi)) == len(pi.runs)


# --- conjugation

def test_conjugate_examples():
    p = parse_partition
    assert conjugate(p('(3,1)')) == p('(2,1,1)')
    assert conjugate(p('(2,2)')) == p('(2,2)')
    assert conjugate(EMPTY) == EMPTY


@given(partitions)
def test_conjugate_involution(pi):
    assert conjugate(conjugate(pi)) == pi
    assert conjugate(pi).card == pi.card


@given(partitions, partitions)
def test_conjugate_is_an_order_automorphism(sigma, pi):
    assert leq(sigma, pi) == leq(conjugate(sigma), conjugate(pi))


@given(partitions)
def test_conjugate_swaps_length_and_largest(pi):
    assert conjugate(pi).largest == pi.length
    assert conjugate(pi).length == pi.largest


# --- enumeration

def test_level_4_order_is_frozen():
    assert [pi.parts() for pi in enumerate_level(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_levels_are_enumerated_once_and_shared():
    assert Universe(5).levels[3] is Universe(9).levels[3]
    assert isinstance(enumerate_level(3), tuple)     # shared, so immutable
    enumerate_level(2)
    with pytest.raises(TypeError):                   # typed: 2.0 is not 2
        enumerate_level(2.0)


def test_partitions_of_one_block_share_its_first_run():
    # level 7's block (3, 1): (3, 2, 2), (3, 2, 1, 1) and (3, 1, 1, 1, 1)
    block = [pi for pi in enumerate_level(7) if pi.runs[0] == (3, 1)]
    assert len(block) == 3
    assert block[0].runs[0] is block[1].runs[0] is block[2].runs[0]


def _descending_part_tuples(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, cap) + 1):
        for rest in _descending_part_tuples(n - first, first):
            yield (first,) + rest


def test_level_order_matches_sorted_part_tuples():
    """The run-length enumerator against a plain part-tuple generator,
    sorted into reverse-lexicographic order independently."""
    for n in range(26):
        want = [from_parts(t) for t in
                sorted(_descending_part_tuples(n, n), reverse=True)]
        assert list(enumerate_level(n)) == want
        assert len(want) == partition_count(n)


def test_level_sizes_match_pentagonal_oracle():
    for n, level in enumerate(UNI.levels):
        assert len(level) == partition_count(n)


def test_partition_count_known_values():
    known = {0: 1, 1: 1, 5: 7, 10: 42, 20: 627, 25: 1958, 40: 37338,
             50: 204226}
    for n, value in known.items():
        assert partition_count(n) == value


def test_enumeration_ceiling():
    with pytest.raises(ResourceLimit):
        enumerate_universe(MAX_ENUMERATION_CARD + 1)


def test_universe_refuses_a_bound_that_is_not_an_int():
    # bool is an int subclass, but True is not the bound 1
    for bound in (True, False, 2.0, 4.5, '3', None):
        with pytest.raises(PartitionError, match='maxCard must be an integer'):
            Universe(bound)
    with pytest.raises(PartitionError, match='maxCard must be >= 0'):
        Universe(-1)


def test_universe_lookup():
    for i, pi in enumerate(UNI.elements):
        assert UNI.ordinal(pi) == i
    assert UNI.ordinal_cutoff(4) == sum(partition_count(n) for n in range(5))
    assert UNI.ordinal_cutoff(UNI.max_card + 5) == len(UNI)
    for card in (-1, -2, -3):
        assert UNI.ordinal_cutoff(card) == 0
    assert parse_partition('(2,1)') in UNI
    # membership is by cardinality alone: the top level is in, no more
    assert all(pi in UNI for pi in UNI.levels[UNI.max_card])
    assert from_parts([UNI.max_card + 1]) not in UNI
    assert len(UNI) == len(UNI.elements)


def test_a_universe_keeps_no_per_element_map():
    # its levels are shared, so what one adds is about a list slot each:
    # a dict from partition to ordinal would take 0.6 MB more at 25
    Universe(25)
    tracemalloc.start()
    try:
        universe = Universe(25)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(universe) == 9296
    assert held <= 150 * 2 ** 10, held


def test_cover_table_matches_lower_covers():
    for universe in (UNI, Universe(22)):
        rows = universe.cover_table()
        assert len(rows) == len(universe)
        for i, pi in enumerate(universe.elements):
            table = [universe.elements[j] for j in rows[i]]
            assert len(table) == len(set(table))
            assert set(table) == lower_covers(pi)


def test_block_starts_count_the_partitions_before_each_block():
    # levels run largest part first, then most parts of that size first
    for n in range(13):
        level = enumerate_level(n)
        for s in range(1, n + 2):
            assert P._start(n, s, 0) == sum(pi.largest >= s for pi in level)
            for m in range(1, n // s + 1):
                assert P._start(n, s, m) == sum(
                    pi.largest > s or pi.largest == s and pi.runs[0][1] > m
                    for pi in level), (n, s, m)


def _cover_table_by_lookup(universe):
    """The cover table built the direct way: every lower cover's run tuple
    looked up among the run tuples of the level below."""
    rows, below = [], {}
    for n, level in enumerate(universe.levels):
        for pi in level:
            rows.append(tuple(below[r] for r in P._lower_cover_runs(pi.runs)))
        below = {pi.runs: i for i, pi in
                 enumerate(level, universe.ordinal_cutoff(n - 1))}
    return rows


def test_cover_table_is_the_direct_lookup_table():
    universe = Universe(30)
    rows = universe.cover_table()
    assert rows == _cover_table_by_lookup(universe)
    assert sum(map(len, rows)) == sum(len(pi.runs) for pi in universe)


def test_each_level_is_built_from_the_levels_below_once():
    enumerate_level.cache_clear()
    assert len(enumerate_level(30)) == partition_count(30)
    # a first run (s, m) leaves n - s*m, at most n - 2 when s >= 2 and 0
    # for (1, n), so level 30 reads levels 0..28, each built once
    assert enumerate_level.cache_info().misses == 30
    enumerate_level(29)
    assert enumerate_level.cache_info().misses == 31      # levels 0..30


def test_cover_table_does_not_derive_covers_from_run_tuples(monkeypatch):
    def refuse(runs):
        raise AssertionError('the cover table derived a run tuple')
    monkeypatch.setattr(P, '_lower_cover_runs', refuse)
    universe = Universe(12)
    assert len(universe.cover_table()) == len(universe)
    with pytest.raises(AssertionError):
        lower_covers(parse_partition('(2,1)'))   # the patch is in force


def test_universe_bit_caches_agree_with_leq():
    # two fresh universes, so each cache is also built first once
    for first in ('down_bits', 'up_bits'):
        small = Universe(10)
        getattr(small, first)()
        down, up = small.down_bits(), small.up_bits()
        for i, sigma in enumerate(small.elements):
            # up[i] is stored from ordinal i: bit j - i stands for ordinal j
            assert up[i] & 1
            assert up[i].bit_length() <= len(small) - i
            for j, pi in enumerate(small.elements):
                below = bool(down[j] >> i & 1)
                assert below == leq(sigma, pi)
                if j >= i:
                    assert bool(up[i] >> j - i & 1) == below
                else:               # nothing above sigma comes before it
                    assert not below


UNI12 = Universe(12)


@pytest.mark.parametrize('max_card', [12, 16])
def test_down_rows_asked_top_first_equal_the_full_cache(max_card):
    # the first ask builds the cells of the top element's addable cells
    lazy = Universe(max_card)
    rows = [lazy.down_row(i) for i in reversed(range(len(lazy)))]
    assert rows[::-1] == Universe(max_card).down_bits()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, len(UNI12) - 1), max_size=30))
def test_down_rows_in_any_order_build_only_the_rows_asked(asked):
    full = Universe(12).down_bits()
    lazy = Universe(12)
    for i in asked:
        assert lazy.down_row(i) == full[i]
    # a row is read off the cells, not off the rows below it, so a row is
    # built exactly when it is asked for, and no cover table is built
    built = lazy._down_bits or []
    assert {j for j, row in enumerate(built) if row is not None} == set(asked)
    assert lazy._covers is None


UNI14 = Universe(14)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, len(UNI14) - 1), max_size=30))
def test_up_masks_in_any_order_build_only_their_cells(asked):
    # an up row is up_mask(i), the AND of the cells at element i's corners
    # (a, b), the last row b of each run of part a, and is kept in no
    # store: asking for rows builds their cells alone, in any order
    lazy = Universe(14)
    for i in asked:
        assert lazy.up_mask(i) == UNI14.up_mask(i)
    assert set(lazy._cells) == {
        (a, b) for i in asked for (a, _), b in zip(
            lazy.elements[i].runs,
            itertools.accumulate(k for _, k in lazy.elements[i].runs))}
    assert lazy._up_bits is None
    assert lazy._covers is None and lazy._down_bits is None


def test_down_rows_are_the_cover_table_recursion():
    # neither is built from the other: each row is its own bit ORed with
    # the rows of its lower covers, read from the harness's cover table
    universe = Universe(14)
    rows = universe.cover_table()
    for i in range(len(universe)):
        want = 1 << i
        for j in rows[i]:
            want |= universe.down_row(j)
        assert universe.down_row(i) == want, i


def _strictly_above_by_leq(universe, mask, stop):
    """The ordinals j < stop strictly above a member of mask, by leq."""
    members = [universe.elements[i] for i in range(len(universe))
               if mask >> i & 1]
    return sum(1 << j for j, pi in enumerate(universe.elements[:stop])
               if any(sigma != pi and leq(sigma, pi) for sigma in members))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, len(UNI12) - 1), max_size=40),
       st.integers(0, len(UNI12)))
def test_strictly_above_matches_leq(members, stop):
    mask = sum(1 << i for i in members)
    assert (UNI12.strictly_above(mask, stop)
            == _strictly_above_by_leq(UNI12, mask, stop))


def test_strictly_above_edge_cases():
    n = len(UNI12)
    everything_else = (1 << n) - 2
    assert UNI12.strictly_above(0, n) == 0
    assert UNI12.strictly_above(1, n) == everything_else   # above EMPTY
    assert UNI12.strictly_above((1 << n) - 1, n) == everything_else
    two = UNI12.ordinal(parse_partition('[2]'))
    for mask, low in ((1, 0), (1 << two, two)):     # stop at or below, or
        for stop in range(low + 2):                 # just past, the lowest
            assert UNI12.strictly_above(mask, stop) == 0, (mask, stop)
    # [2] covers [1] (ordinal 1), so a pass from the right start marks it
    assert UNI12.strictly_above(1 << 1, two + 1) == 1 << two
    # members at or past stop count for nothing, and no bit past it is set
    ones = UNI12.ordinal(parse_partition('2[1]'))
    assert UNI12.strictly_above(1 << ones | 1 << 1, ones) == 1 << two
    for mask in (1 << two, 1 << 1 | 1 << ones, 0b1010):
        assert UNI12.strictly_above(mask, n) == _strictly_above_by_leq(
            UNI12, mask, n)


def test_up_mask_is_the_up_cache_row_at_every_ordinal():
    # both are read off the level layout, so the reference is a leq sweep;
    # the up cache keeps row o from bit o on, the mask is full width
    universe = Universe(14)
    up = universe.up_bits()
    for o in range(len(universe)):
        want = _strictly_above_by_leq(universe, 1 << o, len(universe)) | 1 << o
        assert universe.up_mask(o) == want == up[o] << o, o
    # the memo holds one state per (a, b, n) with a*b <= n, a corner of an
    # element below level n or a recursion's rest: 269 at most here, so
    # it stays under the element count without being dropped
    memo = universe._up_memo
    assert all(a * b <= n <= 14 for a, b, n in memo)
    assert len(memo) <= 269 < len(universe)
    # one cell per corner (a, b), a*b <= 14, each of rectangle b[a] among
    # others: 41 full-width masks
    assert set(universe._cells) == {(a, b) for a in range(1, 15)
                                    for b in range(1, 14 // a + 1)}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, len(UNI12) - 1), min_size=2, max_size=4),
       st.integers(0, len(UNI12)))
def test_strictly_above_reads_the_layout_and_agrees_with_leq(members, stop):
    universe = Universe(12)
    for i in members:           # a principal mask: one up-set
        assert (universe.strictly_above(1 << i, stop)
                == _strictly_above_by_leq(universe, 1 << i, stop))
    # a few members, whose up-sets the principal asks left in the memo
    mask = sum(1 << i for i in members)
    assert (universe.strictly_above(mask, stop)
            == _strictly_above_by_leq(universe, mask, stop))
    # no call walked the cover table, the only way it is built here
    assert universe._covers is None


def test_a_whole_level_as_an_antichain_walks_no_cover_table():
    for level in (4, 6, 9):
        universe = Universe(12)
        lo, hi = (universe.ordinal_cutoff(level - 1),
                  universe.ordinal_cutoff(level))
        mask = (1 << hi) - (1 << lo)
        assert (universe.strictly_above(mask, len(universe))
                == _strictly_above_by_leq(universe, mask, len(universe)))
        # however many minimal members, each up-set is read off the layout
        assert universe._covers is None


def test_the_up_cache_and_the_cover_table_agree_on_each_cover():
    # the one check that ties the layout to the block arithmetic: the
    # bits of row i on the level above are the j whose cover row holds i
    universe = Universe(14)
    up, rows = universe.up_bits(), universe.cover_table()
    for i, pi in enumerate(universe):
        # the level above pi's, empty for the top level
        lo, hi = (universe.ordinal_cutoff(pi.card),
                  universe.ordinal_cutoff(pi.card + 1))
        covers = up[i] << i >> lo & (1 << hi - lo) - 1
        assert covers == sum(1 << j - lo for j in range(lo, hi)
                             if i in rows[j]), i


def test_cover_table_rows_share_their_ordinals():
    # one tuple of pointers per element; ints made per entry, not shared,
    # would take about 1.7 MB at 25
    universe = Universe(25)
    tracemalloc.start()
    try:
        rows = universe.cover_table()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == len(universe) == 9296
    assert held <= 2 ** 20, held


def test_bit_caches_construct_no_partitions(monkeypatch):
    universe = Universe(12)
    built = []
    init = Partition.__init__

    def counted(self, runs):
        built.append(runs)
        init(self, runs)
    monkeypatch.setattr(Partition, '__init__', counted)
    universe.down_bits()
    universe.up_bits()
    assert built == []
    Partition(((1, 1),))          # the counter does see a construction
    assert len(built) == 1


def test_bit_cache_estimate_bounds_the_measured_bytes():
    for max_card in range(26):
        universe = Universe(max_card)
        caches = (universe.down_bits(), universe.up_bits())
        measured = sum(sys.getsizeof(bits) + sum(map(sys.getsizeof, bits))
                       for bits in caches)
        estimate = bit_cache_bytes(len(universe))
        assert measured <= estimate, max_card
        if max_card >= 20:
            assert measured >= 0.8 * estimate, max_card


def test_bit_cache_ceiling():
    def elements(max_card):
        return sum(partition_count(n) for n in range(max_card + 1))
    assert bit_cache_bytes(elements(37)) <= MAX_BIT_CACHE_BYTES
    assert bit_cache_bytes(elements(38)) > MAX_BIT_CACHE_BYTES
    big = enumerate_universe(40)
    # a single down row is refused too, where the row store would be made
    for build in (lambda: big.down_row(5), big.down_bits, big.up_bits):
        with pytest.raises(ResourceLimit):
            build()
    # refused before the cover table or any mask was allocated
    assert big._covers is None
    assert big._down_bits is None and big._up_bits is None


def test_the_ceiling_is_checked_where_a_store_is_made(monkeypatch):
    # with the ceiling just under a small universe's estimate, each way to
    # a down row or the up cache is refused before anything is allocated;
    # an up pass reads only the level layout, which is not budgeted
    small, want = Universe(6), Universe(6).up_bits()[3] << 3
    monkeypatch.setattr(P, 'MAX_BIT_CACHE_BYTES',
                        bit_cache_bytes(len(small)) - 1)
    for build in (lambda: small.down_row(5), small.down_bits, small.up_bits):
        with pytest.raises(ResourceLimit):
            build()
    assert small._covers is None
    assert small._down_bits is None and small._up_bits is None
    assert small.up_mask(3) == want


def test_up_mask_builds_each_cell_once_per_universe(monkeypatch):
    # an up mask is the AND of the cells at its corners, each cell one
    # mask over the whole universe read off the level layout (_cell)
    built = collections.Counter()
    cell = Universe._cell

    def counted(self, a, b):
        if (a, b) not in self._cells:
            built[a, b] += 1
        return cell(self, a, b)
    first, second = Universe(8), Universe(8)
    # a reference by leq, as the up cache is read off the cells too
    want = {o: _strictly_above_by_leq(first, 1 << o, len(first)) | 1 << o
            for o in (0, 3, 17)}
    monkeypatch.setattr(Universe, '_cell', counted)
    for universe in (first, second, first, second):
        for o in (0, 3, 17, 3):
            assert universe.up_mask(o) == want[o]
    # EMPTY has no corner, 2[1] (ordinal 3) has (1, 2), and [2]+3[1]
    # (ordinal 17) has (2, 1) and (1, 4): each universe builds each once
    assert [first.elements[o] for o in (3, 17)] == [
        parse_partition('2[1]'), parse_partition('[2]+3[1]')]
    assert built == {cell: 2 for cell in ((1, 2), (2, 1), (1, 4))}


def test_factorial_partition():
    assert factorial_partition(0) == EMPTY
    assert factorial_partition(1) == parse_partition('[1]')
    assert factorial_partition(4) == parse_partition('(4,3,2,1)')
    # memoized: the same object each time
    for n in range(17):
        assert factorial_partition(n) is factorial_partition(n)


def test_counts_that_are_not_integers_are_refused():
    # refused before any work, so nothing is memoized for them either
    before = factorial_partition.cache_info().currsize
    for n in (2.0, True, False, 2.5, '3', None, -1):
        with pytest.raises(PartitionError, match='integer'):
            factorial_partition(n)
    assert factorial_partition.cache_info().currsize == before
    for n in (2.5, 2.0, True, '3', None):
        with pytest.raises(PartitionError, match='integer'):
            partition_count(n)
    assert partition_count(-1) == 0


# --- text forms

def test_render_examples():
    p = parse_partition
    assert render(EMPTY) == '0'
    assert render(p('(6,6,5)')) == '2[6]+[5]'
    assert render(p('(1,1)')) == '2[1]'


@given(partitions)
def test_render_parse_roundtrip(pi):
    assert parse_partition(render(pi)) == pi


def test_parse_tolerates_unsorted_and_repeated_terms():
    p = parse_partition
    assert p('[1]+[1]') == p('2[1]')
    assert p('[1]+[3]+2[3]') == p('3[3]+[1]')
    assert p(' (6, 6, 5) ') == p('2[6]+[5]')
    assert p('(2,3)') == p('(3,2)')
    assert p('(3,)') == p('[3]')
    assert p('()') == EMPTY


def test_parse_rejects_garbage():
    # an empty item in the tuple form is refused, a trailing comma is not
    for text in ['', '[0]', '0[2]', 'x', '[1]+', '[1]-[1]', '(1,x)',
                 '(1,,2)', '(,3)', '(3,,)', '(,)']:
        with pytest.raises(PartitionError):
            parse_partition(text)
    with pytest.raises(PartitionError, match='unterminated tuple form'):
        parse_partition('(3,2')
